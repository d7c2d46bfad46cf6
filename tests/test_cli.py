"""Command-line behavior: commands, exit codes, determinism."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npvset.cli as cli_mod
import npvset.puiseux as puiseux_mod
from npvset.algebra import ZERO
from npvset.cli import (
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_UNRESOLVED,
    config_from_args,
    main,
    render,
    run,
)
from npvset.errors import EngineError, ParseError, PreconditionFailed, VerificationFailure
from npvset.oracle import DEFAULT_SEED

from conftest import CORPUS_TEXT, DEGREE12_TEXT, STRESS_TEXT, UNSPLIT_LEAD_TEXT, random_map_text


def run_cli(args):
    cfg = config_from_args(args)
    code, report = run(cfg)
    return code, report, render(report, cfg.fmt)


class TestCommands:
    def test_valueset_f2_json(self):
        code, report, text = run_cli(
            ["--map", "x+y; x*y+y^2", "valueset", "--format", "json"]
        )
        assert code == EXIT_OK
        comps = report["result"]["components"]
        assert len(comps) == 1
        assert comps[0]["u"] == ["0"]
        assert comps[0]["v"] == ["0", "-1"]
        json.loads(text)  # rendered output is valid JSON

    def test_valueset_automorphism_empty(self):
        code, report, _ = run_cli(["--map", "x+y; y", "valueset"])
        assert code == EXIT_OK
        assert report["result"]["components"] == []

    def test_verify_all_passes(self):
        code, report, _ = run_cli(
            ["--map", "x+y; x*y+y^2", "verify", "--what", "all"]
        )
        assert code == EXIT_OK
        assert report["signs"] == {"sigma": 1, "sigma_prime": 1}
        statuses = report["result"]["statuses"]
        assert statuses["lemma2"] == "pass"
        assert not report["result"]["counterexample"]

    def test_classify(self):
        code, report, _ = run_cli(
            [
                "--map",
                "x+y; x*y+y^2",
                "classify",
                "--series",
                "-x + s*x^(-1)",
            ]
        )
        assert code == EXIT_OK
        flags = report["result"]["flags"]
        assert flags["dicritical"] and flags["horizontal_Q"] and flags["singular"]

    def test_branches(self):
        code, report, _ = run_cli(
            ["--map", "x+y; x*y+y^2", "branches", "--which", "Q"]
        )
        assert code == EXIT_OK
        assert len(report["result"]["branches"]) == 2

    def test_tree_statuses(self):
        code, report, _ = run_cli(["--map", "x+y; x*y+y^2", "tree"])
        assert code == EXIT_OK

        def statuses(node):
            yield node["status"]
            for ch in node["children"]:
                yield from statuses(ch)

        assert "dicritical" in set(statuses(report["result"]))

    def test_oracle(self):
        code, report, _ = run_cli(["--map", "x+y; x*y+y^2", "oracle"])
        assert code == EXIT_OK
        assert all(s["converged"] for s in report["result"]["samples"])
        assert report["result"]["probe"]["consistent_with_exact"]


def raising(error):
    def engine_call(*args):
        raise error

    return engine_call


class TestExitCodes:
    def test_parse_error_is_input_error(self):
        code, report, _ = run_cli(["--map", "x**y; y", "valueset"])
        assert code == EXIT_INPUT and "error" in report

    def test_missing_semicolon(self):
        code, _, _ = run_cli(["--map", "x+y", "valueset"])
        assert code == EXIT_INPUT

    def test_cap_exhaustion(self):
        code, report, _ = run_cli(
            ["--map", "x+y; x*y+y^2", "valueset", "--max-depth", "1"]
        )
        assert code == EXIT_UNRESOLVED
        assert report["result"]["lower_bound_only"]

    @pytest.mark.parametrize(
        "map_text, factor",
        [
            ("x^2+x*y+y^2+x; y", ["1", "1", "1"]),
            ("(x*y-1)^2*y+x; x*y^2-y", ["1", "-1", "1"]),
        ],
    )
    def test_root_outside_field_is_unresolved(self, map_text, factor, capsys):
        args = ["--map", map_text, "branches", "--format", "json"]
        code, report, _ = run_cli(args)
        assert code == EXIT_UNRESOLVED
        assert report["map"] is not None and "error" not in report
        assert report["unresolved"] == [
            {
                "status": "extension_required",
                "factor": factor,
                "context": "characteristic polynomial of an edge",
            }
        ]
        assert main(args) == EXIT_UNRESOLVED
        out = capsys.readouterr()
        assert json.loads(out.out) == report and out.err == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["--map-file", "{missing}", "valueset"],
            ["--map-file", "{latin1}", "valueset"],
            ["--map", "x+y; x*y+y^2", "--radii", "1,abc", "oracle"],
            ["--map", "x+y; x*y+y^2", "--radii", "1,10,inf", "oracle"],
            ["--map", "x+y; x*y+y^2", "--radii", "1,10,nan", "oracle"],
            ["--map", "x+y; x*y+y^2", "--radii", "1,1,1", "oracle"],
            ["--map", "x+y; x*y+y^2", "--tol=-1", "oracle"],
            ["--map", "x+y; x*y+y^2", "--tol=nan", "oracle"],
            ["--map", "x+y; x*y+y^2", "--tol=inf", "oracle"],
        ],
        ids=[
            "missing-file", "not-utf8", "radius-not-a-number", "radius-inf",
            "radius-nan", "radii-equal", "tol-negative", "tol-nan", "tol-inf",
        ],
    )
    def test_unusable_options_are_input_errors(self, args, tmp_path, capsys):
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("x+y; x*y+y^2 # \xe9".encode("latin-1"))
        paths = {"missing": tmp_path / "missing.txt", "latin1": latin1}
        assert main([a.format(**paths) for a in args]) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ")
        assert "Traceback" not in out.err

    @pytest.mark.parametrize(
        "args",
        [
            ["--map", "2\u00b2+x; y", "valueset"],
            ["--map", "x^(1/0); y", "valueset"],
            ["--map", "x+y; x*y+y^2", "classify", "--series", "x^(1/0) + s"],
            ["--map", "(" * 3000 + "x" + ")" * 3000 + "; y", "valueset"],
            ["--map", "-" * 3000 + "x; y", "valueset"],
            ["--map", "1" * 5000 + "*x+y; y", "valueset"],
            ["--map", "x^" + "1" * 5000 + "+y; y", "valueset"],
            ["--map", "x+y; x*y+y^2", "classify", "--series", f"x^(1/{'1' * 5000}) + s"],
            ["--map", "100000^1024*x+y; y", "valueset"],
            ["--map", "x+y; x*y+y^2", "classify", "--series", "s*x^2"],
            ["--map", "x+y; x*y+y^2", "classify", "--series", "x^2 + s*x^(5/3)"],
        ],
        ids=[
            "superscript-digit", "zero-denominator", "series-zero-denominator",
            "deep-parentheses", "many-signs", "huge-numeral", "huge-exponent",
            "series-huge-denominator", "huge-constant-power",
            "series-parameter-above-x", "series-step-above-x",
        ],
    )
    def test_malformed_text_is_an_input_error(self, args, capsys):
        assert main(args) == EXIT_INPUT
        out = capsys.readouterr()
        assert out.out.startswith("error: ") and "position" in out.out
        assert "Traceback" not in out.err

    def test_other_engine_errors_stay_input_errors(self, capsys):
        # a vanishing Jacobian has no leading data along any window
        args = ["--map", "x+y; (x+y)^2", "classify", "--series", "s*x"]
        assert main(args) == EXIT_INPUT
        assert "Jacobian" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error", [ParseError("bad token", 3), PreconditionFailed("outside hypotheses")]
    )
    def test_engine_input_errors_exit_2(self, monkeypatch, error):
        monkeypatch.setattr(cli_mod, "nonproper_value_set", raising(error))
        assert main(["--map", "x+y; x*y+y^2", "valueset"]) == EXIT_INPUT

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_out_of_memory_exits_4(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(cli_mod, "nonproper_value_set", raising(MemoryError()))
        args = ["--map", "x+y; x*y+y^2", "valueset", "--format", fmt]
        assert main(args) == EXIT_INTERNAL
        out = capsys.readouterr()
        assert out.err == "error: out of memory\n"
        if fmt == "json":
            assert json.loads(out.out)["error"] == "out of memory"
        else:
            assert out.out == ""

    @pytest.mark.parametrize(
        "error",
        [
            VerificationFailure("no tracking root"),
            EngineError("branch count 2 does not match degree 3"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_internal_failures_exit_4(self, monkeypatch, capsys, error, fmt):
        monkeypatch.setattr(cli_mod, "nonproper_value_set", raising(error))
        args = ["--map", "x+y; x*y+y^2", "valueset", "--format", fmt]
        assert main(args) == EXIT_INTERNAL
        out = capsys.readouterr()
        assert out.err == f"error: {error}\n"
        if fmt == "json":
            report = json.loads(out.out)
            assert report["error"] == str(error) and report["map"] is None
            assert report["command"] == "valueset"
        else:
            assert out.out == ""


M9 = "(x*y^2+x+y)^3; x*y+y^2+x^2*y^3"


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_m9_verify_under_memory_ceiling():
    # 2^21*i appears as a coefficient: divisor enumeration must stay small
    ceiling = 2 * 2**30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))

    proc = subprocess.run(
        [sys.executable, "-m", "npvset.cli", "--map", M9, "verify",
         "--format", "json"],
        capture_output=True, text=True, env=child_env(), preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert checks and all(c["status"] != "fail" for c in checks)


HUGE_CONSTANT_MAPS = {
    # the tree stops on a quadratic whose constant has a norm near 10^18
    # (10^36): the closed form needs no factoring of it
    "x^2*y^2+1000000007*y+x; y": "-s^2+1000000007",
    "x^2*y^2+1000000007*1000000009*y+x; y": "-s^2+1000000016000000063",
}


def run_cli_process(text, command, *extra, address_space=None):
    """One CLI run with a JSON report in a fresh interpreter, with a 20 s
    deadline; ``extra`` follows the command, and ``address_space`` caps the
    child's RLIMIT_AS in bytes."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "npvset.cli", "--map", text, command, *extra,
         "--format", "json"],
        capture_output=True, text=True, env=child_env(), timeout=20,
        preexec_fn=None if address_space is None else limit,
    )


@pytest.mark.parametrize("text", HUGE_CONSTANT_MAPS)
@pytest.mark.parametrize("command", ["valueset", "verify"])
def test_quadratic_with_huge_constant_finishes(text, command):
    proc = run_cli_process(text, command)
    assert proc.returncode == EXIT_UNRESOLVED, proc.stderr
    unresolved = json.loads(proc.stdout)["unresolved"]
    assert {"status": "extension_required", "note": HUGE_CONSTANT_MAPS[text]} in unresolved


HUGE_POWERS = {
    # multiplied out, the power would have degree 400
    "(x+y+1)^400; y": "power of degree above",
    # multiplied out, the constant would have 1024^3 digits
    "((10^1024)^1024)^1024*x+y; y": "coefficient of more than",
}


@pytest.mark.parametrize(
    "text,command",
    [(text, command) for text in HUGE_POWERS for command in ("valueset", "verify")],
    ids=["valueset", "verify", "constant-valueset", "constant-verify"],
)
def test_huge_power_is_refused_in_time(text, command):
    proc = run_cli_process(text, command)
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert json.loads(proc.stdout)["error"].startswith(HUGE_POWERS[text])


@pytest.mark.parametrize("depth", ["200", "256"])
def test_deep_branches_finish_in_time(depth):
    # M4's branches to index 200 or 256: below each simple root every term
    # costs one monomial shift, with no Newton polygon
    proc = run_cli_process(
        STRESS_TEXT["M4"], "branches", "--which", "P", "--depth", depth
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(json.loads(proc.stdout)["result"]["branches"]) == 3


def test_a_reader_closing_the_pipe_ends_the_output_quietly():
    # M4's branches to index 400 make a report of about 186 KB, more than a
    # pipe holds, so the writer meets the closed pipe; it exits with the
    # run's own code and writes nothing to stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "npvset.cli", "--map", STRESS_TEXT["M4"], "branches",
         "--which", "P", "--depth", "400", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    try:
        assert proc.stdout.read(10) == b'{\n  "check'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=20) == EXIT_OK
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


def test_degree12_verify_finishes_in_time_and_memory():
    # D12's factorization check descends below simple roots; each tail
    # keeps its rows local, so a 1 GiB address space is ample
    proc = run_cli_process(DEGREE12_TEXT["D12"], "verify", address_space=2**30)
    assert proc.returncode == EXIT_UNRESOLVED, proc.stderr
    assert len(json.loads(proc.stdout)["checks"]) == 9


@pytest.mark.parametrize(
    "text",
    [STRESS_TEXT["M6"], DEGREE12_TEXT["D12"], DEGREE12_TEXT["Z12"]],
    ids=["M6", "D12", "Z12"],
)
def test_chains_past_unsplit_roots_are_checked(text):
    # some root of P leaves each chain's window at its top level through an
    # edge polynomial with no root in Q(i) (s^3+1, s^6+1, s^5+1), but every
    # level's own leads split, so the chain is checked; the run still ends
    # in exit 3 for the tree's unsplit factor
    code, report, _ = run_cli(["--map", text, "verify", "--format", "json"])
    assert code == EXIT_UNRESOLVED
    statuses = report["result"]["statuses"]
    assert [statuses[c] for c in ("lemma2", "eq9", "theorem1")] == ["pass"] * 3
    assert not any("skipped_chains" in c["data"] for c in report["checks"])
    assert [u["status"] for u in report["unresolved"]] == ["extension_required"]


def test_chain_with_an_unsplit_lead_is_checked(capsys):
    # the one chain's final Q lead has the factor 3s^2 + 2, with no root in
    # Q(i); the checks read only its degree, so the chain is checked and the
    # run is exact
    code = main(["--map", UNSPLIT_LEAD_TEXT, "verify", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    by_name = {c["name"]: c for c in report["checks"]}
    assert [by_name[c]["status"] for c in ("lemma2", "eq9")] == ["pass", "pass"]
    assert by_name["lemma2"]["data"] == by_name["eq9"]["data"] == {"chains": 1}
    assert report["unresolved"] == []


# Runs every map of a list through valueset and verify in one interpreter,
# with the address space capped at 2 GiB and a 10 s alarm per run; prints
# [text, command, exit code] per run as JSON, and a traceback on stderr for
# any run that raises or outlives its alarm
SWEEP_CHILD = """
import contextlib, io, json, resource, signal, sys, traceback
from npvset.cli import main

class Deadline(Exception):
    pass

def expire(signum, frame):
    raise Deadline("the run outlived its alarm")

resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
signal.signal(signal.SIGALRM, expire)
runs = []
for text in json.loads(sys.argv[1]):
    for command in ("valueset", "verify"):
        code = None
        signal.alarm(10)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["--map", text, command, "--format", "json"])
        except Exception:
            traceback.print_exc()
        finally:
            signal.alarm(0)
        runs.append([text, command, code])
print(json.dumps(runs))
"""


def test_random_maps_end_in_time_and_memory():
    # 40 seeded maps of degree <= 6: each run ends in an exact answer, a
    # lower bound or an input error, never in a traceback; the share that
    # ends exact is not asserted
    rng = random.Random(11)
    texts = [random_map_text(rng, max_degree=6) for _ in range(40)]
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_CHILD, json.dumps(texts)],
        capture_output=True, text=True, env=child_env(), timeout=900,
    )
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    runs = json.loads(proc.stdout)
    assert len(runs) == 2 * len(texts)
    odd = [entry for entry in runs if entry[2] not in (EXIT_OK, EXIT_INPUT, EXIT_UNRESOLVED)]
    assert not odd, odd


def test_out_of_memory_is_an_internal_failure():
    # the divisor search for the 1000-digit constant's roots outgrows a 1 GiB
    # address space; the run ends like any internal failure, no traceback
    proc = run_cli_process(
        "(x*y-1)^2*y+10^999*x; x*y^2-y", "valueset", address_space=2**30
    )
    assert proc.returncode == EXIT_INTERNAL, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == "out of memory"


RUN_CONFIGS = [
    (text, command) for text in CORPUS_TEXT.values() for command in ("valueset", "verify")
] + [(text, "valueset") for text in (*STRESS_TEXT.values(), M9)]


def test_each_prefix_expanded_once_per_run(monkeypatch):
    # the support-point table lives on the curves of the map each run
    # parses: no (curve, prefix) pair is expanded twice within a run, not
    # even for two curves equal in value, and a second run of the same
    # config expands as often as the first
    runs = []
    inner = puiseux_mod.prefix_expansion

    def recording(f, prefix):
        runs[-1].append((f, prefix))
        return inner(f, prefix)

    monkeypatch.setattr(puiseux_mod, "prefix_expansion", recording)
    for text, command in RUN_CONFIGS:
        config = config_from_args(["--map", text, command])
        for _ in range(2):
            runs.append([])
            run(config)
        first, second = runs[-2:]
        # the recorded curves stay alive, so their ids are not reused
        keys = [(id(f), prefix) for f, prefix in first]
        assert len(set(keys)) == len(keys), (text, command)
        assert len(set(first)) == len(first), (text, command)  # by value
        assert first and len(second) == len(first), (text, command)
        assert {id(f) for f, _ in first}.isdisjoint(id(f) for f, _ in second)


def test_runs_leave_no_reference_cycles():
    # run and render pause the cyclic collector, which is sound while
    # reference counting alone frees what they allocate; the collector's
    # state before a call is restored after it, also after an input error
    was_enabled = gc.isenabled()
    try:
        for text, command in [*RUN_CONFIGS, (M9, "tree"), ("x+; y", "valueset")]:
            config = config_from_args(["--map", text, command, "--format", "json"])
            gc.enable()
            render(run(config)[1], "json")
            assert gc.isenabled(), (text, command)
            gc.disable()
            gc.collect()
            render(run(config)[1], "json")
            assert not gc.isenabled(), (text, command)
            assert gc.collect() == 0, (text, command)
    finally:
        if was_enabled:
            gc.enable()


def test_valueset_never_expands_the_jacobian(monkeypatch):
    # the value set is read off the P and Q leads alone; the Jacobian lead
    # is substituted only where a report reads it, and the tree report
    # reads it at every node
    spots = [
        (cli_mod, "normalize_monic"),
        (cli_mod, "dicritical_series"),
        (puiseux_mod, "prefix_expansion"),
    ]
    recorded = {name: [] for _, name in spots}
    for module, name in spots:
        inner, out = getattr(module, name), recorded[name]

        def wrapper(*args, inner=inner, out=out):
            out.append((args, inner(*args)))
            return out[-1][1]

        monkeypatch.setattr(module, name, wrapper)
    checked = 0
    for text in (*CORPUS_TEXT.values(), *STRESS_TEXT.values(), M9):
        for command in ("valueset", "tree"):
            for out in recorded.values():
                out.clear()
            run(config_from_args(["--map", text, command]))
            [(_, f)] = recorded["normalize_monic"]
            if f.jac is f.p or f.jac is f.q:
                continue  # its kernel runs are P's or Q's
            kernel = recorded["prefix_expansion"]
            ran = {prefix for (g, prefix), _ in kernel if g is f.jac}
            if command == "valueset":
                assert not ran, text
            else:
                [(_, scan)] = recorded["dicritical_series"]
                nodes = {node.series.fix_param(ZERO) for node in scan.tree.walk()}
                assert ran == nodes, text
                checked += 1
    assert checked == 13


class TestDeterminism:
    def test_byte_identical_reports(self):
        for text in CORPUS_TEXT.values():
            args = ["--map", text, "verify", "--format", "json"]
            _, _, out1 = run_cli(args)
            _, _, out2 = run_cli(args)
            assert out1 == out2

    def test_subprocess_round(self):
        cmd = [
            sys.executable,
            "-m",
            "npvset.cli",
            "--map",
            "x+y; x*y+y^2",
            "valueset",
            "--format",
            "json",
        ]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 0 and a.stdout == b.stdout


class TestSeedPlumbing:
    def test_environment_does_not_set_the_seed(self, monkeypatch):
        # --seed is the only source of the oracle seed
        monkeypatch.setenv("NPV_SEED", "12345")
        cfg = config_from_args(["--map", "x+y; y", "oracle"])
        assert cfg.seed == DEFAULT_SEED

    def test_flag_beats_default(self):
        cfg = config_from_args(["--map", "x+y; y", "--seed", "99", "oracle"])
        assert cfg.seed == 99


json_text = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é😀\ud800'))
)
json_leaves = st.one_of(
    json_text,
    st.integers(-(2**80), 2**80),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, 5e-324]),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_text, children, max_size=4),
    ),
    max_leaves=25,
)


class TestJsonEmitter:
    @settings(max_examples=300)
    @given(json_values)
    def test_matches_json_dumps(self, obj):
        assert render(obj, "json") == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [{"c": [ZERO]}, {"c": ZERO}, [{1: "one"}], {"s": {1, 2}}])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            render(obj, "json")

    def test_engine_error_report(self, monkeypatch, capsys):
        error = EngineError('invariant "x" broke\n\tat \\ é')
        monkeypatch.setattr(cli_mod, "nonproper_value_set", raising(error))
        args = ["--map", "x+y; x*y+y^2", "valueset", "--format", "json"]
        assert main(args) == EXIT_INTERNAL
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["error"] == str(error)
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
