"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
from metrics import (  # noqa: E402
    DEADLINE,
    FAILED,
    MEMORY,
    OK,
    REFERENCE_CALIB_S,
    UNRESOLVED,
    classify_outcome,
    compare,
    compare_metric,
    pass_sums,
    tail,
)
from tracer import PER_LAYER, TIMED_SUFFIXES, Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

cli = child.import_program()


# -- the tracer changes no output -------------------------------------------


def _outputs(ops, configs):
    texts = []
    for config in configs:
        _s, error, _code, _report, text = child.run_op(cli, config)
        assert error is None
        texts.append(text)
    return texts


def test_traced_and_untraced_outputs_are_byte_identical():
    ops = WORKLOADS["corpus"] + WORKLOADS["stress"]
    _ops, configs = child.build_ops(cli, "corpus")
    configs += child.build_ops(cli, "stress")[1]
    plain = _outputs(ops, configs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _outputs(ops, configs)
    finally:
        tracer.uninstall()
    for op, a, b in zip(ops, plain, traced):
        assert a == b, op.label
    assert tracer.end_pass()["cli.run.calls"] == len(ops)


def test_uninstall_restores_every_binding():
    import npvset.expansion as expansion
    import npvset.valueset as valueset
    from npvset.algebra import Scalar

    before = (valueset.prefix_expansion, expansion.leading_data, Scalar.__mul__)
    tracer = Tracer()
    tracer.install()
    assert valueset.prefix_expansion is not before[0]
    assert Scalar.__mul__ is not before[2]
    tracer.uninstall()
    assert (valueset.prefix_expansion, expansion.leading_data, Scalar.__mul__) == before


def test_a_deleted_function_reports_zero(monkeypatch):
    import npvset.puiseux as puiseux

    monkeypatch.delattr(puiseux, "full_expansion")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    m = tracer.end_pass()
    assert m["puiseux.full_expansion.calls"] == 0
    assert m["puiseux.full_expansion.repeat_share"] == 0
    replayed = {"algebra.scalar_mul.ns", "algebra.scalar_add.ns", "trace.overhead_pct"}
    assert {name for name, _u, _b in PER_LAYER} - set(m) == replayed


def _traced_counts(seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", "corpus", "--seed",
         str(seed), "--mode", "measure", "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["unsteady_counts"] == []
    return {k: v for k, v in result["layers"].items() if not k.endswith(TIMED_SUFFIXES)}


def test_per_layer_counts_repeat_between_traced_runs():
    first, second = _traced_counts(1), _traced_counts(2)
    assert first == second
    # verify builds the tree twice for eq4: more tree builds than ops
    assert first["expansion.expansion_tree.calls"] > len(WORKLOADS["corpus"])


# -- outcome classification -----------------------------------------------------


def _valueset_report(components, checks=()):
    comps = [{"u": list(u), "v": list(v)} for u, v in components]
    return {"result": {"components": comps}, "checks": list(checks)}


F2 = Op("F2", "valueset")
M6 = Op("M6", "valueset")
F2_ANSWER = [(("0",), ("0", "-1"))]


@pytest.mark.parametrize(
    "error, code, want",
    [
        (MEMORY, None, (FAILED, MEMORY)),
        (DEADLINE, None, (FAILED, DEADLINE)),
        ("exception KeyError: 'x'", None, (FAILED, "exception KeyError: 'x'")),
        (None, 1, (FAILED, "exit 1")),
        (None, 2, (FAILED, "exit 2")),
        (None, 4, (FAILED, "unknown exit 4")),
        (None, 0, (OK, "")),
    ],
)
def test_classifier_maps_errors_and_exit_codes(error, code, want):
    report = _valueset_report(F2_ANSWER) if error is None else None
    assert classify_outcome(F2, error, code, report, "t", None) == want


def test_classifier_checks_answers_and_repeats():
    right = _valueset_report(F2_ANSWER)
    assert classify_outcome(F2, None, 0, _valueset_report([]), "t", None)[0] == FAILED
    assert classify_outcome(F2, None, 0, right, "t", "other")[0] == FAILED
    # exit 3: a lower bound, which must lie within the reference
    assert classify_outcome(M6, None, 3, _valueset_report([]), "t", None) == (UNRESOLVED, "exit 3")
    m6 = _valueset_report([(("0",), ("0", "1"))])
    assert classify_outcome(M6, None, 3, m6, "t", "t")[0] == UNRESOLVED
    assert classify_outcome(M6, None, 3, right, "t", None)[0] == FAILED
    failing = {"result": {}, "checks": [{"name": "eq9", "status": "fail"}]}
    assert classify_outcome(Op("F2", "verify"), None, 0, failing, "t", None)[0] == FAILED


class _FakeCli:
    def __init__(self, run):
        self.run = run

    @staticmethod
    def render(report, fmt):
        return json.dumps(report)


def test_run_op_turns_memory_error_and_deadline_into_failures(monkeypatch):
    def exhaust(config):
        raise MemoryError

    def hang(config):
        time.sleep(5)

    monkeypatch.setattr(child, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, child._on_alarm)
    try:
        assert child.run_op(_FakeCli(exhaust), None)[1] == MEMORY
        seconds, error, *_ = child.run_op(_FakeCli(hang), None)
        assert error == DEADLINE and seconds < 1
        assert child.run_op(_FakeCli(lambda c: (0, {})), None)[1:3] == (None, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)


# -- statistics and comparison --------------------------------------------------


@pytest.mark.parametrize(
    "n, rank, percentile",
    [(100, 90, 90.0), (24, 14, 100 * 14 / 24), (11, 1, 100 / 11), (10, 10, 100.0), (1, 1, 100.0)],
)
def test_tail_keeps_ten_samples_beyond(n, rank, percentile):
    values = [float(v) for v in range(n, 0, -1)]  # ranks equal values
    assert tail(values) == (float(rank), pytest.approx(percentile), n)


def test_failed_op_makes_its_batch_infinite_and_times_scale_with_speed():
    ref = REFERENCE_CALIB_S
    passes = [
        [{"command": "valueset", "seconds": 1.0, "status": OK, "calib_s": ref},
         {"command": "verify", "seconds": 2.0, "status": FAILED, "calib_s": ref}],
        # a machine running at half the reference speed
        [{"command": "valueset", "seconds": 3.0, "status": UNRESOLVED, "calib_s": 2 * ref},
         {"command": "verify", "seconds": 5.0, "status": OK, "calib_s": 2 * ref}],
    ]
    assert pass_sums(passes, "valueset") == [1.0, 1.5]
    assert pass_sums(passes, "verify") == [math.inf, 2.5]
    assert pass_sums(passes, "valueset", scaled=False) == [1.0, 3.0]


def test_compare_handles_infinity():
    assert compare_metric(math.inf, math.inf, "lower", 0.1) == "unchanged"
    assert compare_metric(math.inf, 3.0, "lower", 0.1) == "improved"
    assert compare_metric(3.0, math.inf, "lower", 0.1) == "regressed"
    assert compare_metric(1.0, 1.05, "lower", 0.1) == "within bound"
    assert compare_metric(1.0, 1.2, "lower", 0.1) == "regressed"
    assert compare_metric(1.0, 1.2, "higher", 0.1) == "improved"
    rows = compare({"verify_s": {"value": math.inf, "unit": "s"}},
                   {"verify_s": {"value": 7.8, "unit": "s"}}, {})
    assert rows == [("verify_s", math.inf, 7.8, "s", "improved")]


# -- the benchmark as BENCHMARK.json defines it -----------------------------------


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _u, _b in PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    e2e = {"valueset_s", "valueset_s_tail", "verify_s", "verify_s_tail",
           "failed_share", "unresolved_share", "peak_rss_mb", "setup_s"}
    assert {m["name"] for m in spec["end_to_end"]} <= e2e


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
