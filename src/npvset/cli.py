"""Command-line surface: parse, run the pipeline, emit deterministic reports.

Exit codes: 0 success, 1 verification counterexample, 2 input error, 3
unresolved: cap exhaustion left open leaves or a root lies outside Q(i)
(results are then lower bounds), 4 internal failure: a structural
condition could not be established, an engine invariant broke or memory
ran out.  JSON output is canonical: sorted keys, exact scalars as
strings, stable ordering everywhere, so identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional, Sequence, Tuple

from .algebra import MapPair, Scalar, normalize_monic
from .classify import classify
from .errors import EngineError, ExtensionRequired, ParseError, PreconditionFailed
from .expansion import Caps, ExpansionNode, curve_branches
from .oracle import DEFAULT_RADII, DEFAULT_SEED, DEFAULT_TOL, branch_limit_sample, properness_probe
from .parsing import (
    format_branch,
    format_poly,
    format_series,
    format_unipoly,
    parse_map,
    parse_series,
)
from .puiseux import leading_data
from .valueset import (
    CHECKS,
    SIGMA,
    SIGMA_PRIME,
    CheckReport,
    dicritical_series,
    nonproper_value_set,
    run_all_checks,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_UNRESOLVED = 3
EXIT_INTERNAL = 4

def _add_shared(ap: argparse.ArgumentParser, suppress: bool) -> None:
    # shared options are accepted before or after the subcommand; the
    # subcommand copies default to SUPPRESS so they only override when given
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    ap.add_argument(
        "--format", dest="fmt", choices=["json", "text"], default=dflt("text")
    )
    caps = Caps()
    ap.add_argument("--max-mult", type=int, default=dflt(caps.max_mult))
    ap.add_argument("--max-k", type=int, default=dflt(caps.max_k))
    ap.add_argument("--max-depth", type=int, default=dflt(caps.max_depth))
    ap.add_argument(
        "--radii", default=dflt(",".join(str(r) for r in DEFAULT_RADII))
    )
    ap.add_argument("--tol", type=float, default=dflt(DEFAULT_TOL))
    ap.add_argument("--seed", type=int, default=dflt(DEFAULT_SEED))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="npvset",
        description="Exact analysis of polynomial plane maps at infinity: "
        "branches, window trees, dicritical series, non-proper value sets, "
        "and the built-in verification suite.",
    )
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--map", help="the two components, e.g. 'x+y; x*y+y^2'")
    src.add_argument("--map-file", help="file containing the same")
    _add_shared(ap, suppress=False)
    sub = ap.add_subparsers(dest="command", required=True)

    def subparser(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_shared(p, suppress=True)
        return p

    p_branches = subparser("branches", "Newton-Puiseux roots at infinity")
    p_branches.add_argument("--which", choices=["P", "Q"], default="P")
    p_branches.add_argument("--depth", type=int, default=8)
    subparser("tree", "window expansion tree")
    p_classify = subparser("classify", "leading data and flags of a series")
    p_classify.add_argument("--series", required=True, help="e.g. '-x + s*x^(-1)'")
    subparser("valueset", "non-proper value set components")
    p_verify = subparser("verify", "run the verification suite")
    p_verify.add_argument("--what", choices=[*CHECKS, "all"], default="all")
    p_oracle = subparser("oracle", "floating-point cross-validation")
    p_oracle.add_argument("--samples", type=int, default=64)
    return ap


_PARSER = _build_parser()  # parsing leaves it unchanged, so one serves every call


def config_from_args(argv: Sequence[str]) -> argparse.Namespace:
    """The parsed options, with the map text in ``map`` and ``caps`` and
    ``radii`` built; the subcommand's own options keep their argparse names."""
    config = _PARSER.parse_args(argv)
    if config.map is None:
        try:
            with open(config.map_file, "r", encoding="utf-8") as fh:
                config.map = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionFailed(f"cannot read map file: {exc}") from None
    try:
        radii = tuple(float(r) for r in config.radii.split(","))
    except ValueError:
        raise PreconditionFailed(f"radii are not numbers: {config.radii}") from None
    # 0 < r_1 < ... < r_n < inf; a nan fails every comparison
    if not all(a < b for a, b in zip((0.0, *radii), (*radii, math.inf))):
        raise PreconditionFailed("radii must be positive, finite, strictly increasing")
    if not 0 <= config.tol < math.inf:
        raise PreconditionFailed(f"tol must be non-negative and finite: {config.tol}")
    config.radii = radii
    config.caps = Caps(config.max_mult, config.max_k, config.max_depth)
    if min(config.caps) <= 0:
        raise PreconditionFailed("caps must be positive")
    return config


# ---------------------------------------------------------------------------
# JSON rendering helpers
# ---------------------------------------------------------------------------


def _lead_json(lead) -> dict:
    return {
        "p_lead": format_unipoly(lead.p_lead),
        "p_exp": lead.p_exp,
        "q_lead": format_unipoly(lead.q_lead),
        "q_exp": lead.q_exp,
        "jac_lead": format_unipoly(lead.jac_lead),
        "jac_exp": lead.jac_exp,
        "mult": lead.mult,
    }


def _node_json(node: ExpansionNode) -> dict:
    return {
        "series": format_series(node.series),
        "chosen_c": str(node.chosen_c) if node.chosen_c is not None else None,
        "status": node.status,
        "lead": _lead_json(node.lead),
        "note": node.note,
        "children": [_node_json(ch) for ch in node.children],
    }


def _check_json(rep: CheckReport) -> dict:
    return {
        "name": rep.name,
        "status": rep.status,
        "data": rep.data,
        "items": rep.items,
    }


def _report(config: argparse.Namespace, **fields) -> dict:
    report = {
        "map": None,
        "command": config.command,
        "result": None,
        "checks": [],
        "signs": {"sigma": SIGMA, "sigma_prime": SIGMA_PRIME},
        "unresolved": [],
    }
    report.update(fields)
    return report


def _collector_paused(fn):
    """fn with the cyclic garbage collector paused while it runs.

    A run and its rendering build no reference cycles, so reference counting
    frees all they allocate; a collection inside them would only scan live
    tables, and a full one the whole heap, wherever an allocation set it off."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_collector_paused
def run(config: argparse.Namespace) -> Tuple[int, dict]:
    """Execute one command; returns (exit code, canonical report dict)."""
    try:
        p_raw, q_raw = parse_map(config.map)
        f = normalize_monic(p_raw, q_raw)
    except (ParseError, PreconditionFailed) as exc:
        return EXIT_INPUT, _report(config, error=str(exc))
    report = _report(
        config, map={"P": format_poly(f.p), "Q": format_poly(f.q), "shear": f.shear}
    )
    code = EXIT_OK
    try:
        if config.command == "branches":
            g = f.p if config.which == "P" else f.q
            branches = curve_branches(g, config.depth)
            report["result"] = {
                "which": config.which,
                "branches": [
                    {
                        "series": format_branch(b),
                        "mult": b.mult,
                        "truncation_k": b.truncation_k,
                    }
                    for b in branches
                ],
            }
        elif config.command == "tree":
            scan = dicritical_series(f, config.caps)
            report["result"] = _node_json(scan.tree)
            report["unresolved"] = scan.unresolved
        elif config.command == "classify":
            phi = parse_series(config.series)
            lead = leading_data(f, phi)
            flags = classify(lead)
            report["result"] = {
                "series": format_series(phi),
                "lead": _lead_json(lead),
                "flags": {
                    "horizontal_P": flags.horizontal_p,
                    "horizontal_Q": flags.horizontal_q,
                    "dicritical": flags.dicritical,
                    "singular": flags.singular,
                },
            }
        elif config.command == "valueset":
            vs = nonproper_value_set(f, config.caps)
            report["result"] = {
                "components": [
                    {
                        "u": format_unipoly(c.u),
                        "v": format_unipoly(c.v),
                        "source": format_series(c.source),
                        "u_is_limit_zero": c.u_is_limit_zero,
                        "v_is_limit_zero": c.v_is_limit_zero,
                    }
                    for c in vs.components
                ],
                "lower_bound_only": bool(vs.unresolved),
            }
            report["unresolved"] = vs.unresolved
            if vs.unresolved:
                code = EXIT_UNRESOLVED
        elif config.command == "verify":
            vr = run_all_checks(f, config.caps, config.what)
            report["checks"] = [_check_json(c) for c in vr.checks]
            report["unresolved"] = vr.unresolved
            report["result"] = {
                "counterexample": vr.counterexample(),
                "statuses": {c.name: c.status for c in vr.checks},
            }
            if vr.counterexample():
                code = EXIT_COUNTEREXAMPLE
            elif vr.unresolved:
                code = EXIT_UNRESOLVED
        elif config.command == "oracle":
            report["result"] = _run_oracle(f, config)
    except ParseError as exc:
        return EXIT_INPUT, _report(config, error=str(exc))
    except ExtensionRequired as exc:
        # a root outside Q(i) is a limit of the engine, not an input error
        report["unresolved"].append(
            {
                "status": "extension_required",
                "factor": format_unipoly(exc.factor),
                "context": exc.context,
            }
        )
        return EXIT_UNRESOLVED, report
    return code, report


def _run_oracle(f: MapPair, config: argparse.Namespace) -> dict:
    vs = nonproper_value_set(f, config.caps)
    samples = []
    sample_params = [Scalar.of(k) for k in (0, 1, 2, -1, 3)]
    for comp in vs.components:
        for c in sample_params:
            target = (comp.u.evaluate(c).to_complex(), comp.v.evaluate(c).to_complex())
            rep = branch_limit_sample(
                f, comp.source, c, target, config.radii, config.tol
            )
            samples.append(
                {
                    "component": format_unipoly(comp.u) + format_unipoly(comp.v),
                    "c": str(c),
                    "errors": rep.errors,
                    "converged": rep.converged,
                }
            )
    aligned = [(comp.source, Scalar.of(1)) for comp in vs.components]
    probe = properness_probe(
        f, config.samples, config.radii[-1], aligned, seed=config.seed
    )
    consistent = bool(probe.clusters) == bool(vs.components)
    return {
        "samples": samples,
        "probe": {
            "bounded_fraction": probe.bounded_fraction,
            "cluster_count": len(probe.clusters),
            "consistent_with_exact": consistent,
        },
    }


@_collector_paused
def render(report: dict, fmt: str) -> str:
    """The report as text, or as JSON when ``fmt`` is "json".

    The JSON is byte-identical to ``json.dumps(report, indent=2,
    sort_keys=True)`` over the report's closed set of types: dicts with str
    keys, lists, tuples, str, int, bool, None and float.  Any other type
    raises TypeError.
    """
    if fmt == "json":
        out: List[str] = []
        _emit_json(report, "\n", out)
        return "".join(out)
    return _render_text(report)


def _emit_json(o, nl: str, out: List[str]) -> None:
    """Append the JSON of ``o`` to ``out``; ``nl`` is a newline followed by
    the indent of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):  # _quote raises TypeError on a key that is not str
            out.append(sep + _quote(k) + ": ")
            _emit_json(o[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _emit_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out.append({"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _render_text(report: dict) -> str:
    lines: List[str] = []
    if report.get("error"):
        lines.append(f"error: {report['error']}")
        return "\n".join(lines)
    m = report["map"]
    lines.append(f"map: P = {m['P']}; Q = {m['Q']} (shear {m['shear']})")
    result = report.get("result")
    cmd = report["command"]
    if cmd == "branches" and result:
        lines.append(f"branches of {result['which']}:")
        for b in result["branches"]:
            lines.append(f"  y = {b['series']}  [mult {b['mult']}]")
    elif cmd == "tree" and result:
        _render_node(result, lines, 0)
    elif cmd == "classify" and result:
        lines.append(f"series: {result['series']}")
        lead = result["lead"]
        lines.append(
            f"  P lead {lead['p_lead']} @ {lead['p_exp']}/{lead['mult']}; "
            f"Q lead {lead['q_lead']} @ {lead['q_exp']}/{lead['mult']}; "
            f"J lead {lead['jac_lead']} @ {lead['jac_exp']}/{lead['mult']}"
        )
        flags = result["flags"]
        lines.append(
            "  flags: "
            + ", ".join(k for k, v in sorted(flags.items()) if v)
        )
    elif cmd == "valueset" and result:
        if not result["components"]:
            lines.append("non-proper value set: empty (map is proper)")
        for comp in result["components"]:
            lines.append(
                f"  component u = {comp['u']}, v = {comp['v']} "
                f"(from window {comp['source']})"
            )
        if result["lower_bound_only"]:
            lines.append("  warning: unresolved leaves, list is a lower bound")
    elif cmd == "verify":
        for check in report["checks"]:
            lines.append(f"  {check['name']}: {check['status']}")
        lines.append(
            f"signs: sigma={report['signs']['sigma']} "
            f"sigma'={report['signs']['sigma_prime']}"
        )
    elif cmd == "oracle" and result:
        for s in result["samples"]:
            lines.append(
                f"  sample c={s['c']}: errors {s['errors']} "
                f"converged={s['converged']}"
            )
        probe = result["probe"]
        lines.append(
            f"  probe: bounded fraction {probe['bounded_fraction']:.3f}, "
            f"clusters {probe['cluster_count']}, "
            f"consistent={probe['consistent_with_exact']}"
        )
    if report.get("unresolved"):
        lines.append(f"unresolved: {report['unresolved']}")
    return "\n".join(lines)


def _render_node(node: dict, lines: List[str], depth: int) -> None:
    pad = "  " * depth
    lines.append(f"{pad}[{node['status']}] {node['series']}")
    for ch in node["children"]:
        _render_node(ch, lines, depth + 1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = config_from_args(argv)
    except (ParseError, PreconditionFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        code, report = run(config)
    except PreconditionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EngineError, MemoryError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
        print(f"error: {message}", file=sys.stderr)
        if config.fmt == "json":
            _emit(render(_report(config, error=message), "json"))
        return EXIT_INTERNAL
    _emit(render(report, config.fmt))
    return code


def _emit(text: str) -> None:
    """Print the report.  A reader that closes the pipe early, as ``head``
    does, only ends the output: stdout then points at the null device, so
    the flush at exit does not raise again."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
