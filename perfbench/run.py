"""npvset benchmark: wall time of ``valueset`` and ``verify`` on named workloads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each measurement runs in a fresh child process
(child.py), one closed-loop client with one op in flight.  Set-up time is
measured on several more fresh children.  ``--trace 1`` runs the same ops
untraced and then traced (tracer.py) and reports per-layer metrics and the
tracing overhead instead of the end-to-end metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (for ``--workload all``, one such object per workload).
``--out FILE`` saves the full result for compare.py.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    FAILED,
    LIMIT_REASONS,
    REFERENCE_CALIB_S,
    UNRESOLVED,
    pass_sums,
    tail,
)
from tracer import PER_LAYER  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402

SETUP_RUNS = 7  # timed fresh interpreters per run, after one untimed warm-up
RUN_LIMIT_S = 170  # the whole run, whatever the workload does


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout(f"run exceeded {RUN_LIMIT_S} s")


def spawn(workload, seed, mode, seconds=0.0, trace=0):
    """Start a fresh child; returns (seconds until READY, its calibration
    time, its last stdout line)."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        calib = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or calib[:1] != ["CALIB"] or code != 0:
        raise RuntimeError(f"workload process failed (exit {code}): {' '.join(cmd)}")
    lines = rest.splitlines()
    return setup_s, float(calib[1]), (lines[-1] if lines else "")


def end_to_end(result, starts):
    """The end-to-end metrics: {name: {value, unit[, percentile, samples]}}.

    Times are scaled to the reference speed (metrics.REFERENCE_CALIB_S);
    the ``*_wall_s`` metrics give the unscaled wall times beside them.
    ``starts`` holds (set-up seconds, calibration seconds, _) per child.
    """
    passes = result["passes"]
    rows = [r for p in passes for r in p]
    m = {}
    for command in COMMANDS:
        sums = pass_sums(passes, command)
        if not sums:
            continue  # the workload has no op of this command
        m[f"{command}_s"] = {"value": statistics.median(sums), "unit": "s", "samples": len(sums)}
        value, pct, n = tail(sums)
        m[f"{command}_s_tail"] = {"value": value, "unit": "s", "percentile": pct, "samples": n}
        wall = statistics.median(pass_sums(passes, command, scaled=False))
        m[f"{command}_wall_s"] = {"value": wall, "unit": "s", "samples": len(sums)}
    for status, name in ((FAILED, "failed_share"), (UNRESOLVED, "unresolved_share")):
        share = sum(r["status"] == status for r in rows) / len(rows)
        m[name] = {"value": share, "unit": "share"}
    m["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    setup = [wall * REFERENCE_CALIB_S / calib for wall, calib, _line in starts]
    m["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}
    wall = statistics.median(wall for wall, _calib, _line in starts)
    m["setup_wall_s"] = {"value": wall, "unit": "s", "samples": len(starts)}
    m["calib_ms"] = {
        "value": 1000 * statistics.median(r["calib_s"] for r in rows),
        "unit": "ms",
        "samples": len(rows),
    }
    return m


def per_layer(result):
    layers = result["layers"]
    return {name: {"value": layers[name], "unit": unit} for name, unit, _better in PER_LAYER}


def run_workload(workload, seed, seconds, trace):
    spawn(workload, seed, "setup")  # warm-up: writes the bytecode cache
    starts = [spawn(workload, seed, "setup") for _ in range(SETUP_RUNS)]
    starts.append(spawn(workload, seed, "measure", seconds, trace))
    result = json.loads(starts[-1][2])
    rows = [r for p in result["passes"] for r in p]
    failures = Counter((r["op"], r["reason"]) for r in rows if r["status"] == FAILED)
    out = {
        "correct": not any(reason not in LIMIT_REASONS for _op, reason in failures),
        "attempted": len(rows),
        "failed": sum(failures.values()),
        "metrics": per_layer(result) if trace else end_to_end(result, starts),
    }
    return out, result, failures


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, out, result, failures, trace):
    print(f"== workload {workload}: {out['attempted']} ops attempted, "
          f"{out['failed']} failed, correct={out['correct']}")
    for (op, reason), n in sorted(failures.items()):
        print(f"   failed {op}: {reason} (x{n})")
    for name, m in out["metrics"].items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']:.1f} of {m['samples']} passes)"
        elif "samples" in m:
            extra = f"  (median of {m['samples']})"
        print(f"   {name:45s} {_fmt(m['value']):>14s} {m['unit']}{extra}")
    if trace:
        print(f"   traced passes: {result['traced_passes']}, spans: {result['span_count']}, "
              f"written to {result['spans_file']}")
        if result["unsteady_counts"]:
            print("   WARNING: counts differ between passes: "
                  + ", ".join(result["unsteady_counts"]))


def listed_metrics(out, trace):
    """The result with only the metrics that BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    metrics = {
        n: {"value": out["metrics"][n]["value"], "unit": out["metrics"][n]["unit"]}
        for n in names
        if n in out["metrics"]
    }
    return {**{k: out[k] for k in ("correct", "attempted", "failed")}, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write the full result as JSON to this file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "npvset" / "__init__.py").is_file():
        print(f"error: no npvset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S * len(names))
    results = {}
    try:
        for name in names:
            out, result, failures = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, out, result, failures, args.trace)
            results[name] = out
    except (RuntimeError, RunTimeout) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(listed_metrics(results[args.workload], args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
