"""Workload process of the npvset benchmark: one closed-loop client.

Started fresh by run.py for every measurement, so that each one pays the
import of npvset and nothing is shared with an earlier run.  It sets the
memory ceiling, imports npvset from the checkout's ``src``, builds one
``RunConfig`` per op and prints ``READY``, then a calibration time.  In
``setup`` mode it then exits.
In ``measure`` mode it runs passes over the ops, one op in flight, until
``--seconds`` have passed, and prints one JSON line with the outcome.

Each op is ``cli.run`` followed by ``cli.render(report, "json")``, timed
together, under a deadline set with ``signal.setitimer``.  Hitting the
memory ceiling or the deadline fails that op only; the next op runs.

    python3 perfbench/child.py --workload corpus --seed 1 --mode measure \\
        --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    DEADLINE,
    MEMORY,
    REFERENCE_CALIB_S,
    calibrate,
    classify_outcome,
    speed_factor,
)
from tracer import TIMED_SUFFIXES, Tracer  # noqa: E402
from workloads import MAPS, WORKLOADS  # noqa: E402

MEMORY_CEILING = 512 * 2**20  # RLIMIT_AS of this process, in bytes
DEADLINE_S = 15.0  # per op; the slowest op at the seed takes about 1.6 s
SPEED_SAMPLE_S = 0.1  # CPU seconds between calibrations inside an op
SPANS_DIR = ROOT / ".perfbench"


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so engine code cannot swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def import_program():
    """npvset.cli from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from npvset import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"npvset was imported from {cli.__file__}, not {src}")
    return cli


def build_ops(cli, workload):
    ops = WORKLOADS[workload]
    configs = [
        cli.config_from_args(["--map", MAPS[op.map_name], op.command, "--format", "json"])
        for op in ops
    ]
    return ops, configs


def run_op(cli, config):
    """(seconds, error, exit code, report, JSON text) of one op."""
    error = code = report = text = end = None
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    start = time.perf_counter()
    try:
        try:
            code, report = cli.run(config)
            text = cli.render(report, "json")
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except MemoryError:
        error = MEMORY
    except DeadlineExceeded:
        error = DEADLINE
    except Exception as exc:  # any other crash fails this op and the run goes on
        error = f"exception {type(exc).__name__}: {exc}"
    # end is None only when the alarm fired inside the finally clause
    seconds = (end or time.perf_counter()) - start
    return seconds, error, code, report, text


class SpeedProbe:
    """Calibrations taken before, during and after each op.

    The machine's speed changes within seconds, so a long op is scaled by
    calibrations made while it runs: a SIGPROF handler calibrates every
    SPEED_SAMPLE_S of CPU time, and the handler's time is taken off the op.
    """

    def __init__(self):
        self.samples = [calibrate()]
        self.spent = 0.0

    def _on_prof(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def measure(self, fn, *args, sample=True):
        """fn(*args) with its seconds (first item) net of the handler's, and
        the mean calibration time around and during it."""
        self.spent = 0.0
        previous = signal.signal(signal.SIGPROF, self._on_prof)
        if sample:
            signal.setitimer(signal.ITIMER_PROF, SPEED_SAMPLE_S, SPEED_SAMPLE_S)
        try:
            seconds, *rest = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        after = calibrate()
        calib = statistics.fmean(self.samples + [after])
        self.samples = [after]
        return (seconds - self.spent, *rest), calib


class Client:
    """Runs passes over the ops and keeps each op's first output."""

    def __init__(self, cli, ops, configs, seed):
        self.cli, self.ops, self.configs = cli, ops, configs
        self.rng = random.Random(seed)
        self.first_text = [None] * len(ops)
        self.probe = SpeedProbe()

    def passes(self, seconds, tracer=None):
        """Passes until ``seconds`` have passed; at least one.

        Returns (passes, per-pass tracer metrics); a pass is a list of rows,
        one per op, in the order run.
        """
        out, layer = [], []
        stop = time.perf_counter() + seconds
        while not out or time.perf_counter() < stop:
            order = list(range(len(self.ops)))
            self.rng.shuffle(order)
            rows = []
            for i in order:
                if tracer is not None:
                    tracer.op = i
                rows.append(self._one(i, sample=tracer is None))
            out.append(rows)
            if tracer is not None:
                layer.append(tracer.end_pass())
        return out, layer

    def _one(self, i, sample):
        """One op.  Traced passes take no calibrations inside the op, so that
        those do not land in the self time of the traced functions."""
        op = self.ops[i]
        (seconds, error, code, report, text), calib = self.probe.measure(
            run_op, self.cli, self.configs[i], sample=sample
        )
        status, reason = classify_outcome(op, error, code, report, text, self.first_text[i])
        if self.first_text[i] is None and text is not None:
            self.first_text[i] = text
        return {
            "op": op.label,
            "command": op.command,
            "seconds": seconds,
            "status": status,
            "reason": reason,
            "calib_s": calib,
        }


def summarize_layers(per_pass, factors):
    """One value per per-layer metric: for timings the median over passes,
    each scaled by its pass's speed factor; for counts the count itself,
    which must repeat exactly."""
    out, unsteady = {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name.endswith(TIMED_SUFFIXES):
            out[name] = statistics.median(v * f for v, f in zip(values, factors))
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return out, unsteady


def measure(cli, ops, configs, seed, seconds, trace, workload):
    client = Client(cli, ops, configs, seed)
    if not trace:
        passes, _ = client.passes(seconds)
        return {"passes": passes}
    # Half the time untraced, half traced: the ratio is the tracing overhead.
    plain, _ = client.passes(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, per_pass = client.passes(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    layers, unsteady = summarize_layers(per_pass, [speed_factor(rows) for rows in traced])
    from npvset.algebra import Scalar

    replay = tracer.replay_ns(Scalar)
    factor = REFERENCE_CALIB_S / statistics.median(calibrate() for _ in range(5))
    layers.update({name: ns * factor for name, ns in replay.items()})
    plain_s, traced_s = (
        statistics.median(sum(r["seconds"] for r in rows) * speed_factor(rows) for rows in ps)
        for ps in (plain, traced)
    )
    layers["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_file)
    return {
        "passes": plain + traced,
        "traced_passes": len(traced),
        "layers": layers,
        "unsteady_counts": unsteady,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "measure"], required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    _soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    ceiling = MEMORY_CEILING if hard == resource.RLIM_INFINITY else min(MEMORY_CEILING, hard)
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, hard))
    signal.signal(signal.SIGALRM, _on_alarm)
    cli = import_program()
    ops, configs = build_ops(cli, args.workload)
    print("READY", flush=True)
    # the machine's speed just after set-up, to scale the set-up time
    print("CALIB", statistics.fmean(calibrate() for _ in range(3)), flush=True)
    if args.mode == "setup":
        return 0
    result = measure(cli, ops, configs, args.seed, args.seconds, args.trace, args.workload)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
