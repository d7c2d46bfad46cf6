"""Helpers of the benchmark: op outcomes, machine speed, statistics, comparison.

Nothing here imports npvset, so the tests of these rules run without it.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import VALUESET_REFERENCE, Op

OK = "ok"
UNRESOLVED = "unresolved"
FAILED = "failed"

# Errors raised while an op runs, as the workload process names them.
MEMORY = "memory ceiling"
DEADLINE = "deadline"

# Failure reasons that mean the program ran out of a benchmark limit rather
# than giving a wrong or missing answer.
LIMIT_REASONS = (MEMORY, DEADLINE)


def _components(report: dict) -> List[tuple]:
    comps = report["result"]["components"]
    return sorted((tuple(c["u"]), tuple(c["v"])) for c in comps)


def _is_subset(got: List[tuple], want: List[tuple]) -> bool:
    rest = list(want)
    for c in got:
        if c not in rest:
            return False
        rest.remove(c)
    return True


def classify_outcome(
    op: Op,
    error: Optional[str],
    code: Optional[int],
    report: Optional[dict],
    text: Optional[str],
    first_text: Optional[str],
) -> Tuple[str, str]:
    """(status, reason) of one op run.

    ``error`` is MEMORY, DEADLINE or the text of an uncaught exception, and
    None when ``cli.run`` returned.  ``first_text`` is the JSON output of the
    op's first repetition in this process (None on the first one).
    """
    if error is not None:
        return FAILED, error
    if code in (1, 2):
        return FAILED, f"exit {code}"
    if code not in (0, 3):
        return FAILED, f"unknown exit {code}"
    failing = [c["name"] for c in report.get("checks", []) if c["status"] == "fail"]
    if failing:
        return FAILED, "check failed: " + ",".join(failing)
    if op.command == "valueset":
        got = _components(report)
        want = sorted(VALUESET_REFERENCE[op.map_name])
        if code == 0 and got != want:
            return FAILED, "answer differs from the reference"
        if code == 3 and not _is_subset(got, want):
            return FAILED, "lower bound not within the reference"
    if first_text is not None and text != first_text:
        return FAILED, "output not byte-identical across repetitions"
    if code == 3:
        return UNRESOLVED, "exit 3"
    return OK, ""


# Seconds that calibrate() takes at the reference speed: about the median on
# a 2-core x86-64 VM with CPython 3.11, where the benchmark was defined.
REFERENCE_CALIB_S = 0.0025


def calibrate() -> float:
    """Seconds taken now by a fixed Q(i) polynomial product.

    The kernel uses the standard library alone, so no change to npvset
    changes its work; the collector is off so that the program's heap does
    not either.  It measures how fast the machine runs Python right now.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        a = [(Fraction(k + 1, k + 2), Fraction(k, 3)) for k in range(12)]
        b = [(Fraction(2 * k + 1, 5), Fraction(-k, 7)) for k in range(12)]
        out = [(Fraction(0), Fraction(0))] * 23
        for i, (ar, ai) in enumerate(a):
            for j, (br, bi) in enumerate(b):
                re, im = out[i + j]
                out[i + j] = (re + ar * br - ai * bi, im + ar * bi + ai * br)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def speed_factor(rows: Sequence[dict]) -> float:
    """Scale from a pass's wall times to the reference speed, for timings
    that cover a whole pass: the reference calibration time over the median
    calibration time of the pass's ops."""
    return REFERENCE_CALIB_S / statistics.median(r["calib_s"] for r in rows)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the tail of ``values``.

    The tail is the highest percentile that still has at least ten samples
    beyond it: the sample of rank n - 10 in ascending order, at percentile
    100 * (n - 10) / n.  With ten samples or fewer no percentile qualifies,
    and the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def pass_sums(
    passes: Sequence[Sequence[dict]], command: str, scaled: bool = True
) -> List[float]:
    """Per pass, the summed wall time of its ``command`` ops.

    Unless ``scaled`` is false, each op's time is scaled to the reference
    speed by the calibration time measured around it.  A pass in which one
    of those ops failed did not complete its batch and counts as +inf.
    """
    sums = []
    for rows in passes:
        mine = [r for r in rows if r["command"] == command]
        if not mine:
            continue
        if any(r["status"] == FAILED for r in mine):
            sums.append(math.inf)
        elif scaled:
            sums.append(sum(r["seconds"] * REFERENCE_CALIB_S / r["calib_s"] for r in mine))
        else:
            sums.append(sum(r["seconds"] for r in mine))
    return sums


def compare_metric(base: float, new: float, better: str, bound: float) -> str:
    """Verdict on one metric: improved, regressed, within bound or unchanged.

    +inf on both sides is unchanged.  Going from +inf to a finite value is an
    improvement when lower is better, and the reverse is a regression.
    """
    if base == new:
        return "unchanged"
    sign = 1 if better == "lower" else -1
    if math.isinf(base) or math.isinf(new) or base == 0:
        return "regressed" if sign * (new - base) > 0 else "improved"
    change = sign * (new - base) / abs(base)
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "within bound"


def compare(
    base: Dict[str, dict], new: Dict[str, dict], spec: Dict[str, dict]
) -> List[Tuple[str, float, float, str, str]]:
    """(name, base, new, unit, verdict) for every metric in either result.

    ``spec`` maps a metric name to its BENCHMARK.json entry; metrics absent
    from it are compared with bound 0 and "lower" is better.
    """
    rows = []
    for name in sorted(set(base) | set(new)):
        entry = spec.get(name, {})
        b = base.get(name, {}).get("value", math.nan)
        n = new.get(name, {}).get("value", math.nan)
        unit = (new.get(name) or base.get(name))["unit"]
        if math.isnan(b) or math.isnan(n):
            verdict = "missing"
        else:
            verdict = compare_metric(
                b, n, entry.get("better", "lower"), entry.get("bound", 0.0)
            )
        rows.append((name, b, n, unit, verdict))
    return rows
