"""Workload definitions and reference answers for the npvset benchmark.

A workload is a fixed list of operations, one ``(map, command)`` pair each.
Every pass runs each operation once, in an order shuffled by the seed.

Reference answers for ``valueset`` are component lists ``(u, v)``, each
coordinate written as the ``format_unipoly`` string list of the JSON report.
The order of the list is ignored; multiplicity is not.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

Component = Tuple[Tuple[str, ...], Tuple[str, ...]]

# The acceptance corpus of the test suite (tests/conftest.py::CORPUS_TEXT),
# copied so that the benchmark does not change when the tests do.
CORPUS_MAPS: Dict[str, str] = {
    "F1": "x+y; y",
    "F2": "x+y; x*y+y^2",
    "F2T": "x*y+y^2; x+y",
    "F3p": "x+y+x*y+y^2; x*y+y^2",
    "F5": "x; y^2",
    "R1": "x+y^2; y",
    "R2": "x+y; y+(x+y)^2",
    "R3": "x*y+y^2+y; x+y",
    "R4": "x+y^2; i*y",
    "R5": "y^2-x; y",
    "R6": "x+i*y; x*y+i*y^2",
}

# The stress maps of the roadmap, degree 6 to 12.
STRESS_MAPS: Dict[str, str] = {
    "M4": "x+y^3+x*y^2; x*y+y^4",
    "M6": "(x*y-1)^2*y+x; x*y^2-y",
    "M8": "x^3*y^5+x*y+y; x^2*y^3+x",
    "M9": "(x*y^2+x+y)^3; x*y+y^2+x^2*y^3",
}

MAPS: Dict[str, str] = {**CORPUS_MAPS, **STRESS_MAPS}


def _comp(u: List[str], v: List[str]) -> Component:
    return (tuple(u), tuple(v))


# Non-proper value sets.  F1, F2, F3p and F5 are the values asserted by
# test_criterion_1_value_set_exactness; the other corpus maps are the seed's
# exact (exit 0) answers.  The stress references come from the resultant
# criterion L(a, b) = lc_x Res_y(P - a, Q - b) (Jelonek, Ann. Polon. Math.
# 58 (1993)): L is constant for M4, M8 and M9, so those maps are proper,
# and L = a for M6, so its value set is the line u = 0.
VALUESET_REFERENCE: Dict[str, List[Component]] = {
    "F1": [],
    "F2": [_comp(["0"], ["0", "-1"])],
    "F2T": [_comp(["0", "-1"], ["0"])],
    "F3p": [_comp(["0", "-1"], ["0", "-1"])],
    "F5": [],
    "R1": [],
    "R2": [],
    "R3": [_comp(["0", "-1"], ["-1"])],
    "R4": [],
    "R5": [],
    "R6": [_comp(["0"], ["0", "-1"])],
    "M4": [],
    "M6": [_comp(["0"], ["0", "1"])],
    "M8": [],
    "M9": [],
}


class Op(NamedTuple):
    map_name: str
    command: str  # "valueset" or "verify"

    @property
    def label(self) -> str:
        return f"{self.map_name}/{self.command}"


def _both(names) -> List[Op]:
    return [Op(n, c) for n in names for c in ("valueset", "verify")]


WORKLOADS: Dict[str, List[Op]] = {
    # Everyday degree <= 4 inputs, 4-110 ms per op.  Per-call overhead and
    # repeated work dominate: verify builds the tree twice when eq4 runs and
    # most prefix_expansion calls repeat an earlier (curve, prefix) pair.
    # Running valueset and verify side by side shows a change to the shared
    # tree that helps one command and slows the other.
    "corpus": _both(CORPUS_MAPS),
    # Larger maps dominated by the substitution layer (full_expansion is most
    # of M9 valueset), with root finding under 1% and no repeated
    # full_expansion argument: a per-map cache should show no change here.
    # M9 verify is left out; it has its own workload.
    "stress": [Op(n, "valueset") for n in ("M4", "M6", "M8", "M9")]
    + [Op(n, "verify") for n in ("M4", "M6", "M8")],
    # M9 verify alone.  Root finding enumerates 2^42 Gaussian divisor
    # products and the op ends in MemoryError under the memory ceiling.  Kept
    # apart so that its failure does not hide the timings of stress.
    "m9_verify": [Op("M9", "verify")],
}

COMMANDS = ("valueset", "verify")
