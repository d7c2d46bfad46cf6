"""Shared corpus and helpers for the test suite.

The acceptance corpus: four named maps, a proper power map, and six fixed
degree-at-most-4 monic pairs whose leading forms split over the Gaussian
rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import pytest

from npvset.algebra import ZERO, MapPair, Scalar, UniPoly, normalize_monic
from npvset.expansion import upper_hull
from npvset.parsing import parse_map
from npvset.puiseux import Prefix

CORPUS_TEXT = {
    "F1": "x+y; y",
    "F2": "x+y; x*y+y^2",
    "F2T": "x*y+y^2; x+y",
    "F3p": "x+y+x*y+y^2; x*y+y^2",
    "F5": "x; y^2",
    # fixed "random" pairs: degree <= 4, monic in y, Q(i)-splitting leading forms
    "R1": "x+y^2; y",
    "R2": "x+y; y+(x+y)^2",
    "R3": "x*y+y^2+y; x+y",
    "R4": "x+y^2; i*y",
    "R5": "y^2-x; y",
    "R6": "x+i*y; x*y+i*y^2",
}

# stress maps of degree 6 to 12
STRESS_TEXT = {
    "M4": "x+y^3+x*y^2; x*y+y^4",
    "M6": "(x*y-1)^2*y+x; x*y^2-y",
    "M8": "x^3*y^5+x*y+y; x^2*y^3+x",
}
M9_TEXT = "(x*y^2+x+y)^3; x*y+y^2+x^2*y^3"

# one chain, whose final Q lead -3*s^3 - 2*s has the factor 3*s^2 + 2 with
# no root in Q(i)
UNSPLIT_LEAD_TEXT = "2*x+i*x^2*y; -2*x+5*x^3+3*x^3*y"

# degree-12 maps; each curve's branch search meets deep simple roots
DEGREE12_TEXT = {
    "D12": "x^4*y^8+x*y^2+y; x^3*y^5+x",
    "T12": "x^2*y^10+x*y^3+y; x*y^5+x",
    "S12": "x^5*y^7+x^2*y^3+y+x; x^3*y^4+x*y+1",
    "C12": "(x*y^3+x+y)^3; x*y^2+y^3+x^2*y^4",
    "Z12": "(x*y-1)^3*y^3+x; (x*y-1)*y^2-y",
}


COEFFS_TEXT = ["1", "-1", "2", "3", "5", "-2", "i", "(1+i)"]


def random_map_text(rng, max_degree: int = 4) -> str:
    """A map in the input grammar: 2-4 terms per component, total degree 2
    to max_degree, coefficients drawn from COEFFS_TEXT by the seeded rng."""
    deg = rng.randint(2, max_degree)
    comps = []
    for _ in range(2):
        terms = set()
        while len(terms) < rng.randint(2, 4):
            a = rng.randint(0, deg)
            b = rng.randint(0, deg - a)
            if a + b:
                terms.add((a, b))
        comps.append("+".join(f"{rng.choice(COEFFS_TEXT)}*x^{a}*y^{b}" for a, b in sorted(terms)))
    return "; ".join(comps)


def corpus_map(name: str) -> MapPair:
    p, q = parse_map(CORPUS_TEXT[name])
    return normalize_monic(p, q)


@pytest.fixture(scope="session")
def corpus():
    return {name: corpus_map(name) for name in CORPUS_TEXT}


def sc(re=0, im=0) -> Scalar:
    return Scalar.of(re, im)


def up(*coeffs) -> UniPoly:
    """The polynomial with rational coefficients, low degree first."""
    return UniPoly.make([Scalar.of(v) for v in coeffs])


def compose(outer: UniPoly, inner: UniPoly) -> UniPoly:
    """outer with inner substituted for its indeterminate (Horner)."""
    acc = UniPoly.zero()
    for c in reversed(outer.coeffs):
        acc = acc * inner + UniPoly.const(c)
    return acc


def as_prefix(terms) -> Prefix:
    """A list of (x-exponent, coeff) pairs as the Prefix of the same sum.

    The sort is stable, so a repeated exponent keeps its order in the list.
    """
    terms = sorted(terms, key=lambda ec: -ec[0])
    m = math.lcm(*((1 - e).denominator for e, _ in terms))
    return Prefix.of(m, [(int((1 - e) * m), c) for e, c in terms])


def as_fractions(prefix: Prefix) -> list:
    """A Prefix back as the list of (x-exponent, coeff) pairs."""
    return [(1 - Fraction(k, prefix.mult), c) for k, c in prefix.steps]


class PolygonEdge(NamedTuple):
    """An edge of the upper Newton hull: slope and characteristic polynomial."""

    slope: Fraction
    j_lo: int
    j_hi: int
    chi: UniPoly  # coefficient of c^(j - j_lo) indexes the on-edge points


def fraction_hull_edges(pts) -> list:
    """All edges of the upper hull of integer support points, with Fraction
    slopes and characteristic polynomials: the reference for the integer
    slope pairs of ``expansion.hull_edges`` and the edge leads that
    ``puiseux.envelope_lead`` reads at them.

    Points that lie on an edge line but are not vertices contribute their
    leading coefficients to that edge's characteristic polynomial.
    """
    if len(pts) < 2:
        return []
    hull = upper_hull(pts)
    den = pts[0].den
    edges = []
    for a, b in zip(hull, hull[1:]):
        run, rise = b.j - a.j, a.top - b.top
        coeffs = [ZERO] * (run + 1)
        for p in pts:
            # on the edge line: top_p = top_a - (rise/run) * (j_p - j_a)
            if a.j <= p.j <= b.j and (a.top - p.top) * run == rise * (p.j - a.j):
                coeffs[p.j - a.j] = p.lead
        edges.append(
            PolygonEdge(Fraction(rise, run * den), a.j, b.j, UniPoly.make(coeffs))
        )
    return edges
