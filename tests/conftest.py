"""Shared corpus and helpers for the test suite.

The acceptance corpus: four named maps, a proper power map, and six fixed
degree-at-most-4 monic pairs whose leading forms split over the Gaussian
rationals.
"""

from __future__ import annotations

import pytest

from npvset.algebra import BiPoly, MapPair, Scalar, normalize_monic
from npvset.parsing import parse_map

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


def corpus_map(name: str) -> MapPair:
    p, q = parse_map(CORPUS_TEXT[name])
    return normalize_monic(p, q)


@pytest.fixture(scope="session")
def corpus():
    return {name: corpus_map(name) for name in CORPUS_TEXT}


def sc(re=0, im=0) -> Scalar:
    return Scalar.of(re, im)
