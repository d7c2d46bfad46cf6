"""Leading data against an independent symbolic expansion.

sympy expands f(X^m, phi) with X = x^(1/m) term by term, sharing nothing
with the engine's envelope reading; the top X-degree and its coefficient in
s must match ``substitute``.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npvset.algebra import bipoly
from npvset.puiseux import series, substitute

from conftest import sc

sympy = pytest.importorskip("sympy")

X, S = sympy.symbols("X s")

gaussian = st.builds(sc, st.integers(-3, 3), st.integers(-2, 2))
nonzero_gaussian = gaussian.filter(lambda c: not c.is_zero())
small_bipolys = (
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 3)),
        gaussian,
        min_size=1,
        max_size=5,
    )
    .map(bipoly)
    .filter(lambda f: not f.is_zero())
)


@st.composite
def windows(draw):
    """(m, steps, n): at most two fixed steps above the parameter slot n."""
    m = draw(st.integers(1, 3))
    ks = sorted(draw(st.lists(st.integers(0, 4), max_size=2, unique=True)))
    steps = [(k, draw(nonzero_gaussian)) for k in ks]
    lowest = ks[-1] + 1 if ks else 0
    n = draw(st.integers(lowest, lowest + 3))
    return m, steps, n


def to_sympy(c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
        c.im.numerator, c.im.denominator
    )


def sympy_lead(f, m, steps, n):
    """Top X-degree of f(X^m, phi(X, s)) and its coefficient in s."""
    phi = sum(to_sympy(c) * X ** (m - k) for k, c in steps) + S * X ** (m - n)
    shift = max(0, n - m) * f.deg_y  # clears every negative power of X
    expr = sum(
        to_sympy(c) * X ** (m * dx + shift) * phi**dy for (dx, dy), c in f.terms.items()
    )
    poly = sympy.Poly(sympy.expand(expr), X)
    return Fraction(poly.degree() - shift, m), sympy.expand(poly.LC())


@settings(max_examples=60, deadline=None)
@given(small_bipolys, windows())
def test_substitute_matches_sympy_expansion(f, window):
    m, steps, n = window
    phi = series(m, steps, n)
    lead, r = substitute(f, phi)
    want_exp, want_lead = sympy_lead(f, m, steps, n)
    assert Fraction(r, phi.mult) == want_exp
    got_lead = sum(to_sympy(c) * S**j for j, c in enumerate(lead.coeffs))
    assert sympy.expand(got_lead - want_lead) == 0
