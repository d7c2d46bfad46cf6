"""Root search against sympy's factorization over the Gaussian rationals.

sympy factors the same product over Q(i) with its own algorithm.  Its linear
factors must be exactly the roots ``all_roots`` finds, with the same
multiplicities, and the remainder must carry the degree of the other factors.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npvset.algebra import ONE, UniPoly
from npvset.expansion import all_roots

from conftest import sc, up

sympy = pytest.importorskip("sympy")

S = sympy.symbols("s")

gaussian_ints = st.builds(sc, st.integers(-12, 12), st.integers(-12, 12))
nonzero_gaussian_ints = st.builds(sc, st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda c: not c.is_zero()
)
# s^2 + b*s + c as (b, c)
monic_quadratics = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def to_sympy(c):
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def is_irreducible(b, c) -> bool:
    _, factors = sympy.Poly(S**2 + b * S + c, S, gaussian=True).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


@settings(max_examples=30, deadline=None)
@given(
    nonzero_gaussian_ints,
    st.lists(gaussian_ints, max_size=4),
    st.lists(monic_quadratics, max_size=2),
)
def test_roots_match_sympy_factorization(lead, linear_roots, quadratics):
    assume(all(is_irreducible(b, c) for b, c in quadratics))
    h = UniPoly.const(lead)
    expr = to_sympy(lead)
    for r in linear_roots:
        h = h * UniPoly.make([-r, ONE])
        expr *= S - to_sympy(r)
    for b, c in quadratics:
        h = h * up(c, b, 1)
        expr *= S**2 + b * S + c

    roots, rest = all_roots(h)

    _, factors = sympy.Poly(sympy.expand(expr), S, gaussian=True).factor_list()
    want = {}
    other_degree = 0
    for f, mult in factors:
        if f.degree() == 1:
            b, a = f.all_coeffs()[::-1]
            want[(-b / a).as_real_imag()] = mult
        else:
            other_degree += f.degree() * mult
    got = {(sympy.Rational(r.re), sympy.Rational(r.im)): m for r, m in roots}
    assert got == want
    assert rest.degree == other_degree
    assert sum(m for _, m in roots) + rest.degree == h.degree
