"""The Gaussian-integer root search against the Scalar search it replaced.

The reference below is the earlier ``all_roots``, kept as written: rational
candidates u*r/s built and deduplicated as Scalars, each checked by
``UniPoly.evaluate`` and divided out by ``UniPoly.divmod`` until a remainder
appears, and the quadratic formula through a Fraction square root (whose
squared modulus is written out here).  The new
search must return the same roots, multiplicities and remainder, down to the
remainder's text, which the tree's ``note`` and the ``factor`` of
``ExtensionRequired`` print.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npvset.expansion as expansion_mod
from npvset.algebra import ONE, ZERO, Scalar, UniPoly
from npvset.cli import config_from_args, run
from npvset.errors import EngineError, PreconditionFailed

from conftest import CORPUS_TEXT, M9_TEXT, STRESS_TEXT, sc, up


# ---------------------------------------------------------------------------
# The reference search
# ---------------------------------------------------------------------------


def ref_factor_integer(n: int) -> Dict[int, int]:
    out: Dict[int, int] = {}
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def ref_gaussian_prime_above(p: int) -> Tuple[int, int]:
    for a in range(1, math.isqrt(p) + 1):
        b2 = p - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return (a, b)
    raise EngineError(f"no two-square decomposition for {p}")


def ref_gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_gi_divides(d, g) -> bool:
    n = d[0] * d[0] + d[1] * d[1]
    re = g[0] * d[0] + g[1] * d[1]
    im = g[1] * d[0] - g[0] * d[1]
    return n != 0 and re % n == 0 and im % n == 0


def ref_gi_exact_div(g, d):
    n = d[0] * d[0] + d[1] * d[1]
    return ((g[0] * d[0] + g[1] * d[1]) // n, (g[1] * d[0] - g[0] * d[1]) // n)


def ref_unit_canonical(d):
    return min(d, (-d[0], -d[1]), (-d[1], d[0]), (d[1], -d[0]))


def ref_gaussian_divisors(g) -> List[Tuple[int, int]]:
    primes = []
    rest = g
    norm = g[0] * g[0] + g[1] * g[1]
    for p, e in sorted(ref_factor_integer(norm).items()):
        if p == 2:
            pi = (1, 1)
            while ref_gi_divides(pi, rest):
                primes.append(pi)
                rest = ref_gi_exact_div(rest, pi)
        elif p % 4 == 1:
            a, b = ref_gaussian_prime_above(p)
            for pi in ((a, b), (a, -b)):
                while ref_gi_divides(pi, rest):
                    primes.append(pi)
                    rest = ref_gi_exact_div(rest, pi)
        else:
            pi = (p, 0)
            while ref_gi_divides(pi, rest):
                primes.append(pi)
                rest = ref_gi_exact_div(rest, pi)
    divisors = {(1, 0): None}
    for pi in primes:
        for d in list(divisors):
            divisors.setdefault(ref_unit_canonical(ref_gi_mul(d, pi)))
    return list(divisors)


def ref_clear_denominators(h: UniPoly):
    lcm = math.lcm(*(c.d for c in h.coeffs))
    return [(c.a * (lcm // c.d), c.b * (lcm // c.d)) for c in h.coeffs]


def ref_rational_roots(h: UniPoly) -> List[Scalar]:
    ints = ref_clear_denominators(h)
    num_divs = ref_gaussian_divisors(ints[0])
    den_divs = ref_gaussian_divisors(ints[-1])
    units = [Scalar.of(1), Scalar.of(-1), Scalar.of(0, 1), Scalar.of(0, -1)]
    found = []
    seen = set()
    for r in num_divs:
        rs = Scalar.of(*r)
        for s in den_divs:
            base = rs / Scalar.of(*s)
            for u in units:
                cand = base * u
                if cand in seen:
                    continue
                seen.add(cand)
                if h.evaluate(cand).is_zero():
                    found.append(cand)
    return found


def ref_sqrt_fraction(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def ref_square_root(w: Scalar) -> Optional[Scalar]:
    if w.is_zero():
        return ZERO
    n = ref_sqrt_fraction(w.re * w.re + w.im * w.im)
    if n is None:
        return None
    c = ref_sqrt_fraction((w.re + n) / 2)
    if c is not None and c != 0:
        cand = Scalar.of(c, w.im / (2 * c))
        if cand * cand == w:
            return cand
    d = ref_sqrt_fraction((n - w.re) / 2)
    if d is not None:
        cand = Scalar.of(0, d)
        if cand * cand == w:
            return cand
    return None


def ref_quadratic_roots(h: UniPoly) -> Optional[List[Scalar]]:
    a, b, c = h.coeff(2), h.coeff(1), h.coeff(0)
    disc = b * b - Scalar.of(4) * a * c
    s = ref_square_root(disc)
    if s is None:
        return None
    two_a = (Scalar.of(2) * a).inverse()
    return [(-b + s) * two_a, (-b - s) * two_a]


def ref_merge_roots(roots):
    acc: Dict[Scalar, int] = {}
    for r, m in roots:
        acc[r] = acc.get(r, 0) + m
    return sorted(acc.items(), key=lambda rm: rm[0].sort_key())


def ref_all_roots(h: UniPoly):
    if h.is_zero():
        raise PreconditionFailed("root search on the zero polynomial")
    roots = []
    v = h.valuation()
    if v:
        roots.append((ZERO, v))
        h = UniPoly(h.coeffs[v:])
    while h.degree >= 1:
        if h.degree == 1:
            roots.append((-h.coeff(0) / h.coeff(1), 1))
            h = UniPoly.const(h.lcoeff())
            break
        cands = ref_rational_roots(h)
        if not cands:
            if h.degree == 2:
                pair = ref_quadratic_roots(h)
                if pair is not None:
                    for r in pair:
                        roots.append((r, 1))
                    h = UniPoly.const(h.lcoeff())
                    break
            return ref_merge_roots(roots), h
        for r in cands:
            mult = 0
            while True:
                quo, rem = h.divmod(UniPoly.make([-r, ONE]))
                if not rem.is_zero():
                    break
                h = quo
                mult += 1
            if mult:
                roots.append((r, mult))
    return ref_merge_roots(roots), h


def assert_matches_reference(h: UniPoly) -> None:
    roots, rest = expansion_mod.all_roots(h)
    want_roots, want_rest = ref_all_roots(h)
    assert roots == want_roots, str(h)
    assert rest == want_rest, str(h)
    assert str(rest) == str(want_rest), str(h)


# ---------------------------------------------------------------------------
# Every search the command line makes
# ---------------------------------------------------------------------------

RUN_CONFIGS = [
    (text, command)
    for text in (*CORPUS_TEXT.values(), *STRESS_TEXT.values())
    for command in ("valueset", "verify")
] + [(M9_TEXT, "valueset")]


def recorded_searches(monkeypatch, text, command) -> List[UniPoly]:
    """Every polynomial passed to ``all_roots`` while ``cli.run`` runs."""
    seen: List[UniPoly] = []
    inner = expansion_mod.all_roots

    def recording(h):
        seen.append(h)
        return inner(h)

    monkeypatch.setattr(expansion_mod, "all_roots", recording)
    run(config_from_args(["--map", text, command]))
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("text,command", RUN_CONFIGS)
def test_every_cli_search_matches_reference(monkeypatch, text, command):
    searches = recorded_searches(monkeypatch, text, command)
    assert searches
    for h in searches:
        assert_matches_reference(h)


# ---------------------------------------------------------------------------
# Drawn products c * s^v * prod (s - r_i)^m_i * q(s)^e
# ---------------------------------------------------------------------------
#
# The sizes are bounded because for degree >= 3 both searches try every
# divisor pair of the constant and the leading coefficient, and the number
# of pairs grows exponentially with the number of prime factors of the two:
# random products of larger degree and denominators take seconds per search
# on either side.  That candidate count is the open part of the
# root-finding layer (p-adic candidates would replace it), not something
# these bounds hide; they keep the reference comparison fast.

small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
roots_drawn = st.builds(sc, small_rationals, small_rationals)
nonzero_constants = st.builds(
    sc, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
).filter(lambda c: not c.is_zero())


@st.composite
def products(draw) -> UniPoly:
    h = UniPoly.const(draw(nonzero_constants))
    h = h * UniPoly.make([ZERO] * draw(st.integers(0, 3)) + [ONE])
    for r in draw(st.lists(roots_drawn, max_size=3, unique=True)):
        for _ in range(draw(st.integers(1, 3))):
            h = h * UniPoly.make([-r, ONE])
    degree = draw(st.sampled_from([0, 2, 3]))
    if degree:
        low = draw(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree))
        q = up(*low, 1)
        for _ in range(draw(st.integers(0, 2))):
            h = h * q
    return h


@settings(max_examples=200, deadline=None)
@given(products())
def test_drawn_products_match_reference(h):
    assert_matches_reference(h)


@pytest.mark.parametrize(
    "h",
    [
        up(1, 2, 1),  # a double root from the closed form
        UniPoly.make([sc(0, -2), ZERO, ONE]),  # roots 1+i and -1-i
        UniPoly.make([sc(1), sc(-1, 1)]),  # root 1/(-1+i) = (-1-i)/2
        # a double root (1+i)/2 = 1/(1-i): the divisions use b = 1-i, not 2
        UniPoly.make([sc(-1), sc(1, -1)]) ** 2 * up(-3, 1),
        up(-1, 1) ** 2 * UniPoly.make([sc(0, 1), sc(2)]),  # linear rest
        up(0, 0, 5),
        up(7),
    ],
    ids=str,
)
def test_hand_picked_inputs_match_reference(h):
    assert_matches_reference(h)
