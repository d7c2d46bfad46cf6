"""Exact arithmetic, Jacobians, and shear normalization."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npvset.algebra import (
    ONE,
    ZERO,
    BiPoly,
    Scalar,
    UniPoly,
    _power,
    bipoly,
    jacobian,
    normalize_monic,
    gaussian_sqrt,
    poly_gcd,
)
from npvset.errors import PreconditionFailed

from conftest import CORPUS_TEXT, corpus_map, sc, up


def follows_sign_rule(root) -> bool:
    """The root gaussian_sqrt picks of the two: c > 0, or c = 0 and d >= 0."""
    c, d = root
    return c > 0 or (c == 0 and d >= 0)


class TestScalar:
    def test_field_ops(self):
        a = sc(Fraction(1, 2), 1)
        b = sc(3, Fraction(-1, 3))
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * a.inverse() == sc(1)

    def test_canonical_equality(self):
        assert sc(Fraction(2, 4)) == sc(Fraction(1, 2))

    def test_pow_negative(self):
        a = sc(0, 2)
        assert a ** -2 == (a * a).inverse()

    def test_str(self):
        assert str(sc(Fraction(3, 2))) == "3/2"
        assert str(sc(-1, 2)) == "-1+2i"
        assert str(sc(0, -1)) == "-i"

    def test_sqrt(self):
        for x, y, root in [(0, 2, (1, 1)), (-4, 0, (0, 2)), (9, 0, (3, 0))]:
            assert gaussian_sqrt(x, y) == root
            assert follows_sign_rule(root)
        assert gaussian_sqrt(2, 0) is None


class _Ref:
    """Two-Fraction reference for Gaussian rationals: the plain definitions."""

    def __init__(self, re, im):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return _Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _Ref(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def inverse(self):
        n = self.norm2()
        return _Ref(self.re / n, -self.im / n)

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = _Ref(1, 0)
        for _ in range(abs(n)):
            out = out * base
        return out

    def text(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        imtxt = {1: "i", -1: "-i"}.get(im, f"{im}i")
        if not re:
            return imtxt
        return f"{re}{'+' if im > 0 else ''}{imtxt}"


fractions = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
pairs = st.tuples(fractions, fractions)


def _same(x: Scalar, r: _Ref) -> bool:
    """x equals the reference value and keeps the triple invariant."""
    return (
        x.re == r.re
        and x.im == r.im
        and x.d > 0
        and math.gcd(x.a, x.b, x.d) == 1
    )


class TestScalarAgainstReference:
    @settings(max_examples=200)
    @given(pairs, pairs)
    def test_ring_and_field_ops(self, u, v):
        x, y = sc(*u), sc(*v)
        rx, ry = _Ref(*u), _Ref(*v)
        assert _same(x + y, rx + ry)
        assert _same(x - y, rx - ry)
        assert _same(x * y, rx * ry)
        assert _same(-x, _Ref(-rx.re, -rx.im))
        # the integer order agrees with the (re, im) Fraction order
        assert (x.sort_key() < y.sort_key()) == ((rx.re, rx.im) < (ry.re, ry.im))
        assert (x.sort_key() == y.sort_key()) == ((rx.re, rx.im) == (ry.re, ry.im))
        assert str(x) == rx.text()
        assert x.to_complex() == complex(float(rx.re), float(rx.im))
        if ry.norm2():
            assert _same(y.inverse(), ry.inverse())
            assert _same(x / y, rx * ry.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                y.inverse()

    @settings(max_examples=100)
    @given(pairs, st.integers(-4, 5))
    def test_pow(self, u, n):
        x, rx = sc(*u), _Ref(*u)
        if n < 0 and not rx.norm2():
            return
        assert _same(x ** n, rx ** n)

    @settings(max_examples=200)
    @given(pairs, pairs, st.integers(1, 30))
    def test_equality_and_hash_follow_the_value(self, u, v, k):
        x, y = sc(*u), sc(*v)
        assert (x == y) == (u == v)
        if x == y:
            assert hash(x) == hash(y)
        # the same value from an unreduced triple
        w = Scalar(x.a * k, x.b * k, x.d * k)
        assert w == x and hash(w) == hash(x)
        assert Scalar(-x.a, -x.b, -x.d) == x
        assert (x == u) is False

    @settings(max_examples=200)
    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
    def test_sqrt(self, c, d):
        root = gaussian_sqrt(c * c - d * d, 2 * c * d)
        assert root in ((c, d), (-c, -d)) and follows_sign_rule(root)

    def test_sqrt_is_none_exactly_off_the_squares(self):
        # every square x + y*i with |x|, |y| <= 40 has a root of norm at
        # most 40*sqrt(2), so both parts of the root lie in [-7, 7]
        squares = {
            (c * c - d * d, 2 * c * d) for c in range(-7, 8) for d in range(-7, 8)
        }
        for x in range(-40, 41):
            for y in range(-40, 41):
                root = gaussian_sqrt(x, y)
                assert (root is not None) == ((x, y) in squares), (x, y)


class TestUniPoly:
    def test_mul_example(self):
        # (s+1)(s-1) = s^2 - 1
        assert up(1, 1) * up(-1, 1) == up(-1, 0, 1)

    def test_derivative_example(self):
        # d/ds (s^2 + s) = 2s + 1
        assert up(0, 1, 1).derivative() == up(1, 2)

    def test_eval_example(self):
        assert up(-1, 0, 1).evaluate(sc(-1)).is_zero()

    @settings(max_examples=300)
    @given(st.lists(st.tuples(fractions, fractions), max_size=7), pairs)
    def test_evaluate_matches_scalar_horner(self, coeffs, at):
        # the integer Horner sum against the Scalar one it replaced
        h, s = UniPoly.make([sc(*c) for c in coeffs]), sc(*at)
        acc = ZERO
        for c in reversed(h.coeffs):
            acc = acc * s + c
        got = h.evaluate(s)
        assert (got.a, got.b, got.d) == (acc.a, acc.b, acc.d)

    def test_divmod_roundtrip(self):
        a = up(1, 2, 0, 1)
        b = up(-1, 1)
        q, r = a.divmod(b)
        assert q * b + r == a

    def test_gcd(self):
        a = up(-1, 0, 1)  # (s-1)(s+1)
        b = up(1, 1)
        assert poly_gcd(a, b) == up(1, 1)


class Counted:
    """A value whose products are counted, to see the work a power does."""

    muls = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        Counted.muls += 1
        return Counted(self.value * other.value)


@pytest.mark.parametrize("n", range(0, 18))
def test_power_squares_only_up_to_the_top_bit(n):
    # base^n takes bit_length(n) - 1 squarings and one product per further
    # set bit: no square past the top bit and no product with one
    Counted.muls = 0
    got = _power(Counted(3), n, Counted(1))
    assert got.value == 3 ** n
    assert Counted.muls == max(n.bit_length() - 1, 0) + max(bin(n).count("1") - 1, 0)
    # the same values for each type that powers through it
    s, u = sc(2, -1), UniPoly.make([ONE, sc(0, 1), sc(2)])
    b = bipoly({(1, 2): ONE, (1, 0): ONE, (0, 1): sc(1, 1)})
    for base, one in ((s, ONE), (u, up(1)), (b, bipoly({(0, 0): ONE}))):
        want = one
        for _ in range(n):
            want = want * base
        assert base ** n == want


scalar_strategy = st.builds(
    lambda a, b: sc(a, b),
    st.integers(-4, 4),
    st.integers(-2, 2),
)


def small_bipoly():
    return st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        scalar_strategy,
        max_size=4,
    ).map(BiPoly)


class TestBiPolyProperties:
    @settings(max_examples=60)
    @given(small_bipoly(), small_bipoly(), small_bipoly())
    def test_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a

    @settings(max_examples=60)
    @given(small_bipoly(), small_bipoly())
    def test_jacobian_antisymmetric(self, p, q):
        assert jacobian(p, q) == -jacobian(q, p)

    @settings(max_examples=60)
    @given(small_bipoly(), small_bipoly(), small_bipoly())
    def test_jacobian_bilinear(self, p, q, r):
        assert jacobian(p + r, q) == jacobian(p, q) + jacobian(r, q)


# The Scalar-dict BiPoly operations that the integer numerators replaced,
# kept as written except that each returns a dict with zeros dropped.


def ref_clean(terms):
    return {k: v for k, v in terms.items() if not v.is_zero()}


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, ZERO) + v
    return ref_clean(out)


def ref_sub(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, ZERO) - v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for (ia, ja), ca in a.items():
        for (ib, jb), cb in b.items():
            k = (ia + ib, ja + jb)
            out[k] = out.get(k, ZERO) + ca * cb
    return ref_clean(out)


def ref_scale(a, s):
    return ref_clean({k: v * s for k, v in a.items()})


def ref_pow(a, n):
    out = {(0, 0): ONE}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_diff_x(a):
    return ref_clean({(i - 1, j): c * Scalar.of(i) for (i, j), c in a.items() if i})


def ref_diff_y(a):
    return ref_clean({(i, j - 1): c * Scalar.of(j) for (i, j), c in a.items() if j})


def ref_jacobian(p, q):
    return ref_sub(
        ref_mul(ref_diff_x(p), ref_diff_y(q)), ref_mul(ref_diff_y(p), ref_diff_x(q))
    )


def ref_shear(a, t):
    if t == 0:
        return a
    out = {}
    ts = Scalar.of(t)
    for (i, j), c in a.items():
        for r in range(i + 1):
            k = (r, j + i - r)
            coeff = c * Scalar.of(math.comb(i, r)) * ts ** (i - r)
            out[k] = out.get(k, ZERO) + coeff
    return ref_clean(out)


def ref_top_form_value(a, t):
    d = max((i + j for (i, j) in a), default=-1)
    acc = ZERO
    ts = Scalar.of(t)
    for (i, j), c in a.items():
        if i + j == d:
            acc = acc + c * ts ** i
    return acc


gaussian_rationals = st.builds(
    Scalar, st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 12)
)
gaussian_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), gaussian_rationals, max_size=5
)


def same_as_reference(p: BiPoly, terms: dict) -> bool:
    """p has the reference's value and keeps the numerator invariant."""
    parts = [x for xy in p.nums.values() for x in xy]
    return (
        p.terms == terms
        and p.den > 0
        and all(xy != (0, 0) for xy in p.nums.values())
        and math.gcd(p.den, *parts) == 1
    )


class TestBiPolyAgainstReference:
    @settings(max_examples=150)
    @given(
        gaussian_terms, gaussian_terms, gaussian_rationals, st.integers(0, 3), st.integers(-3, 3)
    )
    def test_operations(self, u, v, s, n, t):
        a, b = BiPoly(u), BiPoly(v)
        ru, rv = ref_clean(u), ref_clean(v)
        assert same_as_reference(a, ru)
        assert same_as_reference(a + b, ref_add(ru, rv))
        assert same_as_reference(a - b, ref_sub(ru, rv))
        assert same_as_reference(-a, ref_scale(ru, -ONE))
        assert same_as_reference(a * b, ref_mul(ru, rv))
        assert same_as_reference(a.scale(s), ref_scale(ru, s))
        assert same_as_reference(a ** n, ref_pow(ru, n))
        assert same_as_reference(a.shear(t), ref_shear(ru, t))
        assert same_as_reference(jacobian(a, b), ref_jacobian(ru, rv))
        assert a.top_form_value(t) == ref_top_form_value(ru, t)
        for i in range(5):
            for j in range(5):
                assert a.coeff(i, j) == ru.get((i, j), ZERO)

    @settings(max_examples=150)
    @given(gaussian_terms, gaussian_terms, st.integers(1, 30))
    def test_equal_values_are_equal_and_hash_alike(self, u, v, k):
        a, b = BiPoly(u), BiPoly(v)
        assert (a == b) == (ref_clean(u) == ref_clean(v))
        kk = Scalar.of(k)
        same = [
            (a + b) - b,
            a * BiPoly.const(ONE),
            -(-a),
            a.scale(kk).scale(kk.inverse()),
            a.shear(k).shear(-k),
            BiPoly(a.terms),
            bipoly(ref_clean(u)),
        ]
        for w in same:
            assert w == a and hash(w) == hash(a)
        assert a - a == BiPoly({}) and hash(a - a) == hash(BiPoly({}))


class TestJacobian:
    def test_coordinate_pair(self):
        assert jacobian(bipoly({(1, 0): 1}), bipoly({(0, 1): 1})) == bipoly(
            {(0, 0): 1}
        )

    def test_f2(self):
        # P=x+y, Q=xy+y^2: P_x=1, P_y=1, Q_x=y, Q_y=x+2y -> (x+2y)-y = x+y
        p = bipoly({(1, 0): 1, (0, 1): 1})
        q = bipoly({(1, 1): 1, (0, 2): 1})
        assert jacobian(p, q) == bipoly({(1, 0): 1, (0, 1): 1})

    def test_x_squared_xy(self):
        # P=x^2, Q=xy: P_x=2x, P_y=0, Q_x=y, Q_y=x -> 2x^2
        p = bipoly({(2, 0): 1})
        q = bipoly({(1, 1): 1})
        assert jacobian(p, q) == bipoly({(2, 0): 2})


class TestNormalizeMonic:
    def test_already_monic(self):
        p = bipoly({(1, 0): 1, (0, 1): 1})
        q = bipoly({(1, 1): 1, (0, 2): 1})
        f = normalize_monic(p, q)
        assert f.shear == 0 and f.p == p and f.q == q

    def test_shear_one(self):
        # (x, xy) -> (x+y, xy+y^2) with t=1
        f = normalize_monic(bipoly({(1, 0): 1}), bipoly({(1, 1): 1}))
        assert f.shear == 1
        assert f.p == bipoly({(1, 0): 1, (0, 1): 1})
        assert f.q == bipoly({(1, 1): 1, (0, 2): 1})

    def test_shear_one_swapped(self):
        f = normalize_monic(bipoly({(1, 1): 1}), bipoly({(1, 0): 1}))
        assert f.shear == 1
        assert f.p == bipoly({(1, 1): 1, (0, 2): 1})
        assert f.q == bipoly({(1, 0): 1, (0, 1): 1})

    def test_rejects_constant(self):
        with pytest.raises(PreconditionFailed):
            normalize_monic(bipoly({(0, 0): 1}), bipoly({(0, 1): 1}))

    @settings(max_examples=40)
    @given(small_bipoly(), small_bipoly(), st.integers(0, 3))
    def test_shear_chain_rule(self, p, q, t):
        # jacobian of the sheared pair = sheared jacobian (shear has det 1)
        assert jacobian(p.shear(t), q.shear(t)) == jacobian(p, q).shear(t)

    def test_monic_after_normalization(self):
        f = normalize_monic(bipoly({(1, 0): 1}), bipoly({(0, 2): 1}))
        assert f.p.deg_y == f.p.total_degree
        assert f.q.deg_y == f.q.total_degree

    def test_constant_jacobian_preserved(self):
        p = bipoly({(1, 0): 1})  # (x, y^2 + x): J = -2y? use J const pair
        q = bipoly({(0, 1): 1})
        f = normalize_monic(p + bipoly({(0, 2): 1}), q)
        # (x+y^2, y) has J = 1; shearing keeps it constant
        assert f.jac.is_constant()

    def test_jacobian_equal_to_a_component_is_that_component(self):
        # F2 and R6 have J = P: the map stores P itself as its Jacobian, so
        # the two read one support-point table
        for name in CORPUS_TEXT:
            f = corpus_map(name)
            assert f.jac == jacobian(f.p, f.q)
            shared = [g for g in (f.p, f.q) if g is f.jac]
            assert shared == ([f.p] if name in ("F2", "R6") else []), name
