"""Exact coefficient and polynomial arithmetic over the Gaussian rationals.

Everything downstream works over Q(i): a scalar is an integer triple
(a, b, d) standing for (a + b*i)/d in lowest terms, univariate polynomials
are dense coefficient tuples, bivariate polynomials are sparse exponent
maps to Gaussian-integer numerators (re, im) over one denominator den > 0
with gcd(den, every part) == 1, as ``puiseux.Rows`` holds rows.  All
operations are exact; no floating point enters this module except in the
explicit conversions to ``complex``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import PreconditionFailed

RatInput = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Scalars: elements of Q(i)
# ---------------------------------------------------------------------------


class Scalar:
    """A Gaussian rational (a + b*i)/d held as three normalized ints.

    Invariant: d > 0 and gcd(a, b, d) == 1, so equal values have equal
    triples and structural equality is exact arithmetic equality.  ``re``
    and ``im`` give the parts as reduced Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        if d <= 0:
            if not d:
                raise ZeroDivisionError("scalar with zero denominator")
            a, b, d = -a, -b, -d
        g = math.gcd(a, b, d)
        self.a, self.b, self.d = a // g, b // g, d // g

    @staticmethod
    def of(re: RatInput = 0, im: RatInput = 0) -> "Scalar":
        if type(re) is int and type(im) is int:
            return _triple(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        # with both parts reduced, their least common denominator leaves gcd 1
        dr, di = re.denominator, im.denominator
        d = dr * di // math.gcd(dr, di)
        return _triple(re.numerator * (d // dr), im.numerator * (d // di), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __add__(self, other: "Scalar") -> "Scalar":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(
            self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(
            self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2
        )

    def __neg__(self) -> "Scalar":
        return _triple(-self.a, -self.b, self.d)

    def __mul__(self, other: "Scalar") -> "Scalar":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def inverse(self) -> "Scalar":
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero scalar")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, ONE)

    def __lt__(self, other: "Scalar") -> bool:
        """Lexicographic on (re, im), compared exactly by cross-multiplying."""
        if not isinstance(other, Scalar):
            return NotImplemented
        d1, d2 = self.d, other.d
        l, r = self.a * d2, other.a * d1
        if l != r:
            return l < r
        return self.b * d2 < other.b * d1

    def sort_key(self) -> "Scalar":
        """Total order used for deterministic output: the scalar itself."""
        return self

    def to_complex(self) -> complex:
        # int / int rounds the exact quotient, as float(Fraction) does
        return complex(self.a / self.d, self.b / self.d)

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return rational_text(a, d)
        if b == d:
            imtxt = "i"
        elif b == -d:
            imtxt = "-i"
        else:
            imtxt = f"{rational_text(b, d)}i"
        if not a:
            return imtxt
        sign = "+" if b > 0 else ""
        return f"{rational_text(a, d)}{sign}{imtxt}"

    def __repr__(self) -> str:
        return f"Scalar({self})"


def _power(base, n: int, one):
    """base ** n for n >= 0 by repeated squaring; ``one`` is base ** 0.

    The result starts at the lowest set bit's power of base, and no square
    is taken past the highest bit."""
    if not n:
        return one
    while not n & 1:
        base = base * base
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            result = result * base
        n >>= 1
    return result


def rational_text(n: int, d: int) -> str:
    """n/d for d > 0 written as ``str(Fraction(n, d))`` writes it."""
    g = math.gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def join_terms(parts: Sequence[str]) -> str:
    """Signed terms joined into a sum: a '+' goes before each later part
    that does not already start with '-'."""
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


_new = object.__new__


def _triple(a: int, b: int, d: int) -> Scalar:
    """Scalar from a triple that already satisfies the invariant."""
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


def _reduced(a: int, b: int, d: int) -> Scalar:
    """Scalar (a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    # built inline rather than through _triple: this runs on every + - *
    s = _new(Scalar)
    s.a = a
    s.b = b
    s.d = d
    return s


ZERO = Scalar.of(0)
ONE = Scalar.of(1)
I = Scalar.of(0, 1)


def gaussian_sqrt(x: int, y: int) -> Optional[Tuple[int, int]]:
    """The square root c + d*i of x + y*i in Z[i], or None when there is none.

    c^2 - d^2 = x and 2cd = y force c^2 + d^2 = |x + y*i|, so c^2 and d^2
    are read off the integer norm.  Of the two roots the one returned has
    c > 0, or c = 0 and d >= 0.
    """
    n = math.isqrt(x * x + y * y)
    c = math.isqrt((n + x) // 2)
    d = math.isqrt((n - x) // 2)
    if y < 0:
        d = -d
    if c * c - d * d == x and 2 * c * d == y:
        return (c, d)
    return None


# ---------------------------------------------------------------------------
# Univariate polynomials (dense)
# ---------------------------------------------------------------------------


class UniPoly:
    """Polynomial in one indeterminate; coeffs[k] is the degree-k coefficient.

    Invariant: the tuple carries no trailing zeros, so the zero polynomial is
    the empty tuple and the leading coefficient is always nonzero otherwise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    @staticmethod
    def make(coeffs: Iterable[Scalar]) -> "UniPoly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return UniPoly(tuple(cs))

    @staticmethod
    def zero() -> "UniPoly":
        return UniPoly(())

    @staticmethod
    def const(s: Scalar) -> "UniPoly":
        return UniPoly.make([s])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and all(
            c.is_zero() for c in self.coeffs[:-1]
        )

    def lcoeff(self) -> Scalar:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    def coeff(self, k: int) -> Scalar:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make(
            [self.coeff(k) + other.coeff(k) for k in range(n)]
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make(
            [self.coeff(k) - other.coeff(k) for k in range(n)]
        )

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for ka, ca in enumerate(self.coeffs):
            if ca.is_zero():
                continue
            for kb, cb in enumerate(other.coeffs):
                out[ka + kb] = out[ka + kb] + ca * cb
        return UniPoly.make(out)

    def scale(self, s: Scalar) -> "UniPoly":
        return UniPoly.make([c * s for c in self.coeffs])

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, UniPoly.const(ONE))

    def derivative(self) -> "UniPoly":
        """Formal derivative with respect to the indeterminate."""
        return UniPoly.make(
            [self.coeffs[k] * Scalar.of(k) for k in range(1, len(self.coeffs))]
        )

    def evaluate(self, s: Scalar) -> Scalar:
        """self(s), by a Horner sum on Gaussian integers over one growing
        denominator, reduced once at the end."""
        cs = self.coeffs
        if not cs:
            return ZERO
        p, q, m = s.a, s.b, s.d
        vr, vi, w = cs[-1].a, cs[-1].b, cs[-1].d  # the sum so far is (vr + vi*i)/w
        for c in reversed(cs[:-1]):
            d, wm = c.d, w * m
            vr, vi = (vr * p - vi * q) * d + c.a * wm, (vr * q + vi * p) * d + c.b * wm
            w = wm * d
        return _reduced(vr, vi, w)

    def divmod(self, d: "UniPoly") -> tuple:
        """Exact field division with remainder."""
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = d.degree
        inv = d.lcoeff().inverse()
        quo = [ZERO] * max(0, len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c.is_zero():
                continue
            q = c * inv
            quo[k - dd] = q
            for j, dc in enumerate(d.coeffs):
                rem[k - dd + j] = rem[k - dd + j] - q * dc
        return UniPoly.make(quo), UniPoly.make(rem)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.lcoeff().inverse())

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for nonzero constants)."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            ctxt = str(c)
            if k == 0:
                parts.append(ctxt)
            else:
                xtxt = "s" if k == 1 else f"s^{k}"
                if ctxt == "1":
                    parts.append(xtxt)
                elif ctxt == "-1":
                    parts.append(f"-{xtxt}")
                elif c.a and c.b:
                    parts.append(f"({ctxt})*{xtxt}")
                else:
                    parts.append(f"{ctxt}*{xtxt}")
        return join_terms(parts)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic greatest common divisor via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


# ---------------------------------------------------------------------------
# Bivariate polynomials (sparse)
# ---------------------------------------------------------------------------


class BiPoly:
    """Sparse polynomial in (x, y) over Q(i); keys are (deg_x, deg_y).

    Held as Gaussian-integer numerators over one denominator, the format of
    ``puiseux.Rows``: ``nums`` maps a key to (re, im), the coefficient
    (re + im*i)/den, with no zero entry; den > 0 and gcd(den, every part)
    == 1, so equal polynomials have equal (den, nums).  The arithmetic runs
    on ints; ``terms`` is a read-only view as Scalars.
    """

    __slots__ = ("nums", "den", "table")

    def __init__(self, terms: Mapping[tuple, Scalar]):
        # the lcm of reduced denominators leaves gcd(den, every part) == 1
        den = self.den = math.lcm(*[c.d for c in terms.values()])
        self.nums = {
            k: (c.a * (den // c.d), c.b * (den // c.d)) for k, c in terms.items() if c.a or c.b
        }
        self.table = {}  # prefix -> (rows, points), filled by puiseux

    @staticmethod
    def const(s: Scalar) -> "BiPoly":
        return BiPoly({(0, 0): s})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BiPoly) and (self.den, self.nums) == (other.den, other.nums)

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    @property
    def terms(self) -> Dict[tuple, Scalar]:
        """The coefficients as Scalars, built afresh on each read."""
        return {k: _reduced(re, im, self.den) for k, (re, im) in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.nums)

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.nums), default=-1)

    @property
    def deg_y(self) -> int:
        return max((j for _, j in self.nums), default=-1)

    def coeff(self, i: int, j: int) -> Scalar:
        re, im = self.nums.get((i, j), (0, 0))
        return _reduced(re, im, self.den)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        den = math.lcm(self.den, other.den)
        u, v = den // self.den, den // other.den
        out = {k: (re * u, im * u) for k, (re, im) in self.nums.items()}
        get = out.get
        for k, (re, im) in other.nums.items():
            a = get(k, (0, 0))
            out[k] = (a[0] + re * v, a[1] + im * v)
        return _from_nums(out, den)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + -other

    def __neg__(self) -> "BiPoly":
        return _from_nums({k: (-re, -im) for k, (re, im) in self.nums.items()}, self.den)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: dict = {}
        get = out.get
        for (ia, ja), (ar, ai) in self.nums.items():
            for (ib, jb), (br, bi) in other.nums.items():
                k = (ia + ib, ja + jb)
                a = get(k, (0, 0))
                out[k] = (a[0] + ar * br - ai * bi, a[1] + ar * bi + ai * br)
        return _from_nums(out, self.den * other.den)

    def scale(self, s: Scalar) -> "BiPoly":
        return self * BiPoly.const(s)

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return _power(self, n, BiPoly.const(ONE))

    def evaluate(self, xs: Scalar, ys: Scalar) -> Scalar:
        acc = ZERO
        for (i, j), c in self.terms.items():
            acc = acc + c * (xs ** i) * (ys ** j)
        return acc

    def evaluate_complex(self, xv: complex, yv: complex) -> complex:
        acc, den = 0j, self.den
        for (i, j), (re, im) in self.nums.items():
            # int / int rounds the exact quotient, as Scalar.to_complex does
            acc += complex(re / den, im / den) * (xv ** i) * (yv ** j)
        return acc

    def shear(self, t: int) -> "BiPoly":
        """Source substitution x -> x + t*y, a determinant-one coordinate change."""
        if t == 0:
            return self
        out: dict = {}
        get = out.get
        for (i, j), (re, im) in self.nums.items():
            # (x + t y)^i expanded by binomials
            for r in range(i + 1):
                w, k = math.comb(i, r) * t ** (i - r), (r, j + i - r)
                a = get(k, (0, 0))
                out[k] = (a[0] + re * w, a[1] + im * w)
        return _from_nums(out, self.den)

    def top_form_value(self, t: int) -> Scalar:
        """Value of the top-degree form at (x, y) = (t, 1)."""
        d = self.total_degree
        top = [(re * t ** i, im * t ** i) for (i, j), (re, im) in self.nums.items() if i + j == d]
        return _reduced(sum([re for re, _ in top]), sum([im for _, im in top]), self.den)

    def sorted_terms(self) -> list:
        """Terms in canonical display order: total degree, then x-degree, descending."""
        den = self.den
        items = sorted(self.nums.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
        return [(k, _reduced(re, im, den)) for k, (re, im) in items]

    def __repr__(self) -> str:
        from .parsing import format_poly

        return f"BiPoly({format_poly(self)})"


def _from_nums(nums: dict, den: int) -> BiPoly:
    """The BiPoly of nums over den > 0, with zero entries dropped and the
    common factor of den and every part divided out."""
    nums = {k: v for k, v in nums.items() if v[0] or v[1]}
    g = den
    for re, im in nums.values():
        if g == 1:
            break
        g = math.gcd(g, re, im)
    if g != 1:
        den //= g
        nums = {k: (re // g, im // g) for k, (re, im) in nums.items()}
    b = _new(BiPoly)
    b.nums, b.den, b.table = nums, den, {}
    return b


def bipoly(entries: Mapping[tuple, RatInput | Scalar]) -> BiPoly:
    """Build a BiPoly from {(deg_x, deg_y): coefficient} with plain numbers allowed."""
    out = {}
    for k, v in entries.items():
        out[k] = v if isinstance(v, Scalar) else Scalar.of(v)
    return BiPoly(out)


def jacobian(p: BiPoly, q: BiPoly) -> BiPoly:
    """Jacobian determinant p_x q_y - p_y q_x of the pair (p, q): terms
    a*x^ia*y^ja of p and b*x^ib*y^jb of q add (ia*jb - ja*ib)*a*b to
    x^(ia+ib-1)*y^(ja+jb-1)."""
    out: dict = {}
    get = out.get
    for (ia, ja), (ar, ai) in p.nums.items():
        for (ib, jb), (br, bi) in q.nums.items():
            w = ia * jb - ja * ib
            if w:
                k = (ia + ib - 1, ja + jb - 1)
                a = get(k, (0, 0))
                out[k] = (a[0] + (ar * br - ai * bi) * w, a[1] + (ar * bi + ai * br) * w)
    return _from_nums(out, p.den * q.den)


# ---------------------------------------------------------------------------
# Normalized map pairs
# ---------------------------------------------------------------------------


class MapPair(NamedTuple):
    """A polynomial map of the plane, stored monic in y with its Jacobian.

    ``shear`` records the source substitution x -> x + shear*y that produced
    the stored coordinates; it does not change the image of the map.
    """

    p: BiPoly
    q: BiPoly
    jac: BiPoly
    shear: int

    @property
    def deg_p(self) -> int:
        return self.p.total_degree

    @property
    def deg_q(self) -> int:
        return self.q.total_degree


def normalize_monic(p: BiPoly, q: BiPoly) -> MapPair:
    """Shear the source coordinates until both components are monic in y.

    Monic means deg_y equals the total degree; the coefficient of y^deg is the
    top form evaluated at (t, 1), a nonzero polynomial in t of degree at most
    deg p + deg q, so scanning t = 0, 1, 2, ... terminates quickly.
    """
    if p.is_constant() or q.is_constant():
        raise PreconditionFailed("both map components must be nonconstant")
    bound = p.total_degree + q.total_degree + 1
    for t in range(bound + 1):
        if not p.top_form_value(t).is_zero() and not q.top_form_value(t).is_zero():
            ps, qs = p.shear(t), q.shear(t)
            jac = jacobian(ps, qs)  # one equal to a component shares its table
            return MapPair(ps, qs, next((g for g in (ps, qs) if g == jac), jac), t)
    raise PreconditionFailed("no shear parameter found; inputs degenerate")
