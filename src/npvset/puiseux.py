"""Parametric fractional-power series at infinity and leading data along them.

A parametric series describes a window of curve branches at x -> infinity:

    phi(x, s) = sum_k a_k * x^(1 - k/m)  +  s * x^(1 - n/m)

with finitely many fixed terms and a trailing parameter term.  Leading data
is read off one exact expansion, f(x, prefix + z) = sum_j c_j(x) z^j around
the fixed terms: putting z = s * x^e for the parameter exponent e, the
z-degree j contributes top_j + e*j as its highest x-exponent, so the lead
exponent is the envelope max_j (top_j + e*j) and the lead polynomial collects
lead_j * s^j over the j on that envelope.  Distinct j carry distinct powers
of s, so nothing on the envelope cancels.  ``envelope_lead`` reads that
pair off the support points; ``substitute`` and ``leading_data`` take the
points from the curve's table (one prefix for both components), and the
expansion tree reads a child's leads off the points it already read for
the child's event exponent, or, for a component frozen at a positive
exponent, off the parent's lead alone, and hands both to ``window_lead``.
The same support points drive the Newton polygon
steps of the curve branches, the expansion tree and the chains, which all
read the upper hull through ``expansion.hull_edges``.

A concrete prefix, the fixed part of a window or of a curve branch, is a
``Prefix(mult, steps)`` in lowest terms: mult is the least common
denominator of its exponents, so a sum has one prefix.  Exponents are read
as integers: an expansion's are numerators over its prefix's mult, and a
window's parameter exponent is mult - param_index over the window's mult,
a multiple of the prefix's.  ``substitute``, ``leading_data`` and
``refine`` build no Fraction, and ``envelope_zero`` returns an integer pair
(num, den); a Fraction is built only for a window exponent a method
returns as one (``param_exponent``, ``step_exponents``).
The expansion kernel is one monomial shift: the rows of f(x, s + c*x^e + z)
follow from those of f(x, s + z) by a Taylor shift in z, summed over the
Gaussian integers with one denominator per row.  ``prefix_expansion``
folds one shift per step from the nearest ancestor the curve has tabled
(the empty prefix's rows are f's y-coefficients) and returns only the
support points: for each z-degree j, the top x-exponent and its
coefficient, with only that entry normalized.  A curve's one table,
``BiPoly.table``, maps each prefix expanded on it to (rows, points).
Package code reads the kernel through ``expansion_points``, which reads
that table, with one exception: below a simple root the branch search
(``expansion._expand_curve`` and ``_simple_tail``) takes the parent's rows
from ``prefix_rows``, shifts them term by term with ``shift``, reads the
top entries of rows 0 and 1 and tables nothing.  Each run parses a
fresh map, so a (curve, prefix) pair is expanded once per run and no entry
outlives the run.  Leading data substitutes the Jacobian only when a check
first reads its lead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import BiPoly, MapPair, ONE, Scalar, UniPoly, ZERO, I, _reduced
from .errors import PreconditionFailed


def _exponent_key(k: int, mult: int) -> Scalar:
    """The exponent 1 - k/mult as a real Scalar, ordered and hashed exactly."""
    return _reduced(mult - k, 0, mult)


class Prefix(NamedTuple):
    """The concrete sum of coeff * x^(1 - k/mult) over ``steps``.

    ``steps`` holds ascending (k, coeff) pairs, as ``ParamSeries.steps``
    does, in lowest terms; ``Prefix.of`` reduces steps sharing a factor.
    """

    mult: int
    steps: Tuple[Tuple[int, Scalar], ...]

    @staticmethod
    def of(mult: int, steps: Sequence[Tuple[int, Scalar]]) -> "Prefix":
        """The prefix with mult and every k divided by their gcd."""
        # list comprehensions: generators here raised curve_branches' peak RSS
        g = math.gcd(mult, *[k for k, _ in steps])
        if g == 1:
            return Prefix(mult, tuple(steps))
        return Prefix(mult // g, tuple([(k // g, c) for k, c in steps]))


class ParamSeries(NamedTuple):
    """Window of branches: fixed steps plus a free parameter term.

    ``steps`` is an ascending tuple of (k, coeff) pairs, the term coeff *
    x^(1 - k/mult); ``param_index`` is the k-slot of the parameter term.  The
    canonical form divides mult, param_index and all step indices by their
    gcd, making the representation of a window unique.
    """

    mult: int
    steps: Tuple[Tuple[int, Scalar], ...]
    param_index: int

    @property
    def param_exponent(self) -> Fraction:
        return Fraction(self.mult - self.param_index, self.mult)

    def step_exponents(self) -> List[Tuple[Fraction, Scalar]]:
        return [(1 - Fraction(k, self.mult), c) for k, c in self.steps]

    def coeff_at(self, e: Fraction) -> Scalar:
        """Coefficient of x^e among the fixed steps (zero when absent)."""
        return dict(self.steps).get((1 - e) * self.mult, ZERO)

    def fix_param(self, c: Scalar) -> Prefix:
        """Concrete prefix obtained by pinning the parameter to c."""
        steps = self.steps
        if not c.is_zero():
            steps += ((self.param_index, c),)
        return Prefix.of(self.mult, steps)

    def sort_key(self) -> tuple:
        m = self.mult
        steps = tuple([(_exponent_key(k, m), c) for k, c in self.steps])
        return _exponent_key(self.param_index, m), steps

    def conjugates(self) -> List["ParamSeries"]:
        """All windows obtained by x^(1/m) -> zeta * x^(1/m), zeta in Q(i).

        Only roots of unity available in Q(i) apply: order dividing 4 and
        dividing the multiplicity.
        """
        units = [ONE]
        if self.mult % 2 == 0:
            units.append(-ONE)
        if self.mult % 4 == 0:
            units.extend([I, -I])
        seen = []
        for z in units:
            steps = tuple((k, c * z ** (-k)) for k, c in self.steps)
            cand = ParamSeries(self.mult, steps, self.param_index)
            if cand not in seen:
                seen.append(cand)
        return seen

    def __repr__(self) -> str:
        from .parsing import format_series

        return f"ParamSeries({format_series(self)})"


def series(
    mult: int,
    steps: Iterable[Tuple[int, Scalar]] = (),
    param_index: int = 0,
) -> ParamSeries:
    """Validated, canonicalized constructor for ParamSeries."""
    if mult <= 0:
        raise ValueError("multiplicity must be positive")
    cleaned = sorted((k, c) for k, c in steps if not c.is_zero())
    ks = [k for k, _ in cleaned]
    if len(set(ks)) != len(ks):
        raise ValueError("duplicate step exponents")
    if any(k < 0 for k in ks):
        raise ValueError("step indices must be non-negative")
    if ks and param_index <= max(ks):
        raise ValueError("parameter term must sit strictly below every step")
    if param_index < 0:
        raise ValueError("parameter index must be non-negative")
    g = math.gcd(mult, param_index, *ks)
    if g > 1:
        mult //= g
        param_index //= g
        cleaned = [(k // g, c) for k, c in cleaned]
    return ParamSeries(mult, tuple(cleaned), param_index)


def series_from_exponents(
    steps: Iterable[Tuple[Fraction, Scalar]], param_exp: Fraction
) -> ParamSeries:
    """Build a canonical series from exponent/coefficient data."""
    steps = list(steps)
    m = math.lcm(*((1 - e).denominator for e, _ in steps), (1 - param_exp).denominator)
    ks = [(int((1 - e) * m), c) for e, c in steps]
    return series(m, ks, int((1 - param_exp) * m))


ROOT_WINDOW = ParamSeries(1, (), 0)  # the series s*x, ancestor of every window


class ConcreteBranch(NamedTuple):
    """A single Newton-Puiseux root at infinity, possibly truncated.

    ``terms`` lists (k, coeff) for the term coeff * x^(1 - k/mult).  A branch
    with ``truncation_k`` None is exact (the stored terms are the whole
    root); otherwise terms with index up to truncation_k are complete and
    nothing below is known.
    """

    mult: int
    terms: Tuple[Tuple[int, Scalar], ...]
    truncation_k: Optional[int]

    def exponents(self) -> List[Tuple[Fraction, Scalar]]:
        return [(1 - Fraction(k, self.mult), c) for k, c in self.terms]

    def sort_key(self) -> tuple:
        m = self.mult
        return tuple([(_exponent_key(k, m), c) for k, c in self.terms])


class LeadingData:
    """Leading coefficient polynomials and x-exponents along a window.

    Exponents are integer numerators over the window multiplicity, read off
    the envelopes with no Fraction built: the first component grows like
    p_lead(s) * x^(p_exp/mult), and so do the second and the Jacobian, whose
    pair ``leading_data`` leaves to be substituted, through the curve's
    table, on the first read of ``jac_lead`` or ``jac_exp``.
    """

    __slots__ = ("p_lead", "p_exp", "q_lead", "q_exp", "_jac", "mult", "_source")
    _fields = ("p_lead", "p_exp", "q_lead", "q_exp", "jac_lead", "jac_exp", "mult")

    def __init__(self, p_lead, p_exp, q_lead, q_exp, jac_lead, jac_exp, mult):
        self.p_lead, self.p_exp, self.q_lead, self.q_exp = p_lead, p_exp, q_lead, q_exp
        self._jac, self.mult, self._source = (jac_lead, jac_exp), mult, None

    def _values(self) -> tuple:
        if self._source is not None:  # (Jacobian, window) until the first read
            self._jac, self._source = substitute(*self._source), None
        return (self.p_lead, self.p_exp, self.q_lead, self.q_exp, *self._jac, self.mult)

    jac_lead = property(lambda self: self._values()[4])
    jac_exp = property(lambda self: self._values()[5])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LeadingData) and self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"LeadingData({body})"


# ---------------------------------------------------------------------------
# Support points and leading data
# ---------------------------------------------------------------------------


class SupportPoint(NamedTuple):
    """One z-degree of an expansion with its top x-exponent and coefficient.

    The top exponent is the integer ``top`` over ``den``; every point of one
    expansion shares ``den``, the multiplicity of the prefix.
    """

    j: int
    top: int
    lead: Scalar
    den: int


def expansion_points(f: BiPoly, prefix: Prefix) -> Tuple[SupportPoint, ...]:
    """Support points of f around prefix, tabled on f for as long as it lives."""
    hit = f.table.get(prefix)
    return prefix_expansion(f, prefix) if hit is None else hit[1]


def envelope_numerators(pts: Sequence[SupportPoint], a: int, b: int) -> List[int]:
    """top_j + (a/b)*j for every point, as integers over den*b (b > 0)."""
    den = pts[0].den
    return [p.top * b + a * p.j * den for p in pts]


def envelope_zero(pts: Sequence[SupportPoint]) -> Optional[Tuple[int, int]]:
    """The exponent where a z-degree j > 0 attains envelope value zero, as an
    integer pair (num, den) with den > 0, or None.

    Every line top_j + e*j has slope j >= 0, so the envelope never
    decreases, and a j > 0 line that is maximal where the envelope is zero
    makes it positive at every larger e: at most one such exponent exists.
    It is where the first j > 0 line reaches zero, min_j -top_j/(den*j),
    unless the j = 0 point keeps the envelope above zero.  It covers the
    polygon vertex at height zero, if any: both lines meeting at a vertex
    are maximal there and one of them has j > 0.
    """
    if pts[0].j == 0 and pts[0].top > 0:
        return None
    first = None  # -top/j is least where top/j is greatest
    for p in pts:
        if p.j > 0 and (first is None or p.top * first.j > first.top * p.j):
            first = p
    return None if first is None else (-first.top, first.j * first.den)


def envelope_lead(pts: Sequence[SupportPoint], a: int, b: int) -> Tuple[UniPoly, int]:
    """The envelope of pts at the exponent a/b (b > 0): (lead, e) such that
    lead(s) * x^(e/b) leads f(x, prefix + s*x^(a/b)), for pts of f around
    prefix; e is exact when den divides b.  At an edge's slope, lead is
    s^j_lo times the edge's characteristic polynomial.
    """
    nums = envelope_numerators(pts, a, b)
    top = max(nums)
    coeffs = [ZERO] * (pts[-1].j + 1)
    for p, num in zip(pts, nums):
        if num == top:
            coeffs[p.j] = p.lead
    return UniPoly.make(coeffs), top // pts[0].den


def substitute(f: BiPoly, phi: ParamSeries) -> Tuple[UniPoly, int]:
    """Leading coefficient polynomial of f along the window and its exponent:
    (lead, e) with f(x, phi(x, s)) = lead(s) * x^(e/mult) + lower terms."""
    if f.is_zero():
        raise PreconditionFailed("cannot expand the zero polynomial")
    pts = expansion_points(f, phi.fix_param(ZERO))
    return envelope_lead(pts, phi.mult - phi.param_index, phi.mult)


def leading_data(f: MapPair, phi: ParamSeries) -> LeadingData:
    """Leading data of both map components and the Jacobian along a window."""
    if f.jac.is_zero():
        raise PreconditionFailed("map has identically vanishing Jacobian")
    prefix, a, b = phi.fix_param(ZERO), phi.mult - phi.param_index, phi.mult
    p_lead, q_lead = [envelope_lead(expansion_points(g, prefix), a, b) for g in (f.p, f.q)]
    return window_lead(f, phi, p_lead, q_lead)


def window_lead(
    f: MapPair, phi: ParamSeries, p_lead: Tuple[UniPoly, int], q_lead: Tuple[UniPoly, int]
) -> LeadingData:
    """Leading data along phi from both components' (lead, exponent) pairs,
    exponents over phi.mult; the Jacobian waits for its first read."""
    lead = LeadingData(*p_lead, *q_lead, None, None, phi.mult)
    lead._source = (f.jac, phi)
    return lead


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def refine(
    psi: ParamSeries, c: Scalar, next_k: int, next_mult: int
) -> ParamSeries:
    """Pin psi's parameter to c and open a fresh parameter term lower down.

    The new parameter exponent 1 - next_k/next_mult (next_mult > 0) must be
    strictly smaller than psi's.  psi's steps stay sorted and nonzero with c
    appended below them, so canonicalizing is one division by a gcd.
    """
    if next_mult <= 0 or next_k * psi.mult <= psi.param_index * next_mult:
        raise PreconditionFailed("refinement must strictly decrease the exponent")
    m = math.lcm(psi.mult, next_mult)
    scale_old = m // psi.mult
    steps = [(k * scale_old, coeff) for k, coeff in psi.steps]
    if not c.is_zero():
        steps.append((psi.param_index * scale_old, c))
    n = next_k * (m // next_mult)
    g = math.gcd(m, n, *[k for k, _ in steps])
    return ParamSeries(m // g, tuple([(k // g, coeff) for k, coeff in steps]), n // g)


def is_refinement(
    psi: ParamSeries, phi: ParamSeries
) -> Tuple[bool, Optional[Scalar], List[Tuple[Fraction, Scalar]]]:
    """Does phi refine psi?  Returns (flag, witness c, intermediate coeffs).

    phi refines psi when phi's fixed terms above psi's parameter slot agree
    exactly with psi's steps; the witness c is phi's coefficient at psi's
    parameter exponent and the intermediate list covers exponents strictly
    between the two parameter slots (zeros omitted).
    """
    if phi == psi:
        return True, None, []
    e_cut = psi.param_exponent
    if phi.param_exponent >= e_cut:
        return False, None, []
    upper = [(e, c) for e, c in phi.step_exponents() if e > e_cut]
    if upper != psi.step_exponents():
        return False, None, []
    c = phi.coeff_at(e_cut)
    mids = [
        (e, coeff)
        for e, coeff in phi.step_exponents()
        if phi.param_exponent < e < e_cut
    ]
    return True, c, mids


def window_at(phi: ParamSeries, e: Fraction) -> ParamSeries:
    """The prefix window of phi with the parameter slot moved up to exponent e."""
    if e < phi.param_exponent:
        raise PreconditionFailed("window exponent below the series parameter")
    keep = [(ee, c) for ee, c in phi.step_exponents() if ee > e]
    return series_from_exponents(keep, e)


# ---------------------------------------------------------------------------
# Expansion around a concrete prefix
# ---------------------------------------------------------------------------


class Rows(NamedTuple):
    """f(x, s(x) + z) as Gaussian-integer rows, one per z-degree j.

    Row j maps an exponent numerator k over ``mult`` to (re, im), the
    coefficient (re + im*i) / (fden * scale^(N - j)) of x^(k/mult) z^j, where
    N = deg_y f, fden clears f's denominators and scale is the lcm of the
    prefix coefficients' denominators.  No entry is zero.
    """

    mult: int
    scale: int
    fden: int
    rows: Tuple[Dict[int, Tuple[int, int]], ...]


def _base_rows(f: BiPoly) -> Rows:
    """The rows of the empty prefix: f's y-coefficients, which f already
    holds as Gaussian-integer numerators over one denominator."""
    rows: List[Dict[int, Tuple[int, int]]] = [{} for _ in range(f.deg_y + 1)]
    for (dx, dy), xy in f.nums.items():
        rows[dy][dx] = xy
    return Rows(1, 1, f.den, tuple(rows))


def _regrid(r: Rows, mult: int) -> Tuple[Dict[int, Tuple[int, int]], ...]:
    """r's rows with their keys over mult, a multiple of r.mult."""
    grid = mult // r.mult
    if grid == 1:
        return r.rows
    return tuple([{k * grid: xy for k, xy in row.items()} for row in r.rows])


def shift(r: Rows, mult: int, k: int, c: Scalar) -> Rows:
    """The rows of f(x, s + t + z) from those of f(x, s + z), t = c*x^(1 - k/mult).

    A Taylor shift: row'_i = sum over j >= i of C(j, i) * t^(j-i) * row_j.
    r.mult must divide mult.  With scale' = lcm(scale, c.d), w = c * scale'
    is a Gaussian integer, and row j adds C(j, i) * w^(j-i) *
    (scale'/scale)^(N-j) times each entry, its key moved up (j-i)*(mult-k),
    to row i over fden * scale'^(N-i).
    """
    e = mult - k
    scale = math.lcm(r.scale, c.d)
    u, v = scale // r.scale, scale // c.d
    rows = _regrid(r, mult)
    n = len(rows) - 1
    wr, wi = c.a * v, c.b * v
    wpow = [(1, 0)]
    for _ in range(n):
        pr, pi = wpow[-1]
        wpow.append((pr * wr - pi * wi, pr * wi + pi * wr))
    upow = [u ** (n - j) for j in range(n + 1)]
    out = []
    for i, row in enumerate(rows):
        ui = upow[i]
        acc = dict(row) if ui == 1 else {kk: (x * ui, y * ui) for kk, (x, y) in row.items()}
        get = acc.get
        for j in range(i + 1, n + 1):
            if not rows[j]:
                continue
            b = math.comb(j, i) * upow[j]
            fr, fi = wpow[j - i][0] * b, wpow[j - i][1] * b
            off = (j - i) * e
            if fi:
                for kk, (x, y) in rows[j].items():
                    kk += off
                    a = get(kk)
                    if a is None:
                        acc[kk] = (x * fr - y * fi, x * fi + y * fr)
                    else:
                        acc[kk] = (a[0] + x * fr - y * fi, a[1] + x * fi + y * fr)
            else:  # a real factor, as for every real c: half the products
                for kk, (x, y) in rows[j].items():
                    kk += off
                    a = get(kk)
                    if a is None:
                        acc[kk] = (x * fr, y * fr)
                    else:
                        acc[kk] = (a[0] + x * fr, a[1] + y * fr)
        out.append({kk: xy for kk, xy in acc.items() if xy[0] or xy[1]})
    return Rows(mult, scale, r.fden, tuple(out))


def rows_points(r: Rows) -> Tuple[SupportPoint, ...]:
    """For each nonzero row, its top exponent numerator and coefficient."""
    n = len(r.rows) - 1
    pts = []
    for j, row in enumerate(r.rows):
        if row:
            top = max(row)
            lead = _reduced(*row[top], r.fden * r.scale ** (n - j))
            pts.append(SupportPoint(j, top, lead, r.mult))
    return tuple(pts)


def prefix_rows(f: BiPoly, prefix: Prefix) -> Rows:
    """The rows of f around prefix, over prefix.mult.

    Folds one shift per canonical step (ascending k, zero coefficients
    dropped, a repeated k keeping its last nonzero coefficient), starting
    from the nearest ancestor whose rows are in f's table, or from f itself.
    """
    table = f.table
    if prefix in table:
        return table[prefix][0]
    den = prefix.mult
    steps = sorted({k: c for k, c in prefix.steps if not c.is_zero()}.items())
    r, i = None, len(steps)  # the full prefix missed the table above
    while r is None and i > 0:
        i -= 1
        r, _ = table.get(Prefix.of(den, steps[:i]), (None, None))
    if r is None:
        r = _base_rows(f)
    for k, c in steps[i:]:
        r = shift(r, den, k, c)
    if r.mult != den:  # no step applied to rows on a coarser grid
        r = Rows(den, r.scale, r.fden, _regrid(r, den))
    return r


def prefix_expansion(f: BiPoly, prefix: Prefix) -> Tuple[SupportPoint, ...]:
    """Support points of f(x, s(x) + z) around a concrete prefix.

    s(x) is the sum the Prefix describes, its term coeff * x^(1 - k/mult)
    having exponent numerator mult - k over ``den = mult``; a prefix in
    lowest terms makes den the least common denominator of its exponents.
    A repeated k keeps its last nonzero coefficient, and zero coefficients
    drop out.  For each z-degree j with a nonzero coefficient the result
    holds one point, ascending in j: the largest x-exponent numerator of
    that z-degree and its exact coefficient.  These drive the Newton
    polygon steps and the envelopes.

    The rows come from ``prefix_rows``: one monomial shift per step below
    the nearest ancestor in f's table, summed over the Gaussian integers
    with one denominator per row.  The pair (rows, points) is tabled on f
    under prefix, so a child prefix costs one shift; only the top entry of
    each row is normalized.
    """
    r = prefix_rows(f, prefix)
    pts = rows_points(r)
    f.table[prefix] = (r, pts)
    return pts
