"""Newton-polygon expansion at infinity.

Three related computations live here:

* ``curve_branches`` enumerates all Newton-Puiseux roots at infinity of a
  single curve that is monic in y, with conjugates listed explicitly and
  exact termination or controlled truncation.  Below a simple root a
  branch grows by one monomial shift per term, with no Newton polygon.
  For real f along real terms, the branches under a nonreal root are the
  conjugates of those under its conjugate root, built first.
* ``expansion_tree`` grows the window tree of a map pair: children follow
  the roots of each lead, stopping at the exponents where a leading
  polynomial changes shape or a leading exponent crosses zero.  Each child's
  fixed steps are expanded once, and the same support points give its
  event exponent, as an integer pair, and its leading data; a component
  frozen at a positive exponent takes its lead off the parent's, with no
  expansion.  For real P and Q, f(x, conj phi) = conj f(x, phi) term by
  term, so below a window with real steps each nonreal direction's subtree
  is derived from its conjugate's: the same exponents and statuses,
  conjugate leads and roots.
* ``associated_sequence`` / ``root_index_data`` read the maximal chain of
  windows between two series off a path of windows down the finer one,
  and each level's on-slot counts off its two leads by synthetic division,
  with no branch or root search, and verify the structural side
  conditions.  The path is the tree's down to the finer window, each level
  its node, or else ``window_path``, the one walk down a series, which
  Theorem 2's witness search also reads.

All three read the upper Newton hull through one reader, ``hull_edges``,
which returns the edge slopes below a bound as integer pairs.

Root extraction over Q(i) runs on Gaussian integers: the coefficients are
cleared of denominators once, degree <= 2 is solved in closed form, and
above that rational candidates are checked by integer Horner sums and
divided out in Z[i]; anything that fails to split raises or records
ExtensionRequired rather than falling back to numerics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import (
    BiPoly,
    MapPair,
    Scalar,
    UniPoly,
    ZERO,
    _reduced,
    gaussian_sqrt,
)
from .classify import is_dicritical
from .errors import (
    EngineError,
    ExtensionRequired,
    NotARefinement,
    PreconditionFailed,
    VerificationFailure,
)
from .puiseux import (
    ConcreteBranch,
    LeadingData,
    ParamSeries,
    Prefix,
    ROOT_WINDOW,
    Rows,
    SupportPoint,
    envelope_lead,
    envelope_numerators,
    envelope_zero,
    expansion_points,
    is_refinement,
    leading_data,
    prefix_rows,
    refine,
    shift,
    window_at,
    window_lead,
)

# ---------------------------------------------------------------------------
# Root finding over Q(i)
# ---------------------------------------------------------------------------
#
# The search runs on Gaussian integers.  h is cleared of denominators once
# into a list H of (re, im) int pairs.  Degree <= 2 is solved in closed form
# (the quadratic formula with an integer Gaussian square root).  Above that a
# candidate a/b, with a | H_0 and b | lc(H), is a root when the homogeneous
# Horner sum  sum_k H_k a^k b^(d-k)  vanishes, and its multiplicity is the
# number of exact divisions of H by (b s - a) in Z[i]; for a/b in lowest
# terms each division of a polynomial that has the root is exact (Gauss's
# lemma).  A Scalar is built only for each root found and for the remainder.

GaussInt = Tuple[int, int]


def _factor_integer(n: int) -> Dict[int, int]:
    """Prime factorization by trial division; inputs stay desk-scale."""
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


def _gaussian_prime_above(p: int) -> GaussInt:
    """A Gaussian prime a+bi of norm p, for p = 2 or p = 1 mod 4."""
    for a in range(1, math.isqrt(p) + 1):
        b2 = p - a * a
        b = math.isqrt(b2)
        if b * b == b2:
            return (a, b)
    raise EngineError(f"no two-square decomposition for {p}")


def _gi_mul(a: GaussInt, b: GaussInt) -> GaussInt:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_divides(d: GaussInt, g: GaussInt) -> bool:
    n = d[0] * d[0] + d[1] * d[1]
    re = g[0] * d[0] + g[1] * d[1]
    im = g[1] * d[0] - g[0] * d[1]
    return n != 0 and re % n == 0 and im % n == 0


def _gi_exact_div(g: GaussInt, d: GaussInt) -> GaussInt:
    n = d[0] * d[0] + d[1] * d[1]
    return ((g[0] * d[0] + g[1] * d[1]) // n, (g[1] * d[0] - g[0] * d[1]) // n)


def _gi_gcd(x: GaussInt, y: GaussInt) -> GaussInt:
    """A greatest common divisor in Z[i], by Euclid with rounded quotients."""
    while y != (0, 0):
        n = y[0] * y[0] + y[1] * y[1]
        re = x[0] * y[0] + x[1] * y[1]
        im = x[1] * y[0] - x[0] * y[1]
        q = ((2 * re + n) // (2 * n), (2 * im + n) // (2 * n))
        qy = _gi_mul(q, y)
        x, y = y, (x[0] - qy[0], x[1] - qy[1])
    return x


def _gi_quotient(x: GaussInt, y: GaussInt) -> Scalar:
    """x / y as a Scalar, for Gaussian integers x and y != 0."""
    n = y[0] * y[0] + y[1] * y[1]
    return _reduced(x[0] * y[0] + x[1] * y[1], x[1] * y[0] - x[0] * y[1], n)


def _gaussian_divisors(g: GaussInt) -> List[GaussInt]:
    """All divisors of a nonzero Gaussian integer, one per class of unit
    multiples: the products of powers of its distinct Gaussian primes."""
    divisors = [(1, 0)]
    for p in sorted(_factor_integer(g[0] * g[0] + g[1] * g[1])):
        if p == 2:
            primes = [(1, 1)]
        elif p % 4 == 1:
            a, b = _gaussian_prime_above(p)
            primes = [(a, b), (a, -b)]
        else:
            primes = [(p, 0)]
        for pi in primes:
            powers = [(1, 0)]
            while _gi_divides(pi, g):
                g = _gi_exact_div(g, pi)
                powers.append(_gi_mul(powers[-1], pi))
            divisors = [_gi_mul(d, q) for d in divisors for q in powers]
    return divisors


def _candidates(H: Sequence[GaussInt]) -> Iterable[Tuple[int, int, int]]:
    """Distinct u*r/s (r | H_0, s | lc(H), u a unit) as reduced Scalar triples."""
    nums = _gaussian_divisors(H[0])
    seen = set()
    for s in _gaussian_divisors(H[-1]):
        n = s[0] * s[0] + s[1] * s[1]
        for r in nums:
            # r/s = r*conj(s)/n
            x, y = r[0] * s[0] + r[1] * s[1], r[1] * s[0] - r[0] * s[1]
            g = math.gcd(x, y, n)
            x, y, m = x // g, y // g, n // g
            for t in ((x, y, m), (-x, -y, m), (-y, x, m), (y, -x, m)):
                if t not in seen:
                    seen.add(t)
                    yield t


def _vanishes(H: Sequence[GaussInt], p: int, q: int, m: int) -> bool:
    """Whether H((p + q*i)/m) = 0, by homogeneous Horner on ints."""
    vr, vi = H[-1]
    w = 1
    for hr, hi in reversed(H[:-1]):
        w *= m
        vr, vi = vr * p - vi * q + hr * w, vr * q + vi * p + hi * w
    return not vr and not vi


def _divide_linear(
    H: Sequence[GaussInt], a: GaussInt, b: GaussInt
) -> Optional[List[GaussInt]]:
    """The quotient of H by (b*s - a) in Z[i][s], or None if not exact."""
    (ar, ai), (br, bi) = a, b
    n = br * br + bi * bi
    quo = []
    tr = ti = 0  # a times the quotient coefficient found last
    for hr, hi in reversed(H[1:]):
        xr, xi = hr + tr, hi + ti
        yr, yi = xr * br + xi * bi, xi * br - xr * bi
        if yr % n or yi % n:
            return None
        qr, qi = yr // n, yi // n
        quo.append((qr, qi))
        tr, ti = ar * qr - ai * qi, ar * qi + ai * qr
    if H[0][0] + tr or H[0][1] + ti:
        return None
    quo.reverse()
    return quo


def _low_degree_roots(
    H: Sequence[GaussInt],
) -> Optional[List[Tuple[Scalar, int]]]:
    """Roots of H of degree <= 2 in closed form; None if H is an
    irreducible quadratic over Q(i)."""
    if len(H) == 1:
        return []
    if len(H) == 2:
        return [(_gi_quotient((-H[0][0], -H[0][1]), H[1]), 1)]
    c, (br, bi), a = H
    ac = _gi_mul(a, c)
    root = gaussian_sqrt(br * br - bi * bi - 4 * ac[0], 2 * br * bi - 4 * ac[1])
    if root is None:
        return None
    two_a = (2 * a[0], 2 * a[1])
    if root == (0, 0):
        return [(_gi_quotient((-br, -bi), two_a), 2)]
    return [
        (_gi_quotient((root[0] - br, root[1] - bi), two_a), 1),
        (_gi_quotient((-root[0] - br, -root[1] - bi), two_a), 1),
    ]


def _integer_roots(h: UniPoly) -> Tuple[List[Tuple[Scalar, int]], UniPoly]:
    """``all_roots`` for deg h >= 1 and h(0) != 0, on Gaussian integers."""
    lcm = math.lcm(*(c.d for c in h.coeffs))
    H = [(c.a * (lcm // c.d), c.b * (lcm // c.d)) for c in h.coeffs]
    roots: List[Tuple[Scalar, int]] = []
    if len(H) > 3:
        for p, q, m in _candidates(H):
            if not _vanishes(H, p, q, m):
                continue
            # the triple is reduced over Z, not always over Z[i]:
            # (1+i)/2 = 1/(1-i)
            g = _gi_gcd((p, q), (m, 0))
            a, b = _gi_exact_div((p, q), g), _gi_exact_div((m, 0), g)
            mult = 0
            while (quo := _divide_linear(H, a, b)) is not None:
                H, mult = quo, mult + 1
            roots.append((_reduced(p, q, m), mult))
            if len(H) <= 3:
                break
    low = _low_degree_roots(H) if len(H) <= 3 else None
    if low is not None:
        return roots + low, UniPoly.const(h.lcoeff())
    if not roots:
        return roots, h
    # rest = H * lc(h) / lc(H)
    lc, (hr, hi) = h.lcoeff(), H[-1]
    fr, fi = lc.a * hr + lc.b * hi, lc.b * hr - lc.a * hi
    den = lc.d * (hr * hr + hi * hi)
    rest = [_reduced(cr * fr - ci * fi, cr * fi + ci * fr, den) for cr, ci in H]
    return roots, UniPoly(tuple(rest))


def all_roots(h: UniPoly) -> Tuple[List[Tuple[Scalar, int]], UniPoly]:
    """Roots of h in Q(i) with multiplicities, plus the unsplit remainder.

    The remainder is h divided by its monic linear factors (s - r)^m, so it
    keeps lc(h): a constant when h splits completely, otherwise the product
    of factors with no Gaussian-rational root (degree >= 2).  The search
    runs on Gaussian integers and solves degree <= 2 in closed form.
    """
    if h.is_zero():
        raise PreconditionFailed("root search on the zero polynomial")
    roots: List[Tuple[Scalar, int]] = []
    rest, v = h, h.valuation()
    if v:
        roots.append((ZERO, v))
        rest = UniPoly(h.coeffs[v:])
    if rest.degree >= 1:
        found, rest = _integer_roots(rest)
        roots += found
    # each root is found once, with its full multiplicity
    roots.sort(key=lambda rm: rm[0].sort_key())
    return roots, rest


def roots_in_field(
    h: UniPoly, context: str = "irreducible factor over Q(i)"
) -> List[Tuple[Scalar, int]]:
    """Roots over Q(i); an unsplit factor raises ExtensionRequired(rest, context)."""
    roots, rest = all_roots(h)
    if rest.degree >= 1:
        raise ExtensionRequired(rest, context)
    return roots


# ---------------------------------------------------------------------------
# Newton polygon utilities
# ---------------------------------------------------------------------------


def upper_hull(pts: Sequence[SupportPoint]) -> List[SupportPoint]:
    """Vertices of the upper concave hull of (j, top), ascending in j."""
    hull: List[SupportPoint] = []
    for p in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # keep concavity: slope(a,b) must strictly exceed slope(b,p)
            lhs = (b.top - a.top) * (p.j - b.j)
            rhs = (p.top - b.top) * (b.j - a.j)
            if lhs <= rhs:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hull_edges(
    pts: Sequence[SupportPoint], slot: int, mult: int
) -> List[Tuple[int, int]]:
    """Upper-hull edge slopes of pts strictly below the exponent slot/mult
    (mult >= 0), each as an integer pair (rise, run*den); every slope lies
    below the pair (1, 0)."""
    hull, den = upper_hull(pts), pts[0].den
    # slopes rise/(run*den), compared with slot/mult on integers
    return [
        (a.top - b.top, (b.j - a.j) * den)
        for a, b in zip(hull, hull[1:])
        if (a.top - b.top) * mult < slot * (b.j - a.j) * den
    ]


# ---------------------------------------------------------------------------
# Curve branches (Newton-Puiseux roots at infinity)
# ---------------------------------------------------------------------------


def curve_branches(f: BiPoly, depth_k: int) -> List[ConcreteBranch]:
    """All deg(f) Newton-Puiseux roots at infinity, truncated at index depth_k.

    Requires f monic in y (deg_y f = total degree), which guarantees every
    root has the shape sum c_k x^(1-k/m).  Conjugate roots appear as separate
    entries; a repeated root appears once per multiplicity.  Raises
    ExtensionRequired when a characteristic polynomial fails to split over
    Q(i); the unsplit factor rides on the exception.
    """
    if f.is_zero() or f.total_degree < 1:
        raise PreconditionFailed("curve must be nonconstant")
    if f.deg_y != f.total_degree:
        raise PreconditionFailed("curve must be monic in y")
    if depth_k < 0:
        raise PreconditionFailed("depth must be non-negative")
    out: List[ConcreteBranch] = []
    real = not any(im for _, im in f.nums.values())
    _expand_curve(f, 1, (), (1, 0), depth_k, out, real)
    total = len(out)
    if total != f.total_degree:
        raise EngineError(
            f"branch count {total} does not match degree {f.total_degree}"
        )
    return sorted(out, key=lambda b: b.sort_key())


def _expand_curve(
    f: BiPoly,
    mult: int,
    terms: Tuple[Tuple[int, Scalar], ...],
    bound: Tuple[int, int],
    depth_k: int,
    out: List[ConcreteBranch],
    mirror: bool,
) -> None:
    # mirror: f and terms are real, so the edges' leads are real and the
    # branches under a root c with c.b > 0 conjugate those under conj(c)
    prefix = Prefix(mult, terms)  # already lowest terms
    pts = expansion_points(f, prefix)
    j0 = pts[0].j
    if j0 > 0:
        out.extend([ConcreteBranch(mult, terms, None)] * j0)
    for rise, run in hull_edges(pts, *bound):
        # 1 - e = (q - p)/q in lowest terms, for the slope e = p/q
        g = math.gcd(rise, run)
        p, q = rise // g, run // g
        m_next = math.lcm(mult, q)
        k_next = (q - p) * (m_next // q)
        # a list comprehension: a generator here raised peak RSS
        scaled = tuple([(k * (m_next // mult), c) for k, c in terms])
        # s^j_lo times the edge's characteristic polynomial
        lead, _ = envelope_lead(pts, rise, run)
        span = lead.degree - lead.valuation()
        if k_next > depth_k:
            # the truncation index is the last one known, just above e
            out.extend([ConcreteBranch(m_next, scaled, k_next - 1)] * span)
            continue
        roots = roots_in_field(lead, "characteristic polynomial of an edge")
        produced, built = 0, {}
        for c, root_mult in roots:
            if c.is_zero():  # the factor s^j_lo
                continue
            before = len(out)
            child = scaled + ((k_next, c),)
            if mirror and c.b > 0:  # conj(c) sorts first, so it was built
                out.extend([
                    ConcreteBranch(b.mult, tuple([(k, _conj(a)) for k, a in b.terms]), b.truncation_k)
                    for b in built[_conj(c)]
                ])
            elif root_mult == 1:
                _simple_tail(prefix_rows(f, prefix), m_next, child, depth_k, out)
            else:
                _expand_curve(f, m_next, child, (p, q), depth_k, out, mirror and not c.b)
            built[c] = out[before:]
            got = len(out) - before
            if got != root_mult:
                raise EngineError("edge multiplicity mismatch during expansion")
            produced += root_mult
        if produced != span:
            raise EngineError("edge span not exhausted by its roots")


def _simple_tail(
    rows: Rows,
    mult: int,
    terms: Tuple[Tuple[int, Scalar], ...],
    depth_k: int,
    out: List[ConcreteBranch],
) -> None:
    """Append the one branch below a simple root: ``terms`` ends in the
    root's term, and ``rows`` are the curve's rows around the terms before it.

    Below a simple root the only polygon edge under the bound joins the
    z-degrees 0 and 1 (Kung & Traub, J. ACM 25 (1978)): the next term is
    -lead_0/lead_1 at index mult - (top_0 - top_1), and mult stays.  Each
    term costs one shift of the rows, and only the top entries of rows 0
    and 1 are read: row j's denominator carries scale^(N - j), so
    lead_0/lead_1 is their quotient over scale.  The rows stay local, as
    no other search reads a tail's prefixes.
    """
    k, c = terms[-1]
    while True:
        rows = shift(rows, mult, k, c)
        row0, row1 = rows.rows[0], rows.rows[1]
        if not row1:
            raise EngineError("a simple root must continue along the edge (0, 1)")
        if not row0:  # f(x, s(x)) = 0
            out.append(ConcreteBranch(mult, terms, None))
            return
        top0, top1 = max(row0), max(row1)
        k = mult - (top0 - top1)
        if k > depth_k:
            out.append(ConcreteBranch(mult, terms, k - 1))
            return
        (a0, b0), (a1, b1) = row0[top0], row1[top1]
        c = _gi_quotient((-a0, -b0), (a1 * rows.scale, b1 * rows.scale))
        terms += ((k, c),)


# ---------------------------------------------------------------------------
# Expansion tree of a map pair
# ---------------------------------------------------------------------------


class Caps(NamedTuple):
    """Expansion limits; hitting one is visible in output, never silent."""

    max_mult: int = 12
    max_k: int = 64
    max_depth: int = 32


STATUS_OPEN = "open"
STATUS_DICRITICAL = "dicritical"
STATUS_DEAD = "dead"
STATUS_CAPPED = "depth_capped"
STATUS_EXTENSION = "extension_required"


class ExpansionNode:
    __slots__ = ("series", "lead", "chosen_c", "status", "children", "note")

    def __init__(
        self,
        series: ParamSeries,
        lead: LeadingData,
        chosen_c: Optional[Scalar],
        status: str,
        children: Optional[List["ExpansionNode"]] = None,
        note: str = "",
    ):
        self.series = series
        self.lead = lead
        self.chosen_c = chosen_c
        self.status = status
        self.children = [] if children is None else children
        self.note = note

    def walk(self) -> Iterable["ExpansionNode"]:
        yield self
        for ch in self.children:
            yield from ch.walk()


def _coord_events(g: BiPoly, prefix: Prefix, slot: int, mult: int) -> tuple:
    """Polygon data of g around prefix below the parent slot slot/mult (mult > 0):
    the edge slopes below the slot, the exponent-zero crossing below it or
    None, each as an integer pair (num, den) with den > 0, and the support
    points."""
    pts = expansion_points(g, prefix)
    zero = envelope_zero(pts)
    if zero is not None and zero[0] * mult >= slot * zero[1]:
        zero = None
    return hull_edges(pts, slot, mult), zero, pts


def next_event_exponent(f: MapPair, parent: ParamSeries, prefix: Prefix, frozen: tuple) -> tuple:
    """Largest exponent below the parent slot where the leading data of either
    component changes shape (polygon edge) or its exponent crosses zero.

    ``prefix`` is the parent's fixed steps with the parameter pinned to the
    direction's coefficient c, so the support points read here are those of
    any child in this direction; they are returned with the exponent, an
    integer pair (num, den) with den > 0 or None.  ``frozen`` flags P and Q
    when frozen at a positive exponent: the parent lead g_lead(s) * x^g_exp
    has g_exp > 0 and g_lead(c) != 0.  As d/ds = x^e d/dz at the slot e,
    row j has top_j + j*e <= g_exp = top_0, so below the slot row 0 alone
    leads, with no event: such a component is not expanded (its points read
    None), keeps the lead g_lead(c) at g_exp and blocks every descendant.
    Once both exponents have gone negative nothing can fire again (leading
    exponents only decrease under refinement), so such directions are cut.
    """
    slot, mult = parent.mult - parent.param_index, parent.mult
    best, pts = None, []
    for g, g_frozen in zip((f.p, f.q), frozen):
        edges, zero, g_pts = ((), None, None) if g_frozen else _coord_events(g, prefix, slot, mult)
        pts.append(g_pts)
        for e in (*edges, zero):
            if e is not None and (best is None or e[0] * best[1] > best[0] * e[1]):
                best = e
    # only the live components can still produce a horizontal window, and
    # only while the exponent of one of them has not gone negative; envelopes
    # never decrease in e, so if any candidate keeps one at or above zero,
    # the largest one does
    live = [p for p in pts if p is not None]
    if best is not None and any(max(envelope_numerators(p, *best)) >= 0 for p in live):
        return best, *pts
    return None, *pts


def expansion_tree(f: MapPair, caps: Caps = Caps()) -> ExpansionNode:
    """Grow the window tree from the root window s*x.

    Children of a node follow the Q(i)-roots of each of its two leading
    polynomials (zero always included); each child sits at the next event
    exponent of its direction.  Leaves are dicritical windows, dead
    directions, cap hits, or unsplittable root polynomials.
    """
    root_lead = leading_data(f, ROOT_WINDOW)
    root = ExpansionNode(ROOT_WINDOW, root_lead, None, STATUS_OPEN)
    _expand_node(f, root, caps, 0, _real_map(f))
    return root


def _real_map(f: MapPair) -> bool:
    """Whether P and Q have real coefficients, read off their numerators."""
    return not any(im for g in (f.p, f.q) for _, im in g.nums.values())


def _expand_node(f: MapPair, node: ExpansionNode, caps: Caps, depth: int, mirror: bool) -> None:
    # mirror: f and node's steps are real, so its leads are real, their
    # nonreal roots pair up, and the one with positive imaginary part sorts
    # after its conjugate
    if is_dicritical(node.lead):
        node.status = STATUS_DICRITICAL
        return
    if depth >= caps.max_depth:
        node.status = STATUS_CAPPED
        node.note = "max_depth"
        return
    lead = node.lead
    p_roots, p_rest = all_roots(lead.p_lead)
    q_roots, q_rest = all_roots(lead.q_lead)
    if p_rest.degree >= 1 or q_rest.degree >= 1:
        # the unsplit remainder of the product of the two leads
        node.status = STATUS_EXTENSION
        node.note = str(p_rest * q_rest)
        return
    comps = [(lead.p_lead, lead.p_exp, {r for r, _ in p_roots}),
             (lead.q_lead, lead.q_exp, {r for r, _ in q_roots})]
    cands = comps[0][2] | comps[1][2] | {ZERO}
    # zero is always a candidate, so every node expanded here gets a child
    parent = node.series
    built: Dict[Scalar, ExpansionNode] = {}
    for c in sorted(cands, key=lambda s: s.sort_key()):
        if mirror and c.b > 0:
            node.children.append(_conjugate_subtree(f, built[_conj(c)]))
            continue
        # both leads split, so c is a root of a lead exactly when it is in its set
        frozen = tuple([g_exp > 0 and c not in roots for _, g_exp, roots in comps])
        e_next, *pts = next_event_exponent(f, parent, parent.fix_param(c), frozen)
        synthetic = e_next is None
        if synthetic:  # one below the parent's exponent
            e_next = (-parent.param_index, parent.mult)
        child_series = refine(parent, c, e_next[1] - e_next[0], e_next[1])
        b = child_series.mult
        leads = [  # a frozen row 0's exponent has a denominator dividing b
            (UniPoly.const(g_lead.evaluate(c)), g_exp * b // parent.mult) if g_pts is None
            else envelope_lead(g_pts, b - child_series.param_index, b)
            for g_pts, (g_lead, g_exp, _) in zip(pts, comps)
        ]
        child_lead = window_lead(f, child_series, *leads)
        child = ExpansionNode(child_series, child_lead, c, STATUS_OPEN)
        if child_series.mult > caps.max_mult or child_series.param_index > caps.max_k:
            child.status = STATUS_CAPPED
            child.note = "max_mult" if child_series.mult > caps.max_mult else "max_k"
        elif synthetic:
            child.status = STATUS_DEAD
        else:
            _expand_node(f, child, caps, depth + 1, mirror and not c.b)
        node.children.append(child)
        built[c] = child


def _conj(c: Scalar) -> Scalar:
    return _reduced(c.a, -c.b, c.d)


def _conjugate_subtree(f: MapPair, node: ExpansionNode) -> ExpansionNode:
    """The subtree of real f at the conjugate of node's window, derived as
    the module docstring says.  No curve table is touched; the Jacobian
    lead waits for its first read, as ``window_lead`` leaves it."""
    phi, lead = node.series, node.lead
    series = ParamSeries(phi.mult, tuple([(k, _conj(c)) for k, c in phi.steps]), phi.param_index)
    p_lead, q_lead = [UniPoly(tuple(map(_conj, g.coeffs))) for g in (lead.p_lead, lead.q_lead)]
    mirrored = window_lead(f, series, (p_lead, lead.p_exp), (q_lead, lead.q_exp))
    note = node.note
    if node.status == STATUS_EXTENSION:  # a leaf noting the unsplit remainder
        note = str(all_roots(p_lead)[1] * all_roots(q_lead)[1])
    # conjugation reverses the order of imaginary parts
    children = [_conjugate_subtree(f, ch) for ch in node.children]
    children.sort(key=lambda ch: ch.chosen_c.sort_key())
    return ExpansionNode(series, mirrored, _conj(node.chosen_c), node.status, children, note)


# ---------------------------------------------------------------------------
# Associated sequences and branch index data
# ---------------------------------------------------------------------------


class SequenceLevel(NamedTuple):
    series: ParamSeries
    c: Optional[Scalar]  # coefficient pinned toward the next level
    lead: LeadingData
    # a lead has a nonzero root; c and s2_ok are None on the final level
    s2_ok: Optional[bool] = None


class AssociatedSequence(NamedTuple):
    """A chain of windows from a coarse series down to a fine one.

    Each level holds its window, the coefficient phi pins at its slot and
    the leading data there; ``root_index_data`` reads a level's on-slot
    counts off its two leading polynomials.
    """

    levels: List[SequenceLevel]

    @property
    def K(self) -> int:
        return len(self.levels) - 1


def window_path(f: MapPair, psi: ParamSeries, phi: ParamSeries) -> List[ExpansionNode]:
    """The nodes the window tree grows along phi from psi's window, a prefix
    of phi, down to phi as given; no children are attached.

    Below a window at exponent e, with c phi's coefficient there, the next
    one sits at the largest exponent below e and above phi's own that is
    an upper-hull slope or exponent-zero crossing of P or Q around the
    window's steps with c pinned, or a coefficient exponent of phi; with
    none, it is phi.  So the lower window's fixed steps are the upper one's
    with c pinned, and the support points read for the events give its leads.
    """
    bottom = (phi.mult - phi.param_index, phi.mult)
    coeffs = [(phi.mult - k, phi.mult) for k, _ in phi.steps]
    path = [ExpansionNode(psi, leading_data(f, psi), None, STATUS_OPEN)]
    w = psi
    while (slot := w.mult - w.param_index) * bottom[1] > bottom[0] * w.mult:
        c = phi.coeff_at(w.param_exponent)
        best, pts = bottom, []
        for g in (f.p, f.q):
            edges, zero, g_pts = _coord_events(g, w.fix_param(c), slot, w.mult)
            pts.append(g_pts)
            for x in (*edges, zero):
                if x is not None and x[0] * best[1] > best[0] * x[1]:
                    best = x
        for x in coeffs:
            if x[0] * best[1] > best[0] * x[1] and x[0] * w.mult < slot * x[1]:
                best = x
        w = phi if best == bottom else window_at(phi, Fraction(*best))
        leads = [envelope_lead(g_pts, w.mult - w.param_index, w.mult) for g_pts in pts]
        path.append(ExpansionNode(w, window_lead(f, w, *leads), c, STATUS_OPEN))
    return path


def associated_sequence(
    psi: ParamSeries,
    phi: ParamSeries,
    f: MapPair,
    path: Optional[Sequence[ExpansionNode]] = None,
) -> AssociatedSequence:
    """The maximal admissible chain of windows from psi down to phi.

    Between psi and phi, a level sits wherever a root of either component
    leaves phi and at every nonzero coefficient of phi.  The levels are
    read off the path of windows from psi's down to phi's, with no branch
    search: at a window with pinned coefficient c, the roots carrying c
    leave its fixed steps with c appended at the upper-hull slopes of P and
    Q around them, and a lead is a monomial exactly when its exponent is no
    such slope.  So every window of the path is a level except the
    exponent-zero crossings that pin nothing: both leads monomials and no
    coefficient of phi there.  A level at a nonzero coefficient of phi that
    no root tracks (both leads constant) is a verification failure.
    Whether a level's leads have a nonzero root is recorded per level (a
    theorem only under the hypotheses of the calling context, so a
    violation is a flag, not an error).

    ``path``, when given, is the window tree's nodes from psi's down to
    phi's, each a child of the one before, and each level is its node,
    whose lazy Jacobian the tree's checks share; else it is ``window_path``.
    """
    if path is None:
        ok, _, _ = is_refinement(psi, phi)
        if not ok:
            raise NotARefinement("second series does not refine the first")
        path = window_path(f, psi, phi)
    elif (
        path[0].series != psi
        or path[-1].series != phi
        or not all(node in above.children for above, node in zip(path, path[1:]))
    ):
        raise PreconditionFailed(
            "the path must run from psi's window to phi's, each node a child of the one before"
        )
    levels: List[SequenceLevel] = []
    for i, node in enumerate(path[:-1]):
        # the coefficient pinned at this level's slot when descending
        c, lead = phi.coeff_at(node.series.param_exponent), node.lead
        # a polynomial has a nonzero root iff it is neither constant nor a monomial
        s2_ok = _has_nonzero_root(lead.p_lead) or _has_nonzero_root(lead.q_lead)
        if i and not s2_ok and c.is_zero():
            continue  # a zero crossing that pins nothing
        if i and lead.p_lead.is_constant() and lead.q_lead.is_constant():
            raise VerificationFailure("nonzero coefficient level without a tracking root")
        levels.append(SequenceLevel(node.series, c, lead, s2_ok))
    levels.append(SequenceLevel(path[-1].series, None, path[-1].lead))
    return AssociatedSequence(levels)


def _has_nonzero_root(p: UniPoly) -> bool:
    return not p.is_constant() and not p.is_monomial()


class LevelIndexData(NamedTuple):
    s0_count: int  # multiplicity of the pinned coefficient in the P lead
    t0_count: int
    pbar: UniPoly  # the monic P lead with (s - c)^s0_count divided out
    qbar: UniPoly


class RootIndexData(NamedTuple):
    levels: List[LevelIndexData]


def root_index_data(seq: AssociatedSequence) -> RootIndexData:
    """On-slot counts per chain level, read off the level's leads.

    A root of a component tracks a level when it agrees with the window's
    fixed steps; its coefficient at the level slot is then a root of the
    component's leading polynomial there, and each tracking root is one
    factor (s - a) of that lead, so the lead's degree counts them.  The
    on-slot count is the multiplicity of the pinned coefficient c (0 on the
    final level, where c is None), and pbar/qbar are the monic leads with
    (s - c) to that power divided out, both by synthetic division.  No lead
    is split, so no level needs a root outside Q(i).
    """
    out = []
    for lv in seq.levels:
        s0, pbar = _divide_out(lv.lead.p_lead, lv.c)
        t0, qbar = _divide_out(lv.lead.q_lead, lv.c)
        out.append(LevelIndexData(s0, t0, pbar, qbar))
    return RootIndexData(out)


def _divide_out(lead: UniPoly, c: Optional[Scalar]) -> Tuple[int, UniPoly]:
    """The multiplicity of c as a root of the lead, and the monic lead with
    (s - c) to that power divided out: synthetic division by s - c, repeated
    while the remainder is zero."""
    bar, count = lead.monic().coeffs, 0
    while c is not None and len(bar) > 1:
        quo = [bar[-1]]
        for b in bar[-2:0:-1]:
            quo.append(b + c * quo[-1])
        if not (bar[0] + c * quo[-1]).is_zero():
            break
        bar, count = quo[::-1], count + 1
    return count, UniPoly(tuple(bar))
