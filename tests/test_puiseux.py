"""Parametric series, substitution, and refinement."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import npvset.expansion as expansion_mod
import npvset.puiseux as puiseux_mod
from npvset.algebra import ONE, ZERO, BiPoly, Scalar, UniPoly, bipoly, normalize_monic
from npvset.classify import classify
from npvset.errors import PreconditionFailed
from npvset.expansion import Caps, expansion_tree, hull_edges, upper_hull
from npvset.parsing import format_scalar_factor, parse_map
from npvset.puiseux import (
    ConcreteBranch,
    LeadingData,
    ParamSeries,
    Prefix,
    ROOT_WINDOW,
    SupportPoint,
    envelope_lead,
    envelope_zero,
    expansion_points,
    is_refinement,
    leading_data,
    prefix_expansion,
    refine,
    series,
    substitute,
)

from conftest import (
    M9_TEXT, STRESS_TEXT, PolygonEdge, as_fractions, as_prefix, fraction_hull_edges, sc, up,
)

X_PLUS_Y = bipoly({(1, 0): 1, (0, 1): 1})
XY_PLUS_Y2 = bipoly({(1, 1): 1, (0, 2): 1})
F2 = normalize_monic(X_PLUS_Y, XY_PLUS_Y2)

MINUS_X_WINDOW = series(1, [(0, sc(-1))], 2)  # -x + s*x^(-1)


class TestSeriesConstruction:
    def test_gcd_canonicalization(self):
        a = series(4, [(2, sc(3))], 6)
        assert (a.mult, a.steps, a.param_index) == (2, ((1, sc(3)),), 3)

    def test_param_must_be_below_steps(self):
        with pytest.raises(ValueError):
            series(2, [(3, sc(1))], 2)

    def test_zero_coefficients_dropped(self):
        a = series(1, [(0, sc(0))], 2)
        assert a.steps == ()

    def test_prefix_lowest_terms(self):
        # x - 3 + s*x^(-3/2): with the parameter pinned to zero the fixed
        # part x - 3 has denominator 1, and so does its expansion
        phi = series(2, [(0, sc(1)), (2, sc(-3))], 5)
        assert phi.fix_param(sc(0)) == Prefix(1, ((0, sc(1)), (1, sc(-3))))
        assert phi.fix_param(sc(2)) == Prefix(2, ((0, sc(1)), (2, sc(-3)), (5, sc(2))))
        assert {p.den for p in prefix_expansion(X_PLUS_Y, phi.fix_param(sc(0)))} == {1}
        assert Prefix.of(6, [(2, ONE), (4, ONE)]) == Prefix(3, ((1, ONE), (2, ONE)))
        assert Prefix.of(4, []) == Prefix(1, ())


class TestSubstitute:
    def test_linear_map_along_minus_x(self):
        lead, e = substitute(X_PLUS_Y, MINUS_X_WINDOW)
        assert lead == series_poly([0, 1]) and e == -1

    def test_square_root_window(self):
        f = bipoly({(0, 2): 1, (1, 0): -1})  # y^2 - x
        lead, e = substitute(f, series(2, [], 1))
        assert lead == series_poly([-1, 0, 1]) and e == 2

    def test_plain_parameter(self):
        lead, e = substitute(bipoly({(0, 1): 1}), series(1, [], 1))
        assert lead == series_poly([0, 1]) and e == 0

    def test_rejects_zero(self):
        with pytest.raises(PreconditionFailed):
            substitute(bipoly({}), ROOT_WINDOW)


def series_poly(coeffs):
    return up(*coeffs)


class TestLeadingData:
    def test_f2_root_window(self):
        lead = leading_data(F2, series(1, [], 0))
        assert lead.p_lead == series_poly([1, 1]) and lead.p_exp == 1
        assert lead.q_lead == series_poly([0, 1, 1]) and lead.q_exp == 2
        assert lead.jac_lead == series_poly([1, 1]) and lead.jac_exp == 1

    def test_f2_dicritical_window(self):
        lead = leading_data(F2, MINUS_X_WINDOW)
        assert lead.p_lead == series_poly([0, 1]) and lead.p_exp == -1
        assert lead.q_lead == series_poly([0, -1]) and lead.q_exp == 0
        assert lead.jac_lead == series_poly([0, 1]) and lead.jac_exp == -1

    def test_identity_map_after_shear(self):
        f = normalize_monic(bipoly({(1, 0): 1}), bipoly({(0, 1): 1}))
        lead = leading_data(f, series(1, [], 1))
        assert lead.p_lead == series_poly([1]) and lead.p_exp == 1
        assert lead.q_lead == series_poly([0, 1]) and lead.q_exp == 0
        assert lead.jac_lead == series_poly([1]) and lead.jac_exp == 0

    def test_degenerate_jacobian_rejected(self):
        f = normalize_monic(X_PLUS_Y, X_PLUS_Y)
        # jac is identically zero for equal components
        with pytest.raises(PreconditionFailed):
            leading_data(f, ROOT_WINDOW)


class TestRefine:
    def test_basic(self):
        got = refine(series(1, [], 0), sc(-1), 2, 1)
        assert got == MINUS_X_WINDOW

    def test_keeps_fractional_mult(self):
        got = refine(series(2, [], 1), sc(1), 2, 2)
        assert got == series(2, [(1, sc(1))], 2)

    def test_zero_coefficient_renormalizes(self):
        got = refine(series(1, [], 1), sc(0), 2, 1)
        assert got == series(1, [], 2)

    def test_rejects_non_decreasing(self):
        with pytest.raises(PreconditionFailed):
            refine(series(1, [], 1), sc(1), 1, 1)

    @pytest.mark.parametrize("next_mult", [0, -1])
    def test_rejects_non_positive_multiplicity(self, next_mult):
        with pytest.raises(PreconditionFailed):
            refine(series(1, [], 1), sc(1), 1, next_mult)


class TestIsRefinement:
    def test_f2_chain(self):
        ok, c, mids = is_refinement(series(1, [], 0), MINUS_X_WINDOW)
        assert ok and c == sc(-1) and mids == []

    def test_zero_witness(self):
        ok, c, mids = is_refinement(series(1, [], 0), series(1, [], 2))
        assert ok and c == sc(0) and mids == []

    def test_incompatible(self):
        half = series(2, [(1, sc(1))], 2)  # x^(1/2) + s
        ok, _, _ = is_refinement(half, MINUS_X_WINDOW)
        assert not ok

    @pytest.mark.parametrize(
        "phi",
        [series(1, [], 0), series(1, [], 2), series(1, [(0, sc(1))], 2)],
        ids=["coarser", "same_exponent", "same_exponent_other_step"],
    )
    def test_exponent_not_below(self, phi):
        # a coarser window, or another one at the same exponent
        assert is_refinement(MINUS_X_WINDOW, phi) == (False, None, [])

    def test_reflexive(self):
        ok, c, mids = is_refinement(MINUS_X_WINDOW, MINUS_X_WINDOW)
        assert ok and c is None


class TestExpansionProperties:
    @settings(max_examples=40)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.builds(lambda a, b: sc(a, b), st.integers(-3, 3), st.integers(-1, 1)),
            min_size=1,
            max_size=4,
        ).map(bipoly),
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.builds(lambda a, b: sc(a, b), st.integers(-3, 3), st.integers(-1, 1)),
            min_size=1,
            max_size=4,
        ).map(bipoly),
    )
    def test_substitution_additive(self, f, g):
        # the expansion around a prefix is linear in the polynomial expanded:
        # the points of f + g are those of the summed reference expansions
        steps = MINUS_X_WINDOW.step_exponents()
        if f.is_zero() or g.is_zero() or (f + g).is_zero():
            return
        left = prefix_expansion(f + g, as_prefix(steps))
        merged = {}
        for part in (reference_prefix_expansion(f, steps),
                     reference_prefix_expansion(g, steps)):
            for j, row in part.items():
                slot = merged.setdefault(j, {})
                for e, c in row.items():
                    slot[e] = slot.get(e, sc(0)) + c
        merged = {
            j: {e: c for e, c in row.items() if not c.is_zero()}
            for j, row in merged.items()
        }
        want = ref_points({j: row for j, row in merged.items() if row})
        assert [(p.j, Fraction(p.top, p.den), p.lead) for p in left] == want

    def test_scaling_invariance(self):
        # leading data is unchanged under (m, k, n) -> (tm, tk, tn); the
        # exponent integers scale by t
        base = series(1, [(0, sc(-1))], 2)
        scaled = ParamSeries(3, ((0, sc(-1)),), 6)  # non-canonical triple
        for f in (X_PLUS_Y, XY_PLUS_Y2):
            lead_b, e_b = substitute(f, base)
            lead_s, e_s = substitute(f, scaled)
            assert lead_b == lead_s
            assert Fraction(e_b, base.mult) == Fraction(e_s, scaled.mult)

    def test_conjugates(self):
        w = series(2, [(1, sc(1))], 4)
        conj = w.conjugates()
        assert series(2, [(1, sc(-1))], 4) in conj
        assert len(conj) == 2


# ---------------------------------------------------------------------------
# Integer exponents against a Fraction-keyed reference
# ---------------------------------------------------------------------------


def reference_prefix_expansion(f, prefix):
    """The Fraction-keyed expansion {z-degree: {x-exponent: coeff}}."""
    spowers = [{Fraction(0): ONE}]
    base = {e: c for e, c in prefix if not c.is_zero()}
    for _ in range(f.deg_y):
        prev = spowers[-1]
        if not base:
            spowers.append({})
            continue
        nxt = {}
        for ea, ca in prev.items():
            for eb, cb in base.items():
                e = ea + eb
                acc = nxt.get(e, ZERO) + ca * cb
                if acc.is_zero():
                    nxt.pop(e, None)
                else:
                    nxt[e] = acc
        spowers.append(nxt)

    out = {}
    for (dx, dy), c in f.terms.items():
        for j in range(dy + 1):
            binom = Scalar.of(math.comb(dy, j))
            for e, sc_ in spowers[dy - j].items():
                key = e + dx
                coeff = c * binom * sc_
                slot = out.setdefault(j, {})
                acc = slot.get(key, ZERO) + coeff
                if acc.is_zero():
                    slot.pop(key, None)
                else:
                    slot[key] = acc
    return {j: d for j, d in out.items() if d}


class RefPoint(NamedTuple):
    j: int
    top: Fraction
    lead: Scalar


def ref_points(expansion):
    pts = []
    for j in sorted(expansion):
        top = max(expansion[j])
        pts.append(RefPoint(j, top, expansion[j][top]))
    return pts


def ref_envelope_value(pts, e):
    return max(p.top + e * p.j for p in pts)


def ref_envelope_lead(pts, e):
    top = ref_envelope_value(pts, e)
    coeffs = [ZERO] * (pts[-1].j + 1)
    for p in pts:
        if p.top + e * p.j == top:
            coeffs[p.j] = p.lead
    return UniPoly.make(coeffs), top


def ref_envelope_zeros(pts):
    cands = {-p.top / p.j for p in pts if p.j > 0}
    return sorted((e for e in cands if ref_envelope_value(pts, e) == 0), reverse=True)


def ref_hull_edges(pts):
    if len(pts) < 2:
        return []
    hull = upper_hull(pts)  # its test is homogeneous in top: any number type
    edges = []
    for a, b in zip(hull, hull[1:]):
        slope = (a.top - b.top) / (b.j - a.j)
        coeffs = [ZERO] * (b.j - a.j + 1)
        for p in pts:
            if a.j <= p.j <= b.j and p.top == a.top - slope * (p.j - a.j):
                coeffs[p.j - a.j] = p.lead
        edges.append(PolygonEdge(slope, a.j, b.j, UniPoly.make(coeffs)))
    return edges


def ref_coord_events(pts, e_cur):
    edges = tuple(ed.slope for ed in ref_hull_edges(pts) if ed.slope < e_cur)
    zero = next((e for e in ref_envelope_zeros(pts) if e < e_cur), None)
    r0 = pts[0].top
    frozen = (
        pts[0].j == 0
        and r0 > 0
        and all(p.top + p.j * e_cur <= r0 for p in pts if p.j >= 1)
    )
    return edges, zero, frozen


def assert_matches_reference(f, prefix, exponents=()):
    """prefix_expansion and the polygon scans agree with the Fraction versions."""
    pts = prefix_expansion(f, as_prefix(prefix))
    rpts = ref_points(reference_prefix_expansion(f, prefix))
    assert [(p.j, Fraction(p.top, p.den), p.lead) for p in pts] == rpts
    if not rpts:
        return
    assert all(p.den == as_prefix(prefix).mult for p in pts)
    zeros = ref_envelope_zeros(rpts)
    assert len(zeros) <= 1 and as_fraction(envelope_zero(pts)) == next(iter(zeros), None)
    edges = ref_hull_edges(rpts)
    assert fraction_hull_edges(pts) == edges
    # each integer slope pair, with the edge lead read at it, is that edge
    pairs = hull_edges(pts, 1, 0)
    assert len(pairs) == len(edges)
    for (rise, run), edge in zip(pairs, edges):
        lead, _ = envelope_lead(pts, rise, run)
        low = lead.valuation()
        assert Fraction(rise, run) == edge.slope
        assert (low, lead.degree) == (edge.j_lo, edge.j_hi)
        assert UniPoly.make(lead.coeffs[low:]) == edge.chi
    for e in (*exponents, *(ed.slope for ed in edges)):
        # substitute reads the envelope at e through a window over the prefix
        lead, top = ref_envelope_lead(rpts, e)
        w = window_over(as_prefix(prefix), e)
        assert substitute(f, w) == (lead, top * w.mult)
        edges, zero, _ = expansion_mod._coord_events(
            f, as_prefix(prefix), e.numerator, e.denominator
        )
        ref_edges, ref_zero, ref_frozen = ref_coord_events(rpts, e)
        assert (tuple(map(as_fraction, edges)), as_fraction(zero)) == (ref_edges, ref_zero)
        # with no step below e, prefix pins the parameter of the window of
        # its steps above e, and the tree reads frozen off that window's lead
        steps = {ee: c for ee, c in prefix if not c.is_zero()}
        if all(ee >= e for ee in steps):
            upper = as_prefix([(ee, c) for ee, c in steps.items() if ee > e])
            assert parent_rule(f, window_over(upper, e), steps.get(e, ZERO)) == ref_frozen


def parent_rule(g, parent, c):
    """The tree's test for g frozen below the parent window in direction c,
    read off g's lead there: a positive exponent and a lead with no root at c."""
    lead, exp = substitute(g, parent)
    return exp > 0 and not lead.evaluate(c).is_zero()


def frozen_by_rule(f, parent, c):
    return tuple(parent_rule(g, parent, c) for g in (f.p, f.q))


def as_fraction(pair):
    """An integer pair (num, den) as the Fraction num/den; None stays None."""
    return None if pair is None else Fraction(*pair)


def window_over(prefix, e):
    """A window whose fixed steps are prefix and whose parameter exponent is e.

    It is not canonical, and e may sit above some steps: substitute reads
    only the prefix, the multiplicity and the parameter slot.
    """
    m = math.lcm(prefix.mult, e.denominator)
    steps = tuple((k * (m // prefix.mult), c) for k, c in prefix.steps)
    return ParamSeries(m, steps, m - int(e * m))


SCALARS = st.builds(lambda a, b: sc(a, b), st.integers(-3, 3), st.integers(-1, 1))
EXPONENTS = st.builds(Fraction, st.integers(-6, 3), st.sampled_from([1, 2, 3, 5]))
RATIONAL_SCALARS = st.builds(
    lambda a, b, d: sc(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-2, 2),
    st.integers(1, 6),
)
TREE_MAPS = {**STRESS_TEXT, "M9": M9_TEXT}


def tree_expansions(monkeypatch, name):
    """Every (curve, prefix) pair the expansion tree of a stress map expands."""
    seen = []
    inner = puiseux_mod.prefix_expansion

    def recording(f, prefix):
        seen.append((f, prefix))
        return inner(f, prefix)

    # expansion_points is the one caller and looks the kernel up here
    monkeypatch.setattr(puiseux_mod, "prefix_expansion", recording)
    expansion_tree(normalize_monic(*parse_map(TREE_MAPS[name])), Caps())
    monkeypatch.undo()
    assert seen
    return seen


class TestIntegerExponents:
    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), SCALARS, max_size=6
        ).map(bipoly),
        st.lists(st.tuples(EXPONENTS, SCALARS), max_size=4),
        st.lists(
            st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6)), max_size=3
        ),
    )
    def test_random_polynomials_and_prefixes(self, f, prefix, exponents):
        assert_matches_reference(f, prefix, exponents)

    def test_mixed_denominators(self):
        # 1/2, 1/3 and 2/5 share the grid 1/30; a repeated exponent keeps its
        # last nonzero coefficient and zero coefficients drop out
        f = bipoly({(0, 3): 1, (1, 1): -2, (2, 0): 1, (0, 1): sc(0, 1)})
        prefix = [
            (Fraction(1, 2), sc(1)),
            (Fraction(1, 3), sc(2, -1)),
            (Fraction(2, 5), sc(0)),
            (Fraction(-3, 5), sc(-1)),
            (Fraction(1, 2), sc(3)),
        ]
        assert {p.den for p in prefix_expansion(f, as_prefix(prefix))} == {30}
        assert_matches_reference(f, prefix, [Fraction(-1, 7), Fraction(2, 3)])
        assert_matches_reference(f, [], [Fraction(1, 2)])

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            RATIONAL_SCALARS,
            max_size=6,
        ).map(bipoly),
        st.lists(st.tuples(EXPONENTS, RATIONAL_SCALARS), max_size=4),
    )
    def test_rational_coefficients(self, f, prefix):
        # denominators 1-6 in f and in the prefix: every row stands over
        # its own F * D^(N - j) before normalization
        assert_matches_reference(f, prefix, [Fraction(0), Fraction(-1, 2)])

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            st.one_of(SCALARS, RATIONAL_SCALARS),
            max_size=6,
        ).map(bipoly),
        st.lists(st.tuples(EXPONENTS, st.one_of(SCALARS, RATIONAL_SCALARS)), max_size=4),
    )
    def test_expansion_points_table(self, f, prefix):
        # the table entry is the kernel's answer, kept as an immutable tuple
        key = as_prefix(prefix)
        fresh = prefix_expansion(f, key)
        first = expansion_points(f, key)
        assert type(first) is tuple
        assert all(type(p) is SupportPoint for p in first)
        assert first == fresh
        again = expansion_points(f, as_prefix(prefix))
        assert again == fresh and again is first

    @pytest.mark.parametrize("name", ["M4", "M6", "M8", "M9"])
    def test_every_tree_expansion(self, monkeypatch, name):
        for f, prefix in tree_expansions(monkeypatch, name):
            assert_matches_reference(
                f, as_fractions(prefix), [Fraction(0), Fraction(-1, 2)]
            )

    def test_no_scalar_arithmetic(self, monkeypatch):
        # the sums run over Gaussian integers; Scalars are built only at the end
        p = normalize_monic(*parse_map(M9_TEXT)).p
        prefix = max(
            (pre for f, pre in tree_expansions(monkeypatch, "M9") if f == p),
            key=lambda pre: len(pre.steps),
        )
        assert prefix.steps
        calls = []
        for name in ("__add__", "__sub__", "__mul__"):
            inner = getattr(Scalar, name)

            def counting(a, b, inner=inner, name=name):
                calls.append(name)
                return inner(a, b)

            monkeypatch.setattr(Scalar, name, counting)
        pts = prefix_expansion(p, prefix)
        monkeypatch.undo()
        assert pts
        assert calls == []


POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), SCALARS, min_size=1, max_size=5
).map(bipoly)
WINDOWS = st.builds(
    lambda mult, steps, n: series(mult, [(k, c) for k, c in steps.items() if k < n], n),
    st.integers(1, 3),
    st.dictionaries(st.integers(0, 5), SCALARS, max_size=3),
    st.integers(0, 6),
)


class TestRefineCanonical:
    @settings(max_examples=150, deadline=None)
    @given(WINDOWS, SCALARS, st.integers(1, 12), st.integers(1, 6))
    def test_matches_validated_constructor(self, psi, c, next_k, next_mult):
        # refine divides by one gcd where series() sorts, checks and reduces
        assume(next_k * psi.mult > psi.param_index * next_mult)
        m = math.lcm(psi.mult, next_mult)
        steps = [(k * (m // psi.mult), coeff) for k, coeff in psi.steps]
        steps.append((psi.param_index * (m // psi.mult), c))
        want = series(m, steps, next_k * (m // next_mult))
        assert refine(psi, c, next_k, next_mult) == want


class TestLazyJacobianLead:
    @settings(max_examples=80, deadline=None)
    @given(POLYS, POLYS, WINDOWS)
    def test_lazy_lead_equals_eager(self, p, q, phi):
        try:
            f = normalize_monic(p, q)
        except PreconditionFailed:
            assume(False)
        assume(not f.jac.is_zero())
        fresh = [BiPoly(g.terms) for g in (f.p, f.q, f.jac)]
        eager = LeadingData(*[x for g in fresh for x in substitute(g, phi)], phi.mult)
        lead = leading_data(f, phi)
        runs = []
        inner = puiseux_mod.prefix_expansion
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(puiseux_mod, "prefix_expansion",
                       lambda g, prefix: runs.append(g) or inner(g, prefix))
            jac = (lead.jac_lead, lead.jac_exp, lead.jac_lead)
        # a Jacobian that is P or Q finds the window in that curve's table
        assert len(runs) == (0 if f.jac is f.p or f.jac is f.q else 1)
        assert jac == (eager.jac_lead, eager.jac_exp, eager.jac_lead)
        # each leading_data call returns a lead whose Jacobian is unread
        assert leading_data(f, phi) == eager and eager == leading_data(f, phi)
        assert repr(leading_data(f, phi)) == repr(eager)
        assert classify(leading_data(f, phi)) == classify(eager)


def ref_frozen(f, parent, prefix):
    """The frozen flags of P and Q read off the Fraction reference points
    around prefix, the parent's steps with the parameter pinned."""
    return tuple(
        ref_coord_events(
            ref_points(reference_prefix_expansion(g, as_fractions(prefix))),
            parent.param_exponent,
        )[2]
        for g in (f.p, f.q)
    )


def tree_and_flags(f, caps):
    """The window tree of f, and the frozen flags it passed for each
    (parent window, child prefix) it read an event exponent for."""
    passed = {}
    inner = expansion_mod.next_event_exponent

    def recording(g, parent, prefix, frozen):
        passed[parent, prefix] = frozen
        return inner(g, parent, prefix, frozen)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(expansion_mod, "next_event_exponent", recording)
        tree = expansion_tree(f, caps)
    return tree, passed


def ref_next_event_exponent(f, parent, c):
    """The all-candidates filter over the Fraction reference: the largest
    candidate at which some live component's envelope is at least zero."""
    prefix = parent.fix_param(c)
    e_cur = parent.param_exponent
    live = []
    for g in (f.p, f.q):
        rpts = ref_points(reference_prefix_expansion(g, as_fractions(prefix)))
        edges, zero, frozen = ref_coord_events(rpts, e_cur)
        if not frozen:
            live.append((rpts, (*edges, zero)))
    cands = [e for _, events in live for e in events if e is not None]
    return max(
        (e for e in cands if max(ref_envelope_value(r, e) for r, _ in live) >= 0),
        default=None,
    )


class TestNextEventExponent:
    @settings(max_examples=150, deadline=None)
    @given(POLYS, POLYS, st.data())
    def test_matches_all_candidates_filter(self, p, q, data):
        # random windows are mostly frozen; the tree's own windows and
        # directions reach the candidate filter
        try:
            f = normalize_monic(p, q)
        except PreconditionFailed:
            assume(False)
        assume(not f.jac.is_zero())
        node = data.draw(st.sampled_from(list(expansion_tree(f, Caps(4, 8, 4)).walk())))
        phi = data.draw(st.one_of(st.just(node.series), WINDOWS))
        taken = [child.chosen_c for child in node.children] or [ZERO]
        c = data.draw(st.one_of(st.sampled_from(taken), SCALARS))
        frozen = frozen_by_rule(f, phi, c)
        got, _, _ = expansion_mod.next_event_exponent(f, phi, phi.fix_param(c), frozen)
        assert as_fraction(got) == ref_next_event_exponent(f, phi, c)

    @pytest.mark.parametrize("name", ["M4", "M6", "M8", "M9"])
    def test_every_tree_direction(self, name):
        f = normalize_monic(*parse_map(TREE_MAPS[name]))
        tree, passed = tree_and_flags(f, Caps())
        assert passed
        for node in tree.walk():
            for child in node.children:
                c = child.chosen_c
                prefix = node.series.fix_param(c)
                frozen = frozen_by_rule(f, node.series, c)
                # a derived conjugate subtree reads no event exponent
                assert passed.get((node.series, prefix), frozen) == frozen
                got, *pts = expansion_mod.next_event_exponent(f, node.series, prefix, frozen)
                assert as_fraction(got) == ref_next_event_exponent(f, node.series, c)
                lead = child.lead
                leads = [(lead.p_lead, lead.p_exp), (lead.q_lead, lead.q_exp)]
                for g, g_pts, g_frozen, g_lead in zip((f.p, f.q), pts, frozen, leads):
                    # the points the child's leads are read off; a frozen
                    # component has none, and its lead is the full expansion's
                    if g_frozen:
                        assert g_pts is None and g_lead == substitute(g, child.series)
                    else:
                        assert g_pts == expansion_points(g, prefix)

    @settings(max_examples=150, deadline=None)
    @given(POLYS, POLYS, st.data())
    def test_parent_lead_rule(self, p, q, data):
        # the frozen flags read off the parent's lead are the reference's:
        # the tree's own flags for every direction it read, and the rule
        # for the children of a node and random directions
        try:
            f = normalize_monic(p, q)
        except PreconditionFailed:
            assume(False)
        assume(not f.jac.is_zero())
        tree, passed = tree_and_flags(f, Caps(4, 8, 4))
        for (parent, prefix), frozen in passed.items():
            assert frozen == ref_frozen(f, parent, prefix)
        node = data.draw(st.sampled_from(list(tree.walk())))
        parent = node.series
        taken = [child.chosen_c for child in node.children] or [ZERO]
        c = data.draw(st.one_of(st.sampled_from(taken), SCALARS))
        prefix = parent.fix_param(c)
        want = ref_frozen(f, parent, prefix)
        assert frozen_by_rule(f, parent, c) == want
        for child in node.children:
            if child.chosen_c == c:  # both leads are the full expansion's
                lead = child.lead
                assert (lead.p_lead, lead.p_exp) == substitute(f.p, child.series)
                assert (lead.q_lead, lead.q_exp) == substitute(f.q, child.series)
        # a frozen component's lead at the child window: the constant
        # g_lead(c) at the parent's exponent, over the child's mult
        e_next, *_ = expansion_mod.next_event_exponent(f, parent, prefix, want)
        if e_next is None:
            e_next = (-parent.param_index, parent.mult)
        child = refine(parent, c, e_next[1] - e_next[0], e_next[1])
        b, m = child.mult, parent.mult
        for g, g_frozen in zip((f.p, f.q), want):
            if g_frozen:
                lead, exp = substitute(g, parent)
                assert exp * b % m == 0
                pts = expansion_points(g, prefix)
                want_lead = (UniPoly.const(lead.evaluate(c)), exp * b // m)
                assert envelope_lead(pts, b - child.param_index, b) == want_lead


def ref_substitute(g, phi):
    """substitute over the Fraction reference: the envelope lead at phi's
    parameter exponent, with the exponent as a numerator over phi.mult."""
    rpts = ref_points(reference_prefix_expansion(g, as_fractions(phi.fix_param(ZERO))))
    lead, top = ref_envelope_lead(rpts, 1 - Fraction(phi.param_index, phi.mult))
    return lead, top * phi.mult


class TestIntegerSubstitute:
    @settings(max_examples=150, deadline=None)
    @given(POLYS, POLYS, st.data())
    def test_matches_reference(self, p, q, data):
        # the tree's own windows and random ones, canonical or not
        try:
            f = normalize_monic(p, q)
        except PreconditionFailed:
            assume(False)
        assume(not f.jac.is_zero())
        node = data.draw(st.sampled_from(list(expansion_tree(f, Caps(4, 8, 4)).walk())))
        phi = data.draw(st.one_of(st.just(node.series), WINDOWS))
        t = data.draw(st.integers(1, 3))
        scaled = ParamSeries(
            t * phi.mult, tuple((t * k, c) for k, c in phi.steps), t * phi.param_index
        )
        for g in (f.p, f.q, f.jac):
            assert substitute(g, phi) == ref_substitute(g, phi)
            assert substitute(g, scaled) == ref_substitute(g, scaled)

    @pytest.mark.parametrize("name", ["M4", "M6", "M8", "M9"])
    def test_every_tree_window(self, name):
        f = normalize_monic(*parse_map(TREE_MAPS[name]))
        for node in expansion_tree(f, Caps()).walk():
            for g in (f.p, f.q, f.jac):
                assert substitute(g, node.series) == ref_substitute(g, node.series)

    @pytest.mark.parametrize("name", ["M4", "M8"])
    def test_window_reads_build_no_fraction(self, monkeypatch, name):
        # exponents stay integer numerators over the window multiplicity
        f = normalize_monic(*parse_map(TREE_MAPS[name]))
        windows = [node.series for node in expansion_tree(f, Caps()).walk()]
        built = []
        inner = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return inner(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for phi in windows:
            leading_data(f, phi).jac_exp
            for g in (f.p, f.q, f.jac):
                substitute(g, phi)
        reads = len(built)
        windows[-1].param_exponent  # the count only means something if it sees one
        monkeypatch.undo()
        assert len(windows) > 1
        assert reads == 0 and len(built) == 1


def _fraction_series_key(w: ParamSeries) -> tuple:
    """The order of windows with Fraction exponents and (re, im) scalars."""
    m = w.mult
    steps = tuple((1 - Fraction(k, m), (c.re, c.im)) for k, c in w.steps)
    return Fraction(m - w.param_index, m), steps


def _fraction_branch_key(br: ConcreteBranch) -> tuple:
    return tuple((1 - Fraction(k, br.mult), (c.re, c.im)) for k, c in br.terms)


# few small values, so that equal exponents and coefficients occur often
key_scalars = st.builds(
    Scalar.of,
    st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]),
    st.sampled_from([0, 1, Fraction(-1, 2)]),
)


@st.composite
def key_windows(draw):
    mult = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(0, 5), max_size=3, unique=True))
    coeffs = draw(st.lists(key_scalars, min_size=len(ks), max_size=len(ks)))
    param_index = draw(st.integers(max(ks, default=-1) + 1, 7))
    return series(mult, zip(ks, coeffs), param_index)


@st.composite
def key_branches(draw):
    # not reduced: (k, mult) and (2k, 2mult) name the same exponent
    mult = draw(st.integers(1, 4))
    ks = sorted(draw(st.lists(st.integers(0, 6), max_size=3, unique=True)))
    coeffs = draw(st.lists(key_scalars, min_size=len(ks), max_size=len(ks)))
    return ConcreteBranch(mult, tuple(zip(ks, coeffs)), None)


def _same_order(items, key, reference) -> None:
    for a in items:
        for b in items:
            ka, kb, ra, rb = key(a), key(b), reference(a), reference(b)
            assert (ka < kb) == (ra < rb)
            assert (ka == kb) == (ra == rb)
            if ka == kb:
                assert hash(ka) == hash(kb)
    assert sorted(items, key=key) == sorted(items, key=reference)


class TestExactKeys:
    @settings(max_examples=150)
    @given(st.lists(key_windows(), min_size=1, max_size=6))
    def test_series_key_orders_as_fraction_exponents(self, windows):
        _same_order(windows, ParamSeries.sort_key, _fraction_series_key)

    @settings(max_examples=150)
    @given(st.lists(key_branches(), min_size=1, max_size=6))
    def test_branch_key_orders_as_fraction_exponents(self, branches):
        _same_order(branches, ConcreteBranch.sort_key, _fraction_branch_key)

    def test_order_and_text_build_no_fraction(self, monkeypatch):
        xs = [sc(Fraction(1, 2), -3), sc(0, Fraction(-2, 3)), sc(5), sc(Fraction(7, 4), 1)]
        poly = UniPoly.make(xs)
        windows = [series(4, [(0, xs[0]), (2, xs[1])], 3), series(2, [(1, xs[2])], 3)]
        branches = [ConcreteBranch(2, ((0, xs[3]), (1, xs[1])), None),
                    ConcreteBranch(4, ((0, xs[3]), (2, xs[2])), 3)]
        built = []
        inner = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return inner(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        for x in xs:
            x.sort_key()
            str(x)
            format_scalar_factor(x)
        sorted(xs, key=Scalar.sort_key)
        min(xs), max(xs)
        str(poly)
        sorted(windows, key=ParamSeries.sort_key)
        sorted(branches, key=ConcreteBranch.sort_key)
        reads = len(built)
        xs[0].re  # the count only means something if it sees one
        monkeypatch.undo()
        assert reads == 0 and len(built) == 1
