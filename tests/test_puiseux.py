"""Parametric series, substitution, and refinement."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npvset.algebra import bipoly, normalize_monic
from npvset.errors import PreconditionFailed
from npvset.puiseux import (
    ParamSeries,
    ROOT_WINDOW,
    is_refinement,
    leading_data,
    prefix_expansion,
    refine,
    series,
    substitute,
)

from conftest import sc

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
    from npvset.algebra import UniPoly

    return UniPoly.of(*coeffs)


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
        # the expansion around a prefix is linear in the polynomial expanded
        prefix = MINUS_X_WINDOW.step_exponents()
        if f.is_zero() or g.is_zero() or (f + g).is_zero():
            return
        left = prefix_expansion(f + g, prefix)
        merged = {}
        for part in (prefix_expansion(f, prefix), prefix_expansion(g, prefix)):
            for j, row in part.items():
                slot = merged.setdefault(j, {})
                for e, c in row.items():
                    slot[e] = slot.get(e, sc(0)) + c
        merged = {
            j: {e: c for e, c in row.items() if not c.is_zero()}
            for j, row in merged.items()
        }
        assert left == {j: row for j, row in merged.items() if row}

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
