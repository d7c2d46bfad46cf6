"""Value-set assembly and the verifier suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npvset.algebra import BiPoly, MapPair, ONE, UniPoly, ZERO, bipoly, normalize_monic
from npvset.classify import delta
from npvset.errors import NotARefinement, PreconditionFailed, VerificationFailure
from npvset.expansion import (
    AssociatedSequence,
    hull_edges,
    Caps,
    LevelIndexData,
    RootIndexData,
    SequenceLevel,
    associated_sequence,
    curve_branches,
    root_index_data,
)
from npvset.parsing import parse_map, parse_poly
from npvset.puiseux import (
    ConcreteBranch,
    LeadingData,
    Prefix,
    ROOT_WINDOW,
    envelope_zero,
    expansion_points,
    is_refinement,
    leading_data,
    refine,
    series,
    window_at,
)
from npvset.valueset import (
    check_eq4,
    check_eq9,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_newton_factorization,
    check_section5_identity,
    DicriticalScan,
    dicritical_series,
    horizontal_q_prefixes,
    nonproper_value_set,
    run_all_checks,
    theorem1_from_leads,
    verify_theorem1,
    verify_theorem2,
    ValueSetComponent,
)

import npvset.expansion as expansion_mod
import npvset.puiseux as puiseux_mod
import npvset.valueset as valueset_mod

from conftest import (
    CORPUS_TEXT, DEGREE12_TEXT, M9_TEXT, STRESS_TEXT, compose, corpus_map, random_map_text,
    sc, up,
)


def lead_of(p, a, q, b, j, jexp, mult=1):
    return LeadingData(up(*p), a, up(*q), b, up(*j), jexp, mult)


F2_PHI = series(1, [(0, sc(-1))], 2)


class TestDicriticalSeries:
    def test_f2(self):
        scan = dicritical_series(corpus_map("F2"))
        assert len(scan.found) == 1
        assert scan.found[0][0] == F2_PHI
        assert not scan.unresolved

    def test_automorphism_empty(self):
        assert dicritical_series(corpus_map("F1")).found == []

    def test_f3p_zero_zero(self):
        scan = dicritical_series(corpus_map("F3p"))
        assert len(scan.found) == 1
        lead = scan.found[0][1]
        assert lead.p_exp == 0 and lead.q_exp == 0

    def test_conjugates_merged(self):
        f = normalize_monic(
            bipoly({(0, 2): 1, (1, 0): -1}),
            bipoly({(0, 3): 1, (1, 1): -1}),
        )
        scan = dicritical_series(f)
        assert len(scan.found) == 1
        assert scan.found[0][0].mult == 2


class TestNonProperValueSet:
    def test_f2_line(self):
        vs = nonproper_value_set(corpus_map("F2"))
        assert len(vs.components) == 1
        comp = vs.components[0]
        assert comp.u == up(0) and comp.u_is_limit_zero
        assert comp.v == up(0, -1)

    def test_f3p_diagonal(self):
        vs = nonproper_value_set(corpus_map("F3p"))
        assert len(vs.components) == 1
        comp = vs.components[0]
        assert comp.u == up(0, -1) and comp.v == up(0, -1)

    def test_proper_maps_empty(self):
        for name in ("F1", "F5", "R1", "R2", "R4", "R5"):
            assert nonproper_value_set(corpus_map(name)).components == [], name

    def test_r3_horizontal_line(self):
        vs = nonproper_value_set(corpus_map("R3"))
        assert len(vs.components) == 1
        comp = vs.components[0]
        assert comp.v == up(-1) and comp.u.degree == 1

    def test_capped_run_is_lower_bound(self):
        vs = nonproper_value_set(corpus_map("F2"), Caps(max_depth=1))
        assert vs.unresolved


def merged(*pairs):
    """The components kept when windows with these limit maps are merged."""
    found = [
        (F2_PHI, LeadingData(u, 0, v, 0, up(1), 0, 1)) for u, v in pairs
    ]
    kept = valueset_mod._merged_components(DicriticalScan(found, [], None))
    return [(c.u, c.v) for c in kept]


S = up(0, 1)


class TestComponentMerge:
    """Two components are one exactly when their images are one curve."""

    def test_affine_reparameterization_merges(self):
        u, v = up(1, 0, 1), up(0, -1, 0, 1)
        ell = UniPoly.make([sc(3), sc(2, 1)])
        assert merged((u, v), (compose(u, ell), compose(v, ell))) == [(u, v)]

    def test_same_parabola_merges(self):
        # (s^2, s^4) covers the parabola twice; no affine change of parameter
        # turns it into (s, s^2)
        assert merged((S, S ** 2), (S ** 2, S ** 4)) == [(S, S ** 2)]
        assert merged((S ** 2, S ** 4), (S, S ** 2)) == [(S ** 2, S ** 4)]

    def test_repeated_parameter_values_merge(self):
        # w = s^2 - s takes the value 0 at s = 0 and s = 1
        w = up(0, -1, 1)
        assert merged((S, S ** 2), (w, w ** 2)) == [(S, S ** 2)]

    def test_parabola_and_cubic_stay_apart(self):
        assert merged((S, S ** 2), (S, S ** 3)) == [(S, S ** 2), (S, S ** 3)]

    def test_vertical_lines_merge_when_constants_agree(self):
        two, three = up(2), up(3)
        assert merged((two, S), (two, up(1, 0, 5))) == [(two, S)]
        assert merged((two, S), (three, S)) == [(two, S), (three, S)]
        zero = UniPoly.const(ZERO)
        assert merged((zero, S), (zero, up(0, -1))) == [(zero, S)]

    def test_line_and_diagonal_stay_apart(self):
        zero = UniPoly.const(ZERO)
        assert merged((S, zero), (S, S)) == [(S, zero), (S, S)]
        assert merged((up(2), S), (S, S)) == [(up(2), S), (S, S)]


gaussian = st.builds(sc, st.integers(-3, 3), st.integers(-3, 3))
small_poly = st.lists(gaussian, min_size=1, max_size=4).map(UniPoly.make)


class TestComponentMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(small_poly, small_poly, gaussian, gaussian, st.integers(1, 3))
    def test_reparameterizations_merge(self, u, v, a, b, k):
        assume(not (u.is_constant() and v.is_constant()) and not a.is_zero())
        ell = UniPoly.make([b, a])
        power = UniPoly.make([ZERO] * k + [sc(1)])
        for inner in (ell, power):
            other = (compose(u, inner), compose(v, inner))
            assert merged((u, v), other) == [(u, v)]
            assert merged(other, (u, v)) == [other]


class TestTheorem1:
    def test_f3p_hypothesis_not_met_conclusions_hold(self):
        f = corpus_map("F3p")
        cert = verify_theorem1(f, ROOT_WINDOW, F2_PHI)
        assert not cert.hypothesis_met  # the coarse window is singular
        assert cert.conclusion_i_ok and cert.conclusion_ii_ok
        assert (cert.M, cert.d, cert.e, cert.N, cert.D) == (2, 1, 1, 2, 1)
        assert cert.C == sc(-1)

    def test_synthetic_consistent_scaling(self):
        lead_psi = lead_of([0, 0, 1], 2, [0, 0, 0, 1], 3, [1], 0)
        lead_phi = lead_of([0, 0, 4], 0, [0, 0, 0, 8], 0, [1], 0)
        cert = theorem1_from_leads(lead_psi, lead_phi)
        assert cert.hypothesis_met
        assert (cert.M, cert.d, cert.e) == (1, 2, 3)
        assert cert.conclusion_i_ok  # (2, 3) = (1*2, 1*3)
        assert cert.conclusion_ii_ok and cert.C == sc(2)

    def test_synthetic_degree_mismatch_fails(self):
        lead_psi = lead_of([0, 0, 1], 2, [0, 0, 1], 3, [1], 0)
        lead_phi = lead_of([0, 0, 4], 0, [0, 0, 0, 8], 0, [1], 0)
        cert = theorem1_from_leads(lead_psi, lead_phi)
        assert cert.hypothesis_met
        assert not cert.conclusion_i_ok  # (2, 2) is not (2N, 3N)
        assert cert.counterexample()

    def test_synthetic_bezout_coefficient(self):
        lead_psi = lead_of([0, 1, 1], 2, [0, 1, 1], 2, [1], 0)
        lead_phi = lead_of([0, -1], 0, [0, -1], 0, [1], 0)
        cert = theorem1_from_leads(lead_psi, lead_phi)
        assert cert.hypothesis_met
        assert (cert.d, cert.e, cert.N, cert.D) == (1, 1, 2, 1)
        assert cert.conclusion_i_ok and cert.conclusion_ii_ok
        assert cert.C == sc(-1)

    @pytest.mark.parametrize("a, b", [(0, 2), (2, -1), (-1, -1)])
    def test_coarse_exponent_not_positive(self, a, b):
        lead_psi = lead_of([0, 1], a, [0, 1], b, [1], 0)
        lead_phi = lead_of([0, 2], 0, [0, 2], 0, [1], 0)
        cert = theorem1_from_leads(lead_psi, lead_phi)
        assert not cert.hypothesis_met and not cert.counterexample()
        assert (cert.M, cert.conclusion_i_ok, cert.conclusion_ii_ok) == (None, None, None)

    def test_requires_refinement(self):
        f = corpus_map("F2")
        with pytest.raises(NotARefinement):
            verify_theorem1(f, series(2, [(1, sc(1))], 2), F2_PHI)


class TestTheorem2:
    def test_f2t_both_alternatives(self):
        f = corpus_map("F2T")
        cert = verify_theorem2(f, F2_PHI)
        assert cert.valid()
        assert cert.phi_singular  # jac lead along the window is -s
        assert cert.witness_psi == series(1, [(0, sc(-1))], 1)  # -x + s
        assert cert.witness_singular

    def test_wrong_shape_rejected(self):
        f = corpus_map("F2")
        with pytest.raises(PreconditionFailed):
            verify_theorem2(f, F2_PHI)  # exponents are (-1, 0), not (0, <0)

    MAPS = {
        **CORPUS_TEXT, **STRESS_TEXT, "M9": M9_TEXT, "E": "x^2+x*y+y^2+x; y", **DEGREE12_TEXT,
    }

    def test_witness_search_matches_two_prefix_scan(self):
        # every tree window of the 21 maps and two seeded refinements of each
        rng = random.Random(27)
        coeffs = [ZERO, ONE, -ONE, sc(0, 1), sc(2), sc(1, 1)]
        witnesses = at_step = 0
        for name, text in self.MAPS.items():
            f = normalize_monic(*parse_map(text))
            for node in dicritical_series(f).tree.walk():
                phi = node.series
                refined = []
                for _ in range(2):
                    r = rng.randint(1, 3)
                    k = phi.param_index * r + rng.randint(1, 2 * r)
                    refined.append(refine(phi, rng.choice(coeffs), k, phi.mult * r))
                for w in (phi, *refined):
                    got = horizontal_q_prefixes(f, w)
                    assert got == ref_horizontal_q_prefixes(f, w), (name, w)
                    exps = [v.param_exponent for v, _ in got]
                    assert all(a > b for a, b in zip(exps, exps[1:])), (name, w)
                    steps = {e for e, _ in w.step_exponents()}
                    at_step += sum(e in steps for e in exps)
                    witnesses += len(exps)
        # a witness at a step exponent is the zero at the bottom of the
        # segment above that step; the others lie strictly inside one
        assert witnesses > at_step > 0

    @pytest.mark.parametrize("name, reads", [("D12", 10), ("F2T", 6)])
    def test_witness_search_reads_the_tree_path(self, monkeypatch, name, reads):
        # in run_all_checks Theorem 2 takes its witnesses off the dicritical
        # node's tree path: after the tree the run expands only the
        # Jacobian, for the leads it checks, and builds no window and no
        # leading data; a search on its own walks phi, reading P and Q once
        # at each window above phi's
        f = normalize_monic(*parse_map({**CORPUS_TEXT, **DEGREE12_TEXT}[name]))
        after_tree, curves, built = [False], [], []
        inner_scan = valueset_mod.dicritical_series

        def scan(*args):
            out = inner_scan(*args)
            after_tree[0] = True
            return out

        monkeypatch.setattr(valueset_mod, "dicritical_series", scan)
        for module in (puiseux_mod, expansion_mod):
            inner = module.expansion_points

            def reading(g, prefix, inner=inner):
                if after_tree[0]:
                    curves.append(g)
                return inner(g, prefix)

            monkeypatch.setattr(module, "expansion_points", reading)
        for module, fn in ((expansion_mod, "window_at"), (expansion_mod, "leading_data"),
                           (valueset_mod, "leading_data")):
            inner = getattr(module, fn)

            def building(*args, inner=inner):
                built.append(after_tree[0])
                return inner(*args)

            monkeypatch.setattr(module, fn, building)
        run = valueset_mod.run_all_checks(f, what="theorem2")
        assert run.checks[0].status == "pass" and after_tree[0]
        assert curves and all(g is f.jac for g in curves)
        assert not any(built)
        (phi,) = [s for s, lead in dicritical_series(f).found
                  if lead.p_exp == 0 and lead.q_exp < 0]
        curves.clear()
        assert horizontal_q_prefixes(f, phi)
        assert len(curves) == reads and all(g is f.p or g is f.q for g in curves)

    SINGULAR, REGULAR = up(0, 1), up(1)  # Jacobian leads

    def test_witness_is_the_first_singular_prefix(self):
        phi = series(1, [(0, sc(-1))], 2)
        lead = lead_of([0, 1], 0, [1], -1, [1], 0)
        unread = lead_of([0, 1], 1, [0, 1], 0, [1], 0)
        unread._source = (None, None)  # reading its Jacobian lead raises
        prefixes = [
            (series(1, [], 1), lead_of([0, 1], 1, [0, 1], 0, [1], 0)),
            (series(1, [(0, sc(-1))], 1), lead_of([0, 1], 1, [0, 1], 0, [0, 1], 0)),
            (series(1, [(0, sc(-1))], 3), unread),
        ]
        cert = valueset_mod.theorem2_from_leads(phi, lead, prefixes)
        assert cert.witness_psi == prefixes[1][0] and cert.witness_singular
        assert cert.valid() and not cert.phi_singular

    @pytest.mark.parametrize("phi_jac", [SINGULAR, REGULAR], ids=["singular_phi", "regular_phi"])
    def test_without_a_singular_prefix_the_first_is_the_witness(self, phi_jac):
        phi = series(1, [(0, sc(-1))], 2)
        lead = LeadingData(up(0, 1), 0, up(1), -1, phi_jac, 0, 1)
        prefixes = [
            (series(1, [], 1), lead_of([0, 1], 1, [0, 1], 0, [1], 0)),
            (series(1, [(0, sc(-1))], 1), lead_of([0, 1], 1, [0, 1], 0, [2], 0)),
        ]
        for given, witness in ((prefixes, prefixes[0][0]), ([], None)):
            cert = valueset_mod.theorem2_from_leads(phi, lead, given)
            assert cert.witness_psi == witness and not cert.witness_singular
            assert cert.phi_singular == (phi_jac.degree > 0) == cert.valid()


def ref_horizontal_q_prefixes(f, phi):
    """The two-prefix scan: each segment reads Q around the steps strictly
    above its top slot, for a zero there, and around the steps down to it,
    for a zero strictly inside; then duplicates go and the windows sort."""
    slots = [0] + [k for k, _ in phi.steps if k > 0] + [phi.param_index]
    out, seen = [], set()

    def collect(e):
        if e <= phi.param_exponent:
            return
        w = window_at(phi, e)
        if w.sort_key() in seen:
            return
        seen.add(w.sort_key())
        lead = leading_data(f, w)
        if lead.q_exp == 0 and lead.q_lead.degree > 0:
            out.append((w, lead))

    for k_hi, k_lo in zip(slots, slots[1:]):
        hi = 1 - Fraction(k_hi, phi.mult)
        lo = 1 - Fraction(k_lo, phi.mult)
        above = Prefix.of(phi.mult, [(k, c) for k, c in phi.steps if k < k_hi])
        z = envelope_zero(expansion_points(f.q, above))
        if z is not None and Fraction(*z) == hi:
            collect(hi)
        within = Prefix.of(phi.mult, [(k, c) for k, c in phi.steps if k <= k_hi])
        z = envelope_zero(expansion_points(f.q, within))
        if z is not None and lo < Fraction(*z) < hi:
            collect(Fraction(*z))
    out.sort(key=lambda t: -t[0].param_exponent)
    return out


class TestLemma2:
    def test_f2_chain(self):
        f = corpus_map("F2")
        seq = associated_sequence(ROOT_WINDOW, F2_PHI, f)
        rep = check_lemma2(seq, root_index_data(seq))
        assert rep.status == "pass"
        assert all(it["ok"] for it in rep.items)

    def test_f3p_chain(self):
        f = corpus_map("F3p")
        seq = associated_sequence(ROOT_WINDOW, F2_PHI, f)
        rep = check_lemma2(seq, root_index_data(seq))
        assert rep.status == "pass"

    def test_hand_exponent_instance(self):
        # along the F2 chain the first-coordinate exponent drops from 1 to
        # 1 + 1*(0 - 2) = -1
        f = corpus_map("F2")
        seq = associated_sequence(ROOT_WINDOW, F2_PHI, f)
        data = root_index_data(seq)
        assert seq.levels[0].lead.p_exp == 1
        assert data.levels[0].s0_count == 1
        assert seq.levels[1].lead.p_exp == -1

    def test_trivial_chain_vacuous(self):
        f = corpus_map("F2")
        seq = associated_sequence(F2_PHI, F2_PHI, f)
        rep = check_lemma2(seq, root_index_data(seq))
        assert rep.status == "vacuous"


class TestLemma3:
    def test_hand_instance(self):
        f = corpus_map("F1")
        lead = leading_data(f, ROOT_WINDOW)
        rep = check_lemma3(lead, 0, sign=1)
        assert rep.status == "pass"
        assert {"case": "balanced", "ok": True} in rep.items

    def test_common_zero_vanishing(self):
        # delta vanishes and the leads share the root 0; exponent data is
        # arranged above balance so the vanishing is consistent
        lead = lead_of([0, 1], 1, [0, 1], 1, [1], -1)
        rep = check_lemma3(lead, 0, sign=1)
        assert rep.status == "pass"
        assert {"case": "vanishing_iff", "ok": True} in rep.items
        assert {"case": "proportionality", "ok": True} in rep.items

    def test_no_common_zero_nonvanishing(self):
        lead = lead_of([1, 1], 1, [-1, 1], 1, [1], 4)  # jac_exp aligns lhs=rhs
        rep = check_lemma3(lead, 4, sign=1)
        assert {"case": "vanishing_iff", "ok": True} in rep.items

    def test_below_balance_makes_no_assertion(self):
        # p_exp + q_exp = 2 lies below 2*mult - param_index + jac_exp = 3
        lead = lead_of([0, 1], 1, [1, 1], 1, [1], 1)
        rep = check_lemma3(lead, 0, sign=1)
        assert rep.status == "pass"
        assert rep.items[0] == {"case": "below_balance", "ok": True, "note": "no assertion"}
        assert {"case": "vanishing_iff", "ok": True} in rep.items

    def test_precondition(self):
        lead = lead_of([0, 1], 0, [0, 1], 1, [1], 0)
        with pytest.raises(PreconditionFailed):
            check_lemma3(lead, 0)

    def test_wrong_sign_detected(self):
        f = corpus_map("F1")
        lead = leading_data(f, ROOT_WINDOW)
        rep = check_lemma3(lead, 0, sign=-1)
        assert rep.status == "fail"


def ref_delta_form(lead):
    """The delta form by scalings, derivatives, products and a difference."""
    return lead.p_lead.scale(sc(lead.p_exp)) * lead.q_lead.derivative() - (
        lead.p_lead.derivative() * lead.q_lead.scale(sc(lead.q_exp))
    )


gaussian = st.builds(sc, st.fractions(max_denominator=6), st.sampled_from([0, 0, 1, -2]))


@given(
    st.lists(gaussian, max_size=6), st.integers(-6, 6),
    st.lists(gaussian, max_size=6), st.integers(-6, 6),
)
@settings(max_examples=200, deadline=None)
def test_one_pass_delta_form_matches_reference(p, a, q, b):
    lead = LeadingData(UniPoly.make(p), a, UniPoly.make(q), b, up(2, 1), 3, 2)
    dd = delta(lead, 1)
    assert dd.delta == ref_delta_form(lead)
    assert dd.scaled_jac == up(4, 2) and (dd.exponent_lhs, dd.exponent_rhs) == (a + b, 6)


class TestSection5:
    def test_f2t_hand_instance(self):
        f = corpus_map("F2T")
        psi = series(1, [(0, sc(-1))], 1)
        lead = leading_data(f, psi)
        rep = check_section5_identity(lead, psi.param_index, sign=1)
        assert rep.status == "pass"

    def test_swapped_orientation(self):
        f = corpus_map("F2")
        psi = series(1, [(0, sc(-1))], 1)  # horizontal for the first component
        lead = leading_data(f, psi)
        rep = check_section5_identity(lead, psi.param_index, sign=1)
        assert rep.status == "pass"

    def test_precondition(self):
        lead = lead_of([0, 1], -1, [0, 1], 0, [0, 1], -1)
        with pytest.raises(PreconditionFailed):
            check_section5_identity(lead, 2)

    def test_degree_correspondence_constant(self):
        f = corpus_map("F1")
        psi = series(1, [], 1)  # window s: both leads degenerate nicely
        lead = leading_data(f, psi)
        rep = check_section5_identity(lead, psi.param_index, sign=1)
        assert {"case": "degree_correspondence", "ok": True} in rep.items


def synthetic_chain(a0, b0, s_count, t_count):
    """Two-level chain with fabricated exponents and lead degrees: the top
    leads are (s - 1)^s_count and (s - 1)^t_count, with 1 pinned."""
    w0 = series(1, [], 0)
    w1 = series(1, [], 2)
    c0 = sc(1)
    lead0 = LeadingData(up(-1, 1) ** s_count, a0, up(-1, 1) ** t_count, b0, up(1), 0, 1)
    lead1 = lead_of([0, 1], 0, [0, 1], 0, [1], 0)
    lv0 = SequenceLevel(w0, c0, lead0)
    lv1 = SequenceLevel(w1, None, lead1)
    seq = AssociatedSequence([lv0, lv1])
    d0 = LevelIndexData(s_count, t_count, up(1), up(1))
    d1 = LevelIndexData(0, 0, up(0, 1), up(0, 1))
    return seq, RootIndexData([d0, d1])


class TestLemma4:
    def test_synthetic_balanced(self):
        seq, data = synthetic_chain(2, 2, 2, 2)
        assert root_index_data(seq) == data  # the fabricated counts are the leads' own
        rep = check_lemma4(seq, data)
        assert rep.status == "pass"

    def test_synthetic_ratio_mismatch(self):
        seq, data = synthetic_chain(2, 3, 3, 3)
        rep = check_lemma4(seq, data)
        assert rep.status == "fail"

    def test_corpus_scan_has_no_counterexample(self):
        for name in CORPUS_TEXT:
            f = corpus_map(name)
            scan = dicritical_series(f)
            for s, _lead in scan.found:
                seq = associated_sequence(ROOT_WINDOW, s, f)
                top = seq.levels[0].lead
                if not (
                    top.p_exp > 0
                    and top.q_exp > 0
                    and top.jac_lead.degree == 0
                ):
                    continue
                rep = check_lemma4(seq, root_index_data(seq))
                assert rep.status != "fail", name


class TestEq9:
    def test_f3p_chain(self):
        f = corpus_map("F3p")
        seq = associated_sequence(ROOT_WINDOW, F2_PHI, f)
        rep = check_eq9(seq)
        assert rep.status == "pass"

    def test_trivial_chain_vacuous(self):
        f = corpus_map("F2")
        seq = associated_sequence(F2_PHI, F2_PHI, f)
        assert check_eq9(seq).status == "vacuous"

    def test_synthetic_violation(self):
        # pinned coefficient is not a root of the vanishing coordinate's lead
        w0 = series(1, [], 0)
        w1 = series(1, [], 2)
        lead0 = lead_of([1, 1], 2, [1, 1], 2, [1], 0)
        lead1 = lead_of([0, 1], 0, [0, 1], -1, [1], 0)
        seq = AssociatedSequence(
            [
                SequenceLevel(w0, sc(5), lead0),
                SequenceLevel(w1, None, lead1),
            ]
        )
        assert check_eq9(seq).status == "fail"


class TestEq4:
    def test_vacuous_for_automorphism(self):
        f = corpus_map("F1")
        rep = check_eq4([], f)
        assert rep.status == "vacuous"

    def test_synthetic_ratio(self):
        f = normalize_monic(
            bipoly({(0, 4): 1, (1, 0): 1}), bipoly({(0, 6): 1, (0, 1): 1})
        )
        assert f.jac.is_constant() is False or True  # shape only matters below
        comp_ok = ValueSetComponent(up(0, 0, 1), up(0, 0, 0, 1), F2_PHI, False, False)
        comp_bad = ValueSetComponent(up(0, 1), up(0, 1), F2_PHI, False, False)
        auto = corpus_map("F1")
        # (deg u, deg v) = (2, 3) against (deg P, deg Q) = (4, 6): 2/3 = 4/6
        fake = normalize_monic(
            bipoly({(0, 4): 1, (0, 1): 1}), bipoly({(0, 6): 1, (1, 0): 1})
        )
        if fake.jac.is_constant():
            rep = check_eq4([comp_ok], fake)
            assert rep.status == "pass"
        rep = check_eq4([comp_ok], auto)
        assert rep.status == "fail"  # 2/3 against 1/1
        rep = check_eq4([comp_bad], auto)
        assert rep.status == "pass"  # 1/1 against 1/1

    def test_precondition_nonconstant_jacobian(self):
        with pytest.raises(PreconditionFailed):
            check_eq4([], corpus_map("F2"))


class TestNewtonFactorization:
    def test_exact_square_root_curve(self):
        f = bipoly({(0, 2): 1, (1, 0): -1})
        rep = check_newton_factorization(f, curve_branches(f, 8))
        assert rep.status == "pass" and rep.data["exact"]

    def test_exact_factorable_curve(self):
        f = bipoly({(0, 2): 1, (1, 1): 1})
        rep = check_newton_factorization(f, curve_branches(f, 8))
        assert rep.status == "pass" and rep.data["exact"]

    def test_truncated_hyperbola(self):
        f = bipoly({(0, 2): 1, (2, 0): -1, (0, 0): -1})
        rep = check_newton_factorization(f, curve_branches(f, 4))
        assert rep.status == "pass" and not rep.data["exact"]

    def test_zero_truncation_exponent_is_reported(self):
        # a truncated branch whose truncation exponent is 0
        branch = ConcreteBranch(1, ((0, sc(1)),), 1)
        rep = check_newton_factorization(parse_poly("y-x"), [branch])
        assert rep.data == {"exact": False, "truncation_exponent": "0"}

    def test_corpus_components(self):
        for name in ("F2", "F3p", "R2", "R6"):
            f = corpus_map(name)
            for g in (f.p, f.q):
                rep = check_newton_factorization(g, curve_branches(g, 8))
                assert rep.status in ("pass", "vacuous"), name


class TestRunAllChecks:
    def test_no_counterexample_on_corpus(self):
        for name in CORPUS_TEXT:
            run = run_all_checks(corpus_map(name))
            assert not run.counterexample(), name
            by_name = {c.name: c for c in run.checks}
            signs = (by_name["lemma3"].data["sign"], by_name["section5"].data["sign"])
            assert signs == (1, 1)

    def test_instance_counts(self):
        lemma3_total = 0
        section5_total = 0
        theorem1_met = 0
        for name in CORPUS_TEXT:
            run = run_all_checks(corpus_map(name))
            by_name = {c.name: c for c in run.checks}
            lemma3_total += by_name["lemma3"].data["non_vacuous"]
            section5_total += by_name["section5"].data["non_vacuous"]
            theorem1_met += by_name["theorem1"].data["non_vacuous"]
        assert lemma3_total >= 3
        assert section5_total >= 2
        assert theorem1_met == 0  # genuinely scarce; synthetic tests cover it

    @pytest.mark.parametrize("what", ["lemma5", "", "ALL", "theorem1,lemma2"])
    def test_unknown_check_is_rejected(self, what):
        # a typo must not read as a run with no counterexample
        with pytest.raises(PreconditionFailed, match="theorem1, theorem2"):
            run_all_checks(corpus_map("F2"), what=what)

    def test_recorded_structure_flags_hold_on_the_corpus(self, monkeypatch):
        # s2_ok is recorded, not read by any check; each level's members and
        # off-slot factors rebuild its two leads
        built = []
        inner = valueset_mod.root_index_data

        def recording(seq):
            built.append((seq, inner(seq)))
            return built[-1][1]

        monkeypatch.setattr(valueset_mod, "root_index_data", recording)
        chains = {}
        for name in CORPUS_TEXT:
            built.clear()
            run_all_checks(corpus_map(name))
            for seq, rid in built:
                assert all(lv.s2_ok is not False for lv in seq.levels), name
                assert len(rid.levels) == len(seq.levels), name
                for lv, d in zip(seq.levels, rid.levels):
                    slot = UniPoly.make([-lv.c, ONE]) if lv.c is not None else up(1)
                    p = d.pbar.scale(lv.lead.p_lead.lcoeff()) * slot ** d.s0_count
                    q = d.qbar.scale(lv.lead.q_lead.lcoeff()) * slot ** d.t0_count
                    assert (p, q) == (lv.lead.p_lead, lv.lead.q_lead), name
            if built:
                chains[name] = [len(seq.levels) for seq, _ in built]
        assert sorted(chains) == ["F2", "F2T", "F3p", "R3", "R6"]
        assert sum(map(len, chains.values())) == 5
        assert sum(map(sum, chains.values())) == 11


def ref_path_free_sequence(psi, phi, f):
    """The chain walk without a tree path, as written before the walk read
    its levels off the tree: each level's window is rebuilt from phi and
    its leading data read again."""
    ok, _, _ = is_refinement(psi, phi)
    if not ok:
        raise NotARefinement("second series does not refine the first")
    e_bot = phi.param_exponent
    coeff_exps = [e for e, _ in phi.step_exponents()]

    def window(e):
        return phi if e == e_bot else window_at(phi, e)

    levels = []
    w = window(psi.param_exponent)
    lead = leading_data(f, w)
    while w is not phi:
        e, slot = w.param_exponent, w.mult - w.param_index
        c = phi.coeff_at(e)
        prefix = w.fix_param(c)
        slopes = [
            Fraction(*e)
            for g in (f.p, f.q)
            for e in hull_edges(expansion_points(g, prefix), slot, w.mult)
        ]
        e_next = max(
            (x for x in (*slopes, *coeff_exps) if e_bot < x < e), default=e_bot
        )
        s2_ok = any(not g.is_constant() and not g.is_monomial()
                    for g in (lead.p_lead, lead.q_lead))
        levels.append(SequenceLevel(w, c, lead, s2_ok))
        w = window(e_next)
        lead = leading_data(f, w)
        if (
            lead.p_lead.is_constant()
            and lead.q_lead.is_constant()
            and w is not phi
            and not phi.coeff_at(e_next).is_zero()
        ):
            raise VerificationFailure("nonzero coefficient level without a tracking root")
    levels.append(SequenceLevel(w, None, lead))
    return AssociatedSequence(levels)


def ref_level_count(lead, c):
    """The multiplicity of c as a root of a level's lead and the monic lead
    with (s - c) to that power divided out, by long division."""
    count, bar = 0, lead.monic()
    while c is not None:
        quo, rem = bar.divmod(UniPoly.make([-c, ONE]))
        if not rem.is_zero():
            break
        count, bar = count + 1, quo
    return count, bar


def chain_record(build, *args):
    """Levels and index data of one chain as plain tuples, or the exception."""
    try:
        seq = build(*args)
        want = []
        for lv in seq.levels:
            (s0, pbar), (t0, qbar) = (
                ref_level_count(g, lv.c) for g in (lv.lead.p_lead, lv.lead.q_lead)
            )
            want.append((s0, t0, pbar, qbar))
        data = [tuple(d) for d in root_index_data(seq).levels]
    except VerificationFailure as exc:
        return ("raised", type(exc), str(exc))
    assert data == want  # synthetic division against long division
    return [tuple(lv) for lv in seq.levels], data


NAMED_MAPS = {
    **CORPUS_TEXT, **STRESS_TEXT, "M9": M9_TEXT, "E": "x^2+x*y+y^2+x; y", **DEGREE12_TEXT,
}


def tree_chain_maps():
    """The 21 named maps and 300 seeded random maps, normalized; a map
    whose Jacobian vanishes identically is left out."""
    rng = random.Random(28)
    texts = {**NAMED_MAPS, **{f"random{n}": random_map_text(rng) for n in range(300)}}
    out = {}
    for name, text in texts.items():
        f = normalize_monic(*parse_map(text))
        if not f.jac.is_zero():
            out[name] = f
    return out


class TestTreeChains:
    def test_path_chain_matches_path_free_walk(self):
        census = {"chains": 0, "raised": 0, "named": 0, "levels": 0, "off_chain": 0}
        for name, f in tree_chain_maps().items():
            for path in valueset_mod._dicritical_paths(dicritical_series(f).tree):
                phi = path[-1].series
                want = chain_record(ref_path_free_sequence, ROOT_WINDOW, phi, f)
                got = chain_record(associated_sequence, ROOT_WINDOW, phi, f, path)
                assert got == want, (name, phi)
                # a path must hold every node between its ends
                if len(path) > 2:
                    with pytest.raises(PreconditionFailed, match="path"):
                        associated_sequence(ROOT_WINDOW, phi, f, (path[0], path[-1]))
                assert chain_record(associated_sequence, ROOT_WINDOW, phi, f) == want
                if got[0] == "raised":
                    census["raised"] += 1
                    continue
                census["chains"] += 1
                census["named"] += name in NAMED_MAPS
                # every level is its path node, window and leads; the nodes
                # off the chain are zero crossings of P's or Q's exponent
                seq = associated_sequence(ROOT_WINDOW, phi, f, path)
                on = {id(lv.lead) for lv in seq.levels}
                by_lead = {id(node.lead): node for node in path}
                assert on <= by_lead.keys(), (name, phi)
                assert all(by_lead[id(lv.lead)].series is lv.series for lv in seq.levels)
                off = [node.lead for node in path if id(node.lead) not in on]
                assert all(0 in (lead.p_exp, lead.q_exp) for lead in off), (name, phi)
                census["levels"] += len(seq.levels)
                census["off_chain"] += len(off)
        assert census == {"chains": 61, "raised": 0, "named": 11, "levels": 168, "off_chain": 20}

    def test_tree_path_witnesses_match_the_walk(self):
        # a Q lead with exponent 0 and positive degree sits at Q's envelope
        # zero, a tree event: on every dicritical window with exponents
        # (0, <0) the horizontal prefixes read off its tree path are the
        # walk's and the two-prefix scan's
        windows = witnesses = 0
        for name, f in tree_chain_maps().items():
            for path in valueset_mod._dicritical_paths(dicritical_series(f).tree):
                phi, lead = path[-1].series, path[-1].lead
                if not (lead.p_exp == 0 and lead.q_exp < 0):
                    continue
                got = valueset_mod._horizontal_q_windows(path)
                assert got == horizontal_q_prefixes(f, phi), (name, phi)
                assert got == ref_horizontal_q_prefixes(f, phi), (name, phi)
                windows += 1
                witnesses += len(got)
        assert (windows, witnesses) == (22, 22)

    def test_path_must_join_psi_to_phi(self):
        f = corpus_map("F2")
        (path,) = valueset_mod._dicritical_paths(dicritical_series(f).tree)
        with pytest.raises(PreconditionFailed, match="path"):
            associated_sequence(ROOT_WINDOW, path[-2].series, f, path)
        with pytest.raises(PreconditionFailed, match="path"):
            associated_sequence(F2_PHI, path[-1].series, f, path)
        # each node must be a child of the one before
        assert len(path) > 2
        with pytest.raises(PreconditionFailed, match="path"):
            associated_sequence(ROOT_WINDOW, path[-1].series, f, (path[0], path[-1]))

    def test_chains_rebuild_no_window(self, monkeypatch):
        # in run_all_checks the chains and Theorem 2 read every window off
        # the tree: after it, and apart from the factorization check's branch
        # search, no expansion is read, no hull walked, no window rebuilt, no
        # refinement checked and no leading data read again
        names = ("expansion_points", "hull_edges", "window_at", "leading_data", "is_refinement")
        depth = {"run": 0, "apart": 0}
        calls = dict.fromkeys(names, 0)
        for module in (expansion_mod, valueset_mod):
            for name in names:
                if hasattr(module, name):
                    inner = getattr(module, name)

                    def counting(*args, name=name, inner=inner):
                        calls[name] += depth["run"] > 0 and not depth["apart"]
                        return inner(*args)

                    monkeypatch.setattr(module, name, counting)

        def nested(name, key):
            inner = getattr(valueset_mod, name)

            def wrapper(*args):
                depth[key] += 1
                try:
                    return inner(*args)
                finally:
                    depth[key] -= 1

            monkeypatch.setattr(valueset_mod, name, wrapper)

        nested("run_all_checks", "run")
        nested("dicritical_series", "apart")
        nested("curve_branches", "apart")
        built = []
        inner_seq = valueset_mod.associated_sequence

        def recording(*args):
            built.append(inner_seq(*args))
            return built[-1]

        monkeypatch.setattr(valueset_mod, "associated_sequence", recording)
        for text in NAMED_MAPS.values():
            valueset_mod.run_all_checks(normalize_monic(*parse_map(text)))
        assert len(built) == 8 and calls == dict.fromkeys(calls, 0)
        unread = ("Fraction", "Prefix", "envelope_zero", "expansion_points", "window_at")
        assert not [name for name in unread if hasattr(valueset_mod, name)]
        # the guard sees the calls of a walk without a path
        depth["run"] = 1
        recording(ROOT_WINDOW, F2_PHI, corpus_map("F2"))
        assert all(calls.values()), calls

    def test_no_lead_is_root_searched_twice(self, monkeypatch):
        # the tree searches each node's leads once, and the chains search
        # none: a level's counts come from synthetic division
        stack, calls, searched = [], [], []
        in_chain = {"depth": 0, "calls": 0, "entered": 0}
        inner_all, inner_int = expansion_mod.all_roots, expansion_mod._integer_roots

        def all_roots(h):
            calls.append(h)  # kept alive, so ids are not reused
            in_chain["calls"] += in_chain["depth"] > 0
            stack.append(h)
            try:
                return inner_all(h)
            finally:
                stack.pop()

        def integer_roots(h):
            searched.append(stack[-1])
            return inner_int(h)

        def chain_step(name):
            inner = getattr(valueset_mod, name)

            def wrapper(*args):
                in_chain["depth"] += 1
                in_chain["entered"] += 1
                try:
                    return inner(*args)
                finally:
                    in_chain["depth"] -= 1

            monkeypatch.setattr(valueset_mod, name, wrapper)

        monkeypatch.setattr(expansion_mod, "all_roots", all_roots)
        monkeypatch.setattr(expansion_mod, "_integer_roots", integer_roots)
        chain_step("associated_sequence")
        chain_step("root_index_data")
        repeats = 0
        for text in NAMED_MAPS.values():
            calls.clear()
            searched.clear()
            run_all_checks(normalize_monic(*parse_map(text)))
            ids = [id(h) for h in searched]
            assert len(set(ids)) == len(ids), text
            repeats += len(calls) - len({id(h) for h in calls})
        assert repeats == 0
        # the guard saw the 8 chains of the named maps, each built and read
        assert in_chain == {"depth": 0, "calls": 0, "entered": 16}


class TestSharedWork:
    # F2 and M6 have one chain each; R2 has none but a constant Jacobian, so
    # eq4 runs
    @pytest.mark.parametrize("name", ["F2", "M6", "R2"])
    def test_run_all_checks_builds_tree_and_branches_once(self, monkeypatch, name):
        calls = {"expansion_tree": 0, "curve_branches": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(valueset_mod, "expansion_tree")
        counting(valueset_mod, "curve_branches")  # the factorization check
        counting(expansion_mod, "curve_branches")  # no chain searches roots
        texts = {**CORPUS_TEXT, **STRESS_TEXT}
        run_all_checks(normalize_monic(*parse_map(texts[name])))
        assert calls == {"expansion_tree": 1, "curve_branches": 2}

    def test_chains_run_no_kernel_expansion(self, monkeypatch):
        # each level is its tree node, window and leads, so no chain reads an
        # expansion, runs the kernel, reads the Jacobian or searches a
        # curve's roots
        inside = {"chain": 0}
        counts = {"branches": 0, "runs": 0}
        seqs = []
        reads = []  # per chain: the (curve, prefix) pairs it read
        kernel = []  # every kernel run: ((curve, prefix), expansion)
        scans = []

        def nested(module, name, key):
            inner = getattr(module, name)

            def wrapper(*args):
                inside[key] += 1
                try:
                    return inner(*args)
                finally:
                    inside[key] -= 1

            monkeypatch.setattr(module, name, wrapper)

        def counted(module, name, key, when):
            inner = getattr(module, name)

            def wrapper(*args):
                counts[key] += when()
                return inner(*args)

            monkeypatch.setattr(module, name, wrapper)

        def recorded(module, name, out):
            inner = getattr(module, name)

            def wrapper(*args):
                out.append((args, inner(*args)))
                return out[-1][1]

            monkeypatch.setattr(module, name, wrapper)

        inner_seq = valueset_mod.associated_sequence

        def recording(*args):
            reads.append(set())
            seqs.append((args, inner_seq(*args)))
            return seqs[-1][1]

        def in_chain():
            return inside["chain"] > 0

        monkeypatch.setattr(valueset_mod, "associated_sequence", recording)
        nested(valueset_mod, "associated_sequence", "chain")
        counted(expansion_mod, "curve_branches", "branches", in_chain)
        recorded(valueset_mod, "dicritical_series", scans)

        for module in (puiseux_mod, expansion_mod):
            inner_points = module.expansion_points

            def reading(f, prefix, inner_points=inner_points):
                if in_chain():
                    reads[-1].add((id(f), prefix))
                return inner_points(f, prefix)

            monkeypatch.setattr(module, "expansion_points", reading)
        counted(puiseux_mod, "prefix_expansion", "runs", in_chain)
        recorded(puiseux_mod, "prefix_expansion", kernel)

        texts = {**CORPUS_TEXT, **STRESS_TEXT}.values()
        maps = [normalize_monic(*parse_map(text)) for text in texts]
        jac_runs = []
        for f in maps:
            start = len(kernel)
            run_all_checks(f)
            ran = kernel[start:]
            jac_runs.append({prefix for (g, prefix), _ in ran if g is f.jac})
        # the sixth chain is M6's, which the branch search could not match
        assert [len(seq.levels) for _, seq in seqs] == [2, 2, 2, 3, 2, 3]
        assert [len(keys) for keys in reads] == [0] * 6
        assert counts == {"branches": 0, "runs": 0}

        # the checks then expand the Jacobian exactly at the windows whose
        # check reads its lead: tree nodes with both exponents positive
        # (lemma3) or one positive and the other horizontal (section5),
        # chain levels above the last with both exponents positive
        # (theorem1, lemma4), and for theorem2 the window and its horizontal
        # prefixes up to the first singular one
        checked = 0
        for f, (_, scan), prefixes in zip(maps, scans, jac_runs):
            if f.jac is f.p or f.jac is f.q:
                continue  # its kernel runs are P's or Q's
            want = set()
            for node in scan.tree.walk():
                lead = node.lead
                a, b = lead.p_exp, lead.q_exp
                if (
                    (a > 0 and b > 0)
                    or (a > 0 and b == 0 and lead.q_lead.degree > 0)
                    or (b > 0 and a == 0 and lead.p_lead.degree > 0)
                ):
                    want.add(node.series.fix_param(ZERO))
            for (_, _, g, _), seq in seqs:
                want.update(
                    lv.series.fix_param(ZERO)
                    for lv in seq.levels[:-1]
                    if g is f and lv.lead.p_exp > 0 and lv.lead.q_exp > 0
                )
            for s, lead in scan.found:
                if lead.p_exp == 0 and lead.q_exp < 0:
                    want.add(s.fix_param(ZERO))
                    for w, wlead in horizontal_q_prefixes(f, s):
                        want.add(w.fix_param(ZERO))
                        if wlead.jac_lead.degree > 0:
                            break
            assert prefixes == want, f
            checked += len(want)
        assert checked == 33

        # the same chains on fresh curves, with no tree first or path: each
        # level also reads P and Q for its own leads, each read runs the
        # kernel once, and no level reads the Jacobian
        chains = [args[:3] for args, _ in seqs]
        per_level = [2 * len(seq.levels) for _, seq in seqs]
        seqs.clear()
        reads.clear()
        counts.update(dict.fromkeys(counts, 0))
        for psi, phi, f in chains:
            fresh = MapPair(*[BiPoly(g.terms) for g in (f.p, f.q, f.jac)], f.shear)
            valueset_mod.associated_sequence(psi, phi, fresh)
        assert [len(keys) for keys in reads] == per_level == [4, 4, 4, 6, 4, 6]
        assert counts == {"branches": 0, "runs": sum(per_level)}
