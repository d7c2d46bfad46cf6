"""The chain layer read off phi's Newton polygons against the branch search
it replaced.

The reference below is the earlier chain layer, kept as written except
where noted.  It expanded every root of P and Q down to phi's parameter
slot (``ref_branches_for_matching``), compared each root with phi
(``ref_branch_departure``), took the levels from those departures, and
read the members of each level off the roots; ``associated_sequence`` also
expanded P and Q twice per level (the segment scan of the upper level and
the leading data of the lower one).  The chain builder now reads each
level off the support points along phi and each level's on-slot counts
off its two leads, by synthetic division with no root search.  Both are
compared on every (ancestor, descendant) pair of expansion-tree nodes of
the corpus and stress maps, and on hand-built chains, among them the
verification failure.  The reference's level
records keep only the fields the chain builder records: the exponents
``n`` and ``m`` repeated the window's own, and the quiet-segment flag
``s3_ok`` held on every level, so the comparison asserts the check itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

import pytest

import npvset.expansion as expansion_mod
from npvset.algebra import ONE, ZERO, Scalar, UniPoly, normalize_monic
from npvset.classify import is_dicritical
from npvset.errors import ExtensionRequired, NotARefinement, VerificationFailure
from npvset.expansion import (
    LevelIndexData,
    SequenceLevel,
    all_roots,
    associated_sequence,
    curve_branches,
    expansion_tree,
    root_index_data,
)
from npvset.parsing import parse_map
from npvset.puiseux import (
    ROOT_WINDOW,
    ConcreteBranch,
    ParamSeries,
    is_refinement,
    leading_data,
    series,
    window_at,
)
from npvset.valueset import check_eq9, check_lemma2

from conftest import CORPUS_TEXT, STRESS_TEXT, sc

MAPS = {**CORPUS_TEXT, **STRESS_TEXT}


# ---------------------------------------------------------------------------
# Reference: the two-pass chain layer
# ---------------------------------------------------------------------------


def ref_branch_departure(
    u: ConcreteBranch, phi: ParamSeries
) -> Tuple[Optional[Fraction], bool]:
    """Largest exponent where branch and window disagree, above phi's slot.

    Returns (exponent, known).  exponent None with known=True means the
    branch agrees with the window everywhere above the parameter slot; known
    False means the branch was truncated before the comparison finished.
    Both sides are compared as indices over the lcm of their multiplicities.
    """
    m = math.lcm(u.mult, phi.mult)
    su, sp = m // u.mult, m // phi.mult
    u_at = {k * su: c for k, c in u.terms}
    phi_at = {k * sp: c for k, c in phi.steps}
    slot = phi.param_index * sp
    # indices up to ``known`` are complete on the branch
    known = slot if u.truncation_k is None else u.truncation_k * su
    for k in sorted(u_at.keys() | phi_at.keys()):
        if k >= slot:
            break
        if k > known:
            return None, False
        if u_at.get(k, ZERO) != phi_at.get(k, ZERO):
            return 1 - Fraction(k, m), True
    return None, known >= slot


def ref_branches_for_matching(f, phi):
    """Roots of both components, complete down to phi's parameter slot.

    A search to index depth knows a root of multiplicity m down to the
    exponent 1 - depth/m at least, and a root of g has multiplicity at most
    deg g.  So depth = (1 - e) * deg g, rounded up, reaches phi's parameter
    exponent e on every root.
    """
    gap = 1 - phi.param_exponent
    return (
        curve_branches(f.p, math.ceil(gap * f.deg_p)),
        curve_branches(f.q, math.ceil(gap * f.deg_q)),
    )


class RefLevel:
    """The earlier mutable level record (a slotted class, set in two passes)."""

    __slots__ = ("series", "c", "lead", "s2_ok")

    def __init__(self, series, c, lead, s2_ok=None):
        self.series = series
        self.c = c
        self.lead = lead
        self.s2_ok = s2_ok


class RefSequence(NamedTuple):
    levels: List[RefLevel]
    p_roots: Sequence[ConcreteBranch] = ()
    q_roots: Sequence[ConcreteBranch] = ()


def ref_associated_sequence(psi, phi, f):
    ok, c_top, _ = is_refinement(psi, phi)
    if not ok:
        raise NotARefinement("second series does not refine the first")
    p_roots, q_roots = ref_branches_for_matching(f, phi)
    if psi == phi:
        lv = ref_make_level(f, phi, None)
        return RefSequence([lv], p_roots, q_roots)

    roots = p_roots + q_roots
    departures = []
    for u in roots:
        d, known = ref_branch_departure(u, phi)
        if not known:
            raise VerificationFailure(
                "branch truncated before the matching window; increase depth"
            )
        departures.append((u, d))

    e_top = psi.param_exponent
    e_bot = phi.param_exponent
    candidate_exps = set()
    for e, coeff in phi.step_exponents():
        if e_bot < e < e_top:
            candidate_exps.add(e)
    for u, d in departures:
        if d is not None and e_bot < d < e_top:
            candidate_exps.add(d)

    kept: List[Fraction] = []
    for e in sorted(candidate_exps, reverse=True):
        c_here = phi.coeff_at(e)
        if c_here.is_zero():
            admissible = any(d == e for _, d in departures)
        else:
            admissible = any(d is None or d <= e for _, d in departures)
            if not admissible:
                raise VerificationFailure(
                    "nonzero coefficient level without a tracking root"
                )
        if admissible:
            kept.append(e)

    exps = [e_top] + kept + [e_bot]
    levels: List[RefLevel] = []
    for idx, e in enumerate(exps):
        last = idx == len(exps) - 1
        w = phi if last else window_at(phi, e)
        c = None if last else phi.coeff_at(e)
        levels.append(ref_make_level(f, w, c))
    for lv in levels[:-1]:
        lv.s2_ok = expansion_mod._has_nonzero_root(
            lv.lead.p_lead
        ) or expansion_mod._has_nonzero_root(lv.lead.q_lead)
    return RefSequence(levels, p_roots, q_roots)


def ref_segment_is_quiet(f, upper, c, e_next):
    """No polygon edge of P or Q below the upper window with c pinned lies
    strictly between the upper level's exponent and e_next."""
    if c is None:
        return True
    prefix = upper.fix_param(c)
    return not any(
        e_next < Fraction(*slope)
        for g in (f.p, f.q)
        for slope in expansion_mod._coord_events(
            g, prefix, upper.mult - upper.param_index, upper.mult
        )[0]
    )


def ref_make_level(f, w, c):
    return RefLevel(w, c, leading_data(f, w))


class RefLevelIndexData(NamedTuple):
    s_members: List[Scalar]
    t_members: List[Scalar]
    s0_count: int
    t0_count: int
    a_lead: Scalar
    b_lead: Scalar
    pbar: UniPoly
    qbar: UniPoly
    factor_ok: bool


def ref_root_index_data(seq, f):
    """As written, except that the dead ``ok = True`` before ``ok`` is set
    is left out, and the level records, which carry ``factor_ok``, are
    returned as a list."""
    out = []
    for lv in seq.levels:
        s_members = ref_matching_coeffs(seq.p_roots, lv.series)
        t_members = ref_matching_coeffs(seq.q_roots, lv.series)
        c = lv.c
        s0 = sum(1 for a in s_members if c is not None and a == c)
        t0 = sum(1 for b in t_members if c is not None and b == c)
        a_lead = lv.lead.p_lead.lcoeff()
        b_lead = lv.lead.q_lead.lcoeff()
        pbar = UniPoly.const(ONE)
        for a in s_members:
            if c is None or a != c:
                pbar = pbar * UniPoly.make([-a, ONE])
        qbar = UniPoly.const(ONE)
        for b in t_members:
            if c is None or b != c:
                qbar = qbar * UniPoly.make([-b, ONE])
        rebuilt_p = pbar.scale(a_lead)
        rebuilt_q = qbar.scale(b_lead)
        if c is not None:
            fac = UniPoly.make([-c, ONE])
            rebuilt_p = rebuilt_p * fac ** s0
            rebuilt_q = rebuilt_q * fac ** t0
        ok = rebuilt_p == lv.lead.p_lead and rebuilt_q == lv.lead.q_lead
        out.append(
            RefLevelIndexData(
                s_members, t_members, s0, t0, a_lead, b_lead, pbar, qbar, ok
            )
        )
    return out


def ref_matching_coeffs(roots, w):
    out = []
    for u in roots:
        d, known = ref_branch_departure(u, w)
        if not known:
            raise VerificationFailure("branch truncated inside the window")
        if d is None:
            cu = ref_coeff_at(u, w.param_exponent)
            if cu is None:
                raise VerificationFailure("branch truncated at the window slot")
            out.append(cu)
        elif d == w.param_exponent:
            out.append(ref_coeff_at(u, d))
    return sorted(out, key=lambda s: s.sort_key())


def ref_coeff_at(u: ConcreteBranch, e: Fraction) -> Optional[Scalar]:
    """Coefficient of x^e in the branch, or None when e lies below the known
    range.

    Indices up to truncation_k are complete; anything strictly below
    exponent 1 - truncation_k/mult is unknown.
    """
    k = (1 - e) * u.mult  # the index of x^e
    if u.truncation_k is not None and k > u.truncation_k:
        return None
    return dict(u.terms).get(k, ZERO)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def chain_outcome(build, index, psi, phi, f):
    """Levels and index data of one chain, or the exception raised, as
    tuples of the fields the chain builder records, with the levels and
    their index records (None when raised).

    The index data leaves out the reference's members, ``factor_ok``,
    ``a_lead`` and ``b_lead``.  The chain builder lists no members;
    ``members_are_lead_roots`` checks the reference's against the leads'
    own roots, so each lead is rebuilt from its members, and ``a_lead`` and
    ``b_lead`` are the leads' leading coefficients, compared with the leads.
    """
    try:
        seq = build(psi, phi, f)
        data = index(seq)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc)), None
    levels = [_fields(lv, SequenceLevel) for lv in seq.levels]
    fields = (levels, [_fields(d, LevelIndexData) for d in data])
    return fields, list(zip(seq.levels, data))


def members_are_lead_roots(records) -> int:
    """Check that each level's members, the tracking roots' coefficients at
    its slot, are the roots of its lead with multiplicity, wherever the lead
    splits over Q(i); return the number of leads compared."""
    compared = 0
    for lv, d in records:
        for lead, members in ((lv.lead.p_lead, d.s_members), (lv.lead.q_lead, d.t_members)):
            roots, rest = all_roots(lead)
            if rest.is_constant():
                assert members == [r for r, mult in roots for _ in range(mult)], lv.series
                compared += 1
    return compared


def _fields(record, kind) -> tuple:
    return tuple(getattr(record, name) for name in kind._fields)


def tree_pairs(f):
    """Every (ancestor, descendant) pair of tree windows, a node with itself
    included."""
    pairs = []

    def visit(node, ancestors):
        here = ancestors + [node.series]
        pairs.extend((a, node.series) for a in here)
        for ch in node.children:
            visit(ch, here)

    visit(expansion_tree(f), [])
    return pairs


def test_chain_matches_reference_on_every_tree_pair():
    census = {"equal": 0, "resolved": 0, "both_raise": 0}
    lemma2, eq9 = [], []
    quiet_levels = split_leads = 0
    for name, text in MAPS.items():
        f = normalize_monic(*parse_map(text))
        for psi, phi in tree_pairs(f):
            got, _ = chain_outcome(
                associated_sequence, lambda seq: root_index_data(seq).levels,
                psi, phi, f,
            )
            want, ref_records = chain_outcome(
                ref_associated_sequence,
                lambda seq: ref_root_index_data(seq, f),
                psi,
                phi,
                f,
            )
            if ref_records is not None:
                split_leads += members_are_lead_roots(ref_records)
            if got[0] != "raised":
                # no polygon edge lies strictly between two levels, because
                # the next level is the largest slope below the current one
                levels = got[0]
                for (w, c, *_), (w_next, *_) in zip(levels, levels[1:]):
                    assert ref_segment_is_quiet(f, w, c, w_next.param_exponent)
                    quiet_levels += 1
            if got == want:
                assert got[0] != "raised", got
                census["equal"] += 1
                continue
            # the reference needs every root of P and Q; the chain needs only
            # the roots of its levels' leads
            assert want[:2] == ("raised", ExtensionRequired), (name, psi, phi)
            if got[0] == "raised":
                assert got[1] is ExtensionRequired, (name, psi, phi, got)
                census["both_raise"] += 1
                continue
            census["resolved"] += 1
            seq = associated_sequence(psi, phi, f)
            lemma2.append(check_lemma2(seq, root_index_data(seq)).status)
            if is_dicritical(seq.levels[-1].lead):
                eq9.append(check_eq9(seq).status)
    # the census pins the comparison's reach: the reference raises on 32
    # pairs, each needing a field extension for roots that no check reads:
    # 24 for roots that no level's lead holds, 8 for a level's own lead,
    # whose on-slot counts synthetic division reads without splitting it.
    # So every chain is checked, and none reaches a verification failure.
    # The 249 chains built have 227 levels above their last
    assert census == {"equal": 217, "resolved": 32, "both_raise": 0}
    assert quiet_levels == 227
    assert sorted(lemma2) == ["pass"] * 20 + ["vacuous"] * 12
    assert sorted(eq9) == ["pass"] * 3 + ["vacuous"]
    # the reference resolves 217 chains, and each of their 836 leads splits
    # into the members it lists
    assert split_leads == 836


F2_FINAL = ParamSeries(2, ((0, sc(-1)),), 4)  # -x + s*x^(-1), not in lowest terms
PHI_3 = series(1, [(1, sc(3))], 2)  # 3 + s*x^(-1)


@pytest.mark.parametrize(
    "text,phi,outcome",
    [
        # phi pins 3 at x^0, and both roots (y = x, y = -x) leave it at x^1
        ("y-x; y+x", PHI_3, "nonzero coefficient level without a tracking root"),
        # the root y = 5 leaves phi exactly at the pinned 3, so it tracks
        # that level
        ("y-5; y+x", PHI_3, [ROOT_WINDOW, series(1, [], 1), PHI_3]),
        # a window not in lowest terms is kept as given for the final level
        (CORPUS_TEXT["F2"], F2_FINAL, [ROOT_WINDOW, F2_FINAL]),
    ],
    ids=[
        "untracked_coefficient",
        "departure_at_coefficient",
        "final_window_as_given",
    ],
)
def test_hand_built_chains_match_reference(text, phi, outcome):
    f = normalize_monic(*parse_map(text))
    got, _ = chain_outcome(
        associated_sequence, lambda seq: root_index_data(seq).levels,
        ROOT_WINDOW, phi, f,
    )
    want, ref_records = chain_outcome(
        ref_associated_sequence,
        lambda seq: ref_root_index_data(seq, f),
        ROOT_WINDOW,
        phi,
        f,
    )
    assert got == want
    if ref_records is not None:
        members_are_lead_roots(ref_records)
    if isinstance(outcome, str):
        assert got == ("raised", VerificationFailure, outcome)
    else:
        assert [level[0] for level in got[0]] == outcome
