"""The one-pass chain builder against the two-pass code it replaced.

The reference below is the earlier chain layer, kept as written except
where noted: ``associated_sequence`` expanded P and Q twice per level (the
segment scan of the upper level and the leading data of the lower one), and
``root_index_data`` compared every root with every level's window again.
Both are compared on every (ancestor, descendant) pair of expansion-tree
nodes of the corpus and stress maps, and on hand-built roots and windows,
among them the two verification failures.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Sequence

import pytest

import npvset.expansion as expansion_mod
from npvset.algebra import ONE, UniPoly, normalize_monic
from npvset.errors import ExtensionRequired, NotARefinement, VerificationFailure
from npvset.expansion import (
    LevelIndexData,
    RootIndexData,
    associated_sequence,
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

from conftest import CORPUS_TEXT, STRESS_TEXT, sc

MAPS = {**CORPUS_TEXT, **STRESS_TEXT}


# ---------------------------------------------------------------------------
# Reference: the two-pass chain layer
# ---------------------------------------------------------------------------


class RefLevel:
    """The earlier mutable level record (a slotted class, set in two passes)."""

    __slots__ = ("series", "c", "n", "m", "lead", "s2_ok", "s3_ok")

    def __init__(self, series, c, n, m, lead, s2_ok=None, s3_ok=None):
        self.series = series
        self.c = c
        self.n = n
        self.m = m
        self.lead = lead
        self.s2_ok = s2_ok
        self.s3_ok = s3_ok


class RefSequence(NamedTuple):
    levels: List[RefLevel]
    p_roots: Sequence[ConcreteBranch] = ()
    q_roots: Sequence[ConcreteBranch] = ()


def ref_associated_sequence(psi, phi, f):
    ok, c_top, _ = is_refinement(psi, phi)
    if not ok:
        raise NotARefinement("second series does not refine the first")
    p_roots, q_roots = expansion_mod._branches_for_matching(f, phi)
    if psi == phi:
        lv = ref_make_level(f, phi, None)
        return RefSequence([lv], p_roots, q_roots)

    roots = p_roots + q_roots
    departures = []
    for u in roots:
        d, known = expansion_mod._branch_departure(u, phi)
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
    for idx, lv in enumerate(levels[:-1]):
        lv.s2_ok = expansion_mod._has_nonzero_root(
            lv.lead.p_lead
        ) or expansion_mod._has_nonzero_root(lv.lead.q_lead)
        lv.s3_ok = ref_segment_is_quiet(
            f, levels[idx].series, levels[idx].c, exps[idx + 1]
        )
    return RefSequence(levels, p_roots, q_roots)


def ref_segment_is_quiet(f, upper, c, e_next):
    if c is None:
        return True
    prefix = upper.fix_param(c)
    return not any(
        e_next < slope
        for g in (f.p, f.q)
        for slope in expansion_mod._coord_events(
            g, prefix, upper.mult - upper.param_index, upper.mult
        ).edges
    )


def ref_make_level(f, w, c):
    return RefLevel(w, c, w.param_index, w.mult, leading_data(f, w))


def ref_root_index_data(seq, f):
    """As written, except that the dead ``ok = True`` before ``ok`` is set
    is left out."""
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
            LevelIndexData(s_members, t_members, s0, t0, a_lead, b_lead, pbar, qbar, ok)
        )
    return RootIndexData(out)


def ref_matching_coeffs(roots, w):
    out = []
    for u in roots:
        d, known = expansion_mod._branch_departure(u, w)
        if not known:
            raise VerificationFailure("branch truncated inside the window")
        if d is None:
            cu = u.coeff_at(w.param_exponent)
            if cu is None:
                raise VerificationFailure("branch truncated at the window slot")
            out.append(cu)
        elif d == w.param_exponent:
            out.append(u.coeff_at(d))
    return sorted(out, key=lambda s: s.sort_key())


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def chain_outcome(build, index, psi, phi, f):
    """Levels, roots and index data of one chain, or the exception raised."""
    try:
        seq = build(psi, phi, f)
        data = index(seq)
    except Exception as exc:  # compared by type and message
        return ("raised", type(exc), str(exc))
    levels = [
        (lv.series, lv.c, lv.n, lv.m, lv.lead, lv.s2_ok, lv.s3_ok)
        for lv in seq.levels
    ]
    return (levels, list(seq.p_roots), list(seq.q_roots), data)


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
    total = raised = 0
    for name, text in MAPS.items():
        f = normalize_monic(*parse_map(text))
        for psi, phi in tree_pairs(f):
            got = chain_outcome(associated_sequence, root_index_data, psi, phi, f)
            want = chain_outcome(
                ref_associated_sequence,
                lambda seq: ref_root_index_data(seq, f),
                psi,
                phi,
                f,
            )
            assert got == want, (name, psi, phi)
            total += 1
            raised += got[0] == "raised"
            assert got[0] != "raised" or got[1] is ExtensionRequired, got
    # the census pins the comparison's reach: 32 pairs need a field extension
    # to list the roots, none reaches a verification failure
    assert (total, raised) == (249, 32)


F2_PHI = series(1, [(0, sc(-1))], 2)  # -x + s*x^(-1)


@pytest.mark.parametrize(
    "phi,p_roots,message",
    [
        # agrees with phi at x^1, then known only to index 0 < slot 2
        (
            F2_PHI,
            [ConcreteBranch(1, ((0, sc(-1)),), 0)] * 2,
            "branch truncated before the matching window; increase depth",
        ),
        # phi pins 3 at x^0, every root departs at x^1 already
        (
            series(1, [(1, sc(3))], 2),
            [ConcreteBranch(1, ((0, sc(1)),), None)] * 2,
            "nonzero coefficient level without a tracking root",
        ),
        # the roots depart exactly at the pinned 3, so they track that level
        (
            series(1, [(1, sc(3))], 2),
            [ConcreteBranch(1, ((1, sc(5)),), None)] * 2,
            None,
        ),
        # a window not in lowest terms is kept as given for the final level
        (ParamSeries(2, ((0, sc(-1)),), 4), None, None),
    ],
    ids=[
        "truncated_branch",
        "untracked_coefficient",
        "departure_at_coefficient",
        "final_window_as_given",
    ],
)
def test_hand_built_chains_match_reference(monkeypatch, phi, p_roots, message):
    if p_roots is not None:
        monkeypatch.setattr(
            expansion_mod, "_branches_for_matching", lambda f, w: (p_roots, [])
        )
    f = normalize_monic(*parse_map(CORPUS_TEXT["F2"]))
    got = chain_outcome(associated_sequence, root_index_data, ROOT_WINDOW, phi, f)
    want = chain_outcome(
        ref_associated_sequence,
        lambda seq: ref_root_index_data(seq, f),
        ROOT_WINDOW,
        phi,
        f,
    )
    assert got == want
    if message is None:
        assert got[0] != "raised"
    else:
        assert got == ("raised", VerificationFailure, message)
