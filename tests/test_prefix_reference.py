"""The integer-prefix paths against the Fraction-keyed code they replaced.

Each reference below is the earlier implementation, kept as written except
where noted: the curve-branch recursion over (exponent, coeff) lists and
the Newton factorization product in a Fraction-keyed dict algebra.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import pytest

from npvset.algebra import ONE, ZERO, bipoly, normalize_monic
from npvset.errors import EngineError, ExtensionRequired
from npvset.expansion import all_roots, curve_branches
from npvset.parsing import parse_map, parse_poly
from npvset.puiseux import ConcreteBranch, prefix_expansion
from npvset.valueset import check_newton_factorization

from conftest import (
    CORPUS_TEXT, DEGREE12_TEXT, M9_TEXT, STRESS_TEXT, as_prefix, fraction_hull_edges, sc,
)

MAPS = {**CORPUS_TEXT, **STRESS_TEXT}

# A multiple root on one hull edge followed by another edge of the same node,
# at the root node and (below y = x^(1/2) + ...) at a node with a nonempty
# prefix, where the earlier steps' indices are rescaled.
REPEATED_ROOT_CURVES = {
    "triple_then_sqrt": "(y-1)^3*(y^2-x)",
    "double_then_linear": "(y-1)^2*(y-x)",
    "sqrt_then_triple_then_series": "((y-1)^2-x)^3*(y^2-x-1)",
}


def curves(maps=MAPS):
    for name, text in {**maps, **DEGREE12_TEXT}.items():
        f = normalize_monic(*parse_map(text))
        yield f"{name}.P", f.p
        yield f"{name}.Q", f.q
    for name, text in REPEATED_ROOT_CURVES.items():
        yield name, parse_poly(text)


# ---------------------------------------------------------------------------
# Curve branches
# ---------------------------------------------------------------------------


def ref_curve_branches(f, depth_k):
    out = []
    ref_expand_curve(f, [], None, depth_k, out)
    return sorted(out, key=lambda b: b.sort_key())


def ref_expand_curve(f, prefix, bound, depth_k, out):
    pts = prefix_expansion(f, as_prefix(prefix))  # the kernel returns support points
    j0 = pts[0].j
    if j0 > 0:
        exact = ref_branch_from_prefix(prefix, None)
        out.extend([exact] * j0)
    cur_mult = ref_prefix_mult(prefix)
    for edge in fraction_hull_edges(pts):
        if bound is not None and edge.slope >= bound:
            continue
        e = edge.slope
        m_next = cur_mult * (1 - e).denominator // math.gcd(
            cur_mult, (1 - e).denominator
        )
        k_next = (1 - e) * m_next
        span = edge.j_hi - edge.j_lo
        if k_next > depth_k:
            trunc = ref_branch_from_prefix(prefix, e)
            out.extend([trunc] * span)
            continue
        roots, rest = all_roots(edge.chi)
        if rest.degree >= 1:
            raise ExtensionRequired(rest, "characteristic polynomial of an edge")
        produced = 0
        for c, mult in roots:
            if c.is_zero():
                continue
            before = len(out)
            ref_expand_curve(f, prefix + [(e, c)], e, depth_k, out)
            if len(out) - before != mult:
                raise EngineError("edge multiplicity mismatch during expansion")
            produced += mult
        if produced != span:
            raise EngineError("edge span not exhausted by its roots")


def ref_prefix_mult(prefix):
    m = 1
    for e, _ in prefix:
        d = (1 - e).denominator
        m = m * d // math.gcd(m, d)
    return m


def ref_branch_from_prefix(prefix, omitted_exp):
    denoms = [(1 - e).denominator for e, _ in prefix]
    if omitted_exp is not None:
        denoms.append((1 - omitted_exp).denominator)
    m = 1
    for d in denoms:
        m = m * d // math.gcd(m, d)
    terms = tuple(sorted((int((1 - e) * m), c) for e, c in prefix if not c.is_zero()))
    if omitted_exp is None:
        g = m
        for k, _ in terms:
            g = math.gcd(g, k)
        if g > 1:
            m //= g
            terms = tuple((k // g, c) for k, c in terms)
        return ConcreteBranch(m, terms, None)
    trunc_k = int((1 - omitted_exp) * m) - 1
    return ConcreteBranch(m, terms, trunc_k)


def branches_or_extension(fn, g, depth):
    try:
        return fn(g, depth)
    except ExtensionRequired as exc:
        return ("extension_required", exc.factor)


# deep descents: M4's curves are simple below their first edges
DEEPER = {"M4.P": (64,), "M4.Q": (64,)}


@pytest.mark.parametrize("label,g", list(curves()), ids=lambda v: v if isinstance(v, str) else "")
def test_curve_branches_match_reference(label, g):
    for depth in (*range(11), 16, 32, *DEEPER.get(label, ())):
        got = branches_or_extension(curve_branches, g, depth)
        assert got == branches_or_extension(ref_curve_branches, g, depth), (label, depth)


# ---------------------------------------------------------------------------
# Newton factorization
# ---------------------------------------------------------------------------


def ref_check_newton_factorization(curve, branches):
    """The Fraction-keyed report as (status, data, items).

    One line differs from the earlier code: the truncation exponent is
    reported when it is zero (``tau is None`` replaces ``not tau``).
    """
    d = curve.total_degree
    lead = curve.coeff(0, d)
    prod = {(Fraction(0), 0): lead}
    tau: Optional[Fraction] = None
    for br in branches:
        factor = {(Fraction(0), 1): ONE}
        for e, c in br.exponents():
            factor[(e, 0)] = factor.get((e, 0), ZERO) - c
        if br.truncation_k is not None:
            t = 1 - Fraction(br.truncation_k, br.mult)
            tau = t if tau is None else max(tau, t)
        prod = ref_poly_mul_frac(prod, factor)
    items = []
    for (e, s), coeff in sorted(prod.items()):
        bound = None if tau is None else tau + (d - 1 - s)
        if bound is not None and e <= bound:
            continue
        want = ref_curve_coeff(curve, e, s)
        items.append({"monomial": f"x^{e}*y^{s}", "ok": coeff == want})
    for (i, j), coeff in sorted(curve.terms.items()):
        e = Fraction(i)
        bound = None if tau is None else tau + (d - 1 - j)
        if bound is not None and e <= bound:
            continue
        got = prod.get((e, j), ZERO)
        items.append({"monomial": f"x^{i}*y^{j}", "ok": got == coeff})
    data = {"exact": tau is None, "truncation_exponent": None if tau is None else str(tau)}
    if not items:
        status = "pass" if tau is None else "vacuous"
    else:
        status = "pass" if all(it["ok"] for it in items) else "fail"
    return status, data, items


def ref_poly_mul_frac(a, b):
    out = {}
    for (ea, sa), ca in a.items():
        for (eb, sb), cb in b.items():
            k = (ea + eb, sa + sb)
            acc = out.get(k, ZERO) + ca * cb
            if acc.is_zero():
                out.pop(k, None)
            else:
                out[k] = acc
    return out


def ref_curve_coeff(curve, e, s):
    if e.denominator != 1 or e < 0:
        return ZERO
    return curve.coeff(int(e), s)


def assert_factorization_matches(curve, branches):
    rep = check_newton_factorization(curve, branches)
    assert (rep.status, rep.data, rep.items) == ref_check_newton_factorization(
        curve, branches
    )
    return rep


# M9's cube P takes the pruned product through nine factors; its branch
# search is too slow past depth 10 for the depths of the test above
@pytest.mark.parametrize(
    "label,g", list(curves({**MAPS, "M9": M9_TEXT})), ids=lambda v: v if isinstance(v, str) else ""
)
def test_factorization_report_matches_reference(label, g):
    for depth in (0, 2, 4, 8, 10):
        brs = branches_or_extension(curve_branches, g, depth)
        if isinstance(brs, list):
            assert_factorization_matches(g, brs)


HALF = ConcreteBranch(2, ((1, sc(1)), (3, sc(-2))), None)  # x^(1/2) - 2x^(-1/2)
HAND_BUILT = [
    # truncation exponent exactly zero
    (parse_poly("y-x"), [ConcreteBranch(1, ((0, ONE),), 1)]),
    # mixed multiplicities, one branch truncated below a negative exponent
    (parse_poly("y^3-x*y+x^2"), [HALF, ConcreteBranch(3, ((2, sc(0, 1)),), 7),
                                 ConcreteBranch(1, ((0, sc(1)), (3, sc(5))), None)]),
    # two truncated branches with different truncation exponents
    (parse_poly("y^2-x^3+1"), [ConcreteBranch(2, ((0, sc(1)),), 2),
                               ConcreteBranch(4, ((0, sc(-1)), (6, sc(3))), 9)]),
    # a wrong exact branch: the product differs from the curve
    (parse_poly("y^2-x"), [HALF, HALF]),
    # no branches at all
    (bipoly({(0, 0): 3}), []),
]


@pytest.mark.parametrize("curve,branches", HAND_BUILT)
def test_factorization_on_hand_built_branches(curve, branches):
    assert_factorization_matches(curve, branches)


def test_wrong_branches_fail():
    assert assert_factorization_matches(*HAND_BUILT[3]).status == "fail"
