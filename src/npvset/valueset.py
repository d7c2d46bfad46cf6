"""Non-proper value set assembly and the machine-checked invariant suite.

A dicritical window sends the map to a finite limit curve: the component
parameterization takes each coordinate's leading polynomial when its
exponent is zero and the constant zero when the exponent is negative.  The
checkers in this module assert, exactly and per instance, the structural
identities the engine relies on: the chain recurrences, the delta-form
identities with their global signs, the exponent/vanishing pattern along
chains, the degree-ratio law, the refinement leading-term law, and the
reconstruction of a curve from its branches.
"""

from __future__ import annotations

import math
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .algebra import BiPoly, MapPair, ONE, Scalar, UniPoly, ZERO, poly_gcd, rational_text
from .algebra import _from_nums
from .classify import _horizontal, delta, is_dicritical
from .errors import ExtensionRequired, NotARefinement, PreconditionFailed
from .expansion import (
    AssociatedSequence,
    Caps,
    ExpansionNode,
    RootIndexData,
    STATUS_CAPPED,
    STATUS_DICRITICAL,
    STATUS_EXTENSION,
    associated_sequence,
    curve_branches,
    expansion_tree,
    root_index_data,
    window_path,
)
from .puiseux import (
    ConcreteBranch,
    LeadingData,
    ParamSeries,
    ROOT_WINDOW,
    is_refinement,
    leading_data,
)

SIGMA = 1         # global sign of the delta identity, fixed on the corpus
SIGMA_PRIME = 1   # global sign of the horizontal-exponent identity
BRANCH_DEPTH = 8  # truncation index of the branches the factorization check uses


class CheckReport:
    """Outcome of one checker: overall status plus per-instance items."""

    __slots__ = ("name", "status", "data", "items")

    def __init__(
        self,
        name: str,
        status: str,  # pass | fail | vacuous | skip
        data: Optional[dict] = None,
        items: Optional[List[dict]] = None,
    ):
        self.name = name
        self.status = status
        self.data = {} if data is None else data
        self.items = [] if items is None else items

    @staticmethod
    def combine(name: str, items: List[dict], data: Optional[dict] = None) -> "CheckReport":
        if not items:
            return CheckReport(name, "vacuous", data or {}, [])
        status = "pass" if all(it.get("ok", False) for it in items) else "fail"
        return CheckReport(name, status, data or {}, items)


# ---------------------------------------------------------------------------
# Dicritical windows and the value set
# ---------------------------------------------------------------------------


class DicriticalScan(NamedTuple):
    found: List[Tuple[ParamSeries, LeadingData]]
    unresolved: List[dict]  # capped or unsplittable leaves
    tree: ExpansionNode


def dicritical_series(f: MapPair, caps: Caps = Caps()) -> DicriticalScan:
    """All dicritical leaves of the expansion tree, deduplicated up to the
    conjugacy x^(1/m) -> zeta*x^(1/m); unresolved leaves are reported, not
    silently dropped."""
    tree = expansion_tree(f, caps)
    found: List[Tuple[ParamSeries, LeadingData]] = []
    unresolved: List[dict] = []
    seen: set = set()
    for node in tree.walk():
        if node.status == STATUS_DICRITICAL:
            family = node.series.conjugates()
            key = min(s.sort_key() for s in family)
            if key in seen:
                continue
            seen.add(key)
            found.append((node.series, node.lead))
        elif node.status in (STATUS_CAPPED, STATUS_EXTENSION):
            unresolved.append({"status": node.status, "note": node.note})
    found.sort(key=lambda pair: pair[0].sort_key())
    return DicriticalScan(found, unresolved, tree)


class ValueSetComponent(NamedTuple):
    """One polynomially parameterized component of the non-proper value set."""

    u: UniPoly
    v: UniPoly
    source: ParamSeries
    u_is_limit_zero: bool  # first coordinate tends to 0 (negative exponent)
    v_is_limit_zero: bool


def _component_of(series_: ParamSeries, lead: LeadingData) -> ValueSetComponent:
    if lead.p_exp == 0:
        u, uz = lead.p_lead, False
    else:
        u, uz = UniPoly.const(ZERO), True
    if lead.q_exp == 0:
        v, vz = lead.q_lead, False
    else:
        v, vz = UniPoly.const(ZERO), True
    comp = ValueSetComponent(u, v, series_, uz, vz)
    if u.is_constant() and v.is_constant():
        raise PreconditionFailed("dicritical window with constant limit map")
    return comp


class ValueSet(NamedTuple):
    components: List[ValueSetComponent]
    unresolved: List[dict]  # nonempty means the list is only a lower bound


def nonproper_value_set(f: MapPair, caps: Caps = Caps()) -> ValueSet:
    """Components of the non-proper value set, one per image curve.

    The image of a component is an irreducible curve of degree at most
    max(deg u, deg v), and two distinct such curves share at most the
    product of their degrees in points (Bezout).  So a component is merged
    into a kept one exactly when that many points of its image plus one, all
    distinct, lie on the kept curve.  This holds for every parameterization,
    injective or not.
    """
    scan = dicritical_series(f, caps)
    return ValueSet(_merged_components(scan), scan.unresolved)


def _merged_components(scan: DicriticalScan) -> List[ValueSetComponent]:
    merged: List[ValueSetComponent] = []
    for s, lead in scan.found:
        comp = _component_of(s, lead)
        if not any(_same_image(comp, kept) for kept in merged):
            merged.append(comp)
    return merged


def _same_image(c1: ValueSetComponent, c2: ValueSetComponent) -> bool:
    """Do the two components parameterize one curve?  Checked on the distinct
    points (u2(t), v2(t)) for t = 0, 1, 2, ...; each point has at most
    deg c2 parameters, so the search ends."""
    need = max(c1.u.degree, c1.v.degree) * max(c2.u.degree, c2.v.degree) + 1
    seen: set = set()
    t = 0
    while len(seen) < need:
        s = Scalar.of(t)
        a, b = c2.u.evaluate(s), c2.v.evaluate(s)
        if (a, b) not in seen:
            # (a, b) is on the first curve when u1 - a and v1 - b share a root
            if poly_gcd(c1.u - UniPoly.const(a), c1.v - UniPoly.const(b)).degree < 1:
                return False
            seen.add((a, b))
        t += 1
    return True


# ---------------------------------------------------------------------------
# Refinement leading-term law (two-part certificate)
# ---------------------------------------------------------------------------


class Theorem1Certificate(NamedTuple):
    psi: Optional[ParamSeries]
    phi: Optional[ParamSeries]
    hypothesis_met: bool
    M: Optional[int] = None
    d: Optional[int] = None
    e: Optional[int] = None
    N: Optional[int] = None
    D: Optional[int] = None
    C: Optional[Scalar] = None
    conclusion_i_ok: Optional[bool] = None
    conclusion_ii_ok: Optional[bool] = None

    def counterexample(self) -> bool:
        return self.hypothesis_met and not (
            self.conclusion_i_ok and self.conclusion_ii_ok
        )


def _positive_constant_jacobian(lead: LeadingData) -> bool:
    """The hypothesis of Theorem 1 and Lemmas 3 and 4."""
    return lead.p_exp > 0 and lead.q_exp > 0 and lead.jac_lead.degree == 0


def theorem1_from_leads(
    lead_psi: LeadingData,
    lead_phi: LeadingData,
    psi: Optional[ParamSeries] = None,
    phi: Optional[ParamSeries] = None,
) -> Theorem1Certificate:
    """Arithmetic core of the coarse-to-dicritical leading-term law.

    With both coarse exponents positive, (a, b) = (M*d, M*e) in lowest terms
    (d, e); the law predicts degree pairs proportional to (d, e) at both
    ends and leading coefficients scaled by C^d and C^e for one common C.
    Since gcd(d, e) = 1 = x*d + y*e (Bezout), a consistent C equals
    C^(x*d + y*e) = ru^x * rv^y for the ratios ru, rv of the leading
    coefficients, so the one candidate is checked against both equations.
    """
    a, b = lead_psi.p_exp, lead_psi.q_exp
    hyp = _positive_constant_jacobian(lead_psi)
    if a <= 0 or b <= 0:
        return Theorem1Certificate(psi, phi, hyp)
    m_ = math.gcd(a, b)
    d, e = a // m_, b // m_
    dp, dq = lead_psi.p_lead.degree, lead_psi.q_lead.degree
    conclusion_i_ok = (
        dp > 0 and dq > 0 and dp % d == 0 and dq % e == 0 and dp // d == dq // e
    )
    big_n = dp // d if conclusion_i_ok else None
    exps_zero = lead_phi.p_exp == 0 and lead_phi.q_exp == 0
    dpk, dqk = lead_phi.p_lead.degree, lead_phi.q_lead.degree
    degs_ok = (
        dpk > 0 and dqk > 0 and dpk % d == 0 and dqk % e == 0 and dpk // d == dqk // e
    )
    big_d = big_c = None
    coeff_ok = False
    if degs_ok:
        big_d = dpk // d
        ru = lead_phi.p_lead.lcoeff() / lead_psi.p_lead.lcoeff()
        rv = lead_phi.q_lead.lcoeff() / lead_psi.q_lead.lcoeff()
        x = pow(d, -1, e)
        y = (1 - x * d) // e
        c = ru ** x * rv ** y
        coeff_ok = c ** d == ru and c ** e == rv
        big_c = c if coeff_ok else None
    return Theorem1Certificate(
        psi, phi, hyp, m_, d, e, big_n, big_d, big_c,
        conclusion_i_ok, exps_zero and degs_ok and coeff_ok,
    )


def verify_theorem1(
    f: MapPair, psi: ParamSeries, phi: ParamSeries
) -> Theorem1Certificate:
    ok, _, _ = is_refinement(psi, phi)
    if not ok:
        raise NotARefinement("coarse window does not contain the fine one")
    lead_phi = leading_data(f, phi)
    if not is_dicritical(lead_phi):
        raise PreconditionFailed("fine window must be dicritical")
    lead_psi = leading_data(f, psi)
    return theorem1_from_leads(lead_psi, lead_phi, psi, phi)


# ---------------------------------------------------------------------------
# Horizontal-witness law for line-shaped components
# ---------------------------------------------------------------------------


class Theorem2Certificate(NamedTuple):
    phi: ParamSeries
    phi_singular: bool
    witness_psi: Optional[ParamSeries]
    witness_singular: bool

    def valid(self) -> bool:
        return self.phi_singular or (
            self.witness_psi is not None and self.witness_singular
        )


def horizontal_q_prefixes(
    f: MapPair, phi: ParamSeries
) -> List[Tuple[ParamSeries, LeadingData]]:
    """Prefix windows of phi along which the second component has exponent
    zero and a nonconstant limit, ordered from coarsest down.

    Q's lead at a window of phi is horizontal only where Q's envelope
    around the window's fixed steps crosses zero, an event of the walk down
    phi (``window_path``), so the prefixes are the walk's windows above
    phi's with a horizontal Q lead.
    """
    return _horizontal_q_windows(window_path(f, ROOT_WINDOW, phi))


def _horizontal_q_windows(path: Sequence[ExpansionNode]) -> List[Tuple[ParamSeries, LeadingData]]:
    """The windows above the last node of a path whose Q lead is horizontal."""
    return [(node.series, node.lead) for node in path[:-1] if _horizontal(node.lead)[1]]


def theorem2_from_leads(
    phi: ParamSeries, lead: LeadingData, prefixes: Sequence[Tuple[ParamSeries, LeadingData]]
) -> Theorem2Certificate:
    """The witness rule of Theorem 2 on phi's leading data and its horizontal
    prefixes, coarsest first: the witness is the first singular prefix, or
    the first prefix when none is singular.  Jacobian leads are read only up
    to the first singular prefix."""
    phi_singular = lead.jac_lead.degree > 0
    first = prefixes[0][0] if prefixes else None
    singular = next((w for w, wlead in prefixes if wlead.jac_lead.degree > 0), None)
    witness = first if singular is None else singular
    return Theorem2Certificate(phi, phi_singular, witness, singular is not None)


def verify_theorem2(f: MapPair, phi: ParamSeries) -> Theorem2Certificate:
    """Certificate that a dicritical window with first exponent zero and
    second negative is singular itself or has a singular horizontal prefix
    for the second component."""
    lead = leading_data(f, phi)
    if not (lead.p_exp == 0 and lead.q_exp < 0 and is_dicritical(lead)):
        raise PreconditionFailed(
            "window must be dicritical with exponents (0, negative)"
        )
    return theorem2_from_leads(phi, lead, horizontal_q_prefixes(f, phi))


# ---------------------------------------------------------------------------
# Chain recurrences
# ---------------------------------------------------------------------------


def check_lemma2(seq: AssociatedSequence, data: RootIndexData) -> CheckReport:
    """Exact per-level recurrences along a chain.

    For each step: the leading coefficient advances by the off-slot factor
    evaluated at the pinned coefficient; the degree, which counts the
    tracking roots, equals the previous on-slot count; and the exponent
    drops by the on-slot count times the exponent gap.  All three hold for
    each map component.
    """
    items = []
    for i in range(1, len(seq.levels)):
        prev, cur = seq.levels[i - 1], seq.levels[i]
        dprev = data.levels[i - 1]
        c_prev = prev.c if prev.c is not None else ZERO
        n_prev, m_prev = prev.series.param_index, prev.series.mult
        n_cur, m_cur = cur.series.param_index, cur.series.mult
        # the exponent recurrence times m_prev * m_cur, on integers: drop is
        # the slot's exponent drop times that product
        drop = n_cur * m_prev - n_prev * m_cur
        s0_prev = dprev.s0_count
        t0_prev = dprev.t0_count
        a_prev = prev.lead.p_lead.lcoeff()
        b_prev = prev.lead.q_lead.lcoeff()
        ok_a_lead = cur.lead.p_lead.lcoeff() == a_prev * dprev.pbar.evaluate(c_prev)
        ok_b_lead = cur.lead.q_lead.lcoeff() == b_prev * dprev.qbar.evaluate(c_prev)
        ok_p_deg = cur.lead.p_lead.degree == s0_prev
        ok_q_deg = cur.lead.q_lead.degree == t0_prev
        ok_a_exp = cur.lead.p_exp * m_prev == prev.lead.p_exp * m_cur - s0_prev * drop
        ok_b_exp = cur.lead.q_exp * m_prev == prev.lead.q_exp * m_cur - t0_prev * drop
        items.append(
            {
                "level": i,
                "ok": ok_a_lead and ok_b_lead and ok_p_deg and ok_q_deg
                and ok_a_exp and ok_b_exp,
                "lead_coeff_p": ok_a_lead,
                "lead_coeff_q": ok_b_lead,
                "degree_p": ok_p_deg,
                "degree_q": ok_q_deg,
                "exponent_p": ok_a_exp,
                "exponent_q": ok_b_exp,
            }
        )
    return CheckReport.combine("lemma2", items, {"K": seq.K})


# ---------------------------------------------------------------------------
# Delta identity and horizontal identity
# ---------------------------------------------------------------------------


def check_lemma3(lead: LeadingData, param_index: int, sign: int = SIGMA) -> CheckReport:
    """Delta identity at a window with both exponents positive and constant
    Jacobian lead: on exponent balance the delta form equals sign * mult *
    jac lead; above balance it vanishes; it vanishes precisely when the two
    leading polynomials share a root, and then their reduced powers are
    proportional."""
    if not _positive_constant_jacobian(lead):
        raise PreconditionFailed("requires positive exponents and constant jac lead")
    dd = delta(lead, param_index)
    items = []
    if dd.exponent_lhs == dd.exponent_rhs:
        ok = dd.delta == dd.scaled_jac.scale(Scalar.of(sign))
        items.append({"case": "balanced", "ok": ok})
    elif dd.exponent_lhs > dd.exponent_rhs:
        items.append({"case": "above_balance", "ok": dd.delta.is_zero()})
    else:
        items.append({"case": "below_balance", "ok": True, "note": "no assertion"})
    p, q = lead.p_lead, lead.q_lead
    if p.is_constant() and q.is_constant():
        items.append({"case": "vanishing_iff", "ok": True, "note": "both constant"})
    else:
        common = poly_gcd(p, q).degree > 0
        items.append({"case": "vanishing_iff", "ok": dd.delta.is_zero() == common})
    if dd.delta.is_zero() and not (p.is_constant() and q.is_constant()):
        g = math.gcd(lead.p_exp, lead.q_exp)
        bp, aq = lead.q_exp // g, lead.p_exp // g
        lhs = p ** bp
        rhs = q ** aq
        cc = lhs.lcoeff() / rhs.lcoeff()
        items.append({"case": "proportionality", "ok": lhs == rhs.scale(cc)})
    return CheckReport.combine("lemma3", items, {"sign": sign})


def _horizontal_orientation(lead: LeadingData) -> Optional[int]:
    """1 when P's exponent is positive and Q is horizontal (exponent zero,
    nonconstant lead), -1 the other way round, None otherwise."""
    horizontal_p, horizontal_q = _horizontal(lead)
    if lead.p_exp > 0 and horizontal_q:
        return 1
    if lead.q_exp > 0 and horizontal_p:
        return -1
    return None


def check_section5_identity(
    lead: LeadingData, param_index: int, sign: int = SIGMA_PRIME
) -> CheckReport:
    """Horizontal identity: at a window where one exponent is positive and
    the other is zero with nonconstant limit, mult times the Jacobian lead
    equals sign times (positive exponent) * (that side's lead) * (derivative
    of the horizontal lead).  Orientation is detected; the swapped
    orientation flips the Jacobian's sign."""
    orientation = _horizontal_orientation(lead)
    if orientation == 1:
        a, p, q, j = lead.p_exp, lead.p_lead, lead.q_lead, lead.jac_lead
    elif orientation == -1:
        a, p, q, j = lead.q_exp, lead.q_lead, lead.p_lead, -lead.jac_lead
    else:
        raise PreconditionFailed("requires exponents (positive, zero) either way")
    pdq = p * q.derivative()
    lhs, rhs = j.scale(Scalar.of(lead.mult)), pdq.scale(Scalar.of(sign * a))
    items = [{"case": "identity", "ok": lhs == rhs}]
    qual = (j.degree > 0) == (pdq.degree > 0)
    items.append({"case": "degree_correspondence", "ok": qual})
    return CheckReport.combine("section5", items, {"sign": sign})


# ---------------------------------------------------------------------------
# Ratio law, exponent pattern, degree law, reconstruction
# ---------------------------------------------------------------------------


def check_lemma4(seq: AssociatedSequence, data: RootIndexData) -> CheckReport:
    """Ratio law along a hypothesis-satisfying chain: below the final level
    both exponents stay positive, exponent and lead-degree ratios equal d/e,
    on-slot count ratios equal d/e, and the off-slot factors satisfy
    pbar^e = qbar^d."""
    top = seq.levels[0].lead
    if not (top.p_exp > 0 and top.q_exp > 0):
        raise PreconditionFailed("chain must start with positive exponents")
    g = math.gcd(top.p_exp, top.q_exp)
    d, e = top.p_exp // g, top.q_exp // g
    items = []
    for i, lv in enumerate(seq.levels[:-1]):
        a_i, b_i = lv.lead.p_exp, lv.lead.q_exp
        ok_pos = a_i > 0 and b_i > 0
        dl = data.levels[i]
        s_i, t_i = lv.lead.p_lead.degree, lv.lead.q_lead.degree
        s0_i, t0_i = dl.s0_count, dl.t0_count
        pbar, qbar = dl.pbar, dl.qbar
        ok_ratio = a_i * e == b_i * d and s_i * e == t_i * d
        ok_slot_ratio = s0_i * e == t0_i * d
        ok_prop = pbar ** e == qbar ** d
        items.append(
            {
                "level": i,
                "ok": ok_pos and ok_ratio and ok_slot_ratio and ok_prop,
                "positive": ok_pos,
                "ratios": ok_ratio,
                "slot_ratio": ok_slot_ratio,
                "proportional": ok_prop,
            }
        )
    return CheckReport.combine("lemma4", items, {"d": d, "e": e})


def check_eq9(seq: AssociatedSequence) -> CheckReport:
    """Vanishing/positivity pattern along a chain into a dicritical window:
    at every level below the last, the vanishing coordinate's lead kills the
    pinned coefficient while its exponent is still positive, and the other
    coordinate's lead kills it whenever that exponent is positive."""
    horizontal_p, horizontal_q = _horizontal(seq.levels[-1].lead)
    if not (horizontal_p or horizontal_q):
        raise PreconditionFailed("chain must end at a dicritical window")
    direct = horizontal_p
    items = []
    for i, lv in enumerate(seq.levels[:-1]):
        c = lv.c if lv.c is not None else ZERO
        p, a = lv.lead.p_lead, lv.lead.p_exp
        q, b = lv.lead.q_lead, lv.lead.q_exp
        if not direct:
            p, a, q, b = q, b, p, a
        ok_main = p.evaluate(c).is_zero() and a > 0
        ok_other = q.evaluate(c).is_zero() if b > 0 else True
        items.append(
            {"level": i, "ok": ok_main and ok_other, "main": ok_main, "other": ok_other}
        )
    return CheckReport.combine("eq9", items, {"orientation": "pq" if direct else "qp"})


def _nonzero_constant_jacobian(f: MapPair) -> bool:
    return f.jac.is_constant() and not f.jac.is_zero()


def check_eq4(components: Sequence[ValueSetComponent], f: MapPair) -> CheckReport:
    """Degree-ratio law for constant-Jacobian maps: each component satisfies
    deg u / deg v = deg P / deg Q."""
    if not _nonzero_constant_jacobian(f):
        raise PreconditionFailed("requires a nonzero constant Jacobian")
    items = []
    for comp in components:
        du, dv = comp.u.degree, comp.v.degree
        ok = du > 0 and dv > 0 and du * f.deg_q == dv * f.deg_p
        items.append({"ok": ok, "deg_u": du, "deg_v": dv})
    return CheckReport.combine("eq4", items, {"deg_p": f.deg_p, "deg_q": f.deg_q})


def check_newton_factorization(
    curve: BiPoly, branches: Sequence[ConcreteBranch]
) -> CheckReport:
    """Reconstruct the curve as lead * product of (y - branch) and compare.

    With exact branches the product equals the curve everywhere.  With
    truncated branches the comparison is restricted to monomials whose
    x-exponent exceeds the truncation bound for their y-degree: one factor
    contributes the unknown tail, each remaining factor at most x^1.

    Both sides are compared in (t, y) with x = t^m, m the lcm of the branch
    multiplicities.  t-exponents can be negative: that is safe because the
    BiPolys here are only multiplied and read.  With r factors left, a
    term t^a*y^j of the partial product reaches only monomials with
    a' + j'*m <= a + (j + r)*m, so the terms that can reach no compared
    monomial are dropped after each factor.
    """
    d = curve.total_degree
    m = math.lcm(*(br.mult for br in branches))
    target = _from_nums({(i * m, j): xy for (i, j), xy in curve.nums.items()}, curve.den)
    ends = [m - b.truncation_k * (m // b.mult) for b in branches if b.truncation_k is not None]
    tau = max(ends) if ends else None  # truncation exponent, in t-exponent units
    prod = BiPoly.const(curve.coeff(0, d))
    for i, br in enumerate(branches):
        s = m // br.mult
        factor = {(0, 1): ONE}
        for k, c in br.terms:
            factor[(m - k * s, 0)] = -c
        prod = prod * BiPoly(factor)
        if tau is not None:
            cut = tau + (d - len(branches) + i) * m  # r = len(branches) - 1 - i
            kept = {(a, j): xy for (a, j), xy in prod.nums.items() if a + j * m > cut}
            prod = _from_nums(kept, prod.den)
    items = []
    for poly, other in ((prod, target), (target, prod)):
        for (a, j), (re, im) in sorted(poly.nums.items()):
            if tau is not None and a <= tau + (d - 1 - j) * m:
                continue
            o_re, o_im = other.nums.get((a, j), (0, 0))
            ok = re * other.den == o_re * poly.den and im * other.den == o_im * poly.den
            items.append({"monomial": f"x^{rational_text(a, m)}*y^{j}", "ok": ok})
    exponent = None if tau is None else rational_text(tau, m)
    data = {"exact": tau is None, "truncation_exponent": exponent}
    report = CheckReport.combine("factorization", items, data)
    if not items:
        report.status = "pass" if tau is None else "vacuous"
    return report


# ---------------------------------------------------------------------------
# Whole-map verification run
# ---------------------------------------------------------------------------


CHECKS = (
    "theorem1", "theorem2", "lemma2", "lemma3", "lemma4", "eq4", "eq9",
    "section5", "factorization",
)


class VerificationRun(NamedTuple):
    checks: List[CheckReport]
    unresolved: List[dict]

    def counterexample(self) -> bool:
        return any(c.status == "fail" for c in self.checks)


def run_all_checks(
    f: MapPair, caps: Caps = Caps(), what: str = "all"
) -> VerificationRun:
    """Run the requested checkers over a map's expansion tree and chains.

    ``what`` is one name of ``CHECKS``, or all.  Instance counts make vacuity
    visible: a check that never fired reports status vacuous, never silent
    success.
    """
    if what != "all" and what not in CHECKS:
        raise PreconditionFailed(
            f"unknown check {what!r}; expected all or one of {', '.join(CHECKS)}"
        )
    wanted = CHECKS if what == "all" else (what,)
    scan = dicritical_series(f, caps)
    nodes = list(scan.tree.walk())
    paths = {id(path[-1].series): path for path in _dicritical_paths(scan.tree)}
    chains: List[Tuple[ParamSeries, AssociatedSequence, RootIndexData]] = []
    for s, _lead in scan.found:
        seq = associated_sequence(ROOT_WINDOW, s, f, paths[id(s)])
        chains.append((s, seq, root_index_data(seq)))

    checks: List[CheckReport] = []
    for name in wanted:
        if name == "theorem1":
            items = []
            for s, seq, _rid in chains:
                for lv in seq.levels[:-1]:
                    if lv.lead.p_exp > 0 and lv.lead.q_exp > 0:
                        cert = theorem1_from_leads(lv.lead, seq.levels[-1].lead,
                                                   lv.series, s)
                        items.append(
                            {
                                "ok": not cert.counterexample(),
                                "hypothesis_met": cert.hypothesis_met,
                            }
                        )
            met = sum(it["hypothesis_met"] for it in items)
            checks.append(CheckReport.combine("theorem1", items, {"non_vacuous": met}))
        elif name == "theorem2":
            items = []
            for s, lead in scan.found:
                if lead.p_exp == 0 and lead.q_exp < 0:
                    # the dicritical node's tree path is the walk down s
                    cert = theorem2_from_leads(s, lead, _horizontal_q_windows(paths[id(s)]))
                    items.append(
                        {
                            "ok": cert.valid(),
                            "phi_singular": cert.phi_singular,
                            "witness_found": cert.witness_psi is not None
                            and cert.witness_singular,
                        }
                    )
            checks.append(CheckReport.combine("theorem2", items))
        elif name == "lemma2":
            reports = [check_lemma2(seq, rid) for _s, seq, rid in chains]
            checks.append(_merge_reports("lemma2", reports))
        elif name == "lemma3":
            checks.append(_window_check(
                "lemma3", nodes, _positive_constant_jacobian, check_lemma3, SIGMA
            ))
        elif name == "lemma4":
            reports = [
                check_lemma4(seq, rid) for _s, seq, rid in chains
                if _positive_constant_jacobian(seq.levels[0].lead)
            ]
            merged = _merge_reports("lemma4", reports)
            merged.data["hypothesis_vacuous_chains"] = len(chains) - len(reports)
            checks.append(merged)
        elif name == "eq4":
            if _nonzero_constant_jacobian(f):
                checks.append(check_eq4(_merged_components(scan), f))
            else:
                checks.append(
                    CheckReport("eq4", "skip", {"reason": "jacobian not constant"})
                )
        elif name == "eq9":
            reports = [check_eq9(seq) for _s, seq, _rid in chains]
            checks.append(_merge_reports("eq9", reports))
        elif name == "section5":
            checks.append(_window_check(
                "section5", nodes, _horizontal_orientation, check_section5_identity, SIGMA_PRIME
            ))
        elif name == "factorization":
            items = []
            for label, g in (("first", f.p), ("second", f.q)):
                try:
                    brs = curve_branches(g, BRANCH_DEPTH)
                except ExtensionRequired as exc:
                    items.append({"component": label, "ok": True,
                                  "skipped": str(exc)})
                    continue
                rep = check_newton_factorization(g, brs)
                items.append({"component": label, "ok": rep.status != "fail"})
            checks.append(CheckReport.combine("factorization", items))
    return VerificationRun(checks, scan.unresolved)


def _dicritical_paths(
    node: ExpansionNode, above: Tuple[ExpansionNode, ...] = ()
) -> Iterable[Tuple[ExpansionNode, ...]]:
    """The tree path from the root down to each dicritical node, root first."""
    path = above + (node,)
    if node.status == STATUS_DICRITICAL:
        yield path
    for ch in node.children:
        yield from _dicritical_paths(ch, path)


def _window_check(name, nodes, hypothesis, checker, sign) -> CheckReport:
    """One item per tree window whose lead meets the hypothesis (a truthy
    result), passing when the checker passes there."""
    items = [
        {"ok": checker(node.lead, node.series.param_index, sign).status == "pass"}
        for node in nodes if hypothesis(node.lead)
    ]
    return CheckReport.combine(name, items, {"sign": sign, "non_vacuous": len(items)})


def _merge_reports(name: str, reports: List[CheckReport]) -> CheckReport:
    items = []
    for idx, rep in enumerate(reports):
        for it in rep.items:
            entry = dict(it)
            entry["chain"] = idx
            items.append(entry)
    return CheckReport.combine(name, items, {"chains": len(reports)})
