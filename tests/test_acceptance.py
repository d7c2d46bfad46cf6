"""Acceptance criteria, one test per criterion, one printed verdict line each.

Corpus: F1=(x+y, y), F2=(x+y, xy+y^2), F2T=(xy+y^2, x+y),
F3p=(x+y+xy+y^2, xy+y^2), F5=(x, y^2) after normalization, plus six fixed
degree-at-most-4 monic pairs with Gaussian-splitting leading forms.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

from npvset.algebra import bipoly
from npvset.cli import config_from_args, render, run
from npvset.expansion import associated_sequence, curve_branches, root_index_data
from npvset.oracle import branch_limit_sample
from npvset.puiseux import ROOT_WINDOW, leading_data, series
from npvset.valueset import (
    check_eq4,
    check_lemma2,
    check_lemma4,
    check_newton_factorization,
    dicritical_series,
    nonproper_value_set,
    run_all_checks,
    theorem1_from_leads,
    verify_theorem2,
)

from conftest import CORPUS_TEXT, corpus_map, sc, up
from test_valueset import lead_of, synthetic_chain


def _verdict(num, name, ok):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_value_set_exactness():
    expected = {
        "F2": [(up(0), up(0, -1))],
        "F3p": [(up(0, -1), up(0, -1))],
        "F1": [],
        "F5": [],
    }
    ok = True
    for name, want in expected.items():
        start = time.monotonic()
        vs = nonproper_value_set(corpus_map(name))
        elapsed = time.monotonic() - start
        got = [(c.u, c.v) for c in vs.components]
        ok = ok and got == want and elapsed < 5.0 and not vs.unresolved
    _verdict(1, "value set exactness", ok)


def test_criterion_2_theorem2_certificates():
    start = time.monotonic()
    shaped = 0
    ok = True
    f2t_witnessed = False
    for name in CORPUS_TEXT:
        f = corpus_map(name)
        for s, lead in dicritical_series(f).found:
            if lead.p_exp == 0 and lead.q_exp < 0:
                shaped += 1
                cert = verify_theorem2(f, s)
                ok = ok and cert.valid()
                if name == "F2T":
                    ok = ok and cert.phi_singular
                    ok = ok and lead.jac_lead == up(0, -1)  # j = -s
                    ok = ok and cert.witness_psi == series(1, [(0, sc(-1))], 1)
                    ok = ok and cert.witness_singular
                    f2t_witnessed = True
    elapsed = time.monotonic() - start
    ok = ok and shaped >= 1 and f2t_witnessed and elapsed < 5.0
    _verdict(2, "theorem2 certificates", ok)


def test_criterion_3_lemma2_recurrences():
    ok = True
    phi = series(1, [(0, sc(-1))], 2)
    for name in ("F2", "F3p"):
        f = corpus_map(name)
        seq = associated_sequence(ROOT_WINDOW, phi, f)
        data = root_index_data(seq)
        rep = check_lemma2(seq, data)
        ok = ok and rep.status == "pass"
        if name == "F2":
            # hand instance: a1 = a0 + #S0^0 * (n0 - n1) = 1 + 1*(0-2) = -1
            ok = ok and seq.levels[0].lead.p_exp == 1
            ok = ok and data.levels[0].s0_count == 1
            ok = ok and [lv.series.param_index for lv in seq.levels] == [0, 2]
            ok = ok and seq.levels[1].lead.p_exp == -1
    _verdict(3, "lemma2 recurrences", ok)


def test_criterion_4_global_signs():
    ok = True
    lemma3_count = 0
    section5_count = 0
    for name in CORPUS_TEXT:
        vr = run_all_checks(corpus_map(name), what="lemma3")
        rep = vr.checks[0]
        ok = ok and rep.status in ("pass", "vacuous")
        lemma3_count += rep.data["non_vacuous"]
        vr = run_all_checks(corpus_map(name), what="section5")
        rep = vr.checks[0]
        ok = ok and rep.status in ("pass", "vacuous")
        section5_count += rep.data["non_vacuous"]
    # hand instance 1: f=(x+y, y) at the root window has delta = 1 = mult*jac
    f1 = corpus_map("F1")
    lead = leading_data(f1, ROOT_WINDOW)
    from npvset.classify import delta

    dd = delta(lead, 0)
    ok = ok and dd.delta == up(1) and dd.scaled_jac == up(1)
    ok = ok and dd.exponent_lhs == dd.exponent_rhs
    # hand instance 2: f=(xy+y^2, x+y) at -x+s has mult*jac = -s = a*p*q'
    f2t = corpus_map("F2T")
    psi = series(1, [(0, sc(-1))], 1)
    lead = leading_data(f2t, psi)
    mj = lead.jac_lead.scale(sc(lead.mult))
    apq = (lead.p_lead * lead.q_lead.derivative()).scale(sc(lead.p_exp))
    ok = ok and mj == up(0, -1) and apq == up(0, -1)
    ok = ok and lemma3_count >= 3 and section5_count >= 2
    _verdict(4, f"global signs (+1, +1), {lemma3_count} delta and "
                f"{section5_count} horizontal instances", ok)


def test_criterion_5_newton_factorization():
    ok = True
    for entries in ({(0, 2): 1, (1, 0): -1}, {(0, 2): 1, (1, 1): 1}):
        f = bipoly(entries)
        rep = check_newton_factorization(f, curve_branches(f, 8))
        ok = ok and rep.status == "pass" and rep.data["exact"]
    hyper = bipoly({(0, 2): 1, (2, 0): -1, (0, 0): -1})
    branches = curve_branches(hyper, 4)
    # binomial oracle: sqrt(1 + x^-2) = 1 + 1/2 x^-2 - 1/8 x^-4 + ...
    binom, oracle = Fraction(1), {}
    for t in range(3):
        oracle[1 - 2 * t] = binom
        binom = binom * (Fraction(1, 2) - t) / (t + 1)
    for b in branches:
        sign = b.terms[0][1].re
        got = {1 - k: c.re for k, c in b.terms}
        ok = ok and got == {e: sign * v for e, v in oracle.items()}
    rep = check_newton_factorization(hyper, branches)
    ok = ok and rep.status == "pass"
    _verdict(5, "newton factorization", ok)


def test_criterion_6_remaining_checks_and_synthetics():
    ok = True
    vacuity = {"theorem1": 0, "lemma4_chains": 0, "eq4_components": 0}
    for name in CORPUS_TEXT:
        vr = run_all_checks(corpus_map(name))
        ok = ok and not vr.counterexample()
        by_name = {c.name: c for c in vr.checks}
        vacuity["theorem1"] += by_name["theorem1"].data["non_vacuous"]
        lemma4 = by_name["lemma4"]
        vacuity["lemma4_chains"] += len(lemma4.items)
        if by_name["eq4"].status not in ("skip",):
            vacuity["eq4_components"] += len(by_name["eq4"].items)
    # verifier arithmetic on fabricated data: pass and fail cases
    good = theorem1_from_leads(
        lead_of([0, 0, 1], 2, [0, 0, 0, 1], 3, [1], 0),
        lead_of([0, 0, 4], 0, [0, 0, 0, 8], 0, [1], 0),
    )
    bad = theorem1_from_leads(
        lead_of([0, 0, 1], 2, [0, 0, 1], 3, [1], 0),
        lead_of([0, 0, 4], 0, [0, 0, 0, 8], 0, [1], 0),
    )
    ok = ok and good.hypothesis_met and good.conclusion_i_ok
    ok = ok and good.conclusion_ii_ok and not good.counterexample()
    ok = ok and bad.counterexample()
    seq, data = synthetic_chain(2, 2, 2, 2)
    ok = ok and check_lemma4(seq, data).status == "pass"
    seq, data = synthetic_chain(2, 3, 3, 3)
    ok = ok and check_lemma4(seq, data).status == "fail"
    ok = ok and check_eq4([], corpus_map("F1")).status == "vacuous"
    _verdict(
        6,
        f"theorem1/lemma4/eq9/eq4 with vacuity counters {vacuity}",
        ok,
    )


def test_criterion_7_oracle_agreement():
    start = time.monotonic()
    ok = True
    sampled = 0
    for name in CORPUS_TEXT:
        f = corpus_map(name)
        vs = nonproper_value_set(f)
        for comp in vs.components:
            for c in (sc(0), sc(1), sc(2), sc(-1), sc(3)):
                target = (
                    comp.u.evaluate(c).to_complex(),
                    comp.v.evaluate(c).to_complex(),
                )
                rep = branch_limit_sample(f, comp.source, c, target)
                ok = ok and rep.converged and rep.errors[-1] <= 1e-6
                sampled += 1
    elapsed = time.monotonic() - start
    ok = ok and sampled >= 5 and elapsed < 10.0
    _verdict(7, f"oracle agreement ({sampled} samples, {elapsed:.2f}s)", ok)


def test_criterion_8_determinism():
    ok = True
    for text in CORPUS_TEXT.values():
        outs = []
        for _ in range(2):
            cfg = config_from_args(["--map", text, "verify", "--format", "json"])
            code, report = run(cfg)
            outs.append(render(report, "json").encode())
            ok = ok and code == 0
        ok = ok and outs[0] == outs[1]
        json.loads(outs[0])
    _verdict(8, "byte-identical corpus reports", ok)
