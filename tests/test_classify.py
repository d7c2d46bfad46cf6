"""Window classification flags and the delta form."""

from __future__ import annotations

import npvset.puiseux as puiseux_mod
from npvset.classify import classify, delta, is_dicritical
from npvset.expansion import expansion_tree
from npvset.puiseux import LeadingData, leading_data, series

from conftest import CORPUS_TEXT, corpus_map, sc, up


def make_lead(p, a, q, b, j, jexp, mult=1):
    return LeadingData(up(*p), a, up(*q), b, up(*j), jexp, mult)


class TestClassify:
    def test_f2_dicritical_window(self):
        f = corpus_map("F2")
        lead = leading_data(f, series(1, [(0, sc(-1))], 2))
        flags = classify(lead)
        assert flags.horizontal_q and flags.dicritical and flags.singular
        assert not flags.horizontal_p

    def test_f2_root_window(self):
        f = corpus_map("F2")
        lead = leading_data(f, series(1, [], 0))
        flags = classify(lead)
        assert flags.singular
        assert not (flags.horizontal_p or flags.horizontal_q or flags.dicritical)

    def test_constant_lead_is_not_horizontal(self):
        lead = make_lead([1], 0, [0, 1], 1, [1], 0)
        assert not classify(lead).horizontal_p

    def test_dicritical_requires_no_positive_exponent(self):
        lead = make_lead([0, 1], 0, [0, 1], 1, [1], 0)
        flags = classify(lead)
        assert flags.horizontal_p and not flags.dicritical

    def test_is_dicritical_reads_only_p_and_q(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the Jacobian lead was substituted")

        flags = []
        for name in CORPUS_TEXT:
            f = corpus_map(name)
            for node in expansion_tree(f).walk():
                lead = leading_data(f, node.series)
                with monkeypatch.context() as mp:
                    mp.setattr(puiseux_mod, "substitute", unreachable)
                    flags.append(is_dicritical(lead))
                assert flags[-1] == classify(lead).dicritical, (name, node.series)
        assert any(flags) and not all(flags)


class TestDelta:
    def test_f1_root_window(self):
        f = corpus_map("F1")
        lead = leading_data(f, series(1, [], 0))
        dd = delta(lead, 0)
        assert dd.delta == up(1)
        assert dd.scaled_jac == up(1)
        assert dd.exponent_lhs == 2 and dd.exponent_rhs == 2

    def test_constant_leads_vanish(self):
        lead = make_lead([5], 2, [7], 3, [1], 0)
        assert delta(lead, 0).delta.is_zero()

    def test_shared_monomials_cancel(self):
        lead = make_lead([0, 1], 1, [0, 1], 1, [1], 0)
        assert delta(lead, 0).delta.is_zero()
