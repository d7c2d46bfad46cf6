"""Numeric cross-validation against exact limits."""

from __future__ import annotations

import pytest

from npvset.algebra import bipoly, normalize_monic
from npvset.errors import PreconditionFailed
from npvset.oracle import branch_limit_sample, properness_probe
from npvset.puiseux import series
from npvset.valueset import nonproper_value_set

from conftest import corpus_map, sc


class TestBranchLimitSample:
    def test_f2_closed_form_rates(self):
        # f(x, -x + c/x) = (c/x, -c + c^2/x^2): error 1/x at radius x
        f = corpus_map("F2")
        phi = series(1, [(0, sc(-1))], 2)
        rep = branch_limit_sample(f, phi, sc(1), (0j, -1 + 0j))
        assert rep.converged
        assert abs(rep.errors[0] - 1e-3) < 1e-6
        assert abs(rep.errors[1] - 1e-5) < 1e-8
        assert abs(rep.errors[2] - 1e-8) < 1e-11

    def test_degenerate_parameter(self):
        f = corpus_map("F2")
        phi = series(1, [(0, sc(-1))], 2)
        rep = branch_limit_sample(f, phi, sc(0), (0j, 0j))
        assert rep.converged and rep.errors[-1] == 0.0

    def test_ramified_window_converges_with_wide_radii(self):
        # rate x^(-1/2) needs larger radii than the default ladder
        f = normalize_monic(
            bipoly({(0, 2): 1, (1, 0): -1}),
            bipoly({(0, 3): 1, (1, 1): -1}),
        )
        vs = nonproper_value_set(f)
        assert len(vs.components) == 1
        comp = vs.components[0]
        c = sc(1)
        target = (comp.u.evaluate(c).to_complex(), comp.v.evaluate(c).to_complex())
        rep = branch_limit_sample(
            f, comp.source, c, target, radii=(1e4, 1e8, 1e14)
        )
        assert rep.converged

    def test_radii_must_increase(self):
        f = corpus_map("F2")
        phi = series(1, [(0, sc(-1))], 2)
        with pytest.raises(PreconditionFailed):
            branch_limit_sample(f, phi, sc(1), (0j, -1 + 0j), radii=(1e5, 1e3))

    def test_radii_must_be_nonempty(self):
        f = corpus_map("F2")
        phi = series(1, [(0, sc(-1))], 2)
        with pytest.raises(PreconditionFailed):
            branch_limit_sample(f, phi, sc(1), (0j, -1 + 0j), radii=())


class TestPropernessProbe:
    def test_proper_map_has_no_clusters(self):
        rep = properness_probe(corpus_map("F5"), 200, 1e6)
        assert rep.clusters == []

    def test_f2_cluster_along_line(self):
        f = corpus_map("F2")
        vs = nonproper_value_set(f)
        aligned = [(comp.source, sc(1)) for comp in vs.components]
        rep = properness_probe(f, 200, 1e6, aligned)
        assert rep.clusters
        u, v = rep.clusters[-1]
        assert abs(u) < 1e-3 and abs(v + 1) < 1e-3

    def test_automorphism_no_clusters(self):
        rep = properness_probe(corpus_map("F1"), 200, 1e6)
        assert rep.clusters == []

    def test_deterministic_given_seed(self):
        f = corpus_map("F2")
        a = properness_probe(f, 50, 1e6, seed=7)
        b = properness_probe(f, 50, 1e6, seed=7)
        assert a.bounded_fraction == b.bounded_fraction
        assert a.clusters == b.clusters

    def test_corpus_consistency(self):
        # clusters appear exactly for the maps with nonempty value sets
        for name in ("F1", "F2", "F2T", "F3p", "F5", "R1", "R3", "R6"):
            f = corpus_map(name)
            vs = nonproper_value_set(f)
            aligned = [(comp.source, sc(1)) for comp in vs.components]
            rep = properness_probe(f, 100, 1e6, aligned)
            assert bool(rep.clusters) == bool(vs.components), name
