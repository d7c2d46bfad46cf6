"""Curve branches, root finding over Q(i), trees, and chains."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npvset.expansion as expansion_mod
import npvset.puiseux as puiseux_mod
from npvset.algebra import ONE, BiPoly, Scalar, UniPoly, bipoly, normalize_monic
from npvset.cli import config_from_args, render, run
from npvset.errors import ExtensionRequired, PreconditionFailed
from npvset.expansion import (
    AssociatedSequence,
    Caps,
    SequenceLevel,
    all_roots,
    associated_sequence,
    curve_branches,
    expansion_tree,
    root_index_data,
    roots_in_field,
)
from npvset.parsing import parse_map
from npvset.puiseux import (
    LeadingData,
    ParamSeries,
    Prefix,
    ROOT_WINDOW,
    series,
    substitute,
)

from conftest import (
    CORPUS_TEXT,
    DEGREE12_TEXT,
    M9_TEXT,
    UNSPLIT_LEAD_TEXT,
    corpus_map,
    sc,
    up,
)

STRESS_TEXT = {
    "M4": "x+y^3+x*y^2; x*y+y^4",
    "M6": "(x*y-1)^2*y+x; x*y^2-y",
    "M8": "x^3*y^5+x*y+y; x^2*y^3+x",
}


class TestRootsInField:
    def test_rational_roots(self):
        roots = roots_in_field(up(-2, 1) * up(3, 1) * up(3, 1))
        assert roots == [(sc(-3), 2), (sc(2), 1)]

    def test_gaussian_roots(self):
        # (s - i)(s + 2i) = s^2 + i s + 2
        poly = up(0, 0, 1) + UniPoly.make([sc(2), sc(0, 1)])
        roots = roots_in_field(poly)
        assert (sc(0, 1), 1) in roots and (sc(0, -2), 1) in roots

    def test_quadratic_formula_path(self):
        # s^2 - 2i has roots 1+i and -1-i inside Q(i)
        poly = UniPoly.make([sc(0, -2), sc(0), sc(1)])
        roots = roots_in_field(poly)
        assert (sc(1, 1), 1) in roots and (sc(-1, -1), 1) in roots

    def test_extension_required(self):
        with pytest.raises(ExtensionRequired):
            roots_in_field(up(-2, 0, 1))  # s^2 - 2 has no root in Q(i)

    def test_leftover_factor_carried(self):
        roots, rest = all_roots(up(-2, 0, 1) * up(-1, 1))
        assert roots == [(sc(1), 1)]
        assert rest.degree == 2

    def test_fractional_coefficients(self):
        poly = UniPoly.make([sc(Fraction(-1, 2)), sc(1)])
        assert roots_in_field(poly) == [(sc(Fraction(1, 2)), 1)]

    def test_search_runs_on_gaussian_integers(self, monkeypatch):
        # s^2 (s+1)^3 (2s-1-i)^2 (s^2-s+1): candidates, checks, divisions
        # and the quadratic rest all stay on ints; the found roots and the
        # remainder's coefficients are the only Scalars built
        h = (
            up(0, 0, 1) * up(1, 1) ** 3
            * UniPoly.make([sc(-1, -1), sc(2)]) ** 2 * up(1, -1, 1)
        )

        def forbidden(*args):
            raise AssertionError("Scalar or UniPoly arithmetic in the root search")

        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "inverse"):
            monkeypatch.setattr(Scalar, name, forbidden)
        for name in ("divmod", "evaluate"):
            monkeypatch.setattr(UniPoly, name, forbidden)
        built = []
        inner = expansion_mod._reduced

        def reduced(a, b, d):
            built.append(inner(a, b, d))
            return built[-1]

        monkeypatch.setattr(expansion_mod, "_reduced", reduced)
        roots, rest = all_roots(h)
        monkeypatch.undo()
        half = sc(Fraction(1, 2), Fraction(1, 2))
        assert roots == [(sc(-1), 3), (sc(0), 2), (half, 2)]
        assert rest == up(4, -4, 4)
        # apart from the stripped zero, every Scalar returned was built once
        returned = [r for r, _ in roots if not r.is_zero()] + list(rest.coeffs)
        assert sorted(map(id, returned)) == sorted(map(id, built))


gaussian_roots = st.builds(
    sc, st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]), st.sampled_from([0, 1, -1])
)
# irreducible over Q(i): s^2 + s + 1, s^2 - s + 1, s^2 - 2, s^2 + 2
irreducible_quadratics = st.sampled_from(
    [up(1, 1, 1), up(1, -1, 1), up(-2, 0, 1), up(2, 0, 1)]
)


@st.composite
def leads(draw, shared) -> UniPoly:
    """A nonzero constant times linear factors, some drawn from ``shared``,
    and irreducible quadratics."""
    h = UniPoly.const(draw(st.sampled_from([sc(1), sc(-2), sc(0, 3), sc(Fraction(1, 2))])))
    roots = st.one_of(st.sampled_from(shared), gaussian_roots)
    for r in draw(st.lists(roots, max_size=3)):
        h = h * UniPoly.make([-r, ONE])
    for q in draw(st.lists(irreducible_quadratics, max_size=2)):
        h = h * q
    return h


class TestRootsPerLead:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(gaussian_roots, min_size=1, max_size=2), st.data())
    def test_product_roots_are_the_union(self, shared, data):
        # the tree searches each lead's roots: their union, with the
        # multiplicities added, is the product's, and the product's unsplit
        # remainder is the product of the two remainders
        p, q = data.draw(leads(shared)), data.draw(leads(shared))
        (p_roots, p_rest), (q_roots, q_rest) = all_roots(p), all_roots(q)
        roots, rest = all_roots(p * q)
        counts = dict(p_roots)
        for r, m in q_roots:
            counts[r] = counts.get(r, 0) + m
        assert dict(roots) == counts
        assert rest == p_rest * q_rest

    def test_tree_walk_builds_no_fraction_and_no_lead_product(self, monkeypatch):
        # each node's prefix is built once, event exponents are integer
        # pairs, and the roots are searched per lead
        maps = [corpus_map(name) for name in CORPUS_TEXT]
        counts = {"Fraction": 0, "UniPoly.__mul__": 0, "fix_param": 0}

        def counted(key, inner):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return inner(*args, **kwargs)

            return wrapper

        new, mul, fix = Fraction.__new__, UniPoly.__mul__, ParamSeries.fix_param
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("Fraction", new)))
        monkeypatch.setattr(UniPoly, "__mul__", counted("UniPoly.__mul__", mul))
        monkeypatch.setattr(ParamSeries, "fix_param", counted("fix_param", fix))
        nodes = sum(len(list(expansion_tree(f, Caps()).walk())) for f in maps)
        Fraction(1, 2)  # the counts only mean something if they see calls
        up(1, 1) * up(1, 1)
        ROOT_WINDOW.fix_param(sc(0))
        monkeypatch.undo()
        assert nodes == 77
        # R1's two nodes under the direction i are derived from those under
        # -i and build no prefix; each computed node builds one
        computed = nodes - 2
        assert counts == {"Fraction": 1, "UniPoly.__mul__": 1, "fix_param": computed + 1}


class TestCurveBranches:
    def test_square_root_curve(self):
        branches = curve_branches(bipoly({(0, 2): 1, (1, 0): -1}), 8)
        assert len(branches) == 2
        coeffs = sorted(str(b.terms[0][1]) for b in branches)
        assert coeffs == ["-1", "1"]
        for b in branches:
            assert b.mult == 2 and b.terms[0][0] == 1 and b.truncation_k is None

    def test_factorable_curve(self):
        branches = curve_branches(bipoly({(1, 1): 1, (0, 2): 1}), 8)
        keys = sorted((len(b.terms), b.mult) for b in branches)
        assert keys == [(0, 1), (1, 1)]  # y = 0 and y = -x

    def test_single_root(self):
        branches = curve_branches(bipoly({(0, 1): 1}), 8)
        assert len(branches) == 1 and branches[0].terms == ()

    def test_double_root(self):
        # (y - x)^2: one branch listed twice
        f = bipoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
        branches = curve_branches(f, 8)
        assert len(branches) == 2 and branches[0] == branches[1]

    def test_binomial_series_oracle(self):
        # y^2 - x^2 - 1: branches are +-x*sqrt(1+x^-2); the square-root
        # series is the binomial expansion, computed here independently
        f = bipoly({(0, 2): 1, (2, 0): -1, (0, 0): -1})
        branches = curve_branches(f, 4)
        assert len(branches) == 2
        want = {}
        coeff = Fraction(1)
        # sum_t C(1/2, t) x^(1-2t): C(1/2,0)=1, C(1/2,1)=1/2, C(1/2,2)=-1/8
        binom = Fraction(1)
        for t in range(3):
            want[1 - 2 * t] = binom
            binom = binom * (Fraction(1, 2) - t) / (t + 1)
        for b in branches:
            sign = b.terms[0][1].re
            assert abs(sign) == 1
            got = {1 - k: c.re for k, c in b.terms}
            assert got == {e: sign * v for e, v in want.items() if 1 - e <= 4}
            assert b.truncation_k is not None and b.truncation_k >= 4

    def test_monic_required(self):
        with pytest.raises(PreconditionFailed):
            curve_branches(bipoly({(1, 0): 1}), 4)

    def test_extension_surface(self):
        # y^2 - 2x^2: leading form needs sqrt(2)
        with pytest.raises(ExtensionRequired):
            curve_branches(bipoly({(0, 2): 1, (2, 0): -2}), 4)

    def test_count_matches_degree(self):
        for name in ("F2", "F3p", "R3", "R6"):
            f = corpus_map(name)
            for g in (f.p, f.q):
                assert len(curve_branches(g, 10)) == g.total_degree


def fresh_curves(*names):
    """P and Q of each named stress or degree-12 map, parsed anew."""
    texts = {**STRESS_TEXT, **DEGREE12_TEXT}
    for name in names:
        f = normalize_monic(*parse_map(texts[name]))
        yield f"{name}.P", f.p
        yield f"{name}.Q", f.q


def branches_until_extension(g, depth):
    try:
        return curve_branches(g, depth)
    except ExtensionRequired:
        return None  # the tails before the unsplit edge have run


def tail_work(monkeypatch, g, depth):
    """Calls made inside simple tails during curve_branches(g, depth).

    Returns the counts of ``hull_edges``, ``all_roots`` and ``shift`` calls
    made inside a tail, and per tail its mult, its entry terms (ending in
    the simple root's term) and the branches it appended.
    """
    inside = [0]
    counts = {"hull_edges": 0, "all_roots": 0, "shift": 0}
    tails = []
    for name in counts:
        inner = getattr(expansion_mod, name)

        def counted(*args, inner=inner, name=name):
            counts[name] += inside[0] > 0
            return inner(*args)

        monkeypatch.setattr(expansion_mod, name, counted)
    inner_tail = expansion_mod._simple_tail

    def tail(rows, mult, terms, depth_k, out):
        start = len(out)
        inside[0] += 1
        try:
            inner_tail(rows, mult, terms, depth_k, out)
        finally:
            inside[0] -= 1
        tails.append((mult, terms, out[start:]))

    monkeypatch.setattr(expansion_mod, "_simple_tail", tail)
    branches_until_extension(g, depth)
    monkeypatch.undo()
    return counts, tails


# curves whose branch search meets a simple root before any unsplit edge
TAILED = {"M4.P", "D12.P", "T12.P", "S12.Q", "C12.Q", "Z12.Q"}


class TestSimpleTails:
    @pytest.mark.parametrize(
        "label,g,depth",
        [(label, g, depth) for depth in (16, 64)
         for label, g in fresh_curves("M4", *DEGREE12_TEXT) if label in TAILED],
        ids=lambda v: v if isinstance(v, (str, int)) else "",
    )
    def test_one_shift_per_tail_term_and_no_polygon(self, monkeypatch, label, g, depth):
        counts, tails = tail_work(monkeypatch, g, depth)
        assert tails, label
        # each tail yields its one branch, which extends the entry terms
        for mult, terms, got in tails:
            [branch] = got
            assert branch.mult == mult and branch.terms[: len(terms)] == terms
        terms = sum(len(b.terms) - len(entry) + 1 for _, entry, [b] in tails)
        assert counts == {"hull_edges": 0, "all_roots": 0, "shift": terms}

    def test_work_is_linear_in_depth(self, monkeypatch):
        # on a fresh M4.P, doubling the depth adds exactly one shift per
        # term the computed branches gain; a branch derived from its
        # conjugate gains its terms with no shift
        shifts, terms = {}, {}
        for depth in (64, 128):
            [(_, g), _] = fresh_curves("M4")
            calls, computed = [0], []
            inner_shift, inner_tail = expansion_mod.shift, expansion_mod._simple_tail

            def counted(*args):
                calls[0] += 1
                return inner_shift(*args)

            def tail(rows, mult, entry, depth_k, out):
                start = len(out)
                inner_tail(rows, mult, entry, depth_k, out)
                computed.extend(out[start:])

            monkeypatch.setattr(expansion_mod, "shift", counted)
            monkeypatch.setattr(puiseux_mod, "shift", counted)
            monkeypatch.setattr(expansion_mod, "_simple_tail", tail)
            curve_branches(g, depth)
            monkeypatch.undo()
            shifts[depth] = calls[0]
            terms[depth] = sum(len(b.terms) for b in computed)
        assert terms[128] > terms[64]
        assert shifts[128] - shifts[64] == terms[128] - terms[64]

    def test_conjugate_pair_runs_one_tail(self, monkeypatch):
        # M4.P is real: two of its three branches are a conjugate pair, and
        # the second is derived from the first with no tail of its own
        [(_, g), _] = fresh_curves("M4")
        _, tails = tail_work(monkeypatch, g, 64)
        [(_, g), _] = fresh_curves("M4")
        branches = curve_branches(g, 64)
        assert len(tails) == 2 and len(branches) == 3
        computed = [b for _, _, [b] in tails]
        [pair] = [b for b in computed if any(c.b for _, c in b.terms)]
        mirrored = pair._replace(terms=tuple((k, sc(c.re, -c.im)) for k, c in pair.terms))
        assert sorted([*computed, mirrored], key=lambda b: b.sort_key()) == branches

    def test_tail_rows_stay_local(self, monkeypatch):
        # the tail tables neither the rows nor the support points of its
        # prefixes: no other search reads them
        [(_, g), _] = fresh_curves("D12")
        _, tails = tail_work(monkeypatch, g, 64)
        prefixes = {
            Prefix(mult, branch.terms[:t])
            for mult, terms, [branch] in tails
            for t in range(len(terms), len(branch.terms) + 1)
        }
        assert len(prefixes) > 50
        assert prefixes.isdisjoint(g.table)
        # the guard only means something if it sees the table filled
        rows, pts = g.table[Prefix(1, ())]
        assert rows.rows and pts

    def test_branch_steps_build_no_fraction(self, monkeypatch):
        # each edge slope is an integer pair; the steps m_next and k_next
        # and the bound below a multiple root are read from it
        built, edges = [], [0]
        inner_new, inner_edges = Fraction.__new__, expansion_mod.hull_edges

        def counting(cls, *args, **kwargs):
            built.append(args)
            return inner_new(cls, *args, **kwargs)

        def hull_edges(*args):
            out = inner_edges(*args)
            edges[0] += len(out)
            return out

        curves = [*fresh_curves("M4", "M6", "M8", *DEGREE12_TEXT)]
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        monkeypatch.setattr(expansion_mod, "hull_edges", hull_edges)
        for _, g in curves:
            branches_until_extension(g, 16)
        Fraction(1, 2)  # the count only means something if it sees one
        monkeypatch.undo()
        assert edges[0] > len(curves)
        assert built == [(1, 2)]


def branches_or_factor(g, depth):
    """curve_branches(g, depth), or the unsplit factor it raised."""
    try:
        return curve_branches(g, depth)
    except ExtensionRequired as exc:
        return exc.factor


def random_real_curve(rng) -> BiPoly:
    """A real curve monic in y: a product of factors y + a*x and
    (y - (u + v*i)*x)(y - (u - v*i)*x), whose leading forms split over
    Q(i) into conjugate pairs, plus small terms below the top degree."""
    f = bipoly({(0, 0): 1})
    for _ in range(rng.randint(1, 3)):
        a, u, v = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 2)
        top = {(0, 2): 1, (1, 1): -2 * u, (2, 0): u * u + v * v}
        f = f * bipoly(top if rng.random() < 0.7 else {(0, 1): 1, (1, 0): a})
    n = f.total_degree
    below = [(i, j) for i in range(n) for j in range(n - i)]
    low = {rng.choice(below): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 4))}
    return f + bipoly(low)


class TestConjugateBranches:
    """For real f along real terms, the branches under a nonreal root c are
    the conjugates of those under conj(c), which sorts first."""

    def searches(self, monkeypatch, curves, depth) -> tuple:
        """Each curve's branches or unsplit factor with the derivation on
        and off, and the number of coefficients conjugated."""
        conjugated = [0]
        inner_conj, inner_expand = expansion_mod._conj, expansion_mod._expand_curve

        def counted(c):
            conjugated[0] += 1
            return inner_conj(c)

        monkeypatch.setattr(expansion_mod, "_conj", counted)
        derived = [branches_or_factor(g, depth) for g in curves]
        monkeypatch.setattr(
            expansion_mod, "_expand_curve", lambda *args: inner_expand(*args[:-1], False)
        )
        searched = [branches_or_factor(g, depth) for g in curves]
        monkeypatch.undo()
        return derived, searched, conjugated[0]

    @pytest.mark.parametrize("depth", [8, 64])
    def test_named_maps(self, monkeypatch, depth):
        texts = {**CORPUS_TEXT, **STRESS_TEXT, "M9": M9_TEXT, **DEGREE12_TEXT}
        curves = []
        for name, text in texts.items():
            f = normalize_monic(*parse_map(text))
            # M9.P, a cube, runs for minutes at depth 64 either way
            curves += [f.q] if depth > 8 and name == "M9" else [f.p, f.q]
        derived, searched, conjugated = self.searches(monkeypatch, curves, depth)
        assert len(curves) == 40 - (depth > 8)
        assert derived == searched
        assert conjugated > 0

    # at depth 64 the deep tails of these curves take about a minute a pass
    @pytest.mark.parametrize("depth", [8, 16])
    def test_random_real_curves(self, monkeypatch, depth):
        rng = random.Random(25)
        curves = [random_real_curve(rng) for _ in range(200)]
        derived, searched, conjugated = self.searches(monkeypatch, curves, depth)
        assert derived == searched
        # the comparison only means something if both outcomes occur and
        # branches are derived
        kinds = {isinstance(out, list) for out in derived}
        assert kinds == {True, False} and conjugated > 0


class TestExpansionTree:
    def test_f2_shape(self):
        f = corpus_map("F2")
        tree = expansion_tree(f, Caps())
        assert tree.series == ROOT_WINDOW
        dic = [n for n in tree.walk() if n.status == "dicritical"]
        assert len(dic) == 1
        node = dic[0]
        assert node.series == series(1, [(0, sc(-1))], 2)
        assert node.lead.p_exp == -1 and node.lead.q_exp == 0

    def test_proper_maps_have_no_dicritical(self):
        for name in ("F1", "F5", "R1", "R2", "R4", "R5"):
            tree = expansion_tree(corpus_map(name), Caps())
            assert all(n.status != "dicritical" for n in tree.walk()), name

    def test_determinism(self):
        f = corpus_map("F3p")
        t1 = expansion_tree(f, Caps())
        t2 = expansion_tree(f, Caps())

        def shape(n):
            return (
                n.series,
                n.status,
                n.chosen_c,
                tuple(shape(c) for c in n.children),
            )

        assert shape(t1) == shape(t2)

    def test_depth_cap_is_visible(self):
        f = corpus_map("F2")
        tree = expansion_tree(f, Caps(max_depth=1))
        assert any(n.status == "depth_capped" for n in tree.walk())

    def test_ramified_tree(self):
        # (y^2 - x, y^3 - x*y) escapes along the two square-root branches
        f = normalize_monic(
            bipoly({(0, 2): 1, (1, 0): -1}),
            bipoly({(0, 3): 1, (1, 1): -1}),
        )
        tree = expansion_tree(f, Caps())
        dic = [n for n in tree.walk() if n.status == "dicritical"]
        assert len(dic) == 2  # conjugate pair before deduplication
        mults = {n.series.mult for n in dic}
        assert mults == {2}

    @pytest.mark.parametrize(
        "text", [*CORPUS_TEXT.values(), *STRESS_TEXT.values(), M9_TEXT, DEGREE12_TEXT["D12"]]
    )
    def test_node_leads_match_leading_data(self, text):
        # children read their P and Q leads off the expansions that chose
        # their exponent, and the Jacobian lead on first use; both must
        # agree with an eager substitution on fresh copies of the curves
        f = normalize_monic(*parse_map(text))
        fresh = [BiPoly(g.terms) for g in (f.p, f.q, f.jac)]
        for node in expansion_tree(f, Caps()).walk():
            phi = node.series
            pairs = [x for g in fresh for x in substitute(g, phi)]
            assert node.lead == LeadingData(*pairs, phi.mult), phi

    def test_frozen_components_are_not_expanded(self):
        # a component frozen at a positive exponent keeps its parent's lead
        # in that direction, so its curve tables no expansion there
        sizes = {}
        for name, text in [("M9", M9_TEXT), ("R2", CORPUS_TEXT["R2"]), ("M4", STRESS_TEXT["M4"])]:
            f = normalize_monic(*parse_map(text))
            expansion_tree(f, Caps())
            sizes[name] = (len(f.p.table), len(f.q.table))
        assert sizes == {"M9": (5, 5), "R2": (2, 8), "M4": (3, 1)}

    def test_gaussian_coefficient_tree(self):
        f = corpus_map("R6")
        tree = expansion_tree(f, Caps())
        dic = [n for n in tree.walk() if n.status == "dicritical"]
        assert len(dic) == 1
        assert dic[0].series == series(1, [(0, sc(0, 1))], 2)  # i*x + s/x


# real maps: a derived subtree that ends in a lead that does not split, one
# where conjugation reverses the order of two children (0 and 3/8*i), and one
# where the window 1-i + s/x, which is expanded, has a child at 1/2+1/2*i
UNSPLIT_DERIVED = "(x*y^2+x)^2+y; x*y^3+y"
REORDERED_DERIVED = "2*x*y^3+3*x^2*y^2-2*y; -x*y^4+2*x^3*y^4-2*x^2-2"
NONREAL_UNDER_NONREAL = "x*y+y^2-1; x*y^2-2*x*y+2*x-y"


class TestConjugateSubtrees:
    REAL = {
        **{name: text for name, text in CORPUS_TEXT.items() if name not in ("R4", "R6")},
        **STRESS_TEXT,
        "M9": M9_TEXT,
        **DEGREE12_TEXT,
        "unsplit": UNSPLIT_DERIVED,
        "reordered": REORDERED_DERIVED,
        "nonreal_under_nonreal": NONREAL_UNDER_NONREAL,
    }
    COMMANDS = (
        ["tree"],
        ["tree", "--max-depth", "2"],
        ["tree", "--max-mult", "2"],
        ["valueset"],
        ["verify"],
    )

    def reports(self) -> dict:
        out = {}
        for name, text in self.REAL.items():
            for command in self.COMMANDS:
                config = config_from_args([f"--map={text}", *command, "--format", "json"])
                code, report = run(config)
                out[(name, *command)] = (code, render(report, "json"))
        return out

    def test_only_maps_with_nonreal_coefficients_expand_every_window(self):
        nonreal = [name for name in CORPUS_TEXT if not expansion_mod._real_map(corpus_map(name))]
        assert nonreal == ["R4", "R6"]
        assert all(
            expansion_mod._real_map(normalize_monic(*parse_map(text)))
            for text in self.REAL.values()
        )

    def test_derived_subtrees_match_expanded_ones(self, monkeypatch):
        statuses = []
        inner = expansion_mod._conjugate_subtree

        def derive(f, node):
            statuses.append(node.status)
            return inner(f, node)

        monkeypatch.setattr(expansion_mod, "_conjugate_subtree", derive)
        derived = self.reports()
        count = len(statuses)
        monkeypatch.setattr(expansion_mod, "_real_map", lambda f: False)
        expanded = self.reports()
        assert len(statuses) == count  # nothing is derived for a nonreal map
        assert derived == expanded
        # the derived nodes reach every status a node can end in
        assert set(statuses) == {
            "open", "dead", "dicritical", "depth_capped", "extension_required",
        }

    def test_m9_derives_the_subtrees_under_i(self, monkeypatch):
        # the windows i + s/x and i*x^(-1/2) + s/x and their children
        # mirror those under -i; every other child reads its event exponent
        f = normalize_monic(*parse_map(M9_TEXT))
        calls = {"_conjugate_subtree": 0, "next_event_exponent": 0}
        for name in calls:
            inner = getattr(expansion_mod, name)

            def counted(*args, name=name, inner=inner):
                calls[name] += 1
                return inner(*args)

            monkeypatch.setattr(expansion_mod, name, counted)
        tree = expansion_tree(f, Caps())
        mirrored = [n for n in tree.walk() if any(c.im > 0 for _, c in n.series.steps)]
        assert len(list(tree.walk())) == 24 and len(mirrored) == 5
        assert calls == {"_conjugate_subtree": 5, "next_event_exponent": 24 - 1 - 5}


class TestAssociatedSequence:
    def test_f2_chain_skips_inert_level(self):
        f = corpus_map("F2")
        phi = series(1, [(0, sc(-1))], 2)
        seq = associated_sequence(ROOT_WINDOW, phi, f)
        assert seq.K == 1
        assert seq.levels[0].c == sc(-1)
        w0, w1 = seq.levels[0].series, seq.levels[1].series
        assert (w0.param_index, w0.mult) == (0, 1)
        assert (w1.param_index, w1.mult) == (2, 1)
        assert [lv.s2_ok for lv in seq.levels] == [True, None]

    def test_identity_chain(self):
        f = corpus_map("F2")
        phi = series(1, [(0, sc(-1))], 2)
        seq = associated_sequence(phi, phi, f)
        assert seq.K == 0

    @pytest.mark.parametrize("name", sorted(STRESS_TEXT))
    def test_trivial_chain_at_the_root(self, name):
        # phi's slot is the top exponent 1: the one level's leads are the top
        # forms, which split into every root of P and Q once; the final level
        # pins nothing, so no root is on its slot
        f = normalize_monic(*parse_map(STRESS_TEXT[name]))
        seq = associated_sequence(ROOT_WINDOW, ROOT_WINDOW, f)
        assert seq.K == 0 and seq.levels[0].series == ROOT_WINDOW
        lead = seq.levels[0].lead
        for g, deg in ((lead.p_lead, f.deg_p), (lead.q_lead, f.deg_q)):
            roots, rest = all_roots(g)
            assert g.degree == sum(m for _, m in roots) == deg and rest.is_constant()
        [level] = root_index_data(seq).levels
        assert (level.s0_count, level.t0_count) == (0, 0)
        assert (level.pbar, level.qbar) == (lead.p_lead.monic(), lead.q_lead.monic())

    def test_f2t_horizontal_prefix_endpoint(self):
        f = corpus_map("F2T")
        phi = series(1, [(0, sc(-1))], 1)  # -x + s
        seq = associated_sequence(ROOT_WINDOW, phi, f)
        assert seq.K == 1 and seq.levels[0].c == sc(-1)

    def test_r3_three_levels(self):
        f = corpus_map("R3")
        phi = series(1, [(0, sc(-1)), (1, sc(-1))], 2)  # -x - 1 + s/x
        seq = associated_sequence(ROOT_WINDOW, phi, f)
        assert seq.K == 2
        assert [lv.c for lv in seq.levels] == [sc(-1), sc(-1), None]

    def test_not_a_refinement(self):
        f = corpus_map("F2")
        half = series(2, [(1, sc(1))], 2)
        from npvset.errors import NotARefinement

        with pytest.raises(NotARefinement):
            associated_sequence(half, series(1, [(0, sc(-1))], 2), f)


class TestRootIndexData:
    def test_f2_worked_example(self):
        f = corpus_map("F2")
        phi = series(1, [(0, sc(-1))], 2)
        seq = associated_sequence(ROOT_WINDOW, phi, f)
        data = root_index_data(seq)
        lv0, lv1 = data.levels
        lead0, lead1 = seq.levels[0].lead, seq.levels[1].lead
        assert all_roots(lead0.p_lead) == ([(sc(-1), 1)], up(1)) and lv0.s0_count == 1
        assert all_roots(lead0.q_lead) == ([(sc(-1), 1), (sc(0), 1)], up(1))
        assert lv0.t0_count == 1
        assert lead0.p_lead.lcoeff() == sc(1) and lead0.q_lead.lcoeff() == sc(1)
        assert lv0.pbar == up(1) and lv0.qbar == up(0, 1)
        assert all_roots(lead1.p_lead)[0] == all_roots(lead1.q_lead)[0] == [(sc(0), 1)]
        assert (lv1.s0_count, lv1.t0_count) == (0, 0)

    def test_degrees_match_counts(self):
        f = corpus_map("F3p")
        phi = series(1, [(0, sc(-1))], 2)
        seq = associated_sequence(ROOT_WINDOW, phi, f)
        data = root_index_data(seq)
        for lv, d in zip(seq.levels, data.levels):
            # each lead splits, and its degree counts its roots; the on-slot
            # count is the pinned coefficient's multiplicity
            for g, count, bar in ((lv.lead.p_lead, d.s0_count, d.pbar),
                                  (lv.lead.q_lead, d.t0_count, d.qbar)):
                roots, rest = all_roots(g)
                assert rest.is_constant() and g.degree == sum(m for _, m in roots)
                assert count == sum(m for r, m in roots if r == lv.c)
                assert bar.degree == g.degree - count and bar.lcoeff() == sc(1)

    @settings(max_examples=80, deadline=None)
    @given(gaussian_roots, st.integers(0, 4), st.integers(0, 4), st.data())
    def test_division_matches_divmod(self, c, m_p, m_q, data):
        # leads lc * (s - c)^m * g with g(c) != 0; the Q lead has the factor
        # s^2 + 2, so it never splits over Q(i)
        lin = UniPoly.make([-c, ONE])
        cofactor = leads([sc(0, 2)]).filter(lambda g: not g.evaluate(c).is_zero())
        p_lead = data.draw(cofactor) * lin ** m_p
        q_lead = data.draw(cofactor) * up(2, 0, 1) * lin ** m_q
        lead = LeadingData(p_lead, 1, q_lead, 1, up(1), 0, 1)
        seq = AssociatedSequence(
            [SequenceLevel(ROOT_WINDOW, c, lead), SequenceLevel(ROOT_WINDOW, None, lead)]
        )
        pinned, final = root_index_data(seq).levels
        for g, m, count, bar in ((p_lead, m_p, pinned.s0_count, pinned.pbar),
                                 (q_lead, m_q, pinned.t0_count, pinned.qbar)):
            quo, rem = g.monic().divmod(lin ** m)
            assert (count, bar) == (m, quo) and rem.is_zero()
            assert not bar.evaluate(c).is_zero()
        # the final level pins nothing
        assert final == (0, 0, p_lead.monic(), q_lead.monic())

    def test_no_root_search(self, monkeypatch):
        # the chain's final Q lead does not split, and no lead is searched
        chains = []
        for text in (CORPUS_TEXT["F2"], CORPUS_TEXT["F3p"], UNSPLIT_LEAD_TEXT):
            f = normalize_monic(*parse_map(text))
            for node in expansion_tree(f).walk():
                if node.status == "dicritical":
                    chains.append(associated_sequence(ROOT_WINDOW, node.series, f))

        def forbidden(*args):
            raise AssertionError("root search in root_index_data")

        monkeypatch.setattr(expansion_mod, "all_roots", forbidden)
        monkeypatch.setattr(expansion_mod, "roots_in_field", forbidden)
        final_q = chains[-1].levels[-1].lead.q_lead
        assert final_q == up(0, -2, 0, -3)
        assert [len(root_index_data(seq).levels) for seq in chains] == [2, 2, 2]
