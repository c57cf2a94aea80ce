"""Elimination forests, tree-depth and the depth-to-model construction."""

import hashlib
import inspect
import itertools
import math
import random
import sys

import pytest

import shrubkit.depth
from shrubkit import (
    DomainError,
    EliminationForest,
    Graph,
    ResourceLimitError,
    ValidationError,
    closure,
    components,
    enumerate_graphs,
    forest_from_text,
    forest_to_text,
    make_biclique,
    make_clique,
    make_path,
    realize,
    td_to_tm,
    tree_depth,
    validate_td,
    verify,
)

from .helpers import (
    brute_force_tree_depth,
    longest_path_length,
    random_graph,
    random_seeded,
)


class TestEliminationForest:
    def test_basics(self):
        f = EliminationForest([-1, 0, 0, -1])
        assert f.n == 4
        assert f.roots() == (0, 3)
        assert f.height == 1
        assert list(f.ancestors(1)) == [0]
        assert f.depth(1) == 1 and f.depth(3) == 0

    def test_rejects_cycles(self):
        with pytest.raises(ValidationError):
            EliminationForest([1, 0])
        with pytest.raises(ValidationError):
            EliminationForest([0])
        with pytest.raises(ValidationError):
            EliminationForest([-1, 3])

    def test_empty_forest(self):
        f = EliminationForest([])
        assert f.n == 0 and f.height == -1 and f.roots() == ()

    def test_closure(self):
        f = EliminationForest([-1, 0, 1, -1])
        g = closure(f)
        assert g == Graph(4, [(0, 1), (0, 2), (1, 2)])

    def test_validate_td(self):
        path = make_path(3)
        good = EliminationForest([1, -1, 1, 2])
        assert closure(good).has_edge(0, 1)
        assert validate_td(path, good)
        # siblings cannot cover a path edge
        assert not validate_td(path, EliminationForest([-1, 0, 0, 0]))
        with pytest.raises(DomainError):
            validate_td(make_path(2), good)


def _is_star_forest(g):
    """Every component is a single vertex or a star K1,r, checked on the
    component lists: a component of s vertices is a star iff it has s - 1
    edges and a vertex joined to all the others."""
    for comp in components(g):
        comp = set(comp)
        edges = [(u, v) for u, v in g.edges if u in comp]
        centres = [c for c in comp
                   if all(g.has_edge(c, w) for w in comp if w != c)]
        if len(comp) > 1 and (len(edges) != len(comp) - 1 or not centres):
            return False
    return True


class TestTreeDepth:
    def test_known_families(self):
        for n in range(1, 7):
            assert tree_depth(make_clique(n))[0] == n
        for a in range(1, 4):
            for b in range(a, 4):
                assert tree_depth(make_biclique(a, b))[0] == a + 1
        assert tree_depth(Graph(0))[0] == 0
        assert tree_depth(Graph(5))[0] == 1

    def test_a_cap_that_is_not_an_integer_is_refused(self):
        for cap in (None, 2.5):
            with pytest.raises(DomainError, match="must be an integer"):
                tree_depth(make_path(3), cap=cap)

    def test_paths_hit_log_formula(self):
        for n in range(0, 15):
            g = make_path(n)
            assert tree_depth(g)[0] == math.ceil(math.log2(n + 2))

    def test_matches_brute_force(self):
        # the 1,044 graphs on 7 vertices included; td <= 2 and td <= 1 are
        # closed forms in tree_depth, checked here against the components
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                val, forest = tree_depth(g)
                assert val == brute_force_tree_depth(g)
                assert validate_td(g, forest)
                assert forest.height + 1 == val
                assert (val <= 2) == _is_star_forest(g)
                assert (val <= 1) == (not g.edges)

    def test_longest_path_sandwich(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                td = tree_depth(g)[0]
                length = longest_path_length(g)
                assert math.ceil(math.log2(length + 2)) <= td <= length + 1

    def test_witness_on_random_graphs(self):
        rng = random_seeded(51)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            val, forest = tree_depth(g)
            assert validate_td(g, forest)
            assert forest.height + 1 == val

    def test_a_deep_forest_is_built_without_recursion(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            value, forest = tree_depth(make_clique(60), cap=60)
        finally:
            sys.setrecursionlimit(limit)
        assert value == 60 and forest.height == 59

    def test_a_wrong_witness_is_refused(self, monkeypatch):
        # a fault that leaves every vertex a root: well formed, covers no edge
        monkeypatch.setattr(shrubkit.depth, "EliminationForest",
                            lambda parent: EliminationForest([-1] * len(parent)))
        with pytest.raises(ValidationError, match="witness forest"):
            tree_depth(make_path(3))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            tree_depth(make_clique(5), cap=4)
        assert tree_depth(make_clique(5), cap=5)[0] == 5

    def test_mask_components_calls_are_pinned(self, monkeypatch):
        # the cli-sweep tree-depth base graph: G(16, 0.3) drawn as perfbench draws it
        rng = random.Random("base:td")
        n = 16
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        g = Graph(n, edges)
        calls = []
        real = shrubkit.depth.mask_components

        def counted(adj, mask):
            calls.append(mask)
            return real(adj, mask)

        monkeypatch.setattr(shrubkit.depth, "mask_components", counted)
        counts = []
        for _ in range(2):
            calls.clear()
            assert tree_depth(g)[0] == 7
            counts.append(len(calls))
        # 14,856 calls before the closed forms, when every star forest recursed
        assert counts == [1601, 1601]
        assert counts[0] < 14856 / 5


# SHA-256 of the (value, parent) dumps below, taken while tree_depth still
# memoized exact values over every subset
TD_DIGEST = "9bf262e6432544071f5cfb3276820c6c9f3c4fd72f223cdf155c3e61c6641f7b"
TD_CAP_DIGEST = "5a81db7aedf256676d3df3e702fd5e2b1c14eb2c5787c58a76c66d5d11a54ebf"


def _td_digest_graphs():
    """Every graph on 1-5 vertices, edge masks over the pairs in
    itertools.combinations order, then 300 seeded graphs on 6-12."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
    rng = random_seeded(90)
    for _ in range(300):
        yield random_graph(rng, rng.randint(6, 12))


def _digest(graphs):
    digest = hashlib.sha256()
    values = []
    for g in graphs:
        value, forest = tree_depth(g)
        digest.update(repr((value, forest.parent)).encode())
        values.append(value)
    return digest.hexdigest(), values


class TestTreeDepthWitnesses:
    """The decision search returns the forests of the exact-value memo."""

    def test_forests_match_the_pinned_digest(self):
        graphs = list(_td_digest_graphs())
        assert len(graphs) == 1399
        assert _digest(graphs)[0] == TD_DIGEST

    def test_values_and_forests_at_the_cap(self):
        graphs = [make_clique(16), make_biclique(8, 8), make_path(15)] + [
            random_graph(random_seeded(1), 16, p) for p in (0.5, 0.7, 0.9)
        ]
        assert _digest(graphs) == (TD_CAP_DIGEST, [16, 9, 5, 11, 13, 15])


class TestTdToModel:
    def test_exact_on_connected_graphs(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                if len(components(g)) != 1:
                    continue
                td, forest = tree_depth(g)
                model = td_to_tm(g, forest)
                assert verify(model, g)
                assert model.depth == td - 1 or (td == 1 and model.depth == 0)
                assert model.colors < 2 ** td

    def test_disconnected_needs_one_more_level(self):
        g = Graph(4, [(0, 1), (2, 3)])
        td, forest = tree_depth(g)
        assert len(forest.roots()) == 2
        model = td_to_tm(g, forest)
        assert verify(model, g)
        assert model.depth == forest.height + 1

    def test_works_with_non_optimal_forests(self):
        # a valid but deeper-than-needed elimination forest still converts
        g = make_path(3)
        forest = EliminationForest([-1, 0, 1, 2])
        assert validate_td(g, forest)
        model = td_to_tm(g, forest)
        assert verify(model, g)
        assert model.depth == forest.height

    def test_rejects_invalid_forest(self):
        g = make_path(3)
        with pytest.raises(DomainError):
            td_to_tm(g, EliminationForest([-1, 0, 0, 0]))
        with pytest.raises(DomainError):
            td_to_tm(Graph(0), EliminationForest([]))


class TestForestText:
    def test_round_trip(self):
        rng = random_seeded(52)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 8))
            _, forest = tree_depth(g)
            text = forest_to_text(forest)
            assert forest_from_text(text).parent == forest.parent

    def test_rejects_garbage(self):
        for bad in ("x y", "0 0", "0 5", "1 -1", "0 -1\n0 -1", "0 -1 7"):
            with pytest.raises(ValidationError):
                forest_from_text(bad)
        assert forest_from_text("").n == 0
