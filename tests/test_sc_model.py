"""Subset-complementation trees and the conversions to and from tree-models."""

import json
import sys

import pytest

from shrubkit import (
    ColoredTree,
    DomainError,
    Graph,
    SCTree,
    ValidationError,
    evaluate_sc,
    RootedTree,
    TreeModel,
    canonical_code,
    colored_tree_to_text,
    eval_lincw,
    make_clique,
    model_to_text,
    pad_sc,
    realize,
    reduce_tree,
    sc_from_text,
    sc_to_text,
    sc_to_tm,
    tm_to_lincw,
    tm_to_sc,
    verify,
)

from .helpers import random_sc_tree, random_seeded, random_tree_model


def leaves(*ids):
    return [SCTree.leaf(v) for v in ids]


class TestSCTree:
    def test_leaf(self):
        t = SCTree.leaf(3)
        assert t.is_leaf and t.vertex == 3
        assert t.height == 0 and t.leaf_vertices == {3}

    def test_inner_collects_leaves(self):
        t = SCTree.inner(leaves(0, 1, 2), {0, 2})
        assert not t.is_leaf
        assert t.height == 1 and t.leaf_vertices == {0, 1, 2}

    def test_rejects_duplicate_leaves(self):
        with pytest.raises(ValidationError):
            SCTree.inner(leaves(0, 0))

    def test_rejects_foreign_x(self):
        with pytest.raises(ValidationError):
            SCTree.inner(leaves(0, 1), {0, 5})

    def test_rejects_empty_children(self):
        with pytest.raises(ValidationError):
            SCTree.inner([])

    def test_rejects_bad_leaf(self):
        with pytest.raises(ValidationError):
            SCTree.leaf(-1)


class TestEvaluate:
    def test_single_vertex(self):
        assert evaluate_sc(SCTree.leaf(0)) == Graph(1)

    def test_edge(self):
        t = SCTree.inner(leaves(0, 1), {0, 1})
        assert evaluate_sc(t) == Graph(2, [(0, 1)])

    def test_small_x_adds_nothing(self):
        t = SCTree.inner(leaves(0, 1), {0})
        assert evaluate_sc(t) == Graph(2)

    def test_clique(self):
        t = SCTree.inner(leaves(0, 1, 2, 3), range(4))
        assert evaluate_sc(t) == make_clique(4)

    def test_double_complement_cancels(self):
        inner = SCTree.inner(leaves(0, 1, 2), {0, 1, 2})
        outer = SCTree.inner([inner], {0, 1, 2})
        assert evaluate_sc(outer) == Graph(3)

    def test_four_cycle_at_height_two(self):
        a = SCTree.inner(leaves(0, 1), {0, 1})
        b = SCTree.inner(leaves(2, 3), {2, 3})
        t = SCTree.inner([a, b], {0, 1, 2, 3})
        g = evaluate_sc(t)
        assert g == Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_requires_contiguous_ids(self):
        with pytest.raises(ValidationError):
            evaluate_sc(SCTree.inner(leaves(0, 2)))


class TestPad:
    def test_pad_preserves_graph(self):
        rng = random_seeded(41)
        for _ in range(40):
            t = random_sc_tree(rng)
            p = pad_sc(t, t.height + 2)
            assert p.height == t.height + 2
            assert evaluate_sc(p) == evaluate_sc(t)

    def test_pad_makes_leaf_depths_uniform(self):
        t = SCTree.inner([SCTree.leaf(0),
                          SCTree.inner(leaves(1, 2), {1, 2})], {0, 1})

        def depths(node, d):
            if node.is_leaf:
                yield d
            else:
                for c in node.children:
                    yield from depths(c, d + 1)

        p = pad_sc(t, 3)
        assert set(depths(p, 0)) == {3}

    def test_pad_below_height_fails(self):
        t = SCTree.inner(leaves(0, 1), {0, 1})
        with pytest.raises(DomainError):
            pad_sc(t, 0)


class TestModelToSC:
    def test_round_trip_random_models(self):
        rng = random_seeded(42)
        for _ in range(150):
            m = random_tree_model(rng)
            t = tm_to_sc(m)
            assert evaluate_sc(t) == realize(m)
            assert t.height <= max(m.depth * m.colors * (m.colors + 1), 0) or (
                m.depth == 0 and t.height == 0)

    def test_height_bound_tight_inputs(self):
        rng = random_seeded(43)
        for _ in range(60):
            m = random_tree_model(rng, max_depth=3, max_colors=3, max_leaves=12)
            t = tm_to_sc(m)
            assert t.height <= m.depth * m.colors * (m.colors + 1)


class TestSCToModel:
    def test_round_trip_random_trees(self):
        rng = random_seeded(44)
        for _ in range(150):
            t = random_sc_tree(rng)
            m = sc_to_tm(t)
            assert realize(m) == evaluate_sc(t)
            assert m.depth == t.height
            assert m.colors <= max(2 ** t.height, 1)

    def test_height_zero(self):
        m = sc_to_tm(SCTree.leaf(0))
        assert m.depth == 0 and realize(m) == Graph(1)

    def test_leaf_ids_must_be_0_to_n_minus_1(self):
        gapped = SCTree.inner([SCTree.leaf(0), SCTree.leaf(2)], [0, 2])
        for bad in (gapped, SCTree.leaf(3)):
            with pytest.raises(ValidationError, match=r"exactly 0\.\.n-1"):
                sc_to_tm(bad)


class TestSerialization:
    def test_round_trip(self):
        rng = random_seeded(45)
        for _ in range(60):
            t = random_sc_tree(rng)
            text = sc_to_text(t)
            back = sc_from_text(text)
            assert evaluate_sc(back) == evaluate_sc(t)
            assert sc_to_text(back) == text

    def test_rejects_malformed(self):
        for bad in ("{", "[]", '{"vertex": 0, "X": []}',
                    '{"X": [], "children": []}',
                    '{"children": [{"vertex": 0}]}'):
            with pytest.raises(ValidationError):
                sc_from_text(bad)


def _reference_text(doc):
    """The standard library's writer, which recurses, given the stack room."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    finally:
        sys.setrecursionlimit(limit)


def _chain_model(n):
    """One-color model of K2, n levels deep: a path of n - 1 nodes above a
    node with two leaves, joined at level 1."""
    parent = [-1, *range(n - 1), n - 1, n - 1]
    return TreeModel(RootedTree(parent), n, 1, {n: 0, n + 1: 1},
                     {n: 1, n + 1: 1}, {(1, 1, 1)})


class TestDeepTrees:
    """Evaluation, padding, every conversion, the tree folds and the writers
    run on explicit stacks, so a tree 1,000 levels deep fits."""

    def test_one_color_chain_model_and_its_sc_image(self):
        n = 1000
        m = _chain_model(n)
        assert eval_lincw(tm_to_lincw(m)) == realize(m)
        record = {"children": [{"color": 1, "vertex": 0}, {"color": 1, "vertex": 1}]}
        for _ in range(n - 1):
            record = {"children": [record]}
        doc = {"colors": 1, "depth": n, "signature": [[1, 1, 1]], "tree": record}
        assert model_to_text(m) == _reference_text(doc)

        t = tm_to_sc(m)
        assert t.height == n and evaluate_sc(t) == make_clique(2)
        record = {"X": [0, 1], "children": [{"vertex": 0}, {"vertex": 1}]}
        for _ in range(n - 1):
            record = {"X": [], "children": [record]}
        assert sc_to_text(t) == _reference_text(record)
        assert verify(sc_to_tm(t), make_clique(2))
        padded = pad_sc(t, n + 10)
        assert padded.height == n + 10 and evaluate_sc(padded) == make_clique(2)

    def test_one_color_chain_colored_tree(self):
        n = 1000
        chain = ColoredTree(RootedTree([-1, *range(n - 1)]), [1] * n)
        record = {"color": 1, "children": []}
        for _ in range(n - 1):
            record = {"color": 1, "children": [record]}
        assert colored_tree_to_text(chain) == _reference_text(record)
        code = canonical_code(chain)
        for _ in range(n - 1):
            assert code[0] == 1 and len(code[1]) == 1
            code = code[1][0]
        assert code == (1, ())
        assert reduce_tree(chain, [1], 2) == chain
        # three equal chains under one root: threshold 1 and modulus 2 keep
        # 1 + (3 - 1) % 2 = 1, the chain with the least node ids
        parent = [-1]
        for _ in range(3):
            parent += [0, *range(len(parent), len(parent) + n - 1)]
        ct = ColoredTree(RootedTree(parent), [1] * len(parent))
        assert reduce_tree(ct, [1], 2) == ColoredTree(
            RootedTree([-1, *range(n)]), [1] * (n + 1))

    def test_canonical_code_of_two_deep_chains(self):
        n = 1000
        # a root over two chains of n nodes of color 1, equal at first;
        # then the bottom node of the first chain gets color 2
        parent = [-1, 0, *range(1, n), 0, *range(n + 1, 2 * n)]
        for first_bottom in (1, 2):
            color = [1] * (2 * n + 1)
            color[n] = first_bottom
            code = canonical_code(ColoredTree(RootedTree(parent), color))
            assert code[0] == 1 and len(code[1]) == 2
            # either way the chain with the smaller bottom color comes first
            bottoms = []
            for chain in code[1]:
                for _ in range(n - 1):
                    assert chain[0] == 1 and len(chain[1]) == 1
                    chain = chain[1][0]
                bottoms.append(chain[0])
                assert chain[1] == ()
            assert bottoms == [1, first_bottom]

    def test_sc_text_round_trip(self):
        # 400 levels, under the nesting limit of the JSON reader
        text = sc_to_text(tm_to_sc(_chain_model(400)))
        assert sc_to_text(sc_from_text(text)) == text
