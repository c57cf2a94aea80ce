"""Tree-models, k-copied models, colored trees and the sibling reduction."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubkit import (
    ColoredTree,
    CopiedTreeModel,
    DomainError,
    Graph,
    RootedTree,
    SignatureConflict,
    TreeModel,
    ValidationError,
    add_leaf_level,
    canonical_code,
    colored_tree_from_text,
    colored_tree_to_text,
    complement_model,
    complement_on_subset,
    enumerate_graphs,
    grow_leaf,
    induced_subgraph,
    infer_signature,
    lift_depth,
    lincw_to_text,
    model_from_text,
    model_to_text,
    path_model,
    realize,
    reduce_tree,
    restrict,
    sc_from_text,
    sc_to_text,
    sc_to_tm,
    subtree_on,
    td_to_tm,
    tm_membership,
    tm_to_lincw,
    tm_to_sc,
    tree_depth,
    verify,
    verify_k_copied,
)
from shrubkit.rooted_tree import dump_json

from .helpers import (
    code_of_tuple,
    encode_colored_tree,
    is_rooted_color_embedding,
    naive_reduce,
    random_colored_tree,
    random_seeded,
    random_tree_model,
    tuple_of_colored_tree,
)


def star_model():
    # root with three leaves, one color, edges at level 1
    tree = RootedTree([-1, 0, 0, 0])
    return TreeModel(tree, 1, 1, {1: 0, 2: 1, 3: 2}, {1: 1, 2: 1, 3: 1},
                     {(1, 1, 1)})


def two_level_model():
    # two sibling pairs; same-pair leaves adjacent, cross pairs not
    tree = RootedTree([-1, 0, 0, 1, 1, 2, 2])
    return TreeModel(
        tree, 2, 1,
        {3: 0, 4: 1, 5: 2, 6: 3},
        {3: 1, 4: 1, 5: 1, 6: 1},
        {(1, 1, 1)},
    )


class TestRootedTree:
    def test_basics(self):
        t = RootedTree([-1, 0, 0, 1])
        assert t.n == 4 and t.root == 0 and t.height == 2
        assert t.children(0) == (1, 2)
        assert t.depth(3) == 2
        assert t.is_leaf(3) and t.is_leaf(2) and not t.is_leaf(1)
        assert t.leaves() == (2, 3)
        assert t.lca(2, 3) == 0 and t.lca(1, 3) == 1
        assert list(t.ancestors(3)) == [1, 0]

    def test_rejects_cycles_and_forests(self):
        with pytest.raises(ValidationError):
            RootedTree([1, 0])
        with pytest.raises(ValidationError):
            RootedTree([-1, -1])
        with pytest.raises(ValidationError):
            RootedTree([])
        with pytest.raises(ValidationError):
            RootedTree([-1, 2, 1])

    def test_leaf_pairs_are_lexicographic_with_meet_depth(self):
        t = RootedTree([-1, 0, 0, 1, 1, 2, 1])
        assert list(t.leaf_pairs()) == [
            (3, 4, 1), (3, 5, 0), (3, 6, 1), (4, 5, 0), (4, 6, 1), (5, 6, 0)
        ]
        assert list(RootedTree([-1]).leaf_pairs()) == []

    def test_fold_visits_children_first_in_child_order(self):
        t = RootedTree([-1, 0, 0, 1, 1])
        seen = []

        def visit(u, values):
            assert all(c in seen for c in t.children(u))
            seen.append(u)
            return u, values

        assert t.fold(visit) == (0, [(1, [(3, []), (4, [])]), (2, [])])
        assert sorted(seen) == [0, 1, 2, 3, 4]
        assert t.fold(visit, 1) == (1, [(3, []), (4, [])])
        assert t.fold(visit, 4) == (4, [])

    def test_extend_path(self):
        t = RootedTree([-1])
        t2, leaf = t.extend_path(0, 3)
        assert t2.depth(leaf) == 3 and t2.is_leaf(leaf)
        t3, same = t2.extend_path(leaf, 0)
        assert t3 == t2 and same == leaf

    def test_subtree_on(self):
        t = RootedTree([-1, 0, 0, 1, 1])
        sub, kept = subtree_on(t, {0, 1, 4})
        assert kept == (0, 1, 4)
        assert sub.parent == (-1, 0, 1)

    def test_grow_leaf(self):
        t = RootedTree([-1, 0])
        t2, leaf = grow_leaf(t, 1, 3)
        assert t2.depth(leaf) == 3
        with pytest.raises(DomainError):
            grow_leaf(t2, leaf, 1)


class TestTreeModel:
    def test_star_realizes_triangle(self):
        g = realize(star_model())
        assert g == Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert verify(star_model(), g)
        assert not verify(star_model(), Graph(3, [(0, 1)]))

    def test_two_level_realizes_perfect_matching(self):
        g = realize(two_level_model())
        assert g == Graph(4, [(0, 1), (2, 3)])

    def test_depth_zero_is_single_vertex(self):
        m = TreeModel(RootedTree([-1]), 0, 1, {0: 0}, {0: 1}, set())
        assert realize(m) == Graph(1)

    def test_validation(self):
        tree = RootedTree([-1, 0, 0])
        good = dict(leaf_vertex={1: 0, 2: 1}, leaf_color={1: 1, 2: 1})
        TreeModel(tree, 1, 1, signature=set(), **good)
        with pytest.raises(ValidationError):
            TreeModel(tree, 2, 1, signature=set(), **good)
        with pytest.raises(ValidationError):
            TreeModel(tree, 1, 1, {1: 0, 2: 2}, {1: 1, 2: 1}, set())
        with pytest.raises(ValidationError):
            TreeModel(tree, 1, 1, {1: 0, 2: 1}, {1: 1, 2: 2}, set())
        with pytest.raises(ValidationError):
            TreeModel(tree, 1, 1, signature={(1, 1, 2)}, **good)
        with pytest.raises(ValidationError):
            TreeModel(tree, 1, 2, signature={(1, 2, 1)}, **good)

    def test_pair_level(self):
        m = two_level_model()
        assert m.pair_level(3, 4) == 1
        assert m.pair_level(3, 5) == 2

    def test_infer_signature_recovers_random_models(self):
        rng = random_seeded(21)
        for _ in range(60):
            m = random_tree_model(rng)
            g = realize(m)
            sig = infer_signature(m.tree, m.leaf_vertex, m.leaf_color, g)
            assert sig <= m.signature
            rebuilt = TreeModel(m.tree, m.depth, m.colors, m.leaf_vertex,
                                m.leaf_color, sig)
            assert verify(rebuilt, g)

    def test_infer_signature_conflict(self):
        tree = RootedTree([-1, 0, 0, 0])
        lv = {1: 0, 2: 1, 3: 2}
        lc = {1: 1, 2: 1, 3: 1}
        with pytest.raises(SignatureConflict):
            infer_signature(tree, lv, lc, Graph(3, [(0, 1)]))

    def test_infer_signature_conflict_names_the_first_pairs(self):
        tree = RootedTree([-1, 0, 0, 0])
        lv = {1: 0, 2: 1, 3: 2}
        lc = {1: 1, 2: 1, 3: 1}
        with pytest.raises(SignatureConflict) as info:
            infer_signature(tree, lv, lc, Graph(3, [(0, 1)]))
        assert (info.value.pair_a, info.value.pair_b) == ((0, 1), (0, 2))

    def test_infer_signature_rejects_ragged_leaves(self):
        tree = RootedTree([-1, 0, 0, 1])
        with pytest.raises(DomainError):
            infer_signature(tree, {2: 0, 3: 1}, {2: 1, 3: 1}, Graph(2))


class TestModelOperations:
    def test_restrict_matches_induced_subgraph(self):
        rng = random_seeded(22)
        for _ in range(60):
            m = random_tree_model(rng)
            g = realize(m)
            keep = sorted(v for v in range(m.n) if rng.random() < 0.6)
            if not keep:
                keep = [0]
            sub = restrict(m, keep)
            want, _ = induced_subgraph(g, keep)
            assert realize(sub) == want
            assert sub.depth == m.depth and sub.colors == m.colors

    def test_restrict_rejects_bad_sets(self):
        m = star_model()
        with pytest.raises(DomainError):
            restrict(m, [])
        with pytest.raises(DomainError):
            restrict(m, [0, 7])

    def test_complement_model(self):
        rng = random_seeded(23)
        for _ in range(60):
            m = random_tree_model(rng)
            g = realize(m)
            comp = complement_model(m)
            assert realize(comp) == complement_on_subset(g, range(m.n))
            assert complement_model(comp) == m

    def test_lift_depth_preserves_realize(self):
        rng = random_seeded(24)
        for _ in range(30):
            m = random_tree_model(rng)
            up = lift_depth(m)
            assert up.depth == m.depth + 1
            assert realize(up) == realize(m)

    def test_add_leaf_level_gives_one_copied_model(self):
        rng = random_seeded(25)
        for _ in range(30):
            m = random_tree_model(rng)
            down = add_leaf_level(m)
            assert down.depth == m.depth + 1
            assert realize(down) == realize(m)
            assert verify_k_copied(down, m.depth, m.colors, 1)


class TestCopiedModels:
    def test_verify_k_copied(self):
        m = two_level_model()
        assert verify_k_copied(m, 1, 1, 2)
        assert not verify_k_copied(m, 1, 1, 1)
        assert not verify_k_copied(m, 2, 1, 2)
        with pytest.raises(DomainError):
            verify_k_copied(m, -1, 1, 1)

    def test_copied_wrapper_validates(self):
        m = two_level_model()
        c = CopiedTreeModel(m, 1, 1, 2)
        assert c.d == 1 and c.m == 1 and c.k == 2
        with pytest.raises(ValidationError):
            CopiedTreeModel(m, 1, 1, 1)


class TestModelSerialization:
    def test_round_trip_preserves_semantics(self):
        rng = random_seeded(26)
        for _ in range(60):
            m = random_tree_model(rng)
            text = model_to_text(m)
            back = model_from_text(text)
            assert realize(back) == realize(m)
            assert (back.depth, back.colors) == (m.depth, m.colors)
            assert back.signature == m.signature
            # writer output is a canonical fixed point
            assert model_to_text(back) == text

    def test_matches_the_recursive_writer(self):
        # children sorted by nested keys and written by the standard library,
        # as the writer did before it ran on an explicit stack
        def record(m, u):
            if m.tree.is_leaf(u):
                return {"vertex": m.leaf_vertex[u], "color": m.leaf_color[u]}
            return {"children": sorted((record(m, c) for c in m.tree.children(u)), key=key)}

        def key(r):
            if "vertex" in r:
                return (0, r["color"], r["vertex"])
            return (1, tuple(key(c) for c in r["children"]))

        rng = random_seeded(27)
        for _ in range(200):
            m = random_tree_model(rng, max_depth=4)
            ids = list(m.leaf_vertex.values())
            rng.shuffle(ids)
            m = TreeModel(m.tree, m.depth, m.colors, dict(zip(m.leaf_vertex, ids)),
                          m.leaf_color, m.signature)
            doc = {"depth": m.depth, "colors": m.colors,
                   "signature": sorted(list(t) for t in m.signature),
                   "tree": record(m, m.tree.root)}
            assert model_to_text(m) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_rejects_malformed(self):
        for bad in ("{", "{}", '{"depth": 1, "colors": 1, "signature": []}',
                    '{"depth": 1, "colors": 1, "signature": [[1, 1]],'
                    ' "tree": {"children": [{"vertex": 0, "color": 1}]}}'):
            with pytest.raises(ValidationError):
                model_from_text(bad)


class TestColoredTrees:
    def test_matches_the_recursive_writer(self):
        # children sorted by nested keys and written by the standard library,
        # as the writer did before it ran on RootedTree.fold
        def record(ct, u):
            children = [record(ct, c) for c in ct.tree.children(u)]
            children.sort(key=key)
            return {"color": ct.color[u], "children": children}

        def key(r):
            return (r["color"], tuple(key(c) for c in r["children"]))

        rng = random_seeded(29)
        for _ in range(300):
            ct = random_colored_tree(rng, max_height=4)
            want = json.dumps(record(ct, ct.tree.root), indent=2, sort_keys=True)
            assert colored_tree_to_text(ct) == want + "\n"

    def test_validation(self):
        t = RootedTree([-1, 0])
        ColoredTree(t, [1, 2])
        with pytest.raises(ValidationError):
            ColoredTree(t, [1])
        with pytest.raises(ValidationError):
            ColoredTree(t, [1, 0])

    def test_canonical_code_ignores_child_order(self):
        a = ColoredTree(RootedTree([-1, 0, 0, 1]), [1, 2, 3, 4])
        b = ColoredTree(RootedTree([-1, 0, 0, 2]), [1, 3, 2, 4])
        assert canonical_code(a) == canonical_code(b)
        c = ColoredTree(RootedTree([-1, 0, 0, 1]), [1, 2, 3, 5])
        assert canonical_code(a) != canonical_code(c)

    def test_text_round_trip(self):
        rng = random_seeded(27)
        for _ in range(40):
            ct = random_colored_tree(rng)
            text = colored_tree_to_text(ct)
            back = colored_tree_from_text(text)
            assert canonical_code(back) == canonical_code(ct)
            assert colored_tree_to_text(back) == text


class TestReduceTree:
    def test_explicit_example(self):
        # five identical leaves under the root, threshold 2, modulus 2:
        # the class of size 5 keeps 2 + (5 - 2) % 2 = 3 members
        ct = ColoredTree(RootedTree([-1, 0, 0, 0, 0, 0]), [1, 2, 2, 2, 2, 2])
        red = reduce_tree(ct, [2], 2)
        assert red.tree.n == 4
        assert red.color == (1, 2, 2, 2)

    def test_agrees_with_naive_reducer(self):
        rng = random_seeded(28)
        for _ in range(120):
            ct = random_colored_tree(rng)
            for thresholds in ([1], [2], [0, 1], [1, 2, 4]):
                for modulus in (1, 2, 3):
                    red = reduce_tree(ct, thresholds, modulus)
                    naive = naive_reduce(tuple_of_colored_tree(ct),
                                         thresholds, modulus)
                    assert canonical_code(red) == code_of_tuple(naive)

    def test_result_embeds_in_input(self):
        rng = random_seeded(29)
        for _ in range(80):
            ct = random_colored_tree(rng)
            red = reduce_tree(ct, [1], 2)
            assert red.tree.n <= ct.tree.n
            assert red.color[red.tree.root] == ct.color[ct.tree.root]
            assert is_rooted_color_embedding(red, ct)

    def test_idempotent(self):
        rng = random_seeded(30)
        for _ in range(60):
            ct = random_colored_tree(rng)
            red = reduce_tree(ct, [1, 3], 2)
            again = reduce_tree(red, [1, 3], 2)
            assert again == red

    def test_class_sizes_follow_contract(self):
        rng = random_seeded(31)
        for _ in range(60):
            ct = random_colored_tree(rng)
            limit, modulus = 1, 2
            red = reduce_tree(ct, [limit], modulus)
            # after reduction no sibling class can still be over the cut line
            for node in range(red.tree.n):
                sizes = {}
                for c in red.tree.children(node):
                    code = canonical_code(red, c)
                    sizes[code] = sizes.get(code, 0) + 1
                for size in sizes.values():
                    assert size < limit + modulus

    def test_height_windows(self):
        # height-1 nodes trimmed to one representative, height-2 untouched
        parent = [-1, 0, 0, 0, 1, 1, 1]
        ct = ColoredTree(RootedTree(parent), [1, 2, 2, 2, 3, 3, 3])
        red = reduce_tree(ct, [1, 3], 1)
        # node 1 has height 1: its three leaves collapse to one;
        # the root has height 2: window allows three children classes of 2-3
        code = canonical_code(red)
        assert code == (1, ((2, ()), (2, ()), (2, ((3, ()),))))

    def test_validation(self):
        ct = ColoredTree(RootedTree([-1]), [1])
        with pytest.raises(DomainError):
            reduce_tree(ct, [], 2)
        with pytest.raises(DomainError):
            reduce_tree(ct, [2, 1], 2)
        with pytest.raises(DomainError):
            reduce_tree(ct, [-1], 2)
        with pytest.raises(DomainError):
            reduce_tree(ct, [1], 0)


def test_encode_colored_tree_shapes():
    ct = ColoredTree(RootedTree([-1, 0, 0]), [1, 2, 2])
    g = encode_colored_tree(ct)
    assert g.n == 3 and g.edges == ((0, 1), (0, 2))
    assert g.vertex_labels(0) == {"c1", "root"}
    assert g.vertex_labels(1) == {"c2"}


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True)
                | st.text(max_size=3))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(JSON_DOCS)
def test_dump_json_matches_the_standard_writer(doc):
    assert dump_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


# SHA-256 over _tree_layer_outputs, taken while the tree walks below still
# recursed or sorted nodes by depth
TREE_LAYER_DIGEST = "65f2183a1c2d322919ae536cbeb46d331b1a18b9cfc7fd1a401af1e8700f0a32"


def _tree_layer_outputs():
    """Text of every tree-layer output on seeded colored trees and on 168
    models: path_model(1..4), then for every graph on 1-5 vertices its
    td_to_tm model and its tm witnesses at d, m in 1-2."""
    rng = random_seeded(33)
    for _ in range(3000):
        ct = random_colored_tree(rng)
        yield colored_tree_to_text(ct)
        yield repr(canonical_code(ct))
        for thresholds in ([1], [2], [0, 1], [1, 2, 4]):
            for modulus in (1, 2, 3):
                red = reduce_tree(ct, thresholds, modulus)
                yield repr((red.tree.parent, red.color))
    models = [path_model(k) for k in range(1, 5)]
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            models.append(td_to_tm(g, tree_depth(g)[1]))
            for d in (1, 2):
                for m in (1, 2):
                    w = tm_membership(g, d, m)
                    if w is not None:
                        models.append(w)
    assert len(models) == 168
    for m in models:
        yield model_to_text(m)
        yield lincw_to_text(tm_to_lincw(m))
        t = tm_to_sc(m)
        text = sc_to_text(t)
        assert sc_to_text(sc_from_text(text)) == text
        yield text
        back = sc_to_tm(t)
        yield repr((back.tree.parent, back.depth, back.colors,
                    sorted(back.leaf_vertex.items()), sorted(back.leaf_color.items()),
                    sorted(back.signature)))


def test_tree_layer_outputs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for text in _tree_layer_outputs():
        digest.update(text.encode())
    assert digest.hexdigest() == TREE_LAYER_DIGEST
