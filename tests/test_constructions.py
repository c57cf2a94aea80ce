"""Named example graphs and their hand-built models."""

import pytest

from shrubkit import (
    DomainError,
    Graph,
    ResourceLimitError,
    biclique_model,
    clique_model,
    components,
    make_biclique,
    make_clique,
    make_path,
    path_model,
    realize,
    subdivided_matching_biclique,
    subdivided_matching_biclique_model,
    tm_membership,
    verify,
)


class TestGraphFamilies:
    def test_paths(self):
        assert make_path(0) == Graph(1)
        assert make_path(3) == Graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_cliques(self):
        assert make_clique(1) == Graph(1)
        assert make_clique(3) == Graph(3, [(0, 1), (0, 2), (1, 2)])

    def test_bicliques(self):
        g = make_biclique(2, 3)
        assert g.n == 5
        assert sorted(g.edges) == [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]


class TestParameters:
    def test_non_integers_are_refused(self):
        for build in (lambda: make_path(2.5),
                      lambda: make_clique(None),
                      lambda: make_biclique(2, 1.0),
                      lambda: clique_model("3"),
                      lambda: biclique_model(None, 1),
                      lambda: path_model(1.5),
                      lambda: path_model(2, cap=None)):
            with pytest.raises(DomainError, match="must be an integer"):
                build()


class TestFlatModels:
    def test_clique_model(self):
        for n in (1, 2, 5):
            m = clique_model(n)
            assert m.depth == 1 and m.colors == 1
            assert verify(m, make_clique(n))

    def test_biclique_model(self):
        for a, b in ((1, 1), (2, 3), (4, 2)):
            m = biclique_model(a, b)
            assert m.depth == 1 and m.colors == 2
            assert verify(m, make_biclique(a, b))


class TestSubdividedMatchingBiclique:
    def test_graph_shape(self):
        g = subdivided_matching_biclique()
        assert g.n == 9
        assert len(g.edges) == 12
        assert len(components(g)) == 1
        # matching pairs are joined only through their subdividers
        for u in range(3):
            for v in range(3, 6):
                assert g.has_edge(u, v) == (v - 3 != u)
        for i in range(3):
            assert g.has_edge(i, 6 + i) and g.has_edge(3 + i, 6 + i)
        degrees = sorted(g.degree(v) for v in range(9))
        assert degrees == [2, 2, 2, 3, 3, 3, 3, 3, 3]

    def test_model_verifies_at_depth_two(self):
        g, m = subdivided_matching_biclique_model()
        assert g == subdivided_matching_biclique()
        assert m.depth == 2 and m.colors == 3
        assert verify(m, g)

    def test_not_flat_even_with_many_colors(self):
        g = subdivided_matching_biclique()
        for colors in range(1, 5):
            assert tm_membership(g, 1, colors) is None


class TestPathModel:
    def test_small_sizes_are_exact(self):
        for m, n in ((1, 3), (2, 9), (3, 21)):
            model = path_model(m)
            assert model.colors == m and model.depth == 2 * m + 1
            assert model.n == n
            assert verify(model, make_path(n - 1))

    def test_deterministic(self):
        a, b = path_model(2), path_model(2)
        assert a == b

    def test_end_vertices_have_private_parents(self):
        # both path ends sit alone under their parents at every size
        for m in (1, 2, 3):
            model = path_model(m)
            n = model.n
            by_vertex = {v: leaf for leaf, v in model.leaf_vertex.items()}
            for end in (0, n - 1):
                leaf = by_vertex[end]
                parent = model.tree.parent[leaf]
                assert model.tree.children(parent) == (leaf,)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            path_model(5)
        with pytest.raises(ResourceLimitError):
            path_model(3, cap=2)
