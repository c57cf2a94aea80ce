"""Exact membership solvers and the minimal-obstruction enumeration."""

import hashlib
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubkit import (
    DomainError,
    Graph,
    ResourceLimitError,
    SignatureConflict,
    ValidationError,
    are_isomorphic,
    enumerate_graphs,
    evaluate_sc,
    induced_subgraph,
    make_biclique,
    make_clique,
    make_path,
    minimal_obstructions,
    neighbourhood_diversity,
    pad_sc,
    realize,
    sc_membership,
    tm_membership,
    tmc_membership,
    tree_depth,
    twin_partition,
    verify,
    verify_k_copied,
)

from shrubkit import solver
from shrubkit.graph import canonical_form, relabel_graph
from shrubkit.sc_model import sc_to_text
from shrubkit.tree_model import model_to_text

from .helpers import (
    deletion_minimal_obstructions,
    exhaustive_sc_membership,
    naive_sc_member_2,
    naive_tm_membership,
    random_graph,
    random_labelled_graph,
    random_seeded,
    unpruned_tm_membership,
    unpruned_tmc_membership,
)

# minimal graphs with neighbourhood diversity above two, frozen once from the
# enumeration and cross-checked below against the diversity oracle
OBSTRUCTIONS_1_2_5 = [
    (4, ((1, 3), (2, 3))),
    (4, ((0, 3), (1, 2), (1, 3), (2, 3))),
    (4, ((0, 2), (1, 3), (2, 3))),
    (5, ((1, 3), (2, 4))),
    (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4))),
]

# SHA-256 of repr(enumerate_graphs(n)) for n = 0..7, taken while every
# one-vertex extension was still canonized
ENUMERATION_DIGESTS = [
    "caf60527d3eaeab06179e2250559eea0087ca86a8ef353477fb70b39190bb6cb",
    "f0bdc6a6239c22bff0391208a6f608f4b3ed4ada4b90f82649d0a8a56b6fe7ed",
    "d4b58ab1141887a5737a7ae6abf3b7b67566dd59e079ea9d4c4f478ec86bcccd",
    "98de9e139577b1166147762b9b9309a86c26af89a3b238095965197951cd922b",
    "2c2c4555bd015e48580903816bee70614bbf762eb2baf28bd99783fd3e3f450f",
    "b3d0893ac4c92b5493b7de7972753af6dcbdb3925b00c842108b348490fa839c",
    "c27edff7356235efb71b3c706e2e8e8876010006d623ad29f603b50568379919",
    "157df5e50fd70809450dfdaa79d5fbe0e06abc42e8084e97907e525da388a947",
]

# repr(minimal_obstructions(d, m, max_n)), frozen at the same time
OBSTRUCTION_REPRS = {
    (1, 1, 5): "[Graph(n=3, edges=[(1, 2)]), Graph(n=3, edges=[(0, 2), (1, 2)])]",
    (1, 2, 6): "[Graph(n=4, edges=[(1, 3), (2, 3)]), "
               "Graph(n=4, edges=[(0, 3), (1, 2), (1, 3), (2, 3)]), "
               "Graph(n=4, edges=[(0, 2), (1, 3), (2, 3)]), "
               "Graph(n=5, edges=[(1, 3), (2, 4)]), "
               "Graph(n=5, edges=[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), "
               "(2, 4), (3, 4)])]",
    (2, 2, 5): "[Graph(n=5, edges=[(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)])]",
}


class TestTmMembership:
    def test_cliques_are_flat(self):
        for n in (1, 2, 5):
            w = tm_membership(make_clique(n), 1, 1)
            assert w is not None and verify(w, make_clique(n))

    def test_four_vertex_path_needs_two_colors(self):
        g = make_path(3)
        for d in range(1, 5):
            assert tm_membership(g, d, 1) is None

    def test_four_cycle_is_flat_with_two_colors(self):
        c4 = make_biclique(2, 2)
        w = tm_membership(c4, 1, 2)
        assert w is not None and verify(w, c4)

    def test_agrees_with_naive_enumerator(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for d in (1, 2):
                    for m in (1, 2):
                        got = tm_membership(g, d, m) is not None
                        assert got == naive_tm_membership(g, d, m), (g, d, m)

    def test_depth_zero(self):
        assert tm_membership(Graph(1), 0, 1) is not None
        assert tm_membership(Graph(2), 0, 1) is None
        with pytest.raises(DomainError, match="empty graph"):
            tm_membership(Graph(0), 1, 1)

    def test_witness_parameters(self):
        rng = random_seeded(71)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 6))
            w = tm_membership(g, 2, 2)
            if w is not None:
                assert verify(w, g)
                assert w.depth == 2 and w.colors == 2

    def test_monotone_in_depth_and_colors(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for d in (1, 2):
                    for m in (1, 2):
                        if tm_membership(g, d, m) is None:
                            continue
                        assert tm_membership(g, d + 1, m) is not None
                        assert tm_membership(g, d, m + 1) is not None

    def test_complement_and_induced_closure(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for d in (1, 2):
                    for m in (1, 2):
                        member = tm_membership(g, d, m) is not None
                        comp = Graph(n, [
                            (u, v) for u in range(n) for v in range(u + 1, n)
                            if not g.has_edge(u, v)
                        ])
                        assert member == (tm_membership(comp, d, m) is not None)
                        if member and n > 1:
                            sub, _ = induced_subgraph(g, range(n - 1))
                            assert tm_membership(sub, d, m) is not None

    def test_flat_membership_is_neighbourhood_diversity(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                nd = neighbourhood_diversity(g)
                for m in range(1, 4):
                    assert (tm_membership(g, 1, m) is not None) == (nd <= m)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            tm_membership(Graph(11), 1, 1)
        with pytest.raises(ResourceLimitError):
            tm_membership(Graph(4), 1, 1, cap=3)


def _text(model):
    return None if model is None else model_to_text(model)


def _assert_walks_agree(g, d, m, ks):
    got = _text(tm_membership(g, d, m))
    assert got == _text(unpruned_tm_membership(g, d, m)), (g, d, m)
    for k in ks:
        copied = tmc_membership(g, d, m, k)
        want = unpruned_tmc_membership(g, d, m, k)
        assert _text(copied and copied.model) == _text(want and want.model), (
            g, d, m, k
        )


@st.composite
def small_graphs(draw, max_n, min_n=1):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, picks) if keep])


@st.composite
def sc_graphs(draw, min_n, max_n, height):
    """A uniform graph, or a planted member of SC(height) with one pair maybe
    toggled, so that both verdicts are common at every size."""
    n = draw(st.integers(min_n, max_n))
    if draw(st.booleans()):
        return draw(small_graphs(n, min_n=n))

    def planted(verts, h):
        # an SC-tree of height <= h over verts: split into child blocks,
        # realize each below, then flip one subset X
        if len(verts) == 1:
            return set()
        if h == 1:
            blocks = [[v] for v in verts]
        else:
            ids = draw(st.lists(st.integers(0, len(verts) - 1),
                                min_size=len(verts), max_size=len(verts)))
            blocks = [[v for v, b in zip(verts, ids) if b == i]
                      for i in sorted(set(ids))]
        edges = set()
        for block in blocks:
            edges |= planted(block, h - 1)
        x = [v for v in verts if draw(st.booleans())]
        return edges ^ {(u, v) for i, u in enumerate(x) for v in x[i + 1:]}

    edges = planted(list(range(n)), height)
    if n > 1 and draw(st.booleans()):
        u = draw(st.integers(0, n - 2))
        edges ^= {(u, draw(st.integers(u + 1, n - 1)))}
    return Graph(n, edges)


class CountingGraph(Graph):
    """A graph that counts its adjacency tests."""

    __slots__ = ()
    edge_tests = 0

    def has_edge(self, u, v):
        CountingGraph.edge_tests += 1
        return Graph.has_edge(self, u, v)


class TestPrunedWalk:
    """The level-by-level pruned chain walk against the unpruned one."""

    def test_every_small_graph_gets_the_unpruned_witness(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for d in (1, 2, 3):
                    for m in (1, 2, 3):
                        _assert_walks_agree(g, d, m, (1, 2))

    def test_sibling_order_decides_the_witness(self):
        # walking sibling blocks last to first finds a different first chain
        # here, for tm at depth 3 and tmc at depth 2, both with two colors
        g = Graph(6, [(0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (1, 5), (2, 4),
                      (2, 5), (3, 5), (4, 5)])
        _assert_walks_agree(g, 3, 2, ())
        _assert_walks_agree(g, 2, 2, (2,))

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        small_graphs(7),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 2),
    )
    def test_random_graphs_get_the_unpruned_witness(self, g, d, m, k):
        # the unpruned walk needs seconds for tmc at d = 3 on 7 vertices
        _assert_walks_agree(g, d, m, (k,) if d < 3 else ())

    def test_no_answer_at_nine_vertices_is_cheap(self):
        # P8 is not in TM_1(3); the unpruned walk spends 4,430,912 adjacency
        # tests on it, the pruned one 99,460
        p8 = make_path(8)
        g = CountingGraph(p8.n, p8.edges)
        CountingGraph.edge_tests = 0
        assert tm_membership(g, 3, 1) is None
        assert CountingGraph.edge_tests < 200_000


def _no_walk(*args):
    raise AssertionError("a NO answer entered the chain walk")


def _walk_verdict(g, depth, m, max_block=None):
    return solver._first_hit(g, m, depth, depth - 1, max_block) is not None


class TestDecider:
    """The colour-first decider against the chain walks and the naive
    enumerator, and NO answers that never enter the walk."""

    def test_agrees_with_the_unpruned_walks(self):
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                for d in (1, 2, 3):
                    for m in (1, 2):
                        if n == 6 and d == 3:
                            # the unpruned walk needs 15 s here; the pruned
                            # walk, tied to it by TestPrunedWalk, stands in
                            want = _walk_verdict(g, d, m)
                        else:
                            want = unpruned_tm_membership(g, d, m) is not None
                        assert solver._decide(g, d, m) == want, (g, d, m)
                if n == 6:
                    continue
                for d in (1, 2):
                    for m in (1, 2):
                        for k in (1, 2, 3):
                            want = unpruned_tmc_membership(g, d, m, k) is not None
                            assert solver._decide(g, d + 1, m, k) == want, (g, d, m, k)

    def test_agrees_with_the_naive_enumerator(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for d in (1, 2, 3):
                    for m in (1, 2):
                        assert solver._decide(g, d, m) == naive_tm_membership(g, d, m)

    def test_depth_past_the_vertex_count(self):
        # with n leaves at most n - 1 levels split a block
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for depth in (n + 1, n + 2):
                    for m in (1, 2):
                        assert solver._decide(g, depth, m) == _walk_verdict(g, depth, m)
                        for k in (1, 2):
                            assert solver._decide(g, depth + 1, m, k) == (
                                _walk_verdict(g, depth + 1, m, k))

    def test_no_answers_never_enter_the_walk(self, monkeypatch):
        no = [(g, d, m) for n in range(1, 6) for g in enumerate_graphs(n)
              for d in (2, 3) for m in (1, 2)
              if unpruned_tm_membership(g, d, m) is None]
        no_copied = [(g, d, m, k) for n in range(1, 6) for g in enumerate_graphs(n)
                     for d in (1, 2) for m in (1, 2) for k in (1, 2)
                     if unpruned_tmc_membership(g, d, m, k) is None]
        assert (len(no), len(no_copied)) == (39, 145)
        flat = [(g, m) for n in range(1, 6) for g in enumerate_graphs(n)
                for m in (1, 2) if unpruned_tm_membership(g, 1, m) is None]
        flat_copied = [(g, m, k) for n in range(1, 6) for g in enumerate_graphs(n)
                       for m in (1, 2) for k in (1, 2)
                       if unpruned_tmc_membership(g, 0, m, k) is None]
        assert (len(flat), len(flat_copied)) == (70, 200)

        monkeypatch.setattr(solver, "_first_hit", _no_walk)
        assert tm_membership(make_path(8), 3, 1) is None
        for g, d, m in no:
            assert tm_membership(g, d, m) is None
        for g, d, m, k in no_copied:
            assert tmc_membership(g, d, m, k) is None
        for g, m in flat:
            assert tm_membership(g, 1, m) is None
        for g, m, k in flat_copied:
            assert tmc_membership(g, 0, m, k) is None

    def test_depth_one_is_neighbourhood_diversity(self):
        # the walk still runs the coloring search at depth 1, so it is an
        # independent path, and its least coloring numbers the twin classes
        # from 1 in first-occurrence order
        cases = 0
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                twins = twin_partition(g)
                assert neighbourhood_diversity(g) == len(twins)
                index = [0] * n
                for i, members in enumerate(twins, 1):
                    for v in members:
                        index[v] = i
                for m in range(1, 5):
                    hit = solver._first_hit(g, m, 1, 0, None)
                    want = len(twins) <= m
                    assert solver._decide(g, 1, m) == want == (hit is not None), (g, m)
                    if hit is not None:
                        assert hit == ([], index), (g, m)
                    cases += 1
        assert cases == 5_008

    def test_agrees_with_the_walk_on_seven_and_eight_vertices(self):
        rng = random_seeded(20)
        verdicts = []
        for _ in range(60):
            g = random_graph(rng, rng.choice((7, 8)))
            d, m = rng.randint(2, 3), rng.randint(1, 3)
            max_block = rng.choice((None, 1, 2, 3))
            got = solver._decide(g, d, m, max_block)
            assert got == _walk_verdict(g, d, m, max_block), (g, d, m, max_block)
            verdicts.append(got)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_colors_past_the_vertex_count(self):
        # a canonical coloring of n vertices uses at most n colors, so a
        # huge m must neither change a verdict nor size anything by m
        big = 10**6
        start = time.perf_counter()
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for d in (1, 2, 3):
                    assert (tm_membership(g, d, big) is None) == (
                        tm_membership(g, d, n) is None), (g, d)
                    for k in (1, 2):
                        assert (tmc_membership(g, d, big, k) is None) == (
                            tmc_membership(g, d, n, k) is None), (g, d, k)
        for d in (1, 2):
            assert minimal_obstructions(d, big, 4) == minimal_obstructions(d, 4, 4)
        assert time.perf_counter() - start < 10.0

    def test_ten_vertex_no_answers_are_fast(self, monkeypatch):
        # the chain walk took 21.9 s and 44.2 s on these two
        g = random_graph(random_seeded(99), 10)
        monkeypatch.setattr(solver, "_first_hit", _no_walk)
        start = time.perf_counter()
        assert tm_membership(g, 3, 2) is None
        assert tm_membership(g, 4, 2) is None
        assert time.perf_counter() - start < 10.0


def _count_calls(monkeypatch, name):
    """A one-item list counting the calls of solver's function name."""
    calls = [0]
    func = getattr(solver, name)

    def counting(*args):
        calls[0] += 1
        return func(*args)

    monkeypatch.setattr(solver, name, counting)
    return calls


def _count_searches(monkeypatch):
    """A one-item list counting the calls of the coloring search."""
    return _count_calls(monkeypatch, "_search_coloring")


class TestDeciderWork:
    """Prefixes tested by the decider, one `_drive` call each: it grows a
    coloring vertex by vertex and cuts every prefix that admits no model.
    The enumerator of complete colorings it replaced tried about 44,000
    colorings at (2, 4).  Counts, not times."""

    def test_ten_vertex_no_answers(self, monkeypatch):
        g = random_graph(random_seeded(99), 10)
        calls = _count_calls(monkeypatch, "_drive")
        assert not solver._decide(g, 3, 3)
        assert calls[0] == 498
        calls[0] = 0
        assert not solver._decide(g, 2, 4)
        assert calls[0] == 526


class TestParameters:
    def test_non_integers_are_refused_at_once(self):
        p3 = make_path(3)
        for solve in (lambda: tm_membership(p3, 2.5, 1),
                      lambda: tm_membership(p3, 2, 1.5),
                      lambda: tm_membership(p3, 2, 1, cap=None),
                      lambda: tmc_membership(p3, 1, 1, 1.5),
                      lambda: sc_membership(p3, 1.5),
                      lambda: enumerate_graphs(2.5),
                      lambda: minimal_obstructions(1, 2, 2.5)):
            with pytest.raises(DomainError, match="must be an integer"):
                solve()

    def test_bools_pass(self):
        assert tm_membership(make_clique(2), True, True) is not None
        assert tmc_membership(make_clique(2), False, True, 2) is not None


# the witness for G(10) at (4, 3), taken from the walk over complete
# partitions (1,340,897 coloring searches): tree.parent, the leaf colors by
# vertex, and the signature
G10_WITNESS = (
    [-1, 0, 0, 1, 2, 1, 3, 3, 4, 4, 3, 5, 6, 7, 8, 9, 9, 7, 8, 7, 10, 11],
    [1, 2, 3, 1, 2, 3, 2, 1, 3, 3],
    [(1, 1, 2), (1, 1, 4), (1, 2, 2), (1, 2, 4), (1, 3, 1), (1, 3, 4),
     (2, 1, 2), (2, 1, 4), (2, 2, 4), (2, 3, 2), (2, 3, 3), (3, 1, 1),
     (3, 1, 4), (3, 2, 2), (3, 2, 3), (3, 3, 2)],
)


class TestWalkWork:
    """Coloring searches made by the chain walk, which cuts each partial
    partition that admits no coloring and keeps a coloring while it still
    fits.  The walk over complete partitions, which searched afresh on each
    one, is the reference.  Counts, not times."""

    def test_path_on_six_vertices(self, monkeypatch):
        calls = _count_searches(monkeypatch)
        assert tm_membership(make_path(5), 4, 2) is not None
        assert calls[0] == 84 and calls[0] < 390 / 3

    def test_nine_vertices(self, monkeypatch):
        calls = _count_searches(monkeypatch)
        assert tm_membership(random_graph(random_seeded(99), 9), 4, 3) is not None
        assert calls[0] == 5_148 and calls[0] < 78_894 / 10

    def test_ten_vertices_keep_their_witness(self, monkeypatch):
        g = random_graph(random_seeded(99), 10)
        calls = _count_searches(monkeypatch)
        w = tm_membership(g, 4, 3)
        assert calls[0] == 9_365
        parent, colors, signature = G10_WITNESS
        assert list(w.tree.parent) == parent
        assert sorted(w.leaf_vertex.items()) == [(12 + v, v) for v in range(10)]
        assert [w.leaf_color[12 + v] for v in range(10)] == colors
        assert sorted(w.signature) == signature
        assert verify(w, g)

    def test_ten_vertex_edge_tests(self):
        # a rerun of the coloring search resumes at the placed vertex; rerun
        # from vertex 0 it took 2,525,231 edge tests
        g = random_graph(random_seeded(99), 10)
        g = CountingGraph(g.n, g.edges)
        CountingGraph.edge_tests = 0
        assert tm_membership(g, 4, 3) is not None
        assert CountingGraph.edge_tests == 1_709_088


# SHA-256 over _witness_dump of every answer in _digest_calls, taken before
# the witness assembly was rewritten to sign its tree with infer_signature
WITNESS_DIGEST = "e6753194255a8b62b7bb1617a0022b0767a427c1f66588bf03e5d2126ac87559"


def _witness_dump(extra, w):
    # values, not pickle bytes: a frozenset's iteration order may differ
    # between equal signatures
    if w is None:
        return b"None"
    model = w.model if extra else w
    return repr((extra, model.tree.parent, model.depth, model.colors,
                 sorted(model.leaf_vertex.items()),
                 sorted(model.leaf_color.items()),
                 sorted(model.signature))).encode()


def _digest_calls():
    """(extra, witness) for every graph on 1-5 vertices, edge masks over the
    pairs in itertools.combinations order: tm at d in 1-3 and m in 1-2, then
    tmc at d in 1-2, m in 1-2 and k = 2, with extra = (d, m, k)."""
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for d in (1, 2, 3):
                for m in (1, 2):
                    yield (), tm_membership(g, d, m)
            for d in (1, 2):
                for m in (1, 2):
                    yield (d, m, 2), tmc_membership(g, d, m, 2)


class TestWitnessAssembly:
    def test_witnesses_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        calls = 0
        for extra, w in _digest_calls():
            digest.update(_witness_dump(extra, w))
            calls += 1
        assert calls == 10_990
        assert digest.hexdigest() == WITNESS_DIGEST

    def test_a_coloring_the_graph_refutes_is_caught(self):
        # the path on three vertices with one level and one color: the pairs
        # (0, 1) and (0, 2) share a class, but only the first is an edge
        with pytest.raises(SignatureConflict):
            solver._build_witness(make_path(2), 1, 1, [], [1, 1, 1])


def _sc_dump(t):
    """Pre-order (X, child count) and leaf entries, walked without recursion."""
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(("leaf", node.vertex))
        else:
            out.append((sorted(node.x), len(node.children)))
            stack.extend(reversed(node.children))
    return repr(out).encode()


class TestDeepSearches:
    """The chain walk, the coloring search and the SC recursion run on
    explicit stacks, so a large depth or vertex count is answered, not a
    RecursionError."""

    def test_tm_at_depth_1000(self):
        w = tm_membership(make_clique(3), 1000, 1)
        assert w is not None and w.depth == 1000
        assert realize(w) == make_clique(3)

    def test_sc_at_height_1000(self):
        # every level above 1 wraps one no-op node (X a single vertex)
        w = sc_membership(make_clique(2), 1000)
        assert w is not None and w.height == 1000
        assert w.leaf_vertices == {0, 1}
        assert evaluate_sc(w) == make_clique(2)
        assert evaluate_sc(pad_sc(w, 1010)) == make_clique(2)

    def test_tm_on_1100_vertices(self):
        g = Graph(1100)
        for d in (1, 2):
            w = tm_membership(g, d, 1, cap=2000)
            assert w is not None and verify(w, g)

    def test_depth_300_witnesses_are_unchanged(self):
        # digests taken while both searches still recursed, where d = 300 fit
        tm = tm_membership(make_clique(3), 300, 1)
        sc = sc_membership(make_clique(2), 300)
        assert hashlib.sha256(_witness_dump((), tm)).hexdigest() == (
            "a8c02a76fd8829fa2ad17d83a7d3cc571c3df18eb31d00b1148a73b50bce3a2e")
        assert hashlib.sha256(_sc_dump(sc)).hexdigest() == (
            "18c833f5fc781bd397a80c5d0a79e6b63e79ce93d8528ae1756450b14237f118")


class TestEmptyGraph:
    def test_every_membership_solver_refuses_it(self):
        for solve in (lambda: tm_membership(Graph(0), 1, 1),
                      lambda: tm_membership(Graph(0), 0, 1),
                      lambda: tmc_membership(Graph(0), 1, 1, 1),
                      lambda: sc_membership(Graph(0), 1)):
            with pytest.raises(DomainError, match="empty graph"):
                solve()


class TestTmcMembership:
    def test_perfect_matching(self):
        g = Graph(6, [(0, 3), (1, 4), (2, 5)])
        w = tmc_membership(g, 1, 2, 2)
        assert w is not None
        assert verify_k_copied(w.model, 1, 2, 2)
        assert realize(w.model) == g

    def test_one_copied_equals_plain_membership(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for d in (1, 2):
                    for m in (1, 2):
                        plain = tm_membership(g, d, m) is not None
                        copied = tmc_membership(g, d, m, 1) is not None
                        assert plain == copied, (g, d, m)

    def test_depth_zero_clique_bucket(self):
        w = tmc_membership(make_clique(3), 0, 1, 3)
        assert w is not None
        assert realize(w.model) == make_clique(3)
        assert tmc_membership(make_clique(3), 0, 1, 2) is None

    def test_unbounded_bucket_equals_next_depth(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                wide = tmc_membership(g, 1, 2, g.n) is not None
                deep = tm_membership(g, 2, 2) is not None
                assert wide == deep, g

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            tmc_membership(Graph(11), 1, 1, 2)


class TestScMembership:
    def test_single_vertex_at_height_zero(self):
        w = sc_membership(Graph(1), 0)
        assert w is not None and evaluate_sc(w) == Graph(1)

    def test_edge_needs_one_level(self):
        k2 = make_clique(2)
        assert sc_membership(k2, 0) is None
        w = sc_membership(k2, 1)
        assert w is not None and evaluate_sc(w) == k2

    def test_three_vertex_path_needs_two_levels(self):
        g = make_path(2)
        assert sc_membership(g, 1) is None
        w = sc_membership(g, 2)
        assert w is not None and evaluate_sc(w) == g

    def test_agrees_with_definition_up_to_height_two(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for h in (0, 1, 2):
                    got = sc_membership(g, h) is not None
                    assert got == naive_sc_member_2(g, h), (g, h)

    def test_witness_is_exact_and_within_budget(self):
        rng = random_seeded(73)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 6))
            w = sc_membership(g, 3)
            if w is not None:
                assert evaluate_sc(w) == g
                assert w.height <= 3

    def test_a_wrong_witness_is_refused(self, monkeypatch):
        # a fault that swaps leaves 0 and 1 keeps the tree well formed
        relabel = solver._relabel_sc

        def swapped(t, mapping):
            w = relabel(t, mapping)
            swap = {0: 1, 1: 0} if {0, 1} <= w.leaf_vertices else {}
            return relabel(w, {v: swap.get(v, v) for v in w.leaf_vertices})

        monkeypatch.setattr(solver, "_relabel_sc", swapped)
        with pytest.raises(ValidationError, match="SC witness"):
            sc_membership(make_path(3), 3)

    def test_monotone_in_height(self):
        rng = random_seeded(74)
        for _ in range(20):
            g = random_graph(rng, 5)
            if sc_membership(g, 2) is not None:
                assert sc_membership(g, 3) is not None

    # sizes up to 5 are covered exhaustively above
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(sc_graphs(6, 9, 1))
    def test_agrees_with_definition_at_height_one_up_to_nine_vertices(self, g):
        for h in (0, 1):
            assert (sc_membership(g, h) is not None) == naive_sc_member_2(g, h)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(sc_graphs(6, 7, 2))
    def test_agrees_with_definition_at_height_two_up_to_seven_vertices(self, g):
        assert (sc_membership(g, 2) is not None) == naive_sc_member_2(g, 2)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            sc_membership(Graph(10), 1)
        with pytest.raises(ResourceLimitError):
            sc_membership(Graph(4), 1, cap=3)


def _sc_text(t):
    return None if t is None else sc_to_text(t)


def _assert_sc_witnesses_agree(g, depth):
    got = sc_membership(g, depth)
    want = exhaustive_sc_membership(g, depth)
    # SCTree equality compares child order, which sc_to_text sorts away
    assert got == want, (g, depth)
    assert _sc_text(got) == _sc_text(want), (g, depth)


def _count_canonical_forms(monkeypatch):
    """A list that gets one entry, the adjacency rows, per canonical form
    the solver makes."""
    calls = []
    func = solver.canonical_rows

    def counting(*args):
        calls.append(args[0])
        return func(*args)

    monkeypatch.setattr(solver, "canonical_rows", counting)
    return calls


def _count_graphs(monkeypatch):
    """A one-item list counting the Graphs constructed."""
    calls = [0]
    post_init = Graph.__post_init__

    def counting(g):
        calls[0] += 1
        post_init(g)

    monkeypatch.setattr(Graph, "__post_init__", counting)
    return calls


def _count_decides(monkeypatch):
    calls = []
    decide = solver._decide

    def counting(g, *args):
        calls.append(g.n)
        return decide(g, *args)

    monkeypatch.setattr(solver, "_decide", counting)
    return calls


class TestScClosedForms:
    """Heights 0 and 1 decided in closed form, against the complement-set
    loop run at every height."""

    def test_every_small_graph_gets_the_exhaustive_witness(self):
        rng = random_seeded(75)
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                perm = list(range(n))
                rng.shuffle(perm)
                h = relabel_graph(g, dict(enumerate(perm)))
                for depth in range(4):
                    _assert_sc_witnesses_agree(h, depth)

    def test_random_six_vertex_graphs_get_the_exhaustive_witness(self):
        rng = random_seeded(76)
        for _ in range(10):
            _assert_sc_witnesses_agree(random_graph(rng, 6), 2)

    def test_labelled_graphs_get_the_exhaustive_witness(self):
        # canonical_form respects labels, so the leaves of a witness come in
        # a label-aware order; component graphs that drop the labels miss it
        rng = random_seeded(77)
        for _ in range(300):
            g = random_labelled_graph(rng, rng.randint(1, 5))
            for depth in range(4):
                _assert_sc_witnesses_agree(g, depth)

    def test_height_two_at_the_default_cap_is_cheap(self, monkeypatch):
        # not in SC(2); the complement-set loop at height 1 spends 248,067
        # canonical forms on this graph, the closed form 1
        calls = _count_canonical_forms(monkeypatch)
        g = random_graph(random_seeded(99), solver.DEFAULT_SC_CAP)
        assert sc_membership(g, 2) is None
        assert len(calls) <= 10

    def test_height_three_on_seven_vertices_is_cheap(self, monkeypatch):
        # not in SC(3); 114,545 canonical forms without the closed forms,
        # 163 with them
        calls = _count_canonical_forms(monkeypatch)
        g = random_graph(random_seeded(99), 7)
        assert sc_membership(g, 3) is None
        assert len(calls) <= 1_000


# SHA-256 over _sc_dump of every answer in _sc_digest_calls, taken while
# every complement set X was tried in mask order
SC_WITNESS_DIGEST = "f84740d883f5d2a0c11276b6b3c2797fc163ca47c9bd459f88d1c71a919a453c"


def _sc_digest_calls():
    """sc_membership at heights 0-3 on every graph of 1-6 vertices, each
    relabelled by a seeded permutation."""
    rng = random_seeded(78)
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel_graph(g, dict(enumerate(perm)))
            for depth in range(4):
                yield sc_membership(h, depth)


class TestScPrefixSearch:
    """The least complement set found one vertex at a time, with each
    prefix cut as soon as a component of its flip leaves SC(h - 1).  The
    loop over all 2^n sets is the reference.  Counts, not times."""

    def test_witnesses_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        calls = 0
        for w in _sc_digest_calls():
            digest.update(b"None" if w is None else _sc_dump(w))
            calls += 1
        assert calls == 832
        assert digest.hexdigest() == SC_WITNESS_DIGEST

    def test_nine_vertex_search_steps(self, monkeypatch):
        # the loop took about 14 s at height 3 and more than 870 s at 4
        g = random_graph(random_seeded(99), 9)
        calls = _count_calls(monkeypatch, "_sc_prefix")
        assert sc_membership(g, 3) is None
        assert calls[0] == 1_997
        calls[0] = 0
        assert sc_membership(g, 4) is not None
        assert calls[0] == 55_792

    def test_only_the_checked_witness_becomes_a_graph(self, monkeypatch):
        # the recursion runs on adjacency rows, and verify_sc evaluates the
        # witness to the one Graph of a YES; with a Graph per canonical form,
        # flip and component this took 18, 1 and 899
        g = random_graph(random_seeded(99), 9)
        for h, depth, want in ((g, 4, 1), (g, 3, 0), (make_clique(2), 300, 1)):
            calls = _count_graphs(monkeypatch)
            sc_membership(h, depth)
            assert calls[0] == want, depth

    def test_nine_vertices_at_height_four(self):
        g = random_graph(random_seeded(99), solver.DEFAULT_SC_CAP)
        start = time.perf_counter()
        w = sc_membership(g, 4)
        assert time.perf_counter() - start < 10.0
        assert w is not None and w.height <= 4
        assert evaluate_sc(w) == g

    def test_heights_nest_and_sit_inside_tree_models(self):
        # SC(h) is in SC(h + 1), and sc_to_tm puts SC(h) in TM(h, 2^h)
        inclusions = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                member = [sc_membership(g, h) is not None for h in range(4)]
                assert member == sorted(member), g
                for h in range(1, 4):
                    if member[h]:
                        assert solver._decide(g, h, 2**h), (g, h)
                        inclusions += 1
        assert inclusions == 343


class TestGraphEnumeration:
    def test_levels_are_pinned(self):
        for n, digest in enumerate(ENUMERATION_DIGESTS):
            got = hashlib.sha256(repr(enumerate_graphs(n)).encode()).hexdigest()
            assert got == digest, n

    def test_only_least_degree_extensions_are_canonized(self, monkeypatch):
        # canonizing every extension took 11,291 calls up to level 7
        calls = _count_canonical_forms(monkeypatch)
        enumerate_graphs(7)
        assert len(calls) == 3132

    def test_no_state_survives_a_call(self, monkeypatch):
        # a process-wide cache of levels once answered the second call with
        # no canonical form at all
        calls = _count_canonical_forms(monkeypatch)
        for _ in range(2):
            calls.clear()
            enumerate_graphs(5)
            assert len(calls) == 1 + 2 + 5 + 16 + 70


def _keys(graphs):
    return sorted(canonical_form(g)[0] for g in graphs)


class TestLevels:
    """`_levels` grows any hereditary class, not only TM(d, m)."""

    def test_tree_depth_two(self):
        got = solver._levels(4, lambda g: tree_depth(g)[0] <= 2)[1]
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert _keys(got) == _keys([make_clique(3), make_path(3), c4])

    def test_sc_height_one(self):
        got = solver._levels(4, lambda g: sc_membership(g, 1) is not None)[1]
        assert _keys(got) == _keys([make_path(2), Graph(4, [(0, 1), (2, 3)])])

    def test_sc_height_two_up_to_seven_vertices(self):
        got = solver._levels(7, lambda g: sc_membership(g, 2) is not None)[1]
        assert [g.n for g in got] == [5] * 7 + [6] * 3

    def test_tree_depth_three_up_to_seven_vertices(self):
        got = solver._levels(7, lambda g: tree_depth(g)[0] <= 3)[1]
        assert len(got) == 22
        assert all(tree_depth(g)[0] == 4 for g in got)

    def test_diversity_two_is_depth_one_with_two_colours(self):
        got = solver._levels(6, lambda g: neighbourhood_diversity(g) <= 2)[1]
        assert got == minimal_obstructions(1, 2, 6)

    def test_every_graph_is_the_enumeration(self):
        for n in range(7):
            assert solver._levels(n, lambda g: True) == (enumerate_graphs(n), [])


class TestObstructions:
    def test_frozen_outputs(self):
        for args, expected in OBSTRUCTION_REPRS.items():
            assert repr(minimal_obstructions(*args)) == expected, args

    def test_agrees_with_the_deletion_loop(self):
        for args in ((0, 1, 4), (1, 1, 6), (1, 3, 6), (2, 1, 6), (2, 2, 5),
                     (3, 2, 5)):
            want = deletion_minimal_obstructions(*args)
            assert minimal_obstructions(*args) == want, args

    def test_cold_run_canonizes_only_extensions_of_members(self, monkeypatch):
        # enumerating every graph up to 6 vertices took 499 canonical forms,
        # and canonizing every deletion that missed the memo took 140
        calls = _count_canonical_forms(monkeypatch)
        assert repr(minimal_obstructions(1, 2, 6)) == OBSTRUCTION_REPRS[1, 2, 6]
        assert len(calls) == 84

    def test_decides_each_member_class_and_obstruction_once(self, monkeypatch):
        # 1 + 2 + 4 + 8 + 10 + 14 classes of neighbourhood diversity <= 2 on
        # 1-6 vertices, and 5 obstructions; the enumeration decided 76
        calls = _count_decides(monkeypatch)
        assert repr(minimal_obstructions(1, 2, 6)) == OBSTRUCTION_REPRS[1, 2, 6]
        assert len(calls) == 39 + 5

    def test_no_more_work_where_every_smaller_graph_is_a_member(self, monkeypatch):
        # every graph on 4 vertices is in TM(2, 2), so level 5 is every graph
        # on 5 vertices and none of them can be skipped
        forms = _count_canonical_forms(monkeypatch)
        decides = _count_decides(monkeypatch)
        assert repr(minimal_obstructions(2, 2, 5)) == OBSTRUCTION_REPRS[2, 2, 5]
        assert len(forms) == 94 and len(decides) <= 52

    def test_only_new_classes_become_graphs(self, monkeypatch):
        # the empty graph and one Graph per class decided: 1 + 39 + 5 for
        # (1, 2, 6), and 1 + 52 for (2, 2, 5), where every extension and
        # every deletion that missed the memo took 317 and 147
        for args, want in (((1, 2, 6), 45), ((2, 2, 5), 53)):
            calls = _count_graphs(monkeypatch)
            assert repr(minimal_obstructions(*args)) == OBSTRUCTION_REPRS[args]
            assert calls[0] == want, args

    def test_degree_sequences_refuse_deletions_before_they_are_canonized(
            self, monkeypatch):
        # a deletion whose sorted degree sequence is no member's is refused
        # without a canonical form; with no such cut this took 3,541
        calls = _count_canonical_forms(monkeypatch)
        assert len(minimal_obstructions(2, 2, 7)) == 61
        assert len(calls) == 3_512

    def test_agrees_with_the_deletion_loop_up_to_seven_vertices(self, monkeypatch):
        grid = [(d, m) for d in range(4) for m in range(1, 4)]
        got = {(d, m): minimal_obstructions(d, m, 7) for d, m in grid}
        for d, m in grid:
            assert got[d, m] == deletion_minimal_obstructions(d, m, 7), (d, m)

    def test_bad_depth_or_colour_count_is_refused(self):
        for args in ((-1, 1, 3), (1, 0, 3)):
            with pytest.raises(DomainError, match="need d >= 0 and m >= 1"):
                minimal_obstructions(*args)

    def test_depth_zero_holds_only_the_single_vertex(self):
        assert minimal_obstructions(0, 1, 4) == [Graph(2), Graph(2, [(0, 1)])]

    def test_verdicts_need_no_witness(self, monkeypatch):
        def no_witness(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(solver, "_build_witness", no_witness)
        monkeypatch.setattr(solver, "_first_hit", no_witness)
        assert repr(minimal_obstructions(2, 2, 5)) == OBSTRUCTION_REPRS[2, 2, 5]

    def test_tiny_range_is_empty(self):
        assert minimal_obstructions(1, 1, 2) == []

    def test_flat_one_color_obstructions(self):
        out = minimal_obstructions(1, 1, 4)
        assert len(out) == 2
        path3 = make_path(2)
        k2_k1 = Graph(3, [(0, 1)])
        assert any(are_isomorphic(g, path3) for g in out)
        assert any(are_isomorphic(g, k2_k1) for g in out)
        # no obstruction has more than three vertices for this class
        assert all(g.n == 3 for g in out)

    def test_obstructions_are_minimal_non_members(self):
        for g in minimal_obstructions(1, 1, 4):
            assert tm_membership(g, 1, 1) is None
            for v in range(g.n):
                sub, _ = induced_subgraph(g, [u for u in range(g.n) if u != v])
                assert tm_membership(sub, 1, 1) is not None

    def test_frozen_snapshot_1_2_5(self):
        out = minimal_obstructions(1, 2, 5)
        assert [(g.n, g.edges) for g in out] == OBSTRUCTIONS_1_2_5

    def test_snapshot_matches_diversity_oracle(self):
        expected = []
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                if neighbourhood_diversity(g) <= 2:
                    continue
                if all(
                    neighbourhood_diversity(
                        induced_subgraph(g, [u for u in range(n) if u != v])[0]
                    ) <= 2
                    for v in range(n)
                ):
                    expected.append(g)
        out = minimal_obstructions(1, 2, 5)
        assert len(out) == len(expected)
        for g in out:
            assert any(are_isomorphic(g, h) for h in expected)
