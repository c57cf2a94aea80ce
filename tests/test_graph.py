"""Graph container, text format, isomorphism and twin machinery."""

import functools
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shrubkit
from shrubkit import (
    Graph,
    ValidationError,
    are_isomorphic,
    canonical_form,
    complement_on_subset,
    components,
    enumerate_graphs,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    is_induced_subgraph,
    make_clique,
    make_path,
    neighbourhood_diversity,
    relabel_graph,
    twin_partition,
)
from shrubkit.graph import MAX_TEXT_VERTICES, adjacency_rows

from .helpers import random_graph, random_labelled_graph, random_seeded


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1)])
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2))
    assert g.has_edge(1, 0) and g.has_edge(1, 2)
    assert not g.has_edge(0, 2) and not g.has_edge(3, 0)
    assert g.degree(1) == 2 and g.degree(3) == 0


def test_graph_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValidationError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValidationError):
        Graph(-1)
    with pytest.raises(ValidationError):
        Graph(1, labels={2: {"a"}})
    # empty label sets are dropped, not stored
    assert Graph(1, labels={0: set()}).labels == {}


def test_graph_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges == ((0, 1),)


def test_text_round_trip():
    rng = random_seeded(1)
    for _ in range(50):
        g = random_graph(rng, rng.randint(0, 7))
        if g.n and rng.random() < 0.5:
            g = Graph(g.n, g.edges, {0: {"a", "b"}, g.n - 1: {"a"}})
        assert graph_from_text(graph_to_text(g)) == g


def test_text_rejects_garbage():
    for bad in ("", "x", "2\n0 0", "2\n0 3", "1\nlabel 5 a", "2\n0 1 2"):
        with pytest.raises(ValidationError):
            graph_from_text(bad)


# Run in a child under its own address-space limit, so that a reader which
# allocates before it checks fails there with MemoryError instead of taking
# the machine's memory.
HUGE_READ = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from shrubkit import ValidationError
from shrubkit.cli import main
from shrubkit.graph import graph_from_text
try:
    graph_from_text("99999999999")
except ValidationError as exc:
    print("refused:", exc)
sys.exit(main(["solve", "td", "--graph", sys.argv[1]]))
"""


def test_huge_vertex_count_is_refused_before_allocation(tmp_path):
    pytest.importorskip("resource")
    path = tmp_path / "huge.g"
    path.write_text("99999999999\n0 1\n", encoding="utf-8")
    src = str(Path(shrubkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", HUGE_READ, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.startswith("refused: vertex count 99999999999")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "internal error" not in done.stderr


ROW_READ = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from shrubkit.cli import main
sys.exit(main(["solve", "nd", "--graph", sys.argv[1]]))
"""


def test_wide_rows_are_refused_before_they_are_built(tmp_path):
    # a star centred on the last vertex has n - 1 edges, yet each of its
    # n rows reaches bit n - 1: about 10^10 bits at the vertex bound
    pytest.importorskip("resource")
    n = MAX_TEXT_VERTICES
    path = tmp_path / "star.g"
    path.write_text(f"{n}\n" + "".join(f"{u} {n - 1}\n" for u in range(n - 1)),
                    encoding="utf-8")
    src = str(Path(shrubkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", ROW_READ, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("error: the adjacency rows would take")
    assert "internal error" not in done.stderr


def test_narrow_rows_are_read_at_the_vertex_bound():
    n = MAX_TEXT_VERTICES
    star = "".join(f"0 {v}\n" for v in range(1, n))
    g = graph_from_text(f"{n}\n{star}")
    assert g.degree(0) == n - 1 and g.degree(n - 1) == 1


def test_vertex_count_bound():
    assert graph_from_text(f"{MAX_TEXT_VERTICES}\n0 1\n").n == MAX_TEXT_VERTICES
    with pytest.raises(ValidationError, match="above the reader's bound"):
        graph_from_text(f"{MAX_TEXT_VERTICES + 1}\n")


def test_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert components(g) == [[0, 1], [2], [3, 4]]
    assert components(Graph(0)) == []
    assert components(make_path(3)) == [[0, 1, 2, 3]]


def test_complement_on_subset_involution_and_edges():
    rng = random_seeded(2)
    for _ in range(40):
        g = random_graph(rng, 6)
        x = frozenset(v for v in range(6) if rng.random() < 0.5)
        h = complement_on_subset(g, x)
        assert complement_on_subset(h, x) == g
        for u in range(6):
            for v in range(u + 1, 6):
                flipped = u in x and v in x
                assert h.has_edge(u, v) == (g.has_edge(u, v) ^ flipped)


def test_induced_subgraph_maps_ids():
    g = Graph(5, [(0, 2), (2, 4), (1, 3)], {2: {"m"}})
    sub, ids = induced_subgraph(g, [0, 2, 4])
    assert ids == (0, 2, 4)
    assert sub == Graph(3, [(0, 1), (1, 2)], {1: {"m"}})


def test_relabel_graph_roundtrip():
    rng = random_seeded(3)
    for _ in range(30):
        g = random_graph(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabel_graph(g, perm)
        inverse = [0] * 6
        for old, new in enumerate(perm):
            inverse[new] = old
        assert relabel_graph(h, inverse) == g


def test_canonical_form_is_isomorphism_invariant():
    rng = random_seeded(4)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 6))
        if rng.random() < 0.4:
            g = Graph(g.n, g.edges, {rng.randrange(g.n): {"a"}})
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel_graph(g, perm)
        assert canonical_form(g)[0] == canonical_form(h)[0]


def test_canonical_form_separates_non_isomorphic():
    for n in range(1, 6):
        keys = [canonical_form(g)[0] for g in enumerate_graphs(n)]
        assert len(keys) == len(set(keys))


def test_canonical_form_perm_is_consistent():
    rng = random_seeded(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        key, perm = canonical_form(g)
        relabeled = relabel_graph(g, perm)
        assert canonical_form(relabeled)[0] == key


# SHA-256 over (key, sorted(perm.items())) for the corpus of
# _canonical_corpus, taken from the kernel that tested edges through has_edge
CANONICAL_FORM_DIGEST = (
    "40aa4f900341e4b3dde2e5d90737f83cbb3fb23b2f9a1390c32a5ad89f3915d6"
)


def _canonical_corpus():
    """Every graph on 0..7 vertices under a seeded relabelling, then 3,000
    seeded labelled random graphs on 1..11 vertices."""
    rng = random_seeded(14)
    for n in range(8):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield relabel_graph(g, perm)
    for _ in range(3000):
        yield random_labelled_graph(rng, rng.randint(1, 11))


def test_canonical_form_keys_and_perms_are_pinned():
    digest = hashlib.sha256()
    for g in _canonical_corpus():
        key, perm = canonical_form(g)
        digest.update(repr((key, sorted(perm.items()))).encode() + b"\n")
    assert digest.hexdigest() == CANONICAL_FORM_DIGEST


def test_canonical_form_past_the_recursion_limit():
    # one backtracking level per vertex, more levels than the interpreter's
    # default recursion limit of 1,000 frames
    n = 1100
    key, perm = canonical_form(Graph(n))
    assert key == (n, (((), n),), (0,) * n)
    assert perm == {v: v for v in range(n)}
    path = make_path(n - 1)
    order = list(range(n))
    random_seeded(11).shuffle(order)
    ok, mapping = are_isomorphic(path, relabel_graph(path, order), witness=True)
    assert ok and relabel_graph(path, mapping) == relabel_graph(path, order)


def test_are_isomorphic_with_witness():
    rng = random_seeded(6)
    for _ in range(40):
        g = random_graph(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        h = relabel_graph(g, perm)
        ok, mapping = are_isomorphic(g, h, witness=True)
        assert ok
        assert relabel_graph(g, mapping) == h
    assert not are_isomorphic(make_path(3), make_clique(4))
    # labels must be preserved
    a = Graph(2, [(0, 1)], {0: {"x"}})
    b = Graph(2, [(0, 1)])
    assert not are_isomorphic(a, b)


WRONG_PERM = """
from shrubkit import graph
real = graph.canonical_form
# equal keys, but an identity labelling that is no isomorphism of the paths
graph.canonical_form = lambda g: (real(g)[0], {v: v for v in range(g.n)})
try:
    graph.are_isomorphic(graph.Graph(3, [(0, 1), (1, 2)]),
                         graph.Graph(3, [(0, 1), (0, 2)]), witness=True)
except RuntimeError as exc:
    print("refused:", exc, "debug" if __debug__ else "optimized")
"""


def test_are_isomorphic_checks_its_mapping_under_optimization():
    src = str(Path(shrubkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", WRONG_PERM], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.startswith("refused: equal canonical keys"), done.stderr
    assert done.stdout.rstrip().endswith("optimized")


def test_is_induced_subgraph_matches_brute_force():
    rng = random_seeded(7)
    for _ in range(60):
        g = random_graph(rng, 5)
        h = random_graph(rng, rng.randint(1, 4))
        expect = any(
            all(
                h.has_edge(u, v) == g.has_edge(pick[u], pick[v])
                for u in range(h.n)
                for v in range(u + 1, h.n)
            )
            for pick in itertools.permutations(range(g.n), h.n)
        )
        assert is_induced_subgraph(h, g) == expect
        if expect:
            ok, emb = is_induced_subgraph(h, g, embedding=True)
            assert ok
            for u in range(h.n):
                for v in range(u + 1, h.n):
                    assert h.has_edge(u, v) == g.has_edge(emb[u], emb[v])


def test_is_induced_subgraph_past_the_recursion_limit():
    # one search level per vertex of h, more levels than the interpreter's
    # default recursion limit of 1,000 frames
    n = 1100
    assert is_induced_subgraph(Graph(n), Graph(n))
    ok, emb = is_induced_subgraph(Graph(n), Graph(n), embedding=True)
    assert ok and emb == {v: v for v in range(n)}


def _adjacency_corpus():
    """Every graph on 0..6 vertices under a seeded relabelling, then 400
    seeded labelled random graphs on 1..12 vertices."""
    rng = random_seeded(17)
    for n in range(7):
        for g in enumerate_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            yield relabel_graph(g, perm)
    for _ in range(400):
        yield random_labelled_graph(rng, rng.randint(1, 12))


def test_adjacency_reads_agree_with_the_edge_list():
    """Every adjacency read of a Graph, recomputed in plain Python from its
    edge list."""
    for g in _adjacency_corpus():
        n = g.n
        near = [set() for _ in range(n)]
        for u, v in g.edges:
            near[u].add(v)
            near[v].add(u)
        rows = adjacency_rows(g)
        assert rows is adjacency_rows(g)  # stored once, not rebuilt
        assert len(rows) == n
        for u in range(n):
            for v in range(-2, n + 2):
                assert g.has_edge(u, v) is (v in near[u])
            assert g.degree(u) == len(near[u])
            assert g.neighbors(u) == near[u]
            assert {v for v in range(n) if rows[u] >> v & 1} == near[u]
            assert rows[u] >> n == 0
        seen = set()
        comps = []
        for s in range(n):
            if s not in seen:
                comp, todo = {s}, [s]
                while todo:
                    for w in near[todo.pop()] - comp:
                        comp.add(w)
                        todo.append(w)
                seen |= comp
                comps.append(sorted(comp))
        assert components(g) == comps
        classes = []
        for v in range(n):
            for cls in classes:
                if near[cls[0]] - {v} == near[v] - {cls[0]}:
                    cls.append(v)
                    break
            else:
                classes.append([v])
        assert twin_partition(g) == classes


def test_twin_partition_and_nd():
    # an edge plus isolated vertex: ends of the edge are non-adjacent-twins?
    # they are adjacent twins of each other; the isolated vertex sits alone
    g = Graph(3, [(0, 1)])
    assert sorted(map(sorted, twin_partition(g))) == [[0, 1], [2]]
    assert neighbourhood_diversity(g) == 2
    assert neighbourhood_diversity(make_clique(5)) == 1
    assert neighbourhood_diversity(Graph(4)) == 1
    assert neighbourhood_diversity(make_path(3)) == 4
    # complete bipartite: the two sides
    assert neighbourhood_diversity(Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])) == 2
    assert neighbourhood_diversity(Graph(0)) == 0


def test_twin_partition_is_finest_twin_grouping():
    rng = random_seeded(8)
    for _ in range(40):
        g = random_graph(rng, 6)
        parts = twin_partition(g)
        assert sorted(v for p in parts for v in p) == list(range(6))
        for p in parts:
            for u in p:
                for v in p:
                    if u == v:
                        continue
                    nu = {w for w in range(6) if g.has_edge(u, w)} - {v}
                    nv = {w for w in range(6) if g.has_edge(v, w)} - {u}
                    assert nu == nv


def test_enumerate_graphs_counts():
    # unlabeled graph counts on 1..7 vertices
    counts = [len(enumerate_graphs(n)) for n in range(1, 8)]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]
    seen = {canonical_form(g)[0] for g in enumerate_graphs(5)}
    assert len(seen) == 34


@functools.cache
def _level_keys(n):
    return {canonical_form(h)[0] for h in enumerate_graphs(n)}


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_enumerate_graphs_is_complete(data):
    """Extending by least-degree vertices only still reaches every graph."""
    n = data.draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if data.draw(st.booleans())]
    key, _ = canonical_form(Graph(n, edges))
    assert key in _level_keys(n)
