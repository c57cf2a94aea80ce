"""The benchmark's workloads: input files, command lists and output checks.

A workload is built from a seed alone.  `build(name, seed)` returns the input
files a pass writes before its first command, and the commands it runs, in
order, through `shrubkit.cli.main`.  Each command carries its pinned exit
code (None when the verdict of a seeded instance is not known beforehand)
and an optional check that runs after the timed pass, against the files the
pass left behind.

Inputs are written with the benchmark's own writers, so a change to the
library's serializers cannot change what the program is given.

Where one seeded instance would carry a large share of a pass, the seed
draws a vertex order of a fixed base graph instead of a fresh random graph.
The bytes in and out still change with the seed, while the work of the
relabelling-invariant solvers (SC recursion, tree-depth DP) does not, so
runs under different seeds stay comparable.  Many small seeded graphs, as in
cli-sweep, are drawn fresh: their cost averages out.
"""

from __future__ import annotations

import json
import random
from collections import deque
from typing import Callable, NamedTuple

WORKLOADS = ("tm-search", "sc-canon", "mso-logic", "cli-sweep")

# Seeds whose digests are stored in golden.json: the default seed and one
# seed held out of all tuning.
GOLDEN_SEEDS = (0, 9)


class Cmd(NamedTuple):
    argv: tuple
    rc: int | None
    check: Callable | None = None


# ---------------------------------------------------------------------------
# input graphs, as (n, sorted edge list)


def path(k):
    return k + 1, [(i, i + 1) for i in range(k)]


def cycle(n):
    return n, sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def k4_pendant():
    """K4 on 0..3 with vertex 4 hanging off vertex 3: not 3-colourable."""
    return 5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]


def biclique(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def gnp(rng, n, p):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def relabel(graph, rng):
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def graph_text(graph):
    n, edges = graph
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


def rng_for(seed, tag):
    # str seeds hash with SHA-512, so draws do not depend on PYTHONHASHSEED
    return random.Random(f"{seed}:{tag}")


# Fixed base graphs for the heavy seeded instances (see the module docstring).
SC_BASES = (gnp(rng_for("base", "sc6-4"), 6, 0.5), gnp(rng_for("base", "sc6-5"), 6, 0.5))
MSO_BASE = gnp(rng_for("base", "mso12-0"), 12, 0.3)  # connected
TD_BASE = gnp(rng_for("base", "td"), 16, 0.3)


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a reason


def _read(name):
    with open(name, encoding="utf-8") as fh:
        return fh.read()


def _graph(name):
    from shrubkit.graph import graph_from_text

    return graph_from_text(_read(name))


def check_tm(graph, out, d, m):
    def check(rc, stdout):
        if rc != 0:
            return None
        from shrubkit.tree_model import model_from_text, verify

        model = model_from_text(_read(out))
        if d is not None and (model.depth, model.colors) != (d, m):
            return f"witness has depth {model.depth} and {model.colors} colors"
        return None if verify(model, _graph(graph)) else "witness does not realize the graph"

    return check


def check_tmc(graph, out, d, m, k):
    def check(rc, stdout):
        from shrubkit.tree_model import model_from_text, verify, verify_k_copied

        model = model_from_text(_read(out))
        if not verify_k_copied(model, d, m, k):
            return "witness is not a k-copied model"
        return None if verify(model, _graph(graph)) else "witness does not realize the graph"

    return check


def check_sc(graph, out, height):
    def check(rc, stdout):
        if rc != 0:
            return None
        from shrubkit.sc_model import evaluate_sc, sc_from_text

        tree = sc_from_text(_read(out))
        if tree.height > height:
            return f"witness height {tree.height} exceeds {height}"
        return None if evaluate_sc(tree) == _graph(graph) else "witness does not evaluate to the graph"

    return check


def check_td(graph, out):
    def check(rc, stdout):
        from shrubkit.depth import forest_from_text, validate_td

        forest = forest_from_text(_read(out))
        if not validate_td(_graph(graph), forest):
            return "forest is not an elimination forest"
        if stdout != f"TREE-DEPTH {forest.height + 1}\n":
            return "verdict disagrees with the forest height"
        return None

    return check


def check_same_graph(out, graph):
    """The graph written to `out` equals `graph` (n, edges)."""
    def check(rc, stdout):
        return None if _read(out) == graph_text(graph) else f"{out} is not the expected graph"

    return check


def check_verdict(expected):
    """The verdict line, the first line of stdout, reads `expected`."""
    def check(rc, stdout):
        line = stdout.partition("\n")[0]
        return None if line == expected else f"verdict {line!r}, expected {expected!r}"

    return check


def check_is_path(out, n):
    """The graph written to `out` is a path on n vertices, in any vertex order."""
    def check(rc, stdout):
        graph = _graph(out)
        degrees = sorted(graph.degree(v) for v in range(graph.n))
        ok = (graph.n == n and len(graph.edges) == n - 1 and degrees[-1] <= 2
              and _bfs_connected((graph.n, graph.edges)))
        return None if ok else f"{out} is not a path on {n} vertices"

    return check


def _bfs_connected(graph):
    n, edges = graph
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    todo = deque([0])
    while todo:
        for w in adj[todo.popleft()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def _distance2(graph):
    """Pairs at distance 1 or 2, recomputed in plain Python."""
    n, edges = graph
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    out = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if v in adj[u] or adj[u] & adj[v]
    ]
    return n, out


def _neighbourhood_diversity(graph):
    n, edges = graph
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    classes = []
    for v in range(n):
        for c in classes:
            if adj[c[0]] - {v} == adj[v] - {c[0]}:
                c.append(v)
                break
        else:
            classes.append([v])
    return len(classes)


# ---------------------------------------------------------------------------
# workloads


def tm_search(seed):
    """Chain enumeration and coloring search; no canonical forms."""
    files = {
        "p5.g": graph_text(path(5)),
        "p6.g": graph_text(path(6)),
        "c6.g": graph_text(cycle(6)),
    }
    cmds = [
        Cmd(("solve", "tm", "--graph", "p6.g", "--d", "3", "--m", "1"), 1),
        Cmd(("solve", "tm", "--graph", "c6.g", "--d", "3", "--m", "1"), 1),
        Cmd(("solve", "tm", "--graph", "p5.g", "--d", "4", "--m", "2", "-o", "p5.tm"), 0,
            check_tm("p5.g", "p5.tm", 4, 2)),
        Cmd(("solve", "tmc", "--graph", "p5.g", "--d", "2", "--m", "1", "--k", "2"), 1),
        Cmd(("solve", "tmc", "--graph", "p5.g", "--d", "2", "--m", "2", "--k", "2",
             "-o", "p5.tmc"), 0, check_tmc("p5.g", "p5.tmc", 2, 2, 2)),
    ]
    rng = rng_for(seed, "tm")
    for i in range(6):
        g = f"r{i}.g"
        files[g] = graph_text(gnp(rng, 5, 0.5))
        cmds.append(Cmd(("solve", "tm", "--graph", g, "--d", "3", "--m", "1",
                         "-o", f"r{i}.m1.tm"), None, check_tm(g, f"r{i}.m1.tm", 3, 1)))
        cmds.append(Cmd(("solve", "tm", "--graph", g, "--d", "3", "--m", "2",
                         "-o", f"r{i}.m2.tm"), None, check_tm(g, f"r{i}.m2.tm", 3, 2)))
    return files, cmds


def sc_canon(seed):
    """SC recursion over canonical forms, plus graph enumeration."""
    files = {
        "p4.g": graph_text(path(4)),
        "k33.g": graph_text(biclique(3, 3)),
    }
    cmds = []
    for i, base in enumerate(SC_BASES):
        files[f"r{i}.g"] = graph_text(relabel(base, rng_for(seed, f"sc{i}")))
        cmds.append(Cmd(("solve", "sc", "--graph", f"r{i}.g", "--n", "2", "-o", f"r{i}.sc"), 1))
    cmds += [
        Cmd(("solve", "sc", "--graph", "p4.g", "--n", "3", "-o", "p4.sc"), 0,
            check_sc("p4.g", "p4.sc", 3)),
        Cmd(("solve", "sc", "--graph", "k33.g", "--n", "2", "-o", "k33.sc"), 0,
            check_sc("k33.g", "k33.sc", 2)),
        Cmd(("solve", "obstructions", "--d", "1", "--m", "2", "--max-n", "6",
             "-o", "obs.g"), 0, check_verdict("OBSTRUCTIONS 5")),
    ]
    return files, cmds


COLOURABLE_2 = (
    "ex2 A. ex2 B. (all1 x. (x in A | x in B)) & all1 x. all1 y. "
    "(edge(x, y) -> !((x in A & y in A) | (x in B & y in B)))\n"
)
COLOURABLE_3 = (
    "ex2 A. ex2 B. ex2 C. (all1 x. (x in A | x in B | x in C)) & "
    "all1 x. all1 y. (edge(x, y) -> !((x in A & y in A) | (x in B & y in B) "
    "| (x in C & y in C)))\n"
)
PAIRS_TOUCH = (
    "all2 X. all2 Y. (all1 x. !(x in X & x in Y) -> ((ex1 x. x in X) -> "
    "ex1 x. ex1 y. ((x in X | x in Y) & edge(x, y))))\n"
)
CONNECTED = (
    "all2 X. ((ex1 x. x in X) & (ex1 x. !(x in X))) -> "
    "ex1 x. ex1 y. (x in X & !(y in X) & edge(x, y))\n"
)
ODD_KERNEL = (
    "ex2 K. mod(1, 2, K) & (all1 x. all1 y. ((x in K & y in K) -> !edge(x, y))) "
    "& all1 x. (!(x in K) -> ex1 y. (y in K & edge(x, y)))\n"
)
DISTANCE_2 = "edge(x, y) | ex1 z. (edge(x, z) & edge(z, y))"
MARKED_COPY = "(rel_sim(x, y) & label_P1(x) & label_A(y)) | (edge(x, y) & label_P2(x))"


def mso_logic(seed):
    """The CMSO1 evaluator: set quantifiers over small graphs."""
    rng = rng_for(seed, "mso")
    dense = relabel(MSO_BASE, rng)
    small = gnp(rng, 6, 0.5)
    marked = sorted(rng.sample(range(6), 3))
    files = {
        "k4p.g": graph_text(k4_pendant()),
        "c5.g": graph_text(cycle(5)),
        "c7.g": graph_text(cycle(7)),
        "k66.g": graph_text(biclique(6, 6)),
        "r12.g": graph_text(dense),
        "r6.g": graph_text(small),
        "col2.f": COLOURABLE_2,
        "col3.f": COLOURABLE_3,
        "touch.f": PAIRS_TOUCH,
        "conn.f": CONNECTED,
        "oddk.f": ODD_KERNEL,
    }
    cmds = [
        Cmd(("mso", "check", "--graph", "k4p.g", "--formula", "col3.f"), 1),
        Cmd(("mso", "check", "--graph", "c7.g", "--formula", "col2.f"), 1),
        Cmd(("mso", "check", "--graph", "c5.g", "--formula", "touch.f"), 0),
        Cmd(("mso", "check", "--graph", "r12.g", "--formula", "conn.f"),
            0 if _bfs_connected(dense) else 1),
        Cmd(("mso", "check", "--graph", "k66.g", "--formula", "oddk.f"), 1),
        Cmd(("mso", "interpret", "--graph", "r12.g", "--mu", DISTANCE_2, "-o", "r12.d2.g"),
            0, check_same_graph("r12.d2.g", _distance2(dense))),
        Cmd(("mso", "transduce", "--graph", "r6.g", "--copies", "2",
             "--label", "A=" + ",".join(map(str, marked)), "--mu", MARKED_COPY,
             "-o", "r6.t.g"), 0),
        Cmd(("mso", "parse", "--formula", "col3.f"), 0),
    ]
    return files, cmds


def colored_tree_text(rng, height, fanout):
    def node(h):
        rec = {"color": rng.randint(1, 2)}
        if h:
            rec["children"] = [node(h - 1) for _ in range(rng.randint(1, fanout))]
        return rec

    return json.dumps(node(height)) + "\n"


def cli_sweep(seed):
    """Many small chained commands: parsing, IO and conversions."""
    rng = rng_for(seed, "sweep")
    files = {}
    cmds = []
    for i in range(20):
        graph = gnp(rng, 2 + i % 3, 0.5)
        g = f"s{i}.g"
        files[g] = graph_text(graph)
        cmds += [
            Cmd(("solve", "td", "--graph", g, "-o", f"s{i}.f"), 0, check_td(g, f"s{i}.f")),
            Cmd(("convert", "td-to-tm", "--graph", g, "--forest", f"s{i}.f",
                 "-o", f"s{i}.tm"), 0, check_tm(g, f"s{i}.tm", None, None)),
            Cmd(("convert", "tm-to-sc", "--in", f"s{i}.tm", "-o", f"s{i}.sc"), 0),
            Cmd(("verify", "sc", "--sc", f"s{i}.sc", "--graph", g), 0),
            Cmd(("convert", "sc-to-tm", "--in", f"s{i}.sc", "-o", f"s{i}.tm2"), 0),
            Cmd(("verify", "tm", "--model", f"s{i}.tm2", "--graph", g), 0),
            Cmd(("solve", "nd", "--graph", g), 0,
                check_verdict(f"ND {_neighbourhood_diversity(graph)}")),
            Cmd(("solve", "tm", "--graph", g, "--d", "2", "--m", "2", "-o", f"s{i}.w.tm"),
                None, check_tm(g, f"s{i}.w.tm", 2, 2)),
            Cmd(("solve", "sc", "--graph", g, "--n", "2", "-o", f"s{i}.w.sc"),
                None, check_sc(g, f"s{i}.w.sc", 2)),
        ]
    cmds += [
        Cmd(("generate", "path-model", "--m", "4", "-o", "pm.tm"), 0),
        Cmd(("convert", "tm-to-sc", "--in", "pm.tm", "-o", "pm.sc"), 0),
        Cmd(("convert", "sc-eval", "--in", "pm.sc", "-o", "pm.sc.g"), 0,
            check_same_graph("pm.sc.g", path(44))),
        Cmd(("convert", "tm-to-lincw", "--in", "pm.tm", "-o", "pm.cw"), 0),
        Cmd(("convert", "lincw-eval", "--in", "pm.cw", "-o", "pm.cw.g"), 0,
            check_is_path("pm.cw.g", 45)),
    ]
    files["td.g"] = graph_text(relabel(TD_BASE, rng_for(seed, "td")))
    cmds.append(Cmd(("solve", "td", "--graph", "td.g", "-o", "td.f"), 0, check_td("td.g", "td.f")))
    cmds.append(Cmd(("solve", "obstructions", "--d", "2", "--m", "2", "--max-n", "5",
                     "-o", "obs.g"), 0, check_verdict("OBSTRUCTIONS 1")))
    for j in range(4):
        t = f"ct{j}.json"
        files[t] = colored_tree_text(rng, 4, 3)
        cmds.append(Cmd(("reduce-tree", "--in", t, "--thresholds", "1,2",
                         "--modulus", "2", "-o", f"ct{j}.out"), 0))
    return files, cmds


_BUILDERS = {
    "tm-search": tm_search,
    "sc-canon": sc_canon,
    "mso-logic": mso_logic,
    "cli-sweep": cli_sweep,
}


def build(name, seed):
    """(files, commands) of one pass of the named workload."""
    return _BUILDERS[name](seed)
