"""Shared oracles and random generators for the test suite.

The oracles are deliberately naive re-derivations of quantities the package
computes by cleverer means: straight-line recursions with no pruning, no
symmetry breaking and no shared code paths.  Tests freeze expected values by
comparing against these, never against the implementation under test.  The
exceptions are the unpruned tree-model chain walk, which reuses the solver's
model assembly (its partitions and coloring search are copies of the
solver's earlier recursive ones, kept here), the exhaustive SC-tree recursion, which
reuses the canonical form and the graph operations, and the deletion loop of
minimal obstructions, which reuses the enumeration, the canonical form and
the solver's decider; they exist so that their results can be compared with
the solver's exactly.
The formula analyses (free variables, names, quantifier counts, moduli and
first-order substitution) are written here with one case per node kind,
against the package's single walks over each kind's field table.
"""

from __future__ import annotations

import itertools
import math
import random

from shrubkit.graph import (
    Graph,
    canonical_form,
    complement_on_subset,
    components,
    induced_subgraph,
    relabel_graph,
)
from shrubkit.errors import DomainError
from shrubkit.rooted_tree import RootedTree
from shrubkit.sc_model import SCTree
from shrubkit.solver import (
    _build_witness,
    _decide,
    _relabel_sc,
    enumerate_graphs,
)
from shrubkit.tree_model import ColoredTree, CopiedTreeModel, TreeModel
from shrubkit.mso.formulas import (
    AllSet,
    AllVertex,
    And,
    Edge,
    Eq,
    ExistsSet,
    ExistsVertex,
    FalseConst,
    HasLabel,
    Iff,
    Implies,
    InSet,
    ModCount,
    Not,
    Or,
    RelAtom,
    TrueConst,
)


def longest_path_length(g):
    """Number of edges on a longest simple path, via subset DP."""
    n = g.n
    if n == 0:
        return 0
    best = 0
    # reach[mask][v]: some simple path visits exactly `mask` and ends at v
    reach = [[False] * n for _ in range(1 << n)]
    for v in range(n):
        reach[1 << v][v] = True
    for mask in range(1 << n):
        for v in range(n):
            if not reach[mask][v]:
                continue
            best = max(best, mask.bit_count() - 1)
            for w in range(n):
                if not mask >> w & 1 and g.has_edge(v, w):
                    reach[mask | 1 << w][w] = True
    return best


def brute_force_tree_depth(g):
    """Tree-depth by the direct recursion td(G) = 1 + min over v of td(G - v)."""
    memo = {}

    def comps(vs):
        vs = set(vs)
        out = []
        while vs:
            stack = [vs.pop()]
            comp = set(stack)
            while stack:
                u = stack.pop()
                for w in list(vs):
                    if g.has_edge(u, w):
                        vs.remove(w)
                        comp.add(w)
                        stack.append(w)
            out.append(frozenset(comp))
        return out

    def td(vs):
        if not vs:
            return 0
        if vs in memo:
            return memo[vs]
        parts = comps(vs)
        if len(parts) > 1:
            val = max(td(p) for p in parts)
        elif len(vs) == 1:
            val = 1
        else:
            val = 1 + min(td(vs - {v}) for v in vs)
        memo[vs] = val
        return val

    return td(frozenset(range(g.n)))


def naive_tm_membership(g, d, m):
    """Tree-model membership by exhausting level maps and colorings.

    Every uniform-depth tree over the leaves induces, for each leaf pair, the
    depth of the deepest level at which the pair still shares a block.  All
    such meet tables arise as common-prefix lengths of arbitrary label rows,
    so enumerating rows in {0..n-1}^(d-1) per vertex covers every tree shape.
    """
    n = g.n
    if n == 0:
        raise DomainError("the empty graph has no model")
    if d == 0:
        return n == 1
    if n == 1:
        return True
    levels = d - 1
    seen = set()
    for assign in itertools.product(range(n), repeat=n * levels):
        rows = [assign[v * levels:(v + 1) * levels] for v in range(n)]
        meet = {}
        for u in range(n):
            for v in range(u + 1, n):
                p = 0
                while p < levels and rows[u][p] == rows[v][p]:
                    p += 1
                meet[u, v] = p
        key = tuple(sorted(meet.items()))
        if key in seen:
            continue
        seen.add(key)
        for colors in itertools.product(range(1, m + 1), repeat=n):
            sig = {}
            good = True
            for u in range(n):
                for v in range(u + 1, n):
                    lvl = d - meet[u, v]
                    a, b = colors[u], colors[v]
                    key2 = (min(a, b), max(a, b), lvl)
                    e = g.has_edge(u, v)
                    if key2 in sig:
                        if sig[key2] != e:
                            good = False
                            break
                    else:
                        sig[key2] = e
                if not good:
                    break
            if good:
                return True
    return False


def _iter_partitions(verts, max_block=None):
    """Partitions of a vertex tuple; blocks ordered by first element."""
    if not verts:
        yield []
        return
    first, rest = verts[0], verts[1:]

    def extend(blocks, remaining):
        if not remaining:
            yield [tuple(b) for b in blocks]
            return
        v, tail = remaining[0], remaining[1:]
        for b in blocks:
            if max_block is None or len(b) < max_block:
                b.append(v)
                yield from extend(blocks, tail)
                b.pop()
        blocks.append([v])
        yield from extend(blocks, tail)
        blocks.pop()

    yield from extend([[first]], rest)


def _search_coloring(g, m, depth, meet):
    """First-occurrence-canonical coloring consistent with some signature,
    or None, by recursion over the vertices; every pair of the meet matrix
    has a level.  A tri-state class map grows as vertices are colored and
    rolls back on backtrack."""
    n = g.n
    classes = {}
    colors = [0] * n

    def place(t, used):
        if t == n:
            return True
        for c in range(1, min(used + 1, m) + 1):
            added = []
            ok = True
            for s in range(t):
                a, b = colors[s], c
                key = (min(a, b), max(a, b), depth - meet[s][t])
                want = g.has_edge(s, t)
                if key in classes:
                    if classes[key] != want:
                        ok = False
                        break
                else:
                    classes[key] = want
                    added.append(key)
            if ok:
                colors[t] = c
                if place(t + 1, max(used, c)):
                    return True
            for key in added:
                del classes[key]
        colors[t] = 0
        return False

    return colors if place(0, 0) else None


def _unpruned_chains(verts, levels, last_max_block):
    """Every chain of nested partitions, coarsest first, in the order the
    solver's walk visits them: the sub-chains of later sibling blocks vary
    inside the loop over an earlier sibling's."""
    if levels == 0:
        yield []
        return
    cap = last_max_block if levels == 1 else None
    for blocks in _iter_partitions(verts, cap):
        for subchains in _unpruned_product(blocks, levels - 1, last_max_block):
            merged = [
                [blk for sub in subchains for blk in sub[k]]
                for k in range(levels - 1)
            ]
            yield [blocks] + merged


def _unpruned_product(blocks, levels, last_max_block):
    if not blocks:
        yield []
        return
    for head in _unpruned_chains(blocks[0], levels, last_max_block):
        for tail in _unpruned_product(blocks[1:], levels, last_max_block):
            yield [head] + tail


def _unpruned_meet_matrix(n, chain):
    meet = [[0] * n for _ in range(n)]
    for k, partition in enumerate(chain, start=1):
        for block in partition:
            for a in range(len(block)):
                for b in range(a + 1, len(block)):
                    u, v = block[a], block[b]
                    meet[u][v] = meet[v][u] = k
    return meet


def _unpruned_witness(g, m, depth, levels, last_max_block):
    # the chain walk and the coloring search are this module's own; only the
    # model assembly is shared with the solver, on purpose
    for chain in _unpruned_chains(tuple(range(g.n)), levels, last_max_block):
        found = _search_coloring(g, m, depth, _unpruned_meet_matrix(g.n, chain))
        if found is not None:
            return _build_witness(g, depth, m, chain, found)
    return None


def unpruned_tm_membership(g, d, m):
    """tm_membership with no pruning: each complete chain, in enumeration
    order, gets a fresh meet matrix and a full coloring search."""
    if g.n == 0:
        raise DomainError("the empty graph has no model")
    if d == 0 and g.n != 1:
        return None
    if d == 0:
        return TreeModel(RootedTree([-1]), 0, m, {0: 0}, {0: 1}, set())
    return _unpruned_witness(g, m, d, d - 1, None)


def unpruned_tmc_membership(g, d, m, k):
    """tmc_membership with no pruning, as unpruned_tm_membership."""
    if g.n == 0:
        raise DomainError("the empty graph has no model")
    if d == 0 and g.n > k:
        return None
    model = _unpruned_witness(g, m, d + 1, d, k)
    return None if model is None else CopiedTreeModel(model, d, m, k)


def exhaustive_sc_membership(g, depth):
    """sc_membership with no closed forms: every height, 0 and 1 included,
    tries each complement set X on the canonical form in mask order and
    recurses into the components of the flipped graph, memoized on
    (canonical form, remaining depth)."""
    if g.n == 0:
        raise DomainError("the empty graph has no model")
    memo = {}

    def member(h, budget):
        key, perm = canonical_form(h)
        if (key, budget) not in memo:
            memo[key, budget] = member_canonical(relabel_graph(h, perm), budget)
        witness = memo[key, budget]
        if witness is None:
            return None
        inverse = [0] * h.n
        for old, new in perm.items():
            inverse[new] = old
        return _relabel_sc(witness, inverse)

    def member_canonical(hc, budget):
        n = hc.n
        if n == 1:
            return SCTree.leaf(0)
        if budget == 0:
            return None
        for mask in range(1 << n):
            x = [v for v in range(n) if mask >> v & 1]
            flipped = complement_on_subset(hc, x)
            children = []
            for comp in components(flipped):
                # an empty X leaves a connected graph as it was: that level
                # would change nothing, so the solver never emits it
                if len(comp) == n and not x:
                    children = None
                    break
                sub, ids = induced_subgraph(flipped, comp)
                sub_witness = member(sub, budget - 1)
                if sub_witness is None:
                    children = None
                    break
                children.append(_relabel_sc(sub_witness, dict(enumerate(ids))))
            if children is not None:
                return SCTree.inner(children, x)
        return None

    return member(g, depth)


def deletion_minimal_obstructions(d, m, max_n):
    """minimal_obstructions without the enumeration's parents: every class
    and every one-vertex deletion is canonized, and each canonical key is
    decided once."""
    verdicts = {}

    def is_member(h):
        key, _ = canonical_form(h)
        if key not in verdicts:
            verdicts[key] = h.n == 1 if d == 0 else _decide(h, d, m)
        return verdicts[key]

    out = []
    for n in range(1, max_n + 1):
        for h in enumerate_graphs(n):
            if is_member(h):
                continue
            if all(
                is_member(induced_subgraph(h, [u for u in range(n) if u != v])[0])
                for v in range(n)
            ):
                out.append(h)
    return out


def reference_evaluate(structure, formula, fo=None, sets=None):
    """Direct-recursion evaluator over explicit frozensets.

    Subsets are listed in the binary count in which vertex 0 toggles
    fastest, and every quantifier loops over its values one at a time,
    testing edges with `Graph.has_edge`.  The evaluator computes a
    first-order quantifier's values at once as a bitmask, and decides set
    quantifiers by a search that visits sets in another order and cuts
    branches.
    """
    if isinstance(structure, Graph):
        g, rels = structure, {}
    else:
        g, rels = structure.graph, structure.relations
    fo = dict(fo or {})
    sets = dict(sets or {})
    verts = list(range(g.n))
    subsets = [frozenset(v for v in verts if count >> v & 1)
               for count in range(2 ** g.n)]

    def ev(f, fo, sets):
        t = type(f)
        if t is TrueConst:
            return True
        if t is FalseConst:
            return False
        if t is Edge:
            return g.has_edge(fo[f.x], fo[f.y])
        if t is Eq:
            return fo[f.x] == fo[f.y]
        if t is InSet:
            return fo[f.x] in sets[f.var]
        if t is ModCount:
            return len(sets[f.var]) % f.b == f.a
        if t is HasLabel:
            return f.label in g.vertex_labels(fo[f.x])
        if t is RelAtom:
            return (fo[f.x], fo[f.y]) in rels[f.rel]
        if t is Not:
            return not ev(f.body, fo, sets)
        if t is And:
            return ev(f.left, fo, sets) and ev(f.right, fo, sets)
        if t is Or:
            return ev(f.left, fo, sets) or ev(f.right, fo, sets)
        if t is Implies:
            return (not ev(f.left, fo, sets)) or ev(f.right, fo, sets)
        if t is Iff:
            return ev(f.left, fo, sets) == ev(f.right, fo, sets)
        if t is ExistsVertex:
            return any(ev(f.body, {**fo, f.var: v}, sets) for v in verts)
        if t is AllVertex:
            return all(ev(f.body, {**fo, f.var: v}, sets) for v in verts)
        if t is ExistsSet:
            return any(ev(f.body, fo, {**sets, f.var: s}) for s in subsets)
        if t is AllSet:
            return all(ev(f.body, fo, {**sets, f.var: s}) for s in subsets)
        raise AssertionError(f"unhandled node {t}")

    return ev(formula, fo, sets)


_BINARY_KINDS = (And, Or, Implies, Iff)
_FO_QUANTIFIERS = (ExistsVertex, AllVertex)
_SET_QUANTIFIERS = (ExistsSet, AllSet)


def reference_free_vars(formula):
    """free_vars by one hand-written case per node kind."""
    fo, sets = set(), set()

    def walk(f, bound_fo, bound_set):
        t = type(f)
        if t in (Edge, Eq, RelAtom):
            fo.update({f.x, f.y} - bound_fo)
        elif t is InSet:
            if f.x not in bound_fo:
                fo.add(f.x)
            if f.var not in bound_set:
                sets.add(f.var)
        elif t is ModCount:
            if f.var not in bound_set:
                sets.add(f.var)
        elif t is HasLabel:
            if f.x not in bound_fo:
                fo.add(f.x)
        elif t is Not:
            walk(f.body, bound_fo, bound_set)
        elif t in _BINARY_KINDS:
            walk(f.left, bound_fo, bound_set)
            walk(f.right, bound_fo, bound_set)
        elif t in _FO_QUANTIFIERS:
            walk(f.body, bound_fo | {f.var}, bound_set)
        elif t in _SET_QUANTIFIERS:
            walk(f.body, bound_fo, bound_set | {f.var})

    walk(formula, set(), set())
    return frozenset(fo), frozenset(sets)


def reference_all_var_names(formula):
    """all_var_names by one hand-written case per node kind."""
    names = set()

    def walk(f):
        t = type(f)
        if t in (Edge, Eq, RelAtom):
            names.update((f.x, f.y))
        elif t is InSet:
            names.update((f.x, f.var))
        elif t is ModCount:
            names.add(f.var)
        elif t is HasLabel:
            names.add(f.x)
        elif t is Not:
            walk(f.body)
        elif t in _BINARY_KINDS:
            walk(f.left)
            walk(f.right)
        elif t in _FO_QUANTIFIERS + _SET_QUANTIFIERS:
            names.add(f.var)
            walk(f.body)

    walk(formula)
    return names


def reference_quantifier_count(formula):
    t = type(formula)
    if t is Not:
        return reference_quantifier_count(formula.body)
    if t in _BINARY_KINDS:
        return (reference_quantifier_count(formula.left)
                + reference_quantifier_count(formula.right))
    if t in _FO_QUANTIFIERS + _SET_QUANTIFIERS:
        return 1 + reference_quantifier_count(formula.body)
    return 0


def reference_set_quantifier_rank(formula):
    t = type(formula)
    if t is Not:
        return reference_set_quantifier_rank(formula.body)
    if t in _BINARY_KINDS:
        return max(reference_set_quantifier_rank(formula.left),
                   reference_set_quantifier_rank(formula.right))
    if t in _FO_QUANTIFIERS:
        return reference_set_quantifier_rank(formula.body)
    if t in _SET_QUANTIFIERS:
        return 1 + reference_set_quantifier_rank(formula.body)
    return 0


def reference_mod_lcm(formula):
    t = type(formula)
    if t is ModCount:
        return formula.b
    if t is Not:
        return reference_mod_lcm(formula.body)
    if t in _BINARY_KINDS:
        return math.lcm(reference_mod_lcm(formula.left),
                        reference_mod_lcm(formula.right))
    if t in _FO_QUANTIFIERS + _SET_QUANTIFIERS:
        return reference_mod_lcm(formula.body)
    return 1


def reference_substitute_fo(formula, mapping, taken=None):
    """substitute_fo by one hand-written case per node kind, drawing fresh
    names w0, w1, ... in the same order."""
    taken = (set(taken or ()) | reference_all_var_names(formula)
             | set(mapping.values()))
    pool = (name for name in (f"w{i}" for i in itertools.count())
            if name not in taken)

    def walk(f, env):
        t = type(f)
        if t in (TrueConst, FalseConst, ModCount):
            return f
        if t is Edge:
            return Edge(env.get(f.x, f.x), env.get(f.y, f.y))
        if t is Eq:
            return Eq(env.get(f.x, f.x), env.get(f.y, f.y))
        if t is RelAtom:
            return RelAtom(f.rel, env.get(f.x, f.x), env.get(f.y, f.y))
        if t is InSet:
            return InSet(env.get(f.x, f.x), f.var)
        if t is HasLabel:
            return HasLabel(f.label, env.get(f.x, f.x))
        if t is Not:
            return Not(walk(f.body, env))
        if t in _BINARY_KINDS:
            return t(walk(f.left, env), walk(f.right, env))
        if t in _SET_QUANTIFIERS:
            return t(f.var, walk(f.body, env))
        if t in _FO_QUANTIFIERS:
            env = dict(env)
            if f.var in set(env.values()):
                new = next(pool)
                env[f.var] = new
                return t(new, walk(f.body, env))
            env.pop(f.var, None)
            return t(f.var, walk(f.body, env))
        raise AssertionError(f"unhandled node {t}")

    return walk(formula, dict(mapping))


def tuple_of_colored_tree(ct, node=None):
    """Nested (color, [child, ...]) view of a colored tree, children by id."""
    if node is None:
        node = ct.tree.root
    return (ct.color[node],
            [tuple_of_colored_tree(ct, c) for c in ct.tree.children(node)])


def code_of_tuple(t):
    color, children = t
    return (color, tuple(sorted(code_of_tuple(c) for c in children)))


def _tuple_height(t):
    color, children = t
    return 1 + max((_tuple_height(c) for c in children), default=-1)


def naive_reduce(t, thresholds, modulus):
    """Independent bottom-up sibling trimming on tuple trees.

    Children are first reduced, then grouped by shape code; each group keeps
    its first k members in child order, where k preserves the count modulo
    `modulus` once past the height's threshold.
    """
    color, children = t
    reduced = [naive_reduce(c, thresholds, modulus) for c in children]
    height = 1 + max((_tuple_height(c) for c in reduced), default=-1)
    limit = thresholds[min(height, len(thresholds)) - 1]
    counts = {}
    keep = []
    for c in reduced:
        code = code_of_tuple(c)
        total = sum(1 for r in reduced if code_of_tuple(r) == code)
        cap = total if total < limit + modulus else limit + (total - limit) % modulus
        if counts.get(code, 0) < cap:
            counts[code] = counts.get(code, 0) + 1
            keep.append(c)
    return (color, keep)


def is_rooted_color_embedding(small, big):
    """Whether `small` embeds in `big` as a color-preserving rooted subtree."""

    def embed(sn, bn):
        if small.color[sn] != big.color[bn]:
            return False
        s_kids = small.tree.children(sn)
        b_kids = list(big.tree.children(bn))

        def match(i, used):
            if i == len(s_kids):
                return True
            for j, bk in enumerate(b_kids):
                if j not in used and embed(s_kids[i], bk):
                    if match(i + 1, used | {j}):
                        return True
            return False

        return match(0, frozenset())

    return embed(small.tree.root, big.tree.root)


def encode_colored_tree(ct):
    """Colored tree as a labeled graph: tree edges, c<i> colors, root mark."""
    n = ct.tree.n
    edges = [(v, ct.tree.parent[v]) for v in range(n) if ct.tree.parent[v] >= 0]
    labels = {v: {f"c{ct.color[v]}"} for v in range(n)}
    labels[ct.tree.root] = labels[ct.tree.root] | {"root"}
    return Graph(n, edges, labels)


def random_colored_tree(rng, max_height=3, max_children=4, colors=3):
    """Random colored tree with duplication bias so reduction has work."""
    parent = [-1]
    color = [rng.randint(1, colors)]
    frontier = [(0, 0)]
    while frontier:
        node, depth = frontier.pop()
        if depth >= max_height:
            continue
        kids = rng.randint(0, max_children)
        # duplicate a sibling's color often to build large shape classes
        last = None
        for _ in range(kids):
            if last is not None and rng.random() < 0.6:
                c = last
            else:
                c = rng.randint(1, colors)
            last = c
            parent.append(node)
            color.append(c)
            frontier.append((len(parent) - 1, depth + 1))
    return ColoredTree(RootedTree(parent), color)


def random_bushy_tree(rng, colors=3, max_mids=3, max_leaves=6):
    """Height <= 2 tree whose sibling classes get big enough to trim."""
    parent = [-1]
    color = [rng.randint(1, colors)]
    mids = []
    for _ in range(rng.randint(1, max_mids)):
        parent.append(0)
        color.append(rng.randint(1, colors))
        mids.append(len(parent) - 1)
    for mid in mids:
        base = rng.randint(1, 2)
        for _ in range(rng.randint(0, max_leaves)):
            parent.append(mid)
            color.append(base if rng.random() < 0.75 else rng.randint(1, 2))
    return ColoredTree(RootedTree(parent), color)


def random_tree_model(rng, max_depth=3, max_colors=3, max_leaves=12):
    """Random tree-model whose vertex ids follow the tree's leaf order.

    Numbering leaves 0..n-1 left to right keeps every subtree's vertex set an
    interval, which is the regime where the linear clique-width translation
    reproduces the realized graph exactly.
    """
    d = rng.randint(1, max_depth) if rng.random() < 0.95 else 0
    m = rng.randint(1, max_colors)
    if d == 0:
        tree = RootedTree([-1])
        sig = frozenset()
        return TreeModel(tree, 0, m, {0: 0}, {0: rng.randint(1, m)}, sig)
    parent = [-1]
    layer = [0]
    for _depth in range(1, d + 1):
        buds = []
        remaining = len(layer)
        for node in layer:
            remaining -= 1
            cap = max(1, min(3, max_leaves - len(buds) - remaining))
            for _ in range(rng.randint(1, cap)):
                parent.append(node)
                buds.append(len(parent) - 1)
        layer = buds
    tree = RootedTree(parent)
    leaves = [v for v in range(tree.n) if tree.is_leaf(v)]
    leaf_vertex = {leaf: i for i, leaf in enumerate(sorted(leaves))}
    leaf_color = {leaf: rng.randint(1, m) for leaf in leaves}
    sig = set()
    for a in range(1, m + 1):
        for b in range(a, m + 1):
            for lvl in range(1, d + 1):
                if rng.random() < 0.5:
                    sig.add((a, b, lvl))
                    sig.add((b, a, lvl))
    return TreeModel(tree, d, m, leaf_vertex, leaf_color, frozenset(sig))


def random_sc_tree(rng, max_height=3, max_leaves=10):
    """Random SC-tree with leaves numbered 0..n-1 left to right."""
    counter = itertools.count()

    def build(height, budget):
        if height == 0 or budget[0] <= 1:
            budget[0] -= 1
            return SCTree.leaf(next(counter))
        kids = rng.randint(1, min(3, budget[0]))
        children = [build(rng.randint(0, height - 1) if i else height - 1,
                          budget) for i in range(kids)]
        pool = [v for c in children for v in c.leaf_vertices]
        x = frozenset(v for v in pool if rng.random() < 0.5)
        return SCTree.inner(children, x)

    h = rng.randint(0, max_height)
    budget = [rng.randint(1, max_leaves)]
    return build(h, budget)


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def naive_sc_member_2(g, height):
    """SC membership for heights 0..2 straight from the definition.

    Height 0 is K1; height 1 graphs are a clique plus isolated vertices;
    height 2 graphs arise by splitting the vertices into height-1 pieces and
    complementing one final set.
    """
    n = g.n
    if height == 0:
        return n == 1
    verts = list(range(n))

    def is_clique_plus_isolated(h):
        cols = [v for v in range(h.n) if h.degree(v)]
        return all(h.has_edge(u, v) for i, u in enumerate(cols)
                   for v in cols[i + 1:])

    if height == 1:
        return is_clique_plus_isolated(g)
    if height != 2:
        raise ValueError("oracle only covers heights 0..2")
    for parts in set_partitions(verts):
        for xbits in range(1 << n):
            x = {v for v in verts if xbits >> v & 1}
            ok = True
            # cross-part pairs start absent; the global flip decides them
            for i, u in enumerate(verts):
                for v in verts[i + 1:]:
                    if any(u in p and v in p for p in parts):
                        continue
                    if g.has_edge(u, v) != (u in x and v in x):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            for part in parts:
                inside = [v for v in part if v in x]
                # a height-1 part is a clique on some subset of the part;
                # after the global complement its edges must match g there
                want = {frozenset((u, v)) for i, u in enumerate(part)
                        for v in part[i + 1:] if g.has_edge(u, v)}
                flip = {frozenset((u, v)) for i, u in enumerate(inside)
                        for v in inside[i + 1:]}
                pre = want ^ flip
                cols = sorted({v for e in pre for v in e})
                if not all(frozenset((u, v)) in pre for i, u in enumerate(cols)
                           for v in cols[i + 1:]):
                    ok = False
                    break
            if ok:
                return True
    return False


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_labelled_graph(rng, n):
    """A random graph of random density in which about a third of the
    vertices carry a nonempty subset of the labels a and b."""
    g = random_graph(rng, n, rng.random())
    labels = {}
    for v in range(n):
        if rng.random() < 1 / 3:
            labels[v] = rng.choice(({"a"}, {"b"}, {"a", "b"}))
    return Graph(n, g.edges, labels)


def random_formula(rng, depth, fo_scope=(), set_scope=(), labels=(), rels=(),
                   max_set_quant=2):
    """Random closed-under-scope formula built straight from constructors."""

    def atom(fo_scope, set_scope):
        picks = [lambda: TrueConst(), lambda: FalseConst()]
        if len(fo_scope) >= 1:
            x = rng.choice(fo_scope)
            y = rng.choice(fo_scope)
            picks.append(lambda: Edge(x, y) if x != y else Eq(x, x))
            picks.append(lambda: Eq(x, y))
            if labels:
                lab = rng.choice(labels)
                picks.append(lambda: HasLabel(lab, x))
            if rels:
                r = rng.choice(rels)
                picks.append(lambda: RelAtom(r, x, y))
        if set_scope and fo_scope:
            x = rng.choice(fo_scope)
            s = rng.choice(set_scope)
            picks.append(lambda: InSet(x, s))
        if set_scope:
            s = rng.choice(set_scope)
            b = rng.choice((2, 3))
            picks.append(lambda: ModCount(rng.randrange(b), b, s))
        return rng.choice(picks)()

    def build(depth, fo_scope, set_scope, set_quant):
        if depth == 0:
            return atom(fo_scope, set_scope)
        roll = rng.random()
        if roll < 0.15:
            return Not(build(depth - 1, fo_scope, set_scope, set_quant))
        if roll < 0.55:
            op = rng.choice((And, Or, Implies, Iff))
            return op(build(depth - 1, fo_scope, set_scope, set_quant),
                      build(depth - 1, fo_scope, set_scope, set_quant))
        if roll < 0.9 or set_quant >= max_set_quant:
            var = f"x{len(fo_scope)}"
            op = rng.choice((ExistsVertex, AllVertex))
            return op(var, build(depth - 1, fo_scope + (var,), set_scope,
                                 set_quant))
        var = f"X{len(set_scope)}"
        op = rng.choice((ExistsSet, AllSet))
        return op(var, build(depth - 1, fo_scope, set_scope + (var,),
                             set_quant + 1))

    return build(depth, tuple(fo_scope), tuple(set_scope), 0)


def random_seeded(seed):
    return random.Random(seed)
