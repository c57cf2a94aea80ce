"""Exact membership tests for bounded-depth model classes, at desk scale.

Whether a tree-model exists is decided colour-first by `_decide`: for a
fixed coloring and per-level signature every partition is forced, so it
grows colorings vertex by vertex and tries signatures, not Bell-many chains.
A NO ends there, and so does every verdict `minimal_obstructions` needs.
Only a YES walks the chains, to find its witness.

Tree shapes of a fixed depth are chains of nested partitions of the vertex
set, one partition per internal level.  The tree-model solvers walk these
chains depth first, one block partition at a time, over a single meet-level
matrix in which a pair stays open (None) until some partition fixes it.
Each block's partition is built one vertex at a time, and after each
placement the partial chain is tested: the coloring search colors vertices
with first-occurrence symmetry breaking and fails as soon as two fixed pairs
force one (color, color, level) class both ways.  Any completion of a
partial chain only fixes more pairs, so a failure cuts every completion, and
the first complete chain admitting a coloring is the first one an unpruned
enumeration would find.  The search returns the least consistent coloring,
and more fixed pairs only remove consistent colorings, so a coloring that
satisfies the pairs a placement fixes is still the least one: it is kept,
and the search runs again only on a conflict.  Each placement is one call
of a generator run by `_drive`, which takes the placement back when it
returns False, so the walk keeps no stack of its own and fits any depth.
The witness is assembled from the chain and the coloring in one pass and
signed by infer_signature, which reads the adjacency of every leaf pair and
so also checks the witness against the graph.
"""

from __future__ import annotations

from .errors import DomainError, ResourceLimitError, ValidationError, _whole
from .graph import (
    Graph,
    _bits,
    _label_names,
    adjacency_rows,
    canonical_rows,
    mask_components,
    twin_classes,
)
from .rooted_tree import RootedTree
from .sc_model import SCTree, fold_sc, verify_sc
from .tree_model import CopiedTreeModel, TreeModel, infer_signature

DEFAULT_TM_CAP = 10
DEFAULT_SC_CAP = 9


def _admit(g, cap, what):
    """Refuse a graph past the vertex cap, and the empty graph, which no
    model realizes."""
    if g.n > cap:
        raise ResourceLimitError(f"{what} cap is {cap} vertices, got {g.n}")
    if g.n == 0:
        raise DomainError("the empty graph has no model")


def _search_coloring(g, m, depth, meet, first=()):
    """First-occurrence-canonical coloring consistent with some signature,
    as (colors, classes), or None.  Pairs whose meet level is None are open
    and constrain nothing.  The first such coloring is the least in
    lexicographic order, found by a depth-first search on an explicit stack:
    each vertex takes a color used before it or the least unused one, and
    the tri-state class map, (color, color, depth - level) -> edge, grows as
    vertices are colored and rolls back on backtrack.  Vertex t <
    len(first) starts from color first[t] until the search first backtracks
    past it, so a caller that knows no consistent coloring precedes `first`
    resumes the search there."""
    n = g.n
    classes = {}
    colors = [c - 1 for c in first] + [0] * (n - len(first))
    added = [[] for _ in range(n)]  # the keys vertex t's color put in classes
    used = [0] * (n + 1)  # used[t] = max(colors[:t])
    t = 0
    while 0 <= t < n:
        for key in added[t]:
            del classes[key]
        added[t] = []
        c, top = colors[t], min(used[t] + 1, m)
        while c < top:
            c += 1
            new = added[t]
            for s in range(t):
                level = meet[s][t]
                if level is None:
                    continue
                a = colors[s]
                key = (a, c, depth - level) if a <= c else (c, a, depth - level)
                want = g.has_edge(s, t)
                have = classes.get(key)
                if have is None:
                    classes[key] = want
                    new.append(key)
                elif have != want:
                    break
            else:
                break
            for key in new:
                del classes[key]
            new.clear()
        else:
            colors[t] = 0
            t -= 1
            continue
        colors[t] = c
        used[t + 1] = max(used[t], c)
        t += 1
    return (colors, classes) if t == n else None


def _build_witness(g, depth, m, chain, colors):
    """The model whose internal levels follow the chain, signed by
    infer_signature.  Nodes are numbered level by level, blocks by their
    least vertex and leaves by vertex."""
    parent = [-1]
    above = [0] * g.n  # each vertex's node on the last level built
    for partition in chain:
        for block in sorted(partition, key=min):
            parent.append(above[block[0]])
            for v in block:
                above[v] = len(parent) - 1
    leaves = range(len(parent), len(parent) + g.n)
    leaf_vertex = dict(zip(leaves, range(g.n)))
    leaf_color = dict(zip(leaves, colors))
    parent += above
    tree = RootedTree(parent)
    signature = infer_signature(tree, leaf_vertex, leaf_color, g)
    return TreeModel(tree, depth, m, leaf_vertex, leaf_color, signature)


def _first_hit(g, m, depth, levels, last_max_block):
    """First chain, in nested-partition enumeration order, admitting a
    coloring: (chain, colors) or None.

    Blocks are partitioned in the order they appear in the finished chain's
    tree, so a block's own sub-chain is completed before its next sibling's.
    A block's partition is built one vertex at a time: each vertex joins an
    existing part, in order, or then opens a new one, and on the last level
    joins no part of last_max_block vertices.  Placing a vertex fixes its
    pairs with the vertices placed before it: at k - 1 when split, at k when
    kept together on the last level, and not at all when kept together above
    it.  A prefix fixes a subset of the pairs each of its completions fixes,
    so a prefix admitting no coloring has no completion admitting one, and
    cutting it leaves the first admitted complete partition, and so the
    chain and the witness, unchanged.

    The coloring is the first (least) consistent one, and fixing pairs only
    shrinks the set of consistent colorings, so while the current coloring
    satisfies the pairs a placement fixes it is still the first one.  Only
    those pairs are checked against its class map, and the coloring search
    runs again only when one of them conflicts.  Block vertices ascend, so
    every pair a placement of v fixes ends at v: no coloring below the kept
    one up to v can be completed, and the search resumes at v from the
    kept prefix and v's kept color, where a search from vertex 0 would
    retrace the old one.

    The walk is the generator `place`, run by `_drive`.  A call places the
    block's next vertex in each admitted part in turn, yields the call for
    the vertex after it, and takes the placement back when that call returns
    False.  A finished block adds its parts to the chain and, reversed, to a
    copy of the blocks still pending, and yields the call for the last of
    them, with its first vertex already placed.
    """
    n = g.n
    meet = [[None if levels else 0] * n for _ in range(n)]
    found = _search_coloring(g, m, depth, meet)
    if found is None or not levels:
        return None if found is None else ([], found[0])
    chain = [[] for _ in range(levels)]

    def place(block, k, parts, pending):
        # True once the chain is complete, else False with every placement
        # it made taken back
        nonlocal found
        i = sum(map(len, parts))
        if i == len(block):
            chain[k - 1].extend(parts)
            if k < levels:
                pending = pending + [(p, k + 1) for p in reversed(parts)]
            if not pending:
                return True
            nxt, k_nxt = pending[-1]
            if (yield place(nxt, k_nxt, [nxt[:1]], pending[:-1])):
                return True
            del chain[k - 1][-len(parts):]
            return False
        v = block[i]
        together, cap = (k, last_max_block or n) if k == levels else (None, n)
        before = found
        colors, classes = before
        c = colors[v]
        for j, part in enumerate(parts + [()]):
            if len(part) >= cap:
                continue
            for u in block[:i]:
                meet[u][v] = k - 1
            for u in part:
                meet[u][v] = together
            added = []
            kept = True
            for u in block[:i]:
                level = meet[u][v]
                if level is None or not kept:
                    continue
                a = colors[u]
                key = (a, c, depth - level) if a <= c else (c, a, depth - level)
                want = g.has_edge(u, v)
                have = classes.get(key)
                if have is None:
                    classes[key] = want
                    added.append(key)
                elif have != want:
                    kept = False
            if not kept:
                for key in added:
                    del classes[key]
                added = []
                sub = _search_coloring(g, m, depth, meet, colors[:v + 1])
                if sub is None:
                    continue
                found = sub
            grown = parts[:j] + [(*part, v)] + parts[j + 1:]
            if (yield place(block, k, grown, pending)):
                return True
            found = before
            for key in added:
                del classes[key]
        for u in block[:i]:
            meet[u][v] = None
        return False

    return (chain, found[0]) if _drive(place(tuple(range(n)), 1, [(0,)], [])) else None


def _drive(gen):
    """Result of a generator that yields generators for its sub-results,
    each sent back when it returns; an explicit stack stands in for the
    call stack, so that any depth fits."""
    stack, value = [gen], None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as stop:
            stack.pop()
            value = stop.value
        else:
            stack.append(sub)
            value = None
    return value


def _decide(g, depth, m, max_block=None):
    """Whether g has a model of this depth with m colors, and with
    max_block, at most max_block leaves below each node of the level above
    the leaves.  A model of depth 0 is one leaf.

    At depth 1 every pair meets at the root, so two vertices of one color
    are twins; a twin class is a clique or an independent set, joined to
    each other class completely or not at all, so one color per class
    works: depth 1 is at most m twin classes (and max_block vertices).

    Deeper, fix a coloring and, for the pairs meeting at one level, that
    level's signature f.  Pairs of a block that f gets wrong must share a
    block one level down, so the finest admissible partition of the level
    below is the components of these conflicts inside each block.  It
    dominates every coarser one, because a model restricts to a finer
    block.  Only a color pair that meets both as an edge and as a non-edge
    needs a choice of f; for any other pair f agrees with the graph and
    adds no conflict.  At the leaf level f is read off, so the blocks must
    hold no such mixed pair.  A level that splits nothing can be dropped,
    so only strictly finer partitions are tried, at most n - 1 levels deep,
    and a partition that fails at one level fails at every deeper one.
    The colorings are grown depth first, first-occurrence canonical, and a
    prefix of 3 or more vertices that fails as the one block is cut: a
    model restricted to the prefix is one, with no more leaves below any
    node.  2 vertices hold one pair, never mixed.  m past n decides as
    m = n, since a canonical coloring of n vertices uses at most n colors.
    """
    n = g.n
    m = min(m, n)
    limit = n if max_block is None else max_block
    rows = adjacency_rows(g)
    if depth <= 1:
        return n <= (limit if depth else 1) and len(twin_classes(rows)) <= m
    levels = depth - 1
    # one bit per unordered color pair
    pair_bit = [[1 << min(a, b) * m + max(a, b) for b in range(m)] for a in range(m)]
    colors = [-1] * n  # -1 while uncolored
    cls = [0] * m  # per color, the vertices it colors

    def spread(pairs):
        """Per color a, the vertices of the colors b with (a, b) in pairs."""
        out = [0] * used
        for a in range(used):
            for b in range(used):
                if pairs & pair_bit[a][b]:
                    out[a] |= cls[b]
        return out

    def feasible(level, blocks):
        edge = non = 0  # color pairs meeting as an edge, as a non-edge
        for block in blocks:
            rest = block if block & (block - 1) else 0  # a singleton holds no pair
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                a = colors[u]
                near = rows[u] & block
                far = block & ~rows[u] & ~low
                for b in range(a, used):
                    if near & cls[b]:
                        edge |= pair_bit[a][b]
                    if far & cls[b]:
                        non |= pair_bit[a][b]
        mixed = edge & non
        if not mixed and all(b.bit_count() <= limit for b in blocks):
            return True
        if level == levels:
            return False
        # u's conflict row is (rows[u] ^ ones[a]) & mix[a] for a = colors[u]:
        # mix[a] covers the colors b with (a, b) mixed, ones[a] those among
        # them whose f is an edge; u's own bit may be set, which the
        # components ignore, and so are the rows of uncolored vertices
        mix = spread(mixed)
        choice = mixed
        while True:
            ones = spread(choice)
            conflict = [(r ^ ones[c]) & mix[c] for r, c in zip(rows, colors)]
            finer = [part for block in blocks
                     for part in mask_components(conflict, block)]
            if len(finer) > len(blocks):
                key = tuple(sorted(finer))
                if failed.get(key, levels + 1) > level + 1:
                    if (yield feasible(level + 1, finer)):
                        return True
                    failed[key] = level + 1
            if not choice:
                return False
            choice = (choice - 1) & mixed

    top = [0] * (n + 1)  # top[t] = the colors used on vertices 0..t-1
    t = 0
    while 0 <= t < n:
        c = colors[t]
        if c >= 0:
            cls[c] ^= 1 << t
        if c < min(top[t], m - 1):  # t takes its next color
            c = colors[t] = c + 1
            cls[c] |= 1 << t
            used = top[t + 1] = max(top[t], c + 1)  # the colors the prefix uses
            failed = {}  # partition -> least level at which it failed
            if t < 2 or _drive(feasible(0, [(2 << t) - 1])):
                t += 1
        else:  # every color of t failed: recolor t - 1
            colors[t] = -1
            t -= 1
    return t == n


def tm_membership(g, d, m, cap=DEFAULT_TM_CAP):
    """Least-shape witness model of depth d with m colors, or None.

    `_decide` answers first, so a NO never walks the chains, and a YES
    always finds a chain, since both searches are exact.  For a YES the
    first chain (in nested-partition enumeration order) admitting a coloring
    wins; pruning never skips a chain that admits one, so the witness is the
    one the unpruned enumeration would find.
    """
    _whole(d=d, m=m, cap=cap)
    if d < 0 or m < 1:
        raise DomainError("need d >= 0 and m >= 1")
    _admit(g, cap, "membership")
    if not _decide(g, d, m):
        return None
    if d == 0:
        return TreeModel(RootedTree([-1]), 0, m, {0: 0}, {0: 1}, set())
    return _build_witness(g, d, m, *_first_hit(g, m, d, d - 1, None))


def tmc_membership(g, d, m, k, cap=DEFAULT_TM_CAP):
    """Witness for the k-copied class: depth d+1 models, m colors, at most
    k leaves per depth-d node.  Returns a CopiedTreeModel or None."""
    _whole(d=d, m=m, k=k, cap=cap)
    if d < 0 or m < 1 or k < 1:
        raise DomainError("need d >= 0, m >= 1, k >= 1")
    _admit(g, cap, "membership")
    if not _decide(g, d + 1, m, k):
        return None
    model = _build_witness(g, d + 1, m, *_first_hit(g, m, d + 1, d, k))
    return CopiedTreeModel(model, d, m, k)


def _relabel_sc(t, mapping):
    """t with each vertex v renamed mapping[v]."""
    if all(mapping[v] == v for v in t.leaf_vertices):
        return t
    return fold_sc(
        t,
        lambda node, _: SCTree.leaf(mapping[node.vertex]),
        lambda node, _, children: SCTree.inner(children, [mapping[v] for v in node.x]),
    )


def _clique_vertices(rows):
    """Sorted endpoints of the edges if the edges are every pair among them
    (a clique plus isolated vertices), else None."""
    ends = [v for v, row in enumerate(rows) if row]
    return ends if all(rows[v].bit_count() == len(ends) - 1 for v in ends) else None


def _sub_rows(rows, verts):
    """The rows of the subgraph induced on verts, with verts[i] renumbered i."""
    return tuple(sum(1 << i for i, w in enumerate(verts) if rows[v] >> w & 1)
                 for v in verts)


def sc_membership(g, depth, cap=DEFAULT_SC_CAP):
    """Witness SC-tree of height <= depth realizing g, or None.

    Heights 0 and 1 are decided in closed form before any canonical form is
    taken: height 0 holds one vertex only, and height 1 holds exactly a
    clique plus isolated vertices, whose witness flips the clique (or
    nothing) over the leaves.  Above that, `_sc_prefix` finds the least
    complement set X of the canonical form by one search that fixes X one
    vertex at a time and cuts a prefix as soon as a component of its flip
    leaves SC(depth - 1), where a complement-set loop tried all 2^n sets and
    built a graph, its components and their induced subgraphs for each.
    The component verdicts are memoized on their rows, with no canonical
    form.  Only the accepted X is flipped, and its components recurse here
    for their witnesses, memoized on (canonical form, remaining depth), so
    the witness is the one the loop found: the random graph G(9) of seed 99
    is a NO at height 3 after 1,997 search steps and a YES at height 4 after
    55,792, where the loop took about 14 s and more than 870 s.  A YES at
    height 1 still goes through the canonical form and the memo, so that
    its witness lists the leaves in canonical order.  Every step is a
    generator run by `_drive`, so a large budget does not overflow the stack.
    The witness is checked against g, labels aside, before it is returned;
    one that fails raises ValidationError.  The recursion runs on adjacency
    rows and per-vertex label names, so only that check builds a Graph.
    """
    _whole(depth=depth, cap=cap)
    if depth < 0:
        raise DomainError("depth must be >= 0")
    _admit(g, cap, "sc membership")
    memo = {}
    fits = {}  # (component rows, height) -> whether it is in SC(height)

    def member(rows, names, budget):
        if len(rows) == 1:
            return SCTree.leaf(0)
        if budget == 0:
            return None
        if budget == 1 and _clique_vertices(rows) is None:
            return None
        key, perm = canonical_rows(rows, names)
        order = sorted(perm, key=perm.get)  # order[new] = old
        if (key, budget) not in memo:
            memo[key, budget] = yield _member_canonical(
                _sub_rows(rows, order), names and [names[v] for v in order], budget)
        witness = memo[key, budget]
        return None if witness is None else _relabel_sc(witness, order)

    def _member_canonical(rows, names, budget):
        n = len(rows)
        if budget == 1:
            # the least X whose flip leaves every component in SC(0): none if
            # the graph has no edges, else the clique, the only X leaving no edge
            leaves = [SCTree.leaf(v) for v in range(n)]
            return SCTree.inner(leaves, _clique_vertices(rows))
        mask = yield _sc_prefix(rows, budget, fits, n - 1, 0)
        if mask is None:
            return None
        flip = [r ^ mask ^ 1 << v if mask >> v & 1 else r for v, r in enumerate(rows)]
        children = []
        for comp in mask_components(flip, (1 << n) - 1):
            ids = _bits(comp)
            sub_witness = yield member(
                _sub_rows(flip, ids), names and [names[v] for v in ids], budget - 1)
            children.append(_relabel_sc(sub_witness, ids))
        return SCTree.inner(children, _bits(mask))

    witness = _drive(member(adjacency_rows(g), _label_names(g), depth))
    if witness is not None and (not verify_sc(witness, g) or witness.height > depth):
        raise ValidationError("the SC witness does not denote the graph")
    return witness


def _sc_prefix(rows, h, fits, t, x):
    """The least complement set X, as a mask, that agrees with the mask x on
    the vertices above t and whose flip leaves every component of the graph
    with adjacency rows `rows` in SC(h - 1), or None; X = {} on a connected
    graph, the unchanged whole, is refused.

    x_t is tried as 0 and then as 1, and then the vertex below t, so the
    complete sets come in increasing mask order.  After x_t is fixed, the
    component of t in the flipped prefix graph, on the vertices t..n-1, is
    tested; the other components of the prefix are those of the step
    before, already tested.  SC(h - 1) is hereditary, and a flip changes
    only pairs inside X, so each component of a prefix is an induced
    subgraph of a component of the whole flip: a prefix failing the test
    has no completion that passes, and each component of a complete flip is
    tested whole when its least vertex is placed.  So the first complete set
    reached is the least one the test of every component accepts.  A
    component's verdict is memoized in `fits` on its rows, renumbered in
    vertex order, and its height; it recurses into this search at the
    height below.  Each call is one vertex of one search, a generator run
    by `_drive`."""
    n = len(rows)
    prefix = (1 << n) - (1 << t)
    for y in (x, x | 1 << t):
        flip = [(r ^ y ^ 1 << v if y >> v & 1 else r) & prefix
                for v, r in enumerate(rows)]
        comp = mask_components(flip, prefix)[0]  # t's: t is least in prefix
        if comp & (comp - 1):  # a single vertex is in SC(0)
            if t == 0 and not y and comp == prefix:
                continue
            verts = [v for v in range(t, n) if comp >> v & 1]
            if h <= 2:  # SC(0) holds one vertex, SC(1) connected is a clique
                ok = h == 2 and all(flip[v].bit_count() == len(verts) - 1
                                    for v in verts)
            else:
                sub = _sub_rows(flip, verts)
                ok = fits.get((sub, h - 1))
                if ok is None:
                    found = yield _sc_prefix(sub, h - 1, fits, len(sub) - 1, 0)
                    ok = fits[sub, h - 1] = found is not None
            if not ok:
                continue
        if t == 0:
            return y
        found = yield _sc_prefix(rows, h, fits, t - 1, y)
        if found is not None:
            return found
    return None


def _next_level(graphs, admit=None):
    """Canonical key -> (rows of the first extension reaching it, its
    canonical labelling) over the extensions of graphs by a vertex g.n of
    least degree, joined to a mask with popcount(mask) <= deg_g(v) +
    [v in mask] for every v < g.n.  An isomorphism from a least-degree
    deletion of a class to some g carries the deleted vertex's neighbours to
    an admitted mask, so the class is reached.  An extension is a tuple of
    adjacency rows, g's rows with bit g.n set from the mask and the mask as
    the new row, and no Graph is built for it.  With admit, only an
    extension h with admit(h) is canonized."""
    found = {}
    for g in graphs:
        rows = adjacency_rows(g)
        k = len(rows)
        degrees = [row.bit_count() for row in rows]
        for mask in range(1 << k):
            size = mask.bit_count()
            if any(d + (mask >> v & 1) < size for v, d in enumerate(degrees)):
                continue
            h = tuple(row | (mask >> v & 1) << k for v, row in enumerate(rows)) + (mask,)
            if admit is None or admit(h):
                key, perm = canonical_rows(h)
                found.setdefault(key, (h, perm))
    return found


def _levels(max_n, member):
    """(member classes on max_n vertices, minimal non-members on 1..max_n
    vertices) of the hereditary class that member decides on non-empty
    graphs, each list in canonical layout, by level and key.  Every member
    and every minimal non-member has a member as its least-degree deletion,
    so only member classes are kept and extended.  An extension is canonized
    only if each one-vertex deletion is a member (its new vertex's gives the
    member it extends, twins give isomorphic ones, and the rest are tested
    by `_deletions_in` against the last level's members); else it is not
    minimal.  So member runs once per member class and once per minimal
    non-member, and only these classes become a Graph.  Equal keys give the
    same canonical layout, so which extension reaches a key first does not
    change the output."""
    out, members, member_keys = [], [Graph(0)], set()
    for _ in range(max_n):
        # until a level holds a non-member, every smaller graph is a member
        found = _next_level(members, _deletions_in(member_keys, members) if out else None)
        members, member_keys = [], set()
        for key in sorted(found):
            rows, perm = found[key]
            g = Graph(len(rows), [(perm[u], perm[v]) for u, row in enumerate(rows)
                                  for v in range(u) if row >> v & 1])
            if member(g):
                members.append(g)
                member_keys.add(key)
            else:
                out.append(g)
    return members, out


def enumerate_graphs(n):
    """Every graph on 0..n-1 up to isomorphism, each in canonical layout,
    ordered by canonical form; 3,132 canonical forms up to n = 7."""
    _whole(n=n)
    if n < 0:
        raise DomainError("n must be >= 0")
    return _levels(n, lambda g: True)[0]


def minimal_obstructions(d, m, max_n, cap=DEFAULT_TM_CAP):
    """Non-members (up to isomorphism, <= max_n vertices) all of whose
    one-vertex deletions are members, in canonical layout, by level and key.
    A tree-model restricts to any subset of its leaves, so the class is
    hereditary: for (1, 2, 6), `_levels` makes 44 decides, 84 canonical
    forms and 45 Graphs, where enumerating all graphs took 76 decides and
    499 canonical forms."""
    _whole(d=d, m=m, max_n=max_n, cap=cap)
    if max_n < 1:
        raise DomainError("max_n must be >= 1")
    if max_n > cap:
        raise ResourceLimitError(f"membership cap is {cap} vertices, got max_n={max_n}")
    if d < 0 or m < 1:
        raise DomainError("need d >= 0 and m >= 1")
    return _levels(max_n, lambda g: _decide(g, d, m))[1]


def _deletions_in(keys, members):
    """The test that the extension rows h minus v have their canonical key
    in keys, the members' keys, for one v of each twin class but that of
    h's last vertex.  The rows of h - v squeeze bit v out of h's rows.  h is
    refused first if the sorted degree sequence of any such deletion is no
    member's: isomorphic graphs share it, so the cut is exact and takes no
    canonical form.  Only then are the deletions looked up in a memo on
    their rows and canonized on a miss: for (1, 2, 6), `_levels` makes 84
    canonical forms where it made 140 with no cut and a Graph per
    deletion."""
    degrees = {tuple(sorted(row.bit_count() for row in adjacency_rows(g))) for g in members}
    memo = {}

    def admit(h):
        deletions = []
        for twins in twin_classes(h):
            if twins[-1] == len(h) - 1:
                continue
            v = twins[0]
            low = (1 << v) - 1
            rows = tuple(r & low | r >> 1 & ~low for u, r in enumerate(h) if u != v)
            if tuple(sorted(row.bit_count() for row in rows)) not in degrees:
                return False
            deletions.append(rows)
        for rows in deletions:
            if rows not in memo:
                memo[rows] = canonical_rows(rows)[0] in keys
            if not memo[rows]:
                return False
        return True
    return admit
