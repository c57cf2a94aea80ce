"""Elimination forests, exact tree-depth, and the model a decomposition yields.

The forest text format is one `v parent` line per vertex in ascending vertex
order, with parent -1 for roots.
"""

from __future__ import annotations

from dataclasses import field

from .errors import DomainError, ResourceLimitError, ValidationError, _whole
from .graph import Graph, adjacency_rows, mask_components
from .rooted_tree import RootedTree
from .tree_model import TreeModel, grow_leaf
from .values import value_class

DEFAULT_TD_CAP = 16


@value_class
class EliminationForest:
    """An immutable rooted forest on vertices 0..n-1 (parent -1 at roots).

    It is held as `tree`, a RootedTree on n + 1 nodes whose node n is a
    virtual root above the forest's roots.
    """

    parent: tuple
    tree: RootedTree = field(init=False, compare=False)

    def __post_init__(self):
        parent = tuple(self.parent)
        n = len(parent)
        for v, p in enumerate(parent):
            if p != -1 and not 0 <= p < n:
                raise ValidationError(f"vertex {v} has out-of-range parent {p}")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(
            self, "tree", RootedTree([n if p == -1 else p for p in parent] + [-1])
        )

    @property
    def n(self):
        return len(self.parent)

    @property
    def height(self):
        return self.tree.height - 1

    def depth(self, v):
        return self.tree.depth(v) - 1

    def roots(self):
        return self.tree.children(self.n)

    def ancestors(self, v):
        return self.tree.ancestors(v)[:-1]

    def __repr__(self):
        return f"EliminationForest(parent={list(self.parent)})"


def closure(f):
    """Graph joining every vertex to each of its strict ancestors."""
    edges = []
    for v in range(f.n):
        for a in f.ancestors(v):
            edges.append((v, a))
    return Graph(f.n, edges)


def validate_td(g, f):
    """True iff f is an elimination forest for g (every edge is covered)."""
    if f.n != g.n:
        raise DomainError(
            f"forest has {f.n} vertices but the graph has {g.n}"
        )
    ancestry = [set(f.ancestors(v)) for v in range(f.n)]
    return all(v in ancestry[u] or u in ancestry[v] for u, v in g.edges)


def tree_depth(g, cap=DEFAULT_TD_CAP):
    """Exact tree-depth with a witness forest of height tree_depth - 1.

    Vertex subsets are bitmasks.  `at_most(mask, k)` decides td(mask) <= k:
    a disconnected subset needs every component to pass at k, a connected
    one some vertex whose deletion passes at k - 1, and a subset of at most
    k vertices passes at once.  At k <= 2 the rows answer directly, with no
    components and no recursion: td <= 1 iff no edge lies inside the subset,
    td <= 2 iff each edge has an end of degree 1, i.e. a star forest.  Each
    decision is stored as a bound, an upper one when it passes and a lower
    one when it fails, so a subset is never decided twice at the same k.
    Every decision is the truth about td <= k however it is reached, so the
    closed forms change neither the value nor the witness below.  The exact
    value searches downward from the best known upper bound (or the vertex
    count) and stops at the floor max(known lower bound, degeneracy + 1),
    which holds because treewidth is at least the degeneracy and tree-depth
    exceeds treewidth.

    The witness roots each component at its first vertex, in ascending
    order, whose deletion lowers the tree-depth; since td(G - v) is td(G)
    or td(G) - 1 for a connected G, that is the first v passing
    at_most(comp - v, td(comp) - 1).  The forest is built on an explicit
    stack, and it is checked against g and its height before it is
    returned; a forest that fails raises ValidationError.
    """
    _whole(cap=cap)
    n = g.n
    if n > cap:
        raise ResourceLimitError(f"tree_depth cap is {cap} vertices, got {n}")
    adj = adjacency_rows(g)

    def members(mask):
        return [v for v in range(n) if mask >> v & 1]

    def degeneracy(mask):
        best = 0
        while mask:
            v = min(members(mask), key=lambda u: (adj[u] & mask).bit_count())
            best = max(best, (adj[v] & mask).bit_count())
            mask &= ~(1 << v)
        return best

    row_of = {1 << v: row for v, row in enumerate(adj)}  # keyed by bit

    def star_forest(mask, k):
        """td(mask) <= k for k in (1, 2): no edge in mask at k = 1, and at
        k = 2 no edge in mask between two vertices of degree 2 or more."""
        hubs = 0  # the vertices met so far with two or more neighbours
        rest = mask
        while rest:
            b = rest & -rest
            row = row_of[b] & mask
            if row & (row - 1):
                if k == 1 or row & hubs:
                    return False
                hubs |= b
            elif row and k == 1:
                return False
            rest ^= b
        return True

    lower = {}  # mask -> a proven lower bound on its tree-depth
    upper = {}  # mask -> a proven upper bound

    def at_most(mask, k, comps=None):
        """td(mask) <= k; `comps` are mask's components when already known."""
        if upper.get(mask, mask.bit_count()) <= k:
            return True
        if lower.get(mask, 1) > k:
            return False
        if k <= 2:
            ok = star_forest(mask, k)
        elif len(comps := comps or mask_components(adj, mask)) > 1:
            for c in comps:
                ok = at_most(c, k, [c])
                if not ok:
                    break
        else:
            rest = mask
            while rest:
                v = rest & -rest
                ok = at_most(mask ^ v, k - 1)
                if ok:
                    break
                rest ^= v
        if ok:
            upper[mask] = k
        else:
            lower[mask] = k + 1
        return ok

    def td(mask):
        k = upper.get(mask, mask.bit_count())
        floor = max(lower.get(mask, 1), degeneracy(mask) + 1)
        while k > floor and at_most(mask, k - 1):
            k -= 1
        return k

    value = td((1 << n) - 1)
    # (vertex set, the vertex above it) on an explicit stack, so the forest
    # may be deeper than the recursion limit; at_most is exact, so the root
    # chosen for a component does not depend on the order of the visits
    parent = [-1] * n
    stack = [((1 << n) - 1, -1)]
    while stack:
        mask, above = stack.pop()
        for comp in mask_components(adj, mask):
            target = td(comp)
            for v in members(comp):
                if at_most(comp & ~(1 << v), target - 1):
                    parent[v] = above
                    stack.append((comp & ~(1 << v), v))
                    break
    forest = EliminationForest(parent)
    if forest.height != value - 1 or not validate_td(g, forest):
        raise ValidationError("the witness forest does not fit the graph")
    return value, forest


def td_to_tm(g, f):
    """Tree-model realizing g, built from an elimination forest.

    With a single-root forest the forest itself is the tree (depth =
    height), otherwise a fresh root joins the trees (depth = height + 1).
    Vertices are colored by their depth together with the set of ancestor
    distances carrying an edge, vertices above leaf level grow a private
    path down, and adjacency becomes a color rule: a pair is adjacent
    exactly when it meets at the shallower vertex and the depth difference
    lies in the deeper vertex's ancestor-edge set.  Color count stays below
    2^(height(f) + 1).
    """
    if g.n == 0:
        raise DomainError("cannot build a model for the empty graph")
    if not validate_td(g, f):
        raise DomainError("forest is not an elimination forest for the graph")
    d = f.height + 1
    tree = RootedTree(f.parent) if len(f.roots()) == 1 else f.tree
    model_depth = tree.height

    def color_of(u):
        j = model_depth - tree.depth(u)
        ancestor_edges = frozenset(
            i
            for i, a in enumerate(tree.ancestors(u), start=1)
            if a < g.n and g.has_edge(u, a)
        )
        # colors pack (depth offset j, ancestor-edge set I) injectively
        offset = sum(1 << (d - 1 - jj) for jj in range(j))
        return offset + 1 + sum(1 << (i - 1) for i in ancestor_edges), j, ancestor_edges

    colors = {u: color_of(u) for u in range(g.n)}

    leaf_vertex = {}
    leaf_color = {}
    for u in range(g.n):
        tree, leaf = grow_leaf(tree, u, model_depth)
        leaf_vertex[leaf] = u
        leaf_color[leaf] = colors[u][0]

    signature = set()
    used = {}
    for u in range(g.n):
        c, j, edges_i = colors[u]
        used.setdefault((c, j, edges_i), u)
    for c1, j1, i1 in used:
        for c2, j2, _ in used:
            if j1 < j2 and (j2 - j1) in i1:
                signature.add((c1, c2, j2))
                signature.add((c2, c1, j2))

    return TreeModel(
        tree, model_depth, 2**d - 1, leaf_vertex, leaf_color, signature
    )


def forest_to_text(f):
    """Serialize to `v parent` lines."""
    return "".join(f"{v} {p}\n" for v, p in enumerate(f.parent))


def forest_from_text(text):
    """Parse `v parent` lines; vertices must be exactly 0..n-1."""
    entries = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValidationError(f"bad forest line: {ln!r}")
        try:
            v, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValidationError(f"bad forest line: {ln!r}") from None
        if v in entries:
            raise ValidationError(f"vertex {v} listed twice")
        entries[v] = p
    if sorted(entries) != list(range(len(entries))):
        raise ValidationError("forest lines must cover vertices 0..n-1")
    return EliminationForest(tuple(entries[v] for v in range(len(entries))))
