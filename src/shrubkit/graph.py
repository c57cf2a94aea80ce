"""Simple undirected graphs on vertex set {0..n-1} with optional vertex labels.

The text format is line based: the first line holds the vertex count, every
following `u v` line one edge with u < v, and optional trailing lines
`label v NAME` attach a label to a vertex.  Writers emit edges and labels
sorted, so a written file re-reads and re-writes to identical bytes.  The
reader refuses a vertex count above MAX_TEXT_VERTICES, and edges whose rows
would take more than _MAX_TEXT_ROW_BITS bits, before it allocates either.
"""

from __future__ import annotations

from dataclasses import field
from itertools import combinations

from .errors import DomainError, ValidationError, _index
from .values import value_class

MAX_TEXT_VERTICES = 100_000
_MAX_TEXT_ROW_BITS = 1 << 29  # 64 MiB


@value_class
class Graph:
    """An immutable simple graph.

    Edges are stored as a sorted tuple of (u, v) pairs with u < v, labels as
    a dict mapping a vertex to a frozenset of label names (vertices without
    labels are absent from the dict).  The adjacency is stored once, as one
    int row per vertex built at construction: bit v of `_rows[u]` is set iff
    uv is an edge.  The rows take no part in equality, hashing or text.
    """

    n: int
    edges: tuple = ()
    labels: dict = None
    _rows: tuple = field(init=False, compare=False)

    def __post_init__(self):
        n, edges, labels = self.n, self.edges, self.labels
        if not isinstance(n, int) or n < 0:
            raise ValidationError(f"vertex count must be an integer >= 0, got {n!r}")
        edge_set = set()
        for e in edges:
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int)
                    and 0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge {e} is not a pair of vertex ids for n={n}")
            if u == v:
                raise ValidationError(f"loop at vertex {u} is not allowed")
            edge_set.add((u, v) if u < v else (v, u))
        label_map = {}
        if labels:
            for v, names in labels.items():
                if not _index(v, n):
                    raise ValidationError(f"label on missing vertex {v!r}")
                names = frozenset(str(name) for name in names)
                if names:
                    label_map[v] = names
        edges = tuple(sorted(edge_set))
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", label_map)
        object.__setattr__(self, "_rows", tuple(rows))

    def has_edge(self, u, v):
        return v >= 0 and self._rows[u] >> v & 1 == 1

    def neighbors(self, v):
        return frozenset(_bits(self._rows[v]))

    def degree(self, v):
        return self._rows[v].bit_count()

    def vertex_labels(self, v):
        return self.labels.get(v, frozenset())

    def __hash__(self):
        return hash((self.n, self.edges, frozenset(self.labels.items())))

    def __repr__(self):
        parts = [f"Graph(n={self.n}, edges={list(self.edges)}"]
        if self.labels:
            parts.append(f", labels={dict(sorted(self.labels.items()))}")
        return "".join(parts) + ")"


def complement_on_subset(g, x):
    """Flip the adjacency of every vertex pair inside x; pairs leaving x stay."""
    x = set(x)
    for v in x:
        if not _index(v, g.n):
            raise DomainError(f"subset vertex {v!r} not in graph")
    edges = set(g.edges)
    flip_inside(edges, x)
    return Graph(g.n, edges, g.labels)


def flip_inside(edges, x):
    """Toggle, in the set `edges` of (u, v) pairs with u < v, every pair inside x."""
    edges.symmetric_difference_update(combinations(sorted(x), 2))


def induced_subgraph(g, keep):
    """Induced subgraph on `keep`, renumbered densely in ascending id order.

    Returns (subgraph, id_map) where id_map[new] = old.
    """
    keep = set(keep)
    for v in keep:
        if not _index(v, g.n):
            raise DomainError(f"vertex {v!r} not in graph")
    keep = sorted(keep)
    pos = {old: new for new, old in enumerate(keep)}
    edges = [
        (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
    ]
    labels = {pos[v]: names for v, names in g.labels.items() if v in pos}
    return Graph(len(keep), edges, labels), tuple(keep)


def relabel_graph(g, perm):
    """Rename vertices by perm (perm[old] = new, a bijection on 0..n-1)."""
    vertices = list(range(g.n))
    # sorted(perm) reads a dict's keys but a list's values: test the values too
    if (sorted(perm) != vertices or sorted(perm[v] for v in vertices) != vertices
            or not all(isinstance(perm[v], int) for v in vertices)):
        raise DomainError("perm is not a bijection on the vertex set")
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    labels = {perm[v]: names for v, names in g.labels.items()}
    return Graph(g.n, edges, labels)


def adjacency_rows(g):
    """Adjacency as one int per vertex: bit v of rows[u] is set iff uv is an
    edge.  This is the graph's own tuple of rows, built at construction."""
    return g._rows


def _bits(mask):
    """The vertices whose bits are set in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_components(rows, mask):
    """Components of the vertex set `mask` in the graph whose adjacency rows
    are `rows`, as masks ordered by least vertex."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            v = frontier.bit_length() - 1
            frontier &= ~(1 << v)
            grow = rows[v] & mask & ~comp
            comp |= grow
            frontier |= grow
        comps.append(comp)
        rest &= ~comp
    return comps


def components(g):
    """Connected components as sorted vertex lists, ordered by minimum vertex.
    Each step works on n-bit masks: O(n^2 / word) time, for small graphs."""
    return [_bits(c) for c in mask_components(g._rows, (1 << g.n) - 1)]


def twin_partition(g):
    """Partition vertices into twin classes (blocks sorted, ordered by minimum).

    Two vertices are twins when their neighbourhoods agree outside the pair
    itself; this relation is an equivalence, so the partition is unique.
    """
    return twin_classes(g._rows)


def twin_classes(rows):
    """`twin_partition` of the graph whose adjacency rows are `rows`."""
    classes = []
    for v, row in enumerate(rows):
        for cls in classes:
            u = cls[0]
            if not (rows[u] ^ row) & ~(1 << u | 1 << v):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def neighbourhood_diversity(g):
    """Number of twin classes."""
    return len(twin_partition(g))


def _refine_colors(nbrs, colors):
    """Iterated neighbourhood refinement; returns stable per-vertex color ids.

    Colors are dense ranks, and a vertex's next color is the rank of its
    (color, sorted neighbour colors), so a round that splits no color class
    would give every vertex its color back, and ends the loop instead.
    """
    while True:
        keys = [
            (c, tuple(sorted([colors[w] for w in near])))
            for c, near in zip(colors, nbrs)
        ]
        ranked = sorted(set(keys))
        if len(ranked) == max(colors, default=-1) + 1:
            return colors
        order = {k: i for i, k in enumerate(ranked)}
        colors = [order[k] for k in keys]


def canonical_form(g):
    """Canonical key and labeling of g.

    Returns (key, perm) where perm[old] = canonical position and two graphs
    are isomorphic (label-preserving) iff their keys are equal.  The key is
    the minimum adjacency encoding over all orderings that respect the
    refined color cells, found by prefix-pruned backtracking on the
    adjacency rows: each vertex keeps its row against the placed positions,
    and candidates of one cell with equal rows and equal rows among the
    unplaced vertices are interchangeable, so only the first is explored.
    """
    return canonical_rows(g._rows, _label_names(g))


def _label_names(g):
    """Per vertex, its sorted label names, or None if g has no labels."""
    return [tuple(sorted(g.vertex_labels(v))) for v in range(g.n)] if g.labels else None


def canonical_rows(rows, names=None):
    """`canonical_form` of the graph whose adjacency rows are `rows` and
    whose vertex v carries the sorted label names names[v] (no labels when
    names is None)."""
    n = len(rows)
    nbrs = [_bits(row) for row in rows]
    init_keys = [len(near) for near in nbrs]
    if names:
        init_keys = list(zip(names, init_keys))
    order = {k: i for i, k in enumerate(sorted(set(init_keys)))}
    colors = _refine_colors(nbrs, [order[k] for k in init_keys])

    # color ids are dense ranks, so cell c holds the vertices of color c
    cells = [[] for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    # per canonical position, the cell it belongs to
    pos_cell = [cell for cell in cells for _ in cell]
    cell_signature = tuple(
        (names[cell[0]] if names else (), len(cell)) for cell in cells
    )

    def candidates(pos, free):
        """The vertices to try at pos, one per interchangeable group, as
        (row against the placed positions, vertex) in increasing order."""
        reps = []
        for v in pos_cell[pos]:
            if not free >> v & 1:
                continue
            row = placed_row[v]
            rv = rows[v]
            for r, u in reps:
                if r == row and not (rows[u] ^ rv) & free & ~(1 << u | 1 << v):
                    break
            else:
                reps.append((row, v))
        reps.sort()
        return iter(reps)

    best_rows = []
    best_perm = {}
    placed = []
    placed_row = [0] * n  # bit i of placed_row[v]: v is adjacent to placed[i]
    free = (1 << n) - 1
    # the backtracking runs on an explicit stack, so depth is not bounded by
    # the interpreter's recursion limit: stack[pos] yields the candidates at
    # pos not yet tried, and placed[pos] is the one being explored
    stack = [candidates(0, free)] if n else []
    while stack:
        pos = len(stack) - 1
        if len(placed) > pos:
            v = placed.pop()
            free |= 1 << v
            for w in nbrs[v]:
                placed_row[w] ^= 1 << pos
        step = next(stack[pos], None)
        if step is None:
            stack.pop()
            continue
        row, v = step
        if pos < len(best_rows):
            if row > best_rows[pos]:
                continue
            if row < best_rows[pos]:
                del best_rows[pos:]
                best_rows.append(row)
        else:
            best_rows.append(row)
        placed.append(v)
        free &= ~(1 << v)
        for w in nbrs[v]:
            placed_row[w] ^= 1 << pos
        if pos + 1 == n:
            best_perm = {v: i for i, v in enumerate(placed)}
        else:
            stack.append(candidates(pos + 1, free))
    return (n, cell_signature, tuple(best_rows)), best_perm


def are_isomorphic(g, h, witness=False):
    """Decide label-preserving isomorphism.

    With witness=True returns (flag, mapping) where mapping sends vertices of
    g to vertices of h (None when not isomorphic).
    """
    key_g, perm_g = canonical_form(g)
    key_h, perm_h = canonical_form(h)
    if key_g != key_h:
        return (False, None) if witness else False
    if not witness:
        return True
    inv_h = {pos: v for v, pos in perm_h.items()}
    mapping = {v: inv_h[perm_g[v]] for v in range(g.n)}
    if any(
        h.has_edge(mapping[u], mapping[v]) != g.has_edge(u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    ):
        raise RuntimeError(
            "equal canonical keys gave a mapping that is not an isomorphism"
        )
    return True, mapping


def is_induced_subgraph(h, g, embedding=False):
    """Decide whether h embeds into g as an induced subgraph.

    Edges and non-edges of h must both be preserved; labels are ignored.
    With embedding=True returns (flag, mapping h-vertex -> g-vertex) where
    mapping is None when no embedding exists.
    """
    order = sorted(range(h.n), key=lambda v: (-h.degree(v), v))
    image = []  # image[i] is the vertex of g that order[i] is mapped to
    used = [False] * g.n  # used[b]: b is in image
    b = 0  # the next vertex of g to try for order[len(image)]
    # depth-first on an explicit stack, so h may have more vertices than the
    # interpreter's recursion limit allows frames
    while len(image) < len(order):
        a = order[len(image)]
        while b < g.n and (used[b] or any(
                h.has_edge(a, a2) != g.has_edge(b, b2)
                for a2, b2 in zip(order, image))):
            b += 1
        if b < g.n:
            image.append(b)
            used[b] = True
            b = 0
        elif image:
            used[image[-1]] = False
            b = image.pop() + 1
        else:
            break
    found = len(image) == len(order)
    if embedding:
        return found, dict(sorted(zip(order, image))) if found else None
    return found


def graph_to_text(g):
    """Serialize to the line-based text format (deterministic)."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    for v in sorted(g.labels):
        for name in sorted(g.labels[v]):
            lines.append(f"label {v} {name}")
    return "\n".join(lines) + "\n"


def graph_from_text(text):
    """Parse the line-based text format; malformed input raises ValidationError."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValidationError("empty graph file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValidationError(f"bad vertex count line: {lines[0]!r}") from None
    if n > MAX_TEXT_VERTICES:
        raise ValidationError(
            f"vertex count {n} is above the reader's bound of {MAX_TEXT_VERTICES}"
        )
    edges = []
    labels = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "label":
            if len(parts) != 3:
                raise ValidationError(f"bad label line: {ln!r}")
            try:
                v = int(parts[1])
            except ValueError:
                raise ValidationError(f"bad label line: {ln!r}") from None
            labels.setdefault(v, set()).add(parts[2])
        else:
            if len(parts) != 2:
                raise ValidationError(f"bad edge line: {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValidationError(f"bad edge line: {ln!r}") from None
            if not u < v:
                raise ValidationError(f"edge line must have u < v: {ln!r}")
            edges.append((u, v))
    # a row is as wide as its vertex's highest neighbour: O(n^2) bits at worst
    width = [0] * n
    for u, v in edges:
        if 0 <= u and v < n:
            width[u] = max(width[u], v + 1)
            width[v] = max(width[v], u + 1)
    if (bits := sum(width)) > _MAX_TEXT_ROW_BITS:
        raise ValidationError(f"the adjacency rows would take {bits} bits, "
                              f"above the reader's bound of {_MAX_TEXT_ROW_BITS}")
    return Graph(n, edges, labels)
