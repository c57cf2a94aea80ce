"""Subset-complementation trees and conversions to and from tree-models.

An SCTree leaf is a graph vertex; an internal node takes the disjoint union
of its children's graphs and then flips the adjacency inside its set X.  The
number of tree levels above the leaves bounds how many complementations any
vertex pair can see.

The file format is JSON: {"vertex": v} at leaves, {"X": [...], "children":
[...]} at internal nodes, children ordered by minimum leaf id.
"""

from __future__ import annotations

from dataclasses import field

from .errors import DomainError, ValidationError
from .graph import Graph, flip_inside
from .rooted_tree import RootedTree, dump_json, flatten_records, load_json
from .tree_model import TreeModel, infer_signature
from .values import value_class


@value_class
class SCTree:
    """An immutable subset-complementation tree node.

    A leaf is (None, None, vertex), an internal node (children, x, None).
    """

    children: tuple
    x: frozenset
    vertex: int
    leaf_vertices: frozenset = field(init=False, compare=False)
    height: int = field(init=False, compare=False)

    def __post_init__(self):
        children, x, vertex = self.children, self.x, self.vertex
        if children is None:
            if not isinstance(vertex, int) or vertex < 0:
                raise ValidationError(f"leaf vertex must be an int >= 0, got {vertex}")
            object.__setattr__(self, "leaf_vertices", frozenset([vertex]))
            object.__setattr__(self, "height", 0)
        else:
            if not children:
                raise ValidationError("internal node needs at least one child")
            union = set()
            for child in children:
                overlap = union & child.leaf_vertices
                if overlap:
                    raise ValidationError(
                        f"duplicate leaf vertex ids across children: {sorted(overlap)}"
                    )
                union |= child.leaf_vertices
            if not x <= union:
                raise ValidationError(
                    f"X contains non-descendant vertices: {sorted(x - union)}"
                )
            object.__setattr__(self, "leaf_vertices", frozenset(union))
            object.__setattr__(self, "height", 1 + max(c.height for c in children))

    @classmethod
    def leaf(cls, vertex):
        return cls(None, None, vertex)

    @classmethod
    def inner(cls, children, x=()):
        return cls(tuple(children), frozenset(x), None)

    @property
    def is_leaf(self):
        return self.children is None

    def __repr__(self):
        if self.is_leaf:
            return f"SCTree.leaf({self.vertex})"
        return f"SCTree(height={self.height}, n={len(self.leaf_vertices)})"


def fold_sc(t, leaf, inner):
    """Fold t bottom up: leaf(node, depth) at each leaf and inner(node, depth,
    results) at each internal node, results in children order.  An explicit
    stack stands in for the call stack, so that any height fits."""
    done = []
    stack = [(t, 0, False)]
    while stack:
        node, depth, expanded = stack.pop()
        if node.is_leaf:
            done.append(leaf(node, depth))
        elif expanded:
            cut = len(done) - len(node.children)
            results = done[cut:]
            del done[cut:]
            done.append(inner(node, depth, results))
        else:
            stack.append((node, depth, True))
            stack.extend((c, depth + 1, False) for c in reversed(node.children))
    return done[0]


def evaluate_sc(t):
    """The graph an SCTree denotes; leaf ids must be exactly 0..n-1.

    Children cover disjoint leaf sets and each X lies inside its node's
    leaves, so the edge set is the symmetric difference of the pairs inside
    every node's X, taken in any order.
    """
    n = len(t.leaf_vertices)
    if t.leaf_vertices != frozenset(range(n)):
        raise ValidationError("leaf vertex ids must be exactly 0..n-1")
    edges = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            flip_inside(edges, node.x)
            stack.extend(node.children)
    return Graph(n, edges)


def verify_sc(t, g):
    """True iff t denotes g: the same vertex count and edges, labels aside."""
    denoted = evaluate_sc(t)
    return denoted.n == g.n and denoted.edges == g.edges


def pad_sc(t, target):
    """Push every leaf to depth exactly `target` with no-op unary nodes."""
    if target < t.height:
        raise DomainError(f"target {target} is below the tree height {t.height}")

    def leaf(node, depth):
        for _ in range(target - depth):
            node = SCTree.inner((node,), frozenset())
        return node

    return fold_sc(t, leaf, lambda node, _, children: SCTree.inner(children, node.x))


def _level_schedule(model, lvl):
    """Color sets to complement for one level, at most C(m+1, 2) of them.

    One set per adjacent color pair {i, j}, plus one singleton set per color
    whose within-class adjacency disagrees with the parity the pair sets
    already produce.  Subset complements commute, so only the multiset of
    sets matters, and this family flips exactly the pairs the signature
    lists at this level.
    """
    m = model.colors
    sig = model.signature
    sets = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            if (i, j, lvl) in sig:
                sets.append(frozenset((i, j)))
    for i in range(1, m + 1):
        cross = sum(1 for j in range(1, m + 1) if j != i and (i, j, lvl) in sig)
        diagonal = 1 if (i, i, lvl) in sig else 0
        if cross % 2 != diagonal:
            sets.append(frozenset((i,)))
    return sets


def tm_to_sc(model):
    """SCTree evaluating to realize(model), of height <= d * m * (m + 1).

    Pairs meeting at a node of the model are handled by complementing color
    class unions, once inside every child (so sibling-internal pairs cancel)
    and once after the union (adding exactly the cross pairs).
    """
    tree = model.tree

    def unions(sets, schedule):
        for colors in schedule:
            x = frozenset().union(*(sets.get(c, ()) for c in colors))
            if len(x) >= 2:
                yield x

    def visit(node, done):
        """(SC-tree, vertex set of each color) of the subtree at node."""
        if not done:
            v = model.leaf_vertex[node]
            return SCTree.leaf(v), {model.leaf_color[node]: {v}}
        schedule = _level_schedule(model, model.depth - tree.depth(node))
        wrapped, merged = [], {}
        for sub, sets in done:
            for x in unions(sets, schedule):
                sub = SCTree.inner((sub,), x)
            wrapped.append(sub)
            for c, vs in sets.items():
                merged.setdefault(c, set()).update(vs)
        global_sets = list(unions(merged, schedule))
        out = SCTree.inner(tuple(wrapped), global_sets[0] if global_sets else ())
        for x in global_sets[1:]:
            out = SCTree.inner((out,), x)
        return out, merged

    return tree.fold(visit)[0]


def sc_to_tm(t):
    """Tree-model of depth height(t) with at most 2^height colors.

    After padding the leaves to uniform depth, a leaf's color is the binary
    vector recording which ancestor X sets contain it, bit k - 1 - j for
    the ancestor at depth j; two leaves are
    adjacent exactly when their pair lies inside an odd number of X sets,
    which their colors and meeting level determine.  So every class of leaf
    pairs agrees on adjacency, and the signature is the minimal one that
    `infer_signature` reads off the evaluated graph.
    """
    k = t.height
    g = evaluate_sc(t)
    parent, leaf_vertex, bits = [], {}, {}
    # node ids are preorder positions: (node, parent id, depth)
    stack = [(pad_sc(t, k), -1, 0)]
    while stack:
        node, up, depth = stack.pop()
        me = len(parent)
        parent.append(up)
        if node.is_leaf:
            leaf_vertex[me] = node.vertex
        else:
            for v in node.x:
                bits[v] = bits.get(v, 0) | 1 << (k - 1 - depth)
            stack.extend((c, me, depth + 1) for c in reversed(node.children))
    leaf_color = {u: 1 + bits.get(v, 0) for u, v in leaf_vertex.items()}
    tree = RootedTree(parent)
    signature = infer_signature(tree, leaf_vertex, leaf_color, g)
    return TreeModel(tree, k, max(2**k, 1), leaf_vertex, leaf_color, signature)


# ---------------------------------------------------------------------------
# serialization


def _sc_record(node, _, records):
    pairs = sorted(zip(node.children, records), key=lambda p: min(p[0].leaf_vertices))
    return {"X": sorted(node.x), "children": [r for _, r in pairs]}


def sc_to_text(t):
    """Canonical JSON serialization of an SCTree."""
    return dump_json(fold_sc(t, lambda node, _: {"vertex": node.vertex}, _sc_record)) + "\n"


_SC_SHAPES = ({"vertex": int}, {"X": (int,), "children": list})


def sc_from_text(text):
    """Parse the JSON SCTree format; malformed input raises ValidationError."""
    parent, records = flatten_records(load_json(text, "SC-tree"), _SC_SHAPES, "SC-tree")

    def visit(u, children):
        record = records[u]
        if "vertex" in record:
            return SCTree.leaf(record["vertex"])
        return SCTree.inner(children, record["X"])

    return RootedTree(parent).fold(visit)
