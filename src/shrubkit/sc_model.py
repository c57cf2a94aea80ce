"""Subset-complementation trees and conversions to and from tree-models.

An SCTree leaf is a graph vertex; an internal node takes the disjoint union
of its children's graphs and then flips the adjacency inside its set X.  The
number of tree levels above the leaves bounds how many complementations any
vertex pair can see.

The file format is JSON: {"vertex": v} at leaves, {"X": [...], "children":
[...]} at internal nodes, children ordered by minimum leaf id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import DomainError, ValidationError
from .graph import Graph, flip_inside
from .rooted_tree import RootedTree, flatten_records, load_json
from .tree_model import TreeModel, infer_signature


@dataclass(frozen=True, slots=True)
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


def _eval_edges(t):
    if t.is_leaf:
        return set()
    edges = set()
    for child in t.children:
        edges |= _eval_edges(child)
    flip_inside(edges, t.x)
    return edges


def evaluate_sc(t):
    """The graph an SCTree denotes; leaf ids must be exactly 0..n-1."""
    n = len(t.leaf_vertices)
    if t.leaf_vertices != frozenset(range(n)):
        raise ValidationError("leaf vertex ids must be exactly 0..n-1")
    return Graph(n, _eval_edges(t))


def pad_sc(t, target):
    """Push every leaf to depth exactly `target` with no-op unary nodes."""
    if target < t.height:
        raise DomainError(f"target {target} is below the tree height {t.height}")

    def rebuild(node, depth):
        if node.is_leaf:
            out = node
            for _ in range(target - depth):
                out = SCTree.inner((out,), frozenset())
            return out
        return SCTree.inner(
            tuple(rebuild(c, depth + 1) for c in node.children), node.x
        )

    return rebuild(t, 0)


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

    def color_sets(node):
        out = {}
        for u in tree.leaf_descendants(node):
            out.setdefault(model.leaf_color[u], set()).add(model.leaf_vertex[u])
        return out

    def build(node):
        if tree.is_leaf(node):
            return SCTree.leaf(model.leaf_vertex[node])
        lvl = model.depth - tree.depth(node)
        schedule = _level_schedule(model, lvl)
        wrapped = []
        for child in tree.children(node):
            sub = build(child)
            classes = color_sets(child)
            for colors in schedule:
                x = frozenset().union(*(classes.get(c, ()) for c in colors))
                if len(x) >= 2:
                    sub = SCTree.inner((sub,), x)
            wrapped.append(sub)
        classes = color_sets(node)
        global_sets = []
        for colors in schedule:
            x = frozenset().union(*(classes.get(c, ()) for c in colors))
            if len(x) >= 2:
                global_sets.append(x)
        out = SCTree.inner(tuple(wrapped), global_sets[0] if global_sets else ())
        for x in global_sets[1:]:
            out = SCTree.inner((out,), x)
        return out

    return build(tree.root)


def sc_to_tm(t):
    """Tree-model of depth height(t) with at most 2^height colors.

    After padding the leaves to uniform depth, a leaf's color is the binary
    vector recording which ancestor X sets contain it; two leaves are
    adjacent exactly when their pair lies inside an odd number of X sets,
    which their colors and meeting level determine.  So every class of leaf
    pairs agrees on adjacency, and the signature is the minimal one that
    `infer_signature` reads off the evaluated graph.
    """
    k = t.height
    g = evaluate_sc(t)
    parent = []
    leaf_vertex = {}
    leaf_color = {}

    def build(node, parent_id, x_stack):
        parent.append(parent_id)
        me = len(parent) - 1
        if node.is_leaf:
            v = node.vertex
            leaf_vertex[me] = v
            leaf_color[me] = 1 + sum(
                1 << i for i, x in enumerate(reversed(x_stack)) if v in x
            )
        else:
            x_stack.append(node.x)
            for child in node.children:
                build(child, me, x_stack)
            x_stack.pop()

    build(pad_sc(t, k), -1, [])
    tree = RootedTree(parent)
    signature = infer_signature(tree, leaf_vertex, leaf_color, g)
    return TreeModel(tree, k, max(2**k, 1), leaf_vertex, leaf_color, signature)


# ---------------------------------------------------------------------------
# serialization


def _sc_record(t):
    if t.is_leaf:
        return {"vertex": t.vertex}
    children = sorted(t.children, key=lambda c: min(c.leaf_vertices))
    return {"X": sorted(t.x), "children": [_sc_record(c) for c in children]}


def sc_to_text(t):
    """Canonical JSON serialization of an SCTree."""
    return json.dumps(_sc_record(t), indent=2, sort_keys=True) + "\n"


_SC_SHAPES = ({"vertex": int}, {"X": (int,), "children": list})


def sc_from_text(text):
    """Parse the JSON SCTree format; malformed input raises ValidationError."""
    parent, records = flatten_records(load_json(text, "SC-tree"), _SC_SHAPES, "SC-tree")
    tree = RootedTree(parent)
    nodes = [None] * tree.n
    # preorder ids put every child after its parent, so build bottom up
    for u in reversed(range(tree.n)):
        record = records[u]
        if "vertex" in record:
            nodes[u] = SCTree.leaf(record["vertex"])
        else:
            nodes[u] = SCTree.inner((nodes[c] for c in tree.children(u)), record["X"])
    return nodes[0]
