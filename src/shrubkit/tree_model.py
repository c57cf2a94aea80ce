"""Tree-models: rooted trees whose leaves are graph vertices.

A model has uniform leaf depth d, a leaf coloring with colors 1..m, and a
symmetric signature S of (color, color, level) triples.  The realized graph
joins two leaves exactly when their colors together with half their tree
distance form a triple of S.  The k-copied variant is an ordinary model of
depth d+1 whose depth-d nodes each hold at most k leaves.

The structured file format is JSON: a recursive node record ({"children":
[...]} internally, {"vertex": v, "color": c} at leaves) together with
"depth", "colors" and "signature" ([[i, j, level], ...]).  Writers order
children by a canonical code, so files round-trip byte for byte.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .errors import DomainError, SignatureConflict, ValidationError, _index
from .graph import Graph
from .rooted_tree import RootedTree, check_record, dump_json, flatten_records, load_json, subtree_on
from .values import value_class


@value_class
class TreeModel:
    """An immutable tree-model.

    leaf_vertex maps each leaf node to the graph vertex it represents (a
    bijection onto 0..n-1); leaf_color maps each leaf node to 1..colors.
    """

    tree: RootedTree
    depth: int
    colors: int
    leaf_vertex: dict
    leaf_color: dict
    signature: frozenset

    def __post_init__(self):
        tree, depth, colors = self.tree, self.depth, self.colors
        leaf_vertex, leaf_color = self.leaf_vertex, self.leaf_color
        if depth < 0:
            raise ValidationError(f"depth must be >= 0, got {depth}")
        if colors < 1:
            raise ValidationError(f"color count must be >= 1, got {colors}")
        leaves = tree.leaves()
        for u in leaves:
            if tree.depth(u) != depth:
                raise ValidationError(
                    f"leaf {u} at depth {tree.depth(u)}, expected uniform depth {depth}"
                )
        n = len(leaves)
        if sorted(leaf_vertex) != sorted(leaves):
            raise ValidationError("leaf_vertex keys must be exactly the leaves")
        if sorted(leaf_vertex.values()) != list(range(n)):
            raise ValidationError("leaf_vertex must biject leaves onto 0..n-1")
        if sorted(leaf_color) != sorted(leaves):
            raise ValidationError("leaf_color keys must be exactly the leaves")
        for u, c in leaf_color.items():
            if not 1 <= c <= colors:
                raise ValidationError(f"leaf {u} has color {c} outside 1..{colors}")
        signature = frozenset(tuple(t) for t in self.signature)
        for i, j, lvl in signature:
            if not (1 <= i <= colors and 1 <= j <= colors and 1 <= lvl <= depth):
                raise ValidationError(f"signature triple {(i, j, lvl)} out of range")
            if (j, i, lvl) not in signature:
                raise ValidationError(
                    f"signature not symmetric: missing {(j, i, lvl)}"
                )
        object.__setattr__(self, "leaf_vertex", dict(leaf_vertex))
        object.__setattr__(self, "leaf_color", dict(leaf_color))
        object.__setattr__(self, "signature", signature)

    @property
    def n(self):
        return len(self.leaf_vertex)

    def pair_level(self, u, v):
        """Half the tree distance between two distinct leaves."""
        return self.depth - self.tree.depth(self.tree.lca(u, v))

    def __repr__(self):
        return (
            f"TreeModel(depth={self.depth}, colors={self.colors}, "
            f"n={self.n}, signature={sorted(self.signature)})"
        )


def realize(model):
    """The graph a model denotes, on vertex ids given by leaf_vertex."""
    d, vertex, color = model.depth, model.leaf_vertex, model.leaf_color
    edges = [
        (vertex[u], vertex[v])
        for u, v, meet in model.tree.leaf_pairs()
        if (color[u], color[v], d - meet) in model.signature
    ]
    return Graph(model.n, edges)


def verify(model, g):
    """True iff the model realizes g exactly (same ids, same edges)."""
    realized = realize(model)
    return realized.n == g.n and realized.edges == g.edges


def infer_signature(tree, leaf_vertex, leaf_color, g):
    """The unique minimal signature making (tree, coloring) a model of g.

    Only (color, color, level) classes witnessed by some leaf pair appear.
    Raises SignatureConflict naming two pairs of the same class that
    disagree on adjacency.
    """
    leaves = tree.leaves()
    depths = {tree.depth(u) for u in leaves}
    if len(depths) != 1:
        raise DomainError("leaves do not sit at a uniform depth")
    depth = depths.pop()
    if sorted(leaf_vertex.values()) != list(range(g.n)):
        raise DomainError("leaf_vertex must biject leaves onto the vertex set")
    seen = {}
    signature = set()
    for u, v, meet in tree.leaf_pairs():
        lvl = depth - meet
        cu, cv = leaf_color[u], leaf_color[v]
        key = (min(cu, cv), max(cu, cv), lvl)
        adjacent = g.has_edge(leaf_vertex[u], leaf_vertex[v])
        if key in seen:
            prev_pair, prev_adj = seen[key]
            if prev_adj != adjacent:
                pair = (leaf_vertex[u], leaf_vertex[v])
                edge_pair = prev_pair if prev_adj else pair
                non_pair = pair if prev_adj else prev_pair
                raise SignatureConflict(key, edge_pair, non_pair)
        else:
            seen[key] = ((leaf_vertex[u], leaf_vertex[v]), adjacent)
        if adjacent:
            signature.add((cu, cv, lvl))
            signature.add((cv, cu, lvl))
    return frozenset(signature)


def restrict(model, keep):
    """Model of the induced subgraph on `keep` (ids renumbered ascending)."""
    keep = set(keep)
    if not keep:
        raise DomainError("keep must contain at least one vertex")
    if not all(_index(v, model.n) for v in keep):
        raise DomainError("keep contains vertices outside the realized graph")
    pos = {old: new for new, old in enumerate(sorted(keep))}
    kept_nodes = set()
    for u, vert in model.leaf_vertex.items():
        if vert in pos:
            kept_nodes.add(u)
            kept_nodes.update(model.tree.ancestors(u))
    tree, kept = subtree_on(model.tree, kept_nodes)
    old_of = {new: old for new, old in enumerate(kept)}
    leaf_vertex = {}
    leaf_color = {}
    for new_id, old_id in old_of.items():
        if old_id in model.leaf_vertex:
            leaf_vertex[new_id] = pos[model.leaf_vertex[old_id]]
            leaf_color[new_id] = model.leaf_color[old_id]
    return TreeModel(
        tree, model.depth, model.colors, leaf_vertex, leaf_color, model.signature
    )


def complement_model(model):
    """Same tree and coloring; signature replaced by its complement."""
    full = {
        (i, j, lvl)
        for i in range(1, model.colors + 1)
        for j in range(1, model.colors + 1)
        for lvl in range(1, model.depth + 1)
    }
    return TreeModel(
        model.tree,
        model.depth,
        model.colors,
        model.leaf_vertex,
        model.leaf_color,
        full - model.signature,
    )


def lift_depth(model):
    """Hang the whole tree under a fresh root; realize is unchanged."""
    parent = list(model.tree.parent)
    new_root = len(parent)
    parent[model.tree.root] = new_root
    parent.append(-1)
    return TreeModel(
        RootedTree(parent),
        model.depth + 1,
        model.colors,
        model.leaf_vertex,
        model.leaf_color,
        model.signature,
    )


def grow_leaf(tree, u, d):
    """Grow a fresh path from u down to depth d and return (tree, its leaf).

    A node already at depth d is returned unchanged as its own leaf.
    """
    if tree.depth(u) > d:
        raise DomainError(f"node {u} is deeper than target depth {d}")
    return tree.extend_path(u, d - tree.depth(u))


def add_leaf_level(model):
    """Hang each leaf alone under its former node, one level deeper.

    The result realizes the same graph as a depth d+1 model whose depth-d
    nodes hold one leaf each (a 1-copied model).
    """
    parent = list(model.tree.parent)
    leaf_vertex = {}
    leaf_color = {}
    for u in model.tree.leaves():
        parent.append(u)
        new_leaf = len(parent) - 1
        leaf_vertex[new_leaf] = model.leaf_vertex[u]
        leaf_color[new_leaf] = model.leaf_color[u]
    signature = {(i, j, lvl + 1) for i, j, lvl in model.signature}
    return TreeModel(
        RootedTree(parent),
        model.depth + 1,
        model.colors,
        leaf_vertex,
        leaf_color,
        signature,
    )


@value_class
class CopiedTreeModel:
    """A k-copied tree-model: a depth d+1 model with parameters (d, m, k)."""

    model: TreeModel
    d: int
    m: int
    k: int

    def __post_init__(self):
        if not verify_k_copied(self.model, self.d, self.m, self.k):
            raise ValidationError(
                f"model is not a valid {self.k}-copied model of depth {self.d} "
                f"with {self.m} colors"
            )

    def __repr__(self):
        return f"CopiedTreeModel(d={self.d}, m={self.m}, k={self.k}, n={self.model.n})"


def verify_k_copied(model, d, m, k):
    """True iff model is a depth d+1 model, with <= m colors, whose depth-d
    nodes each hold at most k leaf children."""
    if d < 0 or m < 1 or k < 1:
        raise DomainError("need d >= 0, m >= 1, k >= 1")
    if model.depth != d + 1 or model.colors > m:
        return False
    tree = model.tree
    for u in range(tree.n):
        if tree.depth(u) == d and not tree.is_leaf(u):
            if len(tree.children(u)) > k:
                return False
    return True


# ---------------------------------------------------------------------------
# colored rooted trees and the repeated-subtree reduction


@value_class
class ColoredTree:
    """A rooted tree with a color (positive int) on every node."""

    tree: RootedTree
    color: tuple

    def __post_init__(self):
        color = tuple(self.color)
        if len(color) != self.tree.n:
            raise ValidationError("need exactly one color per node")
        for c in color:
            if c < 1:
                raise ValidationError(f"colors must be positive ints, got {c}")
        object.__setattr__(self, "color", color)

    def __repr__(self):
        return f"ColoredTree(n={self.tree.n}, height={self.tree.height})"


def canonical_code(ct, node=None):
    """Canonical color-isomorphism code of the subtree rooted at `node`.

    Two subtrees get the same code exactly when a color-preserving rooted
    isomorphism maps one onto the other.  The code is (color, sorted child
    codes); siblings are sorted by their flat keys, which order them as the
    codes would, so deep equal siblings are never compared recursively.
    """

    def code(u, codes):
        return (ct.color[u], tuple(codes)), (ct.color[u],)

    return _sorted_records(ct.tree, code, node)


def _flat_key(head, keys):
    """A node's sort key: its head, then its children's keys in sorted
    order, then -1.

    Every head starts with a value >= 0, so -1 ends a child list before any
    longer list's next key, and these flat tuples compare as the nested
    tuples (head, tuple of child keys) would, without recursion.
    """
    return (*head, *chain.from_iterable(keys), -1)


def _threshold_at(thresholds, height):
    idx = min(height, len(thresholds)) - 1
    return thresholds[idx]


def reduce_tree(ct, thresholds, modulus):
    """Trim repeated sibling subtrees, keeping counts congruent mod `modulus`.

    Bottom up, each node partitions its (already reduced) child subtrees
    into color-isomorphism classes; a class of size at least R + modulus,
    where R is the threshold for the node's current subtree height, is cut
    down to R + ((size - R) mod modulus).  Removal drops the members with
    the largest node ids, so the result is deterministic and is always a
    subtree of the input with the same root.

    thresholds is a non-empty non-decreasing sequence; index i-1 holds the
    threshold for height i and the last entry covers all larger heights.
    """
    thresholds = tuple(thresholds)
    if not thresholds or any(t < 0 for t in thresholds):
        raise DomainError("thresholds must be a non-empty sequence of ints >= 0")
    if list(thresholds) != sorted(thresholds):
        raise DomainError("thresholds must be non-decreasing")
    if modulus < 1:
        raise DomainError("modulus must be >= 1")

    tree = ct.tree

    def visit(u, reduced):
        """(key, height, kept node ids) of the reduced subtree at u."""
        head = (ct.color[u],)
        if not reduced:
            return _flat_key(head, ()), 0, [u]
        height = 1 + max(h for _, h, _ in reduced)
        limit = _threshold_at(thresholds, height)
        classes = {}
        for child_id, (key, h, kept) in zip(tree.children(u), reduced):
            classes.setdefault(key, []).append((child_id, h, kept))
        kept_nodes = [u]
        child_keys = []
        # a zero threshold can drop a whole class, so the height ancestors
        # see must be recomputed from the children actually kept; classes
        # are taken in key order, so child_keys comes out sorted
        new_height = 0
        for key in sorted(classes):
            members = sorted(classes[key])
            size = len(members)
            if size >= limit + modulus:
                size = limit + (size - limit) % modulus
            for child_id, h, kept in members[:size]:
                kept_nodes.extend(kept)
                child_keys.append(key)
                new_height = max(new_height, h + 1)
        return _flat_key(head, child_keys), new_height, kept_nodes

    new_tree, kept_ids = subtree_on(tree, tree.fold(visit)[2])
    return ColoredTree(new_tree, tuple(ct.color[old] for old in kept_ids))


# ---------------------------------------------------------------------------
# serialization


def _sorted_records(tree, node, top=None):
    """The record tree of the subtree at `top` (the root by default), each
    node's children sorted by their keys.

    node(u, sorted child records) returns u's record and the head of u's
    key, from which _flat_key builds the key.
    """

    def visit(u, done):
        done.sort(key=itemgetter(1))
        record, head = node(u, [r for r, _ in done])
        return record, _flat_key(head, [k for _, k in done])

    return tree.fold(visit, top)[0]


def model_to_text(model):
    """Canonical JSON serialization of a model."""

    def node(u, children):
        if children:
            return {"children": children}, (1,)
        color, vertex = model.leaf_color[u], model.leaf_vertex[u]
        return {"vertex": vertex, "color": color}, (0, color, vertex)

    doc = {
        "depth": model.depth,
        "colors": model.colors,
        "signature": sorted([i, j, lvl] for i, j, lvl in model.signature),
        "tree": _sorted_records(model.tree, node),
    }
    return dump_json(doc) + "\n"


_MODEL_SHAPE = {"depth": int, "colors": int, "signature": ((int,),), "tree": dict}
_MODEL_NODE_SHAPES = ({"vertex": int, "color": int}, {"children": list})


def model_from_text(text):
    """Parse the JSON model format; malformed input raises ValidationError."""
    doc = load_json(text, "model")
    check_record(doc, (_MODEL_SHAPE,), "model")
    if any(len(t) != 3 for t in doc["signature"]):
        raise ValidationError("signature triples must have three entries")
    parent, records = flatten_records(doc["tree"], _MODEL_NODE_SHAPES, "model")
    if {"children": []} in records:
        raise ValidationError("internal node with empty children list")
    leaves = [(u, r) for u, r in enumerate(records) if "vertex" in r]
    return TreeModel(
        RootedTree(parent),
        doc["depth"],
        doc["colors"],
        {u: r["vertex"] for u, r in leaves},
        {u: r["color"] for u, r in leaves},
        doc["signature"],
    )


def colored_tree_to_text(ct):
    """Canonical JSON serialization of a colored rooted tree."""

    def node(u, children):
        color = ct.color[u]
        return {"color": color, "children": children}, (color,)

    return dump_json(_sorted_records(ct.tree, node)) + "\n"


_COLORED_SHAPES = ({"color": int, "children": list}, {"color": int})


def colored_tree_from_text(text):
    """Parse the JSON colored-tree format."""
    doc = load_json(text, "colored-tree")
    parent, records = flatten_records(doc, _COLORED_SHAPES, "colored-tree")
    return ColoredTree(RootedTree(parent), [r["color"] for r in records])
