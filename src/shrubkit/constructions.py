"""Stock graphs and hand-built tree-models with small parameters."""

from __future__ import annotations

from .errors import DomainError, ResourceLimitError, _whole
from .graph import Graph
from .rooted_tree import RootedTree
from .tree_model import TreeModel

DEFAULT_PATH_MODEL_CAP = 4


def make_path(length):
    """Path with `length` edges on vertices 0..length in order."""
    _whole(length=length)
    if length < 0:
        raise DomainError("path length must be >= 0")
    return Graph(length + 1, [(i, i + 1) for i in range(length)])


def make_clique(n):
    _whole(n=n)
    if n < 0:
        raise DomainError("clique size must be >= 0")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def make_biclique(a, b):
    """Complete bipartite graph; side A is 0..a-1, side B is a..a+b-1."""
    _whole(a=a, b=b)
    if a < 0 or b < 0:
        raise DomainError("biclique sides must be >= 0")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def clique_model(n):
    """Depth-1 single-color model of K_n."""
    _whole(n=n)
    if n < 1:
        raise DomainError("clique model needs n >= 1")
    tree = RootedTree([-1] + [0] * n)
    return TreeModel(
        tree,
        1,
        1,
        {leaf: leaf - 1 for leaf in range(1, n + 1)},
        {leaf: 1 for leaf in range(1, n + 1)},
        {(1, 1, 1)},
    )


def biclique_model(a, b):
    """Depth-1 two-color model of K_{a,b}."""
    _whole(a=a, b=b)
    if a < 1 or b < 1:
        raise DomainError("biclique model needs a, b >= 1")
    tree = RootedTree([-1] + [0] * (a + b))
    return TreeModel(
        tree,
        1,
        2,
        {leaf: leaf - 1 for leaf in range(1, a + b + 1)},
        {leaf: 1 if leaf <= a else 2 for leaf in range(1, a + b + 1)},
        {(1, 2, 1), (2, 1, 1)},
    )


def subdivided_matching_biclique():
    """K_{3,3} with one perfect matching's edges each subdivided once.

    Vertices 0..2 are side A, 3..5 side B, and 6..8 subdivide the matching
    edges (i, i + 3); the other six biclique edges stay.  12 edges total.
    """
    edges = []
    for i in range(3):
        for j in range(3):
            if i == j:
                edges.append((i, i + 6))
                edges.append((i + 6, i + 3))
            else:
                edges.append((i, j + 3))
    return Graph(9, edges)


def subdivided_matching_biclique_model():
    """The graph above with a depth-2, 3-color model realizing it.

    Each depth-1 node groups one matching edge's trio a_i, b_i, s_i; colors
    split side A, side B, and the subdividers.  Subdivider edges live at
    level 1, the surviving biclique edges at level 2, and the level-2 rule
    (1, 2) is harmless inside a trio because its only level-1 pair carries
    color pair (1, 3) and (3, 2) rules instead.
    """
    g = subdivided_matching_biclique()
    parent = [-1, 0, 0, 0] + [1, 1, 1, 2, 2, 2, 3, 3, 3]
    tree = RootedTree(parent)
    leaf_vertex = {}
    leaf_color = {}
    for i in range(3):
        trio = (i, i + 3, i + 6)
        for slot, v in enumerate(trio):
            leaf = 4 + 3 * i + slot
            leaf_vertex[leaf] = v
            leaf_color[leaf] = slot + 1
    signature = {
        (1, 3, 1),
        (3, 1, 1),
        (3, 2, 1),
        (2, 3, 1),
        (1, 2, 2),
        (2, 1, 2),
    }
    model = TreeModel(tree, 2, 3, leaf_vertex, leaf_color, signature)
    return g, model


def path_model(m, cap=DEFAULT_PATH_MODEL_CAP):
    """Model of the path on 3 * 2^m - 3 vertices with m colors, depth 2m + 1.

    Starts from a three-leaf model of the two-edge path, then doubles: add
    a color-(step) sibling next to one end, join the result with a disjoint
    copy of itself and one fresh deepest leaf under a new root, and let the
    fresh leaf bridge the two sibling leaves through a single root-level
    rule.  Leaf vertex ids follow path order, so realize gives make_path
    exactly.
    """
    _whole(m=m, cap=cap)
    if m < 1:
        raise DomainError("path_model needs m >= 1")
    if m > cap:
        raise ResourceLimitError(f"path_model cap is m <= {cap}, got {m}")
    # two-edge path: root 0, branch 1 holds both ends, branch 2 the middle
    parent = [-1, 0, 0, 1, 1, 2, 3, 4, 5]
    color = {6: 1, 7: 1, 8: 1}
    order = [6, 8, 7]
    signature = {(1, 1, 3)}

    for step in range(2, m + 1):
        end = order[0]
        sibling = len(parent)
        parent = parent + [parent[end]]
        color[sibling] = step
        signature |= {(step, color[end], 1), (color[end], step, 1)}
        half_order = [sibling] + order
        size = len(parent)

        height = 2 * step + 1
        new_parent = [-1]
        for i in range(1, height):
            new_parent.append(i - 1)
        bridge = height
        new_parent.append(height - 1)
        joiner = height + 1
        new_parent.append(0)

        first = joiner + 1
        second = first + size
        for block in (first, second):
            for node in range(size):
                p = parent[node]
                new_parent.append(joiner if p == -1 else block + p)

        new_color = {bridge: step}
        for node, c in color.items():
            new_color[first + node] = c
            new_color[second + node] = c

        parent = new_parent
        color = new_color
        order = (
            [first + node for node in reversed(half_order)]
            + [bridge]
            + [second + node for node in half_order]
        )
        signature.add((step, step, height))

    leaf_vertex = {leaf: pos for pos, leaf in enumerate(order)}
    return TreeModel(
        RootedTree(parent), 2 * m + 1, m, leaf_vertex, color, signature
    )
