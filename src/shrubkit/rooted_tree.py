"""Rooted trees on integer node ids, stored as parent arrays.

Also the shared reader and writer of the JSON tree formats (tree-models,
SC-trees and colored trees): each is a tree of JSON object records, and every
record must have one of the key sets its format allows, with integers given
as JSON ints.
"""

from __future__ import annotations

import json
import sys
from dataclasses import field

from .errors import DomainError, ValidationError, _index
from .values import value_class


@value_class
class RootedTree:
    """An immutable rooted tree.  parent[v] is v's parent, -1 marks the root."""

    parent: tuple
    root: int = field(init=False, compare=False)
    height: int = field(init=False, compare=False)
    _children: tuple = field(init=False, compare=False)
    _depth: tuple = field(init=False, compare=False)

    def __post_init__(self):
        parent = tuple(self.parent)
        n = len(parent)
        if n == 0:
            raise ValidationError("a rooted tree needs at least one node")
        for i, p in enumerate(parent):
            if not isinstance(p, int):
                raise ValidationError(f"node {i} has parent {p!r}, not an integer")
        roots = [i for i, p in enumerate(parent) if p == -1]
        if len(roots) != 1:
            raise ValidationError(f"expected exactly one root, found {len(roots)}")
        children = [[] for _ in range(n)]
        for i, p in enumerate(parent):
            if p != -1:
                if not 0 <= p < n:
                    raise ValidationError(f"node {i} has out-of-range parent {p}")
                children[p].append(i)
        depth = [-1] * n
        depth[roots[0]] = 0
        stack = [roots[0]]
        while stack:
            u = stack.pop()
            for c in children[u]:
                depth[c] = depth[u] + 1
                stack.append(c)
        if min(depth) < 0:
            raise ValidationError("parent pointers contain a cycle")
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "root", roots[0])
        object.__setattr__(self, "_children", tuple(tuple(c) for c in children))
        object.__setattr__(self, "_depth", tuple(depth))
        object.__setattr__(self, "height", max(depth))

    @property
    def n(self):
        return len(self.parent)

    def children(self, u):
        return self._children[u]

    def depth(self, u):
        return self._depth[u]

    def is_leaf(self, u):
        return not self._children[u]

    def leaves(self):
        return tuple(u for u in range(self.n) if self.is_leaf(u))

    def ancestors(self, u):
        """Path from u's parent up to the root."""
        out = []
        while self.parent[u] != -1:
            u = self.parent[u]
            out.append(u)
        return out

    def lca(self, u, v):
        while self._depth[u] > self._depth[v]:
            u = self.parent[u]
        while self._depth[v] > self._depth[u]:
            v = self.parent[v]
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def leaf_pairs(self):
        """Yield (u, v, depth of their lca) for leaves u < v, in lexicographic order."""
        leaves = self.leaves()
        for a, u in enumerate(leaves):
            for v in leaves[a + 1 :]:
                yield u, v, self._depth[self.lca(u, v)]

    def fold(self, visit, top=None):
        """Fold the subtree at `top` (the root by default) children first.

        visit(u, values) is called at every node u with the list of its
        children's values, in child order, and top's value is returned.
        An explicit preorder stack stands in for the call stack, so that
        any height fits.
        """
        children = self._children
        order, stack = [], [self.root if top is None else top]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(children[u]))
        # reversed preorder puts every node after all of its descendants
        value = {}
        for u in reversed(order):
            value[u] = visit(u, [value.pop(c) for c in children[u]])
        return value[order[0]]

    def extend_path(self, u, length):
        """Append a fresh path of `length` edges below u.

        Returns (tree, tip) where tip is the new deepest node; length 0
        returns the tree unchanged with tip = u.
        """
        if length < 0:
            raise DomainError("path length must be >= 0")
        if length == 0:
            return self, u
        parent = list(self.parent)
        prev = u
        for _ in range(length):
            parent.append(prev)
            prev = len(parent) - 1
        return RootedTree(parent), prev

    def __repr__(self):
        return f"RootedTree(parent={list(self.parent)})"


def subtree_on(tree, keep):
    """Restrict to the node set `keep`, which must be closed under parents.

    Node ids are renumbered in ascending order of the kept original ids.
    Returns (tree, kept) with kept[new] = old.
    """
    kept = set(keep)
    for v in kept:
        if not _index(v, tree.n):
            raise DomainError(f"kept node {v!r} is not in the tree")
    kept = sorted(kept)
    pos = {old: new for new, old in enumerate(kept)}
    parent = []
    for old in kept:
        p = tree.parent[old]
        if p == -1:
            parent.append(-1)
        else:
            if p not in pos:
                raise DomainError(f"kept node {old} has dropped parent {p}")
            parent.append(pos[p])
    return RootedTree(parent), tuple(kept)


# ---------------------------------------------------------------------------
# the JSON tree reader and writer

# A record shape maps each key to the kind of its value: int (a JSON int, not
# a bool), dict (an object), list (any list, "children" holds the child
# records), or a one-tuple (kind,) for a list whose items are all of that kind.
_KIND_NAMES = {
    int: "an integer",
    dict: "an object",
    list: "a list",
    (int,): "a list of integers",
    ((int,),): "a list of integer lists",
}


def _fits(value, kind):
    values = [value]
    # unwrap one list level of a one-tuple kind per pass
    while isinstance(kind, tuple):
        if not all(type(v) is list for v in values):
            return False
        values, kind = [x for v in values for x in v], kind[0]
    return all(type(v) is kind for v in values)


MAX_JSON_NESTING = 2_500  # a tree-model of depth h nests 2h + 2 deep, its records 2h + 1


def _check_nesting(doc, text, what):
    """Refuse a document whose containers nest deeper than MAX_JSON_NESTING;
    its JSON text can do so only with more opening brackets than that."""
    level = [doc] if text.count("[") + text.count("{") > MAX_JSON_NESTING else []
    for _ in range(MAX_JSON_NESTING + 1):  # the containers one level deeper
        if not (level := [v for v in level if isinstance(v, (dict, list, tuple))]):
            return
        level = [x for v in level for x in (v.values() if isinstance(v, dict) else v)]
    raise ValidationError(f"{what} nests deeper than {MAX_JSON_NESTING} levels")


def load_json(text, what):
    """json.loads, with malformed or too deeply nested text a ValidationError."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + MAX_JSON_NESTING)  # the decoder recurses per level
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"bad {what} JSON: {exc}") from None
    finally:
        sys.setrecursionlimit(limit)
    _check_nesting(doc, text, f"{what} JSON")
    return doc


def _json_scalar(value):
    """JSON text of a value written on one line, or None for a non-empty
    object or list."""
    if type(value) is int:
        return str(value)
    if isinstance(value, (dict, list, tuple)) and value:
        return None
    return json.dumps(value)


def dump_json(doc):
    """json.dumps(doc, indent=2, sort_keys=True), written over an explicit
    stack; a document nested deeper than MAX_JSON_NESTING is refused."""
    text, out = _json_scalar(doc), []
    # (value, indent) to open, or (text, None) to copy
    stack = [(doc, "") if text is None else (text, None)]
    while stack:
        value, pad = stack.pop()
        if pad is None:
            out.append(value)
            continue
        inner = pad + "  "
        if isinstance(value, dict):
            opening, close = "{", "}"
            items = [(f"{json.dumps(k)}: ", v) for k, v in sorted(value.items())]
        else:
            opening, close = "[", "]"
            items = [("", v) for v in value]
        stack.append((f"\n{pad}{close}", None))
        for i in reversed(range(len(items))):
            label, item = items[i]
            head = f"{',' if i else opening}\n{inner}{label}"
            text = _json_scalar(item)
            if text is None:
                stack.append((item, inner))
                stack.append((head, None))
            else:
                stack.append((head + text, None))
    text = "".join(out)
    _check_nesting(doc, text, "the JSON document")
    return text


def check_record(record, shapes, what):
    """Check that record is an object matching one of `shapes`."""
    if type(record) is not dict:
        raise ValidationError(f"{what} records must be JSON objects")
    for shape in shapes:
        if record.keys() == shape.keys():
            for key, kind in shape.items():
                if not _fits(record[key], kind):
                    raise ValidationError(
                        f"{what} field {key!r} must be {_KIND_NAMES[kind]}"
                    )
            return
    raise ValidationError(f"bad {what} record keys: {sorted(record)}")


def flatten_records(root, shapes, what):
    """Flatten a JSON record tree into (parent, records) in preorder.

    Child records sit in each record's "children" list.  Node ids are
    preorder positions, as a recursive walk would number them.
    """
    parent, records = [], []
    stack = [(root, -1)]
    while stack:
        record, up = stack.pop()
        check_record(record, shapes, what)
        me = len(records)
        parent.append(up)
        records.append(record)
        stack.extend((child, me) for child in reversed(record.get("children", ())))
    return parent, records
