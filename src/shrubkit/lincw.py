"""Linear clique-width expressions and the tree-model translation.

Expression text format is one operation per line: `V i` creates a vertex
with label i, `E i j` joins every i-labeled vertex to every j-labeled one,
`R i j` relabels i to j.  Evaluation numbers vertices in creation order.
"""

from __future__ import annotations

from dataclasses import field
from operator import itemgetter

from .errors import ValidationError
from .graph import Graph
from .values import value_class


@value_class
class LinCwExpression:
    """An immutable operation sequence over positive integer labels."""

    ops: tuple
    labels: int = field(init=False, compare=False)

    def __post_init__(self):
        ops = tuple(tuple(op) for op in self.ops)
        if not ops:
            raise ValidationError("expression must contain an operation")
        labels = 0
        for op in ops:
            if op[0] == "V":
                if len(op) != 2 or op[1] < 1:
                    raise ValidationError(f"bad create operation {op!r}")
                labels = max(labels, op[1])
            elif op[0] in ("E", "R"):
                if len(op) != 3 or op[1] < 1 or op[2] < 1:
                    raise ValidationError(f"bad operation {op!r}")
                if op[0] == "E" and op[1] == op[2]:
                    raise ValidationError("add_edges needs distinct labels")
                labels = max(labels, op[1], op[2])
            else:
                raise ValidationError(f"unknown operation {op!r}")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "labels", labels)

    def __repr__(self):
        return f"LinCwExpression({len(self.ops)} ops, {self.labels} labels)"


def eval_lincw(expr):
    """Evaluate an expression; vertex ids follow creation order."""
    label_of = []
    edges = set()
    for op in expr.ops:
        if op[0] == "V":
            label_of.append(op[1])
        elif op[0] == "E":
            left = [v for v, l in enumerate(label_of) if l == op[1]]
            right = [v for v, l in enumerate(label_of) if l == op[2]]
            for u in left:
                for v in right:
                    edges.add((min(u, v), max(u, v)))
        else:
            for v, l in enumerate(label_of):
                if l == op[1]:
                    label_of[v] = op[2]
    return Graph(len(label_of), sorted(edges))


def tm_to_lincw(model):
    """Linear clique-width expression for a tree-model's graph.

    Labels pair a color with a level-counter, encoded c + t * m for
    0 <= t <= d, so at most m * (d + 1) labels appear.  Leaves are emitted
    in tree order (children ordered by least descendant vertex); a new
    leaf's edges to earlier vertices are wired through the counter levels,
    which record the meet level with the current leaf and are bumped
    between consecutive leaves.

    Evaluation ids follow creation order, so the value equals
    realize(model) exactly whenever each subtree's vertex ids form an
    interval (true for models whose numbering follows the leaf order);
    otherwise it is the realized graph renamed by leaf order.
    """
    d, m = model.depth, model.colors

    def visit(node, done):
        """(least vertex, leaves in tree order) of the subtree at node."""
        if not done:
            return model.leaf_vertex[node], [node]
        done.sort(key=itemgetter(0))
        return done[0][0], [leaf for _, leaves in done for leaf in leaves]

    order = model.tree.fold(visit)[1]

    def code(color, t):
        return t * m + color

    ops = []
    in_use = set()
    for idx, leaf in enumerate(order):
        c = model.leaf_color[leaf]
        ops.append(("V", code(c, 0)))
        for lvl in range(1, d + 1):
            for other in range(1, m + 1):
                if (c, other, lvl) in model.signature:
                    op = ("E", code(c, 0), code(other, lvl))
                    if ops[-1] != op:
                        ops.append(op)
        in_use.add((c, 0))
        if idx + 1 < len(order):
            meet = model.pair_level(leaf, order[idx + 1])
            for color, t in sorted(in_use):
                if t < meet:
                    ops.append(("R", code(color, t), code(color, meet)))
                    in_use.discard((color, t))
                    in_use.add((color, meet))
    return LinCwExpression(ops)


def lincw_to_text(expr):
    return "".join(" ".join(str(x) for x in op) + "\n" for op in expr.ops)


def lincw_from_text(text):
    ops = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split()
        arity = {"V": 2, "E": 3, "R": 3}.get(parts[0])
        if arity is None or len(parts) != arity:
            raise ValidationError(f"bad expression line: {ln!r}")
        try:
            ops.append((parts[0], *map(int, parts[1:])))
        except ValueError:
            raise ValidationError(f"bad expression line: {ln!r}") from None
    if not ops:
        raise ValidationError("expression text is empty")
    return LinCwExpression(ops)
