"""Formula evaluation over small labeled structures.

`compile_formula` turns a formula into nested closures once, and `evaluate`
runs the outermost one under an assignment; given a plain formula, it
compiles it for that one call.  Each variable of the assignment and each
binder owns one slot of a flat list environment.  Names are resolved to
slots at compile time, with lexical shadowing, so a quantifier loop just
writes its own slot.

Vertex sets are bitmasks.  A maximal run of like set quantifiers, such as
`ex2 A. ex2 B. ex2 C. phi`, is one block, decided by a search on an explicit
stack: for v = 0, 1, ... it chooses v's membership in every set of the block
at once, and after each choice a bound on phi cuts the branch or goes one
vertex deeper.  An ex2 block cuts once phi is false for every completion of
the undecided vertices; an all2 block, a search for a counterexample, cuts
once phi is true for every completion.  The bounds come from the same
compiler, run with a polarity: True asks whether phi holds for some
completion, False whether it holds for every one, and `Not` and the left
side of `Implies` flip it.  `x in X`, for a set X of the block, reads the
decided vertices; an `Iff`, a `mod` atom on such a set, a nested set
quantifier, a missing relation and an unknown node answer "either way" and
never cut.  Once every vertex is decided, phi runs exactly, and only that
run gives the answer; formulas without set quantifiers run exactly
throughout.

Exact runs short-circuit left to right, and an atom naming a missing
relation, or a node of unknown kind, raises only when an exact run reaches
it, so in a block only at a leaf of the search.  Which leaves are reached,
and in what order, is the search's: vertex 0 is decided first, and a cut
branch has no leaves.  So under a set quantifier such an atom can raise
where a loop over all 2^n sets in counting order would have returned, or
the reverse.
"""

from __future__ import annotations

from ..errors import DomainError, ResourceLimitError, ValidationError
from ..graph import Graph
from ..values import value_class
from .formulas import (
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
    free_vars,
    set_quantifier_rank,
)

DEFAULT_VERTEX_CAP = 12
DEFAULT_SET_QUANTIFIER_CAP = 3


@value_class
class RelStructure:
    """A graph together with named symmetric binary relations."""

    graph: Graph
    relations: dict = None

    def __post_init__(self):
        pairs = {}
        for name, rel in (self.relations or {}).items():
            if not name:
                raise ValidationError("relation name must be non-empty")
            closed = set()
            for u, v in rel:
                if not (0 <= u < self.n and 0 <= v < self.n):
                    raise ValidationError(
                        f"relation {name} mentions a vertex outside the graph"
                    )
                closed.add((u, v))
                closed.add((v, u))
            pairs[name] = frozenset(closed)
        object.__setattr__(self, "relations", pairs)

    @property
    def n(self):
        return self.graph.n


def _as_structure(structure):
    if isinstance(structure, Graph):
        return RelStructure(structure)
    if isinstance(structure, RelStructure):
        return structure
    raise DomainError(f"cannot evaluate over {type(structure).__name__}")


@value_class
class CompiledFormula:
    """A formula compiled by `compile_formula` for one structure and one
    tuple of assigned variable names; `evaluate` runs it, as `re.match`
    runs a compiled pattern."""

    structure: object
    holds: object  # holds(assignment) -> bool


def evaluate(
    structure,
    formula,
    assignment=None,
    max_vertices=DEFAULT_VERTEX_CAP,
    max_set_quantifiers=DEFAULT_SET_QUANTIFIER_CAP,
):
    """Truth of the formula on the structure under an assignment.

    The assignment maps first-order variables to vertices and set
    variables to vertex iterables; every free variable needs an entry.  A
    formula compiled for this structure is run as it is, so a caller that
    evaluates one formula under many assignments compiles it once.
    """
    assignment = assignment or {}
    if type(formula) is not CompiledFormula:
        formula = compile_formula(structure, formula, tuple(assignment),
                                  max_vertices, max_set_quantifiers)
    elif formula.structure is not structure:
        raise DomainError("formula was compiled for another structure")
    return formula.holds(assignment)


def compile_formula(
    structure,
    formula,
    names=(),
    max_vertices=DEFAULT_VERTEX_CAP,
    max_set_quantifiers=DEFAULT_SET_QUANTIFIER_CAP,
):
    """The formula compiled for `structure`, with the variables `names`
    assigned by each later `evaluate` call; the caps and the free variables
    are checked here, once."""
    s = _as_structure(structure)
    n = s.n
    if n > max_vertices:
        raise ResourceLimitError(
            f"evaluation cap is {max_vertices} vertices, got {n}"
        )
    rank = set_quantifier_rank(formula)
    if rank > max_set_quantifiers:
        raise ResourceLimitError(
            f"set quantifier nesting cap is {max_set_quantifiers}, got {rank}"
        )

    names = tuple(names)
    scope = {name: slot for slot, name in enumerate(names)}
    env = [None] * len(names)
    # a lower-case name can only be assigned a vertex, an upper-case one a set
    free_fo, free_set = free_vars(formula)
    missing = (free_fo | free_set) - scope.keys()
    if missing:
        raise DomainError(
            "unassigned free variables: " + ", ".join(sorted(missing))
        )

    has_edge = s.graph.has_edge
    vertex_labels = s.graph.vertex_labels
    relations = s.relations
    vertices = range(n)

    def compile_(f, scope, polarity=None, block=()):
        """A closure for f: its truth when polarity is None.  As a bound for
        the block under search, it answers with polarity True whether f
        holds for some completion of the undecided vertices, and with False
        whether it holds for every one; when it cannot tell, it answers the
        polarity.  block holds the block's set slots, then the slot of its
        mask of undecided vertices."""
        t = type(f)
        flip = None if polarity is None else not polarity
        if t is TrueConst:
            return lambda: True
        if t is FalseConst:
            return lambda: False
        if t is Not:
            body = compile_(f.body, scope, flip, block)
            return lambda: not body()
        if t in (And, Or, Implies) or t is Iff and polarity is None:
            left = compile_(f.left, scope, flip if t is Implies else polarity, block)
            right = compile_(f.right, scope, polarity, block)
            if t is And:
                return lambda: left() and right()
            if t is Or:
                return lambda: left() or right()
            if t is Implies:
                return lambda: not left() or right()
            return lambda: left() == right()
        if t in (ExistsVertex, AllVertex):
            slot = len(env)
            env.append(None)
            body = compile_(f.body, {**scope, f.var: slot}, polarity, block)

            def exists():
                for v in vertices:
                    env[slot] = v
                    if body():
                        return True
                return False

            def forall():
                for v in vertices:
                    env[slot] = v
                    if not body():
                        return False
                return True

            return exists if t is ExistsVertex else forall
        if t in (ExistsSet, AllSet):
            return compile_block(f, scope) if polarity is None else lambda: polarity
        if t is Edge:
            i, j = scope[f.x], scope[f.y]
            return lambda: has_edge(env[i], env[j])
        if t is Eq:
            i, j = scope[f.x], scope[f.y]
            return lambda: env[i] == env[j]
        if t is InSet:
            i, k = scope[f.x], scope[f.var]
            # a block's sets hold decided vertices only
            if polarity and k in block[:-1]:
                u = block[-1]
                return lambda: bool((env[k] | env[u]) >> env[i] & 1)
            return lambda: bool(env[k] >> env[i] & 1)
        if t is ModCount:
            k, a, b = scope[f.var], f.a, f.b
            if polarity is not None and k in block[:-1]:
                return lambda: polarity
            return lambda: env[k].bit_count() % b == a
        if t is HasLabel:
            i, label = scope[f.x], f.label
            return lambda: label in vertex_labels(env[i])
        if t is RelAtom and f.rel in relations:
            i, j, pairs = scope[f.x], scope[f.y], relations[f.rel]
            return lambda: (env[i], env[j]) in pairs
        if polarity is not None:
            return lambda: polarity
        if t is RelAtom:
            error = DomainError(f"structure has no relation {f.rel!r}")
        else:
            error = ValidationError(f"unknown formula node {f!r}")

        def fail():
            raise error

        return fail

    def compile_block(f, scope):
        """The search over a maximal run of like set quantifiers, deciding
        vertex v's membership in every set of the run at once, v = 0, 1, ...
        An ex2 run looks for a witness and an all2 run for a counterexample;
        a branch is cut once the bound says no completion of it is one."""
        t = type(f)
        want = t is ExistsSet
        scope, slots = dict(scope), []
        while type(f) is t:
            # a name bound twice in the run is one set
            if scope.get(f.var) not in slots:
                scope[f.var] = len(env)
                slots.append(len(env))
                env.append(0)
            f = f.body
        undecided = len(env)
        env.append(0)
        run = compile_(f, scope)
        bound = compile_(f, scope, want, (*slots, undecided))
        choices = range(1 << len(slots))
        last, full = n - 1, (1 << n) - 1

        def search():
            if not n:
                return run()
            # stack[v] yields the choices for vertex v not yet tried
            stack = [iter(choices)]
            while stack:
                v = len(stack) - 1
                c = next(stack[v], None)
                if c is None:
                    stack.pop()
                    continue
                bit = 1 << v
                for j, slot in enumerate(slots):
                    env[slot] = env[slot] & (bit - 1) | (c >> j & 1) << v
                if v == last:
                    if run() == want:
                        return want
                else:
                    env[undecided] = full ^ ((bit << 1) - 1)
                    if bound() == want:
                        stack.append(iter(choices))
            return not want

        return search

    run = compile_(formula, scope)

    def holds(assignment):
        for slot, name in enumerate(names):
            if name not in assignment:
                raise DomainError(f"no assignment for {name}")
            value = assignment[name]
            if name and name[0].isupper():
                mask = 0
                for v in value:
                    if not 0 <= v < n:
                        raise DomainError(f"assignment for {name} leaves the domain")
                    mask |= 1 << v
                value = mask
            elif not 0 <= value < n:
                raise DomainError(f"assignment for {name} leaves the domain")
            env[slot] = value
        return run()

    return CompiledFormula(structure, holds)
