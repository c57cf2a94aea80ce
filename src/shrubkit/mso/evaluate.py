"""Formula evaluation over small labeled structures.

`compile_formula` turns a formula into nested closures once, and `evaluate`
runs the outermost one under an assignment; given a plain formula, it
compiles it for that one call.  Each variable of the assignment and each
binder owns one slot of a flat list environment.  Names are resolved to
slots at compile time, with lexical shadowing, so a quantifier loop just
writes its own slot.
Vertex sets are bitmasks; set quantifiers therefore cost 2^n per nesting
level, which the caps keep honest.  Connectives short-circuit left to right,
and an atom naming a missing relation, or a node of unknown kind, raises only
when it is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError, ResourceLimitError, ValidationError
from ..graph import Graph
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    subsets = range(1 << n)

    def compile_(f, scope):
        t = type(f)
        if t is TrueConst:
            return lambda: True
        if t is FalseConst:
            return lambda: False
        if t is Not:
            body = compile_(f.body, scope)
            return lambda: not body()
        if t in (And, Or, Implies, Iff):
            left, right = compile_(f.left, scope), compile_(f.right, scope)
            if t is And:
                return lambda: left() and right()
            if t is Or:
                return lambda: left() or right()
            if t is Implies:
                return lambda: not left() or right()
            return lambda: left() == right()
        if t in (ExistsVertex, AllVertex, ExistsSet, AllSet):
            slot = len(env)
            env.append(None)
            body = compile_(f.body, {**scope, f.var: slot})
            values = vertices if t in (ExistsVertex, AllVertex) else subsets

            def exists():
                for value in values:
                    env[slot] = value
                    if body():
                        return True
                return False

            def forall():
                for value in values:
                    env[slot] = value
                    if not body():
                        return False
                return True

            return exists if t in (ExistsVertex, ExistsSet) else forall
        if t is Edge:
            i, j = scope[f.x], scope[f.y]
            return lambda: has_edge(env[i], env[j])
        if t is Eq:
            i, j = scope[f.x], scope[f.y]
            return lambda: env[i] == env[j]
        if t is InSet:
            i, k = scope[f.x], scope[f.var]
            return lambda: bool(env[k] >> env[i] & 1)
        if t is ModCount:
            k, a, b = scope[f.var], f.a, f.b
            return lambda: env[k].bit_count() % b == a
        if t is HasLabel:
            i, label = scope[f.x], f.label
            return lambda: label in vertex_labels(env[i])
        if t is RelAtom and f.rel in relations:
            i, j, pairs = scope[f.x], scope[f.y], relations[f.rel]
            return lambda: (env[i], env[j]) in pairs
        if t is RelAtom:
            error = DomainError(f"structure has no relation {f.rel!r}")
        else:
            error = ValidationError(f"unknown formula node {f!r}")

        def fail():
            raise error

        return fail

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
