"""Direct formula evaluation over small labeled structures.

Vertex sets are manipulated as bitmasks; set quantifiers therefore cost
2^n per nesting level, which the caps keep honest.
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


def evaluate(
    structure,
    formula,
    assignment=None,
    max_vertices=DEFAULT_VERTEX_CAP,
    max_set_quantifiers=DEFAULT_SET_QUANTIFIER_CAP,
):
    """Truth of the formula on the structure under an assignment.

    The assignment maps first-order variables to vertices and set
    variables to vertex iterables; every free variable needs an entry.
    """
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

    fo_env = {}
    set_env = {}
    for name, value in (assignment or {}).items():
        if name and name[0].isupper():
            mask = 0
            for v in value:
                if not 0 <= v < n:
                    raise DomainError(f"assignment for {name} leaves the domain")
                mask |= 1 << v
            set_env[name] = mask
        else:
            if not 0 <= value < n:
                raise DomainError(f"assignment for {name} leaves the domain")
            fo_env[name] = value

    free_fo, free_set = free_vars(formula)
    missing = (free_fo - fo_env.keys()) | (free_set - set_env.keys())
    if missing:
        raise DomainError(
            "unassigned free variables: " + ", ".join(sorted(missing))
        )

    graph = s.graph
    relations = s.relations
    full = 1 << n

    def ev(f, fo, sets):
        t = type(f)
        if t is TrueConst:
            return True
        if t is FalseConst:
            return False
        if t is Edge:
            return graph.has_edge(fo[f.x], fo[f.y])
        if t is Eq:
            return fo[f.x] == fo[f.y]
        if t is InSet:
            return bool(sets[f.var] >> fo[f.x] & 1)
        if t is ModCount:
            return sets[f.var].bit_count() % f.b == f.a
        if t is HasLabel:
            return f.label in graph.vertex_labels(fo[f.x])
        if t is RelAtom:
            if f.rel not in relations:
                raise DomainError(f"structure has no relation {f.rel!r}")
            return (fo[f.x], fo[f.y]) in relations[f.rel]
        if t is Not:
            return not ev(f.body, fo, sets)
        if t is And:
            return ev(f.left, fo, sets) and ev(f.right, fo, sets)
        if t is Or:
            return ev(f.left, fo, sets) or ev(f.right, fo, sets)
        if t is Implies:
            return not ev(f.left, fo, sets) or ev(f.right, fo, sets)
        if t is Iff:
            return ev(f.left, fo, sets) == ev(f.right, fo, sets)
        if t is ExistsVertex:
            return any(ev(f.body, {**fo, f.var: v}, sets) for v in range(n))
        if t is AllVertex:
            return all(ev(f.body, {**fo, f.var: v}, sets) for v in range(n))
        if t is ExistsSet:
            return any(
                ev(f.body, fo, {**sets, f.var: mask}) for mask in range(full)
            )
        if t is AllSet:
            return all(
                ev(f.body, fo, {**sets, f.var: mask}) for mask in range(full)
            )
        raise ValidationError(f"unknown formula node {f!r}")

    return ev(formula, fo_env, set_env)
