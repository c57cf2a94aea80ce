"""Transductions: copy, guess unary predicates, check, interpret.

A transduction takes a graph, stamps k disjoint copies linked by a `sim`
relation, optionally expands the input with guessed vertex labels, tests a
precondition sentence, and interprets the result.  Undefined runs (failed
precondition) return None.
"""

from __future__ import annotations

from dataclasses import field
from itertools import combinations, product

from ..errors import DomainError, ResourceLimitError, ValidationError
from ..graph import Graph
from ..values import value_class
from .evaluate import RelStructure, compile_formula, evaluate
from .formulas import Formula, TrueConst, _summary
from .interpret import Interpretation, apply_interpretation

DEFAULT_IMAGE_VERTEX_CAP = 6
DEFAULT_PREDICATE_CAP = 2


def k_copy(g, k):
    """k disjoint copies of g as one structure.

    Copy i of vertex v gets id (i - 1) * n + v and the extra label Pi;
    `sim` relates all copies of the same vertex, itself included.
    """
    if k < 1:
        raise DomainError("k_copy needs k >= 1")
    n = g.n
    edges = []
    labels = {}
    sim = []
    for i in range(1, k + 1):
        base = (i - 1) * n
        edges.extend((base + u, base + v) for u, v in g.edges)
        for v in range(n):
            labels[base + v] = g.vertex_labels(v) | {f"P{i}"}
    for v in range(n):
        for i in range(1, k + 1):
            for j in range(i, k + 1):
                sim.append(((i - 1) * n + v, (j - 1) * n + v))
    return RelStructure(Graph(k * n, edges, labels), {"sim": sim})


@value_class
class Transduction:
    """interpretation, precondition sentence, copy count, guessed labels.
    The precondition is walked once, here, and its `_summary` is kept for
    every application."""

    interpretation: Interpretation
    precondition: Formula = None
    copies: int = 1
    predicates: tuple = ()
    _facts: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        precondition = self.precondition
        if precondition is None:
            precondition = TrueConst()
        if not isinstance(precondition, Formula):
            raise ValidationError("precondition must be a formula")
        facts = _summary(precondition)
        if facts[0]:
            raise ValidationError("precondition must be a sentence")
        if not isinstance(self.interpretation, Interpretation):
            raise ValidationError("interpretation must be an Interpretation")
        if self.copies < 1:
            raise DomainError("copies must be >= 1")
        predicates = tuple(self.predicates)
        if len(set(predicates)) != len(predicates):
            raise ValidationError("predicate names must be distinct")
        for name in predicates:
            if not name:
                raise ValidationError("predicate names must be non-empty")
        object.__setattr__(self, "precondition", precondition)
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "_facts", facts)


def _expand(g, td, labeling):
    labeling = dict(labeling or {})
    if set(labeling) != set(td.predicates):
        raise DomainError(
            f"labeling must cover exactly the predicates {list(td.predicates)}"
        )
    labels = {v: set(g.vertex_labels(v)) for v in range(g.n)}
    for name, verts in labeling.items():
        for v in verts:
            if not 0 <= v < g.n:
                raise DomainError(f"labeling for {name} leaves the graph")
            labels[v].add(name)
    return Graph(g.n, g.edges, labels)


def apply_transduction(td, g, labeling=None, **caps):
    """Image graph for one labeling, or None when the precondition fails."""
    expanded = _expand(g, td, labeling)
    copied = k_copy(expanded, td.copies)
    holds = compile_formula(copied, td.precondition, summary=td._facts, **caps)
    if not evaluate(copied, holds):
        return None
    return apply_interpretation(td.interpretation, copied, **caps)[0]


def transduction_images(
    td,
    g,
    max_vertices=DEFAULT_IMAGE_VERTEX_CAP,
    max_predicates=DEFAULT_PREDICATE_CAP,
    **caps,
):
    """Yield (labeling, image-or-None) over all 2^(p*n) labelings.

    Labelings run in lexicographic subset order per predicate.
    """
    if g.n > max_vertices:
        raise ResourceLimitError(
            f"enumeration cap is {max_vertices} vertices, got {g.n}"
        )
    if len(td.predicates) > max_predicates:
        raise ResourceLimitError(
            f"enumeration cap is {max_predicates} predicates, got "
            f"{len(td.predicates)}"
        )
    all_subsets = [
        s for size in range(g.n + 1) for s in combinations(range(g.n), size)
    ]
    for choice in product(all_subsets, repeat=len(td.predicates)):
        labeling = dict(zip(td.predicates, choice))
        yield labeling, apply_transduction(td, g, labeling, **caps)
