"""Graph interpretations: formulas as domain and edge definitions.

An interpretation pairs a one-variable domain formula with a two-variable
edge formula.  Applying it to a structure filters the vertex set and
redraws edges; rewriting pushes the interpretation into a sentence so that
source and image agree on it.
"""

from __future__ import annotations

from dataclasses import field

from ..errors import DomainError, ValidationError
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
    Formula,
    Implies,
    InSet,
    Not,
    Or,
    _rebuild,
    _summary,
    all_var_names,
    fresh_name_pool,
    substitute_fo,
)
from .evaluate import compile_formula, evaluate


def _pick_vars(frees, wanted, what):
    frees = sorted(frees)
    if len(frees) > wanted:
        raise ValidationError(
            f"{what} formula has free variables {frees}, wanted <= {wanted}"
        )
    defaults = [v for v in ("x", "y") if v not in frees]
    return tuple((frees + defaults)[:wanted])


@value_class
class Interpretation:
    """domain_formula names who survives, edge_formula who gets joined.

    Variable roles default to the formulas' free variables (sorted), padded
    from x, y when a formula uses fewer.  Each formula is walked once, here:
    its `_summary` is kept for `apply_interpretation` and `rewrite_formula`.
    """

    domain_formula: Formula
    edge_formula: Formula
    domain_var: str = None
    edge_vars: tuple = None
    _facts: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        domain_var, edge_vars = self.domain_var, self.edge_vars
        facts = _summary(self.domain_formula), _summary(self.edge_formula)
        # only a set variable's name starts upper-case
        d_fo, e_fo = facts[0][0], facts[1][0]
        if any(name[0].isupper() for name in d_fo | e_fo):
            raise ValidationError(
                "interpretation formulas may not have free set variables"
            )
        if domain_var is None:
            (domain_var,) = _pick_vars(d_fo, 1, "domain")
        elif d_fo - {domain_var}:
            raise ValidationError(
                f"domain formula uses variables besides {domain_var!r}"
            )
        if edge_vars is None:
            edge_vars = _pick_vars(e_fo, 2, "edge")
        else:
            edge_vars = tuple(edge_vars)
        if len(edge_vars) != 2 or len(set(edge_vars)) != 2:
            raise ValidationError("edge_vars must be two distinct variables")
        if e_fo - set(edge_vars):
            raise ValidationError(
                f"edge formula uses variables besides {edge_vars}"
            )
        object.__setattr__(self, "domain_var", domain_var)
        object.__setattr__(self, "edge_vars", edge_vars)
        object.__setattr__(self, "_facts", facts)


def apply_interpretation(interp, structure, **caps):
    """(image graph, id map): vertices satisfying the domain formula, in
    ascending source order and renumbered densely; an edge joins a pair
    exactly when the edge formula holds some way around.  Labels drop."""
    try:
        n = structure.n
    except AttributeError:
        raise DomainError(
            f"cannot interpret over {type(structure).__name__}"
        ) from None
    # each formula is compiled once, and only if some vertex or pair needs it
    xv, yv = interp.edge_vars
    domain = []
    if n:
        var = interp.domain_var
        keep = compile_formula(structure, interp.domain_formula, (var,),
                               summary=interp._facts[0], **caps)
        domain = [v for v in range(n) if evaluate(structure, keep, {var: v})]
    edges = []
    if len(domain) > 1:
        join = compile_formula(structure, interp.edge_formula, (xv, yv),
                               summary=interp._facts[1], **caps)
        for a in range(len(domain)):
            for b in range(a + 1, len(domain)):
                u, v = domain[a], domain[b]
                if evaluate(structure, join, {xv: u, yv: v}) or evaluate(
                    structure, join, {xv: v, yv: u}
                ):
                    edges.append((a, b))
    return Graph(len(domain), edges), tuple(domain)


def rewrite_formula(interp, formula):
    """Sentence the source satisfies exactly when its image satisfies the
    input.  Edge atoms become the symmetrized edge formula (minus equal
    pairs), and every quantifier is relativized to the domain formula."""
    taken = all_var_names(formula) | interp._facts[0][1] | interp._facts[1][1]
    pool = fresh_name_pool(taken)
    xv, yv = interp.edge_vars

    def domain_at(var):
        return substitute_fo(
            interp.domain_formula, {interp.domain_var: var}, taken
        )

    def walk(f):
        t = type(f)
        if t is Edge:
            one = substitute_fo(interp.edge_formula, {xv: f.x, yv: f.y}, taken)
            two = substitute_fo(interp.edge_formula, {xv: f.y, yv: f.x}, taken)
            return And(Not(Eq(f.x, f.y)), Or(one, two))
        if t in (ExistsVertex, AllVertex):
            inside = domain_at(f.var)
        elif t in (ExistsSet, AllSet):
            w = next(pool)
            inside = AllVertex(w, Implies(InSet(w, f.var), domain_at(w)))
        else:
            return _rebuild(f, walk)
        guard = And if t in (ExistsVertex, ExistsSet) else Implies
        return t(f.var, guard(inside, walk(f.body)))

    return walk(formula)
