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

A first-order quantifier runs bit-parallel when its body holds only atoms,
connectives and first-order quantifiers: the body compiles to a closure for
the mask of the bound variable's values at which it holds.  `edge(x, y)`
with x bound is y's adjacency row (`graph.adjacency_rows`), `x in X` is X's
mask, widened by the undecided vertices in a bound of polarity True, and
labels and relations are masks and rows built once per `compile_formula`.
Connectives are mask operations, and a quantifier nested in the body ORs or
ANDs the body's masks over its own values.  `ex1` asks whether the mask is
non-zero and `all1` whether it is full, so `all1 x. all1 y. phi` takes n
mask operations where a loop per variable makes n^2 closure calls.

A nested loop visits only the bits of its guard: the AND of the top-level
conjuncts `v in S` on its variable v of an ex1's body, or of an all1's
premise, the form `rewrite_formula` relativizes quantifiers to.  Outside
the guard the body adds 0 to the OR or full to the AND, and each guard
atom is compiled with the polarity it has in the body, so in a bound it
widens exactly as the atom does.  A loop stops once its enclosing test is
decided: at a full OR or an empty AND, and, where the test asks only
whether the mask is non-zero (or full), at the first non-zero OR (or
non-full AND).  That value is cut short, not the mask, so the question
passes down only where a cut-short value gives the same answer: into a
directly nested quantifier of the same kind, through Not with the question
swapped, through And under "full?" and through Or under "non-zero?"; never
through Implies or Iff, nor into a loop over single values.  So every
answer is the one a loop per vertex would give, and verdicts and the block
search's cuts are the same.  Nothing in such a body can raise, so the
order of evaluation cannot be seen; in a bound nothing raises at all, so
every first-order quantifier of a bound runs on masks.

The loop over the values stays for a body that holds a set quantifier, a
missing relation or an unknown node, and with it the short-circuit: exact
runs outside the mask form go left to right, and an atom naming a missing
relation, or a node of unknown kind, raises only when an exact run reaches
it, so in a block only at a leaf of the search.  Which leaves are reached,
and in what order, is the search's: vertex 0 is decided first, and a cut
branch has no leaves.  So under a set quantifier such an atom can raise
where a loop over all 2^n sets in counting order would have returned, or
the reverse.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..errors import DomainError, ResourceLimitError, ValidationError
from ..graph import Graph, _bits, adjacency_rows
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
    _check_name,
    _summary,
)

DEFAULT_VERTEX_CAP = 12
DEFAULT_SET_QUANTIFIER_CAP = 3

# the node kinds a first-order quantifier's body may hold to run on masks
_FIRST_ORDER = (TrueConst, FalseConst, Edge, Eq, InSet, ModCount, HasLabel,
                RelAtom, Not, And, Or, Implies, Iff, ExistsVertex, AllVertex)
# Not(m) is full exactly when m is zero, and non-zero exactly when m is not
# full, so Not asks its body the other question
_SWAP = {ExistsVertex: AllVertex, AllVertex: ExistsVertex}
# the one test a cut-short side answers for the whole connective
_KEEPS = {And: AllVertex, Or: ExistsVertex}


def _guard(f):
    """The AND of the top-level conjuncts `v in S` on f's variable v in the
    body of an ex1 or the premise of an all1, or None when there are none.
    At a value outside it the body is 0 in the ex1's OR and full in the
    all1's AND."""
    part = f.body
    if type(f) is AllVertex:
        if type(part) is not Implies:
            return None
        part = part.left
    stack, found = [part], None
    while stack:
        g = stack.pop()
        if type(g) is And:
            stack += (g.right, g.left)
        elif type(g) is InSet and g.x == f.var:
            found = g if found is None else And(found, g)
    return found


@value_class
class RelStructure:
    """A graph together with named symmetric binary relations."""

    graph: Graph
    relations: dict = None

    def __post_init__(self):
        if not isinstance(self.graph, Graph):
            raise ValidationError(
                f"a RelStructure is built on a Graph, not {type(self.graph).__name__}"
            )
        relations = self.relations or {}
        if not isinstance(relations, Mapping):
            raise ValidationError("relations must map each name to its vertex pairs")
        pairs = {}
        for name, rel in relations.items():
            _check_name(name, "relation")
            try:
                rel = [tuple(pair) for pair in rel]
            except TypeError:
                raise ValidationError(
                    f"relation {name} must be a collection of vertex pairs"
                ) from None
            closed = set()
            for pair in rel:
                if len(pair) != 2 or not all(isinstance(v, int) for v in pair):
                    raise ValidationError(
                        f"relation {name} holds {pair!r}, not a pair of vertices"
                    )
                u, v = pair
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
    free, _, _, rank, _ = _summary(formula)
    if rank > max_set_quantifiers:
        raise ResourceLimitError(
            f"set quantifier nesting cap is {max_set_quantifiers}, got {rank}"
        )

    names = tuple(names)
    scope = {name: slot for slot, name in enumerate(names)}
    env = [None] * len(names)
    # a lower-case name can only be assigned a vertex, an upper-case one a set
    missing = free - scope.keys()
    if missing:
        raise DomainError(
            "unassigned free variables: " + ", ".join(sorted(missing))
        )

    # adjacency, each label and each relation as masks, read once
    rows = adjacency_rows(s.graph)
    relation_rows = {}
    for name, pairs in s.relations.items():
        table = relation_rows[name] = [0] * n
        for u, v in pairs:
            table[u] |= 1 << v
    label_masks = {}
    for v, labels in s.graph.labels.items():
        for label in labels:
            label_masks[label] = label_masks.get(label, 0) | 1 << v
    vertices = range(n)
    full = (1 << n) - 1

    def table_of(f):
        """The rows an Edge or RelAtom reads, or None for a missing relation."""
        return rows if type(f) is Edge else relation_rows.get(f.rel)

    def first_order(f):
        """Whether f holds no set quantifier, missing relation or unknown
        node, so that it runs on masks and cannot raise."""
        t = type(f)
        if t not in _FIRST_ORDER or t is RelAtom and f.rel not in relation_rows:
            return False
        return all(first_order(getattr(f, part)) for part in f._PARTS)

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
            scope = {**scope, f.var: slot}
            if polarity is not None or first_order(f.body):
                values = compile_mask(f.body, scope, slot, polarity, block, t)
                if t is ExistsVertex:
                    return lambda: values() != 0
                return lambda: values() == full
            body = compile_(f.body, scope, polarity, block)

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
        if t in (Edge, RelAtom) and table_of(f) is not None:
            i, j, table = scope[f.x], scope[f.y], table_of(f)
            return lambda: bool(table[env[i]] >> env[j] & 1)
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
            i, mask = scope[f.x], label_masks.get(f.label, 0)
            return lambda: bool(mask >> env[i] & 1)
        if polarity is not None:
            return lambda: polarity
        if t is RelAtom:
            error = DomainError(f"structure has no relation {f.rel!r}")
        else:
            error = ValidationError(f"unknown formula node {f!r}")

        def fail():
            raise error

        return fail

    def compile_mask(f, scope, var, polarity, block, goal=None):
        """A closure for the mask of the values of slot var at which f's
        closure from compile_ would answer True.  f is first-order, or
        polarity is set, so nothing in it raises and no order of evaluation
        can be seen.

        goal is ExistsVertex when the enclosing test asks only whether the
        mask is non-zero, AllVertex when it asks only whether it is full,
        and None when it needs every bit.  Under a goal the closure may
        return a value cut short, which answers that test as the mask
        would.  A nested ex1 or all1 loops over the bits of its `_guard`,
        and over every vertex when it has none."""
        t = type(f)
        flip = None if polarity is None else not polarity
        if t is Not:
            body = compile_mask(f.body, scope, var, flip, block, _SWAP.get(goal))
            return lambda: full ^ body()
        if t in (And, Or, Implies) or t is Iff and polarity is None:
            # a cut-short side answers "full?" of an AND and "non-zero?" of
            # an OR as the whole side would, and no other test
            keep = goal if _KEEPS.get(t) is goal else None
            left = compile_mask(f.left, scope, var, flip if t is Implies else polarity,
                                block, keep)
            right = compile_mask(f.right, scope, var, polarity, block, keep)
            if t is And:
                return lambda: left() & right()
            if t is Or:
                return lambda: left() | right()
            if t is Implies:
                return lambda: full ^ left() | right()
            return lambda: full ^ left() ^ right()
        if t in (ExistsVertex, AllVertex):
            slot = len(env)
            env.append(None)
            inner = {**scope, f.var: slot}
            body = compile_mask(f.body, inner, var, polarity, block, goal if goal is t else None)
            # the guard of an all1 sits in its premise, so it sees the
            # flipped polarity, and widens exactly as the atom does
            guard = _guard(f)
            if guard is None:
                each = lambda: vertices
            else:
                mask = compile_mask(guard, inner, slot, polarity if t is ExistsVertex else flip,
                                    block)
                each = lambda: _bits(mask())

            # an OR or an AND over the bound slot's values, for every value
            # of var at once, stopped once no bit can change or, under a
            # goal of its own kind, once the enclosing test is decided:
            # acc >= 1 is acc != 0, and acc <= full - 1 is acc != full
            if t is ExistsVertex:
                stop = 1 if goal is t else full

                def exists():
                    acc = 0
                    for v in each():
                        env[slot] = v
                        acc |= body()
                        if acc >= stop:
                            break
                    return acc

                return exists
            stop = full - 1 if goal is t else 0

            def forall():
                acc = full
                for v in each():
                    env[slot] = v
                    acc &= body()
                    if acc <= stop:
                        break
                return acc

            return forall
        if t in (Edge, Eq, RelAtom) and var in (scope[f.x], scope[f.y]):
            i, j = scope[f.x], scope[f.y]
            other = j if i == var else i
            if t is Eq:
                return (lambda: full) if i == j else lambda: 1 << env[other]
            table = table_of(f)
            if table is not None:
                if i == j:
                    loops = sum(1 << v for v in vertices if table[v] >> v & 1)
                    return lambda: loops
                # rows are symmetric, so the other end's row serves
                return lambda: table[env[other]]
        if t is HasLabel and scope[f.x] == var:
            mask = label_masks.get(f.label, 0)
            return lambda: mask
        if t is InSet and scope[f.x] == var:
            k = scope[f.var]
            if polarity and k in block[:-1]:
                u = block[-1]
                return lambda: env[k] | env[u]
            return lambda: env[k]
        # f does not read var, so its one value holds at every value of var
        test = compile_(f, scope, polarity, block)
        return lambda: full if test() else 0

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

    def vertex(name, v):
        # bools pass, as they do for every integer parameter
        if not isinstance(v, int):
            raise DomainError(f"assignment for {name} holds {v!r}, not a vertex")
        if not 0 <= v < n:
            raise DomainError(f"assignment for {name} leaves the domain")
        return v

    def holds(assignment):
        for slot, name in enumerate(names):
            if name not in assignment:
                raise DomainError(f"no assignment for {name}")
            value = assignment[name]
            if name and name[0].isupper():
                try:
                    members = iter(value)
                except TypeError:
                    raise DomainError(
                        f"assignment for {name} must be a collection of vertices"
                    ) from None
                value = 0
                for v in members:
                    value |= 1 << vertex(name, v)
            else:
                value = vertex(name, value)
            env[slot] = value
        return run()

    return CompiledFormula(structure, holds)
