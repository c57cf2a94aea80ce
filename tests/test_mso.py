"""Logic engine: formulas, parsing, evaluation, interpretations, transductions."""

import dataclasses
import functools
import importlib
import itertools
import pickle
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shrubkit import (
    DomainError,
    FormulaParseError,
    Graph,
    ResourceLimitError,
    ValidationError,
    enumerate_graphs,
    make_clique,
    make_path,
    realize,
    tm_membership,
)
from shrubkit.mso import (
    AllSet,
    AllVertex,
    And,
    Edge,
    Eq,
    ExistsSet,
    ExistsVertex,
    FalseConst,
    Formula,
    HasLabel,
    Iff,
    Implies,
    InSet,
    Interpretation,
    ModCount,
    Not,
    Or,
    RelAtom,
    RelStructure,
    Transduction,
    TrueConst,
    apply_interpretation,
    apply_transduction,
    evaluate,
    format_formula,
    free_vars,
    is_sentence,
    k_copy,
    mod_lcm,
    parse_formula,
    quantifier_count,
    rewrite_formula,
    set_quantifier_rank,
    substitute_fo,
    transduction_images,
)
from shrubkit.mso import formulas
from shrubkit.mso.evaluate import compile_formula
from shrubkit.mso.parser import MAX_NESTING

from .helpers import (
    random_formula,
    random_graph,
    random_seeded,
    random_tree_model,
    reference_all_var_names,
    reference_evaluate,
    reference_free_vars,
    reference_mod_lcm,
    reference_quantifier_count,
    reference_set_quantifier_rank,
    reference_substitute_fo,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


# fixed sentence corpus exercised against the reference evaluator
CORPUS = [
    "true",
    "false",
    "ex1 x. ex1 y. edge(x, y)",
    "all1 x. ex1 y. edge(x, y)",
    "ex1 x. all1 y. (x = y | edge(x, y))",
    "all1 x. all1 y. (x = y | edge(x, y))",
    "ex1 x. !ex1 y. edge(x, y)",
    "ex1 x. ex1 y. ex1 z. (edge(x, y) & edge(y, z) & edge(z, x))",
    "ex2 X. all1 x. x in X",
    "ex2 X. (mod(0, 2, X) & all1 x. x in X)",
    "ex2 X. (mod(1, 3, X) & all1 x. (x in X -> ex1 y. edge(x, y)))",
    "all2 X. (ex1 x. x in X | all1 y. !(y in X))",
    "ex2 X. ex2 Y. all1 x. ((x in X | x in Y) & !(x in X & x in Y))",
    "ex2 X. (ex1 x. x in X & all1 x. (x in X -> all1 y. (edge(x, y) -> y in X)))",
    "all1 x. (ex1 y. edge(x, y) -> ex1 y. (edge(x, y) & ex1 z. (edge(y, z) & !(z = x))))",
    "ex1 x. ex1 y. (!(x = y) & !edge(x, y))",
    "all2 X. (mod(0, 2, X) | mod(1, 2, X))",
    "ex2 X. (mod(2, 3, X) & ex1 x. !(x in X))",
    "ex1 x. (ex1 y. edge(x, y) <-> all1 y. (x = y | edge(x, y)))",
    "all1 x. ex1 y. (!(x = y) & !edge(x, y)) -> ex2 X. mod(1, 2, X)",
]

# runs of two and three like set quantifiers over whole-graph bodies
BLOCK_SENTENCES = {
    "colourable_2": (
        "ex2 A. ex2 B. (all1 x. (x in A | x in B)) & all1 x. all1 y. "
        "(edge(x, y) -> !((x in A & y in A) | (x in B & y in B)))"
    ),
    "colourable_3": (
        "ex2 A. ex2 B. ex2 C. (all1 x. (x in A | x in B | x in C)) & "
        "all1 x. all1 y. (edge(x, y) -> !((x in A & y in A) | (x in B & y in B) "
        "| (x in C & y in C)))"
    ),
    "pairs_touch": (
        "all2 X. all2 Y. (all1 x. !(x in X & x in Y) -> ((ex1 x. x in X) -> "
        "ex1 x. ex1 y. ((x in X | x in Y) & edge(x, y))))"
    ),
    "connected": (
        "all2 X. ((ex1 x. x in X) & (ex1 x. !(x in X))) -> "
        "ex1 x. ex1 y. (x in X & !(y in X) & edge(x, y))"
    ),
    "odd_kernel": (
        "ex2 K. mod(1, 2, K) & (all1 x. all1 y. ((x in K & y in K) -> !edge(x, y))) "
        "& all1 x. (!(x in K) -> ex1 y. (y in K & edge(x, y)))"
    ),
}

# first-order quantifiers relativized to a set, as rewrite_formula writes
# them, in the bounds of an all2 block and beside a literal under all1
RELATIVIZED_SENTENCES = [
    "all2 X. ex1 x. all1 y. (y in X -> edge(x, y))",
    "ex2 X. (ex1 x. x in X) & (ex1 x. !(x in X)) & "
    "all1 x. (x in X | all1 y. (y in X -> !edge(x, y)))",
]

# blocks whose bodies read labels, the relation r with its self-pairs and
# parities, and blocks under a first-order quantifier or inside another
# block, which keep the search over every choice
TWIN_SENTENCES = [
    "ex2 X. (all1 x. (x in X <-> label_a(x)) & mod(1, 2, X))",
    "ex2 X. ex2 Y. (all1 x. ((x in X <-> label_b(x)) & (x in Y <-> rel_r(x, x)))) "
    "& (mod(0, 2, X) <-> mod(1, 2, Y))",
    "all2 X. (all1 x. all1 y. ((x in X & rel_r(x, y)) -> y in X)) -> "
    "(mod(0, 2, X) | ex1 x. (x in X & label_a(x)))",
    "ex2 X. all1 x. all1 y. (rel_r(x, y) -> (x in X <-> !(y in X)))",
    "ex2 X. (mod(1, 3, X) & all1 x. (x in X -> (label_a(x) | ex1 y. (rel_r(x, y) & !(y in X)))))",
    "all1 x. ex2 X. (x in X & all1 y. (y in X -> y = x))",
    "ex1 x. all2 X. (x in X -> (mod(1, 2, X) | ex1 y. (y in X & !(y = x) & edge(x, y))))",
    "all2 X. ex2 Y. all1 y. (y in Y <-> !(y in X))",
    "ex2 A. ex2 B. ex2 C. (mod(0, 2, A) <-> !mod(0, 2, A))",
]

FO_NAMES = ("x", "y", "z")
SET_NAMES = ("X", "Y")

_fo = st.sampled_from(FO_NAMES)
_set = st.sampled_from(SET_NAMES)
_atoms = st.one_of(
    st.just(TrueConst()),
    st.just(FalseConst()),
    st.builds(Edge, _fo, _fo),
    st.builds(Eq, _fo, _fo),
    st.builds(InSet, _fo, _set),
    st.builds(lambda b, a, var: ModCount(a % b, b, var),
              st.sampled_from((2, 3)), st.integers(0, 2), _set),
    # no vertex carries the label c
    st.builds(HasLabel, st.sampled_from(("a", "b", "c")), _fo),
    st.builds(RelAtom, st.just("near"), _fo, _fo),
)


def _compound(sub):
    return st.one_of(
        st.builds(Not, sub),
        *(st.builds(op, sub, sub) for op in (And, Or, Implies, Iff)),
        *(st.builds(q, _fo, sub) for q in (ExistsVertex, AllVertex)),
        *(st.builds(q, _set, sub) for q in (ExistsSet, AllSet)),
    )


# binders draw from three first-order and two set names, so they shadow
# each other and the free names the assignment gives values to
FORMULAS = st.recursive(_atoms, _compound, max_leaves=10)


@st.composite
def relativized_formulas(draw):
    """A first-order quantifier whose body holds one or two levels of loops:
    quantifiers relativized to sets as rewrite_formula writes them,
    `ex1 v. (v in S & phi)` and `all1 v. ((v in S & psi) -> phi)`, and
    chains of like quantifiers.  The loops stand alone, negated or beside a
    literal, so that the quantifier's test of its mask reaches them; the
    whole may sit under Not and set quantifiers, whose search bounds it."""

    # hypothesis leans to the first of each choice, so each list of
    # choices starts with one that reads the loops' variables

    def literal(x, y):
        # an atom on x and, mostly, y, or its negation
        y = draw(st.sampled_from((y, *FO_NAMES)))
        kind = draw(st.sampled_from((Edge, Eq, InSet, HasLabel, RelAtom)))
        if kind is InSet:
            atom = InSet(x, draw(_set))
        elif kind is HasLabel:
            atom = HasLabel(draw(st.sampled_from(("a", "b"))), x)
        else:
            atom = RelAtom("near", x, y) if kind is RelAtom else kind(x, y)
        return Not(atom) if draw(st.booleans()) else atom

    def small(v, outer):
        op = draw(st.sampled_from((None, And, Or, Implies, Iff)))
        left = literal(v, outer)
        return left if op is None else op(left, literal(outer, v))

    def guard(v):
        return functools.reduce(And, [InSet(v, name) for name in
                                      draw(st.lists(_set, min_size=1, max_size=2))])

    def other(v):
        # a binder that shadows the one just outside it reads nothing new
        return draw(st.sampled_from([w for w in FO_NAMES if w != v]))

    def loop(depth, outer):
        v = other(outer)
        kind = draw(st.sampled_from(("all1", "ex1", "all1 all1", "ex1 ex1")))
        if kind == "all1":
            premise = And(guard(v), small(v, outer)) if draw(st.booleans()) else guard(v)
            return AllVertex(v, Implies(premise, loop(depth - 1, v) if depth > 1
                                        else small(v, outer)))
        if kind == "ex1":
            return ExistsVertex(v, And(guard(v), loop(depth - 1, v) if depth > 1
                                       else small(v, outer)))
        w = other(v)
        q = AllVertex if kind == "all1 all1" else ExistsVertex
        return q(v, q(w, loop(depth - 1, w) if depth > 1 else small(w, v)))

    top = draw(_fo)
    inner = loop(draw(st.integers(1, 2)), top)
    op = draw(st.sampled_from((Or, And, Not, None)))
    body = inner if op is None else Not(inner) if op is Not else op(
        literal(top, other(top)), inner)
    phi = draw(st.sampled_from((AllVertex, ExistsVertex)))(top, body)
    for _ in range(draw(st.integers(0, 2))):
        wrap = draw(st.sampled_from((AllSet, ExistsSet, Not)))
        phi = Not(phi) if wrap is Not else wrap(draw(_set), phi)
    return phi


def planted_structure(data, n):
    """A structure on n vertices with planted twin classes.  Each class is
    a clique or an independent set, in the edges and in the relation r,
    with a self-pair of r on every member or on none; two classes meet
    completely or not at all in each; and a class's members share their
    labels.  Up to two drawn flips of an edge, a pair of r or a label then
    split classes, some in one part of the structure only, and the
    vertices are shuffled, so that twins need not be consecutive."""
    k = data.draw(st.integers(1, max(n, 1)))
    cls = [data.draw(st.integers(0, k - 1)) for _ in range(n)]
    between = [{pair: data.draw(st.booleans())
                for pair in itertools.combinations_with_replacement(range(k), 2)}
               for _ in range(2)]
    loops = [data.draw(st.booleans()) for _ in range(k)]
    names = [data.draw(st.sets(st.sampled_from(("a", "b")))) for _ in range(k)]
    pairs = [{(u, v) for u, v in itertools.combinations(range(n), 2)
              if part[min(cls[u], cls[v]), max(cls[u], cls[v])]} for part in between]
    edges, near = pairs
    near |= {(v, v) for v in range(n) if loops[cls[v]]}
    labels = [set(names[c]) for c in cls]
    vertex = st.integers(0, n - 1)
    flips = data.draw(st.lists(st.tuples(st.sampled_from(("edge", "r", "a", "b")),
                                         vertex, vertex), max_size=2)) if n else []
    for kind, u, v in flips:
        pair = {(min(u, v), max(u, v))}
        if kind == "edge" and u != v:
            edges ^= pair
        elif kind == "r":
            near ^= pair
        elif kind in ("a", "b"):
            labels[u] ^= {kind}
    to = data.draw(st.permutations(range(n)))
    graph = Graph(n, [(to[u], to[v]) for u, v in edges],
                  {to[v]: labels[v] for v in range(n)})
    return RelStructure(graph, {"r": [(to[u], to[v]) for u, v in near]})


class Mystery(Formula):
    """A node kind the evaluator does not know."""


BAD_CONSTANTS = [
    (ModCount, ("1", 2, "X")),
    (ModCount, (0, "2", "X")),
    (ModCount, (True, 2, "X")),
    (ModCount, (0, True, "X")),
    (ModCount, (0, 2.5, "X")),
    (ModCount, (0.0, 2, "X")),
    (ModCount, (None, 2, "X")),
    (HasLabel, (5, "x")),
    (HasLabel, ("", "x")),
    (HasLabel, (None, "x")),
    (RelAtom, (7, "x", "y")),
    (RelAtom, ("", "x", "y")),
    (RelAtom, (b"r", "x", "y")),
]

# names format_formula would write as text the parser refuses
UNPARSABLE_NAMES = [
    (HasLabel, ("a b", "x")),
    (RelAtom, ("r-s", "x", "y")),
    (HasLabel, ("é", "x")),
    (ExistsVertex, ("in", TrueConst())),
    (Eq, ("label_a", "y")),
    (Eq, ("é", "x")),
    (Edge, ("x y", "z")),
]

NAME_POOL = ["x", "x1", "x_y", "xY", "X", "Xs", "X_1", "_x", "1x", "x y", "x-y",
             "x'", "", "é", "xé", "in", "true", "false", "edge", "mod", "ex1",
             "all2", "inx", "edges", "label_a", "rel_b", "labelx", "label_",
             "a", "A", "1", "_", "99_a"]


class TestFormulaBasics:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Edge("X", "y")
        with pytest.raises(ValidationError):
            InSet("x", "y")
        with pytest.raises(ValidationError):
            ModCount(2, 2, "X")
        with pytest.raises(ValidationError):
            ModCount(-1, 2, "X")
        with pytest.raises(ValidationError):
            ExistsSet("x", TrueConst())

    @pytest.mark.parametrize("kind, args", BAD_CONSTANTS, ids=[
        f"{kind.__name__}{args!r}" for kind, args in BAD_CONSTANTS])
    def test_constant_fields_are_typed(self, kind, args):
        # a constant of the wrong type would format as text that parses back
        # to a different formula, or crash a comparison with TypeError
        with pytest.raises(ValidationError):
            kind(*args)

    @pytest.mark.parametrize("phi", [
        ModCount(0, 2, "X"), ModCount(3, 7, "Y"), HasLabel("tip", "x"),
        RelAtom("sim", "x", "y"),
    ])
    def test_constant_fields_round_trip(self, phi):
        assert parse_formula(format_formula(phi)) == phi

    @pytest.mark.parametrize("kind, args", UNPARSABLE_NAMES, ids=[
        f"{kind.__name__}{args[:1]!r}" for kind, args in UNPARSABLE_NAMES])
    def test_names_the_parser_refuses_are_refused(self, kind, args):
        with pytest.raises(ValidationError):
            kind(*args)

    def test_constructors_and_parser_share_one_name_rule(self):
        for name in NAME_POOL:
            cases = (
                (f"ex1 {name}. true", lambda: ExistsVertex(name, TrueConst())),
                (f"ex2 {name}. true", lambda: ExistsSet(name, TrueConst())),
                (f"label_{name}(x)", lambda: HasLabel(name, "x")),
                (f"rel_{name}(x, y)", lambda: RelAtom(name, "x", "y")),
            )
            for text, build in cases:
                try:
                    phi = build()
                except ValidationError:
                    with pytest.raises(FormulaParseError):
                        parse_formula(text)
                else:
                    assert parse_formula(text) == phi
                    assert parse_formula(format_formula(phi)) == phi

    def test_free_vars(self):
        phi = ExistsVertex("x", And(Edge("x", "y"), InSet("x", "X")))
        fo, sets = free_vars(phi)
        assert fo == {"y"} and sets == {"X"}
        assert not is_sentence(phi)
        assert is_sentence(parse_formula(CORPUS[3]))

    def test_counters(self):
        phi = parse_formula("ex1 x. ex2 X. (x in X & ex2 Y. mod(1, 2, Y))")
        assert quantifier_count(phi) == 3
        assert set_quantifier_rank(phi) == 2
        assert mod_lcm(phi) == 2
        both = parse_formula("ex2 X. (mod(1, 2, X) & mod(2, 3, X))")
        assert mod_lcm(both) == 6
        assert mod_lcm(parse_formula("true")) == 1

    def test_substitution_avoids_capture(self):
        phi = ExistsVertex("y", Edge("x", "y"))
        sub = substitute_fo(phi, {"x": "y"})
        # the bound y must have been renamed away from the substituted y
        assert isinstance(sub, ExistsVertex) and sub.var != "y"
        g = Graph(3, [(0, 1)])
        for v in range(3):
            want = any(g.has_edge(v, w) for w in range(3))
            assert evaluate(g, sub, {"y": v}) == want


NODE_KINDS = [
    kind for kind in vars(formulas).values()
    if isinstance(kind, type) and issubclass(kind, Formula) and kind is not Formula
]


def _height(f):
    parts = [getattr(f, name) for name in ("body", "left", "right")
             if hasattr(f, name)]
    return 1 + max(map(_height, parts)) if parts else 0


def _nots(k):
    phi = TrueConst()
    for _ in range(k):
        phi = Not(phi)
    return phi


class TestShapeTable:
    def test_every_field_has_exactly_one_role(self):
        assert len(NODE_KINDS) == 17
        constants = {"a", "b", "label", "rel"}
        for kind in NODE_KINDS:
            roles = kind._FO + kind._SETS + kind._PARTS
            assert len(roles) == len(set(roles)), kind
            for f in dataclasses.fields(kind):
                if f.name == "height":
                    assert not f.init and not f.compare and not f.repr
                    continue
                assert (f.name in roles) != (f.name in constants), (kind, f.name)
            assert set(roles) <= {f.name for f in dataclasses.fields(kind)}

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        phi=FORMULAS,
        mapping=st.dictionaries(_fo, st.sampled_from(FO_NAMES + ("w0", "w1"))),
        taken=st.sets(st.sampled_from(("w0", "w1", "w2"))),
    )
    def test_folds_agree_with_the_kindwise_walks(self, phi, mapping, taken):
        assert free_vars(phi) == reference_free_vars(phi)
        assert formulas.all_var_names(phi) == reference_all_var_names(phi)
        assert quantifier_count(phi) == reference_quantifier_count(phi)
        assert set_quantifier_rank(phi) == reference_set_quantifier_rank(phi)
        assert mod_lcm(phi) == reference_mod_lcm(phi)
        assert phi.height == _height(phi)
        got = substitute_fo(phi, mapping, taken)
        assert got == reference_substitute_fo(phi, mapping, taken)
        assert format_formula(got) == format_formula(
            reference_substitute_fo(phi, mapping, taken))
        assert got.height == phi.height


class TestHeightBound:
    def test_constructors_refuse_past_the_bound(self):
        top = _nots(MAX_NESTING)
        assert top.height == MAX_NESTING
        for build in (Not, lambda f: And(TrueConst(), f),
                      lambda f: ExistsVertex("x", f), lambda f: AllSet("X", f)):
            with pytest.raises(ValidationError,
                               match="formula nests deeper than 100 levels"):
                build(top)

    def test_two_thousand_nots_are_refused_not_a_recursion_error(self):
        with pytest.raises(ValidationError) as info:
            _nots(2000)
        with pytest.raises(FormulaParseError) as parsed:
            parse_formula("!" * 2000 + "true")
        assert str(info.value) in str(parsed.value)

    def test_parts_must_be_formulas(self):
        for build in (lambda: Not("true"), lambda: And(TrueConst(), None),
                      lambda: ExistsVertex("x", 1)):
            with pytest.raises(ValidationError, match="is not a formula"):
                build()
        for build in (lambda: Edge(1, "y"), lambda: InSet("x", None),
                      lambda: ExistsSet(b"X", TrueConst())):
            with pytest.raises(ValidationError, match="is not a"):
                build()

    def test_substitution_keeps_the_height(self):
        phi = ExistsVertex("y", And(Edge("x", "y"), _nots(MAX_NESTING - 2)))
        sub = substitute_fo(phi, {"x": "y"})
        assert sub.height == phi.height == MAX_NESTING
        assert sub == reference_substitute_fo(phi, {"x": "y"})

    def test_rewriting_past_the_bound_is_refused(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        # each quantifier gains a conjunction with the domain formula
        fits = parse_formula("ex1 x. " * (MAX_NESTING // 2) + "true")
        assert rewrite_formula(ident, fits).height == MAX_NESTING
        over = parse_formula("ex1 x. " * (MAX_NESTING // 2 + 1) + "true")
        with pytest.raises(ValidationError, match="nests deeper"):
            rewrite_formula(ident, over)
        # an edge atom grows two levels: !(x = y) & (edge(x, y) | edge(y, x))
        edgy = parse_formula("!" * (MAX_NESTING - 2) + "edge(x, y)")
        assert rewrite_formula(ident, edgy).height == MAX_NESTING
        edgy = Not(edgy)
        with pytest.raises(ValidationError, match="nests deeper"):
            rewrite_formula(ident, edgy)

    def test_pickle_keeps_equality_hash_and_height(self):
        for text in CORPUS:
            phi = parse_formula(text)
            back = pickle.loads(pickle.dumps(phi))
            assert back == phi and hash(back) == hash(phi)
            assert back.height == phi.height == _height(phi)


class TestParser:
    def test_sentences_and_open_formulas(self):
        assert is_sentence(parse_formula("ex1 x. ex1 y. edge(x, y)"))
        assert is_sentence(parse_formula("ex2 X. mod(0, 2, X)"))
        phi = parse_formula("edge(x, y)")
        assert free_vars(phi)[0] == {"x", "y"}
        with pytest.raises(DomainError):
            evaluate(Graph(2, [(0, 1)]), phi)

    def test_precedence(self):
        phi = parse_formula("true | false & false")
        assert evaluate(Graph(1), phi)
        phi = parse_formula("false -> false -> false")
        # implication associates right
        assert evaluate(Graph(1), phi)
        phi = parse_formula("!true | true")
        assert evaluate(Graph(1), phi)
        # iff binds loosest
        phi = parse_formula("false <-> false | true")
        assert not evaluate(Graph(1), phi)

    def test_quantifier_scope_extends_right(self):
        phi = parse_formula("ex1 x. edge(x, x) & false")
        # the conjunction sits inside the quantifier
        assert isinstance(phi, ExistsVertex)
        assert isinstance(phi.body, And)

    def test_errors_carry_positions(self):
        for text in ("", "(", "edge(x", "ex1 X. true", "ex2 x. true",
                     "mod(2, 2, X)", "mod(1, 2, x)", "x in y", "true true",
                     "label_(x)", "edge(x, 1)", "in in in"):
            with pytest.raises(FormulaParseError):
                parse_formula(text)
        try:
            parse_formula("true & ?")
        except FormulaParseError as exc:
            assert exc.position == 7

    def test_nesting_at_the_bound_parses_and_evaluates(self):
        deep = [
            "(" * MAX_NESTING + "true" + ")" * MAX_NESTING,
            "!" * MAX_NESTING + "true",
            "ex1 x. " * MAX_NESTING + "true",
            " & ".join(["true"] * (MAX_NESTING + 1)),
            " -> ".join(["true"] * (MAX_NESTING + 1)),
        ]
        for text in deep:
            phi = parse_formula(text)
            assert evaluate(Graph(1), phi)
            assert parse_formula(format_formula(phi)) == phi

    def test_nesting_past_the_bound_is_a_parse_error(self):
        cases = {
            "(" * 170 + "true" + ")" * 170: MAX_NESTING,
            "(" * (MAX_NESTING + 1) + "true" + ")" * (MAX_NESTING + 1): MAX_NESTING,
            "!" * 1000 + "true": MAX_NESTING,
            "!" * (MAX_NESTING + 1) + "true": MAX_NESTING,
            "ex1 x. " * (MAX_NESTING + 1) + "true": 7 * MAX_NESTING,
            # chains parse in a loop but still build a tree this high
            " & ".join(["true"] * (MAX_NESTING + 2)): 7 * (MAX_NESTING + 1) - 2,
            " | ".join(["true"] * 2000): 7 * (MAX_NESTING + 1) - 2,
            " -> ".join(["true"] * 5000): 8 * MAX_NESTING + 5,
        }
        for text, position in cases.items():
            with pytest.raises(FormulaParseError, match="nests deeper") as info:
                parse_formula(text)
            assert info.value.position == position

    def test_keywords_are_not_variables(self):
        with pytest.raises(FormulaParseError):
            parse_formula("ex1 edge. true")
        with pytest.raises(FormulaParseError):
            parse_formula("ex1 label_a. true")

    def test_format_parse_identity(self):
        rng = random_seeded(81)
        for text in CORPUS:
            phi = parse_formula(text)
            assert parse_formula(format_formula(phi)) == phi
        for _ in range(150):
            phi = random_formula(rng, rng.randint(1, 5), labels=("a",),
                                 rels=("sim",))
            assert parse_formula(format_formula(phi)) == phi


class TestEvaluate:
    def test_adjacent_pair_and_full_set_parity(self):
        k3 = make_clique(3)
        assert evaluate(k3, parse_formula("ex1 x. ex1 y. (!(x = y) & edge(x, y))"))
        parity = parse_formula("ex2 X. ((all1 y. y in X) & mod(0, 2, X))")
        assert evaluate(Graph(4), parity)
        assert not evaluate(Graph(5), parity)

    def test_three_colorability(self):
        text = (
            "ex2 X. ex2 Y. ex2 Z. ("
            "all1 x. ((x in X | x in Y) | x in Z)"
            " & all1 x. all1 y. (edge(x, y) -> ("
            "!(x in X & y in X) & !(x in Y & y in Y) & !(x in Z & y in Z))))"
        )
        phi = parse_formula(text)

        def brute_colorable(g, k=3):
            return any(
                all(col[u] != col[v] for u, v in g.edges)
                for col in itertools.product(range(k), repeat=g.n)
            )

        assert evaluate(cycle(5), phi) == brute_colorable(cycle(5)) is True
        assert evaluate(make_clique(4), phi) == brute_colorable(make_clique(4)) is False
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                assert evaluate(g, phi) == brute_colorable(g)

    def test_agrees_with_reference_on_corpus(self):
        phis = [parse_formula(t) for t in CORPUS]
        assert len(phis) == 20
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for phi in phis:
                    assert evaluate(g, phi) == reference_evaluate(g, phi)

    def test_boolean_laws_random(self):
        rng = random_seeded(82)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 4))
            a = random_formula(rng, 2)
            b = random_formula(rng, 2)
            va, vb = evaluate(g, a), evaluate(g, b)
            assert evaluate(g, Not(a)) == (not va)
            assert evaluate(g, And(a, b)) == (va and vb)
            assert evaluate(g, Or(a, b)) == (va or vb)
            assert evaluate(g, Implies(a, b)) == ((not va) or vb)
            assert evaluate(g, Iff(a, b)) == (va == vb)

    def test_labels_and_relations(self):
        g = Graph(3, [(0, 1)], {0: {"red"}, 2: {"red", "big"}})
        assert evaluate(g, parse_formula("ex1 x. (label_red(x) & label_big(x))"))
        assert not evaluate(g, parse_formula("all1 x. label_red(x)"))
        s = RelStructure(g, {"near": [(0, 2)]})
        assert evaluate(s, parse_formula("ex1 x. ex1 y. rel_near(x, y)"))
        assert evaluate(s, parse_formula("all1 x. all1 y. (rel_near(x, y) -> rel_near(y, x))"))
        with pytest.raises(DomainError):
            evaluate(s, parse_formula("ex1 x. rel_far(x, x)"))
        # against the reference, with loops in the relation, a label no
        # vertex carries, atoms on one variable twice, quantifier bodies
        # that hold a set quantifier, and free variables assigned, as
        # apply_interpretation assigns them
        texts = [
            "ex1 x. rel_r(x, x)",
            "all1 x. (rel_r(x, x) -> ex1 y. (rel_r(x, y) & !(x = y)))",
            "all1 x. (x = x & !edge(x, x))",
            "ex1 x. (edge(x, x) | label_blue(x) | !(x = x))",
            "all1 x. (label_blue(x) <-> rel_r(x, x) & !rel_r(x, x))",
            "ex1 x. (label_red(x) & ex2 X. (x in X & all1 y. (y in X -> rel_r(x, y))))",
            "all1 x. ((edge(x, y) & x in Y) -> ex2 X. (x in X & mod(1, 2, X) & !(y in X)))",
            "rel_r(x, x) | ex1 z. (rel_r(x, z) & edge(z, y))",
            "all1 z. (z in X -> (edge(z, x) | z = y | label_big(z)))",
            "edge(x, y) | ex1 z. (edge(x, z) & edge(z, y))",
        ]
        phis = [parse_formula(t) for t in texts]
        for n in range(1, 5):
            last = n - 1
            labels = {0: {"red"}, last: {"red", "big"}}
            r = [(0, 0), (0, last), *((v, v) for v in range(1, n, 2))]
            for g in enumerate_graphs(n):
                s = RelStructure(Graph(n, g.edges, labels), {"r": r})
                for x, y in itertools.product((0, last), repeat=2):
                    for big in (frozenset(), frozenset({0}), frozenset(range(n))):
                        sets = {"X": big, "Y": frozenset(range(n)) - big}
                        for phi in phis:
                            want = reference_evaluate(s, phi, {"x": x, "y": y}, sets)
                            got = evaluate(s, phi, {"x": x, "y": y, **sets})
                            assert got == want, (g, format_formula(phi), x, y, big)

    def test_assignment_names_split_by_case(self):
        g = Graph(3, [(0, 1)])
        phi = parse_formula("x in X")
        assert evaluate(g, phi, {"x": 0, "X": {0, 2}})
        assert not evaluate(g, phi, {"x": 1, "X": {0, 2}})

    def test_caps(self):
        with pytest.raises(ResourceLimitError):
            evaluate(Graph(13), parse_formula("true"))
        deep = parse_formula("ex2 X. ex2 Y. ex2 Z. ex2 W. true")
        with pytest.raises(ResourceLimitError):
            evaluate(Graph(2), deep)
        assert evaluate(Graph(2), deep, max_set_quantifiers=4)

    def test_structure_validation(self):
        with pytest.raises(ValidationError):
            RelStructure(Graph(2), {"r": [(0, 5)]})
        with pytest.raises(ValidationError):
            RelStructure(Graph(2), {"": [(0, 1)]})

    def test_shadowed_binders(self):
        g = Graph(3, [(0, 1)])
        phi = parse_formula("ex1 x. (edge(x, y) & ex1 x. x in X)")
        assert evaluate(g, phi, {"y": 1, "X": {2}})
        assert not evaluate(g, phi, {"y": 2, "X": {2}})
        assert not evaluate(g, phi, {"y": 1, "X": set()})
        # the inner x is rebound, then the outer one is read again
        phi = parse_formula("ex1 x. ((ex1 x. edge(x, y)) & x = y)")
        assert evaluate(g, phi, {"y": 0})
        assert not evaluate(g, phi, {"y": 2})
        # a binder that shadows a free name leaves the free value alone
        phi = parse_formula("(all1 x. ex1 y. !(x = y)) & x = y")
        assert evaluate(g, phi, {"x": 2, "y": 2})
        assert not evaluate(g, phi, {"x": 1, "y": 2})
        phi = parse_formula("(ex2 X. mod(0, 2, X) & ex1 x. x in X) & !ex1 x. x in X")
        assert evaluate(g, phi, {"X": set()})
        assert not evaluate(g, phi, {"X": {1}})

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(phi=FORMULAS, data=st.data())
    def test_agrees_with_reference_under_shadowing(self, phi, data):
        assume(set_quantifier_rank(phi) <= 2)
        n = data.draw(st.integers(0, 4))
        free_fo, _ = free_vars(phi)
        assume(n or not free_fo)
        pairs = list(itertools.combinations(range(n), 2))
        edges = [p for p in pairs if data.draw(st.booleans())]
        near = [p for p in itertools.combinations_with_replacement(range(n), 2)
                if data.draw(st.booleans())]
        labels = {v: data.draw(st.sets(st.sampled_from(("a", "b"))))
                  for v in range(n)}
        s = RelStructure(Graph(n, edges, labels), {"near": near})
        vertex = st.integers(0, n - 1)
        fo = {name: data.draw(vertex) for name in FO_NAMES} if n else {}
        sets = {name: frozenset(data.draw(st.sets(vertex))) if n else frozenset()
                for name in SET_NAMES}
        want = reference_evaluate(s, phi, fo, sets)
        assert evaluate(s, phi, {**fo, **sets}) == want

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(phi=relativized_formulas(), data=st.data())
    def test_relativized_quantifiers_agree_with_reference(self, phi, data):
        # guarded loops and loops stopped once the enclosing test is
        # decided, exact and in the bounds of the block search
        n = data.draw(st.integers(0, 5))
        free_fo, _ = free_vars(phi)
        assume(n or not free_fo)

        def subset(items):
            # one mask, so that a full subset is drawn as often as an empty one
            mask = data.draw(st.integers(0, (1 << len(items)) - 1))
            return [item for i, item in enumerate(items) if mask >> i & 1]

        pairs = list(itertools.combinations(range(n), 2))
        labels = {v: subset(["a", "b"]) for v in range(n)}
        near = subset(pairs)
        fo = {name: data.draw(st.integers(0, n - 1)) for name in FO_NAMES} if n else {}
        sets = {name: frozenset(subset(range(n))) for name in SET_NAMES}
        # a drawn graph on 4 or 5 vertices, and every graph on fewer
        if n > 3:
            graphs = [subset(pairs)]
        else:
            graphs = [[p for i, p in enumerate(pairs) if mask >> i & 1]
                      for mask in range(1 << len(pairs))]
        for edges in graphs:
            s = RelStructure(Graph(n, edges, labels), {"near": near})
            want = reference_evaluate(s, phi, fo, sets)
            assert evaluate(s, phi, {**fo, **sets}) == want, (s, format_formula(phi))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_twin_pruned_blocks_agree_with_reference(self, data):
        # a block outside every other quantifier tries one assignment per
        # orbit of the swaps of twins.  Each structure is checked on every twin
        # sentence and on one drawn from the other lists; the reference
        # tries every set, so its 2^n sets per set quantifier bound n by the
        # sentence's nesting
        n = data.draw(st.integers(0, 8))
        s = planted_structure(data, n)
        other = data.draw(st.sampled_from([*BLOCK_SENTENCES.values(),
                                           *RELATIVIZED_SENTENCES, *CORPUS]))
        for text in [*TWIN_SENTENCES, other]:
            phi = parse_formula(text)
            if n <= (8, 8, 5, 4)[set_quantifier_rank(phi)]:
                assert evaluate(s, phi) == reference_evaluate(s, phi), (s, text)

    def test_agrees_with_reference_on_every_graph_up_to_5_vertices(self):
        phis = [parse_formula(t) for t in
                [*CORPUS, *BLOCK_SENTENCES.values(), *RELATIVIZED_SENTENCES]]
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                for phi in phis:
                    assert evaluate(g, phi) == reference_evaluate(g, phi), (
                        g, format_formula(phi))

    def test_blocks_under_shadowing(self):
        texts = [
            # the inner X of a run shadows the outer one
            "ex2 X. ex2 X. (mod(1, 2, X) & all1 x. (x in X <-> ex1 y. edge(x, y)))",
            "ex2 X. ex2 Y. ex2 X. (all1 x. (x in X | x in Y) & mod(1, 2, X)"
            " & all1 x. all1 y. (edge(x, y) -> (!(x in X & y in X) & !(x in Y & y in Y))))",
            "all2 X. all2 X. (mod(0, 2, X) | ex1 x. (x in X & ex1 y. edge(x, y)))",
            # a block variable shadows the assigned X, which is read outside
            "x in X & ex2 X. (mod(0, 2, X) & !(x in X) & all1 y. (edge(x, y) -> y in X))",
            "all2 X. (x in X -> ex1 y. (y in X & edge(x, y))) | y in X",
            "all2 X. all2 Y. (x in Y -> (x in X | mod(1, 2, Y)))",
        ]
        for text in texts:
            phi = parse_formula(text)
            for n in range(1, 5):
                for g in enumerate_graphs(n):
                    for x, y in itertools.product((0, n - 1), repeat=2):
                        for mask in (1, (1 << n) - 2):
                            big = frozenset(v for v in range(n) if mask >> v & 1)
                            sets = {"X": big, "Y": frozenset(range(n)) - big}
                            want = reference_evaluate(g, phi, {"x": x, "y": y}, sets)
                            got = evaluate(g, phi, {"x": x, "y": y, **sets})
                            assert got == want, (g, text, x, y, mask)

    @pytest.fixture
    def edge_tests(self, monkeypatch):
        """Counts the calls of Graph.has_edge from now on."""
        count = [0]
        has_edge = Graph.has_edge

        def counted(g, u, v):
            count[0] += 1
            return has_edge(g, u, v)

        monkeypatch.setattr(Graph, "has_edge", counted)
        return count

    @pytest.fixture
    def row_reads(self, monkeypatch):
        """Counts the reads of the adjacency rows that compile_formula takes
        from graph.adjacency_rows, from now on."""
        count = [0]

        class Rows(list):
            def __getitem__(self, v):
                count[0] += 1
                return list.__getitem__(self, v)

        module = importlib.import_module("shrubkit.mso.evaluate")
        rows_of = module.adjacency_rows
        monkeypatch.setattr(module, "adjacency_rows", lambda g: Rows(rows_of(g)))
        return count

    def test_first_order_sentences_run_on_rows(self, edge_tests, row_reads):
        # a first-order quantifier computes the mask of its variable's
        # values from adjacency rows: no has_edge call, one row read per
        # edge atom and value of the variables bound inside it; per
        # sentence, the reads summed over every graph on 1-4 vertices
        graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        texts = {i: t for i, t in enumerate(CORPUS)
                 if not set_quantifier_rank(parse_formula(t))}
        assert len(texts) == 11
        got = {}
        for key, text in texts.items():
            phi = parse_formula(text)
            row_reads[0] = 0
            for g in graphs:
                edge_tests[0] = 0
                value = evaluate(g, phi)
                assert edge_tests[0] == 0
                assert value == reference_evaluate(g, phi), (g, text)
            got[key] = row_reads[0]
        assert got == {0: 0, 1: 0, 2: 29, 3: 56, 4: 47, 5: 24, 6: 56, 7: 507,
                       14: 371, 15: 24, 18: 65}

    def test_edge_tests_of_the_block_search_are_pinned(self, edge_tests, row_reads):
        # set quantifiers are decided vertex by vertex with cuts, so the
        # pairs read differ from the reference's 2^n loop; per sentence, the
        # adjacency row reads summed over every graph on 1-4 vertices.  A
        # block outside every other quantifier first reads the rows for its
        # twin partition, 116 reads over these graphs; the block of 19 sits
        # under all1 x, so it is searched unpruned and reads none of them
        graphs = [g for n in range(1, 5) for g in enumerate_graphs(n)]
        texts = {i: t for i, t in enumerate(CORPUS)
                 if set_quantifier_rank(parse_formula(t))}
        texts.update(BLOCK_SENTENCES)
        got = {}
        for key, text in texts.items():
            phi = parse_formula(text)
            row_reads[0] = 0
            for g in graphs:
                evaluate(g, phi)
            got[key] = row_reads[0]
        assert edge_tests[0] == 0
        assert got == {
            8: 116, 9: 116, 10: 359, 11: 116, 12: 116, 13: 800, 16: 116, 17: 116,
            19: 43, "colourable_2": 644, "colourable_3": 579, "pairs_touch": 1783,
            "connected": 649, "odd_kernel": 500,
        }

    def test_colourable_3_on_k4_plus_a_tail(self, row_reads):
        phi = parse_formula(BLOCK_SENTENCES["colourable_3"])
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        # K4 on 0-3 and a path 3-4-...-11: cut at vertex 3 of every branch,
        # and 0, 1 and 2 are twins, so their choices never rise
        g = Graph(12, [*k4, *((v, v + 1) for v in range(3, 11))])
        assert not evaluate(g, phi)
        assert row_reads[0] == 348
        # a path 0-1-...-6 and K4 on 6-9: every colouring of the path is
        # tried, but only the non-increasing choices for the twins 7, 8, 9
        row_reads[0] = 0
        g = Graph(10, [*((v, v + 1) for v in range(6)), *((a + 6, b + 6) for a, b in k4)])
        assert not evaluate(g, phi)
        assert row_reads[0] == 157659

    def test_the_slowest_benchmark_sentences_are_pinned(self, row_reads):
        # the mso-logic benchmark's two slowest checks, as adjacency row reads
        phi = parse_formula(BLOCK_SENTENCES["odd_kernel"])
        k66 = Graph(12, [(a, 6 + b) for a in range(6) for b in range(6)])
        assert not evaluate(k66, phi)
        assert row_reads[0] == 580
        row_reads[0] = 0
        phi = parse_formula(BLOCK_SENTENCES["colourable_3"])
        k4_pendant = Graph(5, [(a, b) for a in range(4) for b in range(a + 1, 4)] + [(3, 4)])
        assert not evaluate(k4_pendant, phi)
        assert row_reads[0] == 138

    def test_twins_cut_a_sentence_that_fails_only_at_the_leaves(self):
        # no bound cuts this body, so the search over every choice visits
        # all 8^n leaves: about 36 h on 12 vertices.  The 12 vertices of the
        # edgeless graph are twins, which leaves the C(19, 7) = 50,388
        # non-increasing sequences of choices; P6 has no twins, so its
        # 8^6 = 262,144 leaves all stay
        phi = parse_formula("ex2 A. ex2 B. ex2 C. (mod(0, 2, A) <-> !mod(0, 2, A))")
        start = time.perf_counter()
        assert not evaluate(Graph(12), phi)
        assert time.perf_counter() - start < 30
        assert not evaluate(make_path(5), phi)

    def test_nested_and_raising_blocks_search_every_choice(self, row_reads):
        # a block under all1 x has x free, and a run that reaches a missing
        # relation raises, so the leaves it reaches can be seen: both keep
        # the search over every choice, and read no twin partition
        k33 = Graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])
        phi = parse_formula(
            "all1 x. ex2 X. ex2 Y. (x in X & all1 y. (y in X -> (y = x | edge(x, y))) "
            "& mod(0, 2, X) & all1 y. (y in Y <-> !(y in X)) & mod(1, 2, Y))")
        assert not evaluate(k33, phi)
        assert row_reads[0] == 698
        row_reads[0] = 0
        s = RelStructure(k33, {"near": [(0, 0), (1, 1), (2, 2)]})
        phi = parse_formula(
            "ex2 X. ex2 Y. (all1 x. (x in X <-> !(x in Y))) "
            "& (all1 x. all1 y. ((x in X & y in X) -> !edge(x, y))) "
            "& (all1 x. all1 y. ((x in Y & y in Y) -> !edge(x, y))) "
            "& ex1 x. (x in Y & rel_far(x, x))")
        with pytest.raises(DomainError, match="no relation 'far'"):
            evaluate(s, phi)
        assert row_reads[0] == 469

    def test_missing_relation_raises_only_when_reached(self):
        s = RelStructure(make_path(2), {"near": [(0, 1)]})
        assert not evaluate(s, parse_formula("ex1 x. (false & rel_far(x, x))"))
        assert evaluate(s, parse_formula("true | rel_far(x, y)"), {"x": 0, "y": 1})
        with pytest.raises(DomainError, match="no relation 'far'"):
            evaluate(s, parse_formula("ex1 x. rel_far(x, x)"))
        with pytest.raises(DomainError, match="no relation 'far'"):
            evaluate(s, parse_formula("ex1 x. (rel_near(x, x) | rel_far(x, x))"))

    def test_missing_relation_in_a_block_raises_at_a_reached_leaf(self):
        # under a set quantifier the search decides which leaves run, and a
        # loop over all 2^n sets in counting order would decide both the
        # other way: it raises on the first and returns true on the second
        s = RelStructure(make_path(2), {"near": [(0, 1)]})
        # every branch is cut at vertex 0, so no leaf runs
        phi = parse_formula("ex2 X. (rel_far(x, x) & false)")
        assert not evaluate(s, phi, {"x": 0})
        # the leaf X = {1}, which reaches the missing relation, runs before
        # X = {0}, which would satisfy the body
        phi = parse_formula("ex2 X. (x in X | (y in X & rel_far(x, x)))")
        with pytest.raises(DomainError, match="no relation 'far'"):
            evaluate(s, phi, {"x": 0, "y": 1})

    def test_unknown_node_raises_only_when_reached(self):
        g = make_path(2)
        assert evaluate(g, Or(TrueConst(), Mystery()))
        assert not evaluate(g, And(FalseConst(), Mystery()))
        assert not evaluate(Graph(0), ExistsVertex("x", Mystery()))
        assert evaluate(g, Implies(ExistsVertex("x", Not(Eq("x", "x"))), Mystery()))
        for phi in (Mystery(), And(TrueConst(), Mystery()),
                    AllSet("X", Mystery()), Iff(FalseConst(), Mystery())):
            with pytest.raises(ValidationError, match="unknown formula node"):
                evaluate(g, phi)

    def test_unknown_node_is_refused_by_the_rewriters(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        for phi in (Mystery(), And(TrueConst(), Mystery()),
                    ExistsVertex("x", Mystery())):
            with pytest.raises(ValidationError, match="unknown formula node"):
                substitute_fo(phi, {"x": "y"})
            with pytest.raises(ValidationError, match="unknown formula node"):
                rewrite_formula(ident, phi)
            with pytest.raises(ValidationError, match="unknown formula node"):
                format_formula(phi)

    def test_empty_domain(self):
        empty = Graph(0)
        assert evaluate(empty, parse_formula("all1 x. false"))
        assert not evaluate(empty, parse_formula("ex1 x. true"))
        assert evaluate(empty, parse_formula("ex2 X. mod(0, 2, X)"))
        assert not evaluate(empty, parse_formula("ex2 X. mod(1, 2, X)"))
        assert evaluate(empty, parse_formula("all2 X. all1 x. !(x in X)"))

    def test_a_compiled_formula_runs_on_its_own_structure(self):
        g = make_path(2)
        near = compile_formula(g, parse_formula("edge(x, y) | x in X"), ("x", "y", "X"))
        assert evaluate(g, near, {"x": 0, "y": 1, "X": []})
        assert not evaluate(g, near, {"x": 0, "y": 2, "X": []})
        assert evaluate(g, near, {"x": 0, "y": 2, "X": [0]})
        with pytest.raises(DomainError, match="another structure"):
            evaluate(make_path(2), near, {"x": 0, "y": 1, "X": []})
        with pytest.raises(DomainError, match="no assignment for y"):
            evaluate(g, near, {"x": 0, "X": []})
        with pytest.raises(DomainError, match="leaves the domain"):
            evaluate(g, near, {"x": 0, "y": 1, "X": [3]})
        with pytest.raises(DomainError, match="unassigned free variables: X"):
            compile_formula(g, parse_formula("x in X"), ("x",))


class TestInterpretation:
    def test_each_formula_is_compiled_once(self, monkeypatch):
        # each formula is walked once, when the interpretation is built, and
        # compiled once, with the facts of that walk; the package re-exports
        # the function `evaluate` under the module's name, hence import_module
        walked, compiled = [], []
        for name in ("evaluate", "interpret"):
            module = importlib.import_module(f"shrubkit.mso.{name}")
            monkeypatch.setattr(module, "_summary",
                                lambda f: walked.append(f) or formulas._summary(f))
        interpret = importlib.import_module("shrubkit.mso.interpret")
        compile_ = interpret.compile_formula
        monkeypatch.setattr(interpret, "compile_formula",
                            lambda s, f, *a, **k: compiled.append(f) or compile_(s, f, *a, **k))
        interp = Interpretation(parse_formula("ex1 y. edge(x, y)"),
                                parse_formula("ex1 z. (edge(x, z) & edge(z, y))"))
        h, ids = apply_interpretation(interp, Graph(5, [(0, 1), (1, 2), (2, 3)]))
        assert ids == (0, 1, 2, 3) and h == Graph(4, [(0, 2), (1, 3)])
        assert walked == compiled == [interp.domain_formula, interp.edge_formula]

    def test_validation(self):
        with pytest.raises(ValidationError):
            Interpretation(parse_formula("x in X"), parse_formula("edge(x, y)"))
        with pytest.raises(ValidationError):
            Interpretation(parse_formula("true"), parse_formula("edge(x, y)"),
                           edge_vars=("x", "x"))

    def test_default_variables(self):
        i = Interpretation(parse_formula("ex1 z. edge(w, z)"),
                           parse_formula("edge(u, v)"))
        assert i.domain_var == "w"
        assert i.edge_vars == ("u", "v")

    def test_complete_complement_identity(self):
        rng = random_seeded(83)
        true = parse_formula("true")
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 6))
            full, ids = apply_interpretation(Interpretation(true, true), g)
            assert full == make_clique(g.n) and ids == tuple(range(g.n))
            comp, _ = apply_interpretation(
                Interpretation(true, parse_formula("!edge(x, y)")), g)
            assert comp.n == g.n
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert comp.has_edge(u, v) == (not g.has_edge(u, v))
            same, _ = apply_interpretation(
                Interpretation(true, parse_formula("edge(x, y)")), g)
            assert same == Graph(g.n, g.edges)

    def test_domain_shrinks_and_maps_ids(self):
        g = Graph(4, [(0, 1), (1, 2)])
        keep_touched = Interpretation(parse_formula("ex1 y. edge(x, y)"),
                                      parse_formula("edge(x, y)"))
        h, ids = apply_interpretation(keep_touched, g)
        assert ids == (0, 1, 2)
        assert h == Graph(3, [(0, 1), (1, 2)])

    def test_asymmetric_mu_is_symmetrized(self):
        g = Graph(3, [(0, 1)], {0: {"a"}})
        one_way = Interpretation(parse_formula("true"),
                                 parse_formula("edge(x, y) & label_a(x)"))
        h, _ = apply_interpretation(one_way, g)
        assert h.has_edge(0, 1)

    def test_labels_do_not_survive(self):
        g = Graph(2, [(0, 1)], {0: {"a"}})
        h, _ = apply_interpretation(
            Interpretation(parse_formula("true"), parse_formula("edge(x, y)")), g)
        assert h.labels == {}

    def test_rewrite_identity_is_equivalent(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        for text in CORPUS[:10]:
            phi = parse_formula(text)
            back = rewrite_formula(ident, phi)
            for n in range(1, 4):
                for g in enumerate_graphs(n):
                    assert evaluate(g, back) == evaluate(g, phi)

    def test_rewrite_complement_example(self):
        comp = Interpretation(parse_formula("true"), parse_formula("!edge(x, y)"))
        phi = parse_formula("ex1 x. ex1 y. edge(x, y)")
        back = rewrite_formula(comp, phi)
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                image, _ = apply_interpretation(comp, g)
                assert evaluate(g, back) == evaluate(image, phi)

    def test_rewrite_defining_equivalence_random(self):
        rng = random_seeded(84)
        pool = [
            Interpretation(parse_formula("true"), parse_formula("!edge(x, y)")),
            Interpretation(parse_formula("ex1 y. edge(x, y)"),
                           parse_formula("edge(x, y)")),
            Interpretation(parse_formula("true"),
                           parse_formula("ex1 z. (edge(x, z) & edge(z, y))")),
        ]
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 5))
            interp = pool[rng.randrange(len(pool))]
            phi = random_formula(rng, rng.randint(1, 3))
            if not is_sentence(phi):
                continue
            image, _ = apply_interpretation(interp, g)
            if image.n == 0:
                continue
            assert evaluate(g, rewrite_formula(interp, phi)) == evaluate(image, phi)


class TestKCopy:
    def test_counts(self):
        rng = random_seeded(85)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 5))
            k = rng.randint(1, 3)
            s = k_copy(g, k)
            assert s.n == k * g.n
            assert len(s.graph.edges) == k * len(g.edges)

    def test_single_copy(self):
        g = make_path(2)
        s = k_copy(g, 1)
        assert s.graph.edges == g.edges
        assert all("P1" in s.graph.vertex_labels(v) for v in range(3))
        assert all(u == v for u, v in s.relations["sim"])

    def test_two_copies_of_k1(self):
        s = k_copy(Graph(1), 2)
        assert s.n == 2 and s.graph.edges == ()
        assert (0, 1) in s.relations["sim"]
        assert s.graph.vertex_labels(0) == {"P1"}
        assert s.graph.vertex_labels(1) == {"P2"}

    def test_copy_structure(self):
        g = Graph(2, [(0, 1)])
        s = k_copy(g, 2)
        # copy i of v gets id (i-1)*n + v
        assert s.graph.has_edge(0, 1) and s.graph.has_edge(2, 3)
        assert not s.graph.has_edge(0, 2) and not s.graph.has_edge(1, 2)
        assert (0, 2) in s.relations["sim"] and (1, 3) in s.relations["sim"]
        assert (0, 3) not in s.relations["sim"]


class TestTransduction:
    def test_identity(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        td = Transduction(ident)
        rng = random_seeded(86)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 5))
            assert apply_transduction(td, g) == Graph(g.n, g.edges)

    def test_unsatisfiable_guard(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        td = Transduction(ident, precondition=parse_formula("false"))
        assert apply_transduction(td, Graph(2)) is None

    def test_matching_from_edgeless(self):
        matcher = Transduction(
            Interpretation(parse_formula("true"),
                           parse_formula("rel_sim(x, y) & !(x = y)")),
            copies=2,
        )
        for n in range(1, 6):
            got = apply_transduction(matcher, Graph(n))
            want = Graph(2 * n, [(v, n + v) for v in range(n)])
            assert got == want

    def test_precondition_must_be_sentence(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        with pytest.raises(ValidationError):
            Transduction(ident, precondition=parse_formula("edge(x, y)"))

    def test_labeling_gates_predicates(self):
        # keep only vertices marked A; edges inherited
        keep_marked = Transduction(
            Interpretation(parse_formula("label_A(x)"),
                           parse_formula("edge(x, y)")),
            predicates=("A",),
        )
        g = make_path(2)
        got = apply_transduction(keep_marked, g, {"A": {0, 2}})
        assert got == Graph(2)
        got = apply_transduction(keep_marked, g, {"A": {0, 1}})
        assert got == Graph(2, [(0, 1)])
        with pytest.raises(DomainError):
            apply_transduction(keep_marked, g, {"B": {0}})

    def test_enumeration_counts_labelings(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        td = Transduction(ident, predicates=("A",))
        images = list(transduction_images(td, Graph(2)))
        assert len(images) == 4
        labelings = [lab for lab, _ in images]
        assert {frozenset(lab["A"]) for lab in labelings} == {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}

    def test_the_precondition_is_walked_once(self, monkeypatch):
        # at construction, and not again for each labeling applied
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        walked = []
        for name in ("evaluate", "transduce"):
            module = importlib.import_module(f"shrubkit.mso.{name}")
            monkeypatch.setattr(module, "_summary",
                                lambda f: walked.append(f) or formulas._summary(f))
        td = Transduction(ident, precondition=parse_formula("ex2 X. mod(1, 2, X)"),
                          predicates=("A",))
        images = [image for _, image in transduction_images(td, Graph(2))]
        assert images == [Graph(2)] * 4
        assert walked == [td.precondition]

    def test_enumeration_caps(self):
        ident = Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))
        with pytest.raises(ResourceLimitError):
            list(transduction_images(Transduction(ident), Graph(7)))
        td3 = Transduction(ident, predicates=("A", "B", "C"))
        with pytest.raises(ResourceLimitError):
            list(transduction_images(td3, Graph(2)))


class TestTransductionDepthSmoke:
    def test_interpretations_stay_at_the_same_depth(self):
        rng = random_seeded(87)
        pool = [
            Interpretation(parse_formula("true"), parse_formula("!edge(x, y)")),
            Interpretation(parse_formula("true"),
                           parse_formula("edge(x, y) | ex1 z. (edge(x, z) & edge(z, y))")),
        ]
        checked = 0
        while checked < 12:
            m = random_tree_model(rng, max_depth=2, max_colors=2, max_leaves=6)
            if m.depth == 0:
                continue
            g = realize(m)
            interp = pool[checked % len(pool)]
            image, _ = apply_interpretation(interp, g)
            if image.n == 0:
                continue
            found = any(
                tm_membership(image, m.depth, colors) is not None
                for colors in range(1, 5)
            )
            assert found, (g, m.depth)
            checked += 1
