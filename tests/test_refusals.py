"""Each documented refusal raises its own ShrubError subclass, and no other
exception type: a caller that catches ShrubError never sees a crash."""

import pytest

from shrubkit import (
    DomainError,
    FormulaParseError,
    Graph,
    ResourceLimitError,
    RootedTree,
    TreeModel,
    ValidationError,
    biclique_model,
    complement_on_subset,
    enumerate_graphs,
    graph_from_text,
    induced_subgraph,
    infer_signature,
    minimal_obstructions,
    model_from_text,
    path_model,
    relabel_graph,
    restrict,
    subtree_on,
    tm_membership,
)
from shrubkit.mso import (
    Interpretation,
    RelStructure,
    Transduction,
    apply_interpretation,
    apply_transduction,
    evaluate,
    k_copy,
    parse_formula,
)

P3 = Graph(3, [(0, 1), (1, 2)])
EDGE = parse_formula("edge(x, y)")
INTERP = Interpretation(parse_formula("true"), EDGE)
# 100,000 vertices whose first 5,400 rows each reach the last vertex ask for
# 540,005,400 bits of rows, past the reader's bound of 2^29
WIDE_ROWS = "100000\n" + "".join(f"{i} 99999\n" for i in range(5400))
EMPTY_INTERNAL = ('{"depth": 1, "colors": 1, "signature": [], '
                  '"tree": {"children": [{"children": []}]}}')


def _model(depth=1, colors=1, leaf_vertex=None, leaf_color=None):
    return TreeModel(RootedTree([-1, 0]), depth, colors,
                     leaf_vertex or {1: 0}, leaf_color or {1: 1}, frozenset())


REFUSALS = {
    # graph
    "complement-outside": (DomainError, lambda: complement_on_subset(P3, [3])),
    "induced-outside": (DomainError, lambda: induced_subgraph(P3, [0, 3])),
    "relabel-not-bijection": (DomainError,
                              lambda: relabel_graph(P3, {0: 0, 1: 0, 2: 2})),
    "label-line-arity": (ValidationError, lambda: graph_from_text("2\nlabel 0\n")),
    "label-line-vertex": (ValidationError,
                          lambda: graph_from_text("2\nlabel x a\n")),
    "edge-line-end": (ValidationError, lambda: graph_from_text("2\n0 x\n")),
    "row-bits": (ValidationError, lambda: graph_from_text(WIDE_ROWS)),
    "vertex-count-float": (ValidationError, lambda: Graph(2.5)),
    "edge-end-float": (ValidationError, lambda: Graph(2, [(0.0, 1)])),
    "label-vertex-str": (ValidationError, lambda: Graph(2, [], {"a": ["x"]})),
    "edge-triple": (ValidationError, lambda: Graph(2, [(0, 1, 2)])),
    "edge-not-pair": (ValidationError, lambda: Graph(2, [5])),
    "label-names-int": (ValidationError, lambda: Graph(2, [], {0: 5})),
    "relabel-key-str": (DomainError, lambda: relabel_graph(P3, {0: 0, "a": 1, 2: 2})),
    "complement-str": (DomainError, lambda: complement_on_subset(P3, ["a"])),
    "induced-float": (DomainError, lambda: induced_subgraph(P3, [1.5])),
    "relabel-float": (DomainError,
                      lambda: relabel_graph(P3, {0: 1.0, 1: 0.0, 2: 2.0})),
    # rooted_tree
    "parent-out-of-range": (ValidationError, lambda: RootedTree([-1, 5])),
    "parent-float": (ValidationError, lambda: RootedTree([-1, 0.0])),
    "extend-path-negative": (DomainError,
                             lambda: RootedTree([-1]).extend_path(0, -1)),
    "subtree-drops-parent": (DomainError,
                             lambda: subtree_on(RootedTree([-1, 0, 1]), [0, 2])),
    "subtree-float": (DomainError, lambda: subtree_on(RootedTree([-1, 0]), [0.5])),
    # tree_model
    "model-depth-negative": (ValidationError, lambda: _model(depth=-1)),
    "model-no-colours": (ValidationError, lambda: _model(colors=0)),
    "model-vertex-keys": (ValidationError, lambda: _model(leaf_vertex={0: 0})),
    "model-colour-keys": (ValidationError, lambda: _model(leaf_color={0: 1})),
    "signature-not-bijection": (DomainError, lambda: infer_signature(
        RootedTree([-1, 0]), {1: 5}, {1: 1}, Graph(1))),
    "model-empty-children": (ValidationError,
                             lambda: model_from_text(EMPTY_INTERNAL)),
    "restrict-float": (DomainError, lambda: restrict(path_model(1), [0.5])),
    # solver and constructions
    "tm-depth-negative": (DomainError, lambda: tm_membership(P3, -1, 1)),
    "enumerate-negative": (DomainError, lambda: enumerate_graphs(-1)),
    "obstructions-zero": (DomainError, lambda: minimal_obstructions(1, 1, 0)),
    "obstructions-past-cap": (ResourceLimitError,
                              lambda: minimal_obstructions(1, 1, 11)),
    "biclique-model-empty-side": (DomainError, lambda: biclique_model(0, 1)),
    # mso
    "evaluate-non-structure": (DomainError,
                               lambda: evaluate("P3", parse_formula("true"))),
    "set-leaves-domain": (DomainError, lambda: evaluate(
        P3, parse_formula("ex1 x. x in X"), {"X": [3]})),
    "vertex-not-int": (DomainError, lambda: evaluate(
        P3, parse_formula("x = x"), {"x": "0"})),
    "vertex-float": (DomainError, lambda: evaluate(
        P3, parse_formula("x = x"), {"x": 1.5})),
    "set-not-iterable": (DomainError, lambda: evaluate(
        P3, parse_formula("x in X"), {"x": 0, "X": 5})),
    "set-member-not-int": (DomainError, lambda: evaluate(
        P3, parse_formula("ex1 x. x in X"), {"X": ["a"]})),
    "relation-not-iterable": (ValidationError, lambda: RelStructure(P3, {"r": 5})),
    "relation-member-not-int": (ValidationError,
                                lambda: RelStructure(P3, {"r": [("a", 1)]})),
    "relation-triple": (ValidationError, lambda: RelStructure(P3, {"r": [(0, 1, 2)]})),
    "relation-float": (ValidationError, lambda: RelStructure(P3, {"r": [(0.0, 1)]})),
    "structure-not-graph": (ValidationError, lambda: evaluate(
        RelStructure("x"), parse_formula("true"))),
    "relations-not-mapping": (ValidationError,
                              lambda: RelStructure(Graph(2), [("r", [(0, 1)])])),
    "relation-name-not-str": (ValidationError,
                              lambda: RelStructure(Graph(2), {5: [(0, 1)]})),
    "interpretation-too-many-free": (ValidationError,
                                     lambda: Interpretation(EDGE, EDGE)),
    "domain-uses-others": (ValidationError,
                           lambda: Interpretation(EDGE, EDGE, domain_var="x")),
    "edge-uses-others": (ValidationError, lambda: Interpretation(
        parse_formula("true"), parse_formula("edge(x, z)"), edge_vars=("x", "y"))),
    "interpret-non-structure": (DomainError,
                                lambda: apply_interpretation(INTERP, "P3")),
    "parse-number": (FormulaParseError, lambda: parse_formula("mod(x, 2, X)")),
    "parse-set-alone": (FormulaParseError, lambda: parse_formula("X")),
    "parse-after-fo": (FormulaParseError, lambda: parse_formula("x y")),
    "k-copy-zero": (DomainError, lambda: k_copy(P3, 0)),
    "precondition-not-formula": (ValidationError,
                                 lambda: Transduction(INTERP, precondition="true")),
    "interpretation-not-interpretation": (ValidationError,
                                          lambda: Transduction(EDGE)),
    "predicates-duplicate": (ValidationError,
                             lambda: Transduction(INTERP, predicates=("Q", "Q"))),
    "predicates-empty-name": (ValidationError,
                              lambda: Transduction(INTERP, predicates=("",))),
    "labeling-leaves-graph": (DomainError, lambda: apply_transduction(
        Transduction(INTERP, predicates=("Q",)), P3, {"Q": [3]})),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_raises_its_documented_error(case):
    error, call = REFUSALS[case]
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is error, caught.value


def test_equal_graphs_hash_equal():
    g = Graph(3, [(0, 1), (2, 1)], {0: {"a"}})
    h = Graph(3, [(1, 2), (1, 0)], {0: ["a"]})
    assert g == h and hash(g) == hash(h)
    assert len({g, h, Graph(3, [(0, 1)])}) == 2
