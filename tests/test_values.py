"""The value classes: frozen, picklable, and the forest on its tree core."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubkit import (
    ColoredTree,
    CopiedTreeModel,
    EliminationForest,
    Graph,
    LinCwExpression,
    RootedTree,
    SCTree,
    ValidationError,
    add_leaf_level,
    make_clique,
)
from shrubkit.constructions import clique_model
from shrubkit.mso import (
    Interpretation,
    RelStructure,
    Transduction,
    TrueConst,
    parse_formula,
)


def _interpretation():
    return Interpretation(parse_formula("true"), parse_formula("edge(x, y)"))


VALUES = [
    Graph(3, [(0, 1), (1, 2)], {0: {"tip"}}),
    RootedTree([-1, 0, 0, 1]),
    EliminationForest([-1, 0, 0, -1]),
    clique_model(3),
    CopiedTreeModel(add_leaf_level(clique_model(3)), 1, 1, 1),
    ColoredTree(RootedTree([-1, 0, 0]), [1, 2, 2]),
    SCTree.inner([SCTree.leaf(0), SCTree.inner([SCTree.leaf(1)], [1])], [0, 1]),
    LinCwExpression([("V", 1), ("V", 2), ("E", 1, 2)]),
    RelStructure(make_clique(2), {"sim": [(0, 1)]}),
    _interpretation(),
    Transduction(_interpretation(), copies=2, predicates=("A",)),
]
IDS = [type(v).__name__ for v in VALUES]


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_attributes_cannot_be_set(value):
    for f in dataclasses.fields(value):
        with pytest.raises(AttributeError):
            setattr(value, f.name, getattr(value, f.name))


@pytest.mark.parametrize("value", [Graph(1), TrueConst()], ids=["Graph", "TrueConst"])
def test_a_new_attribute_cannot_be_set(value):
    # a bare slotted frozen dataclass raises TypeError here on CPython 3.11;
    # value_class replaces its __setattr__ with one that always refuses
    before = pickle.dumps(value)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")
    assert pickle.dumps(value) == before


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_new_names_and_deletions_are_refused(value):
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)
    assert copy.deepcopy(value) == value


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_round_trip(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value
    assert repr(back) == repr(value)


def test_pickled_derived_state_still_works():
    g = pickle.loads(pickle.dumps(VALUES[0]))
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    f = pickle.loads(pickle.dumps(VALUES[2]))
    assert (f.height, f.depth(2), f.roots()) == (1, 1, (0, 3))


def _depth_by_walk(parent, v):
    """Steps from v up to a root, or None on a cycle."""
    steps = 0
    while parent[v] != -1:
        v = parent[v]
        steps += 1
        if steps > len(parent):
            return None
    return steps


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    st.integers(0, 8).flatmap(
        lambda n: st.lists(st.integers(-1, n - 1), min_size=n, max_size=n)
    )
)
def test_forest_accepts_exactly_the_acyclic_parent_arrays(parent):
    depths = [_depth_by_walk(parent, v) for v in range(len(parent))]
    if None in depths:
        with pytest.raises(ValidationError):
            EliminationForest(parent)
        return
    f = EliminationForest(parent)
    assert f.n == len(parent)
    for v in range(f.n):
        assert f.depth(v) == depths[v] == len(f.ancestors(v))
    assert f.roots() == tuple(v for v, p in enumerate(parent) if p == -1)
    assert f.height == max(depths, default=-1)


def test_forest_cannot_name_its_virtual_root_as_a_parent():
    with pytest.raises(ValidationError):
        EliminationForest([2, -1])
