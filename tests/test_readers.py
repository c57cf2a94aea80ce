"""Hostile input to the three JSON tree readers, in the library and the CLI."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrubkit import ValidationError
from shrubkit.cli import main
from shrubkit.sc_model import sc_from_text
from shrubkit.tree_model import colored_tree_from_text, model_from_text

READERS = {
    "model": model_from_text,
    "sc": sc_from_text,
    "colored": colored_tree_from_text,
}


def _model(tree, **top):
    doc = {"depth": 1, "colors": 1, "signature": [[1, 1, 1]], "tree": tree, **top}
    return json.dumps(doc)


def _pair(first, second):
    return _model({"children": [first, second]})


DEEP = "[" * 3000 + "]" * 3000
HUGE_INT = "1" + "0" * 5000

HOSTILE = [
    ("model", "signature-not-triples", _model({"children": [{"vertex": 0, "color": 1}]},
                                              signature=[5])),
    ("model", "depth-string", _model({"children": [{"vertex": 0, "color": 1}]},
                                     depth="1")),
    ("model", "vertex-bool", _pair({"vertex": 0, "color": 1},
                                   {"vertex": True, "color": 1})),
    ("model", "color-bool", _pair({"vertex": 0, "color": 1},
                                  {"vertex": 1, "color": True})),
    ("model", "children-int", _model({"children": 5})),
    ("model", "children-object", _model({"children": {"vertex": 0, "color": 1}})),
    ("model", "vertex-huge", '{"tree": {"children": [{"vertex": %s}]}}' % HUGE_INT),
    ("model", "bare-zero", "0"),
    ("model", "deep", DEEP),
    ("sc", "x-int", '{"X": 5, "children": [{"vertex": 0}]}'),
    ("sc", "x-not-list", '{"X": "0", "children": [{"vertex": 0}]}'),
    ("sc", "vertex-bool", '{"X": [], "children": [{"vertex": 0}, {"vertex": true}]}'),
    ("sc", "children-int", '{"X": [], "children": 5}'),
    ("sc", "children-object", '{"X": [], "children": {"vertex": 0}}'),
    ("sc", "bare-zero", "0"),
    ("sc", "deep", DEEP),
    ("colored", "color-string", '{"color": "x"}'),
    ("colored", "color-bool", '{"color": true}'),
    ("colored", "children-int", '{"color": 1, "children": 5}'),
    ("colored", "children-object", '{"color": 1, "children": {"color": 1}}'),
    ("colored", "bare-zero", "0"),
    ("colored", "deep", DEEP),
]
CASES = [(fmt, text) for fmt, _, text in HOSTILE]
IDS = [f"{fmt}-{name}" for fmt, name, _ in HOSTILE]


@pytest.mark.parametrize("fmt, text", CASES, ids=IDS)
def test_library_reader_raises_validation_error(fmt, text):
    with pytest.raises(ValidationError):
        READERS[fmt](text)


def _cli_argv(fmt, path, tmp_path):
    if fmt == "model":
        graph = tmp_path / "k2.g"
        graph.write_text("2\n0 1\n", encoding="utf-8")
        return ["verify", "tm", "--model", path, "--graph", str(graph)]
    if fmt == "sc":
        return ["convert", "sc-eval", "--in", path]
    return ["reduce-tree", "--in", path, "--thresholds", "1", "--modulus", "2"]


@pytest.mark.parametrize("fmt, text", CASES, ids=IDS)
def test_cli_reports_an_error_not_a_crash(fmt, text, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(_cli_argv(fmt, str(path), tmp_path))
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert not err.getvalue().startswith("error: internal error:")


# keys of all three formats, so random records sometimes fit a shape
KEYS = st.sampled_from(
    ["vertex", "color", "children", "X", "depth", "colors", "signature", "tree"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.integers()
    | st.floats(allow_nan=True)
    | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(KEYS | st.text(max_size=2), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(JSON_VALUES)
def test_readers_raise_only_validation_errors(value):
    text = json.dumps(value)
    for reader in READERS.values():
        try:
            reader(text)
        except ValidationError:
            pass
