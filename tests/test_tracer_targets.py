"""Every name the benchmark's tracer patches still resolves.

perfbench/tracer.py wraps shrubkit functions and class constructors by
(module, name) and counts Graph.has_edge and RootedTree.lca calls.  A rename
in the package would otherwise show only when the benchmark runs traced.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _, _ in TRACER.SPANS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, name", [(m, c) for m, c, _ in TRACER.CLASS_SPANS])
def test_traced_class_resolves(module, name):
    assert isinstance(getattr(importlib.import_module(module), name), type)


@pytest.mark.parametrize("module, cls, method", [
    ("shrubkit.graph", "Graph", "has_edge"),
    ("shrubkit.rooted_tree", "RootedTree", "lca"),
])
def test_counted_method_resolves(module, cls, method):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))
