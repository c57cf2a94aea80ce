"""Per-layer tracing of shrubkit from outside the package.

`Tracer.install()` wraps the public functions of each layer, the
constructors of the core classes, and counts `Graph.has_edge` and
`RootedTree.lca` calls.  A wrapped function is replaced in every loaded
`shrubkit.*` module that binds it, found by object identity, because callers
reach `canonical_form`, `evaluate` and others through `from ... import`
bindings as well as through their home module.

Spans nest: a layer's self time is its span time minus the time of the traced
spans it called.  `edge_tests` of a layer counts the `has_edge` calls made
anywhere under its outermost span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, function, metric prefix, counts edge tests)
SPANS = (
    ("shrubkit.solver", "tm_membership", "solver.tm_membership", True),
    ("shrubkit.solver", "tmc_membership", "solver.tmc_membership", True),
    ("shrubkit.solver", "sc_membership", "solver.sc_membership", False),
    ("shrubkit.solver", "enumerate_graphs", "solver.enumerate_graphs", False),
    ("shrubkit.solver", "minimal_obstructions", "solver.minimal_obstructions", False),
    ("shrubkit.graph", "canonical_form", "graph.canonical_form", True),
    ("shrubkit.graph", "complement_on_subset", "graph.complement_on_subset", False),
    ("shrubkit.graph", "induced_subgraph", "graph.induced_subgraph", False),
    ("shrubkit.graph", "components", "graph.components", False),
    ("shrubkit.graph", "relabel_graph", "graph.relabel_graph", False),
    ("shrubkit.graph", "graph_from_text", "graph.graph_from_text", False),
    ("shrubkit.graph", "graph_to_text", "graph.graph_to_text", False),
    ("shrubkit.mso.evaluate", "evaluate", "mso.evaluate", True),
    ("shrubkit.mso.parser", "parse_formula", "mso.parse_formula", False),
    ("shrubkit.mso.interpret", "apply_interpretation", "mso.apply_interpretation", False),
    ("shrubkit.mso.transduce", "apply_transduction", "mso.apply_transduction", False),
    ("shrubkit.mso.formulas", "free_vars", "mso.free_vars", False),
    ("shrubkit.mso.formulas", "set_quantifier_rank", "mso.set_quantifier_rank", False),
    ("shrubkit.cli", "main", "cli.main", False),
    ("shrubkit.tree_model", "realize", "tree_model.realize", False),
    ("shrubkit.tree_model", "model_from_text", "tree_model.model_from_text", False),
    ("shrubkit.tree_model", "model_to_text", "tree_model.model_to_text", False),
    ("shrubkit.tree_model", "reduce_tree", "tree_model.reduce_tree", False),
    ("shrubkit.sc_model", "tm_to_sc", "sc_model.tm_to_sc", False),
    ("shrubkit.sc_model", "sc_to_tm", "sc_model.sc_to_tm", False),
    ("shrubkit.sc_model", "evaluate_sc", "sc_model.evaluate_sc", False),
    ("shrubkit.sc_model", "sc_from_text", "sc_model.sc_from_text", False),
    ("shrubkit.sc_model", "sc_to_text", "sc_model.sc_to_text", False),
    ("shrubkit.lincw", "tm_to_lincw", "lincw.tm_to_lincw", False),
    ("shrubkit.lincw", "eval_lincw", "lincw.eval_lincw", False),
    ("shrubkit.depth", "tree_depth", "depth.tree_depth", False),
    ("shrubkit.depth", "td_to_tm", "depth.td_to_tm", False),
    ("shrubkit.depth", "validate_td", "depth.validate_td", False),
)

# classes whose construction is a span: (module, class, metric prefix)
CLASS_SPANS = (
    ("shrubkit.graph", "Graph", "graph.Graph"),
    ("shrubkit.rooted_tree", "RootedTree", "rooted_tree.RootedTree"),
    ("shrubkit.tree_model", "TreeModel", "tree_model.TreeModel"),
)

CANONICAL_FORM = "graph.canonical_form"


class Tracer:
    """Span times and call counts for one pass; install once per process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.edge_tests = Counter()
        self.has_edge = 0
        self.lca_calls = 0
        self.canonical_keys = set()
        self.canonical_repeats = 0
        self.originals = {}
        self._stack = []
        self._open = Counter()

    def _span(self, fn, name, edges):
        stack = self._stack
        opened = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            opened[name] += 1
            before = self.has_edge
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                opened[name] -= 1
                self.self_s[name] += took - frame[0]
                if stack:
                    stack[-1][0] += took
                if edges and not opened[name]:
                    self.edge_tests[name] += self.has_edge - before
            if name == CANONICAL_FORM:
                key = result[0]
                if key in self.canonical_keys:
                    self.canonical_repeats += 1
                else:
                    self.canonical_keys.add(key)
            return result

        return wrapper

    def install(self):
        """Wrap every layer in place; returns self."""
        replace = {}
        for module, func, name, edges in SPANS:
            fn = getattr(importlib.import_module(module), func)
            replace[id(fn)] = (fn, self._span(fn, name, edges))
        for module, cls_name, name in CLASS_SPANS:
            cls = getattr(importlib.import_module(module), cls_name)
            cls.__init__ = self._span(cls.__init__, name, False)
        self.originals = {key: fn for key, (fn, _) in replace.items()}
        for module in shrubkit_modules():
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

        graph_cls = importlib.import_module("shrubkit.graph").Graph
        tree_cls = importlib.import_module("shrubkit.rooted_tree").RootedTree
        has_edge, lca = graph_cls.has_edge, tree_cls.lca

        def counted_has_edge(g, u, v):
            self.has_edge += 1
            return has_edge(g, u, v)

        def counted_lca(tree, u, v):
            self.lca_calls += 1
            return lca(tree, u, v)

        graph_cls.has_edge = counted_has_edge
        tree_cls.lca = counted_lca
        return self

    def unwrapped_bindings(self):
        """(module, attribute) pairs still bound to an original function."""
        return [
            (module.__name__, attr)
            for module in shrubkit_modules()
            for attr, value in vars(module).items()
            if id(value) in self.originals and self.originals[id(value)] is value
        ]

    def metrics(self):
        """Per-layer counts and self times, keyed by metric name."""
        out = {}
        for _, _, name, edges in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if edges:
                out[f"{name}.edge_tests"] = self.edge_tests[name]
        for _, _, name in CLASS_SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        calls = self.calls[CANONICAL_FORM]
        out[f"{CANONICAL_FORM}.repeat_ratio"] = self.canonical_repeats / calls if calls else 0.0
        out["rooted_tree.RootedTree.lca_calls"] = self.lca_calls
        return out


def shrubkit_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "shrubkit" or name.startswith("shrubkit."))
    ]
