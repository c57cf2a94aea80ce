"""No function of the graph, tree and model layers calls itself by name.

A self-call is a call of the function's own name, bare or on `self` or
`cls`; mutual recursion is not looked for.  Every walk of those layers runs
on an explicit stack, so a graph or tree deeper than the interpreter's
recursion limit of 1,000 frames gets an answer or a ShrubError, never a
RecursionError.  Two modules are left out:

- `depth`: only `tree_depth`'s `at_most` recurses, at most once per
  vertex, so no deeper than the tree-depth cap (16 vertices by default).
- `solver`: the decider's `feasible`, the chain walk's `place` and the SC
  prefix search `_sc_prefix` call themselves by name, but as generators
  driven by `_drive` on an explicit stack, so the call stack does not grow
  with them.
"""

import ast
from pathlib import Path

import pytest

import shrubkit

MODULES = ["graph", "rooted_tree", "tree_model", "sc_model", "lincw"]


def _calls_itself(func):
    """True iff func calls its own name bare, or on `self` or `cls`."""
    for call in ast.walk(func):
        if not isinstance(call, ast.Call):
            continue
        f = call.func
        if isinstance(f, ast.Name) and f.id == func.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == func.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")):
            return True
    return False


def _self_calls(tree):
    """The qualified names of the functions in tree that call themselves by
    name, as a bare name or as a method of `self` or `cls`.  Mutual
    recursion is not detected."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if _calls_itself(child):
                    found.append(name)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_function_calls_itself(module):
    path = Path(shrubkit.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _self_calls(tree) == []


def test_the_guard_sees_a_nested_self_call():
    tree = ast.parse(
        "def outer():\n"
        "    def extend(i):\n"
        "        return extend(i + 1)\n"
        "class T:\n"
        "    def walk(self):\n"
        "        return self.walk()\n"
        "    def write(self, text):\n"
        "        return self.out.write(text)\n"
        "    @classmethod\n"
        "    def fold(cls, tree):\n"
        "        return tree.fold() + cls.fold(tree)\n"
    )
    assert _self_calls(tree) == ["outer.extend", "T.walk", "T.fold"]
