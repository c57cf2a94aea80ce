"""Formula syntax for counting monadic second-order logic on graphs.

A variable is an ASCII letter, lowercase for a first-order variable and
uppercase for a set variable, followed by ASCII letters, digits and
underscores; it is not a keyword and has no label_ or rel_ prefix.  Label
and relation names are runs of those same characters.  The node constructors
and the parser apply this one rule, so every formula formats as text that
parses back.  Connective precedence from loosest to tightest is
<->, ->, |, &, !; quantifier scope extends as far right as possible.
"""

from __future__ import annotations

import re
from dataclasses import field, replace
from math import lcm

from ..errors import ValidationError
from ..values import value_class

MAX_NESTING = 100


_KEYWORDS = frozenset(
    {"ex1", "all1", "ex2", "all2", "in", "true", "false", "edge", "mod"}
)
_WORD = re.compile(r"[A-Za-z0-9_]+")


def _variable_fault(name, want_set):
    """Why name is not a variable of the wanted sort, or None."""
    if not isinstance(name, str) or not _WORD.fullmatch(name) or name in _KEYWORDS:
        return "expected a variable name"
    if name.startswith(("label_", "rel_")):
        return "variable names may not use the label_/rel_ prefixes"
    if not name[0].isalpha():
        return "variable names must start with a letter"
    if name[0].isupper() != want_set:
        expected = "a set variable" if want_set else "a first-order variable"
        return f"expected {expected}, got {name!r}"
    return None


def _check_variable(name, want_set):
    if _variable_fault(name, want_set):
        sort = "set" if want_set else "first-order"
        raise ValidationError(f"{name!r} is not a {sort} variable")


def _check_name(value, what):
    if not isinstance(value, str) or not _WORD.fullmatch(value):
        raise ValidationError(
            f"{what} name must be a non-empty string of ASCII letters, digits "
            f"and underscores, got {value!r}"
        )


@value_class
class Formula:
    """A formula node.  Each node kind names its first-order variable fields
    in _FO, its set variable fields in _SETS and its subformula fields in
    _PARTS; a quantifier's variable binds in its body.  The height is 0 at an
    atom and one more than the highest part; a node higher than MAX_NESTING is
    refused, so a recursive walk of any formula takes at most MAX_NESTING
    nested calls."""

    height: int = field(init=False, compare=False, repr=False)

    _FO = ()
    _SETS = ()
    _PARTS = ()

    def __post_init__(self):
        for name in self._FO:
            _check_variable(getattr(self, name), False)
        for name in self._SETS:
            _check_variable(getattr(self, name), True)
        height = 0
        for name in self._PARTS:
            part = getattr(self, name)
            if not isinstance(part, Formula):
                raise ValidationError(f"{part!r} is not a formula")
            height = max(height, part.height + 1)
        if height > MAX_NESTING:
            raise ValidationError(
                f"formula nests deeper than {MAX_NESTING} levels"
            )
        object.__setattr__(self, "height", height)


@value_class
class TrueConst(Formula):
    pass


@value_class
class FalseConst(Formula):
    pass


@value_class
class Edge(Formula):
    x: str
    y: str
    _FO = ("x", "y")


@value_class
class Eq(Formula):
    x: str
    y: str
    _FO = ("x", "y")


@value_class
class InSet(Formula):
    x: str
    var: str
    _FO = ("x",)
    _SETS = ("var",)


# zero-argument super() fails in a slotted dataclass on CPython 3.11, hence
# the explicit Formula.__post_init__(self) below
@value_class
class ModCount(Formula):
    """|X| is congruent to a modulo b."""

    a: int
    b: int
    var: str
    _SETS = ("var",)

    def __post_init__(self):
        Formula.__post_init__(self)
        for value in (self.a, self.b):
            if type(value) is not int:
                raise ValidationError(f"mod bounds must be ints, got {value!r}")
        if not 0 <= self.a < self.b:
            raise ValidationError(
                f"mod({self.a}, {self.b}, {self.var}) needs 0 <= a < b"
            )


@value_class
class HasLabel(Formula):
    label: str
    x: str
    _FO = ("x",)

    def __post_init__(self):
        _check_name(self.label, "label")
        Formula.__post_init__(self)


@value_class
class RelAtom(Formula):
    rel: str
    x: str
    y: str
    _FO = ("x", "y")

    def __post_init__(self):
        _check_name(self.rel, "relation")
        Formula.__post_init__(self)


@value_class
class Not(Formula):
    body: Formula
    _PARTS = ("body",)


@value_class
class And(Formula):
    left: Formula
    right: Formula
    _PARTS = ("left", "right")


@value_class
class Or(Formula):
    left: Formula
    right: Formula
    _PARTS = ("left", "right")


@value_class
class Implies(Formula):
    left: Formula
    right: Formula
    _PARTS = ("left", "right")


@value_class
class Iff(Formula):
    left: Formula
    right: Formula
    _PARTS = ("left", "right")


@value_class
class ExistsVertex(Formula):
    var: str
    body: Formula
    _FO = ("var",)
    _PARTS = ("body",)


@value_class
class AllVertex(Formula):
    var: str
    body: Formula
    _FO = ("var",)
    _PARTS = ("body",)


@value_class
class ExistsSet(Formula):
    var: str
    body: Formula
    _SETS = ("var",)
    _PARTS = ("body",)


@value_class
class AllSet(Formula):
    var: str
    body: Formula
    _SETS = ("var",)
    _PARTS = ("body",)


_ATOM_TEXT = {
    TrueConst: lambda f: "true",
    FalseConst: lambda f: "false",
    Edge: lambda f: f"edge({f.x}, {f.y})",
    Eq: lambda f: f"{f.x} = {f.y}",
    InSet: lambda f: f"{f.x} in {f.var}",
    ModCount: lambda f: f"mod({f.a}, {f.b}, {f.var})",
    HasLabel: lambda f: f"label_{f.label}({f.x})",
    RelAtom: lambda f: f"rel_{f.rel}({f.x}, {f.y})",
}
_BINARY = {And: " & ", Or: " | ", Implies: " -> ", Iff: " <-> "}
_FO_QUANT = {ExistsVertex: "ex1", AllVertex: "all1"}
_SET_QUANT = {ExistsSet: "ex2", AllSet: "all2"}
_QUANT = {**_FO_QUANT, **_SET_QUANT}
_KINDS = {*_ATOM_TEXT, Not, *_BINARY, *_QUANT}


def _summary(formula):
    """(free variables, every variable name, quantifier count, deepest
    set-quantifier nesting, lcm of the mod atoms' moduli or 1) in one walk.
    A quantifier binds its variable in its body.  The free variables of both
    sorts share one set, as only a set variable's name starts upper-case.
    No set is changed once built, so a node may pass on its part's sets."""
    t = type(formula)
    if not formula._PARTS:
        own = {getattr(formula, name) for name in formula._FO + formula._SETS}
        return own, own, 0, 0, formula.b if t is ModCount else 1
    free, names, count, rank, mod = _summary(getattr(formula, formula._PARTS[0]))
    for name in formula._PARTS[1:]:
        p_free, p_names, p_count, p_rank, p_mod = _summary(getattr(formula, name))
        free, names = free | p_free, names | p_names
        count, rank, mod = count + p_count, max(rank, p_rank), lcm(mod, p_mod)
    if t not in _QUANT:
        return free, names, count, rank, mod
    bound = {formula.var}
    return free - bound, names | bound, count + 1, rank + (t in _SET_QUANT), mod


def free_vars(formula):
    """(first-order frees, set frees) as a pair of frozensets."""
    free = _summary(formula)[0]
    sets = frozenset(var for var in free if var[0].isupper())
    return frozenset(free) - sets, sets


def is_sentence(formula):
    return not _summary(formula)[0]


def all_var_names(formula):
    """Every variable name occurring anywhere, bound or free."""
    return _summary(formula)[1]


def quantifier_count(formula):
    return _summary(formula)[2]


def set_quantifier_rank(formula):
    """Deepest nesting of set quantifiers."""
    return _summary(formula)[3]


def mod_lcm(formula):
    """Least common multiple of the moduli appearing in mod atoms (1 if none)."""
    return _summary(formula)[4]


def _rebuild(f, walk, rename=None):
    """f with walk applied to every part and the first-order variables
    renamed by the rename dict; a node of unknown kind is refused."""
    if type(f) not in _KINDS:
        raise ValidationError(f"unknown formula node {f!r}")
    rename = rename or {}
    changes = {name: walk(getattr(f, name)) for name in f._PARTS}
    for name in f._FO:
        changes[name] = rename.get(getattr(f, name), getattr(f, name))
    return replace(f, **changes)


def fresh_name_pool(taken):
    """Yields first-order variable names avoiding `taken`."""
    i = 0
    while True:
        name = f"w{i}"
        if name not in taken:
            yield name
        i += 1


def substitute_fo(formula, mapping, taken=None):
    """Rename free first-order variables; bound variables are alpha-renamed
    away from the mapping's targets so nothing is captured."""
    taken = set(taken or ()) | all_var_names(formula) | set(mapping.values())
    pool = fresh_name_pool(taken)

    def walk(f, env):
        t = type(f)
        if t in _FO_QUANT:
            env = dict(env)
            if f.var in set(env.values()):
                new = next(pool)
                env[f.var] = new
                return t(new, walk(f.body, env))
            env.pop(f.var, None)
            return t(f.var, walk(f.body, env))
        return _rebuild(f, lambda part: walk(part, env), env)

    return walk(formula, dict(mapping))


_PREC = {
    Iff: 1,
    Implies: 2,
    Or: 3,
    And: 4,
    Not: 5,
}


def format_formula(formula):
    """Deterministic text the parser maps back to the same tree."""

    def render(f, ctx):
        t = type(f)
        if t in _ATOM_TEXT:
            return _ATOM_TEXT[t](f)
        if t is Not:
            s = "!" + render(f.body, _PREC[Not])
        elif t in _BINARY:
            p = _PREC[t]
            right_bump = 0 if t is Implies else 1
            left_bump = 1 if t is Implies else 0
            s = (
                render(f.left, p + left_bump)
                + _BINARY[t]
                + render(f.right, p + right_bump)
            )
        elif t in _QUANT:
            s = f"{_QUANT[t]} {f.var}. " + render(f.body, 0)
        else:
            raise ValidationError(f"unknown formula node {f!r}")
        p = 0 if t in _QUANT else _PREC[t]
        return f"({s})" if p < ctx else s

    return render(formula, 0)
