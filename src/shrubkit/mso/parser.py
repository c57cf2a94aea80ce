"""Recursive-descent parser for the formula surface syntax.

Grammar, loosest first; the binary levels are parsed by precedence climbing
over formulas._PREC, the table format_formula brackets by:

    formula  ::= implied ( "<->" implied )*
    implied  ::= clause ( "->" implied )?
    clause   ::= term ( "|" term )*
    term     ::= factor ( "&" factor )*
    factor   ::= "!" factor | quantifier | "(" formula ")" | atom
    quantifier ::= ("ex1" | "all1" | "ex2" | "all2") VAR "." formula
    atom     ::= "true" | "false"
               | "edge" "(" fo "," fo ")" | "mod" "(" NUM "," NUM "," SET ")"
               | "label_"NAME "(" fo ")" | "rel_"NAME "(" fo "," fo ")"
               | fo "=" fo | fo "in" SET

A formula tree may be at most MAX_NESTING levels high, a bound the node
constructors enforce, and the parser goes at most MAX_NESTING parentheses,
"!"s, quantifiers and "->"s deep.  Deeper input is refused with a
FormulaParseError at the token that crosses the bound, so neither the parser
nor any recursive walk of the tree, such as the evaluator's closures, runs out
of stack.
"""

from __future__ import annotations

import re
from functools import partial

from ..errors import FormulaParseError, ValidationError
from .formulas import (
    _BINARY,
    _KEYWORDS,
    _PREC,
    _QUANT,
    _variable_fault,
    MAX_NESTING,
    Edge,
    Eq,
    FalseConst,
    HasLabel,
    Implies,
    InSet,
    ModCount,
    Not,
    RelAtom,
    TrueConst,
)

_TOKEN = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>\d+)"
    r"|(?P<iff><->)|(?P<implies>->)|(?P<sym>[().,=!&|]))"
)

_QUANTIFIERS = {word: kind for kind, word in _QUANT.items()}

# binary operator tokens, "&", "|", "->" and "<->", to their node kinds
_OPERATORS = {text.strip(): kind for kind, text in _BINARY.items()}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaParseError(
                f"unexpected character {stripped[0]!r}", at
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise FormulaParseError(message, tok[2])

    def eat_sym(self, sym):
        kind, value, _ = self.peek()
        if kind == "sym" and value == sym:
            self.take()
            return True
        return False

    def expect_sym(self, sym):
        if not self.eat_sym(sym):
            self.fail(f"expected {sym!r}")

    def variable(self, want_set):
        kind, value, _ = self.peek()
        if kind != "ident":
            self.fail("expected a variable name")
        fault = _variable_fault(value, want_set)
        if fault:
            self.fail(fault)
        self.take()
        return value

    def nested(self, parse, tok):
        """parse() one level further in; refused past MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"formula nests deeper than {MAX_NESTING} levels", tok)
        out = parse()
        self.depth -= 1
        return out

    def node(self, tok, build, *parts):
        """build(*parts); a node higher than MAX_NESTING is refused at tok."""
        try:
            return build(*parts)
        except ValidationError as exc:
            raise FormulaParseError(str(exc), tok[2]) from None

    def number(self):
        kind, value, _ = self.peek()
        if kind != "num":
            self.fail("expected a number")
        self.take()
        return int(value)

    def formula(self, loosest=1):
        """A factor and every binary operator after it that binds at least
        as tightly as `loosest`, by precedence climbing over _PREC."""
        out = self.factor()
        while (kind := _OPERATORS.get(self.peek()[1])) and _PREC[kind] >= loosest:
            tok = self.take()
            if kind is Implies:
                right = self.nested(partial(self.formula, _PREC[Implies]), tok)
            else:
                right = self.formula(_PREC[kind] + 1)
            out = self.node(tok, kind, out, right)
        return out

    def factor(self):
        tok = self.peek()
        if self.eat_sym("!"):
            return self.node(tok, Not, self.nested(self.factor, tok))
        kind, value, _ = tok
        if kind == "ident" and value in _QUANTIFIERS:
            self.take()
            quantifier = _QUANTIFIERS[value]
            var = self.variable(want_set=bool(quantifier._SETS))
            self.expect_sym(".")
            body = self.nested(self.formula, tok)
            return self.node(tok, partial(quantifier, var), body)
        if self.eat_sym("("):
            out = self.nested(self.formula, tok)
            self.expect_sym(")")
            return out
        return self.atom()

    def arguments(self, *parse):
        """The values after an atom's name: "(" parse[0]() "," ... ")"."""
        self.expect_sym("(")
        out = [parse[0]()]
        for parse_next in parse[1:]:
            self.expect_sym(",")
            out.append(parse_next())
        self.expect_sym(")")
        return out

    def atom(self):
        kind, value, tok_pos = self.peek()
        if kind != "ident":
            self.fail("expected a formula")
        fo, sets = partial(self.variable, False), partial(self.variable, True)
        if value == "true":
            self.take()
            return TrueConst()
        if value == "false":
            self.take()
            return FalseConst()
        if value == "edge":
            self.take()
            return Edge(*self.arguments(fo, fo))
        if value == "mod":
            self.take()
            a, b, var = self.arguments(self.number, self.number, sets)
            if not a < b:
                self.fail(f"mod needs 0 <= a < b, got a={a}, b={b}",
                          ("", "", tok_pos))
            return ModCount(a, b, var)
        if value.startswith("label_"):
            name = value[len("label_"):]
            if not name:
                self.fail("label_ needs a label name")
            self.take()
            return HasLabel(name, *self.arguments(fo))
        if value.startswith("rel_"):
            name = value[len("rel_"):]
            if not name:
                self.fail("rel_ needs a relation name")
            self.take()
            return RelAtom(name, *self.arguments(fo, fo))
        if value in _KEYWORDS:
            self.fail(f"unexpected keyword {value!r}")
        if value[0].isupper():
            self.fail("a set variable cannot stand alone")
        x = fo()
        if self.eat_sym("="):
            return Eq(x, fo())
        nk, nv, _ = self.peek()
        if nk == "ident" and nv == "in":
            self.take()
            return InSet(x, sets())
        self.fail("expected '=' or 'in' after a first-order variable")

    def done(self):
        if self.peek()[0] != "end":
            self.fail("unparsed trailing input")


def parse_formula(text):
    """Parse text into a Formula; errors carry the offending position."""
    parser = _Parser(text)
    out = parser.formula()
    parser.done()
    return out
