"""Commutator expressions: a small AST over free-group generators.

Expressions are built from generators, formal inverses, commutators [u, v],
and products.  They evaluate to free-group words via [u, v] = u v u^-1 v^-1,
and each expression has a weight: the bracket depth that lower-bounds where
its value sits in the lower central series.

The concrete syntax, shared by words and expressions:

    expr    := factor (('*' | ' ') factor)*
    factor  := atom ('^' nonzero-int)?
    atom    := 'x' digits | '[' expr ',' expr ']' | '(' expr ')'

so "x1*x2^-1", "[x1, x2]" and "[[x1,x2],x2]^-1" all parse.  Words use the
same grammar minus brackets and parentheses, plus the atom '1' for the
identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Union

from .errors import ParseError, ValidationError
from .words import IDENTITY, GroupWord, commutator, generator

CommutatorExpr = Union["Gen", "Inv", "Comm", "Prod"]

# Most brackets and parentheses open at once; parsing and evaluation recurse per level.
MAX_NESTING = 200
# Most letters an expression's word may have before free reduction.  Powers
# and evaluation are refused above it, from the length predicted from
# the expression, before any letter is built.
MAX_WORD_LENGTH = 1_000_000


@dataclass(frozen=True, slots=True)
class Gen:
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValidationError(f"generator index must be >= 1, got {self.index}")


@dataclass(frozen=True, slots=True)
class Inv:
    operand: CommutatorExpr


@dataclass(frozen=True, slots=True)
class Comm:
    left: CommutatorExpr
    right: CommutatorExpr


@dataclass(frozen=True, slots=True)
class Prod:
    factors: tuple[CommutatorExpr, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValidationError("empty product; use Gen or the identity word instead")


def weight(expr: CommutatorExpr) -> int:
    """Bracket weight: 1 on generators, additive under Comm, min under Prod."""
    if isinstance(expr, Gen):
        return 1
    if isinstance(expr, Inv):
        return weight(expr.operand)
    if isinstance(expr, Comm):
        return weight(expr.left) + weight(expr.right)
    if isinstance(expr, Prod):
        return min(weight(f) for f in expr.factors)
    raise ValidationError(f"not a commutator expression: {expr!r}")


def _word_length(expr: CommutatorExpr, seen: dict) -> int:
    """Letters of the expression's word before free reduction.

    Gen 1, Inv as its operand, Comm 2(l + r), Prod the sum of its factors.
    seen memoizes by node, so a subexpression shared by several parents (a
    power's base) is measured once.
    """
    known = seen.get(id(expr))
    if known is not None:
        return known[1]
    if isinstance(expr, Gen):
        n = 1
    elif isinstance(expr, Inv):
        n = _word_length(expr.operand, seen)
    elif isinstance(expr, Comm):
        n = 2 * (_word_length(expr.left, seen) + _word_length(expr.right, seen))
    elif isinstance(expr, Prod):
        n = sum(_word_length(f, seen) for f in expr.factors)
    else:
        raise ValidationError(f"not a commutator expression: {expr!r}")
    seen[id(expr)] = (expr, n)  # the node is held so that its id is not reused
    return n


def _refuse_long(length: int, position: int | None = None) -> None:
    if length > MAX_WORD_LENGTH:
        raise ParseError(f"word exceeds the bound of {MAX_WORD_LENGTH} letters", position)


def evaluate(expr: CommutatorExpr) -> GroupWord:
    """The free-group word of an expression, freely reduced.

    Raises ParseError, building nothing, when the word would have more than
    MAX_WORD_LENGTH letters before reduction.
    """
    _refuse_long(_word_length(expr, {}))
    return _evaluate(expr)


def _evaluate(expr: CommutatorExpr) -> GroupWord:
    if isinstance(expr, Gen):
        return generator(expr.index)
    if isinstance(expr, Inv):
        return _evaluate(expr.operand).inverse()
    if isinstance(expr, Comm):
        return commutator(_evaluate(expr.left), _evaluate(expr.right))
    if isinstance(expr, Prod):
        # One reduction over all factors: folding pairwise is quadratic in
        # the factor count, and "x1^n" parses to a Prod of n factors.
        return GroupWord(tuple(chain.from_iterable(_evaluate(f).letters for f in expr.factors)))
    raise ValidationError(f"not a commutator expression: {expr!r}")


_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<gen>x(?P<genindex>\d+))
      | (?P<one>1)
      | (?P<caret>\^(?P<exp>-?\d+))
      | (?P<lbrack>\[)
      | (?P<rbrack>\])
      | (?P<comma>,)
      | (?P<star>\*)
      | (?P<lparen>\()
      | (?P<rparen>\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            yield kind, m.group(0), pos
        pos = m.end()
    yield "end", "", len(text)


def _number(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than int() converts from text
        raise ParseError(f"number of {len(digits)} digits is too long", pos) from None


class _Parser:
    def __init__(self, text: str, allow_brackets: bool):
        self.tokens = list(_tokenize(text))
        self.allow_brackets = allow_brackets
        self.i = 0
        self.depth = 0
        self.lengths: dict = {}  # _word_length's memo, shared by every power

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse_expr(self) -> CommutatorExpr | None:
        factors = []
        factor = self.parse_factor()
        if factor is not None:
            factors.append(factor)
        while True:
            kind = self.peek()[0]
            if kind == "star":
                self.take()
            elif kind not in ("gen", "one", "lbrack", "lparen"):
                break
            factor = self.parse_factor()
            if factor is not None:
                factors.append(factor)
        if not factors:
            return None
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def parse_factor(self) -> CommutatorExpr | None:
        atom = self.parse_atom()
        if self.peek()[0] == "caret":
            kind, text, pos = self.take()
            exp = _number(text[1:], pos)
            if exp == 0:
                raise ParseError("exponent must be nonzero", pos)
            if atom is None:
                return None
            n = abs(exp)
            _refuse_long(n * _word_length(atom, self.lengths), pos)
            base = atom if exp > 0 else Inv(atom)
            return base if n == 1 else Prod((base,) * n)
        return atom

    def parse_atom(self) -> CommutatorExpr | None:
        kind, text, pos = self.take()
        if kind == "gen":
            index = _number(text[1:], pos)
            if index < 1:
                raise ParseError("generator index must be >= 1", pos)
            return Gen(index)
        if kind == "one":
            if self.allow_brackets:
                raise ParseError("'1' denotes the identity word, not an expression", pos)
            return None
        if kind in ("lbrack", "lparen") and self.allow_brackets:
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"brackets and parentheses nest deeper than {MAX_NESTING}", pos)
            inner = self.require(self.parse_expr(), pos)
            if kind == "lbrack":
                self.expect("comma", "','")
                inner = Comm(inner, self.require(self.parse_expr(), pos))
                self.expect("rbrack", "']'")
            else:
                self.expect("rparen", "')'")
            self.depth -= 1
            return inner
        what = "a generator, '[', or '('" if self.allow_brackets else "a generator or '1'"
        raise ParseError(f"expected {what}, found {text or 'end of input'!r}", pos)

    @staticmethod
    def require(expr: CommutatorExpr | None, pos: int) -> CommutatorExpr:
        if expr is None:
            raise ParseError("empty expression", pos)
        return expr

    def finish(self) -> None:
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)


def parse_expression(text: str) -> CommutatorExpr:
    """Parse a commutator expression such as "[x1, x2]*x3^-1"."""
    parser = _Parser(text, allow_brackets=True)
    expr = parser.parse_expr()
    parser.finish()
    if expr is None:
        raise ParseError("empty expression", 0)
    return expr


def parse_word(text: str) -> GroupWord:
    """Parse a plain word such as "x1*x2^-1" or "1"."""
    parser = _Parser(text, allow_brackets=False)
    expr = parser.parse_expr()
    parser.finish()
    return IDENTITY if expr is None else evaluate(expr)
