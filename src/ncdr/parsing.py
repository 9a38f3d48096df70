"""Text syntax for elements and noncommutative polynomial expressions.

Element literals follow a+bi+cj+dk with exact rational parts, e.g.
"1/2+0i+3j-1/4k" or "1-i".  Polynomial expressions combine rationals, the
units i j k, the variables x and h, parentheses, * for the (noncommutative,
order-preserving) product and ^ for repeated powers:

    (1+i)*x*j*x + x^2 - 3
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgebraSpec, Element
from .errors import ParseError
from .ncpoly import NCPoly, WordPoly, ncpoly_from_words

_NUMBER = r"\d+/\d+|\d+\.\d+|\d+"
_TERM_RE = re.compile(rf"([+-]?)({_NUMBER})?([ijk])?")
_UNIT_INDEX = {"i": 1, "j": 2, "k": 3}
#: Largest exponent the polynomial syntax accepts after ^.
MAX_EXPONENT = 32


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}") from exc


def parse_element(alg: AlgebraSpec, text: str) -> Element:
    """Parse an element literal like 1/2+0i+3j-1/4k."""
    s = re.sub(r"\s*([+-])\s*", r"\1", text.strip())
    if not s:
        raise ParseError("empty element literal")
    if any(ch.isspace() for ch in s):
        raise ParseError(f"unexpected whitespace in {text!r}")
    coords = [Fraction(0)] * alg.dim
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        sign, number, unit = m.groups()
        if number is None and unit is None:
            raise ParseError(f"cannot read element term at {s[pos:]!r}")
        if not first and not sign:
            raise ParseError(f"missing sign before {s[pos:]!r}")
        value = parse_rational(number) if number is not None else Fraction(1)
        if sign == "-":
            value = -value
        index = _UNIT_INDEX[unit] if unit else 0
        if index >= alg.dim:
            raise ParseError(f"unit {unit!r} not available in {alg.name}")
        coords[index] += value
        pos = m.end()
        first = False
    return alg.element(coords)


_TOKEN_RE = re.compile(rf"\s*(?:({_NUMBER})|([A-Za-z])|([()+\-*^]))")


class _Tokens:
    def __init__(self, text: str):
        self.items: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise ParseError(f"unexpected input at {rest!r}")
            number, name, op = m.groups()
            if number is not None:
                self.items.append(("num", number))
            elif name is not None:
                self.items.append(("name", name))
            else:
                self.items.append(("op", op))
            pos = m.end()
        self.index = 0

    def peek(self) -> tuple[str, str] | None:
        return self.items[self.index] if self.index < len(self.items) else None

    def pop(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.index += 1
        return tok


class _PolyParser:
    def __init__(self, alg: AlgebraSpec, text: str, variables: frozenset[str]):
        self.alg = alg
        self.tokens = _Tokens(text)
        self.variables = variables

    def parse(self) -> WordPoly:
        value = self.expr()
        if self.tokens.peek() is not None:
            raise ParseError(f"trailing input {self.tokens.peek()[1]!r}")
        return value

    def expr(self) -> WordPoly:
        value = self.term()
        while True:
            tok = self.tokens.peek()
            if tok and tok == ("op", "+"):
                self.tokens.pop()
                value = value + self.term()
            elif tok and tok == ("op", "-"):
                self.tokens.pop()
                value = value - self.term()
            else:
                return value

    def term(self) -> WordPoly:
        value = self.factor()
        while self.tokens.peek() == ("op", "*"):
            self.tokens.pop()
            value = value * self.factor()
        return value

    def factor(self) -> WordPoly:
        if self.tokens.peek() == ("op", "-"):
            self.tokens.pop()
            return -self.factor()
        value = self.atom()
        if self.tokens.peek() == ("op", "^"):
            self.tokens.pop()
            kind, text = self.tokens.pop()
            if kind != "num" or not text.isdigit():
                raise ParseError("exponent must be a nonnegative integer")
            if int(text) > MAX_EXPONENT:
                raise ParseError(f"exponent {text} exceeds the limit {MAX_EXPONENT}")
            return value ** int(text)
        return value

    def atom(self) -> WordPoly:
        kind, text = self.tokens.pop()
        if kind == "num":
            return WordPoly.constant(self.alg.scalar(parse_rational(text)))
        if kind == "name":
            if text in self.variables:
                return WordPoly.variable(self.alg, text)
            if text in _UNIT_INDEX and _UNIT_INDEX[text] < self.alg.dim:
                return WordPoly.constant(self.alg.basis(_UNIT_INDEX[text]))
            raise ParseError(f"unknown symbol {text!r}")
        if (kind, text) == ("op", "("):
            value = self.expr()
            if self.tokens.pop() != ("op", ")"):
                raise ParseError("missing closing parenthesis")
            return value
        raise ParseError(f"unexpected token {text!r}")


def parse_word_poly(
    alg: AlgebraSpec, text: str, variables: frozenset[str] = frozenset({"x", "h"})
) -> WordPoly:
    """Parse an expression; ParseError also where it nests too deeply to parse."""
    try:
        return _PolyParser(alg, text, variables).parse()
    except RecursionError:
        raise ParseError("expression is nested too deeply") from None


def parse_ncpoly(alg: AlgebraSpec, text: str) -> NCPoly:
    """Parse a one-variable polynomial in x."""
    return ncpoly_from_words(parse_word_poly(alg, text, frozenset({"x"})), "x")
