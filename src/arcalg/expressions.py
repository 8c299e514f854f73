"""Parser for algebra-element expressions; inverse of the canonical printer.

Grammar (whitespace insignificant, ^ binds tighter than *, * tighter than +/-):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ['^' exponent]
    atom     := INT | 'A' | 'v' INT | generator | '(' expr ')'
    exponent := ['-'] INT | '(' ['-'] INT ['/' '2'] ')'

Half exponents are accepted for A only.  '*' between generator factors is
noncommutative concatenation.  The generator alphabet is supplied by the
caller (for example a, a1..a3, g1..g3 depending on the surface); with an
empty alphabet the grammar parses ring scalars.

Errors carry the byte offset of the offending token.  No product or power
may form more than ``EXPANSION_BUDGET`` letters and coefficient monomials
before like terms are collected, or coefficients of more than
``COEFFICIENT_BITS_BUDGET`` bits; a larger one is refused at its operator.
"""

from __future__ import annotations

import sys
from typing import Mapping

from . import ring
from .freealg import AlgElement, Generator
from .ring import LaurentPoly

__all__ = ["ParseError", "parse_element", "parse_scalar"]


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_SYMBOLS = "+-*^()/"

# The most letters plus coefficient monomials that one product may form,
# counted before like terms are collected: the work of the product is
# proportional to it.  (g1+g2+g3)^8, 59049, fits.
EXPANSION_BUDGET = 65_536
# The most bits a coefficient of one product may have, bounded before it is
# computed: 8 > 2 log2(10) per digit the interpreter prints (4300 unless set
# otherwise; 0 sets no budget).  So a result up to about twice that long
# (2^20000) is still computed, and then refused as too long to print.
COEFFICIENT_BITS_BUDGET = 8 * sys.get_int_max_str_digits()


def _int(text: str, position: int) -> int:
    """The value of a digit string; too many digits for ``int`` is an error."""
    try:
        return int(text)
    except ValueError:  # over the interpreter's limit on converted digits
        raise ParseError(f"integer of {len(text)} digits is too long", position) from None


def _single(z: AlgElement) -> tuple | None:
    """z's one term as (word, monomial, coefficient), or None if z has more or fewer."""
    if len(z._terms) == 1:
        ((word, p),) = z._terms.items()
        if len(p._terms) == 1:
            ((m, c),) = p._terms.items()
            return word, m, c
    return None


def _product(x: AlgElement, y: AlgElement, position: int) -> AlgElement:
    """x*y, refused if over ``EXPANSION_BUDGET`` or ``COEFFICIENT_BITS_BUDGET``; two
    single terms c1*m1*w1 and c2*m2*w2 multiply as one word concatenation and one
    monomial product, of len(w1) + len(w2) letters and one monomial."""
    terms = _single(x), _single(y)
    if None not in terms:
        (w1, m1, c1), (w2, m2, c2) = terms
        size, bits = len(w1) + len(w2) + 1, c1.bit_length() + c2.bit_length()
    else:
        nx, ny = len(x._terms), len(y._terms)
        letters = sum(map(len, x._terms)) * ny + nx * sum(map(len, y._terms))
        monomials = sum(map(len, x._terms.values())) * sum(map(len, y._terms.values()))
        size = letters + monomials
        bits = (monomials - 1).bit_length() + sum(  # bits(x) + bits(y) + bits(terms summed)
            max((c.bit_length() for p in z._terms.values() for c in p._terms.values()), default=0) for z in (x, y))
    if size > EXPANSION_BUDGET:
        raise ParseError(
            f"product of {size} letters and monomials is over EXPANSION_BUDGET = {EXPANSION_BUDGET}", position
        )
    if 0 < COEFFICIENT_BITS_BUDGET < bits:
        raise ParseError(
            f"product of {bits}-bit coefficients is over COEFFICIENT_BITS_BUDGET = {COEFFICIENT_BITS_BUDGET}", position
        )
    if None in terms:
        return x * y
    return AlgElement._make(x.arity, {w1 + w2: LaurentPoly._make(x.arity, {m1 * m2: c1 * c2})})


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, position); kinds: int, name, symbol."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("symbol", ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str, arity: int, alphabet: Mapping[str, Generator]):
        self.text = text
        self.arity = arity
        self.alphabet = alphabet
        self.tokens = _tokenize(text)
        self.pos = 0
        self.atoms: dict[str, AlgElement] = {}  # each generator's element, built once per parse

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1]!r}", tok[2])

    # -- grammar -------------------------------------------------------------

    def parse(self) -> AlgElement:
        if not self.tokens:
            raise ParseError("empty expression", 0)
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self) -> AlgElement:
        tok = self.peek()
        negate = tok is not None and tok[1] == "-"
        if negate:
            self.next()
        value = self.term()
        if negate:
            value = -value
        while (tok := self.peek()) is not None and tok[1] in "+-":
            self.next()
            rhs = self.term()
            value = value + rhs if tok[1] == "+" else value - rhs
        return value

    def term(self) -> AlgElement:
        value = self.factor()
        while (tok := self.peek()) is not None and tok[1] == "*":
            self.next()
            value = _product(value, self.factor(), tok[2])
        return value

    def factor(self) -> AlgElement:
        kind, text, pos = self.next()
        is_a = False
        if kind == "int":
            base = AlgElement.from_scalar(ring.const(_int(text, pos), self.arity))
        elif kind == "name":
            if text == "A":
                base = AlgElement.from_scalar(ring.a_power(1, self.arity))
                is_a = True
            elif text[0] == "v" and len(text) > 1:
                idx = _int(text[1:], pos)
                if not 1 <= idx <= self.arity:
                    raise ParseError(f"v{idx} does not exist in R_{self.arity}", pos)
                base = AlgElement.from_scalar(ring.v_power(idx, self.arity))
            elif text in self.alphabet:
                base = self.atoms.get(text)
                if base is None:
                    base = self.atoms[text] = AlgElement.from_generator(self.alphabet[text], self.arity)
            else:
                raise ParseError(f"unknown name {text!r}", pos)
        elif text == "(":
            base = self.expr()
            self.expect(")")
        else:
            raise ParseError(f"unexpected token {text!r}", pos)

        tok = self.peek()
        if tok is None or tok[1] != "^":
            return base
        self.next()
        whole, half = self.exponent(allow_half=is_a)
        if half:
            return AlgElement.from_scalar(ring.a_half_power(whole, self.arity))
        try:
            return base.power(whole, lambda x, y: _product(x, y, tok[2]))
        except ParseError:
            raise
        except ValueError as exc:  # a negative power of a non-unit
            raise ParseError(str(exc), tok[2]) from None

    def exponent(self, allow_half: bool) -> tuple[int, bool]:
        """Parse an exponent; returns (value, is_half_exponent)."""
        tok = self.next()
        paren = tok[1] == "("
        if paren:
            tok = self.next()
        sign = 1
        if tok[1] == "-":
            sign = -1
            tok = self.next()
        if tok[0] != "int":
            raise ParseError(f"expected integer exponent, found {tok[1]!r}", tok[2])
        k = sign * _int(tok[1], tok[2])
        if paren:
            nxt = self.next()
            if nxt[1] == "/":
                denom = self.next()
                if denom[1] != "2":
                    raise ParseError("only halves are allowed in exponents", denom[2])
                self.expect(")")
                if not allow_half:
                    raise ParseError("half exponents are allowed on A only", tok[2])
                return k, True
            if nxt[1] != ")":
                raise ParseError(f"expected ')' or '/', found {nxt[1]!r}", nxt[2])
        return (2 * k, True) if allow_half else (k, False)


def parse_element(text: str, arity: int, alphabet: Mapping[str, Generator]) -> AlgElement:
    """Parse an expression over the given generator alphabet."""
    parser = _Parser(text, arity, alphabet)
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("expression nested too deeply", tok[2] if tok else len(text)) from None


def parse_scalar(text: str, arity: int) -> LaurentPoly:
    """Parse a ring scalar (no generators allowed)."""
    element = parse_element(text, arity, {})
    return element.coeff(())
