"""The free noncommutative R_n-algebra on a named generator set.

Words are flat tuples of generators (the empty tuple is the identity 1);
elements are finite R_n-linear combinations of words.  No relations are
imposed here; rewriting modulo relations lives in ``rewrite``.

All values are immutable and hashable.  ``AlgElement`` shares the sparse-term
arithmetic of ``ring.LaurentPoly``; it adds word concatenation and scaling.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .ring import ArityError, LaurentPoly, _format, _SparseTerms, const, zero

__all__ = [
    "Generator",
    "Word",
    "EMPTY_WORD",
    "word_str",
    "word_key",
    "AlgElement",
]


class Generator(NamedTuple):
    """A named generator; ordered by (name, index)."""

    name: str
    index: int = 0

    def __str__(self) -> str:
        return f"{self.name}{self.index}" if self.index else self.name


Word = tuple[Generator, ...]
EMPTY_WORD: Word = ()


def word_str(w: Word) -> str:
    return "1" if not w else "*".join(str(g) for g in w)


def word_key(w: Word) -> tuple:
    """Length-then-lexicographic term order key."""
    return (len(w), w)


class AlgElement(_SparseTerms):
    """A finite R_n-linear combination of words, in canonical sparse form."""

    __slots__ = ()

    _key_mul = staticmethod(operator.add)
    _key_order = staticmethod(word_key)

    @staticmethod
    def _check_term(arity: int, word: Word, coeff: LaurentPoly) -> None:
        if coeff.arity != arity:
            raise ArityError(f"coefficient arity {coeff.arity} != element arity {arity}")

    def _identity(self) -> "AlgElement":
        return AlgElement.one(self.arity)

    def _unit_inverse(self) -> "AlgElement":
        if len(self._terms) == 1 and EMPTY_WORD in self._terms:
            inv = self._terms[EMPTY_WORD].try_unit_inverse()
            if inv is not None:
                return AlgElement.from_scalar(inv)
        raise ValueError("negative power of a non-invertible element")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "AlgElement":
        return cls(arity, {})

    @classmethod
    def one(cls, arity: int) -> "AlgElement":
        return cls(arity, {EMPTY_WORD: const(1, arity)})

    @classmethod
    def from_scalar(cls, coeff: LaurentPoly) -> "AlgElement":
        return cls(coeff.arity, {EMPTY_WORD: coeff})

    @classmethod
    def from_word(cls, word: Word, arity: int, coeff: LaurentPoly | int = 1) -> "AlgElement":
        c = const(coeff, arity) if isinstance(coeff, int) else coeff
        return cls(arity, {word: c})

    @classmethod
    def from_generator(cls, gen: Generator, arity: int) -> "AlgElement":
        return cls.from_word((gen,), arity)

    # -- inspection ---------------------------------------------------------

    def support(self) -> frozenset[Word]:
        return frozenset(self._terms)

    def coeff(self, word: Word) -> LaurentPoly:
        return self._terms.get(word, zero(self.arity))

    def leading_word(self) -> Word:
        if not self._terms:
            raise ValueError("zero element has no leading word")
        return max(self._terms, key=word_key)

    # -- scalars ------------------------------------------------------------

    def scale(self, coeff: LaurentPoly | int) -> "AlgElement":
        c = const(coeff, self.arity) if isinstance(coeff, int) else coeff
        if c.arity != self.arity:
            raise ArityError(f"arity mismatch: {self.arity} != {c.arity}")
        if not c:
            return AlgElement.zero(self.arity)
        return AlgElement._make(self.arity, {w: k * c for w, k in self._terms.items()})

    def __mul__(self, other) -> "AlgElement":
        if isinstance(other, (LaurentPoly, int)):
            return self.scale(other)
        return super().__mul__(other)

    __rmul__ = __mul__

    def __str__(self) -> str:
        terms, names = self._terms, {}  # each generator's text, once per call
        return _format(
            ("*".join([names.get(g) or names.setdefault(g, str(g)) for g in w]), terms[w]._terms)
            for w in sorted(terms, key=word_key, reverse=True)
        )

    def __repr__(self) -> str:
        return f"<elem R{self.arity}: {self}>"
