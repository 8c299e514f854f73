"""Exact arithmetic in the coefficient rings R_n = Z[A^(1/2), A^(-1/2), v1^(+-1), ..., vn^(+-1)].

R_n is the ring of Laurent polynomials in the commuting variables A^(1/2)
and v1, ..., vn with integer coefficients.  The exponent of A is stored in
half-integer units (an integer count of A^(1/2) factors), so A itself has
half_a = 2 and the scalar delta = A^(1/2) + A^(-1/2) is exact.  Integer
coefficients are Python ints, hence arbitrary precision.

Values are immutable after construction and safe to share across threads.
Canonical form: no zero coefficients are stored, and two polynomials are
equal iff their term maps are identical.  Printing orders monomials by
graded lexicographic key (total degree, half_a, vexp), largest first;
one printer, ``_format``, writes both polynomials and algebra elements.
The canonical sparse-term arithmetic lives in the private base class
``_SparseTerms``, which ``freealg.AlgElement`` shares: its constructor, sums
and products all merge terms through one function, ``_accumulate``.  Hashes
are computed on demand, not cached.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "ArityError",
    "Monomial",
    "LaurentPoly",
    "zero",
    "one",
    "const",
    "a_power",
    "a_half_power",
    "v_power",
    "delta",
    "loop_scalar",
    "puncture_loop_scalar",
]


class ArityError(ValueError):
    """Operands live over coefficient rings with different puncture counts."""


class Monomial(NamedTuple):
    """Unit monomial A^(half_a/2) * v1^vexp[0] * ... * vn^vexp[n-1]."""

    half_a: int
    vexp: tuple[int, ...]

    def degree(self) -> int:
        return self.half_a + sum(self.vexp)

    def inverse(self) -> "Monomial":
        return Monomial(-self.half_a, tuple(-e for e in self.vexp))

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        # tuple.__new__ skips the NamedTuple constructor; this is the ring's hot loop.
        (h1, v1), (h2, v2) = self, other
        return tuple.__new__(Monomial, (h1 + h2, tuple(map(operator.add, v1, v2))))


def _mono_key(m: Monomial) -> tuple:
    return (m.degree(), m.half_a, m.vexp)


def _mono_text(m: Monomial) -> str:
    """A monomial's factors, e.g. ``A^(1/2)*v1^-1``; the unit monomial is ``""``."""
    h, vexp = m
    parts = [f"A^({h}/2)" if h % 2 else "A" if h == 2 else f"A^{h // 2}"] if h else []
    for i, e in enumerate(vexp, start=1):
        if e:
            parts.append(f"v{i}" if e == 1 else f"v{i}^{e}")
    return "*".join(parts)


def _joined(parts: list[str]) -> str:
    """Terms each written `` + body`` or `` - body`` as one sum; no terms is ``0``."""
    text = "".join(parts)
    return "-" + text[3:] if text[1:2] == "-" else text[3:] or "0"


def _format(rows: Iterable[tuple[str | None, dict]]) -> str:
    """The text of a sum of (word text, LaurentPoly term map) rows, given in print order.

    A row whose word is None is a LaurentPoly, printed as the sum of its terms.
    Otherwise a coefficient of one term prints as one signed term whose last
    factor is the word, and one of several terms as ``(sum)*word``, or
    ``(sum)`` for the empty word ``""``.  Each distinct monomial's sort key
    and text are worked out once per call, and shared by all the rows.
    """
    memo: dict = {}

    def terms(tmap: dict, word: str | None) -> list[str]:
        keyed = []
        for m, c in tmap.items():
            entry = memo.get(m)
            if entry is None:
                entry = memo[m] = (_mono_key(m), _mono_text(m))
            keyed.append((entry, c))
        keyed.sort(reverse=True)
        out = []
        for (_, t), c in keyed:
            if word:
                t = f"{t}*{word}" if t else word
            sign = " + "
            if c < 0:
                sign, c = " - ", -c
            out.append(sign + t if c == 1 and t else f"{sign}{c}*{t}" if t else f"{sign}{c}")
        return out

    out = []
    for word, tmap in rows:
        if word is None or len(tmap) == 1:
            out += terms(tmap, word)
        else:
            out.append(f" + ({_joined(terms(tmap, None))})" + (f"*{word}" if word else ""))
    return _joined(out)


def _accumulate(acc: dict, items: Iterable[tuple]) -> dict:
    """Add each (key, nonzero coefficient) pair into ``acc``; a key that cancels is deleted."""
    for key, c in items:
        prev = acc.get(key)
        s = c if prev is None else prev + c
        if s:
            acc[key] = s
        else:
            del acc[key]
    return acc


class _SparseTerms:
    """A finite map from keys to nonzero coefficients, in canonical form.

    The shared core of ``LaurentPoly`` (monomial -> int) and
    ``freealg.AlgElement`` (word -> LaurentPoly).  A subclass supplies the
    key product ``_key_mul``, the term order ``_key_order``, the per-term
    check ``_check_term`` of the public constructor, the identity, and the
    unit inverse that negative powers need; each prints through ``_format``.
    Arithmetic results come from ``_accumulate``, which keeps a term map
    canonical, so they are wrapped by ``_make`` without the public
    constructor's checks.
    """

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping | Iterable[tuple] = ()):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        for key, coeff in items:
            self._check_term(arity, key, coeff)
        self._fill(arity, _accumulate({}, ((key, coeff) for key, coeff in items if coeff)))

    def _fill(self, arity: int, tmap: dict) -> None:
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "_terms", tmap)

    @classmethod
    def _make(cls, arity: int, tmap: dict):
        """Wrap a term map that already has no zero coefficients."""
        self = object.__new__(cls)
        self._fill(arity, tmap)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    def terms(self) -> list[tuple]:
        """Terms in the class's term order, largest first."""
        order = self._key_order
        return sorted(self._terms.items(), key=lambda kv: order(kv[0]), reverse=True)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ---------------------------------------------------------

    def _operand(self, other):
        """``other`` as a value of this class, or None if it is not one."""
        return other if isinstance(other, type(self)) else None

    def _coerce(self, other):
        o = self._operand(other)
        if o is not None and o.arity != self.arity:
            raise ArityError(f"arity mismatch: {self.arity} != {o.arity}")
        return o

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._make(self.arity, _accumulate(dict(self._terms), o._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.arity, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        key_mul, other_terms = self._key_mul, o._terms.items()
        # R_n has no zero divisors, so no product of two nonzero coefficients is zero.
        products = ((key_mul(k1, k2), c1 * c2) for k1, c1 in self._terms.items() for k2, c2 in other_terms)
        return self._make(self.arity, _accumulate({}, products))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return self.power(k) if isinstance(k, int) else NotImplemented

    def power(self, k: int, mul=operator.mul):
        """``self**k`` by squaring, each product formed by ``mul(x, y)``: at most
        popcount(|k|) + bit_length(|k|) - 1 products, none above the k-th power."""
        base = self if k >= 0 else self._unit_inverse()
        k = abs(k)
        result = self._identity()
        while True:
            if k & 1:
                result = mul(result, base)
            k >>= 1
            if not k:
                return result
            base = mul(base, base)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._operand(other)
        if o is None:
            return NotImplemented
        return self.arity == o.arity and self._terms == o._terms

    def __hash__(self) -> int:
        return hash((self.arity, frozenset(self._terms.items())))


class LaurentPoly(_SparseTerms):
    """A sparse element of R_n: a finite map from monomials to nonzero ints."""

    __slots__ = ()

    _key_mul = staticmethod(operator.mul)
    _key_order = staticmethod(_mono_key)

    @staticmethod
    def _check_term(arity: int, mono: Monomial, coeff: int) -> None:
        if len(mono.vexp) != arity:
            raise ArityError(f"monomial arity {len(mono.vexp)} != ring arity {arity}")

    def __hash__(self) -> int:
        # A constant equals the int it holds, so it must hash like it.
        if self._terms.keys() <= {Monomial(0, (0,) * self.arity)}:
            return hash(sum(self._terms.values()))
        return super().__hash__()

    def _operand(self, other) -> "LaurentPoly | None":
        if isinstance(other, int):
            return const(other, self.arity)
        return super()._operand(other)

    def _identity(self) -> "LaurentPoly":
        return one(self.arity)

    def _unit_inverse(self) -> "LaurentPoly":
        inv = self.try_unit_inverse()
        if inv is None:
            raise ValueError("negative power of a non-unit polynomial")
        return inv

    # -- inspection ---------------------------------------------------------

    def coeff(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    @property
    def is_one(self) -> bool:
        return self._terms == {Monomial(0, (0,) * self.arity): 1}

    def __len__(self) -> int:
        return len(self._terms)

    def try_unit_inverse(self) -> "LaurentPoly | None":
        """Inverse if this is a unit of R_n (a single term with coefficient +-1)."""
        if len(self._terms) != 1:
            return None
        (mono, c), = self._terms.items()
        if c not in (1, -1):
            return None
        return LaurentPoly._make(self.arity, {mono.inverse(): c})

    # -- evaluation ---------------------------------------------------------

    def specialize(self, a_half, vs: Iterable = ()) -> Fraction:
        """Exact rational value with A^(1/2) -> a_half and v_i -> vs[i-1].

        Every substituted value must be nonzero; the variables are units.
        """
        ah = Fraction(a_half)
        vals = [Fraction(x) for x in vs]
        if len(vals) != self.arity:
            raise ArityError(f"expected {self.arity} v-values, got {len(vals)}")
        if ah == 0 or any(x == 0 for x in vals):
            raise ValueError("specialization values must be nonzero")
        total = Fraction(0)
        for mono, c in self._terms.items():
            term = Fraction(c) * ah ** mono.half_a
            for val, e in zip(vals, mono.vexp):
                term *= val ** e
            total += term
        return total

    def __str__(self) -> str:
        return _format([(None, self._terms)])

    def __repr__(self) -> str:
        return f"<R{self.arity}: {self}>"


# -- constructors -----------------------------------------------------------


def zero(arity: int) -> LaurentPoly:
    return LaurentPoly(arity, {})


def one(arity: int) -> LaurentPoly:
    return const(1, arity)


def const(c: int, arity: int) -> LaurentPoly:
    return LaurentPoly(arity, {Monomial(0, (0,) * arity): c})


def a_half_power(h: int, arity: int) -> LaurentPoly:
    """A^(h/2), with h counted in units of A^(1/2)."""
    return LaurentPoly(arity, {Monomial(h, (0,) * arity): 1})


def a_power(k: int, arity: int) -> LaurentPoly:
    """A^k for a whole exponent k."""
    return a_half_power(2 * k, arity)


def v_power(i: int, arity: int, e: int = 1) -> LaurentPoly:
    """v_i^e for the i-th puncture variable, 1-indexed."""
    if not 1 <= i <= arity:
        raise ValueError(f"v{i} does not exist in R_{arity}")
    vexp = tuple(e if j == i else 0 for j in range(1, arity + 1))
    return LaurentPoly(arity, {Monomial(0, vexp): 1})


def delta(arity: int) -> LaurentPoly:
    """The scalar A^(1/2) + A^(-1/2)."""
    return a_half_power(1, arity) + a_half_power(-1, arity)


def loop_scalar(arity: int) -> LaurentPoly:
    """Value of a null-homotopic loop enclosing no puncture: -A^2 - A^-2."""
    return -(a_power(2, arity)) - a_power(-2, arity)


def puncture_loop_scalar(arity: int) -> LaurentPoly:
    """Value of a loop enclosing exactly one puncture: A + A^-1."""
    return a_power(1, arity) + a_power(-1, arity)
