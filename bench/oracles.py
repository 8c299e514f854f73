"""Independent checks of benchmark outputs.

Each oracle computes the value of an element by mathematics that shares no
code with the rewrite layer, so a wrong normal form or a wrong diagram
evaluation shows up as a mismatch:

* F1,0: the Frohman-Gelca product-to-sum formula (Trans. AMS 352, 2000).
  The elements (p,q)_T, taken up to sign of (p,q), form a basis of the
  skein algebra of the closed torus, so equal values mean equal elements.
* F0,3: the certified rank-4 left-regular representation ``rho``; the
  image of a product of generators is the product of their matrices.
* F0,2: the normal form of the generator word.

F1,1 has no oracle in the repository; its outputs are checked by a
print/parse round trip only.
"""

from __future__ import annotations

from arcalg import ring
from arcalg.freealg import AlgElement, Generator, Word
from arcalg.presentations import (
    Surface,
    mat_mul,
    nf,
    rho,
    rho_element,
)

# g1 = (1,0)_T, g2 = (0,1)_T, g3 = (1,1)_T
_TORUS_CURVES = {Generator("g", 1): (1, 0), Generator("g", 2): (0, 1), Generator("g", 3): (1, 1)}
_IDENTITY = (0, 0)  # the key of 1; note (0,0)_T itself equals 2


def _canon(p: int, q: int) -> tuple[int, int]:
    """(p,q)_T == (-p,-q)_T: pick the representative that sorts above (0,0)."""
    return (p, q) if (p, q) >= (0, 0) else (-p, -q)


def _curve_product(x: tuple[int, int], y: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
    """(p,q)_T * (r,s)_T as [(power of A, curve)], one entry per unit coefficient."""
    if x == _IDENTITY:
        return [(0, y)]
    if y == _IDENTITY:
        return [(0, x)]
    (p, q), (r, s) = x, y
    d = p * s - q * r
    out = []
    for power, curve in ((d, _canon(p + r, q + s)), (-d, _canon(p - r, q - s))):
        # (0,0)_T = 2, i.e. twice the identity
        out.extend([(power, curve)] * (2 if curve == _IDENTITY else 1))
    return out


def torus_value(x: AlgElement) -> dict[tuple[int, int], ring.LaurentPoly]:
    """Coordinates of an F1,0 element in the (p,q)_T basis, zeros dropped."""
    if x.arity != 0:
        raise ValueError("the Frohman-Gelca oracle is defined on F1,0 (arity 0)")
    total: dict[tuple[int, int], ring.LaurentPoly] = {}
    for word, coeff in x.terms():
        value = {_IDENTITY: coeff}
        for g in word:
            nxt: dict[tuple[int, int], ring.LaurentPoly] = {}
            for curve, c in value.items():
                for power, out in _curve_product(curve, _TORUS_CURVES[g]):
                    nxt[out] = nxt.get(out, ring.zero(0)) + c * ring.a_power(power, 0)
            value = nxt
        for curve, c in value.items():
            total[curve] = total.get(curve, ring.zero(0)) + c
    return {curve: c for curve, c in total.items() if c}


def rho_word(word: Word):
    """rho(g1) ... rho(gk): the image of a generator word, without rewriting."""
    m = rho(None)
    for g in word:
        m = mat_mul(m, rho(g))
    return m


def check_torus_closed(word: Word, result: AlgElement) -> bool:
    """F1,0: ``result`` has the Frohman-Gelca value of ``word``."""
    return torus_value(result) == torus_value(AlgElement.from_word(word, 0))


def check_sphere3(word: Word, result: AlgElement) -> bool:
    """F0,3: ``rho(result)`` equals the product of the generators' matrices."""
    return rho_element(result) == rho_word(word)


def check_sphere2(word: Word, result: AlgElement) -> bool:
    """F0,2: ``result`` equals the normal form of the word."""
    return result == nf(Surface(0, 2), AlgElement.from_word(word, 2))

