"""Coefficient ring: exact Laurent arithmetic in A^(1/2) and the v_i."""

import random
from fractions import Fraction

import pytest

from arcalg import (
    ArityError,
    LaurentPoly,
    Monomial,
    a_half_power,
    a_power,
    const,
    delta,
    one,
    v_power,
    zero,
)


def rand_poly(rng, arity, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = Monomial(
            rng.randint(-4, 4), tuple(rng.randint(-2, 2) for _ in range(arity))
        )
        terms[mono] = rng.randint(-5, 5)
    return LaurentPoly(arity, terms)


def test_additive_inverse():
    A = a_power(1, 0)
    assert (A + (-A)).is_zero
    assert A + (-A) == zero(0)


def test_term_merge():
    A = a_power(1, 0)
    Ainv = a_power(-1, 0)
    s = (A + Ainv) + (-(A * A) - Ainv * Ainv)
    assert s == -a_power(2, 0) + A + Ainv - a_power(-2, 0)


def test_coefficient_addition():
    v1 = v_power(1, 1)
    assert v1 + v1 == v1 * 2


def test_binomial_square():
    A = a_power(1, 0)
    assert (A - A ** -1) ** 2 == a_power(2, 0) - const(2, 0) + a_power(-2, 0)


def test_delta_square():
    d = delta(0)
    assert d * d == a_power(1, 0) + const(2, 0) + a_power(-1, 0)
    assert str(d * d) == "A + 2 + A^-1"


def test_monomial_inverse():
    v1 = v_power(1, 2)
    assert v_power(1, 2, -1) * v1 == one(2)


def test_arity_mismatch():
    with pytest.raises(ArityError):
        a_power(1, 0) + a_power(1, 1)
    with pytest.raises(ArityError):
        v_power(1, 1) * v_power(1, 2)


def test_unit_inverse():
    u = a_half_power(3, 2) * v_power(2, 2, -1)
    inv = u.try_unit_inverse()
    assert inv is not None and u * inv == one(2)
    assert (u * 2).try_unit_inverse() is None
    assert (u + one(2)).try_unit_inverse() is None


def test_specialize_powers_of_a():
    assert a_power(2, 0).specialize(2) == 16
    assert delta(0).specialize(2) == Fraction(5, 2)


def test_specialize_v_monomial():
    p = v_power(1, 2, -1) * v_power(2, 2)
    assert p.specialize(1, (3, 5)) == Fraction(5, 3)


def test_specialize_rejects_zero():
    with pytest.raises(ValueError):
        delta(0).specialize(0)
    with pytest.raises(ValueError):
        v_power(1, 1).specialize(1, (0,))


def assert_canonical(p):
    """No stored zero coefficient, and the public constructor rebuilds p."""
    assert all(c != 0 for _, c in p.terms())
    q = LaurentPoly(p.arity, p.terms())
    assert q == p and hash(q) == hash(p)


def test_ring_axioms_random():
    rng = random.Random(20240311)
    for _ in range(1000):
        p = rand_poly(rng, 2)
        q = rand_poly(rng, 2)
        r = rand_poly(rng, 2)
        lhs, rhs = p * (q + r), p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p and hash(p * q) == hash(q * p)
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert hash(p - q) == hash(p + (-q)) == hash(-(q - p))
        for x in (p * q, p + q, p - q, -p, lhs, rhs, p ** 2, 3 - p, p * 0):
            assert_canonical(x)


def test_int_operands_and_powers():
    p = a_power(1, 2) + v_power(1, 2)
    assert str(2 + p) == "A + v1 + 2"
    assert str(1 - p) == "-A - v1 + 1"
    assert str(3 * p) == "3*A + 3*v1"
    assert (p == 1) is False
    assert (const(1, 2) == 1) is True
    assert a_half_power(3, 2) ** -2 == a_power(-3, 2)
    with pytest.raises(ValueError, match="negative power of a non-unit polynomial"):
        p ** -1


def test_specialize_is_homomorphism():
    rng = random.Random(987)
    vals = (Fraction(2), (Fraction(3, 2), Fraction(-5)))
    for _ in range(300):
        p = rand_poly(rng, 2)
        q = rand_poly(rng, 2)
        assert (p * q).specialize(*vals) == p.specialize(*vals) * q.specialize(*vals)
        assert (p + q).specialize(*vals) == p.specialize(*vals) + q.specialize(*vals)


def test_canonical_print_order():
    # graded order, largest degree first
    p = -(a_power(1, 2) * v_power(1, 2, -1) * v_power(2, 2, -1)) * (
        a_power(1, 2) - a_power(-1, 2)
    )
    assert str(p) == "-A^2*v1^-1*v2^-1 + v1^-1*v2^-1"


def test_half_power_print():
    assert str(a_half_power(1, 0)) == "A^(1/2)"
    assert str(a_half_power(-3, 0)) == "A^(-3/2)"
    assert str(a_half_power(4, 0)) == "A^2"
    assert str(zero(0)) == "0"


def test_hash_and_equality():
    rng = random.Random(5)
    for _ in range(100):
        p = rand_poly(rng, 1)
        q = LaurentPoly(1, dict(p.terms()))
        assert p == q and hash(p) == hash(q)


def test_constants_hash_like_ints():
    # A constant equals its int, so sets and dicts must not tell them apart.
    assert 1 in {const(1, 0)}
    assert 0 in {zero(2)}
    assert {const(-3, 1): "x"}[-3] == "x"
    for c in (-2, -1, 0, 1, 7):
        for arity in (0, 1, 3):
            assert const(c, arity) == c and hash(const(c, arity)) == hash(c)


def test_negative_arity_rejected():
    with pytest.raises(ValueError, match="arity must be nonnegative"):
        LaurentPoly(-1)


def test_constructor_merges_terms_from_a_one_shot_generator():
    A, one0, Ahalf = Monomial(2, ()), Monomial(0, ()), Monomial(1, ())
    pairs = [(A, 2), (one0, 0), (Ahalf, 3), (A, 5), (Ahalf, -3), (one0, 4), (Ahalf, 0)]
    p = LaurentPoly(0, (pair for pair in pairs))
    # Duplicates merge (A: 2 + 5), cancel to nothing (A^(1/2): 3 - 3), and zeros drop.
    assert p.terms() == [(A, 7), (one0, 4)]
    assert LaurentPoly(0, iter([(A, 1), (A, -1)])).is_zero
    assert LaurentPoly(0, {A: 0, one0: 0}) == zero(0) and len(LaurentPoly(0, {A: 0})) == 0


def test_constructor_rejects_a_term_of_another_arity():
    with pytest.raises(ArityError, match="monomial arity 2 != ring arity 1"):
        LaurentPoly(1, iter([(Monomial(0, (1,)), 1), (Monomial(0, (1, 0)), 1)]))
    with pytest.raises(ArityError):
        LaurentPoly(0, {Monomial(0, (0,)): 0})


def test_sums_and_products_drop_cancelled_terms():
    A, v = a_power(1, 1), v_power(1, 1)
    s = (A + v + 1) + (2 - A - v)
    assert s == 3 and s.terms() == [(Monomial(0, (0,)), 3)]
    assert ((A + v) + (-A - v)).terms() == []
    # (A + 1)(A - 1): the two cross terms A and -A cancel.
    prod = (A + 1) * (A - 1)
    assert prod.terms() == [(Monomial(4, (0,)), 1), (Monomial(0, (0,)), -1)]
    # (A + A^-1)(A - A^-1) = A^2 - A^-2: both constant cross terms cancel.
    assert ((A + A ** -1) * (A - A ** -1)).terms() == [(Monomial(4, (0,)), 1), (Monomial(-4, (0,)), -1)]


def test_values_built_in_different_orders_hash_equal():
    A, v = a_power(1, 2), v_power(2, 2)
    terms = list((A * A - 3 * v + A * v ** -1 + 5).terms())
    built = [
        LaurentPoly(2, terms),
        LaurentPoly(2, reversed(terms)),
        5 + A * v ** -1 - 3 * v + A * A,
        (A * v ** -1 + A * A) + (5 - 3 * v),
        (A - v) * (A + v) + (A * v ** -1 + 5 - 3 * v + v * v),
    ]
    for p in built:
        assert p == built[0] and hash(p) == hash(built[0])
