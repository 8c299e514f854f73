"""Free noncommutative algebra: words and linear combinations."""

import random

import pytest

from arcalg import AlgElement, ArityError, Generator, a_power, const, delta, v_power, zero
from arcalg.presentations import GEN_A

A1 = Generator("a", 1)
A2 = Generator("a", 2)
A3 = Generator("a", 3)


def rand_element(rng, arity, gens, max_terms=3, max_len=3):
    total = AlgElement.zero(arity)
    for _ in range(rng.randint(0, max_terms)):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len)))
        coeff = const(rng.randint(-4, 4), arity) + a_power(rng.randint(-2, 2), arity) * rng.randint(-2, 2)
        total = total + AlgElement.from_word(word, arity, coeff)
    return total


def test_identity_word():
    x = AlgElement.from_word((A1, A2), 3)
    assert AlgElement.one(3) * x == x
    assert x * AlgElement.one(3) == x


def test_free_product_is_concatenation():
    x = AlgElement.from_generator(A1, 3) * AlgElement.from_generator(A2, 3)
    assert x.support() == {(A1, A2)}
    assert x.coeff((A1, A2)).is_one


def test_scalar_bilinearity():
    lhs = (AlgElement.from_generator(A1, 3) * a_power(1, 3)) * (
        AlgElement.from_generator(A1, 3) * v_power(1, 3, -1)
    )
    assert lhs == AlgElement.from_word((A1, A1), 3, a_power(1, 3) * v_power(1, 3, -1))


def test_cancellation_to_zero():
    x = rand_element(random.Random(1), 3, (A1, A2, A3))
    assert (x + (-1) * x).is_zero
    assert (x - x).is_zero


def test_support():
    x = AlgElement.from_generator(A3, 3) * (v_power(3, 3, -1) * delta(3))
    assert x.support() == {(A3,)}
    assert AlgElement.zero(3).support() == frozenset()


def test_arity_mismatch():
    with pytest.raises(ArityError):
        AlgElement.one(2) * AlgElement.one(3)
    with pytest.raises(ArityError):
        AlgElement.one(2) + AlgElement.one(3)


def test_word_power():
    g = AlgElement.from_generator(A1, 3)
    assert g ** 3 == AlgElement.from_word((A1, A1, A1), 3)
    assert g ** 0 == AlgElement.one(3)
    with pytest.raises(ValueError):
        g ** -1


def assert_canonical(x):
    """No stored zero coefficient, and the public constructor rebuilds x."""
    assert all(c and all(k != 0 for _, k in c.terms()) for _, c in x.terms())
    y = AlgElement(x.arity, dict(x.terms()))
    assert y == x and hash(y) == hash(x)


def test_associativity_and_distributivity_random():
    rng = random.Random(20240312)
    gens = (A1, A2, A3)
    for _ in range(500):
        x = rand_element(rng, 3, gens)
        y = rand_element(rng, 3, gens)
        z = rand_element(rng, 3, gens)
        left, right = (x * y) * z, x * (y * z)
        assert left == right and hash(left) == hash(right)
        lhs, rhs = x * (y + z), x * y + x * z
        assert lhs == rhs and hash(lhs) == hash(rhs)
        assert (x + y) * z == x * z + y * z
        assert hash(x - y) == hash(-(y - x)) == hash(x + (-1) * y)
        c = const(rng.randint(-2, 2), 3) + a_power(rng.randint(-2, 2), 3)
        for e in (left, lhs, rhs, x + y, x - y, -x, x ** 2, x * c, c * x, x.scale(c)):
            assert_canonical(e)


def test_scalar_operands_and_powers():
    p = a_power(1, 2) + v_power(1, 2)
    x = AlgElement.from_generator(GEN_A, 2)
    assert (x == 1) is False
    assert str(2 * x) == "2*a"
    assert str(x * p) == "(A + v1)*a"
    assert AlgElement.from_scalar(a_power(1, 2)) ** -2 == AlgElement.from_scalar(a_power(-2, 2))
    with pytest.raises(ValueError, match="negative power of a non-invertible element"):
        x ** -1
    assert x.scale(0).is_zero and (x * 0).is_zero
    assert x * zero(2) == AlgElement.zero(2)


def test_empty_word_two_sided_identity_random():
    rng = random.Random(77)
    e = AlgElement.one(3)
    for _ in range(100):
        x = rand_element(rng, 3, (A1, A2, A3))
        assert e * x == x == x * e


def test_leading_word():
    x = AlgElement.from_word((A1,), 3) + AlgElement.from_word((A2, A1), 3)
    assert x.leading_word() == (A2, A1)
    with pytest.raises(ValueError):
        AlgElement.zero(3).leading_word()


def test_str_round_shapes():
    x = AlgElement.from_word((A1, A2), 3) - AlgElement.one(3) * delta(3)
    s = str(x)
    assert s.startswith("a1*a2")
    assert AlgElement.zero(0) is not None and str(AlgElement.zero(0)) == "0"


def test_negative_arity_rejected():
    with pytest.raises(ValueError, match="arity must be nonnegative"):
        AlgElement(-1, {})


def test_constructor_merges_words_from_a_one_shot_generator():
    A = a_power(1, 3)
    pairs = [((A1,), A), ((), const(0, 3)), ((A2,), const(2, 3)), ((A1,), const(1, 3)), ((A2,), const(-2, 3))]
    x = AlgElement(3, (pair for pair in pairs))
    # Duplicates merge ((A1,): A + 1), cancel to nothing ((A2,): 2 - 2), and zeros drop.
    assert x.terms() == [((A1,), A + 1)]
    assert AlgElement(3, iter([((A1,), A), ((A1,), -A)])).is_zero
    assert AlgElement(3, {(A1,): zero(3)}).support() == frozenset()


def test_constructor_rejects_a_coefficient_of_another_arity():
    with pytest.raises(ArityError, match="coefficient arity 2 != element arity 3"):
        AlgElement(3, iter([((A1,), const(1, 3)), ((A2,), const(1, 2))]))


def test_sums_and_products_drop_cancelled_words():
    A = a_power(1, 3)
    g1, g2 = AlgElement.from_generator(A1, 3), AlgElement.from_generator(A2, 3)
    s = (g1 * A + g2 * delta(3)) + (g1 * (1 - A) - g2 * delta(3))
    assert s.terms() == [((A1,), const(1, 3))]
    # (A + A*a1)(A^-1 - A^-1*a1) = 1 - a1*a1: the two a1 terms cancel.
    e = AlgElement.one(3)
    prod = (e * A + g1 * A) * (e * A ** -1 - g1 * A ** -1)
    assert prod.terms() == [((A1, A1), const(-1, 3)), ((), const(1, 3))]
    # The cross words -A*a1*a2 and A*a2*a1 of the product cancel in the sum.
    x = (g1 + g2 * A) * (g1 - g2 * A) + (g1 * g2 * A - g2 * g1 * A)
    assert x.terms() == [((A2, A2), -(A * A)), ((A1, A1), const(1, 3))]


def test_elements_built_in_different_orders_hash_equal():
    A = a_power(1, 3)
    g1, g2 = AlgElement.from_generator(A1, 3), AlgElement.from_generator(A2, 3)
    four = AlgElement.one(3) * 4
    terms = list((g1 * g2 * A + g2 * delta(3) - four).terms())
    built = [
        AlgElement(3, terms),
        AlgElement(3, reversed(terms)),
        g2 * delta(3) - four + A * (g1 * g2),
        (g1 + g2) * (g2 * A) - g2 * g2 * A + (g2 * delta(3) - four),
    ]
    for x in built:
        assert x == built[0] and hash(x) == hash(built[0])
