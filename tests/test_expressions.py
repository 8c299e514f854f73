"""Expression grammar: parsing, precedence, errors, and print round trips."""

import random

import pytest

from arcalg import (
    AlgElement,
    Generator,
    ParseError,
    Surface,
    a_half_power,
    a_power,
    boundary_element,
    const,
    delta,
    generator_alphabet,
    parse_element,
    parse_poly,
    parse_scalar,
    v_power,
)

AB3 = generator_alphabet(Surface(0, 3))
ABG = generator_alphabet(Surface(1, 1))
A1, A2, A3 = (Generator("a", i) for i in (1, 2, 3))


def test_simple_word():
    x = parse_element("a1*a2", 3, AB3)
    assert x == AlgElement.from_word((A1, A2), 3)


def test_precedence_power_over_times():
    x = parse_element("a1^2*a2", 3, AB3)
    assert x == AlgElement.from_word((A1, A1, A2), 3)


def test_precedence_times_over_plus():
    x = parse_element("a1 + a2*a3", 3, AB3)
    assert x == AlgElement.from_generator(A1, 3) + AlgElement.from_word((A2, A3), 3)


def test_noncommutative_order_preserved():
    assert parse_element("a1*a2", 3, AB3) != parse_element("a2*a1", 3, AB3)


def test_boundary_expression():
    text = "A*g1*g2*g3 - A^2*g1^2 - A^-2*g2^2 - A^2*g3^2 + A^2 + A^-2"
    assert parse_element(text, 1, ABG) == boundary_element(Surface(1, 1))


def test_unknown_generator_for_surface():
    with pytest.raises(ParseError):
        parse_element("a4", 3, AB3)
    with pytest.raises(ParseError):
        parse_element("g1", 3, AB3)


def test_empty_input_is_error():
    with pytest.raises(ParseError):
        parse_scalar("", 0)


def test_error_carries_position():
    try:
        parse_element("a1*%", 3, AB3)
    except ParseError as exc:
        assert exc.position == 3
    else:
        pytest.fail("expected a parse error")


def test_scalar_grammar():
    assert parse_scalar("A^(1/2) + A^(-1/2)", 0) == delta(0)
    assert parse_scalar("2*A^3*v1^-2", 2) == const(2, 2) * a_power(3, 2) * v_power(1, 2, -2)
    assert parse_scalar("(A - A^-1)^2", 0) == (a_power(1, 0) - a_power(-1, 0)) ** 2


def test_sphere2_square_scalar():
    got = parse_scalar("-v1^-1*v2^-1*(A - A^-1)^2", 2)
    expected = -(v_power(1, 2, -1) * v_power(2, 2, -1)) * (
        a_power(1, 2) - a_power(-1, 2)
    ) ** 2
    assert got == expected


def test_parse_poly_convenience():
    assert parse_poly("A + 2 + A^-1", 0) == delta(0) ** 2


def test_half_power_only_on_a():
    with pytest.raises(ParseError):
        parse_scalar("v1^(1/2)", 1)
    with pytest.raises(ParseError):
        parse_element("a1^(1/2)", 3, AB3)


def test_negative_power_needs_invertible_base():
    with pytest.raises(ParseError):
        parse_element("a1^-1", 3, AB3)
    with pytest.raises(ParseError):
        parse_scalar("(A + 1)^-1", 0)
    assert parse_scalar("(A^2)^-1", 0) == a_power(-2, 0)


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_element("a1 a2", 3, AB3)


def rand_element(rng, arity, gens):
    total = AlgElement.zero(arity)
    for _ in range(rng.randint(0, 4)):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
        coeff = a_half_power(rng.randint(-3, 3), arity) * rng.randint(-3, 3) + const(
            rng.randint(-2, 2), arity
        )
        for i in range(1, arity + 1):
            if rng.random() < 0.3:
                coeff = coeff * v_power(i, arity, rng.randint(-2, 2))
        total = total + AlgElement.from_word(word, arity, coeff)
    return total


def test_print_parse_round_trip_200_random():
    rng = random.Random(60221023)
    surfaces = (Surface(0, 2), Surface(0, 3), Surface(1, 0), Surface(1, 1))
    for k in range(200):
        surface = surfaces[k % 4]
        alphabet = generator_alphabet(surface)
        x = rand_element(rng, surface.punctures, tuple(alphabet.values()))
        assert parse_element(str(x), surface.punctures, alphabet) == x


def test_parse_print_identity_on_canonical_text():
    rng = random.Random(11)
    gens3 = tuple(AB3.values())
    for _ in range(100):
        x = rand_element(rng, 3, gens3)
        text = str(x)
        assert str(parse_element(text, 3, AB3)) == text
