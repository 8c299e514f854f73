"""Expression grammar: parsing, precedence, errors, and print round trips."""

import random
import sys

import pytest

from arcalg import expressions
from arcalg import (
    AlgElement,
    Generator,
    LaurentPoly,
    ParseError,
    Surface,
    a_half_power,
    a_power,
    boundary_element,
    const,
    delta,
    generator_alphabet,
    parse_element,
    parse_scalar,
    v_power,
)
from bruteforce import reference_str

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


def test_parse_poly_convenience():
    assert parse_scalar("A + 2 + A^-1", 0) == delta(0) ** 2


def test_sphere2_square_scalar():
    got = parse_scalar("-v1^-1*v2^-1*(A - A^-1)^2", 2)
    expected = -(v_power(1, 2, -1) * v_power(2, 2, -1)) * (
        a_power(1, 2) - a_power(-1, 2)
    ) ** 2
    assert got == expected


def test_power_squares_only_while_bits_remain(monkeypatch):
    # x**k takes at most popcount(k) + bit_length(k) - 1 products and forms
    # no power above x**k: (g1+g2+g3)^8 once also formed the 16th power.
    degrees = []
    mul = LaurentPoly.__mul__

    def recording(self, other):
        product = mul(self, other)
        degrees.append(max(m.half_a for m in product._terms))
        return product

    monkeypatch.setattr(LaurentPoly, "__mul__", recording)
    for k in range(1, 70):
        degrees.clear()
        assert a_half_power(1, 0) ** k == a_half_power(k, 0)
        assert len(degrees) <= bin(k).count("1") + k.bit_length() - 1
        assert max(degrees) == k
    monkeypatch.undo()
    typed = "*".join(["(g1+g2+g3)"] * 8)
    assert parse_element("(g1+g2+g3)^8", 1, ABG) == parse_element(typed, 1, ABG)


def test_expansion_budget_refuses_at_the_operator(monkeypatch):
    # a1^k forms k letters and one monomial in its last product.
    monkeypatch.setattr(expressions, "EXPANSION_BUDGET", 10)
    assert parse_element("a1^9", 3, AB3) == AlgElement.from_word((A1,) * 9, 3)
    assert parse_scalar("(A+1)^5", 0) == (a_power(1, 0) + 1) ** 5
    for text, offset in (("a1^10", 2), ("a1^9*a1", 4), ("(A+1)^6", 5)):
        with pytest.raises(ParseError, match="over EXPANSION_BUDGET = 10 ") as exc:
            parse_element(text, 3, AB3)
        assert exc.value.position == offset
    # A product of single terms forms len(w1) + len(w2) letters and one monomial.
    runs = (("", 1, 26), ("2*A*", 2 * a_power(1, 3), 30), ("A^-1*v2*", a_power(-1, 3) * v_power(2, 3), 34))
    for head, scalar, offset in runs:
        nine = head + "*".join(["a1"] * 9)
        assert parse_element(nine, 3, AB3) == AlgElement.from_word((A1,) * 9, 3, scalar)
        with pytest.raises(ParseError) as exc:
            parse_element(nine + "*a1", 3, AB3)
        assert str(exc.value) == f"product of 11 letters and monomials is over EXPANSION_BUDGET = 10 (at offset {offset})"


def test_coefficient_bits_are_refused_before_the_product(monkeypatch):
    # bits(x) + bits(y) + bits(terms summed) is checked before each product,
    # so a power stops at its first oversized square.
    assert expressions.COEFFICIENT_BITS_BUDGET == 8 * sys.get_int_max_str_digits()
    monkeypatch.setattr(expressions, "COEFFICIENT_BITS_BUDGET", 5120)
    assert parse_scalar("2^5118", 0) == 2**5118  # last product: 2^1022 * 2^4096, 1023 + 4097 bits
    assert parse_scalar("(2*A + 2)^2", 0) == (2 * a_power(1, 0) + 2) ** 2
    refused = (("2^5119", 1), ("3^100000 - 3^100000", 1), ("2^3000*2^3000", 6), ("(2^2559*A + 1)^2", 14))
    for text, offset in refused:
        with pytest.raises(ParseError, match="-bit coefficients is over COEFFICIENT_BITS_BUDGET = 5120 ") as exc:
            parse_scalar(text, 0)
        assert exc.value.position == offset
    monkeypatch.setattr(expressions, "COEFFICIENT_BITS_BUDGET", 0)  # the digit limit 0: no budget
    assert parse_scalar("2^6000*2^6000", 0) == 2**12000


def test_half_power_only_on_a():
    with pytest.raises(ParseError):
        parse_scalar("v1^(1/2)", 1)
    with pytest.raises(ParseError):
        parse_element("a1^(1/2)", 3, AB3)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("A^(3)", "A^3"),
        ("A^(-3)", "A^-3"),
        ("A^-3", "A^-3"),
        ("a1^(2)", "a1*a1"),
        ("A^(1/3)", "only halves are allowed in exponents (at offset 5)"),
        ("a1^(1/2)", "half exponents are allowed on A only (at offset 4)"),
        ("A^(1", "unexpected end of input (at offset 4)"),
        ("A^(x)", "expected integer exponent, found 'x' (at offset 3)"),
        ("A^(-)", "expected integer exponent, found ')' (at offset 4)"),
        ("a1^²", "unexpected character '²' (at offset 3)"),
        # only the ASCII digits 0-9 are digits
        ("g1^٢", "unexpected character '٢' (at offset 3)"),
        ("٣*g1", "unexpected character '٣' (at offset 0)"),
        ("v١*g1", "unexpected character '١' (at offset 1)"),
        ("１２*g1", "unexpected character '１' (at offset 0)"),
        ("g١", "unexpected character '١' (at offset 1)"),
        ("A^(1/٢)", "unexpected character '٢' (at offset 5)"),
    ],
)
def test_exponent_forms(text, expected):
    # bare and parenthesized exponents share one sign-and-integer path
    try:
        got = str(parse_element(text, 3, AB3))
    except ParseError as exc:
        got = str(exc)
    assert got == expected


def test_negative_power_needs_invertible_base():
    with pytest.raises(ParseError):
        parse_element("a1^-1", 3, AB3)
    with pytest.raises(ParseError):
        parse_scalar("(A + 1)^-1", 0)
    assert parse_scalar("(A^2)^-1", 0) == a_power(-2, 0)


def test_each_generator_is_built_once_per_parse(monkeypatch):
    # A parse reuses the element of a generator it has met; the values, and
    # every error's message and offset, are those of building it each time.
    g1, g2, g3 = (Generator("g", i) for i in (1, 2, 3))
    words = [(g1, g2, g1, g1, g1), (g1, g2, g2), (g1, g2, g3), (g1, g3, g2), (g1, g3, g3), (g2,)]
    want = sum((AlgElement.from_word(w, 1, -1 if 0 < i < 5 else 1) for i, w in enumerate(words)), AlgElement.zero(1))
    built = []
    original = AlgElement.from_generator.__func__
    monkeypatch.setattr(AlgElement, "from_generator", classmethod(lambda cls, g, n: built.append(g) or original(cls, g, n)))
    assert parse_element("g1*g2*g1^3 - g1*(g2 + g3)^2 + g2", 1, ABG) == want
    assert built == [g1, g2, g3]
    built.clear()
    assert parse_element("a1 - a1", 3, AB3).is_zero and parse_element("a1^2*a1", 3, AB3) == parse_element("a1^3", 3, AB3)
    assert built == [A1] * 3  # once in each of the three parses
    for text, message in (
        ("a1*a1^-1", "negative power of a non-invertible element (at offset 5)"),
        ("a1*a2*a1*x", "unknown name 'x' (at offset 9)"),
        ("a1*a1 a1", "trailing input 'a1' (at offset 6)"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_element(text, 3, AB3)
        assert str(exc.value) == message


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
        assert str(x) == reference_str(x)
        assert parse_element(str(x), surface.punctures, alphabet) == x
        for p in x._terms.values():
            assert str(p) == reference_str(p)
            assert parse_scalar(str(p), surface.punctures) == p


def test_parse_print_identity_on_canonical_text():
    rng = random.Random(11)
    gens3 = tuple(AB3.values())
    for _ in range(100):
        x = rand_element(rng, 3, gens3)
        text = str(x)
        assert text == reference_str(x)
        assert str(parse_element(text, 3, AB3)) == text
        for p in x._terms.values():
            assert str(p) == reference_str(p) == str(parse_scalar(str(p), 3))


def test_both_printers_refuse_an_integer_over_the_digit_limit():
    # The CLI refuses such a result as "too long to print" by this ValueError.
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter sets no digit limit")
    big = const(10**limit, 1)  # limit + 1 digits
    for x in (big, big * a_power(1, 1) + 1, AlgElement.from_scalar(big), AlgElement.from_word((A1, A2), 1, big)):
        for printer in (str, reference_str):
            with pytest.raises(ValueError):
                printer(x)
    assert str(const(10**limit - 1, 1)) == reference_str(const(10**limit - 1, 1)) == "9" * limit
