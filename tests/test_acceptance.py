"""Acceptance suite: one check per release criterion, exact equality only.

Run under pytest, or directly::

    python tests/test_acceptance.py

Either way each criterion prints one PASS/FAIL line.
"""

import random
import sys
from fractions import Fraction as F

import pytest

from arcalg import (
    AlgElement,
    Attachment,
    Component,
    Diagram,
    RewriteSystem,
    Surface,
    a_power,
    algebra_for,
    boundary_element,
    complete,
    delta,
    diagram_crossings,
    evaluate,
    generator_alphabet,
    generator_diagram,
    independence_rank,
    loop_component,
    loop_scalar,
    nf,
    parse_element,
    puncture_loop_scalar,
    rho,
    rho_element,
    stack,
    v_power,
)
from arcalg.presentations import GENS_A3, GENS_G3, GEN_A, mat_mul

from bruteforce import random_normal_form

A1, A2, A3 = GENS_A3
S02, S03, S10, S11 = Surface(0, 2), Surface(0, 3), Surface(1, 0), Surface(1, 1)

CRITERIA = []


def criterion(label):
    def register(fn):
        CRITERIA.append((fn.__name__, label, fn))
        return fn

    return register


@criterion("twice-punctured sphere: nf(a^2) = -v1^-1 v2^-1 (A - A^-1)^2")
def c01_sphere2_square():
    got = nf(S02, AlgElement.from_word((GEN_A, GEN_A), 2))
    expected = AlgElement.from_scalar(
        -(v_power(1, 2, -1) * v_power(2, 2, -1)) * (a_power(1, 2) - a_power(-1, 2)) ** 2
    )
    assert got == expected


@criterion("thrice-punctured sphere: all nine products match the presentation")
def c02_sphere3_products():
    d = delta(3)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            got = nf(S03, AlgElement.from_word((GENS_A3[i - 1], GENS_A3[j - 1]), 3))
            if i == j:
                ip1 = i % 3 + 1
                ip2 = ip1 % 3 + 1
                expected = AlgElement.from_scalar(
                    v_power(ip1, 3, -1) * v_power(ip2, 3, -1) * d * d
                )
            else:
                k = 6 - i - j
                expected = AlgElement.from_word(
                    (GENS_A3[k - 1],), 3, v_power(k, 3, -1) * d
                )
            assert got == expected, (i, j)


@criterion("left-regular matrices match the display and are multiplicative")
def c03_representation():
    d = delta(3)
    d2 = d * d
    from arcalg import one as ring_one, zero as ring_zero

    z, e = ring_zero(3), ring_one(3)
    v1i, v2i, v3i = (v_power(i, 3, -1) for i in (1, 2, 3))
    displays = {
        None: ((e, z, z, z), (z, e, z, z), (z, z, e, z), (z, z, z, e)),
        A1: ((z, v2i * v3i * d2, z, z), (e, z, z, z), (z, z, z, v2i * d), (z, z, v3i * d, z)),
        A2: ((z, z, v1i * v3i * d2, z), (z, z, z, v1i * d), (e, z, z, z), (z, v3i * d, z, z)),
        A3: ((z, z, z, v1i * v2i * d2), (z, z, v1i * d, z), (z, v2i * d, z, z), (e, z, z, z)),
    }
    for g, expected in displays.items():
        assert rho(g) == expected, g
    alg = algebra_for(S03)
    for gi in GENS_A3:
        for gj in GENS_A3:
            product = mat_mul(rho(gi), rho(gj))
            assert product == rho_element(alg.nf(alg.gen(gi) * alg.gen(gj))), (gi, gj)


@criterion("flattened matrices have rank 4 under 3 rational specializations")
def c04_independence():
    ranks = independence_rank(
        [(F(2), (3, 5, 7)), (F(1), (1, 1, 1)), (F(1, 2), (2, 3, 5))]
    )
    assert ranks == [4, 4, 4]


@criterion("1000 random words span {1, a1, a2, a3}; 500 randomized reductions agree")
def c05_spanning_and_order_independence():
    rng = random.Random(314159)
    alg = algebra_for(S03)
    basis = {(), (A1,), (A2,), (A3,)}
    words = [
        tuple(rng.choice(GENS_A3) for _ in range(rng.randint(0, 6))) for _ in range(1000)
    ]
    normals = []
    for word in words:
        n = alg.nf(AlgElement.from_word(word, 3))
        assert n.support() <= basis, word
        normals.append(n)
    for word, expected in zip(words[:500], normals[:500]):
        got = random_normal_form(alg.system, AlgElement.from_word(word, 3), rng)
        assert got == expected, word


@criterion("torus algebras: relations, boundary scalar, and centrality")
def c06_torus():
    from arcalg import verify_presentation

    for surface in (S10, S11):
        assert verify_presentation(surface).passed
        alg = algebra_for(surface)
        b = boundary_element(surface)
        assert alg.nf(b) == AlgElement.from_scalar(alg.boundary_scalar)
        for g in GENS_G3:
            ge = alg.gen(g)
            assert alg.nf(b * ge - ge * b).is_zero, (surface, g)
    assert algebra_for(S10).boundary_scalar == -(a_power(2, 0)) - a_power(-2, 0)
    assert algebra_for(S11).boundary_scalar == a_power(1, 1) + a_power(-1, 1)


@criterion("diagram engine ground values: trivial and one-puncture loops")
def c07_ground_values():
    d0 = Diagram(0, (loop_component(0, 1),), {})
    assert evaluate(d0) == AlgElement.from_scalar(loop_scalar(0))
    d1 = Diagram(3, (loop_component(F(1, 2), F(3, 2)),), {})
    assert evaluate(d1) == AlgElement.from_scalar(puncture_loop_scalar(3))


@criterion("evaluate(stack) equals nf for every generator pair")
def c08_engine_presentation_agreement():
    d = generator_diagram(S02, GEN_A)
    assert evaluate(stack(d, d)) == nf(S02, AlgElement.from_word((GEN_A, GEN_A), 2))
    for gi in GENS_A3:
        for gj in GENS_A3:
            stacked = stack(generator_diagram(S03, gi), generator_diagram(S03, gj))
            assert evaluate(stacked) == nf(
                S03, AlgElement.from_word((gi, gj), 3)
            ), (gi, gj)


@criterion("two-puncture loop: engine value equals the rearranged square expansion")
def c09_oracle_equivalence():
    engine = evaluate(Diagram(3, (loop_component(F(3, 2), F(7, 2)),), {}))
    square = nf(S03, AlgElement.from_word((A1, A1), 3) * (v_power(2, 3) * v_power(3, 3)))
    rearranged = square - AlgElement.from_scalar(
        a_power(1, 3) * puncture_loop_scalar(3)
        + loop_scalar(3)
        + a_power(-1, 3) * puncture_loop_scalar(3)
    )
    assert engine == nf(S03, rearranged)


def _pts(*coords):
    return tuple((F(x), F(y)) for x, y in coords)


def _tent(n, i, j, height, apex=1):
    a, b = (F(i), F(0)), (F(j), F(0))
    mid = ((a[0] + b[0]) / 2, F(apex))
    return Component((a, mid, b), False, Attachment(i, height), Attachment(j, height))


def _plateau(n, k, l, m, height, dip=None):
    left, right = (F(m) - F(1, 4), F(3)), (F(m) + F(1, 4), F(3))
    inner = ((F(m), F(dip)),) if dip is not None else ()
    points = ((F(k), F(0)), left) + inner + (right, (F(l), F(0)))
    return Component(points, False, Attachment(k, height), Attachment(l, height))


def _layered(n, comps):
    d0 = Diagram(n, tuple(comps), {})
    over = {}
    for (ka, kb), _ in diagram_crossings(d0):
        over[(ka, kb)] = "a" if ka[0] > kb[0] else "b"
    return Diagram(n, tuple(comps), over)


@criterion("clasp insertion and pair-resolution order leave values unchanged")
def c10_invariance():
    arcs = ((1, 2), (2, 3), (1, 3))
    clasp_cases = []
    for i, j in arcs:
        m = F(i + j, 2)
        for k, l in arcs:
            if not min(k, l) <= m <= max(k, l):
                continue
            for dip in (F(1, 2), F(1, 4)):
                base = _layered(3, [_tent(3, i, j, 0), _plateau(3, k, l, m, 1)])
                fingered = _layered(
                    3, [_tent(3, i, j, 0), _plateau(3, k, l, m, 1, dip=dip)]
                )
                clasp_cases.append((base, fingered))
    for n in (0, 2, 3):
        lo = loop_component(F(1, 4), F(15, 4), F(-1, 2), F(1, 2))
        hi = loop_component(F(3, 4), F(13, 4), 2, 3)
        hi_f = Component(
            _pts(("3/4", 2), ("3/2", 2), ("7/4", "1/4"), (2, 2), ("13/4", 2), ("13/4", 3), ("3/4", 3)),
            True,
        )
        base = Diagram(n, (lo, hi), {})
        d0 = Diagram(n, (lo, hi_f), {})
        for label in ("a", "b"):
            over = {key: label for key, _ in diagram_crossings(d0)}
            clasp_cases.append((base, Diagram(n, (lo, hi_f), over)))
    assert len(clasp_cases) >= 20
    for base, fingered in clasp_cases:
        assert len(diagram_crossings(fingered)) == len(diagram_crossings(base)) + 2
        assert evaluate(fingered) == evaluate(base)

    order_cases = [
        stack(generator_diagram(S03, gi), generator_diagram(S03, gj))
        for gi in GENS_A3
        for gj in GENS_A3
    ]
    for gi, gj, gk in ((A1, A2, A3), (A3, A3, A1), (A2, A1, A2), (A1, A3, A2), (A2, A3, A1)):
        order_cases.append(
            stack(
                stack(generator_diagram(S03, gi), generator_diagram(S03, gj)),
                generator_diagram(S03, gk),
            )
        )
    for apex2 in (2, 3):
        order_cases.append(
            Diagram(2, (_tent(2, 1, 2, 0, apex=1), _tent(2, 1, 2, 1, apex=apex2)), {})
        )
    for n in (2, 3):
        order_cases.append(
            _layered(n, [_tent(n, 1, 2, 0), _plateau(n, 1, 2, F(3, 2), 1, dip=F(1, 2))])
        )
    for n in (2, 3):
        comp = Component(
            _pts((1, 0), ("1/2", 1), ("3/2", 2), (1, 0)),
            False,
            Attachment(1, 0),
            Attachment(1, 1),
        )
        order_cases.append(Diagram(n, (comp,), {}))
    assert len(order_cases) >= 20
    for idx, d in enumerate(order_cases):
        base = evaluate(d)
        assert evaluate(d, rng=random.Random(9000 + idx)) == base, idx


@criterion("200 parse/print round trips; sphere systems confluent at bound 6")
def c11_infrastructure():
    rng = random.Random(777)
    alphabet3 = generator_alphabet(S03)
    alphabet1 = generator_alphabet(S11)
    from arcalg import a_half_power, const

    def rand_element(arity, gens):
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

    for k in range(200):
        if k % 2:
            x = rand_element(3, tuple(alphabet3.values()))
            assert parse_element(str(x), 3, alphabet3) == x
        else:
            x = rand_element(1, tuple(alphabet1.values()))
            assert parse_element(str(x), 1, alphabet1) == x

    for surface in (S02, S03):
        alg = algebra_for(surface)
        _, report = complete(RewriteSystem(alg.arity, alg.rules), 6)
        assert report.failures == []


@pytest.mark.parametrize(
    "name,label,check", CRITERIA, ids=[name for name, _, _ in CRITERIA]
)
def test_acceptance(name, label, check):
    check()
    print(f"ACCEPTANCE PASS {name}: {label}")


def _run_all() -> int:
    failures = 0
    for name, label, check in CRITERIA:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {label}  [{exc}]")
        else:
            print(f"PASS {name}: {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(_run_all())
