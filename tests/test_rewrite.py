"""Rewriting engine: reduction, normal forms, critical pairs, completion."""

import dataclasses
import hashlib
import itertools
import random
from collections import Counter

import pytest

from arcalg import (
    AlgElement,
    ArityError,
    Generator,
    LaurentPoly,
    Monomial,
    RewriteSystem,
    Rule,
    RuleError,
    StepBudgetExceeded,
    Surface,
    VARIANT_DEFAULT,
    VARIANT_LITERAL,
    algebra_for,
    a_half_power,
    a_power,
    complete,
    const,
    critical_pairs,
    delta,
    v_power,
)
from arcalg.freealg import word_key
from arcalg import rewrite
from arcalg.rewrite import _pack, _unpack

import bruteforce
from bruteforce import _redexes, all_normal_forms, random_normal_form

A1, A2, A3 = (Generator("a", i) for i in (1, 2, 3))
G1, G2, G3 = (Generator("g", i) for i in (1, 2, 3))


def f02():
    return algebra_for(Surface(0, 2))


def f03():
    return algebra_for(Surface(0, 3))


def f11():
    return algebra_for(Surface(1, 1))


def test_rule_must_decrease_order():
    # lhs shorter than an rhs word
    with pytest.raises(RuleError):
        Rule((A1,), AlgElement.from_word((A1, A2), 3))
    # lex-increasing at equal length
    with pytest.raises(RuleError):
        Rule((A1, A3), AlgElement.from_word((A3, A1), 3))
    # empty lhs
    with pytest.raises(RuleError):
        Rule((), AlgElement.one(3))


def test_reduce_once_f03_product():
    alg = f03()
    x = AlgElement.from_word((A1, A2), 3)
    got = alg.system.reduce_once(x)
    assert got == AlgElement.from_word((A3,), 3, v_power(3, 3, -1) * delta(3))


def test_reduce_once_already_normal():
    alg = f03()
    assert alg.system.reduce_once(AlgElement.one(3)) is None
    assert alg.system.reduce_once(AlgElement.from_generator(A2, 3)) is None


def test_reduce_once_f02_square():
    alg = f02()
    x = AlgElement.from_word((Generator("a"), Generator("a")), 2)
    expected = AlgElement.from_scalar(
        -(v_power(1, 2, -1) * v_power(2, 2, -1)) * (a_power(1, 2) - a_power(-1, 2)) ** 2
    )
    assert alg.system.reduce_once(x) == expected


def test_normal_form_triple_word_against_bruteforce():
    alg = f03()
    x = AlgElement.from_word((A1, A2, A3), 3)
    forms = all_normal_forms(alg.system, x)
    assert len(forms) == 1
    expected = AlgElement.from_scalar(
        v_power(1, 3, -1) * v_power(2, 3, -1) * v_power(3, 3, -1) * delta(3) ** 3
    )
    assert forms == {expected}
    assert alg.nf(x) == expected


def test_normal_form_scalar_fixed():
    alg = f03()
    c = AlgElement.from_scalar(delta(3) * 7)
    assert alg.nf(c) == c


def test_normal_form_refuses_an_element_of_another_arity():
    # Such an element came back malformed: v1*g1*g2 over R_1 on F1,0 as an
    # arity-0 element holding a one-variable monomial, and an element over
    # R_2 on F0,3 as one over R_3.
    x = AlgElement.from_word((G1, G2), 1, v_power(1, 1))
    with pytest.raises(ArityError, match="arity mismatch: 0 != 1"):
        algebra_for(Surface(1, 0)).system.normal_form(x)
    with pytest.raises(ArityError, match="arity mismatch: 3 != 2"):
        f03().system.normal_form(AlgElement.from_word((A1, A2), 2))


def test_normal_form_torus_commutation():
    alg = f11()
    x = AlgElement.from_word((G2, G1), 1)
    expected = AlgElement.from_word((G1, G2), 1, a_power(2, 1)) - AlgElement.from_word(
        (G3,), 1, a_power(1, 1) * (a_power(2, 1) - a_power(-2, 1))
    )
    assert alg.nf(x) == expected
    # substituting back into the relation normalizes to zero
    g1 = AlgElement.from_generator(G1, 1)
    g2 = AlgElement.from_generator(G2, 1)
    g3 = AlgElement.from_generator(G3, 1)
    relation = g1 * g2 * a_power(1, 1) - g2 * g1 * a_power(-1, 1) - g3 * (
        a_power(2, 1) - a_power(-2, 1)
    )
    assert alg.nf(relation).is_zero


def test_normal_form_idempotent_random():
    rng = random.Random(424242)
    for alg in (f02(), f03(), f11(), algebra_for(Surface(1, 0))):
        gens = alg.generators
        for _ in range(50):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 5)))
            x = AlgElement.from_word(word, alg.arity)
            n = alg.nf(x)
            assert alg.nf(n) == n


def test_termination_measure_asserted_each_step():
    # a decreasing two-rule system on one generator cannot loop
    a = Generator("a")
    sys2 = RewriteSystem(0, (Rule((a, a), AlgElement.from_word((a,), 0, const(2, 0))),))
    x = AlgElement.from_word((a,) * 6, 0)
    n = sys2.normal_form(x)
    assert n == AlgElement.from_word((a,), 0, const(32, 0))


def test_step_budget_is_enforced(monkeypatch):
    # a^5 -> 2a^4 -> 4a^3 -> 8a^2 -> 16a: exactly four steps
    a = Generator("a")
    rule = Rule((a, a), AlgElement.from_word((a,), 0, const(2, 0)))
    x = AlgElement.from_word((a,) * 5, 0)
    expected = AlgElement.from_word((a,), 0, const(16, 0))
    # the budget is the module constant, not a per-system field
    assert [f.name for f in dataclasses.fields(RewriteSystem)] == ["arity", "rules"]
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 4)
    assert RewriteSystem(0, (rule,)).normal_form(x) == expected
    for budget in (1, 3):
        monkeypatch.setattr(rewrite, "STEP_BUDGET", budget)
        with pytest.raises(StepBudgetExceeded):
            RewriteSystem(0, (rule,)).normal_form(x)


def test_term_order_assertion_fires():
    # Rule checks its own order, so corrupt a valid rule behind its back.
    a, b = Generator("a"), Generator("b")
    rule = Rule((b,), AlgElement.from_word((a,), 0))
    object.__setattr__(rule, "rhs", AlgElement.from_word((a, a), 0))
    system = RewriteSystem(0, (rule,))
    with pytest.raises(AssertionError):
        system.normal_form(AlgElement.from_word((b,), 0))


def _reduce_to_fixed_point(system, x):
    """``reduce_once`` iterated to a fixed point: the result, the number of
    steps, and how many of them cancelled a term."""
    steps = cancelling = 0
    while (nxt := system.reduce_once(x)) is not None:
        # a step that removes more than the rewritten word cancelled a term
        cancelling += len(x.support() - nxt.support()) > 1
        x, steps = nxt, steps + 1
    return x, steps, cancelling


@pytest.mark.parametrize(
    "surface, variant",
    [
        (Surface(0, 2), VARIANT_DEFAULT),
        (Surface(0, 3), VARIANT_DEFAULT),
        (Surface(1, 0), VARIANT_DEFAULT),
        (Surface(1, 0), VARIANT_LITERAL),
        (Surface(1, 1), VARIANT_DEFAULT),
        (Surface(1, 1), VARIANT_LITERAL),
    ],
    ids=["F0,2", "F0,3", "F1,0", "F1,0-literal", "F1,1", "F1,1-literal"],
)
def test_normal_form_is_reduce_once_to_a_fixed_point(surface, variant, monkeypatch):
    # The torus systems are not confluent, so their normal forms depend on
    # the reduction strategy; this pins it, step count included.
    alg = algebra_for(surface, variant)
    rng = random.Random(f"strategy {surface} {variant}")
    cancelled = 0
    for _ in range(40):
        x = AlgElement.zero(alg.arity)
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(alg.generators) for _ in range(rng.randint(0, 5)))
            term = AlgElement.from_word(word, alg.arity, rng.choice((-2, -1, 1, 2)))
            x = x + term
            reduct = alg.system.reduce_once(term)
            if reduct is not None and rng.random() < 0.5:
                x = x - reduct  # rewriting ``word`` then cancels these terms
        expected, steps, cancelling = _reduce_to_fixed_point(alg.system, x)
        cancelled += cancelling
        got = alg.system.normal_form(x)
        assert got == expected
        for c in got._terms.values():  # canonical: no zero entries kept
            assert all(c._terms.values())
            assert c == LaurentPoly(alg.arity, dict(c._terms))
        monkeypatch.setattr(rewrite, "STEP_BUDGET", steps)
        assert alg.system.normal_form(x) == expected
        if steps:
            monkeypatch.setattr(rewrite, "STEP_BUDGET", steps - 1)
            with pytest.raises(StepBudgetExceeded):
                alg.system.normal_form(x)
        monkeypatch.undo()
    assert cancelled


def test_cancelled_word_is_not_a_step(monkeypatch):
    # z -> (A + A^-1) y and y -> x, so z + k*y first adds (A + A^-1) to y's
    # coefficient k; a y whose coefficient cancels is skipped, not rewritten.
    x, y, z = (Generator(c) for c in "xyz")
    two_terms = a_power(1, 0) + a_power(-1, 0)
    system = RewriteSystem(
        0,
        (
            Rule((z,), AlgElement.from_word((y,), 0, two_terms)),
            Rule((y,), AlgElement.from_word((x,), 0)),
        ),
    )
    partly = AlgElement.from_word((z,), 0) - AlgElement.from_word((y,), 0, a_power(1, 0))
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 2)
    got = system.normal_form(partly)
    assert got == AlgElement.from_word((x,), 0, a_power(-1, 0))
    assert len(got.coeff((x,))) == 1  # one monomial survives
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 1)
    with pytest.raises(StepBudgetExceeded):
        system.normal_form(partly)
    fully = AlgElement.from_word((z,), 0) - AlgElement.from_word((y,), 0, two_terms)
    assert system.normal_form(fully).is_zero


def test_generators_only_the_input_uses(monkeypatch):
    # The rules use a and c; inputs add b, which sorts between them, and A,
    # which sorts before both, so those calls code the rules differently.
    big_a, a, b, c = (Generator(name) for name in "Aabc")
    system = RewriteSystem(
        0,
        (
            Rule((c, a), AlgElement.from_word((a, c), 0, a_power(1, 0)) + AlgElement.from_word((c,), 0, 3)),
            Rule((c, c), AlgElement.from_word((a,), 0, a_power(-2, 0))),
            Rule((a, a, a), AlgElement.from_word((c, a), 0, -1)),
        ),
    )
    assert system._alphabet == (a, c)
    # x takes the dense path; x times ``wide``, whose A-exponents span more
    # than the cap, the sparse one, in the same number of steps
    wide = const(1, 0) + a_power(rewrite.DENSE_SPAN_CAP, 0)
    rng = random.Random("input-only generators")
    seen = {}
    for i in range(60):
        letters = (a, c) if i % 2 else (big_a, a, b, c)
        x = AlgElement.zero(0)
        for _ in range(rng.randint(1, 4)):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
            x = x + AlgElement.from_word(word, 0, rng.choice((-2, -1, 1, 2)))
        expected, steps, _ = _reduce_to_fixed_point(system, x)
        for y, want, table in ((x, expected, "_dense"), (x.scale(wide), expected.scale(wide), "_packed")):
            monkeypatch.setattr(rewrite, "STEP_BUDGET", steps)
            assert system.normal_form(y) == want
            # the cached table of the path taken is keyed by the alphabet of the last call
            (_, alphabet), _, _ = getattr(system, table)
            assert alphabet == tuple(sorted(set().union((a, c), *x.support())))
            if steps:
                monkeypatch.setattr(rewrite, "STEP_BUDGET", steps - 1)
                with pytest.raises(StepBudgetExceeded):
                    system.normal_form(y)
        seen[alphabet] = seen.get(alphabet, 0) + 1
        monkeypatch.undo()
    assert seen[a, c] >= 30 and seen[big_a, a, b, c] > 10
    # a code is one byte, so one call takes at most 256 generators
    many = tuple(Generator("g", i) for i in range(255))  # with a and c: 257
    assert system.normal_form(AlgElement.from_word(many[1:], 0)).support() == {many[1:]}
    with pytest.raises(ValueError, match="257 generators"):
        system.normal_form(AlgElement.from_word(many, 0))


@pytest.mark.parametrize(
    "surface, variant, count",
    [
        (Surface(0, 2), VARIANT_DEFAULT, 1),
        (Surface(0, 2), VARIANT_LITERAL, 1),
        (Surface(0, 3), VARIANT_DEFAULT, 27),
        (Surface(0, 3), VARIANT_LITERAL, 27),
        (Surface(1, 0), VARIANT_DEFAULT, 17),
        (Surface(1, 0), VARIANT_LITERAL, 17),
        (Surface(1, 1), VARIANT_DEFAULT, 17),
        (Surface(1, 1), VARIANT_LITERAL, 17),
    ],
)
def test_critical_pair_reducts_are_one_step_reducts(surface, variant, count):
    # Each reduct is ``apply_at`` on the coefficient-1 word at some redex,
    # and the two reducts come from two different redexes.
    system = algebra_for(surface, variant).system
    pairs = critical_pairs(system, 8)
    assert len(pairs) == count
    for cp in pairs:
        base = AlgElement.from_word(cp.word, system.arity)
        reducts = {
            (ri, pos): system.apply_at(base, cp.word, ri, pos)
            for _, ri, pos in _redexes(system, base)
        }
        left = {k for k, r in reducts.items() if r == cp.left}
        right = {k for k, r in reducts.items() if r == cp.right}
        assert left and right and len(left | right) >= 2


def test_critical_pairs_single_rule_self_overlap():
    alg = f02()
    pairs = critical_pairs(alg.system, 6)
    assert len(pairs) == 1
    (cp,) = pairs
    a = Generator("a")
    assert cp.word == (a, a, a)
    c = alg.rules[0].rhs
    assert cp.left == c * AlgElement.from_generator(a, 2)
    assert cp.right == AlgElement.from_generator(a, 2) * c
    # both reducts are already equal (the scalar commutes)
    assert cp.left == cp.right


def test_critical_pairs_empty_system():
    assert critical_pairs(RewriteSystem(0, ()), 4) == []


def test_critical_pairs_bound_below_lhs_length():
    alg = f03()
    with pytest.raises(ValueError):
        critical_pairs(alg.system, 1)


def test_critical_pair_overlap_value_fixed_by_oracle():
    alg = f03()
    word = (A1, A1, A2)
    base = AlgElement.from_word(word, 3)
    forms = all_normal_forms(alg.system, base)
    assert len(forms) == 1
    expected = AlgElement.from_word(
        (A2,), 3, v_power(2, 3, -1) * v_power(3, 3, -1) * delta(3) ** 2
    )
    assert forms == {expected}
    assert alg.nf(base) == expected


def test_complete_spheres_unchanged_no_failures():
    for surface, bound in ((Surface(0, 2), 6), (Surface(0, 3), 4), (Surface(0, 3), 6)):
        alg = algebra_for(surface)
        raw = RewriteSystem(alg.arity, alg.rules)
        done, report = complete(raw, bound)
        assert done.rules == raw.rules
        assert report.failures == []
        assert report.added_rules == []


def test_complete_reports_non_unit_leading_coefficient():
    x, y, z, u, w = (Generator(c) for c in "xyzuw")
    raw = RewriteSystem(
        0,
        (
            Rule((x, y), AlgElement.from_word((u,), 0)),
            Rule((y, z), AlgElement.from_word((w,), 0, 3)),
        ),
    )
    done, report = complete(raw, 3)
    assert not report.confluent
    assert report.added_rules == []
    assert done.rules == raw.rules
    [(cp, n1, n2)] = report.failures
    assert cp.word == (x, y, z)
    assert (str(n1), str(n2)) == ("u*z", "3*x*w")


def test_critical_pair_of_a_contained_lhs():
    x, y, z, u, v = (Generator(c) for c in "xyzuv")
    raw = RewriteSystem(
        0,
        (
            Rule((x, y, z), AlgElement.from_word((u,), 0)),
            Rule((y,), AlgElement.from_word((v,), 0)),
        ),
    )
    [cp] = critical_pairs(raw, 3)
    assert str(cp) == "x*y*z: u  vs  x*v*z"
    done, report = complete(raw, 3)
    assert [str(r) for r in report.added_rules] == ["x*v*z -> u"]
    assert done.rules == raw.rules + tuple(report.added_rules)
    assert report.lines() == [
        "critical pairs joinable: 1",
        "critical pairs unexamined (longer than 3): 0",
        "rules added: 1",
        "failures: 0",
        "  added x*v*z -> u",
    ]


def test_equal_lhs_is_a_critical_pair():
    # Two rules for one word give it two normal forms unless completion
    # relates their right-hand sides.
    x, y, u, v = (Generator(c) for c in "xyuv")
    raw = RewriteSystem(
        0,
        (
            Rule((x, y), AlgElement.from_word((u,), 0)),
            Rule((x, y), AlgElement.from_word((v,), 0)),
        ),
    )
    [cp] = critical_pairs(raw, 2)
    assert str(cp) == "x*y: u  vs  v"
    done, report = complete(raw, 2)
    assert [str(r) for r in report.added_rules] == ["v -> u"]
    assert report.confluent
    assert done.normal_form(AlgElement.from_word((v,), 0)) == AlgElement.from_word((u,), 0)


def test_complete_torus_reports_added_rules():
    alg = f11()
    raw = RewriteSystem(1, alg.rules)
    done, report = complete(raw, 6)
    assert report.failures == []
    assert len(done.rules) == len(raw.rules) + len(report.added_rules)
    # every added rule is listed and is a consequence: both sides already join
    for rule in report.added_rules:
        lhs = AlgElement.from_word(rule.lhs, 1)
        assert done.normal_form(lhs - rule.rhs).is_zero


@pytest.mark.parametrize("bound", [6, 11])
def test_complete_counts_the_pairs_above_the_bound(bound):
    # Only a completion that leaves no critical pair unexamined is confluent.
    unexamined = {}
    for surface in SURFACES:
        alg = algebra_for(surface)
        done, report = complete(RewriteSystem(alg.arity, alg.rules), bound)
        longer = [cp for cp in critical_pairs(done, 2 * bound) if len(cp.word) > bound]
        assert report.unexamined == len(longer)
        assert report.confluent == (not report.failures and not longer)
        unexamined[str(surface)] = report.unexamined
    assert unexamined == {"F0,2": 0, "F0,3": 0, "F1,0": 4, "F1,1": 4}


@pytest.mark.parametrize("surface", [Surface(1, 0), Surface(1, 1)], ids=["F1,0", "F1,1"])
def test_torus_completion_shape(surface):
    # Bound b adds g1 g2^k g3 for k = 2..b-2, in that order, and joins the rest.
    alg = algebra_for(surface)
    g1, g2, g3 = alg.generators
    for b in range(3, 10):
        _, report = complete(RewriteSystem(alg.arity, alg.rules), b)
        assert report.failures == []
        added = [r.lhs for r in report.added_rules]
        assert added == [(g1,) + (g2,) * k + (g3,) for k in range(2, b - 1)]
        assert len(report.joinable) == 4 * (b - 3) + 1


def test_order_independence_on_completed_sphere_systems():
    rng = random.Random(1337)
    for alg in (f02(), f03()):
        gens = alg.generators
        for _ in range(250):
            word = tuple(rng.choice(gens) for _ in range(rng.randint(0, 6)))
            x = AlgElement.from_word(word, alg.arity)
            assert random_normal_form(alg.system, x, rng) == alg.nf(x)


def test_multiset_measure_decreases():
    alg = f03()
    x = AlgElement.from_word((A1, A2, A3, A1), 3)
    cur = x
    while True:
        nxt = alg.system.reduce_once(cur)
        if nxt is None:
            break
        before = sorted((word_key(w) for w in cur.support()), reverse=True)
        after = sorted((word_key(w) for w in nxt.support()), reverse=True)
        assert after < before
        cur = nxt


SURFACES = [Surface(0, 2), Surface(0, 3), Surface(1, 0), Surface(1, 1)]
TORUS_SYSTEMS = [
    (s, v) for s in (Surface(1, 0), Surface(1, 1)) for v in (VARIANT_DEFAULT, VARIANT_LITERAL)
]


def _random_element(alg, rng, max_len=5):
    """A sum of up to three words, each with a coefficient of up to two monomials."""
    x = AlgElement.zero(alg.arity)
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.choice(alg.generators) for _ in range(rng.randint(0, max_len)))
        monos = [
            Monomial(rng.randint(-3, 3), tuple(rng.randint(-3, 3) for _ in range(alg.arity)))
            for _ in range(rng.randint(1, 2))
        ]
        coeff = LaurentPoly(alg.arity, [(m, rng.choice((-2, -1, 1, 3))) for m in monos])
        x = x + AlgElement.from_word(word, alg.arity, coeff)
    return x


@pytest.mark.parametrize("surface", SURFACES, ids=str)
def test_normal_form_is_linear(surface):
    # complete normalizes one difference per critical pair on this fact.
    alg = algebra_for(surface)
    rng = random.Random(f"linear {surface}")
    for _ in range(40):
        x, y = _random_element(alg, rng), _random_element(alg, rng)
        assert alg.nf(x - y) == alg.nf(x) - alg.nf(y)


@pytest.mark.parametrize("surface, variant", TORUS_SYSTEMS, ids=str)
def test_appending_a_rule_composes_normal_forms(surface, variant):
    # For each pass S -> S+R of a completion, nf_{S+R} = nf_{S+R} o nf_S,
    # so a pair joined under S stays joined.
    alg = algebra_for(surface, variant)
    _, report = complete(RewriteSystem(alg.arity, alg.rules), 8)
    assert report.added_rules
    rng = random.Random(f"compose {surface} {variant}")
    for k in range(len(report.added_rules)):
        before = RewriteSystem(alg.arity, alg.rules + tuple(report.added_rules[:k]))
        after = RewriteSystem(alg.arity, before.rules + (report.added_rules[k],))
        for _ in range(8):
            x = _random_element(alg, rng, max_len=6)
            assert after.normal_form(x) == after.normal_form(before.normal_form(x))


@pytest.mark.parametrize("surface, variant", TORUS_SYSTEMS, ids=str)
def test_completion_report_agrees_with_separate_normal_forms(surface, variant):
    # Independent of what complete remembers between passes: under the
    # final system each joinable pair's two sides have one normal form, and
    # each failure lists the two sides' normal forms.
    alg = algebra_for(surface, variant)
    done, report = complete(RewriteSystem(alg.arity, alg.rules), 8)
    for cp in report.joinable:
        assert done.normal_form(cp.left) == done.normal_form(cp.right)
    for cp, n1, n2 in report.failures:
        assert (n1, n2) == (done.normal_form(cp.left), done.normal_form(cp.right))
    assert bool(report.failures) == (variant == VARIANT_LITERAL)


@pytest.mark.parametrize("surface", [Surface(0, 3), Surface(1, 1), Surface(1, 0)], ids=str)
def test_normal_form_exact_at_huge_exponents(surface, monkeypatch):
    # Packed monomials must not overflow into a neighbouring field.  F1,0 has
    # no puncture variable: its single huge monomials take the dense path at
    # huge offsets, and the sums below span more than its cap.
    alg = algebra_for(surface)
    rng = random.Random(f"huge {surface}")
    # A^(+-2^70) is half_a +-2^71; a field of 2^72 - 1 fills its bits.
    halves = (2**71, -(2**71), 2**72 - 1, 1 - 2**72)
    for i in range(16):
        x = _random_element(alg, rng, max_len=4)
        vexp = tuple(rng.choice((2**65, -(2**65))) for _ in range(alg.arity))
        coeff = LaurentPoly(alg.arity, [(Monomial(halves[i % 4], vexp), 1)])
        far, wide = x.scale(coeff), x.scale(coeff) + x
        if not alg.arity:
            assert alg.system._dense_nf(far) == alg.system._sparse_nf(far) and alg.system._dense_nf(wide) is None
        if not i:
            monkeypatch.setattr(rewrite, "STEP_BUDGET", 10**12)
        for y in (far, wide):
            assert alg.system.normal_form(y) == _reduce_to_fixed_point(alg.system, y)[0]
        monkeypatch.undo()
    g1, g2, g3 = alg.generators[:3]
    word = AlgElement.from_word((g2, g1, g3, g2), alg.arity, a_power(2**70, alg.arity))
    x = word.scale(v_power(1, alg.arity, -(2**65))) if alg.arity else word
    assert alg.nf(x) == _reduce_to_fixed_point(alg.system, x)[0]
    if not alg.arity:
        # Each step moves a dense offset by the rule's exponent, so offsets
        # that drift more than the cap apart send the call to the sparse
        # path when they meet: in a*a + A*a the two terms of a would sit
        # 2^69 or 2^27 slots apart, and at g = 1024 the a of the input and
        # the a after two steps 2 slots apart.  No bound nears 2^31 here.
        a = Generator("a")
        for k, length, h in ((2**70, 2, 1), (2**28, 2, 1), (512, 3, 0)):  # the input a^length + A^h*a
            system = RewriteSystem(0, (Rule((a, a), AlgElement.from_word((a,), 0, a_power(k, 0))),))
            x = AlgElement.from_word((a,) * length, 0) + AlgElement.from_word((a,), 0, a_power(h, 0))
            assert system._dense_nf(x) is None
            want = AlgElement.from_word((a,), 0, a_power(k * (length - 1), 0) + a_power(h, 0))
            assert system.normal_form(x) == _reduce_to_fixed_point(system, x)[0] == want


def test_packing_holds_the_exponents_of_every_step(monkeypatch):
    # Each step multiplies the coefficient by A^(2^40) v1^(-2^39), so the
    # packing must hold eleven times the rule's exponents, also when the
    # budget allows exactly the eleven steps.
    a = Generator("a")
    scalar = a_power(2**40, 1) * v_power(1, 1, -(2**39))
    rule = Rule((a, a), AlgElement.from_word((a,), 1, scalar))
    x = AlgElement.from_word((a,) * 12, 1)
    expected = AlgElement.from_word((a,), 1, scalar**11)
    for budget in (11, 100_000):
        monkeypatch.setattr(rewrite, "STEP_BUDGET", budget)
        assert RewriteSystem(1, (rule,)).normal_form(x) == expected


def _dense_corpus(alg, rng):
    """A sum whose L1 bound equals a coefficient, then random Laurent
    coefficients (A^(1/2) powers included) on words of length up to 11, with
    terms that cancel."""
    n, (g1, g2) = alg.arity, alg.generators[:2]
    # g2*g1 -> A^2*g1*g2 + (two terms)*w, so g1*g2 gets 150*A^2 and its bound
    # is 150; the bound of w is 100
    yield AlgElement.from_word((g1, g2), n, a_power(2, n) * 100) + AlgElement.from_word((g2, g1), n, const(50, n))
    for _ in range(10):
        x = AlgElement.zero(n)
        for _ in range(rng.randint(1, 3)):
            word = tuple(rng.choice(alg.generators) for _ in range(rng.randint(0, 11)))
            monos = [(Monomial(rng.randint(-6, 6), (0,) * n), rng.choice((-3, -1, 2, 2**29 + 1))) for _ in range(3)]
            term = AlgElement.from_word(word, n, LaurentPoly(n, monos) or const(1, n))
            reduct = alg.system.reduce_once(term) if rng.random() < 0.5 else None  # its terms then cancel
            x = x + term - (reduct or AlgElement.zero(n))
        yield x


@pytest.mark.parametrize("surface, variant", TORUS_SYSTEMS, ids=str)
def test_dense_coefficients_match_the_sparse_kernel(surface, variant, monkeypatch):
    # A dense run that finishes takes the sparse kernel's steps to its
    # result.  One where a word's bound reaches 2^31 returns None: here only
    # inputs with a 2^29 + 1 coefficient, and g2^6*g1^6 on the default
    # variant.  Either way ``normal_form`` gives the sparse result and runs
    # out of ``STEP_BUDGET`` at the same step.
    alg = algebra_for(surface, variant)
    system, n = alg.system, alg.arity
    g1, g2 = alg.generators[:2]
    overflow = AlgElement.from_word((g2,) * 6 + (g1,) * 6, n)
    ran = Counter()
    for x in (*_dense_corpus(alg, random.Random(f"dense {surface} {variant}")), overflow):
        want, steps = system._sparse_nf(x)
        dense = system._dense_nf(x)
        if dense is None:
            assert x is overflow or any(abs(k) == 2**29 + 1 for c in x._terms.values() for k in c._terms.values())
        else:
            assert dense == (want, steps)
            assert x is not overflow or variant == VARIANT_LITERAL
        ran[dense is None] += 1
        monkeypatch.setattr(rewrite, "STEP_BUDGET", steps)
        assert system.normal_form(x) == AlgElement(n, want)
        # v1, and A-exponents spread over more than the cap, take the sparse path
        wide = a_power(-1, n) + a_power(rewrite.DENSE_SPAN_CAP, n)
        for c in (wide, v_power(1, n)) if n else (wide,):
            y = x.scale(c)
            assert system._dense_nf(y) is None
            assert system.normal_form(y) == AlgElement(n, want).scale(c)
        if steps:
            monkeypatch.setattr(rewrite, "STEP_BUDGET", steps - 1)
            with pytest.raises(StepBudgetExceeded):
                system.normal_form(x)
        monkeypatch.undo()
    assert ran[False] >= 5 and ran[True] >= 4


def test_pack_round_trips_at_the_field_limits():
    for s in (1, 2, 7, 20, 72):
        edge = (1 << (s - 1)) - 1  # B/2 - 1 for B = 2^s
        for arity in range(4):
            for fields in itertools.product((-edge, 0, edge), repeat=arity + 1):
                m = Monomial(fields[0], fields[1:])
                assert _unpack(_pack(m, s), s, arity) == m


def _count_calls(monkeypatch, names, key) -> Counter:
    """Count the calls of the named ``RewriteSystem`` methods by ``key(name, args)``."""
    calls = Counter()

    def counting(name):
        original = getattr(RewriteSystem, name)

        def counted(self, *args):
            calls[key(name, args)] += 1
            return original(self, *args)

        return counted

    for name in names:
        monkeypatch.setattr(RewriteSystem, name, counting(name))
    return calls


def test_completion_normalizes_each_critical_pair_once(monkeypatch):
    # The completion workload of the benchmark: F0,2 at 6, F0,3 at 6..11,
    # both tori at 3..11, each from a fresh system as the benchmark runs
    # them.  Without failures every pair of the final pass is normalized
    # exactly once, as one difference.  The reference builds the two
    # reducts of every pair on every pass and normalizes ``left - right``;
    # ``complete`` builds those of each pair once per completion, and seeds
    # the kernels with the pair's ambiguity instead: it enters the dense
    # kernel once per pair, the sparse one where dense gives up (every
    # sphere pair: their rules have puncture variables), and ``normal_form``
    # only for failures, of which this workload has none.
    ops = (
        [(Surface(0, 2), 6)]
        + [(Surface(0, 3), b) for b in range(6, 12)]
        + [(s, b) for s in (Surface(1, 0), Surface(1, 1)) for b in range(3, 12)]
    )
    algs = {s: algebra_for(s) for s in SURFACES}
    calls = _count_calls(
        monkeypatch,
        ("normal_form", "_reduct", "_dense_nf", "_sparse_nf"),
        lambda name, args: name + " seeded" * (name.endswith("_nf") and not isinstance(args[0], AlgElement)),
    )
    work = {}
    for run, normalized in ((bruteforce.complete, "normal_form"), (complete, "_dense_nf seeded")):
        calls.clear()
        per_op = {}
        for surface, bound in ops:
            before = calls.copy()
            _, report = run(RewriteSystem(algs[surface].arity, algs[surface].rules), bound)
            per_op[surface, bound] = calls[normalized] - before[normalized]
            assert per_op[surface, bound] == len(report.joinable)
            if run is complete:
                assert calls["normal_form"] == before["normal_form"] == len(report.failures) == 0
        assert per_op[Surface(1, 0), 11] == per_op[Surface(1, 1), 11] == 33
        assert per_op[Surface(0, 3), 6] == 27
        work[run] = {k: v for k, v in calls.items() if "seeded" in k or not k.endswith("_nf")}
    assert work[bruteforce.complete] == {"normal_form": 469, "_reduct": 3002}
    assert work[complete] == {"_dense_nf seeded": 469, "_sparse_nf seeded": 163, "_reduct": 938}


def test_completion_builds_the_pairs_of_its_report_once(monkeypatch):
    # Each pass scans the ambiguities, and one ``critical_pairs`` call after
    # the last pass builds the pairs the report holds: on F1,0 at 11 the 33
    # joined pairs, however many passes the completion takes; on F1,1 with
    # the literal commutation rhs at 7 also its failures.
    results = []
    original = rewrite.critical_pairs
    monkeypatch.setattr(rewrite, "critical_pairs", lambda *args: results.append(original(*args)) or results[-1])
    for surface, variant, bound in ((Surface(1, 0), VARIANT_DEFAULT, 11), (Surface(1, 1), VARIANT_LITERAL, 7)):
        alg = algebra_for(surface, variant)
        results.clear()
        _, report = complete(RewriteSystem(alg.arity, alg.rules), bound)
        [pairs] = results
        held = report.joinable + [cp for cp, *_ in report.failures]
        assert len(held) == len(pairs) and set(map(id, held)) == set(map(id, pairs))
        if surface.punctures:
            assert report.failures
        else:
            assert len(report.joinable) == 33 and not report.failures and report.added_rules


@pytest.mark.parametrize("surface, variant", [(s, v) for s in SURFACES for v in (VARIANT_DEFAULT, VARIANT_LITERAL)], ids=str)
def test_seeded_pair_matches_the_normal_form_of_its_difference(surface, variant, monkeypatch):
    # A kernel seeded with an ambiguity starts from the pair's difference,
    # taken from the coded rule rows; it must return the terms and steps of
    # normalizing ``left - right``, on both kernels, and run out of
    # ``STEP_BUDGET`` at the same step.  The tori run every pair dense.
    alg = algebra_for(surface, variant)
    raw = RewriteSystem(alg.arity, alg.rules)
    done, report = complete(raw, 11)
    for system in (raw, done):
        ambs = rewrite._bounded_ambiguities(system, 11)
        pairs = critical_pairs(system, 11)
        assert len(ambs) == len(pairs) >= len(raw.rules)
        for amb, cp in zip(ambs, pairs):
            diff = cp.left - cp.right
            want = system._dense_nf(diff) or system._sparse_nf(diff)
            assert AlgElement(alg.arity, want[0]) == system.normal_form(diff)
            assert system._sparse_nf(amb) == want
            assert system._dense_nf(amb) == (want if surface.genus else None)
            seeded = lambda: system._dense_nf(amb) or system._sparse_nf(amb)  # as ``complete`` runs it
            monkeypatch.setattr(rewrite, "STEP_BUDGET", want[1])
            assert seeded() == want
            if want[1]:
                monkeypatch.setattr(rewrite, "STEP_BUDGET", want[1] - 1)
                for route in (lambda: system.normal_form(diff), lambda: system._sparse_nf(amb), seeded):
                    with pytest.raises(StepBudgetExceeded):
                        route()
            monkeypatch.undo()
    # complete on the sparse kernel alone gives the same system and report
    monkeypatch.setattr(RewriteSystem, "_dense_nf", lambda self, x: None)
    sparse_done, sparse_report = complete(RewriteSystem(alg.arity, alg.rules), 11)
    assert sparse_done.rules == done.rules and sparse_report.to_dict() == report.to_dict()


def test_a_seeded_pair_whose_dense_run_gives_up_enters_dense_once(monkeypatch):
    # b*a -> 2^16 a*b and a*a -> 0.  The pair of b*a*a has the difference
    # 2^16 a*b*a, whose first step gives 2^32 a*a*b: its bound passes 2^31,
    # so the dense run gives up there, and the sparse run rewrites a*a*b to 0.
    a, b = Generator("a"), Generator("b")
    system = RewriteSystem(
        0,
        (Rule((b, a), AlgElement.from_word((a, b), 0, 2**16)), Rule((a, a), AlgElement.zero(0))),
    )
    amb = ((b, a, a), 0, 1, 1)
    assert amb in rewrite._bounded_ambiguities(system, 3)
    assert system._dense_nf(amb) is None and system._sparse_nf(amb) == ({}, 2)
    calls = _count_calls(monkeypatch, ("normal_form", "_dense_nf", "_sparse_nf"), lambda name, args: (name, args[0]))
    done, report = complete(system, 3)
    assert report.confluent and done.rules == system.rules and len(report.joinable) == 2
    # every pair enters dense once; only the one that gave up goes on to sparse
    assert calls == {("_dense_nf", amb): 1, ("_sparse_nf", amb): 1, ("_dense_nf", ((a, a, a), 1, 1, 1)): 1}
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 1)
    with pytest.raises(StepBudgetExceeded):
        complete(system, 3)


@pytest.mark.parametrize("surface", SURFACES, ids=str)
def test_complete_matches_the_rebuilding_reference(surface):
    # The reference builds every critical pair and a new system on each pass.
    # ``complete`` keeps the ambiguities and rule tables of a system, here
    # also between calls: every bound runs on one raw system, whose
    # ambiguities the previous bounds have found.
    for variant in (VARIANT_DEFAULT, VARIANT_LITERAL):
        alg = algebra_for(surface, variant)
        raw = RewriteSystem(alg.arity, alg.rules)
        for bound in range(max(len(r.lhs) for r in alg.rules), 12):
            done, report = complete(raw, bound)
            ref_done, ref = bruteforce.complete(RewriteSystem(alg.arity, alg.rules), bound)
            assert report.to_dict() == ref.to_dict()
            assert report.lines() == ref.lines()
            assert done.rules == ref_done.rules
            assert [cp.word for cp in report.joinable] == [cp.word for cp in ref.joinable]
            assert report.joinable == ref.joinable


def _count_coded_rows(monkeypatch) -> Counter:
    """Count, per table, the rows ``RewriteSystem._coded_rules`` codes; the
    rows a call keeps must stay the same objects."""
    coded = Counter()
    original = RewriteSystem._coded_rules

    def counting(self, slot, param, alphabet, coeff):
        key, _, before = getattr(self, slot)
        code, rows = original(self, slot, param, alphabet, coeff)
        kept = before if key == (param, alphabet) else []
        assert all(a is b for a, b in zip(rows, kept))
        if len(rows) > len(kept):
            coded[slot] += len(rows) - len(kept)
        return code, rows

    monkeypatch.setattr(RewriteSystem, "_coded_rules", counting)
    return coded


def test_extended_system_inherits_what_holds_for_its_rules(monkeypatch):
    alg = algebra_for(Surface(1, 1))
    raw = RewriteSystem(alg.arity, alg.rules)
    g1, g2, g3 = alg.generators
    x = AlgElement.from_word((g1, g2, g3) * 3, alg.arity)
    overflow = AlgElement.from_word((g2,) * 7 + (g1,) * 7, alg.arity)  # its bounds pass 2^31
    v1 = x.scale(v_power(1, alg.arity))
    inputs = (x, v1, overflow)
    for y in inputs:  # builds the dense table, and the packed table
        raw.normal_form(y)
    tables = raw._dense, raw._packed
    pairs = critical_pairs(raw, 6)
    rule = alg.system.rules[len(raw.rules)]
    coded = _count_coded_rows(monkeypatch)
    new = raw._extended(rule)
    assert new == RewriteSystem(alg.arity, (*raw.rules, rule))
    # both tables are inherited whole, and no row is coded
    assert new._dense is tables[0] and new._packed is tables[1] and not coded
    # the first dense call and the first sparse call each code only the new rule's row
    nfs = [new.normal_form(y) for y in inputs]
    assert coded == {"_dense": 1, "_packed": 1}
    for (key, code, rows), (new_key, new_code, new_rows) in zip(tables, (new._dense, new._packed)):
        assert new_key == key and new_code is code and len(new_rows) == len(rows) + 1
        assert all(a is b for a, b in zip(new_rows, rows))
    monkeypatch.undo()
    # the tables and normal forms are those of a system built from the same rules
    fresh = RewriteSystem(alg.arity, new.rules)
    assert nfs == [fresh.normal_form(y) for y in inputs]
    for slot in ("_dense", "_packed"):
        assert getattr(new, slot)[::2] == getattr(fresh, slot)[::2]
    # the pairs are those of a system built from the same rules; the old system is unchanged
    assert critical_pairs(new, 6) == critical_pairs(fresh, 6)
    assert critical_pairs(raw, 6) == pairs
    assert raw._dense is tables[0] and raw._packed is tables[1]


def test_extended_tables_rebuild_when_their_key_changes(monkeypatch):
    # An inherited table serves a call only under the call's (param, alphabet):
    # sibling extensions keep their own rows, and a rule that changes g or the
    # alphabet makes the next call code every row again.
    alg = algebra_for(Surface(1, 0))
    raw = RewriteSystem(alg.arity, alg.rules)
    g1, g2, g3 = alg.generators
    inputs = [AlgElement.from_word(w, alg.arity) for w in ((g1, g2, g3) * 3, (g3, g2, g1) * 2, (g2,) * 5 + (g1,) * 4)]
    before = [raw.normal_form(y) for y in inputs]
    tables = raw._dense, raw._packed
    assert raw._dense[0] == (2, alg.generators)
    h = Generator("h", 1)
    siblings = alg.system.rules[len(raw.rules) : len(raw.rules) + 2]
    odd = Rule((g3, g3, g3), AlgElement.from_word((g1,), alg.arity, a_half_power(1, alg.arity)))
    new_letter = Rule((h, g1), AlgElement.from_word((g1,), alg.arity))
    for rule, key in [(r, (2, alg.generators)) for r in siblings] + [
        (odd, (1, alg.generators)),
        (new_letter, (2, (*alg.generators, h))),
    ]:
        coded = _count_coded_rows(monkeypatch)
        ext = raw._extended(rule)
        nfs = [ext.normal_form(y) for y in inputs]
        assert ext._dense[0] == key
        assert coded["_dense"] == (1 if key == raw._dense[0] else len(ext.rules))
        monkeypatch.undo()
        assert nfs == [RewriteSystem(alg.arity, ext.rules).normal_form(y) for y in inputs]
    assert [raw.normal_form(y) for y in inputs] == before
    assert raw._dense is tables[0] and raw._packed is tables[1]


def test_completion_codes_each_rule_row_once(monkeypatch):
    # ``_extended`` exists so that completion codes each rule once, not once per pass.
    coded = _count_coded_rows(monkeypatch)
    for surface in (Surface(1, 0), Surface(1, 1)):
        alg = algebra_for(surface)
        coded.clear()
        done, _ = complete(RewriteSystem(alg.arity, alg.rules), 11)
        assert sum(coded.values()) == len(done.rules) > len(alg.rules)


# sha256 of the printed normal forms of ``_pinned_corpus``: any change of
# reduction strategy, coefficient arithmetic or printing changes it.
NF_CORPUS_SHA256 = "040fb1944ae9cdfb352a66202f2e2b8014a59f9e1ee30a0c3365d18a1a115e85"


def _pinned_corpus():
    """(label, algebra, element) for 200 words of length 0..10 and five
    cancelling combinations per algebra: the four surfaces and both torus
    variants."""
    systems = [(s, VARIANT_DEFAULT) for s in SURFACES] + [
        (s, VARIANT_LITERAL) for s in (Surface(1, 0), Surface(1, 1))
    ]
    for surface, variant in systems:
        alg = algebra_for(surface, variant)
        rng = random.Random(f"pin {surface} {variant}")
        for i in range(200):
            word = tuple(rng.choice(alg.generators) for _ in range(rng.randint(0, 10)))
            yield f"{surface} {variant} {i}", alg, AlgElement.from_word(word, alg.arity)
        for i in range(5):
            x = _random_element(alg, rng, max_len=6)
            for _ in range(3):
                word = tuple(rng.choice(alg.generators) for _ in range(rng.randint(1, 8)))
                term = AlgElement.from_word(word, alg.arity, rng.choice((-2, -1, 1, 2)))
                reduct = alg.system.reduce_once(term)
                # rewriting ``word`` then cancels the terms of its reduct
                x = x + term - (reduct or AlgElement.zero(alg.arity))
            yield f"{surface} {variant} sum {i}", alg, x


def test_normal_forms_match_the_pinned_hash():
    h = hashlib.sha256()
    for label, alg, x in _pinned_corpus():
        h.update(f"{label}: {alg.nf(x)}\n".encode())
    assert h.hexdigest() == NF_CORPUS_SHA256


def test_every_torus_word_of_the_pinned_corpus_runs_dense():
    # The sparse kernel is the tori's fallback for rare inputs, so a change
    # that sends common words there fails here instead of only running slower.
    words = [(alg, x) for label, alg, x in _pinned_corpus() if alg.surface.genus and "sum" not in label]
    assert len(words) == 800
    for alg, x in words:
        assert alg.system._dense_nf(x) is not None
