"""Diagram engine: validation, resolution, invariance, stacking, file format."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from pathlib import Path

import pytest

from arcalg import (
    AlgElement,
    Attachment,
    Component,
    Diagram,
    DiagramError,
    Surface,
    WeightedState,
    a_half_power,
    a_power,
    arc_diagram,
    diagram_crossings,
    diagram_from_dict,
    diagram_to_dict,
    dumps_diagram,
    empty_diagram,
    evaluate,
    generator_diagram,
    loads_diagram,
    loop_component,
    loop_scalar,
    nf,
    puncture_loop_scalar,
    resolve_fully,
    rho,
    rho_element,
    stack,
    v_power,
    validate,
)
from arcalg.diagrams import _W, _Skeleton, _fold, _frontiers, _join, _link, _skeleton, _smooth
from arcalg.presentations import GENS_A3, GEN_A, mat_mul
from arcalg.ring import LaurentPoly, Monomial, zero

A1, A2, A3 = GENS_A3


def pts(*coords):
    return tuple((F(x), F(y)) for x, y in coords)


def tent(n, i, j, height, apex=1):
    """Arc from puncture i to j through one apex point."""
    a = (F(i), F(0))
    b = (F(j), F(0))
    mid = ((a[0] + b[0]) / 2, F(apex))
    return Component((a, mid, b), False, Attachment(i, height), Attachment(j, height))


def plateau_arc(n, k, l, m, height, dip=None):
    """Arc from puncture k to l via a plateau at y=3 over x = m +- 1/4.

    With ``dip`` set, a V-finger descends from the plateau to (m, dip),
    poking into the tent of a height-1 arc whose apex sits at x = m.
    """
    left = (F(m) - F(1, 4), F(3))
    right = (F(m) + F(1, 4), F(3))
    inner = ((F(m), F(dip)),) if dip is not None else ()
    points = ((F(k), F(0)), left) + inner + (right, (F(l), F(0)))
    return Component(points, False, Attachment(k, height), Attachment(l, height))


def layered(n, comps):
    """Diagram whose crossings are all over/under by component order (later over)."""
    d0 = Diagram(n, tuple(comps), {})
    over = {}
    for (ka, kb), _ in diagram_crossings(d0):
        if ka[0] == kb[0]:
            raise AssertionError("layered test diagrams must not self-intersect")
        over[(ka, kb)] = "a" if ka[0] > kb[0] else "b"
    return Diagram(n, tuple(comps), over)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_empty_diagram():
    assert validate(empty_diagram(0)) == []
    assert validate(empty_diagram(3)) == []


def test_validate_endpoint_off_puncture():
    comp = Component(pts((1, 0), ("3/2", 1)), False, Attachment(1, 0), Attachment(2, 0))
    errors = validate(Diagram(2, (comp,), {}))
    assert any("is not at puncture" in e for e in errors)


def test_validate_shared_endpoint_touch():
    # two segments meeting at a non-puncture point
    c1 = Component(pts((1, 0), (2, 2), (3, 0)), False, Attachment(1, 0), Attachment(3, 0))
    c2 = Component(pts((1, 0), (2, 2), (3, 0)), False, Attachment(1, 1), Attachment(3, 1))
    errors = validate(Diagram(3, (c1, c2), {}))
    assert any("overlap" in e or "non-transverse" in e for e in errors)


def test_validate_duplicate_heights():
    c1 = tent(2, 1, 2, 0)
    c2 = Component(pts((1, 0), ("3/2", 2), (2, 0)), False, Attachment(1, 0), Attachment(2, 1))
    errors = validate(Diagram(2, (c1, c2), {}))
    assert any("duplicate endpoint height" in e for e in errors)


def test_validate_missing_over_entry():
    l1 = loop_component(0, 4, 0, 1)
    l2 = loop_component(3, 5, -1, 2)
    errors = validate(Diagram(0, (l1, l2), {}))
    assert sum("no over/under entry" in e for e in errors) == 2


def test_validate_segment_through_puncture():
    comp = Component(pts((0, 0), (4, 0), (4, 1), (0, 1)), True)
    errors = validate(Diagram(3, (comp,), {}))
    assert any("passes through puncture" in e for e in errors)


def test_validate_closed_with_attachment():
    comp = Component(pts((0, 0), (1, 1), (2, 0)), True, Attachment(1, 0), None)
    errors = validate(Diagram(2, (comp,), {}))
    assert any("no attachments" in e for e in errors)


# ---------------------------------------------------------------------------
# ground values and single steps
# ---------------------------------------------------------------------------


def test_trivial_loop_value():
    d = Diagram(0, (loop_component(0, 1),), {})
    assert evaluate(d) == AlgElement.from_scalar(loop_scalar(0))


def test_one_puncture_loop_value():
    d = Diagram(3, (loop_component(F(1, 2), F(3, 2)),), {})
    assert evaluate(d) == AlgElement.from_scalar(puncture_loop_scalar(3))


def test_empty_diagram_evaluates_to_one():
    assert evaluate(empty_diagram(3)) == AlgElement.one(3)
    assert evaluate(empty_diagram(0)) == AlgElement.one(0)


def test_kink_gives_framing_factor():
    p = pts((0, 0), (4, 0), (4, 2), (2, 2), (2, -1), (0, -1))
    comp = Component(p, True)
    key = diagram_crossings(Diagram(0, (comp,), {}))[0][0]
    unknot = AlgElement.from_scalar(loop_scalar(0))
    values = {
        label: evaluate(Diagram(0, (comp,), {key: label})) for label in ("a", "b")
    }
    twists = {a_power(3, 0) * -1, a_power(-3, 0) * -1}
    got = set()
    for val in values.values():
        for twist in twists:
            if val == unknot * AlgElement.from_scalar(twist):
                got.add(twist)
    assert got == twists  # one choice gives -A^3, the other -A^-3


def test_kink_resolution_tree_size():
    p = pts((0, 0), (4, 0), (4, 2), (2, 2), (2, -1), (0, -1))
    comp = Component(p, True)
    key = diagram_crossings(Diagram(0, (comp,), {}))[0][0]
    # the two smoothings leave one loop (A) and two loops (A^-1); both
    # branches end in the empty word, so they merge into one state
    loop = loop_scalar(0)
    assert resolve_fully(Diagram(0, (comp,), {key: "a"})) == [
        WeightedState(a_power(1, 0) * loop + a_power(-1, 0) * loop * loop, ())
    ]


def _root(d):
    """The skeleton, root state and packed free loops of the resolution of ``d``."""
    assert validate(d) == []
    return _skeleton(d)


def _gathered(n, root, shift, st):
    """What the steps from ``root`` to ``st`` gathered, given the sum of their
    packed exponents: the coefficient A^(half_a/2) v^vexp (each join at p
    leaves two ends fewer there) and the loop counts (plain, around one
    puncture)."""
    loops, half_a = divmod(shift + _W // 2, _W)
    vexp = tuple((len(at) - len(at0)) // 2 for at, at0 in zip(st.ends, root.ends))
    return LaurentPoly(n, {Monomial(half_a - _W // 2, vexp): 1}), (loops % _W, loops // _W)


def _far_end(st, e):
    """The far end of the open path that starts at end ``e``."""
    return st.paths[e][0] if e in st.paths else e ^ 1


def test_resolve_crossing_single_step():
    l1 = loop_component(0, 4, 0, 1)
    l2 = loop_component(3, 5, -1, 2)
    d0 = Diagram(0, (l1, l2), {})
    keys = [k for k, _ in diagram_crossings(d0)]
    d = Diagram(0, (l1, l2), {k: "b" for k in keys})
    sk, root, shift = _root(d)
    assert len(root.pending) == 2 and shift == 0
    plus, minus = _smooth(sk, root, +1), _smooth(sk, root, -1)
    assert _gathered(0, root, *plus)[0] == a_power(1, 0)
    assert _gathered(0, root, *minus)[0] == a_power(-1, 0)
    for step in (plus, minus):
        assert len(step[1].pending) == 1
        assert _gathered(0, root, *step)[1] == (0, 0)
    # the second smoothing closes both curves: one loop when the two signs
    # agree, two when they differ; no open path is left
    for first, (child_shift, child) in ((+1, plus), (-1, minus)):
        for second in (+1, -1):
            leaf_shift, leaf = _smooth(sk, child, second)
            assert leaf.pending == () and leaf.paths == {}
            assert _gathered(0, root, child_shift + leaf_shift, leaf)[1] == ((1 if first == second else 2), 0)
    with pytest.raises(DiagramError):
        resolve_fully(Diagram(0, (l1, l2), {**d.over, ((7, 7), (8, 8)): "a"}))


def test_r2_pair_full_resolution():
    l1 = loop_component(0, 4, 0, 1)
    l2 = loop_component(3, 5, -1, 2)
    d0 = Diagram(0, (l1, l2), {})
    keys = [k for k, _ in diagram_crossings(d0)]
    d = Diagram(0, (l1, l2), {k: "b" for k in keys})
    # A^(+-1) per smoothing; two states close up the small loop of the clasp
    # (the four branches end in the empty word and merge into one state)
    loop = loop_scalar(0)
    assert resolve_fully(d) == [
        WeightedState(a_power(2, 0) * loop + a_power(-2, 0) * loop + loop * loop + loop * loop, ())
    ]
    uncrossed = Diagram(0, (loop_component(0, 1), loop_component(2, 3)), {})
    assert evaluate(d) == evaluate(uncrossed)


def test_resolve_puncture_pair_single_step():
    c1 = tent(2, 1, 2, 0, apex=1)
    c2 = tent(2, 1, 2, 1, apex=2)
    d = Diagram(2, (c1, c2), {})
    sk, root, _ = _root(d)
    plus, minus = _join(sk, root, 1, 0, +1), _join(sk, root, 1, 0, -1)
    # coefficients are v1^-1 A^(1/2) and v1^-1 A^(-1/2)
    assert _gathered(2, root, *plus)[0] == v_power(1, 2, -1) * a_half_power(1, 2)
    assert _gathered(2, root, *minus)[0] == v_power(1, 2, -1) * a_half_power(-1, 2)
    # endpoint count at puncture 1 dropped by two; one arc joins the ends at 2
    for _, child in (plus, minus):
        assert child.ends[0] == ()
        (_, e), (_, f) = child.ends[1]
        assert _far_end(child, e) == f


def test_alpha_squared_tree_size():
    c1 = tent(2, 1, 2, 0, apex=1)
    c2 = tent(2, 1, 2, 1, apex=2)
    d = Diagram(2, (c1, c2), {})
    # v_i^-1 A^(+-1/2) per join; equal signs leave a loop around one
    # puncture; the four branches end in the empty word and merge
    v = v_power(1, 2, -1) * v_power(2, 2, -1)
    branches = [
        v * a_half_power(2, 2) * puncture_loop_scalar(2),
        v * loop_scalar(2),
        v * loop_scalar(2),
        v * a_half_power(-2, 2) * puncture_loop_scalar(2),
    ]
    assert resolve_fully(d) == [WeightedState(sum(branches[1:], branches[0]), ())]


# ---------------------------------------------------------------------------
# crossingless diagrams
# ---------------------------------------------------------------------------


def test_lone_arc_is_its_generator():
    assert evaluate(arc_diagram(2, 1, 2)) == AlgElement.from_generator(GEN_A, 2)
    for g in GENS_A3:
        assert evaluate(generator_diagram(Surface(0, 3), g)) == AlgElement.from_generator(g, 3)


def test_two_parallel_tents_are_alpha_squared():
    c1 = tent(2, 1, 2, 0, apex=1)
    c2 = tent(2, 1, 2, 1, apex=2)
    expected = nf(Surface(0, 2), AlgElement.from_word((GEN_A, GEN_A), 2))
    assert evaluate(Diagram(2, (c1, c2), {})) == expected


def test_classify_two_puncture_loop():
    # On n = 3 the loop around {1, 2} is the loop around {3} from its far
    # side, so it evaluates to the puncture-loop scalar.
    d = Diagram(3, (loop_component(F(1, 2), F(5, 2)),), {})
    assert evaluate(d) == AlgElement.from_scalar(puncture_loop_scalar(3))


def test_classify_canonicalizes_to_puncture_one_side():
    # The loop around {2, 3} is the loop around {1} from the far side.
    d = Diagram(3, (loop_component(F(3, 2), F(7, 2)),), {})
    assert evaluate(d) == AlgElement.from_scalar(puncture_loop_scalar(3))


def test_fixed_ray_edge_cases():
    # Each puncture's ray goes straight up, turned clockwise by less than any
    # angle of the diagram: a vertex or crossing on it counts once, and it
    # comes just before an end that points straight up.
    vertical = Component(pts((1, 0), (1, 1), (2, 1), (2, 0)), False, Attachment(1, 0), Attachment(2, 0))
    assert evaluate(Diagram(2, (vertical,), {})) == AlgElement.from_generator(GEN_A, 2)
    around_1 = pts(("1/2", "-1/2"), ("3/2", "-1/2"), ("3/2", "1/2"), (1, "1/2"), ("1/2", "1/2"))
    assert evaluate(Diagram(2, (Component(around_1, True),), {})) == AlgElement.from_scalar(puncture_loop_scalar(2))
    # a vertical arc under an arc that crosses it straight above puncture 1
    under = Component(pts((1, 0), (1, 2), (2, 2), (2, 0)), False, Attachment(1, 0), Attachment(2, 0))
    over = Component(pts((1, 0), (0, 1), ("3/2", 1), (2, 0)), False, Attachment(1, 1), Attachment(2, 1))
    assert diagram_crossings(Diagram(2, (under, over), {})) == [(((0, 0), (1, 1)), (F(1), F(1)))]
    d = Diagram(2, (under, over), {((0, 0), (1, 1)): "b"})
    assert evaluate(d) == nf(Surface(0, 2), AlgElement.from_word((GEN_A, GEN_A), 2))
    around_12 = pts(("1/2", "-1/2"), ("5/2", "-1/2"), ("5/2", "1/2"), (2, "1/2"), ("1/2", "1/2"))
    assert evaluate(Diagram(3, (Component(around_12, True),), {})) == AlgElement.from_scalar(puncture_loop_scalar(3))


def test_trivial_loop_value_on_three_punctures():
    d = Diagram(3, (loop_component(F(1, 4), F(3, 4)),), {})
    assert evaluate(d) == AlgElement.from_scalar(loop_scalar(3))


# ---------------------------------------------------------------------------
# stacking and engine/presentation agreement
# ---------------------------------------------------------------------------


def test_stack_empty_is_identity():
    d = arc_diagram(2, 1, 2)
    s = stack(empty_diagram(2), d)
    assert s.components == d.components
    assert evaluate(stack(d, empty_diagram(2))) == evaluate(d)


def test_stack_requires_same_n():
    with pytest.raises(DiagramError):
        stack(empty_diagram(2), empty_diagram(3))


def test_stack_shifts_heights():
    d = arc_diagram(2, 1, 2)
    s = stack(d, d)
    lows = [c for c in s.components[:1]]
    highs = [c for c in s.components[1:]]
    low_heights = {a.height for c in lows for a in (c.start, c.end)}
    high_heights = {a.height for c in highs for a in (c.start, c.end)}
    assert max(low_heights) < min(high_heights)


def test_stack_perturbation_does_not_sweep_a_puncture():
    # The direct union is not in general position, and the first trial
    # translation of d2 would carry its loop across puncture 3.
    s3 = Surface(0, 3)
    loop1 = Component(pts((3, -2), ("1/8", 1), ("-5/8", "-5/4")), True)
    arc = Component(pts((1, 0), ("1/8", "11/8"), (2, 0)), False, Attachment(1, 0), Attachment(2, 1))
    d1 = Diagram(3, (loop1, arc), {((0, 0), (1, 0)): "a"})
    loop2 = Component(
        pts(("3/4", "3/4"), ("15/8", "5/8"), (4, "-3/4"), ("17/4", "-1/8"), ("-3/8", "15/8")), True
    )
    d2 = Diagram(3, (loop2,), {})
    assert evaluate(stack(d1, d2)) == nf(s3, evaluate(d1) * evaluate(d2))


def test_stack_kinked_curve_on_itself():
    # A midpoint of the kink's first segment is its crossing, so this must
    # translate the whole upper curve without subdividing it.
    p = pts((0, 0), (4, 0), (4, 2), (2, 2), (2, -1), (0, -1))
    comp = Component(p, True)
    key = diagram_crossings(Diagram(0, (comp,), {}))[0][0]
    for label in ("a", "b"):
        d = Diagram(0, (comp,), {key: label})
        assert evaluate(stack(d, d)) == evaluate(d) * evaluate(d)


def test_stack_straight_arc_on_itself():
    # An arc of one segment has no vertex to move until it gets a midpoint.
    for n in (2, 3):
        arc = Component(pts((1, 0), (2, 0)), False, Attachment(1, 0), Attachment(2, 0))
        d = Diagram(n, (arc,), {})
        s = stack(d, d)
        assert [len(c.points) for c in s.components] == [2, 3]
        assert evaluate(s) == nf(Surface(0, n), evaluate(d) * evaluate(d))


def test_stack_alpha_squared_f02():
    s2 = Surface(0, 2)
    d = generator_diagram(s2, GEN_A)
    val = evaluate(stack(d, d))
    expected = nf(s2, AlgElement.from_word((GEN_A, GEN_A), 2))
    assert val == expected
    assert val == AlgElement.from_scalar(
        -(v_power(1, 2, -1) * v_power(2, 2, -1)) * (a_power(1, 2) - a_power(-1, 2)) ** 2
    )


def test_engine_presentation_agreement_all_f03_pairs():
    s3 = Surface(0, 3)
    for gi in GENS_A3:
        for gj in GENS_A3:
            d = stack(generator_diagram(s3, gi), generator_diagram(s3, gj))
            assert evaluate(d) == nf(s3, AlgElement.from_word((gi, gj), 3)), (gi, gj)


def test_arc_next_to_trivial_loop():
    arc = tent(2, 1, 2, 0)
    bubble = loop_component(F(1, 4), F(3, 4), 2, 3)
    d = Diagram(2, (arc, bubble), {})
    expected = AlgElement.from_word((GEN_A,), 2, loop_scalar(2))
    assert evaluate(d) == expected


def test_engine_triple_product():
    s3 = Surface(0, 3)
    d = stack(
        stack(generator_diagram(s3, A1), generator_diagram(s3, A2)),
        generator_diagram(s3, A3),
    )
    assert evaluate(d) == nf(s3, AlgElement.from_word((A1, A2, A3), 3))


# Products of 6,400 (a^4), 9,216 and 655,360 branches: only merged states
# make them fast enough for this suite.
@pytest.mark.parametrize(
    "punctures, word",
    [(2, (GEN_A,) * 4), (3, (A1, A2, A3, A1, A2)), (3, (A1, A2, A3, A1, A2, A3)), (3, (A1, A2, A3, A1, A2, A3, A1))],
)
def test_long_products_match_the_presentation(punctures, word):
    surface = Surface(0, punctures)
    value = evaluate(reduce(stack, [generator_diagram(surface, g) for g in word]))
    assert value == nf(surface, AlgElement.from_word(word, punctures))
    if punctures == 3:
        assert rho_element(value) == reduce(mat_mul, map(rho, word))


@pytest.mark.parametrize("n", range(4))
def test_packed_ray_counts(n):
    for width in (2, 3, 8):
        sk, top = _Skeleton(n, width), (1 << width - 1) - 1
        for counts in itertools.product((-top, -1, 0, 1, top), repeat=n):
            assert sk.digits(sk.pack(counts)) == list(counts)
            # a curve closed from one edge reads the punctures it winds around from the digits
            e = sk.edge(sk.pack(counts))
            shift, paths = _link(sk, {}, [(e, e ^ 1)])
            enclosed = sum(1 for c in counts if c)
            assert paths == {} and shift == (_W * _W if min(enclosed, n - enclosed) else _W)
        # joining two edges adds their digits
        for u, v in itertools.product(itertools.product((-(top // 2), 0, top // 2), repeat=n), repeat=2):
            e, f = sk.edge(sk.pack(u)), sk.edge(sk.pack(v))
            _, paths = _link(sk, {}, [(e ^ 1, f)])
            assert paths[e] == (f ^ 1, sk.pack(v) + sk.pack(u))
            assert sk.digits(paths[e][1]) == [x + y for x, y in zip(u, v)]


def test_packed_ray_counts_stay_inside_their_digits():
    # Every open path of a long product counts at most (segments + half the
    # ends at the puncture) crossings with a ray, the bound the width holds.
    d = reduce(stack, [generator_diagram(Surface(0, 3), g) for g in (A1, A2, A3, A1, A2, A3)])
    sk, root, shift = _root(d)
    segments = sum(c.segment_count() for c in d.components)
    widest = [segments + len(at) // 2 for at in root.ends]
    assert sk.width == max(widest).bit_length() + 1
    seen = 0
    for frontier in _frontiers(sk, root, shift):
        for st, _ in frontier.values():
            for _, c in st.paths.values():
                digits = sk.digits(c)
                assert sk.pack(digits) == c and all(abs(x) <= w for x, w in zip(digits, widest))
                seen += 1
    assert seen > 1000


def _cancelling(rng, vexp, pack):
    """Branches whose sum is zero: L = -A^2 - A^-2, P = A + A^-1 and L = 2 - P^2, each times a random term."""
    h, l0, l1 = rng.randint(-30, 30), rng.randint(0, 20), rng.randint(0, 20)
    out = []
    for shape in (
        {(0, 1, 0): 1, (4, 0, 0): 1, (-4, 0, 0): 1},
        {(0, 0, 1): 1, (2, 0, 0): -1, (-2, 0, 0): -1},
        {(0, 1, 0): 1, (0, 0, 0): -2, (0, 0, 2): 1},
    ):
        c = rng.choice((1, -1)) * rng.randint(1, 1 << 70)
        out += [(vexp, pack(h + dh, l0 + d0, l1 + d1), k * c) for (dh, d0, d1), k in shape.items()]
    return out


@pytest.mark.parametrize("n", [0, 2, 3])
def test_loop_fold_matches_the_ring_formula(n):
    rng = random.Random(f"fold:{n}")
    loop, puncture_loop = loop_scalar(n), puncture_loop_scalar(n)
    pack = lambda h, l0, l1: h + _W // 2 + (l0 + l1 * _W) * _W
    for trial in range(40):
        branches = []
        for _ in range(rng.randint(1, 4)):  # several powers of v
            vexp = tuple(rng.randint(-4, 0) for _ in range(n))
            for _ in range(rng.randint(1, 8)):
                c = rng.randint(1, 3) if trial % 2 else rng.choice((1, -1)) * rng.randint(1, 1 << 70)
                branches.append((vexp, pack(rng.randint(-40, 40), rng.randint(0, 40), rng.randint(0, 40)), c))
        # the ring formula, as resolve_fully assembled a word's coefficient
        by_loops = {}
        for vexp, k, c in branches:
            t = by_loops.setdefault(k // _W, Counter())
            t[Monomial(k % _W - _W // 2, vexp)] += c
        expected = sum(
            (LaurentPoly(n, t) * loop ** (l % _W) * puncture_loop ** (l // _W) for l, t in by_loops.items()), zero(n)
        )
        assert _fold(loop, puncture_loop, branches) == expected
        zeros = [b for vexp in {vexp for vexp, _, _ in branches} for b in _cancelling(rng, vexp, pack)]
        assert _fold(loop, puncture_loop, zeros).is_zero
        assert _fold(loop, puncture_loop, branches + zeros) == expected
    assert _fold(loop, puncture_loop, []).is_zero


def test_merged_frontier_work_gate():
    # a1 a2 a3 a1 a2 has 9216 branches and F0,2 a^4 6400, each all ending in
    # one word; the work follows the distinct states per frontier step.
    import arcalg.diagrams as engine

    for punctures, word, widths in (
        (3, (A1, A2, A3, A1, A2), [1, 2, 4, 8, 16, 32, 40, 36, 36, 50, 50, 67, 134, 78, 26]),
        (2, (GEN_A,) * 4, [1, 2, 4, 5, 10, 13, 14, 14, 23, 17, 6, 6, 10, 4, 1]),
    ):
        d = reduce(stack, [generator_diagram(Surface(0, punctures), g) for g in word])
        assert [len(step) for step in engine._frontiers(*_root(d))] == widths
        assert len(resolve_fully(d)) == 1


def test_state_budget_stops_evaluation_early(monkeypatch):
    import arcalg.diagrams as engine

    d = loads_diagram((Path(__file__).parent.parent / "demos" / "product_a1a2a3a1a2a3.json").read_text())
    smoothings = Counter()

    def counted(*args, _smooth=engine._smooth):
        smoothings["calls"] += 1
        return _smooth(*args)

    monkeypatch.setattr(engine, "_smooth", counted)
    monkeypatch.setattr(engine, "STATE_BUDGET", 8)
    with pytest.raises(engine.EvaluationBudgetExceeded, match="STATE_BUDGET = 8 merged states"):
        evaluate(d)
    # steps of 1, 2, 4 and 8 states are expanded; the next one has 10
    assert smoothings["calls"] == 2 * (1 + 2 + 4 + 8)


def test_stack_work_gate(monkeypatch):
    # The stacked products of the diagram_products benchmark: every stack is
    # one _try_stack, and a product carries its crossings into evaluate.
    import arcalg.diagrams as engine

    calls = Counter()
    for name in ("_try_stack", "_scan"):
        def counted(*args, _name=name, _call=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    s2, s3 = Surface(0, 2), Surface(0, 3)
    layer = {g: generator_diagram(s3, g) for g in GENS_A3}
    a = generator_diagram(s2, GEN_A)
    words = [(layer[x], layer[y]) for x in GENS_A3 for y in GENS_A3]
    words += [tuple(layer[g] for g in (A1, A2, A3, A1)), (a, a), (a, a, a)]
    stacks = 0
    for word in words:
        d = word[0]
        for upper in word[1:]:
            d = stack(d, upper)
            stacks += 1
        scans = calls["_scan"]
        evaluate(d)
        assert calls["_scan"] == scans, "evaluate scanned a stacked product"
    assert stacks == calls["_try_stack"] == 15
    # one scan per generator diagram, one per stack for the pairs between
    # the layers, and one more for each of the 7 stacks that move d2
    assert calls["_scan"] == 4 + 15 + 7


def test_the_length_six_product_document_is_a_fresh_stack():
    # demos/product_a1a2a3a1a2a3.json is written by nothing; it must stay
    # what stacking a1 a2 a3 a1 a2 a3 gives, byte for byte.
    layer = [generator_diagram(Surface(0, 3), g) for g in GENS_A3]
    path = Path(__file__).parent.parent / "demos" / "product_a1a2a3a1a2a3.json"
    assert dumps_diagram(reduce(stack, layer + layer)) + "\n" == path.read_text()


@pytest.mark.parametrize("fault", ["lost", "gained"])
def test_stack_refuses_an_upper_layer_whose_crossings_changed(monkeypatch, fault):
    # The scan of the union must find exactly the upper diagram's crossings
    # in the upper layer, in place and after a move.
    import arcalg.diagrams as engine

    d = generator_diagram(Surface(0, 3), A1)
    upper = stack(d, d)  # one crossing, kept in its geometry record
    scan = engine._scan

    def faulty(product, fixed=0, known=()):
        errors, found, fr = scan(product, fixed, known)
        if fault == "lost":
            return errors, [xc for xc in found if xc[1][0] < fixed], fr
        return errors, found + [((F(9), F(9)), (fixed, 0), (fixed, 1))], fr

    monkeypatch.setattr(engine, "_scan", faulty)
    with pytest.raises(DiagramError, match=f"the upper layer {fault} a crossing"):
        stack(d, upper)


def test_stack_memo_covers_geometry_only():
    # The product carries its crossings, but its over/under entries are
    # checked against them on every call.
    d = generator_diagram(Surface(0, 3), A1)
    s = stack(d, d)
    (key,) = s.over
    s.over[key] = "x"
    assert validate(s) == [f"over/under value for {key} must be 'a' or 'b'"]
    with pytest.raises(DiagramError):
        evaluate(s)
    del s.over[key]
    assert validate(s) == [f"crossing {key} has no over/under entry"]
    with pytest.raises(DiagramError):
        evaluate(s)


def test_two_puncture_loop_oracle_equivalence():
    # engine route
    d = Diagram(3, (loop_component(F(3, 2), F(7, 2)),), {})
    engine = evaluate(d)
    # rearranged route via the square expansion of the arc between p2 and p3
    s3 = Surface(0, 3)
    square = nf(
        s3,
        AlgElement.from_word((A1, A1), 3) * (v_power(2, 3) * v_power(3, 3)),
    )
    A = a_power(1, 3)
    rearranged = square - AlgElement.from_scalar(
        A * puncture_loop_scalar(3)
        + loop_scalar(3)
        + a_power(-1, 3) * puncture_loop_scalar(3)
    )
    assert engine == nf(s3, rearranged)
    assert engine == AlgElement.from_scalar(puncture_loop_scalar(3))


# ---------------------------------------------------------------------------
# invariance: R2 insertion, resolution order, R3
# ---------------------------------------------------------------------------


def _finger_cases():
    """(base diagram, fingered diagram) pairs differing by one R2 clasp."""
    cases = []
    arcs = ((1, 2), (2, 3), (1, 3))
    for i, j in arcs:
        m = F(i + j, 2)
        for k, l in arcs:
            if not min(k, l) <= m <= max(k, l):
                continue  # the detour would route the arc across itself
            for dip in (F(1, 2), F(1, 4)):
                base = layered(3, [tent(3, i, j, 0), plateau_arc(3, k, l, m, 1)])
                fingered = layered(
                    3, [tent(3, i, j, 0), plateau_arc(3, k, l, m, 1, dip=dip)]
                )
                cases.append((base, fingered))
    # loop against loop, on several puncture counts and both clasp flavors
    for n in (0, 2, 3):
        lo = loop_component(F(1, 4), F(15, 4), F(-1, 2), F(1, 2))
        hi = loop_component(F(3, 4), F(13, 4), 2, 3)
        hi_fingered = Component(
            pts(("3/4", 2), ("3/2", 2), ("7/4", "1/4"), (2, 2), ("13/4", 2), ("13/4", 3), ("3/4", 3)),
            True,
        )
        base = Diagram(n, (lo, hi), {})
        assert validate(base) == []
        d0 = Diagram(n, (lo, hi_fingered), {})
        for label in ("a", "b"):
            over = {key: label for key, _ in diagram_crossings(d0)}
            cases.append((base, Diagram(n, (lo, hi_fingered), over)))
    return cases


def test_r2_insertion_invariance():
    cases = _finger_cases()
    assert len(cases) >= 20
    for base, fingered in cases:
        assert validate(base) == []
        assert validate(fingered) == []
        extra = len(diagram_crossings(fingered)) - len(diagram_crossings(base))
        assert extra == 2
        assert evaluate(fingered) == evaluate(base)


def test_pair_resolution_order_independence():
    s3 = Surface(0, 3)
    diagrams = []
    for gi in GENS_A3:
        for gj in GENS_A3:
            diagrams.append(stack(generator_diagram(s3, gi), generator_diagram(s3, gj)))
    for gi, gj, gk in ((A1, A2, A3), (A3, A3, A1), (A2, A1, A2), (A1, A3, A2), (A2, A3, A1)):
        diagrams.append(
            stack(
                stack(generator_diagram(s3, gi), generator_diagram(s3, gj)),
                generator_diagram(s3, gk),
            )
        )
    # two-arc ladders built by hand
    for apex2 in (2, 3):
        diagrams.append(
            Diagram(2, (tent(2, 1, 2, 0, apex=1), tent(2, 1, 2, 1, apex=apex2)), {})
        )
    for n in (2, 3):
        diagrams.append(
            Diagram(
                n,
                (
                    tent(n, 1, 2, 0, apex=1),
                    Component(
                        pts((1, 0), ("5/4", 2), ("7/4", 2), (2, 0)),
                        False,
                        Attachment(1, 1),
                        Attachment(2, 1),
                    ),
                ),
                {},
            )
        )
    for n in (2, 3):
        comp = Component(
            pts((1, 0), ("1/2", 1), ("3/2", 2), (1, 0)),
            False,
            Attachment(1, 0),
            Attachment(1, 1),
        )
        diagrams.append(Diagram(n, (comp,), {}))
    assert len(diagrams) >= 20
    for idx, d in enumerate(diagrams):
        base = evaluate(d)
        for seed in (1, 2):
            assert evaluate(d, rng=random.Random(1000 * idx + seed)) == base


def _r3_strands(n, y_plateau, transversal_height):
    b1 = Component(pts((1, 0), ("5/4", 1), (2, 0)), False, Attachment(1, 0), Attachment(2, 0))
    b2 = Component(pts((1, 0), ("7/4", 1), (2, 0)), False, Attachment(1, 1), Attachment(2, 1))
    b3 = Component(
        pts((1, 0), ("5/4", y_plateau), ("7/4", y_plateau), (2, 0)),
        False,
        Attachment(1, transversal_height),
        Attachment(2, transversal_height),
    )
    comps = (b1, b2, b3)
    d0 = Diagram(n, comps, {})
    heights = {0: 0, 1: 1, 2: transversal_height}
    over = {}
    for (ka, kb), _ in diagram_crossings(d0):
        over[(ka, kb)] = "a" if heights[ka[0]] > heights[kb[0]] else "b"
    return Diagram(n, comps, over)


def test_r3_move_invariance():
    checked = 0
    for n in (2, 3):
        for h3 in (2, -1):
            for above, below in (("7/8", "1/2"), ("13/16", "7/16")):
                da = _r3_strands(n, above, h3)
                db = _r3_strands(n, below, h3)
                assert len(diagram_crossings(da)) == 3
                assert len(diagram_crossings(db)) == 3
                assert evaluate(da) == evaluate(db)
                checked += 1
    assert checked >= 5


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_json_round_trip():
    s3 = Surface(0, 3)
    d = stack(generator_diagram(s3, A1), generator_diagram(s3, A2))
    text = dumps_diagram(d)
    back = loads_diagram(text)
    assert back.n == d.n
    assert back.components == d.components
    assert back.over == d.over
    assert evaluate(back) == evaluate(d)


def test_json_rational_coordinates():
    d = Diagram(3, (loop_component(F(3, 2), F(7, 2)),), {})
    obj = diagram_to_dict(d)
    assert obj["components"][0]["points"][0] == ["3/2", "-1/2"]
    assert diagram_from_dict(obj).components == d.components


def test_json_malformed():
    with pytest.raises(DiagramError):
        loads_diagram("{not json")
    with pytest.raises(DiagramError):
        loads_diagram('{"n": 1, "components": [{"points": "nope"}]}')
    for hostile in (
        '{"n": 2, "components": [], "over_under": [{"a": [0], "b": [1, 1], "over": "a"}]}',
        '{"n": 1e400, "components": []}',
        '{"n": 2, "components": [{"points": [[1, 0], [2, 0]],'
        ' "start": {"puncture": 1, "height": 1e400}, "end": {"puncture": 2, "height": 0}}]}',
    ):
        with pytest.raises(DiagramError):
            loads_diagram(hostile)


def test_evaluate_rejects_large_n():
    for n in (4, 1):
        with pytest.raises(DiagramError):
            evaluate(empty_diagram(n))


def test_evaluate_rejects_invalid_diagram():
    comp = Component(pts((1, 0), ("3/2", 1)), False, Attachment(1, 0), Attachment(2, 0))
    with pytest.raises(DiagramError):
        evaluate(Diagram(2, (comp,), {}))
