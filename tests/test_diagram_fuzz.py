"""Deterministic fuzzing of the diagram engine on random valid diagrams.

Diagrams are random rational polylines kept when they pass ``validate``:
n in {0, 2, 3}, at most four crossings, over/under chosen at random.
Hypothesis runs derandomized, so every run checks the same examples.
"""

from fractions import Fraction as F
from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from arcalg import (  # noqa: E402
    Attachment,
    Component,
    Diagram,
    DiagramError,
    Surface,
    diagram_crossings,
    evaluate,
    nf,
    stack,
    validate,
)
from arcalg.diagrams import puncture_position  # noqa: E402

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

POINTS = st.builds(
    lambda x, y: (F(x, 4), F(y, 4)), st.integers(-4, 16), st.integers(-8, 8)
)


@st.composite
def diagrams(draw, ns=(0, 2, 3), max_components=3, max_crossings=4):
    n = draw(st.sampled_from(ns))
    shapes = []
    for _ in range(draw(st.integers(1, max_components))):
        if n and draw(st.integers(0, 3)):  # mostly arcs
            i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
            inner = draw(st.lists(POINTS, min_size=1, max_size=3))
            shapes.append(((puncture_position(i), *inner, puncture_position(j)), (i, j)))
        else:
            shapes.append((tuple(draw(st.lists(POINTS, min_size=3, max_size=5))), None))
    # distinct heights everywhere, in a random order
    heights = iter(draw(st.permutations(range(2 * len(shapes)))))
    comps = []
    for points, ends in shapes:
        if ends is None:
            comps.append(Component(points, True))
        else:
            start, end = (Attachment(p, next(heights)) for p in ends)
            comps.append(Component(points, False, start, end))
    try:
        keys = [key for key, _ in diagram_crossings(Diagram(n, comps, {}))]
    except DiagramError:
        assume(False)
    assume(len(keys) <= max_crossings)
    labels = draw(st.lists(st.sampled_from("ab"), min_size=len(keys), max_size=len(keys)))
    d = Diagram(n, comps, dict(zip(keys, labels)))
    assume(validate(d) == [])
    return d


@settings(FUZZ, max_examples=60)
@given(diagrams(), st.integers(0, 2**16))
def test_evaluate_independent_of_pick_order(d, seed):
    assert evaluate(d) == evaluate(d, rng=Random(seed))


# Factors with at most two crossings and products with at most six keep
# each example to milliseconds.
@settings(FUZZ, max_examples=25)
@given(diagrams(ns=(2, 3), max_components=2, max_crossings=2), st.data())
def test_stack_is_the_product(d1, data):
    d2 = data.draw(diagrams(ns=(d1.n,), max_components=2, max_crossings=2))
    try:
        stacked = stack(d1, d2)
    except DiagramError:
        assume(False)
    assume(len(stacked.over) <= 6)
    assert evaluate(stacked) == nf(Surface(0, d1.n), evaluate(d1) * evaluate(d2))


# A product carries the crossings that stack found; a rebuilt copy of it,
# scanned afresh, must find the same ones and be valid.
@settings(FUZZ, max_examples=25)
@given(diagrams(ns=(2, 3), max_components=2, max_crossings=2), st.data())
def test_stacked_crossings_are_a_fresh_scan(d1, data):
    d2 = data.draw(diagrams(ns=(d1.n,), max_components=2, max_crossings=2))
    d3 = data.draw(diagrams(ns=(d1.n,), max_components=2, max_crossings=2))
    once = stack(d1, d2)
    for product in (once, stack(once, d3)):
        rebuilt = Diagram(product.n, product.components, dict(product.over))
        assert diagram_crossings(rebuilt) == diagram_crossings(product)
        assert validate(rebuilt) == []
