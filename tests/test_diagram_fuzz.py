"""Deterministic fuzzing of the diagram engine on random valid diagrams.

Diagrams are random rational polylines kept when they pass ``validate``:
n in {0, 2, 3}, at most four crossings, over/under chosen at random.
Hypothesis runs derandomized, so every run checks the same examples.  The
same drawing, driven by a fixed ``Random``, gives the corpus whose results
are pinned by a hash.
"""

import hashlib
from fractions import Fraction as F
from functools import reduce
from itertools import product
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
    dumps_diagram,
    evaluate,
    generator_diagram,
    nf,
    resolve_fully,
    stack,
    validate,
)
from arcalg.diagrams import _geometry, puncture_position  # noqa: E402
from arcalg.presentations import GENS_A3  # noqa: E402

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def draw_diagram(integers, ns=(0, 2, 3), max_components=3, max_crossings=4):
    """A random valid diagram on the 1/4 grid, or None if the draw is
    rejected; ``integers(lo, hi)`` draws an int in [lo, hi] (hypothesis or
    ``Random.randint``)."""
    n = ns[integers(0, len(ns) - 1)]
    point = lambda: (F(integers(-4, 16), 4), F(integers(-8, 8), 4))
    shapes = []
    for _ in range(integers(1, max_components)):
        if n and integers(0, 3):  # mostly arcs
            i, j = integers(1, n), integers(1, n)
            inner = tuple(point() for _ in range(integers(1, 3)))
            shapes.append(((puncture_position(i), *inner, puncture_position(j)), (i, j)))
        else:
            shapes.append((tuple(point() for _ in range(integers(3, 5))), None))
    # distinct heights everywhere, in a random order
    heights = list(range(2 * len(shapes)))
    for k in range(len(heights) - 1, 0, -1):
        m = integers(0, k)
        heights[k], heights[m] = heights[m], heights[k]
    heights = iter(heights)
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
        return None
    if len(keys) > max_crossings:
        return None
    d = Diagram(n, comps, {key: "ab"[integers(0, 1)] for key in keys})
    return d if validate(d) == [] else None


@st.composite
def diagrams(draw, **kwargs):
    d = draw_diagram(lambda lo, hi: draw(st.integers(lo, hi)), **kwargs)
    assume(d is not None)
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


# A product keeps the geometry record (errors, crossings, frame) that stack
# made; a rebuilt copy of it, scanned afresh, must make the same one and be
# valid.
@settings(FUZZ, max_examples=25)
@given(diagrams(ns=(2, 3), max_components=2, max_crossings=2), st.data())
def test_stacked_crossings_are_a_fresh_scan(d1, data):
    d2 = data.draw(diagrams(ns=(d1.n,), max_components=2, max_crossings=2))
    d3 = data.draw(diagrams(ns=(d1.n,), max_components=2, max_crossings=2))
    once = stack(d1, d2)
    for product in (once, stack(once, d3)):
        rebuilt = Diagram(product.n, product.components, dict(product.over))
        assert diagram_crossings(rebuilt) == diagram_crossings(product)
        assert _geometry(rebuilt) == _geometry(product)
        assert validate(rebuilt) == []


# sha256 of the documents, crossings and terminal states of ``_pinned_corpus``:
# any change of geometry (scans, stacking moves) or of resolution changes it.
DIAGRAM_CORPUS_SHA256 = "ba0fdcc1a19a2b44e54f32c0857a03c44d986f78159c87914609b728f684df6a"


def _pinned_corpus():
    """300 diagrams drawn by ``draw_diagram`` from a fixed ``Random``, every
    stacked F0,3 product of length 1 to 3, and the R3 strand diagrams."""
    rng, drawn = Random(20261019), []
    while len(drawn) < 300:
        d = draw_diagram(rng.randint)
        if d is not None:
            drawn.append(d)
    layer = {g: generator_diagram(Surface(0, 3), g) for g in GENS_A3}
    for k in (1, 2, 3):
        drawn += [reduce(stack, (layer[g] for g in word)) for word in product(GENS_A3, repeat=k)]
    from test_diagrams import _r3_strands

    drawn += [_r3_strands(n, y, h) for n in (2, 3) for h in (2, -1) for y in ("7/8", "1/2", "13/16", "7/16")]
    return drawn


def test_diagram_results_match_the_pinned_hash():
    h = hashlib.sha256()
    for i, d in enumerate(_pinned_corpus()):
        h.update(f"{i}: {dumps_diagram(d)} {diagram_crossings(d)}\n".encode())
        if d.n != 1:
            for rng in (None, Random(i)):
                for ws in resolve_fully(d, rng):
                    h.update(f"{' '.join(map(str, ws.word))}: {ws.coefficient}\n".encode())
    assert h.hexdigest() == DIAGRAM_CORPUS_SHA256
