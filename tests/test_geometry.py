"""The integer predicates of the diagram engine against rational references.

Points are drawn on fine rational grids, scaled into one integer frame as
the engine scales a diagram, and every answer is compared with the
fraction-coordinate reference in ``bruteforce``: the kind and point of each
segment hit, the counterclockwise order of edge ends, and the signed ray
crossings.
"""

from fractions import Fraction as F
from functools import cmp_to_key
from itertools import product
from random import Random

import bruteforce
from arcalg.diagrams import _angle_order, _ray_crossing
from arcalg.geometry import frame, segment_hit


def _in_frame(*points):
    scale, (ints,) = frame([points])
    return scale, ints


def _check_hit(p1, p2, p3, p4):
    scale, ints = _in_frame(p1, p2, p3, p4)
    hit, expected = segment_hit(*ints), bruteforce.segment_hit(p1, p2, p3, p4)
    if expected is None or expected.point is None:
        assert hit == expected, (p1, p2, p3, p4)
    else:
        assert hit.kind == expected.kind, (p1, p2, p3, p4)
        assert (hit.point[0] / scale, hit.point[1] / scale) == expected.point, (p1, p2, p3, p4)
    return hit


def test_segment_hit_matches_the_rational_reference():
    rng = Random(17)
    kinds = set()
    for i in range(10000):
        # a coarse grid makes parallel, collinear and shared points common
        den = rng.choice((1, 2, 3, 7, 12)) if i % 2 else 1
        lim = rng.choice((2, 3, 40))
        ends = [(F(rng.randint(-lim, lim), den), F(rng.randint(-lim, lim), den)) for _ in range(4)]
        if ends[0] == ends[1] or ends[2] == ends[3]:
            continue
        hit = _check_hit(*ends)
        kinds.add(hit and hit.kind)
    assert kinds == {None, "cross", "touch", "overlap"}


def test_segment_hit_edge_cases():
    p = lambda x, y: (F(x), F(y))
    cases = {
        "parallel": (p(0, 0), p(2, 1), p(0, 1), p(2, 2)),
        "collinear apart": (p(0, 0), p(1, 1), p(2, 2), p(3, 3)),
        "collinear touching": (p(0, 0), p(1, 1), p(1, 1), p(3, 3)),
        "collinear touching reversed": (p(3, 3), p(1, 1), p(0, 0), p(1, 1)),
        "overlap": (p(0, 0), p(2, 0), p(1, 0), p(3, 0)),
        "vertical overlap": (p(0, 0), p(0, 2), p(0, 3), p(0, "1/2")),
        "contained": (p(0, 0), p(4, 2), p(2, 1), p(1, "1/2")),
        "end on interior": (p(0, 0), p(2, 2), p(1, 1), p(3, 0)),
        "end at puncture": (p(1, 0), p("3/2", 1), p(1, 0), p("1/2", 1)),
        "adjacent": (p(0, 0), p(1, 2), p(1, 2), p(3, 0)),
        "adjacent fold-back": (p(0, 0), p(2, 2), p(2, 2), p(1, 1)),
        "cross": (p(0, 0), p(1, 1), p(0, 1), p(1, 0)),
        "cross off grid": (p(0, 0), p("1/3", "2/7"), p(0, "1/5"), p("1/2", 0)),
    }
    got = {name: _check_hit(*ends) for name, ends in cases.items()}
    assert [name for name, hit in got.items() if hit is None] == ["parallel", "collinear apart"]
    assert {name for name, hit in got.items() if hit and hit.kind == "overlap"} == {
        "overlap", "vertical overlap", "contained", "adjacent fold-back"
    }
    assert got["cross off grid"].kind == "cross"


def test_angle_order_matches_the_rational_key():
    rng = Random(18)
    dirs = [d for d in product(range(-6, 7), repeat=2) if d != (0, 0)]
    for _ in range(300):
        sample = [(d, e) for e, d in enumerate(rng.sample(dirs, rng.randint(1, 8)))]
        sample.append(((0, 1), -1))  # the ray, before an end pointing straight up
        sample.append(((0, 2), len(sample)))
        expected = sorted(sample, key=lambda de: (bruteforce.angle(de[0]), de[1]))
        assert sorted(sample, key=cmp_to_key(_angle_order)) == expected


def test_ray_crossing_matches_a_tilted_ray():
    rng = Random(19)
    counts = set()
    for i in range(10000):
        den = rng.choice((1, 2, 4, 5))
        a, b, q = ((F(rng.randint(-3, 3), den), F(rng.randint(-3, 3), den)) for _ in range(3))
        if a == b:
            continue
        # in the frame, a vertex is integral and a crossing may not be
        _, (ia, ib, iq) = _in_frame(a, b, q)
        count = _ray_crossing(ia, ib, iq) if i % 2 else _ray_crossing(a, b, q)
        assert count == bruteforce.ray_crossing(a, b, q), (a, b, q)
        counts.add(count)
    assert counts == {-1, 0, 1}
