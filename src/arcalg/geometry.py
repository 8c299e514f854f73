"""Exact integer plane geometry for the diagram engine.

Each diagram is scaled once by the lcm of its coordinates' denominators
(``frame``), so every predicate is the sign of an integer cross or dot
product.  Fractions remain at the boundary only: a component's points and a
crossing's position.  No floating point anywhere.  A direction is any
nonzero vector along it; the sign of ``cross`` compares two exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

Point = tuple[Fraction, Fraction]
Vec = tuple[int, int]

__all__ = ["Point", "Vec", "frame", "vsub", "vadd", "cross", "dot", "SegHit", "segment_hit",
           "on_segment_interior", "winding_number"]


def frame(polylines: Iterable[Sequence[Point]]) -> tuple[int, tuple[tuple[Vec, ...], ...]]:
    """(L, the points times L): L is the lcm of the coordinates' denominators."""
    ratios = [[(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in pts] for pts in polylines]
    scale = lcm(*{d for pts in ratios for p in pts for _, d in p})
    return scale, tuple(tuple((xn * (scale // xd), yn * (scale // yd)) for (xn, xd), (yn, yd) in pts) for pts in ratios)


def vsub(a: Point, b: Point) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vadd(a: Point, b: Vec) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def cross(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec, v: Vec) -> int:
    return u[0] * v[0] + u[1] * v[1]


class SegHit(NamedTuple):
    """Classification of how two closed segments meet."""

    kind: str  # "cross" | "touch" | "overlap"
    point: Point | None = None


def segment_hit(p1: Vec, p2: Vec, p3: Vec, p4: Vec) -> SegHit | None:
    """Exact intersection of segments [p1,p2] and [p3,p4] with integer ends.

    "cross" means a transverse double point interior to both segments;
    "touch" is any contact involving a segment endpoint; "overlap" is a
    collinear intersection in more than one point.  Only the point of a
    cross or touch is a pair of fractions.
    """
    d1, d2, w = vsub(p2, p1), vsub(p4, p3), vsub(p3, p1)
    denom = cross(d1, d2)
    if denom == 0:
        if cross(d1, w) != 0:
            return None  # parallel, distinct lines
        # Collinear: positions along d1, in units of 1 / dot(d1, d1).
        s, t3, t4 = dot(d1, d1), dot(w, d1), dot(vsub(p4, p1), d1)
        lo, hi = max(0, min(t3, t4)), min(s, max(t3, t4))
        if lo > hi:
            return None
        if lo == hi:
            return SegHit("touch", (p1[0] + Fraction(lo * d1[0], s), p1[1] + Fraction(lo * d1[1], s)))
        return SegHit("overlap")
    t, u = cross(w, d2), cross(w, d1)  # the parameters along d1 and d2, times denom
    if denom < 0:
        denom, t, u = -denom, -t, -u
    if not (0 <= t <= denom and 0 <= u <= denom):
        return None
    x = (p1[0] + Fraction(t * d1[0], denom), p1[1] + Fraction(t * d1[1], denom))
    return SegHit("cross" if 0 < t < denom and 0 < u < denom else "touch", x)


def on_segment_interior(x: Vec, a: Vec, b: Vec) -> bool:
    """Is x strictly inside segment [a, b]?"""
    ab, ax = vsub(b, a), vsub(x, a)
    return cross(ab, ax) == 0 and 0 < dot(ax, ab) < dot(ab, ab)


def winding_number(points: Sequence[Vec], q: Vec) -> int:
    """Winding number of the closed polygon around q (q off the polygon)."""
    w = 0
    for a, b in zip(points, [*points[1:], *points[:1]]):
        if a[1] <= q[1] < b[1] and cross(vsub(b, a), vsub(q, a)) > 0:
            w += 1
        elif b[1] <= q[1] < a[1] and cross(vsub(b, a), vsub(q, a)) < 0:
            w -= 1
    return w
