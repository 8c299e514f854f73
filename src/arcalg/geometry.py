"""Exact rational plane geometry for the diagram engine.

Points are pairs of fractions; no floating point anywhere.  A direction is
any nonzero vector along it; the sign of ``cross`` compares two exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

Point = tuple[Fraction, Fraction]
Vec = tuple[Fraction, Fraction]
Dir = tuple[int, int]

__all__ = [
    "Point", "Vec", "Dir", "vsub", "vadd", "cross", "dot", "SegHit", "segment_hit", "on_segment_interior",
    "winding_number",
]


def vsub(a: Point, b: Point) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vadd(a: Point, b: Vec) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def cross(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


def dot(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


class SegHit(NamedTuple):
    """Classification of how two closed segments meet."""

    kind: str  # "cross" | "touch" | "overlap"
    point: Point | None = None


def segment_hit(p1: Point, p2: Point, p3: Point, p4: Point) -> SegHit | None:
    """Exact intersection of segments [p1,p2] and [p3,p4].

    "cross" means a transverse double point interior to both segments;
    "touch" is any contact involving a segment endpoint; "overlap" is a
    collinear intersection in more than one point.
    """
    d1 = vsub(p2, p1)
    d2 = vsub(p4, p3)
    denom = cross(d1, d2)
    w = vsub(p3, p1)
    if denom == 0:
        if cross(d1, w) != 0:
            return None  # parallel, distinct lines
        # Collinear: compare 1-d parameters along d1.
        axis = 0 if d1[0] != 0 else 1
        t3 = (p3[axis] - p1[axis]) / d1[axis]
        t4 = (p4[axis] - p1[axis]) / d1[axis]
        lo, hi = min(t3, t4), max(t3, t4)
        inter_lo, inter_hi = max(Fraction(0), lo), min(Fraction(1), hi)
        if inter_lo > inter_hi:
            return None
        if inter_lo == inter_hi:
            return SegHit("touch", (p1[0] + inter_lo * d1[0], p1[1] + inter_lo * d1[1]))
        return SegHit("overlap")
    t = cross(w, d2) / denom
    u = cross(w, d1) / denom
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return None
    x = (p1[0] + t * d1[0], p1[1] + t * d1[1])
    if 0 < t < 1 and 0 < u < 1:
        return SegHit("cross", x)
    return SegHit("touch", x)


def on_segment_interior(x: Point, a: Point, b: Point) -> bool:
    """Is x strictly inside segment [a, b]?"""
    if cross(vsub(b, a), vsub(x, a)) != 0:
        return False
    t = dot(vsub(x, a), vsub(b, a))
    return 0 < t < dot(vsub(b, a), vsub(b, a))


def winding_number(points: Sequence[Point], q: Point) -> int:
    """Winding number of the closed polygon around q (q off the polygon)."""
    w = 0
    qy = q[1]
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        if a[1] <= qy < b[1] and cross(vsub(b, a), vsub(q, a)) > 0:
            w += 1
        elif b[1] <= qy < a[1] and cross(vsub(b, a), vsub(q, a)) < 0:
            w -= 1
    return w
