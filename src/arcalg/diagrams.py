"""Planar framed-curve diagrams on punctured spheres and the skein evaluator.

A diagram lives in the plane with punctures at (1,0), ..., (n,0); the plane
plus its point at infinity models the n-punctured sphere.  Components are
piecewise-linear with exact rational coordinates: closed polylines avoid
the punctures, open polylines begin and end exactly at puncture positions,
at pairwise distinct integer heights per puncture.  Every transverse double
point carries over/under data; general position (no tangencies, no triple
points, no crossings at punctures) is enforced exactly, on integers (see
``_geometry``); fractions remain at the boundary only: points and crossings.

The evaluator is Kauffman's state model, extended by the puncture-skein and
puncture-framing relations of the arc algebra.  Exact geometry runs once
per diagram, which keeps its crossings (``stack`` scans a product's upper
layer only); the components are cut at them into edges, each crossing
gets its A- and B-pairing from the directions of its four edge ends, the
ends at each puncture and its ray are put in counterclockwise order (their
slots), and each edge gets its signed crossing count with every puncture's
ray, packed into one int with one balanced digit per puncture.  Every
diagram has the same rays: straight up, turned clockwise by less than any
of its angles, so a point on a ray counts once.  Resolution after that
reads only slots and packed counts; it pairs ends, which joins two open
paths or closes a curve, and adds the packed counts along each path:

* a crossing is resolved into its two smoothings with coefficients A and
  A^-1 (the A-smoothing opens the two regions swept by rotating the over
  strand counterclockwise onto the under strand, so each over-strand end
  joins the under-strand end clockwise from it; a positive kink then
  carries the usual -A^3 framing factor);
* a height-adjacent pair of ends at puncture i is joined by a detour around
  the puncture with coefficients v_i^-1 A^(1/2) (the higher strand turns
  left: the detour sweeps clockwise from its slot to the lower end's slot)
  and v_i^-1 A^(-1/2) (counterclockwise).  The detour crosses the ends
  whose slots lie strictly inside its wedge; those crossings are
  over/under by height and are resolved in turn, and each crossed end
  stays at the puncture through a short stub in its slot;
* a closed curve encloses the punctures around which the ray counts of
  its edges sum to a nonzero winding number (the nonzero digits of its
  packed count).  On the sphere it is a scalar whenever min(|enclosed|,
  n - |enclosed|) <= 1, which holds for every n <= 3: -A^2 - A^-2 for 0
  and A + A^-1 for 1.

Evaluation is defined for n = 0, 2 and 3.  On the once-punctured sphere a
loop around the puncture is isotopic through infinity to a loop beside it,
while the two relations give them different values, so n = 1 is rejected.

The pair (puncture-end count, crossing count) decreases lexicographically
at every step, so resolution terminates.  It runs in that order, one
frontier step per measure: the states of a step are merged by their key
(pending crossings, puncture ends, open paths with their ray counts) before
any is expanded.  A state is its key and carries no coefficient; the
merged coefficient beside it counts its branches by their power of A^(1/2)
and their loops.  So the work follows the distinct states, not the
branches, as in Bar-Natan's divide and conquer.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cmp_to_key
from itertools import count
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from . import presentations, ring
from .freealg import AlgElement, Generator, Word
from .geometry import Point, Vec, cross, dot, frame, on_segment_interior, segment_hit, vadd, vsub
from .geometry import winding_number  # noqa: F401  (unused here; the attribute bench/tracing.py wraps)
from .ring import LaurentPoly, Monomial

__all__ = [
    "DiagramError", "EvaluationBudgetExceeded", "STATE_BUDGET", "SEGMENT_BUDGET", "Attachment", "Component",
    "Diagram", "WeightedState", "CrossKey", "puncture_position", "validate", "diagram_crossings", "evaluate",
    "resolve_fully", "stack", "empty_diagram", "arc_diagram", "generator_diagram", "loop_component",
    "diagram_to_dict", "diagram_from_dict", "dumps_diagram", "loads_diagram",
]


class DiagramError(ValueError):
    def __init__(self, errors: Sequence[str] | str):
        if isinstance(errors, str):
            errors = [errors]
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def puncture_position(i: int) -> Point:
    return (Fraction(i), Fraction(0))


@dataclass(frozen=True)
class Attachment:
    puncture: int
    height: int


@dataclass(frozen=True)
class Component:
    points: tuple[Point, ...]
    closed: bool = False
    start: Attachment | None = None
    end: Attachment | None = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))  # fixed: diagrams keep crossings

    def segment_count(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1


CrossKey = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Diagram:
    n: int
    components: tuple[Component, ...]
    over: Mapping[CrossKey, str] = None  # crossing id -> "a" | "b"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "over", dict(self.over or {}))
        object.__setattr__(self, "_geometry", None)  # what _geometry found


@dataclass(frozen=True)
class WeightedState:
    """A terminal state of the merged resolution: the word of its arcs,
    ordered by height, and its coefficient summed over every branch that
    ends in that word, with the loops folded in as scalars."""

    coefficient: LaurentPoly
    word: Word


_XC = tuple[Point, tuple[int, int], tuple[int, int]]  # (point, (comp, seg), (comp, seg))


# ---------------------------------------------------------------------------
# exact scanning: general-position errors and crossings
# ---------------------------------------------------------------------------


def _adjacent(c: Component, k1: int, k2: int) -> bool:
    m = c.segment_count()
    if c.closed:
        return (k1 - k2) % m in (1, m - 1)
    return abs(k1 - k2) == 1


def _scan(d: Diagram, fixed: int = 0, known=()) -> tuple[list[str], list[_XC], tuple]:
    """General-position errors and transverse crossings among d's segments,
    and d's integer frame (``geometry.frame`` of its components).

    The first ``fixed`` components stay as they were: two of their segments
    are not compared, as their crossings are ``known`` and join the result,
    and their segments are not tested against the punctures."""
    errors, crossings = [], []
    comps, (scale, frames) = d.components, frame(c.points for c in d.components)
    punctures = {(i * scale, 0): i for i in range(1, d.n + 1)}
    # (sid, k, point) where segment k of an open curve legally ends at point
    ends = {(sid, k, pts[i]) for sid, (c, pts) in enumerate(zip(comps, frames)) if not c.closed
            for k, i in ((0, 0), (len(pts) - 2, -1))}
    segs: list[tuple[int, int, Vec, Vec, tuple]] = []
    for sid, (c, pts) in enumerate(zip(comps, frames)):
        for k in range(c.segment_count()):
            a, b = pts[k], pts[(k + 1) % len(pts)]
            segs.append((sid, k, a, b, (*sorted((a[0], b[0])), *sorted((a[1], b[1])))))

    total, lead = len(segs), sum(c.segment_count() for c in comps[:fixed])
    for idx1 in range(total):
        sid1, k1, a1, b1, box1 = segs[idx1]
        comp1 = comps[sid1]
        for q, qi in punctures.items() if idx1 >= lead else ():
            if box1[0] <= q[0] <= box1[1] and box1[2] <= q[1] <= box1[3]:
                if on_segment_interior(q, a1, b1):
                    errors.append(f"segment ({sid1},{k1}) passes through puncture {qi}")
                for endpoint in (a1, b1):
                    if endpoint == q and (sid1, k1, q) not in ends:
                        errors.append(f"vertex of component {sid1} lies at puncture {qi}")
        for idx2 in range(max(idx1 + 1, lead), total):
            sid2, k2, a2, b2, box2 = segs[idx2]
            hit = None
            if box1[0] <= box2[1] and box2[0] <= box1[1] and box1[2] <= box2[3] and box2[2] <= box1[3]:
                hit = segment_hit(a1, b1, a2, b2)
            if hit is None:
                continue
            if sid1 == sid2 and _adjacent(comp1, k1, k2):
                # Adjacent segments legally share one vertex; anything more is
                # a fold-back (two common points force a common line).
                if hit.kind == "overlap":
                    errors.append(f"component {sid1} doubles back at segment {min(k1, k2)}")
                continue
            if hit.kind == "overlap":
                errors.append(f"segments ({sid1},{k1}) and ({sid2},{k2}) overlap")
                continue
            p = hit.point
            if hit.kind == "cross":
                crossings.append(((p[0] / scale, p[1] / scale), (sid1, k1), (sid2, k2)))
            elif not (p in punctures and (sid1, k1, p) in ends and (sid2, k2, p) in ends):
                p = (p[0] / scale, p[1] / scale)  # a touch, unless distinct ends meet at their shared puncture
                errors.append(f"non-transverse contact of ({sid1},{k1}) and ({sid2},{k2}) at {p}")
    crossings += known
    crossings.sort(key=itemgetter(1, 2))  # (a no-op without ``known``)
    seen: set[Point] = set()
    for xc in crossings:
        if xc[0] in seen:
            errors.append(f"three strands meet at {xc[0]}")
        seen.add(xc[0])
    return errors, crossings, (scale, frames)


def _structural_errors(d: Diagram) -> list[str]:
    errors = []
    if d.n < 0:
        errors.append("puncture count must be nonnegative")
    heights: dict[int, set[int]] = {}
    for ci, c in enumerate(d.components):
        pts = c.points
        if c.closed:
            if c.start is not None or c.end is not None:
                errors.append(f"component {ci}: closed curves have no attachments")
            if len(pts) < 3:
                errors.append(f"component {ci}: closed curves need at least 3 points")
        else:
            if len(pts) < 2:
                errors.append(f"component {ci}: open curves need at least 2 points")
                continue
            for side, att, endpoint in (("start", c.start, pts[0]), ("end", c.end, pts[-1])):
                if att is None:
                    errors.append(f"component {ci}: open curve lacks a {side} attachment")
                    continue
                if not 1 <= att.puncture <= d.n:
                    errors.append(f"component {ci}: {side} puncture {att.puncture} out of range")
                    continue
                if endpoint != puncture_position(att.puncture):
                    errors.append(f"component {ci}: {side} point {endpoint} is not at puncture {att.puncture}")
                hs = heights.setdefault(att.puncture, set())
                if att.height in hs:
                    errors.append(f"puncture {att.puncture}: duplicate endpoint height {att.height}")
                hs.add(att.height)
        for k in range(c.segment_count()):
            if pts[k] == pts[(k + 1) % len(pts)]:
                errors.append(f"component {ci}: repeated consecutive point at index {k}")
    return errors


def _geometry(d: Diagram) -> tuple[tuple[str, ...], tuple[_XC, ...], tuple | None]:
    """The general-position violations of ``d``, its crossings, with the
    lower (component, segment) of each first, and its frame (None after a
    structural error), in that order.  They depend only on ``n`` and the
    components, so each diagram keeps them: one record, made by ``_scan``."""
    if d._geometry is None:
        errors = _structural_errors(d)
        errors, crossings, fr = (errors, (), None) if errors else _scan(d)
        object.__setattr__(d, "_geometry", (tuple(errors), tuple(crossings), fr))
    return d._geometry


def validate(d: Diagram) -> list[str]:
    """All general-position and attachment violations; [] means valid.  The
    over/under entries are checked on every call: ``d.over`` is mutable."""
    errors, crossings, _ = _geometry(d)
    if errors:
        return list(errors)
    found, declared = {(xc[1], xc[2]) for xc in crossings}, set(d.over)
    errors = [f"over/under entry {key} matches no crossing" for key in sorted(declared - found)]
    errors += [f"crossing {key} has no over/under entry" for key in sorted(found - declared)]
    return errors + [f"over/under value for {k} must be 'a' or 'b'" for k, v in d.over.items() if v not in ("a", "b")]


def diagram_crossings(d: Diagram) -> list[tuple[CrossKey, Point]]:
    """Crossing ids and their exact positions, in canonical order."""
    errors, crossings, _ = _geometry(d)
    if errors:
        raise DiagramError(errors)
    return sorted(((xc[1], xc[2]), xc[0]) for xc in crossings)


# ---------------------------------------------------------------------------
# geometry once: edges, their ends and their ray counts
# ---------------------------------------------------------------------------


def _ray_crossing(a: Vec, b: Vec, q: Vec) -> int:
    """Signed crossing of segment a->b with the ray from q, +1 counterclockwise.

    The ray goes straight up from q, turned clockwise by less than any angle
    of the diagram: a point on the line x = q.x lies left of it.  A segment
    crosses it iff one end lies left and cross(b - a, q - a) says it passes
    above q: a vertex on it counts once, and a segment from or to q never."""
    if (a[0] <= q[0]) == (b[0] <= q[0]):
        return 0
    s = 1 if b[0] <= q[0] else -1
    return s if s * cross(vsub(b, a), vsub(q, a)) > 0 else 0


def _angle_order(a: tuple[Vec, int], b: tuple[Vec, int]) -> int:
    """Compare (direction, end) pairs by the direction's counterclockwise angle
    in [0, 2 pi), by half-plane and then by cross product, and then by end."""
    (u, e), (v, f) = a, b
    lower = lambda r: r[1] < 0 or r[1] == 0 and r[0] < 0
    c = cross(v, u) if lower(u) == lower(v) else lower(u) - lower(v)
    return (c > 0) - (c < 0) or (e > f) - (e < f)


class _Skeleton:
    """The edge ends of one diagram and of every piece its resolution adds.

    Ends are integers and an edge is a pair of ends (e, e ^ 1).  The cyclic
    order at each puncture p is fixed once: its ends and its fixed ray (see
    ``_ray_crossing``; it comes just before an end that points straight up)
    take the slots 0 .. ``slots[p - 1]`` - 1 counterclockwise, ``slot[e]``
    is the slot of end e and ``ray_slot[p - 1]`` that of the ray.  Per end,
    ``count[e]`` packs the signed crossing counts of the edge, traversed
    from e, with the rays: the count with the ray from puncture q is the
    balanced base-2^``width`` digit q - 1, so a path's packed count is the
    sum of its edges'.  ``at[e]`` is the (puncture, height) of a puncture
    end.  ``smoothings[x]`` holds the A-pairing and the B-pairing of
    crossing x.  All entries are integers and are only ever appended, so
    all states of the resolution share one skeleton.

    A digit holds counts below 2^(width - 1) in absolute value.  A path uses
    each edge at most once and a straight segment crosses a ray at most
    once; a join's detour adds +-1 at its own puncture only, and each join
    removes two ends there.  So a path's count at one ray is at most the
    segment count plus half the ends at that puncture, which ``_skeleton``
    makes the width hold, and packed counts are equal iff their digits are.
    """

    def __init__(self, n: int, width: int):
        self.n, self.width = n, width
        self.count: list[int] = []
        self.at: dict[int, tuple[int, int]] = {}
        self.slot: dict[int, int] = {}
        self.ray_slot: list[int] = []
        self.slots: list[int] = []
        self.smoothings: list[tuple[tuple[tuple[int, int], ...], ...]] = []

    def pack(self, counts: Sequence[int]) -> int:
        return sum(c << self.width * q for q, c in enumerate(counts))

    def digits(self, packed: int) -> list[int]:
        w, half = self.width, 1 << self.width - 1
        packed += sum(half << w * q for q in range(self.n))  # so each digit plus half is a plain digit
        return [(packed >> w * q & 2 * half - 1) - half for q in range(self.n)]

    def edge(self, packed: int) -> int:
        e = len(self.count)
        self.count += [packed, -packed]
        return e


class _State(NamedTuple):
    """A state of the resolution, which is also its merge key: it carries no
    coefficient, as the steps that make it return their packed exponents.

    ``paths`` maps an open end of a grown curve to (far end, packed ray
    counts from the end); any other open end e has only its edge, (e ^ 1,
    count[e]).  ``pending`` holds the crossings still to smooth, and ``ends[p - 1]``
    the (height, end) pairs at puncture p, sorted by height.
    """

    paths: dict[int, tuple[int, int]]
    pending: tuple[int, ...]
    ends: tuple[tuple[tuple[int, int], ...], ...]


def _marks(crossings: Sequence[_XC]) -> dict[tuple[int, int], list]:
    """Per (component, segment), its crossings: (point, index) pairs."""
    marks: dict[tuple[int, int], list[tuple[Point, int]]] = {}
    for x, (point, key1, key2) in enumerate(crossings):
        marks.setdefault(key1, []).append((point, x))
        marks.setdefault(key2, []).append((point, x))
    return marks


def _skeleton(d: Diagram) -> tuple[_Skeleton, _State, int]:
    """Cut a valid diagram at its crossings into edges: (skeleton, root state, packed free loops)."""
    n, (_, crossings, (scale, frames)) = d.n, _geometry(d)
    punctures = [(q * scale, 0) for q in range(1, n + 1)]
    attached = [a.puncture for c in d.components if not c.closed for a in (c.start, c.end)]
    widest = sum(c.segment_count() for c in d.components) + max(map(attached.count, range(1, n + 1)), default=0) // 2
    sk = _Skeleton(n, widest.bit_length() + 1)  # a digit holds -widest .. widest (see _Skeleton)
    dirs: list[Vec] = []  # the outward direction of each end

    marks = _marks(crossings)
    at_crossing: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in crossings]
    at_puncture: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    free_loops: list[tuple[int, int]] = []

    def add_edge(run) -> int:
        pts = [point for point, _, _, _ in run]
        counts = [sum(_ray_crossing(a, b, q) for a, b in zip(pts, pts[1:])) for q in punctures]
        e = sk.edge(sk.pack(counts))
        dirs.extend((run[0][3], vsub((0, 0), run[-2][3])))
        for end, (_, x, key, _) in ((e, run[0]), (e ^ 1, run[-1])):
            if x is not None:
                at_crossing[x].append((end, key))
        return e

    for ci, (c, pts) in enumerate(zip(d.components, frames)):
        run = []  # (point, crossing or None, segment key, its segment's direction)
        for k in range(c.segment_count()):
            a, b = pts[k], pts[(k + 1) % len(pts)]
            ab = vsub(b, a)
            axis = 0 if ab[0] else 1
            run.append((a, None, None, ab))
            on_seg = sorted(marks.get((ci, k), ()), key=lambda px: px[0][axis], reverse=ab[axis] < 0)
            run.extend(((p[0] * scale, p[1] * scale), x, (ci, k), ab) for p, x in on_seg)
        nodes = [i for i, (_, x, _, _) in enumerate(run) if x is not None]
        if not c.closed:
            run.append((pts[-1], None, None, None))
            nodes = [0] + nodes + [len(run) - 1]
            for i, j in zip(nodes, nodes[1:]):
                e = add_edge(run[i : j + 1])
                if i == 0:
                    sk.at[e] = (c.start.puncture, c.start.height)
                    at_puncture[c.start.puncture - 1].append((c.start.height, e))
                if j == len(run) - 1:
                    sk.at[e ^ 1] = (c.end.puncture, c.end.height)
                    at_puncture[c.end.puncture - 1].append((c.end.height, e ^ 1))
        elif nodes:
            for i, j in zip(nodes, nodes[1:] + nodes[:1]):
                add_edge(run[i : j + 1] if i < j else run[i:] + run[: j + 1])
        else:
            e = add_edge(run + run[:1])
            free_loops.append((e, e ^ 1))

    # With the A-smoothing each over end joins the under end clockwise from it.
    for x, (_, key1, key2) in enumerate(crossings):
        over_key = key1 if d.over[(key1, key2)] == "a" else key2
        a_pairs, b_pairs = [], []
        for o, o_key in at_crossing[x]:
            for u, u_key in at_crossing[x]:
                if o_key == over_key != u_key:
                    (a_pairs if cross(dirs[o], dirs[u]) < 0 else b_pairs).append((o, u))
        sk.smoothings.append((tuple(a_pairs), tuple(b_pairs)))
    for at_p in at_puncture:
        order = sorted([((0, 1), -1)] + [(dirs[e], e) for _, e in at_p], key=cmp_to_key(_angle_order))
        for k, (_, e) in enumerate(order):
            sk.slot[e] = k
        sk.ray_slot.append(sk.slot.pop(-1))  # -1 stood for the ray
        sk.slots.append(len(order))
    ends = tuple(tuple(sorted(ends)) for ends in at_puncture)
    shift, paths = _link(sk, {}, free_loops)
    return sk, _State(paths, tuple(range(len(crossings))), ends), shift


# ---------------------------------------------------------------------------
# resolution: smoothing, joining, terminal states
# ---------------------------------------------------------------------------


def _link(sk: _Skeleton, paths: dict, pairs) -> tuple[int, dict]:
    """The loops (packed: _W each, or _W * _W around one puncture) and paths
    made by pairing the two ends of each pair.

    If a and b are the two ends of one curve, it closes into a loop that
    encloses the punctures whose summed count is nonzero; otherwise the far
    ends of a and b become the two ends of one path.
    """
    shift, paths = 0, dict(paths)
    for a, b in pairs:
        fa, ca = paths.pop(a, None) or (a ^ 1, sk.count[a])
        fb, cb = paths.pop(b, None) or (b ^ 1, sk.count[b])
        if fa == b:
            enclosed = sum(1 for c in sk.digits(ca) if c)
            shift += _W * _W if min(enclosed, sk.n - enclosed) else _W
        else:
            paths[fa] = (fb, cb - ca)
            paths[fb] = (fa, ca - cb)
    return shift, paths


def _smooth(sk: _Skeleton, st: _State, sign: int) -> tuple[int, _State]:
    """(packed exponents, state) of the last pending crossing smoothed; sign +1 is the A term."""
    shift, paths = _link(sk, st.paths, sk.smoothings[st.pending[-1]][0 if sign > 0 else 1])
    return shift + 2 * sign, _State(paths, st.pending[:-1], st.ends)


def _join(sk: _Skeleton, st: _State, p: int, i: int, sign: int) -> tuple[int, _State]:
    """(packed exponents, state) with the ends i and i + 1 (in height order)
    at puncture p joined by a detour around p; sign +1 is the A^(1/2) term.

    The detour leaves the higher end's slot and sweeps clockwise (sign +1)
    or counterclockwise to the lower end's slot; a sweep is the number of
    slots passed.  It crosses every end whose slot lies strictly inside
    that wedge: the crossed end's edge now ends at the new crossing, a stub
    carries its height and slot at p, and the strand whose height is larger
    is over.
    """
    at_p = st.ends[p - 1]
    (_, lo), (h_hi, hi) = at_p[i], at_p[i + 1]
    s, m, top = -sign, sk.slots[p - 1], sk.slot[hi]
    stop = s * (sk.slot[lo] - top) % m
    crossed = sorted(
        (sweep, h, e) for h, e in at_p if 0 < (sweep := s * (sk.slot[e] - top) % m) < stop
    )
    bounds = [0] + [sweep for sweep, _, _ in crossed] + [stop]
    ray = s * (sk.ray_slot[p - 1] - top) % m
    pieces = [sk.edge(s << sk.width * (p - 1) if a0 < ray < a1 else 0) for a0, a1 in zip(bounds, bounds[1:])]
    stubs = {}
    new_crossings = []
    for j, (_, h, e) in enumerate(crossed):
        stub = sk.edge(0)
        sk.at[stub] = (p, h)
        sk.slot[stub] = sk.slot[e]
        stubs[e] = stub
        # The detour meets the strand at a right angle, turning by s: the
        # A-pairing (each over end to the under end clockwise from it) is x
        # when the strand is over and s > 0, or the detour is over and s < 0.
        x = ((e, pieces[j] ^ 1), (stub ^ 1, pieces[j + 1]))
        y = ((e, pieces[j + 1]), (stub ^ 1, pieces[j] ^ 1))
        sk.smoothings.append((x, y) if (s > 0) == (h > h_hi) else (y, x))
        new_crossings.append(len(sk.smoothings) - 1)
    ends = list(st.ends)
    ends[p - 1] = tuple((h, stubs.get(e, e)) for h, e in at_p if e not in (hi, lo))
    shift, paths = _link(sk, st.paths, ((hi, pieces[0]), (lo, pieces[-1] ^ 1)))
    return shift + sign, _State(paths, st.pending + tuple(new_crossings), tuple(ends))


# The arc generators of the punctured spheres, keyed by the punctures they join.
_ARC_GENS: dict[presentations.Surface, dict[tuple[int, int], Generator]] = {
    presentations.Surface(0, 2): {(1, 2): presentations.GEN_A},
    presentations.Surface(0, 3): dict(zip(((2, 3), (1, 3), (1, 2)), presentations.GENS_A3)),
}


def _word(sk: _Skeleton, st: _State) -> Word:
    """The word of a terminal state: each open path is an arc, and the arcs
    are ordered by the lower height of their two ends."""
    arcs = []
    for at_p in st.ends:
        for _, e in at_p:
            (p, h), (q, g) = sk.at[e], sk.at[st.paths[e][0] if e in st.paths else e ^ 1]
            if p < q:
                arcs.append((min(h, g), (p, q)))
    return tuple(_ARC_GENS[0, sk.n][ij] for _, ij in sorted(arcs))


# The most merged states that one frontier step may hold.
STATE_BUDGET = 20_000
# The most segments a diagram document may have: ``_scan`` compares every pair.
SEGMENT_BUDGET = 1000

# A branch's A^(half_a/2) loop^l0 puncture_loop^l1 packs as half_a + _W // 2
# + (l0 + l1 * _W) * _W; its v^vexp follows from its ends (a join at p takes
# two there and adds v_p^-1).  Branches take under 2^30 steps: fields fit.
_W = 1 << 32


class EvaluationBudgetExceeded(DiagramError):
    """A frontier step of the merged resolution exceeds ``STATE_BUDGET``."""


def _frontiers(sk: _Skeleton, root: _State, shift: int, rng=None):
    """The merged resolution, one step per termination measure: a dict from
    merge key to (state, {packed exponents: branch count}); with no crossing
    pending, ends are keyed by (puncture, height, slot), not by id.  Each key
    is expanded once, smoothing its last pending crossing or else joining the
    lowest (or, with ``rng``, a random) adjacent pair; its children's counts
    are its own shifted by what they gathered, and the root's by ``shift``."""
    measure = lambda st: (sum(map(len, st.ends)), len(st.pending))
    levels = {measure(root): {None: (root, {shift + _W // 2: 1})}}  # the root is alone in its step
    while levels:
        frontier = levels.pop(max(levels))
        if len(frontier) > STATE_BUDGET:
            raise EvaluationBudgetExceeded(f"evaluation budget exceeded: more than STATE_BUDGET = {STATE_BUDGET}"
                                           " merged states in one frontier step")
        yield frontier
        for st, coeff in frontier.values():
            if st.pending:
                children = _smooth(sk, st, +1), _smooth(sk, st, -1)
            elif options := [(p, i) for p, at in enumerate(st.ends, start=1) for i in range(len(at) - 1)]:
                p, i = options[0] if rng is None else options[rng.randrange(len(options))]
                children = _join(sk, st, p, i, +1), _join(sk, st, p, i, -1)
            else:
                continue
            for shift, child in children:
                if child.pending:
                    key = child.pending, child.ends, frozenset(child.paths.items())
                else:  # open ends are puncture ends; equal (height, slot) act alike
                    far = lambda e: child.paths.get(e) or (e ^ 1, sk.count[e])
                    key = tuple(
                        tuple((h, sk.slot[e], sk.at[f], c) for h, e in at for f, c in [far(e)]) for at in child.ends
                    )
                merged = levels.setdefault(measure(child), {}).setdefault(key, (child, {}))[1]
                for k, c in coeff.items():
                    merged[k + shift] = merged.get(k + shift, 0) + c


def resolve_fully(d: Diagram, rng=None) -> list[WeightedState]:
    """The terminal states of the merged resolution, one per distinct word,
    each with its coefficient summed over every branch that ends in it.

    With ``rng`` given, admissible puncture pairs are chosen at random
    instead of lowest-first, once per merged state; the sum must not depend
    on the choice.

    The loop scalars are folded in as integers (``_fold``): per word and
    power of v, the branches' c A^(h/2) loop^l0 puncture_loop^l1 sum to one
    int with A^(1/2) -> 2^s (Kronecker substitution), every exponent made
    nonnegative.  s exceeds the L1 bound sum |c| |loop|_1^l0
    |puncture_loop|_1^l1 on every coefficient, so the int's balanced
    base-2^s digits are the coefficients.
    """
    if d.n == 1 or d.n > 3:
        raise DiagramError(
            "evaluation is defined for punctured spheres with n = 0, 2 or 3"
            " (on the once-punctured sphere the loop around the puncture"
            " bounds a disk on its other side)"
        )
    errors = validate(d)
    if errors:
        raise DiagramError(errors)
    sk, root, shift = _skeleton(d)
    terms: dict[Word, list[tuple[tuple[int, ...], int, int]]] = {}  # word -> (vexp, packed exponents, count)
    for frontier in _frontiers(sk, root, shift, rng):
        for st, coeff in frontier.values():
            if not st.pending and all(len(at_p) < 2 for at_p in st.ends):
                vexp = tuple((len(at) - len(at0)) // 2 for at, at0 in zip(st.ends, root.ends))
                terms.setdefault(_word(sk, st), []).extend((vexp, k, c) for k, c in coeff.items())
    loop, puncture_loop = ring.loop_scalar(d.n), ring.puncture_loop_scalar(d.n)
    return [WeightedState(_fold(loop, puncture_loop, branches), word) for word, branches in terms.items()]


def _fold(loop: LaurentPoly, puncture_loop: LaurentPoly, branches) -> LaurentPoly:
    """The sum of c A^(h/2) v^vexp loop^l0 puncture_loop^l1 over the (vexp,
    packed exponents (see _W), c) of ``branches``, formed as ``resolve_fully`` says."""
    scalars = [scalar.terms() for scalar in (loop, puncture_loop)]
    lows = [min(m.half_a for m, _ in ts) for ts in scalars]
    norms = [sum(abs(c) for _, c in ts) for ts in scalars]
    groups = {}  # (vexp, l0, l1) -> [(e, c)]: A^(e/2) is A^(h/2) with the scalars' least powers taken out
    for vexp, k, c in branches:
        (l1, l0), h = divmod(k // _W, _W), k % _W - _W // 2
        groups.setdefault((vexp, l0, l1), []).append((h + l0 * lows[0] + l1 * lows[1], c))
    bound = sum(abs(c) * norms[0] ** l0 * norms[1] ** l1 for (_, l0, l1), row in groups.items() for _, c in row)
    s, base = bound.bit_length() + 1, min((e for row in groups.values() for e, _ in row), default=0)
    packed = [sum(c << s * (m.half_a - low) for m, c in ts) for ts, low in zip(scalars, lows)]
    totals, terms, half = {}, {}, 1 << s - 1
    for (vexp, l0, l1), row in groups.items():
        x = sum(c << s * (e - base) for e, c in row) * packed[0] ** l0 * packed[1] ** l1
        totals[vexp] = totals.get(vexp, 0) + x
    for vexp, total in totals.items():
        j = base
        while total:  # the balanced base-2^s digits of total, lowest first
            total += half
            if digit := (total & 2 * half - 1) - half:
                terms[Monomial(j, vexp)] = digit
            total, j = total >> s, j + 1
    return LaurentPoly(loop.arity, terms)


def evaluate(d: Diagram, rng=None) -> AlgElement:
    """Resolve a diagram to its element of the presented algebra (``rng`` as
    in ``resolve_fully``: the result must not depend on it)."""
    total = AlgElement(d.n, ((ws.word, ws.coefficient) for ws in resolve_fully(d, rng)))
    if d.n >= 2:
        total = presentations.nf(presentations.Surface(0, d.n), total)
    return total


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------


def _split_ends(c: Component, s: int, marks) -> tuple[Component, int]:
    """c, component s of its diagram, with each end segment that carries a
    crossing (``marks`` from ``_marks``) split halfway from its puncture to
    the nearest one, and the number of points put before segment 1.  A
    crossing-free arc of one segment is split at its midpoint instead."""
    if c.closed:
        return c, 0
    pts, m = c.points, len(c.points) - 1

    def cut(k: int, pivot: Point, far: Point) -> Point:
        e = vsub(far, pivot)
        u = min((dot(vsub(x, pivot), e) / dot(e, e) for x, _ in marks.get((s, k), ())), default=1)
        return (pivot[0] + u * e[0] / 2, pivot[1] + u * e[1] / 2)

    head = [cut(0, pts[0], pts[1])] if m == 1 or (s, 0) in marks else []
    tail = [cut(m - 1, pts[-1], pts[-2])] if (s, m - 1) in marks else []
    return Component((pts[0], *head, *pts[1:-1], *tail, pts[-1]), False, c.start, c.end), len(head)


def _scale(lines, points, v: Vec) -> Fraction | None:
    """The largest 2^-k <= 1/16 below every t > 0 at which a point meets a
    line as the moving points move by t * v, or None if a point stays on a
    line for all t (other than the line's own ends).  A line (p, q) and a
    point x meet where cross(q - p, x - p) = f0 + t * f1, so first at
    |f0 / f1| if f0 * f1 < 0."""
    k = 4
    for p, mp, q, mq in lines:
        e = vsub(q, p)
        ev = cross(e, v)
        for x, mx in points:
            if mp == mq == mx:
                continue
            w = vsub(x, p)
            f0, f1 = cross(e, w), (mq - mp) * cross(v, w) + (mx - mp) * ev
            if f0 * f1 < 0:
                k = max(k, (abs(f1) // abs(f0)).bit_length())  # the least k with 2^k > |f1 / f0|
            elif f0 == f1 == 0 and (x, mx) != (p, mp) and (x, mx) != (q, mq):
                return None
    return Fraction(1, 1 << k)


def _move(d1: Diagram, xc1, upper: Sequence[Component], xc2) -> tuple[Component, ...]:
    """The upper layer of ``stack`` moved by t * v (all but its puncture
    ends); v is the first of (1, 2), (2, -1), (1, 3), ... for which
    ``_scale`` finds a t."""
    punctures = {puncture_position(i) for i in range(1, d1.n + 1)}
    lines, points = [], [(q, False) for q in punctures]
    for comps, crossings, moving in ((d1.components, xc1, False), (upper, xc2, True)):
        points += [(xc[0], moving) for xc in crossings]
        for c in comps:
            ends = [(x, moving and x not in punctures) for x in c.points]
            points += ends
            lines += [(*ends[k], *ends[(k + 1) % len(ends)]) for k in range(c.segment_count())]
    scale, (ints,) = frame([[p for p, _ in points]])
    at = {p: q for (p, _), q in zip(points, ints)}
    points, lines = [(at[x], mx) for x, mx in points], [(at[p], mp, at[q], mq) for p, mp, q, mq in lines]
    candidates = ((scale * a, scale * b) for m in count(2) for a, b in ((1, m), (m, -1)))
    t, v = next((t, v) for v in candidates if (t := _scale(lines, points, v)) is not None)
    delta = (t * v[0] / scale, t * v[1] / scale)
    moved = (tuple(x if x in punctures else vadd(x, delta) for x in c.points) for c in upper)
    return tuple(replace(c, points=pts) for c, pts in zip(upper, moved))


def _try_stack(d1: Diagram, d2: Diagram, shifted: tuple[Component, ...]) -> Diagram:
    """d1 with ``shifted`` (d2, heights shifted) above it: in place if the
    union is in general position, else moved by ``_move``.  d1's crossings
    are carried, and one scan takes the upper layer against itself and d1,
    so it finds d2's crossings where they now are.  The upper layer must
    have exactly d2's crossings; the triple-point check covers the union."""
    n, offset = d1.n, len(d1.components)
    xc1, xc2 = _geometry(d1)[1], _geometry(d2)[1]

    def union(upper, heads):
        product = Diagram(n, d1.components + upper, d1.over)
        over = product.over
        for _, (s1, k1), (s2, k2) in xc2:
            over[(s1 + offset, k1 + heads[s1]), (s2 + offset, k2 + heads[s2])] = d2.over[(s1, k1), (s2, k2)]
        errors, found, fr = _scan(product, offset, xc1)
        for x, k1, k2 in found:  # d1's strand is first at a crossing between the layers
            if (k1, k2) not in over:
                over[k1, k2] = "b"  # the upper layer is over
                if k1[0] >= offset:
                    errors.append(f"the upper layer gained a crossing at {x}")
        if len(over) > len(found):
            errors.append("the upper layer lost a crossing")
        object.__setattr__(product, "_geometry", (tuple(errors), tuple(found), fr))
        return errors, product

    errors, product = union(shifted, [0] * len(shifted))
    if errors:
        marks = _marks(xc2)
        split = [_split_ends(c, s, marks) for s, c in enumerate(shifted)]
        errors, product = union(_move(d1, xc1, [c for c, _ in split], xc2), [h for _, h in split])
    if errors:
        raise DiagramError(["stacking could not keep general position"] + errors[:4])
    return product


def stack(d1: Diagram, d2: Diagram) -> Diagram:
    """The product diagram: d2 layered above d1.

    All endpoint heights of d2 are shifted above all of d1's, and at every
    crossing between the two diagrams d2 is the over strand.  The product
    keeps the geometry record of its one scan, so ``evaluate`` and the next
    ``stack`` do not scan it again.  If the union violates general position,
    d2 moves by t * v: all its vertices but the puncture ends are translated,
    so its end segments rotate; one that carries a crossing is split first,
    so that every crossing of d2 moves by t * v.  ``_scale`` takes t below
    every t > 0 at which a vertex, crossing or puncture meets the line of a
    segment, one of the two moving.  Each such condition is linear in t,
    and v makes none of them hold for all t, so none holds on (0, t]: d2
    sweeps no puncture and keeps its crossings, and the union has no
    contact, overlap or triple point.  ``_try_stack`` checks the union, and
    that the upper layer has exactly d2's crossings.
    """
    if d1.n != d2.n:
        raise DiagramError(f"puncture counts differ: {d1.n} != {d2.n}")
    for d in (d1, d2):
        errors = validate(d)
        if errors:
            raise DiagramError(errors)
    h1 = [a.height for c in d1.components if not c.closed for a in (c.start, c.end)]
    h2 = [a.height for c in d2.components if not c.closed for a in (c.start, c.end)]
    shift = (max(h1) + 1 - min(h2)) if h1 and h2 else 0
    up = lambda a: replace(a, height=a.height + shift)
    shifted = tuple(c if c.closed else replace(c, start=up(c.start), end=up(c.end)) for c in d2.components)
    return _try_stack(d1, d2, shifted)


# ---------------------------------------------------------------------------
# ready-made diagrams
# ---------------------------------------------------------------------------


def empty_diagram(n: int) -> Diagram:
    return Diagram(n, (), {})


def arc_diagram(n: int, i: int, j: int) -> Diagram:
    """A simple arc between punctures i and j, bumped above the axis."""
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise DiagramError(f"invalid arc endpoints {i}, {j} for n = {n}")
    a, b = puncture_position(i), puncture_position(j)
    mid = ((a[0] + b[0]) / 2, Fraction(1))
    comp = Component((a, mid, b), False, Attachment(i, 0), Attachment(j, 0))
    return Diagram(n, (comp,), {})


def generator_diagram(surface: presentations.Surface, gen: Generator) -> Diagram:
    """The standard diagram of an arc generator of a punctured sphere."""
    surface = presentations.Surface(*surface)
    for (i, j), g in _ARC_GENS.get(surface, {}).items():
        if g == gen:
            return arc_diagram(surface.punctures, i, j)
    raise DiagramError(f"no standard diagram for generator {gen} on {surface}")


def loop_component(x0, x1, y0=Fraction(-1, 2), y1=Fraction(1, 2)) -> Component:
    """A rectangular closed curve; encloses the punctures with x0 < i < x1."""
    x0, x1, y0, y1 = Fraction(x0), Fraction(x1), Fraction(y0), Fraction(y1)
    return Component(((x0, y0), (x1, y0), (x1, y1), (x0, y1)), True, None, None)


# ---------------------------------------------------------------------------
# the diagram file format
# ---------------------------------------------------------------------------


def diagram_to_dict(d: Diagram) -> dict:
    comps = []
    for c in d.components:
        entry: dict = {"closed": c.closed, "points": [[str(x), str(y)] for x, y in c.points]}
        if c.start is not None:
            entry["start"] = {"puncture": c.start.puncture, "height": c.start.height}
        if c.end is not None:
            entry["end"] = {"puncture": c.end.puncture, "height": c.end.height}
        comps.append(entry)
    over = [{"a": list(ka), "b": list(kb), "over": label} for (ka, kb), label in sorted(d.over.items())]
    return {"n": d.n, "components": comps, "over_under": over}


def _coordinate(x) -> Fraction:
    """Fraction(str(x)), refusing a decimal exponent over the digit limit (0: none) before expanding it."""
    exp, limit = re.search(r"e([-+]?\d+(_\d+)*)\s*\Z", str(x), re.I), sys.get_int_max_str_digits()
    if limit and exp and abs(int(exp[1])) > limit:
        raise ValueError(f"a coordinate's exponent is over the digit limit {limit}")
    return Fraction(str(x))


def _json_field(value, kind: type, name: str):
    """``value`` if its type is exactly ``kind`` (so ``True`` is no integer, 2.0 none, and an object no array)."""
    if type(value) is not kind:
        kind_name = {bool: "boolean", int: "integer", list: "array", dict: "object"}[kind]
        raise TypeError(f"{name} must be a JSON {kind_name}, not {type(value).__name__}")
    return value


def _sized(value, name: str):
    """``value`` if it has a length (a JSON array, object or string); otherwise refused as no array."""
    if type(value) not in (list, dict, str):
        _json_field(value, list, name)
    return value


def _pair(value, name: str) -> list:
    """``value`` if it is a JSON array of exactly 2 entries."""
    if len(_json_field(value, list, name)) != 2:
        raise ValueError(f"{name} must have 2 entries, not {len(value)}")
    return value


def _attachment(obj, name: str) -> Attachment:
    obj = _json_field(obj, dict, name)
    return Attachment(_json_field(obj["puncture"], int, "puncture"), _json_field(obj["height"], int, "height"))


def _crossing_key(pair) -> tuple[int, int]:
    a, b = _pair(pair, "crossing key")
    return _json_field(a, int, "crossing key"), _json_field(b, int, "crossing key")


def diagram_from_dict(obj: dict) -> Diagram:
    try:
        obj = _json_field(obj, dict, "document")
        n = _json_field(obj["n"], int, "n")
        entries = _json_field(obj.get("components", []), list, "components")
        entries = [_json_field(e, dict, "component") for e in entries]
        closed = [_json_field(e.get("closed", False), bool, "closed") for e in entries]
        # Counted on the raw `points` of every component (any JSON value with a length),
        # so an oversized document converts no coordinate and checks no point.
        segments = sum(max(len(_sized(e["points"], "points")) - (not c), 0) for e, c in zip(entries, closed))
        if segments > SEGMENT_BUDGET:
            raise DiagramError(f"diagram has {segments} segments, more than SEGMENT_BUDGET = {SEGMENT_BUDGET}")
        comps = []
        for entry, c in zip(entries, closed):
            pairs = [_pair(p, "point") for p in _json_field(entry["points"], list, "points")]
            coords = tuple((_coordinate(x), _coordinate(y)) for x, y in pairs)
            start = None if entry.get("start") is None else _attachment(entry["start"], "start")
            end = None if entry.get("end") is None else _attachment(entry["end"], "end")
            comps.append(Component(coords, c, start, end))
        over = {}
        for entry in _json_field(obj.get("over_under", []), list, "over_under"):
            entry = _json_field(entry, dict, "over_under entry")
            ka, kb = _crossing_key(entry["a"]), _crossing_key(entry["b"])
            label = entry["over"]
            if kb < ka:
                ka, kb = kb, ka
                label = {"a": "b", "b": "a"}.get(label, label)
            over[(ka, kb)] = label
    except DiagramError:
        raise
    except KeyError as exc:  # only the document's own fields are looked up by key
        raise DiagramError(f"malformed diagram document: missing field {exc}") from None
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DiagramError(f"malformed diagram document: {exc}") from None
    return Diagram(n, tuple(comps), over)


def dumps_diagram(d: Diagram) -> str:
    return json.dumps(diagram_to_dict(d), indent=2)


def loads_diagram(text: str) -> Diagram:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer over the digit limit
        raise DiagramError(f"invalid JSON: {exc}") from None
    return diagram_from_dict(obj)
