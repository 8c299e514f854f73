"""Planar framed-curve diagrams on punctured spheres and the skein evaluator.

A diagram lives in the plane with punctures at (1,0), ..., (n,0); the plane
plus its point at infinity models the n-punctured sphere.  Components are
piecewise-linear with exact rational coordinates: closed polylines avoid
the punctures, open polylines begin and end exactly at puncture positions,
at pairwise distinct integer heights per puncture.  Every transverse double
point carries over/under data; general position (no tangencies, no triple
points, no crossings at punctures) is enforced exactly.

The evaluator is Kauffman's state model, extended by the puncture-skein and
puncture-framing relations of the arc algebra.  Exact geometry runs once
per diagram, which keeps its crossings (``stack`` gets its product's from
its factors); the components are cut at them into edges, each
crossing gets its A- and B-pairing from the directions of its four edge
ends, the ends at each puncture and one fixed ray from it are put in
counterclockwise order (their slots), and each edge gets its signed
crossing count with every puncture's ray.  Resolution after that reads
only slots and integer counts; it pairs ends, which joins two open paths
or closes a curve, and adds the ray counts along each path:

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
  its edges sum to a nonzero winding number.  On the sphere it is a
  scalar whenever min(|enclosed|, n - |enclosed|) <= 1, which holds for
  every n <= 3: -A^2 - A^-2 for 0 and A + A^-1 for 1.

Evaluation is defined for n = 0, 2 and 3.  On the once-punctured sphere a
loop around the puncture is isotopic through infinity to a loop beside it,
while the two relations give them different values, so n = 1 is rejected.

The pair (puncture-end count, crossing count) decreases lexicographically
at every step, so resolution terminates.  It runs in that order, one
frontier step per measure: the states of a step are merged by their key
(pending crossings, puncture ends, open paths with their ray counts) before
any is expanded, and a merged state's coefficient counts its branches by
their power of A^(1/2) and their loops.  So the work follows the distinct
states, not the branches, as in Bar-Natan's divide and conquer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from . import presentations, ring
from .freealg import AlgElement, Generator, Word
from .geometry import Dir, Point, Vec, cross, dot, on_segment_interior, segment_hit, vadd, vsub
from .geometry import winding_number  # noqa: F401  (unused here; the attribute bench/tracing.py wraps)
from .ring import LaurentPoly, Monomial

__all__ = [
    "DiagramError", "EvaluationBudgetExceeded", "STATE_BUDGET", "Attachment", "Component", "Diagram",
    "WeightedState", "CrossKey", "puncture_position", "validate", "diagram_crossings", "evaluate",
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

    def segment(self, k: int) -> tuple[Point, Point]:
        pts = self.points
        return pts[k], pts[(k + 1) % len(pts)]


CrossKey = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class Diagram:
    n: int
    components: tuple[Component, ...]
    over: Mapping[CrossKey, str] = None  # crossing id -> "a" | "b"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "over", dict(self.over or {}))
        object.__setattr__(self, "_geometry", None)  # what _crossings found


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


def _terminal_at(c: Component, k: int, point: Point) -> bool:
    """Does segment k meet ``point`` at a legal open-endpoint of its component?"""
    last = c.segment_count() - 1
    return not c.closed and (k == 0 and c.points[0] == point or k == last and c.points[-1] == point)


def _scan(comps: Sequence[Component], n: int, group=None, known=()) -> tuple[list[str], list[_XC]]:
    """General-position errors and transverse crossings among segments.

    Two segments with one nonzero ``group(sid, k)`` are not compared: their
    crossings are among ``known``, which join the result.  Segments of group
    1 stay in place and are not tested against the punctures either."""
    errors: list[str] = []
    crossings: list[_XC] = []
    punctures = {puncture_position(i): i for i in range(1, n + 1)}
    segs: list[tuple[int, int, Point, Point, tuple, int]] = []
    for sid, c in enumerate(comps):
        for k in range(c.segment_count()):
            a, b = c.segment(k)
            box = (
                a[0] if a[0] <= b[0] else b[0],
                a[0] if a[0] >= b[0] else b[0],
                a[1] if a[1] <= b[1] else b[1],
                a[1] if a[1] >= b[1] else b[1],
            )
            segs.append((sid, k, a, b, box, group(sid, k) if group else 0))

    total = len(segs)
    for idx1 in range(total):
        sid1, k1, a1, b1, box1, g1 = segs[idx1]
        comp1 = comps[sid1]
        for q, qi in punctures.items() if g1 != 1 else ():
            if box1[0] <= q[0] <= box1[1] and box1[2] <= q[1] <= box1[3]:
                if on_segment_interior(q, a1, b1):
                    errors.append(f"segment ({sid1},{k1}) passes through puncture {qi}")
                for endpoint in (a1, b1):
                    if endpoint == q and not _terminal_at(comp1, k1, endpoint):
                        errors.append(f"vertex of component {sid1} lies at puncture {qi}")
        for idx2 in range(idx1 + 1, total):
            sid2, k2, a2, b2, box2, g2 = segs[idx2]
            if g1 and g1 == g2:
                continue
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
            elif hit.kind == "touch":
                p = hit.point
                if (
                    p in punctures
                    and _terminal_at(comp1, k1, p)
                    and _terminal_at(comps[sid2], k2, p)
                ):
                    continue  # distinct ends meeting at their shared puncture
                errors.append(
                    f"non-transverse contact of ({sid1},{k1}) and ({sid2},{k2}) at {p}"
                )
            else:
                crossings.append((hit.point, (sid1, k1), (sid2, k2)))
    crossings += known
    crossings.sort(key=itemgetter(1, 2))  # (a no-op without ``known``)
    seen: set[Point] = set()
    for xc in crossings:
        if xc[0] in seen:
            errors.append(f"three strands meet at {xc[0]}")
        seen.add(xc[0])
    return errors, crossings


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
                    errors.append(
                        f"component {ci}: {side} point {endpoint} is not at puncture {att.puncture}"
                    )
                hs = heights.setdefault(att.puncture, set())
                if att.height in hs:
                    errors.append(
                        f"puncture {att.puncture}: duplicate endpoint height {att.height}"
                    )
                hs.add(att.height)
        for k in range(c.segment_count()):
            if pts[k] == pts[(k + 1) % len(pts)]:
                errors.append(f"component {ci}: repeated consecutive point at index {k}")
    return errors


def _crossings(d: Diagram) -> tuple[tuple[str, ...], tuple[_XC, ...]]:
    """The general-position violations of ``d`` and its crossings, with the
    lower (component, segment) of each first, in that order.  They depend
    only on ``n`` and the components, so each diagram keeps them."""
    if d._geometry is None:
        errors = _structural_errors(d)
        geometry = (errors, ()) if errors else _scan(d.components, d.n)
        object.__setattr__(d, "_geometry", tuple(map(tuple, geometry)))
    return d._geometry


def validate(d: Diagram) -> list[str]:
    """All general-position and attachment violations; [] means valid.  The
    over/under entries are checked on every call: ``d.over`` is mutable."""
    errors, crossings = _crossings(d)
    errors = list(errors)
    if errors:
        return errors
    found = {(xc[1], xc[2]) for xc in crossings}
    declared = set(d.over)
    for key in sorted(declared - found):
        errors.append(f"over/under entry {key} matches no crossing")
    for key in sorted(found - declared):
        errors.append(f"crossing {key} has no over/under entry")
    for key, val in d.over.items():
        if val not in ("a", "b"):
            errors.append(f"over/under value for {key} must be 'a' or 'b'")
    return errors


def diagram_crossings(d: Diagram) -> list[tuple[CrossKey, Point]]:
    """Crossing ids and their exact positions, in canonical order."""
    errors, crossings = _crossings(d)
    if errors:
        raise DiagramError(errors)
    return sorted(((xc[1], xc[2]), xc[0]) for xc in crossings)


# ---------------------------------------------------------------------------
# geometry once: edges, their ends and their ray counts
# ---------------------------------------------------------------------------


def _ray_crossing(a: Point, b: Point, q: Point, d: Dir) -> int:
    """Signed crossing of segment a->b with the ray from q in direction d.

    +1 when the segment passes counterclockwise about q.  The ray must miss
    every vertex, so a crossing q + s d = a + u e is interior to the segment:
    s = cross(w, e) / den > 0 and 0 < u = cross(w, d) / den < 1, by sign.
    A ray (k, 1), k >= 0, misses a segment wholly below q's level or left of q."""
    if a[1] <= q[1] and b[1] <= q[1] or a[0] < q[0] and b[0] < q[0]:
        return 0
    e = vsub(b, a)
    den = cross(d, e)
    if den == 0:
        return 0
    w = vsub(a, q)
    sign = 1 if den > 0 else -1
    return sign if sign * cross(w, e) > 0 and 0 < sign * cross(w, d) < abs(den) else 0


def _free_ray(q: Point, avoid: Sequence[Point]) -> Dir:
    """The first direction (k, 1), k >= 0, whose ray from q misses every point
    p of ``avoid``: it meets p iff py > qy and k = (px - qx) / (py - qy)."""
    blocked = {(p[0] - q[0]) / (p[1] - q[1]) for p in avoid if p[1] > q[1]}
    return next((k, 1) for k in count() if k not in blocked)


def _angle(r: Vec) -> Fraction:
    """A monotone stand-in in [0, 4) for the counterclockwise angle of r
    from the positive x-axis."""
    x, y = r
    t = Fraction(x, abs(x) + abs(y))
    return 1 - t if y > 0 or (y == 0 and x > 0) else 3 + t


class _Skeleton:
    """The edge ends of one diagram and of every piece its resolution adds.

    Ends are integers and an edge is a pair of ends (e, e ^ 1).  The cyclic
    order at each puncture p is fixed once: its ends and its ray take the
    slots 0 .. ``slots[p - 1]`` - 1 counterclockwise, ``slot[e]`` is the
    slot of end e and ``ray_slot[p - 1]`` that of the ray.  Per end,
    ``count[e][q - 1]`` is the signed crossing count of the edge, traversed
    from e, with the ray from puncture q, and ``at[e]`` the (puncture,
    height) of a puncture end.  ``smoothings[x]`` holds the A-pairing and
    the B-pairing of crossing x.  All entries are integers and are only
    ever appended, so all states of the resolution share one skeleton.
    """

    def __init__(self, n: int):
        self.n = n
        self.count: list[tuple[int, ...]] = []
        self.at: dict[int, tuple[int, int]] = {}
        self.slot: dict[int, int] = {}
        self.ray_slot: list[int] = []
        self.slots: list[int] = []
        self.smoothings: list[tuple[tuple[tuple[int, int], ...], ...]] = []

    def edge(self, counts: Sequence[int]) -> int:
        e = len(self.count)
        self.count += [tuple(counts), tuple(-c for c in counts)]
        return e


class _State(NamedTuple):
    """A state of the resolution: one branch, or in ``_frontiers`` a merged
    state whose own half_a and loops are 0.

    The coefficient is A^(half_a/2) v^vexp times one scalar per closed
    loop; ``loops`` counts the loops around no puncture and around one.
    ``paths`` maps an open end of a grown curve to (far end, ray counts from
    the end); any other open end e has only its edge, (e ^ 1, count[e]).
    ``pending`` holds the crossings still to smooth, and ``ends[p - 1]``
    the (height, end) pairs at puncture p, sorted by height.
    """

    half_a: int
    vexp: tuple[int, ...]
    loops: tuple[int, int]
    paths: dict[int, tuple[int, tuple[int, ...]]]
    pending: tuple[int, ...]
    ends: tuple[tuple[tuple[int, int], ...], ...]


def _marks(crossings: Sequence[_XC]) -> dict[tuple[int, int], list]:
    """Per (component, segment), its crossings: (point, index) pairs."""
    marks: dict[tuple[int, int], list[tuple[Point, int]]] = {}
    for x, (point, key1, key2) in enumerate(crossings):
        marks.setdefault(key1, []).append((point, x))
        marks.setdefault(key2, []).append((point, x))
    return marks


def _skeleton(d: Diagram, crossings: Sequence[_XC]) -> tuple[_Skeleton, _State]:
    """Cut a valid diagram at its crossings into edges; the root state."""
    n = d.n
    avoid = [p for c in d.components for p in c.points]
    avoid += [xc[0] for xc in crossings] + [puncture_position(i) for i in range(1, n + 1)]
    rays = [_free_ray(puncture_position(q), avoid) for q in range(1, n + 1)]
    sk = _Skeleton(n)
    dirs: list[Vec] = []  # the outward direction of each end

    marks = _marks(crossings)
    at_crossing: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in crossings]
    at_puncture: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    free_loops: list[tuple[int, int]] = []

    def add_edge(run) -> int:
        pts = [point for point, _, _ in run]
        counts = [
            sum(_ray_crossing(a, b, puncture_position(q), rays[q - 1]) for a, b in zip(pts, pts[1:]))
            for q in range(1, n + 1)
        ]
        e = sk.edge(counts)
        dirs.extend((vsub(pts[1], pts[0]), vsub(pts[-2], pts[-1])))
        for end, (_, x, key) in ((e, run[0]), (e ^ 1, run[-1])):
            if x is not None:
                at_crossing[x].append((end, key))
        return e

    for ci, c in enumerate(d.components):
        run = []  # (point, crossing or None, segment key) in traversal order
        for k in range(c.segment_count()):
            a, b = c.segment(k)
            run.append((a, None, None))
            on_seg = sorted(marks.get((ci, k), ()), key=lambda px: dot(vsub(px[0], a), vsub(b, a)))
            run.extend((point, x, (ci, k)) for point, x in on_seg)
        nodes = [i for i, (_, x, _) in enumerate(run) if x is not None]
        if not c.closed:
            run.append((c.points[-1], None, None))
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
    for p, at_p in enumerate(at_puncture, start=1):
        order = sorted([(_angle(rays[p - 1]), -1)] + [(_angle(dirs[e]), e) for _, e in at_p])
        for k, (_, e) in enumerate(order):
            sk.slot[e] = k
        sk.ray_slot.append(sk.slot.pop(-1))  # -1 stood for the ray
        sk.slots.append(len(order))
    ends = tuple(tuple(sorted(ends)) for ends in at_puncture)
    root = _State(0, (0,) * n, (0, 0), {}, tuple(range(len(crossings))), ends)
    loops, paths = _link(sk, root, free_loops)
    return sk, root._replace(loops=loops, paths=paths)


# ---------------------------------------------------------------------------
# resolution: smoothing, joining, terminal states
# ---------------------------------------------------------------------------


def _link(sk: _Skeleton, st: _State, pairs) -> tuple[tuple[int, int], dict]:
    """The loops and paths of ``st`` after pairing the two ends of each pair.

    If a and b are the two ends of one curve, it closes into a loop that
    encloses the punctures whose summed count is nonzero; otherwise the far
    ends of a and b become the two ends of one path.
    """
    loops, paths = list(st.loops), dict(st.paths)
    for a, b in pairs:
        fa, ca = paths.pop(a, None) or (a ^ 1, sk.count[a])
        fb, cb = paths.pop(b, None) or (b ^ 1, sk.count[b])
        if fa == b:
            enclosed = sum(1 for c in ca if c)
            loops[min(enclosed, sk.n - enclosed) != 0] += 1
        else:
            paths[fa] = (fb, tuple(y - x for x, y in zip(ca, cb)))
            paths[fb] = (fa, tuple(x - y for x, y in zip(ca, cb)))
    return tuple(loops), paths


def _smooth(sk: _Skeleton, st: _State, sign: int) -> _State:
    """The last pending crossing smoothed; sign +1 is the A term."""
    loops, paths = _link(sk, st, sk.smoothings[st.pending[-1]][0 if sign > 0 else 1])
    return _State(st.half_a + 2 * sign, st.vexp, loops, paths, st.pending[:-1], st.ends)


def _join(sk: _Skeleton, st: _State, p: int, i: int, sign: int) -> _State:
    """Join the ends i and i + 1 (in height order) at puncture p by a detour
    around p; sign +1 is the A^(1/2) term.

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
    pieces = [
        sk.edge([s if q == p and a0 < ray < a1 else 0 for q in range(1, sk.n + 1)])
        for a0, a1 in zip(bounds, bounds[1:])
    ]
    stubs = {}
    new_crossings = []
    for j, (_, h, e) in enumerate(crossed):
        stub = sk.edge((0,) * sk.n)
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
    vexp = list(st.vexp)
    vexp[p - 1] -= 1
    loops, paths = _link(sk, st, ((hi, pieces[0]), (lo, pieces[-1] ^ 1)))
    pending = st.pending + tuple(new_crossings)
    return _State(st.half_a + sign, tuple(vexp), loops, paths, pending, tuple(ends))


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

# A merged coefficient maps half_a + (loops[0] + loops[1] * _W) * _W + _W // 2
# to the number of branches with those exponents (vexp follows from the key's
# ends); a branch takes far fewer than 2^30 steps, so every field fits.
_W = 1 << 32


class EvaluationBudgetExceeded(DiagramError):
    """A frontier step of the merged resolution exceeds ``STATE_BUDGET``."""


def _frontiers(sk: _Skeleton, root: _State, rng=None):
    """The merged resolution, one step per termination measure: a dict from
    merge key (pending, ends, paths) to (state, coefficient); with no
    crossing pending, ends are keyed by (puncture, height, slot), not by id.
    Each key is expanded once, smoothing its last pending crossing or else
    joining the lowest (or, with ``rng``, a random) adjacent pair; its
    children's coefficients are its own shifted by what they gathered."""
    measure = lambda st: (sum(map(len, st.ends)), len(st.pending))
    pack = lambda st: st.half_a + (st.loops[0] + st.loops[1] * _W) * _W
    merged_root = root._replace(half_a=0, loops=(0, 0)), {pack(root) + _W // 2: 1}
    levels = {measure(root): {None: merged_root}}  # the root is alone in its step
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
            for child in children:
                shift, step = pack(child), levels.setdefault(measure(child), {})
                if child.pending:
                    key = child.pending, child.ends, frozenset(child.paths.items())
                else:  # open ends are puncture ends; equal (height, slot) act alike
                    far = lambda e: child.paths.get(e) or (e ^ 1, sk.count[e])
                    key = tuple(
                        tuple((h, sk.slot[e], sk.at[f], c) for h, e in at for f, c in [far(e)]) for at in child.ends
                    )
                merged = step.setdefault(key, (child._replace(half_a=0, loops=(0, 0)), {}))[1]
                for k, c in coeff.items():
                    merged[k + shift] = merged.get(k + shift, 0) + c


def resolve_fully(d: Diagram, rng=None) -> list[WeightedState]:
    """The terminal states of the merged resolution, one per distinct word,
    each with its coefficient summed over every branch that ends in it.

    With ``rng`` given, admissible puncture pairs are chosen at random
    instead of lowest-first, once per merged state; the sum must not depend
    on the choice.
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
    sk, root = _skeleton(d, _crossings(d)[1])
    terms: dict[Word, dict[int, list]] = {}  # word -> packed loops -> terms
    for frontier in _frontiers(sk, root, rng):
        for st, coeff in frontier.values():
            if not st.pending and all(len(at_p) < 2 for at_p in st.ends):
                by_loops = terms.setdefault(_word(sk, st), {})
                for k, c in coeff.items():
                    by_loops.setdefault(k // _W, []).append((Monomial(k % _W - _W // 2, st.vexp), c))
    n, powers = d.n, {}  # l0 + l1 * _W -> loop_scalar^l0 * puncture_loop_scalar^l1
    loop, puncture_loop = ring.loop_scalar(n), ring.puncture_loop_scalar(n)
    for loops in {loops for by_loops in terms.values() for loops in by_loops}:
        powers[loops] = loop ** (loops % _W) * puncture_loop ** (loops // _W)
    value = lambda by_loops: sum((LaurentPoly(n, t) * powers[l] for l, t in by_loops.items()), ring.zero(n))
    return [WeightedState(value(by_loops), word) for word, by_loops in terms.items()]


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


def _scale(lines, points, v: Dir) -> Fraction | None:
    """The largest 2^-k <= 1/16 below every t > 0 at which a point meets a
    line as the moving points move by t * v, or None if a point stays on a
    line for all t (other than the line's own ends).  A line (p, q) and a
    point x meet where cross(q - p, x - p) = f0 + t * f1."""
    t = Fraction(1, 16)
    for p, mp, q, mq in lines:
        e = vsub(q, p)
        ev = cross(e, v)
        for x, mx in points:
            if mp == mq == mx:
                continue
            w = vsub(x, p)
            f0, f1 = cross(e, w), (mq - mp) * cross(v, w) + (mx - mp) * ev
            if f0 * f1 < 0:
                while t >= -f0 / f1:
                    t /= 2
            elif f0 == f1 == 0 and (x, mx) != (p, mp) and (x, mx) != (q, mq):
                return None
    return t


def _move(d1: Diagram, xc1, upper: Sequence[Component], xc2) -> tuple[Vec, tuple]:
    """The move t * v of ``stack`` and the upper layer moved by it (all but
    its puncture ends); v is the first of (1, 2), (2, -1), (1, 3), ... for
    which ``_scale`` finds a t."""
    punctures = {puncture_position(i) for i in range(1, d1.n + 1)}
    lines, points = [], [(q, False) for q in punctures]
    for comps, crossings, moving in ((d1.components, xc1, False), (upper, xc2, True)):
        points += [(xc[0], moving) for xc in crossings]
        for c in comps:
            ends = [(x, moving and x not in punctures) for x in c.points]
            points += ends
            lines += [(*ends[k], *ends[(k + 1) % len(ends)]) for k in range(c.segment_count())]
    candidates = (u for m in count(2) for u in ((1, m), (m, -1)))
    t, v = next((t, v) for v in candidates if (t := _scale(lines, points, v)) is not None)
    delta = (t * v[0], t * v[1])
    moved = (tuple(x if x in punctures else vadd(x, delta) for x in c.points) for c in upper)
    return delta, tuple(replace(c, points=pts) for c, pts in zip(upper, moved))


def _try_stack(d1: Diagram, d2: Diagram, shifted: tuple[Component, ...]) -> Diagram:
    """d1 with ``shifted`` (d2, heights shifted) above it: in place if the
    pairs between the layers allow it, else moved by ``_move``.  Only new
    pairs are scanned: d1 against the upper layer and, after a move, the
    rotated end segments against the rest of it.  d1's crossings are
    carried, and so are d2's, moved with their translated segments; the
    upper layer may have no other.  The triple-point check covers the union."""
    n, offset = d1.n, len(d1.components)
    xc1, xc2 = _crossings(d1)[1], _crossings(d2)[1]

    def union(upper, heads, delta, rotating):
        over, carried = dict(d1.over), []
        for x, (s1, k1), (s2, k2) in xc2:
            key = ((s1 + offset, k1 + heads[s1]), (s2 + offset, k2 + heads[s2]))
            carried.append((vadd(x, delta), *key))
            over[key] = d2.over[(s1, k1), (s2, k2)]
        group = lambda s, k: 1 if s < offset else 0 if (s, k) in rotating else 2
        errors, found = _scan(d1.components + upper, n, group, xc1 + tuple(carried))
        for x, k1, k2 in found:  # d1's strand is first at a crossing between the layers
            if (k1, k2) not in over:
                over[k1, k2] = "b"  # the upper layer is over
                if k1[0] >= offset:
                    errors.append(f"the upper layer gained a crossing at {x}")
        return errors, Diagram(n, d1.components + upper, over), found

    errors, product, found = union(shifted, [0] * len(shifted), (0, 0), ())
    if errors:
        marks = _marks(xc2)
        split = [_split_ends(c, s, marks) for s, c in enumerate(shifted)]
        delta, upper = _move(d1, xc1, [c for c, _ in split], xc2)
        ends = [(s, len(c.points) - 2) for s, c in enumerate(upper, start=offset) if not c.closed]
        rotating = {(s, k) for s, last in ends for k in (0, last)}
        errors, product, found = union(upper, [h for _, h in split], delta, rotating)
    if errors:
        raise DiagramError(["stacking could not keep general position"] + errors[:4])
    object.__setattr__(product, "_geometry", ((), tuple(found)))
    return product


def stack(d1: Diagram, d2: Diagram) -> Diagram:
    """The product diagram: d2 layered above d1.

    All endpoint heights of d2 are shifted above all of d1's, and at every
    crossing between the two diagrams d2 is the over strand.  The product
    carries its crossings, so ``evaluate`` and the next ``stack`` do not
    scan it.  If the pairs between the layers violate general position, d2
    moves by t * v: all its vertices but the puncture ends are translated,
    so its end segments rotate; one that carries a crossing is split first,
    so that every crossing of d2 moves by t * v.  ``_scale`` takes t below
    every t > 0 at which a vertex, crossing or puncture meets the line of a
    segment, one of the two moving.  Each such condition is linear in t,
    and v makes none of them hold for all t, so none holds on (0, t]: d2
    sweeps no puncture and keeps its crossings, and the union has no
    contact, overlap or triple point.  ``_try_stack`` checks the union, and
    that the upper layer has no crossing but d2's.
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
    shifted = tuple(
        c if c.closed else replace(c, start=replace(c.start, height=c.start.height + shift),
                                   end=replace(c.end, height=c.end.height + shift))
        for c in d2.components
    )
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
        entry: dict = {
            "closed": c.closed,
            "points": [[str(x), str(y)] for x, y in c.points],
        }
        if c.start is not None:
            entry["start"] = {"puncture": c.start.puncture, "height": c.start.height}
        if c.end is not None:
            entry["end"] = {"puncture": c.end.puncture, "height": c.end.height}
        comps.append(entry)
    over = [
        {"a": list(ka), "b": list(kb), "over": label}
        for (ka, kb), label in sorted(d.over.items())
    ]
    return {"n": d.n, "components": comps, "over_under": over}


def diagram_from_dict(obj: Mapping) -> Diagram:
    try:
        n = int(obj["n"])
        comps = []
        for entry in obj.get("components", []):
            points = tuple(
                (Fraction(str(x)), Fraction(str(y))) for x, y in entry["points"]
            )
            closed = bool(entry.get("closed", False))
            start = end = None
            if entry.get("start") is not None:
                start = Attachment(int(entry["start"]["puncture"]), int(entry["start"]["height"]))
            if entry.get("end") is not None:
                end = Attachment(int(entry["end"]["puncture"]), int(entry["end"]["height"]))
            comps.append(Component(points, closed, start, end))
        over = {}
        for entry in obj.get("over_under", []):
            ka = (int(entry["a"][0]), int(entry["a"][1]))
            kb = (int(entry["b"][0]), int(entry["b"][1]))
            label = entry["over"]
            if kb < ka:
                ka, kb = kb, ka
                label = {"a": "b", "b": "a"}.get(label, label)
            over[(ka, kb)] = label
    except (IndexError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
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
