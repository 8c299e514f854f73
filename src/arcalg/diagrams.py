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
per diagram: the components are cut at their crossings into edges, each
crossing gets its A- and B-pairing from the directions of its four edge
ends, the ends at each puncture and one fixed ray from it are put in
counterclockwise order (their slots), and each edge gets its signed
crossing count with every puncture's ray.  Resolution after that reads
only slots and integer counts; it re-pairs edge ends and adds integers:

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
* a closed curve of a terminal state encloses the punctures around which
  the ray counts of its edges sum to a nonzero winding number.  On the
  sphere it is a scalar whenever min(|enclosed|, n - |enclosed|) <= 1,
  which holds for every n <= 3: -A^2 - A^-2 for 0 and A + A^-1 for 1.

Evaluation is defined for n = 0, 2 and 3.  On the once-punctured sphere a
loop around the puncture is isotopic through infinity to a loop beside it,
while the two relations give them different values, so n = 1 is rejected.

The pair (puncture-end count, crossing count) decreases lexicographically
at every step, so resolution terminates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from typing import Mapping, NamedTuple, Sequence

from . import presentations, ring
from .freealg import AlgElement, Generator, Word
from .geometry import (
    Dir,
    Point,
    cross,
    dot,
    on_segment_interior,
    primitive_dir,
    segment_hit,
    vadd,
    vsub,
    winding_number,  # unused here; kept as the attribute that bench/tracing.py wraps
)
from .ring import LaurentPoly, Monomial

__all__ = [
    "DiagramError",
    "Attachment",
    "Component",
    "Diagram",
    "WeightedState",
    "CrossKey",
    "puncture_position",
    "validate",
    "diagram_crossings",
    "evaluate",
    "resolve_fully",
    "stack",
    "empty_diagram",
    "arc_diagram",
    "generator_diagram",
    "loop_component",
    "diagram_to_dict",
    "diagram_from_dict",
    "dumps_diagram",
    "loads_diagram",
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


@dataclass(frozen=True)
class WeightedState:
    """A terminal state of the resolution tree: an exact coefficient times
    the word of its arcs, ordered by height.  Its loops are scalars already
    folded into the coefficient."""

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
    if c.closed:
        return False
    if k == 0 and c.points[0] == point:
        return True
    if k == c.segment_count() - 1 and c.points[-1] == point:
        return True
    return False


def _scan(comps: Sequence[Component], n: int) -> tuple[list[str], list[_XC]]:
    """General-position errors and transverse crossings among segments."""
    errors: list[str] = []
    crossings: list[_XC] = []
    punctures = {puncture_position(i): i for i in range(1, n + 1)}
    segs: list[tuple[int, int, Point, Point, tuple]] = []
    for sid, c in enumerate(comps):
        for k in range(c.segment_count()):
            a, b = c.segment(k)
            box = (
                a[0] if a[0] <= b[0] else b[0],
                a[0] if a[0] >= b[0] else b[0],
                a[1] if a[1] <= b[1] else b[1],
                a[1] if a[1] >= b[1] else b[1],
            )
            segs.append((sid, k, a, b, box))

    total = len(segs)
    for idx1 in range(total):
        sid1, k1, a1, b1, box1 = segs[idx1]
        comp1 = comps[sid1]
        for q, qi in punctures.items():
            if box1[0] <= q[0] <= box1[1] and box1[2] <= q[1] <= box1[3]:
                if on_segment_interior(q, a1, b1):
                    errors.append(f"segment ({sid1},{k1}) passes through puncture {qi}")
                for endpoint in (a1, b1):
                    if endpoint == q and not _terminal_at(comp1, k1, endpoint):
                        errors.append(
                            f"vertex of component {sid1} lies at puncture {qi}"
                        )
        for idx2 in range(idx1 + 1, total):
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
        m = len(pts) if c.closed else len(pts) - 1
        for k in range(m):
            if pts[k] == pts[(k + 1) % len(pts)]:
                errors.append(f"component {ci}: repeated consecutive point at index {k}")
    return errors


def _crossings(d: Diagram) -> tuple[list[str], list[_XC]]:
    """The general-position violations of ``d`` and its crossings, with the
    lower (component, segment) of each first."""
    errors = _structural_errors(d)
    if errors:
        return errors, []
    errors, crossings = _scan(d.components, d.n)
    seen: set[Point] = set()
    for xc in crossings:
        if xc[0] in seen:
            errors.append(f"three strands meet at {xc[0]}")
        seen.add(xc[0])
    return errors, crossings


def validate(d: Diagram) -> list[str]:
    """All general-position and attachment violations; [] means valid."""
    return _validated(d)[0]


def _validated(d: Diagram) -> tuple[list[str], list[_XC]]:
    """The violations of ``validate`` and the crossings found on the way."""
    errors, crossings = _crossings(d)
    if errors:
        return errors, crossings
    found = {(xc[1], xc[2]) for xc in crossings}
    declared = set(d.over)
    for key in sorted(declared - found):
        errors.append(f"over/under entry {key} matches no crossing")
    for key in sorted(found - declared):
        errors.append(f"crossing {key} has no over/under entry")
    for key, val in d.over.items():
        if val not in ("a", "b"):
            errors.append(f"over/under value for {key} must be 'a' or 'b'")
    return errors, crossings


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
    every vertex, so a crossing is interior to the segment.
    """
    e = vsub(b, a)
    den = cross(d, e)
    if den == 0:
        return 0
    w = vsub(a, q)
    s = cross(w, e) / den
    u = cross(w, d) / den
    if s > 0 and 0 < u < 1:
        return 1 if den > 0 else -1
    return 0


def _free_ray(q: Point, avoid: Sequence[Point]) -> Dir:
    """A direction whose ray from q misses every point of ``avoid``."""
    for k in count():
        d = (k, 1)
        if not any(cross(d, vsub(p, q)) == 0 and dot(d, vsub(p, q)) > 0 for p in avoid):
            return d


def _angle(r: Dir) -> Fraction:
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
    ever appended, so the branches of the resolution tree share one
    skeleton.
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
    """A node of the resolution tree.

    The coefficient is the monomial A^(half_a/2) v^vexp.  ``links`` is a
    linked list (pairs, rest) of the end pairings made so far, ``pending``
    the crossings still to smooth, and ``ends[p - 1]`` the (height, end)
    pairs at puncture p, sorted by height.
    """

    half_a: int
    vexp: tuple[int, ...]
    links: tuple | None
    pending: tuple[int, ...]
    ends: tuple[tuple[tuple[int, int], ...], ...]


def _skeleton(d: Diagram, crossings: list[_XC]) -> tuple[_Skeleton, _State]:
    """Cut a valid diagram at its crossings into edges; the root state."""
    n = d.n
    avoid = [p for c in d.components for p in c.points]
    avoid += [xc[0] for xc in crossings] + [puncture_position(i) for i in range(1, n + 1)]
    rays = [_free_ray(puncture_position(q), avoid) for q in range(1, n + 1)]
    sk = _Skeleton(n)
    dirs: list[Dir] = []  # the outward direction of each end

    marks: dict[tuple[int, int], list[tuple[Point, int]]] = {}
    for x, (point, key1, key2) in enumerate(crossings):
        marks.setdefault(key1, []).append((point, x))
        marks.setdefault(key2, []).append((point, x))
    at_crossing: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in crossings]
    at_puncture: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    free_loops = []

    def add_edge(run) -> int:
        pts = [point for point, _, _ in run]
        counts = [
            sum(_ray_crossing(a, b, puncture_position(q), rays[q - 1]) for a, b in zip(pts, pts[1:]))
            for q in range(1, n + 1)
        ]
        e = sk.edge(counts)
        dirs.extend((primitive_dir(vsub(pts[1], pts[0])), primitive_dir(vsub(pts[-2], pts[-1]))))
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
    root = _State(
        half_a=0,
        vexp=(0,) * n,
        links=(tuple(free_loops), None),
        pending=tuple(range(len(crossings))),
        ends=tuple(tuple(sorted(ends)) for ends in at_puncture),
    )
    return sk, root


# ---------------------------------------------------------------------------
# resolution: smoothing, joining, terminal states
# ---------------------------------------------------------------------------


def _smooth(sk: _Skeleton, st: _State, sign: int) -> _State:
    """The last pending crossing smoothed; sign +1 is the A term."""
    pairs = sk.smoothings[st.pending[-1]][0 if sign > 0 else 1]
    return st._replace(
        half_a=st.half_a + 2 * sign, links=(pairs, st.links), pending=st.pending[:-1]
    )


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
    return _State(
        half_a=st.half_a + sign,
        vexp=tuple(vexp),
        links=(((hi, pieces[0]), (lo, pieces[-1] ^ 1)), st.links),
        pending=st.pending + tuple(new_crossings),
        ends=tuple(ends),
    )


# The arc generators of the punctured spheres, keyed by the punctures they join.
_ARC_GENS: dict[presentations.Surface, dict[tuple[int, int], Generator]] = {
    presentations.Surface(0, 2): {(1, 2): presentations.GEN_A},
    presentations.Surface(0, 3): dict(zip(((2, 3), (1, 3), (1, 2)), presentations.GENS_A3)),
}


def _terminal(sk: _Skeleton, st: _State) -> WeightedState:
    """Walk the curves of a terminal state: arcs give the word, ordered by
    the lower height of their two ends, and loops give scalars."""
    n = sk.n
    partner: dict[int, int] = {}
    node = st.links
    while node is not None:
        pairs, node = node
        for a, b in pairs:
            partner[a] = b
            partner[b] = a
    seen: set[int] = set()
    arcs = []
    for at_p in st.ends:
        for _, e in at_p:
            f = e ^ 1
            seen.update((e, f))
            while f in partner:
                f = partner[f] ^ 1
                seen.update((f, f ^ 1))
            (p, h), (q, g) = sk.at[e], sk.at[f]
            if p < q:
                arcs.append((min(h, g), (p, q)))
    coeff = LaurentPoly(n, {Monomial(st.half_a, st.vexp): 1})
    for start in partner:
        if start in seen:
            continue
        winding = [0] * n
        e = start
        while True:
            seen.update((e, e ^ 1))
            winding = [w + c for w, c in zip(winding, sk.count[e])]
            e = partner[e ^ 1]
            if e == start:
                break
        enclosed = sum(1 for w in winding if w)
        if min(enclosed, n - enclosed) == 0:
            coeff = coeff * ring.loop_scalar(n)
        else:
            coeff = coeff * ring.puncture_loop_scalar(n)
    word = tuple(_ARC_GENS[0, n][ij] for _, ij in sorted(arcs))
    return WeightedState(coeff, word)


def _pick(st: _State, rng) -> tuple[int, int] | None:
    """The (puncture, index) of the next pair to join: lowest first, or random."""
    options = [(p, i) for p, at_p in enumerate(st.ends, start=1) for i in range(len(at_p) - 1)]
    if not options:
        return None
    return options[0] if rng is None else options[rng.randrange(len(options))]


def resolve_fully(d: Diagram, rng=None) -> list[WeightedState]:
    """The terminal states of the resolution tree, one weighted word each.

    With ``rng`` given, admissible puncture pairs are chosen at random
    instead of lowest-first; the sum of the states must not depend on the
    choice.
    """
    if d.n == 1 or d.n > 3:
        raise DiagramError(
            "evaluation is defined for punctured spheres with n = 0, 2 or 3"
            " (on the once-punctured sphere the loop around the puncture"
            " bounds a disk on its other side)"
        )
    errors, crossings = _validated(d)
    if errors:
        raise DiagramError(errors)
    sk, root = _skeleton(d, crossings)
    todo = [root]
    out: list[WeightedState] = []
    while todo:
        st = todo.pop()
        if st.pending:
            todo.append(_smooth(sk, st, +1))
            todo.append(_smooth(sk, st, -1))
            continue
        pick = _pick(st, rng)
        if pick is not None:
            p, i = pick
            todo.append(_join(sk, st, p, i, +1))
            todo.append(_join(sk, st, p, i, -1))
            continue
        out.append(_terminal(sk, st))
    return out


def evaluate(d: Diagram, rng=None) -> AlgElement:
    """Resolve a diagram to its element of the presented algebra.

    With ``rng`` given, admissible puncture pairs are chosen at random
    instead of lowest-first; the result must not depend on the choice.
    """
    total = AlgElement(d.n, ((ws.word, ws.coefficient) for ws in resolve_fully(d, rng)))
    if d.n >= 2:
        total = presentations.nf(presentations.Surface(0, d.n), total)
    return total


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------

_PERTURB_DIRS = ((1, 2), (2, -1), (-1, 2), (3, 1), (-2, -3))
_PERTURB_SCALES = tuple(Fraction(1, 2**k) for k in range(4, 11))


def _shift_heights(c: Component, shift: int) -> Component:
    if c.closed:
        return c
    return Component(
        c.points,
        False,
        Attachment(c.start.puncture, c.start.height + shift),
        Attachment(c.end.puncture, c.end.height + shift),
    )


def _movable(c: Component) -> Component:
    """c, with a midpoint if it is an arc of one segment, so that some vertex
    of it can move while its ends stay at their punctures."""
    if c.closed or len(c.points) > 2:
        return c
    a, b = c.points
    return Component((a, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), b), False, c.start, c.end)


def _translate(c: Component, delta: tuple[Fraction, Fraction]) -> Component:
    pts = list(c.points)
    moved = []
    for i, q in enumerate(pts):
        pinned = not c.closed and (i == 0 or i == len(pts) - 1)
        moved.append(q if pinned else vadd(q, delta))
    return Component(tuple(moved), c.closed, c.start, c.end)


def _in_hull(q: Point, corners: Sequence[Point]) -> bool:
    """Is q in the closed convex hull of at most four corners?"""
    for x, y in combinations(corners, 2):
        if q in (x, y) or on_segment_interior(q, x, y):
            return True
    for x, y, z in combinations(corners, 3):
        sides = [cross(vsub(v, u), vsub(q, u)) for u, v in ((x, y), (y, z), (z, x))]
        if all(c > 0 for c in sides) or all(c < 0 for c in sides):
            return True
    return False


def _sweeps_puncture(before: Sequence[Component], after: Sequence[Component], n: int) -> bool:
    """Does moving each component from ``before`` to ``after`` sweep a puncture?

    A translated segment sweeps a parallelogram, or a triangle when one end
    stays at its puncture and the segment rotates about it; that puncture
    itself does not count.
    """
    for c0, c1 in zip(before, after):
        for k in range(c0.segment_count()):
            a, b = c0.segment(k)
            corners = list(dict.fromkeys((a, b) + c1.segment(k)))
            for i in range(1, n + 1):
                q = puncture_position(i)
                if q not in (a, b) and _in_hull(q, corners):
                    return True
    return False


def _try_stack(d1: Diagram, upper: tuple[Component, ...], d2: Diagram) -> Diagram | None:
    """Layer ``upper``, a moved copy of d2, above d1 if general position
    holds and d2's crossings map one-to-one onto upper's, else None.

    Segment k of an upper component stands for segment k of its d2
    component; both halves of an arc split by ``_movable`` stand for its
    segment 0.  The crossings list the lower (component, segment) first, so
    d1's strand comes first at a crossing between the layers, and a d2 pair
    keeps its order and its label.
    """
    offset = len(d1.components)
    comps = d1.components + upper
    errors, crossings = _crossings(Diagram(d1.n, comps))
    if errors:
        return None
    over: dict[CrossKey, str] = {}
    of_d2: set[CrossKey] = set()
    for _, (s1, k1), (s2, k2) in crossings:
        key = ((s1, k1), (s2, k2))
        if s2 < offset:
            over[key] = d1.over[key]
        elif s1 < offset:
            over[key] = "b"  # the upper layer is over
        else:
            parent = tuple(
                (s - offset, min(k, d2.components[s - offset].segment_count() - 1))
                for s, k in ((s1, k1), (s2, k2))
            )
            if parent not in d2.over or parent in of_d2:
                return None
            of_d2.add(parent)
            over[key] = d2.over[parent]
    if len(of_d2) != len(d2.over):
        return None
    return Diagram(d1.n, comps, over)


def stack(d1: Diagram, d2: Diagram) -> Diagram:
    """The product diagram: d2 layered above d1.

    All endpoint heights of d2 are shifted above all of d1's, and at every
    crossing between the two diagrams d2 is the over strand.  If the union
    violates general position, every vertex of d2 but its puncture ends is
    translated by a small rational vector found by search; an arc of one
    segment first gets a midpoint to move.  A translation is rejected if it
    sweeps a puncture or changes d2's own crossings.
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
    shifted = tuple(_shift_heights(c, shift) for c in d2.components)

    direct = _try_stack(d1, shifted, d2)
    if direct is not None:
        return direct
    movable = tuple(_movable(c) for c in shifted)
    for dx, dy in _PERTURB_DIRS:
        for scale in _PERTURB_SCALES:
            delta = (scale * dx, scale * dy)
            moved = tuple(_translate(c, delta) for c in movable)
            if _sweeps_puncture(movable, moved, d1.n):
                continue
            result = _try_stack(d1, moved, d2)
            if result is not None:
                return result
    witness, _ = _crossings(Diagram(d1.n, d1.components + shifted))
    raise DiagramError(
        ["stacking could not restore general position by perturbation"] + witness[:4]
    )


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
