"""Reference code: reduction oracles and a completion for the rewrite tests,
and rational plane geometry for the diagram engine's integer predicates.

``all_normal_forms`` explores every possible order of rule application and
returns the set of irreducible results; a singleton set certifies that the
answer does not depend on the engine's reduction strategy.
``random_normal_form`` reduces by picking a random redex at every step.
Both are built on the one-step primitive ``RewriteSystem.apply_at`` only,
never on ``reduce_once``/``normal_form``.

``complete`` is Knuth-Bendix completion as the engine ran it before it kept
critical pairs between passes: each pass builds every critical pair and a
new system, and a pair counts as joined when an equal pair has joined.

``segment_hit``, ``angle`` and ``ray_crossing`` work on points with
fraction coordinates, as the engine did before it scaled each diagram into
an integer frame.

``reference_str`` prints a ``LaurentPoly`` or an ``AlgElement`` as the
engine did before it had one printer with a per-call monomial memo: the
terms sorted by a key per term, and each term rendered on its own.
"""

from __future__ import annotations

from fractions import Fraction

from arcalg import AlgElement, LaurentPoly, RewriteSystem, Rule
from arcalg.geometry import SegHit, cross, vsub
from arcalg.rewrite import ConfluenceReport, CriticalPair, find_subword


def _redexes(system: RewriteSystem, x: AlgElement):
    for word in x.support():
        for ri, rule in enumerate(system.rules):
            start = 0
            while True:
                pos = find_subword(word[start:], rule.lhs)
                if pos < 0:
                    break
                yield word, ri, start + pos
                start += pos + 1


def all_normal_forms(system: RewriteSystem, x: AlgElement, _memo=None) -> set[AlgElement]:
    """Every normal form reachable by any order of single-step reductions."""
    if _memo is None:
        _memo = {}
    cached = _memo.get(x)
    if cached is not None:
        return cached
    _memo[x] = set()  # cycle guard; reductions strictly decrease, so unused
    redexes = list(_redexes(system, x))
    if not redexes:
        result = {x}
    else:
        result = set()
        for word, ri, pos in redexes:
            result |= all_normal_forms(system, system.apply_at(x, word, ri, pos), _memo)
    _memo[x] = result
    return result


def random_normal_form(system: RewriteSystem, x: AlgElement, rng) -> AlgElement:
    """Reduce to a normal form choosing a random redex at every step."""
    while True:
        redexes = list(_redexes(system, x))
        if not redexes:
            return x
        word, ri, pos = redexes[rng.randrange(len(redexes))]
        x = system.apply_at(x, word, ri, pos)


def _ambiguities(system: RewriteSystem):
    for ia, ra in enumerate(system.rules):
        for ib, rb in enumerate(system.rules):
            la, lb = ra.lhs, rb.lhs
            for k in range(1, min(len(la), len(lb))):
                if la[-k:] == lb[:k]:
                    yield la + lb[k:], ia, ib, len(la) - k
            if len(lb) < len(la) or (la == lb and ia < ib):
                for pos in range(len(la) - len(lb) + 1):
                    if la[pos : pos + len(lb)] == lb:
                        yield la, ia, ib, pos


def complete(system: RewriteSystem, degree_bound: int) -> tuple[RewriteSystem, ConfluenceReport]:
    """Completion up to ``degree_bound``, rebuilding every pair on each pass."""
    sysx = system
    joined: set[CriticalPair] = set()
    while True:
        joinable, failures = [], []
        pairs = [
            CriticalPair(word, sysx._reduct(word, ia, 0), sysx._reduct(word, ib, pos))
            for word, ia, ib, pos in _ambiguities(sysx)
            if len(word) <= degree_bound
        ]
        for cp in pairs:
            if cp not in joined:
                diff = sysx.normal_form(cp.left - cp.right)
                if diff:
                    rule = Rule.orient(diff)
                    if rule is None:
                        n1 = sysx.normal_form(cp.left)
                        failures.append((cp, n1, n1 - diff))
                        continue
                    sysx = RewriteSystem(sysx.arity, (*sysx.rules, rule))
                    joined.add(cp)
                    break
                joined.add(cp)
            joinable.append(cp)
        else:
            added = list(sysx.rules[len(system.rules) :])
            unexamined = sum(len(word) > degree_bound for word, *_ in _ambiguities(sysx))
            return sysx, ConfluenceReport(joinable, failures, added, degree_bound, unexamined)


def segment_hit(p1, p2, p3, p4) -> SegHit | None:
    """Exact intersection of segments [p1,p2] and [p3,p4] with fraction
    coordinates, classified as by ``arcalg.geometry.segment_hit``."""
    d1 = vsub(p2, p1)
    d2 = vsub(p4, p3)
    denom = cross(d1, d2)
    w = vsub(p3, p1)
    if denom == 0:
        if cross(d1, w) != 0:
            return None  # parallel, distinct lines
        # Collinear: compare 1-d parameters along d1.
        axis = 0 if d1[0] != 0 else 1
        t3 = Fraction(p3[axis] - p1[axis]) / d1[axis]
        t4 = Fraction(p4[axis] - p1[axis]) / d1[axis]
        lo, hi = min(t3, t4), max(t3, t4)
        inter_lo, inter_hi = max(Fraction(0), lo), min(Fraction(1), hi)
        if inter_lo > inter_hi:
            return None
        if inter_lo == inter_hi:
            return SegHit("touch", (p1[0] + inter_lo * d1[0], p1[1] + inter_lo * d1[1]))
        return SegHit("overlap")
    t = Fraction(cross(w, d2)) / denom
    u = Fraction(cross(w, d1)) / denom
    if not (0 <= t <= 1 and 0 <= u <= 1):
        return None
    x = (p1[0] + t * d1[0], p1[1] + t * d1[1])
    if 0 < t < 1 and 0 < u < 1:
        return SegHit("cross", x)
    return SegHit("touch", x)


def angle(r) -> Fraction:
    """A monotone stand-in in [0, 4) for the counterclockwise angle of r
    from the positive x-axis."""
    x, y = r
    t = Fraction(x, abs(x) + abs(y))
    return 1 - t if y > 0 or (y == 0 and x > 0) else 3 + t


def ray_crossing(a, b, q, tilt=Fraction(1, 10**30)) -> int:
    """Signed crossing of segment a->b with the ray from q in direction
    (tilt, 1), +1 counterclockwise, solved as two lines meeting.  With
    ``tilt`` below any slope between the points, this is the fixed ray
    (straight up, turned clockwise by less than any angle)."""
    r, d, w = (tilt, Fraction(1)), vsub(b, a), vsub(a, q)
    det = cross(r, d)
    if det == 0:
        return 0
    s, u = cross(w, d) / det, cross(w, r) / det  # q + s * r == a + u * d
    return (1 if det > 0 else -1) if s > 0 and 0 <= u <= 1 else 0


def _reference_mono_key(m) -> tuple:
    return (m.degree(), m.half_a, m.vexp)


def _reference_word_key(w) -> tuple:
    return (len(w), w)


def _reference_word_str(w) -> str:
    return "1" if not w else "*".join(str(g) for g in w)


def _reference_mono_str(m, coeff: int) -> str:
    """Render one term without a leading sign, e.g. ``2*A^(1/2)*v1^-1``."""
    parts: list[str] = []
    h = m.half_a
    if h:
        if h % 2 == 0:
            k = h // 2
            parts.append("A" if k == 1 else f"A^{k}")
        else:
            parts.append(f"A^({h}/2)")
    for i, e in enumerate(m.vexp, start=1):
        if e:
            parts.append(f"v{i}" if e == 1 else f"v{i}^{e}")
    c = abs(coeff)
    if c != 1 or not parts:
        parts.insert(0, str(c))
    return "*".join(parts)


def _reference_poly_term(mono, coeff: int) -> tuple[bool, str]:
    return coeff < 0, _reference_mono_str(mono, coeff)


def _reference_element_term(word, coeff: LaurentPoly) -> tuple[bool, str]:
    if len(coeff) != 1:
        text = reference_str(coeff)
        return False, f"({text})" if not word else f"({text})*{_reference_word_str(word)}"
    (mono, c), = coeff._terms.items()
    body = _reference_mono_str(mono, c)
    if not word:
        return c < 0, body
    return c < 0, _reference_word_str(word) if body == "1" else f"{body}*{_reference_word_str(word)}"


def reference_str(x: LaurentPoly | AlgElement) -> str:
    """``str(x)``, one sorted term at a time."""
    if not x._terms:
        return "0"
    poly = isinstance(x, LaurentPoly)
    order = _reference_mono_key if poly else _reference_word_key
    term_str = _reference_poly_term if poly else _reference_element_term
    out = []
    for key, coeff in sorted(x._terms.items(), key=lambda kv: order(kv[0]), reverse=True):
        negative, body = term_str(key, coeff)
        if not out:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)
