"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is a list of operations.  ``make_ops`` builds the list for
one pass from the run's seed (untimed), ``run_op`` is the timed call into
arcalg, and ``check_op`` compares the output with an independent oracle
(untimed).  A pass always runs in a fresh process, so no cache inside the
library can carry results from one pass to the next.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import arcalg.cli
from arcalg import diagrams, rewrite
from arcalg.diagrams import Attachment, Component, Diagram, diagram_crossings, generator_diagram
from arcalg.expressions import parse_element
from arcalg.freealg import AlgElement, Word
from arcalg.presentations import (
    GEN_A,
    GENS_A3,
    GENS_G3,
    SUPPORTED_SURFACES,
    VARIANT_DEFAULT,
    Surface,
    algebra_for,
    generator_alphabet,
    rho_element,
)

import oracles

WORKLOADS = ("diagram_products", "torus_words", "completion")

F02, F03, F10, F11 = SUPPORTED_SURFACES


def algebra(surface: Surface):
    """The algebra built during set-up (same cache key as the CLI uses)."""
    return algebra_for(surface, VARIANT_DEFAULT)


@dataclass(frozen=True)
class Op:
    """One operation.  ``word`` is the generator word the output must equal."""

    surface: Surface
    word: Word = ()
    layers: tuple[Diagram, ...] = ()  # diagram_products: stacked bottom to top
    split: int = 0  # torus_words: w = w[:split] * w[split:]
    bound: int = 0  # completion: degree bound

    @property
    def label(self) -> str:
        if self.bound:
            return f"{self.surface} bound {self.bound}"
        return f"{self.surface} {'*'.join(map(str, self.word))}"


# -- diagram_products ---------------------------------------------------------

# The length-4 product is fixed: a1 a2 a3 a1 is the k = 4 truncation of the
# roadmap's a1 a2 a3 a1 a2.  Length-4 products take 0.5-3 s each on the seed,
# so a drawn one would move wall_s between seeds by more than any bound.
LENGTH4_WORD = (GENS_A3[0], GENS_A3[1], GENS_A3[2], GENS_A3[0])
# Length-3 products are drawn from the 12 with two crossings (0.06-0.08 s
# each); that keeps the median operation inside one tight group of costs.
LENGTH3_CROSSINGS = 2
LENGTH3_COUNT = 6
# Plateau heights above and below the crossing of the first two R3 strands.
R3_MOVES = (("7/8", "1/2"), ("13/16", "7/16"))


def stacked_crossings(word: Word) -> int:
    """Crossings of the stacked standard F0,3 arcs of ``word``.

    Two layers cross once when they are the same arc other than a2, or when
    exactly one of them is a2 (a2 passes over puncture 2, where a1 and a3
    end).  This matches ``diagram_crossings`` for every word of length <= 4.
    """
    a2 = GENS_A3[1]
    return sum(
        (x == y and x != a2) or ((x == a2) != (y == a2))
        for x, y in itertools.combinations(word, 2)
    )


def r3_diagram(n: int, plateau: str, top_height: int) -> Diagram:
    """Three arcs from puncture 1 to 2 meeting in three crossings.

    The third arc runs along a plateau at height ``plateau``; moving the
    plateau across the crossing of the first two is a Reidemeister III move.
    Over/under follows the endpoint heights, so the diagram is the stacked
    cube of the arc from 1 to 2: a^3 on F0,2 and a3^3 on F0,3.
    """
    y = Fraction(plateau)

    def arc(points, height):
        pts = tuple((Fraction(px), Fraction(py)) for px, py in points)
        return Component(pts, False, Attachment(1, height), Attachment(2, height))

    comps = (
        arc(((1, 0), ("5/4", 1), (2, 0)), 0),
        arc(((1, 0), ("7/4", 1), (2, 0)), 1),
        arc(((1, 0), ("5/4", y), ("7/4", y), (2, 0)), top_height),
    )
    heights = (0, 1, top_height)
    over = {
        (ka, kb): "a" if heights[ka[0]] > heights[kb[0]] else "b"
        for (ka, kb), _ in diagram_crossings(Diagram(n, comps, {}))
    }
    return Diagram(n, comps, over)


def _diagram_ops(rng: random.Random) -> list[Op]:
    layer = {g: generator_diagram(F03, g) for g in GENS_A3}

    def product(word: Word) -> Op:
        return Op(F03, word, tuple(layer[g] for g in word))

    ops = [product(w) for w in itertools.product(GENS_A3, repeat=2)]
    words3 = [w for w in itertools.product(GENS_A3, repeat=3) if stacked_crossings(w) == LENGTH3_CROSSINGS]
    ops += [product(w) for w in rng.sample(words3, LENGTH3_COUNT)]
    ops.append(product(LENGTH4_WORD))
    a = generator_diagram(F02, GEN_A)
    ops += [Op(F02, (GEN_A,) * k, (a,) * k) for k in (2, 3)]
    for n, top in itertools.product((2, 3), (2, -1)):
        arc = GEN_A if n == 2 else GENS_A3[2]
        for plateau in rng.choice(R3_MOVES):  # both sides of one R3 move
            ops.append(Op(Surface(0, n), (arc,) * 3, (r3_diagram(n, plateau, top),)))
    return ops


def _run_diagram(op: Op):
    d = op.layers[0]
    for upper in op.layers[1:]:
        d = diagrams.stack(d, upper)
    return d, diagrams.evaluate(d)


def _check_diagram(op: Op, output) -> bool:
    _, value = output
    if op.surface == F03:
        return oracles.check_sphere3(op.word, value)
    return oracles.check_sphere2(op.word, value)


# -- torus_words --------------------------------------------------------------

TORUS_LENGTHS = range(4, 12)
TORUS_WORDS_PER_LENGTH = 4
# One more word makes the count odd (65).  With an even count the pooled
# op_p50_ms falls on the edge between the two middle words, whose costs
# differ by a fifth, and reads an extreme of each; with an odd count it is
# the median latency of the middle word.
TORUS_ANCHOR = (F10, tuple(GENS_G3))


def torus_word_set() -> list[tuple[Surface, Word]]:
    """A fixed draw of distinct random words, 4 per length 4..11 per torus,
    and the F1,0 word g1*g2*g3.

    The cost of one normal form varies 100-fold between words of the same
    length (0.005-2 s at length 11), so words drawn per seed would move
    wall_s between seeds by 10-30 %.  The seed therefore sets only the
    order of the words and the split points used by noncanonical_ratio.
    """
    rng = random.Random("torus_words")
    out = [TORUS_ANCHOR]
    for surface in (F10, F11):
        for length in TORUS_LENGTHS:
            seen: set[Word] = set()
            while len(seen) < TORUS_WORDS_PER_LENGTH:
                seen.add(tuple(rng.choice(GENS_G3) for _ in range(length)))
            out += [(surface, w) for w in sorted(seen)]
    return out


def _torus_ops(rng: random.Random) -> list[Op]:
    return [Op(s, w, split=rng.randrange(1, len(w))) for s, w in torus_word_set()]


def _run_torus(op: Op):
    text = "*".join(map(str, op.word))
    argv = ["normalize", "--surface", f"{op.surface.genus},{op.surface.punctures}", text]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = arcalg.cli.main(argv)
    return code, out.getvalue().strip()


def parse_output(surface: Surface, text: str) -> AlgElement:
    return parse_element(text, surface.punctures, generator_alphabet(surface))


def _check_torus(op: Op, output) -> bool:
    code, text = output
    if code != 0:
        return False
    value = parse_output(op.surface, text)
    if str(value) != text:
        return False
    return op.surface != F10 or oracles.check_torus_closed(op.word, value)


def noncanonical(printed: list[tuple[Op, str]]) -> int:
    """How many words w = u*v, with nf(w) printed, have nf(w) != nf(nf(u)*v)."""
    count = 0
    for op, text in printed:
        alg = algebra(op.surface)
        n = op.surface.punctures
        u, v = op.word[: op.split], op.word[op.split :]
        resumed = alg.nf(alg.nf(AlgElement.from_word(u, n)) * AlgElement.from_word(v, n))
        count += resumed != parse_output(op.surface, text)
    return count


# -- completion ---------------------------------------------------------------

COMPLETION_BOUNDS = range(6, 12)
# Torus completion runs from bound 3, the longest left-hand side; from bound
# 4 on, each bound adds a rule (g1 g2^k g3, k <= b - 2).  The sphere systems
# are confluent as given.
TORUS_COMPLETION_BOUNDS = range(3, 12)


def _completion_ops(rng: random.Random) -> list[Op]:
    # F0,2 has one rule and one critical pair (a^3): its completion is the same
    # 0.1 ms at every bound, so it runs once.  The 25 operations then put the
    # pooled p50 and p90 in the middle of one operation's samples (the 13th
    # and 23rd by cost), not on the edge between two operations of different
    # cost, where they would read an extreme of each.
    return (
        [Op(F02, bound=COMPLETION_BOUNDS[0])]
        + [Op(F03, bound=b) for b in COMPLETION_BOUNDS]
        + [Op(s, bound=b) for s in (F10, F11) for b in TORUS_COMPLETION_BOUNDS]
    )


def _run_completion(op: Op):
    alg = algebra(op.surface)
    return rewrite.complete(rewrite.RewriteSystem(alg.arity, alg.rules), op.bound)


def _check_completion(op: Op, output) -> bool:
    _, report = output
    n = op.surface.punctures
    for rule in report.added_rules:
        lhs = AlgElement.from_word(rule.lhs, n)
        if op.surface == F10:
            ok = oracles.torus_value(lhs) == oracles.torus_value(rule.rhs)
        elif op.surface == F03:
            ok = rho_element(lhs) == rho_element(rule.rhs)
        else:  # no oracle in the repository for F0,2 or F1,1 rules
            ok = parse_output(op.surface, str(rule.rhs)) == rule.rhs
        if not ok:
            return False
    return True


# -- dispatch -----------------------------------------------------------------

_MAKE = {"diagram_products": _diagram_ops, "torus_words": _torus_ops, "completion": _completion_ops}
_RUN = {"diagram_products": _run_diagram, "torus_words": _run_torus, "completion": _run_completion}
_CHECK = {"diagram_products": _check_diagram, "torus_words": _check_torus, "completion": _check_completion}


def make_ops(workload: str, seed: int, input_index: int) -> list[Op]:
    """The operations of one pass, in seeded order."""
    rng = random.Random(f"{workload}:{seed}:{input_index}")
    ops = _MAKE[workload](rng)
    rng.shuffle(ops)
    return ops


def run_op(workload: str, op: Op):
    return _RUN[workload](op)


def check_op(workload: str, op: Op, output) -> bool:
    return _CHECK[workload](op, output)
