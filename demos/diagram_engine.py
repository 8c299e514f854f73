"""Evaluating planar framed-curve diagrams by skein resolution.

Builds diagrams out of exact rational polylines, resolves crossings and
puncture pairs, and compares the results with the presented algebras.
"""

from fractions import Fraction as F

from arcalg import (
    AlgElement,
    Component,
    Diagram,
    Surface,
    diagram_crossings,
    dumps_diagram,
    evaluate,
    generator_diagram,
    loop_component,
    nf,
    resolve_fully,
    stack,
)
from arcalg.presentations import GENS_A3, GEN_A


def main():
    print("== loops ==")
    trivial = Diagram(0, (loop_component(0, 1),), {})
    print(f"loop around nothing:      {evaluate(trivial)}")
    around_one = Diagram(3, (loop_component(F(1, 2), F(3, 2)),), {})
    print(f"loop around puncture 1:   {evaluate(around_one)}")
    around_two = Diagram(3, (loop_component(F(3, 2), F(7, 2)),), {})
    print(f"loop around punctures 2,3: {evaluate(around_two)}  (one puncture from the far side)")

    print()
    print("== a kink carries the framing factor ==")
    pts = tuple((F(x), F(y)) for x, y in [(0, 0), (4, 0), (4, 2), (2, 2), (2, -1), (0, -1)])
    kinked = Component(pts, True)
    key = diagram_crossings(Diagram(0, (kinked,), {}))[0][0]
    for label in ("a", "b"):
        value = evaluate(Diagram(0, (kinked,), {key: label}))
        print(f"kinked unknot ({label} strand over): {value}")

    print()
    print("== stacked arcs against the presentations ==")
    s2 = Surface(0, 2)
    d = generator_diagram(s2, GEN_A)
    print(f"a * a on the 2-punctured sphere: {evaluate(stack(d, d))}")
    s3 = Surface(0, 3)
    for gi, gj in ((GENS_A3[0], GENS_A3[1]), (GENS_A3[2], GENS_A3[2])):
        stacked = stack(generator_diagram(s3, gi), generator_diagram(s3, gj))
        engine = evaluate(stacked)
        algebra = nf(s3, AlgElement.from_word((gi, gj), 3))
        marker = "==" if engine == algebra else "!="
        print(f"{gi} * {gj}: engine {engine} {marker} presentation {algebra}")

    print()
    print("== inside the resolution tree ==")
    stacked = stack(generator_diagram(s3, GENS_A3[0]), generator_diagram(s3, GENS_A3[1]))
    states = resolve_fully(stacked)
    print(f"a1 * a2 resolves into {len(states)} merged terminal state(s), one per word"
          " (loops already scalars):")
    for ws in states:
        word = "*".join(str(g) for g in ws.word) or "1"
        print(f"  coefficient {ws.coefficient}; word {word}")

    print()
    print("== the diagram file format ==")
    print(dumps_diagram(generator_diagram(s3, GENS_A3[0])))


if __name__ == "__main__":
    main()
