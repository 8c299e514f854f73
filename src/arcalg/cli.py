"""Command-line front end.

Subcommands:

* ``normalize``     print the normal form of an algebra expression
* ``eval-diagram``  evaluate a diagram file to an algebra element
* ``verify``        run every check for a surface; nonzero exit on failure
* ``complete``      run completion and print the confluence report
* ``rep-check``     verify the left-regular representation is multiplicative

Exit codes: 0 success, 1 check failure (or stdout closed early by its
reader), 2 usage or input error.  Output is deterministic: identical
invocations print identical bytes.

``main`` parses with one parser per process, built by ``build_parser`` on
its first call and reused, so an in-process caller that runs many commands
pays for the argparse tree once.  ``build_parser`` still returns a fresh
parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import presentations
from .expressions import ParseError, parse_element
from .freealg import AlgElement
from .presentations import (
    Surface,
    VARIANT_DEFAULT,
    VARIANT_LITERAL,
    algebra_for,
    generator_alphabet,
)
from .rewrite import RewriteSystem, StepBudgetExceeded, complete

__all__ = ["main", "build_parser"]

USAGE_ERROR = 2
CHECK_FAILURE = 1
BROKEN_PIPE = 1  # what Python itself exits with on EPIPE

# The largest ``complete --degree-bound``; torus completion cost grows about 3x per +4
# (F1,1 at bound 24: 1.2-1.6 s in Python 3.11 on a 2-core x86 VM).
DEGREE_BUDGET = 24

_RANK_SPECIALIZATIONS = (
    (Fraction(2), (Fraction(3), Fraction(5), Fraction(7))),
    (Fraction(1), (Fraction(1), Fraction(1), Fraction(1))),
    (Fraction(1, 2), (Fraction(2), Fraction(3), Fraction(5))),
)


class UsageError(ValueError):
    """A command refused its input; ``main`` prints it and exits 2."""


def _surface(text: str) -> Surface:
    try:
        g, n = text.split(",")
        surface = Surface(int(g), int(n))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected g,n (for example 0,3), got {text!r}")
    if surface not in presentations.SUPPORTED_SURFACES:
        supported = ", ".join(f"{s.genus},{s.punctures}" for s in presentations.SUPPORTED_SURFACES)
        raise argparse.ArgumentTypeError(f"unsupported surface {text!r}; supported: {supported}")
    return surface


def element_to_dict(x: AlgElement) -> dict:
    return {
        "arity": x.arity,
        "terms": [
            {
                "word": [str(g) for g in word],
                "coefficient": [
                    {"half_a": mono.half_a, "vexp": list(mono.vexp), "coeff": c}
                    for mono, c in coeff.terms()
                ],
            }
            for word, coeff in x.terms()
        ],
    }


def _print_element(x: AlgElement, as_json: bool) -> int:
    """Print x and return 0; refuse it, leaving stdout empty, if one of its
    integers has too many digits for ``str`` (the interpreter's limit)."""
    try:
        text = json.dumps(element_to_dict(x), sort_keys=True) if as_json else str(x)
    except ValueError:
        raise UsageError("the result holds an integer too long to print") from None
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcalg",
        description="Exact computation in Kauffman bracket arc algebras of small surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--surface", type=_surface, required=True,
                       help="surface as g,n: one of 0,2  0,3  1,0  1,1")
        p.add_argument("--variant", choices=[VARIANT_DEFAULT, VARIANT_LITERAL],
                       default=VARIANT_DEFAULT,
                       help="index convention for the torus commutation rules")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("normalize", help="normal form of an expression")
    add_common(p)
    p.add_argument("expression")

    p = sub.add_parser("eval-diagram", help="evaluate a diagram file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("verify", help="run all checks for a surface")
    add_common(p)

    p = sub.add_parser("complete", help="completion and confluence report")
    add_common(p)
    p.add_argument("--degree-bound", type=int, default=presentations.DEFAULT_DEGREE_BOUND)

    p = sub.add_parser("rep-check", help="left-regular representation check")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use; parsing leaves it unchanged."""
    return build_parser()


def _cmd_normalize(args) -> int:
    alg = algebra_for(args.surface, args.variant)
    element = parse_element(args.expression, alg.arity, generator_alphabet(args.surface))
    return _print_element(alg.nf(element), args.json)


def _cmd_eval_diagram(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read file: {exc}") from None
    from . import diagrams

    try:
        result = diagrams.evaluate(diagrams.loads_diagram(text))
    except diagrams.DiagramError as exc:
        raise UsageError(str(exc)) from None
    return _print_element(result, args.json)


def _surface_checks(surface: Surface, variant: str) -> presentations.Report:
    records = list(presentations.verify_presentation(surface, variant).records)
    if surface == (0, 3):
        records.extend(presentations.verify_rho_homomorphism().records)
        ranks = presentations.independence_rank(_RANK_SPECIALIZATIONS)
        records.append(
            presentations.CheckRecord(
                "rho rank 4 under 3 rational specializations",
                all(r == 4 for r in ranks),
                f"ranks {ranks}",
            )
        )
    if surface.genus == 0:
        from . import diagrams

        alg = algebra_for(surface, variant)
        for gi in alg.generators:
            for gj in alg.generators:
                try:
                    stacked = diagrams.stack(
                        diagrams.generator_diagram(surface, gi),
                        diagrams.generator_diagram(surface, gj),
                    )
                    engine = diagrams.evaluate(stacked)
                except diagrams.DiagramError as exc:
                    raise UsageError(str(exc)) from None
                expected = alg.nf(
                    AlgElement.from_word((gi, gj), alg.arity)
                )
                records.append(
                    presentations.CheckRecord(
                        f"{surface}: diagram product {gi}*{gj} matches presentation",
                        engine == expected,
                        "" if engine == expected else f"engine {engine} != {expected}",
                    )
                )
    else:
        alg = algebra_for(surface, variant)
        boundary = presentations.boundary_element(surface)
        want = AlgElement.from_scalar(alg.boundary_scalar)
        got = alg.nf(boundary)
        records.append(
            presentations.CheckRecord(
                f"{surface}: boundary loop normalizes to its scalar",
                got == want,
                "" if got == want else f"nf gave {got}",
            )
        )
        for g in alg.generators:
            ge = alg.gen(g)
            commutator = alg.nf(boundary * ge - ge * boundary)
            records.append(
                presentations.CheckRecord(
                    f"{surface}: boundary loop commutes with {g}",
                    commutator.is_zero,
                    "" if commutator.is_zero else f"residue {commutator}",
                )
            )
    return presentations.Report(tuple(records))


def _print_report(report: presentations.Report, as_json: bool) -> int:
    print(json.dumps(report.to_dict(), sort_keys=True) if as_json else "\n".join(report.lines()))
    return 0 if report.passed else CHECK_FAILURE


def _cmd_verify(args) -> int:
    return _print_report(_surface_checks(args.surface, args.variant), args.json)


def _cmd_complete(args) -> int:
    alg = algebra_for(args.surface, args.variant)
    if args.degree_bound < max(len(r.lhs) for r in alg.rules):
        raise UsageError("--degree-bound is smaller than the longest rule")
    if args.degree_bound > DEGREE_BUDGET:
        raise UsageError(f"--degree-bound is larger than DEGREE_BUDGET = {DEGREE_BUDGET}")
    _, report = complete(RewriteSystem(alg.arity, alg.rules), args.degree_bound)
    if args.json:
        surface = f"{args.surface.genus},{args.surface.punctures}"
        print(json.dumps({"surface": surface, **report.to_dict()}, sort_keys=True))
    else:
        print("\n".join(report.lines()))
    return 0 if report.confluent else CHECK_FAILURE


def _cmd_rep_check(args) -> int:
    return _print_report(presentations.verify_rho_homomorphism(), args.json)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    handler = {
        "normalize": _cmd_normalize,
        "eval-diagram": _cmd_eval_diagram,
        "verify": _cmd_verify,
        "complete": _cmd_complete,
        "rep-check": _cmd_rep_check,
    }[args.command]
    try:
        status = handler(args)
        sys.stdout.flush()
        return status
    except (ParseError, StepBudgetExceeded, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull, so that the
        # interpreter's final flush of what is still buffered cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
