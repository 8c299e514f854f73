"""Exact computation in Kauffman bracket arc algebras of small punctured surfaces.

The package computes normal forms in the presented algebras of the twice-
and thrice-punctured spheres and of the closed and once-punctured tori,
evaluates planar framed-curve diagrams on punctured spheres by skein
resolution, and verifies the presentations, the left-regular representation,
and the agreement between the diagram engine and the presentations.  All
arithmetic is exact: integer Laurent polynomials in A^(1/2) and the
puncture variables, and plane geometry on integers, in one frame per
diagram (fractions remain only in documents, points and crossing positions).

The diagram engine (``arcalg.diagrams`` and the ``arcalg.geometry`` it
imports) loads on first use: the first time one of its names below, or
``arcalg.diagrams`` itself, is asked for.  Importing the package and the
commands that use only the presentations do not compile it.
"""

import importlib as _importlib

from .ring import (
    ArityError,
    LaurentPoly,
    Monomial,
    a_half_power,
    a_power,
    const,
    delta,
    loop_scalar,
    one,
    puncture_loop_scalar,
    v_power,
    zero,
)
from .freealg import AlgElement, Generator, Word, word_key, word_str
from .rewrite import (
    ConfluenceReport,
    CriticalPair,
    RewriteSystem,
    Rule,
    RuleError,
    StepBudgetExceeded,
    complete,
    critical_pairs,
)
from .presentations import (
    CheckRecord,
    PresentedAlgebra,
    Report,
    Surface,
    SUPPORTED_SURFACES,
    VARIANT_DEFAULT,
    VARIANT_LITERAL,
    algebra_for,
    boundary_element,
    generator_alphabet,
    independence_rank,
    nf,
    psi_embed,
    rational_rank,
    rho,
    rho_element,
    verify_presentation,
    verify_rho_homomorphism,
)
from .expressions import ParseError, parse_element, parse_scalar

# Looked up in ``arcalg.diagrams`` by ``__getattr__`` (PEP 562).
_DIAGRAM_NAMES = (
    "Attachment", "Component", "Diagram", "DiagramError", "EvaluationBudgetExceeded", "WeightedState",
    "arc_diagram", "diagram_crossings", "diagram_from_dict", "diagram_to_dict", "dumps_diagram",
    "empty_diagram", "evaluate", "generator_diagram", "loads_diagram", "loop_component",
    "resolve_fully", "stack", "validate",
)

__version__ = "0.1.0"
__all__ = [name for name in globals() if not name.startswith("_")] + ["diagrams", *_DIAGRAM_NAMES]


def __getattr__(name: str):
    if name == "diagrams" or name in _DIAGRAM_NAMES:
        diagrams = _importlib.import_module(".diagrams", __name__)
        return diagrams if name == "diagrams" else getattr(diagrams, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
