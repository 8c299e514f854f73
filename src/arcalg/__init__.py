"""Exact computation in Kauffman bracket arc algebras of small punctured surfaces.

The package computes normal forms in the presented algebras of the twice-
and thrice-punctured spheres and of the closed and once-punctured tori,
evaluates planar framed-curve diagrams on punctured spheres by skein
resolution, and verifies the presentations, the left-regular representation,
and the agreement between the diagram engine and the presentations.  All
arithmetic is exact: integer Laurent polynomials in A^(1/2) and the
puncture variables, and rational plane geometry.
"""

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
    parse_poly,
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
from .diagrams import (
    Attachment,
    Component,
    Diagram,
    DiagramError,
    EvaluationBudgetExceeded,
    WeightedState,
    arc_diagram,
    diagram_crossings,
    diagram_from_dict,
    diagram_to_dict,
    dumps_diagram,
    empty_diagram,
    evaluate,
    generator_diagram,
    loads_diagram,
    loop_component,
    resolve_fully,
    stack,
    validate,
)

__version__ = "0.1.0"
