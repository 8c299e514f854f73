"""The four presented arc algebras and their verification machinery.

Supported surfaces (genus, punctures): (0,2), (0,3), (1,0), (1,1).

* (0,2): one generator a (the arc between the two punctures) and the single
  relation a^2 = -v1^-1 v2^-1 (A - A^-1)^2.
* (0,3): generators a1, a2, a3 (a_i joins punctures i+1 and i+2, mod 3) with
  a_i a_j = v_k^-1 d a_k for i != j (k the remaining index) and
  a_i^2 = v_{i+1}^-1 v_{i+2}^-1 d^2, where d = A^(1/2) + A^(-1/2).
* (1,0) and (1,1): generators g1, g2, g3 (curves pairwise meeting once) with
  the commutation relations A g_i g_{i+1} - A^-1 g_{i+1} g_i =
  (A^2 - A^-2) g_{i+2} and the cubic relation obtained by equating the
  boundary-loop element to its scalar value: -A^2 - A^-2 on the closed torus
  and A + A^-1 on the once-punctured torus.

Each algebra is one table of defining relations.  On every surface its rules
are those relations oriented, each solved for its leading word; on (0,3) the
table is the nine products a_i a_j above.  The executable rewrite system is
the rules completed (Knuth-Bendix) up to degree 6, so normal forms do not
depend on reduction order for the identities the suite checks.  The module
also houses the 4x4 left-regular representation of the (0,3) algebra on the
module basis (1, a1, a2, a3), exact-rational rank computation for the
independence check, and the scalar-extension embedding of closed-curve
elements defined over Z[A, A^-1].

Everything here is pure and safe to run in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from . import ring
from .freealg import EMPTY_WORD, AlgElement, Generator, Word
from .rewrite import RewriteSystem, Rule, complete
from .ring import LaurentPoly, Monomial

__all__ = [
    "Surface",
    "SUPPORTED_SURFACES",
    "PresentedAlgebra",
    "VARIANT_DEFAULT",
    "VARIANT_LITERAL",
    "CheckRecord",
    "Report",
    "algebra_for",
    "generator_alphabet",
    "nf",
    "boundary_element",
    "psi_embed",
    "rho",
    "rho_element",
    "mat_mul",
    "rational_rank",
    "independence_rank",
    "verify_presentation",
    "verify_rho_homomorphism",
]

VARIANT_DEFAULT = "i-plus-2"
VARIANT_LITERAL = "i-plus-1"  # commutation rhs uses g_{i+1}; fails boundary centrality

DEFAULT_DEGREE_BOUND = 6


class Surface(NamedTuple):
    genus: int
    punctures: int

    def __str__(self) -> str:
        return f"F{self.genus},{self.punctures}"


GEN_A = Generator("a")
GENS_A3 = (Generator("a", 1), Generator("a", 2), Generator("a", 3))
GENS_G3 = (Generator("g", 1), Generator("g", 2), Generator("g", 3))

_GENERATORS = {
    Surface(0, 2): (GEN_A,),
    Surface(0, 3): GENS_A3,
    Surface(1, 0): GENS_G3,
    Surface(1, 1): GENS_G3,
}
SUPPORTED_SURFACES = tuple(_GENERATORS)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    passed: bool
    witness: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.check_id}" + (f"  [{self.witness}]" if self.witness else "")


@dataclass(frozen=True)
class Report:
    records: tuple[CheckRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def lines(self) -> list[str]:
        return [r.line() for r in self.records]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"id": r.check_id, "passed": r.passed, "witness": r.witness}
                for r in self.records
            ],
        }


@dataclass(frozen=True)
class PresentedAlgebra:
    surface: Surface
    generators: tuple[Generator, ...]
    rules: tuple[Rule, ...]  # the defining presentation, oriented
    system: RewriteSystem  # completed executable system
    relations: tuple[tuple[str, AlgElement, AlgElement], ...]
    boundary_scalar: LaurentPoly | None

    @property
    def arity(self) -> int:
        return self.surface.punctures

    def nf(self, x: AlgElement) -> AlgElement:
        return self.system.normal_form(x)

    def gen(self, g: Generator) -> AlgElement:
        return AlgElement.from_generator(g, self.arity)


def _check_surface(surface: Surface) -> Surface:
    surface = Surface(*surface)
    if surface not in SUPPORTED_SURFACES:
        raise ValueError(f"unsupported surface {surface}; supported: {SUPPORTED_SURFACES}")
    return surface


def generator_alphabet(surface: Surface) -> dict[str, Generator]:
    return {str(g): g for g in _GENERATORS[_check_surface(surface)]}


def boundary_element(surface: Surface) -> AlgElement:
    """The loop around the torus puncture, written in the g-generators.

    A g1 g2 g3 - A^2 g1^2 - A^-2 g2^2 - A^2 g3^2 + (A^2 + A^-2).
    """
    surface = _check_surface(surface)
    if surface.genus != 1:
        raise ValueError("boundary_element is defined for the torus algebras only")
    n = surface.punctures
    g1, g2, g3 = (AlgElement.from_generator(g, n) for g in GENS_G3)
    A = ring.a_power(1, n)
    A2 = ring.a_power(2, n)
    Am2 = ring.a_power(-2, n)
    return (
        g1 * g2 * g3 * A
        - (g1 * g1) * A2
        - (g2 * g2) * Am2
        - (g3 * g3) * A2
        + AlgElement.from_scalar(A2 + Am2)
    )


def _presentation(surface: Surface, variant: str):
    """``(relations, defining, boundary)``: the labelled identities ``verify``
    checks, the defining relations the rules orient, and the boundary scalar
    (None off the tori).  Off F0,3 the two relation tuples are the same."""
    n = surface.punctures
    gen = {g.index: AlgElement.from_generator(g, n) for g in _GENERATORS[surface]}
    A, Ainv = ring.a_power(1, n), ring.a_power(-1, n)
    if surface == (0, 2):
        rhs = AlgElement.from_scalar(-(ring.v_power(1, n, -1) * ring.v_power(2, n, -1)) * (A - Ainv) ** 2)
        relations = ((f"a*a = {rhs}", gen[0] * gen[0], rhs),)
        return relations, relations, None
    if surface == (0, 3):
        v = {i: ring.v_power(i, n, -1) for i in gen}
        d = ring.delta(n)
        defining, relations = {}, []
        for i in gen:
            j, k = i % 3 + 1, (i + 1) % 3 + 1
            for m in gen:
                o = 6 - i - m
                label = f"a{i}^2 = v{j}^-1*v{k}^-1*d^2" if m == i else f"a{i}*a{m} = v{o}^-1*d*a{o}"
                rhs = AlgElement.from_scalar(v[j] * v[k] * d * d) if m == i else gen[o] * (v[o] * d)
                defining[i, m] = (label, gen[i] * gen[m], rhs)
            vv = ring.v_power(j, n) * ring.v_power(k, n)
            relations += [
                (f"a{i}*a{j} = a{j}*a{i}", gen[i] * gen[j], gen[j] * gen[i]),
                defining[i, j],
                (f"v{j}*v{k}*a{i}^2 = d^2", gen[i] * gen[i] * vv, AlgElement.from_scalar(d * d)),
            ]
        return tuple(relations), tuple(defining.values()), None
    boundary = ring.loop_scalar(n) if surface == (1, 0) else ring.puncture_loop_scalar(n)
    factor = ring.a_power(2, n) - ring.a_power(-2, n)
    relations = []
    for i in gen:
        j = i % 3 + 1
        r = j if variant == VARIANT_LITERAL else j % 3 + 1
        lhs = gen[i] * gen[j] * A - gen[j] * gen[i] * Ainv
        relations.append((f"A*g{i}*g{j} - A^-1*g{j}*g{i} = (A^2 - A^-2)*g{r}", lhs, gen[r] * factor))
    boundary_rhs = AlgElement.from_scalar(boundary)
    relations.append((f"boundary loop = {boundary}", boundary_element(surface), boundary_rhs))
    return tuple(relations), tuple(relations), boundary


def algebra_for(surface: Surface, variant: str = VARIANT_DEFAULT) -> PresentedAlgebra:
    """The presented algebra of a supported surface, completion included.

    On every surface the rules are the defining relations oriented, each
    solved for its leading word.  On F0,3 the defining relations are the nine
    products a_i*a_j; the relations ``verify`` checks are identities that
    follow from them.  Each (surface, variant) pair is built once per
    process, whichever form the call takes.
    """
    surface = _check_surface(surface)
    if variant not in (VARIANT_DEFAULT, VARIANT_LITERAL):
        raise ValueError(f"unknown variant {variant!r}")
    return _build_algebra(surface, variant)


@lru_cache(maxsize=None)
def _build_algebra(surface: Surface, variant: str) -> PresentedAlgebra:
    relations, defining, boundary = _presentation(surface, variant)
    rules = tuple(Rule.orient(lhs - rhs) for _, lhs, rhs in defining)
    system, _ = complete(RewriteSystem(surface.punctures, rules), DEFAULT_DEGREE_BOUND)
    return PresentedAlgebra(
        surface=surface,
        generators=_GENERATORS[surface],
        rules=rules,
        system=system,
        relations=relations,
        boundary_scalar=boundary,
    )


def nf(surface: Surface, x: AlgElement, variant: str = VARIANT_DEFAULT) -> AlgElement:
    return algebra_for(surface, variant).nf(x)


# -- scalar extension of closed-curve elements -------------------------------


def psi_embed(x: AlgElement, arity: int) -> AlgElement:
    """Reinterpret an element over Z[A, A^-1] (arity 0) in R_arity.

    Words are unchanged; only the scalars move to the bigger ring.  Inputs
    must use whole powers of A and no puncture variables.
    """
    if x.arity != 0:
        raise ValueError("psi_embed input must have arity 0 (no puncture variables)")
    out_terms = {}
    pad = (0,) * arity
    for word, coeff in x.terms():
        lifted = {}
        for mono, c in coeff.terms():
            if mono.half_a % 2:
                raise ValueError("psi_embed input must use whole powers of A")
            lifted[Monomial(mono.half_a, pad)] = c
        out_terms[word] = LaurentPoly(arity, lifted)
    return AlgElement(arity, out_terms)


# -- left regular representation of the (0,3) algebra ------------------------

Matrix = tuple[tuple[LaurentPoly, ...], ...]


@lru_cache(maxsize=None)
def _rho_base() -> dict[Word, Matrix]:
    """rho(1) and rho(a_i), whose column c is a_i times basis element c by the product rule."""
    n = 3
    d = ring.delta(n)
    base = {EMPTY_WORD: tuple(tuple(ring.const(int(r == c), n) for c in range(4)) for r in range(4))}
    for i in (1, 2, 3):
        j, k = i % 3 + 1, (i + 1) % 3 + 1
        vj, vk = ring.v_power(j, n, -1), ring.v_power(k, n, -1)
        m = [[ring.zero(n)] * 4 for _ in range(4)]
        m[i][0] = ring.const(1, n)
        m[0][i] = vj * vk * d * d
        m[k][j] = vk * d
        m[j][k] = vj * d
        base[(Generator("a", i),)] = tuple(map(tuple, m))
    return base


def rho(g: Generator | None = None) -> Matrix:
    """Left-multiplication matrix of 1 (g=None) or a generator a1, a2, a3."""
    word = EMPTY_WORD if g is None else (g,)
    base = _rho_base()
    if word not in base:
        raise ValueError(f"rho is defined on the (0,3) generators, not {g}")
    return base[word]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    z = ring.zero(a[0][0].arity)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), z) for j in range(n))
        for i in range(n)
    )


def _mat_scale(a: Matrix, c: LaurentPoly) -> Matrix:
    return tuple(tuple(e * c for e in row) for row in a)


def _mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def rho_element(x: AlgElement) -> Matrix:
    """Multiplicative-linear extension of rho to arbitrary (0,3) elements."""
    if x.arity != 3:
        raise ValueError("rho_element expects an element over R_3")
    z = ring.zero(3)
    total = tuple(tuple(z for _ in range(4)) for _ in range(4))
    for word, coeff in x.terms():
        m = rho()
        for g in word:
            m = mat_mul(m, rho(g))
        total = _mat_add(total, _mat_scale(m, coeff))
    return total


# -- exact rational linear algebra -------------------------------------------


def rational_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination on exact ``Fraction`` entries."""
    m = [list(map(Fraction, row)) for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    col = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                f = m[r][col] / pv
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def independence_rank(specializations: Iterable[tuple]) -> list[int]:
    """Rank of the flattened rho matrices under each rational specialization.

    Each specialization is (a_half, (v1, v2, v3)) with all values nonzero.
    """
    mats = [rho(None), rho(GENS_A3[0]), rho(GENS_A3[1]), rho(GENS_A3[2])]
    ranks = []
    for a_half, vs in specializations:
        rows = [
            [entry.specialize(a_half, vs) for row in mat for entry in row] for mat in mats
        ]
        ranks.append(rational_rank(rows))
    return ranks


# -- verifiers ----------------------------------------------------------------


def verify_presentation(surface: Surface, variant: str = VARIANT_DEFAULT) -> Report:
    """Check nf(L) - nf(R) = 0 for every defining relation L = R."""
    alg = algebra_for(surface, variant)
    records = []
    for label, lhs, rhs in alg.relations:
        diff = alg.nf(lhs) - alg.nf(rhs)
        records.append(
            CheckRecord(f"{alg.surface}: {label}", diff.is_zero, "" if diff.is_zero else f"residue {diff}")
        )
    return Report(tuple(records))


def verify_rho_homomorphism() -> Report:
    """rho(a_i) rho(a_j) must equal rho(nf(a_i a_j)) exactly, for all i, j."""
    alg = algebra_for(Surface(0, 3))
    records = []
    ident = mat_mul(rho(None), rho(GENS_A3[0]))
    records.append(
        CheckRecord("rho(1)*rho(a1) = rho(a1)", ident == rho(GENS_A3[0]))
    )
    for gi in GENS_A3:
        for gj in GENS_A3:
            product = mat_mul(rho(gi), rho(gj))
            expected = rho_element(alg.nf(alg.gen(gi) * alg.gen(gj)))
            ok = product == expected
            records.append(
                CheckRecord(
                    f"rho({gi})*rho({gj}) = rho(nf({gi}*{gj}))",
                    ok,
                    "" if ok else "matrix mismatch",
                )
            )
    return Report(tuple(records))
