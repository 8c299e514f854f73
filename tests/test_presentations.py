"""The four presented algebras, the 4x4 representation, and the verifiers."""

import random
import re
from fractions import Fraction

import pytest

from arcalg import (
    AlgElement,
    Surface,
    VARIANT_DEFAULT,
    VARIANT_LITERAL,
    a_power,
    algebra_for,
    boundary_element,
    delta,
    generator_alphabet,
    independence_rank,
    nf,
    one,
    parse_element,
    psi_embed,
    rational_rank,
    rho,
    rho_element,
    v_power,
    verify_presentation,
    verify_rho_homomorphism,
    zero,
)
from arcalg.presentations import GENS_A3, GENS_G3, GEN_A, SUPPORTED_SURFACES, mat_mul

A1, A2, A3 = GENS_A3
G1, G2, G3 = GENS_G3


def test_supported_surfaces_only():
    with pytest.raises(ValueError):
        algebra_for(Surface(0, 4))
    with pytest.raises(ValueError):
        algebra_for(Surface(2, 0))


def test_algebra_built_once_per_surface_and_variant():
    for surface in SUPPORTED_SURFACES:
        assert algebra_for(surface) is algebra_for(surface, VARIANT_DEFAULT)
        assert algebra_for(tuple(surface), variant=VARIANT_DEFAULT) is algebra_for(surface)


def test_sphere2_presentation_shape():
    alg = algebra_for(Surface(0, 2))
    assert len(alg.generators) == 1
    assert len(alg.rules) == 1
    assert alg.boundary_scalar is None


def test_sphere3_presentation_shape():
    alg = algebra_for(Surface(0, 3))
    assert len(alg.generators) == 3
    assert len(alg.rules) == 9


def test_torus_presentation_shape():
    for surface, scalar in (
        (Surface(1, 0), -(a_power(2, 0)) - a_power(-2, 0)),
        (Surface(1, 1), a_power(1, 1) + a_power(-1, 1)),
    ):
        alg = algebra_for(surface)
        assert len(alg.generators) == 3
        assert len(alg.rules) == 4  # three commutation rules and the cubic
        assert alg.boundary_scalar == scalar


SPHERE2_RULES = ["a*a -> (-A^2*v1^-1*v2^-1 + 2*v1^-1*v2^-1 - A^-2*v1^-1*v2^-1)"]
TORUS_COMMUTATION_RULES = {
    VARIANT_DEFAULT: [
        "g2*g1 -> A^2*g1*g2 + (-A^3 + A^-1)*g3",
        "g3*g2 -> A^2*g2*g3 + (-A^3 + A^-1)*g1",
        "g3*g1 -> A^-2*g1*g3 + (A - A^-3)*g2",
    ],
    VARIANT_LITERAL: [
        "g2*g1 -> A^2*g1*g2 + (-A^3 + A^-1)*g2",
        "g3*g2 -> A^2*g2*g3 + (-A^3 + A^-1)*g3",
        "g3*g1 -> A^-2*g1*g3 + (A - A^-3)*g1",
    ],
}
SPHERE3_RULES = [
    "a1*a1 -> (A*v2^-1*v3^-1 + 2*v2^-1*v3^-1 + A^-1*v2^-1*v3^-1)",
    "a1*a2 -> (A^(1/2)*v3^-1 + A^(-1/2)*v3^-1)*a3",
    "a1*a3 -> (A^(1/2)*v2^-1 + A^(-1/2)*v2^-1)*a2",
    "a2*a1 -> (A^(1/2)*v3^-1 + A^(-1/2)*v3^-1)*a3",
    "a2*a2 -> (A*v1^-1*v3^-1 + 2*v1^-1*v3^-1 + A^-1*v1^-1*v3^-1)",
    "a2*a3 -> (A^(1/2)*v1^-1 + A^(-1/2)*v1^-1)*a1",
    "a3*a1 -> (A^(1/2)*v2^-1 + A^(-1/2)*v2^-1)*a2",
    "a3*a2 -> (A^(1/2)*v1^-1 + A^(-1/2)*v1^-1)*a1",
    "a3*a3 -> (A*v1^-1*v2^-1 + 2*v1^-1*v2^-1 + A^-1*v1^-1*v2^-1)",
]
TORUS_CUBIC_RULES = {
    Surface(1, 0): "g1*g2*g3 -> A*g3*g3 + A^-3*g2*g2 + A*g1*g1 + (-2*A - 2*A^-3)",
    Surface(1, 1): "g1*g2*g3 -> A*g3*g3 + A^-3*g2*g2 + A*g1*g1 + (-A + 1 + A^-2 - A^-3)",
}


@pytest.mark.parametrize("variant", [VARIANT_DEFAULT, VARIANT_LITERAL])
def test_rules_are_the_oriented_relations(variant):
    # Each defining relation solved for its leading word, in relation order.
    assert [str(r) for r in algebra_for(Surface(0, 2), variant).rules] == SPHERE2_RULES
    assert [str(r) for r in algebra_for(Surface(0, 3), variant).rules] == SPHERE3_RULES
    for surface, cubic in TORUS_CUBIC_RULES.items():
        got = [str(r) for r in algebra_for(surface, variant).rules]
        assert got == TORUS_COMMUTATION_RULES[variant] + [cubic]


@pytest.mark.parametrize("variant", [VARIANT_DEFAULT, VARIANT_LITERAL])
@pytest.mark.parametrize("surface", SUPPORTED_SURFACES)
def test_relation_labels_state_the_checked_equality(surface, variant):
    # The label verify prints, read back as an expression, is the relation.
    alg = algebra_for(surface, variant)
    alphabet = generator_alphabet(surface)
    for label, lhs, rhs in alg.relations:
        text = re.sub(r"\bd\b", "(A^(1/2) + A^(-1/2))", label)
        if surface.genus == 1:
            text = text.replace("boundary loop", f"({boundary_element(surface)})")
        left, right = text.split(" = ")
        assert parse_element(left, surface.punctures, alphabet) == lhs, label
        assert parse_element(right, surface.punctures, alphabet) == rhs, label


def test_nf_products():
    s3 = Surface(0, 3)
    d = delta(3)
    assert nf(s3, AlgElement.from_word((A2, A1), 3)) == AlgElement.from_word(
        (A3,), 3, v_power(3, 3, -1) * d
    )
    assert nf(s3, AlgElement.from_word((A1, A1), 3)) == AlgElement.from_scalar(
        v_power(2, 3, -1) * v_power(3, 3, -1) * d * d
    )
    s2 = Surface(0, 2)
    a = AlgElement.from_generator(GEN_A, 2)
    assert nf(s2, a) == a


def test_rho_matrices_exact_entries():
    d = delta(3)
    d2 = d * d
    v1i, v2i, v3i = (v_power(i, 3, -1) for i in (1, 2, 3))
    z, e = zero(3), one(3)
    assert rho(None) == tuple(
        tuple(e if i == j else z for j in range(4)) for i in range(4)
    )
    expected_m1 = (
        (z, v2i * v3i * d2, z, z),
        (e, z, z, z),
        (z, z, z, v2i * d),
        (z, z, v3i * d, z),
    )
    expected_m2 = (
        (z, z, v1i * v3i * d2, z),
        (z, z, z, v1i * d),
        (e, z, z, z),
        (z, v3i * d, z, z),
    )
    expected_m3 = (
        (z, z, z, v1i * v2i * d2),
        (z, z, v1i * d, z),
        (z, v2i * d, z, z),
        (e, z, z, z),
    )
    assert rho(A1) == expected_m1
    assert rho(A2) == expected_m2
    assert rho(A3) == expected_m3


def test_rho_first_columns_are_basis_vectors():
    cols = []
    for mat in (rho(None), rho(A1), rho(A2), rho(A3)):
        cols.append(tuple(row[0] for row in mat))
    z, e = zero(3), one(3)
    assert cols[0] == (e, z, z, z)
    assert cols[1] == (z, e, z, z)
    assert cols[2] == (z, z, e, z)
    assert cols[3] == (z, z, z, e)


def test_rho_specific_entries():
    d = delta(3)
    assert rho(A1)[0][1] == v_power(2, 3, -1) * v_power(3, 3, -1) * d * d
    assert rho(A1)[3][2] == v_power(3, 3, -1) * d
    assert rho(A3)[0][3] == v_power(1, 3, -1) * v_power(2, 3, -1) * d * d


def test_verify_presentation_all_surfaces():
    for surface in (Surface(0, 2), Surface(0, 3), Surface(1, 0), Surface(1, 1)):
        report = verify_presentation(surface)
        assert report.passed, report.lines()


def test_verify_presentation_counts():
    assert len(verify_presentation(Surface(0, 2)).records) == 1
    assert len(verify_presentation(Surface(0, 3)).records) == 9
    assert len(verify_presentation(Surface(1, 1)).records) == 4


def test_rho_homomorphism_all_pairs():
    report = verify_rho_homomorphism()
    assert report.passed, report.lines()
    # independent spot check by direct matrix product
    prod = mat_mul(rho(A1), rho(A2))
    expected = tuple(
        tuple(entry * (v_power(3, 3, -1) * delta(3)) for entry in row) for row in rho(A3)
    )
    assert prod == expected
    sq = mat_mul(rho(A1), rho(A1))
    scal = v_power(2, 3, -1) * v_power(3, 3, -1) * delta(3) ** 2
    assert sq == tuple(tuple(entry * scal for entry in row) for row in rho(None))


def test_rho_soundness_on_random_elements():
    rng = random.Random(10301)
    alg = algebra_for(Surface(0, 3))
    for _ in range(500):
        word = tuple(rng.choice(GENS_A3) for _ in range(rng.randint(0, 4)))
        coeff = a_power(rng.randint(-2, 2), 3) * rng.randint(-3, 3)
        x = AlgElement.from_word(word, 3, coeff) + AlgElement.from_word(
            tuple(rng.choice(GENS_A3) for _ in range(rng.randint(0, 3))), 3
        )
        assert rho_element(x) == rho_element(alg.nf(x))


def test_rho_element_refuses_a_foreign_generator_as_rho_does():
    # A torus generator in the word raised a bare KeyError.
    x = AlgElement.from_word((A1, G1), 3)
    with pytest.raises(ValueError, match=r"rho is defined on the \(0,3\) generators, not g1"):
        rho_element(x)


def test_independence_rank():
    ranks = independence_rank(
        [
            (Fraction(2), (3, 5, 7)),
            (Fraction(1), (1, 1, 1)),
            (Fraction(1, 2), (2, 3, 5)),
            (Fraction(-1), (1, 2, 3)),
        ]
    )
    assert ranks == [4, 4, 4, 4]


def test_independence_rank_oracle_identity_submatrix():
    # first columns of the four matrices are the standard basis vectors, so
    # the 4x4 submatrix of flattened entries at positions 0, 4, 8, 12 is the
    # identity: rank 4 independent of the specialization
    mats = (rho(None), rho(A1), rho(A2), rho(A3))
    rows = []
    for mat in mats:
        flat = [entry.specialize(Fraction(2), (3, 5, 7)) for row in mat for entry in row]
        rows.append([flat[0], flat[4], flat[8], flat[12]])
    assert rows == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    assert rational_rank(rows) == 4


def test_rank_of_single_matrix():
    flat = [
        [entry.specialize(Fraction(2), (3, 5, 7)) for row in rho(None) for entry in row]
    ]
    assert rational_rank(flat) == 1


def test_rank_rejects_zero_specialization():
    with pytest.raises(ValueError):
        independence_rank([(0, (1, 1, 1))])


def test_boundary_element_support():
    b = boundary_element(Surface(1, 1))
    assert len(b.support()) == 5
    assert () in b.support()


def test_boundary_element_normalizes_to_scalar():
    for surface in (Surface(1, 0), Surface(1, 1)):
        alg = algebra_for(surface)
        got = alg.nf(boundary_element(surface))
        assert got == AlgElement.from_scalar(alg.boundary_scalar)


def test_boundary_centrality():
    for surface in (Surface(1, 0), Surface(1, 1)):
        alg = algebra_for(surface)
        b = boundary_element(surface)
        for g in GENS_G3:
            ge = alg.gen(g)
            assert alg.nf(b * ge - ge * b).is_zero


def test_literal_index_variant_fails_centrality():
    # the alternative index convention on the commutation rhs breaks the
    # centrality of the boundary loop, which pins the default convention
    alg = algebra_for(Surface(1, 1), VARIANT_LITERAL)
    b = boundary_element(Surface(1, 1))
    residues = [alg.nf(b * alg.gen(g) - alg.gen(g) * b) for g in GENS_G3]
    assert any(not r.is_zero for r in residues)


def test_psi_embed_identity_and_scalars():
    x = AlgElement.one(0)
    assert psi_embed(x, 3) == AlgElement.one(3)
    y = AlgElement.from_word((G1,), 0, a_power(1, 0))
    assert psi_embed(y, 1) == AlgElement.from_word((G1,), 1, a_power(1, 1))


def test_psi_embed_boundary_then_nf():
    b0 = boundary_element(Surface(1, 0))  # defined over whole powers of A
    lifted = psi_embed(b0, 1)
    alg = algebra_for(Surface(1, 1))
    assert alg.nf(lifted) == AlgElement.from_scalar(a_power(1, 1) + a_power(-1, 1))


def test_psi_embed_rejects_bad_input():
    with pytest.raises(ValueError):
        psi_embed(AlgElement.one(1), 2)  # arity nonzero
    half = AlgElement.from_scalar(delta(0))
    with pytest.raises(ValueError):
        psi_embed(half, 1)  # half powers of A


def test_f03_spanning_property():
    rng = random.Random(271828)
    alg = algebra_for(Surface(0, 3))
    basis = {(), (A1,), (A2,), (A3,)}
    for _ in range(1000):
        word = tuple(rng.choice(GENS_A3) for _ in range(rng.randint(0, 6)))
        n = alg.nf(AlgElement.from_word(word, 3))
        assert n.support() <= basis


def test_f02_module_dimension():
    alg = algebra_for(Surface(0, 2))
    basis = {(), (GEN_A,)}
    for k in range(11):
        n = alg.nf(AlgElement.from_word((GEN_A,) * k, 2))
        assert n.support() <= basis


def test_report_serialization():
    report = verify_presentation(Surface(0, 2))
    lines = report.lines()
    assert len(lines) == 1 and lines[0].startswith("PASS")
    d = report.to_dict()
    assert d["passed"] is True and len(d["checks"]) == 1
