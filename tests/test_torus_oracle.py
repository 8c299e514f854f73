"""F1,0 normal forms checked against the Frohman-Gelca product-to-sum formula.

The formula (Trans. AMS 352, 2000) lives in ``bench/oracles.py``, which shares
no code with the rewrite layer; it is loaded from there by path and only read.
Equal values in the (p,q)_T basis mean equal elements of the skein algebra of
the closed torus.
"""

import importlib.util
import random
from pathlib import Path

from arcalg import AlgElement, Surface, VARIANT_DEFAULT, VARIANT_LITERAL, algebra_for
from arcalg.presentations import GENS_G3
from arcalg.rewrite import RewriteSystem, complete

_ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"
_spec = importlib.util.spec_from_file_location("_frohman_gelca_oracles", _ORACLES)
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)
torus_value = oracles.torus_value

F10 = Surface(1, 0)


def test_default_relations_hold():
    relations = algebra_for(F10, VARIANT_DEFAULT).relations
    assert len(relations) == 4
    for name, lhs, rhs in relations:
        assert torus_value(lhs) == torus_value(rhs), name


def test_literal_commutation_relations_fail():
    *commutations, (name, lhs, rhs) = algebra_for(F10, VARIANT_LITERAL).relations
    assert len(commutations) == 3
    for rel_name, rel_lhs, rel_rhs in commutations:
        assert torus_value(rel_lhs) != torus_value(rel_rhs), rel_name
    assert name.startswith("boundary loop") and torus_value(lhs) == torus_value(rhs)


def _assert_rules_hold(rules):
    for rule in rules:
        assert torus_value(AlgElement.from_word(rule.lhs, 0)) == torus_value(rule.rhs), rule


def test_completed_rules_hold():
    alg = algebra_for(F10)
    assert len(alg.system.rules) == 7
    _assert_rules_hold(alg.system.rules)
    system, _ = complete(RewriteSystem(0, alg.rules), 11)
    assert len(system.rules) == 12
    _assert_rules_hold(system.rules)


def test_normal_forms_keep_their_value():
    alg = algebra_for(F10)
    rng = random.Random(2015)
    for _ in range(300):
        word = tuple(rng.choice(GENS_G3) for _ in range(rng.randint(0, 8)))
        x = AlgElement.from_word(word, 0)
        assert torus_value(alg.nf(x)) == torus_value(x), word
