"""Tests of the benchmark itself: the oracles reject wrong answers, and the
exact counts repeat across processes with different hash seeds.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from arcalg.diagrams import evaluate, generator_diagram, stack  # noqa: E402
from arcalg.freealg import AlgElement  # noqa: E402
from arcalg.presentations import GEN_A, GENS_A3, GENS_G3  # noqa: E402
from arcalg.rewrite import ConfluenceReport, Rule  # noqa: E402

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from workloads import F02, F03, F10, F11, Op  # noqa: E402

G1, G2, G3 = GENS_G3
A1, A2, A3 = GENS_A3


def _word(word, n):
    return AlgElement.from_word(word, n)


def test_torus_oracle_accepts_normal_forms_and_rejects_swapped_product():
    alg = workloads.algebra(F10)
    for _, lhs, rhs in alg.relations:
        assert oracles.torus_value(lhs) == oracles.torus_value(rhs)
    word = (G1, G2, G3, G2, G1)
    assert oracles.check_torus_closed(word, alg.nf(_word(word, 0)))
    assert not oracles.check_torus_closed((G1, G2), _word((G2, G1), 0))


def test_rho_oracle_rejects_wrong_product():
    d = stack(generator_diagram(F03, A1), generator_diagram(F03, A2))
    value = evaluate(d)
    assert oracles.check_sphere3((A1, A2), value)
    assert not oracles.check_sphere3((A1, A3), value)
    assert not oracles.check_sphere3((A1, A1), value)


def test_sphere2_check_rejects_wrong_power():
    a = generator_diagram(F02, GEN_A)
    cube = evaluate(stack(stack(a, a), a))
    assert oracles.check_sphere2((GEN_A,) * 3, cube)
    assert not oracles.check_sphere2((GEN_A,) * 2, cube)


def test_r3_diagram_is_the_cube_of_its_arc():
    for n, arc in ((2, GEN_A), (3, A3)):
        op = Op(workloads.Surface(0, n), (arc,) * 3, (workloads.r3_diagram(n, "7/8", 2),))
        assert workloads.check_op("diagram_products", op, workloads.run_op("diagram_products", op))
        wrong = Op(op.surface, (arc,) * 2, op.layers)
        assert not workloads.check_op("diagram_products", wrong, workloads.run_op("diagram_products", op))


def test_torus_output_checks_reject_wrong_text():
    op = Op(F10, (G1, G2))
    assert workloads.check_op("torus_words", op, workloads.run_op("torus_words", op))
    assert not workloads.check_op("torus_words", op, (0, "g2*g1"))
    assert not workloads.check_op("torus_words", op, (2, ""))
    # F1,1 has only the round trip: text that does not print back is rejected.
    op11 = Op(F11, (G2, G1))
    assert workloads.check_op("torus_words", op11, workloads.run_op("torus_words", op11))
    assert not workloads.check_op("torus_words", op11, (0, "g2 * g1"))


def test_completion_checks_reject_false_rules():
    def with_rule(surface, rule):
        report = ConfluenceReport(added_rules=[rule])
        return workloads.check_op("completion", Op(surface, bound=6), (None, report))

    assert not with_rule(F10, Rule((G2, G1), _word((G1, G2), 0)))
    assert not with_rule(F03, Rule((A2, A1), _word((A1,), 3)))
    op = Op(F10, bound=8)
    assert workloads.check_op("completion", op, workloads.run_op("completion", op))


def test_stacked_crossings_rule():
    assert workloads.stacked_crossings(workloads.LENGTH4_WORD) == 4
    assert workloads.stacked_crossings((A2, A2, A2)) == 0
    assert workloads.stacked_crossings((A1, A1, A1)) == 3


def test_op_times_leave_out_chunks_and_scale_to_nominal_speed():
    sampler = speed.SpeedSampler()
    full = speed.NOMINAL_CHUNK_S
    # marks before and after an operation from 1.0 to 2.0 s, with one chunk
    # inside it from 1.4 to 1.5 s; the machine runs at half speed after it
    sampler.samples = [(0.9, 1.0, full), (1.4, 1.5, 2 * full), (2.0, 2.1, 2 * full)]
    raw, nominal = sampler.op_times(1.0, 2.0)
    assert raw == pytest.approx(0.9)
    assert nominal == pytest.approx(0.4 / 1.5 + 0.5 / 2)
    # no chunk inside: one stretch at the mean speed of the two marks
    sampler.samples = [(0.9, 1.0, full), (2.0, 2.1, 3 * full)]
    assert sampler.op_times(1.0, 2.0) == pytest.approx((1.0, 0.5))


def _traced_pass(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, "1", "0", "1", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = result["trace"]
    exact = {k: trace[k] for k in ("calls", "hits", "peak_support", "critical_pairs")}
    return result, dict(exact, counts=result["counts"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_across_hash_seeds(workload):
    first, counts1 = _traced_pass(workload, 1)
    _, counts2 = _traced_pass(workload, 2)
    assert counts1 == counts2
    assert first["failed"] == 0
    if workload == "torus_words":
        assert first["counts"]["noncanonical"] > 0
