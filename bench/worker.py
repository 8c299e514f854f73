"""One timed pass of one workload, in a fresh process.

Usage: python3 bench/worker.py WORKLOAD SEED INPUT_INDEX TRACED EXTRAS [SPANS_PATH]
       python3 bench/worker.py setup

Measures set-up (importing arcalg and building the algebras of all four
surfaces), builds the pass's inputs, times each operation, then checks every
output against its oracle outside the timed region.  A machine-speed
reference chunk is timed after set-up, between operations and every
10 ms inside them (``speed.SpeedSampler``), and left out of every
operation's time, so that each time can be given at a fixed machine speed.
The JSON holds both the raw and the nominal-speed times.  With TRACED=1 the
wrappers of ``tracing`` are installed for the timed pass only.  With
EXTRAS=1 the worker also computes the exact per-layer counts that need
extra library calls (noncanonical words, terminal states, input crossings).
Prints one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    if not (SRC / "arcalg" / "__init__.py").is_file():
        print(f"error: arcalg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import arcalg  # noqa: F401
    import arcalg.cli  # noqa: F401
    from arcalg.presentations import SUPPORTED_SURFACES, VARIANT_DEFAULT, algebra_for

    t1 = time.perf_counter()
    for surface in SUPPORTED_SURFACES:
        # the cache key the CLI and presentations.nf use
        algebra_for(surface, VARIANT_DEFAULT)
    t2 = time.perf_counter()
    from speed import SpeedSampler, reference_chunk

    result = {
        "setup_s": t2 - t0,
        "algebra_for_s": t2 - t1,
        "setup_chunk_s": [reference_chunk() for _ in range(3)],
    }
    if argv == ["setup"]:
        print(json.dumps(result))
        return 0

    workload, seed, input_index, traced, extras = argv[:5]
    seed, input_index = int(seed), int(input_index)
    traced, extras = traced == "1", extras == "1"
    spans_path = argv[5] if len(argv) > 5 else None
    import workloads

    ops = workloads.make_ops(workload, seed, input_index)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    outputs, intervals, errors = [], [], []
    sampler = SpeedSampler()
    sampler.mark()
    sampler.start()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t = time.perf_counter()
        try:
            outputs.append(workloads.run_op(workload, op))
        except Exception:  # a raising operation is a failed operation
            outputs.append(None)
            errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        intervals.append((t, time.perf_counter()))
        sampler.mark()
    sampler.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    raw, nominal = zip(*(sampler.op_times(a, b) for a, b in intervals))

    failed = 0
    for op, out in zip(ops, outputs):
        if out is None or not workloads.check_op(workload, op, out):
            failed += 1
            errors.append(f"{op.label}: output failed its check")

    result.update({
        "wall_s": sum(raw),
        "op_s": raw,
        "op_nominal_s": nominal,
        "chunk_s": sampler.chunk_s(),
        "attempted": len(ops),
        "failed": failed,
        "errors": errors[:5],
        "peak_rss_mb": peak_rss_mb,
        "traced": traced,
    })
    t3 = time.perf_counter()
    if extras:
        result["counts"] = _extra_counts(workload, ops, outputs, traced)
    if tracer is not None:
        result["trace"] = tracer.summary()
        if spans_path:
            tracer.write_spans(spans_path)
    result["extras_s"] = time.perf_counter() - t3
    print(json.dumps(result))
    return 0


def _extra_counts(workload: str, ops, outputs, traced: bool) -> dict:
    """Exact counts that need library calls outside the timed pass."""
    import workloads
    from arcalg.diagrams import diagram_crossings, resolve_fully

    done = [(op, out) for op, out in zip(ops, outputs) if out is not None]
    counts = {}
    if workload == "torus_words":
        counts["noncanonical"] = workloads.noncanonical([(op, text) for op, (code, text) in done if code == 0])
        counts["noncanonical_of"] = len(ops)
    if workload == "diagram_products" and traced:
        stacked = [d for _, (d, _) in done]
        counts["input_crossings"] = sum(len(diagram_crossings(d)) for d in stacked)
        counts["terminal_states"] = sum(len(resolve_fully(d)) for d in stacked)
    if workload == "completion":
        counts["rules_added"] = sum(len(report.added_rules) for _, (_, report) in done)
    return counts


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
