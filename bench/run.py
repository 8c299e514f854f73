"""Benchmark of arcalg: diagram products, torus normal forms, completion.

Usage (from the repository root):

    python3 bench/run.py --workload diagram_products --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

One client in a closed loop: each pass runs the workload's operations one
after another in a fresh single-threaded worker process, and the next pass
starts when the previous one has ended.  Passes repeat until ``--seconds``
would be exceeded.  Times are reported at a fixed machine speed, measured
by reference chunks timed between and inside operations (see ``speed.py``);
the raw times are in the row and the report.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` every other pass is traced and the JSON holds the per-layer
metrics.  Above it, one row per workload prints every metric with its unit.
A full report, and the spans of traced passes, go to ``bench/out/``.  No layer waits on another (one
thread, no I/O), so no wait time is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("diagram_products", "torus_words", "completion")
MIN_PASSES = 3
SETUPS_PER_PASS = 1  # extra set-up-only workers, so setup_s is a median of many
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "ring.mul_calls": "count",
    "ring.add_calls": "count",
    "ring.self_s": "s",
    "freealg.mul_calls": "count",
    "freealg.add_calls": "count",
    "freealg.self_s": "s",
    "freealg.peak_support": "count",
    "rewrite.nf_calls": "count",
    "rewrite.reduce_steps": "count",
    "rewrite.find_redex_calls": "count",
    "rewrite.redex_hit_ratio": "ratio",
    "rewrite.nf_self_s": "s",
    "rewrite.critical_pairs": "count",
    "rewrite.rules_added": "count",
    "rewrite.noncanonical_ratio": "ratio",
    "presentations.algebra_for_s": "s",
    "diagrams.stack_calls": "count",
    "diagrams.evaluate_calls": "count",
    "diagrams.input_crossings": "count",
    "diagrams.terminal_states": "count",
    "diagrams.loops_removed": "count",
    "geometry.segment_hit_calls": "count",
    "geometry.segment_hit_hit_ratio": "ratio",
    "geometry.winding_number_calls": "count",
    "expressions.parse_calls": "count",
    "cli.main_calls": "count",
    "trace.overhead_s": "s",
}
# Layer times of calls that only some workloads make.  They are zero on the
# others, so they go to the report and the printed row, not to the JSON.
REPORT_ONLY_UNITS = {
    "rewrite.complete_s": "s",
    "diagrams.stack_s": "s",
    "diagrams.evaluate_s": "s",
    "expressions.parse_s": "s",
    "cli.overhead_s": "s",
}


class BenchError(RuntimeError):
    """A pass could not be run; the benchmark prints no result."""


def machine_reference() -> list[float]:
    """Five timings of a fixed pure-Python loop of 10 reference chunks, in seconds."""
    return [speed.reference_chunk(10 * speed.CHUNK_ITERS) for _ in range(5)]


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` would be exceeded; every other one traced if ``trace``."""
    ref_before = machine_reference()
    passes, setups = [], []
    longest = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            break
        i = len(passes)
        traced = trace and i % 2 == 0
        # A traced pass and the untraced pass after it share their inputs,
        # so their difference is the tracing overhead.
        input_index = i // 2 if trace else i
        args = [workload, str(seed), str(input_index), str(int(traced)), str(int(i == 0))]
        if i == 0 and trace:
            args.append(str(OUT / f"spans-{workload}-seed{seed}.tsv"))
        timeout = max(1.0, RUN_LIMIT_S - elapsed)
        t = time.perf_counter()
        record = run_worker(args, timeout)
        setups += [run_worker(["setup"], timeout) for _ in range(SETUPS_PER_PASS)]
        longest = max(longest, time.perf_counter() - t - record["extras_s"])
        passes.append(record)
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "machine_reference_s": {"before": ref_before, "after": machine_reference()},
        "passes": passes,
        "setups": setups,
    }


def nominal_wall_s(record: dict) -> float:
    return sum(record["op_nominal_s"])


def end_to_end(run: dict) -> dict:
    """Times at the nominal machine speed; medians over the run's passes."""
    plain = [p for p in run["passes"] if not p["traced"]]
    samples = [t * 1000 for p in plain for t in p["op_nominal_s"]]
    p90 = statistics.quantiles(samples, n=10)[8]
    return {
        "wall_s": statistics.median(nominal_wall_s(p) for p in plain),
        "op_p50_ms": statistics.median(samples),
        "op_p90_ms": p90,
        "setup_s": statistics.median(speed.setup_times(p)[0] for p in run["passes"] + run["setups"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "op_samples": len(samples),
        "op_beyond_p90": sum(s > p90 for s in samples),
        "raw_wall_s": statistics.median(p["wall_s"] for p in plain),
        "raw_setup_s": statistics.median(p["setup_s"] for p in run["passes"] + run["setups"]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: dict) -> dict:
    """Exact counts from the first traced pass; times as medians over traced passes.

    Times are scaled to the nominal machine speed by each pass's median
    reference chunk.
    """
    passes = run["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    first = traced[0]["trace"]
    counts = passes[0].get("counts", {})
    calls, hits = first["calls"], first["hits"]

    def call(name):
        return calls.get(name, 0)

    def nominal(seconds_of):
        return statistics.median(speed.at_nominal(seconds_of(p), speed.pass_chunk_s(p)) for p in traced)

    def self_s(*prefixes):
        return nominal(lambda p: sum(v for k, v in p["trace"]["self_s"].items() if k.startswith(prefixes)))

    def total_s(name):
        return nominal(lambda p: p["trace"]["total_s"].get(name, 0.0))

    return {
        "ring.mul_calls": call("ring.mul"),
        "ring.add_calls": call("ring.add"),
        "ring.self_s": self_s("ring."),
        "freealg.mul_calls": call("freealg.mul"),
        "freealg.add_calls": call("freealg.add"),
        "freealg.self_s": self_s("freealg."),
        "freealg.peak_support": first["peak_support"],
        "rewrite.nf_calls": call("rewrite.normal_form"),
        "rewrite.reduce_steps": hits.get("rewrite.reduce_once", 0),
        "rewrite.find_redex_calls": call("rewrite.find_redex"),
        "rewrite.redex_hit_ratio": _ratio(hits.get("rewrite.reduce_once", 0), call("rewrite.find_redex")),
        "rewrite.nf_self_s": self_s("rewrite.normal_form", "rewrite.reduce_once", "rewrite.find_redex"),
        "rewrite.critical_pairs": first["critical_pairs"],
        "rewrite.rules_added": counts.get("rules_added", 0),
        "rewrite.noncanonical_ratio": _ratio(counts.get("noncanonical", 0), counts.get("noncanonical_of", 0)),
        "presentations.algebra_for_s": statistics.median(speed.setup_times(p)[1] for p in passes + run["setups"]),
        "diagrams.stack_calls": call("diagrams.stack"),
        "diagrams.evaluate_calls": call("diagrams.evaluate"),
        "diagrams.input_crossings": counts.get("input_crossings", 0),
        "diagrams.terminal_states": counts.get("terminal_states", 0),
        "diagrams.loops_removed": call("ring.loop_scalar") + call("ring.puncture_loop_scalar"),
        "geometry.segment_hit_calls": call("geometry.segment_hit"),
        "geometry.segment_hit_hit_ratio": _ratio(hits.get("geometry.segment_hit", 0), call("geometry.segment_hit")),
        "geometry.winding_number_calls": call("geometry.winding_number"),
        "expressions.parse_calls": call("expressions.parse_element"),
        "cli.main_calls": call("cli.main"),
        "trace.overhead_s": statistics.median(nominal_wall_s(p) for p in traced)
        - statistics.median(nominal_wall_s(p) for p in plain),
        "rewrite.complete_s": total_s("rewrite.complete"),
        "diagrams.stack_s": total_s("diagrams.stack"),
        "diagrams.evaluate_s": total_s("diagrams.evaluate"),
        "expressions.parse_s": total_s("expressions.parse_element"),
        "cli.overhead_s": nominal(lambda p: p["trace"]["cli_overhead_s"]),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def row(run: dict, metrics: dict, units: dict, attempted: int, failed: int) -> str:
    counts = run["passes"][0].get("counts", {})
    ref = run["machine_reference_s"]
    cells = [f"{name}={_fmt(metrics[name])} {unit}" for name, unit in units.items()]
    if not run["trace"]:
        cells.append(f"(op samples={metrics['op_samples']}, beyond p90={metrics['op_beyond_p90']})")
        cells.append(f"raw wall_s={metrics['raw_wall_s']:.6g} setup_s={metrics['raw_setup_s']:.6g}")
    cells.append(f"failed_ratio={failed}/{attempted}")
    if "noncanonical" in counts:
        cells.append(f"noncanonical_ratio={counts['noncanonical']}/{counts['noncanonical_of']}")
    chunks = [speed.pass_chunk_s(p) for p in run["passes"]]
    cells.append(
        f"machine_ref_s={statistics.median(ref['before']):.4f}/{statistics.median(ref['after']):.4f}"
        f" chunk_ms={min(chunks) * 1000:.2f}-{max(chunks) * 1000:.2f}"
    )
    return f"{run['workload']:<17} " + "  ".join(cells)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arcalg" / "__init__.py").is_file():
        print(f"error: no arcalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = {**PER_LAYER_UNITS, **REPORT_ONLY_UNITS} if args.trace else END_TO_END_UNITS
    json_units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = per_layer(run) if args.trace else end_to_end(run)
        attempted = sum(p["attempted"] for p in run["passes"])
        failed = sum(p["failed"] for p in run["passes"])
        print(row(run, metrics, units, attempted, failed), flush=True)
        for p in run["passes"]:
            for line in p["errors"]:
                print(f"  {name}: {line}", file=sys.stderr)
        run.update(metrics=metrics, python=platform.python_version(), cpu_count=os.cpu_count())
        report = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        report.write_text(json.dumps(run, indent=1))
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in json_units.items():
            result["metrics"][prefix + metric] = {"value": metrics[metric], "unit": unit}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
