"""The repository benchmark: one command, three workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload table1_cold --seed 1 \
        --seconds 20 --trace 0

Workloads: ``table1_cold``, ``table1_warm`` (:mod:`table1`) and
``serve_mixed`` (:mod:`serve_mixed`); ``perfbench/README.md`` says why
each was chosen and which layer should move which metric.  The command
prints every metric by name with its unit and sample count, the
correctness failures (on stderr), and as its last stdout line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
run with the layer wrappers installed) with ``--trace 1``.  It exits 1
when any operation failed its correctness check and 2 when the
benchmark could not run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Dict

import benchlib

WORKLOADS = ("table1_cold", "table1_warm", "serve_mixed")

#: End-to-end metrics, each measured on every workload.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

IMPLEMENTATIONS = benchlib.IMPLEMENTATIONS
#: Per-layer metrics; a layer a workload does not run reads 0 there.
PER_LAYER: Dict[str, str] = {
    "pass.wall_s": "s",
    "startup.import_s": "s",
    "conformance.run_s": "s",
    "conformance.coverage_s": "s",
    "conformance.cases": "count",
    "extraction.extract_s": "s",
    "extraction.log_lines": "count",
    "extraction.blocks": "count",
    "threat.build_s": "s",
    "threat.models_built": "count",
    "mc.check_s": "s",
    "mc.checks": "count",
    "mc.states_explored": "count",
    "mc.product_states": "count",
    "mc.peak_frontier": "count",
    "mc.states_per_s": "1/s",
    "mc.cache.get_s": "s",
    "mc.cache.hit_ratio": "ratio",
    "cegar.self_s": "s",
    "cegar.iterations": "count",
    "cegar.refinements": "count",
    "cegar.model_reuse_ratio": "ratio",
    "cpv.validate_s": "s",
    "cpv.step_verdicts": "count",
    "testbed.attack_s": "s",
    "testbed.attacks": "count",
    "engine.self_s": "s",
    **{f"engine.verify_s.{i}": "s" for i in IMPLEMENTATIONS},
    **{f"engine.extract_s.{i}": "s" for i in IMPLEMENTATIONS},
    **{f"engine.states_explored.{i}": "count" for i in IMPLEMENTATIONS},
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "determinism.seed_drift": "count",
    "serve.capacity_jobs_per_min": "1/min",
    "serve.burst_mean_s": "s",
    "serve.cold_p50_s": "s",
    "serve.cold_p90_s": "s",
    "serve.cold_mean_s": "s",
    "serve.hit_p50_s": "s",
    "serve.hit_p90_s": "s",
    "serve.fuzz_p50_s": "s",
    "serve.queue_wait_p50_s": "s",
    "serve.queue_wait_p90_s": "s",
    "serve.run_cold_mean_s": "s",
    "serve.run_fuzz_mean_s": "s",
    "serve.backlog_at_last_arrival": "count",
    "serve.rejected": "count",
    "serve.store_hit_ratio": "ratio",
    "serve.job_mc_checks": "count",
    "serve.http_submit_p50_s": "s",
    "serve.http_submit_p90_s": "s",
    "serve.journal_bytes": "bytes",
    "store.files": "count",
    "fuzz.execs": "count",
    "fuzz.execs_per_s": "1/s",
    "fuzz.corpus_files": "count",
    "loadgen.late_p90_s": "s",
    "loadgen.late_max_s": "s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> Dict:
    benchlib.require_program()
    if args.workload == "serve_mixed":
        import serve_mixed
        return serve_mixed.run(args.seed, args.seconds)
    import table1
    return table1.run(args.workload, args.seed, args.seconds,
                      bool(args.trace))


def result_line(result: Dict, trace: bool) -> Dict:
    """The final JSON object (the benchmark's machine-readable result)."""
    units = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    unknown = set(values) - set(units)
    if unknown:
        raise benchlib.BenchError(f"unregistered metrics {sorted(unknown)}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so every child and server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        result = run_workload(args)
        line = result_line(result, bool(args.trace))
    except (benchlib.BenchError, ImportError, OSError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g}")
    print("\n".join(result["table"].lines()))
    if args.trace:
        print("per-layer:")
        for name, entry in line["metrics"].items():
            print(f"  {name:<40} {entry['value']:>14.6f} {entry['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
