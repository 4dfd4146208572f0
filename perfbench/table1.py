"""The ``table1_cold`` and ``table1_warm`` workloads.

Every pass is one three-implementation Table I analysis
(``analyze_many`` with ``jobs=1``) in a fresh interpreter
(:mod:`table1_pass`), timed from process start to exit, so interpreter
start and ``import repro.api`` are part of the number and no process-
wide memo carries over from one pass to the next.  ``jobs=1`` makes the
number per-core work rather than the shared machine's scheduling; the
engine's process pool is therefore not measured.

- ``table1_cold`` passes have no verdict cache: model checking does most
  of the work.
- ``table1_warm`` passes read a verdict cache that set-up filled with one
  cold pass: ``ModelChecker.check`` answers from the cache (``mc.checks``
  must be 0), and the time goes to start-up, conformance, extraction,
  threat instrumentation, cache reads and testbed attacks.

The seed only permutes the implementation order of each pass; verdicts
and work counters must not depend on it.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import time
from typing import Dict, List, Optional

import benchlib
import gate

#: Passes per run at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Set-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 3
PASS_TIMEOUT_S = 150.0
CHILD = os.path.join("perfbench", "table1_pass.py")

#: Per-layer self times taken from the wrappers of :mod:`layers`.
SELF_TIME_LAYERS = {
    "conformance.run_s": "conformance.run",
    "conformance.coverage_s": "conformance.coverage",
    "extraction.extract_s": "extraction.extract",
    "threat.build_s": "threat.build",
    "mc.check_s": "mc.check",
    "mc.cache.get_s": "mc.cache.get",
    "cegar.self_s": "cegar",
    "cpv.validate_s": "cpv.validate",
    "testbed.attack_s": "testbed.attack",
}
#: Per-layer work counts read from the program's registry.
COUNTERS = (
    "conformance.cases", "extraction.log_lines", "extraction.blocks",
    "threat.models_built", "mc.checks", "mc.states_explored",
    "mc.product_states", "mc.peak_frontier", "cegar.iterations",
    "cegar.refinements", "cpv.step_verdicts", "testbed.attacks")


class Pass:
    """One finished pass: parent-side wall time plus the child's output."""

    def __init__(self, wall_s: float, cpu_s: float, traced: bool,
                 out: Dict):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.traced = traced
        self.out = out
        self.failures: List[str] = []

    @property
    def counters(self) -> Dict[str, float]:
        return self.out["counters"]

    def signatures(self) -> Dict[str, str]:
        return {implementation: report["signature"]
                for implementation, report in self.out["reports"].items()}


def _order(rng: random.Random) -> List[str]:
    """A seeded implementation order for one pass."""
    return rng.sample(benchlib.IMPLEMENTATIONS,
                      len(benchlib.IMPLEMENTATIONS))


def _run_pass(order, mc_cache: Optional[str], traced: bool) -> Pass:
    args = [CHILD, "--order", ",".join(order)]
    if mc_cache is not None:
        args += ["--mc-cache", mc_cache]
    if traced:
        args.append("--trace")
    cpu = benchlib.children_cpu_s()
    started = time.perf_counter()
    out = benchlib.run_child(args, timeout=PASS_TIMEOUT_S)
    wall = time.perf_counter() - started
    result = Pass(wall, benchlib.children_cpu_s() - cpu, traced,
                  json.loads(out.strip().splitlines()[-1]))
    result.failures = gate.pass_failures(result.out["reports"])
    return result


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    rng = random.Random(seed)
    work = os.path.join(benchlib.WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(workload, rng, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, rng, seconds, trace, work) -> Dict:
    warm = workload == "table1_warm"
    setups: List[float] = []
    fills: List[Pass] = []
    cache: Optional[str] = None
    for attempt in range(SETUP_REPEATS):
        if warm:
            # Set-up of a warm pass: fill a fresh verdict cache with one
            # cold pass (the last filled cache is the one measured).
            if cache is not None:
                shutil.rmtree(cache)
            cache = os.path.join(work, f"mc-cache-{attempt}")
            filled = _run_pass(_order(rng), cache, False)
            filled.failures += gate.counter_drift(
                (fills or [filled])[0].counters, filled.counters)
            setups.append(filled.wall_s)
            fills.append(filled)
        else:
            # Set-up of a cold pass: prove the checkout imports.
            started = time.perf_counter()
            benchlib.run_child([CHILD, "--import-only"],
                               timeout=PASS_TIMEOUT_S)
            setups.append(time.perf_counter() - started)

    passes: List[Pass] = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - started
            + statistics.median(p.wall_s for p in passes) <= seconds):
        traced = trace and len(passes) % 2 == 1
        current = _run_pass(_order(rng), cache, traced)
        current.failures += gate.counter_drift(
            (passes or [current])[0].counters, current.counters)
        if warm:
            if current.signatures() != fills[-1].signatures():
                current.failures.append(
                    "warm verdict signatures differ from the cold pass")
            if current.counters.get("mc.checks", 0):
                current.failures.append(
                    f"warm pass ran {current.counters['mc.checks']} checks")
        if traced:
            current.failures += _attribution_failures(current)
        passes.append(current)
    # Only a pass without a verdict cache does the seed code's work: with
    # a cache, a later check of a pass can hit an entry an earlier one
    # just wrote.
    drift = [] if warm else gate.counter_drift(
        gate.SEED_COUNTERS, passes[0].counters, tuple(gate.SEED_COUNTERS))
    if drift:
        print(f"note: counters drifted from the seed code: {drift}",
              file=sys.stderr)
    return _metrics(setups, passes, fills + passes, drift)


def _attribution_failures(traced: Pass) -> List[str]:
    """Per-implementation times must fit inside the pass."""
    by_impl = traced.out["layers"]["by_implementation"]
    total = sum(by_impl.values())
    if total > traced.out["analyze_s"]:
        return [f"per-implementation times sum to {total:.3f}s, more "
                f"than the {traced.out['analyze_s']:.3f}s pass"]
    return []


def _metrics(setups, passes, checked, drift) -> Dict:
    plain = [p for p in passes if not p.traced] or passes
    traced = [p for p in passes if p.traced]
    walls = [p.wall_s for p in plain]
    failures = [f"pass {i}: {failure}" for i, p in enumerate(checked)
                for failure in p.failures]
    failed = sum(1 for p in checked if p.failures)
    rss_mb = statistics.median(p.out["rss_kb"] for p in plain) / 1024.0
    cpu_s = statistics.median(p.cpu_s for p in plain)

    table = benchlib.MetricTable()
    table.add("setup_s", benchlib.median_or_zero(setups), "s", len(setups))
    table.add_timing("table1_s", walls)
    table.add("table1_cpu_s", cpu_s, "s", len(plain))
    table.add("peak_rss_mb", rss_mb, "MB", len(plain))
    table.add("failed_share", benchlib.ratio(failed, len(checked)),
              "ratio", len(checked))
    return {
        "table": table,
        "attempted": len(checked),
        "failed": failed,
        "failures": failures,
        "end_to_end": {
            "setup_s": table.value("setup_s"),
            "cpu_s": cpu_s,
            "peak_rss_mb": rss_mb,
        },
        "per_layer": (_layer_metrics(traced, walls, len(drift))
                      if traced else {}),
    }


def _layer_metrics(traced: List[Pass], plain_walls: List[float],
                   drift: int) -> Dict[str, float]:
    """Medians over the traced passes of every per-layer metric."""
    def med(fn) -> float:
        return statistics.median(fn(p) for p in traced)

    def layers(p: Pass) -> Dict:
        return p.out["layers"]

    metrics: Dict[str, float] = {
        "pass.wall_s": statistics.median(plain_walls),
        "startup.import_s": med(lambda p: p.out["import_s"]),
    }
    for metric, layer in SELF_TIME_LAYERS.items():
        metrics[metric] = med(lambda p: layers(p)["self"].get(layer, 0.0))
    for name in COUNTERS:
        metrics[name] = med(lambda p: p.counters.get(name, 0))
    metrics["mc.states_per_s"] = med(lambda p: benchlib.ratio(
        p.counters.get("mc.states_explored", 0),
        layers(p)["self"].get("mc.check", 0.0)))
    metrics["mc.cache.hit_ratio"] = med(lambda p: benchlib.ratio(
        p.counters.get("mc.verdict_cache_hits", 0),
        p.counters.get("mc.verdict_cache_hits", 0)
        + p.counters.get("mc.verdict_cache_misses", 0)))
    metrics["cegar.model_reuse_ratio"] = med(lambda p: benchlib.ratio(
        p.counters.get("cegar.model_cache_hits", 0),
        p.counters.get("cegar.model_cache_hits", 0)
        + p.counters.get("cegar.model_cache_misses", 0)))
    metrics["engine.self_s"] = med(lambda p: sum(
        layers(p)["self"].get(layer, 0.0)
        for layer in ("engine.verify", "engine.extract")))
    for implementation in benchlib.IMPLEMENTATIONS:
        for layer, stem in (("engine.verify", "engine.verify_s"),
                            ("engine.extract", "engine.extract_s")):
            key = f"{layer}.{implementation}"
            metrics[f"{stem}.{implementation}"] = med(
                lambda p: layers(p)["by_implementation"].get(key, 0.0))
        metrics[f"engine.states_explored.{implementation}"] = med(
            lambda p: layers(p)["states_by_implementation"].get(
                f"engine.verify.{implementation}", 0.0))
    metrics["trace.unattributed_s"] = med(lambda p: p.wall_s
                                          - p.out["import_s"]
                                          - sum(layers(p)["self"].values()))
    metrics["trace.overhead_s"] = med(lambda p: p.wall_s) \
        - statistics.median(plain_walls)
    metrics["determinism.seed_drift"] = drift
    return metrics
