"""``repro.obs`` — the pipeline-wide observability layer.

Dependency-free tracing, metrics and profiling hooks threaded through
every ProChecker phase (conformance execution, Algorithm 1 extraction,
threat instrumentation, the CEGAR loop, model checking, CPV queries).

Two recording layers with different determinism guarantees:

- **spans** (:func:`span`, :func:`inc`) — hierarchical timed regions
  with counters attached to the innermost open span.  Counters recorded
  inside a per-property verification span are scheduling-invariant and
  feed the canonical block of
  :class:`~repro.obs.stats.PipelineStats`;
- **registry metrics** (:func:`count`, :func:`gauge_max`,
  :func:`observe`) — process-wide counters/gauges/histograms for
  quantities that legitimately vary with ``--jobs`` and cache warmth
  (cache hit rates, models built, per-worker utilisation).

Both cross the process-pool boundary explicitly: workers
:func:`reset` themselves, record, then ship ``drain_spans()`` payloads
and ``metrics().drain()`` snapshots home, where the engine adopts the
spans under its open phase span and merges the snapshots — so the
reassembled trace is one tree keyed by property id, whatever the
worker scheduling was.

The module-level functions operate on one process-global
:class:`Observatory`; tests that need isolation construct their own
:class:`~repro.obs.spans.Tracer` / registry, or call :func:`reset`.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      diff_snapshots)
from .sinks import (InMemorySink, JsonlTraceSink, SummarySink, iter_records,
                    read_trace, write_trace)
from .spans import ATTR_PROPERTY, Span, Tracer
from .stats import (PROPERTY_SPAN, REQUIRED_PHASES, PipelineStats,
                    audit_trace, trace_phase_names)

__all__ = [
    "ATTR_PROPERTY", "Counter", "Gauge", "Histogram", "InMemorySink",
    "JsonlTraceSink", "MetricsRegistry", "Observatory", "PROPERTY_SPAN",
    "PipelineStats", "REQUIRED_PHASES", "Span", "SummarySink", "Tracer",
    "adopt_spans", "audit_trace", "count", "diff_snapshots",
    "drain_spans", "gauge_max", "get_observatory", "inc", "iter_records",
    "metrics", "observe", "read_trace", "reset", "span",
    "trace_phase_names", "tracer", "write_trace",
]


class Observatory:
    """One process's tracer + metrics registry."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()


_lock = threading.Lock()
_observatory = Observatory()


def _new_lock_in_child() -> None:
    # A fork copies _lock as it is, but only the forking thread: a copy
    # held by any other thread would never be released in the child.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock_in_child)


def get_observatory() -> Observatory:
    return _observatory


def reset() -> Observatory:
    """Fresh tracer and registry (pool workers, test isolation)."""
    global _observatory
    with _lock:
        _observatory = Observatory()
    return _observatory


def tracer() -> Tracer:
    return _observatory.tracer


def metrics() -> MetricsRegistry:
    return _observatory.metrics


# ---------------------------------------------------------------------------
# Span layer (deterministic)
# ---------------------------------------------------------------------------
def span(name: str, **attributes):
    """Open a span on the current thread: ``with obs.span("cegar", ...)``."""
    return _observatory.tracer.span(name, **attributes)


def inc(name: str, value: float = 1) -> None:
    """Span-scoped counter: lands on the innermost open span (and rolls
    up into the enclosing property span's deterministic stats).  Also
    mirrored into the registry so process-wide totals stay queryable
    even for work done outside any span."""
    _observatory.tracer.inc(name, value)
    _observatory.metrics.counter(name).inc(value)


def drain_spans() -> List[Span]:
    """Remove and return every finished root span of this process."""
    return _observatory.tracer.drain()


def adopt_spans(payloads: Sequence[Dict]) -> None:
    """Graft serialized worker spans into the current trace position."""
    for payload in payloads:
        _observatory.tracer.adopt(Span.from_dict(payload))


# ---------------------------------------------------------------------------
# Registry layer (runtime / scheduling-dependent)
# ---------------------------------------------------------------------------
def count(name: str, value: float = 1) -> None:
    """Registry-only counter (cache hits, models built, ...)."""
    _observatory.metrics.counter(name).inc(value)


def gauge_max(name: str, value: float) -> None:
    """High-water-mark gauge (largest Büchi product, ...)."""
    _observatory.metrics.gauge(name).record(value)


def observe(name: str, value: float,
            buckets: Optional[Sequence[float]] = None) -> None:
    """Histogram observation (per-property seconds, states per check)."""
    _observatory.metrics.histogram(name, buckets).observe(value)
