"""Parallel property-verification engine with shared caches.

The check phase of the pipeline is embarrassingly parallel: once the
implementation FSM is extracted and the core-network model fixed, every
property verdict is a pure function of ``(UE FSM, MME model, property)``.
This module exploits that in three layers:

1. a process-wide :class:`ExtractionCache` keyed by ``(implementation,
   suite fingerprint)``, so benchmarks, CLI commands and repeated
   :class:`~repro.core.prochecker.ProChecker` instances run the
   conformance suite and Algorithm 1 exactly once per implementation;
2. per-run sharing of the property-invariant CEGAR inputs via
   :class:`~repro.core.cegar.CegarContext` — the harvestable-message
   reachability query, the :class:`CounterexampleValidator` and the
   threat-instrumented base model for each distinct
   :class:`~repro.threat.ThreatConfig` (the 49 LTL properties share only
   21 configurations, and cached models keep their warm state graphs);
3. a fan-out of property *groups* over ``jobs=N`` (default
   ``os.cpu_count()``) forked :class:`~repro.workers.Worker`
   processes, one group per shared threat configuration so cache
   locality survives the fan-out.

Scheduling never changes verdicts: results are reassembled in catalog
order and every verdict is byte-identical to a serial run
(:meth:`~repro.core.report.AnalysisReport.verdict_signature`).

Fault tolerance (the crash-isolation contract): a single property's
failure must never erase the other 61 verdicts.  Checker exceptions are
caught at the group boundary and become :attr:`Verdict.ERROR` results
carrying the exception chain as evidence.  Each pooled group runs under
its own deadline, counted from its dispatch; a group whose worker dies,
raises or passes that deadline has that worker, and only that worker,
killed and replaced, and is retried up to :data:`MAX_GROUP_RETRIES`
times with backoff.  Groups that exhaust their retries degrade to the
same in-process loop that ``jobs=1`` runs once the pooled work has
drained, so :meth:`VerificationEngine.verify` always returns a complete
outcome map.  Retries, timeouts, worker respawns and degradations are
counted in the :mod:`repro.obs` metrics registry (``engine.group_*`` /
``engine.pool_rebuilds``, which counts respawned workers).  The
deterministic fault-injection harness (:mod:`repro.faults`) has trip
points at ``engine.verify_group`` and ``engine.verify_one`` so every
one of those paths is exercisable on demand.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import multiprocessing
import os
import threading
import time
import types
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import faults, obs, schema
from ..conformance import TestCase, full_suite, measure_coverage, \
    run_conformance
from ..extraction import (StabilityReport, consensus_extract,
                          extract_model, table_for_implementation)
from ..fsm import FiniteStateMachine
from ..lte.channel import ChaosConfig
from ..lte.implementations import REGISTRY
from ..properties.catalog import ALL_PROPERTIES
from ..properties.spec import (CATEGORY_PRIVACY, CATEGORY_SECURITY,
                               EXTRACTED_VOCAB, KIND_LTL, KIND_TESTBED,
                               Property)
from ..testbed import run_attack
from ..workers import Worker, exception_chain
from .cegar import CegarContext, CegarResult, check_with_cegar, \
    threat_config_key
from .report import PropertyResult, Verdict


class EngineError(Exception):
    """Raised on engine misconfiguration (bad filters, empty runs)."""


# ---------------------------------------------------------------------------
# Analysis configuration (the redesigned pipeline entry point)
# ---------------------------------------------------------------------------
@dataclass
class AnalysisConfig:
    """Declarative description of one analysis run.

    Consumed by :meth:`ProChecker.from_config` and :func:`analyze_many`;
    every knob the CLI exposes maps onto one field here.  The pool's
    retry budget is not a field: see :data:`MAX_GROUP_RETRIES`.
    """

    implementation: str
    #: explicit property objects (overrides ``property_ids``/``category``)
    properties: Optional[Sequence[Property]] = None
    #: select catalog properties by identifier ("SEC-01", ...)
    property_ids: Optional[Sequence[str]] = None
    #: restrict the catalog to "security" or "privacy"
    category: Optional[str] = None
    #: worker processes for the check phase; ``None`` → ``os.cpu_count()``
    jobs: Optional[int] = None
    #: CEGAR iteration budget per property
    max_cegar_iterations: int = 8
    #: custom conformance suite (defaults to ``full_suite(implementation)``)
    cases: Optional[Sequence[TestCase]] = None
    #: deadline of one pooled property group, in seconds from its
    #: dispatch to a worker; ``None`` → no limit
    group_timeout_seconds: Optional[float] = None
    #: deterministic fault plan to install for this run (debugging /
    #: resilience testing; see :mod:`repro.faults`)
    fault_plan: Optional[faults.FaultPlan] = None
    #: seeded radio-link impairment schedule for the conformance run
    #: (``None`` → perfect link; see :class:`repro.lte.channel.ChaosConfig`)
    chaos: Optional[ChaosConfig] = None
    #: with chaos: number of distinct-seed runs merged by the consensus
    #: extractor (1 → single perturbed run, no consensus machinery)
    chaos_runs: int = 1
    #: directory for the persistent cross-run MC verdict cache
    #: (``None`` → off).  A warmth knob, not an identity knob: it can
    #: never change verdicts, so it is excluded from the result-store
    #: job key the same way scheduling knobs are.
    mc_cache_dir: Optional[str] = None

    def resolved_properties(self) -> List[Property]:
        """The property list this configuration selects, catalog order."""
        if self.properties is not None:
            return list(self.properties)
        selected = list(ALL_PROPERTIES)
        if self.category is not None:
            if self.category not in (CATEGORY_SECURITY, CATEGORY_PRIVACY):
                raise EngineError(f"unknown category {self.category!r}")
            selected = [p for p in selected if p.category == self.category]
        if self.property_ids is not None:
            wanted = list(self.property_ids)
            by_id = {p.identifier: p for p in selected}
            missing = [i for i in wanted if i not in by_id]
            if missing:
                raise EngineError(f"unknown property ids: {missing}")
            selected = [by_id[i] for i in wanted]
        return selected

    def resolved_jobs(self) -> int:
        if self.jobs is not None:
            return max(1, int(self.jobs))
        return max(1, os.cpu_count() or 1)

    # ------------------------------------------------------------------
    # Wire form (the job payload of ``POST /v1/jobs``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready job payload (round-trips via :meth:`from_dict`).

        Explicit :class:`Property` objects are narrowed to their catalog
        identifiers; configs carrying non-catalog properties or a custom
        ``cases`` suite hold live callables and cannot cross a process
        boundary — serialising one raises :class:`EngineError`.
        """
        property_ids = (list(self.property_ids)
                        if self.property_ids is not None else None)
        if self.properties is not None:
            from ..properties import property_by_id
            for prop in self.properties:
                try:
                    catalog_prop = property_by_id(prop.identifier)
                except KeyError:
                    catalog_prop = None
                if catalog_prop is not prop:
                    raise EngineError(
                        f"property {prop.identifier!r} is not a catalog "
                        f"property; only catalog selections serialize")
            property_ids = [p.identifier for p in self.properties]
        if self.cases is not None:
            raise EngineError(
                "configs with a custom conformance suite (cases=...) "
                "hold live callables and cannot be serialized")
        return schema.stamp({
            "implementation": self.implementation,
            "property_ids": property_ids,
            "category": self.category,
            "jobs": self.jobs,
            "max_cegar_iterations": self.max_cegar_iterations,
            "group_timeout_seconds": self.group_timeout_seconds,
            "fault_plan": (self.fault_plan.to_dict()
                           if self.fault_plan is not None else None),
            "chaos": (self.chaos.to_dict()
                      if self.chaos is not None else None),
            "chaos_runs": self.chaos_runs,
            "mc_cache_dir": self.mc_cache_dir,
        })

    @classmethod
    def from_dict(cls, payload: Dict) -> "AnalysisConfig":
        """Rebuild a config from a job payload.

        Unknown keys are ignored, including the retired
        ``use_extraction_cache``, ``share_cegar_inputs``,
        ``max_group_retries`` and ``retry_backoff_seconds`` that older
        clients and journals still carry.  Raises
        :class:`~repro.schema.SchemaVersionError` on an unknown
        wire-format major and :class:`EngineError` on a payload without
        an implementation.
        """
        schema.check(payload, "AnalysisConfig")
        implementation = payload.get("implementation")
        if not implementation:
            raise EngineError("job payload lacks an 'implementation'")
        chaos = payload.get("chaos")
        plan = payload.get("fault_plan")
        return cls(
            implementation=implementation,
            property_ids=payload.get("property_ids"),
            category=payload.get("category"),
            jobs=payload.get("jobs"),
            max_cegar_iterations=payload.get("max_cegar_iterations", 8),
            group_timeout_seconds=payload.get("group_timeout_seconds"),
            fault_plan=(faults.FaultPlan.from_dict(plan)
                        if plan is not None else None),
            chaos=(ChaosConfig.from_dict(chaos)
                   if chaos is not None else None),
            chaos_runs=payload.get("chaos_runs", 1),
            mc_cache_dir=payload.get("mc_cache_dir"),
        )


# ---------------------------------------------------------------------------
# Process-wide extraction cache
# ---------------------------------------------------------------------------
@dataclass
class ExtractionRecord:
    """One cached conformance run + extraction."""

    implementation: str
    fsm: FiniteStateMachine
    extraction_seconds: float
    coverage_percent: float
    conformance_cases: int
    log_lines: int
    #: consensus-extraction evidence; only set for chaos runs with
    #: ``chaos_runs >= 2``
    stability: Optional[StabilityReport] = None


def run_extraction(implementation: str,
                   cases: Optional[Sequence[TestCase]] = None,
                   chaos: Optional[ChaosConfig] = None,
                   chaos_runs: int = 1) -> ExtractionRecord:
    """Uncached pipeline front half: conformance run + Algorithm 1.

    With ``chaos`` set and ``chaos_runs >= 2``, the front half becomes a
    consensus extraction (:func:`repro.extraction.consensus_extract`):
    N distinct-seed perturbed runs merged into a majority machine, with
    the clean-run FSM (from the shared cache) as the subgraph baseline.
    """
    if implementation not in REGISTRY:
        raise EngineError(f"unknown implementation {implementation!r}; "
                          f"available: {sorted(REGISTRY)}")
    ue_class = REGISTRY[implementation]
    suite = list(cases) if cases is not None else full_suite(implementation)
    table = table_for_implementation(ue_class)
    stability: Optional[StabilityReport] = None
    if chaos is not None and chaos_runs >= 2:
        clean = extraction_cache.get(implementation, cases)
        consensus = consensus_extract(implementation, chaos, chaos_runs,
                                      cases=suite, clean_fsm=clean.fsm)
        fsm = consensus.fsm
        stability = consensus.report
        log_text = consensus.log_text
        extraction_seconds = consensus.extraction_seconds
        conformance_cases = consensus.conformance_cases
        log_lines = consensus.log_lines
    else:
        outcome = run_conformance(implementation, suite, instrument=True,
                                  chaos=chaos)
        fsm, stats = extract_model(outcome.log_text, table,
                                   name=f"{implementation}_ue")
        log_text = outcome.log_text
        extraction_seconds = stats.elapsed_seconds
        conformance_cases = outcome.executed
        log_lines = stats.log_lines
    with obs.span("conformance.coverage", implementation=implementation):
        coverage = measure_coverage(ue_class, log_text, implementation)
    return ExtractionRecord(
        implementation=implementation,
        fsm=fsm,
        extraction_seconds=extraction_seconds,
        coverage_percent=coverage.percent,
        conformance_cases=conformance_cases,
        log_lines=log_lines,
        stability=stability,
    )


def _stable_code_bytes(code: types.CodeType) -> bytes:
    """Deterministic byte rendering of a code object (no addresses)."""
    parts: List[bytes] = [code.co_code]
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            parts.append(_stable_code_bytes(const))
        else:
            parts.append(repr(const).encode())
    parts.append(" ".join(code.co_names).encode())
    return b"\x00".join(parts)


def _callable_fingerprint(fn) -> Tuple:
    """Content-derived identity of a test-case ``run`` callable.

    ``__qualname__`` alone collides for lambdas/partials defined at the
    same site, so the fingerprint also digests the bytecode, constants,
    defaults and closure-cell values — two behaviourally different
    callables sharing a qualname get distinct cache keys.
    """
    if isinstance(fn, functools.partial):
        return ("partial", _callable_fingerprint(fn.func),
                repr(fn.args), repr(sorted((fn.keywords or {}).items())))
    qualname = getattr(fn, "__qualname__", None)
    code = getattr(fn, "__code__", None)
    if code is None:
        return (qualname or repr(fn),)
    digest = hashlib.sha256(_stable_code_bytes(code))
    digest.update(repr(getattr(fn, "__defaults__", None)).encode())
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            digest.update(repr(cell.cell_contents).encode())
        except ValueError:          # pragma: no cover - unset cell
            digest.update(b"<empty-cell>")
    bound_self = getattr(fn, "__self__", None)
    if bound_self is not None:
        digest.update(repr(bound_self).encode())
    return (qualname, digest.hexdigest())


class ExtractionCache:
    """Process-wide memo of conformance runs and extracted models.

    Keyed by ``(implementation, suite fingerprint)``: the default suite
    fingerprints by name, a custom ``cases`` list by its case identities
    plus a content digest of each ``run`` callable, so passing a
    different suite invalidates naturally.  The ``conformance_runs``
    counter exists so callers (and tests) can assert that a full
    analysis executes exactly one conformance run per implementation.

    Concurrency: misses build under a *per-key* lock, so two threads
    extracting different implementations proceed in parallel and only
    same-key callers block on one build (then share its record).
    """

    _DEFAULT_SUITE = "__default_suite__"

    def __init__(self):
        self._lock = threading.RLock()
        self._records: Dict[Tuple, ExtractionRecord] = {}
        self._building: Dict[Tuple, threading.Lock] = {}
        self.conformance_runs = 0
        self.hits = 0

    @classmethod
    def fingerprint(cls, implementation: str,
                    cases: Optional[Sequence[TestCase]] = None,
                    chaos: Optional[ChaosConfig] = None,
                    chaos_runs: int = 1) -> Tuple:
        if cases is None:
            key: Tuple = (implementation, cls._DEFAULT_SUITE)
        else:
            key = (implementation, tuple(
                (case.identifier, _callable_fingerprint(case.run))
                for case in cases))
        if chaos is not None:
            # ChaosConfig is a frozen dataclass of hashable fields, so
            # the instance itself is a sound cache-key component.
            key = key + ("chaos", chaos, chaos_runs)
        return key

    def _lookup(self, key: Tuple) -> Optional[ExtractionRecord]:
        with self._lock:
            record = self._records.get(key)
            if record is not None:
                self.hits += 1
                obs.count("extraction.cache_hits")
            return record

    def get(self, implementation: str,
            cases: Optional[Sequence[TestCase]] = None,
            chaos: Optional[ChaosConfig] = None,
            chaos_runs: int = 1) -> ExtractionRecord:
        key = self.fingerprint(implementation, cases, chaos, chaos_runs)
        record = self._lookup(key)
        if record is not None:
            return record
        with self._lock:
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = self._building[key] = threading.Lock()
        with build_lock:
            # Another caller may have finished the build while we waited.
            record = self._lookup(key)
            if record is not None:
                return record
            obs.count("extraction.cache_misses")
            record = run_extraction(implementation, cases, chaos=chaos,
                                    chaos_runs=chaos_runs)
            with self._lock:
                self.conformance_runs += 1
                self._records[key] = record
                self._building.pop(key, None)
            return record

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._building.clear()
            self.conformance_runs = 0
            self.hits = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._records),
                    "conformance_runs": self.conformance_runs,
                    "hits": self.hits}


#: The process-wide singleton every pipeline entry point goes through.
extraction_cache = ExtractionCache()


# ---------------------------------------------------------------------------
# Single-property verification (pure function of its arguments)
# ---------------------------------------------------------------------------
def _worker_name() -> str:
    return multiprocessing.current_process().name


def verify_one(prop: Property, implementation: str,
               ue_fsm: FiniteStateMachine, mme_model: FiniteStateMachine,
               max_iterations: int = 8,
               context: Optional[CegarContext] = None) -> PropertyResult:
    """Verify one property; the unit of work the engine schedules.

    Every call happens under one ``verify.property`` span — the unit the
    observability layer reassembles traces around after a pooled run.
    """
    faults.trip("engine.verify_one", key=prop.identifier)
    with obs.span(obs.PROPERTY_SPAN, property=prop.identifier,
                  implementation=implementation, kind=prop.kind) as span:
        if prop.kind == KIND_LTL:
            result = _verify_ltl(prop, ue_fsm, mme_model, max_iterations,
                                 context)
        elif prop.kind == KIND_TESTBED:
            result = _verify_testbed(prop, implementation)
        else:
            raise EngineError(f"unknown property kind {prop.kind!r}")
    obs.observe("verify.seconds", span.duration)
    return result


def error_result(prop: Property, exc: BaseException) -> PropertyResult:
    """The crash-isolation outcome: a checker failure as a result row."""
    obs.count("engine.property_errors")
    return PropertyResult(
        property=prop,
        outcome=Verdict.ERROR,
        evidence=f"checker error: {exception_chain(exc)}",
        worker=_worker_name(),
    )


def _safe_verify_one(prop: Property, implementation: str,
                     ue_fsm: FiniteStateMachine,
                     mme_model: FiniteStateMachine,
                     max_iterations: int = 8,
                     context: Optional[CegarContext] = None
                     ) -> PropertyResult:
    """:func:`verify_one` with the group-boundary catch applied.

    Any exception the checker raises for this property — including
    injected faults — becomes a :attr:`Verdict.ERROR` result instead of
    aborting the group, so every other property still gets its verdict.
    """
    try:
        return verify_one(prop, implementation, ue_fsm, mme_model,
                          max_iterations, context)
    except Exception as exc:  # noqa: BLE001 - the isolation boundary
        return error_result(prop, exc)


def _verify_ltl(prop: Property, ue_fsm: FiniteStateMachine,
                mme_model: FiniteStateMachine, max_iterations: int,
                context: Optional[CegarContext]) -> PropertyResult:
    formula = prop.formula_for(EXTRACTED_VOCAB)
    cegar: CegarResult = check_with_cegar(
        ue_fsm, mme_model, formula, prop.threat,
        name=prop.identifier, max_iterations=max_iterations,
        context=context)
    outcome = Verdict.VERIFIED if cegar.verified else Verdict.VIOLATED
    evidence = ""
    if cegar.is_attack:
        evidence = ("realizable counterexample; adversarial steps: "
                    + ", ".join(dict.fromkeys(
                        cegar.attack.adversary_actions())))
    return PropertyResult(
        property=prop,
        outcome=outcome,
        counterexample=cegar.attack,
        evidence=evidence,
        iterations=cegar.iterations,
        refinements=len(cegar.refinements),
        states_explored=cegar.states_explored,
        elapsed_seconds=cegar.elapsed_seconds,
        worker=_worker_name(),
    )


def _verify_testbed(prop: Property, implementation: str) -> PropertyResult:
    with obs.span("testbed.attack", attack=prop.testbed_attack) as span:
        outcome = run_attack(prop.testbed_attack, implementation)
        obs.inc("testbed.attacks")
    if not outcome.applicable:
        result_outcome = Verdict.NOT_APPLICABLE
    elif outcome.succeeded:
        result_outcome = Verdict.VIOLATED
    else:
        result_outcome = Verdict.VERIFIED
    return PropertyResult(
        property=prop,
        outcome=result_outcome,
        evidence=outcome.evidence,
        iterations=1,
        elapsed_seconds=span.duration,
        worker=_worker_name(),
    )


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------
def group_properties(properties: Sequence[Property]) -> List[List[Property]]:
    """Partition properties into engine tasks.

    LTL properties sharing a :class:`ThreatConfig` form one group so the
    shared instrumented model (and its memoised state graph) is built
    once per group even across process boundaries; each testbed property
    is its own group (independent simulator runs).
    """
    groups: Dict[Tuple, List[Property]] = {}
    order: List[Tuple] = []
    for prop in properties:
        if prop.kind == KIND_LTL:
            key = ("ltl", threat_config_key(prop.threat))
        else:
            key = ("testbed", prop.identifier)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(prop)
    return [groups[key] for key in order]


@dataclass
class ImplementationRun:
    """One implementation's share of an engine invocation."""

    implementation: str
    ue_fsm: FiniteStateMachine
    mme_model: FiniteStateMachine
    properties: Sequence[Property]
    #: the in-process loop's shared CEGAR inputs (a ProChecker's own)
    context: CegarContext
    max_iterations: int = 8
    #: persistent MC verdict cache directory, propagated to the contexts
    #: built in engine workers (``None`` → off)
    mc_cache_dir: Optional[str] = None


def _group_verifier(runs: Sequence[ImplementationRun],
                    tasks: List[Tuple[str, List[Property]]]
                    ) -> Callable[[int], Tuple]:
    """The engine workers' handler: verify ``tasks[index]`` and return
    its results with its serialised ``verify.property`` spans.

    The handler reaches the workers through the fork, so a request is
    just the task index.  Each worker builds its own
    :class:`CegarContext` per implementation, so counters stay
    identical across ``jobs`` widths.  Every property goes through the
    group-boundary catch: a checker exception errors that property.
    """
    runs_by_impl = {run.implementation: run for run in runs}
    contexts: Dict[str, CegarContext] = {}

    def verify_group(index: int) -> Tuple:
        implementation, props = tasks[index]
        faults.trip("engine.verify_group", key=props[0].identifier)
        run = runs_by_impl[implementation]
        context = contexts.get(implementation)
        if context is None:
            context = contexts[implementation] = CegarContext(
                run.ue_fsm, run.mme_model, mc_cache_dir=run.mc_cache_dir)
        results = [(prop.identifier,
                    _safe_verify_one(prop, implementation, run.ue_fsm,
                                     run.mme_model, run.max_iterations,
                                     context))
                   for prop in props]
        return results, [span.to_dict() for span in obs.drain_spans()]

    return verify_group


#: Pooled attempts beyond the first before a group degrades to the
#: in-process loop.
MAX_GROUP_RETRIES = 2
#: Base of the exponential backoff slept before a pooled retry.
RETRY_BACKOFF_SECONDS = 0.05


def _verify_in_process(run: ImplementationRun,
                       props: Sequence[Property]
                       ) -> Dict[Tuple[str, str], PropertyResult]:
    """Verify ``props`` serially in this process on the run's context.

    The ``jobs=1`` path and the degraded fallback of the pool both land
    here, under the same group-boundary catch as the workers.
    """
    return {(run.implementation, prop.identifier):
            _safe_verify_one(prop, run.implementation, run.ue_fsm,
                             run.mme_model, run.max_iterations, run.context)
            for prop in props}


class VerificationEngine:
    """Fans property groups out over worker processes (or runs serially).

    ``jobs=1`` (or a single task) short-circuits to an in-process loop —
    no workers, no pickling — which is also the deterministic baseline
    the parallel path is validated against.

    The pooled path is fault-tolerant: each group runs on one of
    ``min(jobs, groups)`` killable :class:`~repro.workers.Worker`
    processes under an optional deadline of ``group_timeout`` seconds
    from its dispatch.  A crashed, raising or timed-out group has its
    own worker killed and replaced and is retried up to
    :data:`MAX_GROUP_RETRIES` times with exponential backoff (base
    :data:`RETRY_BACKOFF_SECONDS`); groups that exhaust their retries
    degrade gracefully to the in-process loop.  Because every verdict
    is a pure function of its inputs, none of this changes results — a
    degraded run's verdicts are byte-identical to a clean run's (modulo
    ``Verdict.ERROR`` rows for properties whose checker
    deterministically fails everywhere).
    """

    def __init__(self, jobs: Optional[int] = None,
                 group_timeout: Optional[float] = None):
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.group_timeout = group_timeout

    # ------------------------------------------------------------------
    def verify(self, runs: Sequence[ImplementationRun]
               ) -> Dict[str, List[PropertyResult]]:
        """Verify every run's properties; results keep input order."""
        if not runs:
            raise EngineError("no implementation runs given")
        seen = set()
        for run in runs:
            if run.implementation in seen:
                raise EngineError(
                    f"duplicate run for {run.implementation!r}")
            seen.add(run.implementation)

        tasks: List[Tuple[str, List[Property]]] = []
        for run in runs:
            tasks.extend((run.implementation, group)
                         for group in group_properties(run.properties))

        if self.jobs <= 1 or len(tasks) <= 1:
            outcomes: Dict[Tuple[str, str], PropertyResult] = {}
            for run in runs:
                outcomes.update(_verify_in_process(run, run.properties))
        else:
            outcomes = self._verify_pooled(runs, tasks)

        return {run.implementation:
                [outcomes[(run.implementation, prop.identifier)]
                 for prop in run.properties]
                for run in runs}

    # ------------------------------------------------------------------
    def _verify_pooled(self, runs: Sequence[ImplementationRun],
                       tasks: List[Tuple[str, List[Property]]]
                       ) -> Dict[Tuple[str, str], PropertyResult]:
        """Dispatch the groups over ``min(jobs, groups)`` workers.

        A group's deadline runs from its dispatch.  A group whose worker
        dies, raises or passes the deadline has that worker killed and
        replaced, and is queued again at the front, or degraded past
        :data:`MAX_GROUP_RETRIES`.  The ``finally`` kills the workers
        rather than wait for them.
        """
        handler = _group_verifier(runs, tasks)
        runs_by_impl = {run.implementation: run for run in runs}
        outcomes: Dict[Tuple[str, str], PropertyResult] = {}
        queue = collections.deque(range(len(tasks)))
        attempts = [0] * len(tasks)
        degraded: List[int] = []
        slots: List[Worker] = []
        #: slot -> (task index, deadline) of the group it runs
        running: Dict[int, Tuple[int, Optional[float]]] = {}

        def fail(slot: int, counter: str) -> None:
            index, _ = running.pop(slot)
            slots[slot].close()
            slots[slot] = Worker(f"engine-worker-{slot}", handler)
            obs.count("engine.pool_rebuilds")
            attempts[index] += 1
            obs.count(counter)
            if attempts[index] > MAX_GROUP_RETRIES:
                degraded.append(index)
                return
            obs.count("engine.group_retries")
            if RETRY_BACKOFF_SECONDS > 0:
                time.sleep(min(1.0, RETRY_BACKOFF_SECONDS
                               * (2 ** (attempts[index] - 1))))
            queue.appendleft(index)

        try:
            for slot in range(min(self.jobs, len(tasks))):
                slots.append(Worker(f"engine-worker-{slot}", handler))
            while queue or running:
                for slot, worker in enumerate(slots):
                    if not queue or slot in running:
                        continue
                    index = queue.popleft()
                    deadline = (None if self.group_timeout is None
                                else time.monotonic() + self.group_timeout)
                    running[slot] = (index, deadline)
                    # A worker killed while idle reads as EOF below.
                    with contextlib.suppress(OSError):
                        worker.conn.send(index)
                deadlines = [deadline for _, deadline in running.values()
                             if deadline is not None]
                ready = connection.wait(
                    [slots[slot].conn for slot in running],
                    timeout=(max(0.0, min(deadlines) - time.monotonic())
                             if deadlines else None))
                for slot, (index, deadline) in list(running.items()):
                    conn = slots[slot].conn
                    if conn not in ready:
                        if deadline is not None \
                                and time.monotonic() >= deadline:
                            fail(slot, "engine.group_timeouts")
                        continue
                    try:
                        ok, reply, metrics = conn.recv()
                    except (EOFError, OSError):     # the worker died
                        ok, reply, metrics = False, None, {}
                    obs.metrics().merge(metrics)
                    if not ok:
                        fail(slot, "engine.group_crashes")
                        continue
                    del running[slot]
                    group_results, spans = reply
                    obs.adopt_spans(spans)
                    for identifier, result in group_results:
                        outcomes[(tasks[index][0], identifier)] = result
        finally:
            for worker in slots:
                worker.close()

        for index in degraded:
            # Degraded mode: the group exhausted its pooled retries and
            # completes in-process instead.
            obs.count("engine.group_degradations")
            implementation, props = tasks[index]
            with obs.span("engine.fallback", implementation=implementation,
                          group=props[0].identifier):
                outcomes.update(_verify_in_process(
                    runs_by_impl[implementation], props))
        return outcomes
