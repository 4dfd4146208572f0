"""The ProChecker pipeline (Fig. 2): extraction then verification.

One :class:`ProChecker` instance analyses one implementation:

1. run the (instrumented) conformance suite → information-rich log;
2. extract the implementation FSM (Algorithm 1) + coverage;
3. pair it with the hand-built core-network model (Hussain et al.);
4. for every property: either the CEGAR MC↔CPV loop (LTL properties) or
   the corresponding testbed/CPV experiment (observational properties);
5. produce an :class:`~repro.core.report.AnalysisReport`.

Stage 1+2 go through the process-wide
:data:`~repro.core.engine.extraction_cache`, and stage 4 through the
:class:`~repro.core.engine.VerificationEngine`, which shares the
property-invariant CEGAR inputs and can fan the catalog out over a
worker pool (``jobs``).  Configure runs declaratively::

    config = AnalysisConfig("srsue", jobs=4, category="privacy")
    report = ProChecker.from_config(config).analyze()

or analyse several implementations through one shared pool::

    reports = analyze_many(["reference", "srsue", "oai"])

Both entry points run the same batch function: ``analyze()`` is a batch
of one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from .. import faults, obs
from ..baselines import lteinspector_mme
from ..fsm import FiniteStateMachine
from ..lte.implementations import REGISTRY
from ..obs.stats import PipelineStats
from ..obs.metrics import diff_snapshots
from ..properties.spec import Property
from .cegar import CegarContext
from .engine import (AnalysisConfig, EngineError, ImplementationRun,
                     VerificationEngine, extraction_cache, verify_one)
from .report import AnalysisReport, PropertyResult


class ProCheckerError(Exception):
    """Raised on pipeline misconfiguration."""


class ProChecker:
    """Property-guided formal verification of one LTE implementation."""

    def __init__(self, implementation: str,
                 mme_model: Optional[FiniteStateMachine] = None,
                 config: Optional[AnalysisConfig] = None):
        if implementation not in REGISTRY:
            raise ProCheckerError(
                f"unknown implementation {implementation!r}; "
                f"available: {sorted(REGISTRY)}")
        if config is not None and config.implementation != implementation:
            raise ProCheckerError(
                f"config targets {config.implementation!r}, "
                f"not {implementation!r}")
        self.implementation = implementation
        self.ue_class = REGISTRY[implementation]
        self.config = config or AnalysisConfig(implementation=implementation)
        #: the paper uses the manually constructed open-source core
        #: network model (no access to a commercial core)
        self.mme_model = mme_model or lteinspector_mme()
        self._extracted: Optional[FiniteStateMachine] = None
        self._extraction_seconds = 0.0
        self._coverage_percent = 0.0
        self._conformance_cases = 0
        self._log_lines = 0
        self._stability = None
        self._context: Optional[CegarContext] = None

    @classmethod
    def from_config(cls, config: AnalysisConfig) -> "ProChecker":
        """The config-object entry point of the redesigned API."""
        return cls(config.implementation, config=config)

    @property
    def stability(self):
        """The consensus :class:`~repro.extraction.StabilityReport` of
        the last extraction, or ``None`` for single-run extractions."""
        return self._stability

    # ------------------------------------------------------------------
    # Stage 1+2: conformance run and model extraction
    # ------------------------------------------------------------------
    def extract(self, cases=None) -> FiniteStateMachine:
        """Run the conformance suite under instrumentation and extract
        the implementation FSM.

        Goes through the process-wide extraction cache, so repeated
        instances — and the other implementations of an
        :func:`analyze_many` batch — share one conformance run each.
        Cached on the instance after the first call; passing ``cases``
        re-extracts from that custom suite.
        """
        if self._extracted is not None and cases is None:
            return self._extracted
        suite = cases if cases is not None else self.config.cases
        with obs.span("pipeline.extract",
                      implementation=self.implementation):
            record = extraction_cache.get(
                self.implementation, suite, chaos=self.config.chaos,
                chaos_runs=self.config.chaos_runs)
        self._extracted = record.fsm
        self._extraction_seconds = record.extraction_seconds
        self._coverage_percent = record.coverage_percent
        self._conformance_cases = record.conformance_cases
        self._log_lines = record.log_lines
        self._stability = record.stability
        self._context = None   # bound to the previous extraction
        return record.fsm

    # ------------------------------------------------------------------
    # Stage 3+4: verification
    # ------------------------------------------------------------------
    def _cegar_context(self, ue_fsm: FiniteStateMachine) -> CegarContext:
        if self._context is None:
            self._context = CegarContext(
                ue_fsm, self.mme_model,
                mc_cache_dir=self.config.mc_cache_dir)
        return self._context

    def verify_property(self, prop: Property) -> PropertyResult:
        """Verify a single property against the extracted model."""
        ue_fsm = self.extract()
        return verify_one(prop, self.implementation, ue_fsm,
                          self.mme_model,
                          self.config.max_cegar_iterations,
                          self._cegar_context(ue_fsm))

    # ------------------------------------------------------------------
    # Stage 5: the full run
    # ------------------------------------------------------------------
    def analyze(self) -> AnalysisReport:
        """Verify every property the config selects (default: all 62)."""
        return _analyze([self], self.config.resolved_jobs())[
            self.implementation]

    def _report_skeleton(self, jobs: int) -> AnalysisReport:
        return AnalysisReport(
            implementation=self.implementation,
            fsm_summary=self.extract().summary(),
            extraction_seconds=self._extraction_seconds,
            coverage_percent=self._coverage_percent,
            conformance_cases=self._conformance_cases,
            log_lines=self._log_lines,
            jobs=jobs,
            stability=(self._stability.to_dict()
                       if self._stability is not None else None),
        )


ConfigLike = Union[str, AnalysisConfig]

#: Config fields that configure the one engine a batch shares.
_ENGINE_SETTINGS = ("group_timeout_seconds", "fault_plan")


def _engine_setting(configs: Sequence[AnalysisConfig], name: str):
    """The value every config agrees on for one engine-wide field."""
    values = [getattr(config, name) for config in configs]
    if any(value != values[0] for value in values[1:]):
        raise EngineError(
            f"analyze_many configs disagree on {name}: "
            + ", ".join(f"{config.implementation}={value!r}"
                        for config, value in zip(configs, values)))
    return values[0]


def _span_seconds(root, name: str, implementation: str) -> float:
    """Summed duration of one implementation's ``name`` spans."""
    return sum(span.duration for span in root.find(name)
               if span.attributes.get("implementation") == implementation)


def _analyze(checkers: Sequence[ProChecker], jobs: int
             ) -> Dict[str, AnalysisReport]:
    """The one pipeline run behind :meth:`ProChecker.analyze` and
    :func:`analyze_many`: extract every implementation, verify all their
    property groups in one engine invocation, assemble the reports."""
    configs = [checker.config for checker in checkers]
    group_timeout, plan = (_engine_setting(configs, name)
                           for name in _ENGINE_SETTINGS)
    before = obs.metrics().snapshot()
    if plan is not None:
        faults.install(plan)
    batch = ",".join(checker.implementation for checker in checkers)
    with obs.span("pipeline.analyze", implementation=batch) as root:
        runs: List[ImplementationRun] = []
        for checker in checkers:
            ue_fsm = checker.extract()
            runs.append(ImplementationRun(
                implementation=checker.implementation,
                ue_fsm=ue_fsm,
                mme_model=checker.mme_model,
                properties=checker.config.resolved_properties(),
                context=checker._cegar_context(ue_fsm),
                max_iterations=checker.config.max_cegar_iterations,
                mc_cache_dir=checker.config.mc_cache_dir,
            ))
        engine = VerificationEngine(jobs, group_timeout=group_timeout)
        with obs.span("pipeline.verify", implementation=batch,
                      jobs=engine.jobs) as vspan:
            outcomes = engine.verify(runs)
    metrics_delta = diff_snapshots(before, obs.metrics().snapshot())
    # The batch's verify wall time is split by each implementation's
    # property span seconds; its extraction is its own.
    busy = {checker.implementation: _span_seconds(
                vspan, obs.PROPERTY_SPAN, checker.implementation)
            for checker in checkers}
    total = sum(busy.values())

    reports: Dict[str, AnalysisReport] = {}
    for checker in checkers:
        implementation = checker.implementation
        report = checker._report_skeleton(engine.jobs)
        report.results = outcomes[implementation]
        report.verification_seconds = vspan.duration * (
            busy[implementation] / total if total else 1 / len(busy))
        report.elapsed_seconds = report.verification_seconds \
            + _span_seconds(root, "pipeline.extract", implementation)
        # Per-implementation stats come out of the one shared trace: the
        # collector filters property spans by their implementation
        # attribute, so each report sees only its own rollups.
        report.stats = PipelineStats.collect(
            root, report.results, implementation, engine.jobs,
            metrics_delta)
        reports[implementation] = report
    return reports


def analyze_many(configs: Sequence[ConfigLike],
                 jobs: Optional[int] = None
                 ) -> Dict[str, AnalysisReport]:
    """Analyse several implementations through one shared worker pool.

    Each entry is an implementation name or a full
    :class:`AnalysisConfig`.  Extractions run once each (via the
    extraction cache); the property groups of *all* implementations are
    interleaved in a single engine invocation, so a pool of ``jobs``
    workers stays busy across implementation boundaries.  ``jobs``
    defaults to the widest request among the configs.  The engine-wide
    fields (group timeout, fault plan) must be equal on every config;
    :class:`EngineError` names the first that is not.

    Each report's ``verification_seconds`` is its share of the batch's
    verify wall time, in proportion to its property spans, and its
    ``elapsed_seconds`` adds its own extraction to that share.
    """
    resolved = [config if isinstance(config, AnalysisConfig)
                else AnalysisConfig(implementation=config)
                for config in configs]
    if not resolved:
        raise EngineError("no implementation runs given")
    return _analyze([ProChecker.from_config(config) for config in resolved],
                    jobs if jobs is not None
                    else max(config.resolved_jobs() for config in resolved))


# The PR 1 ``analyze_implementation()`` deprecation shim ended its
# grace period with the repro.api facade: use
# ``ProChecker.from_config(AnalysisConfig(...)).analyze()`` or
# :func:`analyze_many`.
