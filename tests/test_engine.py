"""Parallel verification engine: determinism, caching, serialization.

The engine's contract is that parallelism and caching are pure
performance features: a pooled run must produce byte-identical verdicts
to the serial path, and a full analysis must execute exactly one
conformance run + extraction per implementation regardless of how many
``ProChecker`` instances participate.
"""

import functools
import json
import threading

import pytest

import repro.obs as obs
from repro import faults
from repro.core import (AnalysisConfig, EngineError, ExtractionCache,
                        ProChecker, ProCheckerError, analyze_many,
                        extraction_cache, group_properties)
from repro.cli import main as cli_main
from repro.conformance import full_suite
from repro.core.report import AnalysisReport, PropertyResult
from repro.obs import PipelineStats, audit_trace, read_trace
from repro.properties import ALL_PROPERTIES, property_by_id
from repro.testbed import AttackOutcome, AttackResult, run_attack

IMPLEMENTATIONS = ("reference", "srsue", "oai")


@pytest.fixture(scope="module")
def serial_reports():
    return {impl: ProChecker.from_config(
                AnalysisConfig(impl, jobs=1)).analyze()
            for impl in IMPLEMENTATIONS}


# ---------------------------------------------------------------------------
# Determinism: pooled == serial
# ---------------------------------------------------------------------------
class TestParallelDeterminism:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_parallel_matches_serial(self, serial_reports, implementation):
        parallel = ProChecker.from_config(
            AnalysisConfig(implementation, jobs=4)).analyze()
        serial = serial_reports[implementation]
        assert parallel.verdict_signature() == serial.verdict_signature()
        assert parallel.jobs == 4
        assert serial.jobs == 1
        assert parallel.counts() == serial.counts()
        assert parallel.detected_attacks() == serial.detected_attacks()

    def test_results_stay_in_catalog_order(self, serial_reports):
        parallel = ProChecker.from_config(
            AnalysisConfig("srsue", jobs=4)).analyze()
        identifiers = [r.property.identifier for r in parallel.results]
        assert identifiers == [p.identifier for p in ALL_PROPERTIES]
        assert identifiers == [r.property.identifier
                               for r in serial_reports["srsue"].results]

    def test_worker_metrics_cover_all_properties(self):
        report = ProChecker.from_config(
            AnalysisConfig("reference", jobs=2)).analyze()
        metrics = report.worker_metrics()
        assert sum(m["properties"] for m in metrics.values()) == 62
        for stats in metrics.values():
            assert stats["busy_seconds"] >= 0.0

    def test_analyze_many_matches_individual_runs(self, serial_reports):
        reports = analyze_many(IMPLEMENTATIONS, jobs=2)
        assert set(reports) == set(IMPLEMENTATIONS)
        for implementation, report in reports.items():
            assert report.verdict_signature() \
                == serial_reports[implementation].verdict_signature()

    @pytest.mark.parametrize("field,values", [
        ("group_timeout_seconds", (None, 30.0)),
        ("fault_plan", (None, faults.FaultPlan.parse(
            ["engine.verify_one@SEC-37:raise:1"]))),
    ])
    def test_analyze_many_rejects_disagreeing_engine_fields(
            self, field, values):
        # One engine serves every config, so an engine-wide field that
        # differs between configs has no single correct value.
        configs = [AnalysisConfig(implementation, property_ids=["SEC-37"],
                                  **{field: value})
                   for implementation, value
                   in zip(("reference", "srsue"), values)]
        with pytest.raises(EngineError, match=field):
            analyze_many(configs, jobs=1)


# ---------------------------------------------------------------------------
# One analysis path: analyze() is a batch of one
# ---------------------------------------------------------------------------
def _analyze_root():
    return next(root for root in obs.drain_spans()
                if root.name == "pipeline.analyze")


class TestSinglePath:
    def test_analyze_equals_analyze_many_of_one(self, serial_reports):
        config = AnalysisConfig("reference", jobs=1)
        batch = analyze_many([config])["reference"]
        single = serial_reports["reference"]
        assert batch.verdict_signature() == single.verdict_signature()
        assert batch.stats.canonical_json() \
            == single.stats.canonical_json()

    def test_batch_of_one_gets_the_whole_verify_time(self):
        obs.reset()
        report = ProChecker.from_config(AnalysisConfig(
            "srsue", jobs=1, property_ids=["SEC-01", "SEC-37"])).analyze()
        root = _analyze_root()
        (verify,) = root.find("pipeline.verify")
        assert report.verification_seconds == verify.duration
        assert report.verification_seconds <= report.elapsed_seconds \
            <= root.duration

    def test_batch_attributes_time_per_implementation(self):
        obs.reset()
        reports = analyze_many(IMPLEMENTATIONS, jobs=1)
        root = _analyze_root()
        (verify,) = root.find("pipeline.verify")
        elapsed = [reports[i].elapsed_seconds for i in IMPLEMENTATIONS]
        assert len(set(elapsed)) == len(IMPLEMENTATIONS)
        assert sum(elapsed) <= root.duration
        assert sum(reports[i].verification_seconds
                   for i in IMPLEMENTATIONS) \
            == pytest.approx(verify.duration)
        for implementation in IMPLEMENTATIONS:
            report = reports[implementation]
            assert 0 < report.verification_seconds \
                < report.elapsed_seconds
            # the runtime block stays batch-wide
            assert report.stats.runtime["elapsed_seconds"] \
                == root.duration


# ---------------------------------------------------------------------------
# Observability: stats determinism, trace reassembly, CLI emission
# ---------------------------------------------------------------------------
class TestObservability:
    def test_canonical_stats_identical_across_jobs(self, serial_reports):
        """The ISSUE's headline contract: --jobs 4 aggregates to the
        byte-identical canonical PipelineStats of a --jobs 1 run."""
        parallel = ProChecker.from_config(
            AnalysisConfig("reference", jobs=4)).analyze()
        serial = serial_reports["reference"]
        assert serial.stats is not None
        assert parallel.stats is not None
        assert parallel.stats.canonical_json() \
            == serial.stats.canonical_json()
        assert parallel.stats.jobs == 4
        assert serial.stats.jobs == 1

    def test_stats_cover_every_property(self, serial_reports):
        stats = serial_reports["srsue"].stats
        assert set(stats.properties) \
            == {p.identifier for p in ALL_PROPERTIES}
        assert sum(stats.verdicts.values()) == 62
        # every LTL property runs at least one CEGAR iteration
        assert stats.totals["cegar.iterations"] >= 49
        assert stats.phases["verify.property"]["count"] == 62
        assert stats.runtime["elapsed_seconds"] > 0

    def test_stats_round_trip_through_report(self, serial_reports):
        report = serial_reports["oai"]
        payload = json.loads(json.dumps(report.to_dict()))
        restored = AnalysisReport.from_dict(payload)
        assert restored.stats is not None
        assert restored.stats.canonical_json() \
            == report.stats.canonical_json()
        assert restored.stats.jobs == report.stats.jobs
        assert restored.stats.phases == report.stats.phases

    def test_worker_spans_reassemble_into_one_trace(self):
        """Spans recorded inside pool workers come home and graft under
        the parent's verify phase — one tree, keyed by property id."""
        obs.reset()
        extraction_cache.clear()
        ProChecker.from_config(
            AnalysisConfig("reference", jobs=4)).analyze()
        roots = obs.drain_spans()
        analyze_roots = [r for r in roots if r.name == "pipeline.analyze"]
        assert len(analyze_roots) == 1
        root = analyze_roots[0]
        verify_phases = root.find("pipeline.verify")
        assert len(verify_phases) == 1
        property_spans = verify_phases[0].find("verify.property")
        assert sorted(span.attributes["property"]
                      for span in property_spans) \
            == sorted(p.identifier for p in ALL_PROPERTIES)

    def test_cli_trace_out_profile_and_audit(self, tmp_path, capsys):
        obs.reset()
        extraction_cache.clear()
        trace = tmp_path / "trace.jsonl"
        code = cli_main(["analyze", "reference", "--jobs", "2",
                         "--trace-out", str(trace), "--profile"])
        assert code == 0
        captured = capsys.readouterr()
        assert "pipeline profile" in captured.out
        assert str(trace) in captured.err
        # a cold full run exhibits every required pipeline phase
        assert audit_trace(str(trace)) == []
        stats_records = [r for r in read_trace(str(trace))
                         if r["type"] == "pipeline_stats"]
        assert len(stats_records) == 1
        restored = PipelineStats.from_dict(stats_records[0]["stats"])
        assert sum(restored.verdicts.values()) == 62


# ---------------------------------------------------------------------------
# Extraction cache
# ---------------------------------------------------------------------------
class TestExtractionCache:
    def test_one_conformance_run_across_instances(self):
        extraction_cache.clear()
        first = ProChecker("srsue").extract()
        second = ProChecker("srsue").extract()
        stats = extraction_cache.stats()
        assert stats["conformance_runs"] == 1
        assert stats["hits"] >= 1
        assert first is second

    def test_full_analysis_runs_conformance_once(self):
        extraction_cache.clear()
        ProChecker.from_config(AnalysisConfig("reference")).analyze()
        assert extraction_cache.stats()["conformance_runs"] == 1

    def test_custom_cases_invalidate(self):
        extraction_cache.clear()
        subset = full_suite("srsue")[:10]
        default = extraction_cache.get("srsue")
        custom = extraction_cache.get("srsue", subset)
        assert extraction_cache.stats()["conformance_runs"] == 2
        assert custom.conformance_cases < default.conformance_cases
        # The same custom suite hits the cache; the default is untouched.
        again = extraction_cache.get("srsue", subset)
        assert again is custom
        assert extraction_cache.stats()["conformance_runs"] == 2


class TestExtractionCacheConcurrency:
    """Regression: ``get`` used to hold the cache-wide lock across the
    whole conformance run + extraction, serialising concurrent callers
    for *different* implementations behind one build."""

    def _patched_cache(self, monkeypatch, started, release):
        from repro.core import engine as engine_module
        from repro.core.engine import ExtractionRecord

        def fake_extraction(implementation, cases=None, chaos=None,
                            chaos_runs=1):
            if implementation == "slow":
                started.set()
                assert release.wait(timeout=10.0), "slow build never freed"
            return ExtractionRecord(implementation, fsm=None,
                                    extraction_seconds=0.0,
                                    coverage_percent=0.0,
                                    conformance_cases=0, log_lines=0)

        monkeypatch.setattr(engine_module, "run_extraction",
                            fake_extraction)
        return ExtractionCache()

    def test_different_keys_build_concurrently(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        cache = self._patched_cache(monkeypatch, started, release)
        slow = threading.Thread(target=cache.get, args=("slow",))
        slow.start()
        try:
            assert started.wait(timeout=10.0)
            # the slow build is in flight and must not block this key
            record = cache.get("fast")
            assert record.implementation == "fast"
            assert slow.is_alive()
        finally:
            release.set()
            slow.join(timeout=10.0)
        assert not slow.is_alive()
        assert cache.stats()["conformance_runs"] == 2

    def test_same_key_callers_share_one_build(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        cache = self._patched_cache(monkeypatch, started, release)
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(cache.get("slow")))
            for _ in range(3)]
        for thread in threads:
            thread.start()
        assert started.wait(timeout=10.0)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(results) == 3
        assert all(record is results[0] for record in results)
        assert cache.stats()["conformance_runs"] == 1
        assert cache.stats()["hits"] >= 2


class TestSuiteFingerprint:
    """Regression: fingerprints keyed custom suites by ``__qualname__``
    alone, so lambdas/partials defined at the same site collided."""

    @staticmethod
    def _case(run):
        from repro.conformance import TestCase
        return TestCase(identifier="tc-1", procedure="attach",
                        description="fingerprint probe", run=run)

    def _fingerprint(self, run):
        return ExtractionCache.fingerprint("srsue", [self._case(run)])

    def test_same_site_lambdas_get_distinct_keys(self):
        def factory(value):
            return lambda ctx: value
        assert self._fingerprint(factory(1)) != self._fingerprint(factory(2))

    def test_equal_closures_get_equal_keys(self):
        def factory(value):
            return lambda ctx: value
        assert self._fingerprint(factory(7)) == self._fingerprint(factory(7))

    def test_same_site_partials_get_distinct_keys(self):
        def run(value, ctx):
            return value
        assert self._fingerprint(functools.partial(run, 1)) \
            != self._fingerprint(functools.partial(run, 2))

    def test_default_suite_key_is_stable(self):
        assert ExtractionCache.fingerprint("srsue") \
            == ExtractionCache.fingerprint("srsue")
        assert ExtractionCache.fingerprint("srsue") \
            != ExtractionCache.fingerprint("oai")

    def test_distinct_case_lists_distinct_keys(self):
        suite = full_suite("srsue")
        assert ExtractionCache.fingerprint("srsue", suite[:5]) \
            != ExtractionCache.fingerprint("srsue", suite[:6])


# ---------------------------------------------------------------------------
# AnalysisConfig
# ---------------------------------------------------------------------------
class TestAnalysisConfig:
    def test_property_id_filter(self):
        config = AnalysisConfig("reference",
                                property_ids=("SEC-01", "PRIV-08"))
        selected = config.resolved_properties()
        assert [p.identifier for p in selected] == ["SEC-01", "PRIV-08"]

    def test_category_filter(self):
        config = AnalysisConfig("reference", category="privacy")
        selected = config.resolved_properties()
        assert selected
        assert all(p.category == "privacy" for p in selected)

    def test_unknown_property_id_rejected(self):
        with pytest.raises(EngineError):
            AnalysisConfig("reference",
                           property_ids=("NOPE-1",)).resolved_properties()

    def test_unknown_category_rejected(self):
        with pytest.raises(EngineError):
            AnalysisConfig("reference",
                           category="astrology").resolved_properties()

    def test_resolved_jobs_floor(self):
        assert AnalysisConfig("reference", jobs=0).resolved_jobs() == 1
        assert AnalysisConfig("reference", jobs=3).resolved_jobs() == 3
        assert AnalysisConfig("reference").resolved_jobs() >= 1

    def test_config_implementation_mismatch_rejected(self):
        with pytest.raises(ProCheckerError):
            ProChecker("oai", config=AnalysisConfig("srsue"))

    def test_grouping_covers_catalog_without_duplicates(self):
        groups = group_properties(ALL_PROPERTIES)
        flattened = [p.identifier for group in groups for p in group]
        assert sorted(flattened) \
            == sorted(p.identifier for p in ALL_PROPERTIES)
        assert len(groups) < len(ALL_PROPERTIES)  # LTL configs shared


# ---------------------------------------------------------------------------
# Deprecation shim (removed with the repro.api facade)
# ---------------------------------------------------------------------------
def test_analyze_implementation_shim_removed():
    """The PR 1 shim completed its deprecation cycle; the supported
    entry points are ProChecker.from_config / analyze_many (re-exported
    by repro.api)."""
    import repro
    import repro.api
    import repro.core
    for module in (repro, repro.core, repro.api):
        assert not hasattr(module, "analyze_implementation")
        assert "analyze_implementation" not in module.__all__


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------
class TestSerialization:
    def test_property_result_round_trip(self, serial_reports):
        report = serial_reports["srsue"]
        for result in (report.result_for("SEC-37"),
                       report.result_for("SEC-01")):
            payload = json.loads(json.dumps(result.to_dict()))
            restored = PropertyResult.from_dict(payload)
            assert restored.signature() == result.signature()
            if result.counterexample is not None:
                assert restored.counterexample.initial_state \
                    == result.counterexample.initial_state
                assert len(restored.counterexample.steps) \
                    == len(result.counterexample.steps)

    def test_report_round_trip(self, serial_reports):
        report = serial_reports["oai"]
        payload = json.loads(json.dumps(report.to_dict()))
        restored = AnalysisReport.from_dict(payload)
        assert restored.verdict_signature() == report.verdict_signature()
        assert restored.implementation == report.implementation
        assert restored.jobs == report.jobs
        assert restored.detected_attacks() == report.detected_attacks()

    def test_attack_result_round_trip(self):
        result = run_attack("I3", "srsue")
        payload = json.loads(json.dumps(result.to_dict(), default=str))
        restored = AttackResult.from_dict(payload)
        assert restored.attack_id == result.attack_id
        assert restored.succeeded == result.succeeded
        assert restored.evidence == result.evidence

    def test_attack_outcome_alias(self):
        assert AttackOutcome is AttackResult


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
class TestCli:
    def test_verify_json_output(self, capsys):
        code = cli_main(["verify", "reference", "SEC-37", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["property"] == "SEC-37"
        assert payload["verdict"] == "verified"

    def test_verify_not_applicable_exit_code(self):
        # PRIV-07 is a dash row for the reference UE in Table I.
        assert cli_main(["verify", "reference", "PRIV-07",
                         "--quiet"]) == 3

    def test_verify_violated_exit_code(self):
        assert cli_main(["verify", "srsue", "SEC-01", "--quiet"]) == 1

    def test_attack_json_output(self, capsys):
        code = cli_main(["attack", "P1", "reference", "--json"])
        assert code == 1  # attack succeeded
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack_id"] == "P1"
        assert payload["succeeded"] is True

    def test_analyze_json_output(self, capsys):
        code = cli_main(["analyze", "reference", "--jobs", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implementation"] == "reference"
        assert payload["jobs"] == 2
        assert len(payload["results"]) == 62


class TestExtractionCacheChaosKeys:
    """Chaos extractions are cached under their own (config, runs) key,
    never aliasing the clean entry."""

    def test_chaos_key_distinct_from_clean(self):
        from repro.lte.channel import ChaosConfig

        extraction_cache.clear()
        clean = extraction_cache.get("reference")
        chaotic = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(), chaos_runs=2)
        assert chaotic is not clean
        assert clean.stability is None
        assert chaotic.stability is not None
        assert chaotic.stability.runs == 2

    def test_same_chaos_config_hits_the_cache(self):
        from repro.lte.channel import ChaosConfig

        extraction_cache.clear()
        first = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(), chaos_runs=2)
        hits_before = extraction_cache.stats()["hits"]
        second = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(), chaos_runs=2)
        assert second is first
        assert extraction_cache.stats()["hits"] == hits_before + 1

    def test_different_seed_is_a_different_key(self):
        from repro.lte.channel import ChaosConfig

        extraction_cache.clear()
        first = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(seed=0), chaos_runs=2)
        other = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(seed=9), chaos_runs=2)
        assert other is not first
