"""The supported public surface: ``repro.api`` exports and stability."""

import repro
import repro.api as api


class TestFacade:
    def test_all_is_explicit_and_complete(self):
        assert api.__all__
        for name in api.__all__:
            assert hasattr(api, name), f"__all__ names missing {name}"

    def test_core_entry_points_exported(self):
        for name in ("AnalysisConfig", "ProChecker", "AnalysisReport",
                     "PropertyResult", "Verdict", "analyze_many"):
            assert name in api.__all__

    def test_versioning_exported(self):
        assert api.SCHEMA_VERSION == repro.SCHEMA_VERSION
        assert "SchemaVersionError" in api.__all__

    def test_service_surface_exported(self):
        for name in ("AnalysisService", "ServeClient", "create_server",
                     "ResultStore", "job_digest", "JobStatus"):
            assert name in api.__all__

    def test_no_private_leaks(self):
        assert not [name for name in api.__all__
                    if name.startswith("_")]

    def test_facade_objects_are_the_canonical_ones(self):
        # The facade re-exports, it does not wrap: identity must hold so
        # isinstance checks work across both import paths.
        from repro.core import AnalysisConfig, ProChecker
        assert api.AnalysisConfig is AnalysisConfig
        assert api.ProChecker is ProChecker


class TestShimRemoval:
    def test_analyze_implementation_is_gone(self):
        import repro.core
        for module in (repro, repro.core, api):
            assert not hasattr(module, "analyze_implementation")

    def test_model_checking_shims_are_gone(self):
        import inspect

        import repro.mc
        import repro.mc.checker
        for name in ("check_ltl", "check_invariant",
                     "STRATEGY_MATERIALISED", "STRATEGY_ON_THE_FLY"):
            for module in (repro.mc, repro.mc.checker, api):
                assert not hasattr(module, name), (module, name)
        assert "strategy" not in inspect.signature(
            api.ModelChecker).parameters
        assert "strategy" not in inspect.signature(
            api.CheckRequest).parameters

    def test_verdict_alias_is_gone(self):
        assert not hasattr(api.PropertyResult, "verdict")

    def test_smoke_analysis_through_facade(self):
        config = api.AnalysisConfig("reference", property_ids=["SEC-37"])
        report = api.ProChecker.from_config(config).analyze()
        assert report.results[0].outcome is api.Verdict.VERIFIED
