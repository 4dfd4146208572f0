"""Content-addressed result store: identity, round-trip, quarantine."""

import json

import pytest

from repro import schema
from repro.core import AnalysisConfig, AnalysisReport, ProChecker
from repro.faults import FaultPlan
from repro.store import (ResultStore, StoreError, catalog_digest,
                         implementation_fingerprint, job_digest, job_key)

SMALL = ["SEC-01", "SEC-02"]


class TestJobIdentity:
    def test_digest_is_hex_sha256(self):
        digest = job_digest(AnalysisConfig("srsue", property_ids=SMALL))
        assert len(digest) == 64
        int(digest, 16)

    def test_digest_stable_across_jobs_widths(self):
        # Scheduling knobs are excluded from the identity: the engine's
        # determinism contract makes the verdicts identical across
        # --jobs widths, so the cache must hit regardless of width.
        narrow = AnalysisConfig("srsue", property_ids=SMALL, jobs=1)
        wide = AnalysisConfig("srsue", property_ids=SMALL, jobs=4,
                              group_timeout_seconds=5.0)
        assert job_digest(narrow) == job_digest(wide)

    def test_parent_payload_with_retired_keys_keeps_its_digest(self):
        # Older clients and journal entries still carry four retired
        # AnalysisConfig keys; from_dict ignores them, so the job
        # identity is unchanged.
        config = AnalysisConfig("srsue", property_ids=SMALL)
        payload = dict(config.to_dict(),
                       use_extraction_cache=False,
                       share_cegar_inputs=False,
                       max_group_retries=7,
                       retry_backoff_seconds=1.5)
        parsed = AnalysisConfig.from_dict(payload)
        assert parsed == config
        assert job_digest(parsed) == job_digest(config)

    def test_digest_varies_with_inputs(self):
        base = AnalysisConfig("srsue", property_ids=SMALL)
        assert job_digest(base) != job_digest(
            AnalysisConfig("oai", property_ids=SMALL))
        assert job_digest(base) != job_digest(
            AnalysisConfig("srsue", property_ids=["SEC-01"]))

    def test_fingerprint_tracks_source(self):
        fp = implementation_fingerprint("srsue")
        assert len(fp) == 64
        assert fp != implementation_fingerprint("oai")
        with pytest.raises(StoreError):
            implementation_fingerprint("huawei")

    def test_catalog_digest_covers_threat_config(self):
        assert (catalog_digest(AnalysisConfig("srsue", property_ids=SMALL))
                != catalog_digest(AnalysisConfig("srsue",
                                                 property_ids=["SEC-01"])))

    def test_fault_plans_are_uncacheable(self):
        plan = FaultPlan.parse(["engine.verify_group@SEC-01:raise:1"])
        config = AnalysisConfig("srsue", property_ids=SMALL,
                                fault_plan=plan)
        with pytest.raises(StoreError, match="fault"):
            job_key(config)

    def test_key_names_every_identity_axis(self):
        key = job_key(AnalysisConfig("srsue", property_ids=SMALL))
        assert key["implementation"] == "srsue"
        assert set(key) >= {"implementation", "implementation_fingerprint",
                            "catalog"}
        assert "jobs" not in key


class TestResultStore:
    def _analyze(self, config):
        return ProChecker.from_config(config).analyze()

    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = AnalysisConfig("srsue", property_ids=SMALL, jobs=1)
        report = self._analyze(config)
        digest = job_digest(config)
        store.put(digest, report.to_dict(), key=job_key(config))
        assert store.contains(digest)
        payload = store.get(digest)
        rebuilt = AnalysisReport.from_dict(payload)
        assert rebuilt.verdict_signature() == report.verdict_signature()
        assert store.digests() == [digest]

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)

    def test_bad_digest_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.path_for("../../etc/passwd")
        with pytest.raises(StoreError):
            store.path_for("zz" * 32)

    def test_corrupted_entry_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = AnalysisConfig("srsue", property_ids=SMALL)
        digest = job_digest(config)
        store.put(digest, self._analyze(config).to_dict(),
                  key=job_key(config))
        path = store.path_for(digest)
        path.write_text("{ not json")
        # A corrupt entry reads as a miss, never as an exception, and is
        # moved aside so the next write can repopulate the slot.
        assert store.get(digest) is None
        assert not path.exists()
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1

    def test_digest_mismatch_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = AnalysisConfig("srsue", property_ids=SMALL)
        digest = job_digest(config)
        entry = schema.stamp({"digest": "f" * 64, "key": {},
                              "report": {"implementation": "srsue"}})
        path = store.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry))
        assert store.get(digest) is None
        assert not path.exists()

    def test_future_major_entry_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = AnalysisConfig("srsue", property_ids=SMALL)
        digest = job_digest(config)
        store.put(digest, self._analyze(config).to_dict(),
                  key=job_key(config))
        path = store.path_for(digest)
        entry = json.loads(path.read_text())
        entry[schema.SCHEMA_KEY] = "99.0"
        path.write_text(json.dumps(entry))
        assert store.get(digest) is None

    def test_stats_count_traffic(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        config = AnalysisConfig("srsue", property_ids=SMALL)
        digest = job_digest(config)
        store.get(digest)
        store.put(digest, self._analyze(config).to_dict(),
                  key=job_key(config))
        store.get(digest)
        stats = store.stats()
        assert stats["entries"] == 1

    def test_parent_format_entry_reads_as_hit(self, tmp_path):
        # The exact bytes earlier releases filed: sorted keys, default
        # separators, report under "report", sharded by digest prefix.
        digest = "5e" * 32
        path = tmp_path / "store" / "5e" / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text(
            '{"digest": "' + digest + '", "key": {"catalog": "c", '
            '"implementation": "srsue"}, "report": {"implementation": '
            '"srsue", "results": [], "schema_version": "1.2"}, '
            '"schema_version": "1.2"}')
        store = ResultStore(tmp_path / "store")
        assert store.get(digest) == {"implementation": "srsue",
                                     "results": [],
                                     "schema_version": "1.2"}
        assert store.digests() == [digest]
        assert store.stats() == {"entries": 1, "quarantined": 0}

    def test_write_format_is_stable(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        digest = "6f" * 32
        payload = {"implementation": "srsue", "results": []}
        path = store.put(digest, payload, key={"catalog": "c"})
        assert path == tmp_path / "store" / "6f" / f"{digest}.json"
        assert path.read_text() == json.dumps(schema.stamp({
            "digest": digest, "key": {"catalog": "c"},
            "report": payload}), sort_keys=True)
        assert [p.name for p in path.parent.iterdir()] == [path.name]
