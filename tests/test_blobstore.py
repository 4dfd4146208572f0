"""The shared blob store: atomic writes, quarantine-as-miss, counters."""

import json

import pytest

from repro import obs, schema
from repro.blobstore import BlobStore, BlobStoreError, quarantine, write_atomic
from repro.obs.metrics import diff_snapshots


def counters_during(action):
    before = obs.metrics().snapshot()
    action()
    return diff_snapshots(before, obs.metrics().snapshot())["counters"]


class TestWriteAtomic:
    def test_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "sub" / "entry.json"
        write_atomic(path, "old", "t.")
        write_atomic(path, "new", "t.")
        assert path.read_text() == "new"
        assert [p.name for p in path.parent.iterdir()] == ["entry.json"]

    def test_failed_write_keeps_old_file_and_cleans_up(self, tmp_path):
        path = tmp_path / "entry.json"
        write_atomic(path, "old", "t.")

        class Unwritable:
            pass

        with pytest.raises(TypeError):
            write_atomic(path, Unwritable(), "t.")
        assert path.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


class TestQuarantine:
    def test_moves_file_and_counts(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        counters = counters_during(
            lambda: quarantine(path, tmp_path / "q", "t."))
        assert not path.exists()
        assert (tmp_path / "q" / "bad.json").read_text() == "{"
        assert counters.get("t.quarantined") == 1

    def test_missing_file_counts_a_failure(self, tmp_path):
        counters = counters_during(
            lambda: quarantine(tmp_path / "gone.json", tmp_path / "q", "t."))
        assert counters.get("t.quarantine_failures") == 1


class TestBlobStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = BlobStore(tmp_path)
        digest = "ab" * 32

        def traffic():
            assert store.get(digest) is None
            store.put(digest, {"x": 1}, key={"k": "v"})
            assert store.get(digest) == {"x": 1}

        counters = counters_during(traffic)
        assert {name: counters.get(f"blobstore.{name}")
                for name in ("misses", "writes", "hits")} \
            == {"misses": 1, "writes": 1, "hits": 1}
        entry = json.loads(store.path_for(digest).read_text())
        assert entry == schema.stamp({"digest": digest, "key": {"k": "v"},
                                      "payload": {"x": 1}})
        assert store.contains(digest)
        assert store.digests() == [digest]

    def test_bad_digest_raises_the_view_error(self, tmp_path):
        with pytest.raises(BlobStoreError):
            BlobStore(tmp_path).path_for("../x")

    @pytest.mark.parametrize("text", [
        "{torn", "[1, 2]", '{"digest": "other", "payload": 1}',
        '{"digest": "' + "cd" * 32 + '", "schema_version": "99.0", '
        '"payload": 1}',
        '{"digest": "' + "cd" * 32 + '"}',
    ])
    def test_undecodable_entry_is_quarantined_miss(self, tmp_path, text):
        store = BlobStore(tmp_path)
        digest = "cd" * 32
        path = store.path_for(digest)
        path.parent.mkdir(parents=True)
        path.write_text(text)
        assert store.get(digest) is None
        assert not path.exists()
        assert store.stats() == {"entries": 0, "quarantined": 1}

    def test_decode_failure_is_quarantined_miss(self, tmp_path):
        class Strict(BlobStore):
            def decode(self, payload):
                return int(payload)

        store = Strict(tmp_path)
        store.put("ef" * 32, "not a number")
        assert store.get("ef" * 32) is None
        assert store.stats()["quarantined"] == 1
