"""Persistent MC verdict cache + the ModelChecker facade around it."""

import json

import pytest

from repro import schema
from repro.mc import (CheckRequest, CheckResult, McCacheError,
                      McVerdictCache, Model, ModelChecker, Plus, Variable,
                      parse_expr, parse_ltl, verdict_digest)


def counter_model(name="counter"):
    model = Model(name, [Variable("c", tuple(range(4)))], {"c": 0})
    model.add_command("inc", parse_expr("c < 3", ["c"]),
                      {"c": Plus("c", 1, 3)})
    model.add_command("reset", parse_expr("c = 3", ["c"]), {"c": 0})
    return model


class TestModelFingerprint:
    def test_name_does_not_matter(self):
        assert (counter_model("a").fingerprint()
                == counter_model("b").fingerprint())

    def test_commands_do(self):
        plain = counter_model()
        mutated = counter_model()
        mutated.add_command("jump", parse_expr("c = 0", ["c"]), {"c": 2})
        assert plain.fingerprint() != mutated.fingerprint()


class TestVerdictDigest:
    def test_sensitive_to_every_component(self):
        base = verdict_digest("fp", "formula", "threat")
        assert verdict_digest("fp2", "formula", "threat") != base
        assert verdict_digest("fp", "formula2", "threat") != base
        assert verdict_digest("fp", "formula", "threat2") != base
        assert verdict_digest("fp", "formula", "threat") == base

    def test_components_do_not_bleed(self):
        # "ab"+"c" must not collide with "a"+"bc"
        assert (verdict_digest("ab", "c", "")
                != verdict_digest("a", "bc", ""))


class TestMcVerdictCache:
    def test_round_trip_marks_from_cache(self, tmp_path):
        cache = McVerdictCache(tmp_path)
        checker = ModelChecker()
        model = counter_model()
        result = checker.check_formula(model, parse_ltl("G (c < 3)",
                                                        ["c"]))
        digest = verdict_digest(model.fingerprint(), "k", "")
        cache.put(digest, result)
        restored = cache.get(digest)
        assert restored is not None
        assert restored.from_cache
        assert not restored.holds
        assert restored.counterexample is not None
        assert (restored.counterexample.to_dict()
                == result.counterexample.to_dict())

    def test_miss_returns_none(self, tmp_path):
        assert McVerdictCache(tmp_path).get("ab" * 32) is None

    def test_corrupt_entry_is_quarantined_miss(self, tmp_path):
        cache = McVerdictCache(tmp_path)
        digest = "cd" * 32
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert cache.get(digest) is None
        assert not path.exists()
        assert cache.stats()["quarantined"] == 1

    def test_unparseable_result_is_quarantined_miss(self, tmp_path):
        # Valid JSON, right digest, current schema — but the payload
        # makes CheckResult.from_dict raise TypeError.
        cache = McVerdictCache(tmp_path)
        digest = "ef" * 32
        path = cache.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(schema.stamp({
            "digest": digest, "key": None,
            "result": {"property_name": "p", "holds": False,
                       "counterexample": {"initial_state": 5}}})))
        with pytest.raises(TypeError):
            CheckResult.from_dict(json.loads(path.read_text())["result"])
        assert cache.get(digest) is None
        assert not path.exists()
        assert cache.stats() == {"entries": 0, "quarantined": 1}

    def test_parent_format_entry_reads_as_hit(self, tmp_path):
        # The exact bytes earlier releases filed: sorted keys, default
        # separators, verdict under "result".
        digest = "0a" * 32
        path = tmp_path / "0a" / f"{digest}.json"
        path.parent.mkdir()
        path.write_text(
            '{"digest": "' + digest + '", "key": {"formula": "f", '
            '"model_fingerprint": "m", "threat_digest": ""}, '
            '"result": {"buchi_states": 0, "counterexample": '
            '{"initial_state": {"c": 0}, "loop_start": null, "steps": '
            '[{"label": "inc", "state": {"c": 1}}]}, '
            '"elapsed_seconds": 0.0001, "from_cache": false, '
            '"holds": false, "peak_frontier": 1, "product_states": 0, '
            '"property_name": "p", "schema_version": "1.2", '
            '"states_explored": 2}, "schema_version": "1.2"}')
        cache = McVerdictCache(tmp_path)
        restored = cache.get(digest)
        assert restored is not None and restored.from_cache
        assert not restored.holds
        assert restored.counterexample.steps[0].state == {"c": 1}
        assert cache.digests() == [digest]

    def test_write_format_is_stable(self, tmp_path):
        cache = McVerdictCache(tmp_path)
        result = CheckResult("p", holds=True, states_explored=3)
        digest = "1b" * 32
        path = cache.put(digest, result, key={"formula": "f"})
        assert path == tmp_path / "1b" / f"{digest}.json"
        assert path.read_text() == json.dumps(schema.stamp({
            "digest": digest, "key": {"formula": "f"},
            "result": result.to_dict()}), sort_keys=True)

    def test_malformed_digest_rejected(self, tmp_path):
        with pytest.raises(McCacheError):
            McVerdictCache(tmp_path).path_for("../escape")


class TestModelCheckerFacade:
    def test_cache_hit_skips_exploration(self, tmp_path):
        checker = ModelChecker(cache=McVerdictCache(tmp_path))
        model = counter_model()
        request = CheckRequest(formula="F (c = 3)", name="reach")
        cold = checker.check(model, request)
        warm = checker.check(model, request)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.holds == cold.holds
        assert warm.property_name == "reach"

    def test_threat_digest_partitions_the_cache(self, tmp_path):
        checker = ModelChecker(cache=McVerdictCache(tmp_path))
        model = counter_model()
        first = checker.check(model, CheckRequest(
            formula="F (c = 3)", threat_digest="t1"))
        other = checker.check(model, CheckRequest(
            formula="F (c = 3)", threat_digest="t2"))
        assert not first.from_cache
        assert not other.from_cache

    def test_model_edit_invalidates(self, tmp_path):
        checker = ModelChecker(cache=McVerdictCache(tmp_path))
        request = CheckRequest(formula="G (c < 3)")
        checker.check(counter_model(), request)
        mutated = counter_model()
        mutated.add_command("jump", parse_expr("c = 0", ["c"]), {"c": 3})
        assert not checker.check(mutated, request).from_cache

    def test_use_cache_false_bypasses(self, tmp_path):
        checker = ModelChecker(cache=McVerdictCache(tmp_path))
        model = counter_model()
        checker.check(model, CheckRequest(formula="F (c = 3)"))
        fresh = checker.check(model, CheckRequest(formula="F (c = 3)",
                                                  use_cache=False))
        assert not fresh.from_cache

    def test_export_smv(self):
        text = ModelChecker().export_smv(counter_model(), CheckRequest(
            formula="G (c <= 3)", name="bound"))
        assert "MODULE main" in text
        assert "LTLSPEC" in text


class TestWireForms:
    def test_check_request_round_trip(self):
        request = CheckRequest(formula="G (c < 3)", name="p",
                               threat_digest="td", use_cache=False)
        payload = json.loads(json.dumps(request.to_dict()))
        assert "schema_version" in payload
        restored = CheckRequest.from_dict(payload)
        assert restored == request

    def test_check_request_ignores_legacy_strategy_field(self):
        payload = CheckRequest(formula="G (c < 3)").to_dict()
        assert "strategy" not in payload
        payload["strategy"] = "materialised"
        assert (CheckRequest.from_dict(payload)
                == CheckRequest(formula="G (c < 3)"))

    def test_check_result_round_trip(self):
        result = ModelChecker().check_formula(
            counter_model(), parse_ltl("G (c < 3)", ["c"]), "p")
        payload = json.loads(json.dumps(result.to_dict()))
        assert "schema_version" in payload
        restored = CheckResult.from_dict(payload)
        assert restored.holds == result.holds
        assert restored.property_name == "p"
        assert restored.states_explored == result.states_explored
        assert (restored.counterexample.to_dict()
                == result.counterexample.to_dict())

    def test_future_major_rejected(self):
        from repro import schema
        result = ModelChecker().check_formula(
            counter_model(), parse_ltl("G (c <= 3)", ["c"]))
        payload = result.to_dict()
        payload["schema_version"] = "999.0"
        with pytest.raises(schema.SchemaVersionError):
            CheckResult.from_dict(payload)
