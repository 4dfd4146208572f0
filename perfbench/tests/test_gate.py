import gate
from repro.properties import ALL_PROPERTIES, expected


def good_reports():
    return {implementation: {
        "properties": len(ALL_PROPERTIES), "errors": 0,
        "detected": sorted(expected.expected_detected(implementation)),
        "signature": "x"} for implementation in expected.IMPLEMENTATIONS}


def result(prop, verdict):
    return {"property": prop.identifier, "attack_id": prop.attack_id,
            "verdict": verdict}


def by_attack(attack):
    return next(p for p in ALL_PROPERTIES if p.attack_id == attack)


class TestPassGate:
    def test_expected_matrix_passes(self):
        assert gate.pass_failures(good_reports()) == []

    def test_wrong_matrix_is_flagged(self):
        reports = good_reports()
        reports["srsue"]["detected"].remove("P1")
        reports["reference"]["detected"].append("I2")
        failures = gate.pass_failures(reports)
        assert any("P1 not detected" in f for f in failures)
        assert any("I2 detected" in f for f in failures)

    def test_not_applicable_rows_must_stay_undetected(self):
        reports = good_reports()
        reports["oai"]["detected"].append(expected.PRIOR_NOT_APPLICABLE[0])
        assert gate.pass_failures(reports)

    def test_missing_properties_errors_and_implementations(self):
        reports = good_reports()
        reports["oai"]["properties"] = 61
        reports["srsue"]["errors"] = 1
        del reports["reference"]
        failures = gate.pass_failures(reports)
        assert len(failures) == 3


class TestCounterDrift:
    def test_equal_counters_do_not_drift(self):
        counters = dict(gate.SEED_COUNTERS)
        assert gate.counter_drift(gate.SEED_COUNTERS, counters) == []

    def test_any_difference_is_named(self):
        counters = dict(gate.SEED_COUNTERS, **{"mc.states_explored": 1})
        drift = gate.counter_drift(gate.SEED_COUNTERS, counters)
        assert len(drift) == 1 and drift[0].startswith("mc.states_explored")


class TestServedReportGate:
    def test_requested_properties_with_applicable_attacks_pass(self):
        prop = by_attack("P1")
        report = {"results": [result(prop, "violated")]}
        assert gate.analysis_report_failures(
            "reference", [prop.identifier], report) == []

    def test_inapplicable_attack_is_flagged(self):
        prop = by_attack("I2")          # applies to oai only
        report = {"results": [result(prop, "violated")]}
        assert gate.analysis_report_failures(
            "reference", [prop.identifier], report)

    def test_error_verdict_and_wrong_properties_are_flagged(self):
        first, second = ALL_PROPERTIES[0], ALL_PROPERTIES[1]
        report = {"results": [result(first, "error")]}
        failures = gate.analysis_report_failures(
            "srsue", [first.identifier, second.identifier], report)
        assert len(failures) == 2
