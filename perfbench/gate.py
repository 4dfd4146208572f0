"""The correctness gate: what every measured operation must produce.

Each function returns a list of human-readable failures (empty when the
operation is correct); the workloads count an operation as failed when
its list is non-empty and print the reasons on stderr.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.core.report import Verdict
from repro.properties import ALL_PROPERTIES, expected

#: The seed code's deterministic work counters of one serial
#: three-implementation pass.  Drift from them is flagged, not failed:
#: a legitimate optimisation may change how much work a verdict takes.
SEED_COUNTERS: Dict[str, int] = {
    "mc.checks": 153,
    "mc.states_explored": 82270,
    "mc.product_states": 93883,
    "cegar.iterations": 153,
    "cpv.step_verdicts": 1444,
    "extraction.log_lines": 21321,
}

#: Counters that must repeat exactly across every pass of one workload.
DETERMINISTIC_COUNTERS = tuple(SEED_COUNTERS) + (
    "mc.peak_frontier", "cegar.refinements", "conformance.cases",
    "extraction.blocks", "testbed.attacks")


def matrix_failures(implementation: str,
                    detected: Iterable[str]) -> List[str]:
    """Compare one implementation's detected attacks with Table I."""
    rows = set(expected.matrix_rows())
    found = set(detected) & rows
    want = expected.expected_detected(implementation)
    failures = []
    for attack in sorted(want - found):
        failures.append(f"{implementation}: Table I attack {attack} "
                        f"not detected")
    for attack in sorted(found - want):
        failures.append(f"{implementation}: attack {attack} detected but "
                        f"Table I says it does not apply")
    return failures


def pass_failures(reports: Dict[str, Dict]) -> List[str]:
    """Gate one Table I pass (the ``reports`` block of a pass child)."""
    failures = []
    if sorted(reports) != sorted(expected.IMPLEMENTATIONS):
        failures.append(f"pass analysed {sorted(reports)}, not "
                        f"{sorted(expected.IMPLEMENTATIONS)}")
    for implementation, report in sorted(reports.items()):
        if report["properties"] != len(ALL_PROPERTIES):
            failures.append(f"{implementation}: {report['properties']} "
                            f"properties, not {len(ALL_PROPERTIES)}")
        if report["errors"]:
            failures.append(f"{implementation}: {report['errors']} "
                            f"ERROR verdicts")
        failures.extend(matrix_failures(implementation,
                                        report["detected"]))
    return failures


def counter_drift(reference: Dict[str, float],
                  counters: Dict[str, float],
                  names: Sequence[str] = DETERMINISTIC_COUNTERS
                  ) -> List[str]:
    """Deterministic counters that differ between two passes."""
    return [f"{name}: {counters.get(name, 0)} != {reference.get(name, 0)}"
            for name in names
            if counters.get(name, 0) != reference.get(name, 0)]


def analysis_report_failures(implementation: str,
                             requested: Sequence[str],
                             report: Dict) -> List[str]:
    """Gate one served analysis report (the store's wire form)."""
    failures = []
    results = report.get("results", [])
    got = [result["property"] for result in results]
    if sorted(got) != sorted(requested):
        failures.append(f"{implementation}: report covers {got}, "
                        f"requested {list(requested)}")
    applicable = expected.expected_detected(implementation)
    rows = set(expected.matrix_rows())
    for result in results:
        if result["verdict"] == Verdict.ERROR.value:
            failures.append(f"{implementation}: {result['property']} "
                            f"ended in an ERROR verdict")
        attack = result.get("attack_id") or ""
        if result["verdict"] == Verdict.VIOLATED.value and attack in rows \
                and attack not in applicable:
            failures.append(f"{implementation}: {result['property']} "
                            f"violated, naming {attack}, which does not "
                            f"apply to {implementation}")
    return failures
