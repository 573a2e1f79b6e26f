"""The correctness gate every benchmark run passes before it reports.

A failed check raises :class:`CheckFailed`; ``run.py`` turns that into a
non-zero exit without a result line.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Sequence

#: Scenarios whose every bus-off episode takes exactly 32 attempts (16
#: error-active plus 16 error-passive retransmissions, Table III).
THIRTY_TWO_ATTEMPT_SCENARIOS = ("exp2", "exp4", "exp6")

#: The benign control scenario: no attacker, so no fight.
BENIGN_SCENARIOS = ("restbus_baseline",)


class CheckFailed(Exception):
    """A correctness check failed; the run must not report numbers."""


def payload_digest(report: Mapping[str, Any]) -> str:
    """SHA-256 over every record's spec and result (timing excluded).

    The same fields ``CampaignReport.payload_equal`` compares, taken
    from the report dict.
    """
    payload = [(record["spec"], record["result"])
               for record in report["records"]]
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def in_spec_order(report: Dict[str, Any],
                   spec_dicts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A service report with its records in spec-list order.

    ``CampaignService`` appends cache hits after the specs it queues, so
    its report order depends on the cache's contents; the checks compare
    against the spec list's order.
    """
    by_spec = {json.dumps(r["spec"], sort_keys=True): r
               for r in report["records"]}
    ordered = [by_spec.get(json.dumps(spec, sort_keys=True))
               for spec in spec_dicts]
    if None in ordered or len(by_spec) != len(report["records"]):
        return report  # the record count check reports the mismatch
    return dict(report, records=ordered)


def check_report(report: Mapping[str, Any],
                 specs: Sequence[Mapping[str, Any]]) -> None:
    """One record per spec, in order, and the paper invariants."""
    failures = report.get("failures", [])
    if failures:
        first = failures[0]
        raise CheckFailed(
            f"{len(failures)} spec(s) failed; first: "
            f"{first['spec']['scenario']} ({first['kind']}: {first['error']})")
    records = report["records"]
    if len(records) != len(specs):
        raise CheckFailed(
            f"{len(records)} record(s) for {len(specs)} spec(s)")
    for index, (record, spec) in enumerate(zip(records, specs)):
        if record["spec"] != spec:
            raise CheckFailed(f"record {index} is not spec {index}")
        check_result(spec["scenario"], record["result"])


def check_result(scenario: str, result: Mapping[str, Any]) -> None:
    """The paper invariants that hold for ``scenario`` today."""
    episodes = [episode for per_attacker in result["episodes"].values()
                for episode in per_attacker]
    if scenario in BENIGN_SCENARIOS:
        if result["counterattacks"] != 0 or episodes:
            raise CheckFailed(
                f"{scenario}: {result['counterattacks']} counterattack(s) "
                f"and {len(episodes)} bus-off episode(s) on a benign bus")
        return
    if result["detections"] <= 0:
        raise CheckFailed(f"{scenario}: a fight without detections")
    if scenario in THIRTY_TWO_ATTEMPT_SCENARIOS:
        attempts = sorted({episode["attempts"] for episode in episodes})
        if attempts and attempts != [32]:
            raise CheckFailed(
                f"{scenario}: bus-off episodes took {attempts} attempts, "
                f"expected exactly 32")


def check_same_digest(digests: List[str]) -> None:
    """Every pass of one seed produced the same payload."""
    if len(set(digests)) != 1:
        raise CheckFailed(
            f"payload digests differ between passes of one seed: "
            f"{sorted(set(digests))}")


def results_equal(name: str, fast: Dict[str, Any],
                  bit: Dict[str, Any]) -> None:
    """Fast-engine and bit-engine results of one spec are identical."""
    if fast != bit:
        raise CheckFailed(f"{name}: fast engine and bit engine disagree")
