"""Locked outcomes: every deterministic run must reproduce its golden entry.

A deterministic seed has exactly one right answer, so the detection bits,
bus-off episodes, final error counters and the event-stream digest are
compared for equality — no tolerance.  An intended behaviour change is
made visible by regenerating the file (see ``regen_golden_outcomes.py``)
and reviewing its diff.
"""

import json

import pytest

from tests.experiments.regen_golden_outcomes import (
    GOLDEN_PATH,
    case_key,
    golden_specs,
    outcome,
)

with open(GOLDEN_PATH, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

SPECS = golden_specs()


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN) == sorted(case_key(spec) for spec in SPECS)


@pytest.mark.parametrize("spec", SPECS, ids=[
    f"{spec.scenario}-s{spec.seed}-{spec.duration_bits}" for spec in SPECS])
def test_outcome_matches_golden(spec):
    assert outcome(spec) == GOLDEN[case_key(spec)]
