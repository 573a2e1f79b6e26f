"""Campaign-engine robustness: crashes, hangs, retries, journal resume."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    Campaign,
    CampaignReport,
    RunFailure,
    ScenarioSpec,
    spec_digest,
)
from repro.experiments.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    WorkJournal,
)
from repro.experiments.store import merge_reports
from repro.faults.plan import FaultPlan, FaultSpec, FaultWindow


def harness_plan(kind, **params):
    return FaultPlan((
        FaultSpec(name="trouble", kind=kind, params=params, seed=0),
    ))


def good_spec(seed=0, duration_bits=2_000):
    return ScenarioSpec("exp4", duration_bits=duration_bits, seed=seed)


def bad_spec(kind, seed=0, **params):
    return ScenarioSpec("exp4", duration_bits=2_000, seed=seed,
                        label=f"{kind}#{seed}", faults=harness_plan(
                            kind, **params))


# --------------------------------------------------------------- failures

def test_raising_worker_becomes_a_structured_error_failure():
    report = Campaign(
        [bad_spec("harness.crash", hard=False), good_spec(seed=1)],
        max_retries=1, retry_backoff_seconds=0.0,
    ).run()
    assert len(report.records) == 1
    assert report.records[0].spec.seed == 1
    (failure,) = report.failures
    assert failure.kind == "error"
    assert failure.attempts == 2
    assert "injected" in failure.error.lower()
    assert failure.worker  # serial path still names the executor
    assert "FAILED" in report.render()


def test_hard_crash_is_detected_as_a_dead_worker():
    report = Campaign(
        [bad_spec("harness.crash", hard=True), good_spec(seed=1)],
        n_workers=2, timeout_seconds=30.0,
        max_retries=1, retry_backoff_seconds=0.0,
    ).run()
    assert [r.spec.seed for r in report.records] == [1]
    (failure,) = report.failures
    assert failure.kind == "crash"
    assert failure.attempts == 2


def test_hanging_worker_times_out_and_is_killed():
    report = Campaign(
        [bad_spec("harness.hang", seconds=30.0), good_spec(seed=1)],
        n_workers=2, timeout_seconds=0.5,
        max_retries=0, retry_backoff_seconds=0.0,
    ).run()
    assert [r.spec.seed for r in report.records] == [1]
    (failure,) = report.failures
    assert failure.kind == "timeout"
    assert failure.attempts == 1
    assert failure.wall_seconds >= 0.5


# ------------------------------------------- checkpoint journal + resume

def journal_lines(path):
    return [json.loads(line) for line in open(path, encoding="utf-8")]


def test_checkpoint_resume_runs_only_the_missing_specs(tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    first = [good_spec(seed=1), good_spec(seed=2)]
    Campaign(first, checkpoint=checkpoint).run()
    lines = journal_lines(checkpoint)
    assert {line["type"] for line in lines} == {"work"}
    assert [line["state"] for line in lines] == [
        "queued", "queued", "leased", "done", "leased", "done"]

    specs = first + [good_spec(seed=3)]
    report = Campaign(specs, checkpoint=checkpoint).run(resume=True)
    assert [record.spec.seed for record in report.records] == [1, 2, 3]
    lines = journal_lines(checkpoint)
    done = [line["key"] for line in lines if line["state"] == "done"]
    assert len(done) == 3, "resume runs only the spec it was missing"
    assert set(done) == {spec_digest(spec) for spec in specs}
    assert WorkJournal(checkpoint).load().pending() == []


def test_checkpointed_failures_are_retried_on_resume(tmp_path):
    checkpoint = str(tmp_path / "campaign.jsonl")
    specs = [bad_spec("harness.crash", hard=False), good_spec(seed=1)]
    report = Campaign(specs, checkpoint=checkpoint,
                      retry_backoff_seconds=0.0).run()
    assert len(report.failures) == 1
    state = WorkJournal(checkpoint).load()
    assert list(state.failures) == [spec_digest(specs[0])]

    # Resume with the same (still broken) plan: the failure re-runs.
    report = Campaign(specs, checkpoint=checkpoint,
                      retry_backoff_seconds=0.0).run(resume=True)
    assert len(report.records) == 1
    assert len(report.failures) == 1
    failed = [line for line in journal_lines(checkpoint)
              if line["state"] == "failed"]
    assert len(failed) == 2


def test_resume_without_a_checkpoint_is_rejected():
    with pytest.raises(ConfigurationError, match="checkpoint"):
        Campaign([good_spec()]).run(resume=True)


def test_torn_checkpoint_lines_are_skipped(tmp_path):
    checkpoint = tmp_path / "campaign.jsonl"
    spec = good_spec(seed=1)
    Campaign([spec], checkpoint=str(checkpoint)).run()
    with open(checkpoint, "a", encoding="utf-8") as handle:
        handle.write('{"type": "work", "state": "done", "key": "tru')
    before = checkpoint.read_text(encoding="utf-8")
    report = Campaign([spec], checkpoint=str(checkpoint)).run(resume=True)
    assert len(report.records) == 1
    assert checkpoint.read_text(encoding="utf-8") == before, \
        "the resumed run replayed the spec; it appended nothing"


def test_newer_schema_checkpoint_is_a_clean_error(tmp_path):
    checkpoint = tmp_path / "campaign.jsonl"
    spec = good_spec(seed=1)
    entry = {"type": "work", "state": "done", "key": spec_digest(spec),
             "schema_version": JOURNAL_SCHEMA_VERSION + 1, "record": {}}
    checkpoint.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="newer format"):
        Campaign([spec], checkpoint=str(checkpoint)).run(resume=True)


def test_legacy_unstamped_checkpoint_lines_still_load(tmp_path):
    checkpoint = tmp_path / "campaign.jsonl"
    spec = good_spec(seed=1)
    Campaign([spec], checkpoint=str(checkpoint)).run()
    # Strip the version stamp, as a pre-versioning build would have
    # written it: the entry must still resume.
    lines = []
    for line in checkpoint.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        entry.pop("schema_version", None)
        lines.append(json.dumps(entry))
    checkpoint.write_text("\n".join(lines) + "\n", encoding="utf-8")
    report = Campaign([spec], checkpoint=str(checkpoint)).run(resume=True)
    assert len(report.records) == 1
    assert report.records[0].spec == spec
    assert len(journal_lines(checkpoint)) == len(lines), "nothing re-ran"


# -------------------------------------------------------- report plumbing

def test_report_with_failures_round_trips():
    report = Campaign(
        [bad_spec("harness.crash", hard=False), good_spec(seed=1)],
        retry_backoff_seconds=0.0,
    ).run()
    clone = CampaignReport.from_dict(report.to_dict())
    assert clone.payload_equal(report)
    assert [f.to_dict() for f in clone.failures] == \
        [f.to_dict() for f in report.failures]


def test_merge_reports_carries_failures():
    spec = good_spec()
    failure = RunFailure(spec=spec, kind="timeout", error="budget",
                         attempts=2)
    one = Campaign([good_spec(seed=1)]).run()
    two = CampaignReport(records=[], n_workers=1, wall_seconds=0.0,
                         failures=[failure])
    merged = merge_reports(one, two)
    assert len(merged.records) == 1
    assert [f.kind for f in merged.failures] == ["timeout"]


# -------------------------------------------------------------- validation

@pytest.mark.parametrize("kwargs", [
    {"n_workers": 0},
    {"timeout_seconds": 0},
    {"timeout_seconds": -1.0},
    {"max_retries": -1},
    {"retry_backoff_seconds": -0.5},
])
def test_campaign_parameters_are_validated(kwargs):
    with pytest.raises(ConfigurationError):
        Campaign([good_spec()], **kwargs)


def test_campaign_validates_fault_plans_up_front():
    broken = ScenarioSpec("exp4", faults=FaultPlan((
        FaultSpec(name="w", kind="wire.flip",
                  window=FaultWindow(10, 5)),
    )))
    with pytest.raises(ConfigurationError):
        Campaign([broken])
