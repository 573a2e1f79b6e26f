"""Adversarial work-journal files: torn, duplicated, skewed, interleaved."""

import json

import pytest

from repro.experiments.campaign import RunRecord, ScenarioSpec
from repro.experiments.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalSchemaError,
    WorkJournal,
    spec_digest,
)


def spec(seed=0, duration_bits=1_000):
    return ScenarioSpec("exp4", seed=seed, duration_bits=duration_bits)


def run_record(the_spec):
    """A minimal real record: actually execute the (tiny) spec once."""
    from repro.experiments.campaign import execute_spec

    return execute_spec(the_spec)


# ------------------------------------------------------------ content keys

def test_spec_digest_is_stable_and_content_sensitive():
    assert spec_digest(spec(seed=1)) == spec_digest(spec(seed=1))
    assert spec_digest(spec(seed=1)) != spec_digest(spec(seed=2))
    assert spec_digest(spec()) != spec_digest(spec(duration_bits=999))
    assert len(spec_digest(spec())) == 64  # sha256 hex


# ------------------------------------------------------------- round trips

def test_queued_leased_done_round_trip(tmp_path):
    journal = WorkJournal(str(tmp_path / "j.jsonl"))
    s = spec(seed=3)
    key = spec_digest(s)
    journal.record_queued(key, s)
    journal.record_leased(key, "svc-w0", 1)
    record = run_record(s)
    journal.record_done(key, record)

    state = journal.load()
    assert state.order == [key]
    assert state.specs[key].to_dict() == s.to_dict()
    assert state.leases[key] == ("svc-w0", 1)
    assert state.records[key].to_dict() == record.to_dict()
    assert state.pending() == []
    assert state.is_settled(key)


def test_a_done_line_whose_record_carries_a_flight_dump_loads(tmp_path):
    """Journals written while records embedded their final flight dump
    still replay; the dump is dropped."""
    path = tmp_path / "j.jsonl"
    journal = WorkJournal(str(path))
    s = spec(seed=4)
    key = spec_digest(s)
    journal.record_queued(key, s)
    record = run_record(s)
    entry = {"type": "work", "schema_version": JOURNAL_SCHEMA_VERSION,
             "state": "done", "key": key,
             "record": dict(record.to_dict(),
                            flight={"kind": "repro.obs.flight"})}
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
    loaded = journal.load().records[key]
    assert not hasattr(loaded, "flight")
    assert loaded.to_dict() == record.to_dict()


def test_pending_lists_unsettled_keys_in_submission_order(tmp_path):
    journal = WorkJournal(str(tmp_path / "j.jsonl"))
    keys = []
    for seed in (5, 6, 7):
        s = spec(seed=seed)
        keys.append(spec_digest(s))
        journal.record_queued(keys[-1], s)
    journal.record_done(keys[1], run_record(spec(seed=6)))
    state = journal.load()
    assert state.pending() == [keys[0], keys[2]]


# ----------------------------------------------------- adversarial inputs

def test_truncated_final_line_is_skipped(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = WorkJournal(str(path))
    s = spec()
    key = spec_digest(s)
    journal.record_queued(key, s)
    journal.record_done(key, run_record(s))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "work", "state": "queued", "key": "tru')
    state = journal.load()
    assert list(state.records) == [key]
    assert state.order == [key]


def test_duplicated_done_entries_keep_the_first_result(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = WorkJournal(str(path))
    s = spec()
    key = spec_digest(s)
    journal.record_queued(key, s)
    first = run_record(s)
    journal.record_done(key, first)
    # A replayed/duplicated done with a different worker stamp.
    clone = RunRecord.from_dict(first.to_dict())
    journal.record_done(key, RunRecord(
        spec=clone.spec, result=clone.result, wall_seconds=99.0,
        steps_per_second=1.0, worker="impostor"))
    state = journal.load()
    assert state.records[key].worker == first.worker
    assert state.records[key].wall_seconds == first.wall_seconds


def test_duplicated_queued_entries_do_not_reorder(tmp_path):
    journal = WorkJournal(str(tmp_path / "j.jsonl"))
    a, b = spec(seed=1), spec(seed=2)
    ka, kb = spec_digest(a), spec_digest(b)
    journal.record_queued(ka, a)
    journal.record_queued(kb, b)
    journal.record_queued(ka, a)  # resubmission replay
    state = journal.load()
    assert state.order == [ka, kb]


def test_interleaved_telemetry_lines_are_invisible(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = WorkJournal(str(path))
    s = spec()
    key = spec_digest(s)
    journal.record_queued(key, s)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "telemetry", "event": "heartbeat",
                                 "worker": "svc-w0", "at": 1.0}) + "\n")
        handle.write(json.dumps({"type": "checkpoint-foreign"}) + "\n")
    journal.record_done(key, run_record(s))
    state = journal.load()
    assert list(state.records) == [key]
    assert state.skipped_lines == 0


def test_newer_schema_version_is_a_clean_error(tmp_path):
    path = tmp_path / "j.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "type": "work",
            "schema_version": JOURNAL_SCHEMA_VERSION + 1,
            "state": "queued", "key": "abc", "spec": {}}) + "\n")
    with pytest.raises(JournalSchemaError, match="newer format"):
        WorkJournal(str(path)).load()


def test_bad_payloads_degrade_to_skips_not_crashes(tmp_path):
    path = tmp_path / "j.jsonl"
    lines = [
        {"type": "work", "state": "queued", "key": "k1"},  # no spec
        {"type": "work", "state": "done", "key": "k2", "record": {}},
        {"type": "work", "state": "nonsense", "key": "k3"},
        {"type": "work", "state": "queued", "key": ""},  # empty key
        {"type": "work", "state": "queued", "key": 7},   # non-str key
    ]
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(json.dumps(line) + "\n")
    state = WorkJournal(str(path)).load()
    assert state.order == []
    assert state.records == {}
    assert state.skipped_lines == len(lines)


def test_missing_file_loads_empty(tmp_path):
    state = WorkJournal(str(tmp_path / "absent.jsonl")).load()
    assert state.order == [] and state.pending() == []


# ------------------------------------------------------- write degradation

def test_write_failures_warn_and_count_but_never_raise(tmp_path):
    from repro.faults.plan import FaultSpec
    from repro.faults.store import StoreWriteFault

    fault = StoreWriteFault(FaultSpec(
        name="disk", kind="store.write_failure",
        params={"max_failures": 1}, seed=0))
    journal = WorkJournal(str(tmp_path / "j.jsonl"), fault=fault)
    s = spec()
    key = spec_digest(s)
    with pytest.warns(RuntimeWarning, match="will NOT survive"):
        journal.record_queued(key, s)
    assert journal.degraded
    assert journal.write_failures == 1
    # The next write succeeds (max_failures=1 exhausted the schedule).
    journal.record_leased(key, "svc-w0", 1)
    state = journal.load()
    assert state.leases[key] == ("svc-w0", 1)
    assert key not in state.specs  # the queued line really was lost
