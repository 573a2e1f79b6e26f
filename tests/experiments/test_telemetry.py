"""Live campaign telemetry over the work-journal channel."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.campaign import Campaign, ScenarioSpec
from repro.experiments.service.journal import WorkJournal
from repro.experiments.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    TelemetryWriter,
    campaign_progress,
    load_progress,
    read_channel,
    render_progress,
)
from repro.faults.plan import FaultPlan, FaultSpec


def good_spec(seed=0):
    return ScenarioSpec("exp4", duration_bits=2_000, seed=seed)


def crash_spec(seed=0):
    plan = FaultPlan((FaultSpec(name="boom", kind="harness.crash",
                                params={"hard": False}, seed=0),))
    return ScenarioSpec("exp4", duration_bits=2_000, seed=seed,
                        label=f"crash#{seed}", faults=plan)


class TestWriter:
    def test_lines_carry_type_schema_and_stamp(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        writer = TelemetryWriter(path)
        writer.campaign_started(3, 3, 2)
        writer.spec_started("exp4#0", 1, "w1")
        writer.spec_finished("exp4#0", 1, "w1", "ok", 0.5)
        entries = read_channel(path)
        assert [e["event"] for e in entries] == [
            "campaign-start", "start", "finish"]
        for entry in entries:
            assert entry["type"] == "telemetry"
            assert entry["schema_version"] == TELEMETRY_SCHEMA_VERSION
            assert entry["at"] > 0

    def test_heartbeats_are_rate_limited_per_worker(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        writer = TelemetryWriter(path, heartbeat_seconds=60.0)
        for _ in range(5):
            writer.heartbeat("w1", "exp4#0", 1.0)
            writer.heartbeat("w2", "exp4#0", 1.0)
        beats = [e for e in read_channel(path) if e["event"] == "heartbeat"]
        assert len(beats) == 2  # one per worker
        # Finishing a spec resets the worker's limiter.
        writer.spec_finished("exp4#0", 1, "w1", "ok", 1.0)
        writer.heartbeat("w1", "exp4#1", 0.1)
        beats = [e for e in read_channel(path) if e["event"] == "heartbeat"]
        assert len(beats) == 3

    def test_telemetry_lines_are_invisible_to_the_record_loader(
            self, tmp_path):
        path = tmp_path / "chan.jsonl"
        TelemetryWriter(path).campaign_started(1, 1, 1)
        state = WorkJournal(str(path)).load()
        assert state.order == [] and state.records == {}
        assert state.skipped_lines == 0


def work(state, key, **fields):
    return {"type": "work", "state": state, "key": key, **fields}


class TestReader:
    def test_read_channel_skips_torn_lines(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        path.write_text(json.dumps({"type": "telemetry", "event": "start"})
                        + "\n" + '{"type": "telem')
        assert len(read_channel(path)) == 1

    def test_read_channel_missing_file(self, tmp_path):
        assert read_channel(tmp_path / "nope.jsonl") == []

    def test_progress_folds_records_failures_and_telemetry(self):
        entries = [
            {"type": "telemetry", "event": "campaign-start", "at": 1.0,
             "total_specs": 3, "n_workers": 2},
            {"type": "telemetry", "event": "start", "at": 2.0,
             "spec": "a", "worker": "w1"},
            {"type": "telemetry", "event": "heartbeat", "at": 3.0,
             "worker": "w1", "spec": "a", "elapsed_seconds": 1.0},
            work("queued", "ka", spec={"label": "a"}),
            work("done", "ka"),
            {"type": "telemetry", "event": "finish", "at": 4.0,
             "spec": "a", "worker": "w1", "status": "ok"},
            {"type": "telemetry", "event": "retry", "at": 5.0,
             "spec": "b", "attempt": 1},
            work("queued", "kc", spec={"label": "c"}),
            work("failed", "kc", failure={"kind": "timeout"}),
        ]
        progress = campaign_progress(entries)
        assert progress.total_specs == 3
        assert progress.n_workers == 2
        assert progress.completed == 1
        assert progress.failed == 1
        assert progress.retries == 1
        assert progress.spec_status == {"a": "ok", "b": "retrying",
                                        "c": "timeout"}
        assert progress.workers == {}  # finish cleared w1
        assert progress.last_update == 5.0
        assert not progress.finished

    def test_a_done_after_a_failure_counts_as_completed(self):
        """A resumed campaign re-runs its failures into the same journal:
        the later ``done`` wins, as in the journal's own fold."""
        progress = campaign_progress([
            work("queued", "k", spec={"label": "a"}),
            work("failed", "k", failure={"kind": "error"}),
            work("done", "k"),
            work("failed", "k", failure={"kind": "error"}),
        ])
        assert (progress.completed, progress.failed) == (1, 0)
        assert progress.spec_status == {"a": "ok"}

    def test_render_progress(self):
        progress = campaign_progress([
            {"type": "telemetry", "event": "campaign-start", "at": 1.0,
             "total_specs": 2, "n_workers": 1},
            {"type": "telemetry", "event": "start", "at": 2.0,
             "spec": "a", "worker": "w1"},
            work("done", "ka"),
        ])
        text = render_progress(progress)
        assert "1/2 specs" in text
        assert "w1" in text
        finished = campaign_progress([
            {"type": "telemetry", "event": "campaign-end", "at": 9.0,
             "completed": 2, "failed": 0, "wall_seconds": 1.5},
        ])
        assert "campaign finished" in render_progress(finished)
        assert "wall time" in render_progress(finished)


class TestCampaignIntegration:
    def test_telemetry_requires_a_checkpoint(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            Campaign([good_spec()], telemetry=True)
        with pytest.raises(ConfigurationError, match="heartbeat"):
            Campaign([good_spec()], checkpoint="x.jsonl", telemetry=True,
                     heartbeat_seconds=0)

    def test_serial_campaign_streams_lifecycle_events(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        Campaign([good_spec(), crash_spec(seed=1)], checkpoint=str(path),
                 telemetry=True).run()
        events = [e["event"] for e in read_channel(path)
                  if e.get("type") == "telemetry"]
        assert events[0] == "campaign-start"
        assert events[-1] == "campaign-end"
        assert events.count("start") == 2
        assert events.count("finish") == 2
        progress = load_progress(path)
        assert progress.finished
        assert progress.completed == 1 and progress.failed == 1
        assert progress.spec_status["crash#1"] == "error"

    def test_process_campaign_streams_and_retries(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        Campaign([good_spec(), crash_spec(seed=1)], n_workers=2,
                 timeout_seconds=30.0, max_retries=1,
                 retry_backoff_seconds=0.0, checkpoint=str(path),
                 telemetry=True).run()
        entries = [e for e in read_channel(path)
                   if e.get("type") == "telemetry"]
        events = [e["event"] for e in entries]
        assert events.count("retry") == 1
        assert events.count("start") == 3  # initial two + one retry
        progress = load_progress(path)
        assert progress.finished
        assert progress.retries == 1

    def test_default_campaign_writes_no_telemetry(self, tmp_path):
        path = tmp_path / "chan.jsonl"
        Campaign([good_spec()], checkpoint=str(path)).run()
        kinds = {e.get("type") for e in read_channel(path)}
        assert kinds == {"work"}
