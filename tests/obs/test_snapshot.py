"""Tests for the periodic snapshotter and its JSONL persistence."""

import json

import pytest

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.errors import ConfigurationError
from repro.obs.probe import BusProbe
from repro.obs.snapshot import (
    SNAPSHOT_KIND,
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotRecorder,
    read_snapshots,
    render_snapshots,
    write_snapshots,
)


def probed_fight():
    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    return sim, BusProbe(sim)


class TestSnapshotRecorder:
    def test_samples_every_n_bits(self):
        sim, probe = probed_fight()
        recorder = sim.add_node(SnapshotRecorder(probe, every_bits=500))
        sim.advance(2_600)
        assert [snap["time"] for snap in recorder.snapshots] == \
            [500, 1000, 1500, 2000, 2500]

    def test_counters_monotone_across_snapshots(self):
        sim, probe = probed_fight()
        recorder = sim.add_node(SnapshotRecorder(probe, every_bits=400))
        sim.advance(4_000)
        errors = [snap["nodes"]["attacker"]["errors"]
                  for snap in recorder.snapshots]
        assert errors == sorted(errors)
        assert errors[-1] > 0

    def test_recorder_is_electrically_invisible(self):
        bare_sim, _ = probed_fight()
        bare_sim.advance(2_000)
        sim, probe = probed_fight()
        sim.add_node(SnapshotRecorder(probe, every_bits=250))
        sim.advance(2_000)
        assert sim.wire.history == bare_sim.wire.history
        assert len(sim.events) == len(bare_sim.events)

    def test_invalid_period(self):
        _, probe = probed_fight()
        with pytest.raises(ConfigurationError, match="positive"):
            SnapshotRecorder(probe, every_bits=0)

    def test_manual_capture(self):
        sim, probe = probed_fight()
        recorder = SnapshotRecorder(probe, every_bits=10_000)
        sim.advance(300)
        snapshot = recorder.capture()
        assert snapshot["time"] == 300
        assert recorder.snapshots == [snapshot]


class TestSnapshotJsonl:
    def _timeline(self):
        sim, probe = probed_fight()
        recorder = sim.add_node(SnapshotRecorder(probe, every_bits=500))
        sim.advance(2_000)
        return recorder.snapshots

    def test_round_trip(self, tmp_path):
        snapshots = self._timeline()
        path = tmp_path / "timeline.jsonl"
        write_snapshots(snapshots, path, meta={"spec": "exp4#0"})
        assert read_snapshots(path) == snapshots

    def test_header_line(self, tmp_path):
        path = tmp_path / "timeline.jsonl"
        write_snapshots(self._timeline(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == SNAPSHOT_KIND
        assert header["schema_version"] == SNAPSHOT_SCHEMA_VERSION

    def test_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ConfigurationError, match="not a snapshot"):
            read_snapshots(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps(
            {"kind": SNAPSHOT_KIND, "schema_version": 999}) + "\n")
        with pytest.raises(ConfigurationError, match="schema version"):
            read_snapshots(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            read_snapshots(path)

    def test_v2_writes_delta_rows(self, tmp_path):
        snapshots = self._timeline()
        path = tmp_path / "timeline.jsonl"
        write_snapshots(snapshots, path)
        rows = [json.loads(line)
                for line in path.read_text().splitlines()[1:]]
        assert set(rows[0]) != {"~"}  # first row is always full
        deltas = [row for row in rows[1:] if set(row) == {"~"}]
        assert deltas  # steady counters compress into deltas
        # Deltas carry only changed keys, never the whole snapshot.
        assert all(set(d["~"]) < set(snapshots[0]) | {"nodes"}
                   for d in deltas)

    def test_reads_v1_full_row_files(self, tmp_path):
        snapshots = self._timeline()
        path = tmp_path / "v1.jsonl"
        lines = [json.dumps({"kind": SNAPSHOT_KIND, "schema_version": 1})]
        lines += [json.dumps(row) for row in snapshots]
        path.write_text("\n".join(lines) + "\n")
        assert read_snapshots(path) == snapshots

    def test_rejects_leading_delta_row(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(json.dumps(
            {"kind": SNAPSHOT_KIND,
             "schema_version": SNAPSHOT_SCHEMA_VERSION}) + "\n"
            + json.dumps({"~": {"time": 500}}) + "\n")
        with pytest.raises(ConfigurationError, match="delta"):
            read_snapshots(path)

    def test_render_tail(self):
        snapshots = self._timeline()
        text = render_snapshots(snapshots, last=2)
        assert "attacker" in text
        assert str(snapshots[-1]["time"]) in text
        assert len(text.splitlines()) == 3  # header + the last two rows
        assert render_snapshots([]) == "(no snapshots)"
