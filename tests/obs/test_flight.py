"""Flight recorder: bounded rings, dumps, autoflush and rendering."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.errors import ConfigurationError
from repro.node.controller import CanNode
from repro.obs.flight import (
    FLIGHT_KIND,
    FLIGHT_SCHEMA_VERSION,
    ROTATE_FACTOR,
    FlightRecorder,
    load_dump,
    render_dump,
    write_dump,
)


#: A valid log header; malformed cases append the line under test.
LOG_HEAD = (b'{"kind": "repro.obs.flight", "schema_version": 2,'
            b' "format": "log", "bus_speed": 500000, "event_capacity": 4}\n')


def fight_sim():
    sim = CanBusSimulator()
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    return sim


class TestRecorder:
    def test_bounded_event_ring_keeps_the_newest(self):
        sim = fight_sim()
        recorder = FlightRecorder(sim, event_capacity=10)
        sim.advance(2_000)
        dump = recorder.dump(reason="test")
        assert len(dump["events"]) == 10
        assert len(sim.events) > 10
        times = [entry["time"] for entry in dump["events"]]
        assert times == sorted(times)
        assert times[-1] == sim.events[-1].time

    def test_trajectory_is_built_from_state_change_events(self):
        sim = fight_sim()
        recorder = FlightRecorder(sim)
        sim.advance(5_000)
        dump = recorder.dump(reason="test")
        assert "samples" not in dump
        changes = [e for e in dump["events"]
                   if e["type"] in ("ErrorStateChanged", "BusOffEntered")]
        assert changes
        assert all("tec" in e for e in changes)
        text = render_dump(dump)
        assert f"TEC trajectory ({len(changes)} state changes" in text
        last = changes[-1]
        assert f"t={last['time']:>8} {last['node']:<14}" in text

    def test_dump_carries_final_state_and_wire_tail(self):
        sim = fight_sim()
        recorder = FlightRecorder(sim)
        sim.advance(3_000)
        dump = recorder.dump(reason="abort")
        assert dump["kind"] == FLIGHT_KIND
        assert dump["schema_version"] == FLIGHT_SCHEMA_VERSION
        assert dump["reason"] == "abort"
        assert dump["time"] == sim.time
        assert dump["nodes"]["attacker"]["tec"] > 0
        tail = dump["wire_tail"]
        assert len(tail["levels"]) <= 512
        assert tail["end_bit"] - tail["start_bit"] == len(tail["levels"])
        assert json.dumps(dump)  # entirely JSON-safe

    def test_events_encode_frames_and_errors(self):
        sim = CanBusSimulator()
        sim.add_nodes(CanNode("a"), CanNode("b"))
        recorder = FlightRecorder(sim)
        sim.node("a").send(CanFrame(0x123, b"\xAB"))
        sim.advance(200)
        dump = recorder.dump()
        started = [e for e in dump["events"] if e["type"] == "FrameStarted"]
        assert started and started[0]["frame"] == {
            "can_id": 0x123, "data": "ab", "extended": False, "remote": False}

    def test_validation(self):
        sim = fight_sim()
        with pytest.raises(ConfigurationError, match="event capacity"):
            FlightRecorder(sim, event_capacity=0)
        with pytest.raises(ConfigurationError, match="flush period"):
            FlightRecorder(sim, flush_every=0)

    def test_close_detaches(self):
        sim = fight_sim()
        recorder = FlightRecorder(sim)
        recorder.close()
        sim.advance(500)
        assert recorder.dump()["events"] == []


class TestAutoflush:
    def test_autoflush_rewrites_dump_during_the_run(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path, flush_every=16)
        sim.advance(2_000)
        # No explicit flush: the on-disk dump came from autoflush alone.
        dump = load_dump(path)
        assert dump["reason"] == "autoflush"
        assert dump["events"]
        assert dump["time"] <= sim.time

    def test_explicit_flush_and_reason(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path,
                                  flush_every=10**9)
        sim.advance(300)
        assert recorder.flush(reason="timeout") == str(path)
        assert load_dump(path)["reason"] == "timeout"

    def test_flush_without_path_is_a_noop(self):
        recorder = FlightRecorder(fight_sim())
        assert recorder.flush() is None


class TestLog:
    def test_log_folds_to_the_recorders_dump(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path, flush_every=16)
        recorder.flush(reason="start")
        sim.advance(3_000)
        recorder.flush(reason="abort")
        assert load_dump(path) == recorder.dump(reason="abort")

    def test_events_after_the_checkpoint_update_node_states(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path, flush_every=1)
        recorder.flush(reason="start")
        start = recorder.dump()["nodes"]
        sim.advance(3_000)
        dump = load_dump(path)
        assert dump["reason"] == "autoflush"
        last = [e for e in recorder.dump()["events"]
                if e["type"] == "ErrorStateChanged"
                and e["node"] == "attacker"][-1]
        assert dump["nodes"]["attacker"]["error_state"] == last["new_state"]
        assert dump["nodes"]["attacker"]["tec"] == last["tec"]
        # Nodes without a later state change keep their start checkpoint.
        assert dump["nodes"]["defender"] == start["defender"]

    def test_torn_last_line_loses_at_most_flush_every_events(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        every = 8
        recorder = FlightRecorder(sim, event_capacity=10_000,
                                  autoflush_path=path, flush_every=every)
        sim.advance(3_000)
        ring = recorder.dump()["events"]
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # the crash cut the last write
        folded = load_dump(path)["events"]
        assert folded == ring[:len(folded)]
        assert len(ring) - every <= len(folded) < len(ring)

    @pytest.mark.parametrize("content", [
        b"",
        b'{"kind": "repro.obs.fli',
        b"hello, world\n",
        b"\xff\xfe\x00garbage",
        b"[1, 2, 3]\n",
        b'{"kind": "other"}\n',
        b'{"kind": "repro.obs.flight", "schema_version": 999,'
        b' "format": "log", "event_capacity": 4}\n',
        b'{"kind": "repro.obs.flight", "schema_version": 2,'
        b' "format": "log", "event_capacity": "many"}\n',
        LOG_HEAD + b'{"type": "X"\n{}\n',
        LOG_HEAD + b'[1]\n',
        LOG_HEAD + b'{"checkpoint": "start", "time": 0, "nodes": [1]}\n',
        b'{"kind": "repro.obs.flight", "schema_version": 2,'
        b' "events": {"not": "a list"}}\n',
        b'{"kind": "repro.obs.flight", "schema_version": 2,'
        b' "nodes": {"a": 1}}\n',
        b"[" * 100_000,
        b'{"kind": "repro.obs.flight", "schema_version": 2,'
        b' "format": "log", "event_capacity": 4, "bus_speed": "x"}\n',
        LOG_HEAD + b'{"checkpoint": "start", "time": "x", "nodes": {}}\n',
        LOG_HEAD + b'{"checkpoint": "start", "time": 0, "nodes": {},'
        b' "wire_tail": {"levels": [7, "a"]}}\n',
        LOG_HEAD + b'{"checkpoint": "start", "time": 0, "nodes": {},'
        b' "wire_tail": {"levels": [], "start_bit": "x"}}\n',
        LOG_HEAD + b'{"checkpoint": "start", "time": 0, "nodes": {},'
        b' "ff_stats": {"body_spans": "x"}}\n',
        b'{"kind": "repro.obs.flight", "schema_version": 2,'
        b' "reason": "complete", "time": 0, "bus_speed": 500000,'
        b' "events": [], "nodes": {}, "ff_stats": {}, "wire_tail": {}}\n',
    ], ids=["empty", "truncated-header", "text", "binary", "json-list",
            "foreign-kind", "newer-schema", "bad-capacity", "corrupt-line",
            "non-dict-line", "bad-checkpoint-nodes", "bad-events",
            "bad-node-entry", "deep-nesting", "bad-bus-speed",
            "bad-checkpoint-time", "bad-wire-levels", "bad-wire-start",
            "bad-ff-stats", "single-json-dump"])
    def test_malformed_files_raise_configuration_error(self, tmp_path,
                                                       content):
        path = tmp_path / "bad.flight.json"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError):
            load_dump(path)

    def test_rotation_keeps_the_log_bounded(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path, flush_every=32)
        recorder.flush(reason="start")
        bound = 1 + ROTATE_FACTOR * recorder.event_capacity
        longest = 0
        for _ in range(100):
            sim.advance(1_000)
            longest = max(longest, len(path.read_bytes().splitlines()))
        assert sim.time == 100_000
        assert len(sim.events) > 2 * bound  # it did rotate
        assert longest <= bound
        recorder.flush(reason="abort")
        assert load_dump(path) == recorder.dump(reason="abort")

    def test_timeout_flush_keeps_unflushed_lines(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path,
                                  flush_every=10**9)
        sim.advance(2_000)
        assert len(path.read_bytes().splitlines()) == 1  # header only
        recorder.flush(reason="timeout")
        dump = load_dump(path)
        assert dump["reason"] == "timeout"
        assert dump["events"] == recorder.dump()["events"]

    def test_close_writes_pending_lines(self, tmp_path):
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path,
                                  flush_every=10**9)
        sim.advance(1_000)
        recorder.close()
        assert load_dump(path)["events"] == recorder.dump()["events"]
        assert recorder.flush() is None


#: Any JSON value, for replacing a field of a logged line.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.floats()
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def real_log(tmp_path_factory):
    """A directory and the lines of a real log in it: start checkpoint, a
    fight's events (with a rotation), an abort checkpoint."""
    directory = tmp_path_factory.mktemp("flight")
    path = directory / "real.flight.json"
    sim = fight_sim()
    recorder = FlightRecorder(sim, event_capacity=16, autoflush_path=path,
                              flush_every=4)
    recorder.flush(reason="start")
    sim.advance(1_500)
    recorder.flush(reason="abort")
    recorder.close()
    return directory, path.read_text().splitlines()


def replace_one_value(data, node):
    """Replace one drawn element somewhere inside ``node`` (a decoded
    dict or list) with a drawn JSON value."""
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and node[key] \
                and data.draw(st.booleans()):
            node = node[key]
            continue
        node[key] = data.draw(JSON_VALUES)
        return


class TestHostileLogs:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_logs_load_and_render_or_raise_configuration_error(
            self, real_log, data):
        """Truncate, mutate and splice a real log's lines: the post-mortem
        either renders or refuses with a ConfigurationError."""
        directory, lines = real_log
        lines = list(lines)
        edits = data.draw(st.lists(st.sampled_from(
            ("mutate", "copy", "drop", "cut")), min_size=1, max_size=3))
        for edit in edits:
            if not lines:
                break
            index = data.draw(st.integers(0, len(lines) - 1))
            line = lines[index]
            if edit == "mutate":
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if isinstance(entry, dict):
                    replace_one_value(data, entry)
                    lines[index] = json.dumps(entry)
            elif edit == "copy":
                lines.insert(data.draw(st.integers(0, len(lines))), line)
            elif edit == "drop":
                del lines[index]
            else:  # a torn write
                lines[index] = line[:data.draw(st.integers(0, len(line)))]
        path = directory / "damaged.flight.json"
        path.write_text("\n".join(lines) + "\n")
        try:
            render_dump(load_dump(path))
        except ConfigurationError:
            pass


class TestDumpIO:
    def test_write_and_load_round_trip(self, tmp_path):
        sim = fight_sim()
        recorder = FlightRecorder(sim)
        sim.advance(1_000)
        dump = recorder.dump(reason="complete")
        path = tmp_path / "a.flight.json"
        write_dump(dump, path)
        assert load_dump(path) == dump

    def test_write_dump_writes_the_log_form(self, tmp_path):
        """Header, one line per event, then a checkpoint with the reason:
        the one on-disk format."""
        sim = fight_sim()
        recorder = FlightRecorder(sim)
        sim.advance(3_000)
        dump = recorder.dump(reason="complete")
        path = tmp_path / "a.flight.json"
        write_dump(dump, path)
        head, *events, checkpoint = map(
            json.loads, path.read_text().splitlines())
        assert head["kind"] == FLIGHT_KIND
        assert head["bus_speed"] == sim.bus_speed
        assert events == dump["events"]
        assert checkpoint["checkpoint"] == "complete"
        assert checkpoint["time"] == sim.time

    def test_load_rejects_wrong_kind_and_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "other"}))
        with pytest.raises(ConfigurationError, match="not a flight"):
            load_dump(path)
        path.write_text(json.dumps(
            {"kind": FLIGHT_KIND, "schema_version": 999}))
        with pytest.raises(ConfigurationError, match="schema version"):
            load_dump(path)


class TestRender:
    def test_render_covers_states_events_and_wire(self):
        sim = fight_sim()
        recorder = FlightRecorder(sim)
        sim.advance(3_000)
        text = render_dump(recorder.dump(reason="abort"))
        assert "flight recorder dump (abort)" in text
        assert "final node states:" in text
        assert "attacker" in text and "defender" in text
        assert "recorded events:" in text
        assert "TEC trajectory" in text
        assert "decoded wire tail" in text

    def test_render_reports_replayed_cycles_and_runs(self, tmp_path):
        """A replay-dominated fight's post-mortem says how much of it
        replayed, from the log's last checkpoint."""
        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path, flush_every=16)
        sim.advance(20_000)
        recorder.flush(reason="complete")
        recorder.close()
        stats = sim.ff_stats
        assert stats.replayed_runs > 0
        assert (f"{stats.replayed_segments} replayed cycles "
                f"({stats.replayed_bits} bits, {stats.replayed_runs} runs)"
                in render_dump(load_dump(path)))

    def test_render_without_wire_decode(self):
        sim = fight_sim()
        recorder = FlightRecorder(sim)
        sim.advance(500)
        text = render_dump(recorder.dump(), decode_wire_tail=False)
        assert "decoded wire tail" not in text

    def test_postmortem_cli_renders_a_log(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "run.flight.json"
        sim = fight_sim()
        recorder = FlightRecorder(sim, autoflush_path=path, flush_every=16)
        recorder.flush(reason="start")
        sim.advance(3_000)
        recorder.flush(reason="timeout")
        assert main(["trace", "postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder dump (timeout)" in out
        assert "TEC trajectory" in out
        assert "decoded wire tail" in out
