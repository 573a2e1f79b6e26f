"""Tests for the simulation engine itself."""

import pytest

from repro.bus.events import FrameReceived, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import RECESSIVE
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError, SimulationError
from repro.node.controller import CanNode


class TestTopology:
    def test_duplicate_name_rejected(self):
        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            sim.add_node(CanNode("a"))

    def test_node_lookup(self):
        sim = CanBusSimulator()
        node = sim.add_node(CanNode("a"))
        assert sim.node("a") is node
        with pytest.raises(ConfigurationError):
            sim.node("missing")

    def test_bad_bus_speed(self):
        with pytest.raises(ConfigurationError):
            CanBusSimulator(bus_speed=0)

    def test_step_without_nodes(self):
        with pytest.raises(SimulationError):
            CanBusSimulator().step()

    def test_run_without_nodes(self):
        with pytest.raises(SimulationError):
            CanBusSimulator().advance(10)

    def test_add_nodes_returns_sim(self):
        sim = CanBusSimulator()
        assert sim.add_nodes(CanNode("a"), CanNode("b")) is sim
        assert [node.name for node in sim.nodes] == ["a", "b"]

    def test_add_nodes_checks_duplicates(self):
        sim = CanBusSimulator()
        with pytest.raises(ConfigurationError, match="duplicate"):
            sim.add_nodes(CanNode("a"), CanNode("a"))


class TestRun:
    def test_idle_bus_stays_recessive(self):
        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        sim.advance(50)
        assert sim.wire.history == [RECESSIVE] * 50
        assert sim.time == 50

    def test_negative_run_rejected(self):
        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        with pytest.raises(ConfigurationError):
            sim.advance(-1)

    def test_run_until_predicate(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123))
        hit = sim.advance_until(
            lambda s: bool(s.events_of(FrameTransmitted)), limit=500,
            policy="off"
        )
        assert hit is not None

    def test_run_until_limit(self):
        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        assert sim.advance_until(
            lambda s: False, limit=20, policy="off") is None
        assert sim.time == 20

    def test_request_stop_from_listener(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x10))
        sim.on_event(
            lambda e: sim.request_stop()
            if isinstance(e, FrameTransmitted) else None
        )
        sim.advance(10_000)
        assert sim.time < 10_000

    def test_run_until_honors_request_stop(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x10))
        sim.on_event(
            lambda e: sim.request_stop()
            if isinstance(e, FrameTransmitted) else None
        )
        assert sim.advance_until(
            lambda s: False, limit=10_000, policy="off") is None
        assert sim.time < 10_000

    def test_run_until_resets_stale_stop_request(self):
        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        sim.request_stop()
        assert sim.advance_until(
            lambda s: False, limit=20, policy="off") is None
        assert sim.time == 20  # stale request must not cut the run short

    def test_run_resets_stale_stop_request(self):
        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        sim.request_stop()
        sim.advance(20)
        assert sim.time == 20

    def test_run_until_predicate_wins_over_stop(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x10))
        sim.on_event(
            lambda e: sim.request_stop()
            if isinstance(e, FrameTransmitted) else None
        )
        hit = sim.advance_until(
            lambda s: bool(s.events_of(FrameTransmitted)), limit=10_000,
            policy="off"
        )
        assert hit is not None  # same bit: predicate reported, not the stop


class TestRunLoopEquivalence:
    @staticmethod
    def _build():
        sim = CanBusSimulator()
        a = CanNode("a")
        sim.add_nodes(a, CanNode("b"))
        a.send(CanFrame(0x123, b"\x55"))
        return sim

    def test_tight_run_loop_matches_stepping(self):
        fast = self._build()
        fast.advance(400)
        slow = self._build()
        for _ in range(400):
            slow.step()
        assert fast.time == slow.time == 400
        assert fast.wire.history == slow.wire.history
        assert len(fast.events) == len(slow.events)

    def test_run_honors_instance_step_override(self):
        sim = self._build()
        calls = []
        original_step = sim.step

        def traced_step():
            calls.append(sim.time)
            return original_step()

        sim.step = traced_step  # type: ignore[method-assign]
        sim.advance(50)
        assert len(calls) == 50


class TestEventPlumbing:
    def test_events_recorded_and_filtered(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123, b"\x01"))
        sim.advance(300)
        assert len(sim.events_of(FrameTransmitted)) == 1
        assert len(sim.events_of(FrameReceived)) == 1

    def test_live_listener(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        seen = []
        sim.on_event(seen.append)
        a.send(CanFrame(0x123))
        sim.advance(300)
        assert seen == sim.events

    def test_on_event_returns_unsubscribe_handle(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        seen = []
        unsubscribe = sim.on_event(seen.append)
        a.send(CanFrame(0x123))
        sim.advance(150)
        count = len(seen)
        assert count > 0
        unsubscribe()
        unsubscribe()  # idempotent
        a.send(CanFrame(0x124))
        sim.advance(300)
        assert len(seen) == count

    def test_off_event(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        seen = []
        sim.on_event(seen.append)
        sim.off_event(seen.append)
        a.send(CanFrame(0x123))
        sim.advance(300)
        assert seen == []

    def test_off_event_unknown_listener_rejected(self):
        sim = CanBusSimulator()
        with pytest.raises(ConfigurationError, match="not subscribed"):
            sim.off_event(lambda e: None)

    def test_events_of_uses_exact_type_index(self):
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123, b"\x01"))
        sim.advance(300)
        # per-type index result matches a linear scan, in stream order
        for event_type in (FrameTransmitted, FrameReceived):
            assert sim.events_of(event_type) == [
                e for e in sim.events if isinstance(e, event_type)]

    def test_events_of_base_class_query(self):
        from repro.bus.events import Event

        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_node(a), sim.add_node(b)
        a.send(CanFrame(0x123))
        sim.advance(300)
        assert sim.events_of(Event) == sim.events

    def test_events_of_unseen_type_is_empty(self):
        from repro.bus.events import BusOffEntered

        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        sim.advance(20)
        assert sim.events_of(BusOffEntered) == []


class TestTimeConversion:
    def test_milliseconds_at_50k(self):
        sim = CanBusSimulator(bus_speed=50_000)
        assert sim.milliseconds(1248) == pytest.approx(24.96)

    def test_seconds_default_current_time(self):
        sim = CanBusSimulator(bus_speed=500_000)
        sim.add_node(CanNode("a"))
        sim.advance(500)
        assert sim.seconds() == pytest.approx(0.001)
