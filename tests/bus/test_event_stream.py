"""Event-stream invariants: properties every simulation run must satisfy.

These are the contracts the observability layer (``repro.obs``) builds on:
timestamps never run backwards, every transmission attempt resolves, and
counterattack windows open and close in strict alternation.
"""

from repro.attacks.dos import DosAttacker
from repro.bus.events import (
    ArbitrationLost,
    BusOffEntered,
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    Event,
    FrameStarted,
    FrameTransmitted,
    OverloadSignalled,
)
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import DOMINANT
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.faults import FaultPlan, apply_fault_plan, burst_fault
from repro.node.controller import CanNode


def quiet_run(bits=2_000):
    sim = CanBusSimulator()
    a, b = CanNode("a"), CanNode("b")
    sim.add_nodes(a, b)
    for index in range(6):
        a.send(CanFrame(0x100 + index, b"\x01"))
        b.send(CanFrame(0x200 + index, b"\x02"))
    sim.advance(bits)
    return sim


def fight_run(bits=6_000):
    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    sim.advance(bits)
    return sim


class TestTimestampMonotonicity:
    def test_quiet_bus(self):
        times = [event.time for event in quiet_run().events]
        assert times == sorted(times)

    def test_fight(self):
        times = [event.time for event in fight_run().events]
        assert times == sorted(times)

    def test_timestamps_within_window(self):
        sim = fight_run(4_000)
        assert all(0 <= event.time <= sim.time for event in sim.events)


class TestFrameLifecycle:
    RESOLUTIONS = (FrameTransmitted, ArbitrationLost, ErrorDetected,
                   BusOffEntered)

    def _check_pairing(self, sim):
        """Every FrameStarted is eventually resolved (or open at cutoff):
        between two consecutive starts of one node there is at least one
        transmission, arbitration loss, error, or bus-off for that node."""
        open_start = {}
        for event in sim.events:
            if isinstance(event, FrameStarted):
                assert event.node not in open_start, (
                    f"{event.node} started a frame at t={event.time} while "
                    f"the one from t={open_start[event.node]} is unresolved")
                open_start[event.node] = event.time
            elif isinstance(event, self.RESOLUTIONS):
                open_start.pop(event.node, None)
        # at most one in-flight attempt per node may remain at the cutoff
        assert all(isinstance(t, int) for t in open_start.values())

    def test_quiet_bus_pairing(self):
        self._check_pairing(quiet_run())

    def test_fight_pairing(self):
        self._check_pairing(fight_run())

    def test_transmissions_acknowledge_start_time(self):
        sim = quiet_run()
        starts = {(e.node, e.time) for e in sim.events_of(FrameStarted)}
        for event in sim.events_of(FrameTransmitted):
            assert (event.node, event.started_at) in starts


class TestCounterattackAlternation:
    def test_started_and_ended_strictly_alternate(self):
        sim = fight_run()
        in_attack = {}
        for event in sim.events:
            if isinstance(event, CounterattackStarted):
                assert not in_attack.get(event.node), (
                    f"{event.node} started a counterattack inside another "
                    f"at t={event.time}")
                in_attack[event.node] = True
            elif isinstance(event, CounterattackEnded):
                assert in_attack.get(event.node), (
                    f"{event.node} ended a counterattack it never started "
                    f"at t={event.time}")
                in_attack[event.node] = False

    def test_counterattacks_happen(self):
        sim = fight_run()
        assert sim.events_of(CounterattackStarted)
        assert sim.events_of(CounterattackEnded)

    def test_windows_are_positive(self):
        sim = fight_run()
        open_at = {}
        for event in sim.events:
            if isinstance(event, CounterattackStarted):
                open_at[event.node] = event.time
            elif isinstance(event, CounterattackEnded):
                assert event.time > open_at.pop(event.node)


class TestVocabularyLiveness:
    """Every concrete ``repro.bus.events`` class is emitted by one of three
    small runs: an event type no run produces is dead vocabulary, and a
    consumer branch for it is dead code."""

    @staticmethod
    def _concrete_event_classes():
        import repro.bus.events as events

        classes = {obj for obj in vars(events).values()
                   if isinstance(obj, type) and issubclass(obj, Event)
                   and obj.__module__ == events.__name__}
        return {cls for cls in classes
                if not any(other is not cls and issubclass(other, cls)
                           for other in classes)}

    @staticmethod
    def _overload_run():
        """A one-bit dominant burst in the first intermission bit after a
        frame: overload frames plus the burst fault's window events."""
        sim = CanBusSimulator()
        a, b = CanNode("a"), CanNode("b")
        sim.add_nodes(a, b)
        apply_fault_plan(sim, FaultPlan(faults=(
            burst_fault(56, 1, DOMINANT, name="intermission"),)))
        a.send(CanFrame(0x123, b"\x01"))
        a.send(CanFrame(0x222, b"\x02"))
        sim.advance(400)
        return sim

    def test_every_event_class_is_emitted(self):
        emitted = set()
        for sim in (quiet_run(), fight_run(), self._overload_run()):
            emitted.update(type(event) for event in sim.events)
        concrete = self._concrete_event_classes()
        assert OverloadSignalled in concrete and Event not in concrete
        missing = sorted(cls.__name__ for cls in concrete - emitted)
        assert missing == []
