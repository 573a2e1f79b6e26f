"""Fault-injection tests: the paper's false-positive robustness argument.

Sec. IV-E: sporadic bit flips cannot bus-off a legitimate node (32
consecutive errors are needed), and MichiCAN's occasional noise-triggered
counterattack self-heals because a legitimate transmitter's TEC recovers on
every successful frame.
"""

import pytest

from repro.bus.events import BusOffEntered, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import DOMINANT, RECESSIVE
from repro.core.defense import MichiCanNode
from repro.errors import ConfigurationError
from repro.faults.plan import burst_fault, flip_fault
from repro.faults.wire import FaultInjectingWire
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def flip_wire(flip_probability, seed=0, dominant_flips_only=False):
    return FaultInjectingWire([flip_fault(
        flip_probability, seed=seed,
        dominant_flips_only=dominant_flips_only)])


def noisy_sim(flip_probability, seed=1, bus_speed=500_000):
    sim = CanBusSimulator(bus_speed=bus_speed)
    sim.wire = flip_wire(flip_probability, seed=seed)
    return sim


class TestFlipNoise:
    def test_probability_validated(self):
        with pytest.raises(ConfigurationError):
            flip_wire(flip_probability=1.5)

    def test_zero_probability_is_clean(self):
        wire = flip_wire(0.0)
        for _ in range(100):
            wire.drive([RECESSIVE])
        assert wire.injectors[0].flips == []

    def test_flips_recorded_deterministically(self):
        a = flip_wire(0.1, seed=7)
        b = flip_wire(0.1, seed=7)
        for _ in range(500):
            a.drive([RECESSIVE])
            b.drive([RECESSIVE])
        assert a.injectors[0].flips == b.injectors[0].flips
        assert a.injectors[0].flips  # at p=0.1 over 500 bits, flips occur

    def test_dominant_flips_only(self):
        wire = flip_wire(1.0, dominant_flips_only=True)
        assert wire.drive([RECESSIVE]) == DOMINANT
        assert wire.drive([DOMINANT]) == DOMINANT  # never flipped upward


class TestBurstNoise:
    def test_burst_forces_level(self):
        wire = FaultInjectingWire([burst_fault(5, 3, DOMINANT)])
        levels = [wire.drive([RECESSIVE]) for _ in range(10)]
        assert levels[5:8] == [DOMINANT] * 3
        assert levels[:5] == [RECESSIVE] * 5
        assert levels[8:] == [RECESSIVE] * 2

    def test_invalid_burst(self):
        with pytest.raises(ConfigurationError):
            FaultInjectingWire([burst_fault(0, 1, level=7)])


class TestSporadicErrorsNoFalseBusOff:
    def test_legitimate_node_survives_sporadic_flips(self):
        """The paper's claim: sporadic errors never accumulate to TEC=256,
        because each successful transmission decrements the counter."""
        sim = noisy_sim(flip_probability=0.001, seed=3)
        sender = sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x123, period_bits=400)])))
        sim.add_node(CanNode("receiver"))
        sim.advance(120_000)
        assert not sim.events_of(BusOffEntered)
        assert sender.tec < 128
        tx = [e for e in sim.events_of(FrameTransmitted) if e.node == "sender"]
        assert len(tx) > 200  # traffic kept flowing despite the noise

    def test_michican_does_not_bus_off_legitimate_nodes_under_noise(self):
        """Even with MichiCAN deployed, noise-corrupted legitimate frames
        are not driven to bus-off: a noise flip inside the ID may trigger a
        single counterattack, but the retransmission carries the clean ID."""
        sim = noisy_sim(flip_probability=0.0005, seed=5)
        defender = sim.add_node(MichiCanNode("defender", range(0x100)))
        sender = sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x123, period_bits=400)])))
        sim.add_node(CanNode("receiver"))
        sim.advance(120_000)
        assert not sim.events_of(BusOffEntered)
        assert sender.tec < 128

    def test_sporadic_threshold_boundary(self):
        """The claim's boundary: TEC drifts by +8 per destroyed attempt and
        -1 per success, so frames must fail less than 1 in 9 attempts for
        the counter to decay.  For ~111-bit frames that means a per-bit flip
        probability well below ~1e-3; at 1% per bit (~67% of frames
        corrupted) fault confinement *correctly* removes the node — that is
        the mechanism working, not a false positive."""
        sim = noisy_sim(flip_probability=0.01, seed=9)
        sender = sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
            [PeriodicMessage(0x123, period_bits=600)])))
        sim.add_node(CanNode("receiver"))
        sim.advance(60_000)
        # Pathological channel: the node is repeatedly confined (bus-off).
        assert sim.events_of(BusOffEntered)

    def test_burst_destroys_one_frame_only(self):
        """A bounded EMI burst destroys in-flight traffic; retransmission
        succeeds right after."""
        sim = CanBusSimulator(bus_speed=500_000)
        sim.wire = FaultInjectingWire([burst_fault(30, 8, DOMINANT)])
        sender = sim.add_node(CanNode("sender"))
        sim.add_node(CanNode("receiver"))
        from repro.can.frame import CanFrame
        sender.send(CanFrame(0x123, b"\x55" * 4))
        sim.advance(500)
        tx = [e for e in sim.events_of(FrameTransmitted) if e.node == "sender"]
        assert len(tx) == 1
        assert tx[0].attempts >= 2  # the burst forced at least one retry
        assert sender.tec < 128
