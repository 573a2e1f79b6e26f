"""Node-layer injectors: stuck TX, babbling, missed samples, drift, reset."""

import pytest

from repro.bus.events import FaultActivated, FrameStarted, FrameTransmitted
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import DOMINANT, RECESSIVE
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError
from repro.faults.node import (
    ClockDriftFault,
    NodeFaultInjector,
    compile_node_fault,
)
from repro.faults.plan import FaultSpec, FaultWindow
from repro.node.controller import CanNode, ControllerState


def node_spec(kind, target="a", window=None, seed=0, **params):
    return FaultSpec(name=kind.split(".")[-1], kind=kind,
                     window=window or FaultWindow(), target=target,
                     params=params, seed=seed)


def install(sim, spec, target="a"):
    node = sim.node(target)
    fault = compile_node_fault(spec, node, sim.bus_speed)
    return NodeFaultInjector(node, [fault]), fault


# --------------------------------------------------------------- tx_stuck

def test_tx_stuck_dominant_jams_the_bus_during_the_window():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    install(sim, node_spec("node.tx_stuck", window=FaultWindow(20, 30),
                           level=DOMINANT))
    sim.advance(60)
    history = list(sim.wire.history)
    assert all(level == DOMINANT for level in history[20:30])
    assert all(level == RECESSIVE for level in history[:20])
    events = sim.events_of(FaultActivated)
    assert [(e.time, e.node, e.kind) for e in events] == \
        [(20, "a", "node.tx_stuck")]


def test_tx_stuck_level_is_validated():
    sim = CanBusSimulator()
    sim.add_node(CanNode("a"))
    with pytest.raises(ConfigurationError):
        compile_node_fault(node_spec("node.tx_stuck", level=5),
                           sim.node("a"), sim.bus_speed)


# --------------------------------------------------------------- babbling

def test_babbling_node_floods_the_bus():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    install(sim, node_spec("node.babbling", can_id=0x001, dlc=2))
    sim.advance(2_000)
    attempts = [e for e in sim.events_of(FrameStarted) if e.node == "a"]
    delivered = [e for e in sim.events_of(FrameTransmitted) if e.node == "a"]
    assert len(delivered) >= 3, "a babbling idiot sends back-to-back frames"
    assert all(e.frame.can_id == 0x001 for e in attempts)


# ---------------------------------------------------------- missed_sample

def test_missed_sample_returns_the_stale_level():
    sim = CanBusSimulator()
    sim.add_node(CanNode("a"))
    _, fault = install(sim, node_spec("node.missed_sample", probability=1.0))
    fault.active = True
    # Every sample is missed: the node keeps seeing the initial recessive.
    assert fault.transform_observe(0, DOMINANT) == RECESSIVE
    assert fault.transform_observe(1, DOMINANT) == RECESSIVE


def test_missed_sample_pattern_is_seeded():
    def sampled(seed):
        sim = CanBusSimulator()
        sim.add_node(CanNode("a"))
        _, fault = install(sim, node_spec(
            "node.missed_sample", probability=0.3, seed=seed))
        return [fault.transform_observe(t, t % 2) for t in range(200)]

    assert sampled(7) == sampled(7)
    assert sampled(7) != sampled(8)


def test_missed_sample_probability_is_validated():
    sim = CanBusSimulator()
    sim.add_node(CanNode("a"))
    with pytest.raises(ConfigurationError):
        compile_node_fault(node_spec("node.missed_sample", probability=-0.1),
                           sim.node("a"), sim.bus_speed)


# ------------------------------------------------------------ clock_drift

def drift_fault(drift_ppm, bus_speed=500_000):
    sim = CanBusSimulator(bus_speed=bus_speed)
    sim.add_node(CanNode("a"))
    spec = node_spec("node.clock_drift", drift_ppm=drift_ppm,
                     edge_margin=0.10)
    return compile_node_fault(spec, sim.node("a"), sim.bus_speed)


def frame_pattern(fault, bits=80):
    """Feed an idle gap, a SOF edge, then an alternating frame body."""
    out = []
    time = 0
    for _ in range(12):
        out.append(fault.transform_observe(time, RECESSIVE))
        time += 1
    out.append(fault.transform_observe(time, DOMINANT))  # SOF
    time += 1
    for index in range(bits):
        out.append(fault.transform_observe(time, index % 2))
        time += 1
    return out


def test_heavy_drift_produces_stale_samples_deterministically():
    fault = drift_fault(drift_ppm=100_000.0)  # 10%/bit: hopeless oscillator
    frame_pattern(fault)
    assert fault.stale_samples, "10% drift must blow the sample window"

    again = drift_fault(drift_ppm=100_000.0)
    frame_pattern(again)
    assert again.stale_samples == fault.stale_samples


def test_accurate_clock_never_samples_stale():
    assert isinstance(drift_fault(0.0), ClockDriftFault)
    fault = drift_fault(0.0)
    frame_pattern(fault)
    assert fault.stale_samples == []


# ------------------------------------------------------------------ reset

def test_mid_frame_reset_recovers_and_retransmits():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    install(sim, node_spec("node.reset", window=FaultWindow(20, 21)))
    sim.node("a").send(CanFrame(0x123, b"\x55"))
    sim.advance(400)
    starts = [e for e in sim.events_of(FrameStarted) if e.node == "a"]
    done = [e for e in sim.events_of(FrameTransmitted) if e.node == "a"]
    assert len(starts) >= 2, "the power glitch aborts the first attempt"
    assert done, "the queued frame survives the reset and is delivered"
    assert [e.time for e in sim.events_of(FaultActivated)] == [20]


def test_power_cycle_reinitialises_controller_state():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    sim.node("a").send(CanFrame(0x123, b"\x55"))
    sim.advance(20)  # mid-frame
    node = sim.node("a")
    assert node.state is ControllerState.TRANSMITTING
    node.power_cycle(20)
    assert node.state is ControllerState.IDLE
    assert node.tec == 0 and node.rec == 0
    assert node.queue.has_pending  # the message queue is not firmware RAM


# -------------------------------------------------------------- injector

def test_injector_installs_and_uninstalls_cleanly():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    node = sim.node("a")
    original_output = node.output
    injector, _ = install(sim, node_spec("node.tx_stuck"))
    assert node.output == injector._output
    assert "output" in vars(node)
    injector.uninstall()
    assert "output" not in vars(node)
    assert node.output == original_output


def test_compile_node_fault_rejects_other_layers():
    sim = CanBusSimulator()
    sim.add_node(CanNode("a"))
    with pytest.raises(ConfigurationError):
        compile_node_fault(
            FaultSpec(name="x", kind="wire.flip"), sim.node("a"),
            sim.bus_speed)
