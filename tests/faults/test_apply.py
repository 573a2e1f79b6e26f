"""apply_fault_plan: compiling a plan onto a live simulator."""

import pytest

from repro.bus.events import FaultActivated
from repro.bus.simulator import CanBusSimulator
from repro.can.constants import RECESSIVE
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError
from repro.faults.apply import apply_fault_plan
from repro.faults.plan import FaultPlan, FaultSpec, FaultWindow, flip_fault
from repro.faults.wire import FaultInjectingWire
from repro.node.controller import CanNode
from repro.obs import BusProbe


def multi_layer_plan():
    return FaultPlan((
        FaultSpec(name="flips", kind="wire.flip",
                  window=FaultWindow(0, 100),
                  params={"flip_probability": 0.01}, seed=1),
        FaultSpec(name="stuck", kind="node.tx_stuck", target="a",
                  window=FaultWindow(10, 20)),
        FaultSpec(name="sleepy", kind="harness.hang", target="worker",
                  window=FaultWindow(10**9,), params={"seconds": 0.0}),
    ))


def test_apply_installs_injectors_on_every_layer():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    applied = apply_fault_plan(sim, multi_layer_plan())
    assert applied.wire is sim.wire
    assert isinstance(sim.wire, FaultInjectingWire)
    assert set(applied.node_injectors) == {"a"}
    assert len(applied.harness_nodes) == 1
    assert applied.harness_nodes[0] in sim.nodes
    sim.advance(50)
    kinds = {(e.node, e.kind) for e in sim.events_of(FaultActivated)}
    assert kinds == {("wire", "wire.flip"), ("a", "node.tx_stuck")}


def test_apply_extends_an_existing_fault_wire():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    sim.wire = FaultInjectingWire([flip_fault(0.01, seed=3)])
    noise_injector = sim.wire.injectors[0]
    applied = apply_fault_plan(sim, FaultPlan((
        FaultSpec(name="g", kind="wire.glitch", window=FaultWindow(0, 10),
                  params={"period": 5, "length": 1}),
    )))
    assert applied.wire is sim.wire
    assert sim.wire.injectors[0] is noise_injector
    assert len(sim.wire.injectors) == 2


def test_apply_preserves_recording_configuration():
    sim = CanBusSimulator()
    sim.add_nodes(CanNode("a"), CanNode("b"))
    sim.wire.max_history = 64
    apply_fault_plan(sim, FaultPlan((
        FaultSpec(name="flips", kind="wire.flip",
                  params={"flip_probability": 0.0}, seed=0),
    )))
    assert sim.wire.max_history == 64
    for _ in range(100):
        sim.wire.drive([RECESSIVE])
    assert len(sim.wire.history) == 64


def test_apply_rejects_an_unknown_target():
    sim = CanBusSimulator()
    sim.add_node(CanNode("a"))
    with pytest.raises(ConfigurationError):
        apply_fault_plan(sim, FaultPlan((
            FaultSpec(name="s", kind="node.tx_stuck", target="ghost"),
        )))


def test_probe_counts_fault_activations_per_node():
    sim = CanBusSimulator()
    probe = BusProbe(sim)
    sim.add_nodes(CanNode("a"), CanNode("b"))
    apply_fault_plan(sim, multi_layer_plan())
    sim.node("b").send(CanFrame(0x123, b"\x01"))
    sim.advance(300)
    summary = probe.summary()
    assert summary.nodes["a"]["fault_activations"] == 1
    assert summary.nodes["wire"]["fault_activations"] == 1
    assert summary.totals()["fault_activations"] == 2
