"""Compile a :class:`~repro.faults.plan.FaultPlan` onto a live simulator.

:func:`apply_fault_plan` is the bridge from inert plan data to running
injectors: wire faults replace the simulator's wire with a
:class:`~repro.faults.wire.FaultInjectingWire` (preserving the recording
configuration), node and defense faults install a
:class:`~repro.faults.node.NodeFaultInjector` per target node, and
harness faults join the bus as silent pseudo-nodes.  Fault activation
windows report through the simulator's normal event stream
(:class:`~repro.bus.events.FaultActivated` et al.), so traces, metrics
and campaign reports all see chaos the same way they see frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bus.simulator import CanBusSimulator
from repro.faults.defense import compile_defense_fault
from repro.faults.harness import HarnessFaultNode, compile_harness_fault
from repro.faults.node import NodeFault, NodeFaultInjector, compile_node_fault
from repro.faults.plan import FaultPlan, FaultSpec, layer_of
from repro.faults.wire import FaultInjectingWire, compile_wire_fault


@dataclass
class AppliedFaultPlan:
    """Handle over the injectors a plan compiled into (for tests/teardown)."""

    plan: FaultPlan
    wire: FaultInjectingWire | None = None
    node_injectors: Dict[str, NodeFaultInjector] = field(default_factory=dict)
    harness_nodes: List[HarnessFaultNode] = field(default_factory=list)
    #: Store-layer specs carried by the plan: not installed on the sim
    #: (see :mod:`repro.faults.store`), surfaced here for the harness.
    store_specs: List[FaultSpec] = field(default_factory=list)


def apply_fault_plan(
    sim: CanBusSimulator, plan: FaultPlan
) -> AppliedFaultPlan:
    """Install every fault in ``plan`` on ``sim``; returns the injectors.

    Must run after the targeted nodes are added and before the run starts
    (the simulator's hot loop binds node methods at run entry).
    """
    plan.validate()
    applied = AppliedFaultPlan(plan)
    wire_specs: List[FaultSpec] = []
    node_specs: Dict[str, List[FaultSpec]] = {}
    harness_specs: List[FaultSpec] = []
    for spec in plan:
        layer = layer_of(spec.kind)
        if layer == "wire":
            wire_specs.append(spec)
        elif layer == "harness":
            harness_specs.append(spec)
        elif layer == "store":
            # Store faults attack the parent's durable writes, not the
            # simulation: compiled by repro.faults.store and honoured by
            # the work-journal writer, never installed on a sim.
            applied.store_specs.append(spec)
        else:
            node_specs.setdefault(spec.target or "", []).append(spec)

    if wire_specs:
        old = sim.wire
        if isinstance(old, FaultInjectingWire):
            # A scenario already installed a fault wire (e.g. a
            # flip_fault noise channel): extend it rather than discarding
            # its injectors.
            old.injectors.extend(
                compile_wire_fault(spec) for spec in wire_specs)
            if old._emit is None:
                old._emit = sim._record_event
            applied.wire = old
        else:
            wire = FaultInjectingWire(
                wire_specs, record=old.record, max_history=old.max_history,
                emit=sim._record_event)
            sim.wire = wire
            applied.wire = wire

    for target, specs in node_specs.items():
        node = sim.node(target)
        compiled: List[NodeFault] = []
        for spec in specs:
            if layer_of(spec.kind) == "defense":
                compiled.append(
                    compile_defense_fault(spec, node, sim.bus_speed))
            else:
                compiled.append(
                    compile_node_fault(spec, node, sim.bus_speed))
        applied.node_injectors[target] = NodeFaultInjector(node, compiled)

    for spec in harness_specs:
        pseudo = compile_harness_fault(spec)
        sim.add_node(pseudo)  # type: ignore[arg-type]
        applied.harness_nodes.append(pseudo)

    return applied
