"""Node-layer fault injectors: per-ECU hardware and timing faults.

:class:`NodeFaultInjector` wraps one node's ``output``/``observe`` methods
with instance attributes (installed before the simulator's hot loop binds
them), gating a list of compiled node faults by their activation windows.
Faults can corrupt what the node drives (stuck-at transmitter), what it
samples (missed sample interrupts, oscillator drift via
:mod:`repro.core.synchronization`), its traffic (babbling-idiot takeover)
or its whole state (mid-frame power glitch via ``CanNode.power_cycle``).

All randomness is seeded per fault spec; no module-level RNG.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Type

from repro.bus.events import FaultActivated, FaultDeactivated
from repro.can.constants import BUS_IDLE_RECESSIVE_BITS, DOMINANT, RECESSIVE
from repro.can.frame import CanFrame
from repro.core.synchronization import (
    DEFAULT_SAMPLE_POINT,
    SoftwareSynchronizer,
    SyncConfig,
)
from repro.errors import ConfigurationError
from repro.faults.plan import FaultSpec
from repro.node.controller import CanNode


class NodeFault:
    """One compiled node-layer fault, window-gated by the injector."""

    def __init__(self, spec: FaultSpec, node: CanNode, bus_speed: int) -> None:
        self.spec = spec
        self.node = node
        self.active = False

    def on_activate(self, time: int) -> None:
        """Hook run once when the window opens."""

    def on_deactivate(self, time: int) -> None:
        """Hook run once when the window closes."""

    def before_output(self, time: int) -> None:
        """Hook run before the wrapped ``output`` while active."""

    def transform_output(self, time: int, level: int) -> int:
        """Corrupt the level the node drives (identity by default)."""
        return level

    def transform_observe(self, time: int, level: int) -> int:
        """Corrupt the level the node samples (identity by default)."""
        return level

    def after_observe(self, time: int) -> None:
        """Hook run after the wrapped ``observe`` while active."""


class TxStuckFault(NodeFault):
    """``node.tx_stuck``: the transceiver output is stuck at a level.

    The controller's state machine still runs (it believes it sent what it
    meant to send), so its own bit-error monitoring reacts exactly as the
    hardware would to a stuck driver.
    """

    def __init__(self, spec: FaultSpec, node: CanNode, bus_speed: int) -> None:
        super().__init__(spec, node, bus_speed)
        self.level = int(spec.params.get("level", DOMINANT))  # type: ignore[arg-type]
        if self.level not in (DOMINANT, RECESSIVE):
            raise ConfigurationError(
                f"fault {spec.name!r}: invalid stuck level {self.level!r}")

    def transform_output(self, time: int, level: int) -> int:
        return self.level


class BabblingFault(NodeFault):
    """``node.babbling``: the node floods a (high-priority) identifier.

    Whenever the TX queue drains inside the window another flood frame is
    enqueued, turning any well-behaved node into a babbling idiot.
    """

    def __init__(self, spec: FaultSpec, node: CanNode, bus_speed: int) -> None:
        super().__init__(spec, node, bus_speed)
        can_id = int(spec.params.get("can_id", 0x001))  # type: ignore[arg-type]
        dlc = int(spec.params.get("dlc", 8))  # type: ignore[arg-type]
        self.frame = CanFrame(can_id, bytes(dlc))

    def before_output(self, time: int) -> None:
        if not self.node.queue.has_pending:
            self.node.send(self.frame, time)


class MissedSampleFault(NodeFault):
    """``node.missed_sample``: seeded chance of missing a sample interrupt.

    A missed timer interrupt means the firmware never reads CAN_RX for that
    bit; the node acts on the last successfully sampled level instead.
    """

    def __init__(self, spec: FaultSpec, node: CanNode, bus_speed: int) -> None:
        super().__init__(spec, node, bus_speed)
        probability = float(spec.params.get("probability", 0.0))  # type: ignore[arg-type]
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"fault {spec.name!r}: probability must be in [0, 1], "
                f"got {probability}")
        self.probability = probability
        self._rng = random.Random(spec.seed)
        self._last_level = RECESSIVE

    def transform_observe(self, time: int, level: int) -> int:
        if self._rng.random() < self.probability:
            return self._last_level
        self._last_level = level
        return level


class ClockDriftFault(NodeFault):
    """``node.clock_drift``: oscillator drift + sample-point jitter.

    Bit indices are counted from each hard sync (the SOF edge after a bus
    idle) and fed to :class:`~repro.core.synchronization
    .SoftwareSynchronizer`; any bit whose (drifted, jittered) sample point
    leaves the safe window is sampled stale — the node re-reads the
    previous level, exactly the failure the paper's fudge factor guards
    against.  Deterministic: no randomness, the drift model decides.
    """

    def __init__(self, spec: FaultSpec, node: CanNode, bus_speed: int) -> None:
        super().__init__(spec, node, bus_speed)
        params = spec.params
        config = SyncConfig(
            bus_speed=bus_speed,
            sample_point=float(params.get("sample_point", DEFAULT_SAMPLE_POINT)),  # type: ignore[arg-type]
            drift_ppm=float(params.get("drift_ppm", 0.0)),  # type: ignore[arg-type]
            fudge_error=float(params.get("fudge_error", 0.0)),  # type: ignore[arg-type]
            isr_jitter=float(params.get("isr_jitter", 0.0)),  # type: ignore[arg-type]
        )
        self.edge_margin = float(params.get("edge_margin", 0.10))  # type: ignore[arg-type]
        self.synchronizer = SoftwareSynchronizer(config)
        self._recessive_run = BUS_IDLE_RECESSIVE_BITS
        self._bit_index = 0  # 0 = not inside a frame (hard-synced)
        self._last_level = RECESSIVE
        #: Times at which a stale (unsafe) sample was delivered.
        self.stale_samples: List[int] = []

    def transform_observe(self, time: int, level: int) -> int:
        if self._bit_index == 0:
            if level == DOMINANT and self._recessive_run >= BUS_IDLE_RECESSIVE_BITS:
                # SOF falling edge: hard sync, bit counting restarts.
                self._bit_index = 1
        else:
            self._bit_index += 1
            if not self.synchronizer.is_bit_sampled_safely(
                    self._bit_index, self.edge_margin):
                self.stale_samples.append(time)
                return self._last_level
        if level == RECESSIVE:
            self._recessive_run += 1
            if self._recessive_run >= BUS_IDLE_RECESSIVE_BITS:
                self._bit_index = 0
        else:
            self._recessive_run = 0
        self._last_level = level
        return level


class ResetFault(NodeFault):
    """``node.reset``: a power glitch at window start re-initialises the
    controller (and, for defense nodes, the firmware) mid-frame."""

    def on_activate(self, time: int) -> None:
        self.node.power_cycle(time)


NODE_FAULTS: Dict[str, Type[NodeFault]] = {
    "node.tx_stuck": TxStuckFault,
    "node.babbling": BabblingFault,
    "node.missed_sample": MissedSampleFault,
    "node.clock_drift": ClockDriftFault,
    "node.reset": ResetFault,
}


def compile_node_fault(
    spec: FaultSpec, node: CanNode, bus_speed: int
) -> NodeFault:
    """Compile one node-layer fault spec against its target node."""
    try:
        factory = NODE_FAULTS[spec.kind]
    except KeyError:
        raise ConfigurationError(
            f"fault {spec.name!r}: {spec.kind!r} is not a node fault") from None
    return factory(spec, node, bus_speed)


class NodeFaultInjector:
    """Window-gates a list of :class:`NodeFault` objects on one node.

    Installs ``output``/``observe`` wrappers as instance attributes on the
    target node — they shadow the class methods in the simulator's hot
    loop — and emits :class:`~repro.bus.events.FaultActivated` /
    :class:`~repro.bus.events.FaultDeactivated` through the node's own
    event sink on window transitions.
    """

    def __init__(self, node: CanNode, faults: Sequence[NodeFault]) -> None:
        self.node = node
        self.faults = list(faults)
        self._original_output = node.output
        self._original_observe = node.observe
        node.output = self._output  # type: ignore[method-assign]
        node.observe = self._observe  # type: ignore[method-assign]

    def uninstall(self) -> None:
        """Restore the node's original methods."""
        del self.node.output  # type: ignore[method-assign]
        del self.node.observe  # type: ignore[method-assign]

    def _output(self, time: int) -> int:
        for fault in self.faults:
            active = fault.spec.window.active(time)
            if active != fault.active:
                fault.active = active
                event_cls = FaultActivated if active else FaultDeactivated
                self.node.emit(event_cls(
                    time=time, node=self.node.name,
                    fault=fault.spec.name, kind=fault.spec.kind))
                if active:
                    fault.on_activate(time)
                else:
                    fault.on_deactivate(time)
            if fault.active:
                fault.before_output(time)
        level = self._original_output(time)
        for fault in self.faults:
            if fault.active:
                level = fault.transform_output(time, level)
        return level

    def _observe(self, time: int, level: int) -> None:
        for fault in self.faults:
            if fault.active:
                level = fault.transform_observe(time, level)
        self._original_observe(time, level)
        for fault in self.faults:
            if fault.active:
                fault.after_observe(time)
