"""The synchronous bit-time simulation engine.

:class:`CanBusSimulator` advances global time one nominal bit time per step.
Each step has two phases: every node states what it drives, the wired-AND
level is resolved, and every node observes the result.  This mirrors how the
paper's metrics are defined — in integer bit times at a fixed bus speed —
and keeps the engine deterministic and replayable.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, TypeVar

from repro.bus.events import Event
from repro.bus.wire import Wire
from repro.can.constants import BUS_SPEED_500K
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # the engine only needs these for typing
    from repro.bus.fastforward import FastForwardEngine, FastForwardStats
    from repro.node.controller import CanNode

_DEPRECATION_WARNED: set = set()

_Listener = TypeVar("_Listener", bound=Callable[..., Any])


def replay_safe(listener: _Listener) -> _Listener:
    """Mark an event listener as safe under replay.

    A replay-safe listener reads only the fields of the events it is
    handed: it never reads live simulator or node state and never calls
    :meth:`CanBusSimulator.request_stop`.  The fast-forward engine
    replays recorded fight cycles (:mod:`repro.bus.cycles`) without
    stepping the bits between their events, so it does so only while
    every subscribed listener carries this mark.
    """
    listener.replay_safe = True  # type: ignore[attr-defined]
    return listener


def _warn_once(key: str, message: str) -> None:
    if key not in _DEPRECATION_WARNED:
        # Dedup set for warnings only: never observable in results.
        _DEPRECATION_WARNED.add(key)  # repro: noqa[RC301]
        warnings.warn(message, DeprecationWarning, stacklevel=3)


class CanBusSimulator:
    """Discrete bit-level simulator for one CAN bus segment.

    Args:
        bus_speed: Nominal bus speed in bit/s; only used for time conversion
            (the engine itself is unit-less: one step == one bit).
        record_wire: Keep the full per-bit level history (needed by the
            trace recorder; disable only for very long runs).
        wire_history_bits: Bound the recorded history to a ring buffer of
            the last N bits (see :class:`~repro.bus.wire.Wire`); long
            observed runs then use constant memory, and the evicted-bit
            count is exposed as ``sim.wire.dropped_bits``.

    Example:
        >>> from repro.node.controller import CanNode
        >>> from repro.can.frame import CanFrame
        >>> sim = CanBusSimulator()
        >>> a, b = CanNode("a"), CanNode("b")
        >>> sim.add_node(a); sim.add_node(b)
        >>> a.send(CanFrame(0x100, b"\\x01"))
        >>> _ = sim.advance(200)
    """

    def __init__(
        self,
        bus_speed: int = BUS_SPEED_500K,
        record_wire: bool = True,
        wire_history_bits: Optional[int] = None,
    ) -> None:
        if bus_speed <= 0:
            raise ConfigurationError(f"bus speed must be positive, got {bus_speed}")
        self.bus_speed = bus_speed
        self.wire = Wire(record=record_wire, max_history=wire_history_bits)
        self.nodes: List[CanNode] = []
        self._names: Dict[str, CanNode] = {}
        self.time = 0
        self.events: List[Event] = []
        self._events_by_type: Dict[type, List[Event]] = {}
        self._event_listeners: List[Callable[[Event], None]] = []
        self._stop_requested = False
        self._outputs: List[int] = []
        #: Default fast-forward policy for :meth:`advance`/:meth:`advance_until`
        #: when no per-call ``policy`` is given: "auto" (chunk uncontended
        #: spans) or "off" (always per-bit).
        self.fast_forward_policy: str = "auto"
        self._ff_engine: Optional["FastForwardEngine"] = None

    # ------------------------------------------------------------- topology

    def add_node(self, node: CanNode) -> CanNode:
        """Attach ``node`` to the bus.  Names must be unique."""
        if node.name in self._names:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._names[node.name] = node
        self.nodes.append(node)
        node.attach(self._record_event)
        return node

    def add_nodes(self, *nodes: CanNode) -> "CanBusSimulator":
        """Attach several nodes at once; returns ``self`` for chaining."""
        for node in nodes:
            self.add_node(node)
        return self

    def node(self, name: str) -> CanNode:
        """Look a node up by name."""
        try:
            return self._names[name]
        except KeyError:
            raise ConfigurationError(f"no node named {name!r}") from None

    # ---------------------------------------------------------------- events

    def _record_event(self, event: Event) -> None:
        self.events.append(event)
        bucket = self._events_by_type.get(type(event))
        if bucket is None:
            bucket = self._events_by_type[type(event)] = []
        bucket.append(event)
        for listener in self._event_listeners:
            listener(event)

    def on_event(
        self, listener: Callable[[Event], None]
    ) -> Callable[[], None]:
        """Register a live event listener (called as events happen).

        Returns a zero-argument unsubscribe handle: calling it detaches the
        listener again (idempotently), so probes and recorders do not
        accumulate forever on a reused simulator.
        """
        self._event_listeners.append(listener)

        def unsubscribe() -> None:
            if listener in self._event_listeners:
                self._event_listeners.remove(listener)

        return unsubscribe

    def off_event(self, listener: Callable[[Event], None]) -> None:
        """Detach a listener registered with :meth:`on_event`."""
        try:
            self._event_listeners.remove(listener)
        except ValueError:
            raise ConfigurationError(
                "listener is not subscribed to this simulator") from None

    def events_of(self, event_type: type) -> List[Event]:
        """All recorded events of ``event_type`` (or a subclass).

        Exact-type queries — every call site in the repo — are O(matches)
        via a per-type index maintained in :meth:`_record_event` instead of
        a linear rescan of the whole event list.  Base-class queries fall
        back to the scan to preserve exact stream order across subtypes.
        """
        buckets = [bucket for recorded, bucket in self._events_by_type.items()
                   if issubclass(recorded, event_type)]
        if not buckets:
            return []
        if len(buckets) == 1:
            return list(buckets[0])
        return [e for e in self.events if isinstance(e, event_type)]

    def release_records(self) -> None:
        """Drop the recorded event stream, wire history and cycle memo.

        For owners that have already folded a finished run into results:
        nodes, observers and the engine keep a simulator in reference
        cycles until the cyclic garbage collector runs, and releasing its
        largest buffers now keeps back-to-back runs from stacking them.
        Counters (``time``, ``wire.total_bits``...) are left as they are.
        """
        self.events = []
        self._events_by_type = {}
        self.wire.history.clear()
        if self._ff_engine is not None:
            self._ff_engine.release_cycles()

    def request_stop(self) -> None:
        """Ask :meth:`run` to stop after the current bit (usable from
        listeners/callbacks)."""
        self._stop_requested = True

    # ------------------------------------------------------------------- run

    def step(self) -> int:
        """Advance one bit time; return the resolved bus level.

        This is the engine primitive (gateways and instrumentation call it
        directly, once per bit); for multi-bit advancement prefer
        :meth:`advance`, which fast-forwards uncontended spans.
        """
        if not self.nodes:
            raise SimulationError("cannot step a bus with no nodes")
        outputs = [node.output(self.time) for node in self.nodes]
        level = self.wire.drive(outputs)
        for node in self.nodes:
            node.observe(self.time, level)
        self.time += 1
        return level

    def _resolve_policy(self, policy: Optional[str]) -> str:
        if policy is None:
            policy = self.fast_forward_policy
        if policy not in ("auto", "off"):
            raise ConfigurationError(
                f"unknown fast-forward policy {policy!r}; expected 'auto' or 'off'"
            )
        return policy

    def _engine(self) -> "FastForwardEngine":
        engine = self._ff_engine
        if engine is None:
            # Imported lazily: the engine pulls in node/core modules that
            # the simulator itself must not depend on at import time.
            from repro.bus.fastforward import FastForwardEngine

            engine = self._ff_engine = FastForwardEngine(self)
        return engine

    @property
    def ff_stats(self) -> "FastForwardStats":
        """Fast-forward span counters (all zero until spans commit)."""
        return self._engine().stats

    def _instrumented(self) -> bool:
        # Instrumented simulators (subclass or per-instance step() override)
        # keep the one-call-per-bit contract.
        return ("step" in self.__dict__
                or type(self).step is not CanBusSimulator.step)

    def _step_bits(self, deadline: int) -> None:
        """Per-bit stepping until ``deadline`` or a requested stop."""
        if self._instrumented():
            while self.time < deadline and not self._stop_requested:
                self.step()
            return
        # The campaign layer multiplies total simulated bits, so this loop
        # is the hottest path in the repo: bind the per-node methods once,
        # reuse one outputs buffer, and avoid the step() dispatch per bit.
        nodes = self.nodes
        drive = self.wire.drive
        output_methods = [node.output for node in nodes]
        observe_methods = [node.observe for node in nodes]
        outputs = self._outputs
        if len(outputs) != len(nodes):
            outputs = self._outputs = [0] * len(nodes)
        time = self.time
        while time < deadline and not self._stop_requested:
            if len(nodes) != len(output_methods):  # topology changed mid-run
                output_methods = [node.output for node in nodes]
                observe_methods = [node.observe for node in nodes]
                outputs = self._outputs = [0] * len(nodes)
            for index, output in enumerate(output_methods):
                outputs[index] = output(time)
            level = drive(outputs)
            for observe in observe_methods:
                observe(time, level)
            time += 1
            self.time = time

    def advance(self, bits: int, *, policy: Optional[str] = None) -> int:
        """Advance the clock ``bits`` bit times (or until :meth:`request_stop`).

        Under the "auto" policy (the default) the engine fast-forwards
        uncontended spans — single-transmitter frame bodies and idle gaps —
        and drops to per-bit stepping everywhere a protocol decision can
        happen (SOF/arbitration, commit window, error frames, bus-off
        recovery, counterattacks).  After the first error frame it also
        replays recurring fight cycles recorded earlier in the run, while
        every event listener is replay-safe (see :mod:`repro.bus.cycles`).
        Spans and replays are bit-exact: state, wire history and the event
        stream match per-bit stepping (see :mod:`repro.bus.fastforward`).
        Pass ``policy="off"`` to force per-bit stepping for the whole call.

        Returns the time actually reached.
        """
        if bits < 0:
            raise ConfigurationError(f"cannot run for negative time {bits}")
        if not self.nodes and bits > 0:
            raise SimulationError("cannot step a bus with no nodes")
        policy = self._resolve_policy(policy)
        self._stop_requested = False
        deadline = self.time + bits
        if policy == "off" or self._instrumented():
            self._step_bits(deadline)
            return self.time
        self._engine().advance(deadline)
        return self.time

    def advance_until(
        self,
        predicate: Callable[["CanBusSimulator"], bool],
        limit: int,
        *,
        policy: Optional[str] = None,
    ) -> Optional[int]:
        """Advance until ``predicate(self)`` holds, at most ``limit`` bits.

        Under "auto" the predicate is evaluated after every committed span
        or stepped bit — chunk granularity, which is exact for predicates
        over controller/firmware state (spans are decision-free, so such
        predicates cannot flip inside one).  Pass ``policy="off"`` for
        strict per-bit evaluation.  Returns the time at which the predicate
        first held, or None if the limit was reached (or a stop was
        requested) first.
        """
        if limit < 0:
            raise ConfigurationError(f"cannot run for negative time {limit}")
        policy = self._resolve_policy(policy)
        self._stop_requested = False
        deadline = self.time + limit
        if policy == "off" or self._instrumented():
            while self.time < deadline:
                self.step()
                if predicate(self):
                    return self.time
                if self._stop_requested:
                    return None
            return None
        try_advance = self._engine().try_advance
        while self.time < deadline:
            if try_advance(deadline) == 0:
                self.step()
            if predicate(self):
                return self.time
            if self._stop_requested:
                return None
        return None

    def run(self, bits: int) -> int:
        """Deprecated alias for :meth:`advance` (one release grace period).

        .. deprecated:: PR 6
            Use ``advance(bits)``; ``run`` will be removed next release.
        """
        _warn_once(
            "run",
            "CanBusSimulator.run() is deprecated; use advance(bits) "
            "(identical semantics, fast-forward engine included)",
        )
        return self.advance(bits)

    def run_until(
        self, predicate: Callable[["CanBusSimulator"], bool], limit: int
    ) -> Optional[int]:
        """Deprecated alias for :meth:`advance_until` with ``policy="off"``.

        .. deprecated:: PR 6
            Use ``advance_until(predicate, limit)``; ``run_until`` will be
            removed next release.  The alias pins ``policy="off"`` to keep
            the historical strictly-per-bit predicate timing.
        """
        _warn_once(
            "run_until",
            "CanBusSimulator.run_until() is deprecated; use "
            "advance_until(predicate, limit)",
        )
        return self.advance_until(predicate, limit, policy="off")

    # ------------------------------------------------------------ conversions

    def seconds(self, bits: Optional[int] = None) -> float:
        """Convert ``bits`` (default: current time) to seconds."""
        value = self.time if bits is None else bits
        return value / self.bus_speed

    def milliseconds(self, bits: Optional[int] = None) -> float:
        """Convert ``bits`` (default: current time) to milliseconds."""
        return self.seconds(bits) * 1e3
