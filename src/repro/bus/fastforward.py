"""Frame-level fast-forward: chunked clock advancement across uncontended spans.

The per-bit loop in :class:`~repro.bus.simulator.CanBusSimulator` pays the
full output/resolve/observe cost for every bit, yet MichiCAN's decisions (and
every other protocol decision in the repo) concentrate in a handful of bit
positions: SOF and arbitration, the ID/commit window where the firmware
tracks and may counterattack, error frames, and the ACK/EOF trailer.  The
stretches in between — frame bodies with a single synchronized transmitter,
and idle recessive gaps (including the 1408-bit bus-off recovery wait) — are
decision-free.  This module advances the clock across those spans in one
step each.

Two span kinds are recognised:

**Body spans** — exactly one node is TRANSMITTING somewhere inside its
precompiled stuffed bitstream, every other node is either a synchronized
receiver (its parser was reset at this frame's SOF and fed every bit since,
so ``parser.raw_index == tx_index - 1``) or bus-off.  The wire levels for
the rest of the stuffed region are then exactly the transmitter's stream
slice, and every receiver's parser state at the end of the span is a pure
function of the stream — precomputed once per stream and restored from a
snapshot.  The span ends at the CRC delimiter so ACK, EOF, intermission and
every error path stay per-bit.

**Idle spans** — every node is IDLE with an empty queue (or bus-off).  The
bus stays recessive until the earliest scheduler due time, the earliest
bus-off recovery bit or the caller's deadline, whichever comes first.

**Replayed cycles** — once the bus has seen an error frame,
:meth:`FastForwardEngine.advance` also records the per-bit run of each
fight cycle and replays it when the same node state recurs, and replays
a recurring run of back-to-back cycles as one segment (see
:mod:`repro.bus.cycles`).

The determinism contract: a committed span changes simulator state exactly
as the same number of per-bit steps would — same wire history and counters,
same parser/controller/firmware state, same queue contents enqueued at the
same times — and emits **zero** events (the chunked regions are event-free
by construction, which is why probes, listeners and recorders see a
byte-identical event stream).  A replayed cycle changes state exactly as
the per-bit steps it recorded and re-emits their events, in order, at the
same bit times; it replays only while every event listener is replay-safe
(it reads event fields only), so no observer can tell the difference.
Whenever any precondition fails the engine simply declines
(:meth:`FastForwardEngine.try_advance` returns 0 and counts the reason, a
cycle capture returns no key) and the caller steps per-bit; unknown node
types, instance-patched hooks, fault injectors and custom wires therefore
never see a behaviour change.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.bus.events import ErrorDetected
from repro.bus.wire import Wire
from repro.can.bitstream import Field, WireBit
from repro.can.constants import (
    BUS_IDLE_RECESSIVE_BITS,
    BUS_OFF_RECOVERY_SEQUENCES,
    DOMINANT,
    RECESSIVE,
)
from repro.core.detection import FirmwarePhase
from repro.node.controller import CanNode, ControllerState
from repro.node.rxparser import RxParser

if TYPE_CHECKING:
    from repro.bus.cycles import CycleMemo
    from repro.bus.simulator import CanBusSimulator

#: The two fast-forward policies accepted by ``advance()``/``advance_until``.
FAST_FORWARD_POLICIES: Tuple[str, ...] = ("auto", "off")

#: Type of a policy value ("auto" or "off").
FastForwardPolicy = str

#: Spans shorter than this are not worth the commit bookkeeping.
MIN_SPAN_BITS = 8

#: After a declined span attempt the caller steps this many bits before the
#: next eligibility check, bounding check overhead to ~1/16 per bit while
#: delaying span entry by at most one frame's arbitration window.
RETRY_INTERVAL_BITS = 16

_PLAIN = 0
_MICHICAN = 1
_UNSAFE = 2
_PASSIVE = 3

#: True when a node begins transmitting (a SOF) on its next bit.
_SOF_NEXT = attrgetter("_start_tx_next")

_BASE_OUTPUT = CanNode.output
_BASE_OBSERVE = CanNode.observe

def _class_kind(cls: type, michican: type) -> int:
    """Classify a node class: plain controller, MichiCAN, or unsafe.

    Plain means the class inherits :meth:`CanNode.output` and
    :meth:`CanNode.observe` unchanged (attackers, restbus nodes, IDS taps);
    anything overriding either hook — baseline defenders, spoofers —
    is opaque to the engine and forces per-bit stepping.
    :class:`MichiCanNode` is special-cased because its firmware state is
    catch-up-able when it sits in WAIT_SOF.  Pseudo-nodes declaring
    ``ff_passive = True`` (e.g. the snapshot recorder) promise to always
    drive recessive and to take no protocol action; the engine skips them
    in eligibility checks and instead clamps spans to their
    ``next_sample_at()`` so every sample still lands on a per-bit step.
    """
    if cls is michican:
        return _MICHICAN
    if getattr(cls, "ff_passive", False):
        return _PASSIVE
    if (getattr(cls, "output", None) is _BASE_OUTPUT
            and getattr(cls, "observe", None) is _BASE_OBSERVE):
        return _PLAIN
    return _UNSAFE


def _scheduler_safe(scheduler: object) -> bool:
    """True when the scheduler's tick() effects can be replayed in O(1).

    Requires the class to implement the fast-forward protocol
    (``next_due``/``fast_forward``) and the instance to not carry a
    patched ``tick`` (e.g. the random-ID attacker's per-frame mutation).
    """
    if "tick" in getattr(scheduler, "__dict__", ()):
        return False
    cls = type(scheduler)
    return (getattr(cls, "fast_forward", None) is not None
            and getattr(cls, "next_due", None) is not None)


class FramePlan:
    """Per-bitstream precomputation shared by every span over that stream.

    Holds the raw level sequence, dominant-count prefix sums (O(1) wire
    counter updates), nearest-dominant indices in both directions (O(1)
    leading/trailing recessive-run queries for firmware and bus-off
    catch-up) and memoized end-of-span parser snapshots.
    """

    __slots__ = ("stream", "levels", "dominant_prefix", "body_end",
                 "next_dominant", "prev_dominant", "_snapshots")

    def __init__(self, stream: List[WireBit]) -> None:
        self.stream = stream
        levels = [bit.level for bit in stream]
        self.levels = levels
        total = len(levels)
        prefix = [0] * (total + 1)
        count = 0
        for index, level in enumerate(levels):
            if level == DOMINANT:
                count += 1
            prefix[index + 1] = count
        self.dominant_prefix = prefix
        body_end = total
        for index, bit in enumerate(stream):
            if bit.field is Field.CRC_DELIM:
                body_end = index
                break
        self.body_end = body_end
        next_dominant = [total] * (total + 1)
        nearest = total
        for index in range(total - 1, -1, -1):
            if levels[index] == DOMINANT:
                nearest = index
            next_dominant[index] = nearest
        self.next_dominant = next_dominant
        prev_dominant = [-1] * total
        nearest = -1
        for index in range(total):
            if levels[index] == DOMINANT:
                nearest = index
            prev_dominant[index] = nearest
        self.prev_dominant = prev_dominant
        self._snapshots: Dict[int, tuple] = {}

    def parser_state_at(self, end: int) -> tuple:
        """Parser state after reset-at-SOF plus feeding ``levels[1:end]``.

        Every receiver synchronized to this stream reaches exactly this
        state at raw index ``end - 1`` (the parser is deterministic in the
        fed levels), so one scratch replay serves all receivers of all
        retransmissions of the frame.
        """
        state = self._snapshots.get(end)
        if state is None:
            scratch = RxParser()
            feed = scratch.feed
            for level in self.levels[1:end]:
                feed(level)
            state = scratch.snapshot()
            self._snapshots[end] = state
        return state


#: Why :meth:`FastForwardEngine.try_advance` declined a span, in
#: ``FastForwardStats.declines`` order.
DECLINE_REASONS: Tuple[str, ...] = (
    "contended",      # SOF/arbitration, ACK, two drivers, unsynced receivers
    "error_frame",    # error/overload flags, delimiters, intermission, suspend
    "firmware_busy",  # MichiCAN tracking or counterattacking (not WAIT_SOF)
    "sampler",        # a passive sampler captures on this bit
    "unsafe_node",    # unknown/patched node or scheduler, custom wire
    "deadline",       # the span would cross the caller's deadline
    "short_span",     # under MIN_SPAN_BITS, or a bus-off recovery inside it
)


#: Why an armed SOF boundary did not replay a cycle, in
#: ``FastForwardStats.replay_miss_reasons`` order.
REPLAY_MISS_REASONS: Tuple[str, ...] = (
    "uncapturable",    # a node, scheduler or attribute the capture does not know
    "new_key",         # no cycle recorded under the key yet (recording starts)
    "guard_refused",   # cycles are recorded under the key, but no guard
                       # admits the live counters (recording starts)
    "not_replayable",  # the cycle would cross the deadline or a sample
)


class FastForwardStats:
    """Span, decline and replay counters exposed as ``sim.ff_stats``.

    ``body_*``/``idle_*`` count committed spans and ``fast_bits`` their
    bits; replayed cycles are counted separately (``replayed_*``) because
    they are not span commits.
    """

    __slots__ = ("body_spans", "body_bits", "idle_spans", "idle_bits",
                 "declines", "recorded_segments", "replayed_segments",
                 "replayed_bits", "replay_misses", "replay_miss_reasons",
                 "recorded_runs", "replayed_runs")

    def __init__(self) -> None:
        self.body_spans = 0
        self.body_bits = 0
        self.idle_spans = 0
        self.idle_bits = 0
        #: try_advance() declines by reason (see :data:`DECLINE_REASONS`).
        self.declines: Dict[str, int] = dict.fromkeys(DECLINE_REASONS, 0)
        #: Cycles recorded into the memo.
        self.recorded_segments = 0
        #: Cycles replayed from the memo, and the bits they covered.
        self.replayed_segments = 0
        self.replayed_bits = 0
        #: Armed SOF boundaries that did not replay, in total and by reason
        #: (see :data:`REPLAY_MISS_REASONS`).
        self.replay_misses = 0
        self.replay_miss_reasons: Dict[str, int] = dict.fromkeys(
            REPLAY_MISS_REASONS, 0)
        #: Composite runs of back-to-back replayed cycles stored, and
        #: replayed as one segment each (their cycles and bits also count
        #: in ``replayed_segments``/``replayed_bits``).
        self.recorded_runs = 0
        self.replayed_runs = 0

    @property
    def fast_bits(self) -> int:
        """Total bits advanced by committed spans (replays excluded)."""
        return self.body_bits + self.idle_bits

    def as_dict(self) -> Dict[str, Any]:
        return {
            "body_spans": self.body_spans,
            "body_bits": self.body_bits,
            "idle_spans": self.idle_spans,
            "idle_bits": self.idle_bits,
            "declines": dict(self.declines),
            "recorded_segments": self.recorded_segments,
            "replayed_segments": self.replayed_segments,
            "replayed_bits": self.replayed_bits,
            "replay_misses": self.replay_misses,
            "replay_miss_reasons": dict(self.replay_miss_reasons),
            "recorded_runs": self.recorded_runs,
            "replayed_runs": self.replayed_runs,
        }


@dataclass(frozen=True)
class SpanCommit:
    """One committed fast-forward span, reported to :meth:`on_span` hooks.

    Not a bus event: spans are an *engine* artifact (the bit engine never
    produces them), so they ride a separate listener channel and stay out
    of ``sim.events`` — the event stream remains engine-identical.
    """

    kind: str  #: "body" or "idle"
    start: int  #: first bit time covered by the span
    end: int  #: one past the last bit time covered
    node: Optional[str] = None  #: transmitter name for body spans

    @property
    def bits(self) -> int:
        return self.end - self.start


class FastForwardEngine:
    """Plans and commits fast-forward spans for one simulator."""

    def __init__(self, sim: "CanBusSimulator") -> None:
        self.sim = sim
        self.stats = FastForwardStats()
        self._plans: Dict[int, FramePlan] = {}
        self._span_listeners: List[Callable[[SpanCommit], None]] = []
        self._cycles: Optional["CycleMemo"] = None
        self._armed = False
        # Imported here, not at module level, to keep bus -> core -> node
        # import edges acyclic.
        from repro.core.defense import MichiCanNode

        self._michican: type = MichiCanNode
        self._kinds: Dict[type, int] = {}
        #: Bits to step per-bit after the current decline.
        self._retry_bits = RETRY_INTERVAL_BITS

    def on_span(self, listener: Callable[[SpanCommit], None],
                ) -> Callable[[], None]:
        """Subscribe to span commits; returns an unsubscribe handle.

        Listeners fire after the span's state changes are applied.  They
        exist for diagnostics (trace annotation, flight recording) — span
        commits carry no protocol information that the event stream does
        not, because committed regions are event-free by construction.
        """
        self._span_listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._span_listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def _notify_span(self, commit: SpanCommit) -> None:
        for listener in list(self._span_listeners):
            listener(commit)

    # ------------------------------------------------------------- planning

    def _plan(self, stream: List[WireBit]) -> FramePlan:
        # Keyed by stream identity: serialize_frame_cached() hands the same
        # list object to every (re)transmission of a frame, and the plan
        # keeps the stream alive so the id cannot be recycled underneath.
        key = id(stream)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= 128:
                self._plans.pop(next(iter(self._plans)))
            plan = self._plans[key] = FramePlan(stream)
        return plan

    # ------------------------------------------------------------- advance

    def advance(self, deadline: int) -> None:
        """The "auto" loop behind :meth:`CanBusSimulator.advance`.

        Commits spans where possible and steps per-bit elsewhere.  Once
        the bus has seen an error frame, per-bit stepping also records
        and replays fight cycles (:mod:`repro.bus.cycles`) while every
        event listener is replay-safe.
        """
        sim = self.sim
        try_advance = self.try_advance
        try:
            while sim.time < deadline and not sim._stop_requested:
                if try_advance(deadline):
                    continue
                bits, self._retry_bits = self._retry_bits, RETRY_INTERVAL_BITS
                cycles = self._armed_cycles()
                if cycles is not None:
                    self._step_cycles(cycles, deadline, bits)
                    cycles.end_run()
                else:
                    chunk = sim.time + bits
                    sim._step_bits(chunk if chunk < deadline else deadline)
        finally:
            if self._cycles is not None:
                self._cycles.abandon()

    def release_cycles(self) -> None:
        """Forget every recorded cycle (the memo re-arms on demand)."""
        self._cycles = None

    def _armed_cycles(self) -> Optional["CycleMemo"]:
        """The cycle memo, when replay is allowed right now.

        Arms only after the first error frame, so benign traffic never
        pays for keys; needs the plain wire and replay-safe listeners.
        """
        sim = self.sim
        if not self._armed:
            if ErrorDetected not in sim._events_by_type:
                return None
            self._armed = True
        if type(sim.wire) is not Wire or not all(
                getattr(listener, "replay_safe", False)
                for listener in sim._event_listeners):
            return None
        cycles = self._cycles
        if cycles is None:
            # Imported on first use: runs without an error frame never
            # load (or compile) the memo.
            from repro.bus.cycles import CycleMemo

            cycles = self._cycles = CycleMemo(sim, self.stats)
        return cycles

    def _step_cycles(self, cycles: "CycleMemo", deadline: int,
                     budget: int) -> None:
        """Step up to ``budget`` bits per-bit, handing every SOF boundary
        to the cycle memo (which may replay whole cycles)."""
        sim = self.sim
        nodes = sim.nodes
        count = len(nodes)
        output_methods = [node.output for node in nodes]
        observe_methods = [node.observe for node in nodes]
        controllers = [node for node in nodes if isinstance(node, CanNode)]
        outputs = [0] * count
        drive = sim.wire.drive
        time = sim.time
        while budget and time < deadline and not sim._stop_requested:
            if len(nodes) != count:  # topology changed mid-run
                cycles.abandon()
                return
            if any(map(_SOF_NEXT, controllers)):
                segment = cycles.boundary(deadline)
                if segment is not None:
                    if segment.at_span:
                        return  # the recorded cycle ended where a span commits
                    time = sim.time
                    continue
            for index, output in enumerate(output_methods):
                outputs[index] = output(time)
            level = drive(outputs)
            for observe in observe_methods:
                observe(time, level)
            time += 1
            sim.time = time
            budget -= 1
            if cycles.levels is not None:
                cycles.record_bit(level)

    # ---------------------------------------------------------------- spans

    def _decline(self, reason: str) -> int:
        self.stats.declines[reason] += 1
        return 0

    def _committing(self) -> None:
        # A recorded cycle ends at the first bit where a span commits.
        if self._cycles is not None and self._cycles.levels is not None:
            self._cycles.finish(at_span=True)

    def try_advance(self, deadline: int) -> int:
        """Fast-forward one span if the bus state allows it.

        Returns the number of bits advanced (0 = the caller must step
        per-bit; nothing was changed, and the reason is counted in
        ``stats.declines``).
        """
        sim = self.sim
        if not sim.nodes:
            return 0  # stepping an empty bus must keep raising
        if deadline - sim.time < MIN_SPAN_BITS:
            return self._decline("deadline")
        if type(sim.wire) is not Wire:
            # fault-injecting or custom wires resolve per-bit
            return self._decline("unsafe_node")
        transmitter = None
        active: List[CanNode] = []
        for node in sim.nodes:
            cls = type(node)
            kind = self._kinds.get(cls)
            if kind is None:
                kind = self._kinds[cls] = _class_kind(cls, self._michican)
            if kind == _UNSAFE:
                return self._decline("unsafe_node")
            if kind == _PASSIVE:
                # Spans never cross a sampler's next capture time, so the
                # sample itself always happens on a per-bit step (exact
                # clock and wire counters).
                sample_at = node.next_sample_at()
                if sample_at is not None and sample_at < deadline:
                    if sample_at <= sim.time:
                        # Only the capture bit itself must be stepped.
                        self._retry_bits = 1
                        return self._decline("sampler")
                    deadline = sample_at
                continue
            active.append(node)
            if node._start_tx_next or node._drive_dominant_once:
                return self._decline("contended")  # SOF or ACK next bit
            if "output" in node.__dict__ or "observe" in node.__dict__:
                # node-fault injector wrappers installed
                return self._decline("unsafe_node")
            if not node.listen_only and not _scheduler_safe(node.scheduler):
                return self._decline("unsafe_node")
            if kind == _MICHICAN:
                firmware = node.firmware
                if (firmware.phase is not FirmwarePhase.WAIT_SOF
                        or firmware.drive_level != RECESSIVE
                        or node._was_attacking
                        or node._reported_detections != len(firmware.detections)):
                    return self._decline("firmware_busy")
            state = node.state
            if state is ControllerState.TRANSMITTING:
                if transmitter is not None:
                    # contended bus: arbitration stays per-bit
                    return self._decline("contended")
                transmitter = node
            elif (state is not ControllerState.IDLE
                    and state is not ControllerState.RECEIVING
                    and state is not ControllerState.BUS_OFF):
                # error flags, delimiters, intermission, suspend
                return self._decline("error_frame")
        if transmitter is not None:
            return self._body_span(transmitter, deadline, active)
        return self._idle_span(deadline, active)

    # ----------------------------------------------------------- body spans

    def _body_span(self, tx: CanNode, deadline: int,
                   nodes: List[CanNode]) -> int:
        sim = self.sim
        start = sim.time
        index0 = tx._tx_index
        if index0 < 1:
            # SOF bit itself stays per-bit (parser reset happens there)
            return self._decline("contended")
        plan = self._plan(tx._tx_stream)
        index1 = plan.body_end
        span = index1 - index0
        if span < MIN_SPAN_BITS:
            return self._decline("short_span")
        if start + span > deadline:
            # Deadline-clamped spans would need snapshots at arbitrary
            # indices; declining keeps the snapshot cache exact and small.
            return self._decline("deadline")
        if tx.parser.raw_index != index0 - 1 or tx.parser.drive_ack_next:
            return self._decline("contended")
        levels = plan.levels
        first_dominant = plan.next_dominant[index0]
        has_dominant = first_dominant < index1
        leading = (first_dominant if has_dominant else index1) - index0
        if has_dominant:
            trailing = index1 - 1 - plan.prev_dominant[index1 - 1]
        else:
            trailing = span
        michican = self._michican
        for node in nodes:
            if node is not tx:
                state = node.state
                if state is ControllerState.RECEIVING:
                    parser = node.parser
                    if parser.raw_index != index0 - 1 or parser.drive_ack_next:
                        # unsynchronized receiver: will error per-bit
                        return self._decline("contended")
                elif state is ControllerState.BUS_OFF:
                    if node.auto_recover:
                        run = node._busoff_recessive_run
                        gained = ((run + leading) // BUS_IDLE_RECESSIVE_BITS
                                  - run // BUS_IDLE_RECESSIVE_BITS)
                        if (node._busoff_sequences + gained
                                >= BUS_OFF_RECOVERY_SEQUENCES):
                            # recovery would fire mid-span
                            return self._decline("short_span")
                else:
                    # a node sitting IDLE mid-frame: per-bit
                    return self._decline("contended")
            if type(node) is michican:
                # A dominant bit arriving with the 11-recessive credit
                # already earned would be a SOF from the firmware's view.
                if (has_dominant and node.firmware._cnt_sof + leading
                        >= BUS_IDLE_RECESSIVE_BITS):
                    return self._decline("firmware_busy")
        # ---------------------------------------------------------- commit
        self._committing()
        end_time = start + span
        dominant = plan.dominant_prefix[index1] - plan.dominant_prefix[index0]
        sim.wire.extend_history(levels[index0:index1], dominant)
        parser_state = plan.parser_state_at(index1)
        last_time = end_time - 1
        for node in nodes:
            if not node.listen_only:
                node.scheduler.fast_forward(start, end_time, node.queue)
            node._time = last_time
            if node is tx:
                tx._tx_index = index1
                tx._sent_this_bit = levels[index1 - 1]
                tx.parser.restore(parser_state)
            elif node.state is ControllerState.RECEIVING:
                node.parser.restore(parser_state)
                node._sent_this_bit = RECESSIVE
            else:  # BUS_OFF
                node._sent_this_bit = RECESSIVE
                if node.auto_recover:
                    run = node._busoff_recessive_run
                    node._busoff_sequences += (
                        (run + leading) // BUS_IDLE_RECESSIVE_BITS
                        - run // BUS_IDLE_RECESSIVE_BITS)
                    node._busoff_recessive_run = (
                        trailing if has_dominant else run + span)
            if type(node) is michican:
                node.firmware.catch_up_wait_sof(span, has_dominant, trailing)
        sim.time = end_time
        self.stats.body_spans += 1
        self.stats.body_bits += span
        if self._span_listeners:
            self._notify_span(SpanCommit("body", start, end_time, tx.name))
        return span

    # ----------------------------------------------------------- idle spans

    def _idle_span(self, deadline: int, nodes: List[CanNode]) -> int:
        sim = self.sim
        start = sim.time
        end = deadline
        for node in nodes:
            state = node.state
            if state is ControllerState.IDLE:
                if node.queue.has_pending:
                    # about to start transmitting
                    return self._decline("contended")
                if not node.listen_only:
                    due = node.scheduler.next_due(start, node.queue)
                    if due is not None:
                        if due <= start:
                            return self._decline("contended")
                        if due < end:
                            end = due
            elif state is ControllerState.BUS_OFF:
                if node.auto_recover:
                    run = node._busoff_recessive_run
                    target = (BUS_OFF_RECOVERY_SEQUENCES - node._busoff_sequences
                              + run // BUS_IDLE_RECESSIVE_BITS)
                    # Recovery fires while observing this bit; it (and the
                    # idle re-entry it triggers) must stay per-bit.
                    recovery_bit = (start + BUS_IDLE_RECESSIVE_BITS * target
                                    - run - 1)
                    if recovery_bit < end:
                        end = recovery_bit
            else:
                # receiving with no transmitter left on the bus
                return self._decline("contended")
        span = end - start
        if span < MIN_SPAN_BITS:
            return self._decline("short_span")
        # ---------------------------------------------------------- commit
        self._committing()
        sim.wire.extend_recessive(span)
        last_time = end - 1
        michican = self._michican
        for node in nodes:
            if not node.listen_only:
                node.scheduler.fast_forward(start, end, node.queue)
            node._time = last_time
            node._sent_this_bit = RECESSIVE
            if node.state is ControllerState.BUS_OFF and node.auto_recover:
                run = node._busoff_recessive_run
                node._busoff_sequences += (
                    (run + span) // BUS_IDLE_RECESSIVE_BITS
                    - run // BUS_IDLE_RECESSIVE_BITS)
                node._busoff_recessive_run = run + span
            if type(node) is michican:
                node.firmware.catch_up_wait_sof(span, False, 0)
        sim.time = end
        self.stats.idle_spans += 1
        self.stats.idle_bits += span
        if self._span_listeners:
            self._notify_span(SpanCommit("idle", start, end))
        return span
