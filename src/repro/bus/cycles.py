"""Replayed fight cycles: memoized per-bit retransmission segments.

A bus-off fight repeats one cycle — SOF, arbitration, counterattack, error
flag, delimiter, intermission, suspend — 32 times per episode, and every
episode after a recovery repeats the one before it.  Each cycle is fully
determined by the state of the nodes at its SOF, so the fast-forward
engine records the per-bit run of a cycle once and replays it when the
same state comes back.

**Segments.**  A segment starts at a SOF boundary (the start of a bit at
which some node is about to begin transmitting) and runs per-bit to the
next SOF boundary, or to the first bit where a fast-forward span commits.
Recording captures the resolved wire levels, every event in order, and
each node's end state; segments longer than :data:`MAX_SEGMENT_BITS`
are dropped.

**Keys.**  A segment is keyed by the canonical state of every active
(non-passive) node at its start: all controller fields, the receive
parser, fault confinement, transmit queue, scheduler and — for MichiCAN —
the firmware, its FSM runners and pinmux.  Time-valued fields are keyed
relative to the segment start.  Every object must be of a class the
capture knows and carry exactly the attributes it knows; anything else
declines the capture, so an unknown node, an instance-patched hook or a
new attribute can only cost speed, never exactness.

**The abstraction table** — the only places where two different states
share a key:

==================================  ====================================
``FaultConfinement`` TEC and REC    keyed by region — TEC 0 / 1-127 /
                                    128-255 / bus-off, REC 0 / 1-127 /
                                    >= 128 — and replayed as deltas.  A
                                    node that did not change error state
                                    and whose counters that started above
                                    zero stayed in their regions (above
                                    zero) replays while its live counters
                                    plus the recorded excursion stay
                                    inside those regions; any other node
                                    replays only for its exact start
                                    counters.
bus-off recovery progress           a delta; replays while the live count
                                    plus the recorded gain stays below 128
                                    (exactly when the node recovered).
``MichiCanFirmware._cnt_sof >= 11`` one class; a delta when no bit of the
                                    segment reset it.
scheduler due time                  "far" beyond the segment; applied at
                                    replay through ``fast_forward``.
pure accumulators                   left out of the key, replayed as
                                    deltas: firmware counters and
                                    detections, pinmux operations, fault
                                    transitions, queue attempts,
                                    ``bus_off_count`` and the sources'
                                    ``emitted`` (the toggling source keys
                                    it modulo its ID cycle).  Event fields
                                    derived from them (``attempt``) are
                                    rebased.
values not read again               a queue entry enqueued before the
                                    segment is "old" (only its order
                                    matters); the in-flight transmission
                                    fields outside TRANSMITTING and the
                                    bus-off counters outside BUS_OFF are
                                    "dead": the next SOF (which emits
                                    FrameStarted) or bus-off entry rewrites
                                    them before they are read, so replay
                                    keeps the live value unless the
                                    segment rewrote it.
a run of back-to-back replayed      one composite segment under its head
cycles                              cycle: the head's key and the run's
                                    guard fix every later cycle's start
                                    (see **Runs**).  Re-checked live:
                                    deadline and samples over the whole
                                    run, no scheduler due time or source
                                    start window before its last cycle's
                                    look-ahead ends, no part evicted.
==================================  ====================================

**Counter regions.**  Nothing reads TEC or REC mid-run except through
the error state: the controller reads only ``error_passive`` and
``bus_off``, and ``ErrorStateChanged``, ``BusOffEntered`` and the
transition log carry counter values only on a state change, after which
the node's counters replay only for their exact values.  Every counter
update is a shift (+1, +8, -1) except the floor at zero, REC's reset to
119 from above 127 and bus-off recovery; a counter that stays inside one
region above zero meets none of them, so the live run is the recorded
run shifted by a constant.  A node makes at most one counter update per
bit, so sampling the counters once per recorded bit sees every value of
the excursion.  A key therefore holds a short list of segments, each
with a **guard**: the live start counters it replays for
(:func:`_guard`).

**Replay.**  On a key hit whose guard admits the live counters, the
engine extends the wire with the recorded levels, re-emits the recorded
events in order, time-shifted, through each node's ``emit``, and
restores every node's end state plus the recorded counter and
accumulator deltas.  Replay re-emits what the per-bit engine produced;
there is no second model of arbitration or error handling.

**Runs.**  Cycles that replay back to back — each boundary a hit, no bit
stepped and no span committed between them — are recorded as they
replay (each one's capture and start) and, when the run ends (a miss, a
span, the deadline or :data:`MAX_RUN_BITS`), stored as one composite
under the head cycle.  Its end state comes from the same
``_NodeCodec.finish`` relative to the head capture.  Its events are the
ones its parts replayed, rebuilt from their recipes the first time the
composite replays, each queue entry named by the part's recipe and
capture: a replay emits before it restores, so the live queue cannot
name it.  A composite replays only where replaying cycle by cycle would
replay exactly its parts, so it changes the cost, never a decision:

* the head is the cycle the live key and counters pick (composites hang
  off it) and each later part's key follows from replay being exact:
  every keyed field is fixed by the head's key, the counters are the
  head's shifted by what the run added, and the "far" scheduler and
  source classes hold while no due time or start window falls before
  the last part's start plus :data:`MAX_SEGMENT_BITS` (re-checked);
* the guard is :func:`_guard` over the run's excursion, each part's
  recorded excursion placed at its live start, so the region argument
  holds for the whole run, and within it each part's own guard admits
  its start;
* every part after the head is the first cycle recorded under its key
  (a run ends before any other), so the lookup picks it wherever its
  guard admits; a part whose key was evicted refuses the run;
* the deadline and every sampler's next sample must lie past its end.

Composites live beside the segment memo, :data:`RUN_ENTRIES` at most
(FIFO), and count their cycles in ``replayed_segments``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import OrderedDict
from functools import lru_cache
from math import inf
from operator import add, attrgetter, le, sub
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.bus.events import (
    ArbitrationLost,
    AttackDetected,
    BusOffEntered,
    BusOffRecovered,
    CounterattackEnded,
    CounterattackStarted,
    ErrorDetected,
    ErrorStateChanged,
    Event,
    FrameReceived,
    FrameStarted,
    FrameTransmitted,
    OverloadSignalled,
)
from repro.bus.simulator import CanBusSimulator, replay_safe
from repro.can.constants import (
    BUS_IDLE_RECESSIVE_BITS,
    BUS_OFF_RECOVERY_SEQUENCES,
    BUS_OFF_THRESHOLD,
    DOMINANT,
    ERROR_PASSIVE_THRESHOLD,
)
from repro.node.controller import CanNode, ControllerState
from repro.node.faults import FaultConfinement
from repro.node.rxparser import RxParser
from repro.node.scheduler import (
    PendingTransmission,
    PeriodicMessage,
    PeriodicScheduler,
    TransmitQueue,
)

if TYPE_CHECKING:
    from repro.bus.fastforward import FastForwardStats

#: Longest recorded segment; longer runs are dropped.  "Far" in the
#: abstraction table means "not reachable within this many bits".
MAX_SEGMENT_BITS = 128

#: Memo bound per simulator, in segments (FIFO eviction by key, like the
#: engine's plan cache).
MEMO_ENTRIES = 256

#: A run closes before a cycle whose capture look-ahead (its start plus
#: MAX_SEGMENT_BITS) would end more than this many bits past the run's
#: start; a fight episode's cycles take ~1.3k.
MAX_RUN_BITS = 2048

#: Composite runs kept per simulator (FIFO).
RUN_ENTRIES = 32

_OLD = "old"      # a queue entry enqueued before the segment start
_FAR = "far"
_NONE = "none"
_CREDIT = "cnt_sof>=11"
_STARTED = "started"
_DEAD = "dead"

_DELTA = 0
_EXACT = 1


#: Region edges: a counter keys as ``bisect_right(edges, value)``, so TEC
#: as 0 / 1-127 / 128-255 / bus-off and REC as 0 / 1-127 / >= 128.
_TEC_EDGES = (1, ERROR_PASSIVE_THRESHOLD, BUS_OFF_THRESHOLD)
_REC_EDGES = (1, ERROR_PASSIVE_THRESHOLD)


def _counters(records: Sequence["_Start"]) -> Tuple[int, ...]:
    """Every node's start TEC, REC and bus-off sequence count, in node
    order."""
    values: List[int] = []
    for record in records:
        values += (record.tec, record.rec, record.busoff)
    return tuple(values)


def _rel(value: Optional[int], start: int) -> Optional[int]:
    return None if value is None else value - start


def _abs(value: Optional[int], start: int) -> Optional[int]:
    return None if value is None else value + start


#: A time-stamped dataclass record: its class and field values in
#: declaration order, with ``time`` relative to the segment start.
_Stamp = Tuple[type, Tuple[Any, ...]]


@lru_cache(maxsize=None)
def _field_index(cls: type, name: str) -> int:
    return tuple(cls.__dataclass_fields__).index(name)  # type: ignore[attr-defined]


@lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[Callable[[Any], Tuple[Any, ...]], int]:
    """A stamped class's getter of every field (two or more) and the
    position of its ``time``."""
    names = tuple(cls.__dataclass_fields__)  # type: ignore[attr-defined]
    return attrgetter(*names), names.index("time")


def _stamped(item: Any, start: int) -> _Stamp:
    cls = type(item)
    fields, time = _layout(cls)
    values = list(fields(item))
    values[time] -= start
    return cls, tuple(values)


def _restamp(stamp: _Stamp, start: int) -> Any:
    # Through the constructor, so the instance is laid out (and sized)
    # exactly like the one the per-bit engine builds.
    cls, values = stamp
    fields = list(values)
    fields[_layout(cls)[1]] += start
    return cls(*fields)


def _log_tail(log: List[Any], count: int, start: int) -> Tuple[_Stamp, ...]:
    """Records appended to ``log`` past its first ``count``, time-relative."""
    if len(log) == count:
        return ()
    return tuple([_stamped(item, start) for item in log[count:]])


def _extend_log(log: List[Any], tail: Tuple[_Stamp, ...],
                start: int) -> None:
    if tail:
        log.extend([_restamp(item, start) for item in tail])


# ------------------------------------------------------------ schedulers

class _PeriodicCodec:
    """PeriodicScheduler: keyed only when its next due time is far.

    Every scheduler codec's ``key`` returns the key, the information its
    ``finish`` and ``restore`` need, and how many bits from ``start`` the
    key's "far" class holds (a run's parts must all be captured before
    then), or None when the capture declines."""

    fields = frozenset({"messages", "_no_enqueue_before"})

    def key(self, scheduler: Any, queue: TransmitQueue,
            start: int) -> Optional[Tuple[Any, Any, float]]:
        for message in scheduler.messages:
            if type(message) is not PeriodicMessage:
                return None
        due = scheduler.next_due(start, queue)
        if due is None:
            return (_NONE,), None, inf
        if due - start >= MAX_SEGMENT_BITS:
            return (_FAR,), None, due - start
        return None  # an enqueue inside the segment: exact key never recurs

    def finish(self, scheduler: Any, info: Any) -> Any:
        return None

    def restore(self, scheduler: Any, queue: TransmitQueue, end: Any,
                info: Any, start: int, stop: int) -> None:
        scheduler.fast_forward(start, stop, queue)


class _ContinuousCodec:
    """ContinuousSource: ``emitted`` is a pure accumulator unless a limit
    or a counter-dependent payload makes it observable."""

    fields = frozenset({"can_id", "payload_fn", "limit", "start_bits",
                        "emitted", "messages"})

    def __init__(self, zero_payload: Callable[[int], bytes]) -> None:
        self.zero_payload = zero_payload

    def key(self, source: Any, queue: TransmitQueue,
            start: int) -> Optional[Tuple[Any, Any, float]]:
        if source.messages:
            return None
        accumulates = source.limit is None and source.payload_fn is self.zero_payload
        start_bits = source.start_bits
        far: float = inf
        if start_bits <= start:
            window: Any = _STARTED
        elif start_bits - start >= MAX_SEGMENT_BITS:
            window = _FAR
            far = start_bits - start
        else:
            window = start_bits - start
        emitted = None if accumulates else source.emitted
        return ((source.can_id, source.payload_fn, source.limit, window,
                 emitted), (accumulates, source.emitted), far)

    def finish(self, source: Any, info: Any) -> Any:
        accumulates, emitted = info
        if accumulates:
            return _DELTA, source.emitted - emitted
        return _EXACT, source.emitted

    def restore(self, source: Any, queue: TransmitQueue, end: Any,
                info: Any, start: int, stop: int) -> None:
        mode, value = end
        source.emitted = info[1] + value if mode == _DELTA else value


class _AlternatingCodec:
    """The toggling source: keyed by its counter modulo the ID cycle."""

    fields = frozenset({"can_ids", "emitted", "messages"})

    def key(self, source: Any, queue: TransmitQueue,
            start: int) -> Optional[Tuple[Any, Any, float]]:
        if source.messages:
            return None
        ids = tuple(source.can_ids)
        return (ids, source.emitted % len(ids)), source.emitted, inf

    def finish(self, source: Any, info: Any) -> Any:
        return source.emitted - info

    def restore(self, source: Any, queue: TransmitQueue, end: Any,
                info: Any, start: int, stop: int) -> None:
        source.emitted = info + end


# ----------------------------------------------------------------- nodes

_NODE_EXACT = (
    "name", "listen_only", "state", "auto_recover",
    "_start_tx_next", "_drive_dominant_once",
    "_sent_this_bit", "_flag_remaining", "_passive_run_level",
    "_passive_run_length", "_passive_flag_saw_dominant", "_pending_tec_ack",
    "_delim_count", "_delim_first_bit", "_delim_dominant_run",
    "_delim_overload", "_err_role_transmitter", "_overload_count",
    "_intermission_count", "_suspend_count", "_was_transmitter",
)
#: Keyed by identity (the memo entry keeps them alive).
_NODE_IDENT = ("filters", "_event_sink")
#: The in-flight transmission: written together by every SOF (which emits
#: FrameStarted) and read only while TRANSMITTING.
_NODE_TX = ("_tx_stream", "_tx_index", "_tx_pre_rtr_fields", "_tx_started_at")
_NODE_OTHER = ("scheduler", "queue", "faults", "parser", "_rx_callbacks",
               "_busoff_sequences", "_busoff_recessive_run", "_time")
_get_tx = attrgetter(*_NODE_TX)

_PARSER_FIELDS = frozenset({
    "phase", "_field_bits", "can_id", "extended", "remote", "_base_id",
    "dlc", "_data_bits", "_crc_bits", "_crc", "_run_level", "_run_length",
    "drive_ack_next", "crc_ok", "ack_seen", "raw_index", "unstuffed_index",
})
_FAULT_FIELDS = frozenset({"tec", "rec", "transitions", "_state",
                           "on_transition"})
_QUEUE_FIELDS = frozenset({"_pending", "_capacity", "completed"})

_FW_EXACT = (
    "prevention_enabled", "trigger_position", "attack_duration", "phase",
    "_extended_frame", "_cnt", "_start_counterattack", "_last_value",
    "_run_length", "_attack_remaining", "_flag_suppressed",
)
_FW_FIELDS = frozenset(_FW_EXACT + (
    "fsm", "extended_fsm", "pinmux", "counters", "detections", "_runner",
    "_ext_runner", "_cnt_sof", "_id_bits"))
_RUNNER_EXACT = ("_state", "verdict", "decision_bit", "_bits_consumed")
_RUNNER_FIELDS = frozenset(_RUNNER_EXACT + ("_fsm",))
_PINMUX_EXACT = ("rx_mux_enabled", "tx_mux_enabled", "_tx_level")
_PINMUX_FIELDS = frozenset(_PINMUX_EXACT + ("operations",))

_parser_key = attrgetter(
    "phase", "can_id", "extended", "remote", "_base_id", "dlc", "_crc",
    "_run_level", "_run_length", "drive_ack_next", "crc_ok", "ack_seen",
    "raw_index", "unstuffed_index")
_runner_exact = attrgetter(*_RUNNER_EXACT)
_pinmux_exact = attrgetter(*_PINMUX_EXACT)
_fw_exact = attrgetter(*_FW_EXACT)


class _FirmwareStart:
    __slots__ = ("counters", "detections", "operations", "cnt_sof",
                 "credit_class")

    counters: Tuple[int, ...]
    detections: int
    operations: int
    cnt_sof: int
    credit_class: bool


class _Start:
    """One node's capture at a segment start (what finish/replay need)."""

    __slots__ = ("node", "codec", "sched_codec", "sched_info", "far", "entries",
                 "attempts", "completed", "tx_live", "tec", "rec",
                 "transitions", "busoff", "busoff_live",
                 "accum", "firmware")

    sched_codec: Any
    sched_info: Any
    far: float  # bits ahead the scheduler key's "far" class holds
    entries: List[PendingTransmission]
    attempts: List[int]
    completed: int
    tx_live: bool
    tec: int
    rec: int
    transitions: int
    busoff: int
    busoff_live: bool
    accum: Tuple[int, ...]
    firmware: _FirmwareStart  # set when the node runs MichiCAN firmware

    def __init__(self, node: CanNode, codec: "_NodeCodec") -> None:
        self.node = node
        self.codec = codec


class _NodeCodec:
    """Capture, finish and restore for one node class."""

    def __init__(self, sched_codecs: Dict[type, Any], exact: Tuple[str, ...] = (),
                 ident: Tuple[str, ...] = (), accum: Tuple[str, ...] = (),
                 firmware: Optional[Tuple[type, type, type, type]] = None,
                 ) -> None:
        self.sched_codecs = sched_codecs
        self.exact = _NODE_EXACT + exact
        self.ident = _NODE_IDENT + ident
        self.accum = accum
        self.firmware = firmware
        names = self.exact + self.ident + _NODE_TX + _NODE_OTHER + accum
        if firmware is not None:
            names += ("firmware",)
        self.fields: FrozenSet[str] = frozenset(names)
        self.get_exact = attrgetter(*self.exact)
        self.get_ident = attrgetter(*self.ident)
        self.get_accum = attrgetter(*accum) if accum else None
        self.counter_fields: FrozenSet[str] = frozenset(
            firmware[3].__dataclass_fields__  # type: ignore[attr-defined]
        ) if firmware is not None else frozenset()

    # ---------------------------------------------------------- capture

    def capture(self, node: CanNode, start: int,
                keepalive: List[Any]) -> Optional[Tuple[Any, _Start]]:
        if node.__dict__.keys() != self.fields or node._rx_callbacks:
            return None
        queue = node.queue
        scheduler = node.scheduler
        sched_codec = self.sched_codecs.get(type(scheduler))
        if (sched_codec is None or type(queue) is not TransmitQueue
                or scheduler.__dict__.keys() != sched_codec.fields
                or queue.__dict__.keys() != _QUEUE_FIELDS):
            return None
        sched = sched_codec.key(scheduler, queue, start)
        if sched is None:
            return None
        faults = node.faults
        parser = node.parser
        transition_hook = faults.on_transition
        if (type(faults) is not FaultConfinement
                or faults.__dict__.keys() != _FAULT_FIELDS
                or getattr(transition_hook, "__self__", None) is not node
                or getattr(transition_hook, "__func__", None)
                is not CanNode._on_fault_transition
                or type(parser) is not RxParser
                or parser.__dict__.keys() != _PARSER_FIELDS):
            return None
        record = _Start(node, self)
        record.sched_codec = sched_codec
        record.sched_info = sched[1]
        record.far = sched[2]
        entries = list(queue._pending)
        pending_key = []
        for entry in entries:
            if type(entry) is not PendingTransmission:
                return None
            enqueued = entry.enqueued_at
            pending_key.append((entry.frame,
                                _OLD if enqueued < start else enqueued - start,
                                _rel(entry.completed_at, start)))
        record.entries = entries
        record.attempts = [entry.attempts for entry in entries]
        record.completed = len(queue.completed)
        record.tx_live = node.state is ControllerState.TRANSMITTING
        if record.tx_live:
            stream, index, pre_rtr, started = _get_tx(node)
            keepalive.append(stream)
            tx_key: Any = (id(stream), index, pre_rtr, started - start)
        else:
            tx_key = _DEAD
        tec = record.tec = faults.tec
        rec = record.rec = faults.rec
        record.transitions = len(faults.transitions)
        record.busoff = node._busoff_sequences
        record.busoff_live = node.state is ControllerState.BUS_OFF
        # Outside BUS_OFF both counters are reset on bus-off entry and
        # unread until then; inside it the sequence count is guarded.
        busoff_key = (node._busoff_recessive_run if record.busoff_live
                      else _DEAD)
        get_accum = self.get_accum
        record.accum = (() if get_accum is None
                        else (get_accum(node) if len(self.accum) > 1
                              else (get_accum(node),)))
        idents = self.get_ident(node)
        keepalive.extend(idents)
        key = (
            type(node), self.get_exact(node),
            tuple(map(id, idents)), tx_key, node._time - start, sched[0],
            (queue._capacity, tuple(pending_key)),
            (bisect_right(_TEC_EDGES, tec), bisect_right(_REC_EDGES, rec),
             faults._state),
            _parser_key(parser), tuple(parser._field_bits),
            tuple(parser._data_bits), tuple(parser._crc_bits), busoff_key,
        )
        if self.firmware is not None:
            firmware_key = self._capture_firmware(node, record, keepalive)
            if firmware_key is None:
                return None
            key += firmware_key
        return key, record

    def _capture_firmware(self, node: Any, record: _Start,
                          keepalive: List[Any]) -> Optional[Tuple[Any, ...]]:
        assert self.firmware is not None
        firmware_cls, runner_cls, pinmux_cls, counters_cls = self.firmware
        firmware = node.firmware
        if (type(firmware) is not firmware_cls
                or firmware.__dict__.keys() != _FW_FIELDS):
            return None
        pinmux = firmware.pinmux
        counters = firmware.counters
        if (type(pinmux) is not pinmux_cls
                or pinmux.__dict__.keys() != _PINMUX_FIELDS
                or type(counters) is not counters_cls
                or counters.__dict__.keys() != self.counter_fields):
            return None
        runners: List[Any] = []
        for runner in (firmware._runner, firmware._ext_runner):
            if runner is None and runners:  # no extended-ID FSM
                runners.append(None)
                continue
            if (type(runner) is not runner_cls
                    or runner.__dict__.keys() != _RUNNER_FIELDS):
                return None
            keepalive.append(runner._fsm)
            runners.append((id(runner._fsm), _runner_exact(runner)))
        keepalive.append(firmware.fsm)
        keepalive.append(firmware.extended_fsm)
        start = _FirmwareStart()
        start.counters = tuple(counters.__dict__.values())
        start.detections = len(firmware.detections)
        start.operations = len(pinmux.operations)
        credit = firmware._cnt_sof
        start.cnt_sof = credit
        start.credit_class = credit >= BUS_IDLE_RECESSIVE_BITS
        record.firmware = start
        return (
            _fw_exact(firmware), id(firmware.fsm), id(firmware.extended_fsm),
            tuple(firmware._id_bits), tuple(runners), _pinmux_exact(pinmux),
            _CREDIT if start.credit_class else credit,
        )

    # ----------------------------------------------------------- finish

    def finish(self, record: _Start, start: int, length: int,
               emitted: Set[type]) -> Optional[Tuple[Any, ...]]:
        """The node's end state relative to ``record``; None = unstorable.

        ``emitted`` holds the event classes the node emitted in the
        segment: they tell which dead or abstracted fields were rewritten.
        """
        node: Any = record.node
        queue = node.queue
        faults = node.faults
        entries = record.entries

        def ref(entry: PendingTransmission) -> Tuple[Any, ...]:
            completed = _rel(entry.completed_at, start)
            for position, known in enumerate(entries):
                if known is entry:
                    return (position,
                            entry.attempts - record.attempts[position],
                            completed)
            return (None, entry.frame, entry.enqueued_at - start,
                    entry.attempts, completed)

        run = node._busoff_recessive_run
        if record.busoff_live:
            busoff: Optional[Tuple[int, int, int]] = (
                _DELTA, node._busoff_sequences - record.busoff, run)
        elif BusOffEntered in emitted:
            busoff = (_EXACT, node._busoff_sequences, run)
        else:
            busoff = None  # still dead: keep
        accum = None
        if self.get_accum is not None:
            values = self.get_accum(node)
            if len(self.accum) == 1:
                values = (values,)
            accum = tuple(map(sub, values, record.accum))
        tx_end = None  # still dead: keep
        if record.tx_live or FrameStarted in emitted:
            stream, index, pre_rtr, started = _get_tx(node)
            tx_end = (stream, index, pre_rtr, started - start)
        completed = queue.completed
        end = (
            self.get_exact(node), self.get_ident(node), tx_end,
            node._time - start,
            record.sched_codec.finish(node.scheduler, record.sched_info),
            tuple([ref(entry) for entry in queue._pending]),
            (() if len(completed) == record.completed else
             tuple([ref(entry) for entry in completed[record.completed:]])),
            faults.tec - record.tec, faults.rec - record.rec, faults._state,
            _log_tail(faults.transitions, record.transitions, start),
            tuple([tuple(value) if type(value) is list else value
                   for value in node.parser.snapshot()]),
            busoff, accum,
            None if self.firmware is None
            else self._finish_firmware(node, record.firmware, start, length),
        )
        return end

    def _finish_firmware(self, node: Any, record: _FirmwareStart,
                         start: int, length: int) -> Tuple[Any, ...]:
        firmware = node.firmware
        pinmux = firmware.pinmux
        credit = firmware._cnt_sof
        if record.credit_class and credit == record.cnt_sof + length:
            cnt_sof = (_DELTA, length)  # no bit of the segment reset it
        else:
            cnt_sof = (_EXACT, credit)
        extended = firmware._ext_runner
        runners = (_runner_exact(firmware._runner),
                   None if extended is None else _runner_exact(extended))
        return (
            _fw_exact(firmware), tuple(firmware._id_bits), runners,
            _pinmux_exact(pinmux),
            tuple(map(sub, firmware.counters.__dict__.values(),
                      record.counters)),
            _log_tail(firmware.detections, record.detections, start),
            _log_tail(pinmux.operations, record.operations, start),
            cnt_sof,
        )

    # ---------------------------------------------------------- restore

    def restore(self, record: _Start, end: Tuple[Any, ...], start: int,
                stop: int) -> None:
        node: Any = record.node
        (exact, ident, tx_end, last_time, sched_end, pending, completed,
         tec, rec, fault_state, transitions, parser_state, busoff, accum,
         firmware_end) = end
        state = node.__dict__
        state.update(zip(self.exact, exact))
        state.update(zip(self.ident, ident))
        if tx_end is not None:
            (node._tx_stream, node._tx_index, node._tx_pre_rtr_fields,
             started) = tx_end
            node._tx_started_at = started + start
        node._time = last_time + start
        queue = node.queue
        record.sched_codec.restore(node.scheduler, queue, sched_end,
                                   record.sched_info, start, stop)
        entries = record.entries
        attempts = record.attempts

        def build(ref: Tuple[Any, ...]) -> PendingTransmission:
            if ref[0] is not None:
                entry = entries[ref[0]]
                entry.attempts = attempts[ref[0]] + ref[1]
                entry.completed_at = _abs(ref[2], start)
                return entry
            return PendingTransmission(ref[1], ref[2] + start, ref[3],
                                       _abs(ref[4], start))

        queue._pending[:] = [build(ref) for ref in pending]
        if completed:
            queue.completed.extend([build(ref) for ref in completed])
        faults = node.faults
        faults.tec = record.tec + tec
        faults.rec = record.rec + rec
        faults._state = fault_state
        _extend_log(faults.transitions, transitions, start)
        node.parser.restore(parser_state)
        if busoff is not None:
            mode, sequences, run = busoff
            node._busoff_sequences = (record.busoff + sequences
                                      if mode == _DELTA else sequences)
            node._busoff_recessive_run = run
        if accum is not None:
            state.update(zip(self.accum, map(add, record.accum, accum)))
        if firmware_end is not None:
            self._restore_firmware(node, record.firmware, firmware_end, start)

    def _restore_firmware(self, node: Any, record: _FirmwareStart,
                          end: Tuple[Any, ...], start: int) -> None:
        (exact, id_bits, runners, pinmux_exact, counters, detections,
         operations, cnt_sof) = end
        firmware = node.firmware
        firmware.__dict__.update(zip(_FW_EXACT, exact))
        firmware._id_bits = list(id_bits)
        firmware._runner.__dict__.update(zip(_RUNNER_EXACT, runners[0]))
        if runners[1] is not None:
            firmware._ext_runner.__dict__.update(zip(_RUNNER_EXACT, runners[1]))
        pinmux = firmware.pinmux
        pinmux.__dict__.update(zip(_PINMUX_EXACT, pinmux_exact))
        state = firmware.counters.__dict__
        state.update(zip(list(state), map(add, record.counters, counters)))
        _extend_log(firmware.detections, detections, start)
        _extend_log(pinmux.operations, operations, start)
        firmware._cnt_sof = (record.cnt_sof + cnt_sof[1]
                             if cnt_sof[0] == _DELTA else cnt_sof[1])


def _node_codecs() -> Dict[type, _NodeCodec]:
    """The node classes the capture knows, with their extra attributes."""
    # Imported lazily to keep bus -> attacks/core/workloads edges acyclic.
    from repro.attacks.base import AttackerNode, ContinuousSource, _zero_payload
    from repro.attacks.dos import (
        DosAttacker,
        TargetedDosAttacker,
        TraditionalDosAttacker,
    )
    from repro.attacks.multi_id import ToggleAttacker, _AlternatingSource
    from repro.core.defense import MichiCanNode
    from repro.core.detection import FirmwareCounters, MichiCanFirmware
    from repro.core.fsm import FsmRunner
    from repro.core.pinmux import PinMux
    from repro.workloads.restbus import RestbusNode

    scheds: Dict[type, Any] = {
        PeriodicScheduler: _PeriodicCodec(),
        ContinuousSource: _ContinuousCodec(_zero_payload),
        _AlternatingSource: _AlternatingCodec(),
    }
    attacker = (("flush_queue_on_bus_off",), ("bus_off_count",))
    dos = (attacker[0] + ("attack_id",), attacker[1])
    return {
        CanNode: _NodeCodec(scheds),
        RestbusNode: _NodeCodec(scheds, ident=("matrix",)),
        AttackerNode: _NodeCodec(scheds, exact=attacker[0], accum=attacker[1]),
        DosAttacker: _NodeCodec(scheds, exact=dos[0], accum=dos[1]),
        TraditionalDosAttacker: _NodeCodec(scheds, exact=dos[0], accum=dos[1]),
        TargetedDosAttacker: _NodeCodec(
            scheds, exact=dos[0] + ("victim_id",), accum=dos[1]),
        ToggleAttacker: _NodeCodec(
            scheds, exact=attacker[0] + ("attack_ids",), accum=attacker[1]),
        MichiCanNode: _NodeCodec(
            scheds, exact=("_was_attacking",), ident=("ecu_config",),
            accum=("_reported_detections",),
            firmware=(MichiCanFirmware, FsmRunner, PinMux, FirmwareCounters)),
    }


# ---------------------------------------------------------------- events

#: Event classes replay can rebuild (time plus the rebased fields below).
_REPLAYABLE_EVENTS = frozenset({
    ArbitrationLost, AttackDetected, BusOffEntered, BusOffRecovered,
    CounterattackEnded, CounterattackStarted, ErrorDetected,
    ErrorStateChanged, FrameReceived, FrameStarted, FrameTransmitted,
    OverloadSignalled,
})

#: Field positions the replay rewrites (every event starts with time, node).
_FRAME, _COUNT, _STAMP = (_field_index(FrameStarted, "frame"),
                          _field_index(FrameStarted, "attempt"),
                          _field_index(FrameStarted, "enqueued_at"))
assert (_FRAME, _COUNT, _STAMP) == (
    _field_index(FrameTransmitted, "frame"),
    _field_index(FrameTransmitted, "attempts"),
    _field_index(FrameTransmitted, "started_at"))
_ERROR = _field_index(ErrorDetected, "error")
_META = _field_index(AttackDetected, "meta")

_EventRecipe = Tuple[int, type, Tuple[Any, ...], Optional[Tuple[int, int]]]


def _event_recipe(node_index: int, event: Event, entry: Optional[int],
                  records: Sequence[_Start],
                  start: int) -> Optional[_EventRecipe]:
    cls = type(event)
    if cls not in _REPLAYABLE_EVENTS:
        return None
    values = list(_layout(cls)[0](event))
    values[0] -= start  # time
    rebase = None
    if cls is FrameStarted or cls is FrameTransmitted:
        # enqueued_at / started_at are bit times too.
        values[_STAMP] -= start
        if entry is not None:
            # An entry older than the segment: its attempts accumulate and
            # its enqueue time is whatever the live entry holds.
            rebase = (entry,
                      values[_COUNT] - records[node_index].attempts[entry])
    elif cls is ErrorDetected:
        values[_ERROR] = _stamped(values[_ERROR], start)
    elif cls is AttackDetected:
        values[_META] = tuple(values[_META].items())
    return node_index, cls, tuple(values), rebase


def _build_event(recipe: _EventRecipe, record: _Start, start: int) -> Event:
    _, cls, template, rebase = recipe
    values = list(template)
    values[0] += start  # time
    if cls is FrameStarted or cls is FrameTransmitted:
        values[_STAMP] += start
        if rebase is not None:
            entry = record.entries[rebase[0]]
            values[_FRAME] = entry.frame
            values[_COUNT] = record.attempts[rebase[0]] + rebase[1]
            if cls is FrameStarted:
                values[_STAMP] = entry.enqueued_at
    elif cls is ErrorDetected:
        values[_ERROR] = _restamp(values[_ERROR], start)
    elif cls is AttackDetected:
        values[_META] = dict(values[_META])  # fresh dict per event
    return cls(*values)


# ------------------------------------------------------------------ memo

class _Segment:
    """One recorded cycle: wire levels, event recipes, per-node end states,
    the live start counters it replays for (``guard``: lowest and highest
    values, in :func:`_counters` order) and every node's TEC/REC excursion
    (lowest and highest TEC, lowest and highest REC, relative to the start
    values; zeros for a node whose counters both started at zero)."""

    __slots__ = ("length", "levels", "dominant", "events", "ends",
                 "at_span", "keepalive", "guard", "excursion", "emitted",
                 "cycles", "runs", "live")

    def __init__(self, levels: Sequence[int], events: List[_EventRecipe],
                 ends: List[Tuple[Any, ...]], at_span: bool,
                 keepalive: List[Any],
                 guard: Tuple[Tuple[int, ...], Tuple[float, ...]],
                 excursion: Tuple[Tuple[int, int, int, int], ...],
                 emitted: List[Set[type]]) -> None:
        self.length = len(levels)
        self.levels = levels
        self.dominant = levels.count(DOMINANT)
        self.events = events
        self.ends = ends
        self.at_span = at_span
        self.keepalive = keepalive
        self.guard = guard
        self.excursion = excursion
        #: Per node, the event classes it emits in the segment.
        self.emitted = emitted
        #: Cycles replayed by one replay of this segment.
        self.cycles = 1
        #: Composite runs headed by this cycle, longest first.
        self.runs: List[_Run] = []
        #: False once its key is evicted from the memo.
        self.live = True

    def admits(self, counters: Tuple[int, ...]) -> bool:
        """True when the live start counters lie inside the guard."""
        lows, highs = self.guard
        return all(map(le, lows, counters)) and all(map(le, counters, highs))


#: What a stored run rebuilds its events from: the head capture, the
#: run's start, and each part's capture and start.
_Sources = Tuple[List[_Start], int, List[Tuple[List[_Start], int]]]


class _Run(_Segment):
    """A composite: back-to-back replayed cycles (``parts``) stored as one
    segment under the head cycle.  ``reach``: bits from its start within
    which no scheduler may come due (its last part's start plus the
    capture look-ahead).

    Most runs never recur, so the event recipes are built the first time
    one replays (:meth:`realize`), from what the parts replayed
    (``sources`` until then)."""

    __slots__ = ("parts", "reach", "sources")

    def __init__(self, levels: Sequence[int], ends: List[Tuple[Any, ...]],
                 keepalive: List[Any],
                 guard: Tuple[Tuple[int, ...], Tuple[float, ...]],
                 parts: List[_Segment], reach: int,
                 sources: _Sources) -> None:
        super().__init__(levels, [], ends, parts[-1].at_span, keepalive,
                         guard, (), [])
        self.cycles = len(parts)
        self.parts = parts
        self.reach = reach
        self.sources: Optional[_Sources] = sources

    def realize(self) -> None:
        """Build the event recipes, relative to the head capture, from the
        events each part replayed (rebuilt from its recipe, capture and
        start: they are the same values it emitted)."""
        if self.sources is None:
            return
        records, start, starts = self.sources
        self.sources = None
        entry_index = _entry_index(records)
        recipes = self.events
        for part, (part_records, part_start) in zip(self.parts, starts):
            for recipe in part.events:
                index, _, _, rebase = recipe
                record = part_records[index]
                # A replay emits before it restores, so the queue entry
                # an event names comes from the part's recipe and capture.
                entry = None if rebase is None else entry_index[index].get(
                    id(record.entries[rebase[0]]))
                rebuilt = _event_recipe(
                    index, _build_event(recipe, record, part_start), entry,
                    records, start)
                assert rebuilt is not None  # a part's class is replayable
                recipes.append(rebuilt)


_LIVE = attrgetter("live")


class _Recording:
    """A segment being recorded: a cycle stepped per-bit, or a run of
    replayed cycles (``parts`` non-empty)."""

    __slots__ = ("key", "start", "records", "names", "entry_index",
                 "levels", "events", "keepalive", "marks", "parts", "starts",
                 "far")

    key: Any
    start: int
    records: List[_Start]
    # While stepping: node indices by name, and _entry_index(records).
    names: Dict[str, int]
    entry_index: List[Dict[int, int]]
    levels: List[int]
    events: List[Tuple[Optional[int], Event, Optional[int]]]
    keepalive: List[Any]
    #: Per node: lowest and highest TEC, lowest and highest REC so far.
    marks: List[List[int]]
    #: The replayed cycles of a run, in order (empty while stepping), and
    #: each one's capture and start.
    parts: List[_Segment]
    starts: List[Tuple[List[_Start], int]]
    #: Bits from a run's start within which its parts' capture look-ahead
    #: must end: the head's "far" (see :class:`_PeriodicCodec`), at most
    #: :data:`MAX_RUN_BITS`.
    far: float

    def __init__(self, key: Any, start: int, records: List[_Start],
                 keepalive: List[Any]) -> None:
        self.key = key
        self.start = start
        self.records = records
        self.levels = []
        self.events = []
        self.keepalive = keepalive
        self.marks = [[record.tec, record.tec, record.rec, record.rec]
                      for record in records]
        self.parts = []
        self.starts = []


class CycleMemo:
    """Records and replays fight cycles, and runs of them, for one
    simulator."""

    def __init__(self, sim: "CanBusSimulator",
                 stats: "FastForwardStats") -> None:
        self.sim = sim
        self.stats = stats
        self._codecs = _node_codecs()
        #: Segments by capture key; segments with one key differ in the
        #: start counters their guards admit.
        self._segments: "OrderedDict[Any, List[_Segment]]" = OrderedDict()
        self._stored = 0  # segments over all keys
        #: Composite runs, oldest first (each also hangs off its head).
        self._runs: List[_Run] = []
        self._recording: Optional[_Recording] = None
        #: The running segment's stepped levels (None when not stepping).
        self.levels: Optional[List[int]] = None
        #: (fault confinement, water marks) of the recorded nodes whose
        #: counters did not both start at zero.
        self._watch: List[Tuple[FaultConfinement, List[int]]] = []

    # ------------------------------------------------------------ capture

    def _capture(self) -> Optional[Tuple[Any, List[_Start], List[Any]]]:
        start = self.sim.time
        keys = []
        records = []
        keepalive: List[Any] = []
        codecs = self._codecs
        for node in self.sim.nodes:
            codec = codecs.get(type(node))
            if codec is None:
                if getattr(type(node), "ff_passive", False):
                    continue
                return None
            captured = codec.capture(node, start, keepalive)
            if captured is None:
                return None
            keys.append(captured[0])
            records.append(captured[1])
        return tuple(keys), records, keepalive

    def _replayable(self, segment: _Segment, deadline: int) -> bool:
        stop = self.sim.time + segment.length
        if stop > deadline:
            return False
        for node in self.sim.nodes:
            if getattr(type(node), "ff_passive", False):
                sample_at = node.next_sample_at()
                if sample_at is not None and sample_at < stop:
                    return False
        return True

    def _fits(self, run: _Run, records: List[_Start],
              counters: Tuple[int, ...], deadline: int) -> bool:
        """True when every cycle of ``run`` would replay, back to back,
        from here: the live counters and every re-checked abstraction
        (deadline, samples, scheduler due times, evicted parts)."""
        return (run.admits(counters) and self._replayable(run, deadline)
                and min([record.far for record in records]) >= run.reach
                and all(map(_LIVE, run.parts)))

    # ---------------------------------------------------------- boundaries

    def _miss(self, reason: str) -> None:
        self.end_run()
        stats = self.stats
        stats.replay_misses += 1
        stats.replay_miss_reasons[reason] += 1

    def boundary(self, deadline: int) -> Optional[_Segment]:
        """A SOF boundary: close the running segment, then replay the next
        cycle — or the longest fitting run headed by it — if a recorded
        cycle's key and guard match (returned), else start recording."""
        recording = self._recording
        if recording is not None and not recording.parts:
            self.finish(at_span=False)
        captured = self._capture()
        if captured is None:
            self._miss("uncapturable")
            return None
        key, records, keepalive = captured
        candidates = self._segments.get(key, ())
        counters = _counters(records)
        for position, segment in enumerate(candidates):
            if segment.admits(counters):
                break
        else:
            self._miss("guard_refused" if candidates else "new_key")
            self._start(key, records, keepalive)
            return None
        for run in segment.runs:
            if self._fits(run, records, counters, deadline):
                self.end_run()
                run.realize()
                self._replay(run, records)
                self.stats.replayed_runs += 1
                return run
        if not self._replayable(segment, deadline):
            self._miss("not_replayable")
            return None
        self._extend_run(key, records, keepalive, segment, not position)
        self._replay(segment, records)
        return segment

    def _start(self, key: Any, records: List[_Start],
               keepalive: List[Any]) -> None:
        recording = self._recording = _Recording(
            key, self.sim.time, records, keepalive)
        recording.names = {record.node.name: index
                           for index, record in enumerate(records)}
        recording.entry_index = _entry_index(records)
        self._watch = [(record.node.faults, marks)
                       for record, marks in zip(records, recording.marks)
                       if record.tec or record.rec]
        self.levels = recording.levels
        self.sim._event_listeners.append(self._on_event)

    @replay_safe
    def _on_event(self, event: Event) -> None:
        recording = self._recording
        if recording is None:
            return
        index = recording.names.get(event.node)
        entry = None
        if index is not None:
            cls = type(event)
            if cls is FrameStarted or cls is FrameTransmitted:
                queue = recording.records[index].node.queue
                pending = (queue.peek() if cls is FrameStarted
                           else queue.completed[-1])
                entry = recording.entry_index[index].get(id(pending))
        recording.events.append((index, event, entry))

    def record_bit(self, level: int) -> None:
        """Append one stepped bit to the running segment (``levels`` set)
        and sample the counters of the watched nodes."""
        levels = self.levels
        assert levels is not None
        levels.append(level)
        for faults, marks in self._watch:
            value = faults.tec
            if value < marks[0]:
                marks[0] = value
            elif value > marks[1]:
                marks[1] = value
            value = faults.rec
            if value < marks[2]:
                marks[2] = value
            elif value > marks[3]:
                marks[3] = value
        if len(levels) > MAX_SEGMENT_BITS:
            self.abandon()

    # ---------------------------------------------------------------- runs

    def _extend_run(self, key: Any, records: List[_Start],
                    keepalive: List[Any], segment: _Segment,
                    first: bool) -> None:
        """Add ``segment``, about to replay here, to the open run, or open
        a run headed by it.  ``first``: it is the first cycle recorded
        under its key, the only kind a run takes after its head."""
        run = self._recording
        start = self.sim.time
        if run is not None and (
                not first or start - run.start != len(run.levels)
                or start - run.start + MAX_SEGMENT_BITS > run.far):
            self.end_run()
            run = None
        if run is None:
            run = self._recording = _Recording(
                key, start, records, keepalive)
            run.far = min([MAX_RUN_BITS] + [record.far for record in records])
        for record, marks, (tec_low, tec_high, rec_low, rec_high) in zip(
                records, run.marks, segment.excursion):
            tec = record.tec
            rec = record.rec
            if tec + tec_low < marks[0]:
                marks[0] = tec + tec_low
            if tec + tec_high > marks[1]:
                marks[1] = tec + tec_high
            if rec + rec_low < marks[2]:
                marks[2] = rec + rec_low
            if rec + rec_high > marks[3]:
                marks[3] = rec + rec_high
        run.parts.append(segment)
        run.starts.append((records, start))
        run.levels.extend(segment.levels)

    def end_run(self) -> None:
        """Close an open run of replayed cycles, storing it when it holds
        two or more."""
        recording = self._recording
        if recording is not None and recording.parts:
            self.finish(at_span=False)

    def abandon(self) -> None:
        """Drop the running segment (deadline, stop, topology change)."""
        recording = self._recording
        if recording is not None:
            self._recording = None
            if not recording.parts:
                self.levels = None
                self._watch = []
                self.sim._event_listeners.remove(self._on_event)

    def finish(self, at_span: bool) -> None:
        """Close the running segment and memoize it when storable: a cycle
        stepped per-bit, or a run of two or more replayed cycles (which
        ends at a span when its last cycle does)."""
        recording = self._recording
        if recording is None:
            return
        self.abandon()
        start = recording.start
        length = len(recording.levels)
        if not length or self.sim.time != start + length:
            return
        if recording.parts:
            if len(recording.parts) > 1:
                self._store_run(recording)
            return
        records = recording.records
        recipes: List[_EventRecipe] = []
        emitted: List[Set[type]] = [set() for _ in records]
        for index, event, entry in recording.events:
            if index is None:
                return  # an event from a node the key does not cover
            recipe = _event_recipe(index, event, entry, records, start)
            if recipe is None:
                return
            recipes.append(recipe)
            emitted[index].add(type(event))
        ends = _ends(records, start, length, emitted)
        if ends is None:
            return
        segments = self._segments
        stored = self._stored
        while stored >= MEMO_ENTRIES:
            evicted = segments.popitem(last=False)[1]
            stored -= len(evicted)
            for segment in evicted:
                segment.live = False
        excursion = tuple([
            (tec_low - record.tec, tec_high - record.tec,
             rec_low - record.rec, rec_high - record.rec)
            for record, (tec_low, tec_high, rec_low, rec_high)
            in zip(records, recording.marks)])
        segments.setdefault(recording.key, []).append(_Segment(
            tuple(recording.levels), recipes, ends, at_span,
            recording.keepalive, _guard(records, recording.marks),
            excursion, emitted))
        self._stored = stored + 1
        self.stats.recorded_segments += 1

    def _store_run(self, recording: _Recording) -> None:
        records = recording.records
        start = recording.start
        length = len(recording.levels)
        parts = recording.parts
        emitted: List[Set[type]] = [set() for _ in records]
        for part in parts:
            for classes, part_classes in zip(emitted, part.emitted):
                classes |= part_classes
        ends = _ends(records, start, length, emitted)
        if ends is None:
            return
        run = _Run(tuple(recording.levels), ends, recording.keepalive,
                   _guard(records, recording.marks), parts,
                   length - parts[-1].length + MAX_SEGMENT_BITS,
                   (records, start, recording.starts))
        runs = parts[0].runs
        position = 0
        while position < len(runs) and runs[position].length >= run.length:
            position += 1
        runs.insert(position, run)
        self._runs.append(run)
        if len(self._runs) > RUN_ENTRIES:
            oldest = self._runs.pop(0)
            oldest.parts[0].runs.remove(oldest)
        self.stats.recorded_runs += 1

    # -------------------------------------------------------------- replay

    def _replay(self, segment: _Segment, records: List[_Start]) -> None:
        sim = self.sim
        start = sim.time
        stop = start + segment.length
        sim.wire.extend_history(segment.levels, segment.dominant)
        for recipe in segment.events:
            record = records[recipe[0]]
            record.node.emit(_build_event(recipe, record, start))
        for record, end in zip(records, segment.ends):
            record.codec.restore(record, end, start, stop)
        sim.time = stop
        stats = self.stats
        stats.replayed_segments += segment.cycles
        stats.replayed_bits += segment.length


def _entry_index(records: Sequence[_Start]) -> List[Dict[int, int]]:
    """Per node, the captured queue entries' positions by identity."""
    return [{id(entry): position
             for position, entry in enumerate(record.entries)}
            for record in records]


def _ends(records: Sequence[_Start], start: int, length: int,
          emitted: List[Set[type]]) -> Optional[List[Tuple[Any, ...]]]:
    """Every node's end state relative to its capture (None: one is not
    storable)."""
    ends = []
    for index, record in enumerate(records):
        end = record.codec.finish(record, start, length, emitted[index])
        if end is None:
            return None
        ends.append(end)
    return ends


def _guard(records: Sequence[_Start], marks: Sequence[List[int]],
           ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """The live start counters a finished recording replays for, in
    :func:`_counters` order.

    A node that changed error state, or one of whose counters started
    above zero and left its region, replays only for its exact start
    counters.  For any other node, a counter that started at ``value``
    above zero and moved within ``[low, high]`` replays for live starts
    ``v`` whose run ``[v + low - value, v + high - value]`` stays inside
    the region; one that started at zero keys as exactly zero.  A bus-off
    node's sequence count replays for any live count that the recorded
    gain keeps short of recovery; outside BUS_OFF it is not read.
    """
    lows: List[int] = []
    highs: List[float] = []
    for record, (tec_low, tec_high, rec_low, rec_high) in zip(records, marks):
        node: Any = record.node
        tec, rec, sequences = record.tec, record.rec, record.busoff
        tec_bounds = _region_guard(tec, tec_low, tec_high, _TEC_EDGES)
        rec_bounds = _region_guard(rec, rec_low, rec_high, _REC_EDGES)
        if (tec_bounds is None or rec_bounds is None
                or len(node.faults.transitions) != record.transitions):
            bounds = [(tec, tec), (rec, rec), (sequences, sequences)]
        else:
            gain = node._busoff_sequences - sequences
            bounds = [tec_bounds, rec_bounds,
                      (0, BUS_OFF_RECOVERY_SEQUENCES - 1 - gain)]
        if not record.busoff_live:
            bounds[2] = (0, inf)
        for low, high in bounds:
            lows.append(low)
            highs.append(high)
    return tuple(lows), tuple(highs)


def _region_guard(value: int, low: int, high: int, edges: Tuple[int, ...],
                  ) -> Optional[Tuple[int, float]]:
    """The live starts for a counter that started at ``value`` and moved
    within ``[low, high]`` (None: it started above zero and left its
    region)."""
    if not value:
        return 0, 0
    index = bisect_right(edges, value)
    bottom = edges[index - 1]
    top = edges[index] - 1 if index < len(edges) else inf
    if low < bottom or high > top:
        return None
    return bottom + value - low, top + value - high
