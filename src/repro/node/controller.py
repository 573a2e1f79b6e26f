"""The CAN controller state machine: a full data-link-layer node.

:class:`CanNode` is the simulator's unit of participation.  Per bit time the
simulator calls :meth:`CanNode.output` (what the node drives) and, after
resolving the wired-AND level, :meth:`CanNode.observe`.  The node implements:

* transmit start on idle bus and automatic retransmission,
* bit-by-bit arbitration (losing on a dominant overwrite of a recessive
  identifier bit is not an error),
* bit-error and ACK monitoring for transmitters,
* the full receive path (:class:`~repro.node.rxparser.RxParser`) with stuff /
  form / CRC checking and ACK generation,
* active and passive error flags, error delimiters, intermission and suspend
  transmission,
* fault confinement (TEC/REC, Fig. 1b) including bus-off and the
  128 x 11-recessive-bit recovery.

Modelling notes (see DESIGN.md):

* Overload frames are modelled per ISO: a dominant bit during the first two
  intermission bits starts a 6-bit overload flag plus 8-bit delimiter
  (error counters untouched, at most two consecutive overload frames); a
  dominant at the third intermission bit is interpreted as SOF.
* Remote frames (recessive RTR, no data field) are fully supported.
"""

from __future__ import annotations

import enum
from typing import Callable, FrozenSet, List, Optional

from repro.bus.events import (
    ArbitrationLost,
    BusOffEntered,
    BusOffRecovered,
    ErrorDetected,
    ErrorStateChanged,
    Event,
    FrameReceived,
    FrameStarted,
    FrameTransmitted,
    OverloadSignalled,
)
from repro.can.bitstream import (
    ARBITRATION_FIELDS,
    Field,
    WireBit,
    serialize_frame_cached,
)
from repro.can.constants import (
    ACTIVE_ERROR_FLAG_BITS,
    BUS_IDLE_RECESSIVE_BITS,
    BUS_OFF_RECOVERY_SEQUENCES,
    DOMINANT,
    ERROR_DELIMITER_BITS,
    IFS_BITS,
    PASSIVE_ERROR_FLAG_BITS,
    RECESSIVE,
    SUSPEND_TRANSMISSION_BITS,
)
from repro.can.errors import CanError, CanErrorType
from repro.can.frame import CanFrame
from repro.node.faults import ErrorState, FaultConfinement, StateTransition
from repro.node.filters import FilterBank
from repro.node.rxparser import RxEventKind, RxParser
from repro.node.scheduler import PeriodicScheduler, TransmitQueue


class ControllerState(enum.Enum):
    """Top-level controller state."""

    # Identity hash: members are singletons compared by identity, and the
    # per-bit dispatch/membership tests hash them millions of times.
    __hash__ = object.__hash__

    IDLE = "idle"
    RECEIVING = "receiving"
    TRANSMITTING = "transmitting"
    ACTIVE_ERROR_FLAG = "active-error-flag"
    PASSIVE_ERROR_FLAG = "passive-error-flag"
    OVERLOAD_FLAG = "overload-flag"
    ERROR_DELIMITER_WAIT = "error-delimiter-wait"
    ERROR_DELIMITER = "error-delimiter"
    INTERMISSION = "intermission"
    SUSPEND = "suspend"
    BUS_OFF = "bus-off"


_IDLE = ControllerState.IDLE
_PROGRESS = RxEventKind.PROGRESS
_ERROR = RxEventKind.ERROR
_ACK_SLOT = Field.ACK_SLOT
_TRANSMITTING = ControllerState.TRANSMITTING
#: States in which the controller itself drives the bus dominant.
_FLAG_STATES = frozenset({ControllerState.ACTIVE_ERROR_FLAG,
                          ControllerState.OVERLOAD_FLAG})

EventSink = Callable[[Event], None]
FrameCallback = Callable[[int, CanFrame], None]


class CanNode:
    """A CAN 2.0A node (controller + application TX queue) on the simulator.

    Args:
        name: Unique node name (used in events and traces).
        scheduler: Optional periodic message source driving the TX queue.
        auto_recover: If False the node stays in bus-off permanently
            (models a controller configured without automatic recovery).
        filters: Optional acceptance-filter bank.  Filtering gates only the
            application callbacks — the controller still ACKs, error-checks
            and reports every frame in the event stream, exactly like the
            hardware.
        listen_only: Bus-monitoring mode: the node never drives the bus —
            no transmissions, no ACK, no (active) error flags — exactly the
            silent tap mode real controllers offer to IDS devices.
    """

    def __init__(
        self,
        name: str,
        scheduler: Optional[PeriodicScheduler] = None,
        auto_recover: bool = True,
        filters: Optional[FilterBank] = None,
        listen_only: bool = False,
    ) -> None:
        self.name = name
        self.scheduler = scheduler or PeriodicScheduler()
        self.queue = TransmitQueue()
        self.faults = FaultConfinement()
        self.filters = filters or FilterBank()
        self.listen_only = listen_only
        self.parser = RxParser()
        self.state = ControllerState.IDLE
        self.auto_recover = auto_recover

        self._event_sink: Optional[EventSink] = None
        self._rx_callbacks: List[FrameCallback] = []

        self._tx_stream: List[WireBit] = []
        self._tx_index = 0
        self._tx_started_at = 0
        self._tx_pre_rtr_fields: FrozenSet[Field] = frozenset({Field.ID})
        self._start_tx_next = False
        self._drive_dominant_once = False
        self._sent_this_bit = RECESSIVE

        self._flag_remaining = 0
        self._passive_run_level = -1
        self._passive_run_length = 0
        self._passive_flag_saw_dominant = False
        self._pending_tec_ack = False
        self._delim_count = 0
        self._delim_first_bit = False
        self._delim_dominant_run = 0
        self._delim_overload = False
        self._err_role_transmitter = False
        self._overload_count = 0
        self._intermission_count = 0
        self._suspend_count = 0
        self._was_transmitter = False

        self._busoff_recessive_run = 0
        self._busoff_sequences = 0

        self._time = -1

        self.faults.on_transition = self._on_fault_transition

    # ------------------------------------------------------------------ wiring

    def attach(self, event_sink: EventSink) -> None:
        """Connect the node's event stream to the simulator's sink."""
        self._event_sink = event_sink

    def on_frame_received(self, callback: FrameCallback) -> None:
        """Register ``callback(time, frame)`` for valid received frames."""
        self._rx_callbacks.append(callback)

    def emit(self, event: Event) -> None:
        if self._event_sink is not None:
            self._event_sink(event)

    def _on_fault_transition(self, transition: StateTransition) -> None:
        self.emit(
            ErrorStateChanged(
                time=max(self._time, 0),
                node=self.name,
                old_state=transition.old_state,
                new_state=transition.new_state,
                tec=transition.tec,
                rec=transition.rec,
            )
        )

    # ---------------------------------------------------------------- app API

    def send(self, frame: CanFrame, time: int = 0) -> None:
        """Enqueue ``frame`` for transmission (application-level send)."""
        self.queue.enqueue(frame, time)

    @property
    def is_transmitting(self) -> bool:
        return self.state is _TRANSMITTING

    @property
    def is_bus_off(self) -> bool:
        return self.state is ControllerState.BUS_OFF

    def power_cycle(self, time: int) -> None:
        """Model a power glitch: re-initialise all transient controller state.

        The application-side configuration survives (TX queue, scheduler,
        filters, callbacks, event sink, listen-only flag); everything the
        silicon would lose — parser state, error counters, the in-flight
        transmission, flag/delimiter bookkeeping — resets as if the node
        had just come out of reset at bit time ``time``.
        """
        self.state = ControllerState.IDLE
        self.parser.reset()
        self.faults = FaultConfinement()
        self.faults.on_transition = self._on_fault_transition
        self._tx_stream = []
        self._tx_index = 0
        self._tx_started_at = 0
        self._tx_pre_rtr_fields = frozenset({Field.ID})
        self._start_tx_next = False
        self._drive_dominant_once = False
        self._sent_this_bit = RECESSIVE
        self._flag_remaining = 0
        self._passive_run_level = -1
        self._passive_run_length = 0
        self._passive_flag_saw_dominant = False
        self._pending_tec_ack = False
        self._delim_count = 0
        self._delim_first_bit = False
        self._delim_dominant_run = 0
        self._delim_overload = False
        self._err_role_transmitter = False
        self._overload_count = 0
        self._intermission_count = 0
        self._suspend_count = 0
        self._was_transmitter = False
        self._busoff_recessive_run = 0
        self._busoff_sequences = 0
        self._time = time

    @property
    def tec(self) -> int:
        return self.faults.tec

    @property
    def rec(self) -> int:
        return self.faults.rec

    # -------------------------------------------------------------- bit cycle

    def output(self, time: int) -> int:
        """Phase 1: the level this node drives during bit ``time``."""
        self._time = time
        if self.listen_only:
            # A monitoring tap never drives the bus (and never starts TX).
            self._start_tx_next = False
            self._drive_dominant_once = False
            self._sent_this_bit = RECESSIVE
            return RECESSIVE
        self.scheduler.tick(time, self.queue)

        if self._start_tx_next:
            self._start_tx_next = False
            if self.queue.has_pending and self.state is _IDLE:
                self._begin_transmission(time)

        if self._drive_dominant_once:
            self._drive_dominant_once = False
            self._sent_this_bit = DOMINANT
            return DOMINANT

        state = self.state
        if state is _TRANSMITTING:
            level = self._tx_stream[self._tx_index].level
        elif state in _FLAG_STATES:
            level = DOMINANT
        else:
            level = RECESSIVE
        self._sent_this_bit = level
        return level

    def observe(self, time: int, level: int) -> None:
        """Phase 2: react to the resolved bus ``level`` of bit ``time``."""
        handler = _OBSERVE_DISPATCH[self.state]
        handler(self, time, level)

    # ------------------------------------------------------------- transitions

    def _begin_transmission(self, time: int) -> None:
        pending = self.queue.peek()
        assert pending is not None
        self.queue.on_attempt()
        # Cached: retransmissions reuse the same stream object, which also
        # lets the fast-forward engine reuse its per-stream plan.
        self._tx_stream = serialize_frame_cached(pending.frame)
        # The ISO no-TEC exception covers recessive stuff bits located
        # before the RTR; where the RTR sits depends on the frame format.
        if pending.frame.extended:
            self._tx_pre_rtr_fields = frozenset(
                {Field.ID, Field.SRR, Field.IDE, Field.EXT_ID}
            )
        else:
            self._tx_pre_rtr_fields = frozenset({Field.ID})
        self._tx_index = 0
        self._tx_started_at = time
        self.state = ControllerState.TRANSMITTING
        self.emit(
            FrameStarted(
                time=time, node=self.name, frame=pending.frame,
                attempt=pending.attempts, enqueued_at=pending.enqueued_at,
            )
        )

    def _enter_intermission(self) -> None:
        self.state = ControllerState.INTERMISSION
        self._intermission_count = 0

    def _enter_idle_maybe_start(self) -> None:
        self.state = ControllerState.IDLE
        self._overload_count = 0
        if self.queue.has_pending:
            self._start_tx_next = True

    def _enter_bus_off(self, time: int) -> None:
        self.state = ControllerState.BUS_OFF
        self._busoff_recessive_run = 0
        self._busoff_sequences = 0
        self.emit(BusOffEntered(time=time, node=self.name, tec=self.faults.tec))

    def _start_receiving(self, time: int) -> None:
        """A SOF (dominant on idle-ish bus) was observed: parse a new frame."""
        del time
        self.parser.reset()
        self._overload_count = 0
        self.state = ControllerState.RECEIVING

    def _begin_error_flag(
        self,
        time: int,
        error_type: CanErrorType,
        detail: str,
        role_transmitter: bool,
        count_error: bool = True,
        ack_rule: bool = False,
    ) -> None:
        """Detected an error at bit ``time``; flag transmission starts next bit."""
        error = CanError(
            error_type=error_type,
            time=time,
            node_name=self.name,
            detail=detail,
            as_transmitter=role_transmitter,
        )
        self.emit(ErrorDetected(time=time, node=self.name, error=error))

        pre_state = self.faults.state
        self._pending_tec_ack = False
        if count_error:
            if role_transmitter:
                if ack_rule and self.faults.error_passive:
                    # ISO 11898-1 exception: an error-passive transmitter that
                    # detects an ACK error only counts it if it sees a dominant
                    # bit while sending its passive error flag.
                    self._pending_tec_ack = True
                else:
                    self.faults.on_transmit_error(time)
            else:
                self.faults.on_receive_error(time)

        self._err_role_transmitter = role_transmitter
        self._was_transmitter = role_transmitter
        self._delim_first_bit = True
        self._delim_overload = False

        if self.faults.bus_off:
            self._enter_bus_off(time)
            return
        if pre_state is ErrorState.ERROR_ACTIVE:
            self.state = ControllerState.ACTIVE_ERROR_FLAG
            self._flag_remaining = ACTIVE_ERROR_FLAG_BITS
        else:
            self.state = ControllerState.PASSIVE_ERROR_FLAG
            self._passive_run_level = -1
            self._passive_run_length = 0
            self._passive_flag_saw_dominant = False

    # ------------------------------------------------------------ observe by state

    def _observe_idle(self, time: int, level: int) -> None:
        if level == DOMINANT:
            self._start_receiving(time)
            return
        if self.queue.has_pending:
            self._start_tx_next = True

    def _observe_receiving(self, time: int, level: int) -> None:
        parser = self.parser
        event = parser.feed(level)
        kind = event.kind
        if kind is _PROGRESS:
            if parser.drive_ack_next:
                self._drive_dominant_once = True
            return
        if kind is _ERROR:
            assert event.error_type is not None
            self._begin_error_flag(
                time, event.error_type, event.detail, role_transmitter=False
            )
            return
        assert kind is RxEventKind.FRAME_COMPLETE and event.frame is not None
        self.faults.on_receive_success(time)
        self._was_transmitter = False
        self.emit(FrameReceived(time=time, node=self.name, frame=event.frame))
        if self.filters.accepts(event.frame):
            for callback in self._rx_callbacks:
                callback(time, event.frame)
        self._enter_intermission()

    def _observe_transmitting(self, time: int, level: int) -> None:
        index = self._tx_index
        wire_bit = self._tx_stream[index]
        sent = wire_bit.level

        # Keep the parallel parser synchronized so that a lost arbitration
        # seamlessly degrades this node to a receiver of the winning frame.
        if index == 0:
            self.parser.reset()
        else:
            self.parser.feed(level)

        if sent != level:
            # On a wired-AND bus the only possible mismatch is: we drove
            # recessive, the bus is dominant.
            if wire_bit.field is _ACK_SLOT:
                pass  # a receiver acknowledged; proceed below
            elif wire_bit.field in ARBITRATION_FIELDS and not wire_bit.is_stuff:
                pending = self.queue.peek()
                frame = pending.frame if pending else None
                self.emit(
                    ArbitrationLost(
                        time=time,
                        node=self.name,
                        frame=frame,
                        bit_position=wire_bit.unstuffed_index,
                    )
                )
                self.state = ControllerState.RECEIVING
                return
            elif wire_bit.field in self._tx_pre_rtr_fields and wire_bit.is_stuff:
                # Stuff error during arbitration on a recessive stuff bit
                # located before the RTR: error flag, but TEC is not
                # incremented (ISO 11898-1 exception).  A stuff bit *after*
                # the RTR is an ordinary bit error and counts normally.
                self._begin_error_flag(
                    time,
                    CanErrorType.STUFF,
                    "dominant overwrite of recessive stuff bit during arbitration",
                    role_transmitter=True,
                    count_error=False,
                )
                return
            else:
                self._begin_error_flag(
                    time,
                    CanErrorType.BIT,
                    f"sent recessive, read dominant in {wire_bit.field.value} "
                    f"(unstuffed index {wire_bit.unstuffed_index})",
                    role_transmitter=True,
                )
                return
        elif level == RECESSIVE and wire_bit.field is _ACK_SLOT:
            self._begin_error_flag(
                time,
                CanErrorType.ACK,
                "no acknowledgment received",
                role_transmitter=True,
                ack_rule=True,
            )
            return

        self._tx_index += 1
        if self._tx_index >= len(self._tx_stream):
            pending = self.queue.on_success(time)
            self.faults.on_transmit_success(time)
            self._was_transmitter = True
            self.emit(
                FrameTransmitted(
                    time=time,
                    node=self.name,
                    frame=pending.frame,
                    attempts=pending.attempts,
                    started_at=self._tx_started_at,
                )
            )
            self._enter_intermission()

    def _observe_active_error_flag(self, time: int, level: int) -> None:
        del time, level
        self._flag_remaining -= 1
        if self._flag_remaining <= 0:
            self.state = ControllerState.ERROR_DELIMITER_WAIT

    def _observe_passive_error_flag(self, time: int, level: int) -> None:
        if level == DOMINANT:
            self._passive_flag_saw_dominant = True
        if level == self._passive_run_level:
            self._passive_run_length += 1
        else:
            self._passive_run_level = level
            self._passive_run_length = 1
        if self._passive_run_length >= PASSIVE_ERROR_FLAG_BITS:
            if self._pending_tec_ack and self._passive_flag_saw_dominant:
                self.faults.on_transmit_error(time)
                if self.faults.bus_off:
                    self._enter_bus_off(time)
                    return
            self._pending_tec_ack = False
            self.state = ControllerState.ERROR_DELIMITER_WAIT

    def _observe_error_delimiter_wait(self, time: int, level: int) -> None:
        if level == DOMINANT:
            if (self._delim_first_bit and not self._err_role_transmitter
                    and not self._delim_overload):
                # ISO 11898-1: a receiver detecting a dominant bit as the
                # first bit after sending its error flag adds 8 to its REC.
                # (Transmitters tolerate up to 7 dominant bits here.)
                self.faults.on_receiver_flag_escalation(time)
            self._delim_first_bit = False
            self._delim_dominant_run += 1
            if self._delim_dominant_run >= ERROR_DELIMITER_BITS:
                # ISO 11898-1: each further sequence of 8 consecutive
                # dominant bits after the error flag adds another 8.
                self.faults.on_flag_overrun_escalation(
                    time, as_transmitter=self._err_role_transmitter
                )
                self._delim_dominant_run = 0
                if self.faults.bus_off:
                    self._enter_bus_off(time)
            return
        self._delim_first_bit = False
        self._delim_dominant_run = 0
        self._delim_count = 1
        self.state = ControllerState.ERROR_DELIMITER

    def _observe_error_delimiter(self, time: int, level: int) -> None:
        if level == DOMINANT:
            # Form error inside the error delimiter.
            self._begin_error_flag(
                time,
                CanErrorType.FORM,
                f"dominant bit at error-delimiter position {self._delim_count}",
                role_transmitter=self._err_role_transmitter,
            )
            return
        self._delim_count += 1
        if self._delim_count >= ERROR_DELIMITER_BITS:
            self._enter_intermission()

    def _begin_overload_flag(self, time: int) -> None:
        """Dominant during the first two intermission bits: signal overload.

        The flag is six dominant bits followed by the 8-bit delimiter; the
        error counters are untouched and at most two consecutive overload
        frames are generated (ISO 11898-1).
        """
        self._overload_count += 1
        self.emit(OverloadSignalled(time=time, node=self.name,
                                    consecutive=self._overload_count))
        self.state = ControllerState.OVERLOAD_FLAG
        self._flag_remaining = ACTIVE_ERROR_FLAG_BITS
        self._delim_first_bit = False
        self._delim_overload = True
        self._err_role_transmitter = False

    def _observe_overload_flag(self, time: int, level: int) -> None:
        del time, level
        self._flag_remaining -= 1
        if self._flag_remaining <= 0:
            self.state = ControllerState.ERROR_DELIMITER_WAIT

    def _observe_intermission(self, time: int, level: int) -> None:
        if level == DOMINANT:
            if (self._intermission_count < IFS_BITS - 1
                    and self._overload_count < 2):
                self._begin_overload_flag(time)
                return
            # Dominant at the third intermission bit is interpreted as SOF
            # (also the fallback once the overload budget is exhausted).
            self._start_receiving(time)
            return
        self._intermission_count += 1
        if self._intermission_count >= IFS_BITS:
            if self.faults.error_passive and self._was_transmitter:
                self.state = ControllerState.SUSPEND
                self._suspend_count = 0
            else:
                self._enter_idle_maybe_start()

    def _observe_suspend(self, time: int, level: int) -> None:
        if level == DOMINANT:
            self._start_receiving(time)
            return
        self._suspend_count += 1
        if self._suspend_count >= SUSPEND_TRANSMISSION_BITS:
            self._enter_idle_maybe_start()

    def _observe_bus_off(self, time: int, level: int) -> None:
        if not self.auto_recover:
            return
        if level == RECESSIVE:
            self._busoff_recessive_run += 1
            if self._busoff_recessive_run % BUS_IDLE_RECESSIVE_BITS == 0:
                self._busoff_sequences += 1
        else:
            self._busoff_recessive_run = 0
        if self._busoff_sequences >= BUS_OFF_RECOVERY_SEQUENCES:
            self.faults.recover_from_bus_off(time)
            self.emit(BusOffRecovered(time=time, node=self.name))
            self._was_transmitter = False
            self._enter_idle_maybe_start()


_OBSERVE_DISPATCH = {
    ControllerState.IDLE: CanNode._observe_idle,
    ControllerState.RECEIVING: CanNode._observe_receiving,
    ControllerState.TRANSMITTING: CanNode._observe_transmitting,
    ControllerState.ACTIVE_ERROR_FLAG: CanNode._observe_active_error_flag,
    ControllerState.OVERLOAD_FLAG: CanNode._observe_overload_flag,
    ControllerState.PASSIVE_ERROR_FLAG: CanNode._observe_passive_error_flag,
    ControllerState.ERROR_DELIMITER_WAIT: CanNode._observe_error_delimiter_wait,
    ControllerState.ERROR_DELIMITER: CanNode._observe_error_delimiter,
    ControllerState.INTERMISSION: CanNode._observe_intermission,
    ControllerState.SUSPEND: CanNode._observe_suspend,
    ControllerState.BUS_OFF: CanNode._observe_bus_off,
}
