"""Incremental bit-level receive parser for CAN 2.0A data frames.

Every non-bus-off node runs one :class:`RxParser` over every bus bit.  The
parser destuffs online, tracks the current field, checks stuff/form/CRC
conditions and tells its owner when to drive the ACK slot dominant.  It is
the software analogue of the receive path inside a CAN controller — and it is
also what MichiCAN's bit-banged snooper replicates in Algorithm 1 (the
snooper variant, which exposes *raw* bit positions, lives in
:mod:`repro.core.detection`).

The parser is deliberately event-driven: :meth:`RxParser.feed` consumes one
bus level and returns an :class:`RxEvent` describing what, if anything,
happened at that bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from repro.can.constants import (
    DLC_BITS,
    DOMINANT,
    EOF_BITS,
    ID_BITS,
    MAX_DLC,
    RECESSIVE,
    STUFF_RUN,
)
from repro.can.crc import crc15_update
from repro.can.errors import CanErrorType
from repro.can.frame import CanFrame


class RxPhase(enum.Enum):
    """Receive-path position within the frame."""

    # Identity hash: members are singletons compared by identity, and the
    # per-bit dispatch/membership tests hash them millions of times.
    __hash__ = object.__hash__

    ID = "id"
    RTR = "rtr"          # RTR (standard) / SRR (extended) — decided by IDE
    IDE = "ide"
    EXT_ID = "ext_id"
    EXT_RTR = "ext_rtr"
    R1 = "r1"
    R0 = "r0"
    DLC = "dlc"
    DATA = "data"
    CRC = "crc"
    CRC_DELIM = "crc_delim"
    ACK_SLOT = "ack_slot"
    ACK_DELIM = "ack_delim"
    EOF = "eof"
    DONE = "done"


_STUFFED_PHASES = frozenset({
    RxPhase.ID, RxPhase.RTR, RxPhase.IDE, RxPhase.EXT_ID, RxPhase.EXT_RTR,
    RxPhase.R1, RxPhase.R0, RxPhase.DLC, RxPhase.DATA, RxPhase.CRC,
})


class RxEventKind(enum.Enum):
    __hash__ = object.__hash__  # identity hash, see RxPhase

    PROGRESS = "progress"
    ERROR = "error"
    FRAME_COMPLETE = "frame_complete"


@dataclass(frozen=True)
class RxEvent:
    """Outcome of feeding one bit to the parser (immutable, so the common
    progress outcomes are shared instances)."""

    kind: RxEventKind
    error_type: Optional[CanErrorType] = None
    detail: str = ""
    frame: Optional[CanFrame] = None


#: The outcomes of most bits, shared rather than rebuilt per bit.
_PROGRESS = RxEvent(RxEventKind.PROGRESS)
_STUFF_BIT = RxEvent(RxEventKind.PROGRESS, detail="stuff-bit")

#: Phases whose bits enter the CRC register.
_CRC_PHASES = frozenset({
    RxPhase.ID, RxPhase.RTR, RxPhase.IDE, RxPhase.EXT_ID, RxPhase.EXT_RTR,
    RxPhase.R1, RxPhase.R0, RxPhase.DLC, RxPhase.DATA,
})


class RxParser:
    """Parses one frame, bit by bit, starting from the bit *after* SOF.

    The owner detects SOF itself (a dominant bit on an idle bus) and then
    feeds every subsequent bus level.  After :meth:`feed` returns, the flags
    :attr:`drive_ack_next` (drive the next bit dominant to acknowledge) and
    :attr:`crc_ok` are up to date.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Prepare for a new frame (call at each SOF)."""
        self.phase = RxPhase.ID
        self._field_bits: List[int] = []
        self.can_id: Optional[int] = None
        self.extended = False
        self.remote = False
        self._base_id = 0
        self.dlc: Optional[int] = None
        self._data_bits: List[int] = []
        self._crc_bits: List[int] = []
        # CRC register, seeded with the SOF bit (always dominant).
        self._crc = crc15_update(0, DOMINANT)
        # Online destuffing state; SOF starts a dominant run of one.
        self._run_level = DOMINANT
        self._run_length = 1
        #: True when the next bus bit is the ACK slot and the frame so far is
        #: error-free: the owner must drive dominant to acknowledge.
        self.drive_ack_next = False
        self.crc_ok: Optional[bool] = None
        self.ack_seen: Optional[bool] = None
        #: Raw (stuffed) bit index within the frame; SOF is 0, the first fed
        #: bit is 1.
        self.raw_index = 0
        #: Un-stuffed bit index; SOF is 0.
        self.unstuffed_index = 0

    # -- state capture -------------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture the complete parser state as an immutable-enough tuple.

        The fast-forward engine precomputes, per frame bitstream, the parser
        state at the end of each uncontended span and :meth:`restore`\\ s it
        into every synchronized receiver instead of feeding the span bit by
        bit.  Mutable members are copied on capture *and* on restore, so one
        snapshot can be restored into many parsers safely.
        """
        return (
            self.phase, list(self._field_bits), self.can_id, self.extended,
            self.remote, self._base_id, self.dlc, list(self._data_bits),
            list(self._crc_bits), self._crc, self._run_level,
            self._run_length, self.drive_ack_next, self.crc_ok,
            self.ack_seen, self.raw_index, self.unstuffed_index,
        )

    def restore(self, state: tuple) -> None:
        """Restore a state captured by :meth:`snapshot`."""
        (self.phase, field_bits, self.can_id, self.extended,
         self.remote, self._base_id, self.dlc, data_bits,
         crc_bits, self._crc, self._run_level,
         self._run_length, self.drive_ack_next, self.crc_ok,
         self.ack_seen, self.raw_index, self.unstuffed_index) = state
        self._field_bits = list(field_bits)
        self._data_bits = list(data_bits)
        self._crc_bits = list(crc_bits)

    # -- helpers ------------------------------------------------------------

    def _stuff_check(self, level: int) -> Optional[RxEvent]:
        """Track the run length; detect stuff bits and stuff errors.

        Returns an ERROR event for a stuff violation, an internal marker
        event for a consumed stuff bit, or None for a payload bit.
        """
        if level == self._run_level:
            self._run_length += 1
        else:
            self._run_level = level
            self._run_length = 1
            return None
        if self._run_length == STUFF_RUN + 1:
            return RxEvent(
                RxEventKind.ERROR,
                error_type=CanErrorType.STUFF,
                detail=f"six consecutive {'dominant' if level == DOMINANT else 'recessive'} "
                f"bits at raw index {self.raw_index}",
            )
        return None

    # -- main entry ----------------------------------------------------------

    def feed(self, level: int) -> RxEvent:
        """Consume one bus level; return what happened."""
        self.raw_index += 1
        self.drive_ack_next = False

        phase = self.phase
        in_stuffed = phase in _STUFFED_PHASES
        # A run of five equal bits ending on the very last CRC bit forces one
        # final stuff bit *before* the CRC delimiter (stuffing covers the CRC
        # sequence inclusive), so the expectation extends one phase further.
        if ((in_stuffed or phase is RxPhase.CRC_DELIM)
                and self._run_length == STUFF_RUN):  # a stuff bit is due
            # This bit is a stuff bit of opposite polarity; equal polarity
            # is a stuff error.
            if level == self._run_level:
                return RxEvent(
                    RxEventKind.ERROR,
                    error_type=CanErrorType.STUFF,
                    detail=f"six consecutive bits ending at raw index {self.raw_index}",
                )
            self._run_level = level
            self._run_length = 1
            return _STUFF_BIT
        if in_stuffed:
            error = self._stuff_check(level)
            if error is not None:
                return error
            self.unstuffed_index += 1
            return self._consume_unstuffed(level)

        # Fixed-form trailer: no stuffing.
        self.unstuffed_index += 1
        return self._consume_trailer(level)

    # -- field consumption ----------------------------------------------------

    def _consume_unstuffed(self, level: int) -> RxEvent:
        if self.phase in _CRC_PHASES:
            self._crc = crc15_update(self._crc, level)

        if self.phase is RxPhase.ID:
            self._field_bits.append(level)
            if len(self._field_bits) == ID_BITS:
                value = 0
                for bit in self._field_bits:
                    value = (value << 1) | bit
                self._base_id = value
                self.can_id = value
                self._field_bits = []
                self.phase = RxPhase.RTR
            return _PROGRESS

        if self.phase is RxPhase.RTR:
            # This position is the RTR of a standard frame or the SRR of an
            # extended one; the IDE bit that follows disambiguates.  A
            # recessive RTR on a standard frame marks a remote frame.
            self.remote = level == RECESSIVE
            self.phase = RxPhase.IDE
            return _PROGRESS

        if self.phase is RxPhase.IDE:
            if level == RECESSIVE:
                # Extended (29-bit) frame: 18 more identifier bits follow;
                # the bit consumed at the RTR position was the SRR.
                self.extended = True
                self.remote = False
                self.phase = RxPhase.EXT_ID
                self._field_bits = []
            else:
                self.phase = RxPhase.R0
            return _PROGRESS

        if self.phase is RxPhase.EXT_ID:
            self._field_bits.append(level)
            if len(self._field_bits) == 18:
                value = 0
                for bit in self._field_bits:
                    value = (value << 1) | bit
                self.can_id = (self._base_id << 18) | value
                self._field_bits = []
                self.phase = RxPhase.EXT_RTR
            return _PROGRESS

        if self.phase is RxPhase.EXT_RTR:
            self.remote = level == RECESSIVE
            self.phase = RxPhase.R1
            return _PROGRESS

        if self.phase is RxPhase.R1:
            self.phase = RxPhase.R0
            return _PROGRESS

        if self.phase is RxPhase.R0:
            self.phase = RxPhase.DLC
            return _PROGRESS

        if self.phase is RxPhase.DLC:
            self._field_bits.append(level)
            if len(self._field_bits) == DLC_BITS:
                value = 0
                for bit in self._field_bits:
                    value = (value << 1) | bit
                # DLC values 9..15 mean 8 bytes on the wire in classical CAN.
                self.dlc = min(value, MAX_DLC)
                self._field_bits = []
                if self.remote or self.dlc == 0:
                    # Remote frames carry no data field regardless of DLC.
                    self.phase = RxPhase.CRC
                else:
                    self.phase = RxPhase.DATA
            return _PROGRESS

        if self.phase is RxPhase.DATA:
            self._data_bits.append(level)
            assert self.dlc is not None
            if len(self._data_bits) == 8 * self.dlc:
                self.phase = RxPhase.CRC
            return _PROGRESS

        if self.phase is RxPhase.CRC:
            self._crc_bits.append(level)
            if len(self._crc_bits) == 15:
                received = 0
                for bit in self._crc_bits:
                    received = (received << 1) | bit
                self.crc_ok = received == self._crc
                self.phase = RxPhase.CRC_DELIM
            return _PROGRESS

        raise AssertionError(f"unexpected stuffed phase {self.phase}")

    def _consume_trailer(self, level: int) -> RxEvent:
        if self.phase is RxPhase.CRC_DELIM:
            if level != RECESSIVE:
                return RxEvent(
                    RxEventKind.ERROR,
                    error_type=CanErrorType.FORM,
                    detail="dominant CRC delimiter",
                )
            self.phase = RxPhase.ACK_SLOT
            # A receiver acknowledges iff the CRC matched.
            self.drive_ack_next = bool(self.crc_ok)
            return _PROGRESS

        if self.phase is RxPhase.ACK_SLOT:
            self.ack_seen = level == DOMINANT
            self.phase = RxPhase.ACK_DELIM
            return _PROGRESS

        if self.phase is RxPhase.ACK_DELIM:
            if level != RECESSIVE:
                return RxEvent(
                    RxEventKind.ERROR,
                    error_type=CanErrorType.FORM,
                    detail="dominant ACK delimiter",
                )
            # CRC errors are signalled after the ACK delimiter (ISO 11898-1).
            if not self.crc_ok:
                return RxEvent(
                    RxEventKind.ERROR,
                    error_type=CanErrorType.CRC,
                    detail="CRC mismatch",
                )
            self.phase = RxPhase.EOF
            self._field_bits = []
            return _PROGRESS

        if self.phase is RxPhase.EOF:
            if level != RECESSIVE:
                return RxEvent(
                    RxEventKind.ERROR,
                    error_type=CanErrorType.FORM,
                    detail=f"dominant bit in EOF position {len(self._field_bits)}",
                )
            self._field_bits.append(level)
            if len(self._field_bits) == EOF_BITS:
                self.phase = RxPhase.DONE
                return RxEvent(
                    RxEventKind.FRAME_COMPLETE, frame=self._build_frame()
                )
            return _PROGRESS

        raise AssertionError(f"feed() called in phase {self.phase}")

    def _build_frame(self) -> CanFrame:
        assert self.can_id is not None and self.dlc is not None
        if self.remote:
            return CanFrame(self.can_id, b"", extended=self.extended,
                            remote=True, remote_dlc=self.dlc)
        data = bytearray(self.dlc)
        for i, bit in enumerate(self._data_bits):
            if bit:
                data[i // 8] |= 1 << (7 - (i % 8))
        return CanFrame(self.can_id, bytes(data), extended=self.extended)
