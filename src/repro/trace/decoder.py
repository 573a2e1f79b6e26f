"""Offline wire decoding: reconstruct frames from raw bus levels.

This is what the paper's logic analyzer did on the breadboard: given only
the per-bit levels of CAN_RX, recover the frames, error frames and overload
frames.  Because it shares *no* state with the live simulator (it re-parses
the recorded waveform from scratch), it doubles as an independent
cross-check of the whole stack: every frame the event stream reports
transmitted must also be recoverable from the wire, and vice versa.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.can.constants import (
    BUS_IDLE_RECESSIVE_BITS,
    DOMINANT,
    IFS_BITS,
    RECESSIVE,
)
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError
from repro.node.rxparser import RxEventKind, RxParser


class DecodedKind(enum.Enum):
    FRAME = "frame"
    ERROR_FRAME = "error-frame"
    OVERLOAD_OR_ERROR = "overload-or-error"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class DecodedEntry:
    """One decoded occurrence on the wire.

    Attributes:
        kind: What the decoder recognised.
        start: Bit index of the SOF (or of the first dominant flag bit).
        end: Bit index one past the last bit of the occurrence.
        frame: The recovered frame for ``FRAME`` entries.
        detail: Parser error detail for error entries.
    """

    kind: DecodedKind
    start: int
    end: int
    frame: Optional[CanFrame] = None
    detail: str = ""

    @property
    def length_bits(self) -> int:
        return self.end - self.start


class WireDecoder:
    """Decodes a recorded level history into frames and error events.

    Args:
        assume_idle_at_start: Treat the first sample as preceded by a long
            recessive period (true for simulator captures, which begin at
            t=0 on an idle bus).
    """

    def __init__(self, assume_idle_at_start: bool = True) -> None:
        self.assume_idle_at_start = assume_idle_at_start

    def decode(self, levels: Sequence[int]) -> List[DecodedEntry]:
        """Decode the whole capture.

        The gap grammar matches CAN framing: while synchronized (right after
        a decoded frame or error frame) the next SOF needs only the 3-bit
        intermission; dominant activity 1-2 bits into the intermission is an
        overload condition.  When unsynchronized (start of capture without
        idle credit, or after a disturbance) the decoder waits for the full
        11-recessive idle pattern, like a controller integrating onto a
        running bus.  A level other than 0 or 1 raises
        :class:`~repro.errors.ConfigurationError`.
        """
        stray = next((index for index, level in enumerate(levels)
                      if level not in (DOMINANT, RECESSIVE)), None)
        if stray is not None:
            raise ConfigurationError(
                f"wire level {levels[stray]!r} at bit {stray} is neither "
                f"dominant (0) nor recessive (1)")
        entries: List[DecodedEntry] = []
        index = 0
        recessive_run = (
            BUS_IDLE_RECESSIVE_BITS if self.assume_idle_at_start else 0
        )
        required_gap = (
            0 if self.assume_idle_at_start else BUS_IDLE_RECESSIVE_BITS
        )
        total = len(levels)
        while index < total:
            level = levels[index]
            if level == RECESSIVE:
                recessive_run += 1
                index += 1
                continue
            if recessive_run < required_gap:
                # Dominant activity inside the gap: an overload flag (when
                # synchronized) or mid-stream noise (when not); absorb the
                # flag superposition and its delimiter, stay synchronized
                # only in the overload case.
                index = self._consume_disturbance(levels, index, entries)
                recessive_run = 0
                continue
            # SOF: parse one frame.
            index = self._consume_frame(levels, index, entries)
            recessive_run = 0
            required_gap = IFS_BITS
        return entries

    # ------------------------------------------------------------ internals

    def _consume_frame(
        self, levels: Sequence[int], sof: int, entries: List[DecodedEntry]
    ) -> int:
        parser = RxParser()
        index = sof + 1
        total = len(levels)
        while index < total:
            event = parser.feed(levels[index])
            index += 1
            if event.kind is RxEventKind.FRAME_COMPLETE:
                entries.append(DecodedEntry(
                    kind=DecodedKind.FRAME,
                    start=sof,
                    end=index,
                    frame=event.frame,
                ))
                return index
            if event.kind is RxEventKind.ERROR:
                # The frame was destroyed; absorb the error flag + delimiter.
                end = self._skip_dominant_then_recessive(levels, index)
                entries.append(DecodedEntry(
                    kind=DecodedKind.ERROR_FRAME,
                    start=sof,
                    end=end,
                    detail=event.detail,
                ))
                return end
        entries.append(DecodedEntry(
            kind=DecodedKind.TRUNCATED, start=sof, end=total,
            detail="capture ended mid-frame",
        ))
        return total

    def _consume_disturbance(
        self, levels: Sequence[int], start: int, entries: List[DecodedEntry]
    ) -> int:
        end = self._skip_dominant_then_recessive(levels, start)
        entries.append(DecodedEntry(
            kind=DecodedKind.OVERLOAD_OR_ERROR, start=start, end=end,
            detail="dominant activity without a preceding idle period",
        ))
        return end

    @staticmethod
    def _skip_dominant_then_recessive(
        levels: Sequence[int], index: int
    ) -> int:
        """Advance past flag superpositions: any dominant bits, then the
        recessive delimiter (up to 8 bits), stopping early at a dominant
        edge (the next flag or SOF)."""
        total = len(levels)
        while index < total and levels[index] == DOMINANT:
            index += 1
        recessive = 0
        while index < total and levels[index] == RECESSIVE and recessive < 8:
            recessive += 1
            index += 1
        return index


def decode_wire(
    levels: Sequence[int], assume_idle_at_start: bool = True
) -> List[DecodedEntry]:
    """Convenience wrapper around :class:`WireDecoder`."""
    return WireDecoder(assume_idle_at_start).decode(levels)


def decoded_frames(levels: Sequence[int]) -> List[CanFrame]:
    """Just the successfully transferred frames, in wire order."""
    return [
        entry.frame
        for entry in decode_wire(levels)
        if entry.kind is DecodedKind.FRAME and entry.frame is not None
    ]
