"""Bit-level serialization of CAN frames: field layout and bit stuffing.

The serializer produces, for a :class:`~repro.can.frame.CanFrame`, the exact
sequence of bus levels a compliant transmitter drives, together with a
per-bit annotation (which field, whether it is a stuff bit).  The controller
uses the annotations to distinguish *arbitration* (where losing is not an
error) from the body (where a mismatch is a bit error), and to find the ACK
slot where the transmitter itself drives recessive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.can.constants import (
    DOMINANT,
    EOF_BITS,
    RECESSIVE,
    STUFF_RUN,
)
from repro.can.crc import crc15_bits
from repro.can.frame import CanFrame
from repro.errors import FrameError


class Field(enum.Enum):
    """Fields of CAN 2.0A/2.0B data frames in wire order."""

    # Identity hash: members are singletons compared by identity, and the
    # per-bit dispatch/membership tests hash them millions of times.
    __hash__ = object.__hash__

    SOF = "sof"
    ID = "id"                # base identifier (11 bits)
    SRR = "srr"              # substitute remote request (extended only)
    EXT_ID = "ext_id"        # identifier extension (18 bits, extended only)
    RTR = "rtr"
    IDE = "ide"
    R1 = "r1"                # reserved bit 1 (extended only)
    R0 = "r0"
    DLC = "dlc"
    DATA = "data"
    CRC = "crc"
    CRC_DELIM = "crc_delim"
    ACK_SLOT = "ack_slot"
    ACK_DELIM = "ack_delim"
    EOF = "eof"


#: Fields subject to bit stuffing (SOF through CRC sequence).
STUFFED_FIELDS = frozenset({
    Field.SOF, Field.ID, Field.SRR, Field.EXT_ID, Field.RTR, Field.IDE,
    Field.R1, Field.R0, Field.DLC, Field.DATA, Field.CRC,
})

#: Fields during which losing the bus to a dominant level is *arbitration*,
#: not a bit error.  For standard frames that is the identifier and the RTR;
#: extended frames additionally arbitrate through SRR, IDE and the 18-bit
#: extension (a standard frame's dominant RTR/IDE beats them — "standard
#: wins over extended on equal base IDs").
ARBITRATION_FIELDS = frozenset(
    {Field.ID, Field.SRR, Field.IDE, Field.EXT_ID, Field.RTR}
)

#: Arbitration fields located before the (real) RTR bit: a dominant
#: overwrite of a recessive *stuff* bit here is the ISO no-TEC exception.
PRE_RTR_ARBITRATION_FIELDS = frozenset(
    {Field.ID, Field.SRR, Field.IDE, Field.EXT_ID}
)


@dataclass(frozen=True)
class WireBit:
    """One bit of the stuffed wire-level stream.

    Attributes:
        level: 0 (dominant) or 1 (recessive).
        field: Frame field this bit belongs to (stuff bits inherit the field
            of the run they terminate).
        is_stuff: True if this is an inserted stuff bit.
        unstuffed_index: Index of this bit in the *un-stuffed* frame, counted
            from SOF = 0.  Stuff bits carry the index of the preceding real
            bit.
    """

    level: int
    field: Field
    is_stuff: bool
    unstuffed_index: int


def unstuffed_frame_bits(frame: CanFrame) -> List[Tuple[int, Field]]:
    """Return the un-stuffed (level, field) sequence for a data frame.

    The CRC is computed here, over SOF..DATA, as the transmitter would.
    The ACK slot is recessive from the transmitter's point of view.
    Standard layout: SOF, ID(11), RTR, IDE(d), r0, DLC, ...
    Extended layout: SOF, base ID(11), SRR(r), IDE(r), ext ID(18), RTR,
    r1, r0, DLC, ...
    """
    rtr_level = RECESSIVE if frame.remote else DOMINANT
    bits: List[Tuple[int, Field]] = [(DOMINANT, Field.SOF)]
    if frame.extended:
        bits.extend((b, Field.ID) for b in frame.base_id_bits())
        bits.append((RECESSIVE, Field.SRR))
        bits.append((RECESSIVE, Field.IDE))
        bits.extend((b, Field.EXT_ID) for b in frame.extension_id_bits())
        bits.append((rtr_level, Field.RTR))
        bits.append((DOMINANT, Field.R1))
    else:
        bits.extend((b, Field.ID) for b in frame.id_bits())
        bits.append((rtr_level, Field.RTR))
        bits.append((DOMINANT, Field.IDE))  # standard (11-bit) frame
    bits.append((DOMINANT, Field.R0))
    bits.extend((b, Field.DLC) for b in frame.dlc_bits())
    if not frame.remote:
        bits.extend((b, Field.DATA) for b in frame.data_bits())
    crc = crc15_bits([level for level, _field in bits])
    bits.extend((b, Field.CRC) for b in crc)
    bits.append((RECESSIVE, Field.CRC_DELIM))
    bits.append((RECESSIVE, Field.ACK_SLOT))
    bits.append((RECESSIVE, Field.ACK_DELIM))
    bits.extend((RECESSIVE, Field.EOF) for _ in range(EOF_BITS))
    return bits


def stuff(levels_and_fields: Sequence[Tuple[int, Field]]) -> List[WireBit]:
    """Insert stuff bits into the stuffed region of an un-stuffed sequence.

    After :data:`~repro.can.constants.STUFF_RUN` consecutive equal levels
    within the stuffed region, a bit of opposite polarity is inserted.  The
    inserted bit itself participates in subsequent run counting, per ISO
    11898-1.
    """
    wire: List[WireBit] = []
    run_level = -1
    run_length = 0
    for index, (level, fld) in enumerate(levels_and_fields):
        in_stuffed_region = fld in STUFFED_FIELDS
        wire.append(WireBit(level, fld, False, index))
        if not in_stuffed_region:
            run_length = 0
            run_level = -1
            continue
        if level == run_level:
            run_length += 1
        else:
            run_level = level
            run_length = 1
        if run_length == STUFF_RUN:
            stuff_level = RECESSIVE if level == DOMINANT else DOMINANT
            wire.append(WireBit(stuff_level, fld, True, index))
            run_level = stuff_level
            run_length = 1
    return wire


def serialize_frame(frame: CanFrame) -> List[WireBit]:
    """Serialize ``frame`` to its stuffed wire-level bit sequence.

    The result covers SOF through the last EOF bit.  Intermission is bus
    state, not part of the frame, and is handled by the controller.
    """
    return stuff(unstuffed_frame_bits(frame))


#: Bounded memo for :func:`serialize_frame_cached`; keyed by the (frozen,
#: hashable) frame itself.  256 distinct frames covers every workload in the
#: repo with room to spare while bounding memory for adversarial ID sweeps.
_SERIALIZE_CACHE: dict = {}
_SERIALIZE_CACHE_MAX = 256


def serialize_frame_cached(frame: CanFrame) -> List[WireBit]:
    """Memoized :func:`serialize_frame` for hot retransmission paths.

    A flooding attacker re-serializes the same frame on every one of its
    ~32 (re)transmission attempts per bus-off cycle, and the fast-forward
    engine needs a *stable* stream object per frame so its per-stream plans
    (level prefix sums, parser snapshots) can be reused across attempts.
    Callers must treat the returned list as immutable.
    """
    stream = _SERIALIZE_CACHE.get(frame)
    if stream is None:
        stream = serialize_frame(frame)
        if len(_SERIALIZE_CACHE) >= _SERIALIZE_CACHE_MAX:
            # Value-deterministic FIFO memo: entries are pure functions of
            # the frame, so worker results never depend on cache state.
            _SERIALIZE_CACHE.pop(next(iter(_SERIALIZE_CACHE)))  # repro: noqa[RC302]
        _SERIALIZE_CACHE[frame] = stream  # repro: noqa[RC302]
    return stream


def frame_wire_length(frame: CanFrame) -> int:
    """Total number of wire bits (including stuff bits) for ``frame``."""
    return len(serialize_frame(frame))


def stuff_bit_count(frame: CanFrame) -> int:
    """Number of stuff bits inserted when transmitting ``frame``."""
    return sum(1 for bit in serialize_frame(frame) if bit.is_stuff)


def destuff(levels: Sequence[int]) -> List[int]:
    """Remove stuff bits from a raw level sequence of the *stuffed region*.

    This is a convenience used by tests and by trace decoding; the online
    (incremental) destuffer used by receivers lives in
    :mod:`repro.node.rxparser`.

    Raises:
        FrameError: if six consecutive equal levels are found (a stuff error
            on a real bus) or a stuff bit has the wrong polarity.
    """
    out: List[int] = []
    run_level = -1
    run_length = 0
    expect_stuff = False
    for position, level in enumerate(levels):
        if level not in (0, 1):
            raise FrameError(f"invalid bus level {level!r} at position {position}")
        if expect_stuff:
            if level == run_level:
                raise FrameError(
                    f"stuff error: six consecutive {level}s ending at position {position}"
                )
            run_level = level
            run_length = 1
            expect_stuff = False
            continue
        out.append(level)
        if level == run_level:
            run_length += 1
        else:
            run_level = level
            run_length = 1
        if run_length == STUFF_RUN:
            expect_stuff = True
    return out


def max_stuff_bits(dlc: int, extended: bool = False) -> int:
    """Analytic upper bound on stuff bits for a frame with ``dlc`` data bytes.

    The stuffed region is 34 + 8*dlc bits long for standard frames (SOF..CRC)
    and 54 + 8*dlc for extended ones; the classic worst case inserts one
    stuff bit per 4 bits after the first run of 5.
    """
    if not 0 <= dlc <= 8:
        raise FrameError(f"DLC must be 0..8, got {dlc}")
    region = (54 if extended else 34) + 8 * dlc
    return (region - 1) // 4
