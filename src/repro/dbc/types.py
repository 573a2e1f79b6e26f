"""Communication-matrix types: messages and signals, OpenDBC-style.

The paper relies on public communication matrices (OpenDBC [48]) both for
the unique-transmitter assumption in Sec. IV-A and to find the ParkSense IDs
for the on-vehicle attack in Sec. V-F.  This module models the subset needed:
messages with a unique transmitter, a period, and packed physical signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.can.constants import MAX_DLC, MAX_STD_ID
from repro.errors import DbcError


@dataclass(frozen=True)
class Signal:
    """A physical signal packed into a message payload.

    Attributes:
        name: Signal name, unique within its message.
        start_bit: Bit offset of the LSB within the payload (0 = byte 0,
            bit 0, little-endian/Intel layout; the only layout the codec
            implements, which covers the vehicles modelled here).
        length: Width in bits (1..64).
        scale: Physical = raw * scale + offset.
        offset: See ``scale``.
        minimum / maximum: Physical range (informational).
        unit: Physical unit label.
    """

    name: str
    start_bit: int
    length: int
    scale: float = 1.0
    offset: float = 0.0
    minimum: float = 0.0
    maximum: float = 0.0
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise DbcError("signal name must be non-empty")
        if not 1 <= self.length <= 64:
            raise DbcError(f"signal {self.name}: length {self.length} out of range")
        if self.start_bit < 0 or self.start_bit + self.length > 8 * MAX_DLC:
            raise DbcError(
                f"signal {self.name}: bits [{self.start_bit}, "
                f"{self.start_bit + self.length}) exceed an 8-byte payload"
            )

    @property
    def raw_max(self) -> int:
        return (1 << self.length) - 1


@dataclass(frozen=True)
class Message:
    """A CAN message definition: one row of the communication matrix.

    Attributes:
        can_id: The (unique) identifier.
        name: Message name.
        dlc: Payload length in bytes.
        transmitter: The single ECU allowed to emit this ID (Sec. IV-A).
        period_ms: Cycle time in milliseconds; 0 for event-triggered.
        signals: Packed signals.
    """

    can_id: int
    name: str
    dlc: int
    transmitter: str
    period_ms: float = 0.0
    signals: Tuple[Signal, ...] = field(default=())

    def __post_init__(self) -> None:
        if not 0 <= self.can_id <= MAX_STD_ID:
            raise DbcError(f"message {self.name}: CAN ID 0x{self.can_id:X} invalid")
        if not 0 <= self.dlc <= MAX_DLC:
            raise DbcError(f"message {self.name}: DLC {self.dlc} invalid")
        names = [s.name for s in self.signals]
        if len(set(names)) != len(names):
            raise DbcError(f"message {self.name}: duplicate signal names")
        for signal in self.signals:
            if signal.start_bit + signal.length > 8 * self.dlc:
                raise DbcError(
                    f"signal {signal.name} does not fit into "
                    f"{self.dlc}-byte message {self.name}"
                )

    def signal(self, name: str) -> Signal:
        for candidate in self.signals:
            if candidate.name == name:
                return candidate
        raise DbcError(f"message {self.name} has no signal {name!r}")

    def period_bits(self, bus_speed: int) -> int:
        """Cycle time converted to bit times at ``bus_speed``."""
        if self.period_ms <= 0:
            raise DbcError(f"message {self.name} is event-triggered")
        return max(1, round(self.period_ms * 1e-3 * bus_speed))


@dataclass(frozen=True)
class CommunicationMatrix:
    """A bus database: messages keyed by ID, each with a unique transmitter."""

    name: str
    messages: Tuple[Message, ...]

    def __post_init__(self) -> None:
        ids = [m.can_id for m in self.messages]
        if len(set(ids)) != len(ids):
            raise DbcError(f"matrix {self.name}: duplicate CAN IDs")

    def __len__(self) -> int:
        return len(self.messages)

    def by_id(self, can_id: int) -> Message:
        for message in self.messages:
            if message.can_id == can_id:
                return message
        raise DbcError(f"matrix {self.name}: no message with ID 0x{can_id:X}")

    def by_name(self, name: str) -> Message:
        for message in self.messages:
            if message.name == name:
                return message
        raise DbcError(f"matrix {self.name}: no message named {name!r}")

    def transmitters(self) -> Dict[str, List[Message]]:
        """ECU name -> messages it emits."""
        result: Dict[str, List[Message]] = {}
        for message in self.messages:
            result.setdefault(message.transmitter, []).append(message)
        return result

    def ecu_ids(self) -> List[int]:
        """One representative (lowest) CAN ID per transmitting ECU — the 𝔼
        MichiCAN's configuration derives from the matrix."""
        lowest: Dict[str, int] = {}
        for message in self.messages:
            current = lowest.get(message.transmitter)
            if current is None or message.can_id < current:
                lowest[message.transmitter] = message.can_id
        return sorted(lowest.values())

    def all_ids(self) -> List[int]:
        return sorted(m.can_id for m in self.messages)

    def periodic_messages(self) -> List[Message]:
        return [m for m in self.messages if m.period_ms > 0]
