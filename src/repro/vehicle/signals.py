"""Signal-level supervision: decoded physical values off the bus.

Features like ParkSense do not consume raw frames — they consume *signals*
(distances, speeds, states) decoded through the communication matrix.  This
module closes that loop on the simulator: a :class:`SignalMonitor` attached
to a receiving node keeps the latest physical value of each watched signal,
flags range violations and staleness, and feeds feature logic with the same
view a production VHAL would provide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.can.frame import CanFrame
from repro.dbc.codec import decode_message
from repro.dbc.types import CommunicationMatrix
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SignalWatch:
    """One supervised signal.

    Attributes:
        message_id: CAN ID carrying the signal.
        signal: Signal name within that message.
        minimum / maximum: Plausibility range; decoded values outside it are
            recorded as violations (sensor fault or fabricated data).
        stale_after_bits: Value age (bit times) after which :meth:`value`
            reports None.
    """

    message_id: int
    signal: str
    minimum: float = float("-inf")
    maximum: float = float("inf")
    stale_after_bits: int = 1_000_000


@dataclass
class SignalSample:
    value: float
    time: int


@dataclass(frozen=True)
class SignalViolation:
    time: int
    message_id: int
    signal: str
    value: float


class SignalMonitor:
    """Decodes watched signals from received frames and supervises them."""

    def __init__(
        self,
        matrix: CommunicationMatrix,
        watches: List[SignalWatch],
        on_violation: Optional[Callable[[SignalViolation], None]] = None,
    ) -> None:
        self.matrix = matrix
        self.watches: Dict[Tuple[int, str], SignalWatch] = {}
        for watch in watches:
            message = matrix.by_id(watch.message_id)  # validates existence
            message.signal(watch.signal)
            self.watches[(watch.message_id, watch.signal)] = watch
        self._samples: Dict[Tuple[int, str], SignalSample] = {}
        self.violations: List[SignalViolation] = []
        self._on_violation = on_violation
        self._watched_ids = {w.message_id for w in watches}

    # -------------------------------------------------------------- ingest

    def on_frame(self, time: int, frame: CanFrame) -> None:
        """Wire to a receiving node's frame callback."""
        if frame.can_id not in self._watched_ids or frame.remote:
            return
        message = self.matrix.by_id(frame.can_id)
        if len(frame.data) < message.dlc:
            return  # malformed; the parser/CRC normally prevents this
        decoded = decode_message(message, frame.data)
        for (message_id, signal), watch in self.watches.items():
            if message_id != frame.can_id:
                continue
            value = decoded[signal]
            self._samples[(message_id, signal)] = SignalSample(value, time)
            if not watch.minimum <= value <= watch.maximum:
                violation = SignalViolation(time, message_id, signal, value)
                self.violations.append(violation)
                if self._on_violation is not None:
                    self._on_violation(violation)

    # ------------------------------------------------------------- queries

    def value(self, message_id: int, signal: str,
              now: Optional[int] = None) -> Optional[float]:
        """Latest plausible value, or None if never seen / stale."""
        key = (message_id, signal)
        if key not in self.watches:
            raise ConfigurationError(f"signal {signal!r} is not watched")
        sample = self._samples.get(key)
        if sample is None:
            return None
        watch = self.watches[key]
        if now is not None and now - sample.time > watch.stale_after_bits:
            return None
        return sample.value

    def age(self, message_id: int, signal: str, now: int) -> Optional[int]:
        sample = self._samples.get((message_id, signal))
        return None if sample is None else now - sample.time

    def all_fresh(self, now: int) -> bool:
        """True if every watched signal has a fresh, seen value."""
        return all(
            self.value(message_id, signal, now) is not None
            for message_id, signal in self.watches
        )
