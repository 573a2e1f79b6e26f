"""The physical medium: a wired-AND CAN bus.

A dominant (0) level driven by any node overwrites recessive (1) levels from
all others — the property arbitration, ACK and error signalling all rely on.
The wire optionally records every resolved level for the logic-analyzer
substitute (:mod:`repro.trace`); recording can be bounded to a ring buffer
of the last N bits so long observed runs do not grow memory linearly.
Independently of recording, the wire keeps exact occupancy counters
(``total_bits`` / ``dominant_bits``) so bus load is always O(1) to read.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Iterable, MutableSequence, Optional, Sequence

from repro.can.constants import DOMINANT, RECESSIVE


def resolve(levels: Iterable[int]) -> int:
    """Resolve simultaneous drive levels with wired-AND semantics.

    An empty collection yields the idle (recessive) level.
    """
    for level in levels:
        if level == DOMINANT:
            return DOMINANT
        if level != RECESSIVE:
            raise ValueError(f"invalid drive level {level!r}")
    return RECESSIVE


class Wire:
    """A CAN bus segment with optional (optionally bounded) level recording.

    Args:
        record: Keep the resolved per-bit level history.
        max_history: When set, keep only the last ``max_history`` bits (a
            ring buffer); older bits are dropped and counted in
            :attr:`dropped_bits`.  Unbounded (a plain list) when None.

    Attributes:
        history: Resolved levels when recording is on — a list covering all
            of t=0.. when unbounded, a deque covering the trailing window
            when bounded.
        total_bits: Bits resolved since construction (recording or not).
        dominant_bits: How many of those resolved dominant.
    """

    def __init__(self, record: bool = True,
                 max_history: Optional[int] = None) -> None:
        if max_history is not None and max_history <= 0:
            raise ValueError(
                f"max_history must be positive, got {max_history}")
        self.record = record
        self.max_history = max_history
        self.history: MutableSequence[int]
        if record and max_history is not None:
            self.history = deque(maxlen=max_history)
        else:
            self.history = []
        self.total_bits = 0
        self.dominant_bits = 0
        self._level = RECESSIVE

    @property
    def level(self) -> int:
        """The most recently resolved bus level."""
        return self._level

    @property
    def dropped_bits(self) -> int:
        """Recorded bits evicted by the bounded window (0 when unbounded
        or recording is off)."""
        if not self.record:
            return 0
        return self.total_bits - len(self.history)

    def dominant_fraction(self) -> float:
        """Fraction of all resolved bits that were dominant — exact over
        the whole run even when the history window is bounded or off."""
        if not self.total_bits:
            return 0.0
        return self.dominant_bits / self.total_bits

    def drive(self, levels: Iterable[int]) -> int:
        """Resolve one bit time of simultaneous drives; record and return it."""
        level = resolve(levels)
        self._level = level
        self.total_bits += 1
        if level == DOMINANT:
            self.dominant_bits += 1
        if self.record:
            self.history.append(level)
        return level

    def extend_history(self, levels: "Sequence[int]", dominant: int) -> None:
        """Batch-append pre-resolved levels (the fast-forward commit path).

        The caller has already resolved every bit of an uncontended span
        (wired-AND over all drivers) and counted its dominant levels;
        counters, :attr:`level` and the recorded history end up exactly as
        if :meth:`drive` had run once per bit.
        """
        count = len(levels)
        if not count:
            return
        self.total_bits += count
        self.dominant_bits += dominant
        self._level = levels[-1]
        if self.record:
            self.history.extend(levels)

    def extend_recessive(self, count: int) -> None:
        """Batch-append ``count`` recessive (idle) bits."""
        if count <= 0:
            return
        self.total_bits += count
        self._level = RECESSIVE
        if self.record:
            self.history.extend(repeat(RECESSIVE, count))

    def _override_level(self, level: int) -> int:
        """Replace the most recently resolved level (fault injection).

        Keeps the O(1) occupancy counters and the recorded history
        consistent with the corrupted level, so ``dominant_fraction()``
        and :mod:`repro.trace` see what the nodes see.
        """
        if level not in (DOMINANT, RECESSIVE):
            raise ValueError(f"invalid override level {level!r}")
        if not self.total_bits:
            raise ValueError("no resolved bit to override yet")
        if level == self._level:
            return level
        if self._level == DOMINANT:
            self.dominant_bits -= 1
        else:
            self.dominant_bits += 1
        self._level = level
        if self.record:
            self.history[-1] = level
        return level

    def recessive_run_ending_at(self, time: Optional[int] = None) -> int:
        """Length of the recessive run ending at ``time`` (default: now).

        With a bounded window the run is measured within the window only
        (it cannot see evicted bits); asking about a time before the window
        start raises.
        """
        if not self.record:
            raise ValueError("wire recording is disabled")
        dropped = self.dropped_bits
        end = self.total_bits if time is None else time + 1
        end -= dropped
        if end < 0:
            raise ValueError(
                f"time {time} precedes the recorded window "
                f"(first recorded bit is t={dropped})")
        run = 0
        for index in range(end - 1, -1, -1):
            if self.history[index] != RECESSIVE:
                break
            run += 1
        return run
