"""Logic-analyzer substitute: per-bit level capture and waveform utilities.

The hardware evaluation used a logic analyzer on the breadboard to measure
bus-off times and visualise patterns like Fig. 6.  Here the wire records
every resolved level; this module turns that history into edges, segments
and printable waveforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence

from repro.can.constants import DOMINANT, RECESSIVE

#: Maximal equal-level runs of a 0/1 byte string.
_RUNS = re.compile(rb"\x00+|\x01+")


@dataclass(frozen=True)
class Edge:
    """A level transition at ``time`` (the first bit with the new level)."""

    time: int
    rising: bool  # True: dominant -> recessive


@dataclass(frozen=True)
class Segment:
    """A maximal run of one level: [start, start + length)."""

    start: int
    length: int
    level: int

    @property
    def end(self) -> int:
        return self.start + self.length


class LogicTrace:
    """Waveform analysis over a recorded level history."""

    def __init__(self, history: Sequence[int]) -> None:
        self.history = list(history)

    def __len__(self) -> int:
        return len(self.history)

    def _levels(self, start: int, end: int) -> bytes:
        """``history[start:end]`` as a byte string, so runs are scanned in C.

        The window must lie inside the history (IndexError otherwise) and
        hold only 0/1 levels (ValueError otherwise).
        """
        history = self.history
        if start < 0 or end > len(history):
            raise IndexError(f"window [{start}, {end}) is outside the "
                             f"{len(history)}-bit history")
        data = bytes(history if start == 0 and end == len(history)
                     else islice(history, start, end))
        if data.strip(b"\x00\x01"):
            raise ValueError("levels must be 0 (dominant) or 1 (recessive)")
        return data

    def edges(self, start: int = 0, end: Optional[int] = None) -> List[Edge]:
        """All level transitions in [start, end)."""
        end = len(self.history) if end is None else end
        result = []
        for t in range(max(start, 1), end):
            prev, cur = self.history[t - 1], self.history[t]
            if prev != cur:
                result.append(Edge(time=t, rising=cur == RECESSIVE))
        return result

    def segments(self, start: int = 0, end: Optional[int] = None) -> List[Segment]:
        """Maximal equal-level runs in [start, end)."""
        end = len(self.history) if end is None else end
        if start >= end:
            return []
        history = self.history
        return [Segment(start + match.start(), match.end() - match.start(),
                        history[start + match.start()])
                for match in _RUNS.finditer(self._levels(start, end))]

    def dominant_fraction(self, start: int = 0, end: Optional[int] = None) -> float:
        """Fraction of bits that are dominant in [start, end) — a direct
        utilisation measure (idle bus == all recessive)."""
        end = len(self.history) if end is None else end
        window = self.history[start:end]
        if not window:
            return 0.0
        return sum(1 for level in window if level == DOMINANT) / len(window)

    def busy_fraction(self, frame_gap: int = 11,
                      start: int = 0, end: Optional[int] = None) -> float:
        """Fraction of time the bus is *occupied* (not in an idle run).

        A recessive run of at least ``frame_gap`` bits counts as idle; all
        other bits (frames, error frames, short gaps) count as busy.  This is
        the measured analogue of the paper's bus-load formula in Sec. V-E.
        """
        end = len(self.history) if end is None else end
        total = end - start
        if total <= 0:
            return 0.0
        # Each match is one maximal recessive run of >= frame_gap bits.
        runs = re.finditer(rb"\x01{%d,}" % max(frame_gap, 1),
                           self._levels(start, end))
        idle = sum(match.end() - match.start() - frame_gap for match in runs)
        return max(0.0, 1.0 - idle / total)

    def longest_recessive_run(self, start: int = 0, end: Optional[int] = None) -> int:
        runs = [s.length for s in self.segments(start, end)
                if s.level == RECESSIVE]
        return max(runs, default=0)

    def render(self, start: int = 0, end: Optional[int] = None,
               width: int = 80) -> str:
        """ASCII waveform: one character per bit, wrapped at ``width``.

        Dominant bits print as ``_``, recessive as ``^`` — matching the
        physical levels (dominant pulls the differential pair apart, the
        digital RX line low).
        """
        end = len(self.history) if end is None else end
        chars = "".join(
            "_" if level == DOMINANT else "^" for level in self.history[start:end]
        )
        lines = []
        for offset in range(0, len(chars), width):
            lines.append(f"{start + offset:>8} {chars[offset:offset + width]}")
        return "\n".join(lines)
