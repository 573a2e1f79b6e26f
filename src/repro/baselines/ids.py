"""A reactive, frequency-based intrusion detection system baseline.

Represents the IDS row of Table I [15]-[17]: detection-only (no eradication),
frame-level (no real-time bit access), centralized.  It watches completed
frames, learns nothing in advance except the legitimate ID whitelist and the
expected per-ID minimum inter-arrival time, and raises alerts on:

* frames whose ID is not whitelisted (unknown-ID alert), and
* whitelisted IDs arriving faster than their expected period allows
  (frequency alert — the classic fabrication-attack signature).

Its purpose in this reproduction is the Table I comparison benchmark: the
same attack traces that MichiCAN stops mid-arbitration are only *logged*
here, entire frames later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from repro.can.frame import CanFrame
from repro.node.controller import CanNode


@dataclass(frozen=True)
class IdsAlert:
    """One IDS detection."""

    time: int
    can_id: int
    reason: str  # "unknown-id" | "frequency"


@dataclass
class IdsConfig:
    """Whitelist and per-ID expected minimum periods (bit times)."""

    legitimate_ids: FrozenSet[int]
    min_periods: Dict[int, int] = field(default_factory=dict)
    #: Tolerance factor: an arrival is anomalous if it comes earlier than
    #: ``min_period * tolerance`` after the previous one.
    tolerance: float = 0.5


class FrequencyIds(CanNode):
    """A passive monitoring node running the IDS (listen-only tap)."""

    def __init__(self, name: str, config: IdsConfig) -> None:
        super().__init__(name, listen_only=True)
        self.config = config
        self.alerts: List[IdsAlert] = []
        self._last_seen: Dict[int, int] = {}
        self.on_frame_received(self._inspect)

    def _inspect(self, time: int, frame: CanFrame) -> None:
        can_id = frame.can_id
        if can_id not in self.config.legitimate_ids:
            self.alerts.append(IdsAlert(time, can_id, "unknown-id"))
            return
        previous = self._last_seen.get(can_id)
        self._last_seen[can_id] = time
        if previous is None:
            return
        expected = self.config.min_periods.get(can_id)
        if expected is None:
            return
        if time - previous < expected * self.config.tolerance:
            self.alerts.append(IdsAlert(time, can_id, "frequency"))

    # ------------------------------------------------------------- queries

    def alerts_for(self, can_id: int) -> List[IdsAlert]:
        return [a for a in self.alerts if a.can_id == can_id]

    def first_alert_time(self, can_id: Optional[int] = None) -> Optional[int]:
        for alert in self.alerts:
            if can_id is None or alert.can_id == can_id:
                return alert.time
        return None
