"""Vehicle feature availability model.

Safety features degrade when their CAN inputs stop arriving: receivers run
per-message timeout supervision and latch a fault when a required message
misses its deadline repeatedly.  This is the mechanism behind the paper's
on-vehicle result — the DoS starves the park-assist messages until the
cluster shows "PARKSENSE UNAVAILABLE SERVICE REQUIRED" — and behind its
recovery once MichiCAN buses the attacker off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.can.frame import CanFrame


class FeatureState(enum.Enum):
    """Availability of a vehicle feature."""

    INITIALIZING = "initializing"
    AVAILABLE = "available"
    UNAVAILABLE = "unavailable"


@dataclass(frozen=True)
class FeatureTransition:
    time: int
    old_state: FeatureState
    new_state: FeatureState
    reason: str = ""


@dataclass
class MessageSupervision:
    """Timeout supervision of one required input message."""

    can_id: int
    timeout_bits: int
    last_seen: Optional[int] = None

    def healthy(self, now: int) -> bool:
        if self.last_seen is None:
            return False
        return now - self.last_seen <= self.timeout_bits


class VehicleFeature:
    """A feature that requires periodic CAN inputs to stay available.

    Wire :meth:`on_frame` to a receiving node's frame callback and call
    :meth:`poll` periodically (e.g. from a simulator event loop or at the
    end of a run with intermediate polls).
    """

    def __init__(
        self,
        name: str,
        supervised: Sequence[MessageSupervision],
        unavailable_message: str = "FEATURE UNAVAILABLE",
    ) -> None:
        if not supervised:
            raise ValueError(f"feature {name!r} must supervise at least one ID")
        self.name = name
        self.supervised: Dict[int, MessageSupervision] = {
            s.can_id: s for s in supervised
        }
        self.unavailable_message = unavailable_message
        self.state = FeatureState.INITIALIZING
        self.transitions: List[FeatureTransition] = []
        self.dashboard: List[str] = []

    # -------------------------------------------------------------- inputs

    def on_frame(self, time: int, frame: CanFrame) -> None:
        supervision = self.supervised.get(frame.can_id)
        if supervision is not None:
            supervision.last_seen = time

    def poll(self, now: int) -> FeatureState:
        """Re-evaluate availability at time ``now``."""
        all_healthy = all(s.healthy(now) for s in self.supervised.values())
        if all_healthy:
            self._transition(now, FeatureState.AVAILABLE, "all inputs healthy")
        elif self.state is FeatureState.AVAILABLE:
            starving = [
                f"0x{s.can_id:03X}" for s in self.supervised.values()
                if not s.healthy(now)
            ]
            self._transition(
                now, FeatureState.UNAVAILABLE,
                f"missing inputs: {', '.join(starving)}",
            )
            self.dashboard.append(self.unavailable_message)
        return self.state

    def _transition(self, time: int, new_state: FeatureState, reason: str) -> None:
        if new_state is self.state:
            return
        self.transitions.append(
            FeatureTransition(time, self.state, new_state, reason)
        )
        self.state = new_state

    # ------------------------------------------------------------- queries

    @property
    def available(self) -> bool:
        return self.state is FeatureState.AVAILABLE

    def downtime_windows(self) -> List[tuple]:
        """(start, end) pairs of unavailability; end None if ongoing."""
        windows = []
        start: Optional[int] = None
        for transition in self.transitions:
            if transition.new_state is FeatureState.UNAVAILABLE:
                start = transition.time
            elif start is not None and transition.new_state is FeatureState.AVAILABLE:
                windows.append((start, transition.time))
                start = None
        if start is not None:
            windows.append((start, None))
        return windows
