"""Parrot: the closest prior work, reimplemented as a comparison baseline.

Parrot (Dagan & Wool [18]) is a software-only anti-spoofing defense: each ECU
watches the bus for complete frames carrying its own CAN ID and, from the
*second* instance on, launches a counterattack — flooding the bus with
frames that carry the same ID and a dominant-biased payload, hoping to start
simultaneously with the attacker's retransmissions so the payload divergence
bit-errors the attacker toward bus-off.

The properties the MichiCAN paper criticises, all modelled here:

* **Frame-level detection**: Parrot only sees complete frames, so the first
  attack instance always goes through undisturbed (detection delay >= one
  full frame + one inter-frame gap).
* **No bit-level synchronization**: the application cannot align its frame
  start to the attacker's SOF; we model this as a bounded random start
  latency after bus idle (seeded, deterministic), so collisions are
  probabilistic ("brute-force fashion").
* **Bus flooding**: while armed, Parrot keeps its transmit queue saturated —
  bus load approaches 100 % (the paper: 125/128 ~ 97.7 % overhead).
* **Self-inflicted errors**: a collision bit-errors Parrot too (the
  attacker's error flag lands on one of Parrot's recessive stuff bits), so
  Parrot's TEC rises alongside the attacker's.  Like the original system it
  survives by *resetting its CAN controller* when the TEC approaches
  error-passive — re-initialisation clears the error counters without
  transmitting anything (bus-off avoidance).
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, Optional

from repro.can.constants import DOMINANT
from repro.can.frame import CanFrame
from repro.node.controller import CanNode, ControllerState


class ParrotNode(CanNode):
    """An ECU running the Parrot defense.

    Args:
        name: Node name.
        detection_ids: IDs to defend (the ECU's own IDs; the MichiCAN paper
            notes Parrot "can effectively be used" against DoS by listing
            non-legitimate IDs too, which Experiment comparisons do).
        max_start_latency: Upper bound, in bit times, of the random delay
            between bus-idle and Parrot's frame start — the application/
            driver latency that prevents deterministic collision.  0 makes
            Parrot perfectly synchronized (ablation).
        disarm_timeout_bits: Stop flooding this long after the last observed
            attack instance.
        tec_guard: Reset the controller (clearing TEC/REC) once the own
            TEC exceeds this — Parrot's bus-off avoidance.
        seed: RNG seed for the start latency.
    """

    def __init__(
        self,
        name: str,
        detection_ids: Iterable[int],
        max_start_latency: int = 16,
        disarm_timeout_bits: int = 2_000,
        tec_guard: int = 96,
        seed: int = 0,
    ) -> None:
        super().__init__(name)
        self.detection_ids: FrozenSet[int] = frozenset(detection_ids)
        self.max_start_latency = max_start_latency
        self.disarm_timeout_bits = disarm_timeout_bits
        self.tec_guard = tec_guard
        self._rng = random.Random(seed)

        self.armed_until: Optional[int] = None
        self.flood_id: Optional[int] = None
        self.detections = 0
        self.counter_frames_sent = 0
        self.controller_resets = 0
        self._start_delay = 0

        self.on_frame_received(self._inspect_frame)

    # --------------------------------------------------------------- defense

    def _inspect_frame(self, time: int, frame: CanFrame) -> None:
        if frame.can_id in self.detection_ids:
            if self.armed_until is None:
                self.detections += 1
            self.armed_until = time + self.disarm_timeout_bits
            self.flood_id = frame.can_id

    @property
    def is_armed(self) -> bool:
        return self.armed_until is not None

    def _flood_tick(self, time: int) -> None:
        if self.armed_until is not None and time > self.armed_until:
            self.armed_until = None
            self.flood_id = None
            if not self.is_transmitting:
                # Drop queued counter-frames; an in-flight one finishes.
                self.queue.clear()
            return
        if self.armed_until is None or self.flood_id is None:
            return
        if self.faults.tec > self.tec_guard and not self.is_transmitting:
            # Bus-off avoidance: re-initialise the CAN controller, which
            # clears the error counters (the counterattack continues).
            self.faults.tec = 0
            self.faults.rec = 0
            self.controller_resets += 1
        if not self.queue.has_pending:
            # Dominant-biased payload: the attacker's recessive data bits
            # lose the wired-AND and bit-error the attacker.
            self.queue.enqueue(CanFrame(self.flood_id, bytes(8)), time)
            self.counter_frames_sent += 1

    # ------------------------------------------------------------- bit cycle

    def output(self, time: int) -> int:
        self._flood_tick(time)
        return super().output(time)

    def _enter_idle_maybe_start(self) -> None:
        # Model the unsynchronized application: each transmission opportunity
        # begins after a random extra latency, during which another node
        # (e.g. the attacker's retransmission) may grab the bus.
        self.state = ControllerState.IDLE
        if self.queue.has_pending:
            if self.max_start_latency > 0:
                self._start_delay = self._rng.randrange(self.max_start_latency + 1)
            else:
                self._start_delay = 0
            if self._start_delay == 0:
                self._start_tx_next = True

    def _observe_idle(self, time: int, level: int) -> None:
        if level == DOMINANT:
            self._start_receiving(time)
            return
        if self.queue.has_pending:
            if self._start_delay > 0:
                self._start_delay -= 1
                return
            self._start_tx_next = True
