"""The MichiCAN firmware: a faithful port of Algorithm 1 (Sec. IV-D/IV-E).

:class:`MichiCanFirmware` is the software that runs in the main timer
interrupt of the defended ECU.  Per bus bit it:

1. waits for SOF — the first dominant bit after at least 11 recessive bits
   (Algorithm 1 lines 24-31),
2. tracks the raw bit position, removes stuff bits, and feeds un-stuffed ID
   bits to the detection FSM (lines 3-15), stopping the FSM once a verdict
   exists to save CPU cycles (line 11),
3. if the frame was flagged, enables CAN_TX multiplexing at un-stuffed frame
   position 13 (the RTR bit) and pulls the bus dominant for the next six bit
   times (lines 20-23), releasing afterwards (lines 16-19).

Deviations from the paper's pseudo-code, kept deliberately small and
documented (see DESIGN.md):

* Stuff-bit bookkeeping uses the raw consecutive-level run (including the
  stuff bits themselves), which is the rule actual controllers implement;
  the pseudo-code's ``stuff`` counter mis-tracks one corner case where the
  bit following a stuff bit has the stuff bit's polarity.
* Observing six equal bits outside our own counterattack means an error
  frame is on the bus; the firmware abandons the frame and re-arms SOF
  detection rather than continuing to count (the pseudo-code silently
  swallows the condition; behaviour converges at the next 11-recessive run).
* The counterattack duration is counted in raw bit times (exactly six, per
  Sec. IV-E "MichiCAN needs to make sure to inject 6 dominant bits") instead
  of re-deriving it from the stuffed ``cnt``, which our own dominant pulse
  would distort.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.can.constants import (
    BUS_IDLE_RECESSIVE_BITS,
    DOMINANT,
    RECESSIVE,
)
from repro.core.fsm import DetectionFsm, FsmRunner, Verdict
from repro.core.pinmux import PinMux

#: Un-stuffed frame position of the RTR bit with SOF counted as position 1
#: (Algorithm 1: ``cnt == 13``).
ATTACK_TRIGGER_POSITION = 13
#: Number of raw dominant bits injected during a counterattack (Sec. IV-E).
ATTACK_DURATION_BITS = 6
#: Un-stuffed position at which frame processing stops (Algorithm 1 line 16).
PROCESSING_END_POSITION = 20

#: Dual-FSM (extended-aware) mode: the standard counterattack must wait for
#: the IDE bit (position 14) to confirm the frame is not extended.
DUAL_STANDARD_TRIGGER = 14
#: Extended frames: the real RTR sits at un-stuffed position 33
#: (1 SOF + 11 base ID + SRR + IDE + 18 extension + RTR).
EXTENDED_TRIGGER_POSITION = 33
#: Extended frames: stop processing after the DLC (position 33 + 1 RTR
#: already counted + r1 + r0 + 4 DLC = 39, plus slack).
EXTENDED_PROCESSING_END = 40


class FirmwarePhase(enum.Enum):
    __hash__ = object.__hash__  # identity hash, see ControllerState

    WAIT_SOF = "wait-sof"
    TRACKING = "tracking"
    ATTACKING = "attacking"


_WAIT_SOF = FirmwarePhase.WAIT_SOF
_TRACKING = FirmwarePhase.TRACKING


@dataclass(frozen=True)
class Detection:
    """One malicious-frame detection made by the firmware."""

    time: int
    #: ID bits observed up to the decision (MSB first).
    id_prefix: Tuple[int, ...]
    #: 1-based bit position within the 11-bit ID at which the FSM decided.
    decision_bit: int
    #: True if the counterattack was actually launched (False when the frame
    #: turned out to be our own transmission, or prevention is disabled).
    counterattacked: bool = True
    #: True if the flagged frame used a 29-bit extended identifier.
    extended: bool = False


@dataclass
class FirmwareCounters:
    """Observability: how often each code path ran (feeds the CPU model)."""

    interrupts: int = 0
    idle_bits: int = 0
    frame_bits: int = 0
    stuff_bits_removed: int = 0
    fsm_steps: int = 0
    frames_seen: int = 0
    detections: int = 0
    counterattacks: int = 0
    aborted_frames: int = 0


class MichiCanFirmware:
    """Algorithm 1, executed once per nominal bit time.

    Args:
        fsm: The compiled detection FSM for this ECU's 𝔻.
        pinmux: The PIO model the firmware reconfigures for counterattacks.
        prevention_enabled: When False the firmware only detects (an IDS-like
            ablation mode used in the benchmarks).
        assume_idle_at_boot: Start with the 11-recessive credit already
            earned (true for all experiments, which attach before traffic).
        trigger_position: Un-stuffed frame position at which the
            counterattack fires (default 13, the RTR bit; the window
            ablation sweeps this).
        attack_duration: Raw dominant bits to inject (default 6).
        extended_fsm: Optional 29-bit detection FSM.  When provided the
            firmware becomes *extended-aware* (a beyond-paper extension):
            the standard counterattack is deferred by one bit to the IDE
            position (a recessive IDE reveals an extended frame whose
            arbitration is still in progress), and extended frames are
            classified by this FSM and attacked right after their RTR at
            position 33.
    """

    def __init__(
        self,
        fsm: DetectionFsm,
        pinmux: Optional[PinMux] = None,
        prevention_enabled: bool = True,
        assume_idle_at_boot: bool = True,
        trigger_position: int = ATTACK_TRIGGER_POSITION,
        attack_duration: int = ATTACK_DURATION_BITS,
        extended_fsm: Optional[DetectionFsm] = None,
    ) -> None:
        if trigger_position < 2:
            raise ValueError("trigger position must lie after the SOF")
        if attack_duration < 1:
            raise ValueError("the counterattack must inject at least one bit")
        self.fsm = fsm
        self.pinmux = pinmux or PinMux()
        self.prevention_enabled = prevention_enabled
        self.trigger_position = (
            DUAL_STANDARD_TRIGGER if extended_fsm is not None else trigger_position
        )
        self.attack_duration = attack_duration
        self.extended_fsm = extended_fsm
        self.phase = FirmwarePhase.WAIT_SOF
        self.counters = FirmwareCounters()
        self.detections: List[Detection] = []

        self._runner = fsm.runner()
        self._ext_runner = extended_fsm.runner() if extended_fsm else None
        self._extended_frame = False
        self._cnt = 0
        self._cnt_sof = BUS_IDLE_RECESSIVE_BITS if assume_idle_at_boot else 0
        self._id_bits: List[int] = []
        self._start_counterattack = False
        self._last_value = RECESSIVE
        self._run_length = 0
        self._attack_remaining = 0
        self._flag_suppressed = False

    # ------------------------------------------------------------- interface

    @property
    def drive_level(self) -> int:
        """The level the firmware's GPIO contributes this bit time."""
        return self.pinmux.drive_level

    @property
    def is_attacking(self) -> bool:
        return self.phase is FirmwarePhase.ATTACKING

    def reboot(self, time: int) -> None:
        """Re-initialise transient firmware state after a power glitch.

        The measurement-side records (``detections``, ``counters``) survive
        — they are the experiment's log, not firmware RAM — but the
        in-flight classification, counterattack and bit bookkeeping reset.
        An in-progress counterattack releases the pins first, and the
        11-recessive idle credit must be re-earned from live traffic.
        """
        if self.pinmux.tx_mux_enabled:
            self.pinmux.release(time)
            self.pinmux.disable_tx(time)
        self.phase = FirmwarePhase.WAIT_SOF
        self._runner.reset()
        if self._ext_runner is not None:
            self._ext_runner.reset()
        self._extended_frame = False
        self._cnt = 0
        self._cnt_sof = 0
        self._id_bits = []
        self._start_counterattack = False
        self._last_value = RECESSIVE
        self._run_length = 0
        self._attack_remaining = 0
        self._flag_suppressed = False

    def handler(self, time: int, value: int, own_transmission: bool = False) -> None:
        """The main timer-interrupt handler: process one sampled CAN_RX bit.

        Args:
            time: Bus time in bit times (for event records).
            value: The sampled level of CAN_RX.
            own_transmission: True while this ECU's own CAN controller is the
                transmitter of the current frame; MichiCAN must never
                counterattack its own (legitimate) transmission.
        """
        self.counters.interrupts += 1
        phase = self.phase
        if phase is _WAIT_SOF:
            self._wait_sof(time, value)
        elif phase is _TRACKING:
            self._track(time, value, own_transmission)
        else:
            self._attack_step(time, value)

    def catch_up_wait_sof(
        self,
        bits: int,
        has_dominant: bool,
        trailing_recessive: int,
    ) -> None:
        """O(1) equivalent of ``bits`` consecutive :meth:`handler` calls
        while the firmware stays in WAIT_SOF for the whole span.

        The fast-forward engine guarantees the span contains no SOF from
        this firmware's point of view (no dominant bit arrives with the
        11-recessive idle credit already earned), so the only state that
        changes is the interrupt/idle counters and the recessive-run
        credit: after a dominant bit the credit restarts from the span's
        trailing recessive run; an all-recessive span just extends it.
        """
        self.counters.interrupts += bits
        self.counters.idle_bits += bits
        if has_dominant:
            self._cnt_sof = trailing_recessive
        else:
            self._cnt_sof += bits

    # -------------------------------------------------------------- wait SOF

    def _wait_sof(self, time: int, value: int) -> None:
        self.counters.idle_bits += 1
        if value == RECESSIVE:
            self._cnt_sof += 1
            return
        if self._cnt_sof < BUS_IDLE_RECESSIVE_BITS:
            self._cnt_sof = 0
            return
        # Dominant after >= 11 recessive bits: SOF (Algorithm 1 lines 28-31).
        self._cnt_sof = 0
        self._cnt = 1  # SOF is frame position 1
        self._id_bits = []
        self._runner.reset()
        if self._ext_runner is not None:
            self._ext_runner.reset()
        self._extended_frame = False
        self._start_counterattack = False
        self._flag_suppressed = False
        self._last_value = DOMINANT
        self._run_length = 1
        self.phase = FirmwarePhase.TRACKING
        self.counters.frames_seen += 1

    # -------------------------------------------------------------- tracking

    def _track(self, time: int, value: int, own_transmission: bool) -> None:
        self.counters.frame_bits += 1

        # Raw-run bookkeeping: after five equal raw levels the next bit is a
        # stuff bit and is not counted toward the frame position.
        if self._run_length == 5:
            if value == self._last_value:
                # Six equal bits: an error frame (someone else's counter-
                # attack or error flag) — abandon this frame.
                self._abort(time)
                return
            self._last_value = value
            self._run_length = 1
            self.counters.stuff_bits_removed += 1
            return

        if value == self._last_value:
            self._run_length += 1
        else:
            self._last_value = value
            self._run_length = 1

        self._cnt += 1

        if 2 <= self._cnt <= 12:
            # An un-stuffed base-ID bit (positions 2..12 after SOF=1).
            self._id_bits.append(value)
            if not self._start_counterattack and self._runner.verdict is Verdict.PENDING:
                self.counters.fsm_steps += 1
                verdict = self._runner.step(value)
                if verdict is Verdict.MALICIOUS:
                    self._start_counterattack = True
                    self.counters.detections += 1
            if self._ext_runner is not None:
                # The base ID is also the 29-bit FSM's 11-bit prefix.
                self.counters.fsm_steps += 1
                self._ext_runner.step(value)

        if self._ext_runner is not None and self._cnt == DUAL_STANDARD_TRIGGER:
            # The IDE bit: dominant confirms a standard frame.
            if value == DOMINANT:
                if self._start_counterattack:
                    self._launch(time, own_transmission, self._runner,
                                 extended=False)
                    return
            else:
                self._extended_frame = True
                self._start_counterattack = False

        elif self._ext_runner is None and self._cnt == self.trigger_position:
            if self._start_counterattack:
                self._launch(time, own_transmission, self._runner,
                             extended=False)
                return

        if self._extended_frame and 15 <= self._cnt <= 32:
            # The 18 identifier-extension bits feed the 29-bit FSM.
            self._id_bits.append(value)
            assert self._ext_runner is not None
            if self._ext_runner.verdict is Verdict.PENDING:
                self.counters.fsm_steps += 1
                verdict = self._ext_runner.step(value)
                if verdict is Verdict.MALICIOUS:
                    self.counters.detections += 1

        if (self._extended_frame and self._cnt == EXTENDED_TRIGGER_POSITION
                and self._ext_runner is not None
                and self._ext_runner.verdict is Verdict.MALICIOUS):
            self._launch(time, own_transmission, self._ext_runner,
                         extended=True)
            return

        end = (EXTENDED_PROCESSING_END if self._extended_frame
               else PROCESSING_END_POSITION)
        if self._cnt >= end:
            # Done with this frame; wait for the next 11-recessive window.
            self.phase = FirmwarePhase.WAIT_SOF
            self._cnt = 0
            self._cnt_sof = 0

    def _launch(self, time: int, own_transmission: bool,
                runner: "FsmRunner", extended: bool) -> None:
        """Record the detection and start the dominant pulse if allowed."""
        launch = self.prevention_enabled and not own_transmission
        self.detections.append(
            Detection(
                time=time,
                id_prefix=tuple(self._id_bits),
                decision_bit=runner.decision_bit or (29 if extended else 11),
                counterattacked=launch,
                extended=extended,
            )
        )
        self._start_counterattack = False
        if launch:
            self.pinmux.enable_tx(time)
            self.pinmux.pull_low(time)
            self._attack_remaining = self.attack_duration
            self.phase = FirmwarePhase.ATTACKING
            self.counters.counterattacks += 1
        else:
            self._flag_suppressed = True

    # ------------------------------------------------------------ counterattack

    def _attack_step(self, time: int, value: int) -> None:
        del value  # the bus is dominated by our own pulse
        self._attack_remaining -= 1
        if self._attack_remaining <= 0:
            self.pinmux.release(time)
            self.pinmux.disable_tx(time)
            self.phase = FirmwarePhase.WAIT_SOF
            self._cnt = 0
            self._cnt_sof = 0

    # ------------------------------------------------------------------ misc

    def _abort(self, time: int) -> None:
        del time
        self.counters.aborted_frames += 1
        self.phase = FirmwarePhase.WAIT_SOF
        self._cnt = 0
        self._cnt_sof = 0
