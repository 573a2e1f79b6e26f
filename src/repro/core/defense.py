"""The MichiCAN-equipped ECU: controller + bit-banged firmware on one node.

:class:`MichiCanNode` composes a normal :class:`~repro.node.controller.CanNode`
(the ECU's CAN controller, which keeps transmitting the ECU's legitimate
messages and acknowledging traffic) with the pin-multiplexed
:class:`~repro.core.detection.MichiCanFirmware` snooper.  Both share the
physical pins: the node's drive level is the wired-AND of the controller's
CAN_TX and the firmware's multiplexed GPIO.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.bus.events import (
    AttackDetected,
    CounterattackEnded,
    CounterattackStarted,
)
from repro.can.constants import DOMINANT
from repro.core.config import EcuConfig
from repro.core.detection import Detection, MichiCanFirmware
from repro.core.fsm import DetectionFsm
from repro.core.pinmux import PinMux
from repro.node.controller import CanNode, ControllerState
from repro.node.scheduler import PeriodicScheduler


class MichiCanNode(CanNode):
    """An ECU running MichiCAN.

    Args:
        name: Node name on the simulator.
        config: Either an :class:`~repro.core.config.EcuConfig` (from the
            offline OEM setup) or an iterable of raw detection IDs.
        scheduler: The ECU's own periodic traffic (it is still a normal ECU).
        prevention_enabled: When False, MichiCAN detects but never
            counterattacks (IDS ablation mode).
        extended_detection_ids: Optional 29-bit detection range (an
            :class:`~repro.can.intervals.IdIntervalSet` or iterable); when
            given, the node also defends against extended-frame attacks
            (beyond-paper extension).
    """

    def __init__(
        self,
        name: str,
        config: Union[EcuConfig, Iterable[int]],
        scheduler: Optional[PeriodicScheduler] = None,
        prevention_enabled: bool = True,
        trigger_position: Optional[int] = None,
        attack_duration: Optional[int] = None,
        extended_detection_ids: Optional[Iterable[int]] = None,
    ) -> None:
        super().__init__(name, scheduler=scheduler)
        if isinstance(config, EcuConfig):
            detection_ids = config.detection_ids
            self.ecu_config: Optional[EcuConfig] = config
        else:
            detection_ids = frozenset(config)
            self.ecu_config = None
        firmware_kwargs = {}
        if trigger_position is not None:
            firmware_kwargs["trigger_position"] = trigger_position
        if attack_duration is not None:
            firmware_kwargs["attack_duration"] = attack_duration
        if extended_detection_ids is not None:
            firmware_kwargs["extended_fsm"] = DetectionFsm(
                extended_detection_ids, id_bits=29
            )
        self.firmware = MichiCanFirmware(
            DetectionFsm(detection_ids),
            PinMux(),
            prevention_enabled=prevention_enabled,
            **firmware_kwargs,
        )
        self._reported_detections = 0
        self._was_attacking = False

    # ----------------------------------------------------------- bit cycle

    def output(self, time: int) -> int:
        controller_level = CanNode.output(self, time)
        if controller_level == DOMINANT or self.firmware.drive_level == DOMINANT:
            return DOMINANT
        return controller_level

    def observe(self, time: int, level: int) -> None:
        # The firmware samples the same CAN_RX level the controller sees.
        # It must know whether the current frame is our own transmission so
        # it never counterattacks this ECU's legitimate traffic.
        firmware = self.firmware
        firmware.handler(time, level, self.state is ControllerState.TRANSMITTING)
        if (self._reported_detections != len(firmware.detections)
                or self._was_attacking is not firmware.is_attacking):
            self._emit_firmware_events(time)
        CanNode.observe(self, time, level)

    def power_cycle(self, time: int) -> None:
        """A power glitch reboots both the controller and the firmware."""
        was_attacking = self.firmware.is_attacking
        super().power_cycle(time)
        self.firmware.reboot(time)
        if was_attacking:
            self.emit(CounterattackEnded(time=time, node=self.name))
        self._was_attacking = False

    # -------------------------------------------------------------- events

    def _emit_firmware_events(self, time: int) -> None:
        while self._reported_detections < len(self.firmware.detections):
            detection = self.firmware.detections[self._reported_detections]
            self._reported_detections += 1
            prefix_value = 0
            for bit in detection.id_prefix:
                prefix_value = (prefix_value << 1) | bit
            self.emit(
                AttackDetected(
                    time=detection.time,
                    node=self.name,
                    attack_kind="fsm",
                    target_id=prefix_value,
                    detection_bit=detection.decision_bit,
                    meta={"counterattacked": detection.counterattacked},
                )
            )
            if detection.counterattacked:
                self.emit(
                    CounterattackStarted(
                        time=detection.time,
                        node=self.name,
                        target_id=prefix_value,
                        detection_bit=detection.decision_bit,
                    )
                )
        attacking = self.firmware.is_attacking
        if self._was_attacking and not attacking:
            self.emit(CounterattackEnded(time=time, node=self.name))
        self._was_attacking = attacking

    # ------------------------------------------------------------- queries

    @property
    def detections(self) -> "List[Detection]":
        """All detections made by the firmware so far."""
        return list(self.firmware.detections)

    @property
    def counterattacks(self) -> int:
        return self.firmware.counters.counterattacks
