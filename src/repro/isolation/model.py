"""ECU-internal isolation model (Sec. III, Fig. 3).

MichiCAN's own mechanism — bit-level pin access — would be a weapon in the
hands of an attacker who compromises the MCU.  The paper's mitigation is
architectural: on high-end ECUs a hypervisor runs the exposed OS (e.g.
Android Automotive in the IVI VM) apart from an RTOS VM that alone owns the
CAN controller and the MichiCAN firmware; the IVI can only request abstract
vehicle-property writes over a VHAL bridge (GRPC-vsock in the paper).
Lower-end ECUs get the same separation from an MPU or TrustZone.

This module models those boundaries so the threat-model tests can show that
a fully compromised application domain still cannot:

* obtain the CAN controller or the PIO pin-multiplexer,
* inject raw frames,
* write vehicle properties outside the allowlisted, range-checked set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.pinmux import PinMux

from repro.can.frame import CanFrame
from repro.dbc.codec import encode_message
from repro.dbc.types import CommunicationMatrix, Message
from repro.errors import ReproError


class IsolationViolation(ReproError):
    """A domain attempted an access its boundary forbids."""


class TrustLevel(enum.Enum):
    """How exposed a domain is to remote compromise."""

    EXPOSED = "exposed"        # internet-facing OS (IVI, telematics)
    TRUSTED = "trusted"        # RTOS / secure world


@dataclass
class Domain:
    """One isolation domain: a VM, an MPU region set, or a TrustZone world.

    Attributes:
        name: Domain name ("ivi", "rtos", ...).
        trust: Exposure class.
        can_access_can: Whether the boundary grants direct CAN access.
        compromised: Flipped by the attack scenario; a compromised domain
            keeps its *architectural* permissions — the point of the model
            is that those permissions never included the CAN controller.
    """

    name: str
    trust: TrustLevel
    can_access_can: bool = False
    compromised: bool = False


@dataclass(frozen=True)
class PropertyMapping:
    """One allowlisted vehicle property the VHAL may write.

    Attributes:
        prop: Abstract property name (e.g. "hvac_fan_speed").
        message_id: CAN message carrying it.
        signal: Signal within that message.
        minimum / maximum: Validation range enforced at the bridge.
    """

    prop: str
    message_id: int
    signal: str
    minimum: float
    maximum: float


class CanService:
    """The RTOS-side service that owns the controller (and MichiCAN).

    ``send`` is deliberately *not* reachable from other domains; only the
    VHAL bridge's property path is.
    """

    def __init__(self, owner: Domain,
                 transmit: Optional[Callable[[CanFrame], None]] = None) -> None:
        if not owner.can_access_can:
            raise IsolationViolation(
                f"domain {owner.name!r} may not own the CAN service"
            )
        self.owner = owner
        self.sent: List[CanFrame] = []
        self._transmit = transmit

    def send(self, caller: Domain, frame: CanFrame) -> None:
        """Raw frame transmission — owner domain only."""
        if caller is not self.owner:
            raise IsolationViolation(
                f"domain {caller.name!r} attempted raw CAN transmission"
            )
        self.sent.append(frame)
        if self._transmit is not None:
            self._transmit(frame)

    def acquire_pinmux(self, caller: Domain) -> "PinMux":
        """Bit-level pin access (the MichiCAN weapon) — owner domain only."""
        if caller is not self.owner:
            raise IsolationViolation(
                f"domain {caller.name!r} attempted pin-multiplexer access"
            )
        from repro.core.pinmux import PinMux

        return PinMux()


class VhalBridge:
    """The inter-VM property channel (GRPC-vsock in the paper).

    The exposed domain writes ``(property, value)``; the bridge validates
    against the allowlist and range, builds the frame in the trusted domain,
    and hands it to the CAN service.  Nothing else crosses.
    """

    def __init__(
        self,
        matrix: CommunicationMatrix,
        mappings: List[PropertyMapping],
        service: CanService,
    ) -> None:
        self.matrix = matrix
        self.service = service
        self._mappings: Dict[str, PropertyMapping] = {}
        for mapping in mappings:
            message = matrix.by_id(mapping.message_id)  # validates existence
            message.signal(mapping.signal)
            self._mappings[mapping.prop] = mapping
        self.audit_log: List[Tuple[str, str, float, bool]] = []

    @property
    def allowed_properties(self) -> List[str]:
        return sorted(self._mappings)

    def write_property(self, caller: Domain, prop: str, value: float) -> CanFrame:
        """Validated property write from the exposed domain."""
        mapping = self._mappings.get(prop)
        if mapping is None:
            self.audit_log.append((caller.name, prop, value, False))
            raise IsolationViolation(
                f"property {prop!r} is not exposed through the VHAL"
            )
        if not mapping.minimum <= value <= mapping.maximum:
            self.audit_log.append((caller.name, prop, value, False))
            raise IsolationViolation(
                f"value {value} outside [{mapping.minimum}, {mapping.maximum}] "
                f"for property {prop!r}"
            )
        message: Message = self.matrix.by_id(mapping.message_id)
        frame = CanFrame(
            message.can_id, encode_message(message, {mapping.signal: value})
        )
        # The *trusted* owner performs the actual send.
        self.service.send(self.service.owner, frame)
        self.audit_log.append((caller.name, prop, value, True))
        return frame


@dataclass
class EcuSoftwareStack:
    """A whole ECU software architecture: domains + service + bridge.

    Factory helpers build the three isolation options the paper names:
    hypervisor (high-end), TrustZone + MPU (mid), MPU only (low-end).  The
    enforcement model is identical — what differs is the mechanism label and
    how coarse the boundary is, which the tests assert on.
    """

    name: str
    mechanism: str
    domains: Dict[str, Domain]
    service: CanService
    bridge: Optional[VhalBridge] = None

    @classmethod
    def hypervisor(
        cls,
        matrix: CommunicationMatrix,
        mappings: List[PropertyMapping],
        transmit: Optional[Callable[[CanFrame], None]] = None,
    ) -> "EcuSoftwareStack":
        """IVI VM (Android) + RTOS VM, per Fig. 3."""
        ivi = Domain("ivi", TrustLevel.EXPOSED)
        rtos = Domain("rtos", TrustLevel.TRUSTED, can_access_can=True)
        service = CanService(rtos, transmit)
        bridge = VhalBridge(matrix, mappings, service)
        return cls(
            name="high-end (hypervisor)",
            mechanism="hypervisor",
            domains={"ivi": ivi, "rtos": rtos},
            service=service,
            bridge=bridge,
        )

    @classmethod
    def trustzone(
        cls, matrix: CommunicationMatrix, mappings: List[PropertyMapping]
    ) -> "EcuSoftwareStack":
        """Cortex-M33-class: normal world + secure world (TrustZone + MPU)."""
        normal = Domain("normal-world", TrustLevel.EXPOSED)
        secure = Domain("secure-world", TrustLevel.TRUSTED, can_access_can=True)
        service = CanService(secure)
        bridge = VhalBridge(matrix, mappings, service)
        return cls(
            name="mid (TrustZone + MPU)",
            mechanism="trustzone",
            domains={"normal": normal, "secure": secure},
            service=service,
            bridge=bridge,
        )

    @classmethod
    def mpu_only(cls, matrix: CommunicationMatrix) -> "EcuSoftwareStack":
        """Cortex-M3-class: application vs. privileged region, MPU only.

        No property bridge here — the privileged region exposes a fixed
        firmware API instead; the model keeps only the raw boundary.
        """
        app = Domain("application", TrustLevel.EXPOSED)
        priv = Domain("privileged", TrustLevel.TRUSTED, can_access_can=True)
        service = CanService(priv)
        return cls(
            name="low-end (MPU)",
            mechanism="mpu",
            domains={"application": app, "privileged": priv},
            service=service,
        )

    def compromise(self, domain_name: str) -> Domain:
        """The remote attacker takes over an exposed domain."""
        domain = self.domains[domain_name]
        if domain.trust is TrustLevel.TRUSTED:
            raise IsolationViolation(
                f"threat model: domain {domain_name!r} is not remotely "
                "reachable (Sec. III assumes compromise of the exposed OS)"
            )
        domain.compromised = True
        return domain
