"""One run configuration object for the whole experiment layer.

:class:`RunConfig` is a frozen dataclass accepted, as the keyword-only
``config`` argument, by the three entry points :func:`run_and_measure`,
:func:`make_simulator` and ``ExperimentSetup.run``.  It carries the window
length, the bus speed, the result name and the engine selection for the
fast-forward path.  Observers (probes, snapshots, flight recorders) are
attached to the simulator by the caller, and the wire's recording is a
:class:`~repro.bus.simulator.CanBusSimulator` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.can.constants import BUS_SPEED_50K
from repro.errors import ConfigurationError

#: Default recording window: the paper records 2 s at 50 kbit/s.
DEFAULT_DURATION_BITS = 100_000

#: Engine selections accepted by :attr:`RunConfig.engine`.
ENGINES = ("fast", "bit")


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run needs, in one place.

    Attributes:
        duration_bits: Simulated window length.
        bus_speed: Bus speed in bit/s (time conversions only).
        name: Result name; each entry point falls back to its own default
            (``run_and_measure`` uses "experiment", ``ExperimentSetup.run``
            uses the setup's name) when None.
        engine: "fast" advances through the fast-forward engine
            (:mod:`repro.bus.fastforward`; bit-exact, chunked), "bit" forces
            per-bit stepping.
    """

    duration_bits: int = DEFAULT_DURATION_BITS
    bus_speed: int = BUS_SPEED_50K
    name: Optional[str] = None
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.duration_bits < 0:
            raise ConfigurationError(
                f"duration must be non-negative, got {self.duration_bits}")
        if self.bus_speed <= 0:
            raise ConfigurationError(
                f"bus speed must be positive, got {self.bus_speed}")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}")

    def policy(self) -> str:
        """The :meth:`CanBusSimulator.advance` policy this engine maps to."""
        return "auto" if self.engine == "fast" else "off"

    def with_overrides(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)
