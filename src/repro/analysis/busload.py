"""Bus-load analysis (Sec. V-E).

The paper computes steady-state bus load as ``b = (s_f / f_baud) * sum(1/p_m)``
and reasons about the transient spike a MichiCAN counterattack adds: a
~2.5 ms message (at 50 kbit/s) occupies the bus for up to ~25 ms including
all destroyed retransmissions — a 10x spike, bounded well below message
deadlines — versus Parrot's sustained ~97.7 % flooding overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.can.constants import AVERAGE_FRAME_BITS, IFS_BITS


def bus_load(
    periods_seconds: Iterable[float],
    bus_speed: int,
    frame_bits: int = AVERAGE_FRAME_BITS,
) -> float:
    """Steady-state bus load: b = (s_f / f_baud) * sum(1 / p_m).

    Args:
        periods_seconds: Periods of all periodic messages, in seconds.
        bus_speed: Bus speed in bit/s.
        frame_bits: Average frame length including stuff bits (s_f).
    """
    total_rate = 0.0
    for period in periods_seconds:
        if period <= 0:
            raise ValueError(f"message period must be positive, got {period}")
        total_rate += 1.0 / period
    return frame_bits / bus_speed * total_rate


def counterattack_spike_factor(
    busoff_bits: int, frame_bits: int = AVERAGE_FRAME_BITS
) -> float:
    """How much longer the attacked message occupies the bus vs. a clean
    transmission (the paper's "we increase the bus load by 10x")."""
    if frame_bits <= 0:
        raise ValueError("frame_bits must be positive")
    return busoff_bits / frame_bits


def deadline_relative_overhead(busoff_bits: int, deadline_bits: int) -> float:
    """Counterattack duration relative to a message deadline.

    Paper Sec. V-E: ~2.5-5 % against 500-1000 ms low-priority deadlines,
    ~25 % against 100 ms high-priority deadlines (at 50 kbit/s).
    """
    if deadline_bits <= 0:
        raise ValueError("deadline_bits must be positive")
    return busoff_bits / deadline_bits


def parrot_flooding_overhead(frame_bits: int = 125) -> float:
    """Parrot's bus-load overhead while flooding: s_f / (s_f + IFS).

    The paper: 125 / 128 ~ 97.7 %.
    """
    return frame_bits / (frame_bits + IFS_BITS)


@dataclass(frozen=True)
class BusLoadComparison:
    """MichiCAN vs Parrot bus-load figures for one scenario."""

    steady_state: float
    michican_during_busoff: float
    parrot_during_flooding: float

    @property
    def michican_advantage(self) -> float:
        """How many times lower MichiCAN's defense-time load is."""
        if self.michican_during_busoff <= 0:
            return float("inf")
        return self.parrot_during_flooding / self.michican_during_busoff


def compare_defenses(
    steady_state_load: float,
    busoff_bits: int,
    busoff_window_bits: int,
) -> BusLoadComparison:
    """Bus load during defense for both systems.

    MichiCAN's defense-time load is the bus-off fight amortised over the
    observation window plus the benign baseline; Parrot's is its flooding
    rate (it saturates regardless of window).
    """
    if busoff_window_bits <= 0:
        raise ValueError("busoff_window_bits must be positive")
    michican = min(1.0, steady_state_load + busoff_bits / busoff_window_bits)
    return BusLoadComparison(
        steady_state=steady_state_load,
        michican_during_busoff=michican,
        parrot_during_flooding=parrot_flooding_overhead(),
    )
