"""Deployment-coverage planning for partial MichiCAN rollouts (Sec. IV-A).

The paper: "not every ECU necessarily has to be equipped with MichiCAN.
DoS detection will be provided by any MichiCAN-equipped ECU, while spoofing
detection requires updating any ECU that wants to implement this feature...
this comes at the expense of the unpatched ECUs not being able to detect
spoofing attacks any longer."

Given the IVN 𝔼 and the subset of equipped ECUs, this module computes
exactly what is and is not protected — the decision input an OEM weighing
cost against coverage needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.can.intervals import IdIntervalSet
from repro.core.config import IvnConfig
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CoverageReport:
    """What a partial deployment protects.

    Attributes:
        equipped: The MichiCAN-equipped ECU IDs.
        dos_covered: Non-legitimate IDs at or below max(equipped's own IDs)
            flagged by at least one equipped ECU.
        dos_uncovered: DoS-able IDs (below max(𝔼)) no equipped ECU flags.
        spoof_protected: Legitimate IDs whose spoofing is detected (their
            owner is equipped).
        spoof_unprotected: Legitimate IDs whose owner is unpatched.
        redundancy: For each covered DoS ID, how many equipped ECUs flag it
            (min over the covered set; the k in k-of-N fault tolerance).
    """

    equipped: Tuple[int, ...]
    dos_covered: IdIntervalSet
    dos_uncovered: IdIntervalSet
    spoof_protected: Tuple[int, ...]
    spoof_unprotected: Tuple[int, ...]
    redundancy: int

    @property
    def full_dos_coverage(self) -> bool:
        return not self.dos_uncovered

    @property
    def full_spoof_coverage(self) -> bool:
        return not self.spoof_unprotected


def plan_coverage(
    ivn: IvnConfig, equipped_ids: Iterable[int]
) -> CoverageReport:
    """Compute the coverage of equipping only ``equipped_ids``.

    Every equipped ECU runs its full-scenario FSM (detection range 𝔻 per
    Definition IV.4); unpatched ECUs run nothing.
    """
    equipped = tuple(sorted(set(equipped_ids)))
    if not equipped:
        raise ConfigurationError("at least one ECU must be equipped")
    for can_id in equipped:
        if can_id not in ivn.ecu_ids:
            raise ConfigurationError(
                f"0x{can_id:X} is not an ECU of this IVN"
            )

    legitimate = set(ivn.ecu_ids)
    # All IDs an attacker could use for DoS: non-legitimate, below max(E).
    dos_universe = IdIntervalSet.from_range_minus(
        0, ivn.highest_id, excluded=legitimate
    )
    covered_counts = {}
    for own in equipped:
        for can_id in ivn.detection_range(own):
            if can_id not in legitimate:
                covered_counts[can_id] = covered_counts.get(can_id, 0) + 1
    covered = IdIntervalSet.from_ids(covered_counts)
    uncovered = IdIntervalSet.from_ids(
        i for i in dos_universe.iter_ids() if i not in covered_counts
    )
    spoof_protected = tuple(i for i in ivn.ecu_ids if i in set(equipped))
    spoof_unprotected = tuple(
        i for i in ivn.ecu_ids if i not in set(equipped)
    )
    redundancy = min(covered_counts.values(), default=0)
    return CoverageReport(
        equipped=equipped,
        dos_covered=covered,
        dos_uncovered=uncovered,
        spoof_protected=spoof_protected,
        spoof_unprotected=spoof_unprotected,
        redundancy=redundancy,
    )


def minimal_dos_deployment(ivn: IvnConfig) -> Tuple[int, ...]:
    """The cheapest deployment with full DoS coverage: equip only the
    highest-ID ECU (its 𝔻 spans every non-legitimate ID below max(𝔼))."""
    return (ivn.highest_id,)


def deployments_by_budget(
    ivn: IvnConfig, budgets: Iterable[int]
) -> List[Tuple[int, CoverageReport]]:
    """Coverage at several equipment budgets, equipping top-IDs first
    (maximum range per unit) — the OEM's cost/coverage curve."""
    ordered = list(reversed(ivn.ecu_ids))  # highest ID first
    results = []
    for budget in budgets:
        if budget < 1:
            raise ConfigurationError("budget must be at least 1")
        chosen = ordered[:budget]
        results.append((budget, plan_coverage(ivn, chosen)))
    return results
