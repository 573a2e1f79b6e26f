"""Seeded spec-list generators for the three benchmark workloads.

The workload seed is the only input knob: the same ``(workload, seed)``
always yields byte-identical spec lists (see :func:`spec_list_bytes`).
Every spec is built with JSON-native params (lists, never tuples), so a
spec that crosses the ``repro serve`` socket compares equal to the one
that stayed in-process.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

from repro.experiments.campaign import ScenarioSpec

#: The Table II recording window: 2 s at 50 kbit/s.
TABLE2_WINDOW_BITS = 100_000

#: The restbus window: ten Table II windows of mostly idle bus.
RESTBUS_WINDOW_BITS = 1_000_000

#: MichiCAN's own ID in the Table II experiments; the defender covers
#: every ID from 0 up to it on the attacker-only buses (exp5, exp6,
#: multi_attacker).
DEFENDER_ID = 0x173

#: ``dos_fight`` and ``single_frame_fight`` defenders cover ``range(0x100)``.
SWEEP_COVERED_IDS = (0x010, 0x0FF)

#: Scenarios of the serve sweep, cycled in this order.
SWEEP_SCENARIOS = ("dos_fight", "single_frame_fight", "exp2", "exp4", "exp6")

WORKLOADS: Dict[str, str] = {
    "table2_fight": (
        "the paper's Table II fights (exp1-6 plus 3 attackers) over 100k-bit "
        "windows: fast-forward commits only a third to a half of the bits, "
        "so the per-bit loop in bus/node/core does most of the work"),
    "restbus_idle": (
        "benign restbus plus MichiCAN at 1M-bit windows: fast-forward spans "
        "commit ~95% of the bits, so a fight-only optimisation must leave "
        "it unchanged; also the memory workload (full wire history)"),
    "serve_sweep": (
        "seeded attack-ID/DLC sweep of short fights through a repro serve "
        "subprocess with cache and flight recorder: orchestration, "
        "observers, report fold and result cache outweigh simulation"),
}


def _distinct_ids(rng: random.Random, count: int, low: int,
                  high: int) -> List[int]:
    return sorted(rng.sample(range(low, high + 1), count))


def table2_fight(seed: int, scale: float = 1.0) -> List[ScenarioSpec]:
    """exp1-exp6 plus ``multi_attacker`` (3 attackers), one spec each.

    The seed picks the exp5 and exp6 attack-ID pairs and the
    ``multi_attacker`` base ID, all from IDs the defender covers.
    """
    rng = random.Random(f"table2_fight:{seed}")
    window = max(1_000, int(TABLE2_WINDOW_BITS * scale))
    exp5_ids = _distinct_ids(rng, 2, 0x010, DEFENDER_ID - 1)
    exp6_ids = _distinct_ids(rng, 2, 0x010, DEFENDER_ID - 1)
    base_id = rng.randint(0x010, DEFENDER_ID - 3)
    params: List[Dict[str, object]] = [{}, {}, {}, {},
                                       {"attack_ids": exp5_ids},
                                       {"attack_ids": exp6_ids}]
    specs = [ScenarioSpec(f"exp{number}", params=param, seed=seed,
                          duration_bits=window, metrics=True)
             for number, param in enumerate(params, start=1)]
    specs.append(ScenarioSpec(
        "multi_attacker", params={"num_attackers": 3, "base_id": base_id},
        seed=seed, duration_bits=window, metrics=True))
    return specs


def restbus_idle(seed: int, scale: float = 1.0) -> List[ScenarioSpec]:
    """``restbus_baseline`` windows at seeded bus speeds.

    The spec ``seed`` field does not change this scenario's output, so
    the seed varies the bus speed instead.
    """
    rng = random.Random(f"restbus_idle:{seed}")
    window = max(1_000, int(RESTBUS_WINDOW_BITS * scale))
    speeds = (50_000, 125_000, 250_000, 500_000)
    return [ScenarioSpec("restbus_baseline",
                         params={"bus_speed": rng.choice(speeds)},
                         seed=seed, duration_bits=window, metrics=True)
            for _ in range(2)]


def serve_sweep(seed: int, scale: float = 1.0) -> List[ScenarioSpec]:
    """An attack-ID/DLC sweep of short fights, all specs distinct."""
    rng = random.Random(f"serve_sweep:{seed}")
    count = 48 if scale >= 1.0 else 8
    low, high = SWEEP_COVERED_IDS
    specs: List[ScenarioSpec] = []
    seen = set()
    while len(specs) < count:
        scenario = SWEEP_SCENARIOS[len(specs) % len(SWEEP_SCENARIOS)]
        window = rng.randrange(2_000, 6_001, 100)
        if scenario == "dos_fight":
            params: Dict[str, object] = {"attack_id": rng.randint(low, high),
                                         "dlc": rng.randint(0, 8)}
        elif scenario == "single_frame_fight":
            params = {"attack_id": rng.randint(low, high)}
        elif scenario == "exp6":
            params = {"attack_ids": _distinct_ids(rng, 2, low,
                                                  DEFENDER_ID - 1)}
        else:
            params = {}
        spec = ScenarioSpec(scenario, params=params, seed=seed,
                            duration_bits=window, metrics=True,
                            snapshot_every_bits=500)
        key = json.dumps(spec.to_dict(), sort_keys=True)
        if key not in seen:
            seen.add(key)
            specs.append(spec)
    return specs


def cached_subset(specs: List[ScenarioSpec], seed: int) -> List[int]:
    """Indices of the quarter of a sweep pre-loaded into the result cache."""
    rng = random.Random(f"cached_subset:{seed}")
    return sorted(rng.sample(range(len(specs)), len(specs) // 4))


GENERATORS = {
    "table2_fight": table2_fight,
    "restbus_idle": restbus_idle,
    "serve_sweep": serve_sweep,
}


def generate(workload: str, seed: int, scale: float = 1.0) -> List[ScenarioSpec]:
    """The spec list of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed, scale)


def spec_list_bytes(specs: List[ScenarioSpec]) -> bytes:
    """Canonical bytes of a spec list (what crosses to the program)."""
    return json.dumps([spec.to_dict() for spec in specs],
                      sort_keys=True).encode("utf-8")
