"""Regenerate ``golden_outcomes.json``: the locked deterministic outcomes.

Every registered scenario runs for seeds 0, 1 and 2 over the differential
window, plus the seven Table II fight specs (exp1-6 and three attackers,
seed 0) over the paper's 100k-bit recording window.  Per case the file
records the detection bits, each attacker's bus-off episodes (start, bits,
attempts), every node's final TEC/REC and a sha256 of the event stream's
``repr``.  It also records sha256 digests of the three observer outputs
of a run watched from t=0: the ``MetricsSummary`` dict, the snapshot
timeline sampled every 500 bits and the ``write_trace`` span file.  ``test_golden_outcomes.py`` fails on any drift; an intended
change is made by rerunning this script and reviewing the JSON diff::

    PYTHONPATH=src python tests/experiments/regen_golden_outcomes.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Tuple

from repro.bus.events import AttackDetected
from repro.experiments.campaign import ScenarioSpec, scenario_names
from repro.obs.probe import BusProbe
from repro.obs.snapshot import SnapshotRecorder
from repro.obs.tracing import TraceCollector, write_trace

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_outcomes.json")

#: Factories whose required positional arguments have no defaults.
REQUIRED_PARAMS: Dict[str, Dict[str, Any]] = {
    "dos_fight": {"attack_id": 0x064},
    "multi_attacker": {"num_attackers": 2},
}

#: The differential suite's window and seeds.
WINDOW_BITS = 6_000
SEEDS = (0, 1, 2)

#: The snapshot period of the observed outputs.
SNAPSHOT_EVERY_BITS = 500

#: The Table II recording window (2 s at 50 kbit/s).
TABLE2_BITS = 100_000

#: The seed-0 Table II fight specs: exp5/exp6 attack-ID pairs and the
#: three-attacker base ID are fixed picks among the defender's IDs.
TABLE2_PARAMS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("exp1", {}),
    ("exp2", {}),
    ("exp3", {}),
    ("exp4", {}),
    ("exp5", {"attack_ids": [36, 361]}),
    ("exp6", {"attack_ids": [73, 254]}),
    ("multi_attacker", {"num_attackers": 3, "base_id": 186}),
)


def golden_specs() -> List[ScenarioSpec]:
    """Every case the golden file locks, in file order."""
    specs = [ScenarioSpec(name, params=dict(REQUIRED_PARAMS.get(name, {})),
                          seed=seed, duration_bits=WINDOW_BITS)
             for name in sorted(scenario_names()) for seed in SEEDS]
    specs.extend(ScenarioSpec(name, params=dict(params), seed=0,
                              duration_bits=TABLE2_BITS)
                 for name, params in TABLE2_PARAMS)
    return specs


def case_key(spec: ScenarioSpec) -> str:
    return json.dumps({"scenario": spec.scenario, "params": spec.params,
                       "seed": spec.seed, "bits": spec.duration_bits},
                      sort_keys=True)


def observed_run(spec: ScenarioSpec) -> Tuple[Any, Any, Dict[str, Any]]:
    """Run ``spec`` with a probe, snapshotter and trace collector attached
    at t=0; returns (setup, result, observer outputs as JSON text)."""
    setup = spec.build()
    sim = setup.sim
    probe = BusProbe(sim)
    recorder = sim.add_node(SnapshotRecorder(probe, SNAPSHOT_EVERY_BITS))
    collector = TraceCollector(sim)
    result = setup.run(config=spec.run_config())
    spans = collector.finalize()
    with tempfile.TemporaryDirectory() as tmp:
        path = write_trace(spans, os.path.join(tmp, "run.trace.jsonl"))
        with open(path, encoding="utf-8") as handle:
            trace = handle.read()
    outputs = {
        "summary": json.dumps(probe.summary().to_dict(), sort_keys=True),
        "snapshots": json.dumps(recorder.snapshots, sort_keys=True),
        "trace": trace,
    }
    probe.close()
    return setup, result, outputs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run ``spec`` and fold the run into its locked outcome."""
    setup, result, outputs = observed_run(spec)
    sim = setup.sim
    detection_bits: Dict[str, int] = {}
    for event in sim.events_of(AttackDetected):
        bit = str(event.detection_bit)
        detection_bits[bit] = detection_bits.get(bit, 0) + 1
    digest = hashlib.sha256()
    for event in sim.events:
        digest.update(repr(event).encode("utf-8"))
        digest.update(b"\n")
    return {
        "time": sim.time,
        "detection_bits": detection_bits,
        "episodes": {
            attacker: [[episode.start, episode.end - episode.start,
                        episode.attempts] for episode in episodes]
            for attacker, episodes in sorted(result.episodes.items())
        },
        "counters": {node.name: [node.tec, node.rec]
                     for node in sim.nodes if hasattr(node, "tec")},
        "events": len(sim.events),
        "events_sha256": digest.hexdigest(),
        "summary_sha256": _sha256(outputs["summary"]),
        "snapshots_sha256": _sha256(outputs["snapshots"]),
        "trace_sha256": _sha256(outputs["trace"]),
    }


def generate() -> Dict[str, Any]:
    return {case_key(spec): outcome(spec) for spec in golden_specs()}


def main() -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
