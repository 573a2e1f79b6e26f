"""Tests for the experiment harness itself."""

from repro.attacks.dos import DosAttacker
from repro.core.defense import MichiCanNode
from repro.bus.simulator import CanBusSimulator
from repro.experiments.config import RunConfig
from repro.experiments.runner import (
    ExperimentResult,
    make_simulator,
    run_and_measure,
)
from repro.obs.probe import BusProbe


def small_fight():
    sim = make_simulator()
    defender = sim.add_node(MichiCanNode("defender", range(0x100)))
    attacker = sim.add_node(DosAttacker("attacker", 0x064))
    return sim, defender, attacker


class TestRunAndMeasure:
    def test_result_fields(self):
        sim, defender, attacker = small_fight()
        result = run_and_measure(
            sim, [attacker], defenders=[defender],
            config=RunConfig(duration_bits=5_000, name="unit"))
        assert result.name == "unit"
        assert result.bus_speed == 50_000
        assert result.duration_bits == 5_000
        assert result.detections > 0
        assert result.counterattacks > 0
        assert 0.0 < result.busy_fraction <= 1.0

    def test_episode_statistics_exposed(self):
        sim, defender, attacker = small_fight()
        result = run_and_measure(sim, [attacker], defenders=[defender],
                                 config=RunConfig(duration_bits=5_000))
        assert result.episodes["attacker"]
        assert result.mean_busoff_ms("attacker") > 0

    def test_render_contains_rows(self):
        sim, defender, attacker = small_fight()
        result = run_and_measure(
            sim, [attacker], defenders=[defender],
            config=RunConfig(duration_bits=5_000, name="render-test"))
        text = result.render()
        assert "render-test" in text
        assert "attacker" in text
        assert "mean=" in text and "max=" in text

    def test_busy_fraction_skipped_without_recording(self):
        sim = CanBusSimulator(bus_speed=50_000, record_wire=False)
        defender = sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(DosAttacker("attacker", 0x064))
        result = run_and_measure(sim, [attacker], defenders=[defender],
                                 config=RunConfig(duration_bits=3_000))
        assert result.busy_fraction == 0.0

    def test_multiple_attackers_tracked_separately(self):
        sim = make_simulator()
        defender = sim.add_node(MichiCanNode("defender", range(0x100)))
        a1 = sim.add_node(DosAttacker("a1", 0x066))
        a2 = sim.add_node(DosAttacker("a2", 0x067))
        result = run_and_measure(sim, [a1, a2], defenders=[defender],
                                 config=RunConfig(duration_bits=8_000))
        assert set(result.attacker_stats) == {"a1", "a2"}
        assert set(result.episodes) == {"a1", "a2"}


class TestMakeSimulator:
    def test_nodes_convenience(self):
        defender = MichiCanNode("defender", range(0x100))
        attacker = DosAttacker("attacker", 0x064)
        sim = make_simulator(nodes=[defender, attacker])
        assert [node.name for node in sim.nodes] == ["defender", "attacker"]
        result = run_and_measure(sim, [attacker], defenders=[defender],
                                 config=RunConfig(duration_bits=4_000))
        assert result.episodes["attacker"]


class TestExperimentResultSerialization:
    def test_round_trip_with_episodes(self):
        sim, defender, attacker = small_fight()
        result = run_and_measure(
            sim, [attacker], defenders=[defender],
            config=RunConfig(duration_bits=5_000, name="roundtrip"))
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone == result  # dataclass equality covers episodes
        assert clone.to_dict() == result.to_dict()

    def test_dict_is_json_compatible(self):
        import json

        sim, defender, attacker = small_fight()
        result = run_and_measure(sim, [attacker], defenders=[defender],
                                 config=RunConfig(duration_bits=5_000))
        encoded = json.dumps(result.to_dict())
        decoded = ExperimentResult.from_dict(json.loads(encoded))
        assert decoded == result

    def test_from_dict_tolerates_minimal_payload(self):
        result = ExperimentResult.from_dict(
            {"name": "min", "bus_speed": 50_000, "duration_bits": 10})
        assert result.detections == 0
        assert result.episodes == {}

    def test_render_reflects_serialized_payload(self):
        sim, defender, attacker = small_fight()
        result = run_and_measure(
            sim, [attacker], defenders=[defender],
            config=RunConfig(duration_bits=5_000, name="render"))
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.render() == result.render()


def probed_run(sim, defender, attacker):
    """A 3k-bit run with a probe attached the way ``execute_spec`` does."""
    probe = BusProbe(sim)
    result = run_and_measure(sim, [attacker], defenders=[defender],
                             config=RunConfig(duration_bits=3_000))
    result.metrics = probe.summary()
    probe.close()
    return result


class TestRunnerMetrics:
    def test_metrics_off_by_default(self):
        sim, defender, attacker = small_fight()
        result = run_and_measure(sim, [attacker], defenders=[defender],
                                 config=RunConfig(duration_bits=3_000))
        assert result.metrics is None
        assert result.to_dict()["metrics"] is None

    def test_metrics_true_embeds_summary(self):
        sim, defender, attacker = small_fight()
        result = probed_run(sim, defender, attacker)
        assert result.metrics is not None
        assert result.metrics.nodes["attacker"]["busoffs"] >= 1
        assert result.metrics.nodes["defender"]["counterattacks"] == \
            result.counterattacks
        assert not sim._event_listeners  # the probe was closed

    def test_metrics_survive_serialization(self):
        sim, defender, attacker = small_fight()
        result = probed_run(sim, defender, attacker)
        clone = ExperimentResult.from_dict(result.to_dict())
        assert clone.metrics.to_dict() == result.metrics.to_dict()
        assert "metrics:" in clone.render()

    def test_bounded_recording_falls_back_to_dominant_fraction(self):
        sim = CanBusSimulator(bus_speed=50_000, wire_history_bits=512)
        defender = sim.add_node(MichiCanNode("defender", range(0x100)))
        attacker = sim.add_node(DosAttacker("attacker", 0x064))
        result = run_and_measure(sim, [attacker], defenders=[defender],
                                 config=RunConfig(duration_bits=3_000))
        assert sim.wire.dropped_bits > 0
        assert result.busy_fraction == sim.wire.dominant_fraction()
