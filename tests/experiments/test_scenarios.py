"""Tests for the experiment drivers (Table II shapes, extensions, §V-F)."""

import pytest

from repro.analysis.busoff_theory import undisturbed_busoff_bits
from repro.experiments.config import RunConfig
from repro.experiments.runner import make_simulator
from repro.experiments.scenarios import (
    DEFENDER_ID,
    detection_ids_for,
    experiment_2,
    experiment_4,
    experiment_5,
    experiment_6,
    michican_defense_setup,
    multi_attacker_experiment,
    parksense_experiment,
    parrot_defense_setup,
    total_fight_bits,
)
from repro.vehicle.features import FeatureState


class TestDetectionIds:
    def test_whitelists_lower_legitimate(self):
        ids = detection_ids_for(0x173, [0x0A0, 0x100, 0x200])
        assert 0x0A0 not in ids and 0x100 not in ids
        assert 0x200 not in ids  # above own: outside range anyway
        assert 0x064 in ids
        assert 0x173 in ids  # own ID: spoofing detection


class TestTableIIShapes:
    """Each experiment must land in the paper's Table II band (converted
    to 50 kbit/s milliseconds; the simulator's stuffing detail justifies a
    ~15 % tolerance)."""

    def test_exp2_single_spoofer_clean_bus(self):
        result = experiment_2().run(config=RunConfig(duration_bits=40_000))
        stats = result.attacker_stats["attacker"]
        assert stats["count"] >= 10
        assert 22.0 <= stats["mean_ms"] <= 28.0   # paper: 24.2
        assert stats["std_ms"] <= 4.0             # paper: 0.27

    def test_exp4_single_dos_clean_bus(self):
        result = experiment_4().run(config=RunConfig(duration_bits=40_000))
        stats = result.attacker_stats["attacker"]
        assert 22.0 <= stats["mean_ms"] <= 28.0   # paper: 24.9
        assert stats["std_ms"] <= 2.0

    def test_exp5_two_attackers_intertwined(self):
        """Two concurrent attackers extend each other's bus-off by ~50 %,
        not 2x (paper: 39.0 / 35.4 ms vs ~25 ms)."""
        result = experiment_5().run(config=RunConfig(duration_bits=60_000))
        means = [s["mean_ms"] for s in result.attacker_stats.values()]
        for mean in means:
            assert 29.0 <= mean <= 45.0
        baseline = experiment_4().run(config=RunConfig(
            duration_bits=40_000)).attacker_stats["attacker"]["mean_ms"]
        for mean in means:
            assert 1.15 * baseline <= mean <= 1.8 * baseline

    def test_exp6_toggling_matches_exp4(self):
        """Both IDs are bused off separately: the per-episode time is the
        same as a single-ID attack (paper: 24.9 ms both)."""
        result = experiment_6().run(config=RunConfig(duration_bits=40_000))
        stats = result.attacker_stats["attacker"]
        assert 22.0 <= stats["mean_ms"] <= 28.0

    def test_all_experiments_detect_and_counterattack(self):
        for factory in (experiment_2, experiment_4, experiment_5, experiment_6):
            result = factory().run(config=RunConfig(duration_bits=10_000))
            assert result.detections > 0
            assert result.counterattacks > 0

    def test_theoretical_bound_respected(self):
        """Empirical episodes stay within ~8 % of the Table III worst case
        (1248 bits) plus one average frame per interrupting benign message
        (the defender's own periodic 0x173 occasionally slips in)."""
        result = experiment_4().run(config=RunConfig(duration_bits=40_000))
        for episode in result.episodes["attacker"]:
            bound = undisturbed_busoff_bits() * 1.08 + 130 * episode.interruptions
            assert episode.duration_bits <= bound
            assert episode.attempts == 32


class TestMultiAttacker:
    def test_a3_total_fight_near_3515(self):
        result = multi_attacker_experiment(3).run(
            config=RunConfig(duration_bits=16_000))
        total = total_fight_bits(result)
        assert 3_100 <= total <= 3_900  # paper: 3515

    def test_a4_total_fight_near_4660(self):
        result = multi_attacker_experiment(4).run(
            config=RunConfig(duration_bits=16_000))
        total = total_fight_bits(result)
        assert 4_200 <= total <= 5_200  # paper: 4660

    def test_a5_exceeds_deadline(self):
        """Paper: A >= 5 would render the bus inoperable (> 5000 bits)."""
        result = multi_attacker_experiment(5).run(
            config=RunConfig(duration_bits=20_000))
        assert total_fight_bits(result) > 5_000

    def test_all_attackers_bused_off(self):
        result = multi_attacker_experiment(3).run(
            config=RunConfig(duration_bits=16_000))
        assert all(eps for eps in result.episodes.values())

    def test_rejects_zero_attackers(self):
        with pytest.raises(ValueError):
            multi_attacker_experiment(0)


class TestParrotComparison:
    def test_michican_order_of_magnitude_faster(self):
        michican = michican_defense_setup()
        m_time = michican.sim.advance_until(
            lambda s: michican.attackers[0].is_bus_off, 100_000, policy="off")
        parrot = parrot_defense_setup()
        p_time = parrot.sim.advance_until(
            lambda s: parrot.attacker.is_bus_off, 600_000, policy="off")
        assert m_time is not None and p_time is not None
        assert p_time / m_time >= 10.0


class TestParkSense:
    def test_attack_without_michican_disables_parksense(self):
        outcome = parksense_experiment(with_michican=False,
                                       duration_bits=250_000)
        assert outcome.feature.state is FeatureState.UNAVAILABLE
        assert "PARKSENSE UNAVAILABLE SERVICE REQUIRED" in outcome.dashboard
        assert not outcome.attacker_bus_off is None

    def test_michican_keeps_parksense_alive(self):
        outcome = parksense_experiment(with_michican=True,
                                       duration_bits=250_000)
        assert outcome.feature.state is FeatureState.AVAILABLE
        assert outcome.dashboard == []
        assert outcome.attacker_busoff_count >= 1
