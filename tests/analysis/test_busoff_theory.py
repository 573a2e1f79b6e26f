"""Tests for the Table III closed forms."""

import pytest

from repro.analysis.busoff_theory import (
    BEST_CASE_PREFIX_BITS,
    InterruptionCounts,
    WORST_CASE_PREFIX_BITS,
    busoff_bits_with_interruptions,
    busoff_ms,
    error_active_time,
    error_passive_time,
    max_attackers_before_deadline_miss,
    two_attacker_hp_busoff_bits,
    two_attacker_lp_busoff_bits,
    undisturbed_busoff_bits,
)


class TestPaperNumbers:
    def test_best_case_t_a_is_30(self):
        """Sec. V-C best case: the error frame starts at the 14th bit and
        the error-active (re)transmission takes 30 bits."""
        assert error_active_time(BEST_CASE_PREFIX_BITS) == 30

    def test_worst_case_t_a_is_35(self):
        assert error_active_time(WORST_CASE_PREFIX_BITS) == 35

    def test_best_case_t_p_is_38(self):
        assert error_passive_time(BEST_CASE_PREFIX_BITS) == 38

    def test_worst_case_t_p_is_43(self):
        assert error_passive_time(WORST_CASE_PREFIX_BITS) == 43

    def test_undisturbed_total_1248(self):
        """Table III row for Exp. 2/4/6: 16 * (35 + 43) = 1248 bits."""
        assert undisturbed_busoff_bits() == 1248

    def test_undisturbed_at_50k_near_25ms(self):
        assert busoff_ms(1248, 50_000) == pytest.approx(24.96)


class TestInterruptions:
    def test_no_interruptions_matches_undisturbed(self):
        assert busoff_bits_with_interruptions(InterruptionCounts()) == 1248

    def test_each_interruption_adds_frame_length(self):
        counts = InterruptionCounts(high_priority_active=2,
                                    high_priority_passive=1,
                                    low_priority_passive=3)
        assert busoff_bits_with_interruptions(counts) == 1248 + 6 * 125

    def test_hp_scenario_active_phase_undisturbed(self):
        """Table III Exp. 5 HP row: 16 * t_a = 560 + extended passive."""
        assert two_attacker_hp_busoff_bits(z_low_passive=0) == 1248
        assert (two_attacker_hp_busoff_bits(z_low_passive=4)
                == 1248 + 4 * 125)
        # The '560' constant of Table III is the undisturbed active phase.
        assert 16 * error_active_time() == 560

    def test_lp_scenario_both_phases_extended(self):
        total = two_attacker_lp_busoff_bits(z_high_active=2, z_high_passive=3)
        assert total == 1248 + 5 * 125

    def test_lp_worse_than_hp(self):
        hp = two_attacker_hp_busoff_bits(z_low_passive=8)
        lp = two_attacker_lp_busoff_bits(z_high_active=8, z_high_passive=8)
        assert lp > hp


class TestDeadlines:
    def test_paper_attacker_limit(self):
        """A = 4 fits (4660 < 5000 bits), A = 5 does not (Sec. V-C)."""
        assert max_attackers_before_deadline_miss() == 4

    def test_custom_deadline(self):
        assert max_attackers_before_deadline_miss(
            deadline_bits=2_000, per_attacker_bits=(1248, 2350)) == 1


class TestLoadModel:
    def test_zero_load_is_base(self):
        from repro.analysis.busoff_theory import expected_busoff_bits_under_load

        assert expected_busoff_bits_under_load(0.0) == 1248

    def test_invalid_load(self):
        from repro.analysis.busoff_theory import expected_busoff_bits_under_load

        with pytest.raises(ValueError):
            expected_busoff_bits_under_load(1.0)

    def test_predicts_restbus_experiment_mean(self):
        """The closed form must predict the simulated Exp. 3 mean within
        ~10% (the c-terms of Table III, collapsed to a utilization)."""
        from repro.analysis.busoff_theory import expected_busoff_bits_under_load
        from repro.experiments.config import RunConfig
        from repro.experiments.scenarios import (
            RESTBUS_TARGET_LOAD,
            experiment_3,
            experiment_4,
        )

        clean = experiment_4().run(config=RunConfig(duration_bits=40_000))
        base_bits = (clean.attacker_stats["attacker"]["mean_ms"]
                     / 1e3 * 50_000)
        loaded = experiment_3().run(config=RunConfig(duration_bits=60_000))
        measured = (loaded.attacker_stats["attacker"]["mean_ms"]
                    / 1e3 * 50_000)
        predicted = expected_busoff_bits_under_load(
            RESTBUS_TARGET_LOAD, base_bits=base_bits)
        assert measured == pytest.approx(predicted, rel=0.10)
