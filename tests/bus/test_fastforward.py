"""Unit tests for the fast-forward engine and the ``advance()`` API."""

import pytest

from repro.bus.events import FrameTransmitted
from repro.bus.fastforward import (
    FAST_FORWARD_POLICIES,
    MIN_SPAN_BITS,
    FastForwardEngine,
)
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.errors import ConfigurationError, SimulationError
from repro.node.controller import CanNode
from repro.node.scheduler import PeriodicMessage, PeriodicScheduler


def periodic_sim(period_bits=600):
    sim = CanBusSimulator()
    sim.add_node(CanNode("sender", scheduler=PeriodicScheduler(
        [PeriodicMessage(0x123, period_bits=period_bits)])))
    sim.add_node(CanNode("receiver"))
    return sim


class TestAdvanceApi:
    def test_policies_constant(self):
        assert FAST_FORWARD_POLICIES == ("auto", "off")

    def test_default_policy_is_auto(self):
        assert CanBusSimulator().fast_forward_policy == "auto"

    def test_unknown_policy_rejected(self):
        sim = periodic_sim()
        with pytest.raises(ConfigurationError, match="policy"):
            sim.advance(10, policy="turbo")

    def test_unknown_session_policy_rejected(self):
        sim = periodic_sim()
        sim.fast_forward_policy = "warp"
        with pytest.raises(ConfigurationError):
            sim.advance(10)

    def test_negative_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            periodic_sim().advance(-1)

    def test_empty_bus_rejected(self):
        with pytest.raises(SimulationError):
            CanBusSimulator().advance(10)

    def test_zero_bits_is_a_no_op(self):
        sim = periodic_sim()
        assert sim.advance(0) == 0
        assert sim.time == 0

    def test_advance_returns_final_time(self):
        sim = periodic_sim()
        assert sim.advance(500) == 500
        assert sim.advance(250) == 750

    def test_advance_until_hit_returns_time(self):
        sim = periodic_sim()
        hit = sim.advance_until(
            lambda s: bool(s.events_of(FrameTransmitted)), 5_000)
        assert hit is not None
        assert hit == sim.events_of(FrameTransmitted)[0].time + 1

    def test_advance_until_miss_returns_none(self):
        sim = periodic_sim()
        assert sim.advance_until(lambda s: False, 200) is None
        assert sim.time == 200

    def test_off_policy_never_engages_engine(self):
        sim = periodic_sim()
        sim.advance(5_000, policy="off")
        assert sim._ff_engine is None

    def test_auto_policy_takes_spans(self):
        sim = periodic_sim()
        sim.advance(5_000)
        stats = sim.ff_stats
        assert stats.body_spans > 0 and stats.idle_spans > 0
        assert 0 < stats.fast_bits <= 5_000
        as_dict = stats.as_dict()
        assert as_dict["body_bits"] == stats.body_bits
        assert as_dict["idle_bits"] == stats.idle_bits

    def test_instrumented_step_disables_fast_path(self):
        sim = periodic_sim()
        seen = []
        original = sim.step

        def traced():
            seen.append(sim.time)
            return original()

        sim.step = traced  # type: ignore[method-assign]
        sim.advance(300)
        del sim.step
        # Every single bit went through the patched step.
        assert seen == list(range(300))
        assert sim._ff_engine is None


class TestEngineEligibility:
    def test_declines_short_windows(self):
        sim = periodic_sim()
        engine = FastForwardEngine(sim)
        assert engine.try_advance(sim.time + MIN_SPAN_BITS - 1) == 0

    def test_declines_custom_wire(self):
        from repro.faults import FaultInjectingWire

        sim = periodic_sim()
        sim.wire = FaultInjectingWire([])
        sim.advance(5_000)
        assert sim.ff_stats.fast_bits == 0

    def test_declines_unknown_node_classes(self):
        class Weird(CanNode):
            def observe(self, time, level):
                super().observe(time, level)

        sim = CanBusSimulator()
        sim.add_node(Weird("weird"))
        sim.add_node(CanNode("peer"))
        sim.advance(2_000)
        assert sim.ff_stats.fast_bits == 0

    def test_plan_cache_reused_across_retransmissions(self):
        sim = CanBusSimulator()
        node = sim.add_node(CanNode("a"))
        sim.add_node(CanNode("b"))
        node.send(CanFrame(0x100, b"\x01"))
        node.send(CanFrame(0x100, b"\x01"))
        engine = sim._engine()
        sim.advance(600)
        assert len(engine._plans) == 1  # identical frames share one plan


def test_release_records_frees_buffers_and_keeps_running():
    """A finished run can drop its event stream, wire history and cycle
    memo; the clock and counters stay, and the simulator keeps working."""
    from repro.experiments.campaign import ScenarioSpec

    spec = ScenarioSpec("exp4", seed=0, duration_bits=20_000)
    setup = spec.build()
    sim = setup.sim
    sim.advance(20_000)
    assert sim.events and sim.ff_stats.replayed_segments > 0
    total_bits = sim.wire.total_bits
    sim.release_records()
    assert sim.events == [] and sim.events_of(FrameTransmitted) == []
    assert len(sim.wire.history) == 0
    assert sim.time == 20_000 and sim.wire.total_bits == total_bits
    sim.advance(5_000)
    assert sim.time == 25_000 and sim.events
