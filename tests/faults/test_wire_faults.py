"""Wire-layer injectors: determinism, forced levels, counter invariants."""

import pytest

from repro.bus.events import FaultActivated, FaultDeactivated
from repro.can.constants import DOMINANT, RECESSIVE
from repro.errors import ConfigurationError
from repro.faults.plan import FaultSpec, FaultWindow
from repro.faults.wire import (
    FaultInjectingWire,
    FlipFault,
    compile_wire_fault,
)


def flip_spec(probability=0.05, seed=7, window=None, **params):
    params.setdefault("flip_probability", probability)
    return FaultSpec(name="flips", kind="wire.flip",
                     window=window or FaultWindow(), params=params, seed=seed)


# ------------------------------------------------------------ determinism

def test_flip_pattern_is_a_pure_function_of_the_seed():
    outputs = []
    for _ in range(2):
        wire = FaultInjectingWire([flip_spec(probability=0.2, seed=42)])
        outputs.append([wire.drive([RECESSIVE]) for _ in range(500)])
    assert outputs[0] == outputs[1]
    flips = wire.injectors[0].flips
    assert flips, "0.2 over 500 bits should flip at least once"


def test_different_seeds_give_different_patterns():
    patterns = []
    for seed in (1, 2):
        wire = FaultInjectingWire([flip_spec(probability=0.2, seed=seed)])
        patterns.append([wire.drive([RECESSIVE]) for _ in range(500)])
    assert patterns[0] != patterns[1]


def test_dominant_flips_only_never_corrupts_dominant_bits():
    wire = FaultInjectingWire([
        flip_spec(probability=1.0, seed=0, dominant_flips_only=True)])
    assert wire.drive([DOMINANT]) == DOMINANT
    assert wire.drive([RECESSIVE]) == DOMINANT  # recessive->dominant allowed


def test_flip_probability_must_be_a_probability():
    with pytest.raises(ConfigurationError):
        FlipFault(flip_spec(probability=1.5))


# ---------------------------------------------------------- forced levels

def test_stuck_faults_force_their_level():
    stuck_d = FaultInjectingWire([FaultSpec(
        name="d", kind="wire.stuck_dominant", window=FaultWindow(0, 10))])
    stuck_r = FaultInjectingWire([FaultSpec(
        name="r", kind="wire.stuck_recessive", window=FaultWindow(0, 10))])
    for _ in range(10):
        assert stuck_d.drive([RECESSIVE]) == DOMINANT
        assert stuck_r.drive([DOMINANT]) == RECESSIVE
    # Past the window the wire is honest again.
    assert stuck_d.drive([RECESSIVE]) == RECESSIVE
    assert stuck_r.drive([DOMINANT]) == DOMINANT


def test_burst_level_is_validated():
    with pytest.raises(ConfigurationError):
        compile_wire_fault(FaultSpec(name="b", kind="wire.burst",
                                     params={"level": 7}))


def test_glitch_forces_periodic_windows():
    wire = FaultInjectingWire([FaultSpec(
        name="g", kind="wire.glitch", window=FaultWindow(0, 100),
        params={"period": 10, "length": 2, "level": DOMINANT})])
    levels = [wire.drive([RECESSIVE]) for _ in range(20)]
    expected = [DOMINANT if t % 10 < 2 else RECESSIVE for t in range(20)]
    assert levels == expected


def test_glitch_geometry_is_validated():
    for params in ({"period": 0}, {"period": 5, "length": 6},
                   {"period": 5, "length": 0}, {"level": 9}):
        with pytest.raises(ConfigurationError):
            compile_wire_fault(FaultSpec(
                name="g", kind="wire.glitch", params=params))


def test_non_wire_kind_is_rejected():
    with pytest.raises(ConfigurationError):
        compile_wire_fault(FaultSpec(name="x", kind="node.reset",
                                     target="a"))


# -------------------------------------------------- window events + order

def test_window_transitions_emit_fault_events():
    events = []
    wire = FaultInjectingWire(
        [flip_spec(window=FaultWindow(5, 9))], emit=events.append)
    for _ in range(12):
        wire.drive([RECESSIVE])
    kinds = [(type(e).__name__, e.time) for e in events]
    assert kinds == [("FaultActivated", 5), ("FaultDeactivated", 9)]
    assert all(e.node == "wire" and e.fault == "flips" for e in events)
    assert isinstance(events[0], FaultActivated)
    assert isinstance(events[1], FaultDeactivated)


def test_later_injectors_see_earlier_corruption():
    # flip (p=1, recessive->dominant) then stuck_recessive overrides it.
    wire = FaultInjectingWire([
        flip_spec(probability=1.0),
        FaultSpec(name="r", kind="wire.stuck_recessive"),
    ])
    assert wire.drive([RECESSIVE]) == RECESSIVE


# ------------------------------------------- counter invariants (O(1) bookkeeping)

def assert_counters_consistent(wire):
    assert wire.total_bits == len(wire.history)
    assert wire.dominant_bits == sum(
        1 for level in wire.history if level == DOMINANT)


def test_injected_bits_keep_counters_consistent_with_history():
    wire = FaultInjectingWire([
        flip_spec(probability=0.3, seed=9, window=FaultWindow(10, 400)),
        FaultSpec(name="g", kind="wire.glitch", window=FaultWindow(50, 150),
                  params={"period": 7, "length": 3}),
    ])
    observed = []
    for t in range(500):
        observed.append(wire.drive([RECESSIVE if t % 3 else DOMINANT]))
    assert observed == list(wire.history)
    assert_counters_consistent(wire)
    assert 0.0 <= wire.dominant_fraction() <= 1.0


def test_override_level_guards_and_bookkeeping():
    wire = FaultInjectingWire()
    with pytest.raises(ValueError):
        wire._override_level(DOMINANT)  # no bit resolved yet
    wire.drive([RECESSIVE])
    with pytest.raises(ValueError):
        wire._override_level(7)
    wire._override_level(DOMINANT)
    assert wire.dominant_bits == 1
    wire._override_level(DOMINANT)  # idempotent
    assert wire.dominant_bits == 1
    wire._override_level(RECESSIVE)
    assert wire.dominant_bits == 0
    assert_counters_consistent(wire)


def test_bounded_history_keeps_exact_totals_under_injection():
    wire = FaultInjectingWire([flip_spec(probability=0.5, seed=3)],
                              max_history=32)
    for _ in range(200):
        wire.drive([RECESSIVE])
    assert wire.total_bits == 200
    assert len(wire.history) == 32
    assert wire.dropped_bits == 168
