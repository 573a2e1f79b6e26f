"""Differential suite: the fast-forward engine must be invisible.

Every registered scenario runs twice from the identical spec — once with
``engine="fast"`` and once with ``engine="bit"`` — across three seeds.
The event streams, final simulator state, result payloads and metrics
summaries must match exactly; any divergence is a fast-path correctness
bug (see the determinism contract in :mod:`repro.bus.fastforward`).
"""

import enum
import types

import pytest

from repro.experiments.campaign import ScenarioSpec, scenario_names

#: Factories whose required positional arguments have no defaults.
REQUIRED_PARAMS = {
    "dos_fight": {"attack_id": 0x064},
    "multi_attacker": {"num_attackers": 2},
}

DURATION = 6_000
SEEDS = (0, 1, 2)


def _run(name, seed, engine, metrics=False, duration=DURATION, params=None,
         prepare=None):
    if params is None:
        params = REQUIRED_PARAMS.get(name, {})
    spec = ScenarioSpec(name, params=dict(params), seed=seed,
                        duration_bits=duration, metrics=metrics,
                        engine=engine)
    setup = spec.build()
    if prepare is not None:
        prepare(setup)
    result = setup.run(config=spec.run_config())
    return setup.sim, result


#: Engine-internal caches and back-references: not simulation state.
_NOT_STATE = frozenset({"_no_enqueue_before", "_event_sink", "on_transition"})


def _state(value, path=()):
    """A node's full state as nested plain data.

    Walks every attribute — controller fields, parser, fault confinement
    (with its transition log), transmit queue (attempts, enqueue and
    completion times), scheduler, bus-off counters and, for MichiCAN, the
    firmware counters, detections log, FSM runners and pinmux.  Shared
    objects are expanded wherever they appear; only the ancestors on the
    current path are cut, so a replayed run that shares frame objects
    compares equal to one that does not.
    """
    if isinstance(value, (int, float, str, bytes, type(None), enum.Enum)):
        return value
    if isinstance(value, (types.FunctionType, types.MethodType,
                          types.BuiltinFunctionType)):
        return value.__qualname__
    if isinstance(value, (list, tuple)):
        return [_state(item, path) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(_state(item, path)) for item in value)
    if isinstance(value, dict):
        return [(repr(key), _state(item, path)) for key, item in value.items()]
    if id(value) in path or not hasattr(value, "__dict__"):
        return repr(value) if id(value) not in path else "<cycle>"
    path = path + (id(value),)
    return (type(value).__name__,
            [(name, _state(item, path))
             for name, item in sorted(vars(value).items())
             if name not in _NOT_STATE])


def _fingerprint(sim):
    """Everything per-bit stepping determines, in comparable form."""
    return {
        "time": sim.time,
        "events": [repr(e) for e in sim.events],
        "history": list(sim.wire.history),
        "wire": (sim.wire.total_bits, sim.wire.dominant_bits, sim.wire.level),
        "nodes": {node.name: _state(node) for node in sim.nodes},
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_engines_agree(name, seed):
    sim_fast, result_fast = _run(name, seed, "fast")
    sim_bit, result_bit = _run(name, seed, "bit")
    assert _fingerprint(sim_fast) == _fingerprint(sim_bit)
    assert result_fast.to_dict() == result_bit.to_dict()


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_engines_agree_with_metrics(name):
    """The metrics summary, the snapshot timeline and the trace span file
    of a run observed from t=0 are identical under both engines."""
    from tests.experiments.regen_golden_outcomes import observed_run

    runs = {}
    for engine in ("fast", "bit"):
        spec = ScenarioSpec(name, params=dict(REQUIRED_PARAMS.get(name, {})),
                            seed=0, duration_bits=DURATION, engine=engine)
        _, result, outputs = observed_run(spec)
        runs[engine] = (result.to_dict(), outputs)
    assert runs["fast"] == runs["bit"]


def test_fast_engine_actually_fast_forwards():
    """The benign long-idle scenario must take the span path, not merely
    agree with it (guards against silently declining every span)."""
    sim, _ = _run("restbus_baseline", 0, "fast")
    stats = sim.ff_stats
    assert stats.body_spans > 0
    assert stats.idle_spans > 0
    assert stats.fast_bits > DURATION // 2


# ------------------------------------------------------------ trace spans

def _trace_spans(name, seed, engine):
    """Run one scenario with a TraceCollector attached; spans as dicts."""
    import json

    from repro.obs.tracing import TraceCollector

    spec = ScenarioSpec(name, params=dict(REQUIRED_PARAMS.get(name, {})),
                        seed=seed, duration_bits=DURATION, engine=engine)
    setup = spec.build()
    collector = TraceCollector(setup.sim)
    setup.run(config=spec.run_config())
    spans = collector.finalize()
    return [json.dumps(span.to_dict(), sort_keys=True) for span in spans]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_trace_spans_agree(name, seed):
    """Both engines synthesize byte-identical lifecycle span streams.

    Fast-forward spans are event-free by construction and never enclose
    a lifecycle boundary, so the purely event-driven collector must see
    the same events at the same times either way — ids, parents, begins,
    ends and attrs all included.
    """
    assert (_trace_spans(name, seed, "fast")
            == _trace_spans(name, seed, "bit"))


def test_snapshot_timelines_agree():
    """Periodic snapshots are byte-identical under both engines: spans
    are clamped to the recorder's sample times, so every capture happens
    on a per-bit step with exact wire counters."""
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder

    timelines = {}
    for engine in ("fast", "bit"):
        spec = ScenarioSpec("exp4", seed=0, duration_bits=DURATION,
                            engine=engine)
        setup = spec.build()
        recorder = setup.sim.add_node(
            SnapshotRecorder(BusProbe(setup.sim), 500))
        setup.run(config=spec.run_config())
        timelines[engine] = recorder.snapshots
    assert timelines["fast"] == timelines["bit"]
    assert len(timelines["fast"]) >= DURATION // 500 - 1


def test_fast_engine_still_fast_forwards_with_snapshots():
    """A passive snapshot recorder must not force per-bit stepping."""
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder

    spec = ScenarioSpec("restbus_baseline", seed=0, duration_bits=DURATION,
                        engine="fast")
    setup = spec.build()
    setup.sim.add_node(SnapshotRecorder(BusProbe(setup.sim), 1_000))
    setup.run(config=spec.run_config())
    assert setup.sim.ff_stats.fast_bits > DURATION // 4


# ------------------------------------------------------- replayed cycles

#: Long enough for several bus-off episodes, so fight cycles recur.
LONG_WINDOW = 60_000

FIGHTS = [
    ("exp1", {}), ("exp2", {}), ("exp4", {}), ("exp5", {}), ("exp6", {}),
    ("multi_attacker", {"num_attackers": 3}),
]

@pytest.mark.parametrize("name,params", FIGHTS,
                         ids=[name for name, _ in FIGHTS])
def test_long_window_fights_replay_exactly(name, params):
    """Replayed cycles are invisible: events, wire and full node state
    match the bit engine over windows where cycles recur."""
    sim_fast, result_fast = _run(name, 0, "fast", duration=LONG_WINDOW,
                                 params=params)
    sim_bit, result_bit = _run(name, 0, "bit", duration=LONG_WINDOW,
                               params=params)
    assert _fingerprint(sim_fast) == _fingerprint(sim_bit)
    assert result_fast.to_dict() == result_bit.to_dict()
    stats = sim_fast.ff_stats
    assert stats.recorded_segments > 0
    assert stats.replayed_segments > 0
    assert stats.replayed_bits > 0
    assert sum(stats.replay_miss_reasons.values()) == stats.replay_misses


# ------------------------------------------------- counter-region edges

#: Long enough for the preset episode and a few more.
EDGE_WINDOW = 20_000

#: Attacker TEC presets: each region's edges (0 | 1-127 | 128-255) and
#: the values one retransmission (+8) away from them.
TEC_PRESETS = (0, 1, 8, 119, 120, 127, 128, 129, 247, 248)
#: MichiCAN REC presets: the edges of 0 | 1-127 | >= 128.
REC_PRESETS = (0, 1, 127, 128)
#: Presets strictly inside a region, a retransmission's +8 or more away
#: from its upper edge (or with no upper edge).
MID_REGION = {("tec", 8), ("tec", 119), ("tec", 129), ("rec", 1),
              ("rec", 128)}


def _preset(faults, tec=0, rec=0):
    """Drive ``faults`` to the given counters through its own update
    methods, so its error state and transition log stay consistent."""
    while faults.tec < tec:
        faults.on_transmit_error(0)
    while faults.tec > tec:
        faults.on_transmit_success(0)
    while faults.rec < rec:
        faults.on_receive_error(0)


EDGE_CASES = ([("tec", value) for value in TEC_PRESETS]
              + [("rec", value) for value in REC_PRESETS])


@pytest.mark.parametrize("name", ["exp2", "exp6"])
@pytest.mark.parametrize("counter,value", EDGE_CASES,
                         ids=[f"{c}{v}" for c, v in EDGE_CASES])
def test_counter_region_edges_replay_exactly(name, counter, value):
    """Cycles keyed by counter region replay exactly from every region
    edge: the attacker's TEC or MichiCAN's REC starts at ``value``."""
    def prepare(setup):
        if counter == "tec":
            _preset(setup.attackers[0].faults, tec=value)
        else:
            _preset(setup.defender.faults, rec=value)

    sim_fast, result_fast = _run(name, 0, "fast", duration=EDGE_WINDOW,
                                 prepare=prepare)
    sim_bit, result_bit = _run(name, 0, "bit", duration=EDGE_WINDOW,
                               prepare=prepare)
    assert _fingerprint(sim_fast) == _fingerprint(sim_bit)
    assert result_fast.to_dict() == result_bit.to_dict()
    if (counter, value) in MID_REGION:
        assert sim_fast.ff_stats.replayed_segments > 0


def _observed_fight(engine, attach, advance=None):
    """exp4 over a window with replays, with ``attach(sim)`` wiring
    observers first; returns (sim, whatever attach returned)."""
    spec = ScenarioSpec("exp4", seed=0, duration_bits=20_000, engine=engine)
    setup = spec.build()
    attached = attach(setup.sim)
    if advance is None:
        setup.sim.advance(spec.duration_bits, policy=spec.run_config().policy())
    else:
        advance(setup.sim)
    return setup.sim, attached


def test_replay_safe_observers_keep_replaying():
    """The probe, snapshotter and trace collector fold recorded events and
    subscribe to nothing.  So the engine replays under the probe and the
    collector exactly as often as bare; the snapshotter is a pseudo-node
    whose sample bits cut replay segments, so it is left out of that
    count."""
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder
    from repro.obs.tracing import TraceCollector

    sim = ScenarioSpec("exp4", seed=0).build().sim
    probe = BusProbe(sim)
    sim.add_node(SnapshotRecorder(probe, 500))
    TraceCollector(sim)
    assert sim._event_listeners == []

    bare, _ = _observed_fight("fast", lambda sim: None)
    observed, _ = _observed_fight(
        "fast", lambda sim: (BusProbe(sim), TraceCollector(sim)))
    assert (observed.ff_stats.replayed_segments
            == bare.ff_stats.replayed_segments > 0)


def test_flight_recorder_rides_replay(tmp_path):
    """FlightRecorder reads only the events it is handed, so the engine
    replays under it exactly as often as bare; its dump and its folded log
    match the bit engine's."""
    from repro.obs.flight import FlightRecorder, load_dump

    bare, _ = _observed_fight("fast", lambda sim: None)
    dumps = {}
    fingerprints = {}
    for engine in ("fast", "bit"):
        path = tmp_path / f"{engine}.flight.json"
        sim, recorder = _observed_fight(
            engine, lambda sim: FlightRecorder(
                sim, autoflush_path=path, flush_every=32))
        recorder.flush(reason="abort")
        dump = recorder.dump()
        folded = load_dump(path)
        for entry in (dump, folded):
            entry.pop("ff_stats")  # engine counters differ by construction
        dumps[engine] = (dump, folded)
        fingerprints[engine] = _fingerprint(sim)
        if engine == "fast":
            assert (sim.ff_stats.replayed_segments
                    == bare.ff_stats.replayed_segments > 0)
    assert fingerprints["fast"] == fingerprints["bit"]
    assert dumps["fast"] == dumps["bit"]


def test_unmarked_listener_disables_replay():
    """A plain lambda may read state or stop the run: no replay."""
    def attach(sim):
        events = []
        sim.on_event(lambda event: events.append(event.time))
        return events

    results = {}
    for engine in ("fast", "bit"):
        sim, events = _observed_fight(engine, attach)
        results[engine] = (_fingerprint(sim), events)
        if engine == "fast":
            assert sim.ff_stats.replayed_segments == 0
    assert results["fast"] == results["bit"]


def test_advance_until_never_replays():
    """Predicates are evaluated between steps, so advance_until only
    commits spans."""
    from repro.bus.events import BusOffEntered

    results = {}
    for engine in ("fast", "bit"):
        policy = "auto" if engine == "fast" else "off"
        sim, _ = _observed_fight(
            engine, lambda sim: None,
            advance=lambda sim, p=policy: sim.advance_until(
                lambda s: len(s.events_of(BusOffEntered)) >= 8, 20_000,
                policy=p))
        results[engine] = _fingerprint(sim)
        if engine == "fast":
            assert sim.ff_stats.replayed_segments == 0
            assert sim.ff_stats.recorded_segments == 0
    assert results["fast"] == results["bit"]


def test_request_stop_listener_stops_where_the_bit_engine_does():
    """A listener that stops the run must see it stop on the same bit."""
    from repro.bus.events import BusOffEntered

    def attach(sim):
        def stop_on_third_busoff(event):
            if (isinstance(event, BusOffEntered)
                    and len(sim.events_of(BusOffEntered)) == 3):
                sim.request_stop()
        sim.on_event(stop_on_third_busoff)

    results = {}
    for engine in ("fast", "bit"):
        sim, _ = _observed_fight(engine, attach)
        results[engine] = _fingerprint(sim)
        assert sim.time < 20_000  # the stop took effect
        if engine == "fast":
            assert sim.ff_stats.replayed_segments == 0
    assert results["fast"] == results["bit"]


def test_benign_restbus_never_arms_the_memo():
    """No error frame, no keys: benign traffic pays nothing for replay."""
    sim, _ = _run("restbus_baseline", 0, "fast")
    assert sim.ff_stats.recorded_segments == 0
    assert sim.ff_stats.replay_misses == 0
