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
    ("exp1", {}), ("exp2", {}), ("exp3", {}), ("exp4", {}), ("exp5", {}),
    ("exp6", {}), ("multi_attacker", {"num_attackers": 3}),
]

#: Engine counters of each fight, locked from the engine that replayed one
#: cycle per SOF boundary.  Composite runs change what a replay costs,
#: never which cycles replay, which boundaries miss or which spans commit.
CYCLE_STATS = {
    "exp1": dict(
        body_spans=78, body_bits=5730, idle_spans=50, idle_bits=25523,
        recorded_segments=210, replayed_segments=400, replayed_bits=15836,
        replay_miss_reasons=dict(uncapturable=107, new_key=176,
                                 guard_refused=34, not_replayable=0)),
    "exp2": dict(
        body_spans=24, body_bits=2147, idle_spans=22, idle_bits=28897,
        recorded_segments=42, replayed_segments=673, replayed_bits=25824,
        replay_miss_reasons=dict(uncapturable=7, new_key=36,
                                 guard_refused=11, not_replayable=0)),
    "exp3": dict(
        body_spans=78, body_bits=5698, idle_spans=45, idle_bits=25833,
        recorded_segments=179, replayed_segments=418, replayed_bits=16307,
        replay_miss_reasons=dict(uncapturable=120, new_key=152,
                                 guard_refused=27, not_replayable=0)),
    "exp4": dict(
        body_spans=27, body_bits=2431, idle_spans=21, idle_bits=28624,
        recorded_segments=31, replayed_segments=691, replayed_bits=26788,
        replay_miss_reasons=dict(uncapturable=7, new_key=22,
                                 guard_refused=9, not_replayable=1)),
    "exp5": dict(
        body_spans=3, body_bits=253, idle_spans=17, idle_bits=18496,
        recorded_segments=116, replayed_segments=965, replayed_bits=36515,
        replay_miss_reasons=dict(uncapturable=9, new_key=80,
                                 guard_refused=36, not_replayable=1)),
    "exp6": dict(
        body_spans=23, body_bits=2070, idle_spans=22, idle_bits=29443,
        recorded_segments=56, replayed_segments=664, replayed_bits=25527,
        replay_miss_reasons=dict(uncapturable=6, new_key=40,
                                 guard_refused=16, not_replayable=0)),
    "multi_attacker": dict(
        body_spans=3, body_bits=262, idle_spans=14, idle_bits=6868,
        recorded_segments=204, replayed_segments=1161, replayed_bits=44818,
        replay_miss_reasons=dict(uncapturable=8, new_key=123,
                                 guard_refused=81, not_replayable=1)),
}


@pytest.mark.parametrize("name,params", FIGHTS,
                         ids=[name for name, _ in FIGHTS])
def test_long_window_fights_replay_exactly(name, params):
    """Replayed cycles and runs are invisible: events, wire and full node
    state match the bit engine over windows where cycles recur, and the
    engine's decisions match replaying one cycle at a time."""
    sim_fast, result_fast = _run(name, 0, "fast", duration=LONG_WINDOW,
                                 params=params)
    sim_bit, result_bit = _run(name, 0, "bit", duration=LONG_WINDOW,
                               params=params)
    assert _fingerprint(sim_fast) == _fingerprint(sim_bit)
    assert result_fast.to_dict() == result_bit.to_dict()
    stats = sim_fast.ff_stats.as_dict()
    assert {key: stats[key] for key in CYCLE_STATS[name]} == CYCLE_STATS[name]
    assert stats["replayed_runs"] > 0
    assert sum(stats["replay_miss_reasons"].values()) == stats["replay_misses"]
    # Past its head, a run holds only the first cycle under each key: the
    # one the lookup picks wherever that cycle's guard admits.
    memo = sim_fast._ff_engine._cycles
    position = {id(segment): index for segments in memo._segments.values()
                for index, segment in enumerate(segments)}
    assert not any(position.get(id(part)) for run in memo._runs
                   for part in run.parts[1:])


# ------------------------------------------------------- composite runs

@pytest.fixture
def refused_runs(monkeypatch):
    """Composite runs refused at a SOF boundary whose head cycle then
    replayed alone, as (time, run, why, live start counters, deadline)
    with ``why`` the checks that failed: "guard", "replayable" (deadline
    or sample), "far" (a scheduler due time) or "evicted"."""
    from repro.bus.cycles import CycleMemo

    fits, replay = CycleMemo._fits, CycleMemo._replay
    pending, refused = [], []

    def spy_fits(self, run, records, counters, deadline):
        fitted = fits(self, run, records, counters, deadline)
        if not fitted:
            why = {check for check, held in (
                ("guard", run.admits(counters)),
                ("replayable", self._replayable(run, deadline)),
                ("far", min(record.far for record in records) >= run.reach),
                ("evicted", all(part.live for part in run.parts)),
            ) if not held}
            pending.append((self.sim.time, run, why, counters, deadline))
        return fitted

    def spy_replay(self, segment, records):
        refused.extend(entry for entry in pending
                       if entry[0] == self.sim.time
                       and entry[1].parts[0] is segment)
        pending.clear()
        replay(self, segment, records)

    monkeypatch.setattr(CycleMemo, "_fits", spy_fits)
    monkeypatch.setattr(CycleMemo, "_replay", spy_replay)
    return refused


def _fight(name, engine, duration, params=None, prepare=None, chunk=None):
    """One fight advanced in ``chunk``-bit calls; returns its simulator."""
    spec = ScenarioSpec(name, params=dict(params or {}), seed=0,
                        duration_bits=duration, engine=engine)
    setup = spec.build()
    if prepare is not None:
        prepare(setup)
    policy = spec.run_config().policy()
    sim = setup.sim
    while sim.time < duration:
        sim.advance(min(chunk or duration, duration - sim.time),
                    policy=policy)
    return sim


def _exact_with_runs(*args, **kwargs):
    """Run :func:`_fight` under both engines; the fast simulator, after
    checking the fingerprints match and a composite run replayed."""
    sim_fast = _fight(*args, "fast", **kwargs)
    assert _fingerprint(sim_fast) == _fingerprint(_fight(*args, "bit",
                                                         **kwargs))
    assert sim_fast.ff_stats.replayed_runs > 0
    return sim_fast


def test_run_refused_across_the_deadline(refused_runs):
    """An ``advance`` deadline inside a run replays its head cycle."""
    _exact_with_runs("exp4", duration=20_000, chunk=997)
    assert any(why == {"replayable"} and time + run.length > deadline
               for time, run, why, _, deadline in refused_runs)


def test_run_refused_across_a_sample(refused_runs):
    """A snapshot sample inside a run replays its head cycle."""
    from repro.obs.probe import BusProbe
    from repro.obs.snapshot import SnapshotRecorder

    runs = {}
    for engine in ("fast", "bit"):
        recorders = []
        sim = _fight("exp4", engine, 20_000, prepare=lambda setup: (
            recorders.append(setup.sim.add_node(
                SnapshotRecorder(BusProbe(setup.sim), 1_000)))))
        fingerprint = _fingerprint(sim)
        # The probe's fold holds slotted tallies that compare by identity.
        del fingerprint["nodes"][recorders[0].name]
        runs[engine] = fingerprint, recorders[0].snapshots, sim.ff_stats
    assert runs["fast"][:2] == runs["bit"][:2]
    assert runs["fast"][2].replayed_runs > 0
    assert any(why == {"replayable"} and time + run.length <= deadline
               for time, run, why, _, deadline in refused_runs)


def test_run_refused_across_a_periodic_due_time(refused_runs):
    """The defender's periodic 0x173 (due at 25,977 and 50,977) coming due
    inside a run, or within a capture's look-ahead of its last cycle,
    replays its head cycle."""
    _exact_with_runs("exp4", duration=LONG_WINDOW)
    assert any(why == {"far"} and time < due < time + run.reach
               for time, run, why, _, _ in refused_runs
               for due in (25_977, 50_977))


def test_run_refused_by_its_guard_after_a_preset(refused_runs):
    """A TEC preset through the attacker's own counter updates shifts the
    first episodes' counters: later boundaries meet runs recorded there
    with live counters that the head cycle's guard admits and the run's
    does not."""
    def prepare(setup):
        _preset(setup.attackers[0].faults, tec=1)

    _exact_with_runs("exp2", duration=EDGE_WINDOW, prepare=prepare)
    assert any(why == {"guard"} for _, _, why, _, _ in refused_runs)


def test_run_refused_across_a_bus_off_recovery(refused_runs):
    """A run whose recorded bus-off gain would take a live bus-off count
    to recovery replays its head cycle instead."""
    _exact_with_runs("multi_attacker", duration=EDGE_WINDOW,
                     params={"num_attackers": 3})
    assert any(why == {"guard"} and any(
        counters[index] > run.guard[1][index]
        for index in range(2, len(counters), 3))
        for _, run, why, counters, _ in refused_runs)


def test_run_refused_once_a_part_is_evicted(monkeypatch, refused_runs):
    """A run one of whose later cycles lost its key to memo eviction
    replays its head cycle alone, where replaying cycle by cycle misses
    at that key.  State and counters match the engine without runs."""
    from repro.bus import cycles

    monkeypatch.setattr(cycles, "MEMO_ENTRIES", 48)
    runs = {}
    for entries in (cycles.RUN_ENTRIES, 0):
        monkeypatch.setattr(cycles, "RUN_ENTRIES", entries)
        sim = _fight("multi_attacker", "fast", 40_000,
                     params={"num_attackers": 3})
        stats = sim.ff_stats.as_dict()
        runs[entries] = (_fingerprint(sim), stats.pop("replayed_runs"),
                         stats)
        stats.pop("recorded_runs")
    (with_runs, replayed, stats), (cycle_by_cycle, none, cycle_stats) = (
        runs.values())
    assert with_runs == cycle_by_cycle and stats == cycle_stats
    assert replayed > 0 and none == 0
    assert any(why == {"evicted"} for _, _, why, _, _ in refused_runs)


def test_run_rebuilds_frames_transmitted_inside_it(monkeypatch):
    """Two flooders sending one identical frame both win every bit, so
    their frame bodies stay per-bit and successful transmissions recur
    inside replayed cycles.  Bursts of one or two higher-priority frames
    make them lose arbitration once or twice first, so a run headed by
    that retry ends a frame whose attempt count differs from run to run.
    A cycle replayed while a run records emits its events before it
    restores the queues: the run must take each FrameTransmitted's queue
    entry from the replayed cycle, not from the live queue."""
    from repro.attacks.dos import DosAttacker
    from repro.bus.cycles import CycleMemo
    from repro.bus.events import FrameTransmitted
    from repro.bus.simulator import CanBusSimulator
    from repro.node.controller import CanNode
    from repro.node.scheduler import PeriodicMessage, PeriodicScheduler

    replay = CycleMemo._replay
    inside_runs = []

    def spy_replay(self, segment, records):
        if any(recipe[1] is FrameTransmitted for recipe in segment.events):
            inside_runs.append(segment.cycles > 1
                               or self._recording is not None)
        replay(self, segment, records)

    monkeypatch.setattr(CycleMemo, "_replay", spy_replay)

    def flooders(engine):
        sim = CanBusSimulator()
        sim.add_nodes(
            DosAttacker("a", 0x555), DosAttacker("b", 0x555),
            CanNode("receiver"),
            CanNode("bursts", scheduler=PeriodicScheduler([
                PeriodicMessage(0x100, period_bits=900, offset_bits=900),
                PeriodicMessage(0x101, period_bits=1_400,
                                offset_bits=1_400)])),
            # One colliding frame whose data differs: the error that arms
            # the memo.  It never recovers from the bus-off it ends in.
            DosAttacker("c", 0x555, payload_fn=lambda _: b"\xff" * 8,
                        limit=1, auto_recover=False))
        sim.advance(EDGE_WINDOW, policy="auto" if engine == "fast" else "off")
        return sim

    sim_fast = flooders("fast")
    assert _fingerprint(sim_fast) == _fingerprint(flooders("bit"))
    attempts = {event.attempts for event in sim_fast.events_of(FrameTransmitted)
                if event.node == "a"}
    assert {1, 2, 3} <= attempts
    assert sim_fast.ff_stats.replayed_runs > 0
    assert any(inside_runs)


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
