"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro table2 --experiment 4
    python -m repro latency --fsms 5000
    python -m repro multi --attackers 4
    python -m repro parksense --defended
    python -m repro fsm --ecus 0xA0,0x173,0x2F0 --own 0x173
    python -m repro demo
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.busoff_theory import busoff_ms, undisturbed_busoff_bits
from repro.analysis.cpu import PROFILES, analytic_utilization
from repro.analysis.latency import run_latency_study
from repro.baselines.comparison import render_table
from repro.core.config import IvnConfig
from repro.core.fsm import DetectionFsm


def _parse_id(text: str) -> int:
    return int(text, 0)


def _parse_id_list(text: str) -> List[int]:
    return [_parse_id(part) for part in text.split(",") if part.strip()]


def _parse_float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _parse_param_value(text: str) -> Any:
    """Best-effort typing for ``--param key=value`` values."""
    if "," in text:
        return [_parse_param_value(part) for part in text.split(",")
                if part.strip()]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for parse in (lambda t: int(t, 0), float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"error: --param expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        params[key] = _parse_param_value(value)
    return params


# ----------------------------------------------------------------- commands

def cmd_table1(_args: argparse.Namespace) -> int:
    print(render_table())
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.config import RunConfig
    from repro.experiments.scenarios import EXPERIMENTS, run_table2

    if args.experiment is not None:
        if args.experiment not in EXPERIMENTS:
            print(f"error: experiment must be 1..6, got {args.experiment}",
                  file=sys.stderr)
            return 2
        result = EXPERIMENTS[args.experiment]().run(
            config=RunConfig(duration_bits=args.duration))
        print(result.render())
        return 0
    for result in run_table2(duration_bits=args.duration).values():
        print(result.render())
    return 0


def cmd_table3(_args: argparse.Namespace) -> int:
    from repro.analysis.busoff_theory import (
        BEST_CASE_PREFIX_BITS,
        error_active_time,
        error_passive_time,
    )

    print("Table III — theoretical bus-off times (bits)")
    print(f"  t_a worst/best : {error_active_time()} / "
          f"{error_active_time(BEST_CASE_PREFIX_BITS)}")
    print(f"  t_p worst/best : {error_passive_time()} / "
          f"{error_passive_time(BEST_CASE_PREFIX_BITS)}")
    total = undisturbed_busoff_bits()
    print(f"  undisturbed total: {total} bits "
          f"({busoff_ms(total, 50_000):.2f} ms at 50 kbit/s)")
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    report = run_latency_study(num_fsms=args.fsms, seed=args.seed)
    print(f"random FSMs .......... {report.fsms}")
    print(f"malicious samples .... {report.malicious_samples}")
    print(f"detection rate ....... {report.detection_rate:.2%}")
    print(f"false positives ...... {report.false_positive_rate:.2%}")
    print(f"mean detection bit ... {report.mean_detection_bit:.2f} (paper: 9)")
    for bit in sorted(report.histogram):
        bar = "#" * max(1, report.histogram[bit] * 50 // max(1, report.detected))
        print(f"  bit {bit:>2}: {bar}")
    return 0


def cmd_multi(args: argparse.Namespace) -> int:
    from repro.experiments.config import RunConfig
    from repro.experiments.scenarios import (
        multi_attacker_experiment,
        total_fight_bits,
    )

    result = multi_attacker_experiment(args.attackers).run(
        config=RunConfig(duration_bits=args.duration))
    total = total_fight_bits(result)
    print(result.render())
    print(f"total fight: {total} bits "
          f"({busoff_ms(total, 50_000):.1f} ms at 50 kbit/s)")
    print("verdict:", "within the 10 ms deadline budget"
          if total <= 5_000 else "DEADLINE MISS — bus inoperable")
    return 0


def cmd_cpu(args: argparse.Namespace) -> int:
    print(f"{'profile':<38} {'speed':>10} {'idle':>7} {'active':>7} "
          f"{'combined':>9}")
    for name, profile in PROFILES.items():
        for speed in (50_000, 125_000, 250_000, 500_000):
            load = analytic_utilization(profile, speed,
                                        light_scenario=args.light)
            marker = "" if load.feasible() else "  (infeasible)"
            print(f"{profile.name:<38} {speed:>10} "
                  f"{load.idle_load:>6.1%} {load.active_load:>6.1%} "
                  f"{load.combined_load:>8.1%}{marker}")
    return 0


def cmd_parksense(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import parksense_experiment

    outcome = parksense_experiment(
        with_michican=args.defended, duration_bits=args.duration
    )
    feature = outcome.feature
    print(f"scenario ............. "
          f"{'MichiCAN on OBD-II' if args.defended else 'undefended'}")
    print(f"feature state ........ {feature.state.value}")
    print(f"automatic braking .... "
          f"{'available' if feature.automatic_braking_available else 'LOST'}")
    for message in outcome.dashboard:
        print(f"cluster .............. \"{message}\"")
    print(f"attacker bus-offs .... {outcome.attacker_busoff_count}")
    return 0


def cmd_fsm(args: argparse.Namespace) -> int:
    ivn = IvnConfig(ecu_ids=tuple(args.ecus))
    own = args.own if args.own is not None else ivn.highest_id
    detection = ivn.detection_range(own)
    fsm = DetectionFsm(detection)
    stats = fsm.stats()
    print(f"IVN E ................ {[hex(i) for i in ivn.ecu_ids]}")
    print(f"own ID ............... 0x{own:03X}")
    print(f"|D| .................. {len(detection)}")
    print(f"FSM states ........... {stats.states}")
    print(f"mean detection bit ... {stats.mean_malicious_depth:.2f}")
    print(f"worst-case depth ..... {stats.max_depth}")
    if args.classify is not None:
        verdict = fsm.classify(args.classify)
        depth = fsm.decision_depth(args.classify)
        print(f"0x{args.classify:03X} ................ "
              f"{verdict.value} (decided at ID bit {depth})")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    from repro.workloads.trace_io import parse_candump

    with open(args.logfile, encoding="utf-8") as handle:
        records = parse_candump(handle)
    print(f"{len(records)} frames in {args.logfile}")
    by_id: dict = {}
    for record in records:
        by_id.setdefault(record.frame.can_id, []).append(record)
    print(f"{'ID':>10} {'count':>6} {'kind':>10} {'mean period (ms)':>17}")
    for can_id in sorted(by_id):
        rows = by_id[can_id]
        stamps = [r.timestamp for r in rows]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        period = f"{sum(gaps) / len(gaps) * 1e3:.1f}" if gaps else "-"
        frame = rows[0].frame
        kind = ("ext" if frame.extended else "std") + (
            "/rtr" if frame.remote else "")
        ident = f"0x{can_id:08X}" if frame.extended else f"0x{can_id:03X}"
        print(f"{ident:>10} {len(rows):>6} {kind:>10} {period:>17}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.bus.simulator import CanBusSimulator
    from repro.bus.events import BusOffEntered, FrameTransmitted
    from repro.core.defense import MichiCanNode
    from repro.experiments.scenarios import detection_ids_for
    from repro.workloads.trace_io import LogReplayNode, parse_candump

    with open(args.logfile, encoding="utf-8") as handle:
        records = parse_candump(handle)
    sim = CanBusSimulator(bus_speed=args.bus_speed)
    replay = sim.add_node(LogReplayNode(
        "replay", records, args.bus_speed, time_scale=args.time_scale))
    defender = None
    if args.defend is not None:
        legitimate = sorted({r.frame.can_id for r in records
                             if not r.frame.extended})
        defender = sim.add_node(MichiCanNode(
            "michican", detection_ids_for(args.defend, legitimate)))
    from repro.node.controller import CanNode

    sim.add_node(CanNode("listener"))
    limit = args.duration
    sim.advance_until(lambda s: replay.replay_finished, limit)
    delivered = len(sim.events_of(FrameTransmitted))
    print(f"replayed {delivered}/{len(records)} frames in "
          f"{sim.time} bit times ({sim.milliseconds():.1f} ms)")
    if defender is not None:
        print(f"MichiCAN detections: {len(defender.detections)}, "
              f"counterattacks: {defender.counterattacks}, "
              f"bus-offs: {len(sim.events_of(BusOffEntered))}")
    return 0


def cmd_codegen(args: argparse.Namespace) -> int:
    from repro.core.codegen import generate_c

    ivn = IvnConfig(ecu_ids=tuple(args.ecus))
    own = args.own if args.own is not None else ivn.highest_id
    fsm = DetectionFsm(ivn.detection_range(own))
    print(generate_c(fsm, symbol_prefix=args.prefix))
    return 0


def cmd_waveform(args: argparse.Namespace) -> int:
    from repro.attacks.dos import DosAttacker
    from repro.bus.events import BusOffEntered, CounterattackStarted
    from repro.bus.simulator import CanBusSimulator
    from repro.core.defense import MichiCanNode
    from repro.trace.svg import render_timeline_svg, render_waveform_svg

    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", args.attack_id))
    sim.advance(args.duration)
    annotations = {
        e.time: "counterattack"
        for e in sim.events_of(CounterattackStarted)[:3]
    }
    for e in sim.events_of(BusOffEntered):
        annotations[e.time] = "bus-off"
    if args.timeline:
        svg = render_timeline_svg(sim.events)
    else:
        svg = render_waveform_svg(sim.wire.history, end=args.bits,
                                  annotations=annotations)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(f"wrote {args.output}")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    from repro.analysis.coverage import plan_coverage

    ivn = IvnConfig(ecu_ids=tuple(args.ecus))
    equipped = args.equip if args.equip else [ivn.highest_id]
    plan = plan_coverage(ivn, equipped)
    print(f"IVN E ................ {[hex(i) for i in ivn.ecu_ids]}")
    print(f"equipped ............. {[hex(i) for i in plan.equipped]}")
    print(f"DoS coverage ......... "
          f"{'FULL' if plan.full_dos_coverage else 'PARTIAL'} "
          f"({len(plan.dos_covered)} IDs, redundancy k={plan.redundancy})")
    if plan.dos_uncovered:
        gaps = [f"[{lo:#x},{hi:#x}]" for lo, hi
                in plan.dos_uncovered.intervals()][:6]
        print(f"uncovered DoS ranges . {', '.join(gaps)}")
    print(f"spoof-protected ...... {[hex(i) for i in plan.spoof_protected]}")
    print(f"spoof-UNprotected .... {[hex(i) for i in plan.spoof_unprotected]}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    text = generate_report(sections=args.sections)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.attacks.dos import DosAttacker
    from repro.bus.events import AttackDetected, BusOffEntered
    from repro.bus.simulator import CanBusSimulator
    from repro.core.defense import MichiCanNode
    from repro.trace.recorder import LogicTrace

    sim = CanBusSimulator(bus_speed=args.bus_speed)
    defender = sim.add_node(MichiCanNode("defender", range(0x100)))
    attacker = sim.add_node(DosAttacker("attacker", args.attack_id))
    sim.advance_until(lambda s: attacker.is_bus_off, 20_000)
    detection = sim.events_of(AttackDetected)[0]
    busoff = sim.events_of(BusOffEntered)[0]
    print(f"attack ID 0x{args.attack_id:03X} flooded at "
          f"{args.bus_speed // 1000} kbit/s")
    print(f"detected at t={detection.time} "
          f"(ID bit {detection.detection_bit}); "
          f"bus-off at t={busoff.time} "
          f"({sim.milliseconds(busoff.time):.2f} ms)")
    print("\nfirst 80 wire bits ('_' dominant, '^' recessive):")
    print(LogicTrace(sim.wire.history).render(end=80))
    return 0


def _build_result_cache(cache_dir: str, manifest_path: Optional[str]) -> Any:
    """A ready :class:`ResultCache` for ``campaign run --cache``.

    With ``--manifest`` the stored purity manifest is trusted (silently
    falling back to a fresh analysis when it is missing, corrupted or
    version-skewed); otherwise the effect analysis runs over the
    installed ``repro`` package to certify the registered scenarios.
    """
    import repro
    from repro.analysis.purity import PurityManifest, build_purity_manifest
    from repro.experiments.resultcache import ResultCache

    manifest = None
    if manifest_path:
        manifest = PurityManifest.load(manifest_path)
        if manifest is None:
            print(f"note: purity manifest {manifest_path!r} is missing, "
                  f"corrupted or stale — re-running the effect analysis",
                  file=sys.stderr)
    if manifest is None:
        manifest = build_purity_manifest([os.path.dirname(repro.__file__)])
    return ResultCache(cache_dir, manifest)


def _campaign_specs(args: argparse.Namespace) -> List[Any]:
    """Build the spec list from --spec-file / --scenario flags.

    Shared by ``campaign run`` (local execution) and ``campaign submit``
    (service client).  Raises :class:`~repro.errors.ConfigurationError`
    on an unusable combination.
    """
    from repro.errors import ConfigurationError
    from repro.experiments.campaign import ScenarioSpec, scenario_names

    faults = None
    if getattr(args, "faults", None):
        from repro.faults.plan import load_fault_plan

        faults = load_fault_plan(args.faults)
    specs: List[Any] = []
    if args.spec_file:
        import json

        with open(args.spec_file, encoding="utf-8") as handle:
            specs = [ScenarioSpec.from_dict(entry)
                     for entry in json.load(handle)]
    if args.scenario:
        if args.scenario not in scenario_names():
            raise ConfigurationError(
                f"unknown scenario {args.scenario!r} "
                f"(see `repro campaign scenarios`)")
        params = _parse_params(args.param)
        specs.extend(
            ScenarioSpec(args.scenario, params=params, seed=seed,
                         duration_bits=args.duration,
                         metrics=not args.no_metrics,
                         snapshot_every_bits=args.snapshot_every,
                         faults=faults, engine=args.engine)
            for seed in args.seeds
        )
    if not specs:
        raise ConfigurationError(
            "nothing to run — give --scenario and/or --spec-file")
    return specs


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.experiments.campaign import (
        Campaign,
        scenario_names,
        scenario_summary,
    )
    from repro.experiments.store import load_report, save_report

    if args.campaign_command == "scenarios":
        width = max(len(name) for name in scenario_names())
        for name in scenario_names():
            print(f"{name:<{width}}  {scenario_summary(name)}")
        return 0

    if args.campaign_command == "show":
        report = load_report(args.report)
        print(report.render())
        return 0

    if args.campaign_command == "watch":
        import time as _time

        from repro.experiments.telemetry import load_progress, render_progress

        while True:
            progress = load_progress(args.checkpoint)
            print(render_progress(progress))
            if not args.follow or progress.finished:
                return 0
            _time.sleep(args.interval)
            print()

    if args.campaign_command == "submit":
        from repro.experiments.service.server import request

        try:
            specs = _campaign_specs(args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            response = request(
                args.socket,
                {"op": "submit",
                 "specs": [spec.to_dict() for spec in specs]})
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not response.get("ok"):
            kind = response.get("kind", "internal")
            print(f"rejected ({kind}): {response.get('error')}",
                  file=sys.stderr)
            return 3 if kind in ("queue-full", "draining") else 2
        accepted = response.get("accepted", [])
        duplicate = response.get("duplicate", [])
        completed = response.get("completed", [])
        print(f"accepted {len(accepted)} spec(s)"
              f" ({len(duplicate)} already queued,"
              f" {len(completed)} already completed)")
        for key in accepted:
            print(f"  {key[:16]}")
        return 0

    if args.campaign_command == "status":
        from repro.experiments.service.server import request

        try:
            if args.report:
                from repro.experiments.campaign import CampaignReport

                response = request(args.socket, {"op": "report"})
                if not response.get("ok"):
                    print(f"error: {response.get('error')}", file=sys.stderr)
                    return 2
                print(CampaignReport.from_dict(response["report"]).render())
                return 0
            response = request(args.socket, {"op": "status"})
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not response.get("ok"):
            print(f"error: {response.get('error')}", file=sys.stderr)
            return 2
        status = response["status"]
        if args.json:
            import json

            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        print(_render_service_status(args.socket, status))
        return 0

    # campaign run
    try:
        specs = _campaign_specs(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume needs --checkpoint FILE", file=sys.stderr)
        return 2
    if args.telemetry and not args.checkpoint:
        print("error: --telemetry needs --checkpoint FILE (it streams into "
              "the work journal)", file=sys.stderr)
        return 2
    if args.cache and args.no_cache:
        print("error: --cache and --no-cache are mutually exclusive",
              file=sys.stderr)
        return 2
    result_cache = None
    if args.cache:
        from repro.experiments.resultcache import DEFAULT_CACHE_DIR

        result_cache = _build_result_cache(
            args.cache_dir or DEFAULT_CACHE_DIR, args.manifest)
    report = Campaign(
        specs, n_workers=args.workers, timeout_seconds=args.timeout,
        max_retries=args.retries, retry_backoff_seconds=args.backoff,
        checkpoint=args.checkpoint, flight_dir=args.flight_dir,
        telemetry=args.telemetry, result_cache=result_cache,
    ).run(resume=args.resume)
    print(report.render())
    if result_cache is not None:
        print(result_cache.render_stats())
    if args.out:
        save_report(report, args.out)
        print(f"\nwrote {args.out}")
    if args.snapshot_dir:
        import os

        from repro.obs.snapshot import write_snapshots

        os.makedirs(args.snapshot_dir, exist_ok=True)
        for record in report.records:
            if not record.snapshots:
                continue
            safe = record.spec.name.replace(os.sep, "_").replace("#", "_")
            path = write_snapshots(
                record.snapshots,
                os.path.join(args.snapshot_dir, f"{safe}.snapshots.jsonl"),
                meta={"spec": record.spec.name},
            )
            print(f"wrote {path}")
    return 1 if report.failures else 0


def _render_service_status(socket_path: str, status: Dict[str, Any]) -> str:
    """Terminal block for ``repro campaign status``."""
    lines = [
        f"campaign service @ {socket_path}",
        f"  submitted {status.get('submitted', 0)}  "
        f"completed {status.get('completed', 0)}  "
        f"failed {status.get('failed', 0)}  "
        f"queued {status.get('queued', 0)}/"
        f"{status.get('queue_capacity', '?')}  "
        f"in-flight {status.get('in_flight', 0)}",
        f"  journal {status.get('journal_path', '?')}"
        + (f"  [DEGRADED: {status.get('journal_write_failures')} write "
           f"failure(s) — resume may be incomplete]"
           if status.get("journal_degraded") else ""),
        f"  uptime {status.get('uptime_seconds', 0.0):.1f} s"
        + ("  [draining]" if status.get("draining") else ""),
    ]
    workers = status.get("workers") or []
    if workers:
        lines.append("  workers:")
        for worker in workers:
            spec = worker.get("spec") or "-"
            restarts = worker.get("restarts", 0)
            suffix = f"  ({restarts} restart(s))" if restarts else ""
            lines.append(f"    {worker.get('name', '?'):<12} "
                         f"{worker.get('state', '?'):<10} {spec}{suffix}")
    return "\n".join(lines)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.experiments.service import CampaignService, ServiceServer
    from repro.experiments.store import save_report

    result_cache = None
    if args.cache:
        from repro.experiments.resultcache import DEFAULT_CACHE_DIR

        result_cache = _build_result_cache(
            args.cache_dir or DEFAULT_CACHE_DIR, args.manifest)
    service = CampaignService(
        args.journal,
        n_workers=args.workers,
        queue_capacity=args.queue_limit,
        lease_seconds=args.lease,
        heartbeat_seconds=args.heartbeat,
        max_retries=args.retries,
        retry_backoff_seconds=args.backoff,
        poison_threshold=args.poison_threshold,
        max_worker_restarts=args.max_restarts,
        flight_dir=args.flight_dir,
        telemetry=args.telemetry,
        result_cache=result_cache,
        resume=args.resume,
    )
    if not args.resume:
        service.journal.reset()
    server = ServiceServer(service, args.socket,
                           idle_exit_seconds=args.idle_exit)
    print(f"campaign service listening on {args.socket}\n"
          f"  journal: {args.journal}   workers: {args.workers}   "
          f"queue limit: {args.queue_limit}\n"
          f"  submit with `repro campaign submit --socket {args.socket} "
          f"...`; SIGTERM drains gracefully", flush=True)
    server.run()
    report = service.report()
    print(report.render())
    if result_cache is not None:
        print(result_cache.render_stats())
    if args.report_out:
        save_report(report, args.report_out)
        print(f"\nwrote {args.report_out}")
    if service.journal.degraded:
        print(f"\nWARNING: {service.journal.write_failures} journal write "
              f"failure(s) — results above are complete, but a --resume "
              f"restart may re-run some specs", file=sys.stderr)
    return 1 if report.failures else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import run_degradation_sweep

    if args.resume and not args.checkpoint:
        print("error: --resume needs --checkpoint FILE", file=sys.stderr)
        return 2
    curve = run_degradation_sweep(
        intensities=args.intensities,
        seeds=args.seeds,
        duration_bits=args.duration,
        n_workers=args.workers,
        timeout_seconds=args.timeout,
        max_retries=args.retries,
        checkpoint=args.checkpoint,
        resume=args.resume,
    )
    print(curve.render())
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(curve.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    return 1 if any(point.failed_runs for point in curve.points) else 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.experiments.store import load_report

    if args.metrics_command == "summary":
        report = load_report(args.report)
        shown = 0
        for record in report.records:
            summary = record.result.metrics
            if summary is None:
                continue
            shown += 1
            print(f"[{record.spec.name}]")
            print(summary.render())
        if not shown:
            print("(report carries no metrics — run the campaign "
                  "without --no-metrics)")
            return 1
        from repro.obs.probe import render_totals

        totals = report.metrics_totals()
        print("\ncampaign-wide telemetry totals:")
        print(render_totals(totals))
        return 0

    if args.metrics_command == "export":
        report = load_report(args.report)
        if args.format == "prometheus":
            from repro.obs.export import report_to_prometheus

            text = report_to_prometheus(report)
        else:
            import json

            lines = []
            for record in report.records:
                summary = record.result.metrics
                if summary is None:
                    continue
                entry = {"spec": record.spec.name, **summary.to_dict()}
                lines.append(json.dumps(entry, sort_keys=True))
            text = "\n".join(lines) + "\n" if lines else ""
        if not text:
            print("(report carries no metrics)", file=sys.stderr)
            return 1
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        else:
            print(text, end="")
        return 0

    if args.metrics_command == "tail":
        from repro.obs.snapshot import read_snapshots, render_snapshots

        snapshots = read_snapshots(args.snapshots)
        print(render_snapshots(snapshots, last=args.lines))
        return 0

    # metrics profile
    from repro.experiments.campaign import ScenarioSpec, scenario_names
    from repro.obs.profiler import profile_run

    if args.scenario not in scenario_names():
        print(f"error: unknown scenario {args.scenario!r} "
              f"(see `repro campaign scenarios`)", file=sys.stderr)
        return 2
    spec = ScenarioSpec(args.scenario, params=_parse_params(args.param),
                        seed=args.seed)
    setup = spec.build()
    sim = getattr(setup, "sim", None)
    if sim is None:
        print(f"error: scenario {args.scenario!r} exposes no simulator",
              file=sys.stderr)
        return 2
    profile = profile_run(sim, args.duration)
    print(profile.render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "export":
        from repro.experiments.campaign import ScenarioSpec, scenario_names
        from repro.obs.tracing import (
            TraceCollector,
            render_spans,
            write_chrome_trace,
            write_trace,
        )

        if args.scenario not in scenario_names():
            print(f"error: unknown scenario {args.scenario!r} "
                  f"(see `repro campaign scenarios`)", file=sys.stderr)
            return 2
        spec = ScenarioSpec(args.scenario, params=_parse_params(args.param),
                            seed=args.seed, duration_bits=args.duration,
                            metrics=False, engine=args.engine)
        setup = spec.build()
        sim = getattr(setup, "sim", None)
        if sim is None:
            print(f"error: scenario {args.scenario!r} exposes no simulator",
                  file=sys.stderr)
            return 2
        collector = TraceCollector(sim,
                                   include_engine_spans=args.engine_spans)
        setup.run(config=spec.run_config())
        spans = collector.finalize()
        engine_spans = collector.engine_spans if args.engine_spans else None
        if args.output:
            if args.format == "chrome":
                path = write_chrome_trace(spans, args.output,
                                          bus_speed=sim.bus_speed,
                                          engine_spans=engine_spans)
            else:
                path = write_trace(
                    spans, args.output,
                    meta={"scenario": args.scenario, "seed": args.seed,
                          "engine": args.engine,
                          "duration_bits": args.duration,
                          "bus_speed": sim.bus_speed})
            extra = (f" (+{len(engine_spans)} engine spans)"
                     if engine_spans else "")
            print(f"wrote {path} ({len(spans)} spans{extra})")
        else:
            print(render_spans(spans, limit=args.limit))
        return 0

    # trace postmortem
    from repro.obs.flight import load_dump, render_dump

    dump = load_dump(args.dump)
    print(render_dump(dump, events=args.events))
    if args.svg:
        from repro.trace.svg import render_waveform_svg

        levels = dump.get("wire_tail", {}).get("levels", [])
        if not levels:
            print("error: dump carries no wire tail to render",
                  file=sys.stderr)
            return 1
        svg = render_waveform_svg(levels)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"\nwrote {args.svg}")
    return 0


def _git_changed_python_files() -> Optional[List[str]]:
    """Python files touched relative to HEAD (tracked diffs + untracked
    new files).

    Both git commands run from the repository toplevel: ``git diff``
    prints toplevel-relative paths while ``git ls-files --others`` prints
    cwd-relative ones, so mixing them from a subdirectory would silently
    drop untracked files (exactly the new-file case ``--changed`` must
    catch).  Results are returned relative to the CWD.  Returns None when
    the working directory is not a git work tree (or git is unavailable)
    so the caller can report a usable error.
    """
    import subprocess

    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    if not top:
        return None
    names: List[str] = []
    for command in (["git", "diff", "--name-only", "HEAD"],
                    ["git", "ls-files", "--others", "--exclude-standard"]):
        try:
            result = subprocess.run(command, capture_output=True, text=True,
                                    check=True, cwd=top)
        except (OSError, subprocess.CalledProcessError):
            return None
        names.extend(line.strip() for line in result.stdout.splitlines()
                     if line.strip())
    files: set = set()
    for name in names:
        if not name.endswith(".py"):
            continue
        path = os.path.relpath(os.path.join(top, name))
        if os.path.isfile(path):
            files.add(path)
    return sorted(files)


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import collect_python_files, lint_paths
    from repro.analysis.lint.engine import iter_rule_lines, rule_inventory
    from repro.analysis.verifier import verify_fault_plan_file, verify_plan_file
    from repro.errors import ConfigurationError

    if args.list_rules:
        if args.format == "json":
            print(json.dumps(rule_inventory(), indent=2))
        else:
            for line in iter_rule_lines():
                print(line)
        return 0

    if not args.paths and not args.plan and not args.faults \
            and not args.changed:
        print("error: give paths to lint, --changed, --plan PLAN.json, "
              "and/or --faults FAULTS.json", file=sys.stderr)
        return 2

    lint_targets: Optional[List[str]] = list(args.paths)
    if args.changed:
        changed = _git_changed_python_files()
        if changed is None:
            print("error: --changed needs a git work tree "
                  "(git diff against HEAD failed)", file=sys.stderr)
            return 2
        if args.paths:
            scope = {os.path.abspath(f)
                     for f in collect_python_files(args.paths)}
            changed = [f for f in changed if os.path.abspath(f) in scope]
        lint_targets = changed
        if args.deep and args.select:
            from repro.analysis.lint.deep import RULE_ANCHOR_SUFFIXES

            requested = [f.replace("\\", "/")
                         for f in collect_python_files(lint_targets)]
            missing = []
            for code in args.select:
                normalized = code.strip().upper()
                for suffix in RULE_ANCHOR_SUFFIXES.get(normalized, ()):
                    if not any(f.endswith(suffix) for f in requested):
                        missing.append(f"{normalized} anchors in {suffix}")
            if missing:
                print("error: --changed excludes the sink files of "
                      "explicitly selected deep rules "
                      f"({'; '.join(sorted(set(missing)))}); a clean "
                      "result there would mean 'not checked', not "
                      "'clean' — lint those files directly or drop the "
                      "--select", file=sys.stderr)
                return 2

    if args.purity_manifest and not args.deep:
        print("error: --purity-manifest needs --deep (the manifest is "
              "derived from the whole-program effect analysis)",
              file=sys.stderr)
        return 2
    if args.concurrency_report and not args.deep:
        print("error: --concurrency-report needs --deep (the report is "
              "derived from the whole-program concurrency analysis)",
              file=sys.stderr)
        return 2

    cache = None
    if not args.no_cache and (lint_targets or args.changed):
        from repro.analysis.callgraph import DEFAULT_CACHE_PATH, AnalysisCache

        cache = AnalysisCache(args.cache or DEFAULT_CACHE_PATH)

    failed = False
    try:
        if lint_targets or args.changed:
            report = lint_paths(lint_targets or [], select=args.select,
                                ignore=args.ignore, deep=args.deep,
                                cache=cache,
                                include_dependents=args.changed)
            print(report.render_json() if args.format == "json"
                  else report.render_text())
            failed |= not report.ok
        if args.purity_manifest:
            from repro.analysis.purity import build_purity_manifest

            manifest = build_purity_manifest(lint_targets or [],
                                             cache=cache)
            manifest.save(args.purity_manifest)
            verdicts = [entry.verdict
                        for entry in manifest.scenarios.values()]
            print(f"purity manifest: {len(verdicts)} scenario(s) "
                  f"({verdicts.count('pure')} pure, "
                  f"{verdicts.count('impure')} impure, "
                  f"{verdicts.count('unresolved')} unresolved) "
                  f"-> {args.purity_manifest}")
        if args.concurrency_report:
            from repro.analysis.concurrency import save_report
            from repro.analysis.lint.deep import build_concurrency_report

            concurrency = build_concurrency_report(
                collect_python_files(lint_targets or []), cache=cache)
            save_report(concurrency, args.concurrency_report)
            print(f"concurrency report: "
                  f"{len(concurrency['thread_roots'])} thread root(s), "
                  f"{len(concurrency['signal_handlers'])} signal "
                  f"handler(s), {len(concurrency['findings'])} finding(s) "
                  f"({concurrency['suppressed']} sanctioned) "
                  f"-> {args.concurrency_report}")
        if args.plan:
            verification = verify_plan_file(args.plan)
            print(verification.render_json() if args.format == "json"
                  else verification.render_text())
            failed |= not verification.ok
        if args.faults:
            verification = verify_fault_plan_file(args.faults)
            print(verification.render_json() if args.format == "json"
                  else verification.render_text())
            failed |= not verification.ok
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if cache is not None:
            cache.save()
    return 1 if failed else 0


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis.verifier import verify_plan, VerificationPlan
    from repro.errors import ConfigurationError

    try:
        plan = VerificationPlan.load(args.plan)
        report = verify_plan(plan)
        stats = None
        if args.model_check:
            from repro.analysis.modelcheck import model_check_plan

            issues, stats = model_check_plan(plan)
            report.checks_run.append("model-check")
            report.issues.extend(issues)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = report.to_dict()
        if stats is not None:
            payload["model_check"] = stats.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if stats is not None:
            print(stats.render())
        print(report.render_text())
    return 0 if report.ok else 1


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MichiCAN reproduction: experiments from the shell",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="countermeasure comparison matrix")

    p = sub.add_parser("table2", help="empirical bus-off experiments")
    p.add_argument("--experiment", type=int, default=None,
                   help="run one experiment (1-6) instead of all")
    p.add_argument("--duration", type=int, default=100_000,
                   help="recording window in bit times")

    sub.add_parser("table3", help="theoretical bus-off times")

    p = sub.add_parser("latency", help="random-FSM detection latency study")
    p.add_argument("--fsms", type=int, default=2_000)
    p.add_argument("--seed", type=int, default=160_000)

    p = sub.add_parser("multi", help="concurrent-attacker experiment")
    p.add_argument("--attackers", type=int, default=3)
    p.add_argument("--duration", type=int, default=24_000)

    p = sub.add_parser("cpu", help="CPU utilization across MCU profiles")
    p.add_argument("--light", action="store_true",
                   help="light (spoof-only) scenario")

    p = sub.add_parser("parksense", help="the on-vehicle ParkSense scenario")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--defended", action="store_true", default=True)
    group.add_argument("--undefended", dest="defended", action="store_false")
    p.add_argument("--duration", type=int, default=400_000)

    p = sub.add_parser("fsm", help="inspect a detection FSM")
    p.add_argument("--ecus", type=_parse_id_list, required=True,
                   help="comma-separated CAN IDs of the IVN (e.g. 0xA0,0x173)")
    p.add_argument("--own", type=_parse_id, default=None,
                   help="the defender's own ID (default: highest)")
    p.add_argument("--classify", type=_parse_id, default=None,
                   help="classify one ID through the FSM")

    p = sub.add_parser("demo", help="quick detect-and-bus-off demo")
    p.add_argument("--attack-id", type=_parse_id, default=0x064)
    p.add_argument("--bus-speed", type=int, default=500_000)

    p = sub.add_parser("decode", help="summarize a candump log")
    p.add_argument("logfile")

    p = sub.add_parser("replay", help="replay a candump log on the simulator")
    p.add_argument("logfile")
    p.add_argument("--bus-speed", type=int, default=500_000)
    p.add_argument("--time-scale", type=float, default=1.0)
    p.add_argument("--duration", type=int, default=5_000_000)
    p.add_argument("--defend", type=_parse_id, default=None,
                   help="add a MichiCAN node with this own-ID")

    p = sub.add_parser("waveform", help="render a fight as an SVG figure")
    p.add_argument("--output", default="fight.svg")
    p.add_argument("--attack-id", type=_parse_id, default=0x064)
    p.add_argument("--duration", type=int, default=2_600)
    p.add_argument("--bits", type=int, default=160,
                   help="waveform window length")
    p.add_argument("--timeline", action="store_true",
                   help="render the Fig. 6 timeline instead of the waveform")

    p = sub.add_parser("coverage", help="plan a partial deployment")
    p.add_argument("--ecus", type=_parse_id_list, required=True)
    p.add_argument("--equip", type=_parse_id_list, default=None,
                   help="equipped subset (default: highest ECU only)")

    p = sub.add_parser("report", help="regenerate the full reproduction report")
    p.add_argument("--output", default=None, help="write to a file")
    p.add_argument("--sections", nargs="*", default=None,
                   choices=["table2", "table3", "latency", "multi", "cpu",
                            "parksense"])

    p = sub.add_parser("campaign",
                       help="declarative experiment campaigns (parallel)")
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)
    campaign_sub.add_parser("scenarios", help="list registered scenarios")
    def _add_spec_flags(cp: argparse.ArgumentParser) -> None:
        """Spec-building flags shared by `campaign run` and `submit`."""
        cp.add_argument("--scenario", default=None,
                        help="registered scenario name (one spec per seed)")
        cp.add_argument("--seeds", type=_parse_id_list, default=[0],
                        help="comma-separated seeds (default: 0)")
        cp.add_argument("--duration", type=int, default=20_000,
                        help="simulated window per run, in bit times")
        cp.add_argument("--engine", choices=["fast", "bit"], default="fast",
                        help="simulation engine: 'fast' chunks uncontended "
                             "spans (default), 'bit' forces per-bit "
                             "stepping; results are identical")
        cp.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="scenario factory parameter (repeatable)")
        cp.add_argument("--spec-file", default=None,
                        help="JSON file with a list of ScenarioSpec dicts")
        cp.add_argument("--no-metrics", action="store_true",
                        help="skip the per-run telemetry probe")
        cp.add_argument("--snapshot-every", type=int, default=None,
                        metavar="BITS",
                        help="sample a telemetry snapshot every N "
                             "simulated bits")
        cp.add_argument("--faults", default=None, metavar="FAULTS.json",
                        help="apply this FaultPlan to every --scenario spec")

    cp = campaign_sub.add_parser("run", help="run a campaign of specs")
    _add_spec_flags(cp)
    cp.add_argument("--workers", type=int, default=1,
                    help="long-lived worker processes (1 = serial, "
                         "in-process)")
    cp.add_argument("--out", default=None,
                    help="write the CampaignReport JSON here")
    cp.add_argument("--snapshot-dir", default=None, metavar="DIR",
                    help="write per-spec snapshot JSONL timelines here")
    cp.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                    help="per-spec wall-clock lease (forces worker "
                         "processes)")
    cp.add_argument("--retries", type=int, default=0,
                    help="retry a failed/crashed/timed-out spec up to N times")
    cp.add_argument("--backoff", type=float, default=0.1, metavar="SECONDS",
                    help="base delay before a retry (doubles per attempt)")
    cp.add_argument("--checkpoint", default=None, metavar="FILE",
                    help="work journal (the `repro serve --journal` "
                         "format) that records every spec as it runs")
    cp.add_argument("--resume", action="store_true",
                    help="replay specs already done in the --checkpoint "
                         "journal and run the rest")
    cp.add_argument("--flight-dir", default=None, metavar="DIR",
                    help="record per-spec flight-recorder dumps here "
                         "(post-mortems for crashed/timed-out workers)")
    cp.add_argument("--telemetry", action="store_true",
                    help="stream live progress/heartbeat lines into "
                         "--checkpoint (render with `repro campaign watch`)")
    cp.add_argument("--cache", action="store_true",
                    help="replay purity-certified specs from the "
                         "content-addressed result cache and store fresh "
                         "runs into it")
    cp.add_argument("--no-cache", action="store_true",
                    help="explicitly disable the result cache "
                         "(the default; rejects a combined --cache)")
    cp.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="result cache directory "
                         "(default: .repro_cache/results)")
    cp.add_argument("--manifest", default=None, metavar="FILE",
                    help="trust this purity manifest (from `repro lint "
                         "--deep --purity-manifest`) instead of "
                         "re-running the effect analysis")
    cp = campaign_sub.add_parser("show", help="render a stored report")
    cp.add_argument("report")
    cp = campaign_sub.add_parser(
        "watch", help="render live progress from a work journal")
    cp.add_argument("checkpoint", help="the campaign's --checkpoint or the "
                                       "service's --journal")
    cp.add_argument("--follow", action="store_true",
                    help="keep re-rendering until the campaign finishes")
    cp.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                    help="refresh period with --follow (default: 1.0)")
    cp = campaign_sub.add_parser(
        "submit", help="submit specs to a running `repro serve` service")
    cp.add_argument("--socket", required=True, metavar="PATH",
                    help="the service's unix socket (see `repro serve`)")
    _add_spec_flags(cp)
    cp = campaign_sub.add_parser(
        "status", help="query a running `repro serve` service")
    cp.add_argument("--socket", required=True, metavar="PATH",
                    help="the service's unix socket")
    cp.add_argument("--report", action="store_true",
                    help="render the merged campaign report instead of "
                         "the scheduler snapshot")
    cp.add_argument("--json", action="store_true",
                    help="print the raw status JSON")

    p = sub.add_parser(
        "serve",
        help="run the supervised campaign execution service (submit with "
             "`repro campaign submit`)")
    p.add_argument("--socket", required=True, metavar="PATH",
                   help="unix socket to listen on")
    p.add_argument("--journal", required=True, metavar="FILE",
                   help="durable work journal (JSONL); doubles as the "
                        "telemetry channel and the --resume source")
    p.add_argument("--workers", type=int, default=2,
                   help="long-lived worker processes (default: 2)")
    p.add_argument("--queue-limit", type=int, default=256, metavar="N",
                   help="bounded submission queue capacity; submissions "
                        "beyond it are rejected (default: 256)")
    p.add_argument("--lease", type=float, default=30.0, metavar="SECONDS",
                   help="per-spec lease before a hung worker's work is "
                        "stolen (default: 30)")
    p.add_argument("--heartbeat", type=float, default=0.5, metavar="SECONDS",
                   help="worker heartbeat period (default: 0.5)")
    p.add_argument("--retries", type=int, default=1,
                   help="retries for a spec whose worker raised "
                        "(default: 1)")
    p.add_argument("--backoff", type=float, default=0.1, metavar="SECONDS",
                   help="base retry backoff, doubling per attempt")
    p.add_argument("--poison-threshold", type=int, default=2, metavar="K",
                   help="quarantine a spec after it kills K workers "
                        "(default: 2)")
    p.add_argument("--max-restarts", type=int, default=3, metavar="N",
                   help="per-worker-slot restart budget (default: 3)")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="record per-spec flight-recorder dumps here")
    p.add_argument("--telemetry", action="store_true",
                   help="stream live progress into the journal (render "
                        "with `repro campaign watch <journal>`)")
    p.add_argument("--resume", action="store_true",
                   help="fold the existing journal: completed specs "
                        "replay, pending ones re-enter the queue")
    p.add_argument("--idle-exit", type=float, default=None,
                   metavar="SECONDS",
                   help="drain and exit after the service has been idle "
                        "this long (batch mode / CI)")
    p.add_argument("--report-out", default=None, metavar="FILE",
                   help="write the merged CampaignReport JSON here on "
                        "drain")
    p.add_argument("--cache", action="store_true",
                   help="use the content-addressed result cache")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result cache directory "
                        "(default: .repro_cache/results)")
    p.add_argument("--manifest", default=None, metavar="FILE",
                   help="trust this purity manifest for cache decisions")

    p = sub.add_parser("chaos",
                       help="fault-intensity degradation sweep (Sec. IV-E)")
    p.add_argument("--intensities", type=_parse_float_list,
                   default=[0.0, 0.0005, 0.001, 0.005],
                   help="comma-separated per-bit flip probabilities")
    p.add_argument("--seeds", type=_parse_id_list, default=[0],
                   help="comma-separated seeds (default: 0)")
    p.add_argument("--duration", type=int, default=20_000,
                   help="simulated window per run, in bit times")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-run wall-clock timeout")
    p.add_argument("--retries", type=int, default=0,
                   help="retry a failed run up to N times")
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="work journal for --resume")
    p.add_argument("--resume", action="store_true",
                   help="replay runs already done in the --checkpoint "
                        "journal")
    p.add_argument("--out", default=None,
                   help="write the DegradationCurve JSON here")

    p = sub.add_parser("metrics",
                       help="inspect / export campaign telemetry")
    metrics_sub = p.add_subparsers(dest="metrics_command", required=True)
    mp = metrics_sub.add_parser("summary",
                                help="per-spec metrics blocks of a report")
    mp.add_argument("report")
    mp = metrics_sub.add_parser("export",
                                help="export a report's metrics")
    mp.add_argument("report")
    mp.add_argument("--format", choices=["prometheus", "jsonl"],
                    default="prometheus")
    mp.add_argument("--output", default=None, help="write to a file")
    mp = metrics_sub.add_parser("tail",
                                help="tail a snapshot JSONL timeline")
    mp.add_argument("snapshots")
    mp.add_argument("-n", "--lines", type=int, default=10)
    mp = metrics_sub.add_parser("profile",
                                help="wall-clock phase profile of a scenario")
    mp.add_argument("--scenario", required=True)
    mp.add_argument("--duration", type=int, default=20_000)
    mp.add_argument("--seed", type=int, default=0)
    mp.add_argument("--param", action="append", metavar="KEY=VALUE")

    p = sub.add_parser("trace",
                       help="frame-lifecycle traces and crash post-mortems")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    tp = trace_sub.add_parser(
        "export", help="run a scenario and export its causal span trace")
    tp.add_argument("--scenario", required=True,
                    help="registered scenario name")
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--duration", type=int, default=20_000,
                    help="simulated window, in bit times")
    tp.add_argument("--engine", choices=["fast", "bit"], default="fast",
                    help="simulation engine (traces are identical)")
    tp.add_argument("--param", action="append", metavar="KEY=VALUE",
                    help="scenario factory parameter (repeatable)")
    tp.add_argument("--format", choices=["chrome", "jsonl"],
                    default="chrome",
                    help="chrome: Perfetto-loadable trace_event JSON; "
                         "jsonl: schema-versioned span lines")
    tp.add_argument("--engine-spans", action="store_true",
                    help="also record fast-forward annotation spans on an "
                         "[engine] track (diagnostics; fast engine only)")
    tp.add_argument("-o", "--output", default=None,
                    help="write here (default: print a text rendering)")
    tp.add_argument("--limit", type=int, default=40,
                    help="spans to print without --output (default: 40)")
    tp = trace_sub.add_parser(
        "postmortem", help="render a flight-recorder dump")
    tp.add_argument("dump", help="a .flight.json dump or flight log")
    tp.add_argument("--events", type=int, default=20,
                    help="recorded events to show (default: 20)")
    tp.add_argument("--svg", default=None, metavar="FILE",
                    help="also render the wire tail as an SVG waveform")

    p = sub.add_parser("lint",
                       help="domain-aware static analysis + config verifier")
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (e.g. src/)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--select", type=lambda t: t.split(","), default=None,
                   metavar="CODES",
                   help="comma-separated rule codes to run (default: all)")
    p.add_argument("--ignore", type=lambda t: t.split(","), default=None,
                   metavar="CODES",
                   help="comma-separated rule codes to skip")
    p.add_argument("--deep", action="store_true",
                   help="also run the interprocedural rules (RC2xx/RC3xx) "
                        "on the project call graph")
    p.add_argument("--purity-manifest", default=None, metavar="FILE",
                   help="with --deep: write the scenario purity manifest "
                        "(verdicts + transitive slice hashes) consumed by "
                        "'campaign run --cache'")
    p.add_argument("--concurrency-report", default=None, metavar="FILE",
                   help="with --deep: write the machine-readable RC4xx "
                        "concurrency report (thread roots, locksets, "
                        "lock-order graph, findings)")
    p.add_argument("--changed", action="store_true",
                   help="lint only files changed vs git HEAD, plus their "
                        "call-graph dependents when --deep is on "
                        "(tracked diffs + untracked)")
    p.add_argument("--cache", default=None, metavar="FILE",
                   help="analysis cache location "
                        "(default: .repro_cache/lint.json)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the on-disk analysis cache")
    p.add_argument("--plan", default=None, metavar="PLAN.json",
                   help="also verify a deployment plan "
                        "(detection ranges, window, registry)")
    p.add_argument("--faults", default=None, metavar="FAULTS.json",
                   help="also verify a fault-injection plan "
                        "(windows, kinds, targets)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")

    p = sub.add_parser("verify",
                       help="prove a deployment plan sound (verifier + "
                            "optional model checker)")
    p.add_argument("plan", metavar="PLAN.json",
                   help="deployment plan to verify")
    p.add_argument("--model-check", action="store_true",
                   help="also run the stuff-bit-aware FSM model checker "
                        "(VC3xx) over all 2^11 IDs per ECU")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("codegen", help="emit the C firmware patch for an FSM")
    p.add_argument("--ecus", type=_parse_id_list, required=True)
    p.add_argument("--own", type=_parse_id, default=None)
    p.add_argument("--prefix", default="michican")

    return parser


COMMANDS = {
    "table1": cmd_table1,
    "table2": cmd_table2,
    "table3": cmd_table3,
    "latency": cmd_latency,
    "multi": cmd_multi,
    "cpu": cmd_cpu,
    "parksense": cmd_parksense,
    "fsm": cmd_fsm,
    "demo": cmd_demo,
    "decode": cmd_decode,
    "report": cmd_report,
    "waveform": cmd_waveform,
    "coverage": cmd_coverage,
    "replay": cmd_replay,
    "codegen": cmd_codegen,
    "campaign": cmd_campaign,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "metrics": cmd_metrics,
    "trace": cmd_trace,
    "lint": cmd_lint,
    "verify": cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
