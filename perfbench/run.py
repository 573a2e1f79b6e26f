"""The repository benchmark: the paper's workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload table2_fight --seed 1 --seconds 25 --trace 0

Workloads (see :mod:`workloads` for the generators and why each exists):

* ``table2_fight`` — serial in-process ``Campaign.run`` of exp1-6 plus a
  3-attacker fight, 100k-bit windows, probe on;
* ``restbus_idle`` — serial in-process ``Campaign.run`` of benign
  restbus windows of 1M bits;
* ``serve_sweep`` — a seeded sweep of short fights submitted to a
  ``repro serve --workers 1 --flight-dir --cache`` subprocess, a quarter
  of it already in the result cache.

All three are closed loops with one client.  A *pass* hands one spec
list to a fresh program process and times it from hand-over until the
rendered report is in hand; a run repeats passes until ``--seconds`` of
measured time have elapsed and reports medians over passes.  All times
are host time; simulated quantities are counts.

``--trace 0`` prints the end-to-end metrics: ``bits_per_s`` (simulated
bits of the spec list per host second, cached specs included),
``setup_s`` (fresh interpreter until the program accepts the spec list;
for serve, until it answers ``ping``), ``peak_rss_mb`` and ``cpu_s``
(over every program process), and ``failed_fraction``.

``--trace 1`` prints the per-layer metrics instead: one plain pass, one
traced pass (spans around the public functions the path calls, see
:mod:`instrument`), and layer probes on a sample of the spec list (see
:mod:`layers`).  The tracing overhead is the plain pass's ``bits_per_s``
minus the traced pass's.  Spans are written to
``.perfbench_out/<workload>-seed<seed>.spans.jsonl``.

Every run checks correctness first and exits non-zero, printing no
result, when any check fails (see :mod:`checks`).  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The same result, with the workload's reason and the box it ran on
(``nproc``, Python version, commit), is kept in
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import checks
from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ".perfbench_work"
OUT_ROOT = ".perfbench_out"

#: Fresh-interpreter set-ups measured per run (passes count towards it).
MIN_SETUPS = {"table2_fight": 5, "restbus_idle": 5, "serve_sweep": 3}


class Program:
    """Starts program processes and guarantees each has ended."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.procs: List[subprocess.Popen] = []

    def popen(self, cmd: Sequence[str], **kwargs: Any) -> subprocess.Popen:
        proc = subprocess.Popen(list(cmd), cwd=str(ROOT), env=self.env,
                                **kwargs)
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                if stream is not None:
                    stream.close()

    # ------------------------------------------------------- in-process

    def inprocess(self, spec_dicts: Optional[List[Dict[str, Any]]],
                  spans_path: Optional[str] = None) -> Dict[str, Any]:
        """One fresh ``program.py``: set-up time, then one pass."""
        cmd = [sys.executable, str(HERE / "program.py")]
        if spans_path is not None:
            cmd += ["--spans", spans_path]
        started = time.perf_counter()
        proc = self.popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - started
        if not ready.strip() or not json.loads(ready).get("ready"):
            raise CheckFailed("program exited before it was ready")
        payload = "" if spec_dicts is None else json.dumps(spec_dicts)
        out, _ = proc.communicate(payload + "\n", timeout=170)
        if proc.returncode != 0:
            raise CheckFailed(f"program exited with code {proc.returncode}")
        reply = json.loads(out) if spec_dicts is not None else {}
        reply["setup_s"] = setup
        return reply

    # ------------------------------------------------------------ serve

    def serve(self, tag: str, spec_dicts: Optional[List[Dict[str, Any]]],
              seed_cache: Any, expected_hits: int,
              spans_path: Optional[str] = None) -> Dict[str, Any]:
        """One fresh ``repro serve``: set-up time, then one pass."""
        from repro.errors import ConfigurationError
        from repro.experiments.campaign import CampaignReport
        from repro.experiments.service.server import request

        base = Path(WORK_ROOT) / self.workdir.name / tag
        base.mkdir(parents=True)
        cache_dir = base / "cache"
        seed_cache(str(cache_dir))
        sock = str(base / "s.sock")
        serve_args = ["--socket", sock, "--journal", str(base / "journal"),
                      "--workers", "1", "--flight-dir", str(base / "flight"),
                      "--cache", "--cache-dir", str(cache_dir)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), spans_path,
                   *serve_args]
        out_path = base / "serve.out"
        with open(out_path, "w") as out, open(base / "serve.err", "w") as err:
            started = time.perf_counter()
            proc = self.popen(cmd, stdout=out, stderr=err)
        deadline = started + 120
        while True:
            try:
                if request(sock, {"op": "ping"}, timeout=10).get("pong"):
                    break
            except (ConfigurationError, OSError):
                pass
            if proc.poll() is not None or time.perf_counter() > deadline:
                raise CheckFailed("repro serve never answered ping")
            time.sleep(0.005)
        setup = time.perf_counter() - started
        reply: Dict[str, Any] = {"setup_s": setup}
        if spec_dicts is not None:
            reply.update(self._sweep(sock, proc.pid, spec_dicts))
        request(sock, {"op": "drain"})
        if proc.wait(timeout=120) != 0:
            raise CheckFailed(f"repro serve exited with {proc.returncode}")
        if spec_dicts is not None:
            match = re.search(r"result cache: (\d+) hit", out_path.read_text())
            hits = int(match.group(1)) if match else -1
            if hits != expected_hits:
                raise CheckFailed(f"serve replayed {hits} cached spec(s), "
                                  f"expected {expected_hits}")
            reply["report_obj"] = CampaignReport.from_dict(reply["report"])
        return reply

    def _sweep(self, sock: str, serve_pid: int,
               spec_dicts: List[Dict[str, Any]]) -> Dict[str, Any]:
        from repro.experiments.campaign import CampaignReport
        from repro.experiments.service.server import request

        def worker_pids() -> List[int]:
            status = request(sock, {"op": "status"})["status"]
            return [w["pid"] for w in status["workers"] if w.get("pid")]

        pids = [serve_pid, *worker_pids()]
        cpu_before = {pid: _cpu_seconds(pid) for pid in pids}
        started = time.perf_counter()
        response = request(sock, {"op": "submit", "specs": spec_dicts},
                           timeout=60)
        refused = 0 if response.get("ok") else len(spec_dicts)
        deadline = started + 150
        while not refused:
            status = request(sock, {"op": "status"})["status"]
            if (status["completed"] + status["failed"] >= len(spec_dicts)
                    and not status["queued"] and not status["in_flight"]):
                break
            if time.perf_counter() > deadline:
                raise CheckFailed("serve sweep did not finish in time")
            time.sleep(0.01)
        report = request(sock, {"op": "report"}, timeout=60)["report"]
        CampaignReport.from_dict(report).render()
        wall = time.perf_counter() - started
        pids = sorted(set(pids) | set(worker_pids()))
        cpu = sum(_cpu_seconds(pid) - cpu_before.get(pid, 0.0)
                  for pid in pids)
        rss = max(_peak_rss_mb(pid) for pid in pids)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
                "report": checks.in_spec_order(report, spec_dicts),
                "refused": refused}


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ------------------------------------------------------------------ runs

def _bits(specs: Sequence[Any]) -> int:
    return sum(spec.duration_bits for spec in specs)


class Run:
    """One benchmark invocation: a workload at one seed."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 quick: bool) -> None:
        import workloads

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scale = 0.05 if quick else 1.0
        self.specs = workloads.generate(workload, seed, self.scale)
        self.spec_dicts = [spec.to_dict() for spec in self.specs]
        self.workdir = ROOT / WORK_ROOT / f"{workload}-{os.getpid()}"
        self.program = Program(self.workdir)
        self.lines: List[str] = []
        self._serve_count = 0
        self._manifest: Any = None
        self._serial: Any = None
        self.cached = (workloads.cached_subset(self.specs, seed)
                       if workload == "serve_sweep" else [])

    # --------------------------------------------------------- passes

    def one_pass(self, spans_path: Optional[str] = None) -> Dict[str, Any]:
        if self.workload != "serve_sweep":
            reply = self.program.inprocess(self.spec_dicts, spans_path)
            reply["refused"] = 0
            return reply
        self._serve_count += 1
        return self.program.serve(f"s{self._serve_count}", self.spec_dicts,
                                  self._seed_cache, len(self.cached),
                                  spans_path)

    def setup_only(self) -> Dict[str, Any]:
        if self.workload != "serve_sweep":
            return self.program.inprocess(None)
        self._serve_count += 1
        return self.program.serve(f"s{self._serve_count}", None,
                                  lambda path: None, 0)

    def check_pass(self, reply: Dict[str, Any]) -> str:
        checks.check_report(reply["report"], self.spec_dicts)
        return checks.payload_digest(reply["report"])

    # ------------------------------------------------ serve preparation

    def prepare_serve(self) -> None:
        """The untimed earlier sweep: serial in-process run whose
        records seed each pass's cache and anchor payload equality."""
        import repro
        from repro.analysis.purity import build_purity_manifest
        from repro.experiments.campaign import Campaign

        self._manifest = build_purity_manifest(
            [os.path.dirname(repro.__file__)])
        self._serial = Campaign(
            self.specs, n_workers=1,
            flight_dir=str(self.workdir / "serial-flight")).run()

    def _seed_cache(self, cache_dir: str) -> None:
        import layers

        layers.seed_cache(cache_dir, [self.specs[i] for i in self.cached],
                          [self._serial.records[i] for i in self.cached],
                          self._manifest)

    # --------------------------------------------------- equalities

    def engine_equality(self, fast_report: Dict[str, Any]) -> None:
        """ROADMAP aim 3: fast engine == bit engine on a sample."""
        import layers

        from repro.experiments.campaign import execute_spec

        fast_by_spec = {json.dumps(r["spec"], sort_keys=True): r["result"]
                        for r in fast_report["records"]}
        for spec in layers.equality_sample(self.workload, self.specs):
            fast = fast_by_spec.get(json.dumps(spec.to_dict(), sort_keys=True))
            if fast is None:
                fast = execute_spec(spec).result.to_dict()
            bit = execute_spec(replace(spec, engine="bit")).result.to_dict()
            checks.results_equal(spec.name, fast, bit)

    def serve_equality(self, reply: Dict[str, Any]) -> None:
        """ROADMAP aim 3: serve report == serial in-process report."""
        if not reply["report_obj"].payload_equal(self._serial):
            raise CheckFailed("serve and serial reports are not payload-equal")

    # -------------------------------------------------------- plain

    def plain(self) -> Tuple[Dict[str, Any], int, int]:
        if self.workload == "serve_sweep":
            self.prepare_serve()
        passes: List[Dict[str, Any]] = []
        measured = 0.0
        while not passes or measured < self.seconds:
            reply = self.one_pass()
            passes.append(reply)
            measured += reply["wall_s"]
        digests = [self.check_pass(reply) for reply in passes]
        checks.check_same_digest(digests)
        if self.workload == "serve_sweep":
            self.serve_equality(passes[0])
            self.engine_equality(self._serial.to_dict())
        else:
            self.engine_equality(passes[0]["report"])
        setups = list(passes)
        while len(setups) < MIN_SETUPS[self.workload]:
            setups.append(self.setup_only())
        bits = _bits(self.specs)
        attempted = len(self.specs) * len(passes)
        failed = sum(len(reply["report"]["failures"]) + reply["refused"]
                     for reply in passes)

        def median(replies: List[Dict[str, Any]], key: str) -> float:
            return statistics.median(reply[key] for reply in replies)

        metrics = {
            "bits_per_s": statistics.median(bits / r["wall_s"]
                                            for r in passes),
            "setup_s": median(setups, "setup_s"),
            "peak_rss_mb": median(passes, "peak_rss_mb"),
            "cpu_s": median(passes, "cpu_s"),
            "failed_fraction": failed / attempted,
        }
        rates = ", ".join(f"{bits / r['wall_s']:,.0f}" for r in passes)
        setup_times = ", ".join(f"{r['setup_s']:.3f}" for r in setups)
        self.lines.append(
            f"passes: {len(passes)} (measured {measured:.2f} s; bit/s "
            f"{rates}), set-ups: {len(setups)} ({setup_times} s), "
            f"payload digest {digests[0][:16]}")
        return metrics, attempted, failed

    # ------------------------------------------------------- traced

    def traced(self) -> Tuple[Dict[str, Any], int, int]:
        import layers
        from spans import SpanRecorder, check_spans, layer_table, read_spans

        if self.workload == "serve_sweep":
            self.prepare_serve()
        bits = _bits(self.specs)
        plain = self.one_pass()
        spans_file = str(self.workdir / "pass.spans.jsonl")
        traced = self.one_pass(spans_file)
        digests = [self.check_pass(plain), self.check_pass(traced)]
        checks.check_same_digest(digests)
        pass_spans = read_spans(spans_file)
        check_spans(pass_spans)

        recorder = SpanRecorder()
        sample = layers.layer_sample(self.workload, self.specs)
        probe_dir = self.workdir / "probe"
        probe_dir.mkdir(parents=True)
        metrics = layers.probe_layers(sample, str(probe_dir), recorder)
        metrics.update(layers.phase_split(sample[0], recorder))

        table = layer_table(pass_spans)
        if self.workload == "serve_sweep":
            self.serve_equality(traced)
            report = traced["report_obj"]
            service_spans = pass_spans
            metrics.update(layers.service_metrics(service_spans, report))
            with recorder.span("experiments.report", "client") as render:
                report.render()
            metrics["experiments.report_s"] = (
                table["experiments.report"]["inclusive_s"]
                + render["end"] - render["start"])
            # Serve runs these layers in its workers, out of the traced
            # parent's reach: take them from the layer probes.
            for name in ("bus.advance", "trace.framelog", "experiments.build"):
                metrics[f"{name}_s"] = metrics.pop(f"sample.{name}_s")
        else:
            from repro.experiments.campaign import CampaignReport

            report = CampaignReport.from_dict(traced["report"])
            # Pre-cache a quarter of the sample, and at least one spec
            # when the sample has two.
            cached = list(range(len(sample) // 4 or len(sample) // 2))
            service_spans, probe_report = layers.service_probe(
                sample, cached, str(probe_dir))
            check_spans(service_spans)
            metrics.update(layers.service_metrics(service_spans, probe_report))
            for name in ("bus.advance", "trace.framelog", "experiments.build",
                         "experiments.report"):
                metrics.pop(f"sample.{name}_s", None)
                metrics[f"{name}_s"] = table[name]["inclusive_s"]
        metrics.update(layers.journal_replay(report, str(probe_dir), recorder))
        check_spans(recorder.spans)
        plain_rate = bits / plain["wall_s"]
        traced_rate = bits / traced["wall_s"]
        metrics["bench.tracing_overhead_bits_per_s"] = plain_rate - traced_rate

        sources = {"traced pass": pass_spans, "layer probes": recorder.spans}
        if service_spans is not pass_spans:
            sources["service probe"] = service_spans
        out_dir = ROOT / OUT_ROOT
        out_dir.mkdir(exist_ok=True)
        spans_out = out_dir / f"{self.workload}-seed{self.seed}.spans.jsonl"
        with open(spans_out, "w", encoding="utf-8") as handle:
            for source, spans in sources.items():
                self.lines.append(_render_layer_table(layer_table(spans),
                                                      source))
                for span in spans:
                    handle.write(json.dumps(dict(span, source=source),
                                            sort_keys=True) + "\n")
        self.lines.append(
            f"tracing overhead: {plain_rate - traced_rate:,.0f} "
            f"bit/s (plain {plain_rate:,.0f}, traced {traced_rate:,.0f}); "
            f"spans -> {spans_out.relative_to(ROOT)}")
        attempted = 2 * len(self.specs)
        failed = sum(len(r["report"]["failures"]) + r["refused"]
                     for r in (plain, traced))
        return metrics, attempted, failed


def _render_layer_table(table: Dict[str, Dict[str, float]], title: str) -> str:
    lines = [f"{title}: {'span':<28} {'calls':>6} {'inclusive s':>12} "
             f"{'self s':>10}"]
    for name, row in sorted(table.items()):
        lines.append(f"  {'':<{len(title)}}{name:<28} {row['calls']:>6} "
                     f"{row['inclusive_s']:>12.4f} {row['self_s']:>10.4f}")
    return "\n".join(lines)


def _box() -> Dict[str, Any]:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table2_fight", "restbus_idle",
                                 "serve_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrink every window and spec list (smoke "
                             "tests); the numbers are not comparable")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import workloads

    run = Run(args.workload, args.seed, args.seconds, args.quick)
    try:
        run.workdir.mkdir(parents=True)
        if args.trace:
            metrics, attempted, failed = run.traced()
        else:
            metrics, attempted, failed = run.plain()
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        run.program.stop_all()
        shutil.rmtree(run.workdir, ignore_errors=True)

    box = _box()
    print(f"workload {args.workload} (seed {args.seed}): "
          f"{workloads.WORKLOADS[args.workload]}")
    print(f"box: nproc={box['nproc']} python={box['python']} "
          f"commit={box['commit']}")
    for line in run.lines:
        print(line)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {entry["name"]: entry["unit"]
             for entry in contract["per_layer" if args.trace else "end_to_end"]}
    if not args.trace:
        # Always 0 on a run that reports, so it stays out of the contract.
        units["failed_fraction"] = "fraction"
    for name in sorted(metrics):
        print(f"{name:<36} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                    if name != "failed_fraction"},
    }
    out_dir = ROOT / OUT_ROOT
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "why": workloads.WORKLOADS[args.workload],
              "seed": args.seed, "trace": args.trace, "box": box,
              "notes": run.lines, "result": result}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
