"""Live campaign telemetry over the torn-write-tolerant work journal.

A long campaign is a black box from the shell: workers grind away, the
report appears minutes later.  This module streams *liveness* into the
same JSONL work journal the campaign (``repro campaign run --checkpoint``)
or the service (``repro serve --journal``) already writes — each line is
``{"type": "telemetry", "event": ..., ...}``, which the journal's work
fold (:meth:`~repro.experiments.service.journal.WorkJournal.load`)
skips, so resume semantics are untouched and a reader can tail one file
for both progress and finished results.  ``repro campaign watch``
renders the stream.

Events: ``campaign-start`` / ``campaign-end``, per-spec ``start`` /
``finish`` (status ``ok`` | ``error`` | ``crash`` | ``timeout``) /
``retry`` (with backoff delay), and rate-limited per-worker
``heartbeat`` lines while a spec runs.  All lines carry a wall-clock
``at`` stamp — telemetry is observer metadata, deliberately outside the
determinism contract (the simulation itself stays wall-clock-free).
"""

from __future__ import annotations

import json
import os
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Union

#: Bump when the telemetry line layout changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1

PathLike = Union[str, "os.PathLike[str]"]


class TelemetryWriter:
    """Single-writer telemetry appender for the work-journal channel.

    Owned by the campaign *parent* process (workers report through their
    result pipes), preserving the journal's single-writer invariant.
    Heartbeats are rate-limited to one per worker per
    ``heartbeat_seconds``.
    """

    def __init__(self, path: PathLike,
                 heartbeat_seconds: float = 1.0) -> None:
        self.path = os.fspath(path)
        self.heartbeat_seconds = heartbeat_seconds
        self._last_beat: Dict[str, float] = {}
        #: Guards the per-worker rate-limit state: ``heartbeat`` runs on
        #: the supervisor's daemon beat thread while ``spec_finished``
        #: pops from the pump loop (RC401 lockset analysis flags the
        #: unsynchronized write pair otherwise).
        self._beat_lock = threading.Lock()

    def _append(self, event: str, **fields: Any) -> None:
        entry = {"type": "telemetry",
                 "schema_version": TELEMETRY_SCHEMA_VERSION,
                 "event": event, "at": _time.time(), **fields}
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()

    # ------------------------------------------------------------- events

    def campaign_started(self, total_specs: int, pending: int,
                         n_workers: int) -> None:
        self._append("campaign-start", total_specs=total_specs,
                     pending=pending, n_workers=n_workers)

    def campaign_finished(self, completed: int, failed: int,
                          wall_seconds: float) -> None:
        self._append("campaign-end", completed=completed, failed=failed,
                     wall_seconds=round(wall_seconds, 3))

    def spec_started(self, spec_name: str, attempt: int,
                     worker: str) -> None:
        self._append("start", spec=spec_name, attempt=attempt, worker=worker)

    def spec_finished(self, spec_name: str, attempt: int, worker: str,
                      status: str, wall_seconds: float) -> None:
        with self._beat_lock:
            self._last_beat.pop(worker, None)
        self._append("finish", spec=spec_name, attempt=attempt,
                     worker=worker, status=status,
                     wall_seconds=round(wall_seconds, 3))

    def spec_retry(self, spec_name: str, attempt: int, kind: str,
                   delay_seconds: float) -> None:
        self._append("retry", spec=spec_name, attempt=attempt, kind=kind,
                     delay_seconds=round(delay_seconds, 3))

    def heartbeat(self, worker: str, spec_name: str,
                  elapsed_seconds: float) -> None:
        now = _time.monotonic()
        with self._beat_lock:
            last = self._last_beat.get(worker)
            if last is not None and now - last < self.heartbeat_seconds:
                return
            self._last_beat[worker] = now
        self._append("heartbeat", worker=worker, spec=spec_name,
                     elapsed_seconds=round(elapsed_seconds, 3))


# ------------------------------------------------------------------ reader

def read_channel(path: PathLike) -> List[Dict[str, Any]]:
    """Every parseable line of a journal/telemetry file, in order.

    Torn trailing writes (a crashed writer) are skipped, exactly like the
    journal's own fold.
    """
    if not os.path.exists(path):
        return []
    entries: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


@dataclass
class CampaignProgress:
    """Aggregated view of one campaign's channel, for live rendering."""

    total_specs: int = 0
    n_workers: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    finished: bool = False
    wall_seconds: float = 0.0
    #: spec name -> "running" | "retrying" | "ok" | "error" | "crash" | ...
    spec_status: Dict[str, str] = field(default_factory=dict)
    #: worker name -> {"spec", "at", "elapsed_seconds"} of the last sign of life
    workers: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: wall-clock stamp of the newest telemetry line seen
    last_update: float = 0.0


def _fold_work_entry(progress: CampaignProgress, entry: Dict[str, Any],
                     queued: set, settled: Dict[str, str],
                     labels: Dict[str, str]) -> None:
    """Fold one work-journal line (``type: "work"``).

    Mirrors the journal's own rules (first ``queued`` per key wins; the
    first ``done`` is final, and it overrides an earlier ``failed``, as a
    resumed campaign re-runs its failures) so ``repro campaign watch``
    reads any journal, with or without telemetry interleaved.
    """
    state = entry.get("state")
    key = entry.get("key")
    if not isinstance(key, str) or not key:
        return
    if state == "queued" and key not in queued:
        queued.add(key)
        spec = entry.get("spec")
        label = key[:12]
        if isinstance(spec, dict):
            label = (spec.get("label")
                     or f"{spec.get('scenario', label)}#{spec.get('seed', 0)}")
        labels[key] = label
        progress.total_specs = max(progress.total_specs, len(queued))
        progress.spec_status.setdefault(label, "queued")
    elif state == "leased":
        progress.spec_status[labels.get(key, key[:12])] = "running"
    elif state == "done" and settled.get(key) != "done":
        if settled.get(key) == "failed":
            progress.failed -= 1
        settled[key] = "done"
        progress.completed += 1
        progress.spec_status[labels.get(key, key[:12])] = "ok"
    elif state == "failed" and key not in settled:
        settled[key] = "failed"
        progress.failed += 1
        failure = entry.get("failure")
        status = (failure.get("kind", "error")
                  if isinstance(failure, dict) else "error")
        progress.spec_status[labels.get(key, key[:12])] = status


def campaign_progress(entries: List[Dict[str, Any]]) -> CampaignProgress:
    """Fold a channel's entries into a :class:`CampaignProgress`."""
    progress = CampaignProgress()
    queued_work: set = set()
    settled_work: Dict[str, str] = {}
    work_labels: Dict[str, str] = {}
    for entry in entries:
        kind = entry.get("type")
        if kind == "work":
            _fold_work_entry(progress, entry, queued_work, settled_work,
                             work_labels)
            continue
        if kind != "telemetry":
            continue
        at = entry.get("at", 0.0)
        if at > progress.last_update:
            progress.last_update = at
        event = entry.get("event")
        spec = entry.get("spec", "")
        worker = entry.get("worker", "")
        if event == "campaign-start":
            progress.total_specs = entry.get("total_specs", 0)
            progress.n_workers = entry.get("n_workers", 0)
            progress.finished = False
        elif event == "campaign-end":
            progress.finished = True
            progress.wall_seconds = entry.get("wall_seconds", 0.0)
        elif event == "start":
            progress.spec_status[spec] = "running"
            progress.workers[worker] = {
                "spec": spec, "at": at, "elapsed_seconds": 0.0}
        elif event == "finish":
            progress.spec_status[spec] = entry.get("status", "ok")
            progress.workers.pop(worker, None)
        elif event == "retry":
            progress.retries += 1
            progress.spec_status[spec] = "retrying"
        elif event == "heartbeat":
            progress.workers[worker] = {
                "spec": spec, "at": at,
                "elapsed_seconds": entry.get("elapsed_seconds", 0.0)}
    return progress


def load_progress(path: PathLike) -> CampaignProgress:
    """Read and fold a journal/telemetry file in one call."""
    return campaign_progress(read_channel(path))


def render_progress(progress: CampaignProgress) -> str:
    """Terminal-friendly progress block for ``repro campaign watch``."""
    done = progress.completed + progress.failed
    total = progress.total_specs or max(done, len(progress.spec_status))
    width = 30
    filled = int(width * done / total) if total else 0
    bar = "#" * filled + "-" * (width - filled)
    lines = [
        f"[{bar}] {done}/{total} specs "
        f"({progress.completed} ok, {progress.failed} failed, "
        f"{progress.retries} retries)"
        + ("  [campaign finished]" if progress.finished else ""),
    ]
    running = [(worker, info) for worker, info
               in sorted(progress.workers.items())]
    if running and not progress.finished:
        lines.append("workers:")
        for worker, info in running:
            lines.append(
                f"  {worker:<22} {info.get('spec', '?'):<24} "
                f"running {info.get('elapsed_seconds', 0.0):6.1f} s")
    status_counts: Dict[str, int] = {}
    for status in progress.spec_status.values():
        status_counts[status] = status_counts.get(status, 0) + 1
    if status_counts:
        cells = " ".join(f"{status}={count}" for status, count
                         in sorted(status_counts.items()))
        lines.append(f"spec status: {cells}")
    if progress.finished:
        lines.append(f"wall time: {progress.wall_seconds:.2f} s")
    return "\n".join(lines)
