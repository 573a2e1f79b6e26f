"""The durable work journal: torn-write-tolerant JSONL spec ledger.

The campaign service's exactly-once guarantee rests on this file.  Every
state transition of every submitted spec is one appended JSON line::

    {"type": "work", "schema_version": 1, "state": "queued",
     "key": "<sha256>", "spec": {...}}
    {"type": "work", ..., "state": "leased", "key": ..., "worker": "w0",
     "attempt": 1}
    {"type": "work", ..., "state": "done",   "key": ..., "record": {...}}
    {"type": "work", ..., "state": "failed", "key": ..., "failure": {...}}

``key`` is the **content address** of the spec
(:func:`~repro.experiments.campaign.spec_digest`: a SHA-256 over its
canonical dict plus the campaign schema version) — so resubmitting an
identical spec dedupes instead of re-running, and a journal written on
one host merges cleanly with one written on another.  ``repro serve``
and ``repro campaign run --checkpoint`` write the same format.

Reading is hardened against adversarial files:

* a torn trailing (or mid-file) line — the writer died mid-append — is
  skipped;
* duplicated entries are idempotent (the **first** ``done`` wins, so a
  replayed journal cannot flip a completed result);
* interleaved telemetry lines (``type: "telemetry"`` — the journal
  doubles as the live-progress channel for ``repro campaign watch``) and
  any other foreign ``type`` are invisible to the work fold;
* a parseable work line stamped with a **newer** ``schema_version`` is a
  clean :class:`JournalSchemaError` — version skew must never be
  misread as corruption or, worse, silently reinterpreted.

Writing degrades gracefully: an append that raises :class:`OSError`
(disk full, or an injected :class:`~repro.faults.store.StoreWriteFault`)
is announced with a loud :class:`RuntimeWarning`, counted in
:attr:`WorkJournal.write_failures`, and otherwise ignored — the service
keeps the run alive in memory and only durability (resume) is lost.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.experiments.campaign import (
    RunFailure,
    RunRecord,
    ScenarioSpec,
    spec_digest,
)

__all__ = ["JOURNAL_SCHEMA_VERSION", "WORK_STATES", "JournalSchemaError",
           "JournalState", "WorkJournal", "spec_digest"]

#: Bump when the journal line layout changes incompatibly.
JOURNAL_SCHEMA_VERSION = 1

#: Work-entry states, in lifecycle order.
WORK_STATES = ("queued", "leased", "done", "failed")

PathLike = Union[str, "os.PathLike[str]"]


class JournalSchemaError(ConfigurationError):
    """A journal was written by a newer schema version than this build."""


@dataclass
class JournalState:
    """The fold of one journal: where every submitted spec stands."""

    #: key -> submitted spec, for every ``queued`` entry seen.
    specs: Dict[str, ScenarioSpec] = field(default_factory=dict)
    #: Keys in first-submission order (report ordering).
    order: List[str] = field(default_factory=list)
    #: key -> completed record (first ``done`` entry wins).
    records: Dict[str, RunRecord] = field(default_factory=dict)
    #: key -> terminal failure.
    failures: Dict[str, RunFailure] = field(default_factory=dict)
    #: key -> (worker, attempt) of the *last* lease seen — who was
    #: holding the spec when the parent died, for post-mortems.
    leases: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: Parseable-but-skipped work lines (missing keys, bad payloads).
    skipped_lines: int = 0

    def pending(self) -> List[str]:
        """Keys queued (or leased) but neither done nor failed, in order."""
        return [key for key in self.order
                if key not in self.records and key not in self.failures]

    def is_settled(self, key: str) -> bool:
        """Has ``key`` reached a terminal state (done or failed)?"""
        return key in self.records or key in self.failures


class WorkJournal:
    """Single-writer, append-only journal over one JSONL file.

    Args:
        path: The journal file; created on the first append.
        fault: Optional :class:`~repro.faults.store.StoreWriteFault`
            consulted before every append (degradation testing).
    """

    def __init__(self, path: PathLike, fault: Optional[Any] = None) -> None:
        self.path = os.fspath(path)
        self.fault = fault
        self.write_failures = 0

    # ------------------------------------------------------------ writing

    def reset(self) -> None:
        """Truncate the journal (a fresh, non-resumed service run)."""
        with open(self.path, "w", encoding="utf-8"):
            pass

    def _append(self, entry: Dict[str, Any]) -> None:
        try:
            if self.fault is not None:
                self.fault.before_write(f"journal {self.path}")
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
                handle.flush()
        except OSError as exc:
            self.write_failures += 1
            warnings.warn(
                f"work journal append to {self.path!r} failed ({exc}); "
                f"the service continues but this transition will NOT "
                f"survive a restart ({self.write_failures} write "
                f"failure(s) so far)",
                RuntimeWarning, stacklevel=3)

    def _work_entry(self, state: str, key: str,
                    **fields: Any) -> Dict[str, Any]:
        return {"type": "work", "schema_version": JOURNAL_SCHEMA_VERSION,
                "state": state, "key": key, **fields}

    def record_queued(self, key: str, spec: ScenarioSpec) -> None:
        self._append(self._work_entry("queued", key, spec=spec.to_dict()))

    def record_leased(self, key: str, worker: str, attempt: int) -> None:
        self._append(self._work_entry("leased", key, worker=worker,
                                      attempt=attempt))

    def record_done(self, key: str, record: RunRecord) -> None:
        self._append(self._work_entry("done", key, record=record.to_dict()))

    def record_failed(self, key: str, failure: RunFailure) -> None:
        self._append(self._work_entry("failed", key,
                                      failure=failure.to_dict()))

    @property
    def degraded(self) -> bool:
        """Has any append failed since this writer was constructed?"""
        return self.write_failures > 0

    # ------------------------------------------------------------ reading

    def load(self) -> JournalState:
        """Fold the journal into a :class:`JournalState` (see module doc).

        Raises :class:`JournalSchemaError` on version skew; every other
        defect (torn line, duplicate, foreign type, bad payload)
        degrades to a skip.
        """
        state = JournalState()
        if not os.path.exists(self.path):
            return state
        with open(self.path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from a dead writer
                if not isinstance(entry, dict) or entry.get("type") != "work":
                    continue  # telemetry / foreign lines
                self._fold_entry(state, entry, number)
        return state

    def _fold_entry(self, state: JournalState, entry: Dict[str, Any],
                    number: int) -> None:
        version = entry.get("schema_version")
        if isinstance(version, int) and version > JOURNAL_SCHEMA_VERSION:
            raise JournalSchemaError(
                f"journal {self.path!r} line {number} was written by "
                f"schema v{version}; this build reads "
                f"v{JOURNAL_SCHEMA_VERSION} — refusing to resume from a "
                f"newer format")
        kind = entry.get("state")
        key = entry.get("key")
        if kind not in WORK_STATES or not isinstance(key, str) or not key:
            state.skipped_lines += 1
            return
        try:
            if kind == "queued":
                if key not in state.specs:
                    state.specs[key] = ScenarioSpec.from_dict(entry["spec"])
                    state.order.append(key)
            elif kind == "leased":
                state.leases[key] = (str(entry.get("worker", "")),
                                     int(entry.get("attempt", 1)))
            elif kind == "done":
                if key not in state.records:  # first done wins
                    state.records[key] = RunRecord.from_dict(entry["record"])
            elif kind == "failed":
                if key not in state.records and key not in state.failures:
                    state.failures[key] = RunFailure.from_dict(
                        entry["failure"])
        except (KeyError, TypeError, ValueError, AttributeError,
                ConfigurationError):
            state.skipped_lines += 1
