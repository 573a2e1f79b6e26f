"""Content-addressed campaign result cache, gated by the purity manifest.

A :class:`~repro.experiments.campaign.RunRecord` may be replayed instead
of re-simulated only when the effect analysis has certified the spec's
scenario as **pure** (:mod:`repro.analysis.purity`): replaying an impure
run could silently diverge from what a fresh run would produce.  The
cache is therefore constructed around a :class:`PurityManifest` and
refuses to cache (or serve) any scenario whose verdict is not ``"pure"``.

Addressing: one JSON file per entry under the cache directory, named by
the **spec hash** — a SHA-256 over the canonical spec dict, the
scenario's transitive slice hash from the manifest, and the campaign +
cache schema versions.  Flipping any spec field changes the spec dict;
editing any file in the scenario's execution slice changes the slice
hash; either way the address moves and the stale entry is simply never
found again (no invalidation pass needed).

Robustness follows the analysis-cache discipline: corrupted, truncated,
version-skewed or colliding entries degrade silently to a miss (the spec
re-runs), and writes are atomic (tmp + rename) so a killed campaign
never leaves a torn entry behind.

Replay is **verbatim**: the stored record round-trips through
``RunRecord.to_dict()`` unchanged, so a warm report's records are
byte-identical to the cold report that populated the cache.  The
``cache_hit`` marker is runtime-only state, deliberately excluded from
serialization.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, Optional

from repro.analysis.purity import PurityManifest
from repro.experiments.campaign import (
    SCHEMA_VERSION as CAMPAIGN_SCHEMA_VERSION,
)
from repro.experiments.campaign import RunRecord, ScenarioSpec

#: Bump when the entry layout or the hashing recipe changes incompatibly.
CACHE_SCHEMA_VERSION = 1

#: Default cache directory, next to the analysis cache.
DEFAULT_CACHE_DIR = os.path.join(".repro_cache", "results")


class ResultCache:
    """Content-addressed store of completed :class:`RunRecord` payloads.

    Args:
        directory: Where entries live (one ``<hash>.json`` per record).
            Created lazily on the first :meth:`put`.
        manifest: The purity manifest that certifies scenarios and
            carries their slice hashes.  Without one (``None``) every
            lookup and store is a no-op — the cache degrades to "off"
            rather than guessing.

    Attributes:
        hits: Lookups served from disk this session.
        misses: Lookups that fell through to a fresh run.
        stores: Entries written this session.
    """

    def __init__(self, directory: str = DEFAULT_CACHE_DIR,
                 manifest: Optional[PurityManifest] = None) -> None:
        self.directory = os.fspath(directory)
        self.manifest = manifest
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------ hashing

    def spec_hash(self, spec: ScenarioSpec) -> Optional[str]:
        """The content address of ``spec``, or ``None`` when uncacheable.

        ``None`` means "never cache this": no manifest, a scenario the
        manifest does not certify as pure, or a missing slice hash.
        """
        if self.manifest is None:
            return None
        if self.manifest.verdict(spec.scenario) != "pure":
            return None
        slice_hash = self.manifest.slice_hash(spec.scenario)
        if not slice_hash:
            return None
        blob = json.dumps(
            {
                "cache_schema": CACHE_SCHEMA_VERSION,
                "campaign_schema": CAMPAIGN_SCHEMA_VERSION,
                "slice_hash": slice_hash,
                "spec": spec.to_dict(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.directory, f"{digest}.json")

    # ------------------------------------------------------------- lookup

    def get(self, spec: ScenarioSpec) -> Optional[RunRecord]:
        """The cached record for ``spec``, or ``None`` (a miss).

        A served record has ``cache_hit=True`` set; everything the
        serializer sees is the stored payload, verbatim.
        """
        digest = self.spec_hash(spec)
        if digest is None:
            return None
        entry = self._load_entry(self._entry_path(digest))
        if entry is None:
            self.misses += 1
            return None
        # Collision/corruption guard: the entry must describe this spec.
        if entry.get("spec") != spec.to_dict():
            self.misses += 1
            return None
        try:
            record = RunRecord.from_dict(entry["record"])
        except (KeyError, TypeError, ValueError, AttributeError):
            self.misses += 1
            return None
        record.cache_hit = True
        self.hits += 1
        return record

    @staticmethod
    def _load_entry(path: str) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None  # missing, torn or foreign file: a miss
        if not isinstance(data, dict) \
                or data.get("schema_version") != CACHE_SCHEMA_VERSION \
                or data.get(
                    "campaign_schema_version") != CAMPAIGN_SCHEMA_VERSION:
            return None
        return data

    # -------------------------------------------------------------- store

    def put(self, spec: ScenarioSpec, record: RunRecord) -> bool:
        """Store ``record`` under ``spec``'s content address.

        Returns True when an entry was written; False when the spec is
        uncacheable (see :meth:`spec_hash`) or the write failed (a cache
        write failure is never allowed to fail the campaign).
        """
        digest = self.spec_hash(spec)
        if digest is None:
            return False
        entry = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "campaign_schema_version": CAMPAIGN_SCHEMA_VERSION,
            "spec_hash": digest,
            "spec": spec.to_dict(),
            "record": record.to_dict(),
        }
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=self.directory, prefix=".result-", suffix=".tmp")
        except OSError:
            return False
        try:
            # One C-encoder pass (``json.dump`` streams through the
            # pure-Python encoder); the bytes are the same.
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            os.replace(tmp_path, self._entry_path(digest))
        except OSError:
            return False
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
        self.stores += 1
        return True

    # ---------------------------------------------------------- reporting

    def render_stats(self) -> str:
        """One status line for CLI output."""
        return (f"result cache: {self.hits} hit(s), {self.misses} miss(es), "
                f"{self.stores} stored -> {self.directory}")
