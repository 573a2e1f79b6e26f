"""Supervised, queue-backed campaign execution service.

Layers, bottom up:

* :mod:`~repro.experiments.service.journal` — durable, torn-write
  tolerant work journal keyed by content-addressed spec hashes
  (exactly-once resume);
* :mod:`~repro.experiments.service.queue` — bounded submission queue
  with atomic backpressure rejection;
* :mod:`~repro.experiments.service.supervisor` — long-lived batched
  worker pool with heartbeat liveness, lease stealing and bounded
  restarts;
* :mod:`~repro.experiments.service.service` —
  :class:`~repro.experiments.service.service.CampaignService`, the
  cooperative scheduler tying the three together (retry backoff,
  quarantine of worker-killing specs, graceful drain);
* :mod:`~repro.experiments.service.server` — the ``repro serve``
  asyncio unix-socket front end and its blocking client helper.

See ``docs/campaign-service.md`` for the operational story.
"""

from repro.experiments.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalSchemaError,
    JournalState,
    WorkJournal,
    spec_digest,
)
from repro.experiments.service.queue import (
    BoundedWorkQueue,
    QueueFullError,
    WorkItem,
)
from repro.experiments.service.server import ServiceServer, request
from repro.experiments.service.service import (
    CampaignService,
    ServiceDrainingError,
)
from repro.experiments.service.supervisor import (
    WorkerEvent,
    WorkerPool,
    WorkerSlot,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalSchemaError",
    "JournalState",
    "WorkJournal",
    "spec_digest",
    "BoundedWorkQueue",
    "QueueFullError",
    "WorkItem",
    "ServiceServer",
    "request",
    "CampaignService",
    "ServiceDrainingError",
    "WorkerEvent",
    "WorkerPool",
    "WorkerSlot",
]
