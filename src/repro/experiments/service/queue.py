"""Bounded submission queue: explicit backpressure, never unbounded memory.

The service accepts campaign submissions while runs are in flight, so an
unbounded queue would let a fast submitter OOM the parent.  This queue
enforces a hard capacity at **submission** time — a submit that does not
fit is rejected atomically with :class:`QueueFullError` (nothing from
the batch is enqueued, the client gets a structured "try later") —
while *internal* requeues (retries, stolen leases) always succeed: work
the service already accepted is never dropped for capacity reasons.

Items carry an attempt counter and an earliest-start time (monotonic
seconds) so retry backoff lives in the queue, not in scheduler state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ReproError


class QueueFullError(ReproError):
    """A submission exceeded the bounded queue's capacity."""

    def __init__(self, capacity: int, depth: int, rejected: int) -> None:
        super().__init__(
            f"submission rejected: queue holds {depth}/{capacity} "
            f"item(s) and cannot take {rejected} more — drain or retry "
            f"after some specs finish")
        self.capacity = capacity
        self.depth = depth
        self.rejected = rejected


@dataclass
class WorkItem:
    """One queued unit of work, by journal key."""

    key: str
    attempt: int = 1
    ready_at: float = 0.0


class BoundedWorkQueue:
    """FIFO of :class:`WorkItem` with a hard submission capacity."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(
                f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: List[WorkItem] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def keys(self) -> List[str]:
        return [item.key for item in self._items]

    def submit(self, keys: Sequence[str]) -> None:
        """Enqueue new submissions, atomically, or raise
        :class:`QueueFullError` without enqueuing any of them."""
        if len(self._items) + len(keys) > self.capacity:
            raise QueueFullError(self.capacity, len(self._items), len(keys))
        self._items.extend(WorkItem(key) for key in keys)

    def requeue(self, key: str, attempt: int, ready_at: float = 0.0) -> None:
        """Put accepted work back (retry / stolen lease): never rejected.

        The item goes to the *front* of its readiness class so stolen
        work is re-leased before fresh submissions.
        """
        self._items.insert(0, WorkItem(key, attempt=attempt,
                                       ready_at=ready_at))

    def pop_ready(self, now: float) -> Optional[WorkItem]:
        """The first item whose backoff has elapsed, or ``None``."""
        for index, item in enumerate(self._items):
            if item.ready_at <= now:
                return self._items.pop(index)
        return None

    def next_ready_at(self, after: float = float("-inf")) -> Optional[float]:
        """Earliest ``ready_at`` later than ``after`` across queued items
        (``None`` if there is none)."""
        return min((item.ready_at for item in self._items
                    if item.ready_at > after), default=None)
