"""Bounded queue semantics: atomic backpressure, requeue priority, backoff."""

import pytest

from repro.experiments.service.queue import BoundedWorkQueue, QueueFullError


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        BoundedWorkQueue(0)


def test_submission_beyond_capacity_is_rejected_atomically():
    queue = BoundedWorkQueue(3)
    queue.submit(["a", "b"])
    with pytest.raises(QueueFullError) as err:
        queue.submit(["c", "d"])  # 2 + 2 > 3
    assert err.value.capacity == 3
    assert err.value.depth == 2
    assert err.value.rejected == 2
    # Nothing from the failed batch landed.
    assert queue.keys() == ["a", "b"]
    # A fitting batch still works afterwards.
    queue.submit(["c"])
    assert queue.keys() == ["a", "b", "c"]


def test_requeue_is_never_rejected_and_goes_first():
    queue = BoundedWorkQueue(2)
    queue.submit(["a", "b"])
    queue.requeue("stolen", attempt=2)  # over capacity, still accepted
    assert len(queue) == 3
    assert queue.pop_ready(now=0.0).key == "stolen"


def test_pop_ready_honours_backoff():
    queue = BoundedWorkQueue(4)
    queue.submit(["fresh"])
    queue.requeue("later", attempt=2, ready_at=10.0)
    # At t=0 only the fresh item is ready (the retry is backing off).
    item = queue.pop_ready(now=0.0)
    assert item.key == "fresh" and item.attempt == 1
    assert queue.pop_ready(now=0.0) is None
    assert queue.next_ready_at() == 10.0
    assert queue.next_ready_at(after=10.0) is None
    item = queue.pop_ready(now=10.0)
    assert item.key == "later" and item.attempt == 2
    assert not queue


def test_fifo_order_for_fresh_submissions():
    queue = BoundedWorkQueue(8)
    queue.submit(["a", "b", "c"])
    assert [queue.pop_ready(0.0).key for _ in range(3)] == ["a", "b", "c"]
