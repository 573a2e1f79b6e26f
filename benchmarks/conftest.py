"""Shared helpers for the paper-reproduction benchmarks.

Every bench prints a ``paper vs measured`` block so the EXPERIMENTS.md
numbers can be regenerated with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import pytest

Row = Tuple[str, object, object]


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="shrink benchmark workloads for a CI smoke run; quick runs "
             "never overwrite the recorded BENCH_*.json baselines",
    )


@pytest.fixture
def quick(request) -> bool:
    """True when the run was invoked with ``--quick``."""
    return request.config.getoption("--quick")


def report(title: str, rows: Iterable[Row], notes: Optional[str] = None) -> None:
    """Print a paper-vs-measured table for one experiment."""
    print(f"\n=== {title}")
    print(f"    {'metric':<42} {'paper':>16} {'measured':>16}")
    for metric, paper, measured in rows:
        paper_text = _fmt(paper)
        measured_text = _fmt(measured)
        print(f"    {metric:<42} {paper_text:>16} {measured_text:>16}")
    if notes:
        print(f"    note: {notes}")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)



def cpu_seconds(work: Callable[[], Any]) -> float:
    """Process CPU seconds of ``work()``, started after a full collection.

    Process CPU time is not inflated by another tenant on the box, and
    the collection keeps one run's garbage out of the next run's time.
    """
    gc.collect()
    started = time.process_time()
    work()
    return time.process_time() - started


def paired_cpu_overheads(
    run_once: Callable[..., float],
    configs: Sequence[Tuple[str, Dict[str, Any]]],
    rounds: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Median per-pair CPU overhead of every configuration over the first.

    ``run_once(**kwargs)`` runs one configuration and returns the CPU
    seconds of its timed part (see :func:`cpu_seconds`).  A round runs
    every configuration once, forward on even rounds and backward on odd
    ones, so drift and order effects hit all configurations alike.  Each
    round pairs a configuration with the first one (the baseline) of the
    same round; a configuration's overhead is the median over the rounds
    of ``config / baseline - 1``.

    Returns ({name: median overhead}, {name: median CPU seconds}).
    """
    seconds: Dict[str, List[float]] = {name: [] for name, _ in configs}
    for round_ in range(rounds):
        order = configs if round_ % 2 == 0 else configs[::-1]
        for name, kwargs in order:
            seconds[name].append(run_once(**kwargs))
    base = seconds[configs[0][0]]
    overheads = {
        name: statistics.median(
            observed / bare - 1.0 for observed, bare in zip(values, base))
        for name, values in seconds.items()}
    medians = {name: statistics.median(values)
               for name, values in seconds.items()}
    return overheads, medians
