"""Metrics primitives: the fixed-bucket histogram of run summaries.

A histogram is a plain ``__slots__`` object whose update is a few
attribute mutations.  It is JSON-safe and picklable so metric state can
cross the campaign engine's process boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Bump when the serialized metric dict layout changes incompatibly.
METRICS_SCHEMA_VERSION = 1


#: Default histogram buckets for detection latency in ID-bit positions:
#: the paper's FSM decides within the 11-bit identifier (mean bit 9).
DETECTION_LATENCY_BUCKETS = (2.0, 4.0, 6.0, 8.0, 9.0, 10.0, 11.0, 16.0, 29.0)


class Histogram:
    """A fixed-bucket distribution (detection latency, episode length...).

    ``counts[i]`` counts observations with ``value <= buckets[i]``
    (non-cumulative per bucket); ``counts[-1]`` is the overflow bucket.
    """

    __slots__ = ("name", "buckets", "counts", "count", "sum", "min", "max")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DETECTION_LATENCY_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError(
                f"histogram {name!r} needs ascending, non-empty buckets")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram", "name": self.name,
            "buckets": list(self.buckets), "counts": list(self.counts),
            "count": self.count, "sum": self.sum,
            "min": self.min, "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Histogram":
        histogram = cls(data["name"], buckets=data["buckets"])
        histogram.counts = list(data["counts"])
        histogram.count = data["count"]
        histogram.sum = data["sum"]
        histogram.min = data.get("min")
        histogram.max = data.get("max")
        return histogram
