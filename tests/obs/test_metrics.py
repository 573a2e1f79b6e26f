"""Tests for the histogram metric primitive."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram


class TestHistogram:
    def test_bucketing(self):
        histogram = Histogram("latency", buckets=(2.0, 4.0, 8.0))
        for value in (1, 2, 3, 9):
            histogram.observe(value)
        # counts: <=2, <=4, <=8, overflow
        assert histogram.counts == [2, 1, 0, 1]
        assert histogram.count == 4
        assert histogram.sum == 15
        assert histogram.min == 1 and histogram.max == 9
        assert histogram.mean == pytest.approx(3.75)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=())
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(4.0, 2.0))

    def test_round_trip(self):
        histogram = Histogram("latency", buckets=(2.0, 4.0))
        histogram.observe(3)
        clone = Histogram.from_dict(histogram.to_dict())
        assert clone.to_dict() == histogram.to_dict()
