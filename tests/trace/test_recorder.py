"""Tests for the logic-analyzer substitute."""

import random
from itertools import groupby

import pytest

from repro.trace.recorder import Edge, LogicTrace, Segment


class TestEdges:
    def test_no_edges_on_constant(self):
        assert LogicTrace([1, 1, 1]).edges() == []

    def test_falling_and_rising(self):
        trace = LogicTrace([1, 0, 0, 1])
        edges = trace.edges()
        assert edges == [Edge(1, rising=False), Edge(3, rising=True)]

    def test_window(self):
        trace = LogicTrace([1, 0, 1, 0])
        assert len(trace.edges(start=2, end=4)) == 2


class TestSegments:
    def test_single_segment(self):
        assert LogicTrace([0, 0]).segments() == [Segment(0, 2, 0)]

    def test_multiple_segments(self):
        segments = LogicTrace([1, 1, 0, 1]).segments()
        assert segments == [Segment(0, 2, 1), Segment(2, 1, 0), Segment(3, 1, 1)]

    def test_empty_window(self):
        assert LogicTrace([1]).segments(1, 1) == []

    def test_segment_end_property(self):
        assert Segment(5, 3, 0).end == 8


class TestFractions:
    def test_dominant_fraction(self):
        assert LogicTrace([0, 0, 1, 1]).dominant_fraction() == 0.5

    def test_dominant_fraction_empty(self):
        assert LogicTrace([]).dominant_fraction() == 0.0

    def test_busy_fraction_idle_bus(self):
        # A long recessive run beyond the 11-bit gap is idle.
        trace = LogicTrace([1] * 100)
        assert trace.busy_fraction() == pytest.approx(0.11)

    def test_busy_fraction_fully_busy(self):
        # Alternating levels: never 11 consecutive recessive -> fully busy.
        trace = LogicTrace([0, 1] * 50)
        assert trace.busy_fraction() == 1.0

    def test_longest_recessive_run(self):
        trace = LogicTrace([0, 1, 1, 1, 0, 1, 1])
        assert trace.longest_recessive_run() == 3


class TestRender:
    def test_render_symbols(self):
        out = LogicTrace([0, 1, 0]).render()
        assert "_^_" in out

    def test_render_wraps(self):
        out = LogicTrace([1] * 200).render(width=80)
        assert len(out.splitlines()) == 3


class TestRunScan:
    """Runs are scanned as bytes; check them against itertools.groupby."""

    def test_segments_and_busy_fraction_match_groupby(self):
        rng = random.Random(7)
        for _ in range(300):
            size = rng.randint(0, 60)
            levels = [rng.choice((0, 1, 1)) for _ in range(size)]
            start, end = sorted((rng.randint(0, size), rng.randint(0, size)))
            runs, t = [], start
            for level, group in groupby(levels[start:end]):
                length = len(list(group))
                runs.append((t, length, level))
                t += length
            trace = LogicTrace(levels)
            assert [(s.start, s.length, s.level)
                    for s in trace.segments(start, end)] == runs
            for gap in (0, 1, 5, 11):
                idle = sum(length - gap for _, length, level in runs
                           if level == 1 and length >= gap)
                expected = max(0.0, 1.0 - idle / (end - start)) if runs else 0.0
                assert trace.busy_fraction(gap, start, end) == expected

    def test_out_of_range_window_raises(self):
        with pytest.raises(IndexError):
            LogicTrace([0, 1, 1]).segments(0, 5)
        with pytest.raises(IndexError):
            LogicTrace([0, 1, 1]).busy_fraction(11, -1, 3)

    def test_non_binary_levels_raise(self):
        with pytest.raises(ValueError):
            LogicTrace([0, 2, 1]).segments()
