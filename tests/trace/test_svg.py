"""Tests for the SVG waveform/timeline renderers."""

import pytest

from repro.attacks.dos import DosAttacker
from repro.bus.events import CounterattackStarted
from repro.bus.simulator import CanBusSimulator
from repro.can.frame import CanFrame
from repro.core.defense import MichiCanNode
from repro.node.controller import CanNode
from repro.trace.svg import render_timeline_svg, render_waveform_svg


def attacked_sim(duration=2_600):
    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    sim.advance(duration)
    return sim


class TestWaveformSvg:
    def test_valid_svg_structure(self):
        sim = attacked_sim(200)
        svg = render_waveform_svg(sim.wire.history, end=120)
        assert svg.startswith("<svg ")
        assert svg.endswith("</svg>")
        assert "<polyline" in svg
        assert svg.count("<svg") == 1

    def test_annotations_rendered(self):
        sim = attacked_sim(200)
        counter = sim.events_of(CounterattackStarted)[0]
        svg = render_waveform_svg(
            sim.wire.history, end=120,
            annotations={counter.time: "counterattack"},
        )
        assert "counterattack" in svg
        assert "stroke-dasharray" in svg

    def test_out_of_window_annotations_skipped(self):
        sim = attacked_sim(200)
        svg = render_waveform_svg(sim.wire.history, end=50,
                                  annotations={5_000: "late"})
        assert "late" not in svg

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            render_waveform_svg([], 0, 0)

    def test_deterministic(self):
        sim = attacked_sim(150)
        a = render_waveform_svg(sim.wire.history, end=100)
        b = render_waveform_svg(sim.wire.history, end=100)
        assert a == b


class TestTimelineSvg:
    def test_lanes_and_markers(self):
        sim = attacked_sim()
        svg = render_timeline_svg(sim.events)
        assert "attacker" in svg and "defender" in svg
        assert "<circle" in svg          # frame/error markers
        assert "<path d='M" in svg       # the bus-off diamond
        assert "bus-off" in svg          # legend

    def test_node_filter(self):
        sim = attacked_sim()
        svg = render_timeline_svg(sim.events, nodes=["attacker"])
        # Only one labelled lane.
        assert svg.count(">attacker</text>") == 1
        assert ">defender</text>" not in svg

    def test_window_filter(self):
        sim = attacked_sim()
        narrow = render_timeline_svg(sim.events, start=0, end=100)
        wide = render_timeline_svg(sim.events)
        assert narrow.count("<circle") < wide.count("<circle")

    def test_no_events_rejected(self):
        with pytest.raises(ValueError):
            render_timeline_svg([])

    def test_file_roundtrip(self, tmp_path):
        sim = attacked_sim(300)
        path = tmp_path / "fight.svg"
        path.write_text(render_timeline_svg(sim.events), encoding="utf-8")
        assert path.read_text(encoding="utf-8").startswith("<svg")
