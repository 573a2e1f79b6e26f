"""Tests for the Prometheus / JSONL exporters."""

import json

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.obs.export import (
    registry_to_jsonl,
    registry_to_prometheus,
    report_to_prometheus,
    summary_to_prometheus,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import BusProbe


def fight_summary():
    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    probe = BusProbe(sim)
    sim.advance(3_000)
    return probe.summary()


class TestRegistryExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("frames_tx", node="a").inc(3)
        registry.gauge("tec", node="a").set(96)
        histogram = registry.histogram("latency", buckets=(2.0, 4.0))
        histogram.observe(1)
        histogram.observe(3)
        return registry

    def test_prometheus_format(self):
        text = registry_to_prometheus(self._registry())
        assert '# TYPE repro_frames_tx_total counter' in text
        assert 'repro_frames_tx_total{node="a"} 3' in text
        assert 'repro_tec{node="a"} 96' in text
        # histogram buckets are cumulative
        assert 'repro_latency_bucket{le="2.0"} 1' in text
        assert 'repro_latency_bucket{le="4.0"} 2' in text
        assert 'repro_latency_count 2' in text

    def test_extra_labels(self):
        text = registry_to_prometheus(self._registry(),
                                      extra_labels={"spec": "exp4#0"})
        assert 'node="a",spec="exp4#0"' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("frames_tx", node='say "hi"\\now\n').inc(1)
        text = registry_to_prometheus(registry)
        assert 'node="say \\"hi\\"\\\\now\\n"' in text
        assert "\n\"" not in text  # no raw newline inside a label value

    def test_jsonl(self):
        lines = registry_to_jsonl(self._registry()).strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert len(parsed) == 3
        assert {entry["type"] for entry in parsed} == \
            {"counter", "gauge", "histogram"}


class TestSummaryExposition:
    def test_summary_series(self):
        text = summary_to_prometheus(fight_summary())
        assert 'repro_frames_tx_total{node="defender"}' in text
        assert 'repro_busoffs_total{node="attacker"}' in text
        assert 'repro_errors_by_type_total{node="attacker",type=' in text
        assert 'repro_tec{node="attacker"}' in text
        assert 'repro_bus_total_bits 3000' in text
        assert 'repro_bus_busy_fraction' in text
        assert 'repro_detection_latency_bits_bucket' in text

    def test_report_exposition_labels_by_spec(self):
        from repro.experiments.campaign import Campaign, ScenarioSpec

        specs = [ScenarioSpec("exp4", duration_bits=3_000, seed=s,
                              metrics=True) for s in (0, 1)]
        report = Campaign(specs, n_workers=1).run()
        text = report_to_prometheus(report)
        assert 'spec="exp4#0"' in text
        assert 'spec="exp4#1"' in text

    def test_report_without_metrics_is_empty(self):
        from repro.experiments.campaign import Campaign, ScenarioSpec

        report = Campaign([ScenarioSpec("exp4", duration_bits=2_000)],
                          n_workers=1).run()
        assert report_to_prometheus(report) == ""
