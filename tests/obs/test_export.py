"""Tests for the Prometheus exporters."""

from repro.attacks.dos import DosAttacker
from repro.bus.simulator import CanBusSimulator
from repro.core.defense import MichiCanNode
from repro.obs.export import report_to_prometheus, summary_to_prometheus
from repro.obs.probe import BusProbe, MetricsSummary


def fight_summary():
    sim = CanBusSimulator(bus_speed=50_000)
    sim.add_node(MichiCanNode("defender", range(0x100)))
    sim.add_node(DosAttacker("attacker", 0x064))
    probe = BusProbe(sim)
    sim.advance(3_000)
    return probe.summary()


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

    def test_histogram_buckets_are_cumulative(self):
        summary = MetricsSummary(detection_latency={
            "buckets": [2.0, 4.0], "counts": [1, 1, 0],
            "count": 2, "sum": 4, "min": 1, "max": 3})
        text = summary_to_prometheus(summary)
        assert 'repro_detection_latency_bits_bucket{le="2.0"} 1' in text
        assert 'repro_detection_latency_bits_bucket{le="4.0"} 2' in text
        assert 'repro_detection_latency_bits_bucket{le="+Inf"} 2' in text
        assert 'repro_detection_latency_bits_count 2' in text

    def test_extra_labels(self):
        summary = MetricsSummary(nodes={"a": {"frames_tx": 3}})
        text = summary_to_prometheus(summary,
                                     extra_labels={"spec": "exp4#0"})
        assert 'repro_frames_tx_total{node="a",spec="exp4#0"} 3' in text

    def test_label_values_are_escaped(self):
        summary = MetricsSummary(nodes={'say "hi"\\now\n': {"frames_tx": 1}})
        text = summary_to_prometheus(summary)
        assert 'node="say \\"hi\\"\\\\now\\n"' in text
        assert "\n\"" not in text  # no raw newline inside a label value

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
