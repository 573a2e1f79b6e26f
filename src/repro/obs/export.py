"""Exporters: Prometheus text exposition of run summaries.

Prometheus naming conventions apply: every series is prefixed ``repro_``,
counters get a ``_total`` suffix, histograms are exported as cumulative
``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Mapping, Optional

from repro.obs.probe import MetricsSummary
from repro.trace.framelog import NODE_COUNTER_FIELDS

if TYPE_CHECKING:
    from repro.experiments.campaign import CampaignReport

PREFIX = "repro_"


def _escape_label_value(value: Any) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double quote and newline must be backslash-escaped."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(value)}"'
                     for key, value in sorted(labels.items()))
    return "{" + inner + "}"


def _histogram_lines(name: str, data: Mapping[str, Any],
                     labels: Mapping[str, Any]) -> List[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    bounds = list(data.get("buckets", ())) + ["+Inf"]
    for bound, count in zip(bounds, data.get("counts", ())):
        cumulative += count
        bucket_labels = dict(labels)
        bucket_labels["le"] = bound
        lines.append(f"{name}_bucket{_format_labels(bucket_labels)} "
                     f"{cumulative}")
    lines.append(f"{name}_sum{_format_labels(labels)} {data.get('sum', 0)}")
    lines.append(f"{name}_count{_format_labels(labels)} "
                 f"{data.get('count', 0)}")
    return lines


def summary_to_prometheus(summary: MetricsSummary,
                          extra_labels: Optional[Mapping[str, Any]] = None
                          ) -> str:
    """Text exposition of a frozen :class:`MetricsSummary`."""
    extra = dict(extra_labels or {})
    lines: List[str] = []
    for field in NODE_COUNTER_FIELDS:
        name = f"{PREFIX}{field}_total"
        lines.append(f"# TYPE {name} counter")
        for node_name in sorted(summary.nodes):
            labels = {"node": node_name, **extra}
            value = summary.nodes[node_name].get(field, 0)
            lines.append(f"{name}{_format_labels(labels)} {value}")
    for node_name in sorted(summary.nodes):
        node = summary.nodes[node_name]
        for kind, count in sorted(node.get("errors_by_type", {}).items()):
            labels = {"node": node_name, "type": kind, **extra}
            lines.append(f"{PREFIX}errors_by_type_total"
                         f"{_format_labels(labels)} {count}")
        for gauge in ("tec", "rec", "max_tec", "max_rec"):
            if gauge in node:
                labels = {"node": node_name, **extra}
                lines.append(f"{PREFIX}{gauge}{_format_labels(labels)} "
                             f"{node[gauge]}")
    bus_labels = dict(extra)
    for key in ("total_bits", "dominant_bits", "dropped_recorded_bits",
                "dominant_fraction"):
        if key in summary.bus:
            lines.append(f"{PREFIX}bus_{key}{_format_labels(bus_labels)} "
                         f"{summary.bus[key]}")
    lines.append(f"{PREFIX}bus_busy_fraction{_format_labels(bus_labels)} "
                 f"{summary.busy_fraction}")
    if summary.detection_latency.get("count"):
        lines.extend(_histogram_lines(
            f"{PREFIX}detection_latency_bits", summary.detection_latency,
            bus_labels))
    return "\n".join(lines) + "\n"


def report_to_prometheus(report: "CampaignReport") -> str:
    """Per-spec exposition of every summary a campaign report carries."""
    chunks: List[str] = []
    for record in report.records:
        summary = getattr(record.result, "metrics", None)
        if summary is None:
            continue
        chunks.append(summary_to_prometheus(
            summary, extra_labels={"spec": record.spec.name}))
    return "".join(chunks)
