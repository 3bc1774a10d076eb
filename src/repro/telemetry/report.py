"""Reporting layer: summarize a telemetry run.

``python -m repro telemetry report <metrics.json>`` renders the
per-worker phase histograms, SMB operation timings, and counters that
a run saved via :meth:`TelemetrySession.save`.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence, Tuple

from .phases import ALL_PHASES

__all__ = [
    "load",
    "phase_rows",
    "format_report",
]

_PHASE_RE = re.compile(r"^worker(\d+)/phase/([a-z_]+)$")

MetricSnapshot = Dict[str, Dict[str, object]]


def load(path: str) -> Dict[str, object]:
    """Read a ``metrics.json`` written by :meth:`TelemetrySession.save`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if "metrics" not in payload:
        raise ValueError(f"{path} is not a telemetry metrics dump")
    return payload


def _table(header: Sequence[str], body: List[List[str]]) -> List[str]:
    """Align ``header``/``body`` into fixed-width text columns."""
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) if body
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
        "  ".join("-" * width for width in widths),
    ]
    for row in body:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(row)))
        )
    return lines


def _ms(seconds: object) -> str:
    return f"{float(seconds) * 1e3:.3f}"


def phase_rows(
    metrics: MetricSnapshot,
) -> List[Tuple[int, str, Dict[str, object]]]:
    """Extract ``(worker, phase, histogram)`` rows, paper-phase ordered."""
    order = {name: i for i, name in enumerate(ALL_PHASES)}
    rows: List[Tuple[int, str, Dict[str, object]]] = []
    for name, snap in metrics.items():
        match = _PHASE_RE.match(name)
        if match and snap.get("type") == "histogram":
            rows.append((int(match.group(1)), match.group(2), snap))
    rows.sort(key=lambda row: (row[0], order.get(row[1], 99), row[1]))
    return rows


def _phase_section(metrics: MetricSnapshot) -> List[str]:
    rows = phase_rows(metrics)
    if not rows:
        return ["(no phase timings recorded — was telemetry off?)"]
    body = [
        [
            str(worker), phase, str(snap["count"]),
            _ms(snap["mean"]), _ms(snap["p50"]),
            _ms(snap["p95"]), _ms(snap["p99"]), _ms(snap["sum"]),
        ]
        for worker, phase, snap in rows
    ]
    header = ["worker", "phase", "count", "mean ms", "p50 ms",
              "p95 ms", "p99 ms", "total ms"]
    return _table(header, body)


def _op_section(metrics: MetricSnapshot, prefix: str) -> List[str]:
    body = []
    for name, snap in sorted(metrics.items()):
        if name.startswith(prefix) and snap.get("type") == "histogram":
            body.append([
                name[len(prefix):], str(snap["count"]),
                _ms(snap["mean"]), _ms(snap["p50"]), _ms(snap["p99"]),
            ])
    if not body:
        return []
    return _table(["op", "count", "mean ms", "p50 ms", "p99 ms"], body)


def _counter_section(metrics: MetricSnapshot) -> List[str]:
    body = [
        [name, str(snap["value"])]
        for name, snap in sorted(metrics.items())
        if snap.get("type") == "counter"
    ]
    if not body:
        return []
    return _table(["counter", "value"], body)


def _membership_section(metrics: MetricSnapshot) -> List[str]:
    """Elastic-membership churn: registry events + autoscale decisions.

    Only rendered when the run actually used the membership layer (some
    ``smb/membership/*`` or ``autoscale/decisions/*`` metric exists).
    """
    body = []
    for name, snap in sorted(metrics.items()):
        if not (
            name.startswith("smb/membership/")
            or name.startswith("autoscale/decisions/")
        ):
            continue
        value = snap.get("value")
        if value is None:
            continue
        kind = str(snap.get("type", ""))
        body.append([name, kind, str(int(float(value)))])  # type: ignore[arg-type]
    if not body:
        return []
    return _table(["metric", "type", "value"], body)


def format_report(payload: Dict[str, object]) -> str:
    """Render a saved telemetry payload as a human-readable report."""
    metrics: MetricSnapshot = payload.get("metrics", {})  # type: ignore
    meta: Dict[str, object] = payload.get("meta", {})  # type: ignore
    sections: List[str] = []

    if meta:
        pairs = "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        sections.append(f"== run ==\n{pairs}")

    sections.append(
        "== phase timings (eq. 8) ==\n" + "\n".join(_phase_section(metrics))
    )

    for title, prefix in (
        ("smb server ops", "smb/server/time/"),
        ("smb client ops", "smb/client/time/"),
        ("nccl collectives", "nccl/time/"),
        ("experiments", "experiment/time/"),
    ):
        lines = _op_section(metrics, prefix)
        if lines:
            sections.append(f"== {title} ==\n" + "\n".join(lines))

    counters = _counter_section(metrics)
    if counters:
        sections.append("== counters ==\n" + "\n".join(counters))

    membership = _membership_section(metrics)
    if membership:
        sections.append(
            "== elastic membership ==\n" + "\n".join(membership)
        )

    return "\n\n".join(sections)


def report_from_session(
    session: "object", meta: Optional[Dict[str, object]] = None
) -> str:
    """Format a live session without saving it first."""
    return format_report({
        "metrics": session.registry.snapshot(),  # type: ignore[attr-defined]
        "meta": dict(meta or {}),
    })
