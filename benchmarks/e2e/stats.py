"""Raw-sample statistics: supported percentiles, quartiles, block medians.

Everything here works on the harness's own raw samples — never on the
telemetry registry's ~5 %-wide histogram buckets.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics, section 1).
MIN_BEYOND = 10


def supported_percentile(count: int, wanted: float) -> float:
    """The highest percentile <= ``wanted`` leaving MIN_BEYOND samples beyond.

    With fewer than ``2 * MIN_BEYOND`` samples nothing above the median is
    supported, and the median is what gets reported.
    """
    if count <= 0:
        raise ValueError("no samples")
    ceiling = 100.0 * (count - MIN_BEYOND) / count
    return max(50.0, min(wanted, ceiling))


def percentile(samples: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(value, percentile_used)`` under the ten-samples-beyond rule.

    Nearest-rank on the sorted samples: the value is a sample that was
    measured, not an interpolation between two.
    """
    ordered = sorted(samples)
    used = supported_percentile(len(ordered), wanted)
    rank = min(len(ordered) - 1, int(len(ordered) * used / 100.0))
    return ordered[rank], used


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as the driver computes its spread."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values: Sequence[float]) -> Dict[str, object]:
    """Median plus what is needed to judge it: n, quartiles, raw values."""
    q1, median, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "rel_iqr": (q3 - q1) / median if median else 0.0,
        "values": list(values),
    }


def equal_count_blocks(count: int, blocks: int) -> List[Tuple[int, int]]:
    """Cut ``range(count)`` into ``blocks`` index ranges of equal size.

    The remainder is dropped from the tail, so every block holds the
    same amount of work and their rates are directly comparable.
    """
    blocks = max(1, min(blocks, count))
    size = count // blocks
    return [(i * size, (i + 1) * size) for i in range(blocks)]
