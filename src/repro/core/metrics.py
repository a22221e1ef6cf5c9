"""Metric helpers shared by the experiment runners.

The figures of the paper present normalised quantities (latency normalised to
the slowest baseline, throughput normalised to a reference, power breakdowns
summing to one), speedups, and averages across models; this module keeps that
arithmetic in one place.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence


def speedup(baseline_time: float, optimized_time: float) -> float:
    """Ratio of baseline time to optimized time (>1 means faster)."""
    if optimized_time <= 0:
        raise ValueError(f"optimized_time must be positive, got {optimized_time}")
    if baseline_time < 0:
        raise ValueError(f"baseline_time must be non-negative, got {baseline_time}")
    return baseline_time / optimized_time


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty iterable)."""
    items = [value for value in values]
    if not items:
        return 0.0
    if any(value <= 0 for value in items):
        raise ValueError("geometric mean requires strictly positive values")
    return math.exp(sum(math.log(value) for value in items) / len(items))


def normalize_to(
    values: Mapping[str, float], reference_key: Optional[str] = None
) -> Dict[str, float]:
    """Normalise a mapping of values to one of its entries.

    Args:
        values: name -> value.
        reference_key: the entry everything is divided by; defaults to the
            largest value (so the result is in (0, 1], matching how the paper
            normalises latency bars).
    """
    if not values:
        return {}
    if reference_key is None:
        reference_key = max(values, key=lambda key: values[key])
    reference = values[reference_key]
    if reference <= 0:
        raise ValueError(f"reference value for '{reference_key}' must be positive")
    return {key: value / reference for key, value in values.items()}


def normalize_breakdown(breakdown: Mapping[str, float]) -> Dict[str, float]:
    """Normalise a breakdown so its components sum to 1.0."""
    total = sum(breakdown.values())
    if total <= 0:
        return {key: 0.0 for key in breakdown}
    return {key: value / total for key, value in breakdown.items()}


def average_speedup(
    baseline_times: Sequence[float], optimized_times: Sequence[float]
) -> float:
    """Geometric-mean speedup across paired measurements."""
    if len(baseline_times) != len(optimized_times):
        raise ValueError("baseline and optimized sequences must have equal length")
    ratios = [speedup(base, opt) for base, opt in zip(baseline_times, optimized_times)]
    return geometric_mean(ratios)
