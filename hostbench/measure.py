"""The benchmark's own arithmetic, kept free of repro imports so it can be
unit-tested in isolation: interval self time, the percentile-reporting
rule, censored time-to-first-mask, failure shares and run spread."""

from __future__ import annotations

import math
import statistics

# Percentiles tried, highest last, when choosing which tail to report.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by ``(start, end)`` intervals clipped to
    ``[lo, hi]``; overlapping intervals are counted once."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover.

    Children may nest, overlap each other or stick out of the parent;
    only their union inside ``[start, end]`` is subtracted."""
    return (end - start) - union_length(children, start, end)


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank; the epsilon keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def nearest_rank(values, pct: float) -> float:
    """The ``pct``-th percentile by nearest rank (an actual sample)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    ``pct``-th percentile."""
    return count - _rank(count, pct)


def highest_reportable(count: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or None when not even the median qualifies."""
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def first_mask_ms(frames, frame_ms: float, horizon_ms: float) -> float:
    """Simulated time until the first mask is on screen, for one session.

    ``frames`` are ``(frame_index, latency_ms, num_rendered)`` in frame
    order; a frame's mask is on screen at capture time plus its display
    latency.  A session that never shows a mask is censored at the run
    horizon, so it counts as at least as late as any session that did."""
    for index, latency, rendered in frames:
        if rendered > 0:
            return min(index * frame_ms + latency, horizon_ms)
    return horizon_ms


def failure_share(failed: int, attempted: int) -> float:
    """Failed over attempted; attempting nothing is itself a failure."""
    if attempted <= 0:
        return 1.0
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, reading 0.0 when the base is empty."""
    return numerator / base if base else 0.0


def relative_spread(values) -> float:
    """Interquartile distance over the median, as the acceptance check
    computes it from ``statistics.quantiles(values, n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
