"""Order statistics used by the report."""

from __future__ import annotations

import math
import statistics

# A reported percentile needs at least this many samples strictly beyond it.
MIN_TAIL = 10


def min_samples(q: float) -> int:
    """Smallest sample count for which the q-quantile keeps MIN_TAIL beyond it."""
    n = MIN_TAIL
    while n - math.ceil(q * n) < MIN_TAIL:
        n += 1
    return n


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile, refused when fewer than MIN_TAIL samples lie beyond it."""
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < MIN_TAIL:
        raise ValueError(
            f"p{q * 100:g} of {len(xs)} samples leaves {len(xs) - rank} beyond it; "
            f"need {MIN_TAIL}"
        )
    return xs[rank - 1]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def blocks(rounds: list[list[float]], size: int, period: int = 1) -> list[list[float]]:
    """Join consecutive rounds into blocks of whole periods with at least
    ``size`` samples each; a short remainder joins the last block."""
    out: list[list[float]] = []
    current: list[float] = []
    for i, samples in enumerate(rounds, start=1):
        current.extend(samples)
        if i % period == 0 and len(current) >= size:
            out.append(current)
            current = []
    if current:
        if out:
            out[-1].extend(current)
        else:
            out.append(current)
    return out


def block_medians(rounds: list[list[float]], size: int,
                  period: int = 1) -> tuple[dict[str, float], list]:
    """Throughput and latency percentiles per block, each the median over
    blocks; also returns the per-block triples.

    Samples are seconds; latencies are reported in milliseconds.  A block
    keeps ``size`` samples so that its p90 has MIN_TAIL samples beyond it.
    """
    per = [
        (len(b) / sum(b), percentile(b, 0.5) * 1e3, percentile(b, 0.9) * 1e3)
        for b in blocks(rounds, size, period)
    ]
    return {
        "ops_per_s": statistics.median(p[0] for p in per),
        "latency_p50_ms": statistics.median(p[1] for p in per),
        "latency_p90_ms": statistics.median(p[2] for p in per),
    }, per
