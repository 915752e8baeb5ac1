"""Benchmark arithmetic: percentiles, failure counting, host-speed scaling."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of
    the samples at or below it.  No interpolation, so every reported value
    is a latency that some op really had."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass
class OpResult:
    """One op of one job.  ``failure`` is None when the op passed its check;
    ``wrong`` marks a failure where the program returned an output that is
    incorrect (as opposed to refusing or crashing).  ``scaled`` is the
    latency at the nominal host speed (see SpeedProbe)."""

    workload: str
    job: int
    op: str
    seconds: float
    failure: str | None = None
    wrong: bool = False
    start: float = 0.0
    scaled: float = 0.0


@dataclass
class SpeedProbe:
    """Host speed, sampled by timing a fixed reference computation between ops.

    On a shared machine the speed of the same code drifts by a third within
    minutes, compute-bound Python most.  A time multiplied by ``scale`` over
    the same interval reads as seconds at the speed where the reference takes
    ``nominal`` seconds, which cancels most of that drift.
    """

    work: object
    nominal: float
    window: float = 2.0
    min_samples: int = 6
    clock: object = time.perf_counter
    samples: list = field(default_factory=list)  # (midpoint, seconds)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t = self.clock()
            self.work()
            d = self.clock() - t
            self.samples.append((t + d / 2.0, d))

    def scale(self, start: float, end: float) -> float:
        """nominal / median reference time of the samples within
        max(``window``, end - start) of [start, end], or of the
        ``min_samples`` nearest ones.  A long op lives through the host's
        speed over a long interval, so it is scaled by the speed over at
        least that long, not just at its two ends."""
        reach = max(self.window, end - start)
        near = [d for t, d in self.samples if start - reach <= t <= end + reach]
        if len(near) < self.min_samples:
            by_distance = sorted(self.samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
            near = [d for _, d in by_distance[: self.min_samples]]
        return self.nominal / median(near)


def tally(results) -> dict:
    """attempted / failed / fail_frac / correct over a list of OpResult."""
    results = list(results)
    failed = [r for r in results if r.failure is not None]
    attempted = len(results)
    return {
        "attempted": attempted,
        "failed": len(failed),
        "fail_frac": len(failed) / attempted if attempted else 0.0,
        "correct": not any(r.wrong for r in results),
        "failures": [f"{r.workload} job{r.job} {r.op}: {r.failure}" for r in failed],
    }
