"""Wall-clock timing helpers shared across the package.

Figure 8 and Table 3 of the paper report runtime decompositions and
cross-method runtime comparisons; the :class:`Stopwatch` / :func:`time_call`
helpers give a consistent way to time named stages of a pipeline, and
:func:`percentile` computes exact quantiles of a list of timings (the
benchmark harness's client-side request latencies).

Live counters and latency histograms are not kept here: they live in the
metric shard (:class:`repro.obs.shards.ShardWriter`), the one store that
``/metrics``, history, SLOs and the serving bench all read.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple


@dataclass
class Stopwatch:
    """Accumulates elapsed wall-clock time for named stages.

    Example
    -------
    >>> watch = Stopwatch()
    >>> with watch.measure("mining"):
    ...     _ = sum(range(1000))
    >>> "mining" in watch.timings
    True
    """

    timings: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def measure(self, stage: str) -> Iterator[None]:
        """Context manager adding the elapsed time of the block to ``stage``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timings[stage] = self.timings.get(stage, 0.0) + elapsed

    def total(self) -> float:
        """Return the sum of all recorded stage times."""
        return sum(self.timings.values())

    def as_dict(self) -> Dict[str, float]:
        """Return a copy of the stage → seconds mapping."""
        return dict(self.timings)


def time_call(func: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float]:
    """Call ``func`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


def percentile(samples: Sequence[float], q: float) -> float:
    """Return the ``q``-th percentile of ``samples`` (linear interpolation).

    Matches ``numpy.percentile``'s default (``linear``) method without
    depending on NumPy here.

    Parameters
    ----------
    samples:
        Observations (need not be sorted; must be non-empty).
    q:
        Percentile in ``[0, 100]``.

    Example
    -------
    >>> percentile([4.0, 1.0, 3.0, 2.0], 50)
    2.5
    >>> percentile([1.0, 2.0, 3.0, 4.0], 100)
    4.0
    """
    if not samples:
        raise ValueError("percentile() of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return float(ordered[low] + (ordered[high] - ordered[low]) * fraction)
