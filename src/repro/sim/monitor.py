"""Time-series recording and windowed aggregation.

The paper reports every QoS parameter as "average values calculated
over non-overlapping windows of 200 milliseconds".  :class:`TimeSeries`
stores raw (time, value) samples; :meth:`TimeSeries.window_average` and
friends produce exactly that kind of windowed series, which the benches
print as the figures' data rows.

The standard aggregations (mean/sum/count) stream through
:func:`windowed_series`, the one wrapper around
:class:`repro.obs.streaming.StreamingWindows` — constant memory beyond
the output, same floats as the historical bucket-table implementation.
:meth:`TimeSeries.window_aggregate` keeps the buffered path for
arbitrary aggregation callables, and is the reference the streaming
fold is tested against.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.obs.streaming import StreamingWindows


class TimeSeries:
    """An append-only sequence of (time, value) samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def add(self, time: float, value: float) -> None:
        """Append a sample.  Times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"sample at {time!r} is earlier than previous {self.times[-1]!r}"
            )
        self.times.append(time)
        self.values.append(value)

    def _finite(self) -> List[float]:
        """Values excluding NaN placeholders from empty windows."""
        return [v for v in self.values if v == v]

    def mean(self) -> float:
        """Arithmetic mean of the (non-NaN) values; NaN when empty."""
        values = self._finite()
        if not values:
            return math.nan
        return sum(values) / len(values)

    def maximum(self) -> float:
        """Largest (non-NaN) value; NaN when empty."""
        values = self._finite()
        if not values:
            return math.nan
        return max(values)

    def minimum(self) -> float:
        """Smallest (non-NaN) value; NaN when empty."""
        values = self._finite()
        if not values:
            return math.nan
        return min(values)

    def stdev(self) -> float:
        """Population standard deviation of the (non-NaN) values.

        A single sample has zero spread; only an empty series is NaN.
        """
        values = self._finite()
        if not values:
            return math.nan
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))

    def between(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with start <= time < end."""
        out = TimeSeries(self.name)
        for t, v in zip(self.times, self.values):
            if start <= t < end:
                out.add(t, v)
        return out

    def _span_end(self, window: float, start: float, end: Optional[float]) -> float:
        """``end``, defaulting to the end of the last sample's window."""
        if end is not None:
            return end
        return self.times[-1] + window if self.times else start

    def window_aggregate(
        self,
        window: float,
        func: Callable[[Sequence[float]], float],
        start: float = 0.0,
        end: Optional[float] = None,
        empty_value: float = math.nan,
    ) -> "TimeSeries":
        """Aggregate samples into non-overlapping windows of ``window`` s.

        Each output sample is stamped at the window start.  Windows with
        no samples yield ``empty_value``.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        end = self._span_end(window, start, end)
        out = TimeSeries(self.name)
        n_windows = max(0, int(math.ceil((end - start) / window)))
        buckets: List[List[float]] = [[] for _ in range(n_windows)]
        for t, v in zip(self.times, self.values):
            if t < start or t >= end:
                continue
            index = int((t - start) / window)
            if index >= n_windows:
                index = n_windows - 1
            buckets[index].append(v)
        for i, bucket in enumerate(buckets):
            value = func(bucket) if bucket else empty_value
            out.add(start + i * window, value)
        return out

    def window_average(
        self, window: float, start: float = 0.0, end: Optional[float] = None
    ) -> "TimeSeries":
        """Windowed arithmetic mean (the paper's reporting method)."""
        return windowed_series(
            self.name, window, "mean", ((self.times, self.values),),
            start, self._span_end(window, start, end),
        )

    def window_sum(
        self, window: float, start: float = 0.0, end: Optional[float] = None
    ) -> "TimeSeries":
        """Windowed sum; empty windows yield 0 (e.g. bytes per window)."""
        return windowed_series(
            self.name, window, "sum", ((self.times, self.values),),
            start, self._span_end(window, start, end),
        )

    def window_count(
        self, window: float, start: float = 0.0, end: Optional[float] = None
    ) -> "TimeSeries":
        """Windowed sample count; empty windows yield 0."""
        return windowed_series(
            self.name, window, "count", ((self.times, self.values),),
            start, self._span_end(window, start, end),
        )

    def as_pairs(self) -> List[Tuple[float, float]]:
        """The series as a list of (time, value) tuples."""
        return list(zip(self.times, self.values))


def windowed_series(
    name: str,
    window: float,
    mode: str,
    batches: Iterable[Tuple[Sequence[float], Sequence[float]]],
    start: float,
    end: float,
) -> TimeSeries:
    """Fold ``(times, values)`` column batches into one windowed series.

    The one streaming path from samples to a windowed
    :class:`TimeSeries`: every batch goes through one
    :class:`StreamingWindows` in order, so a caller may hand over a
    whole series as one batch or drain a sample stream in chunks.
    """
    agg = StreamingWindows(window, mode=mode, start=start, end=end)
    for times, values in batches:
        agg.add_many(times, values)
    out = TimeSeries(name)
    out.times, out.values = agg.finish()
    return out


class Monitor:
    """A named collection of :class:`TimeSeries` owned by one component.

    Components call ``monitor.record("queue_len", now, depth)``; the
    analysis layer later pulls the series out by name.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._series: dict[str, TimeSeries] = {}

    def series(self, key: str) -> TimeSeries:
        """Return (creating if needed) the series for ``key``."""
        if key not in self._series:
            self._series[key] = TimeSeries(f"{self.name}.{key}" if self.name else key)
        return self._series[key]

    def record(self, key: str, time: float, value: float) -> None:
        """Append a sample to the series named ``key``."""
        self.series(key).add(time, value)

    def keys(self) -> List[str]:
        """Names of all recorded series."""
        return sorted(self._series)

    def __contains__(self, key: str) -> bool:
        return key in self._series
