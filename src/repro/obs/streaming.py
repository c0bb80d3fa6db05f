"""Online, constant-memory aggregation for campaign-scale telemetry.

The analysis layer historically buffered a whole run's samples (one
``List[List[float]]`` bucket table per windowed series) before
aggregating.  That is fine for one 120 s characterization and hopeless
for fleet-scale campaigns holding millions of samples.  Everything in
this module consumes samples **one at a time, in time order**, and
keeps only O(1) state per open aggregate:

- :class:`StreamingWindows` — the paper's non-overlapping 200 ms QoS
  windows (mean/sum/count/max/min), computed online.  Fed the same
  samples in the same order, it reproduces
  :meth:`~repro.sim.monitor.TimeSeries.window_average` and friends
  bit-for-bit (same left-to-right float accumulation), which is what
  lets the decoder swap it in without moving a golden digest.
- :class:`StreamingStats` — running count/sum/min/max plus Welford
  variance for whole-run summaries without a sample list.
- :class:`P2Quantile` / :class:`QuantileSketch` — the P² algorithm
  (Jain & Chlamtac 1985): a five-marker streaming quantile estimate,
  deterministic for a given sample sequence, no sample retention.

Nothing here imports the simulator; the engine (or a decoder walking
recorded logs) just feeds samples in.  Each aggregator has one fold:
``StreamingWindows.add_many`` and ``StreamingStats.observe_many`` take
a whole column batch — parallel lists or ``array('d')`` sample
columns — with the accumulator state held in locals, and the
one-sample ``add``/``observe`` calls are one-element batches of it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

#: The paper's reporting granularity (§3.1): 200 ms windows.
QOS_WINDOW = 0.2

#: Aggregation modes StreamingWindows understands.
WINDOW_MODES = ("mean", "sum", "count", "max", "min")


class StreamingWindows:
    """Non-overlapping window aggregation, one sample at a time.

    Samples must arrive with non-decreasing timestamps.  Only the open
    window's accumulator (count, running sum, extremes) is held; when a
    sample crosses a window edge the finished window's aggregate is
    appended to the output arrays and the accumulator resets — constant
    memory beyond the output itself.

    ``end`` (known up front, or passed to :meth:`finish`) fixes the
    window count exactly like ``TimeSeries.window_aggregate``: samples
    at or past ``end`` are dropped, and the last window absorbs any
    index overflow from float division at the edge.
    """

    __slots__ = (
        "window", "mode", "start", "empty_value", "end",
        "times", "values",
        "_open_index", "_count", "_total", "_min", "_max", "_closed",
    )

    def __init__(
        self,
        window: float = QOS_WINDOW,
        mode: str = "mean",
        start: float = 0.0,
        end: Optional[float] = None,
        empty_value: Optional[float] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if mode not in WINDOW_MODES:
            raise ValueError(f"unknown mode {mode!r} (known: {', '.join(WINDOW_MODES)})")
        self.window = window
        self.mode = mode
        self.start = start
        self.end = end
        if empty_value is None:
            empty_value = 0.0 if mode in ("sum", "count") else math.nan
        self.empty_value = empty_value
        self.times: List[float] = []
        self.values: List[float] = []
        self._open_index = 0
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._closed = False

    def _n_windows(self, end: float) -> int:
        return max(0, int(math.ceil((end - self.start) / self.window)))

    def _aggregate(self) -> float:
        if self._count == 0:
            return self.empty_value
        if self.mode == "mean":
            return self._total / self._count
        if self.mode == "sum":
            return self._total
        if self.mode == "count":
            return float(self._count)
        if self.mode == "max":
            return self._max
        return self._min

    def _close_through(self, index: int) -> None:
        """Emit every window before ``index`` (gaps get the empty value)."""
        while self._open_index < index:
            self.times.append(self.start + self._open_index * self.window)
            self.values.append(self._aggregate())
            self._open_index += 1
            self._count = 0
            self._total = 0.0
            self._min = math.inf
            self._max = -math.inf

    def add(self, t: float, value: float) -> None:
        """Fold one sample in.  Timestamps must be non-decreasing."""
        self.add_many((t,), (value,))

    def add_many(self, times: Sequence[float], values: Sequence[float]) -> None:
        """Fold a whole column batch in: the one window fold.

        ``times`` and ``values`` are parallel sequences — plain lists or
        ``array('d')`` columns both work.  The accumulator state lives
        in locals for the duration of the batch (one attribute load per
        batch instead of several per sample), and every float is folded
        in strictly left to right, so any split of a sample stream into
        batches gives the same window aggregates — and the golden
        digests built from them.  Samples before ``start`` or at/after
        ``end`` are dropped; a sample for an already-closed window
        raises ``ValueError`` and leaves the aggregator as it was
        before that sample.
        """
        if self._closed:
            raise ValueError("cannot add to a finished StreamingWindows")
        start = self.start
        window = self.window
        end = self.end
        n_windows = self._n_windows(end) if end is not None else 0
        open_index = self._open_index
        count = self._count
        total = self._total
        vmin = self._min
        vmax = self._max
        for t, value in zip(times, values):
            if t < start:
                continue
            if end is not None:
                if t >= end:
                    continue
                index = int((t - start) / window)
                if index >= n_windows:
                    index = n_windows - 1
            else:
                index = int((t - start) / window)
            if index != open_index:
                # Window edge crossed (or a late sample): flush locals,
                # then emit through the shared close path and resume
                # with a fresh accumulator.
                self._count = count
                self._total = total
                self._min = vmin
                self._max = vmax
                if index < open_index:
                    raise ValueError(
                        f"sample at {t!r} belongs to window {index}, already "
                        f"closed (open window is {open_index})"
                    )
                self._close_through(index)
                open_index = self._open_index
                count = 0
                total = 0.0
                vmin = math.inf
                vmax = -math.inf
            count += 1
            total += value
            if value > vmax:
                vmax = value
            if value < vmin:
                vmin = value
        self._count = count
        self._total = total
        self._min = vmin
        self._max = vmax

    def finish(self, end: Optional[float] = None) -> Tuple[List[float], List[float]]:
        """Close the open window, pad to ``end``, return (times, values).

        Idempotent; after finishing, :meth:`add` raises.  With no
        ``end`` anywhere, the output stops after the last fed window.
        """
        if not self._closed:
            if end is not None and self.end is None:
                self.end = end
            final_end = self.end
            if final_end is None:
                final_end = self.start + (self._open_index + 1) * self.window \
                    if (self._count or self.times) else self.start
            self._close_through(self._n_windows(final_end))
            self._closed = True
        return self.times, self.values

    def __len__(self) -> int:
        return len(self.times)


class StreamingStats:
    """Running summary statistics: count, sum, extremes, Welford variance.

    ``mean`` is ``sum / count`` (left-to-right accumulation), so a
    StreamingStats fed a list reproduces ``sum(xs) / len(xs)`` exactly.
    NaN samples are skipped, mirroring :mod:`repro.analysis.stats`.
    """

    __slots__ = ("count", "total", "min_value", "max_value", "_welford_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self._welford_mean = 0.0
        self._m2 = 0.0

    def observe(self, value: float) -> None:
        """Fold one sample in (NaN is skipped)."""
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a batch in: the one Welford fold (NaN is skipped).

        Accepts any sequence — a list or an ``array('d')`` column — and
        runs the update with all state in locals, one attribute load
        per batch.  Samples fold strictly left to right, so any split
        of a stream into batches gives byte-identical summaries.
        """
        count = self.count
        total = self.total
        vmin = self.min_value
        vmax = self.max_value
        wmean = self._welford_mean
        m2 = self._m2
        for value in values:
            if value != value:
                continue
            count += 1
            total += value
            if value < vmin:
                vmin = value
            if value > vmax:
                vmax = value
            delta = value - wmean
            wmean += delta / count
            m2 += delta * (value - wmean)
        self.count = count
        self.total = total
        self.min_value = vmin
        self.max_value = vmax
        self._welford_mean = wmean
        self._m2 = m2

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return self.total / self.count

    @property
    def stdev(self) -> float:
        """Population standard deviation (NaN when empty)."""
        if self.count == 0:
            return math.nan
        return math.sqrt(self._m2 / self.count)

    @property
    def minimum(self) -> float:
        """Smallest sample (NaN when empty)."""
        return self.min_value if self.count else math.nan

    @property
    def maximum(self) -> float:
        """Largest sample (NaN when empty)."""
        return self.max_value if self.count else math.nan

    def as_dict(self) -> Dict[str, float]:
        """Exportable snapshot."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
        }


class P2Quantile:
    """The P² single-quantile estimator (Jain & Chlamtac, 1985).

    Five markers track the running quantile with piecewise-parabolic
    height adjustment: O(1) memory, O(1) per sample, and — crucially
    for the campaign digests — a pure function of the sample sequence.
    Until five samples arrive the exact order statistic is returned.
    """

    __slots__ = ("q", "_heights", "_positions", "_desired", "_increments", "count")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q!r}")
        self.q = q
        self._heights: List[float] = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
        self.count = 0

    def observe(self, value: float) -> None:
        """Fold one sample in (NaN is skipped; it has no rank)."""
        if value != value:
            return
        self.count += 1
        heights = self._heights
        if len(heights) < 5:
            heights.append(value)
            heights.sort()
            return
        positions = self._positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        desired = self._desired
        for i in range(5):
            desired[i] += self._increments[i]
        for i in (1, 2, 3):
            delta = desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """The current quantile estimate (NaN before any sample)."""
        heights = self._heights
        if not heights:
            return math.nan
        if len(heights) < 5:
            # Exact order statistic while the marker set is filling.
            rank = self.q * (len(heights) - 1)
            low = int(math.floor(rank))
            high = int(math.ceil(rank))
            if low == high:
                return heights[low]
            fraction = rank - low
            return heights[low] + fraction * (heights[high] - heights[low])
        return heights[2]


class QuantileSketch:
    """A bank of :class:`P2Quantile` markers over one latency stream.

    The default quantiles are the ones the report CLI prints for dial
    and traffic latencies (median, tail, extreme tail).
    """

    DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)

    __slots__ = ("name", "quantiles", "_estimators", "stats")

    def __init__(
        self, name: str = "", quantiles: Sequence[float] = DEFAULT_QUANTILES
    ) -> None:
        if not quantiles:
            raise ValueError("need at least one quantile")
        self.name = name
        self.quantiles = tuple(quantiles)
        self._estimators = [P2Quantile(q) for q in self.quantiles]
        self.stats = StreamingStats()

    def observe(self, value: float) -> None:
        """Fold one sample into every estimator."""
        self.stats.observe(value)
        for estimator in self._estimators:
            estimator.observe(value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a batch into every estimator (needs a real sequence,
        not a one-shot iterator — it is walked once per estimator).

        Each estimator consumes the batch independently, so the final
        state is identical to calling :meth:`observe` per sample: the
        markers never interact across estimators.
        """
        self.stats.observe_many(values)
        for estimator in self._estimators:
            observe = estimator.observe
            for value in values:
                observe(value)

    @property
    def count(self) -> int:
        """Samples observed so far."""
        return self.stats.count

    def quantile(self, q: float) -> float:
        """The estimate for a configured quantile ``q``."""
        for want, estimator in zip(self.quantiles, self._estimators):
            if want == q:
                return estimator.value
        raise KeyError(f"quantile {q!r} not tracked (have {self.quantiles!r})")

    def as_dict(self) -> Dict[str, float]:
        """Exportable snapshot: count/mean/extremes plus every quantile."""
        out = self.stats.as_dict()
        for q, estimator in zip(self.quantiles, self._estimators):
            out[f"p{round(q * 100):02d}"] = estimator.value
        return out
