"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock and a priority queue of
:class:`Event` objects.  Components schedule callbacks with
:meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the main loop
dispatches them in timestamp order.  Ties are broken by insertion
order, which keeps runs bit-for-bit deterministic.

The heap stores ``(time, seq, event)`` tuples rather than bare
:class:`Event` objects so that every heap sift compares tuples in C
instead of calling a Python-level ``__lt__`` — the single largest cost
in the dispatch loop.  ``seq`` is unique, so two entries never compare
beyond the first two fields and the :class:`Event` objects themselves
are never compared.

:meth:`Simulator.run` has two loops.  The **fast path** runs when
``trace``, ``metrics`` and ``profile`` are all ``None`` (the
observability layer's no-sink contract): no ``time.perf_counter``
pair, no histogram update, no per-event ``peek``/``step`` method-call
round-trip.  Attaching instrumentation *mid-run* from inside a
callback takes effect on the next :meth:`run` call; attach it before
running (as :class:`repro.obs.Observability` does) for per-event
coverage.  Both loops dispatch events in exactly the same order, so
instrumented and uninstrumented runs are bit-for-bit identical.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.errors import ScheduleInPastError

#: Histogram edges for per-event wall-clock dispatch cost (seconds).
DISPATCH_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1)


class Event:
    """A scheduled callback.

    Events are created by the simulator; user code holds them only to
    :meth:`cancel` them.  A cancelled event stays in the heap but is
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., Any], args: Tuple[Any, ...]
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


class Simulator:
    """Single-threaded discrete-event simulator.

    The clock starts at ``0.0`` and only moves forward, driven by the
    timestamps of dispatched events.  Time is measured in **seconds**
    throughout the code base.

    Example::

        sim = Simulator()
        sim.schedule(1.0, print, "one second elapsed")
        sim.run(until=10.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        #: optional :class:`~repro.obs.TraceBus`; components check this
        #: before emitting, so ``None`` keeps the stack uninstrumented.
        self.trace: Optional[Any] = None
        #: optional :class:`~repro.obs.MetricsRegistry` (same contract).
        self.metrics: Optional[Any] = None
        #: optional :class:`~repro.obs.SimProfiler` fed once per dispatch
        #: (same zero-cost-when-``None`` contract as ``metrics``).
        self.profile: Optional[Any] = None
        #: optional :class:`~repro.faults.FaultRegistry`; injection
        #: points check this before consulting fault plans, so ``None``
        #: keeps unfaulted runs bit-identical.
        self.faults: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled.  A negative
        (or NaN) delay raises :class:`ScheduleInPastError`.
        """
        if not delay >= 0:  # rejects negatives and NaN in one comparison
            raise ScheduleInPastError(f"negative delay {delay!r}")
        when = self._now + delay
        event = Event(when, seq := next(self._seq), callback, args)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the absolute time ``time``.

        A time earlier than the clock — or NaN, which would silently
        corrupt the heap ordering — raises :class:`ScheduleInPastError`.
        """
        if not time >= self._now:
            if math.isnan(time):
                raise ScheduleInPastError(f"cannot schedule at NaN time {time!r}")
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}; clock already at {self._now!r}"
            )
        event = Event(time, seq := next(self._seq), callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def stop(self) -> None:
        """Make :meth:`run` return after the event being dispatched."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Dispatch the next event.  Returns ``False`` if none remained."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            when, _seq, event = pop(heap)
            if event.cancelled:
                continue
            self._now = when
            if self.metrics is None and self.profile is None:
                event.callback(*event.args)
            else:
                self._dispatch_instrumented(event)
            return True
        return False

    def _dispatch_instrumented(self, event: Event) -> None:
        """Dispatch one event under timing/metrics instrumentation."""
        start = time.perf_counter()
        event.callback(*event.args)
        elapsed = time.perf_counter() - start
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("engine.events_dispatched").inc()
            metrics.histogram("engine.dispatch_wall_seconds", DISPATCH_BUCKETS).observe(
                elapsed
            )
            metrics.gauge("engine.queue_depth").set(len(self._heap))
        profile = self.profile
        if profile is not None:
            profile.record_typed(profile.register_type(event.callback), self._now, elapsed)

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        With ``until=None`` the loop drains the queue completely.  With a
        deadline, events strictly after ``until`` are left pending and
        the clock is advanced exactly to ``until``.  Returns the final
        clock value.

        When ``trace``, ``metrics`` and ``profile`` are all ``None``
        a tight fast path is used; dispatch order is
        identical either way.
        """
        self._running = True
        self._stopped = False
        try:
            if (
                self.trace is None
                and self.metrics is None
                and self.profile is None
            ):
                self._run_fast(until)
            else:
                self._run_instrumented(until)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def _run_fast(self, until: Optional[float]) -> None:
        """Uninstrumented loop: locals hoisted, one heap pop per event."""
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            until = math.inf
        while heap and not self._stopped:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                pop(heap)
                continue
            when = head[0]
            if when > until:
                break
            pop(heap)
            self._now = when
            event.callback(*event.args)

    def _run_instrumented(self, until: Optional[float]) -> None:
        """Original peek/step loop, used whenever instrumentation is attached."""
        while not self._stopped:
            next_time = self.peek()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step()

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued (O(n))."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)
