"""Dispatch-order equivalence: bucket kernel vs the legacy tuple heap.

The shared-kernel rewrite replaced the ``(time, seq, event)`` heap with
bucketed same-timestamp storage and tombstone cancellation.  Golden
digests pin whole campaigns; these properties pin the engine semantics
directly: for *any* program of schedules, nested schedules,
schedule-at-``now`` calls and cancellations (at build time or
mid-dispatch), the new kernel and the preserved pre-rewrite engine
(``tests/sim/legacy_engine.py``) must dispatch the same callbacks in
the same order at the same clock readings — whether the kernel's one
dispatch loop is driven by ``run`` or one ``step`` at a time, metered
or not.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from tests.sim.legacy_engine import Simulator as LegacySimulator

#: All program times sit on this grid so equal instants are bitwise
#: equal floats (0.125 is exactly representable).
GRID = 0.125

#: One scheduled root event: (frame, behaviour, argument, build-time kill).
_OPS = st.tuples(
    st.integers(min_value=0, max_value=24),
    st.sampled_from(["leaf", "spawn", "spawn_now", "cancel"]),
    st.integers(min_value=0, max_value=7),
    st.booleans(),
)

_PROGRAMS = st.lists(_OPS, min_size=1, max_size=60)

#: How a program is driven: one draining ``run``, a ``run`` to a frame
#: and then a draining one, or ``step()`` until the queue is empty.
_UNTIL_FRAMES = st.one_of(
    st.none(), st.just("step"), st.integers(min_value=0, max_value=30)
)


def _execute(sim, program, until_frame):
    """Run one program and return its observable behaviour.

    ``until_frame`` is one of :data:`_UNTIL_FRAMES`' drivers.

    The interpreter only uses the public engine API, and every decision
    (which handle a ``cancel`` targets, what a ``spawn`` schedules) is a
    deterministic function of dispatch order — so two engines agree on
    the trace iff they dispatch identically.
    """
    fired = []
    handles = []

    def leaf(index):
        fired.append((sim.now, index, "child"))

    def root(index, kind, arg):
        fired.append((sim.now, index, kind))
        if kind == "spawn":
            handles.append(sim.schedule(arg * GRID, leaf, index))
        elif kind == "spawn_now":
            handles.append(sim.schedule_at(sim.now, leaf, index))
        elif kind == "cancel" and handles:
            handles[arg % len(handles)].cancel()

    for index, (frame, kind, arg, kill) in enumerate(program):
        event = sim.schedule_at(frame * GRID, root, index, kind, arg)
        handles.append(event)
        if kill:
            event.cancel()

    boundary_state = None
    if until_frame == "step":
        while sim.step():
            pass
    else:
        if until_frame is not None:
            sim.run(until=until_frame * GRID)
            boundary_state = (sim.now, sim.pending_count())
        sim.run()
    return fired, boundary_state, sim.now, sim.pending_count()


@given(program=_PROGRAMS, until_frame=_UNTIL_FRAMES)
@settings(max_examples=100, deadline=None)
def test_kernel_matches_legacy_engine_for_any_program(program, until_frame):
    new = _execute(Simulator(), program, until_frame)
    legacy = _execute(LegacySimulator(), program, until_frame)
    assert new == legacy
    # Every live event fired: the O(1) live counter drained to zero,
    # exactly like the legacy engine's O(n) heap scan.
    assert new[3] == 0


@given(program=_PROGRAMS, driver=st.sampled_from([None, "step"]))
@settings(max_examples=50, deadline=None)
def test_kernel_instrumented_loop_matches_legacy_engine(program, driver):
    """Instrumented dispatch preserves dispatch order, run- or step-driven."""
    from repro.obs import MetricsRegistry

    sim = Simulator()
    sim.metrics = MetricsRegistry()
    instrumented = _execute(sim, program, driver)
    legacy = _execute(LegacySimulator(), program, None)
    assert instrumented == legacy
    dispatched = sim.metrics.counter("engine.events_dispatched").value
    assert dispatched == len(instrumented[0])
