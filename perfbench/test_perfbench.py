"""Tests of the benchmark's tracer and output checks.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
The workloads run here at reduced size (short paper runs, a 4-node
fleet group, a handful of sessions) so the suite stays quick.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _small_inputs(name):
    workload = workloads.WORKLOADS[name]
    if name.startswith("paper_"):
        return {"seed": SEED, "duration": 5.0}
    if name == "fleet_group":
        from repro.fleet.spec import FleetSpec

        return FleetSpec(nodes=4, group_size=4, duration=1.0, stagger=4.0, drain=1.0,
                         seed=SEED)
    inputs = workload.inputs(SEED)
    return {"seed": SEED, "sessions": inputs["sessions"][:5]}


def _traced(name, inputs):
    tracer = layers.build_tracer()
    tracer.calibrate(2000)
    tracer.install()
    try:
        outcome = tracer.run_root(
            lambda: workloads.WORKLOADS[name].iteration(inputs))
    finally:
        tracer.uninstall()
    return tracer, outcome


def _function_table():
    """Every function reachable as a module or class attribute of ``repro``."""
    table = {}
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for name, value in vars(module).items():
            table[(module_name, name)] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for attr, member in vars(value).items():
                    table[(module_name, name, attr)] = member
    return table


def test_golden_digests_equal_the_determinism_test():
    from tests.bench.test_determinism import GOLDEN_DIGESTS

    assert workloads.GOLDEN_DIGESTS == dict(GOLDEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_leaves_every_digest_unchanged(name):
    inputs = _small_inputs(name)
    plain = workloads.WORKLOADS[name].iteration(inputs)
    tracer, traced = _traced(name, inputs)
    assert plain.failed == traced.failed == 0
    assert plain.digests and traced.digests == plain.digests
    assert tracer.span_count > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deterministic_counts_repeat_across_traced_runs(name):
    from repro.obs.metrics import MetricsRegistry

    inputs = _small_inputs(name)
    runs = []
    for _ in range(2):
        registry = MetricsRegistry()
        workloads.WORKLOADS[name].iteration(inputs, metrics=registry)
        tracer, _ = _traced(name, inputs)
        values = layers.layer_metrics(
            tracer, registry.get("engine.events_dispatched").value)
        runs.append({key: values[key] for key in layers.DETERMINISTIC_COUNTS})
    assert runs[0] == runs[1]
    assert runs[0]["sim.events"] > 0


def test_uninstall_restores_every_function_even_after_a_failure():
    layers.build_tracer()  # imports every hooked module first
    before = _function_table()
    tracer = layers.build_tracer()
    tracer.install()
    wrapped = tracer.patched_locations()
    assert len(wrapped) >= sum(len(hooks) for hooks in layers.HOOKS.values())
    assert all(getattr(holder, name) is not fn for holder, name, fn in wrapped)

    def crash():
        workloads.WORKLOADS["umts_sessions"].iteration(_small_inputs("umts_sessions"))
        raise RuntimeError("workload crashed")

    with pytest.raises(RuntimeError, match="workload crashed"):
        tracer.run_root(crash)
    tracer.uninstall()
    after = _function_table()
    assert set(after) == set(before)
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_a_missing_hook_is_reported_and_the_rest_still_traced():
    tracer = layers.build_tracer()
    tracer.add_site("net", "repro.net.stack:IPStack.no_such_method")
    tracer.install()
    try:
        tracer.run_root(lambda: workloads.WORKLOADS["umts_sessions"].iteration(
            _small_inputs("umts_sessions")))
    finally:
        tracer.uninstall()
    assert len(tracer.missing) == 1 and "no_such_method" in tracer.missing[0]
    values = layers.layer_metrics(tracer, events=1)
    assert values["trace.hooks_missing"] == 1
    assert values["vsys.calls"] == 55


def test_a_failing_install_leaves_nothing_wrapped():
    layers.build_tracer()
    before = _function_table()
    tracer = layers.build_tracer()
    tracer.add_site("net", "repro.net.stack:IPStack.send")  # wrapped twice: refused
    tracer._wrap = _refuse_second_wrap(tracer._wrap)
    with pytest.raises(RuntimeError, match="second wrap"):
        tracer.install()
    assert tracer.patched_locations() == []
    after = _function_table()
    assert all(after[key] is before[key] for key in before)


def _refuse_second_wrap(wrap):
    seen = set()

    def checked(site, fn):
        if site.target in seen:
            raise RuntimeError("second wrap")
        seen.add(site.target)
        return wrap(site, fn)
    return checked


def test_self_times_sum_to_the_root_span():
    tracer, _ = _traced("paper_voip", _small_inputs("paper_voip"))
    values = layers.layer_metrics(tracer, events=1)
    total = (sum(tracer.self_by_layer().values()) + tracer.overhead_in_root_s
             + tracer.root_self_s)
    assert total == pytest.approx(tracer.root_s, rel=1e-9)
    assert values["trace.accounting_error"] < 1e-9
    assert values["net.self_s"] > 0 and values["netfilter.self_s"] > 0


def test_spans_carry_packet_and_command_ids():
    tracer, _ = _traced("umts_sessions", _small_inputs("umts_sessions"))
    ids = set(tracer._ids)
    commands = {i for i in ids if i < 0}
    # 5 sessions of 11 commands, each its own id shared by all its spans.
    assert len(commands) == 55
    tracer, _ = _traced("paper_voip", _small_inputs("paper_voip"))
    assert any(i > 0 for i in tracer._ids)


def test_span_cap_bounds_memory_but_not_accounting():
    tracer = layers.build_tracer(span_cap=100)
    tracer.install()
    try:
        tracer.run_root(lambda: workloads.WORKLOADS["paper_voip"].iteration(
            _small_inputs("paper_voip")))
    finally:
        tracer.uninstall()
    assert tracer.span_count == 100 and tracer.spans_dropped > 0
    assert layers.layer_metrics(tracer, events=1)["trace.accounting_error"] < 1e-9


def test_generator_wrapper_behaves_like_the_generator():
    def body(log):
        try:
            got = yield "first"
            log.append(got)
            try:
                yield "second"
            except ValueError as exc:
                log.append(f"caught {exc}")
            yield "third"
        finally:
            log.append("closed")
        return "done"

    def drive(gen_fn):
        log = []
        gen = gen_fn(log)
        steps = [next(gen), gen.send("hello"), gen.throw(ValueError("boom"))]
        with pytest.raises(StopIteration) as stop:
            next(gen)
        closing = gen_fn(log)
        next(closing)
        closing.close()
        return steps, stop.value.value, log

    tracer = tracer_mod.Tracer(int, "no-module")
    site = tracer.add_site("test", "body")
    wrapped = tracer._wrap(site, body)
    expected = drive(body)
    traced = tracer.run_root(lambda: drive(wrapped))
    assert traced == expected
    assert site.calls == 5  # one span per resumption; close() runs no step


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    import json

    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
