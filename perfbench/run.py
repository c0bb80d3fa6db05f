"""End-to-end benchmark of the UMTS-on-PlanetLab reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper_voip --seed 3 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics: it times the set-up in
fresh processes, then runs iterations of the workload, unmodified, for
``--seconds`` and checks every iteration's outputs.  ``--trace 1`` runs
one plain iteration, one with a metrics registry attached (for the
engine's event count) and one with the layer wrappers of ``layers.py``
installed around it only, and reports the per-layer metrics; its spans
are written under ``.perfbench-out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Everything runs in this one process and thread (the set-up probes are
short-lived child processes, run one at a time and waited for).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

#: end-to-end metric → unit, as in BENCHMARK.json.
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "datacalls_per_s": "1/s",
    "sessions_per_s": "1/s",
}


def _use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, SRC)


def _probe_setup(workload: Any, seed: int) -> float:
    """Imports, inputs and testbed construction, in this (fresh) process.

    The workload modules import ``repro`` lazily, so the imports the
    workload needs happen inside the timed region.
    """
    start = time.perf_counter()
    workload.setup(workload.inputs(seed))
    return time.perf_counter() - start


def _setup_samples(workload: str, seed: int) -> List[float]:
    command = [sys.executable, os.path.abspath(__file__), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Checker:
    """Checks each iteration's digests against the expected ones."""

    def __init__(self, expected: Optional[Dict[str, str]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, outcome: Any) -> None:
        if self.expected is None:  # no golden values: the first iteration is the reference
            self.expected = dict(outcome.digests)
        self.attempted += outcome.attempted + len(self.expected)
        self.failed += outcome.failed
        self.failures.extend(outcome.failures)
        for label, digest in sorted(self.expected.items()):
            if outcome.digests.get(label) != digest:
                self.failed += 1
                self.failures.append(f"digest mismatch: {label}")


def _timed(body: Any) -> Tuple[Any, float]:
    start = time.perf_counter()
    result = body()
    return result, time.perf_counter() - start


def _percentile(sorted_values: List[float], share: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(share * len(sorted_values)))]


def measure(workload: Any, seed: int, seconds: float) -> Tuple[Checker, Dict[str, float]]:
    """The untraced run: set-up probes, then iterations for ``seconds``."""
    setup = _setup_samples(workload.name, seed)
    inputs = workload.inputs(seed)
    checker = Checker(workload.expected_digests(seed))
    outcomes, walls = [], []
    started = time.perf_counter()
    while True:
        outcome, wall = _timed(lambda: workload.iteration(inputs))
        checker.check(outcome)
        outcomes.append(outcome)
        walls.append(wall)
        if len(walls) == 1:
            # Read once, after one iteration, so the figure does not
            # depend on how many iterations fit in the window.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Start another iteration only if it should end inside the window.
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            break

    def rate(count: str) -> float:
        return statistics.median(getattr(o, count) / w for o, w in zip(outcomes, walls))

    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - checker.failed / checker.attempted,
        "datacalls_per_s": rate("datacalls"),
        "sessions_per_s": rate("sessions"),
    }
    _report(workload.name, metrics, END_TO_END_UNITS)
    extra = {"iterations": (len(walls), "count"),
             "fail_ratio": (checker.failed / checker.attempted, "ratio")}
    if outcomes[0].packets:
        extra["packets_per_s"] = (rate("packets"), "1/s")
    commands = sorted(s for o in outcomes for s in o.command_s)
    if commands:
        extra["command_p50_ms"] = (_percentile(commands, 0.50) * 1e3, "ms")
        extra["command_p99_ms"] = (_percentile(commands, 0.99) * 1e3, "ms")
        extra["command_samples"] = (len(commands), "count")
    _report(workload.name, {k: v for k, (v, _) in extra.items()},
            {k: unit for k, (_, unit) in extra.items()})
    return checker, metrics


def trace(workload: Any, seed: int) -> Tuple[Checker, Dict[str, float]]:
    """The per-layer breakdown: an untraced, a metered and a traced iteration.

    The engine's event count comes from a ``MetricsRegistry`` attached
    in an iteration of its own, so the registry's cost is not billed to
    any layer's self time in the traced iteration.
    """
    import layers
    from repro.obs.metrics import MetricsRegistry

    inputs = workload.inputs(seed)
    checker = Checker(workload.expected_digests(seed))
    outcome, untraced_wall = _timed(lambda: workload.iteration(inputs))
    checker.check(outcome)
    registry = MetricsRegistry()
    checker.check(workload.iteration(inputs, metrics=registry))

    tracer = layers.build_tracer()
    tracer.calibrate()
    tracer.install()
    for missing in tracer.missing:
        print(f"perfbench: hook not installed: {missing}", file=sys.stderr)
    try:
        outcome, traced_wall = _timed(lambda: tracer.run_root(
            lambda: workload.iteration(inputs)))
    finally:
        tracer.uninstall()
    # The traced outputs must equal the untraced ones: tracing changes nothing.
    checker.check(outcome)

    events = registry.get("engine.events_dispatched")
    metrics = layers.layer_metrics(tracer, 0 if events is None else events.value)
    metrics["fleet.datacall_useful_ratio"] = (
        outcome.datacalls / outcome.datacall_attempts if outcome.datacall_attempts else 0.0)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics = {name: metrics[name] for name in layers.PER_LAYER_UNITS}
    _report(workload.name, metrics, layers.PER_LAYER_UNITS)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{seed}.tsv.gz")
    tracer.write_spans(spans)
    print(f"{workload.name}: {tracer.span_count} spans written to {spans} "
          f"({tracer.spans_dropped} over the in-memory cap)")
    return checker, metrics


def _report(workload: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"{workload:14s} {name:30s} {value:16.6f} {units[name]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.probe_setup:
        print(repr(_probe_setup(workload, args.seed)))
        return 0

    if args.trace:
        import layers

        checker, metrics = trace(workload, args.seed)
        units = layers.PER_LAYER_UNITS
    else:
        checker, metrics = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    for failure in checker.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
