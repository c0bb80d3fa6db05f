"""repro.bench — reproducible hot-path benchmarks with CI gating.

The subsystem has four pieces:

- :mod:`repro.bench.runner` — :class:`Scenario`, :class:`BenchResult`,
  and :func:`run_scenario` (warmup + repeated timed runs,
  min/median/stdev);
- :mod:`repro.bench.scenarios` — the registry of hot paths (engine
  dispatch, HDLC encode/decode, the full VoIP/CBR characterization
  runs, vsys RPC round-trips);
- :mod:`repro.bench.baseline` — ``BENCH_<scenario>.json`` persistence
  with machine/Python metadata and recorded speedups;
- :mod:`repro.bench.compare` — the per-scenario-tolerance regression
  comparator CI runs via ``repro bench --check``.  It is the one bench
  gate: the fleet throughput scenarios (``fleet_events``,
  ``fleet_datacalls``) are checked against their own
  ``BENCH_<scenario>.json`` like every other scenario.

Quick start::

    python -m repro bench --list
    python -m repro bench --scenario engine_dispatch
    python -m repro bench --update-baselines     # refresh BENCH_*.json
    python -m repro bench --check                # exit 1 on regression

:mod:`repro.bench.determinism` provides the output digests proving the
optimizations the benches measure never changed simulated results.
"""

from __future__ import annotations

from repro.bench.baseline import (
    SCHEMA_VERSION,
    baseline_path,
    load_baseline,
    machine_metadata,
    result_payload,
    save_baseline,
)
from repro.bench.compare import Comparison, compare_result
from repro.bench.determinism import characterization_digest, run_digest
from repro.bench.runner import BenchResult, Scenario, run_scenario, time_once
from repro.bench.scenarios import (
    BENCH_DURATION,
    BENCH_SEED,
    REGISTRY,
    build_registry,
    characterization_pair,
)

__all__ = [
    "BENCH_DURATION",
    "BENCH_SEED",
    "BenchResult",
    "Comparison",
    "REGISTRY",
    "SCHEMA_VERSION",
    "Scenario",
    "baseline_path",
    "build_registry",
    "characterization_digest",
    "characterization_pair",
    "compare_result",
    "load_baseline",
    "machine_metadata",
    "result_payload",
    "run_digest",
    "run_scenario",
    "save_baseline",
    "time_once",
]
