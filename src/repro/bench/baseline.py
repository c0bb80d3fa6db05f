"""Baseline persistence: ``BENCH_<scenario>.json`` files at repo root.

A baseline records one :class:`~repro.bench.runner.BenchResult`
alongside the machine/Python metadata it was measured on, the
scenario's regression tolerance, and — when the scenario has a pre-PR
reference median — the achieved speedup.  ``repro bench
--update-baselines`` writes them; ``repro bench --check`` compares
fresh runs against them.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.bench.runner import BenchResult, Scenario

SCHEMA_VERSION = 1

PathLike = Union[str, Path]

def baseline_path(name: str, root: PathLike = ".") -> Path:
    """Where scenario ``name``'s baseline lives under ``root``."""
    return Path(root) / f"BENCH_{name}.json"


def machine_metadata() -> Dict[str, str]:
    """The environment a measurement was taken in."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": sys.executable,
    }


def result_payload(result: BenchResult, scenario: Scenario) -> Dict[str, Any]:
    """The full JSON document for one measurement."""
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario.name,
        "description": scenario.description,
        "tolerance": scenario.tolerance,
        "result": result.to_dict(),
        "machine": machine_metadata(),
        # lint: allow(wall-clock) -- provenance metadata, never read by simulation
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if scenario.units is not None:
        unit, count = scenario.units
        payload["units"] = {
            "unit": unit,
            "per_iteration": count,
            "rate_per_s": scenario.rate_per_s(result.median_s),
        }
    if scenario.reference_median_s is not None:
        payload["reference"] = {
            "pre_pr_median_s": scenario.reference_median_s,
            "speedup": scenario.reference_median_s / result.median_s,
        }
        if scenario.units is not None:
            payload["reference"]["pre_pr_rate_per_s"] = (
                scenario.rate_per_s(scenario.reference_median_s)
            )
    return payload


def save_baseline(payload: Dict[str, Any], path: PathLike) -> Path:
    """Write one payload as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def load_baseline(path: PathLike) -> Optional[Dict[str, Any]]:
    """Read a baseline document, or ``None`` if the file is absent."""
    path = Path(path)
    if not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: baseline schema {data.get('schema')!r} != {SCHEMA_VERSION}"
        )
    return data
