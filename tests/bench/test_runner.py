"""Unit tests for the repro.bench runner, baselines and comparator."""

import json

import pytest

from repro.bench import (
    REGISTRY,
    BenchResult,
    Scenario,
    baseline_path,
    compare_result,
    load_baseline,
    machine_metadata,
    result_payload,
    run_scenario,
    save_baseline,
)


def _scenario(run_once, **kwargs):
    defaults = dict(repeats=3, warmup=1, tolerance=0.25)
    defaults.update(kwargs)
    return Scenario("toy", "a toy scenario", run_once, **defaults)


def test_runner_warmup_then_repeats():
    calls = []
    scenario = _scenario(lambda: calls.append(len(calls)) or 0.001, repeats=4, warmup=2)
    result = run_scenario(scenario)
    assert len(calls) == 6  # 2 warmup + 4 timed
    assert result.repeats == 4
    assert result.warmup == 2


def test_result_statistics():
    result = BenchResult("toy", [0.3, 0.1, 0.2], warmup=1)
    assert result.median_s == 0.2
    assert result.min_s == 0.1
    assert result.mean_s == pytest.approx(0.2)
    assert result.stdev_s == pytest.approx(0.1)
    assert BenchResult("one", [0.5], warmup=0).stdev_s == 0.0


def test_result_requires_times():
    with pytest.raises(ValueError):
        BenchResult("empty", [], warmup=0)
    scenario = _scenario(lambda: 0.0)
    with pytest.raises(ValueError):
        run_scenario(scenario, repeats=0)


def test_runner_overrides():
    calls = []
    scenario = _scenario(lambda: calls.append(1) or 0.001)
    result = run_scenario(scenario, repeats=1, warmup=0)
    assert len(calls) == 1
    assert result.repeats == 1


def test_baseline_roundtrip(tmp_path):
    scenario = _scenario(lambda: 0.01, reference_median_s=0.03)
    result = BenchResult("toy", [0.01, 0.02, 0.015], warmup=1)
    payload = result_payload(result, scenario)
    assert payload["reference"]["speedup"] == pytest.approx(0.03 / 0.015)
    path = save_baseline(payload, baseline_path("toy", tmp_path))
    assert path.name == "BENCH_toy.json"
    loaded = load_baseline(path)
    assert loaded["result"]["median_s"] == pytest.approx(0.015)
    assert loaded["scenario"] == "toy"
    assert loaded["machine"]["python"] == machine_metadata()["python"]


def _fleet_doc(name, unit, count, median, reference):
    scenario = Scenario(
        name, f"{name} scenario", lambda: median,
        tolerance=0.35, reference_median_s=reference, units=(unit, count),
    )
    return result_payload(BenchResult(name, [median], warmup=1), scenario)


def test_fleet_payload_carries_rates_and_reference():
    events = _fleet_doc("fleet_events", "events", 134400, 0.08, 0.264)
    assert events["units"]["unit"] == "events"
    assert events["units"]["rate_per_s"] == pytest.approx(134400 / 0.08)
    assert events["reference"]["speedup"] == pytest.approx(0.264 / 0.08)
    assert events["reference"]["pre_pr_rate_per_s"] == pytest.approx(134400 / 0.264)
    datacalls = _fleet_doc("fleet_datacalls", "datacalls", 16, 0.33, 0.34)
    assert datacalls["units"]["unit"] == "datacalls"


def test_check_flags_fleet_events_regression():
    """``repro bench --check`` gates fleet throughput like any scenario."""
    committed = _fleet_doc("fleet_events", "events", 134400, 0.08, 0.264)
    slower = BenchResult("fleet_events", [0.2], warmup=1)  # 2.5x slower
    # Regressed at the scenario tolerance and at CI's 3x scale alike.
    assert compare_result(committed, slower, committed["tolerance"]).regressed
    assert compare_result(committed, slower, committed["tolerance"], scale=3.0).regressed
    same = BenchResult("fleet_datacalls", [0.33], warmup=1)
    datacalls = _fleet_doc("fleet_datacalls", "datacalls", 16, 0.33, 0.34)
    assert not compare_result(datacalls, same, datacalls["tolerance"]).regressed
    with pytest.raises(ValueError):
        compare_result(committed, slower, committed["tolerance"], scale=0.0)


def test_committed_fleet_gate_document_is_green():
    """The committed fleet baselines must show the 3x events gate met."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    events = json.loads((root / "BENCH_fleet_events.json").read_text())
    assert events["reference"]["speedup"] >= 3.0
    assert events["units"]["unit"] == "events"
    datacalls = json.loads((root / "BENCH_fleet_datacalls.json").read_text())
    assert datacalls["units"]["unit"] == "datacalls"


def test_load_baseline_missing_and_bad_schema(tmp_path):
    assert load_baseline(tmp_path / "BENCH_nope.json") is None
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps({"schema": 999}))
    with pytest.raises(ValueError):
        load_baseline(bad)


def _baseline_doc(median):
    return {"schema": 1, "scenario": "toy", "result": {"median_s": median}}


def test_comparator_pass_and_regress():
    fresh = BenchResult("toy", [0.012], warmup=0)
    ok = compare_result(_baseline_doc(0.010), fresh, tolerance=0.25)
    assert not ok.regressed
    assert ok.ratio == pytest.approx(1.2)
    bad = compare_result(_baseline_doc(0.010), fresh, tolerance=0.10)
    assert bad.regressed
    assert "REGRESS" in bad.verdict_line()
    assert "PASS" in ok.verdict_line()


def test_comparator_tolerance_scale():
    fresh = BenchResult("toy", [0.020], warmup=0)
    # 2x slower: fails at tolerance 0.25, passes once CI scales it 5x.
    assert compare_result(_baseline_doc(0.010), fresh, 0.25).regressed
    assert not compare_result(_baseline_doc(0.010), fresh, 0.25, scale=5.0).regressed
    with pytest.raises(ValueError):
        compare_result(_baseline_doc(0.010), fresh, 0.25, scale=0.0)


def test_comparator_faster_always_passes():
    fresh = BenchResult("toy", [0.001], warmup=0)
    assert not compare_result(_baseline_doc(0.010), fresh, tolerance=0.0).regressed


def test_registry_contents():
    assert set(REGISTRY) == {
        "engine",
        "engine_cancel",
        "engine_burst",
        "fleet_events",
        "fleet_datacalls",
        "hdlc_encode",
        "hdlc_decode",
        "voip_characterization",
        "cbr_characterization",
        "vsys_rpc",
    }
    for scenario in REGISTRY.values():
        assert scenario.repeats >= 1
        assert scenario.tolerance > 0
    # The engine scenarios record the pre-optimization references the
    # acceptance criteria are measured against.
    assert REGISTRY["engine"].reference_median_s is not None
    assert REGISTRY["fleet_events"].reference_median_s is not None
    # The fleet scenarios are unitful so baselines carry throughput.
    assert REGISTRY["fleet_events"].units[0] == "events"
    assert REGISTRY["fleet_datacalls"].units[0] == "datacalls"


def test_fast_scenarios_produce_positive_times():
    for name in ("engine", "hdlc_encode", "hdlc_decode", "vsys_rpc"):
        result = run_scenario(REGISTRY[name], repeats=1, warmup=0)
        assert result.median_s > 0
