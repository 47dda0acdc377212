"""Tests of the benchmark's own code: generators, self-time arithmetic, normalisation.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from crsim import simcore  # noqa: E402

SEEDS = (0, 1, 7, 12345)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    for seed in SEEDS:
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


@pytest.mark.parametrize("workload", workloads.ENGINE_WORKLOADS)
def test_engine_scenarios_pass_from_dict(workload):
    for seed in SEEDS:
        data = workloads.generate(workload, seed)
        scenario = simcore.Scenario.from_dict(data)
        assert scenario.horizon == data["horizon"]
        assert len(scenario.bands) == len(data["bands"])
        assert len(scenario.sessions) == (1 if workload == "canonical" else 4)


def test_crosscheck_parameters_are_valid_chains():
    from crsim.markov import OccupancyChain

    for seed in SEEDS:
        d = workloads.generate("crosscheck", seed)
        assert d["capacity"] in d["capacities"]
        assert 0 < d["demand"] <= min(d["capacities"])
        OccupancyChain(d["capacity"], d["birth"], d["death"])


def test_job_seeds_are_stable_and_distinct():
    assert workloads.job_seed(3, 0) == workloads.job_seed(3, 0)
    seeds = {workloads.job_seed(3, i) for i in range(1000)}
    assert len(seeds) == 1000


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.now += 3

    def middle():
        clock.now += 5
        w_leaf()
        clock.now += 1
        w_leaf()

    def root():
        clock.now += 10
        w_middle()
        clock.now += 2
        w_leaf()

    w_leaf = tracer.wrap("t.leaf", leaf)
    w_middle = tracer.wrap("t.middle", middle)
    w_root = tracer.wrap("t.root", root)
    w_root()
    w_root()

    assert tracer.calls == {"t.leaf": 6, "t.middle": 2, "t.root": 2}
    assert tracer.self_ns["t.leaf"] == 6 * 3
    assert tracer.self_ns["t.middle"] == 2 * (5 + 1)
    assert tracer.self_ns["t.root"] == 2 * (10 + 2)
    # self times add up to the inclusive time of the top-level calls
    assert sum(tracer.self_ns.values()) == clock.now


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def failing():
        clock.now += 4
        raise RuntimeError("boom")

    def caller():
        clock.now += 1
        with pytest.raises(RuntimeError):
            w_failing()

    w_failing = tracer.wrap("t.failing", failing)
    tracer.wrap("t.caller", caller)()
    assert tracer.self_ns == {"t.failing": 4, "t.caller": 1}


def test_outcome_hits_are_counted():
    tracer = tracing.Tracer(FakeClock())
    wrapped = tracer.wrap("t.f", lambda x: x, lambda r: r is not None)
    for x in (1, None, 2, None, None):
        wrapped(x)
    assert tracer.calls["t.f"] == 5
    assert tracer.hits["t.f"] == 2


def test_normalisation_on_fixed_inputs():
    ref = calibrate.ENGINE_REFERENCE_S
    # slices at the reference speed leave the time unchanged
    assert calibrate.normalise(2.0, ref, ref) == pytest.approx(2.0)
    # a host twice as slow halves the normalised time
    assert calibrate.normalise(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    # the two adjacent slices are averaged
    assert calibrate.normalise(3.0, ref, 2 * ref) == pytest.approx(2.0)
    # set-up samples use the import loop's own reference duration
    assert calibrate.normalise(1.0, 0.3, 0.3, reference_s=0.6) == pytest.approx(2.0)


def test_calibration_work_is_fixed():
    assert calibrate.engine_work(50) == calibrate.engine_work(50)
    assert calibrate.import_work(2) == calibrate.import_work(2) > 0


def test_installed_wrappers_count_and_restore():
    from crsim import spectrum_env
    from crsim.simcore import Engine

    original_step, original_sense = Engine.step, spectrum_env.sense
    tracer = tracing.Tracer()
    scenario = simcore.Scenario.from_dict(dict(workloads.wide64(3), horizon=20))
    plain = simcore.run(scenario, seed=5)
    with tracing.Installed(tracer) as installed:
        traced = simcore.run(scenario, seed=5)
    assert installed.missing == []
    assert traced.trace_hash == plain.trace_hash
    assert tracer.calls["simcore.Engine.step"] == 20
    assert tracer.calls["spectrum_env.sense"] > 0
    assert Engine.step is original_step and spectrum_env.sense is original_sense


def test_missing_functions_are_reported_not_fatal(monkeypatch):
    from crsim import su_fsm

    monkeypatch.delattr(su_fsm, "order_arrivals")
    with tracing.Installed(tracing.Tracer()) as installed:
        pass
    assert "su_fsm.order_arrivals" in installed.missing
    assert "su_fsm.order_arrivals" not in installed.present


def test_blocking_z_uses_replication_spread():
    def rec(blocked):
        return {"metrics": {"blocked": blocked, "arrivals": 100}, "analytic_blocking": 0.5}

    assert jobs.blocking_z([rec(40), rec(60)]) == pytest.approx(0.0)
    # pooled 0.55 against 0.5; replication stdev 0.1 / sqrt(2), so SE 0.05
    assert jobs.blocking_z([rec(50), rec(60)]) == pytest.approx(1.0)


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {"trace.overhead"}
    for name in tracing.traced_names():
        expected |= {f"{name}.calls", f"{name}.self_s"}
    expected |= {f"{name}.{label}" for name, (label, _) in tracing.OUTCOMES.items()}
    expected |= {f"{name}.{label}" for name, (label, _) in run.KERNEL_RATES.items()}
    assert {m["name"] for m in spec["per_layer"]} == expected
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
