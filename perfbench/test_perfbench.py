"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from twoinf import estimators  # noqa: E402

TINY = {
    "gap_square": partial(workloads.gap_square, size=24, budgets=(10, 50), accuracy_trials=3),
    "recovery_bound": partial(workloads.recovery_bound, size=12, accuracy_trials=3),
    "tall_deflate": partial(workloads.tall_deflate, rows=60, cols=5, budgets=(25, 61),
                            accuracy_trials=3),
}
DETERMINISTIC = ("mean_rel_error", "exact_frac", "failed_frac")


@pytest.mark.parametrize("name", sorted(TINY))
def test_deterministic_metrics_repeat_for_a_seed(name):
    first, _, gate = harness.run_timed(TINY[name], seed=3, seconds=0)
    second, _, _ = harness.run_timed(TINY[name], seed=3, seconds=0)
    assert gate.correct, gate.problems
    assert first["failed_frac"] == 0.0
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_is_bit_identical_and_counts_the_cost_model(name):
    metrics, details, gate, spans = harness.run_traced(TINY[name], seed=5, seconds=0)
    again, _, _, _ = harness.run_traced(TINY[name], seed=5, seconds=0)
    assert gate.correct, gate.problems  # includes traced == untraced, products == matvecs
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["oplib.products"] > 0
    assert metrics["oplib.cols_per_call"] == 1.0
    for key in ("oplib.products", "bench.estimator_calls"):
        assert metrics[key] == again[key]
    expected_bench_calls = {"gap_square": 8, "recovery_bound": 1, "tall_deflate": 0}[name]
    assert metrics["bench.estimator_calls"] == expected_bench_calls
    assert len(spans.spans()) > 0


def test_tracer_restores_every_patched_entry_point():
    before = {name: getattr(estimators, name) for name in ("dual_vector", "exact_two_to_inf")}
    methods = dict(estimators.METHODS)
    apply = workloads.oplib.DenseMatrix.__dict__["_apply"]
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            assert estimators.METHODS["twinest"] is not methods["twinest"]
            raise RuntimeError
    assert estimators.METHODS == methods
    assert workloads.oplib.DenseMatrix.__dict__["_apply"] is apply
    assert {name: getattr(estimators, name) for name in before} == before


def test_self_time_subtracts_children():
    spans = tracer.np.array(
        [(0, 0, 0, 100, -1, 0, 1), (1, 0, 10, 40, 0, 0, 1), (2, 0, 50, 60, 0, 0, 1),
         (3, 0, 12, 20, 1, 0, 1)], dtype=tracer.SPAN_DTYPE)
    assert list(tracer.self_times(spans)) == [60, 22, 10, 8]


def _overshooting(fn):
    def bad(a, m, rng):
        est = fn(a, m, rng)
        return dataclasses.replace(est, value=est.value * 1.01)
    return bad


def _miscounting(fn):
    def bad(a, m, rng):
        est = fn(a, m, rng)
        return dataclasses.replace(est, matvecs_used=est.matvecs_used + 1)
    return bad


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("fault", [_overshooting, _miscounting])
def test_injected_fault_raises_failed_frac(monkeypatch, name, fault):
    monkeypatch.setitem(estimators.METHODS, "twinest", fault(estimators.METHODS["twinest"]))
    metrics, _, gate = harness.run_timed(TINY[name], seed=1, seconds=0)
    assert metrics["failed_frac"] > 0
    assert not gate.correct


def test_gate_checks_the_operator_counter():
    inst = TINY["tall_deflate"](0)
    call = inst.trial(0)[0]
    assert workloads.check(inst, call) is None
    assert "counted" in workloads.check(inst, dataclasses.replace(call, counted=call.matvecs + 2))


def test_tail_has_ten_trials_beyond_it():
    level, value = harness.tail([float(i) for i in range(1, 101)])
    assert (level, value) == (90.0, 90.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap_square", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
