"""The three seeded workloads and the correctness gate for every estimator call.

A workload's set-up builds an :class:`Instance`: the matrix, its exact
row and column norms, and a ``trial(k)`` function that makes the fixed
set of estimator calls for trial ``k``.  Trial ``k`` draws its probes from
``trial_seed(seed, k)``, so a workload seed fixes every input.

Every call goes through the public API of ``twoinf`` by module attribute
(``bench.run_bench``, ``estimators.METHODS[...]``), so that the tracer in
``tracer.py`` sees the same calls when it patches those attributes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from twoinf import bench, estimators, oplib, sketch, synthetic

# Relative tolerance for "equals the exact norm" and "equals some row norm".
# The estimators measure a row with a transpose product and np.linalg.norm,
# the oracle with an einsum, so the two may differ in the last bits.
EXACT_RTOL = 1e-12

ROW_SELECTING = ("twinest", "twinest_pp")

GAP_BUDGETS = (10, 50, 100, 200, 400, 800)
TALL_BUDGETS = (25, 61, 121, 241, 361, 481)
RECOVERY_DELTA = 0.1


def trial_seed(seed: int, k: int) -> int:
    """Probe seed of trial ``k`` under workload seed ``seed``."""
    return (seed << 20) + k


@dataclass(frozen=True)
class Call:
    """One estimator call of a trial, as the gate sees it.

    ``counted`` is the fresh operator's own matvec counter after the call,
    where the benchmark owns the operator (``None`` inside ``run_bench``).
    ``error`` holds the exception text when the call raised.
    """

    method: str
    budget: int
    transposed: bool
    value: float
    matvecs: int
    counted: int | None = None
    error: str | None = None


@dataclass
class Instance:
    """A set-up workload: the matrix, its exact norms, and its trial function.

    ``row_exact`` and ``col_exact`` come from ``exact_two_to_inf``; the full
    norm vectors let the gate check that a value is the norm of some row.
    """

    mat: oplib.DenseMatrix
    row_exact: float
    col_exact: float
    row_norms: np.ndarray
    col_norms: np.ndarray
    trial: Callable[[int], list[Call]]
    accuracy_trials: int
    m: int | None = None

    def norms(self, call: Call) -> np.ndarray:
        return self.col_norms if call.transposed else self.row_norms

    def exact(self, call: Call) -> float:
        return self.col_exact if call.transposed else self.row_exact


def check(inst: Instance, call: Call) -> str | None:
    """Return why ``call`` fails the gate, or ``None`` when it passes."""
    if call.error is not None:
        return f"raised {call.error}"
    m = bench.budget_to_samples(call.method, call.budget)
    if m is None:
        return f"budget {call.budget} is below the minimum of {call.method}"
    cost = bench.method_cost(call.method, m)
    if call.matvecs != cost or cost > call.budget:
        return f"matvecs_used {call.matvecs}, cost model {cost}, budget {call.budget}"
    if call.counted is not None and call.counted != call.matvecs:
        return f"operator counted {call.counted} matvecs, estimate reports {call.matvecs}"
    if not math.isfinite(call.value):
        return f"non-finite estimate {call.value}"
    if call.method in ROW_SELECTING:
        norms, exact = inst.norms(call), inst.exact(call)
        if call.value > exact * (1.0 + EXACT_RTOL):
            return f"overshoot: {call.value!r} > exact {exact!r}"
        if np.min(np.abs(norms - call.value)) > EXACT_RTOL * exact:
            return f"{call.value!r} is not the norm of any {'column' if call.transposed else 'row'}"
    return None


def rel_error(inst: Instance, call: Call) -> float:
    exact = inst.exact(call)
    return abs(call.value - exact) / exact


def is_exact(inst: Instance, call: Call) -> bool:
    exact = inst.exact(call)
    return abs(call.value - exact) <= EXACT_RTOL * exact


def _instance(mat, trial, accuracy_trials, m=None) -> Instance:
    """Compute the exact oracle for ``mat`` and wrap it with ``trial``."""
    row_exact = estimators.exact_two_to_inf(mat).value
    col_exact = estimators.exact_two_to_inf(oplib.DenseMatrix(mat.array.T)).value
    return Instance(mat, row_exact, col_exact, np.linalg.norm(mat.array, axis=1),
                    np.linalg.norm(mat.array, axis=0), trial, accuracy_trials, m)


def _bench_trial(spec, methods, budgets, seed: int) -> Callable[[int], list[Call]]:
    def trial(k: int) -> list[Call]:
        cfg = bench.BenchConfig(source=spec, methods=methods, budgets=budgets,
                                trials=1, base_seed=trial_seed(seed, k))
        try:
            records = bench.run_bench(cfg)
        except Exception as exc:  # a raising call fails the gate; the run goes on
            return [Call(m, b, False, math.nan, 0, error=repr(exc))
                    for m in methods for b in budgets]
        return [Call(r.method, r.matvec_budget, False, r.estimate, r.matvecs_used,
                     error="skipped below minimum budget" if r.skipped else None)
                for r in records]

    return trial


def gap_square(seed: int, size: int = 500, budgets=GAP_BUDGETS,
               accuracy_trials: int = 20) -> Instance:
    """All four methods through ``run_bench`` on a square gap-0.1 matrix."""
    spec = synthetic.GapMatrixSpec(size, size, 0.1, seed)
    mat = synthetic.gen_gap_matrix(spec)
    trial = _bench_trial(spec, tuple(estimators.METHODS), tuple(budgets), seed)
    return _instance(mat, trial, accuracy_trials)


# The recovery matrix has a fixed spec seed: its sample count m, and with it
# the work of a trial, is a function of the matrix (13.9k to 17.1k over spec
# seeds 0..9 at 200x200), so a seeded matrix would make trial time vary with
# the seed instead of the code.  The workload seed drives the probes.
RECOVERY_MATRIX_SEED = 0


def recovery_bound(seed: int, size: int = 200, delta: float = RECOVERY_DELTA,
                   accuracy_trials: int = 20) -> Instance:
    """``twinest`` alone at the paper's sufficient sample count, through ``run_bench``."""
    spec = synthetic.GapMatrixSpec(size, size, 0.05, RECOVERY_MATRIX_SEED)
    mat = synthetic.gen_gap_matrix(spec)
    m = estimators.sufficient_m_twinest(mat, delta)
    trial = _bench_trial(spec, ("twinest",), (2 * m + 1,), seed)
    return _instance(mat, trial, accuracy_trials, m)


def tall_deflate(seed: int, rows: int = 2000, cols: int = 50, budgets=TALL_BUDGETS,
                 accuracy_trials: int = 20) -> Instance:
    """``twinest_pp`` and ``twinest`` called directly, on ``A`` and on ``A^T``."""
    mat = synthetic.gen_tall_lowrank(synthetic.TallMatrixSpec(rows, cols, seed))
    plan = [(method, budget, bench.budget_to_samples(method, budget))
            for method in ROW_SELECTING for budget in budgets]

    def trial(k: int) -> list[Call]:
        calls = []
        for method, budget, m in plan:
            for transposed in (False, True):
                op = oplib.DenseMatrix(mat.array)
                rng = sketch.RngStream(trial_seed(seed, k))
                try:
                    if transposed:
                        est = estimators.estimate_one_to_two(op, method, m, rng)
                    else:
                        est = estimators.METHODS[method](op, m, rng)
                except Exception as exc:  # a raising call fails the gate
                    calls.append(Call(method, budget, transposed, math.nan, 0, error=repr(exc)))
                    continue
                calls.append(Call(method, budget, transposed, est.value, est.matvecs_used,
                                  counted=op.matvec_count))
        return calls

    return _instance(mat, trial, accuracy_trials)


WORKLOADS: dict[str, Callable[[int], Instance]] = {
    "gap_square": gap_square,
    "recovery_bound": recovery_bound,
    "tall_deflate": tall_deflate,
}
