"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines while the suite executes.  Criteria 2 and 4 run benchmark-scale trial
ensembles and take a few minutes combined.
"""

import math

import numpy as np
import pytest

from twoinf import (
    DenseMatrix,
    GapMatrixSpec,
    GramOp,
    RngStream,
    TallMatrixSpec,
    adaptive_power,
    compute_gap,
    exact_two_to_inf,
    gen_gap_matrix,
    gen_tall_lowrank,
    hutchpp_diag,
    lowrank_diag,
    sufficient_m_twinest,
    thin_qr,
    twinest,
    twinest_pp,
)
from twoinf.bench import (
    METHODS,
    BenchConfig,
    budget_to_samples,
    method_cost,
    run_bench,
    summarize,
    write_csv,
)

def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_power_method_divergence_frequency():
    """Power iteration on diag(2, 1) returns 1 with frequency near 0.2951."""
    op = DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    hits = 0
    for seed in range(10_000):
        est = adaptive_power(op, 20, RngStream(seed))
        hits += abs(est.value - 1.0) < 1e-9
    frac = hits / 10_000
    ok = 0.27 <= frac <= 0.32
    assert _report("AC1", ok, f"lock-in fraction {frac:.4f}, band [0.27, 0.32]")


# AC2 budgets are in matvecs under the package cost model; ``_samples``
# names the sample count each one buys.  The gap-0.1 budgets follow one
# rule applied to an independent dense reference: for the matrix
# ``A = gen_gap_matrix(GapMatrixSpec(500, 500, gap, seed=2026))`` it forms
# ``B = A @ A.T`` explicitly, draws +-1 probe blocks ``X`` (500 x m) from
# ``numpy.random.default_rng``, and scores the diagonal estimate
# ``D = mean(X * (B @ X), axis=1)`` by the exact norm of its argmax row
# (twinest, m = (b-1)//2) and by ``sqrt(max(0, max D))`` (averaging,
# m = b//2, the same probes).
# Mean relative errors, with twinest's lead in standard errors of a
# 200-trial paired difference (gap 0.1: 10000 trials, default_rng(3);
# gap 0.01: 2000 trials, default_rng(2)):
#
#   gap   budget  twinest   averaging  lead
#   0.1     200   3.56e-2   2.20e-2    -4.9
#   0.1     400   2.08e-2   1.42e-2    -2.9
#   0.1     550   1.39e-2   1.31e-2    -0.4
#   0.1     600   1.18e-2   1.29e-2    +0.7
#   0.1     800   6.68e-3   1.22e-2    +4.2
#   0.01    200   1.49e-2   5.53e-2   +27.4
#   0.01    400   1.24e-2   3.60e-2   +20.9
#   0.01    800   1.03e-2   2.25e-2   +13.9
#
# Ordering rule: assert it at every schedule budget where the lead is at
# least 3.  Error-level rule: assert it at the smallest budget, in steps
# of 400 matvecs past 800, where the reference mean plus 3 standard
# errors of a 200-trial mean is below 1e-3 (gap 0.1, 10000 trials):
#
#   budget 1601 (m = 800)   7.9e-4 + 3 * 4.4e-4 = 2.12e-3
#   budget 2001 (m = 1000)  3.0e-4 + 3 * 2.7e-4 = 1.12e-3
#   budget 2401 (m = 1200)  8.5e-5 + 3 * 1.5e-4 = 5.21e-4
#
# (Budget 1201, m = 600, misses by more than 1601 does.)
AC2_ORDERING_BUDGETS = {0.01: (200, 400, 800), 0.1: (800,)}
AC2_LEVEL_BUDGET = 2401


def _samples(method: str, budget: int) -> str:
    return f"budget {budget} = {budget_to_samples(method, budget)} samples"


def _gap_means(gap: float, methods, budgets) -> dict:
    cfg = BenchConfig(
        source=GapMatrixSpec(500, 500, gap, seed=2026),
        methods=methods,
        budgets=budgets,
        trials=200,
        base_seed=2026,
    )
    return {
        (gap, row.method, row.matvec_budget): row.mean_rel_error
        for row in summarize(run_bench(cfg))
    }


def test_criterion_2_gap_matrix_convergence_curves():
    """500x500 gap matrices: method orderings, power flatness, the 1e-3 level.

    twinest beats rademacher_averaging at budgets 200, 400 and 800 (gap
    0.01) and 800 (gap 0.1, where 800 matvecs = 399 samples); the power
    baseline is flat from budget 10 to 800; twinest's gap-0.1 mean
    relative error is below 1e-3 at budget 2401 = 1200 samples.
    """
    budgets = (10, 50, 100, 200, 400, 800)
    methods = ("twinest", "rademacher_averaging", "adaptive_power")
    means = {}
    for gap in (0.01, 0.1):
        means.update(_gap_means(gap, methods, budgets))
    means.update(_gap_means(0.1, ("twinest",), (AC2_LEVEL_BUDGET,)))

    checks = []
    for gap in (0.01, 0.1):
        pairs = [
            (b, means[(gap, "twinest", b)], means[(gap, "rademacher_averaging", b)])
            for b in AC2_ORDERING_BUDGETS[gap]
        ]
        checks.append(_report(
            "AC2", all(tw < av for _, tw, av in pairs),
            f"gap={gap}: twinest < rademacher_averaging at "
            + "; ".join(
                f"{_samples('twinest', b)} (averaging: "
                f"{budget_to_samples('rademacher_averaging', b)}): {tw:.2e} vs {av:.2e}"
                for b, tw, av in pairs
            ),
        ))
        lo, hi = means[(gap, "adaptive_power", 10)], means[(gap, "adaptive_power", 800)]
        flat = abs(hi - lo) <= 0.2 * lo
        checks.append(_report(
            "AC2", flat,
            f"gap={gap}: adaptive_power flat, {_samples('adaptive_power', 10)} {lo:.3e} "
            f"vs {_samples('adaptive_power', 800)} {hi:.3e}",
        ))
    err = means[(0.1, "twinest", AC2_LEVEL_BUDGET)]
    checks.append(_report(
        "AC2", err < 1e-3,
        f"gap=0.1: twinest mean relative error at {_samples('twinest', AC2_LEVEL_BUDGET)} "
        f"is {err:.3e}, required < 1e-3",
    ))
    assert all(checks)


def test_criterion_3_tall_lowrank_exact_recovery():
    """2000x50 Gaussian: the deflated method recovers exactly at m=180."""
    mat = gen_tall_lowrank(TallMatrixSpec(2000, 50, seed=7))
    exact = exact_two_to_inf(mat).value
    pp_errors, tw_errors = [], []
    for trial in range(200):
        pp = twinest_pp(DenseMatrix(mat.array), 180, RngStream(trial))
        pp_errors.append(abs(pp.value - exact) / exact)
        tw = twinest(DenseMatrix(mat.array), 180, RngStream(trial))
        tw_errors.append(abs(tw.value - exact) / exact)
    pp_errors = np.array(pp_errors)
    tw_errors = np.array(tw_errors)
    exact_hits = int(np.sum(pp_errors < 1e-10))
    ok_hits = exact_hits >= 199
    ok_order = pp_errors.mean() < tw_errors.mean()
    ok = ok_hits and ok_order
    assert _report(
        "AC3", ok,
        f"deflated exact in {exact_hits}/200 trials; mean errors "
        f"{pp_errors.mean():.2e} (deflated) vs {tw_errors.mean():.2e} (plain) at equal budget",
    )


def test_criterion_4_recovery_bound_validation():
    """Sampling at the recovery bound keeps the failure rate within delta + slack."""
    results = {}
    for gap in (0.05, 0.1):
        mat = gen_gap_matrix(GapMatrixSpec(200, 200, gap, seed=41))
        exact = exact_two_to_inf(mat).value
        m = sufficient_m_twinest(mat, 0.1)
        failures = 0
        for trial in range(500):
            est = twinest(DenseMatrix(mat.array), m, RngStream(trial))
            failures += abs(est.value - exact) > 1e-12 * exact
        results[gap] = (m, failures / 500)

    ok = all(rate <= 0.15 for _, rate in results.values())
    detail = "; ".join(
        f"gap={gap}: m={m}, failure rate {rate:.3f}" for gap, (m, rate) in results.items()
    )
    assert _report("AC4", ok, detail + " (allowed 0.15)")


def test_criterion_5_single_sample_diagonal_statistics():
    """Mean and variance of single-sample diagonal estimates on a fixed matrix."""
    mat = DenseMatrix(RngStream(505).normal((10, 10)))
    gram = mat.array @ mat.array.T
    true_diag = np.diag(gram).copy()
    off = gram.copy()
    np.fill_diagonal(off, 0.0)
    true_var = np.einsum("ij,ij->i", off, off)

    n = 100_000
    op = GramOp(DenseMatrix(mat.array))
    rng = RngStream(7)
    samples = np.empty((n, 10))
    for k in range(n):
        x = rng.rademacher(10)
        samples[k] = x * op.apply(x)

    stderr = samples.std(axis=0, ddof=1) / math.sqrt(n)
    mean_dev = np.abs(samples.mean(axis=0) - true_diag) / stderr
    var_dev = np.abs(samples.var(axis=0, ddof=1) - true_var) / true_var
    ok = mean_dev.max() <= 4.0 and var_dev.max() <= 0.05
    assert _report(
        "AC5", ok,
        f"max mean deviation {mean_dev.max():.2f} standard errors (<= 4); "
        f"max variance deviation {var_dev.max():.4f} relative (<= 0.05)",
    )


def test_criterion_6_rank_tail_bound():
    """Frobenius tail of the best rank-k approximation against trace/sqrt(k)."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        side = int(rng.integers(10, 51))
        g = rng.standard_normal((side, side))
        psd = g @ g.T
        eigvals = np.sort(np.linalg.eigvalsh(psd))[::-1]
        trace = eigvals.sum()
        for k in range(1, 11):
            tail = math.sqrt(float(np.sum(eigvals[k:] ** 2)))
            bound = trace / math.sqrt(k)
            worst = max(worst, tail / bound)
            assert tail <= bound
    assert _report("AC6", worst <= 1.0, f"worst tail/bound ratio {worst:.3f} over 20 PSD matrices, k=1..10")


def test_criterion_7_determinism_and_matvec_honesty(tmp_path):
    """Byte-identical replay, exact cost-model accounting, standalone-call equality."""
    cfg = BenchConfig(
        source=GapMatrixSpec(40, 40, 0.2, seed=3),
        methods=("twinest", "twinest_pp", "rademacher_averaging", "adaptive_power"),
        budgets=(7, 20, 41),
        trials=3,
        base_seed=3,
    )
    records = run_bench(cfg)
    write_csv(records, tmp_path / "one.csv", include_walltime=False)
    write_csv(run_bench(cfg), tmp_path / "two.csv", include_walltime=False)
    replay_ok = (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()

    # Each record is a function of its own (method, budget, trial) job alone.
    arr = gen_gap_matrix(cfg.source).array
    measured = [r for r in records if not r.skipped]
    standalone = [METHODS[r.method](DenseMatrix(arr), budget_to_samples(r.method, r.matvec_budget),
                                    RngStream(r.seed)) for r in measured]
    standalone_ok = all(
        (est.value, est.matvecs_used) == (r.estimate, r.matvecs_used)
        for r, est in zip(measured, standalone)
    )

    honesty_ok = all(
        r.matvecs_used == method_cost(r.method, budget_to_samples(r.method, r.matvec_budget))
        and r.matvecs_used <= r.matvec_budget
        for r in measured
    )
    ok = replay_ok and standalone_ok and honesty_ok
    assert _report(
        "AC7", ok,
        f"replay byte-identical: {replay_ok}; each record == standalone call: {standalone_ok}; "
        f"matvec accounting exact: {honesty_ok}",
    )


def test_criterion_8_oracle_equivalence_against_brute_force():
    """Library operations versus independent dense recomputation, 1e-8 relative."""
    rng = np.random.default_rng(808)
    checked = 0
    for _ in range(100):
        d = int(rng.integers(3, 51))
        n = int(rng.integers(3, 51))
        arr = rng.standard_normal((d, n))
        gram = arr @ arr.T
        scale = max(1.0, np.abs(gram).max())

        # gram application
        x = rng.standard_normal(d)
        got = GramOp(DenseMatrix(arr)).apply(x)
        assert np.allclose(got, gram @ x, rtol=1e-8, atol=1e-8 * scale)

        # low-rank diagonal extraction
        r = int(rng.integers(1, min(d, n) + 1))
        q = thin_qr(rng.standard_normal((d, r)))
        got = lowrank_diag(DenseMatrix(arr), q)
        want = np.diag(gram @ q @ q.T)
        assert np.allclose(got, want, rtol=1e-8, atol=1e-8 * scale)

        # deflated diagonal estimate in the full-deflation branch
        m = 3 * min(d, n)
        est = hutchpp_diag(DenseMatrix(arr), m, RngStream(checked))
        assert np.allclose(est, np.diag(gram), rtol=1e-8, atol=1e-8 * scale)

        # exact norm and gap against brute force
        norms_sq = (arr * arr).sum(axis=1)
        est_norm = exact_two_to_inf(DenseMatrix(arr))
        assert est_norm.value == pytest.approx(math.sqrt(norms_sq.max()), rel=1e-8)
        assert est_norm.selected_row == int(np.argmax(norms_sq))

        report = compute_gap(DenseMatrix(arr))
        top = norms_sq.max()
        band = 1e-12 * top
        brute_ties = [int(i) for i in np.flatnonzero(norms_sq >= top - band)]
        below = norms_sq[norms_sq < top - band]
        brute_gap = math.inf if below.size == 0 else top - below.max()
        assert report.argmax_set == brute_ties
        assert report.max_sq_norm == pytest.approx(top, rel=1e-8)
        if math.isinf(brute_gap):
            assert math.isinf(report.gap)
        else:
            assert report.gap == pytest.approx(brute_gap, rel=1e-8)
        checked += 1
    assert _report("AC8", checked == 100, f"{checked}/100 random matrices matched brute force")
