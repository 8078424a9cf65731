import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoinf import (
    DeflatedGramOp,
    DenseMatrix,
    GapMatrixSpec,
    GramOp,
    LinearOp,
    RngStream,
    TallMatrixSpec,
    TransposedOp,
    adaptive_power,
    budget_to_samples,
    compute_gap,
    dual_vector,
    estimate_one_to_two,
    exact_two_to_inf,
    gen_gap_matrix,
    gen_tall_lowrank,
    rademacher_averaging,
    save_matrix,
    sufficient_m_twinest,
    thin_qr,
    twinest,
    twinest_pp,
)
from twoinf import sketch
from twoinf.estimators import METHODS
from twoinf.sketch import _BLOCK


# ---------------------------------------------------------------------------
# exact oracle


def test_exact_two_to_inf_small_matrix():
    est = exact_two_to_inf(DenseMatrix([[1.0, 2.0], [3.0, 4.0]]))
    assert est.value == pytest.approx(5.0, rel=1e-15)
    assert est.selected_row == 1
    assert est.matvecs_used == 0


def test_exact_two_to_inf_diagonal():
    est = exact_two_to_inf(DenseMatrix([[2.0, 0.0], [0.0, 1.0]]))
    assert est.value == 2.0
    assert est.selected_row == 0
    # Squared norms that overflow or fall below the smallest normal float,
    # and subnormal entries, whose rescale factor 2^1059 is not a float.
    for scale in (1e200, 1e-170, 2.0**-1060):
        est = exact_two_to_inf(DenseMatrix([[scale, 0.0], [0.0, scale / 2]]))
        assert est.value == scale
        assert est.selected_row == 0
    est = exact_two_to_inf(DenseMatrix(np.array([[3.0, 4.0], [1.0, 0.0]]) * 2.0**-1060))
    assert est.value == 5.0 * 2.0**-1060


def test_exact_two_to_inf_rejects_unrepresentable_norm():
    big = np.array([[1.5e308, 1.5e308], [1.0, 0.0]])  # norm 2.1e308
    with pytest.raises(ValueError, match="exceeds the float64 maximum"):
        exact_two_to_inf(DenseMatrix(big))


def test_exact_two_to_inf_zero_matrix():
    est = exact_two_to_inf(DenseMatrix(np.zeros((3, 2))))
    assert est.value == 0.0


def test_exact_two_to_inf_tie_breaks_to_smallest_row():
    est = exact_two_to_inf(DenseMatrix(np.eye(4)))
    assert est.selected_row == 0
    assert est.value == 1.0


# ---------------------------------------------------------------------------
# twinest


def test_twinest_diagonal_matrix_deterministic():
    # Diagonal Gram means a zero-variance diagonal estimate: one sample
    # already selects the right row.
    est = twinest(DenseMatrix([[2.0, 0.0], [0.0, 1.0]]), 1, RngStream(0))
    assert est.value == 2.0
    assert est.selected_row == 0
    assert est.matvecs_used == 3


def test_twinest_identity_all_rows_tie():
    for m in (1, 4):
        est = twinest(DenseMatrix(np.eye(5)), m, RngStream(m))
        assert est.value == 1.0


def test_twinest_rejects_zero_samples():
    with pytest.raises(ValueError, match="positive"):
        twinest(DenseMatrix(np.eye(2)), 0, RngStream(0))


def test_twinest_matvec_accounting():
    for m in (1, 7, 20):
        a = DenseMatrix(np.random.default_rng(m).standard_normal((6, 4)))
        est = twinest(a, m, RngStream(m))
        assert est.matvecs_used == 2 * m + 1
        assert a.matvec_count == 2 * m + 1


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    power=st.one_of(
        st.tuples(st.just(10.0), st.integers(-100, 100)),
        st.tuples(st.just(2.0), st.integers(-560, 500)),
    ),
    shape=st.sampled_from(["plain", "zero_row", "tied_rows", "zero_matrix"]),
    m=st.integers(3, 12),
)
@example(seed=0, rows=8, cols=4, power=(2.0, -540), shape="plain", m=6)
@settings(max_examples=100)
def test_twinest_row_exactness(seed, rows, cols, power, shape, m):
    # Whatever row gets selected, the reported value is that row's exact
    # norm, so the estimate never exceeds the true norm -- also for tiny
    # or huge entries, zero rows, exact ties, one row or one column, and
    # for the columns when the method runs on the transpose.
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((rows, cols))
    i, j = rng.integers(rows, size=2)
    if shape == "zero_row":
        base[i] = 0.0
    elif shape == "tied_rows":
        base[i] = base[j]
    elif shape == "zero_matrix":
        base[:] = 0.0
    radix, exponent = power
    scale = radix**exponent
    arr = base * scale
    for lines, unscaled, run in (
        (arr, base, lambda method: METHODS[method](DenseMatrix(arr), m, RngStream(seed))),
        (arr.T, base.T, lambda method: estimate_one_to_two(DenseMatrix(arr), method, m, RngStream(seed))),
    ):
        exact = exact_two_to_inf(DenseMatrix(lines)).value
        for method in ("twinest", "twinest_pp"):
            est = run(method)
            row = [est.selected_row]
            assert est.value == exact_two_to_inf(DenseMatrix(lines[row])).value, method
            if radix == 2.0:
                # Scaling by a power of two is exact, also where the squares
                # of the scaled entries leave the normal range.
                assert est.value == scale * exact_two_to_inf(DenseMatrix(unscaled[row])).value, method
            assert est.value <= exact, method


def test_twinest_recovers_under_sufficient_sampling():
    # Sampling above the recovery bound (failure probability 0.05) makes
    # exact recovery overwhelmingly likely; the bound itself is loose.
    mat = gen_gap_matrix(GapMatrixSpec(100, 100, 0.1, seed=11))
    m = sufficient_m_twinest(mat, 0.05)
    exact = exact_two_to_inf(mat).value
    recovered = 0
    for trial in range(100):
        est = twinest(DenseMatrix(mat.array), m, RngStream(trial))
        recovered += abs(est.value - exact) <= 1e-12 * exact
    assert recovered >= 95


def test_twinest_error_shrinks_with_budget():
    # Paired seeds at m=50 versus m=400 on a gap-0.1 matrix.
    mat = gen_gap_matrix(GapMatrixSpec(200, 200, 0.1, seed=12))
    exact = exact_two_to_inf(mat).value

    def mean_error(m):
        errors = []
        for trial in range(200):
            est = twinest(DenseMatrix(mat.array), m, RngStream(trial))
            errors.append(abs(est.value - exact) / exact)
        return float(np.mean(errors))

    assert mean_error(400) <= mean_error(50)


# ---------------------------------------------------------------------------
# twinest_pp


def test_twinest_pp_identity():
    est = twinest_pp(DenseMatrix(np.eye(4)), 3, RngStream(5))
    assert est.value == 1.0
    assert est.matvecs_used == 7


def test_twinest_pp_exact_recovery_when_sketch_covers_rank():
    rng = np.random.default_rng(31)
    mat = DenseMatrix(rng.standard_normal((300, 20)))
    exact = exact_two_to_inf(mat).value
    for trial in range(20):
        est = twinest_pp(DenseMatrix(mat.array), 60, RngStream(trial))
        assert abs(est.value - exact) <= 1e-10 * exact


def test_twinest_pp_rejects_small_budget():
    with pytest.raises(ValueError, match="at least 3"):
        twinest_pp(DenseMatrix(np.eye(2)), 2, RngStream(0))


def test_twinest_pp_matvec_accounting():
    for m in (3, 10, 16):
        a = DenseMatrix(np.random.default_rng(m).standard_normal((9, 9)))
        est = twinest_pp(a, m, RngStream(m))
        assert est.matvecs_used == 2 * m + 1
        assert a.matvec_count == 2 * m + 1


def _lapack_q(mat):
    _lapack_q.calls += 1
    return np.linalg.qr(mat, mode="reduced")[0]


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_twinest_pp_selects_the_rows_of_a_lapack_basis(seed):
    # The recursive QR moves Q by rounding, and the surplus columns of a
    # rank-deficient sketch entirely (the 2000x50 matrix has rank 50 and
    # sketches up to 80 wide); the estimates must not move.  Budgets of the
    # tall and square workloads of the benchmark.
    cases = (
        (gen_tall_lowrank(TallMatrixSpec(2000, 50, seed)), (25, 61, 121, 241, 361, 481)),
        (gen_gap_matrix(GapMatrixSpec(500, 500, 0.1, seed)), (10, 50, 100, 200, 400, 800)),
    )
    _lapack_q.calls = 0
    for mat, budgets in cases:
        for budget in budgets:
            m = budget_to_samples("twinest_pp", budget)
            for run in (lambda op: twinest_pp(op, m, RngStream(seed)),
                        lambda op: estimate_one_to_two(op, "twinest_pp", m, RngStream(seed))):
                got = run(DenseMatrix(mat.array))
                with mock.patch.object(sketch, "thin_qr", _lapack_q):
                    want = run(DenseMatrix(mat.array))
                assert (got.value.hex(), got.selected_row, got.matvecs_used) == (
                    want.value.hex(), want.selected_row, want.matvecs_used), (budget, m)
    # hutchpp_diag must factor through thin_qr, or the reference was never used.
    assert _lapack_q.calls > 0


# ---------------------------------------------------------------------------
# rademacher averaging


def test_rademacher_averaging_diagonal_exact():
    est = rademacher_averaging(DenseMatrix([[2.0, 0.0], [0.0, 1.0]]), 1, RngStream(0))
    assert est.value == 2.0
    assert est.selected_row is None
    assert est.matvecs_used == 2


def test_rademacher_averaging_zero_matrix():
    est = rademacher_averaging(DenseMatrix(np.zeros((2, 2))), 3, RngStream(0))
    assert est.value == 0.0


def test_rademacher_averaging_rejects_zero_samples():
    with pytest.raises(ValueError, match="positive"):
        rademacher_averaging(DenseMatrix(np.eye(2)), 0, RngStream(0))


def test_rademacher_averaging_trails_twinest_at_matched_budget():
    # Matched matvec budget of 800 on a gap-0.1 matrix: reading off the
    # noisy diagonal maximum is biased upward, the exact row measurement
    # is not.
    mat = gen_gap_matrix(GapMatrixSpec(100, 100, 0.1, seed=11))
    exact = exact_two_to_inf(mat).value
    tw, ra = [], []
    for trial in range(200):
        est = twinest(DenseMatrix(mat.array), 399, RngStream(trial))
        tw.append(abs(est.value - exact) / exact)
        est = rademacher_averaging(DenseMatrix(mat.array), 400, RngStream(trial))
        ra.append(abs(est.value - exact) / exact)
    assert np.mean(tw) < np.mean(ra)


# ---------------------------------------------------------------------------
# dual vectors


def test_dual_two_normalizes():
    assert np.allclose(dual_vector([3.0, 4.0], 2), [0.6, 0.8], atol=1e-15)
    # Sums of squares that overflow or fall below the smallest normal float.
    unit = [2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0)]
    for scale in (1e200, 1e-170):
        assert np.allclose(dual_vector([scale, scale / 2], 2), unit, rtol=1e-15, atol=0.0)
    # Subnormal entries give the unit-scale dual bit for bit.
    tiny = dual_vector(np.array([3.0, 4.0]) * 2.0**-1060, 2)
    assert tiny.tobytes() == dual_vector([3.0, 4.0], 2).tobytes()


def test_dual_inf_shares_ties():
    assert np.array_equal(dual_vector([2.0, 2.0, 1.0], math.inf), [0.5, 0.5, 0.0])


def test_dual_inf_sign_handling():
    assert np.array_equal(dual_vector([-3.0, 1.0], math.inf), [-1.0, 0.0])


def test_dual_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        dual_vector([0.0, 0.0], 2)


def test_dual_rejects_other_norms():
    with pytest.raises(ValueError, match="p must be 2 or inf"):
        dual_vector([1.0], 3)


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 12))
@settings(max_examples=50)
def test_dual_vector_properties(seed, dim):
    x = np.random.default_rng(seed).standard_normal(dim)
    d2 = dual_vector(x, 2)
    assert np.linalg.norm(d2) == pytest.approx(1.0, abs=1e-12)
    dinf = dual_vector(x, math.inf)
    assert np.abs(dinf).sum() == pytest.approx(1.0, abs=1e-12)
    support = np.flatnonzero(dinf)
    assert np.all(np.abs(x[support]) == np.abs(x).max())


@given(
    entries=st.lists(st.integers(-3, 3), min_size=1, max_size=12),
    exponent=st.integers(-1074, 1022),
)
@example(entries=[0, 0], exponent=0)
@example(entries=[1, 0], exponent=-1074)
@example(entries=[3, -3, 2], exponent=1022)
@settings(max_examples=200)
def test_dual_vector_bit_for_bit(entries, exponent):
    # Small integers times 2^k are exact at every k here, subnormal ones
    # included, so both duals are fixed bit for bit: the l-infinity dual is
    # the signed mean over the maximal set, and the l2 dual is that of the
    # unit-scale vector.  Only the zero vector raises.
    v = np.array(entries, dtype=np.float64)
    x = np.ldexp(v, exponent)
    if not v.any():
        for p in (2, math.inf):
            with pytest.raises(ValueError, match="zero vector"):
                dual_vector(x, p)
        return
    mag = np.abs(x)
    members = mag == mag.max()
    want = np.zeros(len(x))
    want[members] = np.sign(x[members]) / members.sum()
    assert dual_vector(x, math.inf).tobytes() == want.tobytes()
    assert dual_vector(x, 2).tobytes() == (v / math.sqrt(v.dot(v))).tobytes()


# ---------------------------------------------------------------------------
# adaptive power method


def test_adaptive_power_lockin_frequency_on_two_by_two():
    # On diag(2, 1) the iteration locks onto the wrong row whenever the
    # start lands in a fixed cone; the lock-in frequency is about 0.295
    # ((2/pi) arctan(1/2)), so 2000 trials stay inside a 4-sigma band.
    wrong = 0
    for seed in range(2000):
        est = adaptive_power(DenseMatrix([[2.0, 0.0], [0.0, 1.0]]), 20, RngStream(seed))
        wrong += abs(est.value - 1.0) < 1e-9
    assert 0.25 <= wrong / 2000 <= 0.34


def test_adaptive_power_rank_one_converges_in_one_iteration():
    a = DenseMatrix([[3.5, 0.0], [0.0, 0.0]])
    est = adaptive_power(a, 1, RngStream(4))
    assert est.value == pytest.approx(3.5, rel=1e-15)
    assert est.matvecs_used == 3


def test_adaptive_power_identity():
    for seed in range(5):
        est = adaptive_power(DenseMatrix(np.eye(3)), 2, RngStream(seed))
        assert est.value == pytest.approx(1.0, rel=1e-12)


def test_adaptive_power_degenerate_zero_operator():
    est = adaptive_power(DenseMatrix(np.zeros((2, 2))), 5, RngStream(0))
    assert est.degenerate
    assert est.value == 0.0
    assert est.matvecs_used == 1  # exits after the first zero image


def test_adaptive_power_matvec_accounting():
    a = DenseMatrix(np.random.default_rng(0).standard_normal((4, 3)))
    est = adaptive_power(a, 6, RngStream(1))
    assert est.matvecs_used == 13
    assert a.matvec_count == 13


def test_adaptive_power_rejects_zero_iterations():
    with pytest.raises(ValueError, match="positive"):
        adaptive_power(DenseMatrix(np.eye(2)), 0, RngStream(0))


def test_adaptive_power_subnormal_entries():
    a = DenseMatrix(np.array([[3.0, 4.0], [1.0, 0.0]]) * 2.0**-1060)
    for method in ("adaptive_power", "twinest"):
        est = METHODS[method](a, 3, RngStream(0))
        assert est.value == 5.0 * 2.0**-1060, method
    # Equal rows of the smallest subnormal: each half of A^T y rounds to zero.
    a = DenseMatrix(np.full((2, 4), 2.0**-1074))
    est = adaptive_power(a, 3, RngStream(1))
    assert est.degenerate and est.matvecs_used == 2
    assert (est.value, est.degenerate, est.matvecs_used) == _reference_power(a, 3, RngStream(1))


def test_adaptive_power_overflowing_products():
    # Products that overflow into NaN raise, where the selection of the
    # dual's support would otherwise come out empty and read as degenerate.
    g = np.random.default_rng(1).standard_normal((30, 100))
    huge = DenseMatrix(g * (1e308 / np.abs(g).max()))
    with pytest.raises(ValueError, match="overflow float64; rescale the operator"):
        adaptive_power(huge, 10, RngStream(1))
    # Without a NaN, the sum of squares of A^T y overflows and is rescaled:
    # the answer stays right, and numpy does not warn.  Every row has the
    # largest norm, so the row the iteration settles on does not matter.
    h = np.random.default_rng(0).standard_normal((3, 400))
    h = h / np.linalg.norm(h, axis=1)[:, None] * 1.2e308
    est = adaptive_power(DenseMatrix(h), 10, RngStream(0))
    assert est.value == pytest.approx(exact_two_to_inf(DenseMatrix(h)).value, rel=1e-12)
    assert not est.degenerate
    # A norm above the float64 maximum (2.1e308) cannot be returned.
    with pytest.raises(ValueError, match="overflow float64; rescale the operator"):
        adaptive_power(DenseMatrix([[1.5e308, 1.5e308]]), 3, RngStream(0))


def _reference_power(a, m, rng):
    """adaptive_power's iteration written with the public dual_vector."""
    before = a.matvec_count
    x = rng.normal(a.cols)
    best = 0.0
    for _ in range(m):
        ax = a.apply(x)
        top = float(np.abs(ax).max())
        if top == 0.0:
            return best, True, a.matvec_count - before
        best = max(best, top)
        aty = a.apply_transpose(dual_vector(ax, math.inf))
        if not np.any(aty):
            return best, True, a.matvec_count - before
        x = dual_vector(aty, 2)
    return float(np.abs(a.apply(x)).max()), False, a.matvec_count - before


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    shape=st.sampled_from(
        ["plain", "tied_rows", "identity", "rank_one", "zero_matrix", "later_tie"]
    ),
    exponent=st.integers(-560, 500),
    m=st.integers(1, 12),
)
@example(seed=0, rows=2, cols=2, shape="later_tie", exponent=0, m=4)
@example(seed=1, rows=6, cols=5, shape="plain", exponent=-530, m=8)
@settings(max_examples=200)
def test_adaptive_power_matches_reference_loop(seed, rows, cols, shape, exponent, m):
    # Bit for bit, the same value, exit and matvec count as the reference
    # loop.  Below about 2^-485 the 2-norm dual works on a rescaled copy.
    # A^T y is never exactly zero, since y^T A x is the largest |A x|
    # entry, so its degenerate exit is reached only through underflow
    # (test_adaptive_power_subnormal_entries).
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((rows, cols))
    i, j = rng.integers(rows, size=2)
    if shape == "tied_rows":
        base[i] = base[j]
    elif shape == "identity":
        base = np.eye(rows, cols)
    elif shape == "rank_one":
        base = np.outer(base[:, 0], rng.standard_normal(cols))
    elif shape == "zero_matrix":
        base[:] = 0.0
    elif shape == "later_tie":
        # Rows (1, *) and row 0 = e_0: once row 0 is selected, x = e_0 and
        # every row ties, with different rows.
        base[:, 0] = 1.0
        base[0, 1:] = 0.0
    arr = base * 2.0**exponent
    est = adaptive_power(DenseMatrix(arr), m, RngStream(seed))
    value, degenerate, matvecs = _reference_power(DenseMatrix(arr), m, RngStream(seed))
    assert (est.value.hex(), est.degenerate, est.matvecs_used) == (value.hex(), degenerate, matvecs)


# ---------------------------------------------------------------------------
# one-to-two norm


def test_estimate_one_to_two_small_matrix():
    # Max column norm of [[1,2],[3,4]] is sqrt(4 + 16); a 2x2 Gram has a
    # deterministic diagonal-estimate ordering, so one sample suffices.
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    est = estimate_one_to_two(a, "twinest", 1, RngStream(0))
    assert est.value == pytest.approx(math.sqrt(20.0), rel=1e-14)
    assert est.value == np.linalg.norm(a.array[:, 1])


def test_estimate_one_to_two_diagonal_matches_two_to_inf():
    a = DenseMatrix(np.diag([2.0, 1.0]))
    est = estimate_one_to_two(a, "twinest", 1, RngStream(0))
    assert est.value == exact_two_to_inf(a).value


def test_estimate_one_to_two_zero_matrix():
    est = estimate_one_to_two(DenseMatrix(np.zeros((3, 2))), "rademacher_averaging", 2, RngStream(1))
    assert est.value == 0.0


def test_estimate_one_to_two_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        estimate_one_to_two(DenseMatrix(np.eye(2)), "power", 1, RngStream(0))


def test_estimate_one_to_two_matches_transposed_pipeline_bitwise():
    rng = np.random.default_rng(77)
    a = DenseMatrix(rng.standard_normal((9, 6)))
    for name in METHODS:
        via_helper = estimate_one_to_two(a, name, 4, RngStream(123))
        direct = METHODS[name](TransposedOp(DenseMatrix(a.array)), 4, RngStream(123))
        assert via_helper.value == direct.value
        assert via_helper.selected_row == direct.selected_row


def test_estimate_one_to_two_correct_against_brute_force():
    rng = np.random.default_rng(100)
    a = DenseMatrix(rng.standard_normal((40, 8)))
    exact_cols = np.linalg.norm(a.array, axis=0).max()
    est = estimate_one_to_two(a, "twinest_pp", 30, RngStream(5))
    assert est.value == pytest.approx(exact_cols, rel=1e-10)


# ---------------------------------------------------------------------------
# a matrix-free operator: the input Jacobian of a small tanh network


class TanhJacobian(LinearOp):
    """``J = W2 diag(s) W1``, the Jacobian of ``x -> W2 tanh(W1 x + b)`` at ``x0``.

    Products never form ``J``: ``_apply`` is a Jacobian-vector product and
    ``_apply_transpose`` a vector-Jacobian product, each for a vector and for
    a block of vectors stacked as columns.
    """

    def __init__(self, w1, b, w2, x0):
        super().__init__(w2.shape[0], w1.shape[1])
        self.w1, self.w2 = w1, w2
        self.s = 1.0 - np.tanh(w1 @ x0 + b) ** 2

    def _scale(self, h):
        return self.s * h if h.ndim == 1 else self.s[:, None] * h

    def _apply(self, x):
        return self.w2 @ self._scale(self.w1 @ x)

    def _apply_transpose(self, y):
        return self.w1.T @ self._scale(self.w2.T @ y)

    def dense(self):
        return self.w2 @ (self.s[:, None] * self.w1)


class VectorOnlyJacobian(TanhJacobian):
    """The same Jacobian with products written for vectors only.

    ``s * h`` scales a block along its columns instead of its rows; where the
    block is as wide as the hidden layer, it broadcasts without an error.
    """

    def _scale(self, h):
        return self.s * h


class ReadOnlyJacobian(TanhJacobian):
    """The same Jacobian with read-only products, as numpy's zero-copy view of
    an array from another framework can be; the estimators must not write
    into a product's result.
    """

    def _apply(self, x):
        return _read_only(super()._apply(x))

    def _apply_transpose(self, y):
        return _read_only(super()._apply_transpose(y))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _tanh_jacobian(seed, outputs=12, hidden=16, inputs=30, kind=TanhJacobian):
    """A network whose Jacobian has a clear largest row and a clear largest column."""
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((hidden, inputs)) / math.sqrt(inputs)
    w2 = rng.standard_normal((outputs, hidden)) / math.sqrt(hidden)
    w1[:, 7] *= 3.0   # input 7 is the most sensitive feature
    w2[5] *= 2.0      # output 5 is the most sensitive output
    return kind(w1, rng.standard_normal(hidden), w2, rng.standard_normal(inputs))


def _check_operator(op, rng):
    """Assert that ``op``'s products are one linear map and its transpose.

    On probes drawn from the numpy generator ``rng``, within 1e-12 relative:
    the adjoint identity ``Y^T (A X) == (A^T Y)^T X`` on blocks of the 64
    columns the estimators probe with, and that such a block gives the
    columns its 64 single vectors give, in both directions.
    """
    x = rng.standard_normal((op.cols, _BLOCK))
    y = rng.standard_normal((op.rows, _BLOCK))
    ax, aty = op.apply(x), op.apply_transpose(y)
    lhs, rhs = y.T @ ax, aty.T @ x
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(lhs).max(), "adjoint identity"
    for block, probes, product in ((ax, x, op.apply), (aty, y, op.apply_transpose)):
        columns = np.stack([product(p) for p in probes.T], axis=1)
        assert np.abs(block - columns).max() <= 1e-12 * np.abs(columns).max(), "block and vectors"


def test_operators_keep_the_product_contract():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((30, 20))
    basis = thin_qr(rng.standard_normal((30, 5)))
    for op in (DenseMatrix(arr), GramOp(DenseMatrix(arr)), DeflatedGramOp(DenseMatrix(arr), basis),
               TransposedOp(DenseMatrix(arr)), _tanh_jacobian(0), _tanh_jacobian(1, hidden=64)):
        _check_operator(op, rng)
    with pytest.raises(AssertionError, match="adjoint identity|block and vectors"):
        _check_operator(_tanh_jacobian(1, hidden=64, kind=VectorOnlyJacobian), rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_methods_agree_on_matrix_free_jacobian(seed):
    for kind in (TanhJacobian, ReadOnlyJacobian):
        jac = _tanh_jacobian(seed, kind=kind)
        dense = DenseMatrix(jac.dense())
        assert np.argmax(np.linalg.norm(dense.array, axis=1)) == 5
        for name in METHODS:
            for m in (3, 30, 99):  # 99 probes cross a 64-probe block boundary
                free = METHODS[name](jac, m, RngStream(seed))
                ref = METHODS[name](dense, m, RngStream(seed))
                assert free.selected_row == ref.selected_row, (kind, name, m)
                assert free.matvecs_used == ref.matvecs_used, (kind, name, m)
                assert free.value == pytest.approx(ref.value, rel=1e-12), (kind, name, m)


def test_one_to_two_of_jacobian_is_largest_input_sensitivity():
    # The one-to-two norm of J is its largest column norm: the sensitivity of
    # the output to the most sensitive input.  At m = 36 the sketch has 12
    # columns, the rank of J, so the deflated diagonal is exact.
    for kind in (TanhJacobian, ReadOnlyJacobian):
        for seed in range(3):
            jac = _tanh_jacobian(seed, kind=kind)
            column_norms = np.linalg.norm(jac.dense(), axis=0)
            est = estimate_one_to_two(jac, "twinest_pp", 36, RngStream(seed))
            assert est.selected_row == 7 == np.argmax(column_norms)
            assert est.value == pytest.approx(column_norms.max(), rel=1e-12)


# ---------------------------------------------------------------------------
# DenseMatrix answers one-nonzero vectors by reading; the estimates stay BLAS's


class PlainGemv(LinearOp):
    """A dense matrix whose every product is a plain BLAS call."""

    def __init__(self, array):
        super().__init__(*array.shape)
        self.array = array

    def _apply(self, x):
        return self.array @ x

    def _apply_transpose(self, y):
        return self.array.T @ y


def _same_estimates(arr, budgets, seed):
    """Every estimator on ``DenseMatrix(arr)`` is bit-equal to the plain-GEMV double."""
    def fields(est):
        return est.value.hex(), est.selected_row, est.matvecs_used, est.degenerate

    for m in budgets:
        for name in METHODS:
            for run in (lambda op: METHODS[name](op, m, RngStream(seed)),
                        lambda op: estimate_one_to_two(op, name, m, RngStream(seed))):
                assert fields(run(DenseMatrix(arr))) == fields(run(PlainGemv(arr))), (name, m)


def test_estimates_match_plain_gemv_on_gap_matrix():
    arr = gen_gap_matrix(GapMatrixSpec(500, 500, 0.1, seed=2026)).array
    _same_estimates(arr, (4, 99), seed=5)


@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    shape=st.sampled_from(["plain", "tied_rows", "identity", "zero_matrix"]),
    exponent=st.integers(-560, 500),
    m=st.integers(3, 12),
)
@settings(max_examples=60, deadline=None)
def test_estimates_match_plain_gemv_on_drawn_matrices(seed, rows, cols, shape, exponent, m):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((rows, cols))
    if shape == "tied_rows":
        base[rng.integers(rows)] = base[0]
    elif shape == "identity":
        base = np.eye(rows, cols)
    elif shape == "zero_matrix":
        base[:] = 0.0
    _same_estimates(base * 2.0**exponent, (m,), seed)


# ---------------------------------------------------------------------------
# a non-finite product raises; it never becomes the estimate


class FaultyGemv(PlainGemv):
    """``PlainGemv`` whose product number ``fault`` (calls counted from 0, in
    either direction) holds ``bad`` in one entry, taken modulo its size."""

    def __init__(self, array, fault=-1, entry=0, bad=math.nan):
        super().__init__(array)
        self.calls, self.fault, self.entry, self.bad = 0, fault, entry, bad

    def _corrupt(self, out):
        if self.calls == self.fault:
            out.flat[self.entry % out.size] = self.bad
        self.calls += 1
        return out

    def _apply(self, x):
        return self._corrupt(super()._apply(x))

    def _apply_transpose(self, y):
        return self._corrupt(super()._apply_transpose(y))


def _fault_runs():
    """(name, run on a FaultyGemv, the run's exact norm or None for a diagonal)."""
    runs = []
    for name in METHODS:
        runs.append((name, lambda op, fn=METHODS[name]: fn(op, 30, RngStream(5)), 0))
        runs.append((f"{name} 1->2",
                     lambda op, name=name: estimate_one_to_two(op, name, 30, RngStream(5)), 1))
    runs.append(("hutchinson_diag",
                 lambda op: sketch.hutchinson_diag(GramOp(op), 30, RngStream(5)), None))
    runs.append(("hutchpp_diag", lambda op: sketch.hutchpp_diag(op, 30, RngStream(5)), None))
    return runs


@given(seed=st.integers(0, 2**32 - 1), entry=st.integers(0, 2**16),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), zero_rows=st.booleans(),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_non_finite_product_raises_or_leaves_the_estimate_honest(seed, entry, bad, zero_rows,
                                                                   data):
    arr = np.random.default_rng(seed).standard_normal((40, 30))
    if zero_rows:
        # An inf put into a zero row of A x leads the power iteration to that
        # row, and so to its degenerate exit.
        arr[::2] = 0.0
    exact = (exact_two_to_inf(arr).value, exact_two_to_inf(arr.T).value)
    for name, run, side in _fault_runs():
        clean = FaultyGemv(arr)
        run(clean)
        last = clean.calls - 1
        # The exact-row product is the last one twinest and twinest_pp make.
        for k in {last, data.draw(st.integers(0, last), label=name)}:
            op = FaultyGemv(arr, k, entry, bad)
            try:
                est = run(op)
            except ValueError as err:
                # One message names both causes.
                assert "overflow float64" in str(err), (name, k)
                assert "returned a non-finite value" in str(err), (name, k)
                continue
            assert op.calls > k, (name, k)  # the fault was made
            assert side is not None, f"{name} returned with product {k} non-finite"
            assert name.split()[0] not in ("twinest", "twinest_pp") or k != last, (name, k)
            assert math.isfinite(est.value) and est.value <= exact[side] * (1 + 1e-12), (name, k)


# ---------------------------------------------------------------------------
# gap report and recovery bound


def test_plain_arrays_are_read_as_dense_matrices(tmp_path):
    arr = gen_gap_matrix(GapMatrixSpec(30, 20, 0.2, seed=4)).array
    readers = (compute_gap, exact_two_to_inf, lambda mat: sufficient_m_twinest(mat, 0.1))
    for read in readers:
        assert read(arr) == read(DenseMatrix(arr))
    save_matrix(arr, tmp_path / "plain.bin")
    save_matrix(DenseMatrix(arr), tmp_path / "dense.bin")
    assert (tmp_path / "plain.bin").read_bytes() == (tmp_path / "dense.bin").read_bytes()
    bad = arr.copy()  # the operator's entries are read-only
    bad[3, 7] = np.nan
    for read in (*readers, lambda mat: save_matrix(mat, tmp_path / "nan.bin")):
        with pytest.raises(ValueError, match="matrix entries must all be finite"):
            read(bad)
    assert not (tmp_path / "nan.bin").exists()


def test_compute_gap_diagonal_example():
    report = compute_gap(DenseMatrix(np.diag([2.0, 1.0])))
    assert report.max_sq_norm == 4.0
    assert report.gap == 3.0
    assert report.argmax_set == [0]


def test_compute_gap_synthetic_matrix():
    mat = gen_gap_matrix(GapMatrixSpec(50, 50, 0.1, seed=3))
    report = compute_gap(mat)
    assert report.gap == pytest.approx(0.1, abs=1e-9)
    assert report.argmax_set == [0]


def test_compute_gap_all_ties_sentinel():
    report = compute_gap(DenseMatrix(np.eye(4)))
    assert math.isinf(report.gap)
    assert report.argmax_set == [0, 1, 2, 3]


def test_compute_gap_rejects_empty():
    # A plain array is read as a DenseMatrix, which rejects what the report cannot hold.
    with pytest.raises(ValueError, match="dimensions must be positive, got 0x3"):
        compute_gap(np.empty((0, 3)))
    with pytest.raises(ValueError, match="2-d"):
        compute_gap(np.ones(3))
    with pytest.raises(ValueError, match="finite"):
        compute_gap(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_compute_gap_rejects_unrepresentable_squared_norms():
    for scale, word in ((1e200, "overflow"), (1e-170, "underflow")):
        mat = DenseMatrix([[scale, 0.0], [0.0, scale / 2]])
        with pytest.raises(ValueError, match=word):
            compute_gap(mat)
        with pytest.raises(ValueError, match=word):
            sufficient_m_twinest(mat, 0.1)


def test_sufficient_m_diagonal_matrix_is_one():
    assert sufficient_m_twinest(DenseMatrix(np.diag([2.0, 1.0])), 0.05) == 1


def test_sufficient_m_matches_direct_formula():
    mat = gen_gap_matrix(GapMatrixSpec(50, 50, 0.2, seed=21))
    got = sufficient_m_twinest(mat, 0.05)
    # independent re-evaluation from raw entries
    arr = mat.array
    sq = np.sort((arr * arr).sum(axis=1))
    gap = sq[-1] - sq[-2]
    b = arr @ arr.T
    np.fill_diagonal(b, 0.0)
    off = (b * b).sum(axis=1).max()
    bound = 8.0 * math.log(2 * 50 / 0.05) / gap**2 * off
    assert got == int(math.floor(bound)) + 1


def test_sufficient_m_scale_invariant():
    # At 2^260 the squared gap alone overflows; below unit scale the tie band
    # must shrink with the norms.  The bound is scale-free.
    mat = gen_gap_matrix(GapMatrixSpec(30, 30, 0.3, seed=8))
    for scale in (2.0, 2.0**260, 2.0**-20, 2.0**-30):
        scaled = DenseMatrix(scale * mat.array)
        assert sufficient_m_twinest(mat, 0.1) == sufficient_m_twinest(scaled, 0.1)


def test_sufficient_m_all_ties_rejected():
    with pytest.raises(ValueError, match="undefined"):
        sufficient_m_twinest(DenseMatrix(np.eye(3)), 0.1)


def test_sufficient_m_delta_domain():
    mat = DenseMatrix(np.diag([2.0, 1.0]))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="delta"):
            sufficient_m_twinest(mat, bad)


# ---------------------------------------------------------------------------
# cross-cutting properties


def test_scale_equivariance_power_of_two():
    # Doubling the matrix doubles every estimate exactly (all intermediate
    # quantities scale by exact powers of two) and preserves selections.
    rng = np.random.default_rng(50)
    base = rng.standard_normal((12, 7))
    for name, fn in METHODS.items():
        m = 6
        one = fn(DenseMatrix(base), m, RngStream(9))
        two = fn(DenseMatrix(2.0 * base), m, RngStream(9))
        assert two.value == 2.0 * one.value, name
        assert two.selected_row == one.selected_row, name
    # The oracle and the power iteration stay exact where squared norms
    # overflow (2^660) or fall below the smallest normal float (2^-560).
    for scale in (2.0**660, 2.0**-560):
        far = DenseMatrix(scale * base)
        assert exact_two_to_inf(far).value == scale * exact_two_to_inf(DenseMatrix(base)).value
        one = adaptive_power(DenseMatrix(base), 6, RngStream(9))
        two = adaptive_power(far, 6, RngStream(9))
        assert two.value == scale * one.value
        assert not two.degenerate
    # The sampled estimators are not scale-safe: where the products overflow
    # they raise one error that says so, directly and on the transpose.
    huge = DenseMatrix([[1e200, 0.0], [0.0, 5e199]])
    for name in ("twinest", "twinest_pp", "rademacher_averaging"):
        for run in (METHODS[name], lambda a, m, r: estimate_one_to_two(a, name, m, r)):
            with pytest.raises(ValueError, match="overflow float64; rescale the operator"):
                run(huge, 6, RngStream(9))


@given(scale=st.floats(0.1, 10.0, allow_nan=False))
@settings(max_examples=30)
def test_scale_equivariance_general(scale):
    base = np.random.default_rng(51).standard_normal((8, 5))
    one = twinest(DenseMatrix(base), 4, RngStream(2))
    other = twinest(DenseMatrix(scale * base), 4, RngStream(2))
    assert other.selected_row == one.selected_row
    assert other.value == pytest.approx(scale * one.value, rel=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_all_methods_replay_identically(seed):
    base = np.random.default_rng(3).standard_normal((10, 6))
    for name, fn in METHODS.items():
        first = fn(DenseMatrix(base), 4, RngStream(seed))
        second = fn(DenseMatrix(base), 4, RngStream(seed))
        assert first == second, name
