import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoinf import (
    DeflatedGramOp,
    DenseMatrix,
    GramOp,
    RngStream,
    TransposedOp,
    dual_vector,
    hutchinson_diag,
    hutchpp_diag,
    lowrank_diag,
    thin_qr,
)
from twoinf.sketch import _BLOCK, _probe_block


# ---------------------------------------------------------------------------
# Rademacher stream


def test_rng_stream_takes_an_integer_seed():
    # int() would truncate 1.5 to seed 1's stream and parse "7".
    for seed in (1.5, np.float64(1.9), "7"):
        with pytest.raises(TypeError):
            RngStream(seed)
    for seed in (np.int64(7), np.uint8(7)):
        assert np.array_equal(RngStream(seed).normal(4), RngStream(7).normal(4))
    # The key is the seed mod 2^64.
    assert np.array_equal(RngStream(-1).normal(4), RngStream(2**64 - 1).normal(4))
    assert repr(RngStream(3)) == "RngStream(seed=0x3)"


def test_rademacher_values_and_replay():
    first = RngStream(123).rademacher(4)
    again = RngStream(123).rademacher(4)
    assert np.array_equal(first, again)
    assert set(np.unique(first)) <= {-1.0, 1.0}


def test_rademacher_zero_dim_rejected():
    with pytest.raises(ValueError, match="positive"):
        RngStream(0).rademacher(0)
    for size in (4.0, "4"):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            RngStream(0).rademacher(size)


def test_rademacher_empirical_mean():
    # Hoeffding: 3 sigma over 1e5 fair signs is ~0.0095, well inside the band.
    rng = RngStream(2024)
    draws = rng.rademacher(100_000)
    assert -0.02 <= draws.mean() <= 0.02


def test_rademacher_coordinate_independence():
    rng = RngStream(17)
    draws = np.stack([rng.rademacher(2) for _ in range(10_000)])
    corr = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert -0.05 <= corr <= 0.05


@given(seed=st.integers(0, 2**64 - 1))
@settings(max_examples=30)
def test_rademacher_deterministic_per_seed(seed):
    assert np.array_equal(
        RngStream(seed).rademacher(16), RngStream(seed).rademacher(16)
    )


def test_philox_golden_stream():
    # Pins numpy's Philox stream (values from numpy 2.4.6): a numpy release
    # that changes it changes every seeded result, so it must fail here first.
    assert RngStream(0)._gen.bit_generator.random_raw(2).tolist() == [
        213000021201967259, 4455796210202625458,
    ]
    assert RngStream(0).rademacher(8).tolist() == [1, 1, -1, 1, 1, -1, -1, 1]


def test_probe_block_matches_successive_draws():
    # The block is one draw of word-aligned rows: column j is the j-th of k
    # rademacher(d) calls, and the stream ends where those calls leave it.
    for d in (1, 50, 63, 64, 65, 127, 128, 129, 200):
        for k in (1, 3, _BLOCK):
            blocked, single = RngStream(d * k), RngStream(d * k)
            block = _probe_block(blocked, d, k)
            assert block.shape == (d, k)
            assert np.array_equal(block, np.stack([single.rademacher(d) for _ in range(k)], axis=1))
            assert np.array_equal(blocked.rademacher(d + 1), single.rademacher(d + 1))


# ---------------------------------------------------------------------------
# Hutchinson estimator


def test_hutchinson_exact_for_diagonal_operator():
    # Gram of diag(sqrt(2), 1): zero off-diagonal means zero variance.
    a = DenseMatrix(np.diag([np.sqrt(2.0), 1.0]))
    for m in (1, 5, 12):
        est = hutchinson_diag(GramOp(a), m, RngStream(m))
        assert est == pytest.approx([2.0, 1.0], rel=1e-14)


def test_hutchinson_identity_single_sample_exact():
    est = hutchinson_diag(DenseMatrix(np.eye(6)), 1, RngStream(0))
    assert np.array_equal(est, np.ones(6))


def test_hutchinson_ones_matrix_monte_carlo():
    # Per-entry single-sample variance is 1, so 1e4 samples give sigma 0.01.
    op = DenseMatrix(np.ones((2, 2)))
    est = hutchinson_diag(op, 10_000, RngStream(8))
    assert np.abs(est - 1.0).max() < 0.05


def test_hutchinson_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        hutchinson_diag(DenseMatrix(np.ones((2, 3))), 1, RngStream(0))


def test_hutchinson_rejects_zero_samples():
    with pytest.raises(ValueError, match="positive"):
        hutchinson_diag(DenseMatrix(np.eye(2)), 0, RngStream(0))


def test_hutchinson_consumes_exactly_m_applications():
    a = DenseMatrix(np.eye(5))
    g = GramOp(a)
    hutchinson_diag(g, 9, RngStream(1))
    assert g.matvec_count == 9
    assert a.matvec_count == 18


def test_hutchinson_deviation_quantile_within_union_bound():
    # Empirical 90% quantile of the sup-norm error against the
    # sqrt(2 log(2d/delta) / m) * max off-diagonal row norm envelope.
    rng0 = RngStream(303)
    mat = rng0.normal((10, 10))
    off = mat.copy()
    np.fill_diagonal(off, 0.0)
    envelope_scale = np.sqrt(np.einsum("ij,ij->i", off, off).max())
    true_diag = np.diag(mat).copy()
    delta = 0.1
    reps = 800
    stream = RngStream(404)
    for m in (16, 64, 256):
        sup_errors = np.empty(reps)
        for k in range(reps):
            est = hutchinson_diag(DenseMatrix(mat), m, stream)
            sup_errors[k] = np.abs(est - true_diag).max()
        bound = np.sqrt(2.0 * np.log(2 * 10 / delta) / m) * envelope_scale
        assert np.quantile(sup_errors, 1 - delta) <= bound


def _sequential_hutchinson(op, m, rng):
    # Reference: one probe and one product at a time, summed in probe order.
    acc = np.zeros(op.rows)
    for _ in range(m):
        x = rng.rademacher(op.rows)
        acc += x * op.apply(x)
    return acc / m


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    n=st.integers(1, 40),
    m=st.sampled_from((1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7)),
)
@settings(max_examples=25)
def test_hutchinson_blocks_match_sequential_probing(seed, d, n, m):
    # Blocks change only the order of float summation, so the diagonal
    # agrees to 1e-12 relative and the matvec count is the same.
    rng = np.random.default_rng(seed)
    entries = rng.standard_normal((d, n))
    q = thin_qr(rng.standard_normal((d, min(d, n) // 2)))
    square = rng.standard_normal((d, d))
    for make in (
        lambda: GramOp(DenseMatrix(entries)),
        lambda: DeflatedGramOp(DenseMatrix(entries), q),
        lambda: TransposedOp(DenseMatrix(square)),
    ):
        op, ref_op = make(), make()
        got = hutchinson_diag(op, m, RngStream(seed))
        want = _sequential_hutchinson(ref_op, m, RngStream(seed))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert op.matvec_count == ref_op.matvec_count == m
        assert op.inner.matvec_count == ref_op.inner.matvec_count


def test_hutchinson_replay_bit_identical():
    a = DenseMatrix(RngStream(5).normal((8, 8)))
    one = hutchinson_diag(DenseMatrix(a.array), 13, RngStream(55))
    two = hutchinson_diag(DenseMatrix(a.array), 13, RngStream(55))
    assert np.array_equal(one, two)


# ---------------------------------------------------------------------------
# Thin QR


def test_thin_qr_orthonormal_input_preserved_up_to_sign():
    mat = np.eye(7)[:, :3]
    q = thin_qr(mat)
    assert np.allclose(np.abs(q), mat, atol=1e-14)


def test_thin_qr_rank_deficient_completes_basis():
    mat = np.zeros((4, 2))
    mat[0, 0] = 1.0
    mat[0, 1] = 2.0  # second column parallel to the first
    q = thin_qr(mat)
    assert np.allclose(np.abs(q[:, 0]), [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert abs(q[:, 0] @ q[:, 1]) <= 1e-12
    assert np.linalg.norm(q[:, 1]) == pytest.approx(1.0, abs=1e-12)


def test_thin_qr_random_matrix_properties():
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((30, 5))
    q = thin_qr(mat)
    assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-10
    residual = mat - q @ (q.T @ mat)
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(mat)


def test_thin_qr_rejects_wide_input():
    with pytest.raises(ValueError, match="at most as many columns"):
        thin_qr(np.ones((2, 3)))


def test_complex_inputs_raise_naming_the_argument():
    # Each would otherwise lose its imaginary part with only a ComplexWarning.
    with pytest.raises(ValueError, match="^thin_qr input must be real, got complex128"):
        thin_qr(np.eye(3, 2) + 1j)
    a = DenseMatrix(np.eye(3))
    for basis in (np.eye(3, 2) * (1 + 0j), np.eye(3, 2).astype(np.complex64)):
        with pytest.raises(ValueError, match="^basis must be real, got complex"):
            DeflatedGramOp(a, basis)
        with pytest.raises(ValueError, match="^basis must be real, got complex"):
            lowrank_diag(a, basis)
    assert a.matvec_count == 0
    for p in (2, math.inf):
        with pytest.raises(ValueError, match="^dual_vector input must be real"):
            dual_vector(np.array([3 + 4j, 1.0]), p)


def test_thin_qr_empty_basis_passthrough():
    q = thin_qr(np.empty((5, 0)))
    assert q.shape == (5, 0)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 300), width=st.integers(1, 140),
       kind=st.sampled_from(["full", "deficient", "zero"]))
@example(seed=0, d=1, width=1, kind="full")  # one row
@example(seed=1, d=1, width=1, kind="zero")
@example(seed=2, d=16, width=16, kind="full")  # one whole leaf
@example(seed=3, d=300, width=17, kind="full")  # the first split
@example(seed=4, d=200, width=133, kind="deficient")
@example(seed=5, d=140, width=140, kind="full")
@settings(max_examples=60)
def test_thin_qr_range_containment_property(seed, d, width, kind):
    # Widths up to 140 cross every leaf and split boundary of the recursion.
    r = min(width, d)
    rng = np.random.default_rng(seed)
    if kind == "full":
        mat = rng.standard_normal((d, r))
    elif kind == "deficient":
        k = int(rng.integers(r))  # rank k < r
        mat = rng.standard_normal((d, k)) @ rng.standard_normal((k, r))
    else:
        mat = np.zeros((d, r))
    before = mat.copy()
    q = thin_qr(mat)
    assert np.array_equal(mat, before)
    assert q.dtype == np.float64 and q.shape == (d, r) and not np.shares_memory(q, mat)
    assert np.abs(q.T @ q - np.eye(r)).max() <= 1e-13
    assert np.linalg.norm(mat - q @ (q.T @ mat)) <= 1e-13 * np.linalg.norm(mat)
    if kind == "full":
        # Only rounding separates it from LAPACK's basis of the same range.
        ref = np.linalg.qr(mat)[0]
        assert np.abs(q @ q.T - ref @ ref.T).max() <= 1e-12


# ---------------------------------------------------------------------------
# Low-rank diagonal


def test_lowrank_diag_full_range_recovers_diagonal():
    rng = np.random.default_rng(11)
    a = DenseMatrix(rng.standard_normal((15, 4)))
    q = thin_qr(a.array @ (a.array.T @ rng.standard_normal((15, 4))))
    got = lowrank_diag(a, q)
    want = np.einsum("ij,ij->i", a.array, a.array)
    assert np.allclose(got, want, rtol=1e-8)


def test_lowrank_diag_empty_basis_is_zero_at_zero_cost():
    a = DenseMatrix(np.ones((3, 3)))
    assert np.array_equal(lowrank_diag(a, np.empty((3, 0))), np.zeros(3))
    assert a.matvec_count == 0


def test_lowrank_diag_hand_example():
    a = DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    q = np.array([[1.0], [0.0]])
    assert np.array_equal(lowrank_diag(a, q), [4.0, 0.0])


def test_lowrank_diag_costs_two_matvecs_per_column():
    a = DenseMatrix(np.eye(6))
    lowrank_diag(a, np.eye(6)[:, :4])
    assert a.matvec_count == 8


def test_lowrank_diag_rejects_mismatched_basis():
    with pytest.raises(ValueError, match="4xr"):
        lowrank_diag(DenseMatrix(np.ones((4, 2))), np.ones((3, 1)))


# ---------------------------------------------------------------------------
# Deflated diagonal estimator


def test_hutchpp_exact_under_full_deflation():
    # rank(A) <= floor(m/3): the sketch captures the whole Gram range and
    # the residual operator vanishes.
    rng = np.random.default_rng(13)
    a = DenseMatrix(rng.standard_normal((40, 8)))
    est = hutchpp_diag(a, 24, RngStream(1))
    want = np.einsum("ij,ij->i", a.array, a.array)
    assert np.allclose(est, want, rtol=1e-8)


def test_hutchpp_identity_exact_under_full_deflation():
    est = hutchpp_diag(DenseMatrix(np.eye(8)), 24, RngStream(2))
    assert np.abs(est - 1.0).max() <= 1e-10


def test_hutchpp_total_cost_is_two_m():
    for m in (3, 4, 5, 9, 10, 31):
        a = DenseMatrix(np.random.default_rng(m).standard_normal((12, 12)))
        est = hutchpp_diag(a, m, RngStream(m))
        assert a.matvec_count == 2 * m


def test_hutchpp_rejects_small_budget():
    with pytest.raises(ValueError, match="at least 3"):
        hutchpp_diag(DenseMatrix(np.eye(3)), 2, RngStream(0))


def test_hutchpp_sketch_width_capped_at_side():
    # m // 3 exceeds the operator side; surplus budget goes to residual
    # samples and the total cost stays 2m.
    a = DenseMatrix(np.random.default_rng(0).standard_normal((4, 4)))
    est = hutchpp_diag(a, 30, RngStream(3))
    assert a.matvec_count == 60
    want = np.einsum("ij,ij->i", a.array, a.array)
    assert np.allclose(est, want, rtol=1e-8)  # full deflation at r = 4


def test_hutchpp_beats_hutchinson_on_lowrank_structure():
    # The deflation pays off when the Gram spectrum is dominated by a few
    # directions; here a rank-5 signal plus small noise.  At an equal (and
    # even at a smaller) sample count, plain Hutchinson is far behind.
    rng0 = RngStream(99)
    base = rng0.normal((100, 5)) @ rng0.normal((5, 100)) + 0.2 * rng0.normal((100, 100))
    a = DenseMatrix(base)
    true_diag = np.einsum("ij,ij->i", a.array, a.array)
    trials = 80

    def mean_l2_error(estimator, m):
        errors = []
        for s in range(trials):
            est = estimator(m, RngStream(1000 + s))
            errors.append(np.linalg.norm(est - true_diag))
        return float(np.mean(errors))

    deflated = mean_l2_error(lambda m, r: hutchpp_diag(DenseMatrix(a.array), m, r), 30)
    plain_30 = mean_l2_error(
        lambda m, r: hutchinson_diag(GramOp(DenseMatrix(a.array)), m, r), 30
    )
    plain_20 = mean_l2_error(
        lambda m, r: hutchinson_diag(GramOp(DenseMatrix(a.array)), m, r), 20
    )
    assert deflated < plain_30
    assert deflated < plain_20


def test_hutchpp_working_set_is_one_basis_and_two_blocks():
    # 2000 x 50 at m = 3r: r sketch columns, then residual blocks of up to
    # 64 probes.  At its peak the estimate may hold Q and two d x 64
    # blocks, plus the probe draw's one byte per bit; the sketch image (a
    # second d x r array) and the projected block (a third d x 64) must be
    # freed by then.  From r = 100 the QR's first trailing update sets the
    # peak instead, at about 5 d r / 2 floats, as hutchpp_diag states.
    d = 2000
    a = DenseMatrix(np.random.default_rng(5).standard_normal((d, 50)))
    bits = _BLOCK * 64 * -(-d // 64)
    for r in (80, 100, 133, 160):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            hutchpp_diag(a, 3 * r, RngStream(5))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (8 * d * max(r + 2 * _BLOCK, 5 * r / 2) + bits), r


def test_hutchpp_replay_bit_identical():
    a = DenseMatrix(RngStream(21).normal((10, 10)))
    one = hutchpp_diag(DenseMatrix(a.array), 12, RngStream(77))
    two = hutchpp_diag(DenseMatrix(a.array), 12, RngStream(77))
    assert np.array_equal(one, two)


def test_diag_estimate_validation():
    with pytest.raises(ValueError, match="positive"):
        hutchinson_diag(DenseMatrix(np.eye(2)), 0, RngStream(0))
    with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
        hutchinson_diag(DenseMatrix(np.eye(2)), "4", RngStream(0))
    # Products of 1e200-scale entries overflow to inf and then NaN in the sum.
    with pytest.raises(ValueError, match="non-finite values: products with the operator overflow"):
        hutchinson_diag(GramOp(DenseMatrix(np.full((3, 3), 1e200))), 2, RngStream(0))


def test_deflated_residual_unbiased_composition():
    # Splitting diag(B) into exact low-rank part plus estimated residual
    # matches the plain estimate in expectation; check the exact identity
    # for a basis-aligned projector where both parts are deterministic.
    a = DenseMatrix(np.diag([3.0, 2.0, 1.0]))
    q = np.eye(3)[:, :1]
    low = lowrank_diag(a, q)
    resid = hutchinson_diag(DeflatedGramOp(a, q), 4, RngStream(0))
    assert np.allclose(low + resid, [9.0, 4.0, 1.0], rtol=1e-14)
