import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoinf import DeflatedGramOp, DenseMatrix, GramOp, TransposedOp, thin_qr


def test_dense_apply_extracts_column():
    a = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(a.apply([1.0, 0.0]), [1.0, 3.0])


def test_dense_apply_identity():
    a = DenseMatrix(np.eye(3))
    assert np.array_equal(a.apply([5.0, -2.0, 7.0]), [5.0, -2.0, 7.0])


def test_dense_apply_diagonal_scaling():
    a = DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(a.apply([1.0, 1.0]), [2.0, 1.0])


def test_dense_apply_dimension_mismatch_names_both_dimensions():
    a = DenseMatrix(np.ones((3, 2)))
    with pytest.raises(ValueError, match=r"length 2.*3x2"):
        a.apply(np.ones(3))
    with pytest.raises(ValueError, match=r"length 3.*3x2"):
        a.apply_transpose(np.ones(2))
    with pytest.raises(ValueError, match=r"length 2 or a 2xk block.*3x2"):
        a.apply(np.ones((3, 4)))
    with pytest.raises(ValueError, match=r"length 3 or a 3xk block.*3x2"):
        a.apply_transpose(np.ones((2, 4)))
    with pytest.raises(ValueError, match=r"length 2.*3x2.*\(2, 4, 1\)"):
        a.apply(np.ones((2, 4, 1)))


def test_dense_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        DenseMatrix([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        DenseMatrix([[np.nan]])


def test_adjoint_consistency_over_100_random_pairs():
    rng = np.random.default_rng(42)
    a = DenseMatrix(rng.standard_normal((13, 7)))
    for _ in range(100):
        x = rng.standard_normal(7)
        y = rng.standard_normal(13)
        ax = a.apply(x)
        aty = a.apply_transpose(y)
        lhs = float(ax @ y)
        rhs = float(x @ aty)
        assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(ax) * np.linalg.norm(y) + 1.0)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 9), cols=st.integers(1, 9))
@settings(max_examples=50)
def test_adjoint_consistency_property(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = DenseMatrix(rng.standard_normal((rows, cols)))
    x = rng.standard_normal(cols)
    y = rng.standard_normal(rows)
    ax = a.apply(x)
    lhs = float(ax @ y)
    rhs = float(x @ a.apply_transpose(y))
    assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(ax) * np.linalg.norm(y) + 1.0)


def test_gram_apply_diagonal():
    g = GramOp(DenseMatrix([[2.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(g.apply([1.0, 0.0]), [4.0, 0.0])


def test_gram_apply_identity():
    g = GramOp(DenseMatrix(np.eye(2)))
    assert np.array_equal(g.apply([3.0, -5.0]), [3.0, -5.0])


def test_gram_apply_single_row():
    # A = [[1, 1]] has A A^T = [2]
    g = GramOp(DenseMatrix([[1.0, 1.0]]))
    assert np.array_equal(g.apply([1.0]), [2.0])


def test_gram_matches_explicit_formation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d, n = rng.integers(1, 51, size=2)
        a = DenseMatrix(rng.standard_normal((d, n)))
        b = a.array @ a.array.T
        x = rng.standard_normal(d)
        got = GramOp(a).apply(x)
        want = b @ x
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10 * max(1.0, np.abs(want).max()))


def test_gram_costs_exactly_two_inner_matvecs_per_apply():
    a = DenseMatrix(np.arange(6, dtype=float).reshape(2, 3))
    g = GramOp(a)
    for k in range(1, 6):
        g.apply(np.ones(2))
        assert a.matvec_count == 2 * k
        assert g.matvec_count == k
    # A 2 x k block is k applications: 2k inner matvecs.
    g.apply(np.ones((2, 7)))
    assert a.matvec_count == 2 * 5 + 2 * 7
    assert g.matvec_count == 5 + 7


def test_gram_dimension_mismatch():
    g = GramOp(DenseMatrix(np.ones((2, 5))))
    with pytest.raises(ValueError, match="length 2"):
        g.apply(np.ones(5))


def test_deflated_full_range_annihilates():
    rng = np.random.default_rng(3)
    a = DenseMatrix(rng.standard_normal((12, 4)))  # Gram has rank 4
    q = thin_qr(a.array @ (a.array.T @ rng.standard_normal((12, 4))))
    op = DeflatedGramOp(a, q)
    x = rng.standard_normal(12)
    gram_scale = np.linalg.norm(a.array @ (a.array.T @ x))
    assert np.linalg.norm(op.apply(x)) <= 1e-8 * gram_scale


def test_deflated_empty_basis_matches_gram():
    rng = np.random.default_rng(4)
    a = DenseMatrix(rng.standard_normal((6, 5)))
    x = rng.standard_normal(6)
    deflated = DeflatedGramOp(a, np.empty((6, 0))).apply(x)
    plain = GramOp(DenseMatrix(a.array)).apply(x)
    assert np.array_equal(deflated, plain)


def test_deflated_hand_example():
    a = DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    q = np.array([[1.0], [0.0]])
    op = DeflatedGramOp(a, q)
    assert np.array_equal(op.apply([1.0, 1.0]), [0.0, 1.0])


def test_deflated_rejects_non_orthonormal_basis():
    a = DenseMatrix(np.eye(3))
    with pytest.raises(ValueError, match="orthonormal"):
        DeflatedGramOp(a, np.full((3, 2), 0.9))


def test_deflated_rejects_mismatched_basis():
    a = DenseMatrix(np.eye(3))
    with pytest.raises(ValueError, match="3xr"):
        DeflatedGramOp(a, np.eye(4)[:, :2])


def test_deflated_projection_costs_zero_matvecs():
    a = DenseMatrix(np.eye(4))
    op = DeflatedGramOp(a, np.eye(4)[:, :2])
    op.apply(np.ones(4))
    assert a.matvec_count == 2  # the projection itself is free


def test_matvec_counter_monotone_and_exact():
    a = DenseMatrix(np.ones((2, 2)))
    seen = [a.matvec_count]
    a.apply(np.ones(2))
    seen.append(a.matvec_count)
    a.apply_transpose(np.ones(2))
    seen.append(a.matvec_count)
    assert seen == [0, 1, 2]


def test_counter_unaffected_by_failed_calls():
    a = DenseMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        a.apply(np.ones(2))
    with pytest.raises(ValueError):
        a.apply(np.ones((2, 5)))
    with pytest.raises(ValueError):
        a.apply_transpose(np.ones((2, 3, 1)))
    assert a.matvec_count == 0


def test_transposed_op_swaps_roles():
    rng = np.random.default_rng(5)
    a = DenseMatrix(rng.standard_normal((4, 6)))
    at = TransposedOp(a)
    assert (at.rows, at.cols) == (6, 4)
    x = rng.standard_normal(4)
    assert np.array_equal(at.apply(x), a.array.T @ x)
    y = rng.standard_normal(6)
    assert np.array_equal(at.apply_transpose(y), a.array @ y)
    assert a.matvec_count == 2
