import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoinf import (DeflatedGramOp, DenseMatrix, GramOp, LinearOp, RngStream, TransposedOp,
                    hutchinson_diag, lowrank_diag, thin_qr)
from twoinf.estimators import METHODS


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
    # Complex entries would lose their imaginary part: [[3+4j]] has norm 5, not 3.
    for entries in ([[3 + 4j, 0.0], [1.0, 1.0]], np.array([[1.0]], dtype=np.complex64)):
        with pytest.raises(ValueError, match="real"):
            DenseMatrix(entries)


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
    # The second is finite, but its Q^T Q overflows: the ValueError, not
    # numpy's overflow warning, must report it.
    for basis in (np.full((3, 2), 0.9), [[1e200, 1e200], [1e200, -1e200], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="orthonormal"):
            DeflatedGramOp(a, basis)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_basis_raises_naming_the_basis(bad):
    a = DenseMatrix(np.eye(3))
    basis = np.eye(3)[:, :2]
    basis[1, 1] = bad
    with pytest.raises(ValueError, match="basis entries must all be finite"):
        hutchinson_diag(DeflatedGramOp(a, basis), 4, RngStream(0))
    with pytest.raises(ValueError, match="basis entries must all be finite"):
        lowrank_diag(a, basis)
    assert a.matvec_count == 0


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


# ---------------------------------------------------------------------------
# the shapes operators return


class _BrokenOp(LinearOp):
    """A 6x4 matrix whose products break the operator contract in one way."""

    def __init__(self, fault):
        super().__init__(6, 4)
        self.a = np.arange(24.0).reshape(6, 4)
        self.fault = fault

    def _apply(self, x):
        out = self.a @ x
        return out[:, :1] if self.fault == "first_column" and x.ndim == 2 else out

    def _apply_transpose(self, y):
        out = self.a.T @ y
        if self.fault == "one_short":
            return out[:-1]
        return out[:, :1] if self.fault == "first_column" and y.ndim == 2 else out


def test_products_of_the_wrong_shape_raise():
    short = _BrokenOp("one_short")
    assert short.apply(np.ones(4)).shape == (6,)
    with pytest.raises(ValueError, match=r"^_BrokenOp \(6x4\): apply_transpose of shape "
                                         r"\(6,\) returned shape \(3,\), expected \(4,\)$"):
        short.apply_transpose(np.ones(6))
    first = _BrokenOp("first_column")
    assert first.apply(np.ones(4)).shape == (6,)
    with pytest.raises(ValueError, match=r"^_BrokenOp \(6x4\): apply of shape \(4, 5\) "
                                         r"returned shape \(6, 1\), expected \(6, 5\)$"):
        first.apply(np.ones((4, 5)))
    # The estimators meet the error instead of returning a wrong value;
    # only the sampled ones send blocks.
    for fault, names in (("one_short", list(METHODS)),
                         ("first_column", ["twinest", "twinest_pp", "rademacher_averaging"])):
        for name in names:
            with pytest.raises(ValueError, match="returned shape"):
                METHODS[name](_BrokenOp(fault), 4, RngStream(0))


def test_package_operators_check_their_results():
    class ShortDense(DenseMatrix):
        def _apply(self, x):
            return super()._apply(x)[:-1]

    op = ShortDense(np.ones((3, 2)))
    # A product BLAS makes and one the matrix answers by a read.
    for x in (np.ones(2), np.array([0.0, -1.0])):
        with pytest.raises(ValueError, match=r"^ShortDense \(3x2\): apply of shape \(2,\) "
                                             r"returned shape \(2,\), expected \(3,\)$"):
            op.apply(x)
    # The composites that wrap it meet the same error.
    with pytest.raises(ValueError, match="^ShortDense"):
        GramOp(op).apply(np.ones(3))
    with pytest.raises(ValueError, match="^ShortDense"):
        TransposedOp(op).apply_transpose(np.ones(2))


def test_products_are_read_as_float64():
    class ListOp(LinearOp):
        def _apply(self, x):
            return [float(v) for v in 2 * x]

        def _apply_transpose(self, y):
            return (3 * y).astype(np.float32)

    op = ListOp(2, 2)
    out = op.apply(np.array([1.0, 2.0]))
    assert out.dtype == np.float64 and np.array_equal(out, [2.0, 4.0])
    assert op.apply_transpose(np.ones(2)).dtype == np.float64

    class ComplexOp(ListOp):
        def _apply_transpose(self, y):
            return y + 1j

    op = ComplexOp(2, 2)
    with pytest.raises(ValueError, match=r"ComplexOp \(2x2\): apply_transpose .* complex"):
        op.apply_transpose(np.ones((2, 3)))

    # Complex inputs raise too, before any product is made or counted,
    # instead of losing their imaginary part.
    a = DenseMatrix(np.eye(3))
    for product, x in ((a.apply, [1 + 1j, 0.0, 0.0]), (a.apply, np.ones(3, np.complex64)),
                       (a.apply_transpose, np.ones((3, 2), complex))):
        with pytest.raises(ValueError, match=rf"^DenseMatrix \(3x3\): {product.__name__} "
                                             r"input must be real, got complex"):
            product(x)
    with pytest.raises(ValueError, match=r"^GramOp \(3x3\): apply input must be real"):
        GramOp(a).apply(np.ones(3) * 1j)
    assert a.matvec_count == 0


# ---------------------------------------------------------------------------
# products with a one-nonzero vector read the matrix


def _special_matrix(seed, rows, cols):
    """Gaussian entries with signed zeros, subnormals and entries near 1e300 mixed in."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols))
    kind = rng.integers(5, size=(rows, cols))
    a[kind == 1] = 0.0
    a[kind == 2] = -0.0
    a[kind == 3] *= 1e-310
    a[kind == 4] *= 1e300
    return a


def _zeros_unsigned(v):
    return np.where(v == 0.0, 0.0, v).tobytes()


def _check_products(op, c, j, i):
    """``op`` against BLAS on ``c e_j``, ``c e_i`` and inputs that must go to BLAS."""
    a = op.array.copy()
    count = op.matvec_count
    for product, m, k in ((op.apply, a, j), (op.apply_transpose, a.T, i)):
        v = np.zeros(m.shape[1])
        v[k] = c
        with np.errstate(all="ignore"):
            # The read: the same values, the same bytes but for a zero's sign.
            got, want = product(v), m @ v
            count += 1
            assert op.matvec_count == count
            assert np.array_equal(got, want)
            assert _zeros_unsigned(got) == _zeros_unsigned(want)
            got[:] = 7.0  # a new array, not a view of the matrix
            # A block, the zero vector and a two-nonzero vector go to BLAS.
            others = [v[:, None], np.stack([v, -v], axis=1), np.zeros_like(v)]
            if len(v) > 1:
                others.append(v.copy())
                others[-1][(k + 1) % len(v)] = 0.5
            for w in others:
                assert product(w).tobytes() == (m @ w).tobytes()
                count += 1 if w.ndim == 1 else w.shape[1]
                assert op.matvec_count == count
    assert op.array.tobytes() == a.tobytes()


_COEFFICIENTS = st.one_of(
    st.sampled_from([1.0, -1.0, 1e-300, -3e200]),
    st.floats(allow_nan=False, allow_infinity=False).filter(bool),
)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), cols=st.integers(1, 40),
       c=_COEFFICIENTS, j=st.integers(0, 39), i=st.integers(0, 39))
@example(seed=0, rows=1, cols=40, c=-1.0, j=39, i=0)
@example(seed=1, rows=40, cols=1, c=-3e200, j=0, i=17)
@settings(max_examples=300, deadline=None)
def test_one_nonzero_products_read_the_matrix(seed, rows, cols, c, j, i):
    op = DenseMatrix(_special_matrix(seed, rows, cols))
    _check_products(op, c, j % cols, i % rows)


class _NoMatmul(np.ndarray):
    def __matmul__(self, other):
        raise AssertionError("a one-nonzero product went to BLAS")


# Every size reads, from one entry up to the extremes of shape.
@pytest.mark.parametrize("shape", [(1, 20_000), (20_000, 1), (150, 150), (2000, 50),
                                   (1, 1), (2, 3), (3, 2), (12, 12)])
def test_one_nonzero_products_read_at_the_size_limit(shape):
    op = DenseMatrix(_special_matrix(3, *shape))
    for c in (1.0, -3e200, 1e-300):
        _check_products(op, c, shape[1] - 1, shape[0] // 2)
    # The read makes no matmul: a matrix that refuses one still answers.
    op.array = op.array.view(_NoMatmul)
    e = np.zeros(shape[1])
    e[0] = -2.0
    assert np.array_equal(op.apply(e), -2.0 * op.array[:, 0])
    e = np.zeros(shape[0])
    e[-1] = 0.5
    assert np.array_equal(op.apply_transpose(e), 0.5 * op.array[-1])
