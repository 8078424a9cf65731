"""Matrix-free linear operators with matvec call accounting.

Estimators in this package touch a matrix only through the
:class:`LinearOp` interface: forward products ``x -> A x``, transpose
products ``y -> A^T y``, each on one vector or on a block of vectors
stacked as columns, and a counter recording how many products were made.
Composite operators (Gram, deflated Gram, transpose) route every product
through the operator they wrap, so the wrapped operator's counter always
reflects the true number of products with ``A`` and ``A^T``.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "LinearOp",
    "DenseMatrix",
    "GramOp",
    "DeflatedGramOp",
    "TransposedOp",
]

ORTHONORMALITY_TOL = 1e-10

_F64 = np.dtype(np.float64)


def _real(values, what: str) -> np.ndarray:
    """``values`` as a float64 array; complex values raise a ``ValueError`` naming ``what``.

    numpy's own cast would drop the imaginary part with only a ``ComplexWarning``.
    """
    values = np.asarray(values)
    if values.dtype is _F64:
        return values
    if values.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got {values.dtype} values")
    return values.astype(_F64)


def _checked(values, what: str, ndim: int) -> np.ndarray:
    """``values`` read by :func:`_real`; raises unless it is a finite ``ndim``-d array."""
    values = _real(values, what)
    if values.ndim != ndim:
        raise ValueError(f"{what} must be {ndim}-d, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} entries must all be finite")
    return values


def _as_basis(basis, rows: int) -> np.ndarray:
    """``basis`` read by :func:`_checked`; raises unless it also has ``rows`` rows."""
    basis = _checked(basis, "basis", 2)
    if basis.shape[0] != rows:
        raise ValueError(
            f"basis must be {rows}xr for an operator with {rows} rows, got shape {basis.shape}"
        )
    return basis


class LinearOp(ABC):
    """A ``rows x cols`` real linear operator accessed through products.

    Subclasses implement ``_apply`` and ``_apply_transpose`` for a vector
    and for a block of vectors stacked as columns; the public methods
    validate the shapes that go in and come out, and maintain the matvec
    counter.  The counter is monotone non-decreasing and increments by
    exactly one per product, in either direction: a block of k columns
    counts k.  A result may be read-only or an array the operator keeps:
    no code in the package writes into one.

    Every input and result is read as float64, and a result must have the
    shape the product promises, whichever class made it: a complex input,
    or a complex, short or misshapen result, raises instead of losing its
    imaginary part or reaching an estimator.

    Instances are immutable after construction except for the counter,
    which is a plain integer and counts every product made on the
    instance; a subclass may also keep state that changes no answer.
    Estimates may share an operator: each reports its own counter
    difference, so the counter holds the sum over them.
    """

    def __init__(self, rows: int, cols: int):
        rows, cols = operator.index(rows), operator.index(cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"operator dimensions must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self._matvecs = 0
        # The name every product's error message and the repr begin with.
        self._label = f"{type(self).__name__} ({rows}x{cols})"

    @property
    def matvec_count(self) -> int:
        """Number of ``A``/``A^T`` products made on this operator."""
        return self._matvecs

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``A x``; a ``cols x k`` block ``X`` gives ``A X`` and counts k matvecs."""
        return self._product("apply", self._apply, x, self.cols, self.rows)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """Return ``A^T y``; a ``rows x k`` block ``Y`` gives ``A^T Y`` and counts k matvecs."""
        return self._product("apply_transpose", self._apply_transpose, y, self.rows, self.cols)

    def _product(self, name: str, product, x, side: int, out_side: int) -> np.ndarray:
        """Count and make one product, checking the shapes that go in and come out.

        ``x`` must be a real vector of length ``side`` or a real ``side x k``
        block, which counts k matvecs.  The result, read as float64, must be
        real and a vector of length ``out_side`` or an ``out_side x k`` block.
        """
        x = _real(x, f"{self._label}: {name} input")
        if x.ndim not in (1, 2) or x.shape[0] != side:
            raise ValueError(
                f"{name} expects a vector of length {side} or a {side}xk block "
                f"(operator is {self.rows}x{self.cols}), got shape {x.shape}"
            )
        self._matvecs += 1 if x.ndim == 1 else x.shape[1]
        out = _real(product(x), f"{self._label}: {name} result")
        expected = (out_side, *x.shape[1:])
        if out.shape != expected:
            raise ValueError(
                f"{self._label}: {name} of shape {x.shape} "
                f"returned shape {out.shape}, expected {expected}"
            )
        return out

    @abstractmethod
    def _apply(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _apply_transpose(self, y: np.ndarray) -> np.ndarray: ...

    def __repr__(self) -> str:
        return f"<{self._label}, matvecs={self._matvecs}>"


class DenseMatrix(LinearOp):
    """Row-major dense matrix acting as its own exact matvec oracle.

    ``entries`` is stored as a C-contiguous float64 array; entries that are
    complex, not finite or not 2-d raise.  ``array`` is a read-only view of
    it, and it is not copied: an array that is already C-contiguous float64
    is shared with the caller, who must not write into it afterwards.  The entries must not change
    after construction, because of the memo below.

    Each direction answers a product by the first of these rules that
    applies.  A block goes to BLAS.  A vector whose bytes equal the
    direction's last vector input gets a new copy of the answer kept for
    it, as the power method's iterate does once it settles on a row.  A
    vector with one nonzero entry ``c`` at ``j`` is read from the matrix,
    at every size: ``A (c e_j)`` is ``c A[:, j]`` and ``A^T (c e_j)`` is
    ``c A[j]``.  Any other vector goes to BLAS.  The last two keep the
    input and a private copy of the answer, one pair per direction.

    A read equals BLAS entry for entry; only the sign of a zero can
    differ, and no estimator reads it.  A kept answer holds the bits BLAS
    gives again for the same input bits in one process at one thread
    count, so the memo changes no value.  Every product, repeated or not,
    counts one matvec.
    """

    def __init__(self, entries):
        arr = np.ascontiguousarray(_checked(entries, "matrix", 2))
        super().__init__(arr.shape[0], arr.shape[1])
        self.array = arr.view()
        self.array.flags.writeable = False
        # (input bytes, answer) of the last vector, forward and transpose.
        # Each slot is replaced by one assignment, so estimates that share
        # the operator across threads never see a key with another answer.
        self._last = [None, None]

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self._answer(0, self.array, x)

    def _apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return self._answer(1, self.array.T, y)

    def _answer(self, side: int, m: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``m @ x`` by the class's rule; ``side`` picks the direction's memo."""
        if x.ndim != 1:
            return m @ x
        key = x.tobytes()
        last = self._last[side]
        if last is not None and last[0] == key:
            return last[1].copy()
        if np.count_nonzero(x) == 1:
            j = np.abs(x).argmax()
            out = m[:, j] * x[j]
        else:
            out = m @ x
        self._last[side] = (key, out.copy())
        return out


def _as_dense(mat) -> DenseMatrix:
    """``mat`` itself if it is a :class:`DenseMatrix`, else a plain array read as one."""
    return mat if isinstance(mat, DenseMatrix) else DenseMatrix(mat)


class GramOp(LinearOp):
    """The symmetric PSD operator ``B = A A^T`` built from products with ``A``.

    One application computes ``A (A^T x)`` through the wrapped operator's
    counted ``apply_transpose`` and ``apply``, and therefore costs exactly
    two matvecs on it per column; :class:`DeflatedGramOp` forms the same
    product from its projected input.  ``B`` is symmetric, so transpose
    application is the same map.
    """

    def __init__(self, inner: LinearOp):
        super().__init__(inner.rows, inner.rows)
        self.inner = inner

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.inner.apply(self.inner.apply_transpose(x))

    def _apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return self._apply(y)


class DeflatedGramOp(GramOp):
    """The residual operator ``x -> A A^T (I - Q Q^T) x``.

    ``basis`` must be real and finite, with orthonormal columns (checked
    to 1e-10 on entry).  The projection ``x - Q (Q^T x)`` is plain dense
    arithmetic and costs zero matvecs; the Gram application costs two on
    the wrapped operator.  An empty basis (r = 0) makes this identical to
    :class:`GramOp`.

    A forward product of a ``d x k`` block holds the projected block only
    through the ``A^T`` product: it is freed before ``A (A^T P x)`` is
    formed.  So besides ``Q``, at most two ``d x k`` arrays are alive at
    once: the block and its projection, then the block and its image.
    """

    def __init__(self, inner: LinearOp, basis: np.ndarray):
        basis = _as_basis(basis, inner.rows)
        # An overflowing Q^T Q gives an inf or NaN defect, which the test
        # below rejects ("not defect <= tol" fails on a NaN too), so numpy's
        # warnings on the way there are not needed.
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max(initial=0.0)
        if not defect <= ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal: max |Q^T Q - I| = {defect:.3e}"
            )
        super().__init__(inner)
        self.basis = basis

    def _project_out(self, x: np.ndarray) -> np.ndarray:
        # (I - Q Q^T) x, associated so that a block's columns are the rows
        # of the products: with OpenBLAS this packs less of its buffers than
        # Q (Q^T x), about 0.5 MB less resident memory on a 2000x80 basis.
        # The difference overwrites the product, so one temporary holds it;
        # its transpose has the layout x - t.T would have.
        t = (x.T @ self.basis) @ self.basis.T
        np.subtract(x.T, t, out=t)
        return t.T

    def _apply(self, x: np.ndarray) -> np.ndarray:
        # One expression, so the projected block is a temporary that dies
        # with the A^T product; as a parameter of GramOp._apply it would
        # live on through the A product.
        return self.inner.apply(self.inner.apply_transpose(self._project_out(x)))

    def _apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return self._project_out(super()._apply(y))


class TransposedOp(LinearOp):
    """View of an operator with apply and apply_transpose swapped.

    Running a row-norm estimator on ``TransposedOp(a)`` estimates the
    maximum column norm of ``a``, i.e. its one-to-two norm.
    """

    def __init__(self, inner: LinearOp):
        super().__init__(inner.cols, inner.rows)
        self.inner = inner

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.inner.apply_transpose(x)

    def _apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return self.inner.apply(y)
