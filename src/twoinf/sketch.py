"""Seeded sketching primitives.

Rademacher probe vectors, the Hutchinson-style diagonal estimator, the
thin-QR rangefinder, and the deflated (variance-reduced) diagonal
estimator built from them.

Randomness comes from :class:`RngStream`, a wrapper over numpy's Philox
counter-based bit generator.  For a fixed numpy version, a given seed
reproduces the identical stream on every platform and every run.
"""

from __future__ import annotations

import numpy as np

from .oplib import DeflatedGramOp, GramOp, LinearOp, _as_basis

__all__ = [
    "RngStream",
    "hutchinson_diag",
    "thin_qr",
    "lowrank_diag",
    "hutchpp_diag",
]

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

# Probes per block in hutchinson_diag.  A constant, so that the order of the
# float sums, and with it every result, never depends on the host or input.
_BLOCK = 64


class RngStream:
    """Deterministic random stream keyed by a 64-bit seed.

    Backed by ``numpy.random.Philox`` (counter-based).  Streams with
    distinct seeds are independent for practical purposes; a stream's
    draws depend on every earlier draw, so give each estimate its own.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _SEED_MASK
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def rademacher(self, size: int) -> np.ndarray:
        """Uniform +-1 entries, one fair bit each.

        Bits come LSB-first from raw little-endian 64-bit generator words,
        so the mapping is identical on every platform.  ``random_raw`` is
        the documented access point for the underlying word stream and
        avoids per-call bounded-integer overhead in the sampling loops.
        """
        if size < 1:
            raise ValueError(f"dimension must be positive, got {size}")
        words = self._gen.bit_generator.random_raw((size + 63) // 64)
        bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
        out = bits[:size].astype(np.float64)
        out *= 2.0
        out -= 1.0
        return out

    def normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, size) -> np.ndarray:
        return self._gen.random(size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed:#x})"


def _probe_block(rng: RngStream, d: int, k: int) -> np.ndarray:
    """``k`` Rademacher probes of length ``d``, the columns of a ``d x k`` block.

    One draw of ``k`` word-aligned rows: bit-identical to ``k`` calls of
    ``rng.rademacher(d)``, and it leaves the stream where they would.
    """
    w = 64 * -(-d // 64)
    return rng.rademacher(k * w).reshape(k, w)[:, :d].T


def _require_finite(values: np.ndarray) -> np.ndarray:
    """Reject a non-finite result; from finite entries only overflowing products give one."""
    if not np.all(np.isfinite(values)):
        raise ValueError(
            "non-finite values: products with the operator overflow float64; "
            "rescale the operator"
        )
    return values


def hutchinson_diag(op: LinearOp, m: int, rng: RngStream) -> np.ndarray:
    """Monte Carlo estimate of the diagonal of a square operator.

    Averages ``x * (op x)`` over ``m`` independent Rademacher probes.
    Unbiased for any square ``op``; the per-entry single-sample variance
    equals the squared off-diagonal row norm.  Consumes exactly ``m``
    applications of ``op``, made in blocks of up to 64 probes; the probes
    are those of ``m`` successive ``rng.rademacher`` draws.
    """
    if op.rows != op.cols:
        raise ValueError(
            f"diagonal estimation needs a square operator, got {op.rows}x{op.cols}"
        )
    if m < 1:
        raise ValueError(f"sample count must be positive, got {m}")
    acc = np.zeros(op.rows)
    # An overflowing product leaves a non-finite entry; _require_finite reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, m, _BLOCK):
            x = _probe_block(rng, op.rows, min(_BLOCK, m - start))
            acc += np.einsum("ij,ij->i", x, op.apply(x))
    return _require_finite(acc / m)


def thin_qr(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis whose range contains the range of ``mat``.

    Householder QR (LAPACK) in reduced mode: the returned ``d x r`` factor
    has orthonormal columns even when ``mat`` is rank deficient, in which
    case the surplus columns are deterministic directions produced by the
    trailing reflectors.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={mat.ndim}")
    d, r = mat.shape
    if r > d:
        raise ValueError(f"need at most as many columns as rows, got {d}x{r}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("input to thin_qr must be finite")
    return np.linalg.qr(mat, mode="reduced")[0]


def lowrank_diag(a: LinearOp, q: np.ndarray) -> np.ndarray:
    """Exact diagonal of ``A A^T Q Q^T`` for an orthonormal ``Q``.

    Entry ``i`` is the inner product of row ``i`` of ``A A^T Q`` with row
    ``i`` of ``Q``; forming ``A (A^T Q)`` as one block consumes exactly
    ``2 r`` matvecs.  An empty ``Q`` yields the zero vector at zero cost.
    """
    q = _as_basis(q, a.rows)
    return np.einsum("ij,ij->i", GramOp(a).apply(q), q)


def _hutchpp_split(m: int, d: int) -> tuple[int, int]:
    """Sketch width and residual sample count of a budget of ``m`` on side ``d``."""
    r = min(m // 3, d)
    return r, m - 2 * r


def hutchpp_diag(a: LinearOp, m: int, rng: RngStream) -> np.ndarray:
    """Variance-reduced estimate of the diagonal of ``A A^T``.

    Splits the budget three ways: a Rademacher sketch ``S`` with
    ``floor(m/3)`` columns, an orthonormal basis ``Q`` for ``A A^T S``,
    and Hutchinson probing of the deflated residual ``A A^T (I - Q Q^T)``
    with the remaining samples.  The low-rank part ``diag(A A^T Q Q^T)``
    is computed exactly, the residual part stochastically, and the two
    are summed.  Total cost is exactly ``2 m`` matvecs on ``a``.

    The sketch width is capped at the operator side ``d``; surplus budget
    goes to residual samples (deflation cannot use more than ``d``
    directions).  The sketch is applied as one block; an image that
    overflows float64 raises before the QR.
    """
    if m < 3:
        raise ValueError(f"budget must be at least 3, got {m}")
    d = a.rows
    r, residual_samples = _hutchpp_split(m, d)
    with np.errstate(over="ignore", invalid="ignore"):
        image = GramOp(a).apply(_probe_block(rng, d, r))
    _require_finite(image)
    q = thin_qr(image)
    low = lowrank_diag(a, q)
    return _require_finite(low + hutchinson_diag(DeflatedGramOp(a, q), residual_samples, rng))
