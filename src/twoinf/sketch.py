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

from .oplib import DeflatedGramOp, GramOp, LinearOp, _as_basis, _real

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
    """Reject a non-finite result, from overflowing products or from the operator itself."""
    if not np.all(np.isfinite(values)):
        raise ValueError(
            "non-finite values: products with the operator overflow float64; "
            "rescale the operator (or the operator itself returned a non-finite value)"
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

    The ``Q`` of a Householder QR, as a new ``d x r`` float64 array; ``mat``
    is left as it is, and may be read-only; a complex ``mat`` raises.  The
    columns are orthonormal even when ``mat`` is rank deficient, in which
    case the surplus columns are deterministic directions produced by the
    trailing reflectors.

    The QR is recursive and blocked (Elmroth and Gustavson, 2000).  The
    columns are split in halves down to leaves of at most ``_LEAF``
    columns, whose reflectors LAPACK computes; each leaf's compact-WY ``T``
    is the closed form ``(I + diag(tau) striu(V^T V))^{-1} diag(tau)``, one
    triangular solve (Joffrain et al., 2006).  The trailing updates, the
    joins of two ``T`` blocks and the forming of ``Q`` are matrix products,
    and ``R`` is never formed.  The Householder vectors ``V`` overwrite a
    copy of ``mat``, and ``Q = E + V M``, with ``M = -T V1^T``, is formed
    over that same copy in chunks of rows, so no second ``d x r`` array is
    allocated.  LAPACK's own ``dgeqrf``/``dorgqr`` run their unblocked,
    matrix-vector code below 128 columns, where every call is short and
    OpenBLAS synchronises its threads on each; that made the QR cost more
    than all the products of a 2000-row Hutch++ estimate.  At 40 to 133
    columns this is about twice as fast; at a few columns, or on a short
    side such as 50 x 50, its Python steps make it slower by up to about
    0.5 ms (``BENCH_qr.json``).

    The reflectors are LAPACK's up to rounding, so ``Q`` and LAPACK's
    reduced ``Q`` differ in rounding only on a full-rank input (their
    projectors agree to 1e-12); the surplus columns of a rank-deficient
    input differ entirely.
    """
    mat = _real(mat, "thin_qr input")
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={mat.ndim}")
    d, r = mat.shape
    if r > d:
        raise ValueError(f"need at most as many columns as rows, got {d}x{r}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("input to thin_qr must be finite")
    v = mat.copy()
    t = _reflectors(v)
    # Q = (I - V T V^T) E = E + V M, with E the first r columns of the
    # identity and V1 the top r x r block of V.  M is formed before V1 is
    # overwritten, and each chunk's product before its rows are.
    m = -t @ v[:r].T
    for start in range(0, d, _ROWS):
        chunk = v[start:start + _ROWS]
        chunk[...] = chunk @ m
    v[:r] += np.eye(r)
    return v


# Columns of a leaf of the recursive QR.  LAPACK factors a leaf with
# matrix-vector products, whose cost per column grows with the width;
# narrower leaves add Python-level steps (12 to 24 measured alike on the
# benchmark's sketches, BENCH_qr.json).
_LEAF = 16

# Rows per chunk of a trailing update and of forming Q.  A chunk's product
# is a temporary small enough to reuse heap memory; one as large as the
# trailing block is mapped afresh on each call, which took longer than the
# product itself.
_ROWS = 256


def _reflectors(a: np.ndarray) -> np.ndarray:
    """Overwrite ``a`` (``m x n``, ``m >= n``) with the Householder vectors of its QR.

    ``a`` ends as the unit lower trapezoidal ``V``, its ones and zeros
    written out; ``R`` is not kept.  Returns the upper triangular ``T`` with
    ``H_1 ... H_n = I - V T V^T``.
    """
    m, n = a.shape
    if n <= _LEAF:
        h, tau = np.linalg.qr(a, mode="raw")
        a[...] = h.T
        # LAPACK leaves R above the unit diagonal of V.
        top = a[:n]
        top[...] = np.tril(top, -1)
        np.fill_diagonal(top, 1.0)
        # T^{-1} = diag(1/tau) + striu(V^T V); the matrix solved here is unit
        # upper triangular, so a zero tau (H_i = I) needs no guard.
        return np.linalg.solve(np.eye(n) + tau[:, None] * np.triu(a.T @ a, 1), np.diag(tau))
    k = n // 2
    a1, a2 = a[:, :k], a[:, k:]
    t1 = _reflectors(a1)
    # Apply the first half's H^T = I - V1 T1^T V1^T to the second half.
    w = t1.T @ (a1.T @ a2)
    for start in range(0, m, _ROWS):
        a2[start:start + _ROWS] -= a1[start:start + _ROWS] @ w
    t2 = _reflectors(a2[k:])
    a2[:k] = 0.0  # R's top right block, where V is zero
    t = np.zeros((n, n))
    t[:k, :k] = t1
    t[k:, k:] = t2
    t[:k, k:] = -t1 @ (a1[k:].T @ a2[k:]) @ t2
    return t


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
    overflows float64 raises before it is factored, found by
    :func:`thin_qr`'s own scan and reported as an overflow.  ``Q`` comes from
    :func:`thin_qr`, which factors a copy, so the image may be read-only or
    an array the operator keeps, and it is freed once ``Q`` exists.

    With ``r`` sketch columns and residual blocks of ``k <= 64`` probes, the
    working set is ``d (r + 2k)`` floats beyond the probe draw's one byte
    per bit: ``Q``, a probe block and one more ``d x k`` block, since the
    deflated product holds its projected block only through the ``A^T``
    product (:class:`~twoinf.oplib.DeflatedGramOp`).  A sketch wider than
    ``2k`` columns peaks at ``2 d r`` instead: the sketch and its image,
    the image and the QR's copy, and ``Q`` and ``A A^T Q`` are each alive
    together.
    """
    if m < 3:
        raise ValueError(f"budget must be at least 3, got {m}")
    d = a.rows
    r, residual_samples = _hutchpp_split(m, d)
    with np.errstate(over="ignore", invalid="ignore"):
        image = GramOp(a).apply(_probe_block(rng, d, r))
    try:
        q = thin_qr(image)
    except ValueError:
        # The image is a real d x r block with r <= d, so thin_qr can only
        # have found a non-finite entry: its one scan of the image stands
        # for ours, which runs here only to say that the products overflowed.
        _require_finite(image)
        raise
    del image  # Q is the one d x r array from here on
    # As in the image, a non-finite entry is reported by the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        low = lowrank_diag(a, q)
    return _require_finite(low + hutchinson_diag(DeflatedGramOp(a, q), residual_samples, rng))
