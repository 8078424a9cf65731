"""Estimators for the two-to-infinity and one-to-two operator norms.

The two-to-infinity norm of ``A`` is its maximum row l2 norm, equal to
the square root of the largest diagonal entry of ``B = A A^T``.  The
estimators here locate that entry through matvec products only:

* ``twinest`` -- Hutchinson-estimate ``diag(B)``, take the argmax row,
  then measure that row's norm exactly with one transpose product.
* ``twinest_pp`` -- same, but with the deflated (variance-reduced)
  diagonal estimate.
* ``rademacher_averaging`` -- ablation that reports the noisy maximum of
  the estimated diagonal itself, without the exact row measurement.
* ``adaptive_power`` -- dual-vector power iteration baseline; it can lock
  onto a non-maximal row with constant probability, so it serves as the
  comparison method, not a recommended estimator.

``estimate_one_to_two`` runs any of the above on the transposed
operator, since the one-to-two norm of ``A`` is the two-to-infinity norm
of ``A^T``.

The method table at the end of the module declares each method once: its
estimator, its matvec cost and its sample step.  ``METHODS`` and the cost
model (``budget_to_samples``, ``method_cost``, ``method_flops``) read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oplib import DenseMatrix, GramOp, LinearOp, TransposedOp
from .sketch import RngStream, _hutchpp_split, hutchinson_diag, hutchpp_diag

__all__ = [
    "NormEstimate",
    "GapReport",
    "exact_two_to_inf",
    "twinest",
    "twinest_pp",
    "rademacher_averaging",
    "dual_vector",
    "adaptive_power",
    "estimate_one_to_two",
    "compute_gap",
    "sufficient_m_twinest",
    "METHODS",
    "budget_to_samples",
    "method_cost",
    "method_flops",
]

DEFAULT_TIE_TOL = 1e-12

_TINY = np.finfo(np.float64).tiny


def _pow2_scale(arr: np.ndarray) -> float:
    """The power of two that takes the largest ``|entry|`` into [0.5, 1).

    Scaling by it is exact, so a sum of squares that overflows or falls
    below the smallest normal float can be formed on the scaled entries
    and its square root scaled back.
    """
    return math.ldexp(1.0, -math.frexp(float(np.abs(arr).max()))[1])


@dataclass(frozen=True)
class NormEstimate:
    """Result of one norm estimation run.

    ``selected_row`` is the 0-based row index whose exact norm is
    reported, for methods that select one.  ``degenerate`` marks an
    early exit of the power iteration on a degenerate operator; the
    value is then the best estimate seen so far.
    """

    value: float
    selected_row: int | None
    matvecs_used: int
    degenerate: bool = False


@dataclass(frozen=True)
class GapReport:
    """Largest squared row norm, the rows attaining it, and the gap below it."""

    max_sq_norm: float
    gap: float
    argmax_set: list[int]


def _measure_argmax_row(a: LinearOp, diag: np.ndarray, before: int) -> NormEstimate:
    """Select the argmax row of ``diag`` and measure its exact norm.

    Ties go to the smallest index; the measurement is one transpose product.
    """
    j = int(np.argmax(diag))
    e = np.zeros(a.rows)
    e[j] = 1.0
    row = a.apply_transpose(e)
    return NormEstimate(float(np.linalg.norm(row)), j, a.matvec_count - before)


def exact_two_to_inf(mat: DenseMatrix) -> NormEstimate:
    """Maximum row l2 norm by direct entry access; zero matvecs.

    Ties break to the smallest row index.  When the largest squared row
    norm overflows or falls below the smallest normal float, the norms are
    measured on a copy rescaled by a power of two.
    """
    scale = 1.0
    sq = mat.row_squared_norms()
    if not _TINY <= sq.max() < math.inf:
        scale = _pow2_scale(mat.array)
        sq = DenseMatrix(scale * mat.array).row_squared_norms()
    j = int(np.argmax(sq))
    return NormEstimate(float(np.sqrt(sq[j]) / scale), j, 0)


def twinest(a: LinearOp, m: int, rng: RngStream) -> NormEstimate:
    """Two-to-infinity norm estimate from ``m`` diagonal samples.

    Hutchinson-estimates ``diag(A A^T)`` (2 matvecs per sample), selects
    the argmax entry (ties to the smallest index), and returns the exact
    norm of that row via one transpose product: ``2 m + 1`` matvecs.
    The returned value is always the exact norm of some row, so it never
    exceeds the true norm; the only error mode is selecting a
    non-maximal row.
    """
    before = a.matvec_count
    return _measure_argmax_row(a, hutchinson_diag(GramOp(a), m, rng).values, before)


def twinest_pp(a: LinearOp, m: int, rng: RngStream) -> NormEstimate:
    """Variance-reduced variant of :func:`twinest` on a budget of ``m``.

    Uses the deflated diagonal estimate (sketch + exact low-rank diagonal
    + residual probing) in place of plain Hutchinson sampling; ``2 m + 1``
    matvecs total.  When the sketch captures the whole range of ``A`` the
    diagonal is exact and so is the recovered norm.
    """
    before = a.matvec_count
    return _measure_argmax_row(a, hutchpp_diag(a, m, rng).values, before)


def rademacher_averaging(a: LinearOp, m: int, rng: RngStream) -> NormEstimate:
    """Ablation: the noisy maximum of the estimated diagonal, no exact step.

    Returns ``sqrt(max(0, max_i D_i))`` over the Hutchinson estimate
    ``D`` of ``diag(A A^T)``; ``2 m`` matvecs.  The square root puts the
    squared-norm estimate on the same scale as the other methods, and
    negatives (possible, since ``D`` is noisy) clamp to zero because the
    true diagonal is non-negative.
    """
    before = a.matvec_count
    diag = hutchinson_diag(GramOp(a), m, rng)
    value = math.sqrt(max(0.0, float(np.max(diag.values))))
    return NormEstimate(value, None, a.matvec_count - before)


def dual_vector(x: np.ndarray, p: float) -> np.ndarray:
    """Normalized dual of ``x`` under the l2 or l-infinity norm.

    For ``p = 2``: ``x / ||x||_2``.  For ``p = inf``: the mean of signed
    basis vectors over the set of coordinates attaining ``||x||_inf``,
    with membership decided by exact comparison against the computed
    maximum.  The zero vector has no dual and raises.  For ``p = 2``, a
    vector whose sum of squares overflows or falls below the smallest
    normal float is first rescaled by a power of two.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={x.ndim}")
    if not np.any(x):
        raise ValueError("dual vector of the zero vector is undefined")
    if p == 2:
        with np.errstate(over="ignore"):
            sq = x.dot(x)  # np.linalg.norm(x) is sqrt(x.dot(x))
        if not _TINY <= sq < math.inf:
            x = _pow2_scale(x) * x
            sq = x.dot(x)
        return x / np.sqrt(sq)
    if p == math.inf:
        mag = np.abs(x)
        members = mag == mag.max()
        out = np.zeros_like(x)
        out[members] = np.sign(x[members]) / members.sum()
        return out
    raise ValueError(f"p must be 2 or inf, got {p}")


def adaptive_power(a: LinearOp, m: int, rng: RngStream) -> NormEstimate:
    """Dual-vector power iteration baseline for the two-to-infinity norm.

    Starts from a standard normal vector and alternates
    ``y = dual_inf(A x)``, ``x = dual_2(A^T y)`` for ``m`` iterations,
    returning ``||A x||_inf``: ``2 m + 1`` matvecs.  The iteration can
    settle on a non-maximal row and stay there, so the returned value is
    not a consistent estimator.  If an iterate collapses to the zero
    vector (degenerate operators only), the best value seen so far is
    returned with ``degenerate=True``.
    """
    if m < 1:
        raise ValueError(f"iteration count must be positive, got {m}")
    before = a.matvec_count
    x = rng.normal(a.cols)
    best = 0.0
    for _ in range(m):
        ax = a.apply(x)
        if not np.any(ax):
            return NormEstimate(best, None, a.matvec_count - before, degenerate=True)
        best = max(best, float(np.abs(ax).max()))
        y = dual_vector(ax, math.inf)
        aty = a.apply_transpose(y)
        if not np.any(aty):
            return NormEstimate(best, None, a.matvec_count - before, degenerate=True)
        x = dual_vector(aty, 2)
    value = float(np.abs(a.apply(x)).max())
    return NormEstimate(value, None, a.matvec_count - before)


def estimate_one_to_two(a: LinearOp, method: str, m: int, rng: RngStream) -> NormEstimate:
    """Estimate the one-to-two norm (maximum column l2 norm) of ``a``.

    Runs the estimator :data:`METHODS` names ``method`` on the transposed
    operator.
    """
    _cost_entry(method)  # raises on an unknown method
    return METHODS[method](TransposedOp(a), m, rng)


def compute_gap(mat, tie_tol: float = DEFAULT_TIE_TOL) -> GapReport:
    """Gap between the largest and second-largest squared row norms.

    Rows within ``tie_tol * max(1, M)`` of the maximum ``M`` count as
    ties; the gap is measured from ``M`` down to the largest squared row
    norm below the tie band.  If every row ties, the gap is ``inf``.
    Raises when the largest squared row norm of a nonzero matrix overflows
    or falls below the smallest normal float: the report cannot hold it.
    """
    arr = mat.array if isinstance(mat, DenseMatrix) else np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValueError(f"need a matrix with at least one row, got shape {arr.shape}")
    if tie_tol < 0:
        raise ValueError(f"tie tolerance must be non-negative, got {tie_tol}")
    sq = np.einsum("ij,ij->i", arr, arr)
    top = float(sq.max())
    if not (_TINY <= top < math.inf or not np.any(arr)):
        word = "overflow" if top == math.inf else "underflow"
        raise ValueError(f"squared row norms {word} float64; rescale the matrix")
    in_band = sq >= top - tie_tol * max(1.0, top)
    rest = sq[~in_band]
    gap = math.inf if rest.size == 0 else float(top - rest.max())
    return GapReport(top, gap, [int(i) for i in np.flatnonzero(in_band)])


def sufficient_m_twinest(mat: DenseMatrix, delta: float) -> int:
    """Sample count guaranteeing exact recovery with probability ``1 - delta``.

    Evaluates ``8 log(2 d / delta) / gap^2`` times the squared maximum
    off-diagonal row norm of ``A A^T``, and returns the smallest integer
    strictly above it.  Forms ``A A^T`` densely, so this is meant for
    test-scale matrices.  Undefined (raises) when every row ties.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    report = compute_gap(mat)
    if math.isinf(report.gap):
        raise ValueError("recovery bound undefined: every row attains the maximum norm")
    b = mat.array @ mat.array.T
    np.fill_diagonal(b, 0.0)
    off_sq = float(np.einsum("ij,ij->i", b, b).max())
    d = mat.rows
    bound = 8.0 * math.log(2.0 * d / delta) / report.gap**2 * off_sq
    return int(math.floor(bound)) + 1


# The method table, name: (estimator, extra, step).  A run with sample
# parameter m costs 2 m + extra matvecs; budget_to_samples rounds m down to a
# multiple of step, and step is also the smallest m it returns.
_METHOD_TABLE = {
    "twinest": (twinest, 1, 1),
    "twinest_pp": (twinest_pp, 1, 3),
    "rademacher_averaging": (rademacher_averaging, 0, 1),
    "adaptive_power": (adaptive_power, 1, 1),
}

# A dict of its own, read at call time, so an entry replaced in it (a wrapper,
# say) is what runs; costs are looked up by name and never read off it.
METHODS = {name: fn for name, (fn, _, _) in _METHOD_TABLE.items()}


def _cost_entry(method: str) -> tuple[int, int]:
    """``(extra, step)`` of a method; the one place an unknown name raises."""
    try:
        _, extra, step = _METHOD_TABLE[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; choose from {tuple(_METHOD_TABLE)}"
        ) from None
    return extra, step


def budget_to_samples(method: str, budget: int):
    """Largest sample parameter whose matvec cost fits ``budget``.

    Returns None when the budget cannot cover the method's minimum, so
    the harness can emit a diagnostic row instead of a measurement.
    """
    extra, step = _cost_entry(method)
    m = (budget - extra) // 2 // step * step
    return m if m >= step else None


def method_cost(method: str, m: int) -> int:
    """Exact matvec count the method consumes for sample parameter ``m``."""
    extra, _ = _cost_entry(method)
    return 2 * m + extra


def method_flops(method: str, m: int, rows: int, cols: int) -> float:
    """Coarse dense-arithmetic FLOP model for one run.

    One matvec is 2*rows*cols; the deflated method additionally pays for
    one thin QR (2*d*r^2) and one projector application (4*d*r) per
    residual sample.  Intended for order-of-magnitude comparisons only.
    """
    matvec = 2.0 * rows * cols
    flops = method_cost(method, m) * matvec
    if method == "twinest_pp":
        r, residual_samples = _hutchpp_split(m, rows)
        flops += 2.0 * rows * r * r + 4.0 * rows * r * residual_samples
    return flops
