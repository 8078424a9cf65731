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

from .oplib import DenseMatrix, GramOp, LinearOp, TransposedOp, _as_dense
from .sketch import RngStream, _hutchpp_split, _require_finite, hutchinson_diag, hutchpp_diag

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

# The smallest sum of squares formed as it is.  A square below the smallest
# normal float is rounded to a coarser grid; from here up, that rounding error
# (at most 2^-1075) is under 2^-54 of an ulp of the sum, while just above the
# smallest normal float it can move the sum's last bit.
_SQ_LOW = np.finfo(np.float64).tiny * 2.0**53


def _pow2_exponent(arr: np.ndarray) -> int:
    """The ``e`` for which ``2^e`` takes the largest ``|entry|`` into [0.5, 1).

    Scaling by ``2^e`` with ``ldexp`` is exact, so a sum of squares out of
    the range :func:`_sum_squares` forms directly can be formed on the scaled
    entries and its square root scaled back.  ``2^e`` itself need not be a
    float: for subnormal entries ``e`` exceeds 1023.
    """
    return -math.frexp(float(np.abs(arr).max()))[1]


def _squares(arr: np.ndarray):
    """Sum of squares of a vector, summed as numpy's vector 2-norm sums it,
    or of each row of a matrix.

    Neither ``vdot`` nor ``einsum`` checks the floating-point flags, so a sum
    that overflows is ``inf`` without a warning (``dot`` would warn).
    """
    return np.vdot(arr, arr) if arr.ndim == 1 else np.einsum("ij,ij->i", arr, arr)


def _sum_squares(arr: np.ndarray):
    """Sums of squares of ``arr`` (a vector, or each row) and their exponent ``e``.

    The sums are those of ``2^e arr``.  ``e`` is 0 unless the largest sum
    overflows or falls below ``_SQ_LOW``; then it is :func:`_pow2_exponent`
    of ``arr``.  So :func:`_norm` on ``2^k arr`` is ``2^k`` times its value
    on ``arr``, bit for bit, wherever that is a normal float.
    """
    sq = _squares(arr)
    if _SQ_LOW <= (sq if arr.ndim == 1 else sq.max()) < math.inf:
        return sq, 0
    e = _pow2_exponent(arr)
    return _squares(np.ldexp(arr, e)), e


def _norm(sq: float, e: int) -> float:
    """``sqrt(sq)`` scaled back by ``2^-e``, for a sum from :func:`_sum_squares`.

    Raises where the norm exceeds the float64 maximum, and on a sum that
    is not finite, which only an operator's non-finite result gives.
    """
    _require_finite(sq)
    try:
        return math.ldexp(math.sqrt(sq), -e)
    except OverflowError:
        raise ValueError("the norm exceeds the float64 maximum; rescale the matrix") from None


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
    The row is summed as a one-row block, as :func:`exact_two_to_inf` sums
    rows, so the sum does not depend on the BLAS thread count.
    """
    j = int(np.argmax(diag))
    e_j = np.zeros(a.rows)
    e_j[j] = 1.0
    # reshape, not [None]: the sums are the same, but with [None]'s zero-stride
    # axis, peak RSS read 1.6-1.8 MB higher after 40 s of perfbench
    # gap_square trials (cause not found).
    sq, e = _sum_squares(a.apply_transpose(e_j).reshape(1, -1))
    return NormEstimate(_norm(sq[0], e), j, a.matvec_count - before)


def exact_two_to_inf(mat: DenseMatrix) -> NormEstimate:
    """Maximum row l2 norm by direct entry access; zero matvecs.

    Ties break to the smallest row index.  The squared norms come from
    :func:`_sum_squares`, which rescales by a power of two where they
    overflow or underflow.  Raises where the norm exceeds the float64
    maximum.  A plain array is read as a :class:`DenseMatrix`.
    """
    sq, e = _sum_squares(_as_dense(mat).array)
    j = int(np.argmax(sq))
    return NormEstimate(_norm(sq[j], e), j, 0)


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
    return _measure_argmax_row(a, hutchinson_diag(GramOp(a), m, rng), before)


def twinest_pp(a: LinearOp, m: int, rng: RngStream) -> NormEstimate:
    """Variance-reduced variant of :func:`twinest` on a budget of ``m``.

    Uses the deflated diagonal estimate (sketch + exact low-rank diagonal
    + residual probing) in place of plain Hutchinson sampling; ``2 m + 1``
    matvecs total.  When the sketch captures the whole range of ``A`` the
    diagonal is exact and so is the recovered norm.
    """
    before = a.matvec_count
    return _measure_argmax_row(a, hutchpp_diag(a, m, rng), before)


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
    value = math.sqrt(max(0.0, float(np.max(diag))))
    return NormEstimate(value, None, a.matvec_count - before)


def _inf_dual(x: np.ndarray) -> tuple[float, np.ndarray]:
    """``||x||_inf`` (NaN if ``x`` holds one) and the l-infinity dual of ``x``.

    The dual is the mean of signed basis vectors over the coordinates whose
    ``|x_i|`` equals the norm exactly.  It has meaning only where the norm
    is positive; callers test that first.
    """
    mag = np.abs(x)
    i = mag.argmax()  # the first NaN, if any
    top = float(mag[i])
    members = mag == top
    count = np.count_nonzero(members)
    out = np.zeros(len(x))
    if count == 1:
        out[i] = math.copysign(1.0, x[i])
    else:
        out[members] = np.sign(x[members]) / count
    return top, out


def _two_dual(x: np.ndarray) -> np.ndarray | None:
    """``x / ||x||_2``, or ``None`` for the zero vector.

    Where :func:`_sum_squares` forms the sum on a rescaled copy, the copy is
    normalized.  Any vector but the zero vector has a positive sum.
    """
    sq, e = _sum_squares(x)
    if sq == 0.0:
        return None
    if e:
        x = np.ldexp(x, e)
    return x / math.sqrt(sq)


def dual_vector(x: np.ndarray, p: float) -> np.ndarray:
    """Normalized dual of ``x`` under the l2 or l-infinity norm.

    For ``p = 2``: ``x / ||x||_2``.  For ``p = inf``: the mean of signed
    basis vectors over the set of coordinates attaining ``||x||_inf``,
    with membership decided by exact comparison against the computed
    maximum.  The zero vector has no dual and raises.  For ``p = 2``, a
    vector whose sum of squares :func:`_sum_squares` forms on a rescaled
    copy is normalized from that copy.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={x.ndim}")
    if p == 2:
        out = _two_dual(x)
        if out is not None:
            return out
    elif p == math.inf:
        top, out = _inf_dual(x)
        if top != 0.0:
            return out
    else:
        raise ValueError(f"p must be 2 or inf, got {p}")
    raise ValueError("dual vector of the zero vector is undefined")


def adaptive_power(a: LinearOp, m: int, rng: RngStream) -> NormEstimate:
    """Dual-vector power iteration baseline for the two-to-infinity norm.

    Starts from a standard normal vector and alternates
    ``y = dual_inf(A x)``, ``x = dual_2(A^T y)`` for ``m`` iterations,
    returning ``||A x||_inf``: ``2 m + 1`` matvecs.  The iteration can
    settle on a non-maximal row and stay there, so the returned value is
    not a consistent estimator.  If an iterate collapses to the zero
    vector (degenerate operators only), the best value seen so far is
    returned with ``degenerate=True``.  Where products with the operator
    overflow float64 into a NaN or a non-finite value, or the operator
    returns one that would become the value, raises.
    """
    if m < 1:
        raise ValueError(f"iteration count must be positive, got {m}")
    before = a.matvec_count
    x = rng.normal(a.cols)
    best = 0.0
    # The duals are dual_vector's own two steps, called directly: through
    # dual_vector, each iteration would repeat its argument checks, the
    # max of |A x| and a zero test on A^T y (BENCH_power.json has the cost).
    # Overflow shows as a NaN product or a non-finite value, and both raise,
    # so numpy's warnings on the way there are not needed.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(m):
            ax = a.apply(x)
            top, y = _inf_dual(ax)
            if math.isnan(top):
                _require_finite(ax)
            if top == 0.0:
                return NormEstimate(_require_finite(best), None, a.matvec_count - before,
                                    degenerate=True)
            best = max(best, top)
            x = _two_dual(a.apply_transpose(y))
            if x is None:
                return NormEstimate(_require_finite(best), None, a.matvec_count - before,
                                    degenerate=True)
        value = float(np.abs(a.apply(x)).max())
    _require_finite(value)
    return NormEstimate(value, None, a.matvec_count - before)


def estimate_one_to_two(a: LinearOp, method: str, m: int, rng: RngStream) -> NormEstimate:
    """Estimate the one-to-two norm (maximum column l2 norm) of ``a``.

    Runs the estimator :data:`METHODS` names ``method`` on the transposed
    operator.
    """
    _cost_entry(method)  # raises on an unknown method
    return METHODS[method](TransposedOp(a), m, rng)


def compute_gap(mat) -> GapReport:
    """Gap between the largest and second-largest squared row norms.

    Rows within ``DEFAULT_TIE_TOL * M`` of the maximum ``M`` count as
    ties; the band is relative, so it is the same at every scale.  The gap
    is measured from ``M`` down to the largest squared row norm below the
    band.  If every row ties, the gap is ``inf``.
    Raises where :func:`_sum_squares` would rescale, that is where the
    largest squared row norm of a nonzero matrix overflows or falls below
    ``_SQ_LOW``: the report cannot hold them.  A plain array is read as a
    :class:`DenseMatrix`, which rejects empty and non-finite ones.
    """
    arr = _as_dense(mat).array
    sq, e = _sum_squares(arr)
    top = float(sq.max())
    if e:
        word = "underflow" if e > 0 else "overflow"
        raise ValueError(f"squared row norms {word} float64; rescale the matrix")
    in_band = sq >= top - DEFAULT_TIE_TOL * top
    rest = sq[~in_band]
    gap = math.inf if rest.size == 0 else float(top - rest.max())
    return GapReport(top, gap, [int(i) for i in np.flatnonzero(in_band)])


def sufficient_m_twinest(mat: DenseMatrix, delta: float) -> int:
    """Sample count guaranteeing exact recovery with probability ``1 - delta``.

    Evaluates ``8 log(2 d / delta) / gap^2`` times the squared maximum
    off-diagonal row norm of ``A A^T``, and returns the smallest integer
    strictly above it.  Forms ``A A^T`` densely, so this is meant for
    test-scale matrices.  Undefined (raises) when every row ties.  A plain
    array is read as a :class:`DenseMatrix`.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    mat = _as_dense(mat)
    report = compute_gap(mat)
    if math.isinf(report.gap):
        raise ValueError("recovery bound undefined: every row attains the maximum norm")
    # The ratio off_sq / gap^2 is scale-free; form it on 2^e A, where neither
    # the fourth powers in off_sq nor gap^2 overflow.
    e = _pow2_exponent(mat.array)
    scaled = np.ldexp(mat.array, e)
    b = scaled @ scaled.T
    np.fill_diagonal(b, 0.0)
    off_sq = float(np.einsum("ij,ij->i", b, b).max())
    d = mat.rows
    bound = 8.0 * math.log(2.0 * d / delta) / math.ldexp(report.gap, 2 * e) ** 2 * off_sq
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
