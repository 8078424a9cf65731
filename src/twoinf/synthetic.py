"""Seeded generators for benchmark matrices, plus a binary exchange format.

Matrix entries are drawn from a stream whose seed is XORed with a fixed
tag, so matrix generation never collides with estimator randomness even
when both use the same base seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .oplib import DenseMatrix, _as_dense
from .sketch import RngStream

__all__ = [
    "GapMatrixSpec",
    "TallMatrixSpec",
    "gen_gap_matrix",
    "gen_tall_lowrank",
    "save_matrix",
    "load_matrix",
]

MATRIX_SEED_TAG = 0x9E3779B97F4A7C15

FORMAT_VERSION = 1
_MAGIC = int.from_bytes(b"DMATRIX\x00", "little")
_HEADER = struct.Struct("<4Q")


def _require_integers(named) -> None:
    """Raise, naming the field, at the first ``(name, value)`` that is not an integer."""
    for name, value in named:
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name}: {value!r} is not an integer")


@dataclass(frozen=True)
class GapMatrixSpec:
    """Square-ish Gaussian test matrix with a controlled row-norm gap."""

    rows: int
    cols: int
    gap: float
    seed: int

    def __post_init__(self):
        _require_integers([("rows", self.rows), ("cols", self.cols), ("seed", self.seed)])
        if not isinstance(self.gap, (int, float, np.integer, np.floating)):
            raise ValueError(f"gap: {self.gap!r} is not a number")
        if self.rows < 2:
            raise ValueError(f"need at least 2 rows, got {self.rows}")
        if self.cols < 1:
            raise ValueError(f"need at least 1 column, got {self.cols}")
        if not (0.0 < self.gap < 1.0):
            raise ValueError(f"gap must lie in (0, 1), got {self.gap}")


@dataclass(frozen=True)
class TallMatrixSpec:
    """Tall Gaussian matrix (rank bounded by its narrow column count)."""

    rows: int
    cols: int
    seed: int

    def __post_init__(self):
        _require_integers([("rows", self.rows), ("cols", self.cols), ("seed", self.seed)])
        if not self.rows > self.cols >= 1:
            raise ValueError(
                f"need rows > cols >= 1, got {self.rows}x{self.cols}"
            )


def gen_gap_matrix(spec: GapMatrixSpec) -> DenseMatrix:
    """Gaussian matrix whose top two squared row norms differ by exactly ``gap``.

    Rows are rescaled to squared norms ``(1 + gap, 1, u_3, ..., u_d)``
    with ``u_i`` uniform on [0, 1], so row 0 attains the two-to-infinity
    norm ``sqrt(1 + gap)`` and the row-norm gap equals ``gap`` up to
    floating point.
    """
    rng = RngStream(spec.seed ^ MATRIX_SEED_TAG)
    g = rng.normal((spec.rows, spec.cols))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0.0):  # fp-degenerate draw; redraw those rows
        for i in np.flatnonzero(norms == 0.0):
            g[i] = rng.normal(spec.cols)
        norms = np.linalg.norm(g, axis=1)
    c = np.empty(spec.rows)
    c[0] = 1.0 + spec.gap
    c[1] = 1.0
    c[2:] = rng.uniform(spec.rows - 2)
    g *= (np.sqrt(c) / norms)[:, None]
    return DenseMatrix(g)


def gen_tall_lowrank(spec: TallMatrixSpec) -> DenseMatrix:
    """Tall i.i.d. standard normal matrix; rank is at most ``cols``."""
    rng = RngStream(spec.seed ^ MATRIX_SEED_TAG)
    return DenseMatrix(rng.normal((spec.rows, spec.cols)))


def save_matrix(mat, path) -> None:
    """Write a dense matrix as magic/version/rows/cols header + row-major floats.

    All header fields are 64-bit little-endian unsigned integers; the
    payload is rows*cols little-endian float64 values in row-major order.
    A plain array that is not a valid :class:`DenseMatrix` raises and writes nothing.
    """
    arr = _as_dense(mat).array
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, FORMAT_VERSION, arr.shape[0], arr.shape[1]))
        fh.write(arr.astype("<f8", copy=False).tobytes())


def load_matrix(path) -> DenseMatrix:
    """Read a matrix written by :func:`save_matrix`; validates the full layout.

    The operator's read-only array views the bytes read, so the payload is
    held once.
    """
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError(
            f"{path}: truncated header, file ends at byte offset {len(data)} "
            f"but the header needs {_HEADER.size} bytes"
        )
    magic, version, rows, cols = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic:#018x} at byte offset 0")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format version {version} at byte offset 8"
        )
    expected = _HEADER.size + 8 * rows * cols
    if len(data) != expected:
        raise ValueError(
            f"{path}: payload ends at byte offset {len(data)}, "
            f"expected {expected} for a {rows}x{cols} matrix"
        )
    arr = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)
    try:
        return DenseMatrix(arr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
