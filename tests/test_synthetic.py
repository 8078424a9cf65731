import re
import tracemalloc

import numpy as np
import pytest

import twoinf
from twoinf import (
    DenseMatrix,
    GapMatrixSpec,
    TallMatrixSpec,
    compute_gap,
    exact_two_to_inf,
    gen_gap_matrix,
    gen_tall_lowrank,
    load_matrix,
    save_matrix,
)


# ---------------------------------------------------------------------------
# gap-controlled matrices


def test_gap_matrix_row_norm_layout():
    for rows in (60, 2):
        mat = gen_gap_matrix(GapMatrixSpec(rows=rows, cols=40, gap=0.25, seed=5))
        sq = np.einsum("ij,ij->i", mat.array, mat.array)
        assert len(sq) == rows
        assert sq[0] == pytest.approx(1.25, rel=1e-12)
        assert sq[1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(sq[2:] <= 1.0 + 1e-12)
        assert np.all(sq[2:] >= 0.0)


def test_gap_matrix_norm_and_gap():
    mat = gen_gap_matrix(GapMatrixSpec(500, 500, 0.1, seed=0))
    assert exact_two_to_inf(mat).value == pytest.approx(np.sqrt(1.1), abs=1e-9)
    report = compute_gap(mat)
    assert report.gap == pytest.approx(0.1, abs=1e-9)
    assert report.argmax_set == [0]


def test_gap_matrix_same_seed_bit_identical():
    spec = GapMatrixSpec(30, 20, 0.5, seed=77)
    assert np.array_equal(gen_gap_matrix(spec).array, gen_gap_matrix(spec).array)


def test_gap_matrix_seeds_differ():
    a = gen_gap_matrix(GapMatrixSpec(10, 10, 0.5, seed=1)).array
    b = gen_gap_matrix(GapMatrixSpec(10, 10, 0.5, seed=2)).array
    assert not np.array_equal(a, b)


def test_gap_matrix_uniform_levels_centered():
    # Mean of the 98 uniform row levels across 50 seeds.
    means = []
    for seed in range(50):
        a = gen_gap_matrix(GapMatrixSpec(100, 100, 0.1, seed=seed)).array
        sq = np.einsum("ij,ij->i", a, a)
        means.append(sq[2:].mean())
    assert abs(np.mean(means) - 0.5) <= 0.05


def test_gap_spec_validation():
    with pytest.raises(ValueError, match="2 rows"):
        GapMatrixSpec(1, 5, 0.1, seed=0)
    with pytest.raises(ValueError, match="gap"):
        GapMatrixSpec(5, 5, 0.0, seed=0)
    with pytest.raises(ValueError, match="gap"):
        GapMatrixSpec(5, 5, 1.0, seed=0)
    for args, field in (((8.5, 8, 0.2, 0), "rows"), ((8, "8", 0.2, 0), "cols"),
                        ((8, 8, 0.2, 1.0), "seed")):
        with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
            GapMatrixSpec(*args)
    for gap in ("0.5", None, [0.5]):
        with pytest.raises(ValueError, match=f"^gap: {re.escape(repr(gap))} is not a number$"):
            GapMatrixSpec(5, 5, gap, 0)
    assert GapMatrixSpec(np.int64(8), np.int32(8), 0.2, np.uint64(3)).rows == 8
    assert GapMatrixSpec(8, 8, np.float32(0.5), 0).gap == 0.5


# ---------------------------------------------------------------------------
# tall matrices


def test_tall_matrix_full_column_rank():
    mat = gen_tall_lowrank(TallMatrixSpec(300, 20, seed=9))
    svals = np.linalg.svd(mat.array, compute_uv=False)
    assert np.all(svals > 1e-8 * svals[0])
    assert len(svals) == 20


def test_tall_matrix_exact_oracle_matches_brute_force():
    mat = gen_tall_lowrank(TallMatrixSpec(100, 7, seed=4))
    est = exact_two_to_inf(mat)
    norms = np.linalg.norm(mat.array, axis=1)
    assert est.value == pytest.approx(norms.max(), rel=1e-14)
    assert est.selected_row == int(np.argmax(norms))


def test_tall_matrix_same_seed_bit_identical():
    spec = TallMatrixSpec(50, 3, seed=123)
    assert np.array_equal(gen_tall_lowrank(spec).array, gen_tall_lowrank(spec).array)


def test_tall_spec_validation():
    with pytest.raises(ValueError, match="rows > cols"):
        TallMatrixSpec(10, 10, seed=0)
    with pytest.raises(ValueError, match="rows > cols"):
        TallMatrixSpec(10, 0, seed=0)
    for args, field in (((20.0, 3, 0), "rows"), ((20, 3.0, 0), "cols"), ((20, 3, "0"), "seed")):
        with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
            TallMatrixSpec(*args)
    assert TallMatrixSpec(np.int64(20), 3, 0).rows == 20


# ---------------------------------------------------------------------------
# binary matrix format


def test_save_load_roundtrip(tmp_path):
    mat = gen_gap_matrix(GapMatrixSpec(13, 9, 0.4, seed=2))
    path = tmp_path / "m.mat"
    save_matrix(mat, path)
    back = load_matrix(path)
    assert back.rows == 13 and back.cols == 9
    assert np.array_equal(back.array, mat.array)
    # The payload is held once: a 4 MB matrix loads within 1.25x its size.
    arr = np.random.default_rng(5).standard_normal((1000, 500))
    save_matrix(arr, path)
    tracemalloc.start()
    try:
        back = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.array, arr)
    assert peak <= 1.25 * arr.nbytes


def test_save_accepts_plain_arrays(tmp_path):
    arr = np.arange(6, dtype=float).reshape(2, 3)
    path = tmp_path / "a.mat"
    save_matrix(arr, path)
    assert np.array_equal(load_matrix(path).array, arr)


def test_save_rejects_what_load_rejects(tmp_path):
    # Each of these used to be written, then refused by load_matrix (or, for
    # the 1-d array, raise IndexError); now save raises first and writes nothing.
    bad = {
        "3d": (np.zeros((2, 3, 4)), "2-d"),
        "nan": (np.array([[1.0, np.nan]]), "finite"),
        "empty": (np.zeros((0, 3)), "positive"),
        "1d": (np.ones(3), "2-d"),
    }
    for name, (arr, word) in bad.items():
        with pytest.raises(ValueError, match=word):
            save_matrix(arr, tmp_path / f"{name}.mat")
    assert list(tmp_path.iterdir()) == []


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_matrix(tmp_path / "nope.mat")


def test_load_truncated_header(tmp_path):
    path = tmp_path / "short.mat"
    path.write_bytes(b"\x00" * 10)
    with pytest.raises(ValueError, match=r"short\.mat.*byte offset 10"):
        load_matrix(path)


def test_load_bad_magic(tmp_path):
    mat = DenseMatrix(np.ones((2, 2)))
    path = tmp_path / "bad.mat"
    save_matrix(mat, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="bad magic.*byte offset 0"):
        load_matrix(path)


def test_load_bad_version(tmp_path):
    mat = DenseMatrix(np.ones((2, 2)))
    path = tmp_path / "v.mat"
    save_matrix(mat, path)
    data = bytearray(path.read_bytes())
    data[8] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="version 99 at byte offset 8"):
        load_matrix(path)


def test_load_truncated_payload(tmp_path):
    mat = DenseMatrix(np.ones((4, 4)))
    path = tmp_path / "trunc.mat"
    save_matrix(mat, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match="payload ends at byte offset"):
        load_matrix(path)


# ---------------------------------------------------------------------------
# the package's public names


def test_package_names_are_the_modules_names():
    modules = (twoinf.oplib, twoinf.sketch, twoinf.estimators, twoinf.synthetic)
    assert twoinf.__all__ == [name for module in modules for name in module.__all__]
    assert len(twoinf.__all__) == len(set(twoinf.__all__)) == 31
    assert all(hasattr(twoinf, name) for name in twoinf.__all__)
