import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoinf
from twoinf import (
    DenseMatrix,
    GapMatrixSpec,
    RngStream,
    TallMatrixSpec,
    gen_gap_matrix,
    gen_tall_lowrank,
    save_matrix,
)
from twoinf.bench import (
    METHODS,
    BenchConfig,
    BenchRecord,
    budget_to_samples,
    config_from_args,
    build_parser,
    main,
    method_cost,
    method_flops,
    resolve_source,
    run_bench,
    summarize,
    write_csv,
)


SMALL = BenchConfig(
    source=GapMatrixSpec(40, 40, 0.2, seed=3),
    methods=("twinest", "twinest_pp", "rademacher_averaging", "adaptive_power"),
    budgets=(7, 20, 41),
    trials=3,
    base_seed=3,
)


# ---------------------------------------------------------------------------
# cost model


def test_budget_to_samples_table():
    assert budget_to_samples("twinest", 3) == 1
    assert budget_to_samples("twinest", 10) == 4
    assert budget_to_samples("twinest", 800) == 399
    assert budget_to_samples("twinest", 2) is None
    assert budget_to_samples("adaptive_power", 10) == 4
    assert budget_to_samples("twinest_pp", 10) == 3
    assert budget_to_samples("twinest_pp", 800) == 399
    assert budget_to_samples("twinest_pp", 5) is None
    assert budget_to_samples("rademacher_averaging", 10) == 5
    assert budget_to_samples("rademacher_averaging", 1) is None
    with pytest.raises(ValueError, match="unknown method"):
        budget_to_samples("power", 10)
    # Budgets and m are integers; a numpy integer passes.
    for budget in (10.5, np.float64(11)):
        with pytest.raises(TypeError):
            budget_to_samples("twinest", budget)
    with pytest.raises(TypeError):
        method_cost("twinest", 2.5)
    assert budget_to_samples("twinest", np.int64(10)) == 4


def test_method_cost_never_exceeds_budget():
    for method in ("twinest", "twinest_pp", "rademacher_averaging", "adaptive_power"):
        for budget in range(1, 60):
            m = budget_to_samples(method, budget)
            if m is not None:
                assert method_cost(method, m) <= budget


def test_method_flops_model():
    assert method_flops("twinest", 10, 100, 50) == 21 * 2 * 100 * 50
    assert method_flops("rademacher_averaging", 10, 100, 50) == 20 * 2 * 100 * 50
    # deflated method pays for QR (2 d r^2) and per-sample projections (4 d r)
    d, n, m = 100, 50, 9
    r, resid = 3, 3
    want = 19 * 2 * d * n + 2 * d * r * r + 4 * d * r * resid
    assert method_flops("twinest_pp", m, d, n) == want


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method"):
        BenchConfig(source=GapMatrixSpec(4, 4, 0.2, 0), methods=("nope",), budgets=(10,))
    with pytest.raises(ValueError, match="'twinest' listed more than once"):
        BenchConfig(source=GapMatrixSpec(4, 4, 0.2, 0),
                    methods=("twinest", "twinest_pp", "twinest"), budgets=(10,))
    # A bare name is not a one-name sequence: tuple() would split it into letters.
    with pytest.raises(ValueError, match="^methods must be a sequence, got 'twinest'"):
        BenchConfig(source=GapMatrixSpec(4, 4, 0.2, 0), methods="twinest", budgets=(10,))


def test_config_rejects_bad_budgets():
    src = GapMatrixSpec(4, 4, 0.2, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        BenchConfig(source=src, methods=("twinest",), budgets=(10, 10))
    with pytest.raises(ValueError, match="positive"):
        BenchConfig(source=src, methods=("twinest",), budgets=(0, 10))
    with pytest.raises(ValueError, match="at least one budget"):
        BenchConfig(source=src, methods=("twinest",), budgets=())
    for budgets in ("10", 10, np.int64(10), b"\n"):
        with pytest.raises(ValueError, match="^budgets must be a sequence"):
            BenchConfig(source=src, methods=("twinest",), budgets=budgets)


def test_config_rejects_bad_counts():
    src = GapMatrixSpec(4, 4, 0.2, 0)
    with pytest.raises(ValueError, match="trials"):
        BenchConfig(source=src, methods=("twinest",), budgets=(10,), trials=0)


def test_config_rejects_non_integer_counts():
    # A float count is neither rounded nor left to fail later inside range().
    src = GapMatrixSpec(4, 4, 0.2, 0)
    for field, value in (("budgets", (10.7, 20.2)), ("budgets", (10, "20")),
                         ("trials", 2.0), ("base_seed", 1.5)):
        with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
            BenchConfig(**{"source": src, "methods": ("twinest",), "budgets": (10,),
                           field: value})
    cfg = BenchConfig(source=src, methods=("twinest",), budgets=(np.int64(10), 20))
    assert cfg.budgets == (10, 20)


def test_cli_rejects_non_integer_budgets(tmp_path, monkeypatch, capsys):
    # Every numeric word names its field, whether the spec or the config rejects it.
    monkeypatch.chdir(tmp_path)
    for argv, message in (
        (["--gap", "8", "8", "0.2", "--budgets", "10.5"], "budgets: '10.5' is not an integer"),
        (["--gap", "8", "8", "abc", "--budgets", "10"], "gap: 'abc' is not a number"),
        (["--gap", "8.5", "8", "0.2", "--budgets", "10"], "rows: '8.5' is not an integer"),
        (["--tall", "20", "x", "--budgets", "10"], "cols: 'x' is not an integer"),
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# running


def test_run_bench_replay_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_bench(SMALL), out1, include_walltime=False)
    write_csv(run_bench(SMALL), out2, include_walltime=False)
    assert out1.read_bytes() == out2.read_bytes()


def test_run_bench_writes_no_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    records = run_bench(SMALL)
    assert list(tmp_path.iterdir()) == []
    # Every measured record carries the FLOP model, whether or not it is written.
    for r in records:
        if not r.skipped:
            m = budget_to_samples(r.method, r.matvec_budget)
            assert r.flops == method_flops(r.method, m, 40, 40)


@st.composite
def campaigns(draw):
    """A small gap, tall or loaded source with its array, and a config over it."""
    seed = draw(st.integers(0, 2**64 - 1))
    kind = draw(st.sampled_from(["gap", "tall", "load"]))
    rows = draw(st.integers(3 if kind == "tall" else 2, 12))
    cols = draw(st.integers(2, rows - 1 if kind == "tall" else 12))
    if kind == "gap":
        source = GapMatrixSpec(rows, cols, draw(st.floats(0.01, 0.99)), seed)
        arr = gen_gap_matrix(source).array
    elif kind == "tall":
        source = TallMatrixSpec(rows, cols, seed)
        arr = gen_tall_lowrank(source).array
    else:
        source = None  # the test saves ``arr`` and points the config at the file
        arr = RngStream(seed).normal((rows, cols))
    methods = draw(st.lists(st.sampled_from(tuple(METHODS)), min_size=1, unique=True))
    budgets = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
    cfg = dict(source=source, methods=methods, budgets=sorted(budgets),
               trials=draw(st.integers(1, 4)), base_seed=seed)
    return cfg, arr


@given(campaign=campaigns())
@settings(deadline=None)
def test_run_bench_properties(campaign):
    kwargs, arr = campaign
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if kwargs["source"] is None:
            kwargs["source"] = tmp / "m.mat"
            save_matrix(arr, kwargs["source"])
        cfg = BenchConfig(**kwargs)
        resolved = []

        def keep(source):
            resolved.append(resolve_source(source))
            return resolved[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(twoinf.bench, "resolve_source", keep)
            records = run_bench(cfg)
        write_csv(records, tmp / "one.csv", include_walltime=False)
        write_csv(run_bench(cfg), tmp / "two.csv", include_walltime=False)
        assert (tmp / "one.csv").read_bytes() == (tmp / "two.csv").read_bytes()

    plan = [(method, budget, trial) for method in cfg.methods for budget in cfg.budgets
            for trial in (range(cfg.trials) if budget_to_samples(method, budget) is not None
                          else (-1,))]
    assert [(r.method, r.matvec_budget, r.trial) for r in records] == plan
    assert all(r.skipped == (r.trial == -1) for r in records)
    # Every trial runs on the one operator the campaign resolved, so its
    # counter holds the products of all the records.  Each method makes, for
    # now, every product its cost model counts.
    [op] = resolved
    assert op.matvec_count == sum(r.products for r in records)
    assert op.matvec_count == sum(r.matvecs_used for r in records)

    row_norms = np.linalg.norm(arr, axis=1)
    for r in records:
        if r.skipped:
            assert r.products == 0
            continue
        m = budget_to_samples(r.method, r.matvec_budget)
        assert r.products <= r.matvecs_used == method_cost(r.method, m) <= r.matvec_budget
        if r.method in ("twinest", "twinest_pp"):
            assert r.estimate <= r.exact * (1 + 1e-12)
            assert np.min(np.abs(row_norms - r.estimate)) <= 1e-12 * r.estimate
        est = METHODS[r.method](DenseMatrix(arr), m, RngStream(r.seed))
        assert (est.value, est.matvecs_used) == (r.estimate, r.matvecs_used)


def test_run_bench_matvec_honesty():
    records = run_bench(SMALL)
    for r in records:
        if r.skipped:
            continue
        m = budget_to_samples(r.method, r.matvec_budget)
        assert r.matvecs_used == method_cost(r.method, m)
        assert r.matvecs_used <= r.matvec_budget


def test_run_bench_trial_seeds_are_base_plus_index():
    records = run_bench(SMALL)
    for r in records:
        if not r.skipped:
            assert r.seed == SMALL.base_seed + r.trial


def test_run_bench_emits_diagnostic_row_for_tiny_budget():
    cfg = BenchConfig(
        source=GapMatrixSpec(10, 10, 0.2, seed=1),
        methods=("twinest_pp",),
        budgets=(5, 9),
        trials=2,
    )
    records = run_bench(cfg)
    skipped = [r for r in records if r.skipped]
    assert len(skipped) == 1
    assert skipped[0].matvec_budget == 5
    assert skipped[0].trial == -1
    assert math.isnan(skipped[0].estimate) and math.isnan(skipped[0].rel_error)
    assert len([r for r in records if not r.skipped]) == 2


def test_run_bench_rel_error_definition():
    records = run_bench(SMALL)
    for r in records:
        if not r.skipped:
            assert r.rel_error == abs(r.estimate - r.exact) / r.exact


def test_run_bench_accepts_file_source(tmp_path):
    from twoinf import gen_gap_matrix

    mat = gen_gap_matrix(GapMatrixSpec(12, 12, 0.3, seed=6))
    path = tmp_path / "m.mat"
    save_matrix(mat, path)
    records = run_bench(
        BenchConfig(source=path, methods=("twinest",), budgets=(9,), trials=2)
    )
    assert all(r.exact == pytest.approx(np.sqrt(1.3), abs=1e-9) for r in records)


def test_run_bench_rejects_zero_matrix(tmp_path):
    path = tmp_path / "z.mat"
    save_matrix(np.zeros((3, 3)), path)
    with pytest.raises(ValueError, match="zero"):
        run_bench(BenchConfig(source=path, methods=("twinest",), budgets=(9,)))


def test_run_bench_tall_source():
    records = run_bench(
        BenchConfig(source=TallMatrixSpec(64, 4, seed=2), methods=("twinest_pp",), budgets=(25,), trials=3)
    )
    # sketch covers the full rank, so recovery is exact
    assert all(r.rel_error < 1e-10 for r in records)


# ---------------------------------------------------------------------------
# summaries


def test_summarize_mean():
    records = run_bench(SMALL)
    rows = summarize(records)
    assert len(rows) == len(SMALL.methods) * len(SMALL.budgets)
    by_key = {(row.method, row.matvec_budget): row for row in rows}
    for (method, budget), row in by_key.items():
        errs = [r.rel_error for r in records if r.method == method and r.matvec_budget == budget and not r.skipped]
        assert row.mean_rel_error == pytest.approx(np.mean(errs))
        assert row.trials == len(errs)


def test_summarize_handcrafted_values():
    mk = lambda e, t: BenchRecord("twinest", 10, t, t, 1.0, 1.0, e, 0.0, 9)
    rows = summarize([mk(0.1, 0), mk(0.2, 1), mk(0.3, 2)])
    assert rows[0].mean_rel_error == pytest.approx(0.2)
    single = summarize([mk(0.5, 0)])
    assert single[0].mean_rel_error == 0.5
    assert single[0].stderr == 0.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError, match="no records"):
        summarize([])


# ---------------------------------------------------------------------------
# CSV layout


def test_csv_columns_default(tmp_path):
    write_csv(run_bench(SMALL), tmp_path / "c.csv")
    header = (tmp_path / "c.csv").read_text().splitlines()[0]
    assert header == "method,matvec_budget,trial,seed,estimate,exact,rel_error,wall_ms"


def test_csv_columns_with_flops_without_walltime(tmp_path):
    write_csv(run_bench(SMALL), tmp_path / "c.csv", include_walltime=False, include_flops=True)
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "method,matvec_budget,trial,seed,estimate,exact,rel_error,flops"
    assert len(lines) == 1 + len(SMALL.methods) * len(SMALL.budgets) * SMALL.trials


def test_csv_seventeen_digit_floats(tmp_path):
    rec = BenchRecord("twinest", 9, 0, 1, 1.0 / 3.0, 1.0, 2.0 / 3.0, 0.0, 9)
    path = tmp_path / "p.csv"
    write_csv([rec], path, include_walltime=False)
    line = path.read_text().splitlines()[1]
    assert "0.33333333333333331" in line
    assert "0.66666666666666663" in line


# ---------------------------------------------------------------------------
# CLI and argument files


def test_cli_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main([
        "--gap", "20", "20", "0.3",
        "--methods", "twinest,rademacher_averaging",
        "--budgets", "9,21",
        "--trials", "2",
        "--seed", "5",
        "--out", str(out),
        "--no-walltime",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    printed = capsys.readouterr().out
    assert "mean_rel_error" in printed


def test_cli_writes_what_write_csv_writes(tmp_path):
    argv = ["--gap", "20", "20", "0.3", "--budgets", "5,9,21", "--trials", "2", "--seed", "5"]
    out, want = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert main([*argv, "--no-walltime", "--flops", "--out", str(out)]) == 0
    write_csv(run_bench(config_from_args(build_parser().parse_args(argv))), want, False, True)
    assert out.read_bytes() == want.read_bytes()


def usage_error(argv, capsys) -> str:
    """The message of the argparse error that ``main(argv)`` exits 2 with."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_cli_requires_exactly_one_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    err = usage_error(["--budgets", "10"], capsys)
    assert "one of the arguments --gap --tall --load is required" in err
    err = usage_error(["--gap", "8", "8", "0.2", "--tall", "8", "8", "--budgets", "10"], capsys)
    assert "argument --tall: not allowed with argument --gap" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_missing_budgets(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    err = usage_error(["--gap", "4", "4", "0.2"], capsys)
    assert "the following arguments are required: --budgets" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_zero_counts_and_empty_methods(tmp_path, monkeypatch, capsys):
    # An explicit 0 or '' is an error, not a request for the default, and a
    # repeated method would count its replays as independent trials.
    monkeypatch.chdir(tmp_path)
    for flag, value, word in (("--trials", "0", "trials"), ("--methods", "", "unknown method"),
                              ("--methods", "twinest,twinest", "'twinest' listed more than once")):
        assert main(["--gap", "8", "8", "0.2", "--budgets", "10", flag, value]) == 2, value
        assert word in capsys.readouterr().err, value
    assert list(tmp_path.iterdir()) == []


def test_cli_defaults_are_bench_config_defaults():
    args = build_parser().parse_args(["--gap", "8", "8", "0.2", "--budgets", "10"])
    assert config_from_args(args) == BenchConfig(GapMatrixSpec(8, 8, 0.2, 0), tuple(METHODS), (10,))
    assert (args.out, args.include_walltime, args.include_flops) == ("bench.csv", True, False)


def test_cli_missing_load_file(tmp_path, capsys):
    assert main(["--load", str(tmp_path / "gone.mat"), "--budgets", "10"]) == 2
    assert "gone.mat" in capsys.readouterr().err
    # A missing argument file is a usage error that names the file.
    assert "gone.args" in usage_error([f"@{tmp_path / 'gone.args'}"], capsys)


def test_config_file_parsing(tmp_path):
    cfg_file = tmp_path / "bench.args"
    cfg_file.write_text(
        """
        # comment line
        --gap 16 16 0.4   # inline comment
        --methods twinest,twinest_pp
        --budgets 9,21,31 --trials 2
        --seed 11
        --no-walltime
        """
    )
    args = build_parser().parse_args([f"@{cfg_file}"])
    cfg = config_from_args(args)
    assert cfg.source == GapMatrixSpec(16, 16, 0.4, 11)
    assert cfg.methods == ("twinest", "twinest_pp")
    assert cfg.budgets == (9, 21, 31)
    assert cfg.trials == 2
    assert cfg.base_seed == 11
    assert args.include_walltime is False


def test_cli_flags_override_config_file(tmp_path):
    cfg_file = tmp_path / "bench.args"
    cfg_file.write_text("--gap 16 16 0.4\n--budgets 9\n--trials 2\n--seed 11\n")
    args = build_parser().parse_args([f"@{cfg_file}", "--trials", "5", "--budgets", "7,15"])
    cfg = config_from_args(args)
    assert cfg.trials == 5
    assert cfg.budgets == (7, 15)
    assert cfg.base_seed == 11  # untouched file value still applies


def test_shipped_config_files_run(tmp_path):
    confs = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.conf"))
    assert confs, "no config files under scripts/"
    for conf in confs:
        out = tmp_path / f"{conf.stem}.csv"
        assert main([f"@{conf}", "--trials", "1", "--out", str(out)]) == 0, conf.name
        assert out.read_text().startswith("method,matvec_budget,trial,seed,"), conf.name


def test_config_file_rejects_garbage(tmp_path, monkeypatch, capsys):
    # A bare word or a misspelled flag names no option; neither is dropped silently.
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "bad.args"
    for garbage in ("just some words", "--trails 50"):
        cfg_file.write_text(f"--gap 8 8 0.2\n--budgets 10\n{garbage}\n")
        assert f"unrecognized arguments: {garbage}" in usage_error([f"@{cfg_file}"], capsys)
    # The same holds on the command line, for the removed --workers flag too.
    argv = ["--gap", "8", "8", "0.2", "--budgets", "10", "--workers", "2"]
    assert "unrecognized arguments: --workers 2" in usage_error(argv, capsys)
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_readme_commands_parse(monkeypatch):
    # Every twoinf-bench command in README's sh blocks parses, run from the
    # repo root so that the @scripts/*.conf examples find their files.
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    blocks = re.findall(r"^```sh\n(.*?)^```", (root / "README.md").read_text(), re.S | re.M)
    argvs = [shlex.split(line, comments=True)[1:]
             for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("twoinf-bench ")]
    for argv in argvs:
        build_parser().parse_args(argv)
    shipped = {f"@scripts/{conf.name}" for conf in (root / "scripts").glob("*.conf")}
    assert shipped <= {argv[0] for argv in argvs}


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    # ``python -m twoinf.bench`` warns if importing the package already
    # imported ``twoinf.bench``; -W error turns that warning into a failure.
    path = [str(Path(twoinf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = tmp_path / "run.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "twoinf.bench",
         "--gap", "8", "8", "0.2", "--budgets", "10", "--no-walltime", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("method,matvec_budget,trial,seed,")


def test_replay_across_blas_thread_counts(tmp_path):
    # Byte-identical replay holds for one BLAS thread count. Across counts,
    # BLAS sums a GEMV or GEMM in another order, so the noisy readouts move
    # in their last bits. The exact-row readouts of twinest and twinest_pp
    # read the selected row through a product with one nonzero entry, which
    # is not summed, and sum its squares with einsum, which uses no BLAS;
    # only a near-tie in the selection could move them. The second
    # campaign's rows have 12000 entries: OpenBLAS splits a dot product of
    # more than 10,000 entries across threads.
    path = [str(Path(twoinf.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]

    def campaign(name, *args):
        rows = {}
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
                   "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / f"{name}_threads{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "twoinf.bench", *args, "--seed", "9",
                 "--no-walltime", "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            rows[threads] = out.read_text().splitlines()
        return rows["1"], rows["2"]

    one, two = campaign("square", "--gap", "500", "500", "0.1",
                        "--budgets", "10,50,100,200,400,800", "--trials", "3", "--flops")
    assert one[0] == two[0] and len(one) == len(two) == 1 + 4 * 6 * 3
    estimate = one[0].split(",").index("estimate")
    for a, b in zip(one[1:], two[1:]):
        a, b = a.split(","), b.split(",")
        assert a[:estimate] == b[:estimate]
        if a[0] in ("twinest", "twinest_pp"):
            assert a == b
        else:
            assert abs(float(a[estimate]) - float(b[estimate])) <= 1e-14 * float(a[estimate]), (a, b)

    one, two = campaign("wide", "--gap", "8", "12000", "0.1", "--methods", "twinest,twinest_pp",
                        "--budgets", "10,20,40", "--trials", "5")
    assert len(one) == 1 + 2 * 3 * 5 and one == two
