import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import twoinf
from twoinf import GapMatrixSpec, TallMatrixSpec, save_matrix
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
    include_walltime=False,
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


def test_config_rejects_bad_budgets():
    src = GapMatrixSpec(4, 4, 0.2, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        BenchConfig(source=src, methods=("twinest",), budgets=(10, 10))
    with pytest.raises(ValueError, match="positive"):
        BenchConfig(source=src, methods=("twinest",), budgets=(0, 10))
    with pytest.raises(ValueError, match="at least one budget"):
        BenchConfig(source=src, methods=("twinest",), budgets=())


def test_config_rejects_bad_counts():
    src = GapMatrixSpec(4, 4, 0.2, 0)
    with pytest.raises(ValueError, match="trials"):
        BenchConfig(source=src, methods=("twinest",), budgets=(10,), trials=0)
    with pytest.raises(ValueError, match="workers"):
        BenchConfig(source=src, methods=("twinest",), budgets=(10,), workers=0)


# ---------------------------------------------------------------------------
# running


def test_run_bench_replay_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_bench(replace(SMALL, out=out1))
    run_bench(replace(SMALL, out=out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_run_bench_parallel_matches_serial():
    serial = run_bench(replace(SMALL, workers=1))
    parallel = run_bench(replace(SMALL, workers=4))
    strip = lambda r: (r.method, r.matvec_budget, r.trial, r.seed, r.estimate, r.exact, r.rel_error, r.matvecs_used, r.skipped)
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


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
    cfg = replace(SMALL, out=tmp_path / "c.csv", include_walltime=True)
    run_bench(cfg)
    header = (tmp_path / "c.csv").read_text().splitlines()[0]
    assert header == "method,matvec_budget,trial,seed,estimate,exact,rel_error,wall_ms"


def test_csv_columns_with_flops_without_walltime(tmp_path):
    cfg = replace(SMALL, out=tmp_path / "c.csv", include_flops=True)
    run_bench(cfg)
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
    for flag, value, word in (("--trials", "0", "trials"), ("--workers", "0", "workers"),
                              ("--methods", "", "unknown method"),
                              ("--methods", "twinest,twinest", "'twinest' listed more than once")):
        assert main(["--gap", "8", "8", "0.2", "--budgets", "10", flag, value]) == 2, value
        assert word in capsys.readouterr().err, value
    assert list(tmp_path.iterdir()) == []


def test_cli_defaults_are_bench_config_defaults():
    args = build_parser().parse_args(["--gap", "8", "8", "0.2", "--budgets", "10"])
    assert config_from_args(args) == BenchConfig(
        GapMatrixSpec(8, 8, 0.2, 0), tuple(METHODS), (10,), out="bench.csv"
    )


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
    cfg = config_from_args(build_parser().parse_args([f"@{cfg_file}"]))
    assert cfg.source == GapMatrixSpec(16, 16, 0.4, 11)
    assert cfg.methods == ("twinest", "twinest_pp")
    assert cfg.budgets == (9, 21, 31)
    assert cfg.trials == 2
    assert cfg.base_seed == 11
    assert cfg.include_walltime is False


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
