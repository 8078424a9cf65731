"""Benchmark harness: seeded trial ensembles over matvec budgets.

Runs each configured method at each matvec budget for a number of
independent trials, converts budgets to per-method sample counts through
the inverse cost model so every method is compared at equal oracle cost,
and writes one CSV row per (method, budget, trial).  Replays are
byte-identical for a fixed config when the wall-time column is excluded.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# method_cost is not used here; callers import it from twoinf.bench too.
from .estimators import (  # noqa: F401
    METHODS,
    _cost_entry,
    budget_to_samples,
    exact_two_to_inf,
    method_cost,
    method_flops,
)
from .oplib import DenseMatrix
from .sketch import RngStream
from .synthetic import GapMatrixSpec, TallMatrixSpec, gen_gap_matrix, gen_tall_lowrank, load_matrix

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "SummaryRow",
    "run_bench",
    "summarize",
    "write_csv",
    "load_config_file",
    "main",
]

@dataclass(frozen=True)
class BenchConfig:
    """One benchmark campaign: a matrix source, methods, budgets, trials."""

    source: GapMatrixSpec | TallMatrixSpec | str | Path
    methods: tuple[str, ...]
    budgets: tuple[int, ...]
    trials: int = 1
    base_seed: int = 0
    out: str | Path | None = None
    workers: int = 1
    include_walltime: bool = True
    include_flops: bool = False

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        for name in self.methods:
            _cost_entry(name)  # raises on an unknown method
        if not self.methods:
            raise ValueError("need at least one method")
        if not self.budgets:
            raise ValueError("need at least one budget")
        if any(b <= 0 for b in self.budgets):
            raise ValueError(f"budgets must be positive, got {self.budgets}")
        if any(b1 >= b2 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValueError(f"budgets must be strictly increasing, got {self.budgets}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")


@dataclass(frozen=True)
class BenchRecord:
    """One measurement row; ``skipped`` marks a budget-too-small diagnostic."""

    method: str
    matvec_budget: int
    trial: int
    seed: int
    estimate: float
    exact: float
    rel_error: float
    wall_ms: float
    matvecs_used: int
    flops: float | None = None
    skipped: bool = False


@dataclass(frozen=True)
class SummaryRow:
    method: str
    matvec_budget: int
    trials: int
    mean_rel_error: float
    stderr: float


def resolve_source(source) -> DenseMatrix:
    if isinstance(source, GapMatrixSpec):
        return gen_gap_matrix(source)
    if isinstance(source, TallMatrixSpec):
        return gen_tall_lowrank(source)
    if isinstance(source, (str, Path)):
        return load_matrix(source)
    raise TypeError(f"unsupported matrix source {type(source).__name__}")


def run_bench(cfg: BenchConfig) -> list[BenchRecord]:
    """Run the campaign; returns records sorted by (method, budget, trial).

    Writes the CSV to ``cfg.out`` when set.  Each trial owns a fresh
    operator and RNG stream (seed = base_seed + trial), so results do not
    depend on the worker count.
    """
    mat = resolve_source(cfg.source)
    exact = exact_two_to_inf(mat).value
    if exact == 0.0:
        raise ValueError("exact norm of the source matrix is zero; relative error undefined")

    def run_one(method: str, budget: int, trial: int, m: int) -> BenchRecord:
        op = DenseMatrix(mat.array)
        rng = RngStream(cfg.base_seed + trial)
        start = time.perf_counter()
        est = METHODS[method](op, m, rng)
        wall_ms = (time.perf_counter() - start) * 1e3
        flops = method_flops(method, m, mat.rows, mat.cols) if cfg.include_flops else None
        return BenchRecord(
            method=method,
            matvec_budget=budget,
            trial=trial,
            seed=cfg.base_seed + trial,
            estimate=est.value,
            exact=exact,
            rel_error=abs(est.value - exact) / exact,
            wall_ms=wall_ms,
            matvecs_used=est.matvecs_used,
            flops=flops,
        )

    runs = []
    records = []
    for method in cfg.methods:
        for budget in cfg.budgets:
            m = budget_to_samples(method, budget)
            if m is None:
                records.append(
                    BenchRecord(
                        method=method,
                        matvec_budget=budget,
                        trial=-1,
                        seed=cfg.base_seed,
                        estimate=math.nan,
                        exact=exact,
                        rel_error=math.nan,
                        wall_ms=0.0,
                        matvecs_used=0,
                        flops=None,
                        skipped=True,
                    )
                )
            else:
                runs.extend((method, budget, trial, m) for trial in range(cfg.trials))

    if cfg.workers == 1:
        records.extend(run_one(*args) for args in runs)
    else:
        # Imported here: only a multi-worker run needs it, and importing it
        # (logging and queue come with it) costs resident memory.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            records.extend(pool.map(lambda args: run_one(*args), runs))

    order = {name: k for k, name in enumerate(cfg.methods)}
    records.sort(key=lambda r: (order[r.method], r.matvec_budget, r.trial))
    if cfg.out is not None:
        write_csv(records, cfg.out, cfg.include_walltime, cfg.include_flops)
    return records


def write_csv(records, path, include_walltime: bool = True, include_flops: bool = False) -> None:
    """Write records with 17-significant-digit floats for replay fidelity."""

    def fmt(value: float) -> str:
        return f"{value:.17g}"

    header = ["method", "matvec_budget", "trial", "seed", "estimate", "exact", "rel_error"]
    if include_walltime:
        header.append("wall_ms")
    if include_flops:
        header.append("flops")
    lines = [",".join(header)]
    for r in records:
        row = [r.method, str(r.matvec_budget), str(r.trial), str(r.seed),
               fmt(r.estimate), fmt(r.exact), fmt(r.rel_error)]
        if include_walltime:
            row.append(fmt(r.wall_ms))
        if include_flops:
            row.append(fmt(r.flops) if r.flops is not None else "nan")
        lines.append(",".join(row))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def summarize(records) -> list[SummaryRow]:
    """Per-(method, budget) mean relative error and standard error.

    Diagnostic (skipped) rows are left out; a group with a single trial
    reports a standard error of 0.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, int], list[float]] = {}
    for r in records:
        if r.skipped:
            continue
        groups.setdefault((r.method, r.matvec_budget), []).append(r.rel_error)
    rows = []
    for (method, budget) in sorted(groups):
        errs = np.asarray(groups[(method, budget)])
        stderr = float(np.std(errs, ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0
        rows.append(SummaryRow(method, budget, errs.size, float(np.mean(errs)), stderr))
    return rows


# ---------------------------------------------------------------------------
# command line


def load_config_file(path) -> dict:
    """Flat key=value file mirroring the CLI flags; '#' starts a comment.

    A key must name a CLI option other than ``--config``.
    """
    known = set(vars(build_parser().parse_args([]))) - {"config"}
    opts = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}; choose from {sorted(known)}")
        opts[key] = value.strip()
    return opts


def _split_numbers(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _parse_flag(value) -> bool:
    """A ``store_true`` flag (True or None) or a config-file string, as a bool."""
    if not isinstance(value, str):
        return bool(value)
    lowered = value.strip().lower()
    if lowered in ("", "0", "false", "no", "off"):
        return False
    if lowered in ("1", "true", "yes", "on"):
        return True
    raise ValueError(f"expected a boolean, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twoinf-bench",
        description="Benchmark matrix-free two-to-infinity norm estimators "
        "over matvec budgets and write per-trial relative errors as CSV.",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--gap", nargs=3, metavar=("D", "N", "DELTA"),
                     help="gap-controlled Gaussian matrix source")
    src.add_argument("--tall", nargs=2, metavar=("D", "N"),
                     help="tall low-rank Gaussian matrix source")
    src.add_argument("--load", metavar="PATH", help="binary matrix file source")
    p.add_argument("--config", metavar="PATH",
                   help="key=value config file; explicit flags override it")
    p.add_argument("--methods", help=f"comma list from {', '.join(METHODS)}")
    p.add_argument("--budgets", help="comma list of strictly increasing matvec budgets")
    p.add_argument("--trials", type=int, help="trials per (method, budget)")
    p.add_argument("--seed", type=int, help="base seed; trial t uses seed+t")
    p.add_argument("--workers", type=int, help="parallel trial workers")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--no-walltime", action="store_true", default=None,
                   help="drop the wall_ms column for byte-identical replays")
    p.add_argument("--flops", action="store_true", default=None,
                   help="append a coarse FLOP-count column")
    return p


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    file_opts = load_config_file(args.config) if args.config else {}

    def pick(flag_value, key):
        return flag_value if flag_value is not None else file_opts.get(key)

    gap = pick(args.gap, "gap")
    tall = pick(args.tall, "tall")
    load = pick(args.load, "load")
    base_seed = int(pick(args.seed, "seed") or 0)

    chosen = [name for name, value in (("--gap", gap), ("--tall", tall), ("--load", load))
              if value is not None]
    if len(chosen) != 1:
        raise ValueError(f"choose exactly one matrix source of --gap/--tall/--load, got {chosen or 'none'}")
    if gap is not None:
        fields = _split_numbers(gap) if isinstance(gap, str) else list(gap)
        if len(fields) != 3:
            raise ValueError(f"--gap needs D N DELTA, got {fields}")
        source = GapMatrixSpec(int(fields[0]), int(fields[1]), float(fields[2]), base_seed)
    elif tall is not None:
        fields = _split_numbers(tall) if isinstance(tall, str) else list(tall)
        if len(fields) != 2:
            raise ValueError(f"--tall needs D N, got {fields}")
        source = TallMatrixSpec(int(fields[0]), int(fields[1]), base_seed)
    else:
        source = load

    methods = pick(args.methods, "methods")
    budgets = pick(args.budgets, "budgets")
    if budgets is None:
        raise ValueError("no budgets given (flag --budgets or config key 'budgets')")
    return BenchConfig(
        source=source,
        methods=tuple(m.strip() for m in methods.split(",")) if methods else tuple(METHODS),
        budgets=tuple(int(b) for b in _split_numbers(budgets)),
        trials=int(pick(args.trials, "trials") or 1),
        base_seed=base_seed,
        out=pick(args.out, "out") or "bench.csv",
        workers=int(pick(args.workers, "workers") or 1),
        include_walltime=not _parse_flag(pick(args.no_walltime, "no_walltime")),
        include_flops=_parse_flag(pick(args.flops, "flops")),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        records = run_bench(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {sum(not r.skipped for r in records)} records to {cfg.out}")
    skipped = [r for r in records if r.skipped]
    for r in skipped:
        print(f"note: {r.method} skipped at budget {r.matvec_budget} (below minimum cost)")
    print(f"{'method':<22} {'budget':>8} {'trials':>7} {'mean_rel_error':>15} {'stderr':>12}")
    for row in summarize(records):
        print(f"{row.method:<22} {row.matvec_budget:>8} {row.trials:>7} "
              f"{row.mean_rel_error:>15.6e} {row.stderr:>12.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
