"""Benchmark harness: seeded trial ensembles over matvec budgets.

Runs each configured method at each matvec budget for a number of
independent trials, converts budgets to per-method sample counts through
the inverse cost model so every method is compared at equal oracle cost,
and returns one record per (method, budget, trial) for ``write_csv``.
Replays are byte-identical for a fixed config without the wall-time column.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# method_cost is not used here; perfbench's workloads.check imports it from here.
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
from .synthetic import (GapMatrixSpec, TallMatrixSpec, _require_integers, gen_gap_matrix,
                        gen_tall_lowrank, load_matrix)

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "SummaryRow",
    "run_bench",
    "summarize",
    "write_csv",
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

    def __post_init__(self):
        for attr in ("methods", "budgets"):
            values = getattr(self, attr)
            # tuple() would split a string into its characters.
            if isinstance(values, (str, bytes)) or not np.iterable(values):
                raise ValueError(f"{attr} must be a sequence, got {values!r}")
            object.__setattr__(self, attr, tuple(values))
        named = [("budgets", b) for b in self.budgets]
        _require_integers(named + [("trials", self.trials), ("base_seed", self.base_seed)])
        for i, name in enumerate(self.methods):
            _cost_entry(name)  # raises on an unknown method
            if name in self.methods[:i]:
                raise ValueError(f"method {name!r} listed more than once")
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


@dataclass(frozen=True)
class BenchRecord:
    """One measurement row; ``skipped`` marks a budget-too-small diagnostic.

    ``matvecs_used`` is the method's cost-model count; ``products`` is the
    products the trial made on the campaign's operator, its counter
    difference (0 on a skipped row).  No CSV column holds ``products``.
    """

    method: str
    matvec_budget: int
    trial: int
    seed: int
    estimate: float
    exact: float
    rel_error: float
    wall_ms: float
    matvecs_used: int
    products: int = 0
    flops: float = math.nan
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
    """Run the campaign; returns its records in plan order and writes no file.

    The plan takes the methods as given, then the budgets, then the trials.
    A budget below a method's minimum gives one diagnostic record (trial
    -1).  Every trial runs on the source's one operator, isolated by its own
    RNG stream (seed = base_seed + trial) and its own counter difference, so
    its record equals the standalone ``METHODS`` call.
    """
    mat = resolve_source(cfg.source)
    exact = exact_two_to_inf(mat).value
    if exact == 0.0:
        raise ValueError("exact norm of the source matrix is zero; relative error undefined")
    records = []
    for method in cfg.methods:
        for budget in cfg.budgets:
            m = budget_to_samples(method, budget)
            if m is None:
                records.append(BenchRecord(method, budget, -1, cfg.base_seed, math.nan, exact,
                                           math.nan, 0.0, 0, skipped=True))
                continue
            flops = method_flops(method, m, mat.rows, mat.cols)
            for trial in range(cfg.trials):
                seed = cfg.base_seed + trial
                rng = RngStream(seed)
                before = mat.matvec_count
                start = time.perf_counter()
                est = METHODS[method](mat, m, rng)
                wall_ms = (time.perf_counter() - start) * 1e3
                records.append(BenchRecord(method, budget, trial, seed, est.value, exact,
                                           abs(est.value - exact) / exact, wall_ms,
                                           est.matvecs_used, mat.matvec_count - before,
                                           flops=flops))
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
            row.append(fmt(r.flops))
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


def build_parser() -> argparse.ArgumentParser:
    """The ``twoinf-bench`` parser; ``@PATH`` reads more arguments from a file.

    An argument file holds ordinary flags, any number per line, and '#'
    starts a comment.  Arguments are read in order and a later flag wins,
    so ``@PATH --trials 3`` overrides the file's trial count.  The defaults
    are ``BenchConfig``'s field defaults; the CLI alone has ``write_csv``'s
    options and defaults ``methods`` to every method.
    """
    p = argparse.ArgumentParser(
        prog="twoinf-bench",
        description="Benchmark matrix-free two-to-infinity norm estimators "
        "over matvec budgets and write per-trial relative errors as CSV.",
        fromfile_prefix_chars="@",
    )
    p.convert_arg_line_to_args = lambda line: line.split("#", 1)[0].split()
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--gap", nargs=3, metavar=("D", "N", "DELTA"),
                     help="gap-controlled Gaussian matrix source")
    src.add_argument("--tall", nargs=2, metavar=("D", "N"),
                     help="tall low-rank Gaussian matrix source")
    src.add_argument("--load", metavar="PATH", help="binary matrix file source")
    p.add_argument("--methods", default=",".join(METHODS),
                   help=f"comma list from {', '.join(METHODS)}")
    p.add_argument("--budgets", required=True,
                   help="comma list of strictly increasing matvec budgets")
    p.add_argument("--trials", type=_number, default=BenchConfig.trials,
                   help="trials per (method, budget)")
    p.add_argument("--seed", type=_number, default=BenchConfig.base_seed,
                   help="base seed; trial t uses seed+t")
    p.add_argument("--out", default="bench.csv", help="output CSV path")
    p.add_argument("--no-walltime", dest="include_walltime", action="store_false",
                   help="drop the wall_ms column for byte-identical replays")
    p.add_argument("--flops", dest="include_flops", action="store_true",
                   help="append a coarse FLOP-count column")
    return p


def _number(word: str, kind=int):
    """``word`` as a ``kind``; any other word is kept, for the field's check to name."""
    try:
        return kind(word)
    except ValueError:
        return word


def config_from_args(args: argparse.Namespace) -> BenchConfig:
    """The campaign a parsed ``twoinf-bench`` command line describes."""
    if args.gap:
        d, n, delta = args.gap
        source = GapMatrixSpec(_number(d), _number(n), _number(delta, float), args.seed)
    elif args.tall:
        d, n = args.tall
        source = TallMatrixSpec(_number(d), _number(n), args.seed)
    else:
        source = args.load
    return BenchConfig(
        source=source,
        methods=tuple(m.strip() for m in args.methods.split(",")),
        budgets=tuple(_number(b) for b in args.budgets.replace(",", " ").split()),
        trials=args.trials,
        base_seed=args.seed,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records = run_bench(config_from_args(args))
        write_csv(records, args.out, args.include_walltime, args.include_flops)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {sum(not r.skipped for r in records)} records to {args.out}")
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
