"""Benchmark of the twoinf estimators: one seeded workload per invocation.

    python3 perfbench/run.py --workload gap_square --seed 0 --seconds 30 --trace 0

Runs from the repository root and imports ``twoinf`` from ``src/``; it
builds nothing.  With ``--trace 0`` it sets the workload up several times
(matrix, exact oracle, recovery bound, one warm-up trial), then times
trials for ``--seconds`` seconds and prints the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced trials and prints the
per-layer metrics of ``tracer.py``.  Every estimator call passes through
the correctness gate of ``workloads.py``.  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit
code is 0 only when every check passed.

Results and spans are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_twoinf():
    """Import ``twoinf`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "twoinf" / "__init__.py").is_file():
        raise ImportError(f"no twoinf sources under {src}")
    sys.path.insert(0, str(src))
    import twoinf

    if not Path(twoinf.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"twoinf was imported from {twoinf.__file__}, not from {src}")
    return twoinf


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.perf_counter()
    try:
        import_twoinf()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    import tracer
    import workloads

    import_s = time.perf_counter() - start
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    factory = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, details, gate, spans = harness.run_traced(factory, args.seed, args.seconds)
        spans.save(stem.with_suffix(".spans.npz"))
        units = reported = tracer.LAYER_METRICS
    else:
        metrics, details, gate = harness.run_timed(factory, args.seed, args.seconds)
        units = {**harness.END_TO_END, **harness.ALSO_PRINTED}
        reported = harness.END_TO_END
    details["import_s"] = import_s

    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>16.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    print(f"calls attempted {gate.attempted}, failed {gate.failed}; "
          f"check failures {len(gate.problems)}")
    stem.with_suffix(".json").write_text(json.dumps(
        {"environment": env, "workload": args.workload, "trace": args.trace,
         "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
         "details": details, "attempted": gate.attempted, "failed": gate.failed,
         "problems": gate.problems}, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in reported.items()},
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
