"""Timed and traced runs of one workload, with the correctness gate.

``run_timed`` gives the end-to-end metrics, ``run_traced`` the per-layer
metrics; both pass every estimator call through ``workloads.check`` and
add run-level checks (replays and traced runs must be bit-identical, and
the traced A/A^T products must equal the reported matvecs).
"""

from __future__ import annotations

import resource
import statistics
import sys
import time

import tracer
import workloads

SETUPS = 5  # set-ups per run; setup_s is their median
WARMUP_TRIALS = 1  # untimed trials inside each set-up
MAX_TRACED_TRIALS = 10  # bounds the memory the spans of one run take
TAIL_BEYOND = 10  # trials the tail percentile must leave above it

# End-to-end metrics in the JSON line with --trace 0.  The accuracy
# metrics are printed and stored beside them but left out of that set:
# mean_rel_error is 0 up to rounding on recovery_bound, failed_frac is 0
# (the JSON line's own "failed" count carries it), and exact_frac spreads
# over seeds by more than any permitted bound (quartiles 14% of the median
# apart on gap_square, 26% on tall_deflate).
END_TO_END = {
    "setup_s": "s",
    "trial_ms.p50": "ms",
    "trial_ms.tail": "ms",
    "matvecs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
ALSO_PRINTED = {"mean_rel_error": "ratio", "exact_frac": "ratio", "failed_frac": "ratio"}


def tail(walls_ms: list[float]) -> tuple[float, float]:
    """The slowest trial with ``TAIL_BEYOND`` trials beyond it, and its percentile.

    That is the highest percentile with at least ``TAIL_BEYOND`` trials
    beyond it.  With ``TAIL_BEYOND`` trials or fewer it is the slowest.
    """
    ordered = sorted(walls_ms)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return 100.0 * rank / n, ordered[rank - 1]


class Gate:
    """Counts estimator calls and failures, and run-level check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def calls(self, inst: workloads.Instance, calls, where: str) -> None:
        for call in calls:
            self.attempted += 1
            why = workloads.check(inst, call)
            if why is not None:
                self.failed += 1
                self.problem(f"{where}: {call.method} budget {call.budget}"
                             f"{' on A^T' if call.transposed else ''}: {why}")

    def require(self, ok: bool, why: str) -> None:
        if not ok:
            self.problem(why)

    def problem(self, why: str) -> None:
        self.problems.append(why)
        if len(self.problems) <= 20:
            print(f"CHECK FAILED {why}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def fingerprint(trials) -> list[list[tuple]]:
    """What must repeat bit for bit when trials are replayed."""
    return [[(c.method, c.budget, c.transposed, float(c.value).hex(), c.matvecs, c.error)
             for c in calls] for calls in trials]


def run_timed(factory, seed: int, seconds: float) -> tuple[dict, dict, Gate]:
    """Set up ``SETUPS`` times, then time trials for ``seconds``.

    Each set-up builds the instance and runs its warm-up trials, which
    must replay bit for bit across set-ups and in the timed trials.  The
    accuracy metrics use the first ``accuracy_trials`` trials only, which
    every run completes, so they are a function of the seed.
    """
    gate = Gate()
    setup_times, first_warm = [], None
    for _ in range(SETUPS):
        start = time.perf_counter()
        inst = factory(seed)
        warm = [inst.trial(k) for k in range(WARMUP_TRIALS)]
        setup_times.append(time.perf_counter() - start)
        for calls in warm:
            gate.calls(inst, calls, "warm-up")
        first_warm = first_warm or fingerprint(warm)
        gate.require(fingerprint(warm) == first_warm,
                     "a repeated set-up replayed its warm-up trials differently")

    walls, trials = [], []
    start = time.perf_counter()
    while len(trials) < inst.accuracy_trials or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        calls = inst.trial(len(trials))
        walls.append(time.perf_counter() - t0)
        trials.append(calls)
    for k, calls in enumerate(trials):
        gate.calls(inst, calls, f"trial {k}")
    gate.require(fingerprint(trials[:WARMUP_TRIALS]) == first_warm,
                 "a timed trial differs from its warm-up replay")

    accuracy = [c for calls in trials[:inst.accuracy_trials] for c in calls]
    selecting = [c for c in accuracy if c.method in workloads.ROW_SELECTING]
    walls_ms = [w * 1e3 for w in walls]
    level, tail_ms = tail(walls_ms)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "trial_ms.p50": statistics.median(walls_ms),
        "trial_ms.tail": tail_ms,
        "matvecs_per_s": sum(c.matvecs for calls in trials for c in calls) / sum(walls),
        "exact_frac": sum(workloads.is_exact(inst, c) for c in selecting) / len(selecting),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_rel_error": statistics.fmean(workloads.rel_error(inst, c) for c in accuracy),
        "failed_frac": gate.failed / gate.attempted,
    }
    details = {
        "trials": len(walls),
        "trial_ms_each": walls_ms,
        "tail_percentile": level,
        "accuracy_trials": inst.accuracy_trials,
        "setup_s_each": setup_times,
        "recovery_m": inst.m,
    }
    return metrics, details, gate


def run_traced(factory, seed: int, seconds: float):
    """Alternate untraced and traced runs of each trial for ``seconds``.

    The set-up is traced as trial -1.  Stops after ``MAX_TRACED_TRIALS``
    pairs.  ``trace.overhead_frac`` compares the medians of the two sides.
    """
    spans = tracer.Tracer()
    with spans.installed():
        inst = factory(seed)
    gate = Gate()
    for k in range(WARMUP_TRIALS):
        gate.calls(inst, inst.trial(k), "warm-up")

    pairs, matvecs = [], {}
    start = time.perf_counter()
    k = 0
    while k < 1 or (k < MAX_TRACED_TRIALS and time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        plain = inst.trial(k)
        t1 = time.perf_counter()
        with spans.installed(trial=k):
            t2 = time.perf_counter()
            traced = inst.trial(k)
            t3 = time.perf_counter()
        pairs.append((t1 - t0, t3 - t2))
        gate.calls(inst, plain, f"trial {k}")
        gate.calls(inst, traced, f"traced trial {k}")
        gate.require(fingerprint([plain]) == fingerprint([traced]),
                     f"traced trial {k} differs from its untraced run")
        matvecs[k] = sum(c.matvecs for c in traced)
        k += 1

    products = tracer.products_by_trial(spans)
    for trial, used in matvecs.items():
        gate.require(products.get(trial, 0) == used,
                     f"trial {trial}: {products.get(trial, 0)} A/A^T products traced, "
                     f"{used} matvecs reported")
    overhead = (statistics.median(t for _, t in pairs)
                / statistics.median(u for u, _ in pairs) - 1.0)
    metrics = tracer.layer_metrics(spans, inst.mat.array.shape, overhead)
    details = {"traced_trials": len(pairs), "recovery_m": inst.m}
    return metrics, details, gate, spans
