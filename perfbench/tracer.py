"""Outside-in layer tracing of ``twoinf``, installed from the benchmark's files.

:meth:`Tracer.installed` wraps the public entry points of each module for
the duration of a ``with`` block and restores the originals in ``finally``:

* ``DenseMatrix._apply`` / ``_apply_transpose`` (the subclass contract the
  composite operators call) and the composite operators' own ``_apply`` /
  ``_apply_transpose``;
* ``RngStream.rademacher`` and ``RngStream.normal``;
* ``hutchinson_diag``, ``hutchpp_diag``, ``thin_qr``, ``lowrank_diag``,
  ``dual_vector``, ``exact_two_to_inf``, the generators, ``run_bench`` and
  ``resolve_source``, in every module namespace that holds them;
* the entries of ``METHODS``, which ``bench`` and ``estimate_one_to_two``
  look up.

A wrapper only records a span around the original call, so traced results
are bit-identical to untraced ones.  Spans (name, start, end, parent,
trial, amount) are kept in memory, one compact array per trial, and can be
written out with :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

import twoinf
from twoinf import bench, estimators, oplib, sketch, synthetic

MODULES = (twoinf, oplib, sketch, estimators, synthetic, bench)

SPAN_DTYPE = np.dtype([("idx", "<i8"), ("name", "<i2"), ("start", "<i8"), ("end", "<i8"),
                       ("parent", "<i8"), ("trial", "<i4"), ("amount", "<i8")])


def _columns(_op, x):
    return 1 if x.ndim == 1 else x.shape[1]


def _rademacher_words(_rng, size):
    return (size + 63) // 64


def _normal_words(_rng, size):
    return int(np.prod(size))


def _samples(_op, m, _rng):
    return m


# (class, attribute, span name, amount) for methods patched on the class.
METHOD_SPANS = (
    (oplib.DenseMatrix, "_apply", "oplib.apply", _columns),
    (oplib.DenseMatrix, "_apply_transpose", "oplib.apply_transpose", _columns),
    (oplib.GramOp, "_apply", "oplib.composite", None),
    (oplib.GramOp, "_apply_transpose", "oplib.composite", None),
    (oplib.DeflatedGramOp, "_apply", "oplib.composite", None),
    (oplib.DeflatedGramOp, "_apply_transpose", "oplib.composite", None),
    (oplib.TransposedOp, "_apply", "oplib.composite", None),
    (oplib.TransposedOp, "_apply_transpose", "oplib.composite", None),
    (sketch.RngStream, "rademacher", "sketch.rng", _rademacher_words),
    (sketch.RngStream, "normal", "sketch.rng", _normal_words),
)

# (function, span name, amount) for functions patched in every namespace.
FUNCTION_SPANS = (
    (sketch.hutchinson_diag, "sketch.hutchinson", _samples),
    (sketch.hutchpp_diag, "sketch.hutchpp", None),
    (sketch.thin_qr, "sketch.qr", None),
    (sketch.lowrank_diag, "sketch.lowrank", None),
    (estimators.dual_vector, "estimators.dual", None),
    (estimators.exact_two_to_inf, "estimators.exact", None),
    (synthetic.gen_gap_matrix, "synthetic.gen", None),
    (synthetic.gen_tall_lowrank, "synthetic.gen", None),
    (bench.run_bench, "bench.run", None),
    (bench.resolve_source, "bench.resolve", None),
)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.trial = -1
        self._next = 0
        self._stack = [-1]
        self._rows: list[tuple] = []
        self._done: list[np.ndarray] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, amount=None):
        """Return ``fn`` wrapped to record one span per call."""
        nid = self._name_id(name)
        rows, stack, clock = self._rows, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._next
            self._next = idx + 1
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.append((idx, nid, start, end, parent, self.trial,
                             1 if amount is None else amount(*args, **kwargs)))

        return traced

    @contextmanager
    def installed(self, trial: int = -1):
        """Patch every traced entry point for the block; spans carry ``trial``."""
        undo = []
        self.trial = trial
        try:
            for cls, attr, name, amount in METHOD_SPANS:
                original = cls.__dict__[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, amount))
            for fn, name, amount in FUNCTION_SPANS:
                wrapped = self.wrap(name, fn, amount)
                for mod in MODULES:
                    if getattr(mod, fn.__name__, None) is fn:
                        undo.append((mod, fn.__name__, fn))
                        setattr(mod, fn.__name__, wrapped)
            methods = estimators.METHODS
            for key, fn in list(methods.items()):
                undo.append((methods, key, fn))
                methods[key] = self.wrap(f"estimators.{key}", fn)
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)
            self._flush()

    def _flush(self) -> None:
        if self._rows:
            self._done.append(np.array(self._rows, dtype=SPAN_DTYPE))
            self._rows.clear()

    def spans(self) -> np.ndarray:
        """Every recorded span, ordered by the index assigned on entry."""
        self._flush()
        if not self._done:
            return np.zeros(0, dtype=SPAN_DTYPE)
        out = np.concatenate(self._done)
        return out[np.argsort(out["idx"], kind="stable")]

    def save(self, path) -> None:
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names))


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover (ns).

    Children of a span run inside it on one thread and do not overlap, so
    the time they cover is the sum of their durations.
    """
    duration = spans["end"] - spans["start"]
    child = np.zeros(len(spans), dtype=np.int64)
    has_parent = spans["parent"] >= 0
    position = np.searchsorted(spans["idx"], spans["parent"][has_parent])
    np.add.at(child, position, duration[has_parent])
    return duration - child


# Per-layer metrics of the traced run, in report order, with their units.
LAYER_METRICS = {
    "oplib.products": "count",
    "oplib.apply.calls": "count",
    "oplib.apply_transpose.calls": "count",
    "oplib.cols_per_call": "cols/call",
    "oplib.self_ms": "ms",
    "oplib.gflops": "GFLOP/s",
    "oplib.bytes_computed": "B",
    "oplib.composite.self_ms": "ms",
    "sketch.rng.calls": "count",
    "sketch.rng.words": "count",
    "sketch.rng.self_ms": "ms",
    "sketch.hutchinson.self_ms": "ms",
    "sketch.hutchinson.samples": "count",
    "sketch.qr.self_ms": "ms",
    "sketch.qr.calls": "count",
    "sketch.lowrank.self_ms": "ms",
    "sketch.hutchpp.self_ms": "ms",
    **{f"estimators.{method}.ms.p50": "ms" for method in estimators.METHODS},
    "estimators.self_ms": "ms",
    "estimators.dual.self_ms": "ms",
    "estimators.dual.calls": "count",
    "estimators.exact_ms": "ms",
    "synthetic.gen_ms": "ms",
    "bench.estimator_calls": "count",
    "bench.self_ms": "ms",
    "bench.resolve_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tracer: Tracer, shape: tuple[int, int], overhead_frac: float) -> dict:
    """Per-layer metrics from the recorded spans.

    Counts and times are per traced trial (spans with ``trial >= 0``);
    ``estimators.exact_ms`` and ``synthetic.gen_ms`` are per call, over
    set-up and trials alike.  FLOPs and bytes are computed from the
    product count and ``shape``, not measured.
    """
    spans = tracer.spans()
    own = self_times(spans)
    names = np.array(tracer.names)[spans["name"]]
    duration = spans["end"] - spans["start"]
    in_trial = spans["trial"] >= 0
    trials = max(1, len(np.unique(spans["trial"][in_trial])))

    def pick(*wanted, trial_only=True):
        mask = np.isin(names, wanted)
        return mask & in_trial if trial_only else mask

    def per_trial(values) -> float:
        return float(values.sum()) / trials

    ms = 1e-6
    products_mask = pick("oplib.apply", "oplib.apply_transpose")
    products = int(spans["amount"][products_mask].sum())
    oplib_ns = int(own[products_mask].sum())
    rows, cols = shape
    methods = [f"estimators.{m}" for m in estimators.METHODS]

    out = {
        "oplib.products": products / trials,
        "oplib.apply.calls": per_trial(pick("oplib.apply")),
        "oplib.apply_transpose.calls": per_trial(pick("oplib.apply_transpose")),
        "oplib.cols_per_call": products / max(1, int(products_mask.sum())),
        "oplib.self_ms": oplib_ns * ms / trials,
        "oplib.gflops": 2.0 * rows * cols * products / oplib_ns if oplib_ns else 0.0,
        "oplib.bytes_computed": 8.0 * (rows * cols + rows + cols) * products / trials,
        "oplib.composite.self_ms": per_trial(own[pick("oplib.composite")]) * ms,
        "sketch.rng.calls": per_trial(pick("sketch.rng")),
        "sketch.rng.words": per_trial(spans["amount"][pick("sketch.rng")]),
        "sketch.rng.self_ms": per_trial(own[pick("sketch.rng")]) * ms,
        "sketch.hutchinson.self_ms": per_trial(own[pick("sketch.hutchinson")]) * ms,
        "sketch.hutchinson.samples": per_trial(spans["amount"][pick("sketch.hutchinson")]),
        "sketch.qr.self_ms": per_trial(own[pick("sketch.qr")]) * ms,
        "sketch.qr.calls": per_trial(pick("sketch.qr")),
        "sketch.lowrank.self_ms": per_trial(own[pick("sketch.lowrank")]) * ms,
        "sketch.hutchpp.self_ms": per_trial(own[pick("sketch.hutchpp")]) * ms,
    }
    for method in methods:
        durations = duration[pick(method)]
        out[f"{method}.ms.p50"] = float(np.median(durations)) * ms if len(durations) else 0.0
    out["estimators.self_ms"] = per_trial(own[pick(*methods)]) * ms
    out["estimators.dual.self_ms"] = per_trial(own[pick("estimators.dual")]) * ms
    out["estimators.dual.calls"] = per_trial(pick("estimators.dual"))
    for metric, name in (("estimators.exact_ms", "estimators.exact"),
                         ("synthetic.gen_ms", "synthetic.gen")):
        durations = duration[pick(name, trial_only=False)]
        out[metric] = float(durations.mean()) * ms if len(durations) else 0.0

    def under_bench(i: int) -> bool:
        while spans["parent"][i] >= 0:
            i = int(np.searchsorted(spans["idx"], spans["parent"][i]))
            if names[i] == "bench.run":
                return True
        return False

    out["bench.estimator_calls"] = sum(
        under_bench(i) for i in np.flatnonzero(pick(*methods))) / trials
    out["bench.self_ms"] = per_trial(own[pick("bench.run")]) * ms
    out["bench.resolve_ms"] = per_trial(duration[pick("bench.resolve")]) * ms
    out["trace.overhead_frac"] = overhead_frac
    return out


def products_by_trial(tracer: Tracer) -> dict[int, int]:
    """A/A^T products recorded in each traced trial."""
    spans = tracer.spans()
    names = np.array(tracer.names)[spans["name"]]
    mask = np.isin(names, ("oplib.apply", "oplib.apply_transpose"))
    trials, amounts = spans["trial"][mask], spans["amount"][mask]
    return {int(t): int(amounts[trials == t].sum()) for t in np.unique(trials)}
