"""In-memory span tracing at the program's layer boundaries.

The benchmark wraps the module attributes the program calls through (for
example ``spikeorder.harness.simulate``) for the length of one timed unit and
restores them afterwards.  Each call becomes a span: name, start, end,
thread and parent span.  A span opened on a pool thread with nothing open
on that thread gets, as parent, the innermost span open on the thread that
drives the workload, so replications run by the harness's thread pool hang
under ``harness.run_experiment`` and pure-noise draws under
``calibration.calibrate_ridge``.

The program itself is not modified; spans inside the program's functions
would be a change to the program.
"""

import fnmatch
import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# (module, attribute pattern, span name).  The program looks these names up
# at call time, so replacing the module attribute is enough to see each call.
SPAN_TARGETS = (
    ("spikeorder.harness", "run_experiment", "harness.run_experiment"),
    ("spikeorder.harness", "simulate", "spectra.simulate"),
    ("spikeorder.harness", "calibrate_ridge", "calibration.calibrate_ridge"),
    ("spikeorder.harness", "vacle", "estimators.vacle"),
    ("spikeorder.harness", "tvacle", "estimators.tvacle"),
    ("spikeorder.harness", "py_estimator", "estimators.py_estimator"),
    ("spikeorder.harness", "lwy_estimator", "estimators.lwy_estimator"),
    ("spikeorder.harness", "wy_estimator", "estimators.wy_estimator"),
    ("spikeorder.calibration", "simulate", "calibration.simulate"),
    ("spikeorder.calibration", "estimate_sigma2", "calibration.estimate_sigma2"),
    # vacle/tvacle reach the scale estimator through their own module's name
    ("spikeorder.estimators", "estimate_sigma2", "calibration.estimate_sigma2"),
    ("spikeorder.rmt", "*_identifiable_count", "rmt.identifiable_count"),
    ("spikeorder.cli", "load_experiment_config", "cli.load_experiment_config"),
    ("spikeorder.cli", "run_experiment", "harness.run_experiment"),
    ("spikeorder.cli", "summarize", "harness.summarize"),
)

ESTIMATORS = ("vacle", "tvacle", "py_estimator", "lwy_estimator", "wy_estimator")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    thread: int
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-safe in-memory span recorder.

    Create it on the thread that drives the workload: that thread's open
    spans are the fallback parents for spans opened on pool threads.
    """

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._driver = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._driver[-1]
        except IndexError:
            return None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self._parent(stack)
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end,
                                       threading.get_ident(), parent))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def to_records(self, origin: float) -> list:
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        return [{"id": s.id, "name": s.name, "start_s": s.start - origin,
                 "end_s": s.end - origin, "thread": s.thread, "parent": s.parent}
                for s in spans]


class CacheCounter:
    """Counts calibration-cache hits and misses at ``load_cached``.

    ``calibrate_ridge`` consults ``load_cached`` once per call with a cache
    directory; ``None`` means a miss.  This is a counter, not a span, and is
    installed on untraced units too, because the cache gates need it.
    """

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            with self._lock:
                if result is None:
                    self.misses += 1
                else:
                    self.hits += 1
            return result
        return counted


def replacements(modules: dict, counter: CacheCounter, tracer: Tracer | None) -> list:
    """(module, attribute, wrapper) triples for one unit."""
    calibration = modules["spikeorder.calibration"]
    out = [(calibration, "load_cached", counter.wrap(calibration.load_cached))]
    if tracer is None:
        return out
    for module_name, pattern, span_name in SPAN_TARGETS:
        module = modules[module_name]
        names = sorted(fnmatch.filter(vars(module), pattern))
        if not names:
            raise RuntimeError(f"{module_name} has no attribute matching {pattern!r}")
        for attr in names:
            out.append((module, attr, tracer.wrap(span_name, getattr(module, attr))))
    return out


@contextmanager
def patched(triples):
    """Install (module, attribute, value) replacements, restore on exit."""
    saved = []
    try:
        for module, attr, value in triples:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _percentile(values, q: float, scale: float) -> float:
    # a layer the workload never calls has no samples; report 0 (calls is 0)
    return float(np.percentile(values, q)) * scale if values else 0.0


PER_LAYER_UNITS = {
    "spectra.simulate.calls": "count",
    "spectra.simulate.p50_ms": "ms",
    "spectra.simulate.p99_ms": "ms",
    "spectra.simulate.busy_s": "s",
    "calibration.simulate.calls": "count",
    "calibration.simulate.p50_ms": "ms",
    "calibration.simulate.busy_s": "s",
    "calibration.calibrate_ridge.calls": "count",
    "calibration.calibrate_ridge.wall_s": "s",
    "calibration.cache.hits": "count",
    "calibration.cache.misses": "count",
    **{f"estimators.{e}.{field}": unit
       for e in ESTIMATORS
       for field, unit in (("calls", "count"), ("p50_us", "us"),
                           ("p99_us", "us"), ("busy_s", "s"))},
    "calibration.estimate_sigma2.calls": "count",
    "calibration.estimate_sigma2.busy_s": "s",
    "rmt.identifiable_count.calls": "count",
    "rmt.identifiable_count.wall_ms": "ms",
    "harness.run_experiment.wall_s": "s",
    "harness.self_s": "s",
    "harness.concurrency": "ratio",
    "cli.load_experiment_config.wall_ms": "ms",
    "harness.summarize.wall_ms": "ms",
    "trace.overhead_s": "s",
}


def layer_metrics(spans, units: int, hits: int, misses: int,
                  overhead_s: float) -> dict:
    """Per-layer metrics from the spans of ``units`` traced units.

    Counts and busy times are per unit; percentiles pool every call.  Busy
    time is inclusive: an estimator's busy time contains the scale
    estimates it calls.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def durations(name):
        return [s.duration for s in by_name.get(name, ())]

    out = {}

    def layer(prefix, name, fields):
        d = durations(name)
        values = {
            "calls": len(d) / units,
            "p50_ms": _percentile(d, 50, 1e3),
            "p99_ms": _percentile(d, 99, 1e3),
            "p50_us": _percentile(d, 50, 1e6),
            "p99_us": _percentile(d, 99, 1e6),
            "busy_s": sum(d) / units,
            "wall_s": sum(d) / units,
            "wall_ms": sum(d) * 1e3 / units,
        }
        for f in fields:
            out[f"{prefix}.{f}"] = values[f]

    layer("spectra.simulate", "spectra.simulate", ("calls", "p50_ms", "p99_ms", "busy_s"))
    layer("calibration.simulate", "calibration.simulate", ("calls", "p50_ms", "busy_s"))
    layer("calibration.calibrate_ridge", "calibration.calibrate_ridge", ("calls", "wall_s"))
    out["calibration.cache.hits"] = hits / units
    out["calibration.cache.misses"] = misses / units
    for e in ESTIMATORS:
        layer(f"estimators.{e}", f"estimators.{e}", ("calls", "p50_us", "p99_us", "busy_s"))
    layer("calibration.estimate_sigma2", "calibration.estimate_sigma2", ("calls", "busy_s"))
    layer("rmt.identifiable_count", "rmt.identifiable_count", ("calls", "wall_ms"))
    layer("harness.run_experiment", "harness.run_experiment", ("wall_s",))

    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    self_s = busy = plain_wall = 0.0
    for run in by_name.get("harness.run_experiment", ()):
        kids = children.get(run.id, ())
        covered = _union_length((max(k.start, run.start), min(k.end, run.end))
                                for k in kids)
        self_s += run.duration - covered
        calib = sum(k.duration for k in kids if k.name == "calibration.calibrate_ridge")
        busy += sum(k.duration for k in kids if k.name != "calibration.calibrate_ridge")
        plain_wall += run.duration - calib
    out["harness.self_s"] = self_s / units
    out["harness.concurrency"] = busy / plain_wall if plain_wall > 0 else 0.0

    layer("cli.load_experiment_config", "cli.load_experiment_config", ("wall_ms",))
    layer("harness.summarize", "harness.summarize", ("wall_ms",))
    out["trace.overhead_s"] = overhead_s
    if set(out) != set(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metric names out of step with PER_LAYER_UNITS")
    return out
