"""The benchmark's span targets and workloads still fit the program.

``perfbench/tracing.py`` wraps program functions by module attribute name
and raises when a pattern matches nothing, so renaming or dropping one of
those names breaks every traced benchmark run.  The benchmark's own smoke
test is outside this suite's ``testpaths``; these checks only read its files.
The oracle counts and the estimators must also be called through the
attributes the tracer wraps, or the benchmark's per-layer oracle and
estimator metrics read 0 calls.  Each workload also runs once at its toy
size, in this process, so a change to the API it calls (``ExperimentConfig``,
``GridPoint``, ``calibrate_ridge``, ``run_experiment``, the ``simulate``
command) fails here.  Until the benchmark loads ``acceptance_table.py``
itself, its copies of criteria 6 and 7 must match the table's.
"""

import fnmatch
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
TABLE = ROOT / "tests" / "acceptance_table.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_targets():
    return load(TRACING, "perfbench_tracing").SPAN_TARGETS


@pytest.mark.parametrize("module_name, pattern, span", span_targets())
def test_span_target_matches_an_attribute(module_name, pattern, span):
    module = importlib.import_module(module_name)
    assert fnmatch.filter(vars(module), pattern), (
        f"{module_name} has no attribute matching {pattern!r} (span {span})")


@pytest.mark.parametrize("kind, count", [
    ("population", "spike_identifiable_count"),
    ("fisher", "spike_identifiable_count"),
    ("autocov", "autocov_identifiable_count"),
])
def test_true_order_count_is_traced(monkeypatch, kind, count):
    # the rmt.identifiable_count metrics see a count only through the module
    # attributes the tracer wraps; a call that bypassed them would read 0 calls
    rmt = importlib.import_module("spikeorder.rmt")
    from spikeorder.spectra import AutocovModel, FisherModel, PopulationModel

    (pattern,) = [pat for module, pat, _ in span_targets() if module == "spikeorder.rmt"]
    seen = []
    for name in fnmatch.filter(vars(rmt), pattern):
        real = getattr(rmt, name)
        monkeypatch.setattr(rmt, name, lambda *a, _real=real, _name=name:
                            seen.append(_name) or _real(*a))
    model = {"population": PopulationModel(p=50, n=200, spikes=(7.0, 4.0)),
             "fisher": FisherModel(p=50, n=250, T=100, alpha=(10.0, 5.0, 5.0)),
             "autocov": AutocovModel(p=20, T=40, theta=(0.6,))}[kind]
    assert model.true_order() >= 1
    assert seen == [count]


@pytest.mark.parametrize("kind", ["population", "fisher", "autocov"])
def test_every_estimator_call_is_traced(monkeypatch, tmp_path, kind):
    # likewise the estimators.*.calls metrics: the harness must reach each
    # estimator through its spikeorder.harness attribute at call time, so a
    # table holding the function objects themselves would read 0 calls
    harness = importlib.import_module("spikeorder.harness")
    from spikeorder.spectra import AutocovModel, FisherModel, PopulationModel

    attrs = [attr for module, attr, span in span_targets()
             if module == "spikeorder.harness" and span.startswith("estimators.")]
    seen = set()
    for attr in attrs:
        real = getattr(harness, attr)
        monkeypatch.setattr(harness, attr, lambda *a, _real=real, _attr=attr, **kw:
                            seen.add(_attr) or _real(*a, **kw))
    model, point = {
        "population": (PopulationModel(p=50, n=200, spikes=(7.0, 4.0)),
                       harness.GridPoint(p=50, n=200)),
        "fisher": (FisherModel(p=40, n=200, T=80, alpha=(10.0, 5.0, 5.0)),
                   harness.GridPoint(p=40, n=200, T=80)),
        "autocov": (AutocovModel(p=40, T=80, theta=(0.6,)), harness.GridPoint(p=40, T=80)),
    }[kind]
    names = [n for n in harness.ESTIMATOR_NAMES if n != "wy" or kind == "fisher"]  # wy: Fisher only
    cfg = harness.ExperimentConfig(model_id=kind, model=model, grid=(point,), reps=1,
                                   estimators=tuple(harness.EstimatorSetting(n) for n in names),
                                   calibration_reps=20)
    reports = harness.run_experiment(cfg, cache_dir=str(tmp_path)).reports
    assert not any(r.partial for r in reports)
    assert seen == {a for a in attrs if a.removesuffix("_estimator") in names}


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_at_tiny_size(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports tracing by that name
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]("tiny", 0, 1, str(tmp_path))
    workload.fill_cache()
    unit = workload.run_unit()
    assert unit.checks and all(unit.checks.values()), unit.checks


@pytest.mark.parametrize("name, criterion", [("FisherCold", 7), ("AutocovWarm", 6)])
def test_workload_matches_acceptance_table(monkeypatch, tmp_path, name, criterion):
    # at full size and seed 0 a workload reruns its criterion's experiments
    # and gates them on the same accuracy bounds
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload_class = getattr(importlib.import_module("workloads"), name)
    entries = load(TABLE, "acceptance_table").TABLE[criterion].values()
    assert workload_class("full", 0, 1, str(tmp_path)).cfgs == [cfg for cfg, _ in entries]
    table_bounds = {(cfg.model_id, e, b.statistic, limit, at_least)
                    for cfg, bounds in entries for b in bounds for e in b.estimators
                    for limit, at_least in ((b.lo, True), (b.hi, False)) if limit is not None}
    assert table_bounds == {(b.model_id, b.estimator, "accuracy", b.limit, b.at_least)
                            for b in workload_class.bounds}
