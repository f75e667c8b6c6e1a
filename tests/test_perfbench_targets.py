"""The benchmark's span targets and workloads still fit the program.

``perfbench/tracing.py`` wraps program functions by module attribute name
and raises when a pattern matches nothing, so renaming or dropping one of
those names breaks every traced benchmark run.  The benchmark's own smoke
test is outside this suite's ``testpaths``; these checks only read its files.
The oracle counts must also be called through the attributes the tracer
wraps, or the benchmark's per-layer oracle metrics read 0 calls.  Each
workload also runs once at its toy size, in this process, so a change to the
API it calls (``ExperimentConfig``, ``GridPoint``, ``calibrate_ridge``,
``run_experiment``, the ``simulate`` command) fails here.
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
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


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


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_at_tiny_size(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports tracing by that name
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]("tiny", 0, 1, str(tmp_path))
    workload.fill_cache()
    unit = workload.run_unit()
    assert unit.checks and all(unit.checks.values()), unit.checks
