"""spikeorder benchmark: one workload per process, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fisher-cold --seed 0 --seconds 30 --trace 0

Workloads: fisher-cold, autocov-warm, population-cli (see ``workloads.py``).
Seed 0 runs the acceptance suite's seeds; seed k adds k to each of them.
The program is imported from ``src/`` of the checkout, never from an
installed copy.  BLAS thread settings are left as the environment gives them
and recorded in the provenance line.

The timed phase repeats whole experiments (units) while the next one still
fits in ``--seconds``, and always runs at least one.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` units
alternate untraced and traced, the last line carries the per-layer metrics
with the tracing overhead, and the spans go to ``.perfbench_out/``.  Every
unit is checked: complete replications, an unchanged CSV digest, the
expected calibration-cache hits and misses and, at seed 0 and full size,
the acceptance bounds.  Exit status is 0 when a result was printed, 2 when the benchmark
could not run.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("fisher-cold", "autocov-warm", "population-cli")
SETUP_PROBES = 2          # extra set-up samples, each in a fresh interpreter
MAX_TIMED_S = 120.0       # keeps a run inside its time limit whatever --seconds says

END_TO_END_UNITS = {
    "wall_s": "s", "spectra_per_s": "1/s", "cpu_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def process_age() -> float:
    """Seconds since this interpreter started (Linux), else since this module loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny keeps every code path at toy sizes (smoke test)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only and print the set-up time (used internally)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def finite(obj):
    """Replace NaN and infinities by None, so the output is strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite(v) for v in obj]
    return obj


def dumps(obj) -> str:
    return json.dumps(finite(obj), allow_nan=False)


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float, trace: bool, tracer):
    """Timed phase: whole units while the next one fits; returns (units, traced)."""
    units, traced = [], []
    start = time.perf_counter()
    while True:
        use_tracer = trace and len(units) % 2 == 1
        unit = workload.run_unit(tracer if use_tracer else None)
        units.append(unit)
        traced.append(use_tracer)
        elapsed = time.perf_counter() - start
        if trace and len(units) < 2:
            continue                      # a traced run needs one unit of each kind
        if elapsed + unit.wall_s > min(seconds, MAX_TIMED_S):
            return units, traced


def gate(units) -> None:
    """Cross-unit gate: repeated inputs must give the identical CSV."""
    for unit in units:
        unit.checks["csv digest stable"] = bool(unit.digest) and unit.digest == units[0].digest


def end_to_end(units, setup_s: float) -> dict:
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "spectra_per_s": sum(u.spectra for u in units) / sum(u.wall_s for u in units),
        "cpu_s": statistics.median(u.cpu_s for u in units),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spikeorder" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/spikeorder", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import provenance
    import tracing
    import workloads

    if not Path(workloads.spikeorder.__file__).resolve().is_relative_to(SRC):
        print("error: spikeorder was not imported from this checkout", file=sys.stderr)
        return 2

    workers = min(2, os.cpu_count() or 1)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.size, args.seed, workers,
                                                      work_dir)
        own_setup = process_age()
        if args.setup_probe:
            print(dumps({"setup_s": own_setup}))
            return 0
        fill_s = workload.fill_cache()
        # a traced run reports no set-up time, so it skips the extra samples
        samples = [own_setup] + [setup_probe(args)
                                 for _ in range(0 if args.trace else SETUP_PROBES)]
        setup_s = statistics.median(samples) + fill_s

        tracer = tracing.Tracer() if args.trace else None
        origin = time.perf_counter()
        units, traced = measure(workload, args.seconds, bool(args.trace), tracer)
        gate(units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass                          # another run still uses it

    prov = provenance.collect(ROOT, workers)
    print("provenance " + dumps(prov))
    for i, (unit, t) in enumerate(zip(units, traced)):
        failed_checks = [name for name, ok in unit.checks.items() if not ok]
        print(f"unit {i} traced={int(t)} wall_s={unit.wall_s:.4f} cpu_s={unit.cpu_s:.4f} "
              f"spectra={unit.spectra} cache_hits={unit.hits} cache_misses={unit.misses} "
              f"checks={'ok' if not failed_checks else 'FAILED: ' + '; '.join(failed_checks)}")

    attempted = sum(u.replications + len(u.checks) for u in units)
    failed = sum(u.replications - u.completed + sum(not ok for ok in u.checks.values())
                 for u in units)
    print(f"setup samples_s={[round(s, 4) for s in samples]} cache_fill_s={fill_s:.4f}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} "
          "replications and gates)")

    if args.trace:
        plain = [u.wall_s for u, t in zip(units, traced) if not t]
        with_trace = [u for u, t in zip(units, traced) if t]
        overhead = statistics.median(u.wall_s for u in with_trace) - statistics.median(plain)
        values = tracing.layer_metrics(
            tracer.spans, len(with_trace),
            hits=sum(u.hits for u in with_trace),
            misses=sum(u.misses for u in with_trace), overhead_s=overhead)
        units_of = tracing.PER_LAYER_UNITS
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}-{args.size}.json"
        trace_path.write_text(dumps({
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "provenance": prov, "metrics": values,
            "spans": tracer.to_records(origin)}))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        values = end_to_end(units, setup_s)
        units_of = END_TO_END_UNITS

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units_of.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                 "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
