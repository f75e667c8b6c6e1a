"""Command-line surface: calibrate, estimate, simulate, report, limits.

Exit codes: 0 on success, 2 on bad input (a ConfigurationError) and on a
path that cannot be read or written, 3 on numerical failures (a
NumericalError).  A ``simulate`` grid point none of whose replications
completed exits 3 when a numerical failure stopped it and 2 for any other
failure (reported after the CSV is written).  The ``main`` group maps every
error to its exit code in one place; the commands raise.
With ``--json``, stdout carries one JSON object per line for machine
consumption.
"""

import configparser
import dataclasses
import json
import os
import sys

import click

from . import rmt, spectra
from .calibration import DEFAULT_REPS, DEFAULT_SEED, RIDGES, calibrate_ridge, check_noise_run
from .errors import ConfigurationError, NumericalError, SpikeOrderError
from .harness import (
    ESTIMATOR_NAMES,
    EstimatorSetting,
    ExperimentConfig,
    GridPoint,
    build_estimator,
    run_experiment,
    summarize,
)
from .spectra import AutocovModel, at_size, ingest_spectrum

FAMILIES = tuple(spectra.FAMILIES)


def _cache_dir(value):
    if value:
        return value
    return os.environ.get("SPIKEORDER_CACHE",
                          os.path.join(os.path.expanduser("~"), ".cache", "spikeorder"))


def _fail(exc):
    code = 3 if isinstance(exc, NumericalError) else 2
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _emit(payload: dict, as_json: bool):
    if as_json:
        click.echo(json.dumps(payload))
    else:
        for key, val in payload.items():
            click.echo(f"{key} = {val}")


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SpikeOrderError as exc:
            _fail(exc)
        except BrokenPipeError:
            raise  # a closed stdout, which click reports itself
        except OSError as exc:  # from a path the user gave
            _fail(exc)


@click.group(cls=_Main)
def main():
    """Order determination for large-dimensional spiked models."""


@main.command()
@click.option("--kind", type=click.Choice(FAMILIES), required=True)
@click.option("--p", type=int, required=True)
@click.option("--n", type=int, default=None)
@click.option("--t", "t_", type=int, default=None)
@click.option("--reps", type=int, default=DEFAULT_REPS, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--cache-dir", default=None, help="defaults to $SPIKEORDER_CACHE")
@click.option("--force", is_flag=True, help="recompute even on a cache hit")
@click.option("--json", "as_json", is_flag=True)
def calibrate(kind, p, n, t_, reps, seed, workers, cache_dir, force, as_json):
    """Pure-noise ridge calibration; caches and prints the derived ridges."""
    cache = _cache_dir(cache_dir)
    result = calibrate_ridge(kind, p=p, n=n, T=t_, reps=reps, seed=seed,
                             workers=workers, cache_dir=cache, force=force)
    _emit({"kind": kind, "p": p, "n": result.n, "T": result.T, "reps": reps, "seed": seed,
           "m_pn": result.m_pn, "c1": result.c1, "c2": result.c2,
           "c3a": result.c3a, "c3b": result.c3b, "d_t_lwy": result.d_t_lwy,
           "clamped": list(result.clamped), "cache_dir": cache}, as_json)


@main.command()
@click.argument("spectrum", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(ESTIMATOR_NAMES), required=True)
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--n", type=int, default=None, help="sample size behind the spectrum")
@click.option("--t", "t_", type=int, default=None, help="secondary sample size (T)")
@click.option("--sigma2", default="1.0",
              help="noise scale: a positive float or 'estimated' (population only)")
# tuning options, each named after the EstimatorSetting field it sets: the [estimator] keys
@click.option("--tau", type=float, default=None, help="default 0.5 (0.8 for fisher)")
@click.option("--bound", "L", type=int, default=EstimatorSetting.L, show_default=True,
              help="search bound L")
@click.option("--ridge", default=None, help=f"calibrated ridge, {'/'.join(RIDGES)}; default "
              "c1, or the family's transformed ridge for tvacle")
@click.option("--c-n", type=float, default=None,
              help="ridge; calibrated from pure noise when omitted")
@click.option("--k1", type=float, default=EstimatorSetting.k1, show_default=True)
@click.option("--k2", type=float, default=EstimatorSetting.k2, show_default=True)
@click.option("--d-t", type=float, default=None, help="lwy ratio tolerance")
@click.option("--py-c", "py_C", type=float, default=None, help="py constant C override")
@click.option("--py-start-index", type=click.IntRange(0, 1),
              default=EstimatorSetting.py_start_index, show_default=True)
@click.option("--column", default=None, help="CSV column holding the eigenvalues")
@click.option("--cal-reps", type=int, default=DEFAULT_REPS, show_default=True)
@click.option("--cal-seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--cache-dir", default=None)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="write the ratio trace as JSON")
@click.option("--plot-data", type=click.Path(dir_okay=False), default=None,
              help="write (i, r_i, tau) rows as CSV for the ratio panel")
@click.option("--json", "as_json", is_flag=True)
def estimate(spectrum, method, family, n, t_, sigma2, column, cal_reps, cal_seed,
             cache_dir, trace_path, plot_data, as_json, **tuning):
    """Estimate the order of an ingested spectrum file."""
    check_noise_run(cal_reps, cal_seed)  # before any work, whether or not a calibration runs
    given = [o for o, path in (("--trace", trace_path), ("--plot-data", plot_data)) if path]
    if given and method not in ("vacle", "tvacle"):
        raise ConfigurationError(f"{given[0]} writes a ratio trace, which only vacle and "
                                 f"tvacle have, not {method}")
    raw = ingest_spectrum(spectrum, column=column)
    model = at_size(family, raw.p, n, t_)
    spec = dataclasses.replace(raw, n=model.count, scale_power=model.scale_power)
    sigma2_mode = "estimated" if sigma2 == "estimated" else "known"
    if sigma2_mode == "known":
        try:
            model = dataclasses.replace(model, sigma2=float(sigma2))
        except ValueError:
            raise ConfigurationError(f"--sigma2 {sigma2!r} is not a float or 'estimated'") from None
    setting = EstimatorSetting(method, **tuning)
    run = build_estimator(setting, model, sigma2_mode)
    calib = calibrate_ridge(family, p=spec.p, n=n, T=t_, reps=cal_reps, seed=cal_seed,
                            cache_dir=_cache_dir(cache_dir)) if setting.reads_calibration else None
    q_hat, trace = run(spec, calib)

    if trace_path:
        with open(trace_path, "w") as fh:
            fh.write(json.dumps(trace.to_dict()))
    if plot_data:
        with open(plot_data, "w") as fh:
            fh.write("i,ratio,tau\n")
            for i, r in enumerate(trace.ratios, start=1):
                fh.write(f"{i},{r!r},{trace.tau!r}\n")

    if as_json:
        payload = {"method": method, "family": family, "p": spec.p, "q_hat": int(q_hat)}
        click.echo(json.dumps(payload))
    else:
        click.echo(f"q_hat = {int(q_hat)}")


def _floats(text):
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ConfigurationError(f"cannot parse {text!r} as a list of numbers") from None


def _parse_grid(text):
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kv = {}
        for tok in chunk.replace(",", " ").split():
            key, _, val = tok.partition(":")
            if key not in ("p", "n", "T", "t") or not val:
                raise ConfigurationError(f"bad grid token {tok!r} (use p:.. n:.. T:..)")
            key = "T" if key == "t" else key
            if key in kv:
                raise ConfigurationError(f"grid entry {chunk!r} gives {key} twice")
            kv[key] = int(val)
        if "p" not in kv:
            raise ConfigurationError(f"grid entry {chunk!r} lacks p")
        points.append(GridPoint(p=kv["p"], n=kv.get("n"), T=kv.get("T")))
    if not points:
        raise ConfigurationError("grid is empty")
    return tuple(points)


# [model] key -> (model field, parser); a key of another family's model is rejected
_MODEL_KEYS = {
    "spikes": ("spikes", _floats), "alpha": ("alpha", _floats),
    "noise_diag": ("noise_diag", _floats), "theta": ("theta", _floats),
    "gamma": ("gamma_diag", _floats), "sigma2": ("sigma2", float),
}

# [estimator] key -> (EstimatorSetting field, parser), applied to every estimator: each
# tuning option of estimate, keyed by its name in lower case and parsed by its click type
_ESTIMATOR_KEYS = {o.name.lower(): (o.name, o.type) for o in estimate.params
                   if o.name in {f.name for f in dataclasses.fields(EstimatorSetting)}}

# [harness] and [calibration] keys -> (ExperimentConfig field, parser)
_HARNESS_KEYS = {"grid": ("grid", _parse_grid), "reps": ("reps", int), "seed": ("seed", int),
                 "sigma2_mode": ("sigma2_mode", str)}
_CALIBRATION_KEYS = {"reps": ("calibration_reps", int), "seed": ("calibration_seed", int)}

# configuration file schema: section -> allowed keys
_CONFIG_KEYS = {
    "model": {"kind", *_MODEL_KEYS},
    "harness": {"estimators", *_HARNESS_KEYS},
    "calibration": set(_CALIBRATION_KEYS),
    "estimator": set(_ESTIMATOR_KEYS),
    "io": {"out", "trace"},
}


def _values(parser, section, table):
    """{field: parsed value} for the keys of ``table`` set in ``section``."""
    out = {}
    for key, (field, parse) in table.items():
        if parser.has_option(section, key):
            try:
                out[field] = parse(parser.get(section, key))
            except (ValueError, ConfigurationError, click.BadParameter) as exc:
                raise ConfigurationError(f"bad value for {section}.{key}: {exc}") from None
    return out


def _parse_estimators(text, overrides):
    """One setting per ``name[:ridge]`` entry; a repeated name labels each entry as written."""
    entries = [chunk.strip() for chunk in text.split(",") if chunk.strip()]
    if not entries:
        raise ConfigurationError("estimator list is empty")
    names = [entry.partition(":")[0] for entry in entries]
    return tuple(EstimatorSetting(**{**overrides, "name": name,
                                     "ridge": entry.partition(":")[2] or overrides.get("ridge"),
                                     "label": entry if names.count(name) > 1 else None})
                 for entry, name in zip(entries, names))


def load_experiment_config(path, seed=None, reps=None, out=None):
    """Parse the sectioned key=value experiment file, applying overrides."""
    # no header can name the empty section, so [DEFAULT] is an ordinary (unknown) section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    try:
        if not parser.read(path):
            raise ConfigurationError(f"cannot read config file {path}")
        for section in parser.sections():
            if section not in _CONFIG_KEYS:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key in parser[section]:
                if key not in _CONFIG_KEYS[section]:
                    raise ConfigurationError(f"unknown config key {section}.{key}")

        overrides = {k: v for k, v in (("reps", reps), ("seed", seed)) if v is not None}
        settings = {**_values(parser, "harness", _HARNESS_KEYS),
                    **_values(parser, "calibration", _CALIBRATION_KEYS), **overrides}
        if "grid" not in settings:
            raise ConfigurationError("config lacks harness.grid")
        first = settings["grid"][0]

        kind = parser.get("model", "kind", fallback="")
        family = spectra.FAMILIES.get(kind)
        fields = {f.name for f in dataclasses.fields(family)} if family else set()
        for key, (field, _) in _MODEL_KEYS.items():  # an unknown kind is at_size's error
            if family and field not in fields and parser.has_option("model", key):
                raise ConfigurationError(f"config key model.{key} does not apply to {kind} models")
        model = at_size(kind, first.p, first.n, first.T, **_values(parser, "model", {
            key: entry for key, entry in _MODEL_KEYS.items() if entry[0] in fields
        }))
        estimators = _parse_estimators(parser.get("harness", "estimators", fallback=""),
                                       _values(parser, "estimator", _ESTIMATOR_KEYS))
        cfg = ExperimentConfig(model_id=os.path.splitext(os.path.basename(path))[0],
                               model=model, estimators=estimators, **settings)
        out_path = out if out is not None else parser.get("io", "out", fallback=None)
        try:
            want_trace = parser.getboolean("io", "trace", fallback=False)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for io.trace: {exc}") from None
        return cfg, out_path, want_trace
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from None


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--seed", type=int, default=None, help="override harness.seed")
@click.option("--reps", type=int, default=None, help="override harness.reps")
@click.option("--out", default=None, help="override io.out (CSV path)")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--trace", "want_trace", is_flag=True,
              help="also write the JSON mirror with full ratio traces")
@click.option("--cache-dir", default=None)
def simulate(config_path, seed, reps, out, workers, want_trace, cache_dir):
    """Run a Monte-Carlo experiment described by a config file."""
    cfg, out_path, cfg_trace = load_experiment_config(config_path, seed=seed,
                                                      reps=reps, out=out)
    keep = want_trace or cfg_trace
    if out_path and not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ConfigurationError(f"cannot write {out_path}: its directory does not exist")
    json_path = os.path.splitext(out_path or "")[0] + ".json"
    if keep and (not out_path or json_path == out_path):
        raise ConfigurationError("the JSON mirror goes next to the CSV, in a file of its own: "
                                 "give --out or io.out, not ending in .json")
    result = run_experiment(cfg, workers=workers, cache_dir=_cache_dir(cache_dir),
                            keep_traces=keep)
    csv_text = summarize(result.reports)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(csv_text)
        click.echo(f"wrote {out_path}")
        if keep:
            with open(json_path, "w") as fh:
                fh.write(result.to_json())
            click.echo(f"wrote {json_path}")
    else:
        click.echo(csv_text, nl=False)
    for r in result.reports[::len(cfg.estimators)]:  # the first row of each grid point
        if r.partial:
            click.echo(f"warning: partial grid point p={r.p}: {r.error}", err=True)
    if result.failures:  # the first grid point that completed no replication
        exc = result.failures[0]
        kind = NumericalError if isinstance(exc, NumericalError) else ConfigurationError
        raise kind(f"no replication of a grid point completed: {exc}")


@main.command()
@click.option("--in", "in_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="JSON mirror produced by simulate")
@click.option("--format", "fmt", type=click.Choice(("csv", "json")), default="csv",
              show_default=True)
@click.option("--out", default=None)
def report(in_path, fmt, out):
    """Re-render stored experiment results as CSV or JSON."""
    from .harness import SimulationReport
    try:
        with open(in_path) as fh:
            payload = json.load(fh)
        reports = [SimulationReport.from_dict(r) for r in payload["reports"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad report file {in_path}: {exc}") from None
    text = summarize(reports) if fmt == "csv" else json.dumps(payload["reports"])
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--c", type=float, default=None, help="aspect ratio p/n")
@click.option("--y", type=float, default=None, help="aspect ratio p/T")
@click.option("--sigma2", type=float, default=1.0, show_default=True)
@click.option("--spikes", default=None, help="comma list of population spikes")
@click.option("--theta", default=None, help="comma list of VAR(1) coefficients")
@click.option("--gamma", default=None, help="innovation variances (default 2 each)")
@click.option("--json", "as_json", is_flag=True)
def limits(family, c, y, sigma2, spikes, theta, gamma, as_json):
    """Print edges, identifiability thresholds, spike maps and factor limits."""
    law_cls = spectra.FAMILIES[family].law
    fields = {f.name for f in dataclasses.fields(law_cls)}
    ratios = {name: val for name, val in (("c", c), ("y", y)) if name in fields}
    if None in ratios.values():
        raise ConfigurationError(f"{family} limits need "
                                 + " and ".join(f"--{name}" for name in ratios))
    reads = fields | ({"theta", "gamma"} if family == "autocov" else {"spikes"})
    options = {"c": c, "y": y, "spikes": spikes, "theta": theta, "gamma": gamma}
    for name, val in options.items():
        if val is not None and name not in reads:
            raise ConfigurationError(f"--{name} does not apply to {family} limits")
    if gamma is not None and not theta:
        raise ConfigurationError("--gamma needs --theta")
    law = law_cls(**ratios, sigma2=sigma2)
    payload = {"family": family, **ratios, "sigma2": sigma2}
    if family == "autocov":
        payload.update(
            a1=law.a1, b1=law.b1, t_edge_limit=rmt.autocov_t_edge_limit(law),
            atom_at_zero=law.atom_at_zero)
        if theta:
            thetas = _floats(theta)
            model = AutocovModel(p=len(thetas) + 2, T=3, theta=thetas,
                                 gamma_diag=_floats(gamma or ""), sigma2=sigma2)
            lims = [rmt.autocov_factor_limit(sig, law) for sig in model.signatures]
            payload["factor_limits"] = [fl.value for fl in lims]
            payload["identifiable"] = sum(fl.identifiable for fl in lims)
    else:
        payload.update(lower_edge=law.lower_edge, upper_edge=law.upper_edge,
                       spike_threshold=law.spike_threshold, atom_at_zero=law.atom_at_zero)
        if spikes:
            vals = _floats(spikes)
            # counted first: the count rejects a non-finite spike as bad input
            identifiable = rmt.spike_identifiable_count(vals, law)
            payload["spike_limits"] = [law.spike_map(s) for s in vals]
            payload["identifiable"] = identifiable
    _emit(payload, as_json)


if __name__ == "__main__":
    main()
