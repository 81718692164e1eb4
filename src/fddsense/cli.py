"""Command line front end.

Subcommands cover the full study (pipeline) and its stages in isolation:
data synthesis, model training, importance ranking, greedy sensor-set
selection, and noise/failure robustness checks.  All output is plain text
on stdout; artifact files land in the requested directory.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click

from .dataset import load_dataset, write_csv
from .ensembles import (
    BAGGING,
    BOOSTING,
    evaluate,
    fit_ensemble,
    load_model,
    rank_features,
    save_model,
)
from .errors import FddError, InvalidValueError
from .fileio import atomic_write_text
from .pipeline import PipelineConfig, _SCHEMA, _chart_svg, parse_config, run_pipeline
from .pipeline import _renamed, _select, _with_fields, _write_pair
from .robustness import _specs, run_scenarios
from .seeding import derive_seed
from .selection import RfaConfig
from .simgen import GeneratorConfig, generate_dataset


def _fail(exc: Exception) -> "click.ClickException":
    """exc as one Error line.  An InvalidValueError's leading settings name
    is spelled as the flag that set it, among the command's value flags
    that hold a value; a config file's key keeps parse_config's name."""
    if isinstance(exc, InvalidValueError):
        ctx = click.get_current_context()
        given = {param.opts[0] for param in ctx.command.params
                 if isinstance(param, click.Option) and not param.is_flag and ctx.params[param.name] is not None}
        exc = _renamed(exc, {key.field.split(".")[-1]: key.flag for key in _SCHEMA if key.flag in given})
    # numpy's failed allocation raises a private subclass of MemoryError.
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    return click.ClickException(f"{name}: {exc}")


class _Path(click.Path):
    """A path flag's value.  An empty value is rejected: Path("") is the
    working directory, which no flag means."""

    def convert(self, value, param, ctx):
        if value == "":
            self.fail("the path is empty", param, ctx)
        return super().convert(value, param, ctx)


def _parse_snr_list(ctx, param, text):
    """The --snr flag's comma-separated text as a tuple of levels."""
    if text is None:
        return None
    try:
        levels = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {text!r}")
    if not levels or any(not math.isfinite(v) for v in levels):
        raise click.BadParameter(f"expected finite SNR values, got {text!r}")
    if len(set(levels)) < len(levels):
        raise click.BadParameter(f"expected distinct SNR values, got {text!r}")
    return levels


_SNR_DEFAULT = ",".join(f"{v:g}" for v in RfaConfig.snr_levels)


_HELP = {
    "n_trees": "Trees (bagging) or rounds (boosting).",
    "feature_subsample": 'Per-node feature subset size, "sqrt", or "all".',
    "hard_vote": "Majority voting instead of distribution averaging (bagging).",
}


def _feature_subsample(ctx, param, text):
    """The flag's text as its config value, where "all" stands for null."""
    if text in ("all", "none", ""):
        return None
    try:
        return text if text == "sqrt" else int(text)
    except ValueError:
        raise click.BadParameter(
            f'feature subsample must be an int, "sqrt", or "all", got {text!r}'
        )


def _with_ensemble_options(fn):
    """Add each "ensemble" config key's flag, defaulting as PipelineConfig
    and typed as its default."""
    defaults = PipelineConfig().to_json_dict()["ensemble"]
    for key in reversed([k for k in _SCHEMA if k.path.startswith("ensemble.")]):
        flag, default = key.flag, defaults[key.path.removeprefix("ensemble.")]
        kwargs = {"default": default, "show_default": True, "help": _HELP.get(key.field)}
        if isinstance(default, bool):
            kwargs["is_flag"] = True
            flag += f"/--no-{flag[2:]}" if default else ""
        elif key.field == "feature_subsample":
            kwargs["callback"] = _feature_subsample
        elif key.field == "method":
            kwargs["type"] = click.Choice((BAGGING, BOOSTING))
        else:
            kwargs["type"] = type(default)
        fn = click.option(flag, key.field, **kwargs)(fn)
    return fn


@click.group()
def main():
    """Fault detection studies for the 40-sensor refrigeration schema."""


@main.command()
@click.option("--config", "config_path", type=_Path(), default=None, help="JSON config file.")
@click.option("--data", "data_path", type=_Path(), default=None, help="Input CSV; omit to use the generator.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--out", "out_dir", type=_Path(), default=None, help="Artifact directory.")
@click.option("--rows", type=int, default=None, help="Generator row count.")
@click.option("--trees", type=int, default=None)
@click.option("--threshold", type=float, default=None, help="Clean macro-F1 stopping threshold.")
@click.option("--train-fraction", type=float, default=None)
@click.option("--snr", default=None, callback=_parse_snr_list, help="Comma-separated SNR levels in dB, e.g. 10,3,0.")
@click.option("--no-failure", is_flag=True, help="Skip the dead-sensor scenario.")
def pipeline(config_path, data_path, seed, out_dir, rows, trees, threshold,
             train_fraction, snr, no_failure):
    """Run the full study and write all artifacts."""
    overrides = {
        "data_path": data_path,
        "seed": seed,
        "out_dir": out_dir,
        "n_trees": trees,
        "train_fraction": train_fraction,
        "generator": None if rows is None else {"n_rows": rows},
    }
    rfa_fields = {
        "threshold": threshold,
        "snr_levels": snr,
        "include_failure": False if no_failure else None,
    }
    overrides["rfa"] = {name: value for name, value in rfa_fields.items() if value is not None}
    try:
        result = run_pipeline(parse_config(config_path, overrides))
    except (FddError, OSError, MemoryError) as exc:
        raise _fail(exc)
    trace = result.trace
    click.echo(
        f"test rows: {int(result.report.support.sum())} selected sensors: {len(trace.selected)}"
    )
    click.echo("selected: " + ", ".join(trace.selected))
    click.echo(f"clean macro-F1: {result.report.macro_f1:.4f} (threshold {trace.threshold:g}, met: {trace.threshold_met})")
    for row in result.robustness.scenarios:
        tag = row.spec.label()
        click.echo(f"{tag}: macro-F1 {row.macro_f1:.4f}")
    click.echo(f"artifacts: {result.out_dir}")


@main.command()
@click.option("--out", "out_path", type=_Path(), required=True, help="Destination CSV.")
@click.option("--rows", type=int, default=GeneratorConfig.n_rows, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def simgen(out_path, rows, seed):
    """Generate a synthetic labelled dataset CSV."""
    try:
        data = generate_dataset(GeneratorConfig(n_rows=rows), seed)
        write_csv(data, out_path)
    except (FddError, OSError, MemoryError) as exc:
        raise _fail(exc)
    click.echo(f"wrote {data.n_rows} rows x {data.n_sensors} sensors to {out_path}")


@main.command()
@click.option("--data", "data_path", type=_Path(), required=True)
@click.option("--model-out", type=_Path(), default="model.json", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_with_ensemble_options
def train(data_path, model_out, seed, **ensemble_fields):
    """Fit an ensemble on a CSV and save it as JSON."""
    try:
        data = load_dataset(data_path)
        cfg = _with_fields(PipelineConfig(), ensemble_fields).ensemble_config(data.n_sensors)
        model = fit_ensemble(
            data.values, data.labels, cfg, derive_seed(seed, "model"), data.symbols
        )
        report = evaluate(model, data)
        save_model(model, model_out)
    except (FddError, OSError, MemoryError) as exc:
        raise _fail(exc)
    click.echo(f"trained {cfg.method} on {data.n_rows} rows x {data.n_sensors} sensors")
    click.echo(f"training macro-F1: {report.macro_f1:.4f}")
    click.echo(f"model: {model_out}")


@main.command()
@click.option("--model", "model_path", type=_Path(), required=True)
@click.option("--top", type=click.IntRange(min=1), default=None, help="Show only the top N sensors.")
def importance(model_path, top):
    """Print a model's per-sensor importance ranking."""
    try:
        model = load_model(model_path)
        ranking = rank_features(model)
    except (FddError, OSError, MemoryError) as exc:
        raise _fail(exc)
    if top is not None:
        ranking = ranking[:top]
    width = max(len(s) for s, _ in ranking)
    for rank, (sensor, value) in enumerate(ranking, start=1):
        click.echo(f"{rank:3d}  {sensor:<{width}}  {value:.6f}")


@main.command()
@click.option("--data", "data_path", type=_Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threshold", type=float, default=RfaConfig.threshold, show_default=True)
@click.option("--max-sensors", type=int, default=None)
@click.option("--snr", default=_SNR_DEFAULT, show_default=True, callback=_parse_snr_list,
              help="Comma-separated SNR levels in dB of each step's scenarios.")
@click.option("--train-fraction", type=float, default=PipelineConfig.train_fraction, show_default=True)
@click.option("--out", "out_dir", type=_Path(), default=None, help="Write trace artifacts here.")
@_with_ensemble_options
def rfa(data_path, seed, threshold, max_sensors, snr, train_fraction, out_dir, **ensemble_fields):
    """Rank sensors, then grow the smallest set meeting the threshold.

    Runs the pipeline's data, rebalance, split and selection stages, so
    the trace is the pipeline's for the same CSV, seed and flags."""
    try:
        rfa_cfg = RfaConfig(threshold=threshold, max_sensors=max_sensors, snr_levels=snr)
        cfg = _with_fields(PipelineConfig(seed=seed, data_path=data_path, train_fraction=train_fraction,
                                          rfa=rfa_cfg), ensemble_fields)
        trace = _select(cfg, lambda stage: None)
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            _write_pair(out, "rfa_trace", trace)
            atomic_write_text(out / "rfa_curves.svg", _chart_svg(trace))
    except (FddError, OSError, MemoryError) as exc:
        raise _fail(exc)
    labels = [row.spec.label() for row in trace.robustness.scenarios]
    for step in trace.steps:
        noisy = "".join(f" {label}={f1:.4f}" for label, f1 in zip(labels, step.noisy_f1))
        click.echo(f"k={step.sensor_count:2d} +{step.added_sensor:<8s} clean={step.clean_f1:.4f}{noisy}")
    click.echo(f"threshold {trace.threshold:g} met: {trace.threshold_met}")
    click.echo("selected: " + ", ".join(trace.selected))
    if out_dir is not None:
        click.echo(f"artifacts: {out}")


@main.command()
@click.option("--model", "model_path", type=_Path(), required=True)
@click.option("--data", "data_path", type=_Path(), required=True)
@click.option("--sensor", default=None, help="Target sensor; default: the model's top-ranked one.")
@click.option("--snr", default=_SNR_DEFAULT, show_default=True, callback=_parse_snr_list,
              help="Comma-separated SNR levels in dB.")
@click.option("--fail-sensor", is_flag=True, help="Also test the sensor stuck at zero.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_dir", type=_Path(), default=None, help="Write robustness artifacts here.")
def robustness(model_path, data_path, sensor, snr, fail_sensor, seed, out_dir):
    """Score a saved model under noise and dead-sensor scenarios."""
    try:
        RfaConfig(snr_levels=snr)  # the study's rule for the levels, before the model and table load
        model = load_model(model_path)
        data = load_dataset(data_path)
        if sensor is None:
            sensor = rank_features(model)[0][0]
        if data.symbols != model.feature_names:
            data = data.select_sensors([data.sensor_index(s) for s in model.feature_names])
        specs = _specs(sensor, snr, fail_sensor)
        report = run_scenarios(model, data, specs, derive_seed(seed, "robustness"))
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            _write_pair(out, "robustness", report)
    except (FddError, OSError, MemoryError) as exc:
        raise _fail(exc)
    click.echo(f"baseline: macro-F1 {report.baseline.macro_f1:.4f}")
    for row in report.scenarios:
        measured = "" if not math.isfinite(row.measured_snr_db) else f" (measured {row.measured_snr_db:.2f} dB)"
        click.echo(f"{row.spec.label()}: macro-F1 {row.macro_f1:.4f}{measured}")
    if out_dir is not None:
        click.echo(f"artifacts: {out}")


if __name__ == "__main__":
    sys.exit(main())
