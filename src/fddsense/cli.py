"""Command line front end.

pipeline runs the full study: it ranks the sensors, adds them one at a
time until the clean macro-F1 meets the threshold, scores each step under
noise and a dead sensor, and prints one line per step.  The other
commands work on their own: data synthesis (simgen), model training
(train), importance ranking (importance), and noise/failure checks of a
saved model on a recorded table (robustness).  All output is plain text
on stdout; artifact files land in the requested directory.

Every value flag that sets a study setting is its _SCHEMA row's flag,
added by _settings as a parameter named as the setting, with its
PipelineConfig default; pipeline takes all of them.  pipeline passes the
flags given to parse_config as overrides, and train and robustness pass
all of theirs, so every study flag reaches PipelineConfig one way.
Flags that no setting owns (--config, --model, --model-out, --sensor,
--top, simgen's --out) are hand-written.

Every command is a _Command: an FddError, OSError or MemoryError that
it raises ends it as one Error line (_fail), never a traceback.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter
from pathlib import Path

import click
from click.core import ParameterSource

from .dataset import write_csv
from .ensembles import BAGGING, BOOSTING, evaluate, fit_ensemble, load_model, rank_features, save_model
from .errors import FddError, InvalidValueError, SchemaMismatchError, UnknownSensorError
from .pipeline import PipelineConfig, _SCHEMA, _load, _renamed, _write_pair, parse_config, run_pipeline
from .robustness import _specs, run_scenarios
from .seeding import derive_seed
from .simgen import GeneratorConfig, generate_dataset


def _given() -> set[str]:
    """The current command's parameters that the command line set."""
    ctx = click.get_current_context()
    return {name for name in ctx.params if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE}


def _fail(exc: Exception) -> "click.ClickException":
    """exc as one Error line.  An InvalidValueError's leading settings name
    or file key, and the file key that leads an OSError's message (a
    data.path that cannot be read), are spelled as the flag that set the
    value, where the command line set one; a config file's key keeps
    parse_config's name."""
    given = _given()
    names = {name: key.flag for key in _SCHEMA if key.name in given for name in (key.name, key.path)}
    if isinstance(exc, InvalidValueError):
        exc = _renamed(exc, names)
    elif isinstance(exc, OSError) and exc.strerror:
        name, _, rest = exc.strerror.partition(": ")
        if name in names:  # the errno keeps the subclass, such as FileNotFoundError
            exc = OSError(exc.errno, f"{names[name]}: {rest}", exc.filename)
    # numpy's failed allocation raises a private subclass of MemoryError.
    name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
    return click.ClickException(f"{name}: {exc}")


class _Command(click.Command):
    """A command whose FddError, OSError or MemoryError ends it as one
    Error line (_fail) rather than a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FddError, OSError, MemoryError) as exc:
            raise _fail(exc)


class _Path(click.Path):
    """A path flag's value.  An empty value is rejected: Path("") is the
    working directory, which no flag means."""

    def convert(self, value, param, ctx):
        if value == "":
            self.fail("the path is empty", param, ctx)
        return super().convert(value, param, ctx)


def _parse_snr_list(ctx, param, text):
    """The --snr flag's comma-separated text as a tuple of numbers, which
    RfaConfig checks as it checks a config file's robustness.snr_db."""
    try:
        return tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise click.BadParameter(f"expected comma-separated numbers, got {text!r}")


def _feature_subsample(ctx, param, text):
    """The flag's text as its config value, where "all" stands for null."""
    if text in ("all", "none", ""):
        return None
    try:
        return text if text == "sqrt" else int(text)
    except ValueError:
        raise click.BadParameter(f'feature subsample must be an int, "sqrt", or "all", got {text!r}')


_HELP = {
    "seed": "Master seed.",
    "data_path": "Labelled input CSV; without one, pipeline generates its rows.",
    "n_rows": "Generator row count.",
    "n_trees": "Trees (bagging) or rounds (boosting).",
    "feature_subsample": 'Per-node feature subset size, "sqrt", or "all".',
    "hard_vote": "Majority voting instead of distribution averaging (bagging).",
    "threshold": "Clean macro-F1 stopping threshold.",
    "snr_levels": "Comma-separated SNR levels in dB, e.g. 10,3,0.",
    "include_failure": "Skip the dead-sensor scenario.",
    "out_dir": "Artifact directory.",
}

# What a flag's default does not tell: its type or value check, and
# --out's default.  Left out, --out writes nothing in robustness, and
# pipeline's comes from FDDSENSE_OUT_DIR or PipelineConfig.
_KINDS = {
    "data_path": {"type": _Path()},
    "method": {"type": click.Choice((BAGGING, BOOSTING))},
    "feature_subsample": {"callback": _feature_subsample},
    "max_sensors": {"type": int},
    "snr_levels": {"callback": _parse_snr_list},
    "out_dir": {"type": _Path(), "default": None},
}


def _settings(*flags: str, required: tuple[str, ...] = ()):
    """Add the flags of the _SCHEMA rows whose flag is in flags, each named
    as its setting and defaulting as PipelineConfig.  A value flag is
    typed as its default unless _KINDS says otherwise, and a list default
    is written as its flag's text.  A boolean is an --x flag, an --x/--no-x
    pair where it defaults true, or, spelled --no-x, a flag that sets it
    false."""
    defaults = PipelineConfig()

    def add(fn):
        for key in reversed([key for key in _SCHEMA if key.flag in flags]):
            default = attrgetter(key.attr)(defaults)
            if isinstance(default, tuple):
                default = ",".join(f"{v:g}" for v in default)
            kwargs = {"default": default, "show_default": True, "required": key.flag in required,
                      "help": _HELP.get(key.name), **_KINDS.get(key.name, {})}
            decl, inverted = key.flag, key.flag.startswith("--no-")
            if not isinstance(default, bool):
                kwargs.setdefault("type", type(default))
            else:
                kwargs.update(is_flag=True, flag_value=not inverted, show_default=not inverted)
                decl += f"/--no-{key.flag[2:]}" if default and not inverted else ""
            fn = click.option(decl, key.name, **kwargs)(fn)
        return fn

    return add


_ENSEMBLE = tuple(key.flag for key in _SCHEMA if key.path.startswith("ensemble."))


@click.group()
def main():
    """Fault detection studies for the 40-sensor refrigeration schema."""


main.command_class = _Command


@main.command()
@click.option("--config", "config_path", type=_Path(), default=None, help="JSON config file.")
@_settings(*(key.flag for key in _SCHEMA if key.flag))
def pipeline(config_path, **settings):
    """Run the full study, print each RFA step and write all artifacts; a flag given beats the config file."""
    given = _given()
    overrides = {name: value for name, value in settings.items() if name in given}
    result = run_pipeline(parse_config(config_path, overrides))
    trace = result.trace
    click.echo(f"test rows: {int(result.report.support.sum())}")
    labels = [row.spec.label() for row in result.robustness.scenarios]
    for step in trace.steps:
        noisy = "".join(f" {label}={f1:.4f}" for label, f1 in zip(labels, step.noisy_f1))
        click.echo(f"k={step.sensor_count:2d} +{step.added_sensor:<8s} clean={step.clean_f1:.4f}{noisy}")
    click.echo(f"threshold {trace.threshold:g} met: {trace.threshold_met}")
    click.echo("selected: " + ", ".join(trace.selected))
    click.echo(f"artifacts: {result.out_dir}")


@main.command()
@click.option("--out", "out_path", type=_Path(), required=True, help="Destination CSV.")
@_settings("--rows", "--seed")
def simgen(out_path, n_rows, seed):
    """Generate a synthetic labelled dataset CSV."""
    data = generate_dataset(GeneratorConfig(n_rows=n_rows), seed)
    write_csv(data, out_path)
    click.echo(f"wrote {data.n_rows} rows x {data.n_sensors} sensors to {out_path}")


@main.command()
@click.option("--model-out", type=_Path(), default="model.json", show_default=True)
@_settings("--data", "--seed", *_ENSEMBLE, required=("--data",))
def train(model_out, **settings):
    """Fit an ensemble on a CSV and save it as JSON."""
    study = parse_config(None, settings)
    data = _load(study.data_path)
    cfg = study.ensemble_config(data.n_sensors)
    model = fit_ensemble(data.values, data.labels, cfg, derive_seed(study.seed, "model"), data.symbols)
    report = evaluate(model, data)
    save_model(model, model_out)
    click.echo(f"trained {cfg.method} on {data.n_rows} rows x {data.n_sensors} sensors")
    click.echo(f"training macro-F1: {report.macro_f1:.4f}")
    click.echo(f"model: {model_out}")


@main.command()
@click.option("--model", "model_path", type=_Path(), required=True)
@click.option("--top", type=click.IntRange(min=1), default=None, help="Show only the top N sensors.")
def importance(model_path, top):
    """Print a model's per-sensor importance ranking."""
    ranking = rank_features(load_model(model_path))
    if top is not None:
        ranking = ranking[:top]
    width = max(len(s) for s, _ in ranking)
    for rank, (sensor, value) in enumerate(ranking, start=1):
        click.echo(f"{rank:3d}  {sensor:<{width}}  {value:.6f}")


@main.command()
@click.option("--model", "model_path", type=_Path(), required=True)
@click.option("--sensor", default=None, help="Target sensor; default: the model's top-ranked one.")
@_settings("--data", "--seed", "--snr", "--no-failure", "--out", required=("--data",))
def robustness(model_path, sensor, out_dir, **settings):
    """Score a saved model under noise and dead-sensor scenarios."""
    study = parse_config(None, settings)  # the study's rules, before the model and table load
    model = load_model(model_path)
    if sensor is None:
        sensor = rank_features(model)[0][0]
    elif sensor not in model.feature_names:
        raise UnknownSensorError(f"--sensor {sensor!r} is not one of the model's sensors")
    data = _load(study.data_path)
    if data.symbols != model.feature_names:
        missing = [s for s in model.feature_names if s not in data.symbols]
        if missing:
            raise SchemaMismatchError(f"--data {study.data_path} has no column for the model's sensor(s) "
                                      + ", ".join(map(repr, missing)))
        data = data.select_sensors([data.sensor_index(s) for s in model.feature_names])
    specs = _specs(sensor, study.rfa.snr_levels, study.rfa.include_failure)
    report = run_scenarios(model, data, specs, derive_seed(study.seed, "robustness"))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_pair(out, "robustness", report)
    click.echo(f"baseline: macro-F1 {report.baseline.macro_f1:.4f}")
    for row in report.scenarios:
        measured = "" if not math.isfinite(row.measured_snr_db) else f" (measured {row.measured_snr_db:.2f} dB)"
        click.echo(f"{row.spec.label()}: macro-F1 {row.macro_f1:.4f}{measured}")
    if out_dir is not None:
        click.echo(f"artifacts: {out}")


if __name__ == "__main__":
    sys.exit(main())
