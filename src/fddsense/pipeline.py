"""End-to-end study runner: data to ranked sensors to robustness artifacts.

One run goes through the stages data, rebalance, split, selection and
artifacts: it loads (or generates) a dataset, rebalances it, splits it,
ranks all sensors and shrinks the sensor set by recursive feature
addition (selection.run_rfa), which scores every step's model against
noise and a dead top sensor.  The last step's model, trained on exactly
the selected set, is the study's model, and its scenario run is the
study's robustness report.  Every stage draws its randomness
from a seed derived from (master seed, stage name), so a run is one pure
function of (config, seed), and on one machine its artifact files are
byte-identical across repeats.  Boosting's artifacts can differ between
CPUs: np.exp and np.log, which its softmax and priors call, differ in
their last bits between SIMD levels.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, load_dataset, split_train_test, undersample_majority
from .ensembles import EnsembleConfig, save_model
# Nothing here fits a model any more (selection.run_rfa does), but the
# benchmark's binding check reads pipeline.fit_ensemble, so the name stays.
from .ensembles import fit_ensemble  # noqa: F401
from .errors import ConfigParseError, InvalidValueError
from .fileio import _check_kind, _read_json, atomic_write_text, write_csv_rows, write_json
from .metrics import ClassReport
from .robustness import RobustnessReport
from .seeding import derive_seed
from .selection import RfaConfig, RfaTrace, run_rfa
from .simgen import GeneratorConfig, _exact_label_counts, generate_dataset
from .trees import SQRT, TreeConfig

OUT_DIR_ENV = "FDDSENSE_OUT_DIR"


class _Key(NamedTuple):
    """One setting: its dotted place in the config file (path), the dotted
    PipelineConfig attribute it sets (attr), the CLI flag that sets it
    (flag, or None) and whether config.json echoes it.  Its name, the
    attribute's last part, is unique across _SCHEMA: it is the setting's
    override key and CLI parameter, and a range error starts with it,
    which _renamed spells as the path or the flag that set the value."""

    path: str
    attr: str
    flag: str | None = None
    echo: bool = True

    @property
    def name(self) -> str:
        return self.attr.rpartition(".")[2]


# The config schema.  Defaults live on PipelineConfig and the configs it
# nests, each of which checks the type and range of its own fields; the
# parser, the config.json echo, the CLI's flags and its error names read
# this table.
_SCHEMA = (
    _Key("seed", "seed", "--seed"),
    _Key("data.path", "data_path", "--data"),
    _Key("data.generator.n_rows", "generator.n_rows", "--rows"),
    _Key("data.generator.class_proportions", "generator.class_proportions"),
    _Key("train_fraction", "train_fraction", "--train-fraction"),
    _Key("undersample", "undersample"),
    _Key("ensemble.method", "ensemble.method", "--method"),
    _Key("ensemble.n_trees", "ensemble.n_trees", "--trees"),
    _Key("ensemble.max_depth", "ensemble.tree.max_depth", "--max-depth"),
    _Key("ensemble.min_leaf", "ensemble.tree.min_leaf", "--min-leaf"),
    _Key("ensemble.feature_subsample", "ensemble.tree.feature_subsample", "--feature-subsample"),
    _Key("ensemble.bootstrap", "ensemble.bootstrap", "--bootstrap"),
    _Key("ensemble.learning_rate", "ensemble.learning_rate", "--learning-rate"),
    _Key("ensemble.hard_vote", "ensemble.hard_vote", "--hard-vote"),
    _Key("rfa.threshold", "rfa.threshold", "--threshold"),
    _Key("rfa.max_sensors", "rfa.max_sensors", "--max-sensors"),
    _Key("robustness.snr_db", "rfa.snr_levels", "--snr"),
    _Key("robustness.include_failure", "rfa.include_failure", "--no-failure"),
    # Placement cannot affect results, so the echo leaves it out and stays
    # byte-stable across destinations.
    _Key("out_dir", "out_dir", "--out", echo=False),
    # 1 only; kept for the benchmark's study overrides, ROADMAP item 2 deletes both.
    _Key("n_threads", "n_threads", echo=False),
)
_BY_NAME = {key.name: key for key in _SCHEMA}
_BY_PATH = {key.path: key for key in _SCHEMA}


def _renamed(exc: InvalidValueError, names: dict) -> InvalidValueError:
    """exc with its leading settings name replaced by its spelling in
    names, a file key or a CLI flag, where names has one."""
    name, _, rest = str(exc).partition(" ")
    return type(exc)(f"{names.get(name, name)} {rest}")


def _replaced(config, values: dict):
    """config with values, keyed by dotted attribute, set.  Each nested
    config that changes is built anew, so it checks its own fields."""
    own = {name: value for name, value in values.items() if "." not in name}
    for outer in dict.fromkeys(name.split(".")[0] for name in values if "." in name):
        prefix = outer + "."
        inner = {name[len(prefix):]: value for name, value in values.items() if name.startswith(prefix)}
        own[outer] = _replaced(getattr(config, outer), inner)
    return replace(config, **own)


def _merge(section, prefix: str, merged: dict) -> None:
    """Store the values of the config file's dict section found at the
    dotted prefix in merged by setting name.  Unknown keys are rejected,
    not ignored."""
    if not isinstance(section, dict):
        raise InvalidValueError(f"{prefix[:-1]} must be an object, got {section!r}")
    names = {path[len(prefix):].split(".")[0] for path in _BY_PATH if path.startswith(prefix)}
    unknown = sorted(prefix + str(name) for name in section if name not in names)
    if unknown:
        raise InvalidValueError(f"unknown config key(s) {unknown}")
    for name, value in section.items():
        if prefix + name in _BY_PATH:
            merged[_BY_PATH[prefix + name].name] = value
        else:
            _merge(value, prefix + name + ".", merged)


@dataclass(frozen=True)
class PipelineConfig:
    """Fully resolved settings for one run.

    data_path of None means the built-in generator supplies the data,
    and then the study must be feasible (_check_feasible); a CSV's study
    is checked once the data stage has loaded it.  The
    ensemble's feature_subsample may be "sqrt", which ensemble_config
    resolves.  Each field is type-checked once, by the dataclass that
    holds it.
    """

    seed: int = 0
    data_path: str | None = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    train_fraction: float = 0.75
    undersample: bool = True
    ensemble: EnsembleConfig = EnsembleConfig(
        n_trees=25, tree=TreeConfig(max_depth=12, min_leaf=5, feature_subsample=SQRT)
    )
    rfa: RfaConfig = field(default_factory=RfaConfig)
    out_dir: str = "fdd-out"
    n_threads: int = 1

    def __post_init__(self):
        kinds = {"seed": int, "generator": GeneratorConfig, "train_fraction": float, "undersample": bool,
                 "ensemble": EnsembleConfig, "rfa": RfaConfig, "out_dir": str, "n_threads": int}
        for name, kind in kinds.items():
            _check_kind(name, getattr(self, name), kind)
        _check_kind("data_path", self.data_path, str, optional=True)
        if self.data_path == "":
            raise InvalidValueError("data_path must not be empty: leave it out, or null, to use the generator")
        if self.out_dir == "":
            raise InvalidValueError(f"out_dir must not be empty: leave it out to write to {PipelineConfig.out_dir}")
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.n_threads != 1:
            raise InvalidValueError(f"n_threads must be 1: every fit runs on one thread, got {self.n_threads}")
        if self.data_path is None:
            generator = self.generator
            counts = _exact_label_counts(generator.n_rows, generator.class_proportions)
            # Proportions that give rows to fewer than 2 classes fail at any n_rows.
            few = sum(p > 0 for p in generator.class_proportions) < 2
            source = "class_proportions" if few else f"n_rows {generator.n_rows}"
            _check_feasible(counts, source, self.train_fraction, self.undersample)

    def ensemble_config(self, n_sensors: int) -> EnsembleConfig:
        """The ensemble recipe, with a feature_subsample of "sqrt" resolved
        on n_sensors, the run's full sensor count."""
        tree = self.ensemble.tree
        if tree.feature_subsample != SQRT:
            return self.ensemble
        return replace(self.ensemble, tree=replace(tree, feature_subsample=max(1, math.isqrt(n_sensors))))

    def to_json_dict(self) -> dict:
        """Echo of the study parameters: every schema key whose row has
        echo set, nested as in the config file."""
        echo: dict = {}
        for key in _SCHEMA:
            if key.echo:
                *sections, leaf = key.path.split(".")
                node = echo
                for section in sections:
                    node = node.setdefault(section, {})
                value = attrgetter(key.attr)(self)
                node[leaf] = list(value) if isinstance(value, tuple) else value
        return echo


def _check_feasible(counts: np.ndarray, source: str, train_fraction: float, undersample: bool) -> None:
    """Reject a study that a later stage would fail, from its class counts
    (indexed by class id).

    These counts fix every later one: the majority class shrunk to the
    largest minority class (if undersample), then each class's
    floor(train_fraction * count) training rows, as split_train_test
    takes them.  The study needs two classes, at least two rows of each
    class (the stratified split), and two classes in the train set (the
    ensemble fit).  A generated study's counts are known before any
    stage runs; a CSV's once it is loaded.

    Raises:
        InvalidValueError: starting with source, the settings name (and
            value) that gave the counts, or with train_fraction.
    """
    counts = counts.copy()
    present = counts.nonzero()[0]
    if present.size < 2:
        raise InvalidValueError(f"{source} gives rows to {present.size} class(es): a study needs 2")
    if undersample:
        majority = int(counts.argmax())
        counts[majority] = np.delete(counts, majority).max()
    small = present[counts.take(present) < 2]
    if small.size:
        after = " after undersampling" if undersample else ""
        raise InvalidValueError(
            f"{source} gives class {int(small[0])} only 1 row{after}: the stratified split needs 2 per class"
        )
    trained = sum(math.floor(train_fraction * int(counts[c])) > 0 for c in present)
    if trained < 2:
        raise InvalidValueError(
            f"train_fraction {train_fraction} leaves {trained} class(es) in the train set: the model needs 2"
        )


def parse_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Resolve a PipelineConfig from defaults, env, file, and overrides.

    Precedence, lowest to highest: built-in defaults, the FDDSENSE_OUT_DIR
    environment variable (output directory only), the JSON config file,
    then explicit overrides (CLI flags).  Overrides are flat, keyed by
    setting name (a _SCHEMA row's name: seed, n_rows, max_depth,
    threshold, snr_levels, ...), and an override of None sets null, as
    the file's null does.  Unknown keys anywhere are rejected rather than
    ignored.  Each value is checked by the config dataclass that holds
    it; an error an override causes starts with its name, and one a file
    value causes with its dotted key as the file spells it.

    Raises:
        ConfigParseError: file unreadable or not valid UTF-8 JSON (the
            message carries line and column where it can).
        InvalidValueError: unknown keys, wrong-typed or out-of-range
            values; the message names the key.
    """
    merged: dict = {}
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        merged["out_dir"] = env_out

    from_file: dict = {}
    if path is not None:
        try:
            loaded = _read_json(path, ConfigParseError, f"config file {path}")
        except OSError as exc:
            raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigParseError(f"config file {path} must hold a JSON object")
        _merge(loaded, "", from_file)

    overrides = overrides or {}
    unknown = sorted(str(name) for name in overrides if name not in _BY_NAME)
    if unknown:
        raise InvalidValueError(f"unknown override key(s) {unknown}")
    merged.update(from_file)
    merged.update(overrides)

    try:
        return _replaced(PipelineConfig(), {_BY_NAME[name].attr: value for name, value in merged.items()})
    except InvalidValueError as exc:
        # An error the file set is renamed to its key as the file spells it.
        raise _renamed(exc, {name: _BY_NAME[name].path for name in from_file.keys() - overrides.keys()}) from exc


@dataclass(frozen=True)
class PipelineResult:
    """Everything a run produced, plus where the artifacts were written.

    trace holds the sensor ranking, the final model (trace.model) and
    that model's scenario run, robustness (trace.robustness); report is
    its clean test report, robustness.baseline.
    """

    config: PipelineConfig
    trace: RfaTrace
    report: ClassReport
    robustness: RobustnessReport
    out_dir: Path
    artifact_paths: dict[str, Path]


# Scenario curve colours, reused in turn past the sixth scenario.
_SCENARIO_COLORS = ("#f59e0b", "#dc2626", "#7c3aed", "#0891b2", "#db2777", "#65a30d")


def _chart_svg(trace: RfaTrace) -> str:
    """Line chart of macro-F1 versus sensor count: clean, and one dashed
    curve per scenario of the trace."""
    width, height = 640, 400
    left, right, top, bottom = 58, 16, 18, 46
    plot_w, plot_h = width - left - right, height - top - bottom
    base = top + plot_h
    xmax = trace.steps[-1].sensor_count

    def x_at(k: float) -> float:
        return left + plot_w * (k - 1) / max(xmax - 1, 1)

    def y_at(f: float) -> float:
        return top + plot_h * (1.0 - f)

    def line(x1, y1, x2, y2, color="#374151", stroke=1, dash=None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     f'stroke="{color}" stroke-width="{stroke}"{dash_attr}/>')

    def text(x, y, body, color="#374151", anchor="middle", extra=""):
        parts.append(f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" fill="{color}"{extra}>{body}</text>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for tick in range(0, 11, 2):
        y = y_at(tick / 10.0)
        line(left, y, left + plot_w, y, "#e5e7eb")
        text(left - 8, y + 4, f"{tick / 10.0:.1f}", anchor="end")
    for k in range(1, xmax + 1, (xmax - 1) // 12 + 1):
        line(x_at(k), base, x_at(k), base + 4)
        text(x_at(k), base + 18, k)
    line(left, base, left + plot_w, base, stroke=1.5)
    line(left, top, left, base, stroke=1.5)
    y_thr = y_at(trace.threshold)
    line(left, y_thr, left + plot_w, y_thr, "#16a34a", dash="2 4")
    text(left + plot_w, y_thr - 5, f"threshold {trace.threshold:g}", "#16a34a", "end")
    series = [("clean", "#2563eb", None, [s.clean_f1 for s in trace.steps])]
    for index, row in enumerate(trace.robustness.scenarios):
        color = _SCENARIO_COLORS[index % len(_SCENARIO_COLORS)]
        series.append((row.spec.label(), color, "6 3", [s.noisy_f1[index] for s in trace.steps]))
    for _, color, dash, scores in series:
        points = [(x_at(s.sensor_count), y_at(f)) for s, f in zip(trace.steps, scores)]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"{dash_attr}/>')
        parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>' for x, y in points]
    for index, (name, color, _, _) in enumerate(series):
        legend_y = top + 14 + 18 * index
        parts.append(f'<rect x="{left + 12}" y="{legend_y - 9}" width="18" height="4" fill="{color}"/>')
        text(left + 36, legend_y - 2, name, "#111827", "start")
    text(left + plot_w / 2, height - 8, "sensors used (ranked order)", "#111827")
    middle = top + plot_h / 2
    text(16, middle, "macro-F1", "#111827", extra=f' transform="rotate(-90 16 {middle:.2f})"')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load(path: str) -> Dataset:
    """load_dataset(path), whose read error names the setting data.path."""
    try:
        return load_dataset(path)
    except OSError as exc:
        # The errno keeps the subclass, such as FileNotFoundError.
        raise OSError(exc.errno, f"data.path: {exc.strerror}", exc.filename) from exc


def _write_pair(out_dir: Path, name: str, result) -> dict[str, Path]:
    """Write result's JSON record to <name>.json and its CSV rows to
    <name>.csv under out_dir; returns their artifact_paths entries."""
    paths = {f"{name}_json": out_dir / f"{name}.json", f"{name}_csv": out_dir / f"{name}.csv"}
    write_json(paths[f"{name}_json"], result.to_json_dict())
    write_csv_rows(paths[f"{name}_csv"], result.to_csv_rows())
    return paths


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute every stage and write all artifacts under cfg.out_dir.

    On any failure an error.json naming the failed stage and error is
    still written (best effort) and the exception propagates.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = "data"
    try:
        if cfg.data_path is not None:
            data = _load(cfg.data_path)
            _check_feasible(np.bincount(data.labels), f"data.path {cfg.data_path}", cfg.train_fraction,
                            cfg.undersample)
        else:
            data = generate_dataset(cfg.generator, derive_seed(cfg.seed, "simgen"))

        stage = "rebalance"
        if cfg.undersample:
            data = undersample_majority(data, seed=derive_seed(cfg.seed, "undersample"))

        stage = "split"
        train, test = split_train_test(data, cfg.train_fraction, seed=derive_seed(cfg.seed, "split"))

        stage = "selection"
        trace = run_rfa(train, test, cfg.ensemble_config(train.n_sensors), derive_seed(cfg.seed, "model"), cfg.rfa)

        stage = "artifacts"
        paths = {
            "config": out_dir / "config.json",
            "model": out_dir / "model.json",
            **_write_pair(out_dir, "rfa_trace", trace),
            **_write_pair(out_dir, "robustness", trace.robustness),
            **_write_pair(out_dir, "class_report", trace.robustness.baseline),
            "chart": out_dir / "rfa_curves.svg",
        }
        write_json(paths["config"], cfg.to_json_dict())
        save_model(trace.model, paths["model"])
        atomic_write_text(paths["chart"], _chart_svg(trace))
        (out_dir / "error.json").unlink(missing_ok=True)
    except Exception as exc:
        payload = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
        try:
            write_json(out_dir / "error.json", payload)
        except OSError:
            pass
        raise

    return PipelineResult(config=cfg, trace=trace, report=trace.robustness.baseline,
                          robustness=trace.robustness, out_dir=out_dir, artifact_paths=paths)
