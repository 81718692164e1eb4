"""End-to-end study runner: data to ranked sensors to robustness artifacts.

One run goes through the stages data, rebalance, split, selection,
robustness and artifacts: it loads (or generates) a dataset, rebalances
it, splits it, ranks all sensors and shrinks the sensor set by recursive
feature addition (selection.run_rfa), and probes the model of the
addition's last step, which was trained on exactly the selected set,
against noise and a dead top sensor.  Every stage draws its randomness
from a seed derived from (master seed, stage name), so a run is one pure
function of (config, seed) and its artifact files are byte-identical
across repeats, platforms, and thread counts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .dataset import load_dataset, split_train_test, undersample_majority
from .ensembles import BAGGING, BOOSTING, EnsembleConfig, model_to_dict
# Nothing here fits a model any more (selection.run_rfa does), but the
# benchmark's binding check reads pipeline.fit_ensemble, so the name stays.
from .ensembles import fit_ensemble  # noqa: F401
from .errors import ConfigParseError, InvalidValueError
from .fileio import _of_kind, atomic_write_text, write_csv_rows, write_json
from .metrics import ClassReport
from .robustness import AWGN, FAILURE, NoiseSpec, RobustnessReport, run_scenarios
from .seeding import derive_seed
from .selection import RfaConfig, RfaTrace, run_rfa
from .simgen import GeneratorConfig, generate_dataset
from .trees import TreeConfig

OUT_DIR_ENV = "FDDSENSE_OUT_DIR"

DEFAULT_SNR_LEVELS = (10.0, 3.0, 0.0)


class _Key(NamedTuple):
    """One config key: its dotted place in the config file (path), the
    dotted PipelineConfig attribute it sets, also its override name
    (field), the values it accepts (kinds: int, float, which takes an int
    too, bool, str, None for null, list for a list of numbers, or a
    literal string; numbers must be finite) and whether config.json
    echoes it."""

    path: str
    field: str
    kinds: tuple
    echo: bool = True


# The config schema.  Defaults live on PipelineConfig, GeneratorConfig
# and RfaConfig; the parser, the config.json echo and the CLI's ensemble
# flags all read this table.
_SCHEMA = (
    _Key("seed", "seed", (int,)),
    _Key("data.path", "data_path", (str, None)),
    _Key("data.generator.n_rows", "generator.n_rows", (int,)),
    _Key("data.generator.class_proportions", "generator.class_proportions", (list,)),
    _Key("train_fraction", "train_fraction", (float,)),
    _Key("undersample", "undersample", (bool,)),
    _Key("ensemble.method", "method", (BAGGING, BOOSTING)),
    _Key("ensemble.n_trees", "n_trees", (int,)),
    _Key("ensemble.max_depth", "max_depth", (int, None)),
    _Key("ensemble.min_leaf", "min_leaf", (int,)),
    _Key("ensemble.feature_subsample", "feature_subsample", (int, "sqrt", None)),
    _Key("ensemble.bootstrap", "bootstrap", (bool,)),
    _Key("ensemble.learning_rate", "learning_rate", (float,)),
    _Key("ensemble.hard_vote", "hard_vote", (bool,)),
    _Key("rfa.threshold", "rfa.threshold", (float,)),
    _Key("rfa.max_sensors", "rfa.max_sensors", (int, None)),
    _Key("rfa.noise_snr_db", "rfa.noise_snr_db", (float,)),
    _Key("robustness.snr_db", "snr_levels", (list,)),
    _Key("robustness.include_failure", "include_failure", (bool,)),
    # Placement and parallelism cannot affect results, so the echo leaves
    # them out and stays byte-stable across destinations and thread counts.
    _Key("out_dir", "out_dir", (str,), echo=False),
    _Key("n_threads", "n_threads", (int,), echo=False),
)

_JSON_NAMES = {
    int: "integer",
    float: "finite number",
    bool: "boolean",
    str: "string",
    list: "list of finite numbers",
}


def _accepts(kind, value) -> bool:
    if kind is None:
        return value is None
    if isinstance(kind, str):
        return isinstance(value, str) and value == kind
    if kind is list:
        return isinstance(value, (list, tuple)) and all(_of_kind(float, v) for v in value)
    return _of_kind(kind, value)


def _checked(key: _Key, value, name: str):
    """value, if key accepts it; else an InvalidValueError naming name."""
    if not any(_accepts(kind, value) for kind in key.kinds):
        expected = " or ".join(_JSON_NAMES.get(k) or json.dumps(k) for k in key.kinds)
        raise InvalidValueError(f"{name} must be {expected}, got {value!r}")
    return value


def _merge(section, prefix: str, keys: dict, merged: dict, source: str) -> None:
    """Check the dict section found at the dotted prefix against keys (the
    schema by file path or by field) and store its values in merged by
    field.  Unknown keys are rejected, not ignored."""
    if not isinstance(section, dict):
        raise InvalidValueError(f"{prefix[:-1]} must be an object, got {section!r}")
    names = {name[len(prefix):].split(".")[0] for name in keys if name.startswith(prefix)}
    unknown = sorted(prefix + str(name) for name in section if name not in names)
    if unknown:
        raise InvalidValueError(f"unknown {source} key(s) {unknown}")
    for name, value in section.items():
        key = keys.get(prefix + name)
        if key is None:
            _merge(value, prefix + name + ".", keys, merged, source)
        else:
            merged[key.field] = _checked(key, value, prefix + name)


@dataclass(frozen=True)
class PipelineConfig:
    """Fully resolved settings for one run.

    data_path of None means the built-in generator supplies the data.
    feature_subsample accepts an int, None (all features), or "sqrt"
    (square root of the full sensor count, resolved once per run).
    """

    seed: int = 0
    data_path: str | None = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    train_fraction: float = 0.75
    undersample: bool = True
    method: str = BAGGING
    n_trees: int = 25
    max_depth: int | None = 12
    min_leaf: int = 5
    feature_subsample: int | str | None = "sqrt"
    bootstrap: bool = True
    learning_rate: float = 0.3
    hard_vote: bool = False
    rfa: RfaConfig = field(default_factory=RfaConfig)
    snr_levels: tuple[float, ...] = DEFAULT_SNR_LEVELS
    include_failure: bool = True
    out_dir: str = "fdd-out"
    n_threads: int = 1

    def __post_init__(self):
        for key in _SCHEMA:
            if "." not in key.field:
                _checked(key, getattr(self, key.field), key.field)
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        if self.n_threads < 1:
            raise InvalidValueError("n_threads must be >= 1")
        object.__setattr__(self, "snr_levels", tuple(float(v) for v in self.snr_levels))
        # Build the ensemble recipe once now, so that a bad ensemble setting
        # fails in parse_config rather than at stage selection.  The sensor count
        # only resolves "sqrt", and no check depends on it.
        self.ensemble_config(n_sensors=1)

    def ensemble_config(self, n_sensors: int) -> EnsembleConfig:
        subsample = self.feature_subsample
        if subsample == "sqrt":
            subsample = max(1, int(math.isqrt(n_sensors)))
        tree = TreeConfig(
            max_depth=self.max_depth,
            min_leaf=self.min_leaf,
            feature_subsample=subsample,
        )
        return EnsembleConfig(
            method=self.method,
            n_trees=self.n_trees,
            tree=tree,
            bootstrap=self.bootstrap,
            learning_rate=self.learning_rate,
            hard_vote=self.hard_vote,
        )

    def to_json_dict(self) -> dict:
        """Echo of the study parameters: every schema key but out_dir and
        n_threads, nested as in the config file."""
        echo: dict = {}
        for key in _SCHEMA:
            if key.echo:
                *sections, leaf = key.path.split(".")
                node = echo
                for section in sections:
                    node = node.setdefault(section, {})
                value = attrgetter(key.field)(self)
                node[leaf] = list(value) if isinstance(value, tuple) else value
        return echo


def parse_config(path: str | None = None, overrides: dict | None = None) -> PipelineConfig:
    """Resolve a PipelineConfig from defaults, env, file, and overrides.

    Precedence, lowest to highest: built-in defaults, the FDDSENSE_OUT_DIR
    environment variable (output directory only), the JSON config file,
    then explicit overrides (CLI flags).  Overrides are keyed by
    PipelineConfig field; generator and rfa take a dict of their fields,
    merged into the file's, and a None override is ignored.  Unknown keys
    anywhere are rejected rather than ignored, and every value must have
    its key's type.

    Raises:
        ConfigParseError: file unreadable or not valid JSON (the message
            carries line and column).
        InvalidValueError: unknown keys, wrong-typed or out-of-range
            values; the message names the key.
    """
    merged: dict = {}
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        merged["out_dir"] = env_out

    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
        try:
            loaded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigParseError(
                f"config file {path} is not valid JSON: {exc.msg} "
                f"at line {exc.lineno} column {exc.colno}"
            ) from exc
        if not isinstance(loaded, dict):
            raise ConfigParseError(f"config file {path} must hold a JSON object")
        _merge(loaded, "", {key.path: key for key in _SCHEMA}, merged, "config")

    given = {name: value for name, value in (overrides or {}).items() if value is not None}
    _merge(given, "", {key.field: key for key in _SCHEMA}, merged, "override")

    fields = {name: value for name, value in merged.items() if "." not in name}
    for outer, cls in (("generator", GeneratorConfig), ("rfa", RfaConfig)):
        prefix = outer + "."
        fields[outer] = cls(**{n[len(prefix):]: v for n, v in merged.items() if n.startswith(prefix)})
    return PipelineConfig(**fields)


@dataclass(frozen=True)
class PipelineResult:
    """Everything a run produced, plus where the artifacts were written.

    trace holds the sensor ranking and the final model (trace.model);
    report is that model's clean test report, robustness.baseline.
    """

    config: PipelineConfig
    trace: RfaTrace
    report: ClassReport
    robustness: RobustnessReport
    out_dir: Path
    artifact_paths: dict[str, Path]


def _chart_svg(trace: RfaTrace) -> str:
    """Line chart of clean and noise-probed macro-F1 versus sensor count."""
    width, height = 640, 400
    left, right, top, bottom = 58, 16, 18, 46
    plot_w, plot_h = width - left - right, height - top - bottom
    counts = [s.sensor_count for s in trace.steps]
    xmax = max(counts) if counts else 1

    def x_at(k: float) -> float:
        return left + plot_w * (k - 1) / max(xmax - 1, 1)

    def y_at(f: float) -> float:
        return top + plot_h * (1.0 - f)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for tick in range(0, 11, 2):
        f = tick / 10.0
        y = y_at(f)
        parts.append(
            f'<line x1="{left}" y1="{y:.2f}" x2="{left + plot_w}" y2="{y:.2f}" '
            f'stroke="#e5e7eb" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.2f}" text-anchor="end" fill="#374151">{f:.1f}</text>'
        )
    x_step = max(1, (xmax - 1) // 12 + 1) if xmax > 1 else 1
    for k in range(1, xmax + 1, x_step):
        x = x_at(k)
        parts.append(
            f'<line x1="{x:.2f}" y1="{top + plot_h}" x2="{x:.2f}" y2="{top + plot_h + 4}" '
            f'stroke="#374151" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'fill="#374151">{k}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        f'stroke="#374151" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        f'stroke="#374151" stroke-width="1.5"/>'
    )
    y_thr = y_at(trace.threshold)
    parts.append(
        f'<line x1="{left}" y1="{y_thr:.2f}" x2="{left + plot_w}" y2="{y_thr:.2f}" '
        f'stroke="#16a34a" stroke-width="1" stroke-dasharray="2 4"/>'
    )
    parts.append(
        f'<text x="{left + plot_w}" y="{y_thr - 5:.2f}" text-anchor="end" '
        f'fill="#16a34a">threshold {trace.threshold:g}</text>'
    )
    series = (
        ("clean", "#2563eb", None, [(s.sensor_count, s.clean_f1) for s in trace.steps]),
        ("noisy top sensor", "#f59e0b", "6 3", [(s.sensor_count, s.noisy_f1) for s in trace.steps]),
    )
    for _, color, dash, points in series:
        if not points:
            continue
        coords = " ".join(f"{x_at(k):.2f},{y_at(v):.2f}" for k, v in points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        for k, v in points:
            parts.append(
                f'<circle cx="{x_at(k):.2f}" cy="{y_at(v):.2f}" r="3" fill="{color}"/>'
            )
    legend_y = top + 14
    for name, color, _, _ in series:
        parts.append(
            f'<rect x="{left + 12}" y="{legend_y - 9}" width="18" height="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{left + 36}" y="{legend_y - 2}" fill="#111827">{name}</text>'
        )
        legend_y += 18
    parts.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 8}" text-anchor="middle" '
        f'fill="#111827">sensors used (ranked order)</text>'
    )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" fill="#111827" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">macro-F1</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute every stage and write all artifacts under cfg.out_dir.

    On any failure an error.json naming the failed stage and error is
    still written (best effort) and the exception propagates.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = "setup"
    try:
        stage = "data"
        if cfg.data_path is not None:
            data = load_dataset(cfg.data_path)
        else:
            data = generate_dataset(cfg.generator, derive_seed(cfg.seed, "simgen"))

        stage = "rebalance"
        if cfg.undersample:
            data = undersample_majority(data, seed=derive_seed(cfg.seed, "undersample"))

        stage = "split"
        train, test = split_train_test(data, cfg.train_fraction, seed=derive_seed(cfg.seed, "split"))

        stage = "selection"
        trace = run_rfa(
            train,
            test,
            cfg.ensemble_config(train.n_sensors),
            derive_seed(cfg.seed, "model"),
            cfg.rfa,
            n_threads=cfg.n_threads,
        )

        stage = "robustness"
        test_sel = test.select_sensors([test.sensor_index(s) for s in trace.selected])
        top_sensor = trace.ranking[0]
        specs = [
            NoiseSpec(sensor=top_sensor, mode=AWGN, snr_db=level)
            for level in cfg.snr_levels
        ]
        if cfg.include_failure:
            specs.append(NoiseSpec(sensor=top_sensor, mode=FAILURE))
        robustness = run_scenarios(
            trace.model, test_sel, specs, derive_seed(cfg.seed, "robustness")
        )
        report = robustness.baseline

        stage = "artifacts"
        paths = {
            "config": out_dir / "config.json",
            "model": out_dir / "model.json",
            "importance": out_dir / "importance.json",
            "rfa_trace_json": out_dir / "rfa_trace.json",
            "rfa_trace_csv": out_dir / "rfa_trace.csv",
            "robustness_json": out_dir / "robustness.json",
            "robustness_csv": out_dir / "robustness.csv",
            "class_report_json": out_dir / "class_report.json",
            "class_report_csv": out_dir / "class_report.csv",
            "chart": out_dir / "rfa_curves.svg",
        }
        write_json(paths["config"], cfg.to_json_dict())
        write_json(paths["model"], model_to_dict(trace.model))
        trace_json = trace.to_json_dict()
        write_json(
            paths["importance"],
            {
                "mode": "impurity",  # the one measure; kept so the format stays
                "ranking": trace_json["ranking"],
            },
        )
        write_json(paths["rfa_trace_json"], trace_json)
        write_csv_rows(paths["rfa_trace_csv"], trace.to_csv_rows())
        write_json(paths["robustness_json"], robustness.to_json_dict())
        write_csv_rows(paths["robustness_csv"], robustness.to_csv_rows())
        write_json(paths["class_report_json"], report.to_json_dict())
        write_csv_rows(paths["class_report_csv"], report.to_csv_rows())
        atomic_write_text(paths["chart"], _chart_svg(trace))
        stale_error = out_dir / "error.json"
        if stale_error.exists():
            stale_error.unlink()
    except Exception as exc:
        payload = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
        try:
            write_json(out_dir / "error.json", payload)
        except OSError:
            pass
        raise

    return PipelineResult(
        config=cfg,
        trace=trace,
        report=report,
        robustness=robustness,
        out_dir=out_dir,
        artifact_paths=paths,
    )
