"""Sensor degradation studies: SNR-controlled noise and dead sensors.

Additive white Gaussian noise is scaled from the target SNR in dB against
the raw (uncentred) mean-square power of the clean sensor column:
p_noise = p_signal / 10^(snr_db / 10).  At 3 dB the signal therefore
carries about twice the noise power.  Total sensor failure is modelled as
the column reading a constant 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .ensembles import _rescore, evaluate
from .errors import EmptyVectorError, InvalidValueError, ZeroSignalError
from .fileio import _check_kind, _csv_rows
from .metrics import ClassReport
from .seeding import derive_seed
from .trees import _reach

AWGN = "awgn"
FAILURE = "failure"


@dataclass(frozen=True)
class NoiseSpec:
    """One degradation scenario applied to a single sensor column."""

    sensor: str
    mode: str  # "awgn" or "failure"
    snr_db: float | None = None

    def __post_init__(self):
        _check_kind("sensor", self.sensor, str)
        if self.mode == AWGN:
            _check_kind("snr_db", self.snr_db, float)
            if _snr_ratio(self.snr_db) is None:
                raise InvalidValueError(f"awgn mode needs an snr_db whose power ratio "
                                        f"10^(snr_db/10) is a finite positive float, got {self.snr_db!r}")
            object.__setattr__(self, "snr_db", float(self.snr_db))
        elif self.mode == FAILURE:
            if self.snr_db is not None:
                raise InvalidValueError("failure mode takes no snr_db")
        else:
            raise InvalidValueError(f"unknown noise mode {self.mode!r}")

    def label(self) -> str:
        if self.mode == FAILURE:
            return f"{self.sensor}:failure"
        return f"{self.sensor}:awgn@{self.snr_db:g}dB"


def _specs(sensor: str, snr_levels, include_failure: bool) -> list[NoiseSpec]:
    """A study's scenario list on one sensor: AWGN at each SNR level, in
    order, then the sensor's failure if include_failure."""
    specs = [NoiseSpec(sensor=sensor, mode=AWGN, snr_db=level) for level in snr_levels]
    if include_failure:
        specs.append(NoiseSpec(sensor=sensor, mode=FAILURE))
    return specs


def _snr_ratio(snr_db) -> float | None:
    """The power ratio 10^(snr_db / 10), or None if it is not a finite
    positive float (below about -3236 dB or above 3082 dB)."""
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except (OverflowError, TypeError):
        return None
    return ratio if 0.0 < ratio < math.inf else None


def signal_power(x) -> float:
    """Raw mean-square power of a signal vector (no mean removal): inf,
    without a warning, where it exceeds the float range."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise EmptyVectorError("signal power of an empty vector is undefined")
    with np.errstate(over="ignore"):
        return float(np.mean(x * x))


def noise_power_for_snr(p_signal: float, snr_db: float) -> float:
    """Noise power that puts the given signal power at snr_db decibels."""
    if p_signal <= 0.0:
        raise ZeroSignalError("cannot set an SNR against a zero-power signal")
    ratio = _snr_ratio(snr_db)
    p_noise = math.nan if ratio is None else p_signal / ratio
    if not 0.0 < p_noise < math.inf:
        raise InvalidValueError(f"no finite positive noise power puts power {p_signal!r} at {snr_db!r} dB")
    return p_noise


def awgn_for(x, snr_db: float, seed: int) -> tuple[np.ndarray, float]:
    """(noisy copy, measured snr in dB) for one signal vector.

    The measured SNR is recomputed from the empirical powers of the clean
    signal and the actually drawn noise, so it fluctuates around the
    requested value with O(1/sqrt(n)) error.  A zero-power signal, such as
    a dead sensor's column, has no SNR to set: it comes back as an
    unchanged copy with a measured SNR of NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    p_signal = signal_power(x)
    if p_signal == 0.0:
        return x.copy(), math.nan
    p_noise = noise_power_for_snr(p_signal, snr_db)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(p_noise), x.shape[0])
    with np.errstate(over="ignore"):
        p_noise_emp = float(np.mean(noise * noise))
    if p_noise_emp == math.inf:
        raise InvalidValueError(f"noise at {snr_db!r} dB overflows against a signal of power {p_signal!r}")
    measured = math.inf if p_noise_emp == 0.0 else 10.0 * math.log10(p_signal / p_noise_emp)
    return x + noise, measured


def _with_column(data: Dataset, sensor: str, build) -> tuple[Dataset, float]:
    """(dataset copy with sensor's column replaced, measured SNR in dB),
    both from build(clean column), which returns the new column (or a
    scalar that fills it) and the measured SNR."""
    column = data.sensor_index(sensor)
    values = data.values.copy(order="F")
    values[:, column], measured = build(values[:, column])
    return Dataset(data.schema, values, data.labels), measured


def inject_awgn(data: Dataset, sensor: str, snr_db: float, seed: int) -> tuple[Dataset, float]:
    """(dataset copy with white Gaussian noise added to one sensor column,
    measured SNR in dB); the SNR is NaN for a zero-power column.  An
    InvalidValueError of awgn_for, such as a column whose power is inf,
    is raised again with the sensor's name in front."""
    try:
        return _with_column(data, sensor, lambda x: awgn_for(x, snr_db, seed))
    except InvalidValueError as exc:
        raise InvalidValueError(f"sensor {sensor!r}: {exc}") from exc


def fail_sensor(data: Dataset, sensor: str) -> tuple[Dataset, float]:
    """(dataset copy with one sensor column stuck at 0, measured SNR of
    -inf dB: no signal survives, so the column is treated as all noise)."""
    return _with_column(data, sensor, lambda x: (0.0, -math.inf))


@dataclass(frozen=True)
class ScenarioResult:
    spec: NoiseSpec
    measured_snr_db: float
    macro_f1: float
    accuracy: float


@dataclass(frozen=True)
class RobustnessReport:
    """Baseline score plus one row per degradation scenario."""

    baseline: ClassReport
    scenarios: tuple[ScenarioResult, ...]

    def to_json_dict(self) -> dict:
        return {
            "baseline": {"macro_f1": self.baseline.macro_f1, "accuracy": self.baseline.accuracy},
            "scenarios": [
                {
                    "sensor": r.spec.sensor,
                    "mode": r.spec.mode,
                    "snr_db": r.spec.snr_db,
                    "measured_snr_db": r.measured_snr_db if math.isfinite(r.measured_snr_db) else None,
                    "macro_f1": r.macro_f1,
                    "accuracy": r.accuracy,
                }
                for r in self.scenarios
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        """A baseline row, then one row per scenario, from the JSON records."""
        record = self.to_json_dict()
        baseline = {"sensor": None, "mode": "baseline", "snr_db": None, "measured_snr_db": None}
        return _csv_rows([{**baseline, **record["baseline"]}] + record["scenarios"])


class _CleanRoutes:
    """A clean test set routed once through every tree of a model: one
    leaf number per tree and row, leaves numbered in preorder.

    A scenario changes one column.  A row keeps its clean leaf exactly
    when its new value lies in the interval that the leaf's path admits
    on that column (DecisionTree._intervals), so only the rows outside it
    are routed again, from the root, through the routing loop
    trees._reach, which reads the new column wherever a split tests it.
    Each tree computes a column's intervals once, the first time a
    scenario perturbs it or it routes by _steps, and keeps them.
    """

    def __init__(self, trees, xf: np.ndarray):
        n = xf.shape[0]
        self.trees = trees
        widest = max(tree.n_samples.size for tree in trees)
        self.ids = np.empty((len(trees), n), dtype=np.min_scalar_type(widest - 1))
        for tree, ids in zip(trees, self.ids):
            _reach(xf, tree, np.arange(n), ids)

    def outputs(self, xf: np.ndarray, column: int, values: np.ndarray):
        """Yield each tree's leaf outputs, in tree order, for the clean
        rows xf with column replaced by values."""
        ids = np.empty(values.size, dtype=np.intp)  # reused by every tree
        for tree, clean in zip(self.trees, self.ids):
            lo, hi = tree._intervals(column)
            ids[:] = clean
            stays = (lo.take(clean) < values) & (values <= hi.take(clean))
            _reach(xf, tree, (~stays).nonzero()[0], ids, column, values)
            yield tree.output.take(ids, axis=0)


def _scenario(model, routes: _CleanRoutes, test: Dataset, spec: NoiseSpec, seed: int) -> ScenarioResult:
    """One scenario scored from the clean routes.  Only the perturbed
    sensor's column is built: the degradation is applied to a one-column
    Dataset of it, which also checks the new values are finite, and the
    clean matrix is never copied."""
    column = test.sensor_index(spec.sensor)
    single = test.select_sensors([column])
    if spec.mode == AWGN:
        perturbed, measured = inject_awgn(single, spec.sensor, spec.snr_db, derive_seed(seed, spec.label()))
    else:
        perturbed, measured = fail_sensor(single, spec.sensor)
    outputs = routes.outputs(test.values, column, perturbed.values[:, 0])
    report = _rescore(model, test.labels, outputs)
    return ScenarioResult(spec=spec, measured_snr_db=measured, macro_f1=report.macro_f1, accuracy=report.accuracy)


def run_scenarios(model, test: Dataset, specs, seed: int) -> RobustnessReport:
    """Score a model on the clean test set and under each degradation.

    The baseline is evaluate(model, test).  The clean rows are then
    routed a second time, into one leaf number per tree and row
    (_CleanRoutes).  Each scenario builds only its sensor's perturbed
    column, never a copy of the test matrix, and re-routes only the rows
    whose new value leaves their leaf's interval on that column;
    intervals are computed for perturbed columns only.  The leaf outputs
    are combined as predict_scores combines them, in the same tree
    order, so every scenario scores bit-equal to evaluate(model,
    perturbed), with perturbed the whole test set with that column
    changed.

    Each scenario draws its noise from a seed derived from (seed, its own
    label), so reordering or removing scenarios never changes another
    scenario's noise.
    """
    baseline = evaluate(model, test)
    routes = _CleanRoutes(model.trees, test.values)
    results = tuple(_scenario(model, routes, test, spec, seed) for spec in specs)
    return RobustnessReport(baseline=baseline, scenarios=results)
