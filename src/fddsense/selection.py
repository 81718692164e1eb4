"""Greedy sensor-set selection by recursive feature addition.

Sensors are ranked once, by the importance scores of a model trained on
the full sensor set.  Then, for k = 1, 2, ..., a fresh ensemble is trained
on only the top k sensors and scored on the test set by the study's
robustness run: clean, with white noise on the top-ranked sensor at each
SNR level, and with that sensor dead.  The loop stops at the first k whose
clean macro-F1 reaches the threshold, which yields the smallest ranked
prefix that is good enough, plus a record of how exposed each prefix is
to noise on, and failure of, its most important member.  The last step's
run is the study's robustness report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dataset import Dataset
from .ensembles import EnsembleModel, fit_ensemble, rank_features
from .errors import InvalidValueError
from .fileio import _check_kind, _csv_rows, _of_kind
from .robustness import RobustnessReport, _snr_ratio, _specs, run_scenarios
from .seeding import derive_seed


@dataclass(frozen=True)
class RfaConfig:
    """Stopping rule and scenario list for the addition loop.

    max_sensors of None means the loop may use every ranked sensor.  Each
    step is scored with AWGN on the top-ranked sensor at each of
    snr_levels (distinct, in dB), and with that sensor dead if
    include_failure.
    """

    threshold: float = 0.99
    max_sensors: int | None = None
    snr_levels: tuple[float, ...] = (10.0, 3.0, 0.0)
    include_failure: bool = True

    def __post_init__(self):
        _check_kind("threshold", self.threshold, float)
        _check_kind("max_sensors", self.max_sensors, int, optional=True)
        _check_kind("include_failure", self.include_failure, bool)
        if not 0.0 < self.threshold <= 1.0:
            raise InvalidValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.max_sensors is not None and self.max_sensors < 1:
            raise InvalidValueError("max_sensors must be >= 1 or None")
        if not isinstance(self.snr_levels, (list, tuple)) or not all(_of_kind(float, v) for v in self.snr_levels):
            raise InvalidValueError(f"snr_levels must be a list of finite numbers, got {self.snr_levels!r}")
        levels = tuple(float(v) for v in self.snr_levels)
        for index, level in enumerate(levels):
            if _snr_ratio(level) is None:
                raise InvalidValueError(f"snr_levels {level!r} is out of range: 10^(snr/10) must be a finite positive float")
            if level in levels[:index]:
                raise InvalidValueError(f"snr_levels repeats the level {level!r}: each level is one scenario")
        object.__setattr__(self, "snr_levels", levels)


@dataclass(frozen=True)
class RfaStep:
    """Outcome of training on the top sensor_count ranked sensors: its clean
    macro-F1, and one macro-F1 per scenario of the trace, in order."""

    sensor_count: int
    added_sensor: str
    clean_f1: float
    noisy_f1: tuple[float, ...]


@dataclass(frozen=True)
class RfaTrace:
    """Full record of one addition run.

    selected is the ranked prefix in force when the loop stopped; it meets
    the threshold iff threshold_met.  ranking always lists every sensor.
    model is the ensemble trained at the last step, on exactly the
    selected sensors; it is the study's final model.  robustness is that
    model's run of the study's scenarios, so its baseline is the last
    step's clean report.  Both are kept out of the JSON and CSV records,
    repr and equality, and no earlier step's model or report is kept.
    """

    ranking: tuple[str, ...]
    importances: tuple[float, ...]
    steps: tuple[RfaStep, ...]
    selected: tuple[str, ...]
    threshold: float
    threshold_met: bool
    model: EnsembleModel = field(repr=False, compare=False)
    robustness: RobustnessReport = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        # A column is its scenario's label after the sensor, which is the
        # top-ranked one for every scenario: awgn@3dB_f1, failure_f1.
        columns = [r.spec.label().rpartition(":")[2] + "_f1" for r in self.robustness.scenarios]
        return {
            "threshold": self.threshold,
            "threshold_met": self.threshold_met,
            "selected": list(self.selected),
            "ranking": [
                {"sensor": s, "importance": v}
                for s, v in zip(self.ranking, self.importances)
            ],
            "steps": [
                {"sensor_count": s.sensor_count, "added_sensor": s.added_sensor, "clean_f1": s.clean_f1,
                 **dict(zip(columns, s.noisy_f1))}
                for s in self.steps
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        return _csv_rows(self.to_json_dict()["steps"])


def run_rfa(
    train: Dataset,
    test: Dataset,
    ensemble_cfg,
    master_seed: int,
    rfa_cfg: RfaConfig,
) -> RfaTrace:
    """Rank sensors on an all-sensor model, then grow the set one ranked
    sensor at a time.

    The ranking model and every per-prefix model are trained with the same
    recipe and master_seed, so the only thing that changes between fits is
    the sensor set.  Each step is scored by run_scenarios, with the
    scenarios of rfa_cfg on the globally top-ranked sensor (which every
    prefix contains) and the seed derive_seed(master_seed, "rfa-noise",
    step).

    Args:
        train/test: datasets sharing one schema.
        ensemble_cfg: recipe used for the ranking model and every refit.
        master_seed: root seed for all model fits.
        rfa_cfg: stopping rule and scenario list.

    Returns:
        RfaTrace, carrying the ranking, the last step's model and its
        robustness report.
        threshold_met is False when the loop exhausted its sensor budget
        without reaching the threshold.
    """
    if train.schema != test.schema:
        raise InvalidValueError("train and test schemas differ")
    n_classes = max(train.n_classes, test.n_classes)

    def fit(data: Dataset) -> EnsembleModel:
        return fit_ensemble(
            data.values,
            data.labels,
            ensemble_cfg,
            master_seed,
            data.symbols,
            n_classes=n_classes,
        )

    ranking = rank_features(fit(train))

    ranked_symbols = tuple(s for s, _ in ranking)
    importances = tuple(v for _, v in ranking)
    specs = _specs(ranked_symbols[0], rfa_cfg.snr_levels, rfa_cfg.include_failure)
    limit = len(ranked_symbols)
    if rfa_cfg.max_sensors is not None:
        limit = min(limit, rfa_cfg.max_sensors)

    steps: list[RfaStep] = []
    threshold_met = False
    for k in range(1, limit + 1):
        subset = [train.sensor_index(s) for s in ranked_symbols[:k]]
        model = fit(train.select_sensors(subset))
        report = run_scenarios(model, test.select_sensors(subset), specs, derive_seed(master_seed, "rfa-noise", k))
        clean = report.baseline.macro_f1
        steps.append(RfaStep(k, ranked_symbols[k - 1], clean, tuple(r.macro_f1 for r in report.scenarios)))
        if clean >= rfa_cfg.threshold:
            threshold_met = True
            break

    return RfaTrace(
        ranking=ranked_symbols,
        importances=importances,
        steps=tuple(steps),
        selected=ranked_symbols[: steps[-1].sensor_count],
        threshold=rfa_cfg.threshold,
        threshold_met=threshold_met,
        model=model,
        robustness=report,
    )
