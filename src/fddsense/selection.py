"""Greedy sensor-set selection by recursive feature addition.

Sensors are ranked once, by the importance scores of a model trained on
the full sensor set.  Then, for k = 1, 2, ..., a fresh ensemble is trained
on only the top k sensors and scored on the test set twice: clean, and
with white noise injected into the single top-ranked sensor.  The loop
stops at the first k whose clean macro-F1 reaches the threshold, which
yields the smallest ranked prefix that is good enough, plus a record of
how exposed each prefix is to noise on its most important member.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dataset import Dataset
from .ensembles import EnsembleModel
from .errors import EmptyRankingError, InvalidValueError
from .seeding import derive_seed


@dataclass(frozen=True)
class RfaConfig:
    """Stopping rule and noise probe for the addition loop.

    max_sensors of None means the loop may use every ranked sensor.
    noise_snr_db sets the level of the per-step noise probe on the
    top-ranked sensor.
    """

    threshold: float = 0.99
    max_sensors: int | None = None
    noise_snr_db: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise InvalidValueError(f"threshold must be in (0, 1], got {self.threshold}")
        if self.max_sensors is not None and self.max_sensors < 1:
            raise InvalidValueError("max_sensors must be >= 1 or None")


@dataclass(frozen=True)
class RfaStep:
    """Outcome of training on the top sensor_count ranked sensors."""

    sensor_count: int
    added_sensor: str
    clean_f1: float
    noisy_f1: float


@dataclass(frozen=True)
class RfaTrace:
    """Full record of one addition run.

    selected is the ranked prefix in force when the loop stopped; it meets
    the threshold iff threshold_met.  ranking always lists every sensor.
    model is the ensemble trained at the last step, on exactly the
    selected sensors; it is the study's final model.  It is kept out of
    the JSON and CSV records, repr and equality, and no earlier step's
    model is kept.
    """

    ranking: tuple[str, ...]
    importances: tuple[float, ...]
    steps: tuple[RfaStep, ...]
    selected: tuple[str, ...]
    threshold: float
    threshold_met: bool
    model: EnsembleModel = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "threshold_met": self.threshold_met,
            "selected": list(self.selected),
            "ranking": [
                {"sensor": s, "importance": v}
                for s, v in zip(self.ranking, self.importances)
            ],
            "steps": [
                {
                    "sensor_count": s.sensor_count,
                    "added_sensor": s.added_sensor,
                    "clean_f1": s.clean_f1,
                    "noisy_f1": s.noisy_f1,
                }
                for s in self.steps
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["sensor_count", "added_sensor", "clean_f1", "noisy_f1"]]
        for s in self.steps:
            rows.append(
                [str(s.sensor_count), s.added_sensor, repr(s.clean_f1), repr(s.noisy_f1)]
            )
        return rows


def run_rfa(
    train: Dataset,
    test: Dataset,
    ensemble_cfg,
    master_seed: int,
    rfa_cfg: RfaConfig,
    n_threads: int = 1,
) -> RfaTrace:
    """Rank sensors on an all-sensor model, then grow the set one ranked
    sensor at a time.

    The ranking model and every per-prefix model are trained with the same
    recipe and master_seed, so the only thing that changes between fits is
    the sensor set.  The noise probe always targets the globally top-ranked
    sensor (which every prefix contains) and draws its noise from a seed
    derived from (master_seed, step), so traces are reproducible.

    Args:
        train/test: datasets sharing one schema.
        ensemble_cfg: recipe used for the ranking model and every refit.
        master_seed: root seed for all model fits.
        rfa_cfg: stopping rule and probe level.
        n_threads: bagging parallelism of every fit; results do not
            depend on it.

    Returns:
        RfaTrace, carrying the ranking and the last step's model.
        threshold_met is False when the loop exhausted its sensor budget
        without reaching the threshold.
    """
    from .ensembles import evaluate, fit_ensemble, rank_features
    from .robustness import inject_awgn

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
            n_threads=n_threads,
        )

    ranking = rank_features(fit(train))
    if not ranking:
        raise EmptyRankingError("sensor ranking is empty")

    ranked_symbols = tuple(s for s, _ in ranking)
    importances = tuple(v for _, v in ranking)
    top_sensor = ranked_symbols[0]
    limit = len(ranked_symbols)
    if rfa_cfg.max_sensors is not None:
        limit = min(limit, rfa_cfg.max_sensors)

    steps: list[RfaStep] = []
    threshold_met = False
    for k in range(1, limit + 1):
        subset = [train.sensor_index(s) for s in ranked_symbols[:k]]
        model = fit(train.select_sensors(subset))
        test_k = test.select_sensors(subset)
        clean = evaluate(model, test_k).macro_f1
        probe = inject_awgn(
            test_k, top_sensor, rfa_cfg.noise_snr_db, derive_seed(master_seed, "rfa-noise", k)
        )
        noisy = evaluate(model, probe.data).macro_f1
        steps.append(
            RfaStep(sensor_count=k, added_sensor=ranked_symbols[k - 1], clean_f1=clean, noisy_f1=noisy)
        )
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
    )
