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
from .errors import EmptyVectorError, InvalidValueError, ZeroSignalError
from .metrics import ClassReport
from .seeding import derive_seed

AWGN = "awgn"
FAILURE = "failure"


@dataclass(frozen=True)
class NoiseSpec:
    """One degradation scenario applied to a single sensor column."""

    sensor: str
    mode: str  # "awgn" or "failure"
    snr_db: float | None = None

    def __post_init__(self):
        if self.mode == AWGN:
            if self.snr_db is None or not math.isfinite(self.snr_db):
                raise InvalidValueError("awgn mode needs a finite snr_db")
        elif self.mode == FAILURE:
            if self.snr_db is not None:
                raise InvalidValueError("failure mode takes no snr_db")
        else:
            raise InvalidValueError(f"unknown noise mode {self.mode!r}")

    def label(self) -> str:
        if self.mode == FAILURE:
            return f"{self.sensor}:failure"
        return f"{self.sensor}:awgn@{self.snr_db:g}dB"


def signal_power(x) -> float:
    """Raw mean-square power of a signal vector (no mean removal)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise EmptyVectorError("signal power of an empty vector is undefined")
    return float(np.mean(x * x))


def noise_power_for_snr(p_signal: float, snr_db: float) -> float:
    """Noise power that puts the given signal power at snr_db decibels."""
    if p_signal <= 0.0:
        raise ZeroSignalError("cannot set an SNR against a zero-power signal")
    return p_signal / (10.0 ** (snr_db / 10.0))


def awgn_for(x, snr_db: float, seed: int) -> tuple[np.ndarray, float]:
    """(noisy copy, measured snr in dB) for one signal vector.

    The measured SNR is recomputed from the empirical powers of the clean
    signal and the actually drawn noise, so it fluctuates around the
    requested value with O(1/sqrt(n)) error.
    """
    x = np.asarray(x, dtype=np.float64)
    p_signal = signal_power(x)
    p_noise = noise_power_for_snr(p_signal, snr_db)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(p_noise), x.shape[0])
    p_noise_emp = float(np.mean(noise * noise))
    measured = math.inf if p_noise_emp == 0.0 else 10.0 * math.log10(p_signal / p_noise_emp)
    return x + noise, measured


@dataclass(frozen=True)
class PerturbedTestSet:
    """A test set with one sensor degraded, plus the realised SNR.

    measured_snr_db is -inf for failure scenarios (zero surviving signal
    is treated as all noise).
    """

    data: Dataset
    spec: NoiseSpec
    measured_snr_db: float


def inject_awgn(data: Dataset, sensor: str, snr_db: float, seed: int) -> PerturbedTestSet:
    """Dataset copy with white Gaussian noise added to one sensor column."""
    column = data.sensor_index(sensor)
    values = data.values.copy()
    noisy, measured = awgn_for(values[:, column], snr_db, seed)
    values[:, column] = noisy
    return PerturbedTestSet(
        data=Dataset(data.schema, values, data.labels),
        spec=NoiseSpec(sensor=sensor, mode=AWGN, snr_db=float(snr_db)),
        measured_snr_db=measured,
    )


def fail_sensor(data: Dataset, sensor: str) -> PerturbedTestSet:
    """Dataset copy with one sensor column stuck at 0."""
    column = data.sensor_index(sensor)
    values = data.values.copy()
    values[:, column] = 0.0
    return PerturbedTestSet(
        data=Dataset(data.schema, values, data.labels),
        spec=NoiseSpec(sensor=sensor, mode=FAILURE),
        measured_snr_db=-math.inf,
    )


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
            "baseline": {
                "macro_f1": self.baseline.macro_f1,
                "accuracy": self.baseline.accuracy,
            },
            "scenarios": [
                {
                    "sensor": r.spec.sensor,
                    "mode": r.spec.mode,
                    "snr_db": r.spec.snr_db,
                    "measured_snr_db": None
                    if not math.isfinite(r.measured_snr_db)
                    else r.measured_snr_db,
                    "macro_f1": r.macro_f1,
                    "accuracy": r.accuracy,
                }
                for r in self.scenarios
            ],
        }

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["sensor", "mode", "snr_db", "measured_snr_db", "macro_f1", "accuracy"]]
        rows.append(
            ["", "baseline", "", "", repr(self.baseline.macro_f1), repr(self.baseline.accuracy)]
        )
        for r in self.scenarios:
            rows.append(
                [
                    r.spec.sensor,
                    r.spec.mode,
                    "" if r.spec.snr_db is None else repr(float(r.spec.snr_db)),
                    "" if not math.isfinite(r.measured_snr_db) else repr(r.measured_snr_db),
                    repr(r.macro_f1),
                    repr(r.accuracy),
                ]
            )
        return rows


def run_scenarios(model, test: Dataset, specs, seed: int) -> RobustnessReport:
    """Score a model on the clean test set and under each degradation.

    Each scenario draws its noise from a seed derived from (seed, its own
    label), so reordering or removing scenarios never changes another
    scenario's noise.
    """
    from .ensembles import evaluate

    baseline = evaluate(model, test)
    results = []
    for spec in specs:
        if spec.mode == AWGN:
            perturbed = inject_awgn(
                test, spec.sensor, spec.snr_db, derive_seed(seed, spec.label())
            )
        else:
            perturbed = fail_sensor(test, spec.sensor)
        report = evaluate(model, perturbed.data)
        results.append(
            ScenarioResult(
                spec=spec,
                measured_snr_db=perturbed.measured_snr_db,
                macro_f1=report.macro_f1,
                accuracy=report.accuracy,
            )
        )
    return RobustnessReport(baseline=baseline, scenarios=tuple(results))
