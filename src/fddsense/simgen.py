"""Synthetic benchmark data for the full 40-sensor refrigeration schema.

Rows are drawn from class-conditional Gaussians: every sensor reads a
per-kind operating baseline plus a per-(sensor, class) mean shift plus
white noise with a per-kind standard deviation.  These are constants of
the rig, not settings.  The shift table encodes one signature per fault:

  * classes 1-4 occupy the four sign quadrants of (T_FO, T_C), so the two
    condenser outlet temperatures jointly identify them;
  * classes 5 and 6 both push the condenser fan (W6) to full power and
    differ from each other only through T_FI, so losing that one sensor
    makes them indistinguishable;
  * each fault also nudges one story-appropriate secondary sensor by a
    couple of noise standard deviations.

All remaining sensors are pure nuisance.  Class proportions default to a
heavily imbalanced mix with the non-faulty class near 46 percent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FAULT_CLASSES, INSTALLED_SENSORS, Dataset
from .errors import BadProportionsError, InvalidValueError
from .fileio import _check_kind, _of_kind

DEFAULT_PROPORTIONS = (0.456, 0.091, 0.089, 0.091, 0.091, 0.091, 0.091)

# Operating baseline and noise standard deviation of each sensor kind.
_KIND_LEVELS = {
    "power": (3000.0, 40.0),
    "mass_flow": (4.0, 0.15),
    "pressure": (3.5, 0.08),
    "temperature": (25.0, 1.0),
}
_BASELINE, _NOISE_SD = np.array([_KIND_LEVELS[s.kind] for s in INSTALLED_SENSORS]).T

# Per-class mean shifts, (class id 0..6, sensor); sensors not named here
# carry no signature.
_SHIFTS = {
    "T_FI": (0.0, 0.0, 0.0, 0.0, 0.0, 8.0, -8.0),
    "T_FO": (0.0, 6.0, 6.0, -6.0, -6.0, 0.0, 0.0),
    "T_C": (0.0, 6.0, -6.0, 6.0, -6.0, 0.0, 0.0),
    "W6": (0.0, 0.0, 0.0, 0.0, 0.0, 120.0, 120.0),
    "T_ret2": (0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "M2": (0.0, 0.0, -0.3, 0.0, 0.0, 0.0, 0.0),
    "T_suc4": (0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0),
    "T_ret1": (0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0),
    "T_sup1": (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0),
}
_SHIFT_TABLE = np.array([_SHIFTS.get(s.symbol, [0.0] * len(FAULT_CLASSES)) for s in INSTALLED_SENSORS]).T


@dataclass(frozen=True)
class GeneratorConfig:
    """Row count and class mix of a draw; the seed picks the draw itself.

    class_proportions must be non-negative, one entry per fault class,
    and sum to 1 within 1e-9.  The sensor signature is fixed (see the
    module docstring).
    """

    n_rows: int = 20000
    class_proportions: tuple[float, ...] = DEFAULT_PROPORTIONS

    def __post_init__(self):
        n_classes = len(FAULT_CLASSES)
        _check_kind("n_rows", self.n_rows, int)
        if self.n_rows < 1:
            raise InvalidValueError(f"n_rows must be >= 1, got {self.n_rows}")
        props = self.class_proportions
        if not isinstance(props, (list, tuple, np.ndarray)) or len(props) != n_classes:
            raise BadProportionsError(f"class_proportions must list {n_classes} numbers, got {props!r}")
        if not all(_of_kind(float, p) and p >= 0 for p in props):
            raise BadProportionsError("class_proportions must be finite and >= 0")
        props = tuple(map(float, props))
        if abs(sum(props) - 1.0) > 1e-9:
            raise BadProportionsError(f"class_proportions sum to {sum(props)!r}, not 1")
        object.__setattr__(self, "class_proportions", props)


def _exact_label_counts(n_rows: int, proportions: tuple[float, ...]) -> np.ndarray:
    """Largest-remainder apportionment of n_rows over the proportions."""
    ideal = np.asarray(proportions) * n_rows
    counts = np.floor(ideal).astype(np.int64)
    remainder = n_rows - int(counts.sum())
    if remainder:
        # Ties in the fractional parts resolve toward lower class ids.
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def generate_dataset(cfg: GeneratorConfig, seed: int) -> Dataset:
    """Draw one dataset over all installed sensors.

    Args:
        cfg: row count and class mix.
        seed: picks the draw; equal (cfg, seed) means an identical Dataset.

    Returns:
        Dataset with exactly cfg.n_rows rows whose class counts follow the
        proportions by largest-remainder rounding, in shuffled row order.
    """
    if seed < 0:
        raise InvalidValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    n_classes = len(FAULT_CLASSES)
    counts = _exact_label_counts(cfg.n_rows, cfg.class_proportions)
    labels = rng.permutation(np.repeat(np.arange(n_classes, dtype=np.int64), counts))

    values = _SHIFT_TABLE.T.take(labels, axis=1).T  # column-major: Dataset adopts it as is
    values += _BASELINE  # IEEE addition commutes: bit-equal to baseline + shift
    noise = rng.normal(0.0, 1.0, (cfg.n_rows, len(INSTALLED_SENSORS)))
    noise *= _NOISE_SD
    values += noise
    return Dataset(INSTALLED_SENSORS, values, labels)
