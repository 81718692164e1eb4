"""The benchmark's workloads: set-up, one operation, and its output checks.

Every workload is a closed loop with one client.  Inputs are derived from
the workload seed alone; fddsense receives only the generated inputs.
The package is reached through its module attributes at call time, so a
traced run sees every call through the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

# Acceptance criterion 6 of the package: a study keeps at most this many
# sensors.
MAX_SENSORS = 8

# Study seeds per cycle.  With at least three operations per run the
# first seed comes round again, so the rerun check always fires.
STUDY_CYCLE = 2

RECORDED_ROWS = 50_000
TRAINING_ROWS = 8_000
SCORED_SENSORS = 3
SNR_LEVELS_DB = (20.0, 10.0, 5.0, 3.0, 0.0)
SNR_TOLERANCE_DB = 0.1


def derived_seeds(seed: int, tag: str, count: int) -> list[int]:
    rng = random.Random(f"{seed}:{tag}")
    return [rng.randrange(2**31) for _ in range(count)]


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).name.encode("utf-8") + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


@dataclass
class Outcome:
    """What one operation produced, reduced to what the run reports."""

    macro_f1: float
    sensors: int
    key: object  # operations with equal keys ran on equal inputs
    digest: str  # hash of the output bytes; equal keys must give equal digests
    problems: list[str] = field(default_factory=list)


class Study:
    """One full study: ``run_pipeline(parse_config(None, overrides))``.

    The generator, rebalancing, ranking fit, RFA refits, final fit,
    robustness probe and artifact writer all run inside the operation.
    Set-up only imports the package and resolves the configs.
    """

    def __init__(self, name: str, overrides: dict):
        self.name = name
        self.overrides = overrides

    def overrides_for(self, study_seed: int, out_dir: Path) -> dict:
        return {**self.overrides, "seed": study_seed, "out_dir": str(out_dir), "n_threads": 1}

    def setup(self, fdd, seed: int, work: Path) -> None:
        for study_seed in derived_seeds(seed, "study", STUDY_CYCLE):
            fdd.parse_config(None, self.overrides_for(study_seed, work))

    def inputs(self, seed: int, work: Path) -> list[int]:
        return derived_seeds(seed, "study", STUDY_CYCLE)

    def operation(self, fdd, inputs: list[int], index: int, out_dir: Path):
        study_seed = inputs[index % len(inputs)]
        return study_seed, fdd.run_pipeline(
            fdd.parse_config(None, self.overrides_for(study_seed, out_dir))
        )

    def check(self, produced) -> Outcome:
        study_seed, result = produced
        problems = []
        if not result.trace.threshold_met:
            problems.append(f"study {study_seed}: RFA did not reach its threshold")
        if len(result.trace.selected) > MAX_SENSORS:
            problems.append(
                f"study {study_seed}: {len(result.trace.selected)} sensors selected, "
                f"limit {MAX_SENSORS}"
            )
        paths = [result.artifact_paths[k] for k in sorted(result.artifact_paths)]
        return Outcome(
            macro_f1=result.report.macro_f1,
            sensors=len(result.trace.selected),
            key=study_seed,
            digest=digest(paths),
            problems=problems,
        )


class ScoreRecorded:
    """What ``fddsense robustness`` does to a recorded plant table.

    Set-up writes a recorded table with ``write_csv`` and saves a
    full-sensor bagging model trained on a separate commissioning table
    with the CLI ``train`` defaults.  One operation loads both, scores the
    top three sensors at every SNR level plus a dead sensor, and writes
    robustness.json.  No tree is grown inside the operation.
    """

    name = "score-recorded"

    def setup(self, fdd, seed: int, work: Path) -> None:
        recorded_seed, training_seed, model_seed = derived_seeds(seed, "recorded", 3)
        recorded = fdd.generate_dataset(fdd.GeneratorConfig(n_rows=RECORDED_ROWS), recorded_seed)
        fdd.write_csv(recorded, work / "recorded.csv")
        training = fdd.generate_dataset(fdd.GeneratorConfig(n_rows=TRAINING_ROWS), training_seed)
        cfg = fdd.EnsembleConfig(
            method="bagging",
            n_trees=25,
            tree=fdd.TreeConfig(max_depth=12, min_leaf=5, feature_subsample=6),
        )
        model = fdd.fit_ensemble(
            training.values, training.labels, cfg, model_seed, training.symbols
        )
        fdd.save_model(model, work / "model.json")

    def inputs(self, seed: int, work: Path) -> dict:
        return {
            "model": work / "model.json",
            "data": work / "recorded.csv",
            "seed": derived_seeds(seed, "scoring", 1)[0],
        }

    def operation(self, fdd, inputs: dict, index: int, out_dir: Path):
        model = fdd.load_model(inputs["model"])
        data = fdd.load_dataset(inputs["data"])
        specs = []
        for sensor, _ in fdd.rank_features(model)[:SCORED_SENSORS]:
            specs += [fdd.NoiseSpec(sensor=sensor, mode="awgn", snr_db=v) for v in SNR_LEVELS_DB]
            specs.append(fdd.NoiseSpec(sensor=sensor, mode="failure"))
        report = fdd.run_scenarios(model, data, specs, inputs["seed"])
        out_dir.mkdir(parents=True, exist_ok=True)
        fdd.fileio.write_json(out_dir / "robustness.json", report.to_json_dict())
        return model, report, out_dir / "robustness.json"

    def check(self, produced) -> Outcome:
        model, report, path = produced
        problems = []
        expected = SCORED_SENSORS * (len(SNR_LEVELS_DB) + 1)
        if len(report.scenarios) != expected:
            problems.append(f"{len(report.scenarios)} scenarios, expected {expected}")
        for row in report.scenarios:
            if row.spec.mode != "awgn":
                continue
            miss = abs(row.measured_snr_db - row.spec.snr_db)
            if not miss <= SNR_TOLERANCE_DB:
                problems.append(f"{row.spec.label()}: measured SNR off by {miss:.3f} dB")
        return Outcome(
            macro_f1=report.baseline.macro_f1,
            sensors=len(model.feature_names),
            key="recorded",
            digest=digest([path]),
            problems=problems,
        )


# Why each workload is here: bench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Study("study-bagging", {}),
        Study("study-boosting", {"method": "boosting", "n_trees": 5}),
        ScoreRecorded(),
    )
}
