import numpy as np
import pytest

from fddsense.dataset import split_train_test, undersample_majority
from fddsense.ensembles import BOOSTING, EnsembleConfig, evaluate, fit_ensemble
from fddsense.errors import InvalidValueError
from fddsense.robustness import FAILURE, _specs, run_scenarios
from fddsense.seeding import derive_seed
from fddsense.selection import RfaConfig, run_rfa
from fddsense.simgen import GeneratorConfig, generate_dataset
from fddsense.trees import TreeConfig


def study_data(n_rows=2500, seed=0):
    d = generate_dataset(GeneratorConfig(n_rows=n_rows), seed)
    d = undersample_majority(d, seed=seed + 1)
    return split_train_test(d, 0.75, seed=seed + 2)


ENS = EnsembleConfig(n_trees=10, tree=TreeConfig(max_depth=8, min_leaf=3, feature_subsample=6))


class TestConfigValidation:
    def test_threshold_bounds(self):
        with pytest.raises(InvalidValueError):
            RfaConfig(threshold=0.0)
        with pytest.raises(InvalidValueError):
            RfaConfig(threshold=1.2)

    def test_max_sensors_bounds(self):
        with pytest.raises(InvalidValueError):
            RfaConfig(max_sensors=0)

    @pytest.mark.parametrize("levels", [[3, 3], [0, -0.0], [10, 3, 10.0]], ids=["3-3", "0-minus0", "10-3-10"])
    def test_repeated_snr_level_rejected(self, levels):
        """Each level is one scenario and one column of the trace."""
        with pytest.raises(InvalidValueError, match=r"^snr_levels repeats the level "):
            RfaConfig(snr_levels=levels)

    @pytest.mark.parametrize("levels", [[3, 4000], [-4000], ["3"], 3.0, [True]])
    def test_bad_snr_levels_rejected(self, levels):
        with pytest.raises(InvalidValueError, match="^snr_levels "):
            RfaConfig(snr_levels=levels)

    def test_snr_levels_become_a_tuple_of_floats(self):
        cfg = RfaConfig(snr_levels=[6, -3])
        assert cfg.snr_levels == (6.0, -3.0) and all(type(v) is float for v in cfg.snr_levels)

    def test_importance_mode(self):
        """The importance measure is not a setting."""
        with pytest.raises(TypeError):
            RfaConfig(importance_mode="gain")


class TestRfaLoop:
    def test_stops_at_threshold_with_few_sensors(self):
        train, test = study_data()
        trace = run_rfa(train, test, ENS, 42, RfaConfig(threshold=0.95))
        assert trace.threshold_met
        assert len(trace.selected) <= 6
        assert trace.steps[-1].clean_f1 >= 0.95
        # Every earlier step fell short, or the loop would have stopped there.
        for step in trace.steps[:-1]:
            assert step.clean_f1 < 0.95

    def test_selected_is_ranking_prefix(self):
        train, test = study_data()
        trace = run_rfa(train, test, ENS, 42, RfaConfig(threshold=0.95))
        assert trace.selected == trace.ranking[: len(trace.selected)]
        assert set(trace.ranking) == set(train.symbols)
        assert [s.sensor_count for s in trace.steps] == list(range(1, len(trace.steps) + 1))
        assert [s.added_sensor for s in trace.steps] == list(trace.selected)

    def test_sensor_budget_exhaustion(self):
        train, test = study_data()
        cfg = RfaConfig(threshold=0.999999, max_sensors=2)
        trace = run_rfa(train, test, ENS, 42, cfg)
        assert not trace.threshold_met
        assert len(trace.steps) == 2
        assert len(trace.selected) == 2

    def test_scenarios_target_top_sensor(self):
        train, test = study_data()
        cfg = RfaConfig(threshold=0.95, snr_levels=(0.0,))
        trace = run_rfa(train, test, ENS, 42, cfg)
        assert [row.spec.label() for row in trace.robustness.scenarios] == [
            f"{trace.ranking[0]}:awgn@0dB", f"{trace.ranking[0]}:failure"
        ]
        # Heavy noise on, or failure of, the most important sensor must
        # cost accuracy by the time that sensor is load-bearing.
        final = trace.steps[-1]
        noisy, dead = final.noisy_f1
        assert noisy < final.clean_f1 and dead < final.clean_f1

    @pytest.mark.parametrize(
        "ens",
        [ENS, EnsembleConfig(method=BOOSTING, n_trees=2, tree=TreeConfig(max_depth=6, min_leaf=3))],
        ids=["bagging", "boosting"],
    )
    def test_each_step_is_run_scenarios_of_the_study_scenarios(self, ens):
        """Every step's scores are run_scenarios of _specs on the top
        sensor, on the step's test columns under the step's own seed; the
        last step's run is the trace's robustness report."""
        train, test = study_data()
        cfg = RfaConfig(threshold=0.999999, max_sensors=3, snr_levels=(6.0, 1.0))
        trace = run_rfa(train, test, ens, 42, cfg)
        assert len(trace.steps) == 3
        specs = _specs(trace.ranking[0], cfg.snr_levels, cfg.include_failure)
        for step in trace.steps:
            k = step.sensor_count
            prefix = test.select_sensors([test.sensor_index(s) for s in trace.ranking[:k]])
            model = fit_ensemble(train.select_sensors([train.sensor_index(s) for s in trace.ranking[:k]]).values,
                                 train.labels, ens, 42, trace.ranking[:k],
                                 n_classes=max(train.n_classes, test.n_classes))
            report = run_scenarios(model, prefix, specs, derive_seed(42, "rfa-noise", k))
            assert step.clean_f1 == report.baseline.macro_f1 == evaluate(model, prefix).macro_f1
            assert step.noisy_f1 == tuple(row.macro_f1 for row in report.scenarios)
        assert trace.robustness.to_json_dict() == report.to_json_dict()
        assert [row.spec for row in trace.robustness.scenarios] == specs

    def test_no_scenarios(self):
        """With no SNR level and no failure, a step keeps its clean score
        only."""
        train, test = study_data()
        trace = run_rfa(train, test, ENS, 42, RfaConfig(threshold=0.95, snr_levels=(), include_failure=False))
        assert all(step.noisy_f1 == () for step in trace.steps)
        assert trace.to_csv_rows()[0] == ["sensor_count", "added_sensor", "clean_f1"]

    def test_deterministic(self):
        train, test = study_data()
        a = run_rfa(train, test, ENS, 7, RfaConfig(threshold=0.95))
        b = run_rfa(train, test, ENS, 7, RfaConfig(threshold=0.95))
        assert a.to_json_dict() == b.to_json_dict()

    def test_schema_mismatch_rejected(self):
        train, test = study_data()
        test_subset = test.select_sensors(range(5))
        with pytest.raises(InvalidValueError):
            run_rfa(train, test_subset, ENS, 7, RfaConfig())


class TestTraceSerialization:
    def test_json_and_csv_shapes(self):
        train, test = study_data()
        trace = run_rfa(train, test, ENS, 42, RfaConfig(threshold=0.95))
        payload = trace.to_json_dict()
        assert payload["threshold"] == 0.95
        assert payload["threshold_met"] is True
        assert [r["sensor"] for r in payload["ranking"]] == list(trace.ranking)
        importances = [r["importance"] for r in payload["ranking"]]
        assert importances == sorted(importances, reverse=True)
        assert [row.spec.mode for row in trace.robustness.scenarios] == ["awgn"] * 3 + [FAILURE]
        rows = trace.to_csv_rows()
        assert rows[0] == [
            "sensor_count", "added_sensor", "clean_f1", "awgn@10dB_f1", "awgn@3dB_f1", "awgn@0dB_f1", "failure_f1"
        ]
        assert len(rows) == 1 + len(trace.steps)
        assert float(rows[-1][2]) == trace.steps[-1].clean_f1
        assert tuple(float(cell) for cell in rows[-1][3:]) == trace.steps[-1].noisy_f1
        assert payload["steps"][-1]["awgn@3dB_f1"] == trace.steps[-1].noisy_f1[1]
