import numpy as np
import pytest

from fddsense.dataset import split_train_test, undersample_majority
from fddsense.ensembles import BOOSTING, EnsembleConfig, evaluate
from fddsense.errors import InvalidValueError
from fddsense.robustness import AWGN, NoiseSpec, inject_awgn
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

    def test_noise_probe_targets_top_sensor(self):
        train, test = study_data()
        cfg = RfaConfig(threshold=0.95, noise_snr_db=0.0)
        trace = run_rfa(train, test, ENS, 42, cfg)
        # Heavy noise on the most important sensor must cost accuracy by
        # the time that sensor is load-bearing.
        final = trace.steps[-1]
        assert final.noisy_f1 < final.clean_f1

    @pytest.mark.parametrize(
        "ens",
        [ENS, EnsembleConfig(method=BOOSTING, n_trees=2, tree=TreeConfig(max_depth=6, min_leaf=3))],
        ids=["bagging", "boosting"],
    )
    def test_step_scores_as_a_one_scenario_robustness_run(self, ens):
        """A step's clean score is evaluate on the selected test columns,
        and its noisy score is evaluate after the robustness stage's AWGN
        on the top sensor, with that stage's seed rule under the step's
        own seed."""
        train, test = study_data()
        cfg = RfaConfig(threshold=0.95, max_sensors=3, noise_snr_db=1.0)
        trace = run_rfa(train, test, ens, 42, cfg)
        final = trace.steps[-1]
        test_sel = test.select_sensors([test.sensor_index(s) for s in trace.selected])
        assert final.clean_f1 == evaluate(trace.model, test_sel).macro_f1
        spec = NoiseSpec(trace.ranking[0], AWGN, cfg.noise_snr_db)
        seed = derive_seed(derive_seed(42, "rfa-noise", final.sensor_count), spec.label())
        noisy, _ = inject_awgn(test_sel, spec.sensor, spec.snr_db, seed)
        assert final.noisy_f1 == evaluate(trace.model, noisy).macro_f1

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
        rows = trace.to_csv_rows()
        assert rows[0] == ["sensor_count", "added_sensor", "clean_f1", "noisy_f1"]
        assert len(rows) == 1 + len(trace.steps)
        assert float(rows[-1][2]) == trace.steps[-1].clean_f1
