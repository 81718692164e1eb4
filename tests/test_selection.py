import numpy as np
import pytest

from fddsense.dataset import split_train_test, undersample_majority
from fddsense.ensembles import EnsembleConfig
from fddsense.errors import InvalidValueError
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
        pair = study_data()
        trace = run_rfa(pair.train, pair.test, ENS, 42, RfaConfig(threshold=0.95))
        assert trace.threshold_met
        assert len(trace.selected) <= 6
        assert trace.steps[-1].clean_f1 >= 0.95
        # Every earlier step fell short, or the loop would have stopped there.
        for step in trace.steps[:-1]:
            assert step.clean_f1 < 0.95

    def test_selected_is_ranking_prefix(self):
        pair = study_data()
        trace = run_rfa(pair.train, pair.test, ENS, 42, RfaConfig(threshold=0.95))
        assert trace.selected == trace.ranking[: len(trace.selected)]
        assert set(trace.ranking) == set(pair.train.symbols)
        assert [s.sensor_count for s in trace.steps] == list(range(1, len(trace.steps) + 1))
        assert [s.added_sensor for s in trace.steps] == list(trace.selected)

    def test_sensor_budget_exhaustion(self):
        pair = study_data()
        cfg = RfaConfig(threshold=0.999999, max_sensors=2)
        trace = run_rfa(pair.train, pair.test, ENS, 42, cfg)
        assert not trace.threshold_met
        assert len(trace.steps) == 2
        assert len(trace.selected) == 2

    def test_noise_probe_targets_top_sensor(self):
        pair = study_data()
        cfg = RfaConfig(threshold=0.95, noise_snr_db=0.0)
        trace = run_rfa(pair.train, pair.test, ENS, 42, cfg)
        # Heavy noise on the most important sensor must cost accuracy by
        # the time that sensor is load-bearing.
        final = trace.steps[-1]
        assert final.noisy_f1 < final.clean_f1

    def test_deterministic(self):
        pair = study_data()
        a = run_rfa(pair.train, pair.test, ENS, 7, RfaConfig(threshold=0.95))
        b = run_rfa(pair.train, pair.test, ENS, 7, RfaConfig(threshold=0.95))
        assert a.to_json_dict() == b.to_json_dict()

    def test_precomputed_ranking_matches_auto(self):
        from fddsense.ensembles import fit_ensemble, rank_features

        pair = study_data()
        model = fit_ensemble(
            pair.train.values, pair.train.labels, ENS, 7, pair.train.symbols,
            n_classes=max(pair.train.n_classes, pair.test.n_classes),
        )
        ranking = rank_features(model)
        auto = run_rfa(pair.train, pair.test, ENS, 7, RfaConfig(threshold=0.95))
        manual = run_rfa(
            pair.train, pair.test, ENS, 7, RfaConfig(threshold=0.95), ranking=ranking
        )
        assert auto.to_json_dict() == manual.to_json_dict()

    def test_schema_mismatch_rejected(self):
        pair = study_data()
        test_subset = pair.test.select_sensors(range(5))
        with pytest.raises(InvalidValueError):
            run_rfa(pair.train, test_subset, ENS, 7, RfaConfig())


class TestTraceSerialization:
    def test_json_and_csv_shapes(self):
        pair = study_data()
        trace = run_rfa(pair.train, pair.test, ENS, 42, RfaConfig(threshold=0.95))
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
