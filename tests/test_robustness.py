import math
import re

import numpy as np
import pytest

from fddsense.dataset import Dataset
from fddsense.ensembles import EnsembleConfig, fit_ensemble
from fddsense.errors import EmptyVectorError, FddError, UnknownSensorError, ZeroSignalError
from fddsense.robustness import (
    AWGN,
    FAILURE,
    NoiseSpec,
    awgn_for,
    fail_sensor,
    inject_awgn,
    noise_power_for_snr,
    run_scenarios,
    signal_power,
)
from fddsense.simgen import GeneratorConfig, generate_dataset
from fddsense.trees import TreeConfig


class TestPowerArithmetic:
    def test_signal_power_is_raw_mean_square(self):
        assert signal_power([3.0, 4.0]) == 12.5
        # A pure DC offset carries power; the mean is not removed.
        assert signal_power([2.0, 2.0, 2.0]) == 4.0

    def test_empty_vector_rejected(self):
        with pytest.raises(EmptyVectorError):
            signal_power([])

    def test_zero_db_means_equal_power(self):
        assert noise_power_for_snr(7.5, 0.0) == 7.5

    def test_three_db_means_double_power(self):
        ratio = 7.5 / noise_power_for_snr(7.5, 3.0)
        assert 1.9 <= ratio <= 2.1

    def test_ten_db_means_tenfold_power(self):
        assert noise_power_for_snr(4.0, 10.0) == pytest.approx(0.4, rel=1e-12)

    def test_negative_snr_amplifies_noise(self):
        assert noise_power_for_snr(1.0, -10.0) == pytest.approx(10.0, rel=1e-12)

    def test_zero_signal_rejected(self):
        with pytest.raises(ZeroSignalError):
            noise_power_for_snr(0.0, 3.0)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -3200.0, math.nan])
    def test_no_finite_positive_noise_power_is_an_fdd_error(self, snr_db):
        # -3200 dB has a finite ratio (1e-320), but its noise power overflows.
        with pytest.raises(FddError, match=re.escape(f"at {snr_db!r} dB")):
            noise_power_for_snr(1.0, snr_db)

    def test_noise_that_overflows_its_power_is_an_fdd_error(self):
        with pytest.raises(FddError, match=re.escape("noise at -3080.0 dB overflows")):
            awgn_for(np.ones(1000), -3080.0, seed=1)


class TestAwgn:
    def test_measured_snr_near_target(self):
        rng = np.random.default_rng(0)
        x = 5.0 + rng.normal(0, 1, 20000)
        for target in (0.0, 3.0, 10.0):
            _, measured = awgn_for(x, target, seed=11)
            assert abs(measured - target) < 0.3

    def test_zero_power_signal_comes_back_unchanged(self):
        x = np.zeros(50)
        noisy, measured = awgn_for(x, 3.0, seed=4)
        assert np.array_equal(noisy, x) and noisy is not x
        assert math.isnan(measured)

    def test_deterministic_per_seed(self):
        x = np.linspace(1, 10, 500)
        a, _ = awgn_for(x, 3.0, seed=4)
        b, _ = awgn_for(x, 3.0, seed=4)
        c, _ = awgn_for(x, 3.0, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_inject_touches_only_target_column(self):
        d = generate_dataset(GeneratorConfig(n_rows=200), 1)
        col = d.sensor_index("T_FI")
        out, measured = inject_awgn(d, "T_FI", 3.0, seed=2)
        untouched = [j for j in range(d.n_sensors) if j != col]
        assert np.array_equal(out.values[:, untouched], d.values[:, untouched])
        assert not np.array_equal(out.values[:, col], d.values[:, col])
        assert np.array_equal(out.labels, d.labels)
        assert measured == awgn_for(d.values[:, col], 3.0, seed=2)[1]

    def test_unknown_sensor_rejected(self):
        d = generate_dataset(GeneratorConfig(n_rows=50), 1)
        with pytest.raises(UnknownSensorError):
            inject_awgn(d, "T_ghost", 3.0, seed=0)

    def test_original_dataset_unchanged(self):
        d = generate_dataset(GeneratorConfig(n_rows=100), 1)
        before = d.values.copy()
        inject_awgn(d, "T_C", 0.0, seed=3)
        fail_sensor(d, "T_C")
        assert np.array_equal(d.values, before)


class TestFailure:
    def test_column_reads_zero(self):
        d = generate_dataset(GeneratorConfig(n_rows=80), 2)
        out, measured = fail_sensor(d, "W6")
        assert np.all(out.values[:, d.sensor_index("W6")] == 0.0)
        assert measured == -math.inf

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("T_FI", AWGN)  # missing snr_db
        with pytest.raises(ValueError):
            NoiseSpec("T_FI", FAILURE, snr_db=3.0)
        with pytest.raises(ValueError):
            NoiseSpec("T_FI", "dropout")

    def test_spec_errors_are_fdd_errors(self):
        for args in ((AWGN,), (AWGN, math.inf), (AWGN, 4000.0), (AWGN, -4000), (FAILURE, 3.0), ("dropout",)):
            with pytest.raises(FddError):
                NoiseSpec("T_FI", *args)

    def test_spec_stores_snr_as_float(self):
        spec = NoiseSpec("T_FI", AWGN, 3)
        assert type(spec.snr_db) is float and spec == NoiseSpec("T_FI", AWGN, 3.0)
        assert spec.label() == "T_FI:awgn@3dB"


def _fitted_model_and_test():
    d = generate_dataset(GeneratorConfig(n_rows=1200), 6)
    cols = [d.sensor_index(s) for s in ("T_FI", "T_FO", "T_C")]
    d = d.select_sensors(cols)
    cfg = EnsembleConfig(n_trees=8, tree=TreeConfig(max_depth=6, min_leaf=3))
    model = fit_ensemble(d.values, d.labels, cfg, 13, d.symbols)
    return model, d


class TestScenarios:
    def test_report_structure_and_determinism(self):
        model, test = _fitted_model_and_test()
        specs = [
            NoiseSpec("T_FI", AWGN, 10.0),
            NoiseSpec("T_FI", AWGN, 0.0),
            NoiseSpec("T_FI", FAILURE),
        ]
        a = run_scenarios(model, test, specs, seed=21)
        b = run_scenarios(model, test, specs, seed=21)
        assert a.to_json_dict() == b.to_json_dict()
        assert len(a.scenarios) == 3
        assert a.scenarios[2].measured_snr_db == -math.inf
        assert a.baseline.macro_f1 >= a.scenarios[1].macro_f1

    def test_removing_a_scenario_keeps_others_noise(self):
        model, test = _fitted_model_and_test()
        both = run_scenarios(
            model, test, [NoiseSpec("T_FI", AWGN, 10.0), NoiseSpec("T_FI", AWGN, 0.0)], seed=3
        )
        only_second = run_scenarios(model, test, [NoiseSpec("T_FI", AWGN, 0.0)], seed=3)
        assert both.scenarios[1].measured_snr_db == only_second.scenarios[0].measured_snr_db
        assert both.scenarios[1].macro_f1 == only_second.scenarios[0].macro_f1

    def test_json_encodes_failure_snr_as_null(self):
        model, test = _fitted_model_and_test()
        report = run_scenarios(model, test, [NoiseSpec("T_FI", FAILURE)], seed=0)
        payload = report.to_json_dict()
        assert payload["scenarios"][0]["measured_snr_db"] is None
        assert payload["scenarios"][0]["snr_db"] is None

    def test_csv_rows(self):
        model, test = _fitted_model_and_test()
        report = run_scenarios(
            model, test, [NoiseSpec("T_FI", AWGN, 3.0), NoiseSpec("T_FI", FAILURE)], seed=0
        )
        rows = report.to_csv_rows()
        assert rows[0] == ["sensor", "mode", "snr_db", "measured_snr_db", "macro_f1", "accuracy"]
        assert rows[1][1] == "baseline"
        assert rows[2][0] == "T_FI" and rows[2][1] == "awgn"
        assert rows[3][1] == "failure" and rows[3][3] == ""
        assert float(rows[2][4]) == report.scenarios[0].macro_f1

    def test_dead_target_sensor_scores_as_the_baseline(self):
        model, test = _fitted_model_and_test()
        values = test.values.copy()
        values[:, test.sensor_index("T_FI")] = 0.0
        dead = Dataset(test.schema, values, test.labels)
        report = run_scenarios(model, dead, [NoiseSpec("T_FI", AWGN, 3.0)], seed=0)
        (row,) = report.scenarios
        assert math.isnan(row.measured_snr_db)
        assert (row.macro_f1, row.accuracy) == (report.baseline.macro_f1, report.baseline.accuracy)
        assert report.to_json_dict()["scenarios"][0]["measured_snr_db"] is None
        assert report.to_csv_rows()[2][3] == ""
