import math
import re

import numpy as np
import pytest

from fddsense import robustness
from fddsense.dataset import Dataset
from fddsense.ensembles import EnsembleConfig, evaluate, fit_ensemble
from fddsense.errors import EmptyVectorError, FddError, InvalidValueError, UnknownSensorError, ZeroSignalError
from fddsense.robustness import (
    AWGN,
    FAILURE,
    NoiseSpec,
    ScenarioResult,
    awgn_for,
    fail_sensor,
    inject_awgn,
    noise_power_for_snr,
    run_scenarios,
    signal_power,
)
from fddsense.seeding import derive_seed
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

    def test_power_beyond_the_float_range_is_inf_without_a_warning(self):
        # 1e200 squared overflows; pytest turns a warning into an error.
        assert signal_power([1.0, 1e200]) == math.inf

    def test_a_column_whose_power_is_inf_is_named_by_its_sensor(self):
        d = generate_dataset(GeneratorConfig(n_rows=300), 1)
        values = d.values.copy(order="F")
        values[5, d.sensor_index("T_C")] = 1e200
        with pytest.raises(InvalidValueError) as info:
            inject_awgn(Dataset(d.schema, values, d.labels), "T_C", 3.0, seed=1)
        assert str(info.value) == "sensor 'T_C': no finite positive noise power puts power inf at 3.0 dB"

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


# Sensors of _differential_tables: three generated columns, then a column
# of +-1 (every threshold on it is 0.0, where a dead sensor reads), a
# constant column that no split can use, and an all-zero column (zero
# power, so noise leaves it unchanged).
SENSORS = ("T_FI", "W1", "W2", "W3", "M1", "M2")
SIGNED, UNUSED, SILENT = "W3", "M1", "M2"

MODELS = {
    "bagging": EnsembleConfig(n_trees=6, tree=TreeConfig(min_leaf=2)),
    "bagging-subsample": EnsembleConfig(n_trees=6, tree=TreeConfig(max_depth=8, feature_subsample=2)),
    "hard-vote": EnsembleConfig(n_trees=6, tree=TreeConfig(max_depth=6), hard_vote=True),
    "boosting": EnsembleConfig(method="boosting", n_trees=5, tree=TreeConfig(max_depth=6)),
    "one-leaf": EnsembleConfig(n_trees=3, tree=TreeConfig(max_depth=0)),
    "one-leaf-boosting": EnsembleConfig(method="boosting", n_trees=2, tree=TreeConfig(max_depth=0)),
}


def _differential_tables(seed=6, step=None):
    """(train, test) of 1,500 generated rows each, on SENSORS; with step,
    every reading is rounded to a multiple of it, as a plant logger
    writes them, so that many rows tie at each split's values."""
    tables = []
    for part in (0, 1):
        d = generate_dataset(GeneratorConfig(n_rows=1500), seed + part)
        d = d.select_sensors([d.sensor_index(s) for s in SENSORS])
        values = d.values.copy()
        if step is not None:
            values = np.round(values / step) * step
        flip = np.random.default_rng(seed + part).random(d.n_rows) < 0.2
        values[:, 3] = np.where((d.labels % 2 == 0) ^ flip, 1.0, -1.0)
        values[:, 4] = 5.0
        values[:, 5] = 0.0
        tables.append(Dataset(d.schema, values, d.labels))
    return tables


def _model_and_test(name, step=None):
    train, test = _differential_tables(step=step)
    return fit_ensemble(train.values, train.labels, MODELS[name], 3, train.symbols), test


def _full_rescore(model, test, spec, seed):
    """The scenario scored by perturbing test and calling evaluate."""
    if spec.mode == AWGN:
        perturbed, measured = inject_awgn(test, spec.sensor, spec.snr_db, derive_seed(seed, spec.label()))
    else:
        perturbed, measured = fail_sensor(test, spec.sensor)
    report = evaluate(model, perturbed)
    return ScenarioResult(spec, measured, report.macro_f1, report.accuracy)


@pytest.fixture
def rerouted(monkeypatch):
    """The row indices of every call to the routing loop that
    run_scenarios makes, in call order."""
    calls = []
    real = robustness._reach

    def spy(xf, tree, idx, out, column=-1, values=None):
        calls.append(idx)
        real(xf, tree, idx, out, column, values)

    monkeypatch.setattr(robustness, "_reach", spy)
    return calls


def _check_every_scenario(name, model, test):
    """Every AWGN level and the failure on each of SENSORS, scored by
    run_scenarios, equal _full_rescore."""
    specs = [NoiseSpec(s, AWGN, level) for s in SENSORS for level in (20.0, 3.0, 0.0, -5.0)]
    specs += [NoiseSpec(s, FAILURE) for s in SENSORS]
    report = run_scenarios(model, test, specs, seed=17)
    assert report.baseline.macro_f1 == evaluate(model, test).macro_f1
    for spec, row in zip(specs, report.scenarios, strict=True):
        full = _full_rescore(model, test, spec, 17)
        assert (row.spec, row.macro_f1, row.accuracy) == (full.spec, full.macro_f1, full.accuracy)
        same_snr = row.measured_snr_db == full.measured_snr_db
        assert same_snr or math.isnan(row.measured_snr_db) and math.isnan(full.measured_snr_db)
    if MODELS[name].tree.max_depth == 0:  # one leaf per tree: nothing moves
        assert {(r.macro_f1, r.accuracy) for r in report.scenarios} == {
            (report.baseline.macro_f1, report.baseline.accuracy)
        }


class TestScenariosMatchFullRescoring:
    """run_scenarios re-routes only the rows that leave their clean leaf;
    every result must equal perturbing the whole test set and calling
    evaluate on it."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_every_scenario_equals_evaluate_on_its_perturbed_rows(self, name):
        _check_every_scenario(name, *_model_and_test(name))

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("step", [0.1, 1.0])
    def test_every_scenario_equals_evaluate_on_logger_rounded_rows(self, name, step):
        _check_every_scenario(name, *_model_and_test(name, step))

    def test_rows_on_their_leafs_upper_threshold_are_not_routed_again(self, rerouted):
        """A dead signed sensor reads 0.0, the threshold of every split on
        it: rows that read -1 went left at each of those splits and stay
        in their leaf, and only rows that read +1 are routed again."""
        model, test = _model_and_test("bagging")
        spec = NoiseSpec(SIGNED, FAILURE)
        (row,) = run_scenarios(model, test, [spec], seed=0).scenarios
        full = _full_rescore(model, test, spec, 0)
        assert (row.macro_f1, row.accuracy) == (full.macro_f1, full.accuracy)
        n_trees = len(model.trees)
        assert [idx.size for idx in rerouted[:n_trees]] == [test.n_rows] * n_trees  # the clean routing
        assert len(rerouted) == 2 * n_trees
        moved = np.concatenate(rerouted[n_trees:])
        signed = test.values[:, test.sensor_index(SIGNED)]
        assert moved.size and np.all(signed.take(moved) == 1.0)

    def test_a_column_no_split_reads_moves_no_row(self, rerouted):
        model, test = _model_and_test("bagging")
        specs = [NoiseSpec(UNUSED, AWGN, 0.0), NoiseSpec(UNUSED, FAILURE), NoiseSpec(SILENT, AWGN, 3.0)]
        report = run_scenarios(model, test, specs, seed=0)
        n_trees = len(model.trees)
        assert [idx.size for idx in rerouted[n_trees:]] == [0] * n_trees * len(specs)
        assert math.isnan(report.scenarios[2].measured_snr_db)  # zero power: no noise to add
        for row in report.scenarios:
            assert (row.macro_f1, row.accuracy) == (report.baseline.macro_f1, report.baseline.accuracy)
