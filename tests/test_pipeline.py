import json

import numpy as np
import pytest

from fddsense import ensembles, pipeline
from fddsense.dataset import split_train_test, undersample_majority, write_csv
from fddsense.ensembles import fit_ensemble, load_model, model_json_text
from fddsense.errors import ConfigParseError, InvalidValueError
from fddsense.pipeline import (
    OUT_DIR_ENV,
    PipelineConfig,
    parse_config,
    run_pipeline,
)
from fddsense.seeding import derive_seed
from fddsense.simgen import GeneratorConfig, generate_dataset

SMALL = {"generator": {"n_rows": 2500}, "n_trees": 10}


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(None, None)
        assert cfg.seed == 0
        assert cfg.data_path is None
        assert cfg.generator.n_rows == 20000
        assert cfg.train_fraction == 0.75
        assert cfg.rfa.threshold == 0.99
        assert cfg.snr_levels == (10.0, 3.0, 0.0)
        assert cfg.include_failure is True

    def test_env_out_dir_lowest_nondefault_priority(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, "/from/env")
        assert parse_config(None, None).out_dir == "/from/env"
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"out_dir": "/from/file"}))
        assert parse_config(str(file), None).out_dir == "/from/file"
        assert parse_config(str(file), {"out_dir": "/from/flag"}).out_dir == "/from/flag"

    def test_file_values_parsed(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(
            json.dumps(
                {
                    "seed": 9,
                    "data": {"generator": {"n_rows": 500}},
                    "ensemble": {"n_trees": 4, "max_depth": 3},
                    "rfa": {"threshold": 0.9, "max_sensors": 5},
                    "robustness": {"snr_db": [6, 3], "include_failure": False},
                }
            )
        )
        cfg = parse_config(str(file), None)
        assert cfg.seed == 9
        assert cfg.generator.n_rows == 500
        assert cfg.n_trees == 4 and cfg.max_depth == 3
        assert cfg.rfa.threshold == 0.9 and cfg.rfa.max_sensors == 5
        assert cfg.snr_levels == (6.0, 3.0)
        assert cfg.include_failure is False

    def test_overrides_beat_file(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"seed": 9}))
        assert parse_config(str(file), {"seed": 30}).seed == 30

    def test_unknown_keys_rejected(self, tmp_path):
        for payload in (
            {"sead": 1},
            {"ensemble": {"trees": 4}},
            {"rfa": {"target": 0.9}},
            {"data": {"csv": "x"}},
        ):
            file = tmp_path / "cfg.json"
            file.write_text(json.dumps(payload))
            with pytest.raises(InvalidValueError):
                parse_config(str(file), None)

    def test_bad_json_reports_position(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text('{\n  "seed": 3,\n}')
        with pytest.raises(ConfigParseError) as info:
            parse_config(str(file), None)
        assert "line 3" in str(info.value)

    def test_non_object_json_rejected(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text("[1, 2, 3]")
        with pytest.raises(ConfigParseError):
            parse_config(str(file), None)

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigParseError):
            parse_config("/no/such/config.json", None)

    def test_feature_subsample_forms(self):
        assert PipelineConfig(feature_subsample="sqrt").ensemble_config(40).tree.feature_subsample == 6
        assert PipelineConfig(feature_subsample=None).ensemble_config(40).tree.feature_subsample is None
        assert PipelineConfig(feature_subsample=4).ensemble_config(40).tree.feature_subsample == 4
        with pytest.raises(InvalidValueError):
            PipelineConfig(feature_subsample="log2")

    @pytest.mark.parametrize(
        "key, value",
        [("min_leaf", 0), ("method", "foo"), ("feature_subsample", 0), ("max_depth", -1)],
    )
    def test_bad_ensemble_values_rejected(self, tmp_path, key, value):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"ensemble": {key: value}}))
        with pytest.raises(InvalidValueError, match=key):
            parse_config(str(file), None)

    def test_bad_value_types_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_config(None, {"bogus_key": 3})


class TestRunPipeline:
    def test_artifacts_written_and_consistent(self, tmp_path):
        cfg = parse_config(None, {**SMALL, "seed": 5, "out_dir": str(tmp_path / "out")})
        result = run_pipeline(cfg)
        names = {p.name for p in result.out_dir.iterdir()}
        assert names == {
            "config.json",
            "model.json",
            "importance.json",
            "rfa_trace.json",
            "rfa_trace.csv",
            "robustness.json",
            "robustness.csv",
            "class_report.json",
            "class_report.csv",
            "rfa_curves.svg",
        }
        echo = json.loads((result.out_dir / "config.json").read_text())
        assert echo["seed"] == 5
        assert echo["data"]["generator"]["n_rows"] == 2500
        importance = json.loads((result.out_dir / "importance.json").read_text())
        assert len(importance["ranking"]) == 40
        trace = json.loads((result.out_dir / "rfa_trace.json").read_text())
        assert trace["selected"] == list(result.trace.selected)
        svg = (result.out_dir / "rfa_curves.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg and "threshold" in svg

    def test_saved_model_reproduces_report(self, tmp_path):
        cfg = parse_config(None, {**SMALL, "seed": 5, "out_dir": str(tmp_path / "out")})
        result = run_pipeline(cfg)
        model = load_model(result.artifact_paths["model"])
        assert model.feature_names == result.trace.selected
        report = json.loads((result.out_dir / "class_report.json").read_text())
        assert report["macro_f1"] == result.report.macro_f1

    def test_csv_input_path(self, tmp_path):
        data = generate_dataset(GeneratorConfig(n_rows=2500), 8)
        csv_path = tmp_path / "data.csv"
        write_csv(data, csv_path)
        cfg = parse_config(
            None,
            {"data_path": str(csv_path), "n_trees": 10, "seed": 2, "out_dir": str(tmp_path / "out")},
        )
        result = run_pipeline(cfg)
        assert result.trace.threshold_met

    def test_error_artifact_on_failure(self, tmp_path):
        out = tmp_path / "out"
        cfg = parse_config(None, {"data_path": str(tmp_path / "missing.csv"), "out_dir": str(out)})
        with pytest.raises(FileNotFoundError):
            run_pipeline(cfg)
        payload = json.loads((out / "error.json").read_text())
        assert payload["stage"] == "data"
        assert payload["error"] == "FileNotFoundError"

    def test_stale_error_artifact_removed_on_success(self, tmp_path):
        out = tmp_path / "out"
        bad = parse_config(None, {"data_path": str(tmp_path / "missing.csv"), "out_dir": str(out)})
        with pytest.raises(FileNotFoundError):
            run_pipeline(bad)
        good = parse_config(None, {**SMALL, "seed": 1, "out_dir": str(out)})
        run_pipeline(good)
        assert not (out / "error.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = parse_config(None, {**SMALL, "seed": 3, "out_dir": str(tmp_path / "a")})
        cfg_b = parse_config(None, {**SMALL, "seed": 3, "out_dir": str(tmp_path / "b")})
        res_a = run_pipeline(cfg_a)
        res_b = run_pipeline(cfg_b)
        for name, path_a in res_a.artifact_paths.items():
            assert path_a.read_bytes() == res_b.artifact_paths[name].read_bytes(), name

    def test_final_model_evaluates_on_selected_columns(self, tmp_path):
        cfg = parse_config(None, {**SMALL, "seed": 4, "out_dir": str(tmp_path / "out")})
        result = run_pipeline(cfg)
        assert result.report.macro_f1 >= result.config.rfa.threshold
        assert result.trace.threshold_met
        assert len(result.robustness.scenarios) == 4  # 3 SNR levels + failure
        failure_row = result.robustness.scenarios[-1]
        assert failure_row.spec.mode == "failure"
        assert failure_row.macro_f1 < result.robustness.baseline.macro_f1

    def test_fits_only_the_rank_model_and_the_rfa_steps(self, tmp_path, monkeypatch):
        calls = {"fit_ensemble": 0, "evaluate": 0}

        def counting(name):
            real = getattr(ensembles, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return counted

        for name in calls:
            wrapper = counting(name)
            monkeypatch.setattr(ensembles, name, wrapper)
            if hasattr(pipeline, name):
                monkeypatch.setattr(pipeline, name, wrapper)
        cfg = parse_config(None, {**SMALL, "seed": 4, "out_dir": str(tmp_path / "out")})
        result = run_pipeline(cfg)
        steps = len(result.trace.steps)
        assert calls["fit_ensemble"] == 1 + steps
        # RFA scores each step clean and noisy; run_scenarios scores the
        # baseline and each scenario.  The pipeline itself scores nothing.
        assert calls["evaluate"] == 2 * steps + 1 + len(result.robustness.scenarios)
        assert result.report is result.robustness.baseline

    @pytest.mark.parametrize(
        "ensemble", [{}, {"method": "boosting", "n_trees": 2}], ids=["bagging", "boosting"]
    )
    def test_final_model_is_a_fresh_fit_on_the_selected_sensors(self, tmp_path, ensemble):
        cfg = parse_config(None, {**SMALL, **ensemble, "seed": 6, "out_dir": str(tmp_path / "out")})
        result = run_pipeline(cfg)
        assert result.final_model is result.trace.model
        data = generate_dataset(cfg.generator, derive_seed(cfg.seed, "simgen"))
        data = undersample_majority(data, seed=derive_seed(cfg.seed, "undersample"))
        pair = split_train_test(
            data, cfg.train_fraction, stratified=True, seed=derive_seed(cfg.seed, "split")
        )
        train = pair.train.select_sensors(
            [pair.train.sensor_index(s) for s in result.trace.selected]
        )
        fresh = fit_ensemble(
            train.values,
            train.labels,
            cfg.ensemble_config(pair.train.n_sensors),
            derive_seed(cfg.seed, "model"),
            train.symbols,
            n_classes=max(pair.train.n_classes, pair.test.n_classes),
        )
        assert model_json_text(result.final_model) == model_json_text(fresh)
        assert result.artifact_paths["model"].read_text() == model_json_text(fresh)
