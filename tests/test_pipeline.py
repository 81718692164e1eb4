import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from fddsense import ensembles, pipeline
from fddsense.dataset import split_train_test, undersample_majority, write_csv
from fddsense.ensembles import fit_ensemble, load_model, model_json_text
from fddsense.errors import ConfigParseError, FddError, InvalidValueError
from fddsense.pipeline import (
    _SCHEMA,
    OUT_DIR_ENV,
    PipelineConfig,
    parse_config,
    run_pipeline,
)
from fddsense.seeding import derive_seed
from fddsense.selection import RfaConfig
from fddsense.simgen import GeneratorConfig, generate_dataset

SMALL = {"generator": {"n_rows": 2500}, "n_trees": 10}


def nested(dotted, value):
    """{"a": {"b": value}} for "a.b"."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


def wrong_values(key):
    """Values of the wrong JSON type for one schema key."""
    kinds = key.kinds
    candidates = [
        (True, bool in kinds),
        (1, int in kinds or float in kinds),
        (2.5, float in kinds),
        ("7", str in kinds),
        ("no", str in kinds),
        ([], list in kinds),
        (["7"], False),
        ({}, False),
        (None, None in kinds),
    ]
    return [value for value, legal in candidates if not legal]


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
        [
            ("min_leaf", 0),
            ("method", "foo"),
            ("feature_subsample", 0),
            ("max_depth", -1),
            ("train_fraction", 1.5),
        ],
    )
    def test_bad_ensemble_values_rejected(self, tmp_path, key, value):
        file = tmp_path / "cfg.json"
        payload = {key: value} if key == "train_fraction" else {"ensemble": {key: value}}
        file.write_text(json.dumps(payload))
        with pytest.raises(InvalidValueError, match=key):
            parse_config(str(file), None)

    def test_bad_value_types_rejected(self):
        with pytest.raises(InvalidValueError):
            parse_config(None, {"bogus_key": 3})

    @pytest.mark.parametrize("key", _SCHEMA, ids=lambda key: key.path)
    def test_wrong_typed_values_rejected(self, tmp_path, key):
        file = tmp_path / "cfg.json"
        for value in wrong_values(key):
            file.write_text(json.dumps(nested(key.path, value)))
            with pytest.raises(FddError) as info:
                parse_config(str(file), None)
            assert key.path in str(info.value), value
            if value is None and "." not in key.field:
                continue  # a None override means "not given"
            with pytest.raises(FddError) as info:
                parse_config(None, nested(key.field, value))
            assert key.field in str(info.value), value

    @pytest.mark.parametrize(
        "key",
        [key for key in _SCHEMA if {int, float, list} & set(key.kinds)],
        ids=lambda key: key.path,
    )
    def test_non_finite_numbers_rejected(self, tmp_path, key):
        file = tmp_path / "cfg.json"
        for number in (float("nan"), float("inf"), float("-inf"), "1e400"):
            value = [number] if list in key.kinds else number
            # json.dumps writes NaN, Infinity and -Infinity, which json.loads
            # reads back; the literal 1e400 reads as inf.
            file.write_text(json.dumps(nested(key.path, value)).replace('"1e400"', "1e400"))
            with pytest.raises(InvalidValueError, match=re.escape(key.path)):
                parse_config(str(file), None)
            if number == "1e400":
                continue
            with pytest.raises(InvalidValueError, match=re.escape(key.field)):
                parse_config(None, nested(key.field, value))

    @pytest.mark.parametrize(
        "path, value",
        [
            ("ensemble.split_strategy", "exact"),
            ("ensemble.histogram_bins", 64),
            ("rfa.importance_mode", "gain"),
        ],
        ids=["ensemble.split_strategy", "ensemble.histogram_bins", "rfa.importance_mode"],
    )
    def test_removed_keys_rejected(self, tmp_path, path, value):
        """The histogram splitter's two keys and the importance mode are
        gone; setting one is an unknown key, through the file and through
        overrides (ensemble keys are top-level override names, rfa keys
        nest under "rfa")."""
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(nested(path, value)))
        with pytest.raises(InvalidValueError, match=re.escape(path)):
            parse_config(str(file), None)
        field = path.removeprefix("ensemble.")
        with pytest.raises(InvalidValueError, match=re.escape(field)):
            parse_config(None, nested(field, value))

    @pytest.mark.parametrize("section", ["data", "data.generator", "ensemble", "rfa", "robustness"])
    def test_non_object_section_rejected(self, tmp_path, section):
        file = tmp_path / "cfg.json"
        for value in (5, "x", [], None):
            file.write_text(json.dumps(nested(section, value)))
            with pytest.raises(InvalidValueError, match=section):
                parse_config(str(file), None)

    def test_nested_overrides_keep_the_files_other_keys(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(
            json.dumps(
                {
                    "data": {"generator": {"class_proportions": [0.4] + [0.1] * 6}},
                    "rfa": {"max_sensors": 5, "noise_snr_db": 6},
                }
            )
        )
        cfg = parse_config(str(file), {"rfa": {"threshold": 0.9}, "generator": {"n_rows": 700}})
        assert (cfg.rfa.threshold, cfg.rfa.max_sensors, cfg.rfa.noise_snr_db) == (0.9, 5, 6)
        assert cfg.generator.n_rows == 700
        assert cfg.generator.class_proportions == (0.4,) + (0.1,) * 6

    def test_echo_parses_back_to_the_same_config(self, tmp_path):
        cfg = PipelineConfig(
            seed=4,
            data_path="plant.csv",
            generator=GeneratorConfig(n_rows=900, class_proportions=(0.4,) + (0.1,) * 6),
            train_fraction=0.6,
            undersample=False,
            method="boosting",
            n_trees=3,
            max_depth=None,
            min_leaf=2,
            feature_subsample=None,
            bootstrap=False,
            learning_rate=0.5,
            rfa=RfaConfig(threshold=0.95, max_sensors=6, noise_snr_db=1.0),
            snr_levels=(5.0,),
            include_failure=False,
        )
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(cfg.to_json_dict()))
        assert parse_config(str(file), None) == cfg

    def test_readme_example_config_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        file = tmp_path / "study.json"
        file.write_text(block)
        echo = parse_config(str(file), None).to_json_dict()

        def assert_within(part, whole):
            for name, value in part.items():
                if isinstance(value, dict):
                    assert_within(value, whole[name])
                else:
                    assert whole[name] == value, name

        assert_within(json.loads(block), echo)


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

    def test_every_fit_of_a_study_gets_n_threads(self, tmp_path, monkeypatch):
        real = ensembles.fit_ensemble
        threads = []

        def recording(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            threads.append(bound.arguments["n_threads"])
            return real(*args, **kwargs)

        monkeypatch.setattr(ensembles, "fit_ensemble", recording)
        cfg = parse_config(
            None, {**SMALL, "seed": 4, "n_threads": 3, "out_dir": str(tmp_path / "out")}
        )
        result = run_pipeline(cfg)
        # The ranking fit, then one fit per RFA step.
        assert threads == [cfg.n_threads] * (1 + len(result.trace.steps))

    @pytest.mark.parametrize(
        "ensemble", [{}, {"method": "boosting", "n_trees": 2}], ids=["bagging", "boosting"]
    )
    def test_final_model_is_a_fresh_fit_on_the_selected_sensors(self, tmp_path, ensemble):
        cfg = parse_config(None, {**SMALL, **ensemble, "seed": 6, "out_dir": str(tmp_path / "out")})
        result = run_pipeline(cfg)
        data = generate_dataset(cfg.generator, derive_seed(cfg.seed, "simgen"))
        data = undersample_majority(data, seed=derive_seed(cfg.seed, "undersample"))
        train, test = split_train_test(
            data, cfg.train_fraction, seed=derive_seed(cfg.seed, "split")
        )
        train_sel = train.select_sensors(
            [train.sensor_index(s) for s in result.trace.selected]
        )
        fresh = fit_ensemble(
            train_sel.values,
            train_sel.labels,
            cfg.ensemble_config(train.n_sensors),
            derive_seed(cfg.seed, "model"),
            train_sel.symbols,
            n_classes=max(train.n_classes, test.n_classes),
        )
        assert model_json_text(result.trace.model) == model_json_text(fresh)
        assert result.artifact_paths["model"].read_text() == model_json_text(fresh)
