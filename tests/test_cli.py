import json

import pytest
from click.testing import CliRunner

from fddsense.cli import main
from fddsense.dataset import Dataset, load_dataset, write_csv
from fddsense.simgen import GeneratorConfig, generate_dataset


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def make_csv(tmp_path, n_rows=2000, seed=0, name="data.csv"):
    path = tmp_path / name
    write_csv(generate_dataset(GeneratorConfig(n_rows=n_rows), seed), path)
    return path


class TestSimgenCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "synth.csv"
        result = invoke("simgen", "--out", str(out), "--rows", "120", "--seed", "3")
        assert result.exit_code == 0
        assert "wrote 120 rows x 40 sensors" in result.output
        assert out.read_text().splitlines()[0].endswith(",class")

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        invoke("simgen", "--out", str(a), "--rows", "60", "--seed", "9")
        invoke("simgen", "--out", str(b), "--rows", "60", "--seed", "9")
        assert a.read_bytes() == b.read_bytes()


class TestTrainCommand:
    def test_trains_and_saves(self, tmp_path):
        data = make_csv(tmp_path)
        model_path = tmp_path / "model.json"
        result = invoke(
            "train", "--data", str(data), "--model-out", str(model_path),
            "--trees", "5", "--max-depth", "6",
        )
        assert result.exit_code == 0
        assert "training macro-F1" in result.output
        payload = json.loads(model_path.read_text())
        assert payload["format_version"] == 2
        assert len(payload["trees"]) == 5

    def test_missing_data_fails_cleanly(self, tmp_path):
        result = CliRunner().invoke(
            main, ["train", "--data", str(tmp_path / "nope.csv")]
        )
        assert result.exit_code != 0
        # one-line error, not a traceback
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "FileNotFoundError" in result.output
        assert "Traceback" not in result.output

    def test_bad_ensemble_flag_fails_cleanly(self, tmp_path):
        data = make_csv(tmp_path, n_rows=200)
        model_path = tmp_path / "model.json"
        result = invoke(
            "train", "--data", str(data), "--model-out", str(model_path), "--min-leaf", "0"
        )
        assert result.exit_code == 1
        assert result.output.splitlines() == ["Error: InvalidValueError: min_leaf must be >= 1"]
        assert not model_path.exists()

    def test_negative_label_fails_cleanly(self, tmp_path):
        """A negative label, and one beyond int64, is one Error: line."""
        data = tmp_path / "data.csv"
        data.write_text(f"T_FI,T_FO,class\n1.0,2.0,0\n1.0,2.0,-1\n1.0,2.0,{10**30}\n")
        model_path = tmp_path / "model.json"
        result = invoke("train", "--data", str(data), "--model-out", str(model_path))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: MalformedRowError: malformed cells: row 1 col 'class', row 2 col 'class'"
        ]
        assert not model_path.exists()


    def test_label_outside_the_fault_classes_fails_cleanly(self, tmp_path):
        """Class ids stop at 6, so a label of 3000 cannot inflate the model
        to 3001 classes."""
        data = tmp_path / "data.csv"
        data.write_text("T_FI,T_FO,class\n1.0,2.0,0\n1.5,2.5,0\n3.0,4.0,3000\n3.5,4.5,3000\n")
        model_path = tmp_path / "model.json"
        result = invoke("train", "--data", str(data), "--model-out", str(model_path))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: MalformedRowError: malformed cells: row 2 col 'class', row 3 col 'class'"
        ]
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "edit, cells",
        [
            (lambda line: b'"' + line, "row 1 (unreadable CSV: field larger than field limit (131072))"),
            (lambda line: b"\xff" + line, "row 1 col 'W1'"),
        ],
        ids=["stray-quote", "xff-byte"],
    )
    def test_unreadable_csv_fails_cleanly(self, tmp_path, edit, cells):
        data = make_csv(tmp_path, n_rows=3000)
        lines = data.read_bytes().split(b"\n")
        lines[2] = edit(lines[2])
        data.write_bytes(b"\n".join(lines))
        model_path = tmp_path / "model.json"
        result = invoke("train", "--data", str(data), "--model-out", str(model_path))
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: MalformedRowError: malformed cells: {cells}"]
        assert not model_path.exists()

class TestImportanceCommand:
    def test_prints_ranking(self, tmp_path):
        data = make_csv(tmp_path)
        model_path = tmp_path / "model.json"
        invoke("train", "--data", str(data), "--model-out", str(model_path), "--trees", "5")
        result = invoke("importance", "--model", str(model_path), "--top", "4")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split()[0] == "1"

    @pytest.mark.parametrize("top", ["0", "-38"])
    def test_top_below_one_rejected(self, tmp_path, top):
        result = CliRunner().invoke(main, ["importance", "--model", str(tmp_path / "m.json"), "--top", top])
        assert result.exit_code == 2
        assert "Invalid value for '--top'" in result.output
        assert "Traceback" not in result.output

    def test_mode_flag_is_gone(self, tmp_path):
        result = CliRunner().invoke(main, ["importance", "--model", str(tmp_path / "m.json"), "--mode", "gain"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--mode" in result.output

    def test_bad_model_file(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text("{}")
        result = CliRunner().invoke(main, ["importance", "--model", str(bad)])
        assert result.exit_code != 0
        assert "ModelFormatError" in result.output


class TestRfaCommand:
    def test_prints_steps_and_writes_artifacts(self, tmp_path):
        data = make_csv(tmp_path)
        out = tmp_path / "rfa-out"
        result = invoke(
            "rfa", "--data", str(data), "--threshold", "0.9", "--trees", "8",
            "--out", str(out),
        )
        assert result.exit_code == 0
        assert "selected:" in result.output
        assert (out / "rfa_trace.json").exists()
        assert (out / "rfa_trace.csv").exists()
        assert (out / "rfa_curves.svg").exists()


class TestRobustnessCommand:
    def test_scores_scenarios(self, tmp_path):
        data = make_csv(tmp_path)
        model_path = tmp_path / "model.json"
        invoke("train", "--data", str(data), "--model-out", str(model_path), "--trees", "5")
        result = invoke(
            "robustness", "--model", str(model_path), "--data", str(data),
            "--snr", "10,0", "--fail-sensor", "--out", str(tmp_path / "rob"),
        )
        assert result.exit_code == 0
        assert "baseline: macro-F1" in result.output
        assert ":awgn@10dB" in result.output
        assert ":failure" in result.output
        payload = json.loads((tmp_path / "rob" / "robustness.json").read_text())
        assert len(payload["scenarios"]) == 3

    def test_dead_top_sensor_is_a_scenario_result(self, tmp_path):
        data = make_csv(tmp_path)
        model_path = tmp_path / "model.json"
        invoke("train", "--data", str(data), "--model-out", str(model_path), "--trees", "5")
        top = invoke("importance", "--model", str(model_path), "--top", "1").output.split()[1]
        table = load_dataset(data)
        values = table.values.copy()
        values[:, table.sensor_index(top)] = 0.0
        dead = tmp_path / "dead.csv"
        write_csv(Dataset(table.schema, values, table.labels), dead)
        result = invoke(
            "robustness", "--model", str(model_path), "--data", str(dead),
            "--snr", "3", "--fail-sensor", "--out", str(tmp_path / "rob"),
        )
        assert result.exit_code == 0
        baseline = result.output.splitlines()[0].split()[-1]
        assert result.output.splitlines()[1:3] == [
            f"{top}:awgn@3dB: macro-F1 {baseline}",
            f"{top}:failure: macro-F1 {baseline}",
        ]
        payload = json.loads((tmp_path / "rob" / "robustness.json").read_text())
        assert payload["scenarios"][0]["measured_snr_db"] is None

    def test_pipeline_model_scores_its_source_csv(self, tmp_path):
        data = make_csv(tmp_path, n_rows=2500, seed=2)
        out = tmp_path / "out"
        invoke(
            "pipeline", "--data", str(data), "--trees", "5", "--seed", "2",
            "--out", str(out), "--snr", "10", "--threshold", "0.9",
        )
        sensors = json.loads((out / "model.json").read_text())["feature_names"]
        assert len(sensors) < 40  # the model reads a subset of the CSV's columns
        result = invoke(
            "robustness", "--model", str(out / "model.json"), "--data", str(data),
            "--snr", "10", "--fail-sensor",
        )
        assert result.exit_code == 0
        assert "baseline: macro-F1" in result.output
        assert ":failure" in result.output

        full = load_dataset(data)
        missing = sensors[-1]
        kept = [i for i, s in enumerate(full.symbols) if s != missing]
        narrow = tmp_path / "narrow.csv"
        write_csv(full.select_sensors(kept), narrow)
        result = CliRunner().invoke(
            main, ["robustness", "--model", str(out / "model.json"), "--data", str(narrow)]
        )
        assert result.exit_code == 1
        assert "UnknownSensorError" in result.output
        assert repr(missing) in result.output

    def test_bad_snr_list_rejected(self, tmp_path):
        result = CliRunner().invoke(
            main, ["robustness", "--model", "m", "--data", "d", "--snr", "ten,three"]
        )
        assert result.exit_code != 0


class TestPipelineCommand:
    def test_full_run(self, tmp_path):
        out = tmp_path / "out"
        result = invoke(
            "pipeline", "--rows", "2500", "--trees", "10", "--seed", "2",
            "--out", str(out), "--snr", "10,0",
        )
        assert result.exit_code == 0
        assert "selected:" in result.output
        assert "artifacts:" in result.output
        assert (out / "model.json").exists()
        report = json.loads((out / "robustness.json").read_text())
        assert len(report["scenarios"]) == 3  # two SNR levels + failure

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": {"generator": {"n_rows": 2500}},
            "ensemble": {"n_trees": 8},
            "robustness": {"snr_db": [3], "include_failure": False},
        }))
        out = tmp_path / "out"
        result = invoke(
            "pipeline", "--config", str(cfg), "--seed", "4", "--out", str(out),
            "--threshold", "0.9",
        )
        assert result.exit_code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["seed"] == 4
        assert echo["rfa"]["threshold"] == 0.9
        assert echo["ensemble"]["n_trees"] == 8

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
    def test_bad_ensemble_value_fails_before_any_stage(self, tmp_path, key, value):
        cfg = tmp_path / "cfg.json"
        payload = {key: value} if key == "train_fraction" else {"ensemble": {key: value}}
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        result = invoke("pipeline", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("Error: InvalidValueError: ") and key in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"ensemble": {"bootstrap": "no"}}, "ensemble.bootstrap"),
            ({"robustness": {"include_failure": "no"}}, "robustness.include_failure"),
            ({"seed": "7"}, "seed"),
            ({"ensemble": {"n_trees": 2.5}}, "ensemble.n_trees"),
        ],
        ids=["bootstrap", "include_failure", "seed", "n_trees"],
    )
    def test_wrong_typed_config_fails_before_any_stage(self, tmp_path, payload, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "out"
        result = invoke("pipeline", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"Error: InvalidValueError: {key} must be ")
        assert not out.exists()

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensors": 12}))
        result = CliRunner().invoke(main, ["pipeline", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "InvalidValueError" in result.output
