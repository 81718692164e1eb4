import hashlib
import json
import os
import re
import stat
from operator import attrgetter

import click
import numpy as np
import pytest
from click.testing import CliRunner

from fddsense import cli
from fddsense.cli import main
from fddsense.dataset import Dataset, load_dataset, write_csv
from fddsense.ensembles import load_model, rank_features
from fddsense.pipeline import _SCHEMA, OUT_DIR_ENV, parse_config
from fddsense.simgen import GeneratorConfig, generate_dataset


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def make_csv(tmp_path, n_rows=2000, seed=0, name="data.csv"):
    path = tmp_path / name
    write_csv(generate_dataset(GeneratorConfig(n_rows=n_rows), seed), path)
    return path


# Bytes that are no UTF-8 JSON, and JSON nested too deep for the parser.
UNREADABLE_JSON = pytest.mark.parametrize(
    "raw, cause",
    [(b"\xff{}", "UnicodeDecodeError"), (b"[" * 100_000 + b"]" * 100_000, "RecursionError")],
    ids=["xff-byte", "deep-nesting"],
)


def test_commands():
    """pipeline is the one study command: rfa, which ran its first stages
    alone, is gone."""
    assert sorted(main.commands) == ["importance", "pipeline", "robustness", "simgen", "train"]
    result = CliRunner().invoke(main, ["rfa", "--data", "data.csv"])
    assert result.exit_code == 2
    assert "No such command" in result.output


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


class _ArrayMemoryError(MemoryError):
    """Stands for numpy's MemoryError subclass of a failed allocation."""


class TestMemoryError:
    """A legal input too large for memory ends in one Error line naming
    MemoryError, not a traceback.  The allocation is faked."""

    @pytest.mark.parametrize(
        "command, target, args",
        [("simgen", "generate_dataset", ["--out", "s.csv", "--rows", "1000000000"]),
         ("pipeline", "run_pipeline", ["--rows", "1000000000", "--out", "p"])],
        ids=["simgen", "pipeline"],
    )
    def test_memory_error_is_one_error_line(self, tmp_path, monkeypatch, command, target, args):
        def exhausted(*_args, **_kwargs):
            raise _ArrayMemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(cli, target, exhausted)
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, [command, *args])
        assert result.exit_code == 1
        assert result.output.splitlines() == ["Error: MemoryError: Unable to allocate 298. GiB for an array"]
        assert "Traceback" not in result.output


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
        assert payload["format_version"] == 3
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
        assert result.output.splitlines() == ["Error: InvalidValueError: --min-leaf must be >= 1"]
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

    def test_model_out_naming_a_directory_names_it(self, tmp_path):
        """The error names the path given, not the temp file the model
        was written to first, and no temp file is left behind."""
        data = make_csv(tmp_path, n_rows=200)
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        result = invoke("train", "--data", str(data), "--model-out", str(model_dir), "--trees", "2")
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: IsADirectoryError: [Errno 21] Is a directory: '{model_dir}'"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "models"]

    def test_model_out_in_a_missing_directory_names_it(self, tmp_path):
        """The temp file cannot be made there, and the error still names
        the path given."""
        data = make_csv(tmp_path, n_rows=200)
        model_out = tmp_path / "missing" / "m.json"
        result = invoke("train", "--data", str(data), "--model-out", str(model_out), "--trees", "2")
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: FileNotFoundError: [Errno 2] No such file or directory: '{model_out}'"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


@pytest.fixture(params=[0o022, 0o077], ids=oct)
def umask(request):
    """The process umask set to the parameter for one test, and restored."""
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def test_every_written_file_has_open_mode(tmp_path, umask):
    """Every file a command writes has the mode open() gives a new file,
    0o666 less the umask: simgen's CSV, train's saved model, robustness's
    pair, a study's 9 artifacts, and a failed study's error.json."""
    data = tmp_path / "d.csv"
    model = tmp_path / "m.json"
    for args in (
        ["simgen", "--out", str(data), "--rows", "1500", "--seed", "3"],
        ["train", "--data", str(data), "--trees", "2", "--model-out", str(model)],
        ["robustness", "--model", str(model), "--data", str(data), "--out", str(tmp_path / "rob")],
        ["pipeline", "--data", str(data), "--trees", "2", "--max-sensors", "1", "--out", str(tmp_path / "p")],
    ):
        assert invoke(*args).exit_code == 0
    assert invoke("pipeline", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "failed")).exit_code == 1
    modes = {p.relative_to(tmp_path).as_posix(): stat.S_IMODE(p.stat().st_mode)
             for p in tmp_path.rglob("*") if p.is_file()}
    study = ["class_report.csv", "class_report.json", "config.json", "model.json", "rfa_curves.svg",
             "rfa_trace.csv", "rfa_trace.json", "robustness.csv", "robustness.json"]
    written = ["d.csv", "m.json", "rob/robustness.csv", "rob/robustness.json", "failed/error.json",
               *(f"p/{name}" for name in study)]
    assert modes == {name: 0o666 & ~umask for name in written}


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

    @UNREADABLE_JSON
    def test_unreadable_model_file_fails_cleanly(self, tmp_path, raw, cause):
        bad = tmp_path / "model.json"
        bad.write_bytes(raw)
        result = invoke("importance", "--model", str(bad))
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"Error: ModelFormatError: model file is not readable JSON: {cause}: ")


@pytest.mark.parametrize("command", ["pipeline", "robustness"])
@pytest.mark.parametrize("snr", ["3,3", "0,-0", "10,3,10.0"])
def test_repeated_snr_level_is_one_error_line(tmp_path, command, snr):
    """A level is one scenario: RfaConfig rejects a repeated one, as it
    does in a config file, and the error names the flag, before anything
    runs."""
    args = {
        "pipeline": ["--out", str(tmp_path / "p")],
        "robustness": ["--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "missing.csv")],
    }[command]
    result = invoke(command, *args, "--snr", snr)
    assert result.exit_code == 1
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    repeated = float(snr.split(",")[-1])
    assert errors == [f"Error: InvalidValueError: --snr repeats the level {repeated!r}: each level is one scenario"]
    assert list(tmp_path.iterdir()) == []


class TestRobustnessCommand:
    def test_scores_scenarios(self, tmp_path):
        data = make_csv(tmp_path)
        model_path = tmp_path / "model.json"
        invoke("train", "--data", str(data), "--model-out", str(model_path), "--trees", "5")
        result = invoke(
            "robustness", "--model", str(model_path), "--data", str(data),
            "--snr", "10,0", "--out", str(tmp_path / "rob"),
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
            "--snr", "3", "--out", str(tmp_path / "rob"),
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
            "--snr", "10",
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
        assert result.output.splitlines() == [
            f"Error: SchemaMismatchError: --data {narrow} has no column for the model's sensor(s) {missing!r}"
        ]

    @pytest.mark.parametrize("flags", [[], ["--no-failure"]], ids=["default", "no-failure"])
    def test_scenarios_are_the_pipelines(self, tmp_path, flags):
        """robustness builds its scenario list as each RFA step does: on a
        one-sensor study's model and source CSV, it prints the labels of
        the pipeline's k= line, the dead sensor included unless both are
        given --no-failure."""
        data = make_csv(tmp_path, n_rows=1500, seed=2)
        out = tmp_path / "out"
        study = invoke("pipeline", "--data", str(data), "--trees", "2", "--max-sensors", "1", "--out", str(out), *flags)
        (step,) = [line for line in study.output.splitlines() if line.startswith("k=")]
        labels = re.findall(r" (\S+:\S+)=", step)
        result = invoke("robustness", "--model", str(out / "model.json"), "--data", str(data), *flags)
        assert result.exit_code == 0
        assert [line.split(": ")[0] for line in result.output.splitlines()[1:]] == labels
        failures = [label for label in labels if label.endswith(":failure")]
        assert len(failures) == (0 if flags else 1)

    def test_default_sensor_is_the_models_and_sensor_gives_the_studys(self, tmp_path):
        """The study perturbs the all-sensor ranking's top sensor
        (rfa_trace.json's ranking[0]); robustness without --sensor
        perturbs the saved model's own top-ranked one.  Here the two
        differ, and --sensor ranking[0] reproduces the last k= line's
        labels."""
        data = make_csv(tmp_path, n_rows=3000, seed=1)
        out = tmp_path / "out"
        flags = ["--snr", "10", "--no-failure"]
        study = invoke("pipeline", "--data", str(data), "--trees", "3", "--out", str(out), *flags)
        *_, last = [line for line in study.output.splitlines() if line.startswith("k=")]
        labels = re.findall(r" (\S+:\S+)=", last)
        first = json.loads((out / "rfa_trace.json").read_text())["ranking"][0]["sensor"]
        own = rank_features(load_model(out / "model.json"))[0][0]
        assert own != first
        score = ["robustness", "--model", str(out / "model.json"), "--data", str(data), *flags]
        default = invoke(*score).output.splitlines()[1:]
        assert [line.split(": ")[0] for line in default] == [f"{own}:awgn@10dB"]
        chosen = invoke(*score, "--sensor", first).output.splitlines()[1:]
        assert [line.split(": ")[0] for line in chosen] == labels == [f"{first}:awgn@10dB"]

    def test_bad_snr_list_rejected(self, tmp_path):
        result = CliRunner().invoke(
            main, ["robustness", "--model", "m", "--data", "d", "--snr", "ten,three"]
        )
        assert result.exit_code != 0

    @pytest.mark.parametrize("snr", ["4000", "-4000", "3,4000"])
    def test_extreme_snr_fails_cleanly(self, tmp_path, snr):
        """An out-of-range level is named by its flag, as pipeline names it, and
        is rejected before the model or the table is read."""
        data = make_csv(tmp_path)
        model_path = tmp_path / "model.json"
        invoke("train", "--data", str(data), "--model-out", str(model_path), "--trees", "2")
        line = (f"Error: InvalidValueError: --snr {float(snr.split(',')[-1])!r} is out of range: "
                "10^(snr/10) must be a finite positive float")
        for model in (model_path, tmp_path / "missing.json"):
            result = invoke("robustness", "--model", str(model), "--data", str(data), f"--snr={snr}")
            assert result.exit_code == 1
            assert result.output.splitlines() == [line]

    def test_a_column_whose_power_is_inf_is_named_by_its_sensor(self, tmp_path, small_inputs):
        """A finite cell of 1e200 squares past the float range: one Error
        line names the sensor, with no numpy overflow warning."""
        data, model = small_inputs
        table = load_dataset(data)
        values = table.values.copy(order="F")
        values[3, table.sensor_index("T_C")] = 1e200
        write_csv(Dataset(table.schema, values, table.labels), tmp_path / "big.csv")
        result = invoke("robustness", "--model", str(model), "--data", str(tmp_path / "big.csv"),
                        "--sensor", "T_C", "--snr", "3")
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: InvalidValueError: sensor 'T_C': no finite positive noise power puts power inf at 3.0 dB"
        ]

    def test_unknown_sensor_fails_before_the_table_is_read(self, monkeypatch, small_inputs):
        """A --sensor the model does not read is named by its flag right
        after the model loads, before the CSV is read or any tree routed."""
        data, model = small_inputs

        def unread(*_args):
            raise AssertionError("the table was read")

        monkeypatch.setattr(cli, "_load", unread)
        result = invoke("robustness", "--model", str(model), "--data", str(data), "--sensor", "NOPE")
        assert result.exit_code == 1
        assert result.output.splitlines() == ["Error: UnknownSensorError: --sensor 'NOPE' is not one of the model's sensors"]

    def test_out_naming_a_plain_file_fails_cleanly(self, tmp_path):
        data = make_csv(tmp_path)
        model_path = tmp_path / "model.json"
        invoke("train", "--data", str(data), "--model-out", str(model_path), "--trees", "2")
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        result = invoke(
            "robustness", "--model", str(model_path), "--data", str(data), "--snr", "10",
            "--out", str(blocker),
        )
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: FileExistsError: [Errno 17] File exists: {str(blocker)!r}"
        ]


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

    def test_prints_one_score_per_scenario(self, tmp_path):
        result = invoke("pipeline", "--data", str(make_csv(tmp_path)), "--trees", "3", "--max-sensors", "2",
                        "--snr", "6,-2", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        steps = [line for line in result.output.splitlines() if line.startswith("k=")]
        assert len(steps) == 2
        for line in steps:
            scores = line[line.index("clean="):].split()
            assert [part.split("=")[0].split(":")[-1] for part in scores] == [
                "clean", "awgn@6dB", "awgn@-2dB", "failure"
            ]

    def test_step_lines_equal_the_trace(self, tmp_path):
        """One k= line per step of rfa_trace.json, with its sensor count,
        added sensor, and clean and scenario macro-F1 to 4 decimals."""
        out = tmp_path / "out"
        result = invoke("pipeline", "--data", str(make_csv(tmp_path, n_rows=3000, seed=4)), "--trees", "3",
                        "--snr", "10,0", "--out", str(out))
        assert result.exit_code == 0, result.output
        steps = json.loads((out / "rfa_trace.json").read_text())["steps"]
        lines = [line[2:].split() for line in result.output.splitlines() if line.startswith("k=")]
        assert len(lines) == len(steps) > 1
        for (count, sensor, *scores), step in zip(lines, steps):
            assert (int(count), sensor) == (step["sensor_count"], "+" + step["added_sensor"])
            for score in scores:
                name, value = score.split(":")[-1].split("=")
                assert value == f"{step[name + '_f1']:.4f}", score
            assert len(scores) == 4  # clean, two SNR levels, failure
        # The last step's model is the study's: its line is robustness.json.
        report = json.loads((out / "robustness.json").read_text())
        f1s = [report["baseline"]["macro_f1"]] + [row["macro_f1"] for row in report["scenarios"]]
        assert [score.split("=")[1] for score in lines[-1][2:]] == [f"{f1:.4f}" for f1 in f1s]

    def test_out_naming_a_plain_file_fails_cleanly(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        result = invoke("pipeline", "--data", str(make_csv(tmp_path)), "--trees", "3", "--out", str(blocker))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: FileExistsError: [Errno 17] File exists: {str(blocker)!r}"
        ]

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

    @pytest.mark.parametrize("snr", ["4000", "-4000", "3,4000"])
    def test_extreme_snr_fails_before_any_stage(self, tmp_path, snr):
        out = tmp_path / "out"
        result = invoke("pipeline", f"--snr={snr}", "--out", str(out))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: InvalidValueError: --snr {float(snr.split(',')[-1])!r} "
            "is out of range: 10^(snr/10) must be a finite positive float"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--threshold", "0"], "--threshold must be in (0, 1], got 0.0"),
            (["--trees", "0"], "--trees must be >= 1"),
            (["--train-fraction", "1.5"], "--train-fraction must be in (0, 1), got 1.5"),
            (["--max-sensors", "0"], "--max-sensors must be >= 1 or None"),
            (["--rows", "0"], "--rows must be >= 1, got 0"),
            (["--rows", "20"], "--rows 20 gives class 2 only 1 row after undersampling: "
                               "the stratified split needs 2 per class"),
            (["--rows", "400", "--train-fraction", "0.001"],
             "--train-fraction 0.001 leaves 0 class(es) in the train set: the model needs 2"),
        ],
        ids=["threshold", "trees", "train-fraction", "max-sensors", "rows", "rows-infeasible", "train-fraction-infeasible"],
    )
    def test_bad_flag_value_is_named_by_its_flag(self, tmp_path, flags, line):
        out = tmp_path / "out"
        result = invoke("pipeline", *flags, "--out", str(out))
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: InvalidValueError: {line}"]
        assert not out.exists()

    def test_a_files_value_keeps_its_key_beside_a_flag(self, tmp_path):
        """Only the names of the flags given are renamed: the file's bad
        key keeps its dotted name, also where a flag sets another key."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rfa": {"threshold": 0.0}}))
        result = invoke("pipeline", "--config", str(cfg), "--trees", "3", "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert result.output.splitlines() == ["Error: InvalidValueError: rfa.threshold must be in (0, 1], got 0.0"]

    def test_repeated_snr_level_in_a_config_fails_before_any_stage(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"robustness": {"snr_db": [10, 3, 3]}}))
        out = tmp_path / "out"
        result = invoke("pipeline", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            "Error: InvalidValueError: robustness.snr_db repeats the level 3.0: each level is one scenario"
        ]
        assert not out.exists()

    def test_repeated_key_in_a_config_fails_before_any_stage(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "seed": 2}')
        out = tmp_path / "out"
        result = invoke("pipeline", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: ConfigParseError: config file {cfg} repeats the key 'seed' in one object"
        ]
        assert not out.exists()

    @UNREADABLE_JSON
    def test_unreadable_config_fails_cleanly(self, tmp_path, raw, cause):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        out = tmp_path / "out"
        result = invoke("pipeline", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"Error: ConfigParseError: config file {cfg} is not readable JSON: {cause}: "
        )
        assert not out.exists()

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sensors": 12}))
        result = CliRunner().invoke(main, ["pipeline", "--config", str(cfg)])
        assert result.exit_code != 0
        assert "InvalidValueError" in result.output

    def test_ensemble_flags_equal_the_config_route(self, tmp_path):
        """--method sets the key a config file's "ensemble" section sets:
        the same study writes the same bytes by either route."""
        cfg = tmp_path / "boosting.json"
        cfg.write_text(json.dumps({"ensemble": {"method": "boosting"}}))
        study = ["--trees", "2", "--rows", "3000"]
        by_flag = invoke("pipeline", "--method", "boosting", *study, "--out", str(tmp_path / "flag"))
        by_file = invoke("pipeline", "--config", str(cfg), *study, "--out", str(tmp_path / "file"))
        assert (by_flag.exit_code, by_file.exit_code) == (0, 0), by_flag.output + by_file.output
        assert by_flag.output.splitlines()[:-1] == by_file.output.splitlines()[:-1]
        assert _digests(tmp_path / "flag") == _digests(tmp_path / "file")
        assert json.loads((tmp_path / "flag" / "config.json").read_text())["ensemble"]["method"] == "boosting"

    def test_ensemble_flag_beats_the_file_and_a_flag_left_out_keeps_it(self, tmp_path):
        """Only the flags given override the file: --hard-vote, left out,
        keeps the file's true although the flag defaults false."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {"n_trees": 2, "max_depth": 3, "bootstrap": False, "hard_vote": True}}))
        out = tmp_path / "out"
        result = invoke("pipeline", "--config", str(cfg), "--max-depth", "4", "--bootstrap", "--rows", "2500",
                        "--out", str(out))
        assert result.exit_code == 0, result.output
        ensemble = json.loads((out / "config.json").read_text())["ensemble"]
        assert (ensemble["n_trees"], ensemble["max_depth"], ensemble["bootstrap"], ensemble["hard_vote"]) == (
            2, 4, True, True)

    @pytest.mark.parametrize(
        "key, value",
        [("min_leaf", 0), ("max_depth", -1), ("learning_rate", 5.0), ("feature_subsample", 0), ("method", "foo")],
    )
    def test_a_files_bad_ensemble_value_keeps_its_key_beside_ensemble_flags(self, tmp_path, key, value):
        """Every ensemble flag is on the command, at its default; only the
        flags the command line gave are renamed, so the file's bad value
        keeps its dotted key."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble": {key: value}}))
        out = tmp_path / "out"
        result = invoke("pipeline", "--config", str(cfg), "--trees", "2", "--out", str(out))
        assert result.exit_code == 1
        lines = result.output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"Error: InvalidValueError: ensemble.{key} "), lines[0]
        assert not out.exists()

    def test_pipeline_flag_defaults_are_the_studys(self, monkeypatch):
        """A pipeline flag shows the value its study uses when the flag and
        the config file leave the setting out."""
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        study = parse_config(None, None)
        params = main.commands["pipeline"].make_context("pipeline", []).params
        for key in _SCHEMA:
            if key.name in params and key.name != "out_dir":  # --out's is None: FDDSENSE_OUT_DIR's or fdd-out
                assert params[key.name] == attrgetter(key.attr)(study), key.name


@pytest.mark.parametrize(
    "command, config",
    [("pipeline", None), ("pipeline", {"ensemble": {"feature_subsample": 4}}), ("train", None)],
    ids=["pipeline", "pipeline-over-config", "train"],
)
def test_feature_subsample_all_reaches_the_study_as_null(tmp_path, monkeypatch, small_inputs, command, config):
    """--feature-subsample all is the file's null, all features: each
    study command passes it to parse_config, also over a config file's
    count, and pipeline's config.json echoes it as null."""
    parsed = []

    def recording(*args):
        parsed.append(parse_config(*args))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_config", recording)
    monkeypatch.chdir(tmp_path)
    args = {
        "pipeline": ["--rows", "3000", "--trees", "2", "--max-sensors", "2", "--out", "p"],
        "train": ["--data", str(small_inputs[0]), "--trees", "2", "--model-out", "m.json"],
    }[command]
    if config is not None:
        (tmp_path / "fs.json").write_text(json.dumps(config))
        args += ["--config", "fs.json"]
    result = invoke(command, *args, "--feature-subsample", "all")
    assert result.exit_code == 0, result.output
    assert [study.ensemble.tree.feature_subsample for study in parsed] == [None]
    if command == "pipeline":
        assert json.loads((tmp_path / "p" / "config.json").read_text())["ensemble"]["feature_subsample"] is None


@pytest.fixture(scope="module")
def infeasible_csvs(tmp_path_factory):
    """name -> a 3,000-row CSV cut down so that a later stage would fail it:
    one row of class 6 (split), or class 0 only (rebalance)."""
    root = tmp_path_factory.mktemp("infeasible")
    table = load_dataset(make_csv(root, n_rows=3000, seed=4))
    keep = {
        "one-class-6-row": (table.labels != 6) | (np.cumsum(table.labels == 6) == 1),
        "class-0-only": table.labels == 0,
    }
    paths = {}
    for name, rows in keep.items():
        paths[name] = root / f"{name}.csv"
        write_csv(table.take_rows(np.flatnonzero(rows)), paths[name])
    return paths


INFEASIBLE = {
    "one-class-6-row": "gives class 6 only 1 row after undersampling: the stratified split needs 2 per class",
    "class-0-only": "gives rows to 1 class(es): a study needs 2",
}


@pytest.mark.parametrize("case", INFEASIBLE)
class TestInfeasibleCsv:
    """A CSV study that the rebalance or split stage would fail ends at
    stage data, in one Error line that names the file by the flag or the
    config key that gave it."""

    def test_pipeline_names_the_flag(self, tmp_path, infeasible_csvs, case):
        out = tmp_path / "out"
        result = invoke("pipeline", "--data", str(infeasible_csvs[case]), "--trees", "2", "--out", str(out))
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: InvalidValueError: --data {infeasible_csvs[case]} {INFEASIBLE[case]}"]
        payload = json.loads((out / "error.json").read_text())
        assert (payload["stage"], payload["message"]) == ("data", f"data.path {infeasible_csvs[case]} {INFEASIBLE[case]}")

    def test_pipeline_names_the_config_key(self, tmp_path, infeasible_csvs, case):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"path": str(infeasible_csvs[case])}}))
        result = invoke("pipeline", "--config", str(cfg), "--trees", "2", "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: InvalidValueError: data.path {infeasible_csvs[case]} {INFEASIBLE[case]}"
        ]


class TestUnreadableData:
    """A data file that cannot be read ends in one Error line that names
    it by the flag or the config key that gave it."""

    @pytest.mark.parametrize("command", ["pipeline", "train", "robustness"])
    def test_names_the_flag(self, tmp_path, monkeypatch, small_inputs, command):
        monkeypatch.chdir(tmp_path)
        missing = tmp_path / "nope.csv"
        result = invoke(command, *_base_args(command, missing, small_inputs[1]))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: FileNotFoundError: [Errno 2] --data: No such file or directory: '{missing}'"
        ]

    def test_pipeline_names_the_config_key(self, tmp_path):
        missing = tmp_path / "nope.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"path": str(missing)}}))
        result = invoke("pipeline", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert result.output.splitlines() == [
            f"Error: FileNotFoundError: [Errno 2] data.path: No such file or directory: '{missing}'"
        ]

    def test_a_missing_model_is_not_named_as_the_data(self, tmp_path, small_inputs):
        missing = tmp_path / "nope.json"
        result = invoke("robustness", "--model", str(missing), "--data", str(small_inputs[0]))
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"Error: FileNotFoundError: [Errno 2] No such file or directory: '{missing}'"]


def _digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


# command -> each option as spelled -> (kind, the value a run uses when it is
# left out, or REQUIRED).  --no-failure's value is its setting's,
# include_failure.  A pipeline flag's is its study's when the config file
# leaves the setting out too; --out's is None there as in robustness, where
# it writes nothing.
REQUIRED = "required"
FLAG_INVENTORY = {
    "pipeline": {
        "--config": ("value", None),
        "--seed": ("value", 0),
        "--data": ("value", None),
        "--rows": ("value", 20000),
        "--train-fraction": ("value", 0.75),
        "--method": ("value", "bagging"),
        "--trees": ("value", 25),
        "--max-depth": ("value", 12),
        "--min-leaf": ("value", 5),
        "--feature-subsample": ("value", "sqrt"),
        "--bootstrap/--no-bootstrap": ("boolean", True),
        "--learning-rate": ("value", 0.3),
        "--hard-vote": ("boolean", False),
        "--threshold": ("value", 0.99),
        "--max-sensors": ("value", None),
        "--snr": ("value", (10.0, 3.0, 0.0)),
        "--no-failure": ("boolean", True),
        "--out": ("value", None),
    },
    "simgen": {
        "--out": ("value", REQUIRED),
        "--rows": ("value", 20000),
        "--seed": ("value", 0),
    },
    "train": {
        "--data": ("value", REQUIRED),
        "--model-out": ("value", "model.json"),
        "--seed": ("value", 0),
        "--method": ("value", "bagging"),
        "--trees": ("value", 25),
        "--max-depth": ("value", 12),
        "--min-leaf": ("value", 5),
        "--feature-subsample": ("value", "sqrt"),
        "--bootstrap/--no-bootstrap": ("boolean", True),
        "--learning-rate": ("value", 0.3),
        "--hard-vote": ("boolean", False),
    },
    "importance": {
        "--model": ("value", REQUIRED),
        "--top": ("value", None),
    },
    "robustness": {
        "--model": ("value", REQUIRED),
        "--data": ("value", REQUIRED),
        "--sensor": ("value", None),
        "--snr": ("value", (10.0, 3.0, 0.0)),
        "--no-failure": ("boolean", True),
        "--seed": ("value", 0),
        "--out": ("value", None),
    },
}


@pytest.mark.parametrize("command", FLAG_INVENTORY)
def test_flag_inventory(monkeypatch, command):
    """Each command's options keep their spelling, kind, whether they are
    required and the value a run uses when they are left out."""
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    options = [p for p in main.commands[command].params if isinstance(p, click.Option)]
    required = [arg for p in options if p.required for arg in (p.opts[0], "x")]
    params = main.commands[command].make_context(command, required).params
    inventory = {
        "/".join(p.opts + p.secondary_opts): (
            "boolean" if p.is_flag else "value", REQUIRED if p.required else params[p.name]
        )
        for p in options
    }
    assert inventory == FLAG_INVENTORY[command]


# Edge values for every flag that takes a value: "missing" names a file
# that does not exist and "directory" an existing directory.
EDGE_VALUES = ("negative", "zero", "nan", "huge", "empty", "missing", "directory")
VALUE_FLAGS = [
    (name, param.opts[0])
    for name, command in main.commands.items()
    for param in command.params
    if isinstance(param, click.Option) and not param.is_flag
]
# Flags that take a value run as usual at these edges: any name but "" is
# an output path (a file output cannot be a directory), any integer a
# seed of a derived stream (the generator's own seed must be >= 0), an SNR
# may be at or below 0 dB, an empty SNR list runs no noise scenario (as
# robustness.snr_db: [] in a config file), max depth 0 grows stumps, and an
# empty feature subsample means all features.
PATH_FLAGS = [
    (name, param.opts[0])
    for name, command in main.commands.items()
    for param in command.params
    if isinstance(param, click.Option) and isinstance(param.type, click.Path)
]
ANY_FILE_NAME = {"negative", "zero", "nan", "huge", "missing"}
ACCEPTED = {
    ("pipeline", "--seed"): {"negative", "zero"},
    ("pipeline", "--out"): set(EDGE_VALUES) - {"empty"},
    ("pipeline", "--snr"): {"negative", "zero", "empty"},
    ("pipeline", "--max-depth"): {"zero"},
    ("pipeline", "--feature-subsample"): {"empty"},
    ("simgen", "--out"): ANY_FILE_NAME,
    ("simgen", "--seed"): {"zero"},
    ("train", "--model-out"): ANY_FILE_NAME,
    ("train", "--seed"): {"negative", "zero"},
    ("train", "--max-depth"): {"zero"},
    ("train", "--feature-subsample"): {"empty"},
    ("robustness", "--snr"): {"negative", "zero", "empty"},
    ("robustness", "--seed"): {"negative", "zero"},
    ("robustness", "--out"): set(EDGE_VALUES) - {"empty"},
}


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A 600-row CSV and a 2-tree model trained on it."""
    root = tmp_path_factory.mktemp("edge")
    data = make_csv(root, n_rows=600)
    model = root / "model.json"
    assert invoke("train", "--data", str(data), "--model-out", str(model), "--trees", "2").exit_code == 0
    return data, model


class TestEdgeValues:
    """Each command's flags at edge values: a rejected value exits 1 or 2
    with one Error line that names the flag, and no value raises an
    uncaught exception."""

    @pytest.mark.parametrize("kind", EDGE_VALUES)
    @pytest.mark.parametrize("command, flag", VALUE_FLAGS, ids=[f"{c}-{f}" for c, f in VALUE_FLAGS])
    def test_flag_at_edge_value(self, tmp_path, monkeypatch, small_inputs, command, flag, kind):
        monkeypatch.chdir(tmp_path)  # relative output names land here
        (tmp_path / "adir").mkdir()
        value = {
            "negative": "-1", "zero": "0", "nan": "nan", "huge": "1e999", "empty": "",
            "missing": str(tmp_path / "missing.json"), "directory": str(tmp_path / "adir"),
        }[kind]
        result = invoke(command, *_base_args(command, *small_inputs), flag, value)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        if kind in ACCEPTED.get((command, flag), ()):
            assert (result.exit_code, errors) == (0, []), result.output
        else:
            assert result.exit_code in (1, 2), result.output
            assert len(errors) == 1, result.output
            if errors[0].startswith("Error: InvalidValueError:"):
                assert errors[0].startswith(f"Error: InvalidValueError: {flag} "), errors[0]
            if errors[0].startswith("Error: Invalid value"):
                assert errors[0].startswith(f"Error: Invalid value for '{flag}': "), errors[0]

    @pytest.mark.parametrize("command, flag", PATH_FLAGS, ids=[f"{c}-{f}" for c, f in PATH_FLAGS])
    def test_empty_path_is_rejected_by_name(self, tmp_path, monkeypatch, small_inputs, command, flag):
        """Path("") is the working directory, which no path flag means."""
        monkeypatch.chdir(tmp_path)
        result = invoke(command, *_base_args(command, *small_inputs), flag, "")
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert result.exit_code == 2
        assert errors == [f"Error: Invalid value for '{flag}': the path is empty"]
        assert list(tmp_path.iterdir()) == []


def _base_args(command, data, model):
    """Arguments that make command run on small_inputs, before the flag
    under test; the last value of a flag wins."""
    return {
        "pipeline": ["--data", str(data), "--trees", "2", "--out", "p"],
        "simgen": ["--out", "s.csv", "--rows", "600"],
        "train": ["--data", str(data), "--trees", "2", "--model-out", "m.json"],
        "importance": ["--model", str(model)],
        "robustness": ["--model", str(model), "--data", str(data)],
    }[command]


# The config file's keys at the flags' edge values.  A list key takes each
# edge as its one element, and "empty" as [].  The file may run at fewer of
# them than the flags: a feature subsample of "" is no setting (the file's
# null means all features), and out_dir, like --out, must name a directory.
LIST_KEYS = {"data.generator.class_proportions", "robustness.snr_db"}
ACCEPTED_KEYS = {
    "seed": {"negative", "zero"},
    "ensemble.max_depth": {"zero"},
    "robustness.snr_db": {"negative", "zero", "empty"},
    "out_dir": {"missing", "directory"},
}


class TestConfigEdgeValues:
    """pipeline --config with one key of a runnable file at an edge value:
    a rejected value exits 1 with one Error line that names the key as the
    file spells it, and an accepted one writes its artifacts."""

    @pytest.mark.parametrize("kind", EDGE_VALUES)
    @pytest.mark.parametrize("key", _SCHEMA, ids=lambda key: key.path)
    def test_key_at_edge_value(self, tmp_path, monkeypatch, small_inputs, key, kind):
        monkeypatch.chdir(tmp_path)  # a relative out_dir lands here
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        (tmp_path / "adir").mkdir()
        value = {
            "negative": -1, "zero": 0, "nan": "NAN", "huge": "HUGE", "empty": "",
            "missing": str(tmp_path / "missing.json"), "directory": str(tmp_path / "adir"),
        }[kind]
        if key.path in LIST_KEYS:
            value = [] if kind == "empty" else [value]
        payload = {"data": {"path": str(small_inputs[0])}, "ensemble": {"n_trees": 2}, "out_dir": "p"}
        node = payload
        *sections, leaf = key.path.split(".")
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
        # The literals NaN and 1e999 read back as nan and inf.
        (tmp_path / "cfg.json").write_text(json.dumps(payload).replace('"NAN"', "NaN").replace('"HUGE"', "1e999"))
        result = invoke("pipeline", "--config", "cfg.json")
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        if kind in ACCEPTED_KEYS.get(key.path, ()):
            assert (result.exit_code, errors) == (0, []), result.output
            assert (tmp_path / payload["out_dir"] / "config.json").exists()
        else:
            assert result.exit_code == 1, result.output
            assert result.output.splitlines() == errors
            assert len(errors) == 1 and key.path in errors[0], result.output
            if errors[0].startswith("Error: InvalidValueError:"):
                assert errors[0].startswith(f"Error: InvalidValueError: {key.path} "), errors[0]
