import csv
import json
import re
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from fddsense import ensembles, pipeline
from fddsense.dataset import FAULT_CLASSES, Dataset, split_train_test, undersample_majority, write_csv
from fddsense.ensembles import EnsembleConfig, fit_ensemble, load_model, model_json_text
from fddsense.errors import BadProportionsError, ConfigParseError, FddError, InvalidValueError
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
from fddsense.trees import TreeConfig

SMALL = {"n_rows": 2500, "n_trees": 10}


def nested(dotted, value):
    """{"a": {"b": value}} for "a.b"."""
    for part in reversed(dotted.split(".")):
        value = {part: value}
    return value


# The JSON values each schema key takes: int, float (which takes an int
# too), bool, str, None for null, list for a list of numbers, or a
# literal string.
KINDS = {
    "seed": (int,),
    "data.path": (str, None),
    "data.generator.n_rows": (int,),
    "data.generator.class_proportions": (list,),
    "train_fraction": (float,),
    "undersample": (bool,),
    "ensemble.method": ("bagging", "boosting"),
    "ensemble.n_trees": (int,),
    "ensemble.max_depth": (int, None),
    "ensemble.min_leaf": (int,),
    "ensemble.feature_subsample": (int, "sqrt", None),
    "ensemble.bootstrap": (bool,),
    "ensemble.learning_rate": (float,),
    "ensemble.hard_vote": (bool,),
    "rfa.threshold": (float,),
    "rfa.max_sensors": (int, None),
    "robustness.snr_db": (list,),
    "robustness.include_failure": (bool,),
    "out_dir": (str,),
    "n_threads": (int,),
}


# A legal value of each schema key, other than its default where it has
# another: n_threads takes only 1.
LEGAL = {
    "seed": 7,
    "data.path": "plant.csv",
    "data.generator.n_rows": 3000,
    "data.generator.class_proportions": [0.4] + [0.1] * 6,
    "train_fraction": 0.6,
    "undersample": False,
    "ensemble.method": "boosting",
    "ensemble.n_trees": 3,
    "ensemble.max_depth": None,
    "ensemble.min_leaf": 2,
    "ensemble.feature_subsample": None,
    "ensemble.bootstrap": False,
    "ensemble.learning_rate": 0.5,
    "ensemble.hard_vote": True,
    "rfa.threshold": 0.9,
    "rfa.max_sensors": 5,
    "robustness.snr_db": [6, 3],
    "robustness.include_failure": False,
    "out_dir": "elsewhere",
    "n_threads": 1,
}


def wrong_values(key):
    """Values of the wrong JSON type for one schema key."""
    kinds = KINDS[key.path]
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
        assert cfg.rfa.snr_levels == (10.0, 3.0, 0.0)
        assert cfg.rfa.include_failure is True

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
        assert cfg.ensemble.n_trees == 4 and cfg.ensemble.tree.max_depth == 3
        assert cfg.rfa.threshold == 0.9 and cfg.rfa.max_sensors == 5
        assert cfg.rfa.snr_levels == (6.0, 3.0)
        assert cfg.rfa.include_failure is False

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

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"robustness": {"snr_db": [3, 4000]}}, "robustness.snr_db"),
            ({"robustness": {"snr_db": [-4000]}}, "robustness.snr_db"),
        ],
    )
    def test_snr_without_a_finite_power_ratio_names_the_key(self, tmp_path, payload, key):
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(payload))
        with pytest.raises(InvalidValueError, match=re.escape(key)):
            parse_config(str(file), None)
        cfg = parse_config(None, {"snr_levels": [3000, -3000]})
        assert cfg.rfa.snr_levels == (3000.0, -3000.0)

    @pytest.mark.parametrize("levels", [[3, 3], [0, -0.0], [10, 3, 0, 3.0]], ids=["3-3", "0-minus0", "10-3-0-3"])
    def test_repeated_snr_level_names_the_key(self, tmp_path, levels):
        """A level is one scenario and one column of rfa_trace; a repeated
        level is rejected, by the file's key or the override's name."""
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"robustness": {"snr_db": levels}}))
        with pytest.raises(InvalidValueError, match=r"^robustness\.snr_db repeats the level "):
            parse_config(str(file), None)
        with pytest.raises(InvalidValueError, match=r"^snr_levels repeats the level "):
            parse_config(None, {"snr_levels": levels})

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"seed": 1, "seed": 2}', "'seed'"),
            ('{"ensemble": {"n_trees": 3}, "ensemble": {"max_depth": 4}}', "'ensemble'"),
            ('{"rfa": {"threshold": 0.9, "max_sensors": 3, "threshold": 0.95}}', "'threshold'"),
        ],
        ids=["seed", "ensemble-section", "nested"],
    )
    def test_repeated_key_rejected(self, tmp_path, text, key):
        """json.loads keeps the last of a repeated key, which would drop
        a value, or a whole section, of the file without a word."""
        file = tmp_path / "cfg.json"
        file.write_text(text)
        with pytest.raises(ConfigParseError, match=f"repeats the key {key}"):
            parse_config(str(file), None)

    def test_feature_subsample_forms(self):
        def study(subsample):
            return PipelineConfig(ensemble=EnsembleConfig(tree=TreeConfig(feature_subsample=subsample)))

        assert study("sqrt").ensemble_config(40).tree.feature_subsample == 6
        assert study(None).ensemble_config(40).tree.feature_subsample is None
        assert study(4).ensemble_config(40).tree.feature_subsample == 4
        with pytest.raises(InvalidValueError):
            study("log2")

    def test_feature_subsample_type_error_names_sqrt(self, tmp_path):
        """The one string the key takes is named in its type error."""
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"ensemble": {"feature_subsample": "log2"}}))
        with pytest.raises(InvalidValueError) as info:
            parse_config(str(file), None)
        assert str(info.value) == 'ensemble.feature_subsample must be an integer, "sqrt" or None, got \'log2\''

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

    @pytest.mark.parametrize(
        "key, value, rest",
        [
            ("data.generator.n_rows", 0, {}),
            ("data.generator.class_proportions", [1.0], {}),
            ("data.generator.class_proportions", [-0.5, 1.5, 0, 0, 0, 0, 0], {}),
            ("data.generator.class_proportions", [0.5] * 7, {}),
            ("train_fraction", 1.0, {}),
            ("ensemble.n_trees", 0, {}),
            ("ensemble.max_depth", -1, {}),
            ("ensemble.min_leaf", 0, {}),
            ("ensemble.feature_subsample", 0, {}),
            ("ensemble.learning_rate", 1.5, {"method": "boosting"}),
            ("rfa.threshold", 0.0, {}),
            ("rfa.max_sensors", 0, {}),
            ("n_threads", 0, {}),
            ("ensemble.learning_rate", 5.0, {}),
            ("n_threads", 2, {}),
        ],
    )
    def test_range_error_names_the_key_as_the_file_spells_it(self, tmp_path, key, value, rest):
        """A value of the right type but out of range is rejected with the
        dotted key of the file, also where the check lies in the settings
        of one stage.  The same value from an override keeps the settings'
        own name for it."""
        file = tmp_path / "cfg.json"
        payload = nested(key, value)
        payload.setdefault("ensemble", {}).update(rest)
        file.write_text(json.dumps(payload))
        with pytest.raises((InvalidValueError, BadProportionsError)) as info:
            parse_config(str(file), None)
        assert str(info.value).startswith(key + " "), str(info.value)
        name = next(k for k in _SCHEMA if k.path == key).name
        with pytest.raises((InvalidValueError, BadProportionsError)) as info:
            parse_config(None, {name: value, **rest})
        assert str(info.value).startswith(name + " "), str(info.value)

    def test_empty_data_path_is_rejected_by_name(self, tmp_path):
        """Path("") is the working directory, which data.path never means."""
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"data": {"path": ""}}))
        with pytest.raises(InvalidValueError, match=r"^data\.path must not be empty"):
            parse_config(str(file), None)
        with pytest.raises(InvalidValueError, match="^data_path must not be empty"):
            parse_config(None, {"data_path": ""})

    def test_empty_out_dir_is_rejected_by_name(self, tmp_path):
        """Nor does out_dir, as --out does not: artifacts never land in the
        working directory by an empty name."""
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"out_dir": ""}))
        with pytest.raises(InvalidValueError, match="^out_dir must not be empty"):
            parse_config(str(file), None)
        with pytest.raises(InvalidValueError, match="^out_dir must not be empty"):
            parse_config(None, {"out_dir": ""})

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"data": {"generator": {"n_rows": 2}}}, "data.generator.n_rows"),
            ({"data": {"generator": {"n_rows": 20}}}, "data.generator.n_rows"),
            ({"data": {"generator": {"class_proportions": [1, 0, 0, 0, 0, 0, 0]}}},
             "data.generator.class_proportions"),
            ({"data": {"generator": {"n_rows": 400}}, "train_fraction": 0.001}, "train_fraction"),
        ],
        ids=["n_rows-2", "n_rows-20", "one-class", "train_fraction-0.001"],
    )
    def test_infeasible_study_fails_before_any_stage(self, tmp_path, monkeypatch, payload, key):
        """A generated study that a later stage would fail (split: a class
        under 2 rows; rebalance: one class; selection: a one-class train
        set) is rejected by parse_config, naming the key."""
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(payload))
        monkeypatch.setattr(pipeline, "generate_dataset", None)  # no stage may run
        with pytest.raises(InvalidValueError, match="^" + re.escape(key) + " "):
            parse_config(str(file), None)

    def test_infeasible_override_is_named_by_its_field(self, tmp_path):
        """The feasibility check names a field, as every other check does:
        an override keeps that name, and parse_config spells a file's
        value as its dotted key."""
        with pytest.raises(InvalidValueError, match=r"^n_rows 20 gives class 2 only 1 row "):
            parse_config(None, {"n_rows": 20})
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps({"data": {"generator": {"n_rows": 20}}}))
        with pytest.raises(InvalidValueError, match=r"^data\.generator\.n_rows 20 gives class 2 only 1 row "):
            parse_config(str(file), None)

    def test_feasibility_counts_follow_the_stages(self):
        """Each generated study parse_config accepts has two classes with
        two rows each after undersampling and a train set of two classes,
        and each it rejects has not."""
        proportions = [None, [0.5, 0.5, 0, 0, 0, 0, 0], [0.98, 0.01, 0.01, 0, 0, 0, 0], [0.001] + [0.999 / 6] * 6]
        for n_rows in (1, 2, 3, 5, 8, 13, 21, 34, 55):
            for props in proportions:
                for fraction in (0.1, 0.5, 0.75):
                    for undersample in (True, False):
                        generator = {"n_rows": n_rows, **({"class_proportions": props} if props else {})}
                        case = {**generator, "train_fraction": fraction, "undersample": undersample}
                        try:
                            parse_config(None, case)
                            accepted = True
                        except InvalidValueError:
                            accepted = False
                        data = generate_dataset(GeneratorConfig(**generator), 3)
                        try:
                            if undersample:
                                data = undersample_majority(data, seed=1)
                            train, _ = split_train_test(data, fraction, seed=2)
                            runs = np.unique(train.labels).size >= 2
                        except FddError:
                            runs = False
                        assert accepted == runs, case

    @pytest.mark.parametrize("key", _SCHEMA, ids=lambda key: key.path)
    def test_file_key_and_override_set_the_same_attribute(self, tmp_path, monkeypatch, key):
        """A value given as the file's dotted key and as the override named
        as the setting yields one PipelineConfig, whose attribute is that
        value; a null takes the same route as any other value."""
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        value = LEGAL[key.path]
        expected = tuple(value) if isinstance(value, list) else value
        if key.path != "n_threads":
            assert attrgetter(key.attr)(PipelineConfig()) != expected
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(nested(key.path, value)))
        from_file = parse_config(str(file), None)
        assert from_file == parse_config(None, {key.name: value})
        assert attrgetter(key.attr)(from_file) == expected

    def test_bad_value_types_rejected(self):
        """An unknown override key is rejected by name.  Overrides are flat,
        keyed by setting name, so a nested section of them is one unknown
        key."""
        for overrides, name in (({"bogus_key": 3}, "bogus_key"), ({"generator": {"n_rows": 3000}}, "generator"),
                                ({"rfa": {"threshold": 0.9}}, "rfa")):
            with pytest.raises(InvalidValueError, match=rf"^unknown override key\(s\) \['{name}'\]$"):
                parse_config(None, overrides)

    @pytest.mark.parametrize("key", _SCHEMA, ids=lambda key: key.path)
    def test_wrong_typed_values_rejected(self, tmp_path, key):
        """A file's value is named by its dotted key, an override's by its
        setting name (as for a range error); a None override is null, as
        in the file."""
        file = tmp_path / "cfg.json"
        for value in wrong_values(key):
            file.write_text(json.dumps(nested(key.path, value)))
            with pytest.raises(FddError) as info:
                parse_config(str(file), None)
            assert key.path in str(info.value), value
            with pytest.raises(FddError) as info:
                parse_config(None, {key.name: value})
            assert key.name in str(info.value), value

    @pytest.mark.parametrize(
        "key",
        [key for key in _SCHEMA if {int, float, list} & set(KINDS[key.path])],
        ids=lambda key: key.path,
    )
    def test_non_finite_numbers_rejected(self, tmp_path, key):
        file = tmp_path / "cfg.json"
        for number in (float("nan"), float("inf"), float("-inf"), "1e400"):
            value = [number] if list in KINDS[key.path] else number
            # json.dumps writes NaN, Infinity and -Infinity, which json.loads
            # reads back; the literal 1e400 reads as inf.
            file.write_text(json.dumps(nested(key.path, value)).replace('"1e400"', "1e400"))
            with pytest.raises(InvalidValueError, match=re.escape(key.path)):
                parse_config(str(file), None)
            if number == "1e400":
                continue
            with pytest.raises(InvalidValueError, match=re.escape(key.name)):
                parse_config(None, {key.name: value})

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
        gone; setting one is an unknown key, through the file by its dotted
        key and through overrides by its name, the key's last part, as
        every override is named."""
        file = tmp_path / "cfg.json"
        file.write_text(json.dumps(nested(path, value)))
        with pytest.raises(InvalidValueError, match=re.escape(path)):
            parse_config(str(file), None)
        name = path.rpartition(".")[2]
        with pytest.raises(InvalidValueError, match=re.escape(f"['{name}']")):
            parse_config(None, {name: value})

    @pytest.mark.parametrize("section", ["data", "data.generator", "ensemble", "rfa", "robustness"])
    def test_non_object_section_rejected(self, tmp_path, section):
        file = tmp_path / "cfg.json"
        for value in (5, "x", [], None):
            file.write_text(json.dumps(nested(section, value)))
            with pytest.raises(InvalidValueError, match=section):
                parse_config(str(file), None)

    def test_overrides_keep_the_files_other_keys(self, tmp_path):
        file = tmp_path / "cfg.json"
        file.write_text(
            json.dumps(
                {
                    "data": {"generator": {"class_proportions": [0.4] + [0.1] * 6}},
                    "rfa": {"max_sensors": 5},
                    "robustness": {"snr_db": [6]},
                }
            )
        )
        cfg = parse_config(str(file), {"threshold": 0.9, "n_rows": 700})
        assert (cfg.rfa.threshold, cfg.rfa.max_sensors, cfg.rfa.snr_levels) == (0.9, 5, (6.0,))
        assert cfg.generator.n_rows == 700
        assert cfg.generator.class_proportions == (0.4,) + (0.1,) * 6

    def test_echo_parses_back_to_the_same_config(self, tmp_path):
        cfg = PipelineConfig(
            seed=4,
            data_path="plant.csv",
            generator=GeneratorConfig(n_rows=900, class_proportions=(0.4,) + (0.1,) * 6),
            train_fraction=0.6,
            undersample=False,
            ensemble=EnsembleConfig(
                method="boosting",
                n_trees=3,
                tree=TreeConfig(max_depth=None, min_leaf=2, feature_subsample=None),
                bootstrap=False,
                learning_rate=0.5,
            ),
            rfa=RfaConfig(threshold=0.95, max_sensors=6, snr_levels=(5.0,), include_failure=False),
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


# A small valid study that sets every schema key; out_dir is set per test.
FUZZ_BASE = {
    "seed": 1,
    "data": {"path": None, "generator": {"n_rows": 400, "class_proportions": [0.4] + [0.1] * 6}},
    "train_fraction": 0.75,
    "undersample": True,
    "ensemble": {
        "method": "bagging", "n_trees": 3, "max_depth": 6, "min_leaf": 5, "feature_subsample": "sqrt",
        "bootstrap": True, "learning_rate": 0.3, "hard_vote": False,
    },
    "rfa": {"threshold": 0.9, "max_sensors": 3},
    "robustness": {"snr_db": [10, 0], "include_failure": True},
    "n_threads": 1,
}

# Per schema key: (values of a JSON type it does not take, values of its
# type that are out of its range).  data.path and out_dir take any
# non-empty string, so no string is tried on them: the one would name a
# missing file, the other a directory to write.
FUZZ_VALUES = {
    "seed": (["1", 1.5, True], []),
    "data.path": ([1, True, ["plant.csv"]], []),
    "data.generator.n_rows": (["400", 400.5, True], [0, -1]),
    "data.generator.class_proportions": (["even", 1.0, [True] * 7], [[1.0], [-0.5, 1.5, 0, 0, 0, 0, 0], [0.5] * 7]),
    "train_fraction": (["0.5", True], [0.0, 1.0, -0.5]),
    "undersample": (["no", 1, 0.0], []),
    "ensemble.method": ([1, True, ["bagging"]], ["forest", "Bagging"]),
    "ensemble.n_trees": (["3", 3.0, True], [0, -1]),
    "ensemble.max_depth": (["6", 6.0, True], [-1]),
    "ensemble.min_leaf": (["5", 5.5, True], [0]),
    "ensemble.feature_subsample": (["log2", 2.5, True], [0]),
    "ensemble.bootstrap": (["no", 1], []),
    "ensemble.learning_rate": (["0.3", True], [0.0, 1.5]),
    "ensemble.hard_vote": (["yes", 0], []),
    "rfa.threshold": (["0.9", True], [0.0, 1.01]),
    "rfa.max_sensors": (["3", 2.5, True], [0]),
    "robustness.snr_db": ([10, "10", [True], ["10"]], [[4000], [3, -4000], [3, 3]]),
    "robustness.include_failure": (["yes", 1], []),
    "out_dir": ([1, True, ["out"]], []),
    "n_threads": (["1", 1.0, True], [0, 2]),
}


def _fuzz_cases(path):
    """(config file payload, the dotted key its error must name) for each
    one-key mutation of FUZZ_BASE at path."""
    wrong_type, out_of_range = FUZZ_VALUES[path]
    *sections, leaf = path.split(".")
    deep = {"a": {"b": {"c": 1}}}
    edits = [(leaf, value, path) for value in wrong_type + out_of_range + [None, float("nan"), deep]]
    sibling = ".".join(sections + ["bogus_key"])
    edits.append(("bogus_key", 1, sibling))
    for leaf_name, value, named in edits:
        payload = json.loads(json.dumps(FUZZ_BASE))
        node = payload
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf_name] = value
        yield payload, named
    if sections:
        payload = json.loads(json.dumps(FUZZ_BASE))
        node = payload
        for section in sections[:-1]:
            node = node[section]
        node[sections[-1]] = 5
        yield payload, ".".join(sections)


class TestConfigFuzz:
    def test_fuzz_values_cover_the_schema(self):
        assert set(FUZZ_VALUES) == {key.path for key in _SCHEMA}

    @pytest.mark.parametrize("key", _SCHEMA, ids=lambda key: key.path)
    def test_one_bad_key_is_rejected_by_name_or_runs(self, tmp_path, key):
        """Each one-key mutation of a valid file (a wrong JSON type, null, an
        out-of-range value, a NaN literal, an object three levels deep, an
        unknown sibling key or a non-object section) is rejected by
        parse_config with an FddError that names the dotted key, or runs to
        the end."""
        file = tmp_path / "cfg.json"
        for index, (payload, named) in enumerate(_fuzz_cases(key.path)):
            payload.setdefault("out_dir", str(tmp_path / f"out{index}"))
            text = json.dumps(payload)
            file.write_text(text)
            try:
                cfg = parse_config(str(file), None)
            except FddError as exc:
                assert named in str(exc), text
                continue
            result = run_pipeline(cfg)
            assert (result.out_dir / "config.json").exists(), text


class TestRunPipeline:
    def test_a_study_without_the_last_class_names_its_classes_as_faults(self, tmp_path):
        """Generated data with no row of class 6 gives a 6-class model, and
        the class reports name its classes as the first six fault classes."""
        proportions = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.0]
        overrides = {**SMALL, "class_proportions": proportions, "max_sensors": 2, "out_dir": str(tmp_path)}
        result = run_pipeline(parse_config(None, overrides))
        names = [fc.name for fc in FAULT_CLASSES[:6]]
        assert result.trace.model.n_classes == 6
        report = json.loads((tmp_path / "class_report.json").read_text())
        assert [c["name"] for c in report["classes"]] == names
        with open(tmp_path / "class_report.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [row[0] for row in rows[1:]] == names + ["macro"]

    def test_artifacts_written_and_consistent(self, tmp_path):
        cfg = parse_config(None, {**SMALL, "seed": 5, "out_dir": str(tmp_path / "out")})
        result = run_pipeline(cfg)
        names = {p.name for p in result.out_dir.iterdir()}
        assert names == {
            "config.json",
            "model.json",
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
        trace = json.loads((result.out_dir / "rfa_trace.json").read_text())
        assert len(trace["ranking"]) == 40
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

    @pytest.mark.parametrize(
        "name, error", [("missing.csv", FileNotFoundError), ("adir", IsADirectoryError)]
    )
    def test_unreadable_data_path_is_named(self, tmp_path, name, error):
        """An OSError of the data stage's load names data.path and keeps
        its type, and error.json names the stage."""
        (tmp_path / "adir").mkdir()
        out = tmp_path / "out"
        cfg = parse_config(None, {"data_path": str(tmp_path / name), "out_dir": str(out)})
        with pytest.raises(error, match="data.path: "):
            run_pipeline(cfg)
        payload = json.loads((out / "error.json").read_text())
        assert (payload["stage"], payload["error"]) == ("data", error.__name__)
        assert "data.path: " in payload["message"]

    @pytest.mark.parametrize(
        "keep, message",
        [
            (lambda labels: (labels != 6) | (np.cumsum(labels == 6) == 1),
             "gives class 6 only 1 row after undersampling: the stratified split needs 2 per class"),
            (lambda labels: labels == 0, "gives rows to 1 class(es): a study needs 2"),
        ],
        ids=["one-class-6-row", "class-0-only"],
    )
    def test_csv_study_is_checked_at_the_data_stage(self, tmp_path, monkeypatch, keep, message):
        """A CSV study that rebalance or split would fail is rejected once
        the data stage has loaded it, naming data.path and the file."""
        data = generate_dataset(GeneratorConfig(n_rows=3000), 4)
        csv_path = tmp_path / "data.csv"
        write_csv(data.take_rows(np.flatnonzero(keep(data.labels))), csv_path)
        out = tmp_path / "out"
        cfg = parse_config(None, {"data_path": str(csv_path), "n_trees": 2, "out_dir": str(out)})
        monkeypatch.setattr(pipeline, "undersample_majority", None)  # no later stage may run
        with pytest.raises(InvalidValueError, match="^" + re.escape(f"data.path {csv_path} {message}") + "$"):
            run_pipeline(cfg)
        payload = json.loads((out / "error.json").read_text())
        assert (payload["stage"], payload["error"]) == ("data", "InvalidValueError")

    def test_csv_study_of_two_classes_runs(self, tmp_path):
        """Two classes of a CSV, each large enough, pass the check."""
        data = generate_dataset(GeneratorConfig(n_rows=3000), 4)
        csv_path = tmp_path / "data.csv"
        write_csv(data.take_rows(np.flatnonzero(data.labels <= 1)), csv_path)
        cfg = parse_config(None, {"data_path": str(csv_path), "n_trees": 2, "out_dir": str(tmp_path / "out")})
        assert run_pipeline(cfg).trace.threshold_met

    @pytest.mark.parametrize(
        "stage, target",
        [
            ("data", "generate_dataset"),
            ("rebalance", "undersample_majority"),
            ("split", "split_train_test"),
            ("selection", "run_rfa"),
            ("artifacts", "save_model"),
        ],
    )
    def test_error_artifact_names_each_stage(self, tmp_path, monkeypatch, stage, target):
        def broken(*args, **kwargs):
            raise FileNotFoundError(f"{target} failed")

        monkeypatch.setattr(pipeline, target, broken)
        out = tmp_path / "out"
        with pytest.raises(FileNotFoundError):
            run_pipeline(parse_config(None, {**SMALL, "seed": 1, "out_dir": str(out)}))
        payload = json.loads((out / "error.json").read_text())
        assert payload == {"stage": stage, "error": "FileNotFoundError", "message": f"{target} failed"}

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
        # Each RFA step calls run_scenarios, which scores its baseline with
        # evaluate and its scenarios from the baseline's rows routed once
        # (not through evaluate).  The pipeline itself scores nothing: its
        # robustness report is the last step's run.
        assert result.robustness.scenarios
        assert calls["evaluate"] == steps
        assert result.robustness is result.trace.robustness
        assert result.report is result.robustness.baseline

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


# study -> (run_pipeline overrides, each sensor's scale factor by column)
SCALED_STUDIES = {
    "bagging": ({"n_trees": 5}, lambda n: np.where(np.arange(n) % 2 == 0, 2.0, 0.5)),
    "boosting": ({"method": "boosting", "n_trees": 3}, lambda n: np.full(n, 4.0)),
}


class TestStudyInvariants:
    @pytest.mark.parametrize("study", sorted(SCALED_STUDIES))
    def test_sensors_scaled_by_powers_of_two_leave_the_study_unchanged(self, tmp_path, study):
        """Scaling a sensor by a power of two is exact in binary floating
        point, and every stage is scale-exact: split thresholds halfway
        between two readings, interval routing, noise power set from
        signal power, and failure to 0.  So a study of the scaled table
        selects the same sensors and writes the same trace, scenario
        scores and class report, byte for byte.  Both tables go through
        the CSV writer and loader."""
        overrides, scales = SCALED_STUDIES[study]
        data = generate_dataset(GeneratorConfig(n_rows=3000), 11)
        outputs = {}
        for side, factors in (("plain", np.ones(data.n_sensors)), ("scaled", scales(data.n_sensors))):
            path = tmp_path / f"{side}.csv"
            write_csv(Dataset(data.schema, data.values * factors, data.labels), path)
            cfg = parse_config(None, {**overrides, "seed": 1, "data_path": str(path), "out_dir": str(tmp_path / side)})
            outputs[side] = run_pipeline(cfg)
        plain, scaled = outputs["plain"], outputs["scaled"]
        assert scaled.trace.selected == plain.trace.selected
        assert len(plain.trace.steps) > 1 and plain.robustness.scenarios
        for name in ("rfa_trace.json", "robustness.json", "class_report.json"):
            assert (scaled.out_dir / name).read_bytes() == (plain.out_dir / name).read_bytes(), name
        assert (scaled.out_dir / "model.json").read_bytes() != (plain.out_dir / "model.json").read_bytes()
