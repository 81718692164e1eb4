import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from fddsense import ensembles
from fddsense.dataset import FAULT_CLASSES, INSTALLED_SENSORS, Dataset
from fddsense.ensembles import (
    EnsembleConfig,
    EnsembleModel,
    evaluate,
    feature_importance,
    fit_ensemble,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    predict_scores,
    rank_features,
    save_model,
    schema_fingerprint,
)
from fddsense.errors import (
    DimensionMismatchError,
    EmptyInputError,
    FddError,
    InvalidValueError,
    LabelOutOfRangeError,
    ModelFormatError,
    NonFiniteInputError,
    SchemaMismatchError,
    SingleClassError,
)
from fddsense.fileio import canonical_json
from fddsense.metrics import build_report, confusion_matrix
from fddsense.pipeline import PipelineConfig
from fddsense.robustness import NoiseSpec
from fddsense.selection import RfaConfig, run_rfa
from fddsense.simgen import GeneratorConfig, generate_dataset
from fddsense.trees import (
    REGRESSION,
    TreeConfig,
    fit_tree,
    gini_impurity,
    predict_tree,
    tree_from_dict,
)


def _tree(feature, threshold, impurity_decrease, leaves):
    """A two-feature tree from its model-file arrays; a leaf of n rows
    holds n rows of class 0."""
    payload = {
        "feature": feature,
        "threshold": threshold,
        "impurity_decrease": impurity_decrease,
        "counts": [[n, 0] for n in leaves],
    }
    return tree_from_dict(payload, 2, 2)


def _model(trees):
    return EnsembleModel(
        config=EnsembleConfig(method="bagging", n_trees=len(trees)),
        trees=trees,
        n_classes=2,
        feature_names=("a", "b"),
    )


def hand_model_a():
    """Tree 1: f0 at the root, f1 on the right child (6 of 10 rows).
    Tree 2: f1 at the root, f0 on the left child (5 of 10 rows)."""
    t1 = _tree([0, -1, 1, -1, -1], [2.0, 0.5], [0.18, 0.2], [4, 3, 3])
    t2 = _tree([1, 0, -1, -1, -1], [1.0, 4.0], [0.3, 0.1], [2, 3, 5])
    return _model([t1, t2])


def hand_model_b():
    """Both trees split only f0; tree 2 splits it twice."""
    t1 = _tree([0, -1, -1], [1.0], [0.5], [5, 5])
    t2 = _tree([0, 0, -1, -1, -1], [2.0, 0.5], [0.25, 0.2], [2, 2, 6])
    return _model([t1, t2])


class TestHandComputedImportance:
    def test_model_a_impurity(self):
        out = feature_importance(hand_model_a())
        assert out[0] == pytest.approx((1.0 * 0.18 + 0.5 * 0.1) / 2, abs=1e-12)
        assert out[1] == pytest.approx((0.6 * 0.2 + 1.0 * 0.3) / 2, abs=1e-12)

    def test_model_b_impurity(self):
        out = feature_importance(hand_model_b())
        assert out[0] == pytest.approx((0.5 + (0.25 + 0.4 * 0.2)) / 2, abs=1e-12)
        assert out[1] == 0.0

    def test_rank_features_orders_and_breaks_ties_by_schema(self):
        ranked = rank_features(hand_model_a())
        assert [s for s, _ in ranked] == ["b", "a"]
        stump = _model([_tree([0, -1, -1], [1.0], [0.2], [5, 5]), _tree([1, -1, -1], [1.0], [0.2], [5, 5])])
        assert [s for s, _ in rank_features(stump)] == ["a", "b"]

    def test_unknown_mode_rejected(self):
        """Impurity is the one importance measure: no mode is accepted."""
        with pytest.raises(TypeError):
            feature_importance(hand_model_a(), mode="gain")
        with pytest.raises(TypeError):
            rank_features(hand_model_a(), mode="gain")


def training_data(n=900, seed=4):
    d = generate_dataset(GeneratorConfig(n_rows=n), seed)
    cols = [d.sensor_index(s) for s in ("T_FI", "T_FO", "T_C", "W6")]
    return d.select_sensors(cols)


class TestBagging:
    def test_single_tree_no_bootstrap_equals_plain_tree(self):
        d = training_data()
        cfg = EnsembleConfig(
            method="bagging",
            n_trees=1,
            tree=TreeConfig(max_depth=6, feature_subsample=None),
            bootstrap=False,
        )
        model = fit_ensemble(d.values, d.labels, cfg, 123, d.symbols)
        tree = fit_tree(d.values, d.labels, cfg.tree, rng_seed=0, n_classes=d.n_classes)
        assert np.array_equal(
            predict_batch(model, d.values),
            np.argmax(tree.predict_batch(d.values), axis=1),
        )

    def test_deterministic_and_seed_sensitive(self):
        d = training_data()
        cfg = EnsembleConfig(n_trees=5, tree=TreeConfig(max_depth=5, feature_subsample=2))
        a = fit_ensemble(d.values, d.labels, cfg, 7, d.symbols)
        b = fit_ensemble(d.values, d.labels, cfg, 7, d.symbols)
        c = fit_ensemble(d.values, d.labels, cfg, 8, d.symbols)
        assert canonical_json(model_to_dict(a)) == canonical_json(model_to_dict(b))
        assert canonical_json(model_to_dict(a)) != canonical_json(model_to_dict(c))

    def test_soft_scores_sum_to_one(self):
        d = training_data()
        cfg = EnsembleConfig(n_trees=4, tree=TreeConfig(max_depth=4))
        model = fit_ensemble(d.values, d.labels, cfg, 3, d.symbols)
        scores = predict_scores(model, d.values[:50])
        assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-9)
        assert scores.shape == (50, d.n_classes)

    def test_hard_vote_fractions(self):
        d = training_data()
        cfg = EnsembleConfig(
            n_trees=4, tree=TreeConfig(max_depth=4, feature_subsample=2), hard_vote=True
        )
        model = fit_ensemble(d.values, d.labels, cfg, 3, d.symbols)
        scores = predict_scores(model, d.values[:20])
        # Each row's scores are multiples of 1/4 summing to 1.
        assert np.allclose(scores.sum(axis=1), 1.0)
        assert np.allclose((scores * 4) % 1.0, 0.0)

    def test_predict_single_row(self):
        d = training_data()
        cfg = EnsembleConfig(n_trees=3, tree=TreeConfig(max_depth=4))
        model = fit_ensemble(d.values, d.labels, cfg, 3, d.symbols)
        assert predict(model, d.values[0]) == predict_batch(model, d.values[:1])[0]


class TestBoosting:
    def test_more_rounds_fit_training_data_better(self):
        d = training_data()
        tree = TreeConfig(max_depth=3, min_leaf=5)
        short = fit_ensemble(
            d.values, d.labels,
            EnsembleConfig(method="boosting", n_trees=1, tree=tree, learning_rate=0.3),
            5, d.symbols,
        )
        long = fit_ensemble(
            d.values, d.labels,
            EnsembleConfig(method="boosting", n_trees=10, tree=tree, learning_rate=0.3),
            5, d.symbols,
        )
        acc_short = float(np.mean(predict_batch(short, d.values) == d.labels))
        acc_long = float(np.mean(predict_batch(long, d.values) == d.labels))
        assert acc_long >= acc_short
        assert acc_long > 0.95

    def test_one_tree_per_class_per_round(self):
        d = training_data()
        cfg = EnsembleConfig(method="boosting", n_trees=3, tree=TreeConfig(max_depth=2))
        model = fit_ensemble(d.values, d.labels, cfg, 5, d.symbols)
        assert len(model.trees) == 3 * d.n_classes
        assert model.base_scores.shape == (d.n_classes,)

    def test_base_scores_are_log_priors(self):
        d = training_data()
        cfg = EnsembleConfig(method="boosting", n_trees=1, tree=TreeConfig(max_depth=2))
        model = fit_ensemble(d.values, d.labels, cfg, 5, d.symbols)
        counts = np.bincount(d.labels, minlength=d.n_classes)
        assert np.allclose(model.base_scores, np.log(counts / d.n_rows), atol=1e-12)

    def test_deterministic(self):
        d = training_data()
        cfg = EnsembleConfig(method="boosting", n_trees=2, tree=TreeConfig(max_depth=3))
        a = fit_ensemble(d.values, d.labels, cfg, 6, d.symbols)
        b = fit_ensemble(d.values, d.labels, cfg, 6, d.symbols)
        assert canonical_json(model_to_dict(a)) == canonical_json(model_to_dict(b))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(method="boosting", learning_rate=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(method="boosting", learning_rate=1.5)
        with pytest.raises(ValueError, match=re.escape("learning_rate must be in (0, 1]")):
            EnsembleConfig(method="bagging", learning_rate=5.0)
        with pytest.raises(ValueError):
            EnsembleConfig(method="boosting", hard_vote=True)
        with pytest.raises(ValueError):
            EnsembleConfig(method="stacking")
        with pytest.raises(ValueError):
            EnsembleConfig(n_trees=0)


def _no_tree_expected(*args, **kwargs):
    raise AssertionError("a tree was grown before the labels were checked")


class TestInputValidation:
    def test_no_training_row_is_an_fdd_error(self):
        with pytest.raises(SingleClassError, match=re.escape("training labels hold 0 class(es)")):
            fit_ensemble(np.zeros((0, 2)), np.zeros(0, dtype=int), EnsembleConfig(), 0, ("a", "b"))

    def test_single_class_rejected(self):
        d = training_data()
        rows = np.flatnonzero(d.labels == 0)
        with pytest.raises(SingleClassError):
            fit_ensemble(
                d.values[rows], d.labels[rows], EnsembleConfig(n_trees=2), 0, d.symbols
            )

    def test_shape_mismatches_rejected(self):
        d = training_data()
        with pytest.raises(DimensionMismatchError):
            fit_ensemble(d.values, d.labels[:-1], EnsembleConfig(), 0, d.symbols)
        with pytest.raises(DimensionMismatchError):
            fit_ensemble(d.values, d.labels, EnsembleConfig(), 0, ("a", "b"))

    @pytest.mark.parametrize("method", ["bagging", "boosting"])
    def test_label_beyond_n_classes_rejected_before_growing(self, method, monkeypatch):
        d = training_data()
        monkeypatch.setattr(ensembles, "fit_tree", _no_tree_expected)
        cfg = EnsembleConfig(method=method, n_trees=2, tree=TreeConfig(max_depth=3))
        with pytest.raises(LabelOutOfRangeError, match="outside \\[0, 3\\)"):
            fit_ensemble(d.values, d.labels, cfg, 0, d.symbols, n_classes=3)

    def test_negative_label_rejected_before_growing(self, monkeypatch):
        d = training_data()
        labels = d.labels.copy()
        labels[5] = -1
        monkeypatch.setattr(ensembles, "fit_tree", _no_tree_expected)
        with pytest.raises(LabelOutOfRangeError, match="label -1 at row 5"):
            fit_ensemble(d.values, labels, EnsembleConfig(n_trees=2), 0, d.symbols)

    @pytest.mark.parametrize("method", ["bagging", "boosting"])
    def test_non_integer_label_rejected_before_growing(self, method, monkeypatch):
        monkeypatch.setattr(ensembles, "fit_tree", _no_tree_expected)
        cfg = EnsembleConfig(method=method, n_trees=2)
        with pytest.raises(LabelOutOfRangeError, match="label 0.2 at row 0 is not an integer"):
            fit_ensemble(np.arange(4.0)[:, None], [0.2, 0.9, 1.5, 1.99], cfg, 0, ("T_C",))

    def test_prediction_input_names_its_shape(self):
        model = hand_model_a()
        with pytest.raises(DimensionMismatchError, match=re.escape("a 2-D matrix, got shape (2,)")):
            predict_scores(model, np.zeros(2))
        with pytest.raises(DimensionMismatchError, match=re.escape("a single 1-D row, got shape (1, 2)")):
            predict(model, np.zeros((1, 2)))

    def test_evaluate_checks_schema(self):
        d = training_data()
        cfg = EnsembleConfig(n_trees=2, tree=TreeConfig(max_depth=3))
        model = fit_ensemble(d.values, d.labels, cfg, 1, d.symbols)
        other = d.select_sensors([0, 1, 2, 3])  # same width, renamed later
        report = evaluate(model, d)
        assert 0.0 <= report.macro_f1 <= 1.0
        assert report.class_names == tuple(fc.name for fc in FAULT_CLASSES)
        shuffled = d.select_sensors([1, 0, 2, 3])
        with pytest.raises(SchemaMismatchError):
            evaluate(model, shuffled)
        assert other.symbols == d.symbols  # selecting all columns keeps names

    @pytest.mark.parametrize("n_classes", [2, 6, 7, 8])
    def test_report_names_fault_classes_up_to_seven(self, n_classes):
        """A model of K <= 7 classes names them as the first K fault
        classes; only a model of more classes than faults uses class_k."""
        x = np.arange(40.0).reshape(20, 2)
        y = np.arange(20) % 2
        model = fit_ensemble(x, y, EnsembleConfig(n_trees=1), 0, ("T_C", "T_FO"), n_classes=n_classes)
        names = ensembles._report(model, y, y).class_names
        if n_classes <= len(FAULT_CLASSES):
            assert names == tuple(fc.name for fc in FAULT_CLASSES[:n_classes])
        else:
            assert names == tuple(f"class_{k}" for k in range(n_classes))


class TestSerialization:
    def test_schema_fingerprint_keeps_its_value(self):
        """The fingerprint is 16 hex digits of the names' derive_seed hash;
        every saved model stores it, so its value must not move."""
        assert schema_fingerprint(("T_C", "W1")) == "92db2d26863d2d4a"
        assert schema_fingerprint(("a\x1fb",)) == "e7c499ae5fb76187"

    def test_roundtrip_bagging(self, tmp_path):
        d = training_data()
        cfg = EnsembleConfig(n_trees=3, tree=TreeConfig(max_depth=4, feature_subsample=2))
        model = fit_ensemble(d.values, d.labels, cfg, 9, d.symbols)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.feature_names == model.feature_names
        assert clone.fingerprint == model.fingerprint
        assert np.array_equal(predict_batch(clone, d.values), predict_batch(model, d.values))
        assert canonical_json(model_to_dict(clone)) == canonical_json(model_to_dict(model))

    def test_roundtrip_boosting(self, tmp_path):
        d = training_data()
        cfg = EnsembleConfig(method="boosting", n_trees=2, tree=TreeConfig(max_depth=3))
        model = fit_ensemble(d.values, d.labels, cfg, 9, d.symbols)
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert np.allclose(clone.base_scores, model.base_scores)
        assert np.array_equal(predict_batch(clone, d.values), predict_batch(model, d.values))

    @pytest.mark.parametrize("method", ["bagging", "boosting"])
    def test_loaded_config_equals_fitted(self, method):
        """The model keeps the tree task its trees were grown with, so the
        saved tree_config loads back to the same config."""
        d = training_data(n=300)
        cfg = EnsembleConfig(method=method, n_trees=2, tree=TreeConfig(max_depth=3))
        model = fit_ensemble(d.values, d.labels, cfg, 9, d.symbols)
        assert all((tree.n_classes is None) == (model.config.tree.task == REGRESSION) for tree in model.trees)
        assert model_from_dict(model_to_dict(model)).config == model.config

    def test_unknown_version_rejected(self):
        payload = model_to_dict(hand_model_a())
        payload["format_version"] = 999
        with pytest.raises(ModelFormatError):
            model_from_dict(payload)

    def test_missing_key_rejected(self):
        payload = model_to_dict(hand_model_a())
        del payload["trees"]
        with pytest.raises(ModelFormatError):
            model_from_dict(payload)

    def test_one_class_model_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**model_to_dict(hand_model_a()), "n_classes": 1}))
        with pytest.raises(ModelFormatError, match="^" + re.escape("model: n_classes must be >= 2, got 1") + "$"):
            load_model(path)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all {")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("key", ["n_classes", "feature"], ids=["model", "tree"])
    def test_repeated_key_rejected(self, tmp_path, key):
        """json.loads would keep the last of a repeated key; a model file
        that repeats one, in the model's object or in a tree's, is refused,
        and the key is named."""
        payload = model_to_dict(hand_model_a())
        text = json.dumps(payload)
        inner = json.dumps(payload if key == "n_classes" else payload["trees"][0])
        assert key in json.loads(inner)
        text = text.replace(inner, f'{{"{key}": 0, ' + inner[1:], 1)
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ModelFormatError, match=f"^model file repeats the key '{key}' in one object$"):
            load_model(path)

    def test_saved_file_is_canonical_json(self, tmp_path):
        model = hand_model_a()
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text()
        assert text == canonical_json(json.loads(text))


def small_models():
    d = training_data(n=400)
    bagging = fit_ensemble(
        d.values, d.labels, EnsembleConfig(n_trees=2, tree=TreeConfig(max_depth=3)), 3, d.symbols
    )
    boosting = fit_ensemble(
        d.values,
        d.labels,
        EnsembleConfig(method="boosting", n_trees=1, tree=TreeConfig(max_depth=2)),
        3,
        d.symbols,
    )
    hard_vote = replace(bagging, config=replace(bagging.config, hard_vote=True))
    return d, {"bagging": bagging, "hard-vote": hard_vote, "boosting": boosting}


def with_field(payload, path, value):
    """A deep copy of payload with the field at path (a tuple of keys and
    indices) set to value, or deleted when value is DELETE.  A dict missing
    on the way is added."""
    payload = json.loads(json.dumps(payload))
    *parents, last = path
    node = payload
    for key in parents:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return payload


DELETE = object()


def field_paths(node, path=()):
    """The path of every field below node, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


# (method, path of the field, its bad value, a part of the error message)
BAD_MODELS = [
    ("bagging", ("trees", 0, "feature", 0), -2, "trees[0]: node 0: feature must be an integer in [-1, 4)"),
    ("bagging", ("trees", 1, "feature", 0), 99, "trees[1]: node 0: feature must be an integer in [-1, 4), got 99"),
    ("bagging", ("trees", 0, "feature"), [0], "trees[0]: node 0: the tree ends inside a split"),
    ("bagging", ("trees", 0, "feature"), [-1, -1], "trees[0]: node 1 is no node's child"),
    ("bagging", ("trees", 0, "threshold", 0), "0.5", "trees[0]: node 0: threshold"),
    ("bagging", ("trees", 0, "threshold", 0), float("nan"), "trees[0]: node 0: threshold"),
    ("bagging", ("trees", 0, "threshold"), [], "trees[0]: threshold must list"),
    ("bagging", ("trees", 1, "impurity_decrease", 0), float("inf"), "trees[1]: node 0: impurity_decrease"),
    ("bagging", ("trees", 0, "counts", 0), [1] * 8, "counts must list 7 class counts"),
    ("bagging", ("trees", 0, "counts", 0, 6), -1, "counts must be an integer in [0,"),
    ("bagging", ("trees", 0, "counts", 0, 6), 0.5, "counts must be an integer"),
    ("bagging", ("trees", 0, "counts", 0), [0] * 7, "counts hold no training row"),
    ("bagging", ("trees", 0, "gain"), [], "trees[0]: a classification tree holds the arrays"),
    # The per-tree copies of the model's facts that format 2 stored.
    ("bagging", ("trees", 0, "n_classes"), 8, "trees[0]: a classification tree holds the arrays"),
    ("bagging", ("trees", 0, "n_features"), 5, "trees[0]: a classification tree holds the arrays"),
    ("bagging", ("trees", 0, "config", "max_depth"), 3.0, "trees[0]: a classification tree holds the arrays"),
    ("bagging", ("n_classes",), 8, "counts must list 8 class counts"),
    ("bagging", ("fingerprint",), "0" * 16, "fingerprint"),
    ("bagging", ("feature_names", 0), "T_XX", "fingerprint"),
    ("bagging", ("feature_names",), "T_FI", "feature_names"),
    ("bagging", ("n_trees",), 3, "needs 3 trees"),
    ("boosting", ("n_trees",), 2, "needs 14 trees"),
    ("boosting", ("base_scores",), None, "base_scores"),
    ("boosting", ("base_scores", 0), float("inf"), "base_scores"),
    ("bagging", ("base_scores",), [0.0] * 7, "base_scores"),
    ("boosting", ("n_classes",), 6, "base_scores"),
    ("boosting", ("trees", 3, "value", 0), float("nan"), "trees[3]: node"),
    ("boosting", ("trees", 3, "n_samples", 0), 0, "trees[3]: node"),
    ("boosting", ("trees", 3, "counts"), [[1, 0]], "trees[3]: a regression_on_gradients tree holds the arrays"),
    ("bagging", ("method",), "stacking", "unknown ensemble method"),
    ("bagging", ("n_trees",), 0, "n_trees must be >= 1"),
    ("bagging", ("n_trees",), 2.0, "n_trees"),
    ("boosting", ("learning_rate",), 0.0, "learning_rate"),
    ("bagging", ("learning_rate",), float("nan"), "learning_rate"),
    # Bagging ignores the learning rate but still checks its range (on the
    # hard-vote model, which keeps this case's id apart from the NaN case's).
    ("hard-vote", ("learning_rate",), 5.0, "learning_rate must be in (0, 1]"),
    ("bagging", ("extra",), 1, "unknown model key(s) ['extra']"),
    ("bagging", ("hard_vote",), "no", "hard_vote"),
    ("bagging", ("tree_config", "min_leaf"), 0, "min_leaf"),
    ("bagging", ("tree_config", "task"), "regression_on_gradients", "tree_config: bagging grows classification"),
    ("boosting", ("tree_config", "task"), "classification", "tree_config: boosting grows regression_on_gradients"),
    ("bagging", ("master_seed",), "3", "master_seed"),
    # 2.0 == 2 and True == 1: equal values of the wrong type.
    ("bagging", ("tree_config", "max_depth"), 3.0, "tree_config: max_depth must be an integer"),
    ("boosting", ("tree_config", "max_depth"), 2.0, "tree_config: max_depth must be an integer"),
    ("boosting", ("tree_config", "min_leaf"), True, "tree_config: min_leaf must be an integer"),
    ("bagging", ("tree_config", "feature_subsample"), "sqrt", 'tree_config: feature_subsample "sqrt" is unresolved'),
]


class TestLoaderChecks:
    """model_from_dict rejects a model that could not predict, or that
    disagrees with itself, with a ModelFormatError."""

    @pytest.mark.parametrize(
        "method, path, value, message",
        BAD_MODELS,
        ids=[f"{method}-{'.'.join(map(str, path))}" for method, path, _, _ in BAD_MODELS],
    )
    def test_bad_model_rejected(self, method, path, value, message):
        _, models = small_models()
        payload = with_field(model_to_dict(models[method]), path, value)
        with pytest.raises(ModelFormatError) as info:
            model_from_dict(payload)
        assert message in str(info.value)

    def test_format_1_rejected(self):
        payload = model_to_dict(hand_model_a())
        payload["format_version"] = 1
        with pytest.raises(ModelFormatError, match="format_version 1"):
            model_from_dict(payload)

    def test_format_2_rejected(self):
        """A format-2 model (per-tree node lists) fails on its version,
        before any tree is read."""
        payload = model_to_dict(hand_model_a())
        payload["format_version"] = 2
        payload["trees"] = [{"n_features": 2, "n_classes": 2, "config": {}, "nodes": []}] * 2
        with pytest.raises(ModelFormatError, match="format_version 2: retrain"):
            model_from_dict(payload)

    @pytest.mark.parametrize("method", ["bagging", "boosting"])
    def test_single_field_mutations_raise_only_fdd_errors(self, tmp_path, method):
        """Seeded fuzz pass: each mutation of one field of a saved model
        either loads and scores, or raises an FddError, at load or at
        prediction time; nothing else."""
        d, models = small_models()
        payload = model_to_dict(models[method])
        paths = list(field_paths(payload))
        values = [DELETE, None, True, 0, -1, 1, 99, 2.5, float("nan"), float("-inf"), "x", [], {}, [0.5]]
        rng = random.Random(2024)
        path_file = tmp_path / "model.json"
        loaded = 0
        for _ in range(400):
            field_path, value = rng.choice(paths), rng.choice(values)
            if value is DELETE and isinstance(field_path[-1], int):
                value = None
            path_file.write_text(json.dumps(with_field(payload, field_path, value)))
            try:
                model = load_model(path_file)
                loaded += 1
                predict_scores(model, d.values[:50])
                rank_features(model)
                model_to_dict(model)
            except FddError:
                continue
            except Exception as exc:  # the failure this test exists to find
                pytest.fail(f"{field_path} = {value!r}: {type(exc).__name__}: {exc}")
        assert 0 < loaded < 400


# A small clean input for the bad-input table: six rows of two columns and
# two classes.
_X = np.arange(12.0).reshape(6, 2)
_Y = np.array([0, 1, 0, 1, 0, 1])


def _with(array, where, value) -> np.ndarray:
    """A float copy of array with the entry at where set to value."""
    out = np.array(array, dtype=np.float64)
    out[where] = value
    return out


def _dataset(x, y):
    return Dataset(INSTALLED_SENSORS[: x.shape[1]], x, y)


def _fit_ensemble(x, y):
    return fit_ensemble(x, y, EnsembleConfig(n_trees=2), 0, tuple(f"s{j}" for j in range(x.shape[1])))


def _predict_batch(x):
    return fit_tree(_X, _Y, TreeConfig()).predict_batch(x)


def _predict_tree(row):
    return predict_tree(fit_tree(_X, _Y, TreeConfig()), row)


def _build_report(y_true, y_pred):
    return build_report(y_true, y_pred, ("a", "b"))


# (entry point, its arguments, its documented error, the message): each bad
# entry is named by its row, and by its column in a matrix.
BAD_INPUTS = [
    (_dataset, (_with(_X, (3, 1), np.nan), _Y), InvalidValueError, "values nan at row 3, column 1 is not finite"),
    (_dataset, (_with(_X, (2, 0), -np.inf), _Y), InvalidValueError, "values -inf at row 2, column 0 is not finite"),
    (_dataset, (_X, _with(_Y, 4, 0.5)), InvalidValueError, "label 0.5 at row 4 is not an integer"),
    (_dataset, (_X, _with(_Y, 4, -1)), InvalidValueError, "label -1 at row 4 is below 0"),
    (_dataset, (_X, _with(_Y, 4, np.nan)), InvalidValueError, "label nan at row 4 is not an integer"),
    (fit_tree, (_with(_X, (3, 1), np.nan), _Y, TreeConfig()), NonFiniteInputError,
     "training matrix nan at row 3, column 1 is not finite"),
    (fit_tree, (_with(_X, (5, 0), np.inf), _Y, TreeConfig()), NonFiniteInputError,
     "training matrix inf at row 5, column 0 is not finite"),
    (fit_tree, (_X, _with(_Y, 4, 0.5), TreeConfig()), LabelOutOfRangeError, "label 0.5 at row 4 is not an integer"),
    (fit_tree, (_X, _with(_Y, 4, -1), TreeConfig()), LabelOutOfRangeError, "label -1 at row 4 is below 0"),
    (fit_tree, (_X, _with(_Y, 4, np.nan), TreeConfig()), LabelOutOfRangeError, "label nan at row 4 is not an integer"),
    (fit_tree, (_X[:, :0], _Y, TreeConfig()), EmptyInputError, "x has shape (6, 0): a tree needs at least one column"),
    (_fit_ensemble, (_with(_X, (3, 1), np.nan), _Y), NonFiniteInputError,
     "training matrix nan at row 3, column 1 is not finite"),
    (_fit_ensemble, (_X, _with(_Y, 4, 0.5)), LabelOutOfRangeError, "label 0.5 at row 4 is not an integer"),
    (_fit_ensemble, (_X, _with(_Y, 4, -1)), LabelOutOfRangeError, "label -1 at row 4 is below 0"),
    (_fit_ensemble, (_X, _with(_Y, 4, np.nan)), LabelOutOfRangeError, "label nan at row 4 is not an integer"),
    (_fit_ensemble, (_X[:, :0], _Y), EmptyInputError, "x has shape (6, 0): a model needs at least one sensor column"),
    (_predict_batch, (_with(_X, (3, 1), np.nan),), NonFiniteInputError,
     "prediction input nan at row 3, column 1 is not finite"),
    (_predict_batch, (_with(_X, (1, 0), np.inf),), NonFiniteInputError,
     "prediction input inf at row 1, column 0 is not finite"),
    (_predict_tree, ([1.0, np.nan],), NonFiniteInputError,
     "prediction input nan at row 0, column 1 is not finite"),
    (confusion_matrix, ([0.7, 1], [0, 1]), LabelOutOfRangeError, "true label 0.7 at row 0 is not an integer"),
    (confusion_matrix, (_Y, _with(_Y, 4, 0.5)), LabelOutOfRangeError, "predicted label 0.5 at row 4 is not an integer"),
    (confusion_matrix, (_with(_Y, 4, -1), _Y), LabelOutOfRangeError, "true label -1 at row 4 is below 0"),
    (confusion_matrix, (_with(_Y, 4, np.nan), _Y), LabelOutOfRangeError, "true label nan at row 4 is not an integer"),
    (_build_report, (_with(_Y, 4, 0.5), _Y), LabelOutOfRangeError, "true label 0.5 at row 4 is not an integer"),
    (_build_report, (_Y, _with(_Y, 4, -1)), LabelOutOfRangeError, "predicted label -1 at row 4 is outside [0, 2)"),
    (_build_report, (_with(_Y, 4, np.nan), _Y), LabelOutOfRangeError, "true label nan at row 4 is not an integer"),
    (_build_report, (_with(_Y, 4, 2), _Y), LabelOutOfRangeError, "true label 2 at row 4 is outside [0, 2)"),
]


class TestFddErrors:
    @pytest.mark.parametrize(
        "call, args, error, message",
        BAD_INPUTS,
        ids=[f"{call.__name__.lstrip('_')}-{i}" for i, (call, *_) in enumerate(BAD_INPUTS)],
    )
    def test_bad_entry_is_named_by_row_and_column(self, call, args, error, message):
        """Every public entry point applies the shared input rules: a
        non-finite matrix or target entry, a label that is not an integer
        in range, and a fit on zero columns each raise the error type the
        entry point documents, naming the first bad entry."""
        with pytest.raises(error) as info:
            call(*args)
        assert str(info.value) == message

    def test_a_study_on_no_sensor_fails_at_its_first_fit(self):
        none = training_data(n=300).select_sensors([])
        with pytest.raises(EmptyInputError, match=re.escape("x has shape (300, 0)")):
            run_rfa(none, none, EnsembleConfig(n_trees=2), 1, RfaConfig())

    def test_bad_arguments_are_fdd_errors(self):
        """Each bad argument raises an InvalidValueError, which except
        FddError catches."""
        calls = {
            "gini_impurity counts": lambda: gini_impurity([3, -1]),
            "fit_tree x": lambda: fit_tree(np.zeros(5), np.zeros(5, dtype=int), TreeConfig()),
        }
        for name, call in calls.items():
            try:
                call()
            except FddError as exc:
                assert isinstance(exc, InvalidValueError), name
            else:
                pytest.fail(f"{name}: no error")

    @pytest.mark.parametrize(
        "name, build",
        [
            pytest.param("min_leaf", lambda: TreeConfig(min_leaf=2.5), id="min_leaf-2.5"),
            pytest.param("min_leaf", lambda: TreeConfig(min_leaf=True), id="min_leaf-True"),
            pytest.param("max_depth", lambda: TreeConfig(max_depth=2.5), id="max_depth-2.5"),
            pytest.param("feature_subsample", lambda: TreeConfig(feature_subsample=1.5), id="feature_subsample-1.5"),
            pytest.param("n_trees", lambda: EnsembleConfig(n_trees=2.5), id="n_trees-2.5"),
            pytest.param("n_trees", lambda: EnsembleConfig(n_trees=True), id="n_trees-True"),
            pytest.param("tree", lambda: EnsembleConfig(tree={"max_depth": 3}), id="tree-dict"),
            pytest.param("bootstrap", lambda: EnsembleConfig(bootstrap="no"), id="bootstrap-str"),
            pytest.param("learning_rate", lambda: EnsembleConfig(learning_rate="0.3"), id="learning_rate-str"),
            pytest.param("hard_vote", lambda: EnsembleConfig(hard_vote="no"), id="hard_vote-str"),
            pytest.param("max_sensors", lambda: RfaConfig(max_sensors=2.5), id="max_sensors-2.5"),
            pytest.param("threshold", lambda: RfaConfig(threshold="0.9"), id="threshold-str"),
            pytest.param("snr_levels", lambda: RfaConfig(snr_levels=3.0), id="snr_levels-float"),
            pytest.param("include_failure", lambda: RfaConfig(include_failure=1), id="include_failure-int"),
            pytest.param("n_rows", lambda: GeneratorConfig(n_rows=2.5), id="n_rows-2.5"),
            pytest.param("snr_db", lambda: NoiseSpec("T_C", "awgn", True), id="snr_db-True"),
            pytest.param("sensor", lambda: NoiseSpec(5, "failure"), id="sensor-int"),
            pytest.param("generator", lambda: PipelineConfig(generator={}), id="generator-dict"),
            pytest.param("rfa", lambda: PipelineConfig(rfa={}), id="rfa-dict"),
            pytest.param("ensemble", lambda: PipelineConfig(ensemble={}), id="ensemble-dict"),
        ],
    )
    def test_wrong_typed_config_field_is_rejected_by_name(self, name, build):
        """A config built in code with a field of the wrong type fails when
        it is built, with an InvalidValueError that starts with the field's
        name: not with a TypeError where it is used, and not by a silent
        coercion."""
        with pytest.raises(InvalidValueError) as info:
            config = build()
            d = training_data()
            if isinstance(config, TreeConfig):
                fit_tree(d.values, d.labels, config)
            elif isinstance(config, EnsembleConfig):
                fit_ensemble(d.values, d.labels, config, 1, d.symbols)
            elif isinstance(config, RfaConfig):
                run_rfa(d, d, EnsembleConfig(n_trees=2), 1, config)
            elif isinstance(config, GeneratorConfig):
                generate_dataset(config, 1)
        assert str(info.value).startswith(name + " must be "), str(info.value)
