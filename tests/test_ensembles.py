import json
import random

import numpy as np
import pytest

from fddsense import ensembles
from fddsense.dataset import FAULT_CLASSES
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
)
from fddsense.errors import (
    DimensionMismatchError,
    FddError,
    InvalidValueError,
    LabelOutOfRangeError,
    ModelFormatError,
    SchemaMismatchError,
    SingleClassError,
)
from fddsense.fileio import canonical_json
from fddsense.simgen import GeneratorConfig, generate_dataset
from fddsense.trees import (
    DecisionTree,
    Internal,
    Leaf,
    SplitCandidate,
    TreeConfig,
    fit_tree,
    gini_impurity,
)


def _leaf(n):
    return Leaf(n_samples=n, distribution=np.array([1.0, 0.0]))


def _tree(root):
    return DecisionTree(root=root, n_features=2, config=TreeConfig(), n_classes=2)


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
    t1 = _tree(
        Internal(
            split=SplitCandidate(0, 2.0, 0.18, 1.8, 4, 6),
            left=_leaf(4),
            right=Internal(
                split=SplitCandidate(1, 0.5, 0.2, 1.2, 3, 3), left=_leaf(3), right=_leaf(3)
            ),
        )
    )
    t2 = _tree(
        Internal(
            split=SplitCandidate(1, 1.0, 0.3, 3.0, 5, 5),
            left=Internal(
                split=SplitCandidate(0, 4.0, 0.1, 0.5, 2, 3), left=_leaf(2), right=_leaf(3)
            ),
            right=_leaf(5),
        )
    )
    return _model([t1, t2])


def hand_model_b():
    """Both trees split only f0; tree 2 splits it twice."""
    t1 = _tree(
        Internal(split=SplitCandidate(0, 1.0, 0.5, 5.0, 5, 5), left=_leaf(5), right=_leaf(5))
    )
    t2 = _tree(
        Internal(
            split=SplitCandidate(0, 2.0, 0.25, 2.5, 4, 6),
            left=Internal(
                split=SplitCandidate(0, 0.5, 0.2, 0.8, 2, 2), left=_leaf(2), right=_leaf(2)
            ),
            right=_leaf(6),
        )
    )
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
        stump = _model(
            [
                _tree(
                    Internal(
                        split=SplitCandidate(0, 1.0, 0.2, 2.0, 5, 5),
                        left=_leaf(5),
                        right=_leaf(5),
                    )
                ),
                _tree(
                    Internal(
                        split=SplitCandidate(1, 1.0, 0.2, 2.0, 5, 5),
                        left=_leaf(5),
                        right=_leaf(5),
                    )
                ),
            ]
        )
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

    def test_thread_count_does_not_change_model(self):
        d = training_data()
        cfg = EnsembleConfig(n_trees=6, tree=TreeConfig(max_depth=5, feature_subsample=2))
        one = fit_ensemble(d.values, d.labels, cfg, 7, d.symbols, n_threads=1)
        four = fit_ensemble(d.values, d.labels, cfg, 7, d.symbols, n_threads=4)
        assert canonical_json(model_to_dict(one)) == canonical_json(model_to_dict(four))

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
        with pytest.raises(ValueError):
            EnsembleConfig(method="boosting", hard_vote=True)
        with pytest.raises(ValueError):
            EnsembleConfig(method="stacking")
        with pytest.raises(ValueError):
            EnsembleConfig(n_trees=0)


def _no_tree_expected(*args, **kwargs):
    raise AssertionError("a tree was grown before the labels were checked")


class TestInputValidation:
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


class TestSerialization:
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
        assert all(tree.config == model.config.tree for tree in model.trees)
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

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json at all {")
        with pytest.raises(ModelFormatError):
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
    return d, {"bagging": bagging, "boosting": boosting}


def with_field(payload, path, value):
    """A deep copy of payload with the field at path (a tuple of keys and
    indices) set to value, or deleted when value is DELETE."""
    payload = json.loads(json.dumps(payload))
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
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
    ("bagging", ("trees", 0, "nodes", 0, "feature"), -1, "trees[0]: node 0: feature"),
    ("bagging", ("trees", 1, "nodes", 0, "feature"), 99, "trees[1]: node 0: feature 99 is outside [0, 4)"),
    ("bagging", ("trees", 0, "nodes", 0, "left"), 0, "trees[0]: node 0: left"),
    ("bagging", ("trees", 0, "nodes", 0, "right"), 10**6, "trees[0]: node 0: right child"),
    ("bagging", ("trees", 0, "nodes", 0, "threshold"), "0.5", "trees[0]: node 0: threshold"),
    ("bagging", ("trees", 0, "nodes", 0, "threshold"), float("nan"), "trees[0]: node 0: threshold"),
    ("bagging", ("n_classes",), 8, "bagging needs classification with 8 classes"),
    ("bagging", ("trees", 0, "n_classes"), 8, "distribution must list 8"),
    ("bagging", ("trees", 0, "n_features"), 5, "trees[0]: n_features 5 but 4 feature_names"),
    ("bagging", ("fingerprint",), "0" * 16, "fingerprint"),
    ("bagging", ("feature_names", 0), "T_XX", "fingerprint"),
    ("bagging", ("feature_names",), "T_FI", "feature_names"),
    ("bagging", ("n_trees",), 3, "needs 3 trees"),
    ("boosting", ("n_trees",), 2, "needs 14 trees"),
    ("boosting", ("base_scores",), None, "base_scores"),
    ("boosting", ("base_scores", 0), float("inf"), "base_scores"),
    ("bagging", ("base_scores",), [0.0] * 7, "base_scores"),
    ("boosting", ("n_classes",), 6, "base_scores"),
    ("bagging", ("method",), "stacking", "unknown ensemble method"),
    ("bagging", ("n_trees",), 0, "n_trees must be >= 1"),
    ("bagging", ("n_trees",), 2.0, "n_trees"),
    ("boosting", ("learning_rate",), 0.0, "learning_rate"),
    ("bagging", ("learning_rate",), float("nan"), "learning_rate"),
    ("bagging", ("hard_vote",), "no", "hard_vote"),
    ("bagging", ("tree_config", "min_leaf"), 0, "min_leaf"),
    ("bagging", ("tree_config", "max_depth"), 4, "trees[0]: config differs"),
    ("bagging", ("trees", 1, "config", "task"), "regression_on_gradients", "trees[1]"),
    ("boosting", ("trees", 3, "config", "task"), "classification", "trees[3]"),
    ("bagging", ("master_seed",), "3", "master_seed"),
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


class TestFddErrors:
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
