import copy
import json

import numpy as np
import pytest

from fddsense.ensembles import (
    EnsembleConfig,
    fit_ensemble,
    load_model,
    model_json_text,
    predict_batch,
    predict_scores,
    save_model,
)
from fddsense.errors import (
    DimensionMismatchError,
    EmptyInputError,
    EmptyNodeError,
    LabelOutOfRangeError,
    ModelFormatError,
    NonFiniteInputError,
)
from fddsense import trees
from fddsense.fileio import canonical_json
from fddsense.trees import (
    DecisionTree,
    Internal,
    Leaf,
    SplitCandidate,
    TreeConfig,
    fit_tree,
    gini_impurity,
    predict_tree,
    tree_from_dict,
    tree_importance_contributions,
    tree_to_dict,
)

from oracle_trees import (
    oracle_fit,
    oracle_fit_regression,
    oracle_gini,
    random_case,
    random_regression_case,
)


def assert_same_tree(node, ref):
    if ref["kind"] == "leaf":
        assert isinstance(node, Leaf)
        if "value" in ref:
            assert node.value == ref["value"]
        else:
            assert list(node.distribution) == ref["distribution"]
    else:
        assert isinstance(node, Internal)
        assert node.split.feature_index == ref["feature"]
        assert node.split.threshold == ref["threshold"]
        assert_same_tree(node.left, ref["left"])
        assert_same_tree(node.right, ref["right"])


def walk(node):
    yield node
    if isinstance(node, Internal):
        yield from walk(node.left)
        yield from walk(node.right)


class TestGini:
    def test_pure_node_is_zero(self):
        assert gini_impurity([5, 0]) == 0.0

    def test_even_binary_split(self):
        assert gini_impurity([5, 5]) == 0.5

    def test_three_way_tie(self):
        assert abs(gini_impurity([2, 2, 2]) - 2.0 / 3.0) <= 1e-15

    def test_matches_bruteforce_on_random_counts(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            labels = [int(v) for v in rng.integers(0, 4, size=rng.integers(1, 30))]
            counts = np.bincount(labels, minlength=4)
            assert gini_impurity(counts) == oracle_gini(labels)

    def test_empty_node_rejected(self):
        with pytest.raises(EmptyNodeError):
            gini_impurity([0, 0, 0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            gini_impurity([3, -1])


class TestFitAgainstOracle:
    def test_two_cluster_toy(self):
        x = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = fit_tree(x, y, TreeConfig())
        root = tree.root
        assert isinstance(root, Internal)
        assert root.split.feature_index == 0
        assert 1.0 < root.split.threshold < 10.0
        assert isinstance(root.left, Leaf) and isinstance(root.right, Leaf)
        assert list(root.left.distribution) == [1.0, 0.0]
        assert list(root.right.distribution) == [0.0, 1.0]

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(2024)
        for case in range(200):
            rows, labels = random_case(rng)
            min_leaf = 1 if case % 3 else 2
            max_depth = None if case % 4 else 2
            cfg = TreeConfig(max_depth=max_depth, min_leaf=min_leaf)
            tree = fit_tree(np.array(rows), np.array(labels), cfg, n_classes=3)
            ref = oracle_fit(rows, labels, max_depth=max_depth, min_leaf=min_leaf, n_classes=3)
            assert_same_tree(tree.root, ref)

    def test_scan_blocks_keep_the_lowest_feature_on_ties(self):
        """A stump over more features than one scan block holds: the
        winning column sits in the first and in the last block, and the
        first copy wins with the threshold a one-block fit finds."""
        n = trees._SCAN_BLOCK // 4  # four features per block
        rng = np.random.default_rng(8)
        y = rng.integers(0, 3, size=n)
        x = rng.normal(size=(n, 9))
        x[:, 0] = x[:, 8] = y + rng.normal(0.0, 0.6, size=n)
        cfg = TreeConfig(max_depth=1)
        one_block = fit_tree(x[:, :1], y, cfg, n_classes=3).root.split
        first = fit_tree(x, y, cfg, n_classes=3).root.split
        assert (first.feature_index, first.threshold) == (0, one_block.threshold)
        assert first.gain == one_block.gain
        last = fit_tree(x[:, 1:], y, cfg, n_classes=3).root.split
        assert (last.feature_index, last.threshold) == (7, one_block.threshold)


class TestOneColumnGrowth:
    def test_level_growth_matches_node_growth(self):
        """A one-column classification tree grows level by level; the same
        column twice grows node by node, and feature 0 wins every tie, so
        both must give the same nodes."""
        rng = np.random.default_rng(12)
        for case in range(200):
            n = int(rng.integers(2, 401))
            k = int(rng.integers(2, 8))
            # Few distinct values give ties and duplicated rows.
            distinct = int(rng.integers(1, n + 1))
            x = rng.integers(0, distinct, size=(n, 1)) * rng.choice([1.0, 0.37, -2.5e-3])
            y = rng.integers(0, k, size=n)
            if case % 17 == 0:
                x[:] = 3.0  # a constant column
            if case % 13 == 0:
                y[:] = k - 1  # a single class
            if case % 5 == 1:
                y = (np.abs(x[:, 0]) * 7).astype(int) % k  # labels that follow x
            cfg = TreeConfig(max_depth=[None, 0, 1, 3, 12][case % 5], min_leaf=int(rng.integers(1, 8)))
            level = tree_to_dict(fit_tree(x, y, cfg, n_classes=k))
            node = tree_to_dict(fit_tree(np.hstack([x, x]), y, cfg, n_classes=k))
            assert level["nodes"] == node["nodes"], case


def assert_counts_route(tree, x):
    """Every split sends its recorded left_count training rows left, and
    every leaf gets its n_samples rows."""
    stack = [(tree.root, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if isinstance(node, Leaf):
            assert rows.size == node.n_samples > 0
            continue
        goes_left = x[rows, node.split.feature_index] <= node.split.threshold
        assert goes_left.sum() == node.split.left_count
        assert rows.size - goes_left.sum() == node.split.right_count
        stack += [(node.left, rows[goes_left]), (node.right, rows[~goes_left])]


TINY = np.nextafter(0.0, 1.0)
HARD_VALUES = {
    # Midpoints of these neighbours round onto the upper value.
    "adjacent doubles": 1.0 + np.arange(10) * 2.0**-52,
    "subnormals": np.arange(-4, 6) * TINY,
    # (lo + hi) / 2 of these neighbours overflows to inf.
    "near the largest double": np.concatenate(
        [-np.linspace(1.79e308, 1.6e308, 5), np.linspace(1.6e308, 1.79e308, 5)]
    ),
}


class TestThresholds:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("task", ["classification", "regression_on_gradients"])
    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("values", sorted(HARD_VALUES))
    def test_every_threshold_routes_its_counts(self, values, width, task):
        """Alternating labels make every gap a split, so an unlimited tree
        isolates all ten rows: one column grows level by level, two grow
        node by node."""
        x = np.tile(HARD_VALUES[values][:, None], (1, width))
        y = np.arange(10) % 2
        tree = fit_tree(x, y if task == "classification" else y * 1.0, TreeConfig(task=task))
        assert_counts_route(tree, x)
        assert sum(isinstance(node, Leaf) for node in walk(tree.root)) == 10
        for node in walk(tree.root):
            if isinstance(node, Internal):
                assert np.isfinite(node.split.threshold)
        assert tree_from_dict(json.loads(canonical_json(tree_to_dict(tree)))).n_features == width

    def test_midpoint_is_unchanged_for_normal_doubles(self):
        rng = np.random.default_rng(13)
        lo = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, size=1000)
        hi = lo + np.abs(lo) * rng.random(1000) + 1e-300
        for a, b in zip(lo.tolist(), hi.tolist()):
            assert trees._threshold(a, b) == (a + b) / 2


class TestLabelChecks:
    @pytest.mark.parametrize("width", [1, 2])
    def test_classification_labels(self, width):
        x = np.arange(12.0).reshape(-1, 1).repeat(width, axis=1)
        with pytest.raises(DimensionMismatchError, match="12 rows"):
            fit_tree(x, np.zeros(11, dtype=int), TreeConfig())
        with pytest.raises(LabelOutOfRangeError, match="label -1 at row 4"):
            fit_tree(x, np.array([0, 1, 0, 1, -1] + [0] * 7), TreeConfig())
        with pytest.raises(LabelOutOfRangeError, match=r"label 3 at row 2 is outside \[0, 2\)"):
            fit_tree(x, np.array([0, 1, 3] + [0] * 9), TreeConfig(), n_classes=2)

    @pytest.mark.parametrize("width", [1, 2])
    def test_regression_targets(self, width):
        x = np.arange(12.0).reshape(-1, 1).repeat(width, axis=1)
        cfg = TreeConfig(task="regression_on_gradients")
        with pytest.raises(DimensionMismatchError, match="12 rows"):
            fit_tree(x, np.zeros((12, 2)), cfg)
        target = np.zeros(12)
        target[7] = np.inf
        with pytest.raises(NonFiniteInputError, match="row 7"):
            fit_tree(x, target, cfg)


class TestGrowthControls:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = rng.normal(0, 1, size=(200, 3))
        self.y = (self.x[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(int)

    def test_min_leaf_respected(self):
        tree = fit_tree(self.x, self.y, TreeConfig(min_leaf=17))
        for node in walk(tree.root):
            if isinstance(node, Leaf):
                assert node.n_samples >= 17

    def test_max_depth_respected(self):
        tree = fit_tree(self.x, self.y, TreeConfig(max_depth=2))

        def depth(node):
            if isinstance(node, Leaf):
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree.root) <= 2

    def test_max_depth_zero_is_a_stump(self):
        tree = fit_tree(self.x, self.y, TreeConfig(max_depth=0))
        assert isinstance(tree.root, Leaf)

    def test_pure_labels_give_single_leaf(self):
        tree = fit_tree(self.x, np.zeros(200, dtype=int), TreeConfig(), n_classes=2)
        assert isinstance(tree.root, Leaf)
        assert list(tree.root.distribution) == [1.0, 0.0]

    def test_constant_features_give_single_leaf(self):
        x = np.full((30, 2), 7.5)
        y = np.arange(30) % 2
        tree = fit_tree(x, y, TreeConfig())
        assert isinstance(tree.root, Leaf)

    def test_too_few_rows_rejected(self):
        with pytest.raises(EmptyInputError):
            fit_tree(np.zeros((1, 2)), np.zeros(1, dtype=int), TreeConfig())

    def test_nonfinite_rejected(self):
        x = self.x.copy()
        x[3, 1] = np.nan
        with pytest.raises(NonFiniteInputError):
            fit_tree(x, self.y, TreeConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TreeConfig(min_leaf=0)
        with pytest.raises(ValueError):
            TreeConfig(task="ordinal")


class TestFeatureSubsampling:
    def test_same_seed_same_tree(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(120, 6))
        y = (x[:, 1] > 0).astype(int)
        cfg = TreeConfig(feature_subsample=2)
        a = fit_tree(x, y, cfg, rng_seed=77)
        b = fit_tree(x, y, cfg, rng_seed=77)
        assert tree_to_dict(a) == tree_to_dict(b)

    def test_subsample_larger_than_feature_count_ignores_seed(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(80, 3))
        y = (x[:, 0] > 0).astype(int)
        cfg = TreeConfig(feature_subsample=10)
        a = fit_tree(x, y, cfg, rng_seed=1)
        b = fit_tree(x, y, cfg, rng_seed=2)
        assert tree_to_dict(a) == tree_to_dict(b)


class TestRegressionTask:
    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(2025)
        for case in range(200):
            rows, targets = random_regression_case(rng)
            min_leaf = 1 if case % 3 else 2
            max_depth = None if case % 4 else 2
            cfg = TreeConfig(task="regression_on_gradients", max_depth=max_depth, min_leaf=min_leaf)
            tree = fit_tree(np.array(rows), np.array(targets), cfg)
            ref = oracle_fit_regression(rows, targets, max_depth=max_depth, min_leaf=min_leaf)
            assert_same_tree(tree.root, ref)

    def test_reduces_sse(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(300, 2))
        target = np.where(x[:, 0] > 0, 2.0, -2.0) + 0.1 * rng.normal(size=300)
        cfg = TreeConfig(task="regression_on_gradients", max_depth=3, min_leaf=5)
        tree = fit_tree(x, target, cfg)
        fitted = tree.predict_batch(x)
        sse_model = float(np.sum((target - fitted) ** 2))
        sse_mean = float(np.sum((target - target.mean()) ** 2))
        assert sse_model < 0.2 * sse_mean

    def test_constant_target_gives_single_leaf(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(50, 2))
        cfg = TreeConfig(task="regression_on_gradients")
        tree = fit_tree(x, np.full(50, 3.25), cfg)
        assert isinstance(tree.root, Leaf)
        assert tree.root.value == 3.25

    def test_leaf_value_is_mean(self):
        x = np.array([[0.0], [0.0], [10.0], [10.0]])
        target = np.array([1.0, 2.0, 10.0, 14.0])
        cfg = TreeConfig(task="regression_on_gradients", max_depth=1)
        tree = fit_tree(x, target, cfg)
        assert tree.root.left.value == 1.5
        assert tree.root.right.value == 12.0


class TestPrediction:
    def setup_method(self):
        rng = np.random.default_rng(31)
        self.x = rng.normal(size=(150, 4))
        self.y = ((self.x[:, 0] > 0) & (self.x[:, 3] < 1)).astype(int)
        self.tree = fit_tree(self.x, self.y, TreeConfig(max_depth=4))

    def test_batch_matches_single_row(self):
        target = self.x[:, 0] - 2.0 * self.x[:, 3]
        regressor = fit_tree(
            self.x, target, TreeConfig(task="regression_on_gradients", max_depth=4)
        )
        wide = np.random.default_rng(32).normal(size=(20, 8))
        wide[:, ::2] = self.x[:20]
        layouts = {
            "C order": np.ascontiguousarray(self.x[:20]),
            "F order": np.asfortranarray(self.x[:20]),
            "strided column slice": wide[:, ::2],
            "zero rows": self.x[:0],
        }
        for tree, width in ((self.tree, (2,)), (regressor, ())):
            for name, x in layouts.items():
                batch = tree.predict_batch(x)
                assert batch.shape == (x.shape[0],) + width, name
                for i in range(x.shape[0]):
                    assert np.array_equal(predict_tree(tree, x[i]), batch[i]), name

    def test_wrong_width_rejected(self):
        with pytest.raises(DimensionMismatchError):
            predict_tree(self.tree, np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            self.tree.predict_batch(np.zeros((5, 5)))

    def test_nonfinite_rejected(self):
        row = np.zeros(4)
        row[2] = np.inf
        with pytest.raises(NonFiniteInputError):
            predict_tree(self.tree, row)
        rows = np.zeros((3, 4))
        rows[1, 2] = np.nan
        with pytest.raises(NonFiniteInputError):
            self.tree.predict_batch(rows)

    def test_training_rows_classified_correctly(self):
        # Fully grown tree on unique rows reproduces its training labels.
        tree = fit_tree(self.x, self.y, TreeConfig())
        predicted = np.argmax(tree.predict_batch(self.x), axis=1)
        assert np.array_equal(predicted, self.y)


def hand_tree():
    """Root on feature 0 (10 rows), right child on feature 1 (6 rows)."""
    leaf = lambda n: Leaf(n_samples=n, distribution=np.array([1.0, 0.0]))
    child = Internal(
        split=SplitCandidate(1, 0.5, 0.2, 1.2, 3, 3),
        left=leaf(3),
        right=leaf(3),
    )
    root = Internal(
        split=SplitCandidate(0, 2.0, 0.18, 1.8, 4, 6),
        left=leaf(4),
        right=child,
    )
    return DecisionTree(root=root, n_features=2, config=TreeConfig(), n_classes=2)


class TestImportanceContributions:
    def test_weighted_impurity_mode(self):
        out = tree_importance_contributions(hand_tree())
        assert out[0] == pytest.approx(0.18, abs=1e-15)
        assert out[1] == pytest.approx(0.6 * 0.2, abs=1e-15)

    def test_unknown_mode_rejected(self):
        """Impurity is the one importance measure: no mode is accepted."""
        with pytest.raises(TypeError):
            tree_importance_contributions(hand_tree(), mode="gain")


class TestSerialization:
    def test_roundtrip_preserves_predictions_and_encoding(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(100, 3))
        y = (x[:, 0] * x[:, 1] > 0).astype(int)
        tree = fit_tree(x, y, TreeConfig(max_depth=5, min_leaf=2))
        payload = tree_to_dict(tree)
        clone = tree_from_dict(payload)
        assert np.array_equal(tree.predict_batch(x), clone.predict_batch(x))
        assert tree_to_dict(clone) == payload

    def test_regression_roundtrip(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(60, 2))
        cfg = TreeConfig(task="regression_on_gradients", max_depth=3)
        tree = fit_tree(x, x[:, 0] * 2.0, cfg)
        clone = tree_from_dict(tree_to_dict(tree))
        assert clone.n_classes is None
        assert np.array_equal(tree.predict_batch(x), clone.predict_batch(x))

    def test_nodes_are_a_flat_preorder_list(self):
        nodes = tree_to_dict(hand_tree())["nodes"]
        assert [node["kind"] for node in nodes] == ["split", "leaf", "split", "leaf", "leaf"]
        assert [(node["feature"], node["left"], node["right"]) for node in nodes if node["kind"] == "split"] == [
            (0, 1, 2),
            (1, 3, 4),
        ]
        assert [node["n_samples"] for node in nodes if node["kind"] == "leaf"] == [4, 3, 3]


class TestDeepTree:
    def test_depth_2499_tree_saves_loads_and_predicts(self, tmp_path):
        # One column 0..2499 with alternating labels: an unlimited tree
        # splits off one row per level, so it grows 2499 levels deep.
        x = np.arange(2500, dtype=np.float64).reshape(-1, 1)
        y = np.arange(2500) % 2
        cfg = EnsembleConfig(n_trees=1, tree=TreeConfig(max_depth=None, min_leaf=1), bootstrap=False)
        model = fit_ensemble(x, y, cfg, 0, ("s0",))
        node, depth = model.trees[0].root, 0
        while isinstance(node, Internal):
            node, depth = node.right, depth + 1
        assert depth == 2499
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert np.array_equal(predict_scores(clone, x), predict_scores(model, x))
        assert np.array_equal(predict_batch(clone, x), y)
        assert path.read_text() == model_json_text(clone)


def corrupt(payload, index, key, value):
    """A deep copy of a tree payload with nodes[index][key] set to value
    (deleted when value is DELETE)."""
    payload = copy.deepcopy(payload)
    if value is DELETE:
        del payload["nodes"][index][key]
    else:
        payload["nodes"][index][key] = value
    return payload


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()


# (node index, field, its bad value or DELETE, a part of the error message)
BAD_NODES = [
    (0, "feature", -1, "node 0: feature"),
    (2, "feature", 2, "node 2: feature 2 is outside [0, 2)"),
    (0, "feature", 1.0, "node 0: feature"),
    (0, "feature", True, "node 0: feature"),
    (0, "left", 0, "node 0: left"),
    (2, "right", 1, "node 2: right"),
    (0, "right", 5, "node 0: right child 5 is out of range"),
    (0, "right", 1, "node 0: right child 1"),
    (0, "left", "1", "node 0: left"),
    (0, "threshold", float("nan"), "node 0: threshold"),
    (0, "threshold", float("inf"), "node 0: threshold"),
    (0, "threshold", "2.0", "node 0: threshold"),
    (0, "threshold", None, "node 0: threshold"),
    (0, "gain", "x", "node 0: gain"),
    (0, "left_count", 0, "node 0: left_count"),
    (1, "distribution", [1.0], "node 1: distribution"),
    (1, "distribution", [1.0, 0.0, 0.0], "node 1: distribution"),
    (1, "distribution", [1.0, float("nan")], "node 1: distribution"),
    (1, "distribution", "ab", "node 1: distribution"),
    (1, "n_samples", 0, "node 1: n_samples"),
    (1, "kind", "branch", "node 1: kind"),
    (0, "threshold", DELETE, "node 0: missing or malformed field: KeyError('threshold')"),
    (3, "kind", DELETE, "node 3: missing or malformed field: KeyError('kind')"),
]


class TestDecodeChecks:
    """tree_from_dict rejects every node that could not be routed or read,
    with a ModelFormatError naming the node."""

    def setup_method(self):
        self.payload = tree_to_dict(hand_tree())  # splits at nodes 0 and 2

    @pytest.mark.parametrize(
        "index, key, value, message",
        BAD_NODES,
        ids=[f"node{index}-{key}-{value!r}" for index, key, value, _ in BAD_NODES],
    )
    def test_bad_node_rejected(self, index, key, value, message):
        with pytest.raises(ModelFormatError) as info:
            tree_from_dict(corrupt(self.payload, index, key, value))
        assert message in str(info.value)

    def test_orphan_node_rejected(self):
        payload = copy.deepcopy(self.payload)
        payload["nodes"].append({"kind": "leaf", "n_samples": 1, "distribution": [1.0, 0.0]})
        with pytest.raises(ModelFormatError, match="node 5 is no node's child"):
            tree_from_dict(payload)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_features", 0),
            ("n_features", "2"),
            ("n_classes", None),
            ("n_classes", 1),
            ("nodes", []),
            ("nodes", {}),
            ("config", {"max_depth": 3, "split_strategy": "exact"}),
            ("config", {"task": "ordinal"}),
        ],
    )
    def test_bad_tree_field_rejected(self, key, value):
        payload = copy.deepcopy(self.payload)
        payload[key] = value
        with pytest.raises(ModelFormatError):
            tree_from_dict(payload)

    def test_regression_tree_needs_null_classes_and_finite_values(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(40, 2))
        cfg = TreeConfig(task="regression_on_gradients", max_depth=2)
        payload = tree_to_dict(fit_tree(x, x[:, 0], cfg))
        leaf = next(i for i, node in enumerate(payload["nodes"]) if node["kind"] == "leaf")
        with pytest.raises(ModelFormatError, match=f"node {leaf}: value"):
            tree_from_dict(corrupt(payload, leaf, "value", float("inf")))
        payload["n_classes"] = 2
        with pytest.raises(ModelFormatError, match="n_classes null"):
            tree_from_dict(payload)
