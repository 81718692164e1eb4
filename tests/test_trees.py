import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from fddsense.ensembles import (
    EnsembleConfig,
    fit_ensemble,
    load_model,
    model_from_dict,
    model_json_text,
    model_to_dict,
    predict_batch,
    predict_scores,
    save_model,
)
from fddsense.errors import (
    DimensionMismatchError,
    EmptyInputError,
    EmptyNodeError,
    InvalidValueError,
    LabelOutOfRangeError,
    ModelFormatError,
    NonFiniteInputError,
)
from fddsense import trees
from fddsense.fileio import canonical_json
from fddsense.trees import (
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


def assert_same_tree(tree, ref, node=0):
    """The subtree of tree at node equals the oracle tree ref."""
    j = tree.number[node]
    if ref["kind"] == "leaf":
        assert tree.feature[node] == -1
        if "value" in ref:
            assert tree.output[j] == ref["value"]
        else:
            assert list(tree.output[j]) == ref["distribution"]
            assert tree.n_samples[j] == ref["n_samples"]
    else:
        assert tree.feature[node] == ref["feature"]
        assert tree.threshold[j] == ref["threshold"]
        assert_same_tree(tree, ref["left"], node + 1)
        assert_same_tree(tree, ref["right"], tree.right[j])


def same_tree(a, b):
    """a and b hold the same arrays, bit for bit."""
    keys = ("feature", "threshold", "impurity_decrease", "n_samples", "value", "right", "number", "output")
    return all(np.array_equal(getattr(a, key), getattr(b, key)) for key in keys)


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
        assert tree.feature.tolist() == [0, -1, -1]
        assert 1.0 < tree.threshold[0] < 10.0
        assert tree.output.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(2024)
        for case in range(200):
            rows, labels = random_case(rng)
            min_leaf = 1 if case % 3 else 2
            max_depth = None if case % 4 else 2
            cfg = TreeConfig(max_depth=max_depth, min_leaf=min_leaf)
            tree = fit_tree(np.array(rows), np.array(labels), cfg, n_classes=3)
            ref = oracle_fit(rows, labels, max_depth=max_depth, min_leaf=min_leaf, n_classes=3)
            assert_same_tree(tree, ref)

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
        one_block = root_split(fit_tree(x[:, :1], y, cfg, n_classes=3))
        first = root_split(fit_tree(x, y, cfg, n_classes=3))
        assert first == (0, one_block[1], one_block[2])
        last = root_split(fit_tree(x[:, 1:], y, cfg, n_classes=3))
        assert last[:2] == (7, one_block[1])


def root_split(tree):
    """(feature, threshold, impurity decrease) of the root, a split."""
    assert tree.feature[0] >= 0
    return int(tree.feature[0]), tree.threshold[0], tree.impurity_decrease[0]


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
            level = fit_tree(x, y, cfg, n_classes=k)
            node = fit_tree(np.hstack([x, x]), y, cfg, n_classes=k)
            assert tree_to_dict(level) == tree_to_dict(node), case
            assert same_tree(level, node), case


def tied_table(rng, n, width, step, k):
    """(x, y, repeats): n rows of width columns rounded to step, so values
    tie, labels that follow the first column, and 1-4 repeats per row."""
    x = np.round(rng.normal(0.0, 2.0, size=(n, width)) / step) * step
    y = (np.abs(x[:, 0]) * 3 + rng.integers(0, 2, size=n)).astype(int) % k
    return x, y, rng.integers(1, 5, size=n)


class TestRepeats:
    """fit_tree(x, y, repeats=r) grows the tree of the table that holds
    row i r[i] times."""

    @pytest.mark.parametrize("step", [0.1, 1.0])
    @pytest.mark.parametrize("min_leaf", [1, 5])
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_equals_the_repeated_table(self, step, min_leaf, max_depth):
        rng = np.random.default_rng(int(step * 10) + min_leaf + 7 * (max_depth or 0))
        for case, width in enumerate([1, 1, 2, 3, 4, 5, 6, 6]):
            k = int(rng.integers(2, 6))
            x, y, r = tied_table(rng, int(rng.integers(2, 160)), width, step, k)
            subsample = 2 if case == 7 else None  # a feature draw below the column count
            cfg = TreeConfig(max_depth=max_depth, min_leaf=min_leaf, feature_subsample=subsample)
            seed = int(rng.integers(0, 2**31))
            tree = fit_tree(x, y, cfg, seed, k, repeats=r)
            reference = fit_tree(np.repeat(x, r, 0), np.repeat(y, r), cfg, seed, k)
            assert same_tree(tree, reference), (case, width)
            assert tree_to_dict(tree) == tree_to_dict(reference), (case, width)

    def test_matches_bruteforce_randomized(self):
        rng = np.random.default_rng(2025)
        for case in range(200):
            rows, labels = random_case(rng)
            repeats = [int(v) for v in rng.integers(1, 4, size=len(rows))]
            min_leaf = 1 if case % 3 else 3
            max_depth = None if case % 4 else 2
            cfg = TreeConfig(max_depth=max_depth, min_leaf=min_leaf)
            tree = fit_tree(np.array(rows), np.array(labels), cfg, n_classes=3, repeats=repeats)
            ref = oracle_fit(rows, labels, max_depth=max_depth, min_leaf=min_leaf, n_classes=3, repeats=repeats)
            assert_same_tree(tree, ref)

    def test_a_row_drawn_twice_is_two_rows(self):
        x = np.array([[1.0, 2.0]])
        tree = fit_tree(x, [1], TreeConfig(), n_classes=2, repeats=[2])
        assert tree.n_samples.tolist() == [2] and tree.value.tolist() == [[0, 2]]
        with pytest.raises(EmptyInputError, match="got 1"):
            fit_tree(x, [1], TreeConfig(), n_classes=2, repeats=[1])

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize(
        "bad, match",
        [
            (0, "repeat count 0 at row 2 is below 1"),
            (-3, "repeat count -3 at row 2 is below 1"),
            (1.5, "repeat count 1.5 at row 2 is not an integer"),
            (np.nan, "repeat count nan at row 2 is not an integer"),
        ],
    )
    def test_bad_count_is_rejected_by_row(self, width, bad, match):
        x = np.arange(8.0).reshape(-1, 1).repeat(width, axis=1)
        repeats = np.ones(8)
        repeats[2] = bad
        with pytest.raises(InvalidValueError, match=match):
            fit_tree(x, np.arange(8) % 2, TreeConfig(), repeats=repeats)

    def test_wrong_shape_or_type_is_rejected(self):
        x = np.arange(8.0).reshape(-1, 2)
        with pytest.raises(DimensionMismatchError, match="4 rows but repeats"):
            fit_tree(x, [0, 1, 0, 1], TreeConfig(), repeats=[1, 2, 3])
        with pytest.raises(InvalidValueError, match="positive integers"):
            fit_tree(x, [0, 1, 0, 1], TreeConfig(), repeats=["1", "2", "1", "2"])
        with pytest.raises(InvalidValueError, match="positive integers"):
            fit_tree(x, [0, 1, 0, 1], TreeConfig(), repeats=[True] * 4)

    def test_regression_takes_no_repeats(self):
        cfg = TreeConfig(task="regression_on_gradients")
        with pytest.raises(InvalidValueError, match="classification trees only, not to task 'regression_on_gradients'"):
            fit_tree(np.arange(8.0).reshape(-1, 2), [0.5, 1.0, 2.0, 0.0], cfg, repeats=[1, 1, 1, 1])

    def test_bagged_trees_are_the_trees_of_their_drawn_rows(self):
        """A bagged tree grows on its bootstrap's distinct rows with their
        draw counts, and equals the tree of the drawn rows themselves."""
        from fddsense.seeding import derive_seed

        rng = np.random.default_rng(4)
        x, y, _ = tied_table(rng, 300, 4, 0.1, 3)
        cfg = EnsembleConfig(n_trees=4, tree=TreeConfig(max_depth=6, min_leaf=2, feature_subsample=2))
        model = fit_ensemble(x, y, cfg, 9, ("a", "b", "c", "d"))
        for i, tree in enumerate(model.trees):
            rows = np.random.default_rng(derive_seed(9, i, "bootstrap")).integers(0, 300, size=300)
            drawn = fit_tree(x[rows], y[rows], cfg.tree, derive_seed(9, i, "grow"), 3)
            assert same_tree(tree, drawn), i


def all_splits(tree):
    """The tree's splits in preorder: (feature, threshold, impurity
    decrease, training rows)."""
    columns = (tree.feature[tree.feature >= 0], tree.threshold, tree.impurity_decrease, trees._split_rows(tree))
    return list(zip(*(column.tolist() for column in columns)))


def assert_counts_route(tree, x):
    """Every split gets its n_samples training rows, and every leaf its
    n_samples rows."""
    split_rows = trees._split_rows(tree)
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        j = tree.number[node]
        if tree.feature[node] < 0:
            assert rows.size == tree.n_samples[j] > 0
            continue
        assert rows.size == split_rows[j]
        goes_left = x[rows, tree.feature[node]] <= tree.threshold[j]
        stack += [(node + 1, rows[goes_left]), (tree.right[j], rows[~goes_left])]


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
        assert (tree.feature < 0).sum() == 10
        assert np.isfinite(tree.threshold).all()
        payload = json.loads(canonical_json(tree_to_dict(tree)))
        clone = tree_from_dict(payload, width, tree.n_classes)
        assert np.array_equal(clone.predict_batch(x), tree.predict_batch(x))

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
    def test_non_integer_labels_are_rejected_not_truncated(self, width):
        x = np.arange(4.0).reshape(-1, 1).repeat(width, axis=1)
        with pytest.raises(LabelOutOfRangeError, match="label 0.2 at row 0 is not an integer"):
            fit_tree(x, [0.2, 0.9, 1.5, 1.99], TreeConfig())
        with pytest.raises(LabelOutOfRangeError, match="label nan at row 2 is not an integer"):
            fit_tree(x, [0.0, 1.0, np.nan, 1.0], TreeConfig())
        assert fit_tree(x, [0.0, 1.0, 1.0, 0.0], TreeConfig()).n_classes == 2

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
        assert (tree.n_samples >= 17).all()

    def test_max_depth_respected(self):
        tree = fit_tree(self.x, self.y, TreeConfig(max_depth=2))

        def depth(node):
            if tree.feature[node] < 0:
                return 0
            return 1 + max(depth(node + 1), depth(tree.right[tree.number[node]]))

        assert depth(0) <= 2

    def test_max_depth_zero_is_a_stump(self):
        tree = fit_tree(self.x, self.y, TreeConfig(max_depth=0))
        assert tree.feature.tolist() == [-1]

    def test_pure_labels_give_single_leaf(self):
        tree = fit_tree(self.x, np.zeros(200, dtype=int), TreeConfig(), n_classes=2)
        assert tree.feature.tolist() == [-1]
        assert tree.output.tolist() == [[1.0, 0.0]]

    def test_constant_features_give_single_leaf(self):
        x = np.full((30, 2), 7.5)
        y = np.arange(30) % 2
        tree = fit_tree(x, y, TreeConfig())
        assert tree.feature.tolist() == [-1]

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

    def test_unresolved_sqrt_is_rejected(self):
        """"sqrt" is a study's setting for the square root of its full
        sensor count; only the study knows that count, so a tree cannot
        resolve it from its own columns."""
        x = np.arange(20.0).reshape(10, 2)
        y = np.array([0, 1] * 5)
        with pytest.raises(InvalidValueError, match='feature_subsample "sqrt"'):
            fit_tree(x, y, TreeConfig(feature_subsample="sqrt"))


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
            assert_same_tree(tree, ref)

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
        assert tree.feature.tolist() == [-1]
        assert tree.output.tolist() == [3.25]

    def test_leaf_value_is_mean(self):
        x = np.array([[0.0], [0.0], [10.0], [10.0]])
        target = np.array([1.0, 2.0, 10.0, 14.0])
        cfg = TreeConfig(task="regression_on_gradients", max_depth=1)
        tree = fit_tree(x, target, cfg)
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.output.tolist() == [1.5, 12.0]


REGRESSION = "regression_on_gradients"


def beside_constant(x):
    """x with a constant column appended: the node grower takes it, and the
    constant column never splits, so it grows x's tree node by node."""
    return np.hstack([x, np.full((x.shape[0], 1), 2.5)])


def same_arrays(tree, ref):
    """tree and ref hold equal arrays, bit for bit; n_features may differ."""
    return same_tree(tree, ref) and tree_to_dict(tree) == tree_to_dict(ref)


class TestRegressionRanges:
    """A one-column regression tree without ties grows on ranges of its
    sorted rows, and equals the node grower's tree."""

    @pytest.mark.parametrize("min_leaf", [1, 2, 5, 7])
    @pytest.mark.parametrize("max_depth", [None, 3, 12])
    def test_range_growth_matches_node_growth(self, min_leaf, max_depth):
        rng = np.random.default_rng(100 * min_leaf + (max_depth or 0))
        cfg = TreeConfig(task=REGRESSION, min_leaf=min_leaf, max_depth=max_depth)
        for case, n in enumerate([2, 3, 4, 9, 15, 40, 127, 600, 3000]):
            x = rng.normal(size=(n, 1)) * rng.choice([1.0, 1e-3, 40.0])
            y = rng.normal(size=n) + np.where(x[:, 0] > 0.2, 1.5, 0.0)
            if case % 3 == 0:
                y = np.round(y, 1)  # targets that tie
            if case == 4:
                y[:] = 0.75  # a constant target
            assert np.unique(x).size == n
            assert same_arrays(fit_tree(x, y, cfg), fit_tree(beside_constant(x), y, cfg)), n

    @pytest.mark.parametrize("step", [0.1, 1.0])
    def test_tied_column_grows_the_node_growers_tree(self, step):
        rng = np.random.default_rng(int(10 * step))
        for case in range(12):
            n = int(rng.integers(2, 400))
            x = np.round(rng.normal(0.0, 2.0, size=(n, 1)) / step) * step
            y = np.sin(x[:, 0]) + rng.normal(0.0, 0.3, size=n)
            cfg = TreeConfig(task=REGRESSION, min_leaf=[1, 2, 5][case % 3], max_depth=[None, 3][case % 2])
            assert same_arrays(fit_tree(x, y, cfg), fit_tree(beside_constant(x), y, cfg)), case

    @pytest.mark.parametrize("width, step", [(1, None), (1, 0.1), (3, None), (6, 0.1)])
    def test_fitted_is_predict_batch_on_the_training_rows(self, width, step):
        rng = np.random.default_rng(width)
        for case in range(10):
            n = int(rng.integers(2, 500))
            x = rng.normal(size=(n, width))
            if step is not None:
                x = np.round(x / step) * step
            y = x[:, 0] * 2 + rng.normal(size=n)
            cfg = TreeConfig(task=REGRESSION, min_leaf=1 + case % 4, feature_subsample=[None, 2][case % 2])
            fitted = np.full(n, np.nan)
            tree = fit_tree(x, y, cfg, case, fitted=fitted)
            assert np.array_equal(fitted, tree.predict_batch(x)), case
            assert same_arrays(tree, fit_tree(x, y, cfg, case)), case

    @pytest.mark.parametrize(
        "fitted, match",
        [
            (np.zeros(7), r"fitted must be a writable float64 array of shape \(8,\), got float64 \(7,\)"),
            (np.zeros((8, 1)), r"of shape \(8,\), got float64 \(8, 1\)"),
            (np.zeros(8, dtype=np.float32), r"of shape \(8,\), got float32 \(8,\)"),
            ([0.0] * 8, r"of shape \(8,\), got list"),
            (np.broadcast_to(0.0, (8,)), r"fitted must be a writable float64 array"),
        ],
    )
    def test_bad_fitted_is_rejected(self, fitted, match):
        x = np.arange(16.0).reshape(-1, 2)
        with pytest.raises(InvalidValueError, match=match):
            fit_tree(x, np.arange(8.0), TreeConfig(task=REGRESSION), fitted=fitted)

    def test_classification_takes_no_fitted(self):
        for width in (1, 2):
            x = np.arange(8.0 * width).reshape(-1, width)
            with pytest.raises(InvalidValueError, match="fitted applies to regression trees only, not to task 'classification'"):
                fit_tree(x, np.arange(8) % 2, TreeConfig(), fitted=np.zeros(8))

    @pytest.mark.parametrize("width", [1, 3])
    def test_strided_targets_grow_the_same_tree(self, width):
        rng = np.random.default_rng(width + 30)
        x = rng.normal(size=(300, width))
        residuals = rng.normal(size=(300, 4))
        cfg = TreeConfig(task=REGRESSION, min_leaf=3)
        strided = residuals[:, 2]
        assert not strided.flags.c_contiguous
        assert same_arrays(fit_tree(x, strided, cfg), fit_tree(x, strided.copy(), cfg))


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
    payload = {
        "feature": [0, -1, 1, -1, -1],
        "threshold": [2.0, 0.5],
        "impurity_decrease": [0.18, 0.2],
        "counts": [[4, 0], [3, 0], [3, 0]],
    }
    return tree_from_dict(payload, 2, 2)


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
        clone = tree_from_dict(payload, 3, 2)
        assert np.array_equal(tree.predict_batch(x), clone.predict_batch(x))
        assert tree_to_dict(clone) == payload
        assert all_splits(clone) == all_splits(tree)
        assert np.array_equal(tree_importance_contributions(clone), tree_importance_contributions(tree))

    def test_regression_roundtrip(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(60, 2))
        cfg = TreeConfig(task="regression_on_gradients", max_depth=3)
        tree = fit_tree(x, x[:, 0] * 2.0, cfg)
        clone = tree_from_dict(tree_to_dict(tree), 2, None)
        assert clone.n_classes is None
        assert np.array_equal(tree.predict_batch(x), clone.predict_batch(x))
        assert all_splits(clone) == all_splits(tree)

    def test_nodes_are_a_flat_preorder_list(self):
        """One feature per node in preorder (-1 for a leaf), one threshold
        and impurity decrease per split, one count row per leaf."""
        assert tree_to_dict(hand_tree()) == {
            "feature": [0, -1, 1, -1, -1],
            "threshold": [2.0, 0.5],
            "impurity_decrease": [0.18, 0.2],
            "counts": [[4, 0], [3, 0], [3, 0]],
        }

    def test_split_sizes_and_distributions_come_from_the_counts(self):
        clone = tree_from_dict(tree_to_dict(hand_tree()), 2, 2)
        assert trees._split_rows(clone).tolist() == [10, 6]
        assert clone.output.tolist() == [[1.0, 0.0]] * 3


class TestDeepTree:
    def test_depth_2499_tree_saves_loads_and_predicts(self, tmp_path):
        # One column 0..2499 with alternating labels: an unlimited tree
        # splits off one row per level, so it grows 2499 levels deep.
        x = np.arange(2500, dtype=np.float64).reshape(-1, 1)
        y = np.arange(2500) % 2
        cfg = EnsembleConfig(n_trees=1, tree=TreeConfig(max_depth=None, min_leaf=1), bootstrap=False)
        model = fit_ensemble(x, y, cfg, 0, ("s0",))
        tree, node, depth = model.trees[0], 0, 0
        while tree.feature[node] >= 0:
            node, depth = tree.right[tree.number[node]], depth + 1
        assert depth == 2499
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert np.array_equal(predict_scores(clone, x), predict_scores(model, x))
        assert np.array_equal(predict_batch(clone, x), y)
        assert path.read_text() == model_json_text(clone)


def bench_tree_counts():
    """_tree_counts of bench/spans.py, which counts the benchmark's
    trees.nodes, trees.splits and trees.leaves by walking tree.root."""
    spec = importlib.util.spec_from_file_location("spans", Path(__file__).parents[1] / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans._tree_counts


def four_trees():
    """A tree of each kind that the growers and the loader make.  Column
    "d" is constant, so no split of the multi-column trees tests it."""
    rng = np.random.default_rng(51)
    x = np.hstack([rng.normal(size=(300, 3)), np.zeros((300, 1))])
    y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0.5)
    names = ("a", "b", "c", "d")
    boosted = fit_ensemble(x, y, EnsembleConfig(method="boosting", n_trees=1), 3, names)
    bagged = fit_ensemble(x, y, EnsembleConfig(n_trees=1, tree=TreeConfig(max_depth=6)), 4, names)
    return {
        "node by node": fit_tree(x, y, TreeConfig(max_depth=5)),
        "one column, level by level": fit_tree(x[:, :1], y, TreeConfig(max_depth=5)),
        "boosting regression": boosted.trees[0],
        "reloaded": model_from_dict(json.loads(canonical_json(model_to_dict(bagged)))).trees[0],
    }


class TestRootView:
    """tree.root is a read-only node view, kept for the benchmark's walk."""

    def test_benchmark_walk_finds_the_splits_and_leaves_of_feature(self):
        tree_counts = bench_tree_counts()
        for name, tree in four_trees().items():
            splits = int((tree.feature >= 0).sum())
            assert splits >= 2, name
            assert tree_counts(tree) == {"splits": splits, "leaves": tree.feature.size - splits, "nodes": tree.feature.size}, name
            # The same walk visits every split once, in preorder, and
            # reads each split's children off the arrays.
            seen, stack = [], [tree.root]
            while stack:
                node = stack.pop()
                if hasattr(node, "split"):
                    seen.append(node.split)
                    stack += [node.right, node.left]
                else:
                    assert not hasattr(node, "left") and not hasattr(node, "right"), name
            assert seen == list(range(splits)), name


def preorder_walk(tree):
    """(paths, spans) by a recursive descent over the preorder feature
    array alone: each leaf's root-to-leaf path of (feature, threshold,
    went left) per split on the way, leaves in preorder; and each split's
    [first leaf, first leaf of its right subtree, one past its last leaf],
    splits in preorder."""
    paths, spans = [], []

    def visit(node, path):  # returns the node after the subtree
        if tree.feature[node] < 0:
            paths.append(path)
            return node + 1
        j = len(spans)
        spans.append([len(paths)])
        split = (int(tree.feature[node]), float(tree.threshold[j]))
        right = visit(node + 1, path + ((*split, True),))
        spans[j].append(len(paths))
        after = visit(right, path + ((*split, False),))
        spans[j].append(len(paths))
        return after

    assert visit(0, ()) == tree.feature.size
    return paths, spans


class TestLeafSpans:
    """The leaf spans and per-feature leaf intervals equal a walk of
    every root-to-leaf path."""

    def test_spans_are_each_splits_leaves(self):
        for name, tree in four_trees().items():
            _, spans = preorder_walk(tree)
            assert len(spans) >= 2, name
            assert np.column_stack(trees._leaf_spans(tree)).tolist() == spans, name

    def test_intervals_are_each_paths_bounds(self):
        for name, tree in four_trees().items():
            paths, _ = preorder_walk(tree)
            for f in range(tree.n_features):
                lo, hi = trees._leaf_intervals(tree, f)
                want_lo = [max([t for g, t, left in p if g == f and not left], default=-np.inf) for p in paths]
                want_hi = [min([t for g, t, left in p if g == f and left], default=np.inf) for p in paths]
                assert lo.tolist() == want_lo and hi.tolist() == want_hi, (name, f)

    def test_a_feature_no_split_tests_admits_every_value(self):
        for name, tree in four_trees().items():
            if tree.n_features == 1:
                continue
            assert 3 not in tree.feature, name  # column "d" is constant
            lo, hi = trees._leaf_intervals(tree, 3)
            assert np.all(lo == -np.inf) and np.all(hi == np.inf), name


GRID = np.arange(-4.0, 4.5, 0.5)  # thresholds and row values, so rows land on thresholds


def random_stepped_tree(rng, n_features, feature, ordered):
    """A random classification tree whose splits all test feature, with
    thresholds from GRID.  ordered keeps each threshold inside the
    interval its path admits; otherwise thresholds fall anywhere, which
    leaves some leaves unreachable, as in a hand-edited model file."""
    features, thresholds = [], []

    def grow(depth, lo, hi):
        inside = GRID[(GRID > lo) & (GRID < hi)] if ordered else GRID
        if depth >= 6 or inside.size == 0 or rng.random() < 0.25:
            features.append(-1)
            return
        t = float(rng.choice(inside))
        features.append(feature)
        thresholds.append(t)
        grow(depth + 1, lo, t)
        grow(depth + 1, t, hi)

    grow(0, -np.inf, np.inf)
    feature = np.array(features)
    leaves = int((feature < 0).sum())
    value = rng.integers(0, 3, size=(leaves, 3)) + np.eye(3, dtype=np.int64)[np.arange(leaves) % 3]
    return trees.DecisionTree(feature, np.array(thresholds), np.zeros(len(thresholds)), value.sum(axis=1),
                              value, n_features, 3)


def node_loop(tree, x, column=-1, values=None):
    """Each row's leaf number, routed one split at a time from the root;
    where a split tests column, the row reads values in place of x."""
    leaves = []
    for i, row in enumerate(x):
        node = 0
        while tree.feature[node] >= 0:
            f, j = tree.feature[node], tree.number[node]
            v = values[i] if f == column else row[f]
            node = node + 1 if v <= tree.threshold[j] else tree.right[j]
        leaves.append(tree.number[node])
    return np.array(leaves)


class TestStepRouting:
    """A tree whose splits all test one feature is routed by one sorted
    search; it must reach the leaves the node loop reaches."""

    def check(self, tree, x, rng):
        xf = np.asfortranarray(x)
        idx = np.sort(rng.choice(x.shape[0], size=x.shape[0] // 2, replace=False))
        for column in (-1, *range(x.shape[1])):
            values = rng.choice(GRID, size=x.shape[0]) + rng.choice([0.0, 0.25], size=x.shape[0])
            out = np.full(x.shape[0], -1)
            trees._reach(xf, tree, idx, out, column, values)
            want = node_loop(tree, x, column, values)
            assert np.array_equal(out.take(idx), want.take(idx)), column
            assert np.all(np.delete(out, idx) == -1), column  # rows outside idx are not written

    def test_random_trees_match_the_node_loop(self):
        rng = np.random.default_rng(33)
        unreachable = 0
        for case in range(300):
            n_features = int(rng.integers(1, 4))
            tree = random_stepped_tree(rng, n_features, int(rng.integers(0, n_features)), case % 2 == 0)
            assert tree._steps is not None, case
            lo, hi = trees._leaf_intervals(tree, tree._steps[0])
            unreachable += int((lo >= hi).sum())
            x = rng.choice(GRID, size=(40, n_features)) + rng.choice([0.0, 0.25, -0.25], size=(40, n_features))
            self.check(tree, x, rng)
        assert unreachable > 100  # the unordered trees test leaves no value reaches

    def test_out_of_order_thresholds(self):
        """Root t=0 with a left split at t=2: no value <= 0 exceeds 2, so
        leaf 1 is unreachable and the search skips it."""
        tree = trees.DecisionTree(
            np.array([0, 0, -1, -1, -1]), np.array([0.0, 2.0]), np.zeros(2), np.array([1, 1, 1]),
            np.eye(3, dtype=np.int64), 1, 3,
        )
        feature, leaves, bounds = tree._steps
        assert feature == 0 and leaves.tolist() == [0, 2] and bounds.tolist() == [0.0, np.inf]
        x = np.array([[-1.0], [0.0], [1.0], [2.0], [3.0]])
        self.check(tree, x, np.random.default_rng(0))
        out = np.empty(5, dtype=np.intp)
        trees._reach(np.asfortranarray(x), tree, np.arange(5), out)
        assert out.tolist() == [0, 0, 2, 2, 2]

    def test_grown_and_leaf_only_trees(self):
        rng = np.random.default_rng(5)
        x, y, _ = tied_table(rng, 200, 3, 0.5, 3)
        one = fit_tree(x[:, 1:2], y, TreeConfig(max_depth=6))
        several = fit_tree(x, y, TreeConfig(max_depth=6))
        stump = fit_tree(x, np.zeros(200, dtype=int), TreeConfig(), n_classes=2)
        assert one._steps is not None and stump._steps is not None
        assert np.unique(several.feature[several.feature >= 0]).size > 1 and several._steps is None
        for tree, data in ((one, x[:, 1:2]), (several, x), (stump, x)):
            self.check(tree, data, rng)
            assert np.array_equal(tree.predict_batch(data), np.array([predict_tree(tree, row) for row in data]))


def corrupt(payload, node, key, value):
    """A deep copy of a tree payload with node's entry of the array key set
    to value (removed when value is DELETE).  feature has an entry per
    node, threshold and impurity_decrease one per split, and the leaf
    arrays one per leaf.  A key the format does not store, such as the
    child index left of format 2, is added as an array with an entry per
    node."""
    payload = copy.deepcopy(payload)
    feature = payload["feature"]
    if key not in payload:
        payload[key] = [None] * len(feature)
        position = node
    elif key == "feature":
        position = node
    else:
        per_leaf = key not in ("threshold", "impurity_decrease")
        position = [j for j, f in enumerate(feature) if (f < 0) == per_leaf].index(node)
    if value is DELETE:
        del payload[key][position]
    else:
        payload[key][position] = value
    return payload


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()

NAN = float("nan")

# (node index, array, the node's bad entry or DELETE, a part of the error
# message) for hand_tree, whose nodes 0 and 2 split
BAD_NODES = [
    (0, "feature", -2, "node 0: feature must be an integer in [-1, 2), got -2"),
    (2, "feature", 2, "node 2: feature must be an integer in [-1, 2), got 2"),
    (0, "feature", 1.0, "node 0: feature must be an integer"),
    (0, "feature", True, "node 0: feature must be an integer"),
    (0, "feature", "0", "node 0: feature must be an integer"),
    (0, "feature", -1, "node 1 is no node's child: the tree ends at node 0"),
    (1, "feature", 0, "node 4: the tree ends inside a split"),
    (0, "left", 0, "a classification tree holds the arrays"),
    (0, "threshold", NAN, "node 0: threshold must be a finite number"),
    (0, "threshold", float("inf"), "node 0: threshold must be a finite number"),
    (0, "threshold", "2.0", "node 0: threshold must be a finite number"),
    (0, "threshold", None, "node 0: threshold must be a finite number"),
    (0, "threshold", DELETE, "threshold must list 2 numbers, got 1"),
    (2, "impurity_decrease", -float("inf"), "node 2: impurity_decrease must be a finite number"),
    (1, "counts", [1], "node 1: counts must list 2 class counts"),
    (1, "counts", [1, 0, 0], "node 1: counts must list 2 class counts"),
    (1, "counts", "ab", "node 1: counts must list 2 class counts"),
    (4, "counts", [1, NAN], "node 4: counts must be an integer"),
    (1, "counts", [4, -1], "node 1: counts must be an integer in [0, 9007199254740992), got -1"),
    (3, "counts", [2.5, 1], "node 3: counts must be an integer"),
    (3, "counts", [3.0, 0], "node 3: counts must be an integer"),
    (4, "counts", [False, 3], "node 4: counts must be an integer"),
    (3, "counts", [0, 0], "node 3: counts hold no training row"),
    (1, "counts", DELETE, "counts must list 3 rows, one per leaf"),
]


class TestDecodeChecks:
    """tree_from_dict rejects every tree that could not be routed or read,
    with a ModelFormatError naming the node where there is one."""

    def setup_method(self):
        self.payload = tree_to_dict(hand_tree())

    def decode(self, payload, n_classes=2):
        return tree_from_dict(payload, 2, n_classes)

    @pytest.mark.parametrize(
        "index, key, value, message",
        BAD_NODES,
        ids=[f"node{index}-{key}-{value!r}" for index, key, value, _ in BAD_NODES],
    )
    def test_bad_node_rejected(self, index, key, value, message):
        with pytest.raises(ModelFormatError) as info:
            self.decode(corrupt(self.payload, index, key, value))
        assert message in str(info.value)

    def test_orphan_node_rejected(self):
        payload = copy.deepcopy(self.payload)
        payload["feature"].append(-1)
        payload["counts"].append([1, 0])
        with pytest.raises(ModelFormatError, match="node 5 is no node's child"):
            self.decode(payload)

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
        """The model stores config, n_features and n_classes once, and a
        tree is arrays, not a node list: a tree that still carries one of
        these per-tree fields is rejected, whatever its value."""
        payload = copy.deepcopy(self.payload)
        payload[key] = value
        with pytest.raises(ModelFormatError, match="a classification tree holds the arrays"):
            self.decode(payload)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            pytest.param("feature", [], "feature must be a non-empty list", id="empty-feature"),
            pytest.param("feature", {}, "feature must be a non-empty list", id="feature-dict"),
            pytest.param("threshold", {}, "threshold must list 2 numbers, got dict", id="threshold-dict"),
            pytest.param("threshold", [2.0, 0.5, 1.0], "threshold must list 2 numbers, got 3", id="extra-threshold"),
            pytest.param("counts", None, "counts must list 3 rows", id="counts-None"),
            pytest.param("gain", [1.8, 1.2], "a classification tree holds the arrays", id="gain-array"),
            pytest.param("value", [0.5, 0.5, 0.5], "a classification tree holds the arrays", id="value-array"),
            pytest.param("counts", DELETE, "a classification tree holds the arrays", id="counts-missing"),
        ],
    )
    def test_bad_tree_array_rejected(self, key, value, message):
        payload = copy.deepcopy(self.payload)
        if value is DELETE:
            del payload[key]
        else:
            payload[key] = value
        with pytest.raises(ModelFormatError, match=message):
            self.decode(payload)

    def test_model_facts_bound_the_arrays(self):
        """The model's feature and class counts are the bounds: the same
        arrays fail under one feature or three classes."""
        with pytest.raises(ModelFormatError, match=r"node 2: feature must be an integer in \[-1, 1\)"):
            tree_from_dict(self.payload, 1, 2)
        with pytest.raises(ModelFormatError, match="node 1: counts must list 3 class counts"):
            self.decode(self.payload, n_classes=3)

    def test_regression_tree_needs_null_classes_and_finite_values(self):
        """A regression tree holds a value and n_samples per leaf, and no
        class counts."""
        rng = np.random.default_rng(43)
        x = rng.normal(size=(40, 2))
        cfg = TreeConfig(task="regression_on_gradients", max_depth=2)
        payload = tree_to_dict(fit_tree(x, x[:, 0], cfg))
        leaf = payload["feature"].index(-1)
        with pytest.raises(ModelFormatError, match=f"node {leaf}: value must be a finite number"):
            tree_from_dict(corrupt(payload, leaf, "value", float("inf")), 2, None)
        with pytest.raises(ModelFormatError, match=rf"node {leaf}: n_samples must be an integer in \[1,"):
            tree_from_dict(corrupt(payload, leaf, "n_samples", 0), 2, None)
        payload["counts"] = [[1, 0]] * len(payload["value"])
        with pytest.raises(ModelFormatError, match="a regression_on_gradients tree holds the arrays"):
            tree_from_dict(payload, 2, None)
