"""Acceptance checklist for the package.

Seven numbered criteria, each printing exactly one PASS or FAIL line so
the suite doubles as a release gate readout.  Tolerances are pinned in
each test body; the timed criteria use wall-clock budgets generous
enough for slow CI hosts.
"""

import contextlib
import time

import numpy as np

from fddsense.ensembles import (
    EnsembleConfig,
    EnsembleModel,
    feature_importance,
    fit_ensemble,
    model_to_dict,
    predict_batch,
)
from fddsense.fileio import canonical_json
from fddsense.metrics import macro_f1
from fddsense.pipeline import parse_config, run_pipeline
from fddsense.robustness import awgn_for, signal_power
from fddsense.seeding import derive_seed
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

from oracle_trees import oracle_fit, random_case


@contextlib.contextmanager
def verdict(capsys, number, title):
    """Print one PASS/FAIL line per criterion, even under capture."""
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"FAIL: criterion {number} - {title}")
        raise
    with capsys.disabled():
        print(f"PASS: criterion {number} - {title}")


def same_tree(node, ref):
    if ref["kind"] == "leaf":
        assert isinstance(node, Leaf)
        assert list(node.distribution) == ref["distribution"]
    else:
        assert isinstance(node, Internal)
        assert node.split.feature_index == ref["feature"]
        assert node.split.threshold == ref["threshold"]
        same_tree(node.left, ref["left"])
        same_tree(node.right, ref["right"])


def test_criterion_1_exact_splitter_matches_oracle(capsys):
    with verdict(capsys, 1, "exact splitter agrees with brute-force oracle"):
        assert abs(gini_impurity(np.array([5, 0])) - 0.0) <= 1e-15
        assert abs(gini_impurity(np.array([5, 5])) - 0.5) <= 1e-15
        assert abs(gini_impurity(np.array([2, 2, 2])) - 2.0 / 3.0) <= 1e-15

        start = time.perf_counter()
        rng = np.random.default_rng(77)
        for case in range(200):
            rows, labels = random_case(rng)
            min_leaf = 1 if case % 3 else 2
            max_depth = None if case % 4 else 2
            cfg = TreeConfig(max_depth=max_depth, min_leaf=min_leaf)
            tree = fit_tree(np.array(rows), np.array(labels), cfg, n_classes=3)
            ref = oracle_fit(rows, labels, max_depth=max_depth, min_leaf=min_leaf, n_classes=3)
            same_tree(tree.root, ref)
        assert time.perf_counter() - start < 5.0


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


def test_criterion_2_importance_matches_hand_calculations(capsys):
    with verdict(capsys, 2, "importance scores match hand calculations"):
        # Model A: tree 1 splits f0 at the root then f1 on its 6-row right
        # child; tree 2 splits f1 at the root then f0 on its 5-row left child.
        model_a = _model(
            [
                _tree(
                    Internal(
                        split=SplitCandidate(0, 2.0, 0.18, 1.8, 4, 6),
                        left=_leaf(4),
                        right=Internal(
                            split=SplitCandidate(1, 0.5, 0.2, 1.2, 3, 3),
                            left=_leaf(3),
                            right=_leaf(3),
                        ),
                    )
                ),
                _tree(
                    Internal(
                        split=SplitCandidate(1, 1.0, 0.3, 3.0, 5, 5),
                        left=Internal(
                            split=SplitCandidate(0, 4.0, 0.1, 0.5, 2, 3),
                            left=_leaf(2),
                            right=_leaf(3),
                        ),
                        right=_leaf(5),
                    )
                ),
            ]
        )
        out = feature_importance(model_a)
        assert abs(out[0] - (1.0 * 0.18 + 0.5 * 0.1) / 2) <= 1e-12
        assert abs(out[1] - (0.6 * 0.2 + 1.0 * 0.3) / 2) <= 1e-12

        # Model B: both trees split only f0, the second twice.
        model_b = _model(
            [
                _tree(
                    Internal(
                        split=SplitCandidate(0, 1.0, 0.5, 5.0, 5, 5),
                        left=_leaf(5),
                        right=_leaf(5),
                    )
                ),
                _tree(
                    Internal(
                        split=SplitCandidate(0, 2.0, 0.25, 2.5, 4, 6),
                        left=Internal(
                            split=SplitCandidate(0, 0.5, 0.2, 0.8, 2, 2),
                            left=_leaf(2),
                            right=_leaf(2),
                        ),
                        right=_leaf(6),
                    )
                ),
            ]
        )
        out = feature_importance(model_b)
        assert abs(out[0] - (0.5 + (0.25 + 0.4 * 0.2)) / 2) <= 1e-12
        assert out[1] == 0.0

        d = generate_dataset(GeneratorConfig(n_rows=600), 11)
        d = d.select_sensors([d.sensor_index(s) for s in ("T_FI", "T_FO", "T_C", "W6")])
        boosted = fit_ensemble(
            d.values,
            d.labels,
            EnsembleConfig(
                method="boosting", n_trees=2, tree=TreeConfig(max_depth=4, task="regression_on_gradients")
            ),
            master_seed=5,
            feature_names=d.symbols,
        )
        splits = 0
        for tree in boosted.trees:
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if isinstance(node, Internal):
                    splits += 1
                    stack += [node.left, node.right]
        assert splits >= 1
        boosted_importance = feature_importance(boosted)
        assert np.isfinite(boosted_importance).all()
        assert (boosted_importance >= 0).all() and boosted_importance.any()


def test_criterion_3_macro_f1_hand_values_and_invariances(capsys):
    with verdict(capsys, 3, "macro-F1 matches hand values and is invariant"):
        hand = [
            ([[3, 0], [0, 2]], 1.0),
            ([[0, 3], [2, 0]], 0.0),
            ([[5, 0], [5, 0]], ((2 * 0.5 * 1.0 / 1.5) + 0.0) / 2),
            ([[2, 1, 0], [0, 3, 1], [1, 0, 2]], (2 / 3 + 3 / 4 + 2 / 3) / 3),
            ([[4, 0, 0], [1, 0, 0], [0, 0, 0]], (2 * 0.8 * 1.0 / 1.8) / 3),
        ]
        for matrix, expected in hand:
            assert abs(macro_f1(np.array(matrix)) - expected) <= 1e-12

        rng = np.random.default_rng(99)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            cm = rng.integers(0, 20, size=(k, k)).astype(np.int64)
            base = macro_f1(cm)
            perm = rng.permutation(k)
            assert abs(macro_f1(cm[np.ix_(perm, perm)]) - base) <= 1e-12
            scale = int(rng.integers(2, 10))
            assert abs(macro_f1(cm * scale) - base) <= 1e-12


def test_criterion_4_awgn_hits_snr_targets(capsys):
    with verdict(capsys, 4, "noise injection lands on its SNR targets"):
        start = time.perf_counter()
        rng = np.random.default_rng(41)
        x = rng.normal(25.0, 1.0, size=100_000)
        for target in (0.0, 3.0, 10.0):
            noisy, measured = awgn_for(x, target, seed=derive_seed(41, target))
            assert abs(measured - target) <= 0.1
            if target == 3.0:
                ratio = signal_power(x) / signal_power(noisy - x)
                assert 1.9 <= ratio <= 2.1
        assert time.perf_counter() - start < 2.0


def test_criterion_5_degenerate_ensemble_equals_single_tree(capsys):
    with verdict(capsys, 5, "one-tree ensemble without bootstrap equals a plain tree"):
        train = generate_dataset(GeneratorConfig(n_rows=1500), 21)
        probe = generate_dataset(GeneratorConfig(n_rows=1000), 22)
        cfg = EnsembleConfig(
            method="bagging",
            n_trees=1,
            tree=TreeConfig(max_depth=8, feature_subsample=None),
            bootstrap=False,
        )
        model = fit_ensemble(train.values, train.labels, cfg, 9, train.symbols)
        tree = fit_tree(train.values, train.labels, cfg.tree, rng_seed=0, n_classes=train.n_classes)
        assert np.array_equal(
            predict_batch(model, probe.values),
            np.argmax(tree.predict_batch(probe.values), axis=1),
        )


def test_criterion_6_pipeline_selection_and_noise_ordering(capsys, tmp_path):
    with verdict(capsys, 6, "pipeline selects few sensors and degrades in SNR order"):
        start = time.perf_counter()
        f1_by_snr = {10.0: [], 3.0: [], 0.0: []}
        for seed in range(5):
            cfg = parse_config(None, {"seed": seed, "out_dir": str(tmp_path / f"run{seed}")})
            assert cfg.generator.n_rows == 20_000 and cfg.rfa.threshold == 0.99
            result = run_pipeline(cfg)

            assert result.trace.threshold_met
            assert len(result.trace.selected) <= 8

            top4 = set(result.trace.ranking[:4])
            assert len(top4 & {"T_FI", "T_FO", "T_C"}) >= 2

            baseline = result.robustness.baseline.macro_f1
            for sc in result.robustness.scenarios:
                if sc.spec.mode == "awgn":
                    f1_by_snr[sc.spec.snr_db].append(sc.macro_f1)
                else:
                    assert sc.macro_f1 < baseline
        mean = {snr: float(np.mean(vals)) for snr, vals in f1_by_snr.items()}
        assert all(len(vals) == 5 for vals in f1_by_snr.values())
        assert mean[10.0] + 0.02 >= mean[3.0]
        assert mean[3.0] >= mean[0.0] - 0.02
        assert time.perf_counter() - start < 120.0


def test_criterion_7_reruns_are_byte_identical(capsys, tmp_path):
    with verdict(capsys, 7, "reruns and thread counts leave artifacts byte-identical"):
        cfg_a = parse_config(None, {"seed": 0, "out_dir": str(tmp_path / "a"), "n_threads": 1})
        cfg_b = parse_config(None, {"seed": 0, "out_dir": str(tmp_path / "b"), "n_threads": 4})
        a = run_pipeline(cfg_a)
        b = run_pipeline(cfg_b)
        assert set(a.artifact_paths) == set(b.artifact_paths)
        for name, path_a in sorted(a.artifact_paths.items()):
            if path_a.suffix not in (".json", ".csv"):
                continue
            assert path_a.read_bytes() == b.artifact_paths[name].read_bytes(), name

        d = generate_dataset(GeneratorConfig(n_rows=900), 4)
        d = d.select_sensors([d.sensor_index(s) for s in ("T_FI", "T_FO", "T_C", "W6")])
        cfg = EnsembleConfig(n_trees=6, tree=TreeConfig(max_depth=5, feature_subsample=2))
        one = fit_ensemble(d.values, d.labels, cfg, 7, d.symbols, n_threads=1)
        many = fit_ensemble(d.values, d.labels, cfg, 7, d.symbols, n_threads=4)
        assert canonical_json(model_to_dict(one)) == canonical_json(model_to_dict(many))
