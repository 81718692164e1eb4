"""Self-checks of the benchmark's tracing and its refusal to run without
the package.  From the repository root:

    python3 -m pytest bench -q

Each workload runs its set-up and one traced operation, about 40 s in all.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS

SEED = 7

STUDY_OP = {
    "dataset.Dataset.class_counts",
    "dataset.Dataset.select_sensors",
    "dataset.Dataset.sensor_index",
    "dataset.Dataset.take_rows",
    "dataset.split_train_test",
    "dataset.undersample_majority",
    "ensembles.EnsembleModel.check_schema",
    "ensembles.evaluate",
    "ensembles.feature_importance",
    "ensembles.fit_ensemble",
    "ensembles.model_to_dict",
    "ensembles.predict_batch",
    "ensembles.predict_scores",
    "ensembles.rank_features",
    "ensembles.schema_fingerprint",
    "fileio.atomic_write_text",
    "fileio.canonical_json",
    "fileio.write_csv_rows",
    "fileio.write_json",
    "metrics.ClassReport.to_csv_rows",
    "metrics.ClassReport.to_json_dict",
    "metrics.accuracy",
    "metrics.build_report",
    "metrics.confusion_matrix",
    "metrics.per_class_scores",
    "pipeline.PipelineConfig.ensemble_config",
    "pipeline.PipelineConfig.to_json_dict",
    "pipeline.parse_config",
    "pipeline.run_pipeline",
    "robustness.NoiseSpec.label",
    "robustness.RobustnessReport.to_csv_rows",
    "robustness.RobustnessReport.to_json_dict",
    "robustness.awgn_for",
    "robustness.fail_sensor",
    "robustness.inject_awgn",
    "robustness.noise_power_for_snr",
    "robustness.run_scenarios",
    "robustness.signal_power",
    "selection.RfaTrace.to_csv_rows",
    "selection.RfaTrace.to_json_dict",
    "selection.run_rfa",
    "simgen.generate_dataset",
    "trees.DecisionTree.predict_batch",
    "trees.fit_tree",
    "trees.tree_importance_contributions",
    "trees.tree_to_dict",
}

# workload -> (names its set-up must record, names its operation must record)
EXPECTED = {
    "study-bagging": (set(), STUDY_OP),
    "study-boosting": (set(), STUDY_OP),
    "score-recorded": (
        {
            "dataset.write_csv",
            "ensembles.fit_ensemble",
            "ensembles.model_to_dict",
            "ensembles.save_model",
            "simgen.generate_dataset",
            "trees.fit_tree",
        },
        {
            "dataset.Dataset.sensor_index",
            "dataset.load_dataset",
            "ensembles.EnsembleModel.check_schema",
            "ensembles.evaluate",
            "ensembles.feature_importance",
            "ensembles.load_model",
            "ensembles.model_from_dict",
            "ensembles.predict_batch",
            "ensembles.predict_scores",
            "ensembles.rank_features",
            "fileio.atomic_write_text",
            "fileio.canonical_json",
            "fileio.write_json",
            "metrics.build_report",
            "robustness.RobustnessReport.to_json_dict",
            "robustness.awgn_for",
            "robustness.fail_sensor",
            "robustness.inject_awgn",
            "robustness.run_scenarios",
            "trees.DecisionTree.predict_batch",
            "trees.tree_from_dict",
            "trees.tree_importance_contributions",
        },
    ),
}

# Public callables that no workload calls: they are wrapped, but nothing
# measures them.
UNMEASURED = {
    "ensembles.model_json_text",
    "ensembles.predict",
    "metrics.macro_f1",
    "trees.gini_impurity",
    "trees.predict_tree",
}

# Neither phase may record these on the named workload.
ABSENT = {"score-recorded": {"trees.fit_tree", "ensembles.fit_ensemble"}}


@pytest.fixture(scope="module")
def fdd():
    return run.load_package()


@pytest.fixture(scope="module")
def traced(fdd, tmp_path_factory):
    """workload -> (tracer, loop) after a traced set-up and one traced
    operation."""
    out = {}
    for name, workload in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        tracer = spans.Tracer()
        tracer.install(fdd)
        try:
            with tracer.operation("setup"):
                workload.setup(fdd, SEED, work)
            loop = run.Loop(fdd, workload, workload.inputs(SEED, work), work)
            loop.run(0, tracer)
        finally:
            tracer.uninstall()
        tracer.finish()
        out[name] = (tracer, loop)
    return out


def names(tracer, op) -> set[str]:
    return {s.name for s in tracer.spans if s.op == op}


def test_every_public_callable_is_assigned_to_a_workload(fdd):
    tracer = spans.Tracer()
    wrapped = set(tracer.install(fdd))
    tracer.uninstall()
    assigned = set(UNMEASURED)
    for setup, op in EXPECTED.values():
        assigned |= setup | op
    assert wrapped - assigned == set(), "new public callables need a workload or UNMEASURED"
    assert assigned - wrapped == set(), "listed callables are no longer public"


def test_uninstall_restores_every_binding(fdd):
    before = (fdd.trees.fit_tree, fdd.ensembles.fit_tree, fdd.pipeline.fit_ensemble,
              fdd.DecisionTree.predict_batch, fdd.run_pipeline)
    tracer = spans.Tracer()
    tracer.install(fdd)
    assert fdd.ensembles.fit_tree is fdd.trees.fit_tree
    assert fdd.ensembles.fit_tree is not before[0]
    assert fdd.pipeline.fit_ensemble is fdd.ensembles.fit_ensemble
    tracer.uninstall()
    after = (fdd.trees.fit_tree, fdd.ensembles.fit_tree, fdd.pipeline.fit_ensemble,
             fdd.DecisionTree.predict_batch, fdd.run_pipeline)
    assert all(a is b for a, b in zip(before, after))


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_each_callable_records_spans_on_its_workload(traced, workload):
    tracer, loop = traced[workload]
    assert loop.failed == 0, loop.problems
    setup, op = EXPECTED[workload]
    assert setup - names(tracer, "setup") == set()
    assert op - names(tracer, 0) == set()
    for name in ABSENT.get(workload, ()):
        assert name not in names(tracer, 0)


@pytest.mark.parametrize(
    "workload, task",
    [("study-bagging", "classification"), ("study-boosting", "regression_on_gradients")],
)
def test_fit_tree_spans_carry_the_scan_each_study_measures(traced, workload, task):
    tracer, _ = traced[workload]
    tasks = {s.attrs["task"] for s in tracer.spans if s.op == 0 and s.name == spans.FIT_TREE}
    assert task in tasks


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_top_level_spans_account_for_the_operation(traced, workload):
    tracer, _ = traced[workload]
    view = spans.views(tracer.spans)[0]
    metrics = spans.op_metrics(view)
    assert metrics["trace.attributed_ratio"] >= 1.0 - run.ATTRIBUTION_TOLERANCE
    top = view.children[view.root.id]
    own = view.self_time(spans.OP_SPAN)
    assert sum(s.duration for s in top) + own == pytest.approx(view.wall, rel=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "study-bagging",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
