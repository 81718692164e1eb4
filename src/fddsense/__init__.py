"""Tree-ensemble fault detection for a 40-sensor CO2 refrigeration rig.

The library covers the full study workflow: synthetic data generation,
class rebalancing and splitting, CART tree and ensemble training,
per-sensor importance ranking, greedy sensor-set selection by recursive
feature addition, and robustness checks under SNR-controlled noise or
total sensor failure.
"""

from .dataset import (
    FAULT_CLASSES,
    INSTALLED_SENSORS,
    Dataset,
    FaultClass,
    SensorMeta,
    load_dataset,
    split_train_test,
    undersample_majority,
    write_csv,
)
from .ensembles import (
    EnsembleConfig,
    EnsembleModel,
    evaluate,
    feature_importance,
    fit_ensemble,
    load_model,
    predict,
    predict_batch,
    predict_scores,
    rank_features,
    save_model,
)
from .errors import FddError
from .metrics import ClassReport, build_report, confusion_matrix, macro_f1, per_class_scores
from .pipeline import PipelineConfig, PipelineResult, parse_config, run_pipeline
from .robustness import (
    NoiseSpec,
    RobustnessReport,
    fail_sensor,
    inject_awgn,
    noise_power_for_snr,
    run_scenarios,
    signal_power,
)
from .seeding import derive_seed
from .selection import RfaConfig, RfaTrace, run_rfa
from .simgen import GeneratorConfig, generate_dataset
from .trees import DecisionTree, TreeConfig, fit_tree, gini_impurity, predict_tree

__version__ = "0.1.0"

__all__ = [
    "FAULT_CLASSES",
    "INSTALLED_SENSORS",
    "ClassReport",
    "Dataset",
    "DecisionTree",
    "EnsembleConfig",
    "EnsembleModel",
    "FaultClass",
    "FddError",
    "GeneratorConfig",
    "NoiseSpec",
    "PipelineConfig",
    "PipelineResult",
    "RfaConfig",
    "RfaTrace",
    "RobustnessReport",
    "SensorMeta",
    "TreeConfig",
    "build_report",
    "confusion_matrix",
    "derive_seed",
    "evaluate",
    "fail_sensor",
    "feature_importance",
    "fit_ensemble",
    "fit_tree",
    "generate_dataset",
    "gini_impurity",
    "inject_awgn",
    "load_dataset",
    "load_model",
    "macro_f1",
    "noise_power_for_snr",
    "parse_config",
    "per_class_scores",
    "predict",
    "predict_batch",
    "predict_scores",
    "predict_tree",
    "rank_features",
    "run_pipeline",
    "run_rfa",
    "run_scenarios",
    "save_model",
    "signal_power",
    "split_train_test",
    "undersample_majority",
    "write_csv",
]
