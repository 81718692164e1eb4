"""Tree ensembles: bootstrap-aggregated classifiers and additive boosting.

Bagging grows independent classification trees on bootstrap resamples and
averages leaf distributions (soft voting by default, majority voting on
request).  Boosting grows one regression tree per class per round on the
negative gradient of the softmax cross-entropy, starting from per-class
log-prior scores; it is first-order only, with a plain learning rate and
no per-leaf regularisation.

Every tree's randomness is derived from (master_seed, tree position), so
training is reproducible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataset import FAULT_CLASSES, Dataset
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidValueError,
    ModelFormatError,
    SchemaMismatchError,
    SingleClassError,
)
from .fileio import _check_kind, _of_kind, _read_json, canonical_json, write_json
from .metrics import ClassReport, build_report
from .seeding import derive_seed
from .trees import (
    CLASSIFICATION,
    REGRESSION,
    SQRT,
    DecisionTree,
    TreeConfig,
    _class_ids,
    fit_tree,
    tree_from_dict,
    tree_importance_contributions,
    tree_to_dict,
)

BAGGING = "bagging"
BOOSTING = "boosting"

MODEL_FORMAT_VERSION = 3


@dataclass(frozen=True)
class EnsembleConfig:
    """Training recipe for one ensemble.

    n_trees counts trees for bagging and boosting rounds (each round adds
    one tree per class).  bootstrap applies to bagging only; boosting
    always fits on the full sample.  hard_vote switches bagging from
    distribution averaging to majority voting.
    """

    method: str = BAGGING
    n_trees: int = 30
    tree: TreeConfig = field(default_factory=TreeConfig)
    bootstrap: bool = True
    learning_rate: float = 0.3
    hard_vote: bool = False

    def __post_init__(self):
        if self.method not in (BAGGING, BOOSTING):
            raise InvalidValueError(f'method is an unknown ensemble method: {self.method!r}; expected "bagging" or "boosting"')
        _check_kind("n_trees", self.n_trees, int)
        _check_kind("tree", self.tree, TreeConfig)
        _check_kind("bootstrap", self.bootstrap, bool)
        _check_kind("learning_rate", self.learning_rate, float)
        _check_kind("hard_vote", self.hard_vote, bool)
        if self.n_trees < 1:
            raise InvalidValueError("n_trees must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise InvalidValueError("learning_rate must be in (0, 1]")
        if self.method == BOOSTING and self.hard_vote:
            raise InvalidValueError("hard_vote applies to bagging only")


def schema_fingerprint(feature_names: tuple[str, ...]) -> str:
    """The sensor names' derive_seed hash, as 16 hex digits."""
    return derive_seed(*feature_names).to_bytes(8, "little").hex()


@dataclass
class EnsembleModel:
    """A fitted ensemble plus the schema it was trained on.

    For boosting, trees are stored flat in (round, class) order, so tree
    r * n_classes + k is round r's tree for class k.
    """

    config: EnsembleConfig
    trees: list[DecisionTree]
    n_classes: int
    feature_names: tuple[str, ...]
    base_scores: np.ndarray | None = None  # boosting log priors, else None
    master_seed: int = 0

    @property
    def fingerprint(self) -> str:
        return schema_fingerprint(self.feature_names)

    def check_schema(self, feature_names: tuple[str, ...]) -> None:
        if tuple(feature_names) != self.feature_names:
            raise SchemaMismatchError(
                "model was trained on a different sensor set: "
                f"{self.feature_names} vs {tuple(feature_names)}"
            )


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _fit_bagged_tree(x, y, cfg: EnsembleConfig, master_seed: int, index: int, n_classes: int) -> DecisionTree:
    """Tree index of a bagged ensemble.  A bootstrap draws n rows with
    replacement, about 63% of them distinct; the tree grows on the
    distinct rows, each counted as often as it was drawn (fit_tree's
    repeats), which is the tree of the drawn rows themselves."""
    repeats = None
    if cfg.bootstrap:
        rng = np.random.default_rng(derive_seed(master_seed, index, "bootstrap"))
        drawn = np.bincount(rng.integers(0, x.shape[0], size=x.shape[0]), minlength=x.shape[0])
        rows = drawn.nonzero()[0]
        # Gather the rows straight into column-major order, the layout
        # fit_tree reads, so that it makes no second copy of them.
        x, y, repeats = x.T.take(rows, axis=1).T, y[rows], drawn[rows]
    return fit_tree(
        x, y, cfg.tree, rng_seed=derive_seed(master_seed, index, "grow"), n_classes=n_classes, repeats=repeats
    )


def fit_ensemble(
    x: np.ndarray,
    y: np.ndarray,
    cfg: EnsembleConfig,
    master_seed: int,
    feature_names: tuple[str, ...],
    n_classes: int | None = None,
) -> EnsembleModel:
    """Train an ensemble on (x, y).

    Args:
        x: (n, f) finite feature matrix with columns matching
            feature_names, f >= 1 (EmptyInputError otherwise).
        y: integer class ids in [0, n_classes); any other label is a
            LabelOutOfRangeError that names its row.
        cfg: ensemble recipe.
        master_seed: root of all derived per-tree seeds.
        feature_names: column symbols, stored for schema checks.
        n_classes: class count; inferred from y when None.

    Returns:
        EnsembleModel ready for prediction and importance queries.  Its
        config.tree has the task its trees were grown with: classification
        for bagging, regression on gradients for boosting.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DimensionMismatchError(
            f"x {x.shape} and y {y.shape} disagree on the row count"
        )
    if x.shape[1] != len(feature_names):
        raise DimensionMismatchError(
            f"{x.shape[1]} columns but {len(feature_names)} feature names"
        )
    if x.shape[1] == 0:
        raise EmptyInputError(f"x has shape {x.shape}: a model needs at least one sensor column")
    y, n_classes = _class_ids(y, n_classes)
    if np.unique(y).size < 2:
        raise SingleClassError(f"training labels hold {np.unique(y).size} class(es): a model needs 2")
    feature_names = tuple(feature_names)
    task = CLASSIFICATION if cfg.method == BAGGING else REGRESSION
    cfg = replace(cfg, tree=replace(cfg.tree, task=task))

    if cfg.method == BAGGING:
        return EnsembleModel(
            config=cfg,
            trees=[_fit_bagged_tree(x, y, cfg, master_seed, i, n_classes) for i in range(cfg.n_trees)],
            n_classes=n_classes,
            feature_names=feature_names,
            master_seed=master_seed,
        )

    # Boosting: additive softmax model, one regression tree per class per
    # round, fitted to residuals onehot - p.
    x = np.asfortranarray(x)  # once, so that no fit_tree below copies it
    counts = np.bincount(y, minlength=n_classes).astype(np.float64)
    priors = np.where(counts > 0, counts, 0.5) / y.shape[0]
    base_scores = np.log(priors)
    scores = np.tile(base_scores, (x.shape[0], 1))
    onehot = np.zeros((x.shape[0], n_classes), dtype=np.float64)
    onehot[np.arange(x.shape[0]), y] = 1.0
    trees: list[DecisionTree] = []
    fitted = np.empty(x.shape[0])  # each tree's leaf value per training row
    for round_index in range(cfg.n_trees):
        probs = _softmax(scores)
        residuals = onehot - probs
        for k in range(n_classes):
            tree = fit_tree(
                x,
                residuals[:, k],
                cfg.tree,
                rng_seed=derive_seed(master_seed, "boost", round_index, k),
                fitted=fitted,
            )
            trees.append(tree)
            scores[:, k] += cfg.learning_rate * fitted
    return EnsembleModel(
        config=cfg,
        trees=trees,
        n_classes=n_classes,
        feature_names=feature_names,
        base_scores=base_scores,
        master_seed=master_seed,
    )


def predict_scores(model: EnsembleModel, x: np.ndarray) -> np.ndarray:
    """(n, K) per-class scores.

    Bagging returns averaged leaf distributions (or vote fractions under
    hard_vote); boosting returns softmax probabilities of the additive
    scores.  Rows sum to 1 either way.  The trees' leaf outputs are
    combined by _combine, which the robustness scenarios also use, so a
    scenario scores bit-equal to predict_scores on its perturbed rows.

    x may have any memory layout.  It is copied to column-major
    (Fortran) order at most once here, not once per tree, and
    column-major float64 input, such as any Dataset's values, is routed
    without a copy.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatchError("prediction input must be a 2-D matrix")
    x = np.asfortranarray(x)
    return _combine(model, x.shape[0], (tree.predict_batch(x) for tree in model.trees))


def _combine(model: EnsembleModel, n: int, outputs) -> np.ndarray:
    """(n, K) scores from outputs, which yields each tree's leaf outputs
    for the n rows in model.trees order: the one combiner of
    predict_scores and the robustness scenarios."""
    if model.config.method == BAGGING:
        # Each tree's (n, K) outputs are dropped before the next tree's
        # are made, so two of them are never held at once.
        if model.config.hard_vote:
            votes = np.zeros((n, model.n_classes), dtype=np.float64)
            for out in outputs:
                votes[np.arange(n), np.argmax(out, axis=1)] += 1.0
                del out
            return votes / len(model.trees)
        total = np.zeros((n, model.n_classes), dtype=np.float64)
        for out in outputs:
            total += out
            del out
        return total / len(model.trees)
    scores = np.tile(model.base_scores, (n, 1))
    for flat_index, out in enumerate(outputs):
        k = flat_index % model.n_classes
        scores[:, k] += model.config.learning_rate * out
    return _softmax(scores)


def predict_batch(model: EnsembleModel, x: np.ndarray) -> np.ndarray:
    """Predicted class ids; score ties resolve to the lowest class id."""
    return np.argmax(predict_scores(model, x), axis=1).astype(np.int64)


def predict(model: EnsembleModel, row) -> int:
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise DimensionMismatchError("predict takes a single 1-D row")
    return int(predict_batch(model, row[None, :])[0])


def feature_importance(model: EnsembleModel) -> np.ndarray:
    """Per-feature importance vector aligned with model.feature_names: the
    mean over trees of the sample-weighted impurity decreases accumulated
    at each tree's splits (mean decrease in impurity)."""
    total = np.zeros(len(model.feature_names), dtype=np.float64)
    for tree in model.trees:
        total += tree_importance_contributions(tree)
    return total / len(model.trees)


def rank_features(model: EnsembleModel) -> list[tuple[str, float]]:
    """(symbol, importance) pairs sorted by importance descending; equal
    importances keep schema order."""
    values = feature_importance(model)
    order = np.argsort(-values, kind="stable")
    return [(model.feature_names[i], float(values[i])) for i in order]


def evaluate(model: EnsembleModel, data: Dataset) -> ClassReport:
    """Score the model on a labelled dataset with matching schema."""
    model.check_schema(data.symbols)
    return _report(model, data.labels, predict_batch(model, data.values))


def _rescore(model: EnsembleModel, labels: np.ndarray, outputs) -> ClassReport:
    """evaluate's report for rows with these labels, from each tree's
    leaf outputs for those rows (as _combine takes them)."""
    scores = _combine(model, labels.size, outputs)
    return _report(model, labels, np.argmax(scores, axis=1).astype(np.int64))


def _report(model: EnsembleModel, labels: np.ndarray, predicted: np.ndarray) -> ClassReport:
    """evaluate's report of predicted class ids against labels."""
    if model.n_classes <= len(FAULT_CLASSES):
        names = tuple(fc.name for fc in FAULT_CLASSES[: model.n_classes])
    else:
        names = tuple(f"class_{k}" for k in range(model.n_classes))
    return build_report(labels, predicted, names)


# The keys model_to_dict writes, the only ones model_from_dict accepts.
_MODEL_KEYS = {"format_version", "method", "n_trees", "bootstrap", "learning_rate", "hard_vote", "tree_config",
               "n_classes", "feature_names", "fingerprint", "master_seed", "base_scores", "trees"}


def model_to_dict(model: EnsembleModel) -> dict:
    cfg = model.config
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "method": cfg.method,
        "n_trees": cfg.n_trees,
        "bootstrap": cfg.bootstrap,
        "learning_rate": cfg.learning_rate,
        "hard_vote": cfg.hard_vote,
        "tree_config": asdict(cfg.tree),
        "n_classes": model.n_classes,
        "feature_names": list(model.feature_names),
        "fingerprint": model.fingerprint,
        "master_seed": model.master_seed,
        "base_scores": None
        if model.base_scores is None
        else [float(v) for v in model.base_scores],
        "trees": [tree_to_dict(tree) for tree in model.trees],
    }


def model_from_dict(payload: dict) -> EnsembleModel:
    """Inverse of model_to_dict.  The whole model is checked here, so that
    a model that loads also predicts.

    Raises:
        ModelFormatError: a format_version other than MODEL_FORMAT_VERSION,
            a key that model_to_dict does not write, a missing, wrong-typed
            or out-of-range field, a fingerprint that does not match
            feature_names, a tree_config task that is not the method's, a
            tree count other than n_trees (bagging) or n_trees * n_classes
            (boosting), or a tree that tree_from_dict rejects, named
            trees[i].
    """
    try:
        version = payload["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model format_version {version!r}: retrain the model")
        unknown = sorted(map(str, payload.keys() - _MODEL_KEYS))
        if unknown:
            raise ModelFormatError(f"unknown model key(s) {unknown}")
        names = payload["feature_names"]
        if not isinstance(names, list) or not names or not all(isinstance(n, str) for n in names):
            raise ModelFormatError("feature_names must be a non-empty list of strings")
        names = tuple(names)
        if payload["fingerprint"] != schema_fingerprint(names):
            raise ModelFormatError("fingerprint does not match feature_names")
        n_classes, master_seed = payload["n_classes"], payload["master_seed"]
        _check_kind("n_classes", n_classes, int)
        _check_kind("master_seed", master_seed, int)
        if n_classes < 2:
            raise ModelFormatError(f"model: n_classes must be >= 2, got {n_classes}")
        try:
            tree_cfg = TreeConfig(**payload["tree_config"])
        except InvalidValueError as exc:
            raise ModelFormatError(f"tree_config: {exc}") from exc
        if tree_cfg.feature_subsample == SQRT:
            raise ModelFormatError('tree_config: feature_subsample "sqrt" is unresolved: a model stores a count or null')
        # EnsembleConfig checks the type and range of each of its fields.
        cfg = EnsembleConfig(
            method=payload["method"],
            n_trees=payload["n_trees"],
            tree=tree_cfg,
            bootstrap=payload["bootstrap"],
            learning_rate=payload["learning_rate"],
            hard_vote=payload["hard_vote"],
        )
        boosting = cfg.method == BOOSTING
        task = REGRESSION if boosting else CLASSIFICATION
        if cfg.tree.task != task:
            raise ModelFormatError(f"tree_config: {cfg.method} grows {task} trees, got task {cfg.tree.task!r}")
        base = payload["base_scores"]
        if not boosting and base is not None:
            raise ModelFormatError("base_scores must be null for bagging")
        if boosting and not (
            isinstance(base, list) and len(base) == n_classes and all(_of_kind(float, v) for v in base)
        ):
            raise ModelFormatError(f"base_scores must list {n_classes} finite numbers for boosting")
        items = payload["trees"]
        expected = cfg.n_trees * n_classes if boosting else cfg.n_trees
        if not isinstance(items, list) or len(items) != expected:
            raise ModelFormatError(f"{cfg.method} with n_trees {cfg.n_trees} needs {expected} trees")
        trees = []
        for i, item in enumerate(items):
            try:
                trees.append(tree_from_dict(item, len(names), None if boosting else n_classes))
            except ModelFormatError as exc:
                raise ModelFormatError(f"trees[{i}]: {exc}") from exc
        return EnsembleModel(
            config=cfg,
            trees=trees,
            n_classes=n_classes,
            feature_names=names,
            base_scores=None if base is None else np.asarray(base, dtype=np.float64),
            master_seed=master_seed,
        )
    except InvalidValueError as exc:  # a field of the model itself
        raise ModelFormatError(f"model: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"malformed model payload: {exc!r}") from exc


def save_model(model: EnsembleModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> EnsembleModel:
    return model_from_dict(_read_json(path, ModelFormatError, "model file"))


def model_json_text(model: EnsembleModel) -> str:
    return canonical_json(model_to_dict(model))
