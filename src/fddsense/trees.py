"""Binary CART trees for multiclass classification and gradient regression.

Split finding ranks candidates by the sufficient statistic
g = sum(left_counts^2)/n_left + sum(right_counts^2)/n_right (classification)
or g = (sum_left y)^2/n_left + (sum_right y)^2/n_right (regression), both of
which order splits identically to weighted impurity decrease / variance
reduction but cost one addition and two divisions per candidate.  Ties are
broken toward the lowest feature index, then the lowest threshold.

Each node makes one scan over all its sampled features at once: the
node's rows of those columns form one (features, rows) array, sorted
along its rows in one call.  Classification needs no per-class count
table.  Its sums of squared counts come from exact int64 identities: a
row of class c adds 2 * occ + 1 to sum(left_counts^2), where occ counts
the earlier sorted rows of class c, and sum(right_counts^2) =
sum(T^2) - 2 * sum(T * left_counts) + sum(left_counts^2) for the node's
class counts T.  So g is bit-equal to the per-class count formula.  A
node with more sampled elements than _SCAN_BLOCK is scanned in blocks of
whole features, which bounds the scan's working set.

A classification tree on one feature (Recursive Feature Addition starts
every model from its top sensor alone) is grown a level at a time
instead.  Its column is sorted once per tree.  A split falls between two
distinct values, so every node is a contiguous range of sorted rows that
holds whole groups of equal values: the range is a sort of the node's
rows, and a level needs no partition and no sort.  A prefix table of
class counts over the sorted rows gives each node's T and each row's occ
within its node, and one vectorized pass per level scores every
candidate of every growing node with the same int64 sums and float64
divisions as the node scan, so g, the first maximum, the thresholds and
the leaves are bit-equal to the node-by-node tree.  One feature draws no
feature subset, so the rng is never consumed.  Regression keeps the node
scan: its float sums follow each node's own sort order, which a level
pass does not reproduce.

A threshold is the midpoint of the two values it separates, or the lower
value where the midpoint rounds onto the upper one (_threshold), so it
always routes the rows the scan counted.

A tree's feature importance is its mean decrease in impurity: each split's
impurity decrease, weighted by its node's share of the root's samples,
summed per feature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    EmptyNodeError,
    InvalidValueError,
    LabelOutOfRangeError,
    ModelFormatError,
    NonFiniteInputError,
)
from .fileio import _of_kind

CLASSIFICATION = "classification"
REGRESSION = "regression_on_gradients"


@dataclass(frozen=True)
class TreeConfig:
    """Growth limits for one tree.

    feature_subsample is the size of the random feature subset drawn at
    every node; None means all features, and a value larger than the
    available feature count is clamped to it.
    """

    max_depth: int | None = None
    min_leaf: int = 1
    feature_subsample: int | None = None
    task: str = CLASSIFICATION

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise InvalidValueError("max_depth must be >= 0 or None")
        if self.min_leaf < 1:
            raise InvalidValueError("min_leaf must be >= 1")
        if self.feature_subsample is not None and self.feature_subsample < 1:
            raise InvalidValueError("feature_subsample must be >= 1 or None")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise InvalidValueError(f"unknown task {self.task!r}")


@dataclass(frozen=True)
class SplitCandidate:
    """An accepted split: routing rule plus its recorded quality numbers.

    impurity_decrease is the node-local decrease (Gini for classification,
    per-sample variance for regression); gain is the same quantity scaled
    by the node's sample count, i.e. the total reduction in the objective.
    """

    feature_index: int
    threshold: float
    impurity_decrease: float
    gain: float
    left_count: int
    right_count: int

    @property
    def n_samples(self) -> int:
        return self.left_count + self.right_count


@dataclass
class Leaf:
    n_samples: int
    distribution: np.ndarray | None = None  # classification: probs over K classes
    value: float | None = None  # regression: mean target


@dataclass
class Internal:
    split: SplitCandidate
    left: "Internal | Leaf"
    right: "Internal | Leaf"


@dataclass
class DecisionTree:
    root: Internal | Leaf
    n_features: int
    config: TreeConfig
    n_classes: int | None = None  # None for regression trees

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Leaf outputs for a matrix of rows: (n, K) distributions for
        classification trees, (n,) values for regression trees.

        x may have any memory layout.  Rows are routed down columns, so a
        column-major (Fortran-order) float64 x, such as a Dataset's
        values, is routed without a copy; any other layout is copied to
        column-major once per call, and a caller that predicts with many
        trees should convert x first.  Every call checks that x is
        finite, so an ensemble checks its input once per tree.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected (n, {self.n_features}) matrix, got {x.shape}"
            )
        if x.size and not np.isfinite(x).all():
            raise NonFiniteInputError("prediction input contains NaN or Inf")
        x = np.asfortranarray(x)
        n = x.shape[0]
        classify = self.n_classes is not None
        # Each row records its leaf's id; one take at the end gathers the
        # leaf outputs for all rows.
        leaf_ids = np.empty(n, dtype=np.intp)
        outputs: list = []
        stack: list[tuple[Internal | Leaf, np.ndarray]] = [(self.root, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if isinstance(node, Leaf):
                leaf_ids[idx] = len(outputs)
                outputs.append(node.distribution if classify else node.value)
                continue
            left, right = _route(x, idx, node.split.feature_index, node.split.threshold)
            stack.append((node.left, left))
            stack.append((node.right, right))
        table = np.array(outputs, dtype=np.float64)
        if classify:
            table = table.reshape(len(outputs), self.n_classes)
        return table.take(leaf_ids, axis=0)


def _route(xf: np.ndarray, idx: np.ndarray, feature: int, threshold: float):
    """(left, right) split of the row indices idx at feature <= threshold.

    The one routing rule shared by fit_tree and predict_batch.  xf must be
    column-major so that the feature's column is contiguous and take reads
    it without striding across rows.  Both halves keep the order of idx.
    """
    goes_left = xf[:, feature].take(idx) <= threshold
    return idx.take(goes_left.nonzero()[0]), idx.take((~goes_left).nonzero()[0])


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum(p_i^2) of a node's class counts."""
    counts = np.asarray(class_counts, dtype=np.int64)
    if counts.size and counts.min() < 0:
        raise InvalidValueError("class counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        raise EmptyNodeError("gini impurity of an empty node is undefined")
    return 1.0 - float(np.sum(counts * counts)) / (float(total) * float(total))


# Largest (features x rows) array one scan handles; a node with more
# sampled elements is scanned in blocks of whole features.  2**14 is
# 128 KiB per 8-byte array, and only a tree's few largest nodes take more
# than one block.
_SCAN_BLOCK = 1 << 14


def _scan(cols: np.ndarray, yy: np.ndarray, min_leaf: int, counts: np.ndarray | None):
    """Best candidate over cols (m, n), one row per sampled feature:
    (g, feature row, position, threshold), where position i puts the
    i + 1 smallest values left.  counts is the node's class counts, None
    for regression.  g is -inf when no candidate exists.
    """
    m, n = cols.shape
    order = cols.argsort(axis=1)
    xs = cols.take(order + np.arange(0, m * n, n)[:, None])
    valid = xs[:, :-1] < xs[:, 1:]
    valid[:, : min_leaf - 1] = False
    valid[:, n - min_leaf :] = False
    n_left = np.arange(1, n)
    n_right = n - n_left
    if counts is None:
        cum = yy.take(order).cumsum(axis=1)
        sum_left = cum[:, :-1]
        sum_right = cum[:, -1:] - sum_left
        g = sum_left * sum_left / n_left + sum_right * sum_right / n_right
    else:
        # The module docstring's identities; cross's last entry is sum(T^2).
        k = counts.size
        dtype = np.min_scalar_type(m * k - 1)  # numpy radix-sorts 8- and 16-bit keys
        ys = yy.astype(dtype).take(order)
        key = (ys + np.arange(0, m * k, k, dtype=dtype)[:, None]).ravel()
        sizes = np.bincount(key, minlength=m * k)
        # A stable sort groups each (feature, class) in sorted-row order,
        # so a row's rank in its group is its occ.
        step = np.empty(m * n, dtype=np.int64)
        step[key.argsort(kind="stable")] = (
            2 * (np.arange(m * n) - np.repeat(np.cumsum(sizes) - sizes, sizes)) + 1
        )
        sum_left_sq = step.reshape(m, n)[:, :-1].cumsum(axis=1)
        cross = counts.take(ys).cumsum(axis=1)
        sum_right_sq = cross[:, -1:] - 2 * cross[:, :-1] + sum_left_sq
        g = sum_left_sq / n_left + sum_right_sq / n_right
    g[~valid] = -np.inf  # equal neighbours, or fewer than min_leaf rows a side
    best = int(g.argmax())  # first maximum: lowest feature row, then threshold
    row, pos = divmod(best, n - 1)
    return float(g[row, pos]), row, pos, _threshold(float(xs[row, pos]), float(xs[row, pos + 1]))


def _threshold(lo: float, hi: float) -> float:
    """The split threshold between adjacent distinct values lo < hi.

    lo/2 + hi/2 is bit-equal to (lo + hi)/2 for normal doubles but cannot
    overflow.  Between adjacent doubles, or subnormals, it can round onto
    hi; then lo is used.  lo <= t < hi makes _route send left exactly the
    rows <= lo, the left_count the scan recorded.
    """
    t = lo / 2 + hi / 2
    return t if lo <= t < hi else lo


def _pick_features(n_features: int, cfg: TreeConfig, rng: np.random.Generator):
    m = cfg.feature_subsample
    if m is None or m >= n_features:
        return np.arange(n_features)  # no draw: full-feature trees ignore the rng
    return np.sort(rng.choice(n_features, size=m, replace=False))


def _grow_levels(col: np.ndarray, y: np.ndarray, n_classes: int, cfg: TreeConfig) -> Internal | Leaf:
    """Root of the classification tree on the one feature col, grown a
    level at a time over col sorted once (the module docstring says why
    it is the tree the node-by-node grower makes).  Its prefix table
    holds (n + 1) * n_classes int64 counts."""
    n, k = col.size, n_classes
    order = col.argsort()
    xs, ys = col.take(order), y.take(order)
    # prefix[j, c]: rows of class c among the j smallest; a node [a, b)
    # of sorted rows has class counts prefix[b] - prefix[a].
    prefix = np.zeros((n + 1, k), dtype=np.int64)
    prefix[np.arange(1, n + 1), ys] = 1
    np.cumsum(prefix, axis=0, out=prefix)
    flat = prefix.ravel()
    occ = flat.take(np.arange(0, n * k, k) + ys)  # earlier rows of each row's class
    tie = xs[:-1] == xs[1:]  # no threshold between sorted rows j and j + 1

    placeholder = root = Leaf(n_samples=n)
    # The level's nodes as sorted-row ranges [a, b), each with the parent
    # and the side it hangs on (None for the root).
    a, b = np.array([0]), np.array([n])
    slots: list[tuple[Internal | None, str]] = [(None, "root")]
    depth = 0
    while slots:
        counts = prefix.take(b, axis=0) - prefix.take(a, axis=0)
        sizes = b - a
        sq = (counts * counts).sum(axis=1)
        g_parent = sq / sizes
        grow = (counts.max(axis=1) < sizes) & (sizes >= 2 * cfg.min_leaf)
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            grow[:] = False
        best_g = np.full(sizes.size, -np.inf)
        best_r = np.zeros(sizes.size, dtype=np.intp)
        if grow.any():
            # Candidate r puts sorted rows [a, r] left; a node's last row
            # is no candidate, so both sides are non-empty.
            ga, gb = a[grow], b[grow]
            lens = gb - ga - 1
            starts = np.cumsum(lens) - lens
            owner = np.repeat(np.arange(ga.size), lens)  # each candidate's node
            first = ga.take(owner)
            r = np.arange(lens.sum()) - starts.take(owner) + first
            c = ys.take(r)

            def seg_cumsum(v):  # cumulative sums that restart at each node
                cum = v.cumsum()
                return cum - (cum - v).take(starts).take(owner)

            # The module docstring's identities in exact int64, where a
            # row's occ within its node is occ[r] - prefix[a, c].
            s_left = seg_cumsum(2 * (occ.take(r) - flat.take(first * k + c)) + 1)
            cross = seg_cumsum(counts[grow].ravel().take(owner * k + c))
            s_right = sq[grow].take(owner) - 2 * cross + s_left
            n_left = r - first + 1
            n_right = gb.take(owner) - r - 1
            g = s_left / n_left + s_right / n_right
            g[tie.take(r) | (n_left < cfg.min_leaf) | (n_right < cfg.min_leaf)] = -np.inf
            node_best = np.maximum.reduceat(g, starts)
            hits = np.where(g == node_best.take(owner), np.arange(g.size), g.size)
            best_g[grow] = node_best
            best_r[grow] = r.take(np.minimum.reduceat(hits, starts))  # first maximum

        # Per-node fields as whole-level arrays, with the same float64
        # operations as fit_tree's best_split and make_leaf.
        split = best_g > g_parent  # strict: a split must lower the impurity
        # The right child's first sorted row: xs[cut - 1] <= threshold <
        # xs[cut], so the children hold exactly the rows _route sends them.
        cut = best_r + 1
        gain = best_g - g_parent
        fields = zip(
            slots,
            split.tolist(),
            a.tolist(),
            cut.tolist(),
            b.tolist(),
            gain.tolist(),
            (gain / sizes).tolist(),
            counts / sizes[:, None],
        )
        next_a: list[int] = []
        next_b: list[int] = []
        next_slots: list[tuple[Internal | None, str]] = []
        for (parent, side), is_split, lo, mid, hi, node_gain, decrease, dist in fields:
            node: Internal | Leaf
            if is_split:
                candidate = SplitCandidate(
                    feature_index=0,
                    threshold=_threshold(float(xs[mid - 1]), float(xs[mid])),
                    impurity_decrease=decrease,
                    gain=node_gain,
                    left_count=mid - lo,
                    right_count=hi - mid,
                )
                node = Internal(split=candidate, left=placeholder, right=placeholder)
                next_a += [lo, mid]
                next_b += [mid, hi]
                next_slots += [(node, "left"), (node, "right")]
            else:
                node = Leaf(n_samples=hi - lo, distribution=dist)
            if parent is None:
                root = node
            elif side == "left":
                parent.left = node
            else:
                parent.right = node
        a, b, slots = np.array(next_a, dtype=np.intp), np.array(next_b, dtype=np.intp), next_slots
        depth += 1
    return root


def fit_tree(
    x: np.ndarray,
    y: np.ndarray,
    cfg: TreeConfig,
    rng_seed: int = 0,
    n_classes: int | None = None,
) -> DecisionTree:
    """Grow one tree by greedy top-down search.

    A classification tree on a one-column x grows level by level over the
    column sorted once; any other tree grows node by node.  Both give the
    same tree, node for node (see the module docstring).

    Args:
        x: (n, f) feature matrix, finite.
        y: n class ids in [0, n_classes) (classification) or n finite
            real targets (regression).
        cfg: growth limits.
        rng_seed: drives per-node feature subsampling only.
        n_classes: class count for classification; inferred from y if None.

    Returns:
        DecisionTree.  All-constant features yield a single-leaf tree
        rather than an error.

    Raises:
        DimensionMismatchError: y is not one value per row of x.
        LabelOutOfRangeError: a class id outside [0, n_classes); the
            message names the first such row.
        NonFiniteInputError: x, or a regression target, is NaN or Inf.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidValueError("x must be a 2-D matrix")
    n, n_features = x.shape
    if n < 2:
        raise EmptyInputError(f"need at least 2 rows to fit a tree, got {n}")
    if not np.isfinite(x).all():
        raise NonFiniteInputError("training matrix contains NaN or Inf")
    classify = cfg.task == CLASSIFICATION
    y = np.asarray(y, dtype=np.int64 if classify else np.float64)
    if y.shape != (n,):
        raise DimensionMismatchError(f"x has {n} rows but y has shape {y.shape}")
    if classify:
        if n_classes is None:
            n_classes = int(y.max()) + 1
        bad = (y < 0) | (y >= n_classes)
        if bad.any():
            row = int(bad.argmax())
            raise LabelOutOfRangeError(f"label {int(y[row])} at row {row} is outside [0, {n_classes})")
    elif not np.isfinite(y).all():
        row = int((~np.isfinite(y)).argmax())
        raise NonFiniteInputError(f"target {float(y[row])} at row {row} is not finite")
    x = np.asfortranarray(x)  # _route reads whole columns
    if classify and n_features == 1:
        root = _grow_levels(x[:, 0], y, n_classes, cfg)
        return DecisionTree(root=root, n_features=1, config=cfg, n_classes=n_classes)
    xt = x.T  # C-contiguous: the split scan gathers its rows with one flat take
    rng = np.random.default_rng(rng_seed)

    def make_leaf(size: int, yy: np.ndarray, counts: np.ndarray | None) -> Leaf:
        if classify:
            return Leaf(n_samples=size, distribution=counts / size)
        return Leaf(n_samples=size, value=float(yy.mean()))

    def best_split(idx: np.ndarray, yy: np.ndarray, counts: np.ndarray | None) -> SplitCandidate | None:
        if classify:
            g_parent = float(np.sum(counts * counts)) / idx.size
        else:
            s = float(yy.sum())
            g_parent = s * s / idx.size
        features = _pick_features(n_features, cfg, rng)
        per_block = max(1, _SCAN_BLOCK // idx.size)
        best = None
        best_g = g_parent  # accept only strictly positive decrease
        for start in range(0, features.size, per_block):
            block = features[start : start + per_block]
            cols = xt.take(block[:, None] * n + idx)
            g, row, pos, threshold = _scan(cols, yy, cfg.min_leaf, counts)
            if g > best_g:  # strict: an earlier block wins ties
                best_g, best = g, (int(block[row]), threshold, pos + 1)
        if best is None:
            return None
        feature, threshold, left_count = best
        return SplitCandidate(
            feature_index=feature,
            threshold=threshold,
            impurity_decrease=(best_g - g_parent) / idx.size,
            gain=best_g - g_parent,
            left_count=left_count,
            right_count=idx.size - left_count,
        )

    placeholder = Leaf(n_samples=n)
    tree = DecisionTree(
        root=placeholder,
        n_features=n_features,
        config=cfg,
        n_classes=n_classes if classify else None,
    )

    # Explicit preorder stack: (row indices, depth, parent, side). Children
    # are pushed right-then-left so the rng is consumed left subtree first.
    stack: list[tuple[np.ndarray, int, Internal | None, str]] = [
        (np.arange(n), 0, None, "root")
    ]
    while stack:
        idx, depth, parent, side = stack.pop()
        node: Internal | Leaf
        # One gather of the node's labels serves the purity test, the
        # scan and the leaf; a node holds at least min_leaf >= 1 rows.
        yy = y.take(idx)
        counts = np.bincount(yy, minlength=n_classes).astype(np.int64) if classify else None
        pure = counts.max() == idx.size if classify else yy.min() == yy.max()
        depth_capped = cfg.max_depth is not None and depth >= cfg.max_depth
        grow = not (pure or depth_capped or idx.size < 2 * cfg.min_leaf)
        split = best_split(idx, yy, counts) if grow else None
        if split is None:
            node = make_leaf(idx.size, yy, counts)
        else:
            node = Internal(split=split, left=placeholder, right=placeholder)
            left, right = _route(x, idx, split.feature_index, split.threshold)
            stack.append((right, depth + 1, node, "right"))
            stack.append((left, depth + 1, node, "left"))
        if parent is None:
            tree.root = node
        elif side == "left":
            parent.left = node
        else:
            parent.right = node
    return tree


def predict_tree(tree: DecisionTree, row) -> np.ndarray | float:
    """Route one row to its leaf; returns the leaf distribution or value."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] != tree.n_features:
        raise DimensionMismatchError(
            f"expected row of length {tree.n_features}, got shape {row.shape}"
        )
    if not np.isfinite(row).all():
        raise NonFiniteInputError("prediction row contains NaN or Inf")
    node = tree.root
    while isinstance(node, Internal):
        node = node.left if row[node.split.feature_index] <= node.split.threshold else node.right
    if tree.n_classes is not None:
        return node.distribution.copy()
    return node.value


def tree_importance_contributions(tree: DecisionTree) -> np.ndarray:
    """Per-feature sums of the tree's split impurity decreases, each
    scaled by its node's share of the root's samples."""
    out = np.zeros(tree.n_features, dtype=np.float64)
    if isinstance(tree.root, Leaf):
        return out
    root_n = tree.root.split.n_samples
    stack = [tree.root]
    while stack:  # preorder, so the sums add up in a fixed order
        node = stack.pop()
        split = node.split
        out[split.feature_index] += split.impurity_decrease * (split.n_samples / root_n)
        stack += [child for child in (node.right, node.left) if isinstance(child, Internal)]
    return out


def tree_to_dict(tree: DecisionTree) -> dict:
    """JSON-ready encoding of a tree: its nodes as one flat list in
    preorder, where a split names its two children by list index."""
    nodes: list[dict] = []
    # (node, the encoded parent, the parent's key for this node)
    stack: list[tuple[Internal | Leaf, dict | None, str]] = [(tree.root, None, "")]
    while stack:
        node, parent, side = stack.pop()
        if parent is not None:
            parent[side] = len(nodes)
        if isinstance(node, Leaf):
            payload: dict = {"kind": "leaf", "n_samples": node.n_samples}
            if node.distribution is not None:
                payload["distribution"] = [float(p) for p in node.distribution]
            else:
                payload["value"] = node.value
        else:
            payload = {
                "kind": "split",
                "feature": node.split.feature_index,
                "threshold": node.split.threshold,
                "impurity_decrease": node.split.impurity_decrease,
                "gain": node.split.gain,
                "left_count": node.split.left_count,
                "right_count": node.split.right_count,
            }
            stack.append((node.right, payload, "right"))
            stack.append((node.left, payload, "left"))
        nodes.append(payload)
    return {
        "n_features": tree.n_features,
        "n_classes": tree.n_classes,
        "config": asdict(tree.config),
        "nodes": nodes,
    }


def _field(spec: dict, key: str, where: str, kind: type = float, low: float = -math.inf):
    """spec[key] if it is of kind (a finite float, an int or a bool) and
    >= low; else a ModelFormatError naming where and key."""
    value = spec[key]
    if not _of_kind(kind, value) or value < low:
        expected = {int: "an integer", float: "a finite number", bool: "a boolean"}[kind]
        bound = "" if low == -math.inf else f" >= {low}"
        raise ModelFormatError(f"{where}: {key} must be {expected}{bound}, got {value!r}")
    return value


def _tree_config(spec: dict, where: str) -> TreeConfig:
    """TreeConfig(**spec) once its count fields are integers: TreeConfig
    checks only their ranges, and 3.0 == 3 would pass a config comparison."""
    for key, low in (("max_depth", 0), ("min_leaf", 1), ("feature_subsample", 1)):
        if key == "min_leaf" or spec[key] is not None:
            _field(spec, key, where, int, low)
    return TreeConfig(**spec)


def tree_from_dict(payload: dict) -> DecisionTree:
    """Inverse of tree_to_dict.  Every node is checked here, so that a tree
    that decodes also predicts.

    Raises:
        ModelFormatError: a missing or wrong-typed field, a feature index
            outside [0, n_features), a leaf that does not hold n_classes
            probabilities, or a child index that is out of range, does not
            come after its parent, or is used twice.  The message names the
            node.
    """
    where = "tree"
    try:
        cfg = _tree_config(payload["config"], "config")
        n_features = _field(payload, "n_features", "tree", int, 1)
        if cfg.task == CLASSIFICATION:
            n_classes = _field(payload, "n_classes", "tree", int, 2)
        elif payload["n_classes"] is not None:
            raise ModelFormatError("tree: a regression tree has n_classes null")
        else:
            n_classes = None
        specs = payload["nodes"]
        if not isinstance(specs, list) or not specs:
            raise ModelFormatError("tree: nodes must be a non-empty list")
        # Children come after their parent, so a walk from the last node
        # to the first builds every child before its parent.
        nodes: list = [None] * len(specs)
        is_child = [False] * len(specs)
        for i in range(len(specs) - 1, -1, -1):
            spec, where = specs[i], f"node {i}"
            kind = spec["kind"]
            if kind == "split":
                feature = _field(spec, "feature", where, int, 0)
                if feature >= n_features:
                    raise ModelFormatError(f"{where}: feature {feature} is outside [0, {n_features})")
                children = [_field(spec, side, where, int, i + 1) for side in ("left", "right")]
                for side, child in zip(("left", "right"), children):
                    if child >= len(specs) or is_child[child]:
                        raise ModelFormatError(f"{where}: {side} child {child} is out of range or used twice")
                    is_child[child] = True
                split = SplitCandidate(
                    feature_index=feature,
                    threshold=_field(spec, "threshold", where),
                    impurity_decrease=_field(spec, "impurity_decrease", where),
                    gain=_field(spec, "gain", where),
                    left_count=_field(spec, "left_count", where, int, 1),
                    right_count=_field(spec, "right_count", where, int, 1),
                )
                nodes[i] = Internal(split=split, left=nodes[children[0]], right=nodes[children[1]])
            elif kind != "leaf":
                raise ModelFormatError(f"{where}: kind must be \"split\" or \"leaf\", got {kind!r}")
            elif n_classes is None:
                nodes[i] = Leaf(
                    n_samples=_field(spec, "n_samples", where, int, 1),
                    value=_field(spec, "value", where),
                )
            else:
                dist = spec["distribution"]
                if not (
                    isinstance(dist, list)
                    and len(dist) == n_classes
                    and all(_of_kind(float, p) for p in dist)
                ):
                    raise ModelFormatError(f"{where}: distribution must list {n_classes} finite numbers")
                nodes[i] = Leaf(
                    n_samples=_field(spec, "n_samples", where, int, 1),
                    distribution=np.asarray(dist, dtype=np.float64),
                )
        if False in is_child[1:]:
            raise ModelFormatError(f"node {is_child.index(False, 1)} is no node's child")
    except (KeyError, TypeError, InvalidValueError) as exc:
        raise ModelFormatError(f"{where}: missing or malformed field: {exc!r}") from exc
    return DecisionTree(root=nodes[0], n_features=n_features, config=cfg, n_classes=n_classes)
