"""Binary CART trees for multiclass classification and gradient regression.

A tree is the arrays its model file stores, over its nodes in preorder
(DecisionTree).  The node grower appends to them as it pops nodes in
preorder, the level grower below reorders its level-order nodes once,
and routing, importance and the model codec read them.

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
row of class c that counts w times (its repeats, below) adds
w * (2 * occ + w) to sum(left_counts^2), where occ counts the earlier
sorted rows of class c, repeats included, and sum(right_counts^2) =
sum(T^2) - 2 * sum(T * left_counts) + sum(left_counts^2) for the node's
class counts T.  So g is bit-equal to the per-class count formula.  A
node with more sampled elements than _SCAN_BLOCK is scanned in blocks of
whole features, which bounds the scan's working set.

A node is its rows in the order of the split that made it.  The winning
feature's sort order already holds the rows each side gets, so every
split's children are the two parts of that order its position divides:
no row is compared with the threshold again.  A classification node
sums exact integers in any order; a regression node sorts its rows back
to row order first, because its float sums follow the rows' order.

A classification tree may count each row a positive number of times
(fit_tree's repeats): the tree of x and y with row i repeated r[i] times
is grown from the distinct rows alone.  Repeated copies of a row share
its value, so no threshold falls between them: every candidate of the
repeated table is a candidate here, with the same rows on each side.
Node sizes, class counts and so min_leaf, g and every impurity decrease
count repeats, in the same exact int64 sums, so the tree is bit-equal.
A bootstrap holds about 1 - 1/e = 63% distinct rows, and bagging grows
each tree on those.

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
the leaves are bit-equal to the node-by-node tree.  Its prefix table
counts repeats too.  One feature draws no
feature subset, so the rng is never consumed.

A regression tree on one feature with no tied values (fit_tree's
ranked) starts from its column sorted once, and each split's order is
that order again, so every node is a run of it: the scan is the running
sums of the run's targets, with no argsort or column gather per node.
Each node still sums its targets in row order for g and its leaf value,
as the node scan does.  A column with a tie is scanned as any other: its
order among ties is the sort's.  Given fitted, a regression tree writes
each training row's leaf value into it: what predict_batch returns for
that row.

A threshold is the midpoint of the two values it separates, or the lower
value where the midpoint rounds onto the upper one (_threshold), so it
always routes the rows the scan counted.

A tree whose splits all test one feature is a step function of it: each
reachable leaf admits one interval (lo, hi] of its values, and the
intervals ascend in preorder.  Such a tree routes rows with one sorted
search of those upper bounds (DecisionTree._steps, _reach) in place of
a walk over its splits; any other tree is routed split by split.

A tree's feature importance is its mean decrease in impurity: each split's
impurity decrease, weighted by its node's share of the root's samples,
summed per feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

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
from .fileio import _check_kind, _finite, _integers, _of_kind

CLASSIFICATION = "classification"
REGRESSION = "regression_on_gradients"
SQRT = "sqrt"


@dataclass(frozen=True)
class TreeConfig:
    """Growth limits for one tree.

    feature_subsample is the size of the random feature subset drawn at
    every node; None means all features, and a value larger than the
    available feature count is clamped to it.  "sqrt" stands for the
    square root of a study's full sensor count: a study config holds it,
    PipelineConfig.ensemble_config resolves it, and fit_tree rejects it.
    """

    max_depth: int | None = None
    min_leaf: int = 1
    feature_subsample: int | str | None = None
    task: str = CLASSIFICATION

    def __post_init__(self):
        _check_kind("max_depth", self.max_depth, int, optional=True)
        _check_kind("min_leaf", self.min_leaf, int)
        if not (self.feature_subsample in (SQRT, None) or _of_kind(int, self.feature_subsample)):
            raise InvalidValueError(f'feature_subsample must be an integer, "sqrt" or None, got {self.feature_subsample!r}')
        if self.max_depth is not None and self.max_depth < 0:
            raise InvalidValueError("max_depth must be >= 0 or None")
        if self.min_leaf < 1:
            raise InvalidValueError("min_leaf must be >= 1")
        if self.feature_subsample not in (None, SQRT) and self.feature_subsample < 1:
            raise InvalidValueError("feature_subsample must be >= 1 or None")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise InvalidValueError(f"unknown task {self.task!r}")


@dataclass(eq=False)
class DecisionTree:
    """The arrays of tree_to_dict, over the nodes in preorder (a split's
    left child is the next node): feature per node (-1 for a leaf),
    threshold and impurity_decrease per split (Gini or per-sample
    variance), and n_samples and value per leaf (its class counts, or
    its mean target).  Derived from them: right, each split's right
    child; number, each node's split or leaf number; and output, each
    leaf's class shares or value.  Computed on demand: _steps, and the
    leaf intervals of each feature asked for (_intervals).
    """

    feature: np.ndarray
    threshold: np.ndarray
    impurity_decrease: np.ndarray
    n_samples: np.ndarray
    value: np.ndarray
    n_features: int
    n_classes: int | None = None  # None for regression trees
    right: np.ndarray = field(init=False, repr=False)
    number: np.ndarray = field(init=False, repr=False)
    output: np.ndarray = field(init=False, repr=False)
    _interval_cache: dict = field(init=False, repr=False, default_factory=dict)  # feature -> (lo, hi)

    def __post_init__(self):
        is_leaf = self.feature < 0
        self.right = _subtree_ends(self.feature)[np.flatnonzero(~is_leaf) + 1] + 1
        self.number = np.where(is_leaf, is_leaf.cumsum(), (~is_leaf).cumsum()) - 1
        self.output = self.value if self.n_classes is None else self.value / self.n_samples[:, None]

    @property
    def root(self):
        """A read-only node view of the root, for code that walks nodes."""
        return _node_view(self, 0)

    def _intervals(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """_leaf_intervals(self, feature), computed once per feature."""
        if feature not in self._interval_cache:
            self._interval_cache[feature] = _leaf_intervals(self, feature)
        return self._interval_cache[feature]

    @cached_property
    def _steps(self) -> tuple[int, np.ndarray, np.ndarray] | None:
        """(feature, leaves, bounds) for a tree whose splits all test one
        feature, else None: its reachable leaves in ascending order of
        the values they admit, and the upper bound of each.

        Such a tree is a step function of its feature.  Its reachable
        leaves (lo < hi in _leaf_intervals) split the real line into the
        intervals (lo, hi], which ascend in preorder, so a value v reaches
        the first of them whose hi >= v.  A leaf-only tree is the one
        step (-inf, inf] of feature 0.
        """
        tested = self.feature[self.feature >= 0]
        if tested.size and (tested != tested[0]).any():
            return None
        feature = int(tested[0]) if tested.size else 0
        lo, hi = self._intervals(feature)
        leaves = (lo < hi).nonzero()[0]
        return feature, leaves, hi.take(leaves)

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Leaf outputs for a matrix of rows: (n, K) distributions for
        classification trees, (n,) values for regression trees.

        x may have any memory layout.  Rows are routed down columns, so a
        column-major (Fortran-order) float64 x, such as a Dataset's
        values, is routed without a copy; any other layout is copied to
        column-major once per call, and a caller that predicts with many
        trees should convert x first.  Every call checks that x is
        finite (NonFiniteInputError names the first NaN or Inf by row and
        column), so predict_scores checks its input once per tree.  The
        robustness scenarios route rows of a Dataset, finite by
        construction, through the same loop (_reach) without this check.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise DimensionMismatchError(
                f"expected (n, {self.n_features}) matrix, got {x.shape}"
            )
        _finite(x, "prediction input", NonFiniteInputError)
        x = np.asfortranarray(x)
        leaf = np.empty(x.shape[0], dtype=np.intp)
        _reach(x, self, np.arange(x.shape[0]), leaf)
        return self.output.take(leaf, axis=0)


def _subtree_ends(feature: np.ndarray) -> np.ndarray:
    """The last node of each node's subtree, for a preorder feature array.

    Counting +1 per split and -1 per leaf, a subtree's running count
    never falls below the count before its first node until its last
    node, where it falls one below.  So node i's subtree ends at the
    first j >= i whose count is one below the count before i: with the
    nodes keyed by (count, position), one sorted search finds every j.
    """
    n = feature.size
    step = np.where(feature < 0, -1, 1)
    count = step.cumsum()
    key = np.sort((count + 1) * n + np.arange(n))
    return key[key.searchsorted((count - step) * n + np.arange(n))] % n


class _SplitView:
    """A split in DecisionTree.root's view: its split number and children.
    A leaf's view is a bare object, which has none of them."""

    __slots__ = ("_tree", "_node")

    def __init__(self, tree: DecisionTree, node: int):
        self._tree, self._node = tree, node

    split = property(lambda self: int(self._tree.number[self._node]))
    left = property(lambda self: _node_view(self._tree, self._node + 1))
    right = property(lambda self: _node_view(self._tree, int(self._tree.right[self.split])))


def _node_view(tree: DecisionTree, node: int):
    return object() if tree.feature[node] < 0 else _SplitView(tree, node)


def _reach(
    xf: np.ndarray, tree: DecisionTree, idx: np.ndarray, out: np.ndarray, column: int = -1, values=None
) -> None:
    """Route rows idx of the column-major xf from the tree's root and
    write each row's leaf number into out at its row index.

    Where a split tests feature column, the rows read values (one per row
    of xf) in place of that column of xf, so a scenario routes rows with
    one sensor changed without a changed copy of the matrix.  The one
    routing rule, shared by predict_batch and the robustness scenarios'
    re-routing.  A tree whose splits all test one feature is routed with
    one sorted search of its leaves' upper bounds (DecisionTree._steps);
    any other tree node by node, each split sending left its rows whose
    value is <= its threshold.  A split's column is contiguous (a column
    of a column-major matrix), so take reads it without striding across
    rows, and both halves keep the order of idx.
    """
    steps = tree._steps
    if steps is not None:
        feature, leaves, bounds = steps
        col = values if feature == column else xf[:, feature]
        out[idx] = leaves.take(bounds.searchsorted(col.take(idx)))
        return
    stack = [(0, idx)]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        j = tree.number[node]
        f = tree.feature[node]
        if f < 0:
            out[idx] = j
            continue
        goes_left = (values if f == column else xf[:, f]).take(idx) <= tree.threshold[j]
        stack.append((tree.right[j], idx.take((~goes_left).nonzero()[0])))
        stack.append((node + 1, idx.take(goes_left.nonzero()[0])))


def _leaf_spans(tree: DecisionTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, middle, end) per split, in preorder: the split's subtree
    holds leaves first to end - 1 (leaves numbered in preorder), and its
    right subtree starts at leaf middle."""
    splits = np.flatnonzero(tree.feature >= 0)
    past = tree.number.take(_subtree_ends(tree.feature)) + 1  # one past each subtree's last leaf
    return splits - tree.number.take(splits), past.take(splits + 1), past.take(splits)


def _leaf_intervals(tree: DecisionTree, feature: int) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): for every leaf j the interval (lo[j], hi[j]] of values of
    feature that the splits on it along the leaf's path admit.

    lo is the largest threshold at which the path turns right on the
    feature, hi the smallest at which it turns left (-inf and inf where
    it turns neither way).  So a row that reaches leaf j still reaches it
    after this feature alone changes to v exactly when lo[j] < v <=
    hi[j], which is _reach's <= rule.  Each split on the feature bounds
    the contiguous leaf ranges of its two subtrees (_leaf_spans).
    """
    lo = np.full(tree.n_samples.size, -np.inf)
    hi = np.full(tree.n_samples.size, np.inf)
    on = np.flatnonzero(tree.feature[tree.feature >= 0] == feature)
    spans = (span.take(on).tolist() for span in _leaf_spans(tree))
    for first, middle, end, t in zip(*spans, tree.threshold.take(on).tolist()):
        np.minimum(hi[first:middle], t, out=hi[first:middle])
        np.maximum(lo[middle:end], t, out=lo[middle:end])
    return lo, hi


def gini_impurity(class_counts) -> float:
    """Gini impurity 1 - sum(p_i^2) of a node's class counts."""
    counts = _integers(class_counts, "class count", InvalidValueError)
    total = int(counts.sum())
    if total == 0:
        raise EmptyNodeError("gini impurity of an empty node is undefined")
    return 1.0 - float(np.sum(counts * counts)) / (float(total) * float(total))


# Largest (features x rows) array one scan handles; a node with more
# sampled elements is scanned in blocks of whole features.  2**14 is
# 128 KiB per 8-byte array, and only a tree's few largest nodes take more
# than one block.
_SCAN_BLOCK = 1 << 14


def _scan(cols: np.ndarray, yy: np.ndarray, ww: np.ndarray | None, min_leaf: int, counts: np.ndarray | None):
    """Best candidate over cols (m, n), one row per sampled feature:
    (g, feature row, position, threshold, that row's sort order), where
    position i puts the i + 1 smallest values left.  Classification gives
    ww, each row's repeats, and counts, the node's class counts (repeats
    summed); regression gives None for both.  g is -inf when no candidate
    exists.
    """
    m, n = cols.shape
    order = cols.argsort(axis=1)
    xs = cols.take(order + np.arange(0, m * n, n)[:, None])
    valid = xs[:, :-1] < xs[:, 1:]
    if counts is None:
        valid[:, : min_leaf - 1] = False
        valid[:, n - min_leaf :] = False
        g = _regression_gain(yy.take(order).cumsum(axis=1))
    else:
        # The module docstring's identities; cross's last entry is sum(T^2).
        ws = ww.take(order)
        rows = ws.cumsum(axis=1)
        n_left = rows[:, :-1]
        n_right = rows[:, -1:] - n_left
        valid &= (n_left >= min_leaf) & (n_right >= min_leaf)
        k = counts.size
        dtype = np.min_scalar_type(m * k - 1)  # numpy radix-sorts 8- and 16-bit keys
        ys = yy.astype(dtype).take(order)
        key = (ys + np.arange(0, m * k, k, dtype=dtype)[:, None]).ravel()
        sizes = np.bincount(key, minlength=m * k)
        # A stable sort groups each (feature, class) in sorted-row order,
        # so the repeats ahead of a row in its group are its occ.
        grouped = key.argsort(kind="stable")
        wg = ws.take(grouped)
        ahead = np.concatenate([[0], wg.cumsum()])
        occ = ahead[:-1] - np.repeat(ahead.take(np.cumsum(sizes) - sizes), sizes)
        step = np.empty(m * n, dtype=np.int64)
        step[grouped] = wg * (2 * occ + wg)
        sum_left_sq = step.reshape(m, n)[:, :-1].cumsum(axis=1)
        cross = (counts.take(ys) * ws).cumsum(axis=1)
        sum_right_sq = cross[:, -1:] - 2 * cross[:, :-1] + sum_left_sq
        g = sum_left_sq / n_left + sum_right_sq / n_right
    g[~valid] = -np.inf  # equal neighbours, or fewer than min_leaf rows a side
    best = int(g.argmax())  # first maximum: lowest feature row, then threshold
    row, pos = divmod(best, n - 1)
    return float(g[row, pos]), row, pos, _threshold(float(xs[row, pos]), float(xs[row, pos + 1])), order[row]


def _regression_gain(cum: np.ndarray) -> np.ndarray:
    """g at each candidate of sorted targets whose running sums along the
    last axis are cum: position i puts the i + 1 first rows left."""
    n_left, sum_left = np.arange(1, cum.shape[-1]), cum[..., :-1]
    sum_right = cum[..., -1:] - sum_left
    return sum_left * sum_left / n_left + sum_right * sum_right / n_left[::-1]


def _threshold(lo: float, hi: float) -> float:
    """The split threshold between adjacent distinct values lo < hi.

    lo/2 + hi/2 is bit-equal to (lo + hi)/2 for normal doubles but cannot
    overflow.  Between adjacent doubles, or subnormals, it can round onto
    hi; then lo is used.  lo <= t < hi makes value <= t hold for exactly
    the rows <= lo, so prediction sends left the rows the grower cut left
    from the sort order.
    """
    t = lo / 2 + hi / 2
    return t if lo <= t < hi else lo


def _pick_features(n_features: int, cfg: TreeConfig, rng: np.random.Generator):
    m = cfg.feature_subsample
    if m is None or m >= n_features:
        return np.arange(n_features)  # no draw: full-feature trees ignore the rng
    picked = rng.choice(n_features, size=m, replace=False)
    picked.sort()
    return picked


def _grow_levels(col: np.ndarray, y: np.ndarray, w: np.ndarray, n_classes: int, cfg: TreeConfig) -> DecisionTree:
    """The classification tree on the one feature col, row i repeated
    w[i] times, grown a level at a time over col sorted once (the module
    docstring says why it is the tree the node-by-node grower makes).
    Its prefix table holds (n + 1) * n_classes int64 counts."""
    n, k = col.size, n_classes
    order = col.argsort()
    xs, ys, ws = col.take(order), y.take(order), w.take(order)
    # prefix[j, c]: repeated rows of class c among the j smallest rows; a
    # node [a, b) of sorted rows has class counts prefix[b] - prefix[a],
    # and above[b] - above[a] repeated rows.
    prefix = np.zeros((n + 1, k), dtype=np.int64)
    prefix[np.arange(1, n + 1), ys] = ws
    np.cumsum(prefix, axis=0, out=prefix)
    above = np.concatenate([[0], ws.cumsum()])
    flat = prefix.ravel()
    occ = flat.take(np.arange(0, n * k, k) + ys)  # earlier repeated rows of each row's class
    tie = xs[:-1] == xs[1:]  # no threshold between sorted rows j and j + 1

    # The level's nodes as sorted-row ranges [a, b).  A split's children
    # are the next level's nodes, in the order of their parents, so in
    # level order the children of the s-th split are nodes 2s + 1 and
    # 2s + 2.
    a, b = np.array([0]), np.array([n])
    levels: list[tuple] = []
    thresholds: list[float] = []
    depth = 0
    while a.size:
        counts = prefix.take(b, axis=0) - prefix.take(a, axis=0)
        sizes = above.take(b) - above.take(a)
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
            c, wr = ys.take(r), ws.take(r)

            def seg_cumsum(v):  # cumulative sums that restart at each node
                cum = v.cumsum()
                return cum - (cum - v).take(starts).take(owner)

            # The module docstring's identities in exact int64, where a
            # row's occ within its node is occ[r] - prefix[a, c].
            s_left = seg_cumsum(wr * (2 * (occ.take(r) - flat.take(first * k + c)) + wr))
            cross = seg_cumsum(counts[grow].ravel().take(owner * k + c) * wr)
            s_right = sq[grow].take(owner) - 2 * cross + s_left
            n_left = above.take(r + 1) - above.take(first)
            n_right = above.take(gb).take(owner) - above.take(r + 1)
            g = s_left / n_left + s_right / n_right
            g[tie.take(r) | (n_left < cfg.min_leaf) | (n_right < cfg.min_leaf)] = -np.inf
            node_best = np.maximum.reduceat(g, starts)
            hits = np.where(g == node_best.take(owner), np.arange(g.size), g.size)
            best_g[grow] = node_best
            best_r[grow] = r.take(np.minimum.reduceat(hits, starts))  # first maximum

        # The level's fields, with the same float64 operations as
        # fit_tree's best_split and leaves.
        split = best_g > g_parent  # strict: a split must lower the impurity
        # The right child's first sorted row: xs[cut - 1] <= threshold <
        # xs[cut], so the children hold exactly the rows the threshold
        # sends them.
        cut = (best_r + 1)[split]
        thresholds += [_threshold(float(xs[mid - 1]), float(xs[mid])) for mid in cut.tolist()]
        levels.append((split, (best_g - g_parent) / sizes, sizes, counts, a, b))
        a, b = np.stack([a[split], cut], axis=1).ravel(), np.stack([cut, b[split]], axis=1).ravel()
        depth += 1

    # Level order to preorder.  A node's sorted rows [a, b) hold its
    # subtree's, and a left child starts where its parent does, so
    # preorder is by a, then by b descending.
    is_split, decrease, sizes, counts, a, b = (np.concatenate(column) for column in zip(*levels))
    rank = is_split.cumsum() - 1  # a split's number in level order
    nodes = np.lexsort((-b, a))
    at_split = is_split.take(nodes)
    splits, leaves = nodes[at_split], nodes[~at_split]
    threshold = np.array(thresholds).take(rank.take(splits))
    return DecisionTree(
        np.where(at_split, 0, -1), threshold, decrease.take(splits), sizes.take(leaves), counts[leaves],
        n_features=1, n_classes=n_classes,
    )


def _class_ids(y: np.ndarray, n_classes: int | None) -> tuple[np.ndarray, int]:
    """(y as int64 class ids, the class count): n_classes, or the largest
    id + 1 if it is None.

    Raises:
        LabelOutOfRangeError: a label that is not an integer, or that lies
            outside [0, n_classes); the message names the first such row.
    """
    y = _integers(y, "label", LabelOutOfRangeError, 0, n_classes)
    return y, int(y.max(initial=-1)) + 1 if n_classes is None else n_classes


def _repeat_counts(repeats, n: int) -> np.ndarray:
    """repeats as an int64 array of one positive count per row of n.

    Raises:
        DimensionMismatchError: repeats is not one value per row.
        InvalidValueError: a count that is not a positive integer; the
            message names the first such row.
    """
    repeats = np.asarray(repeats)
    if repeats.shape != (n,):
        raise DimensionMismatchError(f"x has {n} rows but repeats has shape {repeats.shape}")
    if repeats.dtype.kind not in "iuf":
        raise InvalidValueError(f"repeats must be positive integers, got dtype {repeats.dtype}")
    return _integers(repeats, "repeat count", InvalidValueError, low=1)


def fit_tree(
    x: np.ndarray,
    y: np.ndarray,
    cfg: TreeConfig,
    rng_seed: int = 0,
    n_classes: int | None = None,
    repeats: np.ndarray | None = None,
    *,
    fitted: np.ndarray | None = None,
) -> DecisionTree:
    """Grow one tree by greedy top-down search.

    A one-column x grows over the column sorted once: a classification
    tree level by level, a regression tree on runs of its sorted rows
    when the column has no tied values.  Any other tree grows node by
    node.  Each gives the same tree, node for node (see the module
    docstring).

    A classification tree may take repeats, a positive count per row: it
    is then exactly the tree of np.repeat(x, repeats, 0) and
    np.repeat(y, repeats), whose node sizes, class counts, min_leaf and
    impurity decreases all count repeated rows.  Bagging grows each tree
    on its bootstrap's distinct rows this way.

    Args:
        x: (n, f) feature matrix, finite.
        y: n class ids in [0, n_classes) (classification) or n finite
            real targets (regression).
        cfg: growth limits.
        rng_seed: drives per-node feature subsampling only.
        n_classes: class count for classification; inferred from y if None.
        repeats: n positive integers, how often each row counts
            (classification only); None counts each row once.
        fitted: an (n,) writable float64 array (regression only), into
            which the grower writes each row's leaf value: bit for bit
            what predict_batch(x) returns, without routing x again.

    Returns:
        DecisionTree.  All-constant features yield a single-leaf tree
        rather than an error.

    Raises:
        DimensionMismatchError: y or repeats is not one value per row of x.
        EmptyInputError: fewer than 2 rows, repeats counted, or no column.
        LabelOutOfRangeError: a label that is not an integer, or a class
            id outside [0, n_classes); the message names the first such
            row.
        NonFiniteInputError: an entry of x, or a regression target, is NaN
            or Inf; the message names its row (and column).
        InvalidValueError: cfg.feature_subsample is "sqrt", unresolved; a
            repeat count that is not a positive integer (named by its
            row); repeats given to a regression tree; or fitted given to
            a classification tree, or not of the shape and dtype above.
    """
    if cfg.feature_subsample == SQRT:
        raise InvalidValueError('feature_subsample "sqrt" must be resolved to a count before a tree is grown')
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidValueError("x must be a 2-D matrix")
    n, n_features = x.shape
    if n_features == 0:
        raise EmptyInputError(f"x has shape {x.shape}: a tree needs at least one column")
    classify = cfg.task == CLASSIFICATION
    if repeats is not None and not classify:
        raise InvalidValueError(f"repeats applies to classification trees only, not to task {cfg.task!r}")
    if fitted is not None and classify:
        raise InvalidValueError(f"fitted applies to regression trees only, not to task {cfg.task!r}")
    if fitted is not None and not (isinstance(fitted, np.ndarray) and fitted.flags.writeable and fitted.shape == (n,)
                                   and fitted.dtype == np.float64):
        got = f"{fitted.dtype} {fitted.shape}" if isinstance(fitted, np.ndarray) else type(fitted).__name__
        raise InvalidValueError(f"fitted must be a writable float64 array of shape ({n},), got {got}")
    w = np.ones(n, dtype=np.int64) if repeats is None else _repeat_counts(repeats, n)
    total = int(w.sum())
    if total < 2:
        raise EmptyInputError(f"need at least 2 rows to fit a tree, got {total}")
    _finite(x, "training matrix", NonFiniteInputError)
    y = np.asarray(y)
    if y.shape != (n,):
        raise DimensionMismatchError(f"x has {n} rows but y has shape {y.shape}")
    if classify:
        y, n_classes = _class_ids(y, n_classes)
    else:
        y = np.ascontiguousarray(y, dtype=np.float64)  # a strided y.take copies all of y
        _finite(y, "target", NonFiniteInputError)
    x = np.asfortranarray(x)  # each column contiguous
    if classify and n_features == 1:
        return _grow_levels(x[:, 0], y, w, n_classes, cfg)
    xt = x.T  # C-contiguous: the split scan gathers its rows with one flat take
    # A node is its rows in the order of the split that made it; the root
    # of a one-column (regression) tree is its column's sort order, and if
    # no values tie, every node is a run of it (ranked).
    root = xt[0].argsort() if n_features == 1 else np.arange(n)
    ranked = n_features == 1 and bool((xt[0].take(root[:-1]) < xt[0].take(root[1:])).all())
    rng = np.random.default_rng(rng_seed)

    def best_split(rows: np.ndarray, idx: np.ndarray, yy: np.ndarray, ww: np.ndarray | None, size: int,
                   counts: np.ndarray | None):
        """(feature, threshold, impurity decrease, the node's rows in that
        feature's order, position) of the node's best split, or None; the
        first position + 1 ordered rows go left.  rows is the node in its
        split's order, idx in the order yy and ww were gathered in."""
        if classify:
            g_parent = float((counts * counts).sum()) / size
        else:
            s = float(yy.sum())
            g_parent = s * s / size
        if ranked:  # rows in the column's order: the scan is their targets' running sums
            g = _regression_gain(y.take(rows).cumsum())
            g[: cfg.min_leaf - 1] = g[size - cfg.min_leaf :] = -np.inf
            pos = int(g.argmax())  # first maximum
            t = _threshold(float(xt[0, rows[pos]]), float(xt[0, rows[pos + 1]]))
            return (0, t, (float(g[pos]) - g_parent) / size, rows, pos) if g[pos] > g_parent else None
        features = _pick_features(n_features, cfg, rng)
        per_block = max(1, _SCAN_BLOCK // idx.size)
        best = None
        best_g = g_parent  # accept only strictly positive decrease
        for start in range(0, features.size, per_block):
            block = features[start : start + per_block]
            cols = xt.take(block[:, None] * n + idx)
            g, row, pos, threshold, order = _scan(cols, yy, ww, cfg.min_leaf, counts)
            if g > best_g:  # strict: an earlier block wins ties
                best_g, best = g, (int(block[row]), threshold, order, pos)
        if best is None:
            return None
        f, threshold, order, pos = best
        return f, threshold, (best_g - g_parent) / size, idx.take(order), pos

    # The tree's arrays, appended in preorder: an explicit stack of (rows,
    # depth), children pushed right-then-left, so the left subtree comes
    # first and consumes the rng first.
    feature: list[int] = []
    threshold: list[float] = []
    decrease: list[float] = []
    n_samples: list[int] = []
    value: list = []
    stack: list[tuple[np.ndarray, int]] = [(root, 0)]
    while stack:
        rows, depth = stack.pop()
        # Float sums follow the rows' order, so a regression node takes its
        # rows back in row order.  One gather of the node's labels serves
        # the purity test, the scan and the leaf; a node holds at least
        # min_leaf >= 1 rows.
        idx = rows if classify else np.sort(rows)
        yy = y.take(idx)
        if classify:
            ww = w.take(idx)
            size = int(ww.sum())
            counts = np.bincount(yy, ww, minlength=n_classes).astype(np.int64)
            pure = counts.max() == size
        else:
            ww, size, counts = None, idx.size, None
            pure = np.minimum.reduce(yy) == np.maximum.reduce(yy)
        depth_capped = cfg.max_depth is not None and depth >= cfg.max_depth
        grow = not (pure or depth_capped or size < 2 * cfg.min_leaf)
        split = best_split(rows, idx, yy, ww, size, counts) if grow else None
        if split is None:
            feature.append(-1)
            n_samples.append(size)
            value.append(counts if classify else float(yy.sum() / size))  # yy.mean(), bit for bit
            if fitted is not None:
                fitted[idx] = value[-1]
        else:
            f, t, d, ordered, pos = split
            feature.append(f)
            threshold.append(t)
            decrease.append(d)
            stack += (ordered[pos + 1 :], depth + 1), (ordered[: pos + 1], depth + 1)
    arrays = (np.array(column) for column in (feature, threshold, decrease, n_samples, value))
    return DecisionTree(*arrays, n_features, n_classes if classify else None)


def predict_tree(tree: DecisionTree, row) -> np.ndarray | float:
    """Route one row to its leaf; returns the leaf distribution or value."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] != tree.n_features:
        raise DimensionMismatchError(
            f"expected row of length {tree.n_features}, got shape {row.shape}"
        )
    _finite(row[None, :], "prediction input", NonFiniteInputError)
    node = 0
    while tree.feature[node] >= 0:
        j = tree.number[node]
        node = node + 1 if row[tree.feature[node]] <= tree.threshold[j] else tree.right[j]
    if tree.n_classes is not None:
        return tree.output[tree.number[node]].copy()
    return float(tree.output[tree.number[node]])


def _split_rows(tree: DecisionTree) -> np.ndarray:
    """Each split's training rows, in preorder: the rows of the leaves of
    its subtree (_leaf_spans)."""
    first, _, end = _leaf_spans(tree)
    rows = np.concatenate([[0], tree.n_samples.cumsum()])
    return rows.take(end) - rows.take(first)


def tree_importance_contributions(tree: DecisionTree) -> np.ndarray:
    """Per-feature sums of the tree's split impurity decreases, each
    scaled by its node's share of the root's samples, added in preorder."""
    weights = tree.impurity_decrease * (_split_rows(tree) / tree.n_samples.sum())
    out = np.bincount(tree.feature[tree.feature >= 0], weights, minlength=tree.n_features)
    return out.astype(np.float64, copy=False)  # bincount of no split is int


# A tree's arrays in the model file, by task.
_TREE_KEYS = {
    CLASSIFICATION: {"feature", "threshold", "impurity_decrease", "counts"},
    REGRESSION: {"feature", "threshold", "impurity_decrease", "value", "n_samples"},
}

# Row counts stay below 2**53: exact in float64, and no int64 sum of a
# leaf's counts overflows.
_MAX_ROWS = 2**53


def tree_to_dict(tree: DecisionTree) -> dict:
    """JSON-ready encoding of a tree: its arrays, except that a
    classification tree stores its class counts and not their sums.  The
    model stores the config, n_features and n_classes once."""
    payload = {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "impurity_decrease": tree.impurity_decrease.tolist(),
    }
    if tree.n_classes is None:
        payload["value"] = tree.value.tolist()
        payload["n_samples"] = tree.n_samples.tolist()
    else:
        payload["counts"] = tree.value.tolist()
    return payload


def _numbers(values, kind: type, key: str, nodes: np.ndarray, low=-math.inf, high=math.inf) -> np.ndarray:
    """values, a JSON list of one entry per node of nodes, as an int64
    (kind int) or float64 (kind float) array.  A ModelFormatError names
    the node of the first entry that is not an integer (a bool is none)
    or not a finite number, or that lies outside [low, high)."""
    if not isinstance(values, list) or len(values) != nodes.size:
        got = len(values) if isinstance(values, list) else type(values).__name__
        raise ModelFormatError(f"{key} must list {nodes.size} numbers, got {got}")
    try:
        if not set(map(type, values)) <= {int, kind}:
            raise TypeError
        array = np.array(values, dtype=np.int64 if kind is int else np.float64)
    except (TypeError, OverflowError):  # NaN marks each entry that numpy cannot hold
        limit = 2**63 if kind is int else math.inf
        array = np.array([v if _of_kind(kind, v) and abs(v) < limit else np.nan for v in values])
    bad = ~(np.isfinite(array) & (array >= low) & (array < high))
    if bad.any():
        j = int(bad.argmax())
        expected = f"an integer in [{low}, {high})" if kind is int else "a finite number"
        raise ModelFormatError(f"node {nodes[j]}: {key} must be {expected}, got {values[j]!r}")
    return array


def tree_from_dict(payload: dict, n_features: int, n_classes: int | None) -> DecisionTree:
    """Inverse of tree_to_dict, given the facts the model stores once
    (n_classes is None for regression).  Each array is checked whole, so
    a tree that decodes also predicts.

    Raises:
        ModelFormatError: keys other than the task's arrays, a feature
            outside [-1, n_features), a split/leaf sequence that is not
            one full binary tree, an array without one entry per split
            or per leaf, a number that is not finite, a count row that
            is not n_classes non-negative integers with a positive sum,
            or an n_samples below 1.  It names the first bad node.
    """
    task = REGRESSION if n_classes is None else CLASSIFICATION
    keys = _TREE_KEYS[task]
    if not isinstance(payload, dict) or payload.keys() != keys:
        got = sorted(payload) if isinstance(payload, dict) else type(payload).__name__
        raise ModelFormatError(f"a {task} tree holds the arrays {sorted(keys)}, got {got}")
    values = payload["feature"]
    if not isinstance(values, list) or not values:
        raise ModelFormatError("feature must be a non-empty list")
    feature = _numbers(values, int, "feature", np.arange(len(values)), -1, n_features)
    # +1 per split and -1 per leaf: the sums over one full binary tree in
    # preorder stay >= 0 until its last node, where they reach -1.
    is_leaf = feature < 0
    ends = np.flatnonzero(np.where(is_leaf, -1, 1).cumsum() < 0)
    if ends.size == 0:
        raise ModelFormatError(f"node {feature.size - 1}: the tree ends inside a split, before all its leaves")
    if ends[0] != feature.size - 1:
        raise ModelFormatError(f"node {ends[0] + 1} is no node's child: the tree ends at node {ends[0]}")
    splits, leaves = np.flatnonzero(~is_leaf), np.flatnonzero(is_leaf)
    threshold = _numbers(payload["threshold"], float, "threshold", splits)
    decrease = _numbers(payload["impurity_decrease"], float, "impurity_decrease", splits)
    if n_classes is None:
        value = _numbers(payload["value"], float, "value", leaves)
        sizes = _numbers(payload["n_samples"], int, "n_samples", leaves, 1, _MAX_ROWS)
    else:
        rows = payload["counts"]
        if not isinstance(rows, list) or len(rows) != leaves.size:
            raise ModelFormatError(f"counts must list {leaves.size} rows, one per leaf")
        for j, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n_classes:
                raise ModelFormatError(f"node {leaves[j]}: counts must list {n_classes} class counts, got {row!r}")
        flat = [c for row in rows for c in row]
        value = _numbers(flat, int, "counts", leaves.repeat(n_classes), 0, _MAX_ROWS).reshape(-1, n_classes)
        sizes = value.sum(axis=1)
        if not sizes.all():
            raise ModelFormatError(f"node {leaves[sizes.argmin()]}: counts hold no training row")
    return DecisionTree(feature, threshold, decrease, sizes, value, n_features, n_classes)
