"""Brute-force reference tree fitting, written independently of the
library: plain Python lists and Counters, exhaustive candidate scans, no
numpy.  Both sides rank splits by g = sum(left_counts^2)/n_left +
sum(right_counts^2)/n_right computed with the same IEEE-754 operations
(exact integer sums, one float division each, one add), accept only
strictly positive decreases, and break ties toward the lowest feature
index then the lowest threshold, so agreement can be checked exactly.

A classification case may give repeats, a count per row: the reference
then counts row i repeats[i] times in every class count, node size and
min_leaf test, as if the table held that many copies of it.

The regression reference ranks splits by g = (sum_left y)^2/n_left +
(sum_right y)^2/n_right.  Its cases use integer-valued targets, so every
float sum is exact in any order and agreement is again exact.
"""

from collections import Counter


def oracle_gini(labels):
    n = len(labels)
    counts = Counter(labels)
    return 1.0 - float(sum(c * c for c in counts.values())) / (float(n) * float(n))


def _class_counts(labels, repeats, indices):
    """Counter of the labels of the rows indices, row i counted
    repeats[i] times."""
    counts = Counter()
    for i in indices:
        counts[labels[i]] += repeats[i]
    return counts


def oracle_best_split(rows, labels, min_leaf=1, repeats=None):
    """Exhaustive scan of every midpoint threshold on every feature.

    Returns (feature, threshold, left_indices, right_indices), or None
    when no candidate strictly beats the parent.
    """
    if repeats is None:
        repeats = [1] * len(rows)
    n = sum(repeats)
    parent = _class_counts(labels, repeats, range(len(rows)))
    best_g = sum(c * c for c in parent.values()) / n
    best = None
    for j in range(len(rows[0])):
        distinct = sorted(set(r[j] for r in rows))
        for lo, hi in zip(distinct, distinct[1:]):
            thr = (lo + hi) / 2
            left = [i for i in range(len(rows)) if rows[i][j] <= thr]
            right = [i for i in range(len(rows)) if rows[i][j] > thr]
            n_left = sum(repeats[i] for i in left)
            if n_left < min_leaf or n - n_left < min_leaf:
                continue
            cl = _class_counts(labels, repeats, left)
            cr = _class_counts(labels, repeats, right)
            g = (
                sum(c * c for c in cl.values()) / n_left
                + sum(c * c for c in cr.values()) / (n - n_left)
            )
            if g > best_g:
                best_g = g
                best = (j, thr, left, right)
    return best


def oracle_fit(rows, labels, max_depth=None, min_leaf=1, n_classes=None, depth=0, repeats=None):
    """Greedy tree as a nested dict, grown with the same stopping rules;
    a leaf also holds its size, n_samples."""
    if n_classes is None:
        n_classes = max(labels) + 1
    if repeats is None:
        repeats = [1] * len(labels)
    n = sum(repeats)

    def leaf():
        counts = _class_counts(labels, repeats, range(len(labels)))
        return {
            "kind": "leaf",
            "n_samples": n,
            "distribution": [counts.get(k, 0) / n for k in range(n_classes)],
        }

    capped = max_depth is not None and depth >= max_depth
    if len(set(labels)) == 1 or capped or n < 2 * min_leaf:
        return leaf()
    found = oracle_best_split(rows, labels, min_leaf, repeats)
    if found is None:
        return leaf()
    j, thr, left, right = found
    return {
        "kind": "split",
        "feature": j,
        "threshold": thr,
        **{
            side: oracle_fit(
                [rows[i] for i in part], [labels[i] for i in part],
                max_depth, min_leaf, n_classes, depth + 1, [repeats[i] for i in part],
            )
            for side, part in (("left", left), ("right", right))
        },
    }


def oracle_best_split_regression(rows, targets, min_leaf=1):
    """Exhaustive regression scan, as oracle_best_split."""
    n = len(rows)
    total = float(sum(targets))
    best_g = total * total / n
    best = None
    for j in range(len(rows[0])):
        distinct = sorted(set(r[j] for r in rows))
        for lo, hi in zip(distinct, distinct[1:]):
            thr = (lo + hi) / 2
            left = [i for i in range(n) if rows[i][j] <= thr]
            if len(left) < min_leaf or n - len(left) < min_leaf:
                continue
            right = [i for i in range(n) if rows[i][j] > thr]
            sum_left = float(sum(targets[i] for i in left))
            sum_right = float(sum(targets[i] for i in right))
            g = sum_left * sum_left / len(left) + sum_right * sum_right / len(right)
            if g > best_g:
                best_g = g
                best = (j, thr, left, right)
    return best


def oracle_fit_regression(rows, targets, max_depth=None, min_leaf=1, depth=0):
    """Greedy regression tree as a nested dict; a leaf holds the mean."""
    n = len(targets)
    capped = max_depth is not None and depth >= max_depth
    found = None
    if len(set(targets)) > 1 and not capped and n >= 2 * min_leaf:
        found = oracle_best_split_regression(rows, targets, min_leaf)
    if found is None:
        return {"kind": "leaf", "value": float(sum(targets)) / n}
    j, thr, left, right = found
    return {
        "kind": "split",
        "feature": j,
        "threshold": thr,
        "left": oracle_fit_regression(
            [rows[i] for i in left], [targets[i] for i in left],
            max_depth, min_leaf, depth + 1,
        ),
        "right": oracle_fit_regression(
            [rows[i] for i in right], [targets[i] for i in right],
            max_depth, min_leaf, depth + 1,
        ),
    }


def random_case(rng):
    """One small fitting problem with plenty of tied feature values.

    It has 1-5 features; in about one case in four the last column copies
    an earlier one, so that splits tie across features and the lower
    index must win.
    """
    n = int(rng.integers(2, 13))
    f = int(rng.integers(1, 6))
    if rng.integers(0, 2):
        rows = rng.integers(0, 4, size=(n, f)).astype(float)
    else:
        rows = (rng.normal(0.0, 1.0, size=(n, f)) * 10).round() / 10.0
    if f > 1 and rng.integers(0, 4) == 0:
        rows[:, -1] = rows[:, rng.integers(0, f - 1)]
    labels = rng.integers(0, 3, size=n)
    return [tuple(map(float, r)) for r in rows], [int(v) for v in labels]


def random_regression_case(rng):
    """random_case's rows with integer-valued float targets."""
    rows, labels = random_case(rng)
    targets = rng.integers(-20, 21, size=len(rows))
    return rows, [float(v) for v in targets]
