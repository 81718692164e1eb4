"""Multiclass evaluation: confusion matrix, per-class F1, macro-F1.

Macro-F1 averages the per-class F1 scores with equal class weight.  Any
0/0 in precision, recall, or F1 resolves to 0 so absent or never-predicted
classes drag the average down instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMatrixError, LabelOutOfRangeError, LengthMismatchError
from .fileio import _csv_rows, _integers


def confusion_matrix(y_true, y_pred, n_classes: int | None = None) -> np.ndarray:
    """(K, K) count matrix with rows = true class, columns = predicted.

    Raises:
        LengthMismatchError: the label vectors differ in shape, or are
            not 1-D.
        EmptyMatrixError: no labels.
        LabelOutOfRangeError: a label that is not an integer, or that lies
            outside [0, n_classes); the message names the first such row.
    """
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise LengthMismatchError(
            f"label vectors differ in shape: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise EmptyMatrixError("cannot build a confusion matrix from zero labels")
    y_true = _integers(y_true, "true label", LabelOutOfRangeError, 0, n_classes)
    y_pred = _integers(y_pred, "predicted label", LabelOutOfRangeError, 0, n_classes)
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def _validated(cm) -> np.ndarray:
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.shape[0] == 0:
        raise EmptyMatrixError(f"confusion matrix must be square and non-empty, got {cm.shape}")
    return cm


def per_class_scores(cm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(precision, recall, f1) vectors; every 0/0 resolves to 0."""
    cm = _validated(cm)
    tp = np.diag(cm)
    predicted = cm.sum(axis=0)
    actual = cm.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(actual > 0, tp / actual, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)
    return precision, recall, f1


def macro_f1(cm) -> float:
    _, _, f1 = per_class_scores(cm)
    return float(f1.mean())


def accuracy(cm) -> float:
    cm = _validated(cm)
    total = cm.sum()
    if total == 0:
        raise EmptyMatrixError("confusion matrix has zero total count")
    return float(np.trace(cm) / total)


@dataclass(frozen=True)
class ClassReport:
    """Evaluation summary for one model on one labelled set."""

    class_names: tuple[str, ...]
    matrix: np.ndarray  # (K, K) int64 counts
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray  # true-label counts per class
    accuracy: float
    macro_f1: float

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "classes": [
                {
                    "name": name,
                    "precision": float(self.precision[i]),
                    "recall": float(self.recall[i]),
                    "f1": float(self.f1[i]),
                    "support": int(self.support[i]),
                }
                for i, name in enumerate(self.class_names)
            ],
            "confusion_matrix": [[int(v) for v in row] for row in self.matrix],
        }

    def to_csv_rows(self) -> list[list[str]]:
        """One row per class from the JSON records, then a macro row."""
        macro = {"name": "macro", "precision": None, "recall": None, "f1": self.macro_f1,
                 "support": int(self.support.sum())}
        rows = _csv_rows(self.to_json_dict()["classes"] + [macro])
        rows[0][0] = "class"  # the CSV's name for the records' "name"
        return rows


def build_report(y_true, y_pred, class_names: tuple[str, ...]) -> ClassReport:
    cm = confusion_matrix(y_true, y_pred, n_classes=len(class_names))
    precision, recall, f1 = per_class_scores(cm)
    return ClassReport(
        class_names=class_names,
        matrix=cm,
        precision=precision,
        recall=recall,
        f1=f1,
        support=cm.sum(axis=1),
        accuracy=accuracy(cm),
        macro_f1=float(f1.mean()),
    )
