import numpy as np
import pytest

from fddsense.errors import EmptyMatrixError, LabelOutOfRangeError, LengthMismatchError
from fddsense.metrics import (
    accuracy,
    build_report,
    confusion_matrix,
    macro_f1,
    per_class_scores,
)

# (matrix, expected macro-F1) with every value derivable by hand.
HAND_CASES = [
    ([[3, 0], [0, 2]], 1.0),
    ([[0, 3], [2, 0]], 0.0),
    # class 1 never predicted: p=0 by convention, f1=0.
    ([[5, 0], [5, 0]], ((2 * 0.5 * 1.0 / 1.5) + 0.0) / 2),
    ([[2, 1, 0], [0, 3, 1], [1, 0, 2]], (2 / 3 + 3 / 4 + 2 / 3) / 3),
    # class 2 absent from truth and predictions: both 0/0 -> f1=0.
    ([[4, 0, 0], [1, 0, 0], [0, 0, 0]], (2 * 0.8 * 1.0 / 1.8) / 3),
]


class TestMacroF1HandValues:
    @pytest.mark.parametrize("matrix,expected", HAND_CASES)
    def test_hand_matrix(self, matrix, expected):
        assert macro_f1(np.array(matrix)) == pytest.approx(expected, abs=1e-12)

    def test_per_class_zero_division_convention(self):
        precision, recall, f1 = per_class_scores(np.array([[4, 0, 0], [1, 0, 0], [0, 0, 0]]))
        assert precision[1] == 0.0 and recall[1] == 0.0 and f1[1] == 0.0
        assert precision[2] == 0.0 and recall[2] == 0.0 and f1[2] == 0.0


class TestInvariances:
    def test_permutation_and_scaling(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            cm = rng.integers(0, 20, size=(k, k)).astype(np.int64)
            base = macro_f1(cm)
            perm = rng.permutation(k)
            relabeled = cm[np.ix_(perm, perm)]
            assert macro_f1(relabeled) == pytest.approx(base, abs=1e-12)
            scale = int(rng.integers(2, 10))
            assert macro_f1(cm * scale) == pytest.approx(base, abs=1e-12)


class TestConfusionMatrix:
    def test_rows_true_columns_predicted(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_explicit_class_count_pads(self):
        cm = confusion_matrix([0, 1], [1, 0], n_classes=4)
        assert cm.shape == (4, 4)
        assert cm.sum() == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            confusion_matrix([0, 1], [0])

    def test_negative_label_rejected(self):
        with pytest.raises(LabelOutOfRangeError):
            confusion_matrix([0, -1], [0, 0])

    def test_label_beyond_class_count_rejected(self):
        with pytest.raises(LabelOutOfRangeError):
            confusion_matrix([0, 3], [0, 0], n_classes=3)

    def test_empty_labels_rejected(self):
        with pytest.raises(EmptyMatrixError):
            confusion_matrix([], [])

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyMatrixError):
            macro_f1(np.zeros((0, 0)))
        with pytest.raises(EmptyMatrixError):
            macro_f1(np.zeros((2, 3)))

    def test_all_zero_matrix_has_no_accuracy(self):
        with pytest.raises(EmptyMatrixError, match="confusion matrix has zero total count"):
            accuracy(np.zeros((2, 2), dtype=np.int64))


class TestReport:
    def setup_method(self):
        self.y_true = [0, 0, 0, 1, 1, 2, 2, 2]
        self.y_pred = [0, 0, 1, 1, 1, 2, 2, 0]
        self.report = build_report(self.y_true, self.y_pred, ("ok", "warm", "cold"))

    def test_support_counts_true_labels(self):
        assert self.report.support.tolist() == [3, 2, 3]

    def test_accuracy(self):
        assert self.report.accuracy == pytest.approx(6 / 8, abs=1e-15)
        assert accuracy(self.report.matrix) == self.report.accuracy

    def test_macro_matches_direct_computation(self):
        assert self.report.macro_f1 == pytest.approx(
            macro_f1(confusion_matrix(self.y_true, self.y_pred)), abs=1e-15
        )

    def test_json_dict_shape(self):
        payload = self.report.to_json_dict()
        assert [c["name"] for c in payload["classes"]] == ["ok", "warm", "cold"]
        assert payload["confusion_matrix"][0][0] == 2
        assert payload["macro_f1"] == self.report.macro_f1

    def test_csv_rows_shape(self):
        rows = self.report.to_csv_rows()
        assert rows[0] == ["class", "precision", "recall", "f1", "support"]
        assert len(rows) == 1 + 3 + 1  # header, classes, macro summary
        assert rows[-1][0] == "macro"
        assert float(rows[-1][3]) == self.report.macro_f1
