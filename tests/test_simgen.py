import numpy as np
import pytest

from fddsense.dataset import INSTALLED_SENSORS
from fddsense.errors import BadProportionsError, InvalidValueError
from fddsense.simgen import (
    DEFAULT_PROPORTIONS,
    GeneratorConfig,
    generate_dataset,
)


class TestLabelApportionment:
    def test_default_proportions_are_exact_at_20000(self):
        d = generate_dataset(GeneratorConfig(n_rows=20000), 0)
        assert d.class_counts() == {0: 9120, 1: 1820, 2: 1780, 3: 1820, 4: 1820, 5: 1820, 6: 1820}

    def test_largest_remainder_at_awkward_size(self):
        d = generate_dataset(GeneratorConfig(n_rows=300), 7)
        # floors: 136,27,26,27,27,27,27 = 297; +1 to the three largest
        # remainders .8 (class 0), .7 (class 2), then the .3 tie -> class 1.
        assert d.class_counts() == {0: 137, 1: 28, 2: 27, 3: 27, 4: 27, 5: 27, 6: 27}

    def test_every_row_counted(self):
        for n in (1, 7, 123):
            d = generate_dataset(GeneratorConfig(n_rows=n), 1)
            assert sum(d.class_counts().values()) == n


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_dataset(GeneratorConfig(n_rows=400), 11)
        b = generate_dataset(GeneratorConfig(n_rows=400), 11)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = generate_dataset(GeneratorConfig(n_rows=400), 11)
        b = generate_dataset(GeneratorConfig(n_rows=400), 12)
        assert not np.array_equal(a.values, b.values)


class TestDistribution:
    def setup_method(self):
        self.d = generate_dataset(GeneratorConfig(n_rows=8000), 3)

    def column(self, symbol):
        return self.d.values[:, self.d.sensor_index(symbol)]

    def rows_of(self, class_id):
        return self.d.labels == class_id

    def test_full_schema(self):
        assert self.d.schema == INSTALLED_SENSORS
        assert self.d.n_sensors == 40

    def test_baseline_means(self):
        # Nuisance sensor under the non-faulty class: plain baseline.
        w1 = self.column("W1")[self.rows_of(0)]
        assert abs(w1.mean() - 3000.0) < 5.0
        t = self.column("T_suc1")[self.rows_of(0)]
        assert abs(t.mean() - 25.0) < 0.2

    def test_informative_shifts_present(self):
        t_fi = self.column("T_FI")
        assert abs(t_fi[self.rows_of(5)].mean() - 33.0) < 0.5
        assert abs(t_fi[self.rows_of(6)].mean() - 17.0) < 0.5
        t_fo = self.column("T_FO")
        assert abs(t_fo[self.rows_of(1)].mean() - 31.0) < 0.5
        assert abs(t_fo[self.rows_of(3)].mean() - 19.0) < 0.5
        w6 = self.column("W6")
        assert abs(w6[self.rows_of(5)].mean() - 3120.0) < 10.0

    def test_classes_5_and_6_collapse_without_t_fi(self):
        # Within the strongly informative trio (T_FI, T_FO, T_C) plus W6,
        # classes 5 and 6 differ only through T_FI; their one other
        # signature is the weak secondary shift on T_sup1.
        mean5 = self.d.values[self.rows_of(5)].mean(axis=0)
        mean6 = self.d.values[self.rows_of(6)].mean(axis=0)
        fi = self.d.sensor_index("T_FI")
        assert mean5[fi] - mean6[fi] > 15.0
        sd = np.array(
            [{"power": 40.0, "mass_flow": 0.15, "pressure": 0.08, "temperature": 1.0}[
                s.kind
            ] for s in INSTALLED_SENSORS]
        )
        gap = np.abs(mean5 - mean6) / sd
        secondary = self.d.sensor_index("T_sup1")
        assert 1.5 < gap[secondary] < 2.5
        others = [j for j in range(self.d.n_sensors) if j not in (fi, secondary)]
        # Everything else matches to sampling error, O(sd / sqrt(n)).
        assert gap[others].max() < 0.25


class TestValidation:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(BadProportionsError):
            GeneratorConfig(class_proportions=(0.5, 0.1, 0.1, 0.1, 0.1, 0.05, 0.04))

    def test_proportions_length(self):
        with pytest.raises(BadProportionsError):
            GeneratorConfig(class_proportions=(0.5, 0.5))

    def test_negative_proportion_rejected(self):
        bad = (1.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(BadProportionsError):
            GeneratorConfig(class_proportions=bad)

    @pytest.mark.parametrize(
        "bad", [("1.0",) + (0.0,) * 6, (True,) + (0.0,) * 6, 1.0], ids=["str", "bool", "not-a-list"]
    )
    def test_non_number_proportions_rejected(self, bad):
        with pytest.raises(BadProportionsError, match="^class_proportions"):
            GeneratorConfig(class_proportions=bad)

    def test_default_proportions_valid(self):
        assert abs(sum(DEFAULT_PROPORTIONS) - 1.0) <= 1e-12

    def test_nonpositive_rows_rejected(self):
        with pytest.raises(InvalidValueError):
            GeneratorConfig(n_rows=0)
