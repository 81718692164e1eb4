import zlib

import numpy as np
import pytest

from fddsense.dataset import (
    FAULT_CLASSES,
    INSTALLED_SENSORS,
    Dataset,
    SensorMeta,
    load_dataset,
    split_train_test,
    undersample_majority,
    write_csv,
)
from fddsense.errors import (
    ClassTooSmallError,
    DegenerateFractionError,
    EmptyDatasetError,
    FddError,
    MalformedRowError,
    SchemaMismatchError,
    SingleClassError,
    UnknownSensorError,
)
from fddsense.simgen import GeneratorConfig, generate_dataset


def small_dataset(n=60, seed=0):
    return generate_dataset(GeneratorConfig(n_rows=n), seed)


class TestSchema:
    def test_forty_installed_sensors(self):
        assert len(INSTALLED_SENSORS) == 40
        kinds = [s.kind for s in INSTALLED_SENSORS]
        assert kinds.count("power") == 6
        assert kinds.count("mass_flow") == 3
        assert kinds.count("pressure") == 7
        assert kinds.count("temperature") == 24

    def test_bad_sensor_meta_is_an_fdd_error(self):
        with pytest.raises(FddError, match="unknown sensor kind"):
            SensorMeta("X1", "probe", "W", "voltage")
        with pytest.raises(FddError, match="inconsistent"):
            SensorMeta("X1", "probe", "W", "temperature")

    def test_seven_fault_classes(self):
        assert [fc.id for fc in FAULT_CLASSES] == list(range(7))
        assert FAULT_CLASSES[0].name == "Non-faulty condition"


class TestDatasetType:
    def test_arrays_are_frozen(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            d.labels[0] = 1

    def test_sensor_index(self):
        d = small_dataset()
        assert d.symbols[d.sensor_index("T_FI")] == "T_FI"
        with pytest.raises(UnknownSensorError):
            d.sensor_index("T_underfloor")

    def test_select_sensors_keeps_rows(self):
        d = small_dataset()
        sub = d.select_sensors([d.sensor_index("T_C"), d.sensor_index("W1")])
        assert sub.symbols == ("T_C", "W1")
        assert np.array_equal(sub.labels, d.labels)
        assert np.array_equal(sub.values[:, 0], d.values[:, d.sensor_index("T_C")])

    def test_label_and_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(INSTALLED_SENSORS[:2], np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError):
            Dataset(INSTALLED_SENSORS[:2], np.zeros((2, 2)), np.array([0, -1]))
        with pytest.raises(ValueError):
            Dataset(INSTALLED_SENSORS[:2], np.full((2, 2), np.nan), np.array([0, 1]))

    def test_validation_errors_are_fdd_errors(self):
        for values, labels in (
            (np.zeros((3, 2)), np.array([0, 1])),
            (np.zeros((2, 2)), np.array([0, -1])),
            (np.full((2, 2), np.nan), np.array([0, 1])),
            (np.zeros((2, 3)), np.array([0, 1])),
        ):
            with pytest.raises(FddError):
                Dataset(INSTALLED_SENSORS[:2], values, labels)


class TestCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        d = small_dataset(n=120, seed=3)
        path = tmp_path / "data.csv"
        write_csv(d, path)
        loaded = load_dataset(path)
        assert loaded.symbols == d.symbols
        assert np.array_equal(loaded.values, d.values)
        assert np.array_equal(loaded.labels, d.labels)

    def test_strict_rejects_unknown_symbol(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("T_FI,T_mystery,class\n1.0,2.0,0\n3.0,4.0,1\n")
        with pytest.raises(SchemaMismatchError):
            load_dataset(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("T_FI,T_FO\n1.0,2.0\n")
        with pytest.raises(SchemaMismatchError):
            load_dataset(path)

    def test_malformed_cells_all_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "T_FI,T_FO,class\n"
            "1.0,2.0,0\n"
            "oops,2.0,0\n"  # bad float, row 1
            "1.0,2.0\n"  # short row, row 2: the class cell is missing
            "1.0,2.0,maybe\n"  # bad label, row 3
        )
        with pytest.raises(MalformedRowError) as info:
            load_dataset(path)
        cells = set(info.value.cells)
        assert (1, "T_FI") in cells
        assert (2, "class") in cells
        assert (3, "class") in cells

    def test_negative_label_is_a_malformed_cell(self, tmp_path):
        """So is a label beyond int64, which int() accepts, and any label
        that is not a fault class id."""
        path = tmp_path / "bad.csv"
        path.write_text(f"T_FI,T_FO,class\n1.0,2.0,0\n1.0,2.0,-1\n1.0,2.0,1\n1.0,2.0,{2**63}\n")
        with pytest.raises(MalformedRowError) as info:
            load_dataset(path)
        assert info.value.cells == [(1, "class"), (3, "class")]
        path.write_text("T_FI,T_FO,class\n1.0,2.0,0\n1.0,2.0,7\n")
        with pytest.raises(MalformedRowError) as info:
            load_dataset(path)
        assert info.value.cells == [(1, "class")]
        path.write_text("T_FI,T_FO,class\n1.0,2.0,0\n1.0,2.0,6\n")
        assert load_dataset(path).labels.tolist() == [0, 6]

    def test_nonfinite_cells_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("T_FI,T_FO,class\n1.0,nan,1\n2.0,inf,0\n")
        with pytest.raises(MalformedRowError) as info:
            load_dataset(path)
        assert set(info.value.cells) == {(0, "T_FO"), (1, "T_FO")}

    def test_empty_file_and_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(EmptyDatasetError):
            load_dataset(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("T_FI,class\n")
        with pytest.raises(EmptyDatasetError):
            load_dataset(header_only)


class TestUndersampling:
    def test_majority_matches_largest_minority(self):
        d = small_dataset(n=400, seed=1)
        balanced = undersample_majority(d, seed=5)
        counts = balanced.class_counts()
        majority_before = max(d.class_counts().values())
        assert max(counts.values()) < majority_before
        assert counts[0] == max(n for c, n in d.class_counts().items() if c != 0)

    def test_minority_rows_survive_verbatim(self):
        d = small_dataset(n=400, seed=1)
        balanced = undersample_majority(d, seed=5)
        minority_before = d.values[d.labels != 0]
        minority_after = balanced.values[balanced.labels != 0]
        assert np.array_equal(minority_before, minority_after)

    def test_deterministic_per_seed(self):
        d = small_dataset(n=400, seed=1)
        a = undersample_majority(d, seed=9)
        b = undersample_majority(d, seed=9)
        c = undersample_majority(d, seed=10)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_single_class_rejected(self):
        d = small_dataset(n=50, seed=0)
        uni = d.take_rows(np.flatnonzero(d.labels == 0))
        with pytest.raises(SingleClassError):
            undersample_majority(uni)


class TestSplitting:
    def test_disjoint_and_exhaustive(self):
        d = small_dataset(n=500, seed=2)
        train, test = split_train_test(d, 0.75, seed=3)
        assert train.n_rows + test.n_rows == d.n_rows
        combined = np.vstack([train.values, test.values])
        assert np.array_equal(
            np.sort(combined, axis=0), np.sort(d.values, axis=0)
        )

    def test_stratified_floor_per_class(self):
        d = small_dataset(n=500, seed=2)
        train, _ = split_train_test(d, 0.6, seed=3)
        for class_id, count in d.class_counts().items():
            expected = int(np.floor(0.6 * count))
            assert train.class_counts().get(class_id, 0) == expected

    def test_deterministic_per_seed(self):
        d = small_dataset(n=500, seed=2)
        a, _ = split_train_test(d, 0.75, seed=8)
        b, _ = split_train_test(d, 0.75, seed=8)
        assert np.array_equal(a.values, b.values)

    def test_degenerate_fraction_rejected(self):
        d = small_dataset()
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DegenerateFractionError):
                split_train_test(d, bad)

    def test_tiny_class_rejected_when_stratified(self):
        d = small_dataset(n=300, seed=4)
        keep = np.flatnonzero((d.labels != 6))
        one_row_of_6 = np.flatnonzero(d.labels == 6)[:1]
        trimmed = d.take_rows(np.sort(np.concatenate([keep, one_row_of_6])))
        with pytest.raises(ClassTooSmallError):
            split_train_test(trimmed, 0.75)


# Seeded CSV fuzzing.  Each edit changes one cell, or for "drop-comma" one
# line, of a valid table that is longer than the csv module's 131072-char
# field limit, so that a stray quote early on overflows it.
_REPLACEMENTS = (b"abc", b"", b"nan", b"inf", b"1e400", b"-1", b"7", b"1.5")


def _insert(piece):
    def edit(cell, rng):
        k = int(rng.integers(0, len(cell) + 1))
        return cell[:k] + piece + cell[k:]

    return edit


_CELL_EDITS = {
    **{
        "replace-" + (text.decode() or "empty"): (lambda cell, rng, text=text: text)
        for text in _REPLACEMENTS
    },
    "stray-quote": lambda cell, rng: b'"' + cell,
    "nul": _insert(b"\x00"),
    "xff": _insert(b"\xff"),
    "extra-comma": _insert(b","),
}
# These edits leave the row's cells in place, so the error names the cell.
_NAMES_THE_CELL = {"nul", "xff"} | {k for k in _CELL_EDITS if k.startswith("replace-")}


def _loads_as_number(text: bytes) -> bool:
    try:
        return np.isfinite(float(text))
    except ValueError:
        return False


@pytest.fixture(scope="module")
def fuzz_table(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "table.csv"
    write_csv(small_dataset(n=400, seed=9), path)
    text = path.read_bytes()
    assert len(text) > 2 * 131072
    return text


class TestCsvFuzz:
    @pytest.mark.parametrize("kind", sorted([*_CELL_EDITS, "drop-comma"]))
    def test_mutations_raise_only_fdd_errors(self, tmp_path, fuzz_table, kind):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        lines = fuzz_table.split(b"\n")  # the last entry is empty
        header = lines[0].decode().split(",")
        path = tmp_path / "mutated.csv"
        for _ in range(20):
            line_no = int(rng.integers(0, len(lines) - 1))
            cells = lines[line_no].split(b",")
            if kind == "drop-comma":
                col = int(rng.integers(0, len(cells) - 1))
                cells[col : col + 2] = [cells[col] + cells[col + 1]]
            else:
                col = int(rng.integers(0, len(cells)))
                cells[col] = _CELL_EDITS[kind](cells[col], rng)
            edited = cells[col]
            path.write_bytes(b"\n".join([*lines[:line_no], b",".join(cells), *lines[line_no + 1 :]]))
            case = f"{kind} at line {line_no} col {header[col]!r}"
            try:
                loaded = load_dataset(path)
            except FddError as exc:
                error = exc
            else:
                error = None
            if line_no == 0:
                assert isinstance(error, SchemaMismatchError), case
                continue
            row = line_no - 1
            if error is None:
                # A number where a sensor reading belongs is no error.
                assert kind.startswith("replace-"), case
                assert header[col] != "class" and _loads_as_number(edited), case
                assert loaded.values[row, col] == float(edited), case
                continue
            assert isinstance(error, MalformedRowError), case
            if kind in _NAMES_THE_CELL:
                assert error.cells == [(row, header[col])], case
            else:
                assert [r for r, _ in error.cells] == [row], case

    def test_stray_quote_names_the_row_where_reading_stopped(self, tmp_path, fuzz_table):
        lines = fuzz_table.split(b"\n")
        lines[6] = b'"' + lines[6]
        path = tmp_path / "quoted.csv"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(MalformedRowError) as info:
            load_dataset(path)
        assert info.value.cells == [(5, None)]
        assert "field larger than field limit" in str(info.value)

    @pytest.mark.parametrize(
        "line, why",
        [('"1.0"5,2.0,0', "',' expected after '\"'"), ('1.0,2.0,"0', "unexpected end of data")],
        ids=["text-after-closing-quote", "quote-open-at-end"],
    )
    def test_quotes_never_merge_into_a_number(self, tmp_path, line, why):
        path = tmp_path / "quoted.csv"
        path.write_text(f"T_FI,T_FO,class\n1.0,2.0,1\n{line}\n")
        with pytest.raises(MalformedRowError) as info:
            load_dataset(path)
        assert info.value.cells == [(1, None)]
        assert why in str(info.value)
