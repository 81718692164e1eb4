import errno
import re
import tracemalloc
import zlib

import numpy as np
import pytest

import fddsense.dataset as dataset
from fddsense.dataset import (
    _LOAD_BLOCK_ROWS,
    FAULT_CLASSES,
    INSTALLED_SENSOR_INDEX,
    INSTALLED_SENSORS,
    Dataset,
    _load_cells,
    _load_fast,
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
    InvalidValueError,
    MalformedRowError,
    SchemaMismatchError,
    SingleClassError,
    UnknownSensorError,
)
from fddsense.ensembles import EnsembleConfig, fit_ensemble
from fddsense.robustness import AWGN, FAILURE, NoiseSpec, fail_sensor, inject_awgn, run_scenarios
from fddsense.simgen import GeneratorConfig, generate_dataset
from fddsense.trees import TreeConfig


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
        assert INSTALLED_SENSOR_INDEX["M1"].unit == "kg/min"

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

    @pytest.mark.parametrize(
        "labels, message",
        [([0.5, 1.7], "label 0.5 at row 0"), ([1.0, 1.25], "label 1.25 at row 1"),
         ([0.0, np.nan], "label nan at row 1"), ([np.inf, 1.0], "label inf at row 0"),
         ([0.0, 2.0**63], "label 9.223372036854776e+18 at row 1")],
    )
    def test_non_integer_labels_are_rejected(self, labels, message):
        with pytest.raises(InvalidValueError, match=re.escape(f"{message} is not an integer")):
            Dataset(INSTALLED_SENSORS[:1], [[1.0], [2.0]], labels)

    def test_whole_float_labels_are_class_ids(self):
        d = Dataset(INSTALLED_SENSORS[:1], [[1.0], [2.0]], [1.0, 2.0])
        assert d.labels.dtype == np.int64 and d.labels.tolist() == [1, 2]

    def test_validation_errors_are_fdd_errors(self):
        for values, labels in (
            (np.zeros((3, 2)), np.array([0, 1])),
            (np.zeros((2, 2)), np.array([0, -1])),
            (np.full((2, 2), np.nan), np.array([0, 1])),
            (np.zeros((2, 3)), np.array([0, 1])),
        ):
            with pytest.raises(FddError):
                Dataset(INSTALLED_SENSORS[:2], values, labels)


    def test_one_dimensional_values_name_their_shape(self):
        with pytest.raises(InvalidValueError, match=re.escape("values must be a 2-D matrix, got shape (3,)")):
            Dataset(INSTALLED_SENSORS[:1], np.zeros(3), np.zeros(3, dtype=int))

    def test_repeated_sensor_is_named(self):
        meta = INSTALLED_SENSOR_INDEX["T_FI"]
        with pytest.raises(InvalidValueError, match=re.escape("sensor symbols must be unique: 'T_FI' repeats")):
            Dataset((INSTALLED_SENSOR_INDEX["T_C"], meta, meta), np.zeros((2, 3)), np.zeros(2, dtype=int))

    def test_text_labels_name_their_dtype(self):
        with pytest.raises(InvalidValueError, match=re.escape("label values must be integers, got dtype <U1")):
            Dataset(INSTALLED_SENSORS[:1], np.zeros((2, 1)), np.array(["0", "1"]))


class TestCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        d = small_dataset(n=120, seed=3)
        path = tmp_path / "data.csv"
        write_csv(d, path)
        loaded = load_dataset(path)
        assert loaded.symbols == d.symbols
        assert np.array_equal(loaded.values, d.values)
        assert np.array_equal(loaded.labels, d.labels)

    def test_interrupted_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A write that fails after its first block, as on a full disk,
        leaves the file as it was, and no temp file beside it."""
        path = tmp_path / "data.csv"
        write_csv(small_dataset(n=20, seed=1), path)
        before = path.read_bytes()
        blocks = []

        def zip_then_fail(*args):
            blocks.append(args)
            if len(blocks) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return zip(*args)

        monkeypatch.setattr(dataset, "_WRITE_BLOCK_ROWS", 8)
        monkeypatch.setattr(dataset, "zip", zip_then_fail, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_csv(small_dataset(n=40, seed=2), path)
        assert len(blocks) == 2
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("where, error", [("missing/data.csv", FileNotFoundError), ("adir", IsADirectoryError)])
    def test_unwritable_path_is_named(self, tmp_path, where, error):
        """The error names the path given, not the temp file written first,
        and no temp file is left."""
        (tmp_path / "adir").mkdir()
        path = tmp_path / where
        with pytest.raises(error) as caught:
            write_csv(small_dataset(n=20), path)
        assert caught.value.filename == str(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
        assert list((tmp_path / "adir").iterdir()) == []

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

    @pytest.mark.parametrize(
        "header, message",
        [
            ("T_FI,T_FI,class", "duplicate sensor symbol 'T_FI' in header"),
            ("class", "header names no sensor columns"),
            ('"T_FI,class', "header is not readable CSV: unexpected end of data"),
        ],
        ids=["repeated-symbol", "class-only", "unclosed-quote"],
    )
    def test_bad_header_is_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1.0,0\n")
        with pytest.raises(SchemaMismatchError, match="^" + re.escape(message) + "$"):
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

    def test_empty_dataset_rejected(self):
        empty = small_dataset().take_rows(np.arange(0))
        with pytest.raises(EmptyDatasetError, match="cannot split an empty dataset"):
            split_train_test(empty, 0.75)

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


def _outcome(load, path):
    """What a reader makes of a file: its table, bit for bit, or its
    error's type, cells and message."""
    try:
        d = load(path)
    except FddError as exc:
        return type(exc), getattr(exc, "cells", None), str(exc)
    return d.symbols, d.values.shape, d.values.tobytes(), d.labels.tobytes()


def _fuzz_mutations(fuzz_table, kind):
    """The 20 tables TestCsvFuzz loads for kind: the same edits, drawn
    from the same seed."""
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    lines = fuzz_table.split(b"\n")
    for _ in range(20):
        line_no = int(rng.integers(0, len(lines) - 1))
        cells = lines[line_no].split(b",")
        if kind == "drop-comma":
            col = int(rng.integers(0, len(cells) - 1))
            cells[col : col + 2] = [cells[col] + cells[col + 1]]
        else:
            col = int(rng.integers(0, len(cells)))
            cells[col] = _CELL_EDITS[kind](cells[col], rng)
        yield b"\n".join([*lines[:line_no], b",".join(cells), *lines[line_no + 1 :]])


_HEADER = b"T_FI,T_FO,class\n"

# name -> (file bytes, whether NumPy's reader takes the file whole; None
# where NumPy versions may differ)
_EDGE_FILES = {
    "clean": (_HEADER + b"1.5,-2e3,0\n4.25,0.5,6\n", True),
    "crlf": (_HEADER.replace(b"\n", b"\r\n") + b"1.5,2.5,0\r\n3.5,4.5,6\r\n", True),
    "cr": (_HEADER.replace(b"\n", b"\r") + b"1.5,2.5,0\r3.5,4.5,6\r", True),
    "no-final-newline": (_HEADER + b"1.5,2.5,0\n3.5,4.5,6", True),
    "label-plus-3": (_HEADER + b"1.5,2.5,+3\n", True),
    "label-space-3": (_HEADER + b"1.5,2.5, 3\n", True),
    "nbsp-around-cell": (_HEADER + "\u00a01.5\u00a0,2.5,3\n".encode(), None),
    "label-3.0": (_HEADER + b"1.5,2.5,3.0\n", False),
    "blank-line": (_HEADER + b"1.5,2.5,0\n\n3.5,4.5,6\n", False),
    "blank-first-line": (_HEADER + b"\n1.5,2.5,0\n", False),
    "blank-last-line": (_HEADER + b"1.5,2.5,0\n\r\n", False),
    "blank-lines-only": (_HEADER + b"\n\n", False),
    "spaces-line": (_HEADER + b"1.5,2.5,0\n   \n", False),
    "hash-in-cell": (_HEADER + b"1.5,#2.5,0\n", False),
    "quoted-cell": (_HEADER + b'"1.5",2.5,0\n', False),
    "underscore-cell": (_HEADER + b"1_000,2.5,0\n", False),
    "arabic-indic-digit": (_HEADER + "\u0661,2.5,0\n".encode(), False),
    "inf": (_HEADER + b"inf,2.5,0\n", False),
    "xff-byte": (_HEADER + b"1.5,2\xff.5,0\n", False),
    "nul": (_HEADER + b"1.5,2\x00.5,0\n", False),
    "extra-column-every-row": (_HEADER + b"1.5,2.5,0,1\n3.5,4.5,6,1\n", False),
    "unknown-symbol": (b"T_FI,T_x,class\n1.5,2.5,0\n", False),
    "quoted-header": (b'"T_FI",T_FO,class\n1.5,2.5,0\n', False),
    "empty": (b"", False),
    "header-only": (_HEADER, False),
}


def _rows(n_rows: int) -> list[bytes]:
    return [f"{i / 8},{-i / 3!r},{i % 7}".encode() for i in range(n_rows)]


def _block_file(rows: list[bytes], newline: bytes = b"\n") -> bytes:
    return newline.join([_HEADER.rstrip(b"\n"), *rows, b""])


# Files around _load_fast's block of rows: which block a row falls in
# must not change the table or the error.
_EDGE_FILES |= {
    "one-block": (_block_file(_rows(_LOAD_BLOCK_ROWS)), True),
    "one-block-and-a-row": (_block_file(_rows(_LOAD_BLOCK_ROWS + 1)), True),
    "cr-over-one-block": (_block_file(_rows(_LOAD_BLOCK_ROWS + 3), b"\r"), True),
    "blank-line-after-one-block": (_block_file([*_rows(_LOAD_BLOCK_ROWS), b"", *_rows(3)]), False),
    "bad-cell-in-second-block": (_block_file([*_rows(_LOAD_BLOCK_ROWS + 2), b"1.5,2.5x,0", *_rows(2)]), False),
}


class TestFastCsvPath:
    """load_dataset parses with np.loadtxt and falls back to the per-cell
    reader; both must give the same table or the same error."""

    @pytest.mark.parametrize("name", sorted(_EDGE_FILES))
    def test_edge_files(self, tmp_path, name):
        raw, fast = _EDGE_FILES[name]
        path = tmp_path / "edge.csv"
        path.write_bytes(raw)
        if fast is not None:
            assert (_load_fast(path) is not None) == fast
        assert _outcome(load_dataset, path) == _outcome(_load_cells, path)

    def test_clean_fuzz_table_takes_the_fast_path(self, tmp_path, fuzz_table):
        path = tmp_path / "table.csv"
        path.write_bytes(fuzz_table)
        assert _load_fast(path) is not None
        assert _outcome(_load_fast, path) == _outcome(_load_cells, path)

    @pytest.mark.parametrize("kind", sorted([*_CELL_EDITS, "drop-comma"]))
    def test_fuzz_mutations(self, tmp_path, fuzz_table, kind):
        path = tmp_path / "mutated.csv"
        for raw in _fuzz_mutations(fuzz_table, kind):
            path.write_bytes(raw)
            assert _outcome(load_dataset, path) == _outcome(_load_cells, path)


def _column_major(d: Dataset) -> bool:
    return (
        d.values.flags.f_contiguous
        and not d.values.flags.writeable
        and np.asfortranarray(d.values) is d.values
    )


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestColumnMajorValues:
    def test_every_builder_gives_column_major_values(self, tmp_path):
        d = small_dataset(n=300, seed=2)
        path = tmp_path / "data.csv"
        write_csv(d, path)
        rows = np.flatnonzero(d.labels != 0)
        built = {
            "generate_dataset": d,
            "load_dataset": load_dataset(path),
            "_load_cells": _load_cells(path),
            "take_rows": d.take_rows(rows),
            "select_sensors": d.select_sensors([5, 0, 33]),
            "inject_awgn": inject_awgn(d, "T_C", 3.0, seed=1)[0],
            "fail_sensor": fail_sensor(d, "T_C")[0],
            "from a row-major matrix": Dataset(d.schema, np.ascontiguousarray(d.values), d.labels),
        }
        assert {name: _column_major(b) for name, b in built.items()} == dict.fromkeys(built, True)
        assert np.array_equal(built["take_rows"].values, d.values[rows])
        assert np.array_equal(built["select_sensors"].values, d.values[:, [5, 0, 33]])

    def test_scenarios_copy_no_matrix(self):
        """Each scenario builds its sensor's column, not a perturbed copy
        of the test matrix."""
        d = small_dataset(n=20_000, seed=2)
        cfg = EnsembleConfig(n_trees=3, tree=TreeConfig(max_depth=6))
        model = fit_ensemble(d.values[:2_000], d.labels[:2_000], cfg, 1, d.symbols, n_classes=7)
        roots = sorted({d.symbols[tree.feature[0]] for tree in model.trees})
        specs = [NoiseSpec(s, AWGN, 3.0) for s in roots] + [NoiseSpec(s, FAILURE) for s in roots]
        assert _peak_bytes(lambda: run_scenarios(model, d, specs, seed=0)) < 0.5 * d.values.nbytes

    def test_loading_fills_one_matrix(self, tmp_path):
        """The CSV is parsed a block of rows at a time into the
        column-major matrix, not into a row-major table that is then
        copied."""
        d = small_dataset(n=20_000, seed=2)
        path = tmp_path / "data.csv"
        write_csv(d, path)
        assert _load_fast(path) is not None
        assert _peak_bytes(lambda: load_dataset(path)) < 1.5 * d.values.nbytes

    def test_gathers_copy_the_matrix_once(self):
        d = small_dataset(n=20_000, seed=2)
        rows = np.arange(0, d.n_rows, 2)
        half = d.values.nbytes // 2
        assert _peak_bytes(lambda: d.take_rows(rows)) < 1.5 * half
        assert _peak_bytes(lambda: d.select_sensors(range(20))) < 1.5 * half
