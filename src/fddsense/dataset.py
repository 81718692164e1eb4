"""Sensor dataset ingestion, rebalancing, and train/test splitting.

The on-disk carrier is a UTF-8 CSV whose header row lists sensor symbols
followed by a final "class" column; cells are decimal or scientific
notation numbers and labels are fault class ids (bare integers 0-6).
All operations here are pure functions of (input, seed) and every
returned Dataset is immutable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassTooSmallError,
    DegenerateFractionError,
    EmptyDatasetError,
    InvalidValueError,
    MalformedRowError,
    SchemaMismatchError,
    SingleClassError,
    UnknownSensorError,
)

LABEL_COLUMN = "class"

KIND_UNITS = {
    "power": "W",
    "mass_flow": "kg/min",
    "pressure": "MPa",
    "temperature": "°C",
}


@dataclass(frozen=True)
class SensorMeta:
    """One installed sensor: short symbol, free-text description, kind
    (a key of KIND_UNITS)."""

    symbol: str
    description: str
    kind: str

    @property
    def unit(self) -> str:
        return KIND_UNITS[self.kind]


# The full 40-sensor instrumentation schema of the two-stage CO2 rig:
# 6 power, 3 mass flow, 7 pressure, and 24 temperature sensors.
INSTALLED_SENSORS: tuple[SensorMeta, ...] = (
    SensorMeta("W1", "MT 1st compressor power", "power"),
    SensorMeta("W2", "MT 2nd compressor power", "power"),
    SensorMeta("W3", "MT 3rd compressor power", "power"),
    SensorMeta("W4", "LT 1st compressor power", "power"),
    SensorMeta("W5", "LT 2nd compressor power", "power"),
    SensorMeta("W6", "Condenser fan power", "power"),
    SensorMeta("M1", "Flash tank bypass mass flow rate", "mass_flow"),
    SensorMeta("M2", "LT evaporator mass flow rate", "mass_flow"),
    SensorMeta("M3", "MT evaporator mass flow rate", "mass_flow"),
    SensorMeta("P_dis1", "MT compressor rack outlet pressure", "pressure"),
    SensorMeta("P_suc1", "MT compressor rack inlet pressure", "pressure"),
    SensorMeta("P_dis2", "LT compressor rack outlet pressure", "pressure"),
    SensorMeta("P_suc2", "LT compressor rack inlet pressure", "pressure"),
    SensorMeta("P_dis3", "Flash tank vapor outlet pressure", "pressure"),
    SensorMeta("P_suc3", "LT display case suction pressure", "pressure"),
    SensorMeta("P_suc4", "MT display case suction pressure", "pressure"),
    SensorMeta("T_dis1", "MT 1st compressor discharge temperature", "temperature"),
    SensorMeta("T_suc1", "MT 1st compressor suction temperature", "temperature"),
    SensorMeta("T_dis2", "MT 2nd compressor discharge temperature", "temperature"),
    SensorMeta("T_suc2", "MT 2nd compressor suction temperature", "temperature"),
    SensorMeta("T_dis3", "MT 3rd compressor discharge temperature", "temperature"),
    SensorMeta("T_suc3", "MT 3rd compressor suction temperature", "temperature"),
    SensorMeta("T_dis4", "LT 1st compressor discharge temperature", "temperature"),
    SensorMeta("T_suc4", "LT 1st compressor suction temperature", "temperature"),
    SensorMeta("T_dis5", "LT 2nd compressor discharge temperature", "temperature"),
    SensorMeta("T_suc5", "LT 2nd compressor suction temperature", "temperature"),
    SensorMeta("T_dis6", "MT compressor rack outlet temperature", "temperature"),
    SensorMeta("T_suc6", "MT compressor rack inlet temperature", "temperature"),
    SensorMeta("T_dis7", "LT compressor rack outlet temperature", "temperature"),
    SensorMeta("T_suc7", "LT compressor rack inlet temperature", "temperature"),
    SensorMeta("T_suc8", "Flash tank vapor outlet temperature", "temperature"),
    SensorMeta("T_suc9", "LT display case suction temperature", "temperature"),
    SensorMeta("T_suc10", "MT display case suction temperature", "temperature"),
    SensorMeta("T_C", "Condenser outlet temperature", "temperature"),
    SensorMeta("T_FI", "Condenser inlet air temperature", "temperature"),
    SensorMeta("T_FO", "Condenser outlet air temperature", "temperature"),
    SensorMeta("T_sup1", "MT evaporator supply air temperature", "temperature"),
    SensorMeta("T_ret1", "MT evaporator return air temperature", "temperature"),
    SensorMeta("T_sup2", "LT evaporator supply air temperature", "temperature"),
    SensorMeta("T_ret2", "LT evaporator return air temperature", "temperature"),
)

INSTALLED_SENSOR_INDEX = {s.symbol: s for s in INSTALLED_SENSORS}


@dataclass(frozen=True)
class FaultClass:
    """Integer class id and human-readable condition name; id 0 is non-faulty."""

    id: int
    name: str


# Fault taxonomy: class 0 is the non-faulty condition, 1..6 are the six
# seeded fault conditions of the rig.  5 and 6 are the condenser air-side
# pair: both push the fan to full power, with opposite effects on the
# condenser inlet air temperature.
FAULT_CLASSES: tuple[FaultClass, ...] = (
    FaultClass(0, "Non-faulty condition"),
    FaultClass(1, "Open LT display case door"),
    FaultClass(2, "Ice accumulation on LT evaporator coil"),
    FaultClass(3, "LT evaporator expansion valve failure"),
    FaultClass(4, "MT evaporator fan motor failure"),
    FaultClass(5, "Condenser air path blockage"),
    FaultClass(6, "Condenser fan overspeed"),
)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asfortranarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric sensor table plus an integer fault label per row.

    values is column-major (Fortran order): each sensor's column is one
    contiguous block.  Trees are fitted and rows routed a column at a
    time, and a degradation study rewrites one column, so every consumer
    reads this layout without a copy.  The builders here gather straight
    into it, and any other input is copied to it once.

    A values array that is already float64 and column-major (and a
    labels array that is already int64) is adopted, not copied, and made
    read-only in place: the caller's own array stops being writable.
    Pass a copy to keep a writable one.
    """

    schema: tuple[SensorMeta, ...]
    values: np.ndarray  # (n_rows, n_sensors) float64, finite, column-major
    labels: np.ndarray  # (n_rows,) int64, >= 0

    def __post_init__(self):
        values = _freeze(np.asarray(self.values, dtype=np.float64))
        labels = _freeze(np.asarray(self.labels, dtype=np.int64))
        if values.ndim != 2:
            raise InvalidValueError("values must be a 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != values.shape[0]:
            raise InvalidValueError("labels length must equal the number of rows")
        if values.shape[1] != len(self.schema):
            raise InvalidValueError("column count must equal schema length")
        if values.size and not np.isfinite(values).all():
            raise InvalidValueError("values contain NaN or Inf")
        if labels.size and labels.min() < 0:
            raise InvalidValueError("labels must be non-negative")
        symbols = [s.symbol for s in self.schema]
        if len(set(symbols)) != len(symbols):
            raise InvalidValueError("sensor symbols must be unique")
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_sensors(self) -> int:
        return self.values.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.n_rows else 0

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(s.symbol for s in self.schema)

    def class_counts(self) -> dict[int, int]:
        ids, counts = np.unique(self.labels, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def sensor_index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UnknownSensorError(f"sensor {symbol!r} not in schema") from None

    def select_sensors(self, indices) -> "Dataset":
        """New Dataset restricted to the given sensor columns, rows unchanged."""
        indices = list(indices)
        schema = tuple(self.schema[i] for i in indices)
        # values.T is row-major, one row per sensor, so a gather along it
        # writes each column contiguously: these results are column-major
        # and Dataset keeps them without a second copy.
        return Dataset(schema, self.values.T.take(indices, axis=0).T, self.labels)

    def take_rows(self, indices: np.ndarray) -> "Dataset":
        values = self.values.T.take(indices, axis=1).T
        return Dataset(self.schema, values, self.labels[indices])


def _parse_header(header: list[str]) -> tuple[SensorMeta, ...]:
    if not header or header[-1] != LABEL_COLUMN:
        raise SchemaMismatchError(
            f"last header column must be {LABEL_COLUMN!r}, got {header[-1:]!r}"
        )
    symbols = header[:-1]
    if not symbols:
        raise SchemaMismatchError("header names no sensor columns")
    if len(set(symbols)) != len(symbols):
        raise SchemaMismatchError("duplicate sensor symbols in header")
    unknown = [s for s in symbols if s not in INSTALLED_SENSOR_INDEX]
    if unknown:
        raise SchemaMismatchError(f"unknown sensor symbols {unknown!r}")
    return tuple(INSTALLED_SENSOR_INDEX[s] for s in symbols)


def _class_id(cell: str) -> int:
    """The fault class id a label cell holds: an integer in
    [0, len(FAULT_CLASSES)).  ValueError for any other text."""
    label = int(cell)
    if not 0 <= label < len(FAULT_CLASSES):
        raise ValueError(f"{label} is not a fault class id")
    return label


def load_dataset(path) -> Dataset:
    """Load a CSV sensor table into a Dataset.

    NumPy's C reader parses the file as it streams past.  It takes a file
    only whole: a valid header, then rows that each hold a plain finite
    number per sensor and a class id last.  Any other file (a blank line,
    a quote, a cell only Python's float() reads, non-finite values, bytes
    that are not UTF-8, no data rows) is read again by a per-cell loop
    over the csv module, which accepts what it accepts and is the one
    place that reports errors.  So both readers give the same Dataset or
    the same error.

    Args:
        path: CSV file with a header row of installed sensor symbols plus a
            final "class" column.

    Raises:
        FileNotFoundError: path does not exist.
        SchemaMismatchError: header malformed, or a symbol names no
            installed sensor.
        MalformedRowError: any cell is missing, non-numeric, holds NUL or
            is not valid UTF-8, or a class label is not a fault class id (an integer
            in [0, len(FAULT_CLASSES))); the error lists every offending
            (row, column).  A row the CSV reader cannot split, such as
            one with a stray quote, is listed as (row, None) and ends the
            reading.
        EmptyDatasetError: no data rows.
    """
    loaded = _load_fast(path)
    return loaded if loaded is not None else _load_cells(path)


def _load_fast(path) -> Dataset | None:
    """The file parsed by np.loadtxt, or None when load_dataset must read
    it cell by cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\r\n").split(",")
            schema = _parse_header(header)
            first = fh.readline()
            # loadtxt skips blank lines and warns when it finds no row.
            if not first.rstrip("\r\n"):
                return None
            n_lines = 1

            def lines():
                nonlocal n_lines
                yield first
                for line in fh:
                    n_lines += 1
                    yield line

            table = np.loadtxt(
                lines(),
                delimiter=",",
                comments=None,
                ndmin=2,
                converters={len(header) - 1: _class_id},
            )
        except (ValueError, SchemaMismatchError):  # UnicodeDecodeError is a ValueError
            return None
    # loadtxt skips the blank lines that the per-cell reader rejects, so
    # a row count short of the line count means the file has one.
    if table.shape != (n_lines, len(header)) or not np.isfinite(table).all():
        return None
    return Dataset(schema, table[:, :-1], table[:, -1].astype(np.int64))


def _load_cells(path) -> Dataset:
    """load_dataset's per-cell reader: the csv module splits each row and
    float() and _class_id parse each cell."""
    # Undecodable bytes become lone surrogates, which no number parses, so
    # they are reported as malformed cells like any other bad text.
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        # strict: a quote left open at the end of the file, or text after a
        # closing quote, is an error rather than a silently merged cell.
        # NUL becomes U+FFFD first: Python 3.10's csv module rejects a line
        # holding NUL while 3.11 keeps it in the cell, and this way both
        # report the cell as malformed.
        reader = csv.reader((line.replace("\0", "\ufffd") for line in fh), strict=True)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        except csv.Error as exc:
            raise SchemaMismatchError(f"header is not readable CSV: {exc}") from exc
        schema = _parse_header(header)
        n_cols = len(header)

        rows: list[list[float]] = []
        labels: list[int] = []
        bad_cells: list[tuple[int, str | None]] = []
        row_index = -1
        try:
            for row_index, row in enumerate(reader):
                if len(row) != n_cols:
                    col = header[len(row)] if len(row) < n_cols else LABEL_COLUMN
                    bad_cells.append((row_index, col))
                    continue
                try:
                    rows.append([float(cell) for cell in row[:-1]])
                except ValueError:
                    for col, cell in zip(header, row[:-1]):
                        try:
                            float(cell)
                        except ValueError:
                            bad_cells.append((row_index, col))
                    continue
                try:
                    labels.append(_class_id(row[-1]))
                except ValueError:
                    rows.pop()
                    bad_cells.append((row_index, LABEL_COLUMN))
        except csv.Error as exc:
            bad_cells.append((row_index + 1, None))
            raise MalformedRowError(bad_cells, f"unreadable CSV: {exc}") from exc

    if bad_cells:
        raise MalformedRowError(bad_cells)
    if not rows:
        raise EmptyDatasetError(f"{path} has a header but no data rows")
    values = np.array(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        where = np.argwhere(~np.isfinite(values))
        raise MalformedRowError([(int(r), header[c]) for r, c in where])
    return Dataset(schema, values, np.array(labels, dtype=np.int64))


_WRITE_BLOCK_ROWS = 8192


def write_csv(d: Dataset, path) -> None:
    """Write a Dataset in the loadable CSV format.

    Floats are rendered with repr, the shortest text that parses back to
    the identical float64, so write/load round-trips exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(d.symbols) + f",{LABEL_COLUMN}\n")
        # tolist() turns a block of rows into Python floats in one call;
        # reading a column-major row scalar by scalar is the slow way.  A
        # block at a time keeps a large table from doubling in memory.
        for start in range(0, d.n_rows, _WRITE_BLOCK_ROWS):
            block = slice(start, start + _WRITE_BLOCK_ROWS)
            for row, label in zip(d.values[block].tolist(), d.labels[block].tolist()):
                fh.write(f"{','.join(map(repr, row))},{label}\n")


def undersample_majority(d: Dataset, seed: int = 0) -> Dataset:
    """Shrink the majority class to the size of the largest minority class;
    keep every minority row verbatim.

    Args:
        d: source dataset, at least two distinct labels.
        seed: drives the uniform without-replacement subsample.

    Returns:
        Dataset with surviving rows in their original order.
    """
    counts = d.class_counts()
    if len(counts) < 2:
        raise SingleClassError("undersampling needs at least two classes")
    majority = min(c for c in counts if counts[c] == max(counts.values()))
    n_keep = max(n for c, n in counts.items() if c != majority)

    majority_rows = np.flatnonzero(d.labels == majority)
    rng = np.random.default_rng(seed)
    kept = rng.choice(majority_rows, size=n_keep, replace=False)
    mask = np.ones(d.n_rows, dtype=bool)
    mask[majority_rows] = False
    mask[kept] = True
    return d.take_rows(np.flatnonzero(mask))


def split_train_test(d: Dataset, train_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Split rows into disjoint (train, test) sets, stratified by class.

    Each class's train share is the floor of train_fraction times its
    count, so every class needs at least two rows.  Deterministic for a
    fixed seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DegenerateFractionError(f"train_fraction {train_fraction} not in (0, 1)")
    if d.n_rows == 0:
        raise EmptyDatasetError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)

    train_idx: list[np.ndarray] = []
    for class_id, count in sorted(d.class_counts().items()):
        if count < 2:
            raise ClassTooSmallError(
                f"class {class_id} has {count} row(s); stratified split needs >= 2"
            )
        class_rows = np.flatnonzero(d.labels == class_id)
        n_train = int(np.floor(train_fraction * count))
        train_idx.append(rng.permutation(class_rows)[:n_train])

    train_mask = np.zeros(d.n_rows, dtype=bool)
    train_mask[np.concatenate(train_idx)] = True
    return d.take_rows(np.flatnonzero(train_mask)), d.take_rows(np.flatnonzero(~train_mask))
