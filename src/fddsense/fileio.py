"""Deterministic artifact writing, and the input rules every module shares.

The rules: a value of a config or JSON kind (_of_kind, _check_kind), an
array of integers in a range, such as class labels and repeat counts
(_integers), and a finite vector or matrix (_finite).  Each names the
first bad entry and raises the error class its caller documents.

All JSON artifacts are rendered with sorted keys, fixed separators, and
repr-quality floats so the same in-memory value always produces the same
bytes.  Every file the package writes, JSON, CSV, SVG or a dataset CSV,
goes through one writer (_replacing): a temp file in the destination
directory, created with open()'s mode, then os.replace, so readers never
observe a half-written file and a failed write leaves the old one.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import os
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidValueError

_FLOAT_MAX = sys.float_info.max


def _of_kind(kind: type, value) -> bool:
    """Whether a value, read from JSON or set on a config, is of kind: int
    (an integer, not a bool), float (a number, an integer too), bool or
    str.  Numbers must be finite floats: Python's json reads NaN, Infinity
    and 1e400 (as inf), and integers of any size."""
    if isinstance(value, bool):
        return kind is bool
    if kind is int or kind is float:
        number = numbers.Integral if kind is int else numbers.Real
        return isinstance(value, number) and abs(value) <= _FLOAT_MAX
    return isinstance(value, kind)


def _check_kind(name: str, value, kind: type, optional: bool = False) -> None:
    """Raise an InvalidValueError whose message starts with name, unless
    value is of kind (as _of_kind has it, or an instance of a class kind)
    or, if optional, None."""
    if not (_of_kind(kind, value) or (optional and value is None)):
        names = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string"}
        expected = names.get(kind) or f"a {kind.__name__}"
        raise InvalidValueError(f"{name} must be {expected}{' or None' if optional else ''}, got {value!r}")


def _integers(values, what: str, error: type, low: int = 0, high: int | None = None) -> np.ndarray:
    """The 1-D values as int64, each an integer in [low, high) (no upper
    bound if high is None).  Otherwise raise error, naming the first bad
    entry: "<what> <value> at row <i> is not an integer" (NaN and Inf
    included) or "... is below <low>" or "... is outside [low, high)".
    Values of an integer or bool dtype, and of a float dtype whose values
    are whole, are integers; any other dtype is none."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise error(f"{what} values must be integers, got dtype {values.dtype}")
    if values.dtype.kind == "f":
        whole = (values == np.trunc(values)) & (np.abs(values) < 2.0**63)
        if not whole.all():
            row = int(whole.argmin())
            raise error(f"{what} {values[row].item()!r} at row {row} is not an integer")
    values = values.astype(np.int64, copy=False)
    bad = values < low if high is None else (values < low) | (values >= high)
    if bad.any():
        row = int(bad.argmax())
        bound = f"below {low}" if high is None else f"outside [{low}, {high})"
        raise error(f"{what} {values[row]} at row {row} is {bound}")
    return values


def _finite(x: np.ndarray, what: str, error: type) -> None:
    """Raise error unless every entry of the float vector or matrix x is
    finite, naming the first NaN or Inf by its row, and by its column for
    a matrix: "<what> <value> at row <i>, column <j> is not finite"."""
    if not np.isfinite(x).all():
        row, *column = np.argwhere(~np.isfinite(x))[0].tolist()
        at = "".join(f", column {j}" for j in column)
        raise error(f"{what} {float(x[(row, *column)])!r} at row {row}{at} is not finite")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


@contextmanager
def _replacing(path: str | Path):
    """A UTF-8 text handle on a new temp file beside path, which replaces
    path when the with block ends and is removed if anything in it
    raises, so path holds either its old bytes or all the new ones.  The
    file is created as open() creates one, with mode 0o666 less the umask.
    An OSError about the temp file names path, which the caller gave."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp"
    try:
        handle = open(tmp, "x", encoding="utf-8", newline="")  # O_CREAT | O_EXCL, mode 0o666
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    with _replacing(path) as handle:
        handle.write(text)


def write_json(path: str | Path, payload) -> None:
    atomic_write_text(path, canonical_json(payload))


def write_csv_rows(path: str | Path, rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    atomic_write_text(path, buffer.getvalue())


def _cell(value) -> str:
    """One CSV cell of a JSON record value: a float is its repr, None an
    empty cell, and anything else its str."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _csv_rows(records: list[dict]) -> list[list[str]]:
    """CSV rows of JSON records that share their keys: the keys as a
    header, then one row of cells per record."""
    return [list(records[0])] + [[_cell(v) for v in record.values()] for record in records]


def _read_json(path: str | Path, error: type, what: str):
    """The JSON value in the file at path.  OSError propagates; a file
    that is not UTF-8 JSON, that repeats a key in one object, or that
    nests too deep to parse, raises error with a message that starts with
    what."""

    def unique(pairs: list) -> dict:
        record = dict(pairs)
        if len(record) < len(pairs):
            repeated = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
            raise error(f"{what} repeats the key {repeated!r} in one object")
        return record

    raw = Path(path).read_bytes()
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, a huge integer, deep nesting
        raise error(f"{what} is not readable JSON: {type(exc).__name__}: {exc}") from exc
