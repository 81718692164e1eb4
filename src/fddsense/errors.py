"""Exception types raised by fddsense.

Every error that callers are expected to catch has its own class; all of
them derive from FddError so `except FddError` catches anything the
library raises deliberately.
"""


class FddError(Exception):
    """Base class for all fddsense errors."""


# -- dataset ingestion / preprocessing --------------------------------------

class SchemaMismatchError(FddError):
    """CSV header is malformed or names a sensor that is not installed."""


class MalformedRowError(FddError):
    """One or more data rows contain non-numeric or missing cells.

    ``cells`` lists every offending (row_index, column_name) pair, with
    row_index counted over data rows (header excluded, 0-based).  A
    column_name of None marks a row that could not be read at all; reason
    then says why.
    """

    def __init__(self, cells, reason: str = ""):
        self.cells = list(cells)
        preview = ", ".join(
            f"row {r}" if c is None else f"row {r} col {c!r}" for r, c in self.cells[:5]
        )
        more = "" if len(self.cells) <= 5 else f" (+{len(self.cells) - 5} more)"
        detail = f" ({reason})" if reason else ""
        super().__init__(f"malformed cells: {preview}{more}{detail}")


class EmptyDatasetError(FddError):
    """File or table contains no data rows."""


class SingleClassError(FddError):
    """Operation needs at least two distinct label values."""


class DegenerateFractionError(FddError):
    """Train fraction must lie strictly between 0 and 1."""


class ClassTooSmallError(FddError):
    """Stratified splitting needs at least two rows of every class."""


# -- trees / ensembles -------------------------------------------------------

class EmptyNodeError(FddError):
    """Impurity of a node with zero samples is undefined."""


class EmptyInputError(FddError):
    """Training input has too few rows."""


class DimensionMismatchError(FddError):
    """Row length does not match the model's feature count."""


class NonFiniteInputError(FddError):
    """Input contains NaN or infinite values."""


class ModelFormatError(FddError):
    """Serialized model is missing fields or has an unknown format version."""


# -- metrics ------------------------------------------------------------------

class LengthMismatchError(FddError):
    """True and predicted label vectors differ in length."""


class LabelOutOfRangeError(FddError):
    """A label value is negative or >= the declared class count."""


class EmptyMatrixError(FddError):
    """Confusion matrix contains no observations."""


# -- selection ----------------------------------------------------------------

class EmptyRankingError(FddError):
    """Importance ranking contains no sensors."""


# -- robustness ----------------------------------------------------------------

class EmptyVectorError(FddError):
    """Signal power of an empty vector is undefined."""


class ZeroSignalError(FddError):
    """A finite SNR cannot be realized on an all-zero signal."""


class UnknownSensorError(FddError):
    """Named sensor does not exist in the dataset schema."""


# -- simgen ----------------------------------------------------------------

class BadProportionsError(FddError):
    """Class proportions are malformed or do not sum to 1."""


class UnknownSymbolError(FddError):
    """Generator config names a sensor symbol outside the schema."""


# -- configuration ----------------------------------------------------------

class ConfigParseError(FddError):
    """Config file is not valid JSON; message reports the position."""


class InvalidValueError(FddError, ValueError):
    """A config field violates its constraint; message names both."""
