"""Exception hierarchy shared by the whole package."""

from contextlib import contextmanager


class FoldtError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FoldtError):
    """Syntax or validation error in a text input, with source position and,
    when the input is a file, its path."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None, path=None):
        self.message = message
        self.line = line
        self.column = column
        self.path = path
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(("" if path is None else f"{path}: ") + message + where)


class DataError(FoldtError):
    """Bad dataset, snapshot, or chunk-store contents."""


class QueryError(FoldtError):
    """Query evaluation failed for a reason other than logical failure."""


class BudgetExceededError(QueryError):
    """The resolution step budget ran out.

    Distinct from logical failure: it usually signals runaway recursion
    in background rules.
    """


class ModelFormatError(FoldtError):
    """Model file cannot be read: wrong version, truncated, or inconsistent."""


@contextmanager
def in_file(path):
    """Name the file ``path`` in a ParseError or DataError raised inside the
    ``with`` block."""
    try:
        yield
    except ParseError as e:
        raise ParseError(e.message, e.line, e.column, path) from None
    except DataError as e:
        raise DataError(f"{path}: {e}") from None
