"""Exception hierarchy shared by the whole package."""

from contextlib import contextmanager


class FoldtError(Exception):
    """Base class for all errors raised by this package; ``path`` names the
    file whose contents caused the error, once it is known."""

    def __init__(self, message: str, path=None):
        self.message, self.path = message, path
        super().__init__(message if path is None else f"{path}: {message}")


class ParseError(FoldtError):
    """Syntax or validation error in a text input, with source position and,
    when the input is a file, its path."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None, path=None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where, path)
        self.message, self.line, self.column = message, line, column


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
    """Name the file ``path`` in a ParseError, DataError or ModelFormatError
    raised inside the ``with`` block that names no file yet."""
    try:
        yield
    except (ParseError, DataError, ModelFormatError) as e:
        if e.path is not None:
            raise
        if isinstance(e, ParseError):
            raise ParseError(e.message, e.line, e.column, path) from None
        raise type(e)(e.message, path) from None
