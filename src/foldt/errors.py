"""Exception hierarchy shared by the whole package."""

import os
from contextlib import contextmanager, suppress


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
    raised inside the ``with`` block that names no file yet, and turn a
    UnicodeDecodeError into a ParseError at the first place in the file
    that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from None
    except (ParseError, DataError, ModelFormatError) as e:
        if e.path is not None:
            raise
        if isinstance(e, ParseError):
            raise ParseError(e.message, e.line, e.column, path) from None
        raise type(e)(e.message, path) from None


def _not_utf8(path, e: UnicodeDecodeError) -> ParseError:
    """The error of a file that is not UTF-8 text, at the line and column of
    its first undecodable byte when it is a regular file, which can be read
    again, counting lines as text mode does: a CR, LF or CRLF ends one."""
    if os.path.isfile(path):
        with suppress(OSError), open(path, "rb") as f:
            line = 1
            for raw in f:
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    before = _lines(raw[: bad.start])
                    column = len(before.rsplit(b"\n", 1)[-1].decode()) + 1
                    return ParseError(f"not UTF-8 text ({bad.reason})", line + before.count(b"\n"), column, path)
                line += _lines(raw).count(b"\n")
    return ParseError(f"not UTF-8 text ({e.reason})", path=path)


def _lines(raw: bytes) -> bytes:
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
