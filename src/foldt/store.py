"""On-disk dataset store: interpretations chunked by granularity G.

A dataset text file is a sequence of blocks::

    begin(model(4)).
      card(7,spades).
      ...
      pair.
    end(model(4)).

``load_dataset`` parses the blocks once and writes a chunk store into the
directory it is given, in place of any store it held: one data file whose
frames are chunks of ``G`` pre-parsed examples each, the last holding the
rest, and a metadata file whose ``granularity`` and ``total`` give that
layout and which also records every predicate/arity key the examples' facts
use.  An ``Interpretation`` is built from its fact groups alone, the index
the engine reads (``Interpretation.groups``): a group is the tuple of its
facts' argument tuples, and the block reader adds each fact's arguments to
its key's group as it reads.  The engine's lookups of a key's facts by their
first argument read an index that is built once per example and key and
kept on the example (``Interpretation.firsts``).  A chunk holds one
constant table and, per predicate/arity key, one column of its facts, so it
decodes a table and a column at a time, and a record's groups are slices of
its keys' rows.  A streaming pass reads the data file front to back and
decodes one chunk at a time, so at most ``G`` examples are ever resident;
the handle counts chunk loads and the peak number of resident examples so
that callers can verify the bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError, in_file
from .terms import (
    Atom,
    Compound,
    Literal,
    Number,
    Term,
    TermParser,
    Unfinished,
    atoms,
    is_ground,
    line_pieces,
    numbers,
    render_fact,
    render_term,
)

CHUNK_MAGIC = b"foldt-chunk v5\n"
META_NAME = "meta.json"
DATA_NAME = "chunks.bin"
_FRAME = struct.Struct("<I")  # the length of a chunk's frame body


class Interpretation:
    """One example: an identifier, a class label, and its ground facts (the
    class fact itself is kept out).  ``groups`` maps each predicate/arity
    key, in order of first occurrence, to the tuple of its facts' argument
    tuples (its rows) in file order; the groups are kept as given, shared and
    not copied.  ``firsts(key)`` indexes a key's rows by their first
    argument, and the index is kept on the example."""

    __slots__ = ("ident", "label", "groups", "_firsts")

    def __init__(self, ident: Term, label: str, groups: dict[tuple[str, int], tuple]):
        self.ident = ident
        self.label = label
        self.groups = groups
        self._firsts = None

    def firsts(self, key: tuple[str, int]) -> dict:
        """The rows of ``key``'s group by their first argument, each list
        in file order, empty when the example has none.  The index is built
        at the first call for ``key`` and kept, so every pack run on the
        example shares it."""
        cache = self._firsts
        if cache is None:
            cache = self._firsts = {}
        index = cache.get(key)
        if index is None:
            index = cache[key] = {}
            for row in self.groups.get(key, ()):
                index.setdefault(row[0], []).append(row)
        return index

    @property
    def facts(self) -> tuple[Literal, ...]:
        """The facts as literals, key by key in ``groups`` order."""
        return tuple(Literal(pred, row) for (pred, _), rows in self.groups.items() for row in rows)

    def _content(self):
        return tuple(self.groups.items())

    def __eq__(self, other):
        return (
            isinstance(other, Interpretation)
            and self.ident == other.ident
            and self.label == other.label
            and self._content() == other._content()
        )

    def __hash__(self):
        return hash((self.ident, self.label, self._content()))

    def __repr__(self):
        n = sum(map(len, self.groups.values()))
        return f"Interpretation({render_term(self.ident)}, {self.label}, {n} facts)"


# ---------------------------------------------------------------------------
# Binary codec
#
# A chunk's frame body opens with a fixed header: the numbers of records, of
# predicate/arity keys and of constants, the byte length of the constant
# table, the width of a code (1, 2 or 4 bytes) and the number of codes.  Then
# come a kind byte per constant and the constant table: each constant's text
# in UTF-8, followed by the table's separator, which is its last character.
# An atom's text is its name, an integer's its decimal digits, a float's the
# 16 hex digits of its ``<d`` bytes.  The separator is NUL unless a name holds
# one.  Last come the codes, little-endian at the chunk's width.  First, per
# predicate/arity key in order of first occurrence in the chunk: the
# predicate (a constant index), the arity doubled, plus 1 when the key's
# column is tree-coded, and the key's fact count.  Then, per key, its column:
# the arguments of the chunk's facts of that key in record order, or a 0 per
# fact when the arity is 0.  Last, per record: the example id (an argument),
# the label (a constant index), the number of groups and, per group in the
# record's order of first occurrence, its key's index and its fact count.  A
# record's facts of a key follow in the key's column those of the records
# before it.  In a plain column each argument is a constant index.  In a
# tree-coded column, and for the id, an argument is a code ``c``: constant
# ``c >> 1`` when ``c`` is even, else a compound of functor constant ``c >>
# 1`` followed by its arity and its arguments.  Facts and ids are ground, so
# nothing encodes a variable.  A chunk is decoded whole: its constants once,
# each key's column at once, and a record's groups are slices of the rows.
#
# The store's fingerprint is defined by each example's record of format v4
# (``encode_record``), which held its own constant table and its groups one
# after another; the chunks no longer hold those records.

_ATOM, _INT, _FLOAT = 0, 1, 2  # constant kinds
_DOUBLE = struct.Struct("<d")
_HEAD = struct.Struct("<IIIIBI")  # records, keys, constants, table bytes, code width, codes
_RECORD_HEAD = struct.Struct("<IIBI")  # of a v4 record: constants, table bytes, code width, codes
_TYPECODES = {1: "B", 2: "H", 4: "I"}  # code width -> array type code
_KINDS = {str: _ATOM, int: _INT, bytes: _FLOAT}  # the type of a constant's key -> its kind
_SWAP = sys.byteorder == "big"  # codes are stored little-endian
# The least a chunk takes: its header and one constant (a label) of one byte
# of table; and the least that each of its records adds: the codes of an id,
# a label and a group count.
_MIN_CHUNK = _HEAD.size + 1 + 1
_MIN_RECORD = 3


def _table(texts: list[str]) -> bytes:
    """The constant table of ``texts``: each text in UTF-8, followed by the
    separator, NUL unless a text holds one, else the first character that
    none holds."""
    sep = "\0"
    table = sep.join(texts) + sep
    if table.count(sep) != len(texts):
        sep = next(c for c in map(chr, range(1, 0x110000)) if all(c not in t for t in texts))
        table = sep.join(texts) + sep
    return table.encode("utf-8")


def _texts(consts: dict) -> tuple[bytes, bytes]:
    """The kind bytes and the constant table of the constants that
    ``consts`` keys as ``_put`` does, in its order."""
    kinds = bytes(map(_KINDS.__getitem__, map(type, consts)))
    texts = list(consts)  # an atom's name is its text
    for i in compress(range(len(kinds)), kinds):
        key = texts[i]
        if type(key) is bytes:
            texts[i] = key.hex()
        elif -(2**63) <= key < 2**63:
            texts[i] = str(key)
        else:
            raise DataError(f"integer {key} out of the 64-bit storable range")
    return kinds, _table(texts)


def _packed(codes: list[int]) -> tuple[int, bytes]:
    """The width of the codes, the least of 1, 2 and 4 bytes that holds the
    largest, and their bytes."""
    try:
        return 1, bytes(codes)
    except ValueError:  # a code of 256 or more
        pass
    top = max(codes)
    if top >= 1 << 32:
        raise DataError(f"a count or index of {top} is over the 32 bits of a code")
    width = 2 if top < 1 << 16 else 4
    packed = array(_TYPECODES[width], codes)
    if _SWAP:
        packed.byteswap()
    return width, packed.tobytes()


def _put(t: Term, codes: list[int], consts: dict):
    """Append ``t`` to ``codes`` in the tree coding.  ``consts`` maps each
    constant's key to its index, in order of first use: an atom's name, an
    integer's value, a float's ``<d`` bytes, so that -0.0 and 0.0 stay
    apart."""
    tt = type(t)
    if tt is Atom:
        codes.append(consts.setdefault(t[1], len(consts)) << 1)
    elif tt is Number:
        v = t[2]
        codes.append(consts.setdefault(v if type(v) is int else _DOUBLE.pack(v), len(consts)) << 1)
    elif tt is Compound:
        codes += (consts.setdefault(t[1], len(consts)) << 1 | 1, len(t[2]))
        for a in t[2]:
            _put(a, codes, consts)
    else:
        raise TypeError(f"not a ground term: {t!r}")


def encode_record(interp: Interpretation) -> bytes:
    """``interp`` as a record of chunk format v4, whose bytes define the
    store's fingerprint (``ChunkWriter.finish``).  The record holds its own
    constant table, in order of first use, after a header of the numbers of
    constants and of table bytes, the code width and the number of codes;
    its codes are the id, the label, the number of groups and, per group in
    order of first occurrence, the predicate, the arity doubled (plus 1 when
    the group is tree-coded), the fact count and the facts' arguments."""
    consts: dict = {}
    index = consts.setdefault
    codes: list[int] = []
    _put(interp.ident, codes, consts)
    codes += (index(interp.label, len(consts)), len(interp.groups))
    for (pred, arity), rows in interp.groups.items():
        codes += (index(pred, len(consts)), arity << 1, len(rows))
        if not arity:
            codes += [0] * len(rows)
            continue
        mark = len(codes)
        for t in chain.from_iterable(rows):
            tt = type(t)
            if tt is Atom:
                codes.append(index(t[1], len(consts)))
            elif tt is Number:
                v = t[2]
                codes.append(index(v if type(v) is int else _DOUBLE.pack(v), len(consts)))
            else:  # a compound, or a variable that ``_put`` rejects: tree-code the group
                del codes[mark:]
                codes[mark - 2] |= 1
                for a in chain.from_iterable(rows):
                    _put(a, codes, consts)
                break
    kinds, table = _texts(consts)
    width, packed = _packed(codes)
    return b"".join((_RECORD_HEAD.pack(len(kinds), len(table), width, len(codes)), kinds, table, packed))


def encode_chunk(interps: list[Interpretation]) -> bytes:
    """The frame body of a chunk of ``interps``, in order."""
    consts: dict = {}  # keyed as ``_put`` keys them
    index = consts.setdefault
    keys: dict[tuple[str, int], list] = {}  # -> [its index, predicate, arity code, fact count]
    columns: list[list[int]] = []  # per key
    records: list[int] = []
    for interp in interps:
        _put(interp.ident, records, consts)
        records += (index(interp.label, len(consts)), len(interp.groups))
        for key, rows in interp.groups.items():
            head = keys.get(key)
            if head is None:
                head = keys[key] = [len(columns), index(key[0], len(consts)), key[1] << 1, 0]
                columns.append([])
            head[3] += len(rows)
            records += (head[0], len(rows))
            column = columns[head[0]]
            if not head[2]:  # nullary
                column += [0] * len(rows)
                continue
            if not head[2] & 1:  # a plain column: each argument a constant index
                mark = len(column)
                for t in chain.from_iterable(rows):
                    tt = type(t)
                    if tt is Atom:
                        column.append(index(t[1], len(consts)))
                    elif tt is Number:
                        v = t[2]
                        column.append(index(v if type(v) is int else _DOUBLE.pack(v), len(consts)))
                    else:  # a compound, or a variable that ``_put`` rejects: tree-code the column
                        del column[mark:]
                        column[:] = [c << 1 for c in column]
                        head[2] |= 1
                        break
                else:
                    continue
            for t in chain.from_iterable(rows):
                _put(t, column, consts)
    kinds, table = _texts(consts)
    codes = [*chain.from_iterable(head[1:] for head in keys.values()), *chain.from_iterable(columns), *records]
    width, packed = _packed(codes)
    return b"".join((_HEAD.pack(len(interps), len(keys), len(kinds), len(table), width, len(codes)), kinds, table, packed))


def _constants(kinds: bytes, texts: list[str]) -> list[Term]:
    """The constants of a table of kinds ``kinds`` and texts ``texts``.  The
    atoms and the integers are each built at once."""
    terms = atoms(texts)
    numbered = list(compress(range(len(texts)), kinds))
    if numbered:
        ints = [i for i in numbered if kinds[i] == _INT]
        digits = list(map(texts.__getitem__, ints))
        try:
            values = list(map(int, digits))
        except ValueError:
            values = None
        if values is None or list(map(str, values)) != digits:
            for text in digits:  # raises at the first that is not canonical
                _constant(_INT, text)
        for i, term in zip(ints, numbers(values)):
            terms[i] = term
        if len(ints) < len(numbered):
            for i in numbered:
                if kinds[i] != _INT:
                    terms[i] = _constant(kinds[i], texts[i])
    return terms


def _constant(kind: int, text: str) -> Term:
    """The number constant of kind ``kind`` and text ``text``."""
    if kind == _INT:
        try:
            term = Number(int(text))
        except ValueError:
            term = None
        if term is None or str(term.value) != text:
            raise DataError(f"bad integer {text!r}")
    elif kind == _FLOAT:
        try:
            term = Number(_DOUBLE.unpack(bytes.fromhex(text))[0])
        except (ValueError, struct.error):
            raise DataError(f"bad float {text!r}") from None
    else:
        raise DataError(f"bad constant kind {kind}")
    return term


def _name(terms: list, c: int) -> str:
    """The name of atom constant ``c``."""
    t = terms[c]
    if type(t) is not Atom:
        raise DataError(f"constant {c} is a number where a name is required")
    return t.name


def _args(codes, pos: int, count: int, terms: list) -> tuple[list, int]:
    """The ``count`` tree-coded arguments from ``pos`` on, and the position
    after them."""
    out = []
    for _ in range(count):
        if pos >= len(codes):
            raise DataError("its codes are truncated")
        c = codes[pos]
        if c & 1:
            functor = _name(terms, c >> 1)
            if pos + 1 >= len(codes):
                raise DataError("its codes are truncated")
            args, pos = _args(codes, pos + 2, codes[pos + 1], terms)
            out.append(Compound(functor, tuple(args)))
        else:
            out.append(terms[c >> 1])
            pos += 1
    return out, pos


def decode_chunk(raw: bytes, count: int, chosen, start: int = 0) -> list[tuple[int, Interpretation]]:
    """The records of the chunk whose frame body is ``raw`` at the positions
    that ``chosen`` holds, in order, each with its ordinal, the chunk's first
    being ``start``.  The whole body is checked: unless it holds ``count``
    records and decodes with no byte unread, it is a ``DataError``.  The
    constants are built once per chunk, so its records share them, and each
    key's column is decoded at once: a record's groups are slices of its
    keys' rows."""
    size = len(raw)
    if size < _HEAD.size:
        raise DataError("its header is truncated")
    nrec, nkeys, nconst, tlen, width, ncodes = _HEAD.unpack_from(raw)
    if nrec != count:
        raise DataError(f"expected {count} records, found {nrec}")
    at = _HEAD.size + nconst  # the start of the table
    end = at + tlen  # of the table, and the start of the codes
    if end > size:
        raise DataError(f"its constant table of {tlen} bytes ends past the frame")
    typecode = _TYPECODES.get(width)
    if typecode is None:
        raise DataError(f"bad code width {width}")
    unread = size - end - width * ncodes
    if unread > 0:
        raise DataError(f"{unread} bytes unread")
    if unread < 0:
        raise DataError(f"{ncodes} codes of {width} bytes do not fit")
    codes = array(typecode, raw[end:])
    if _SWAP:
        codes.byteswap()
    kinds = raw[_HEAD.size : at]
    try:
        text = raw[at:end].decode("utf-8")
    except UnicodeDecodeError:
        raise DataError("its constant table is not UTF-8") from None
    texts = text.split(text[-1]) if text else [""]
    del texts[-1]  # what follows the separator that ends the table
    if len(texts) != nconst:
        raise DataError(f"{len(texts)} constants in a table of {nconst}")
    terms = _constants(kinds, texts)
    get = terms.__getitem__
    pos = 3 * nkeys  # past the keys
    if pos > ncodes:
        raise DataError(f"{nkeys} keys do not fit")
    out: list[tuple[int, Interpretation]] = []
    try:
        keys: dict[tuple[str, int], int] = {}  # -> its index
        rows = []  # per key: the rows of its column
        for k in range(0, 3 * nkeys, 3):
            c, arity, n = codes[k : k + 3]
            tree = arity & 1
            arity >>= 1
            pred = _name(terms, c)
            if keys.setdefault((pred, arity), len(rows)) != len(rows):
                raise DataError(f"{pred}/{arity} keyed twice")
            # Every fact takes at least a code per argument, a nullary one
            # its 0 marker, and no key is empty: this bounds what a corrupt
            # count or arity allocates by the frame's length.
            if not arity:
                if not 0 < n <= ncodes - pos:
                    raise DataError(f"{n} facts of {pred}/0 do not fit")
                if any(codes[pos : pos + n]):
                    raise DataError(f"a fact of {pred}/0 is not marked 0")
                pos += n
                rows.append(((),) * n)
                continue
            stop = pos + n * arity
            if not pos < stop <= ncodes:
                raise DataError(f"{n} facts of {pred}/{arity} do not fit")
            if tree:
                args, pos = _args(codes, pos, n * arity, terms)
                args = iter(args)
            else:
                args = map(get, codes[pos:stop])
                pos = stop
            # Through a list: a tuple built from an iterator starts at 10
            # items and grows, and CPython then keeps the tuples of each
            # other size it frees, up to 2,000 of each, so the process
            # grows by megabytes.
            rows.append(tuple(list(zip(*[args] * arity))))
        names = list(keys)
        used = [0] * nkeys  # the facts of each key that the records so far claim
        for r in range(nrec):
            if pos >= ncodes:
                raise DataError("its codes are truncated")
            c = codes[pos]
            if c & 1:
                (ident,), pos = _args(codes, pos, 1, terms)
            else:
                ident = terms[c >> 1]
                pos += 1
            c, ngroups = codes[pos : pos + 2]
            label = _name(terms, c)
            pos += 2
            stop = pos + 2 * ngroups
            if stop > ncodes:
                raise DataError(f"the {ngroups} groups of record {r} do not fit")
            take = r in chosen
            groups = {}
            for i in range(pos, stop, 2):
                k = codes[i]
                n = codes[i + 1]
                if k >= nkeys:
                    raise DataError(f"a key index beyond the {nkeys} keys")
                if not n:
                    raise DataError(f"a group of record {r} holds no facts")
                a = used[k]
                used[k] = b = a + n
                groups[names[k]] = rows[k][a:b] if take else None
            if len(groups) < ngroups:
                ks = list(codes[pos:stop:2])
                pred, arity = names[next(k for k in ks if ks.count(k) > 1)]
                raise DataError(f"{pred}/{arity} grouped twice in record {r}")
            if take:
                out.append((start + r, Interpretation(ident, label, groups)))
            pos = stop
    except ValueError:  # a slice of codes cut short
        raise DataError("its codes are truncated") from None
    except IndexError:
        raise DataError(f"a constant index beyond the table of {nconst}") from None
    except RecursionError:
        raise DataError("compounds nested too deeply") from None
    if pos != ncodes:
        raise DataError(f"{(ncodes - pos) * width} bytes unread")
    for (pred, arity), n, claimed in zip(keys, map(len, rows), used):
        if claimed != n:
            raise DataError(f"its records claim {claimed} facts of {pred}/{arity}, of the {n} its column holds")
    return out


# ---------------------------------------------------------------------------
# Reading data files


def iter_kb_blocks(path, classes, allow_unlabeled: bool = False) -> Iterator[Interpretation]:
    """Stream interpretations from a ``begin/end`` block file, read a
    ``line_pieces`` piece at a time through a ``terms.TermParser``.  A fact
    ``pred(args).`` goes as ``(pred, args)`` straight into its group; any
    other clause is parsed whole by ``TermParser.clause``, and a rule is an
    error.  The line that an error names is worked out when it is raised.

    ``classes`` is the declared class-label list: exactly one matching nullary
    fact must appear in each block; it becomes the label and is removed from
    the fact set.  With ``allow_unlabeled`` a block without a class fact
    yields an interpretation with an empty label (classification input).
    """
    class_set = set(classes)
    ident = None
    groups: dict[tuple[str, int], list] = {}  # of the open block: each key's rows
    label: str | None = None
    parser = TermParser()
    args_at = parser.args
    with in_file(path), open(path, "r", encoding="utf-8") as f:
        for toks in parser.pieces(line_pieces(f)):
            i = 0
            try:
                while toks[i]:
                    start, variables = i, parser.variables
                    pred, args = toks[i], None
                    if "a" <= pred[0] <= "z":  # an unquoted atom: a fact, if an end follows
                        args, i = args_at(toks, i + 2) if toks[i + 1] == "(" else ((), i + 1)
                        if "." < toks[i] < "/":  # an end (``terms._is_end``)
                            i += 1
                        else:
                            args = None
                    if args is None:  # any other clause, parsed whole
                        clause, i = parser.clause(toks, start)
                        if clause.body:
                            raise _line_error("a data file holds facts, not rules", parser, start)
                        pred, args = clause.head.pred, clause.head.args
                    if pred in ("begin", "end") and (block_id := _block_id(args)) is not None:
                        if not is_ground(block_id):
                            raise _line_error("example identifier must be ground", parser, start)
                        if pred == "begin":
                            if ident is not None:
                                raise _line_error(f"begin inside block {render_term(ident)}", parser, start)
                            ident, groups, label = block_id, {}, None
                            continue
                        if ident is None:
                            raise _line_error("end outside any block", parser, start)
                        if block_id != ident:
                            raise _line_error(
                                f"mismatched begin/end ids: {render_term(ident)} vs {render_term(block_id)}",
                                parser,
                                start,
                            )
                        if label is None:
                            if not allow_unlabeled:
                                raise DataError(f"no class fact in example {render_term(ident)}")
                            label = ""
                        yield Interpretation(ident, label, {k: tuple(v) for k, v in groups.items()})
                        ident = None
                        continue
                    if ident is None:
                        raise _line_error("fact outside of a begin/end block", parser, start)
                    if not args and pred in class_set:
                        if label is not None:
                            raise _line_error(
                                f"ambiguous class in example {render_term(ident)}: both {label} and {pred}",
                                parser,
                                start,
                            )
                        label = pred
                        continue
                    if parser.variables != variables:
                        raise _line_error(f"non-ground fact in example {render_term(ident)}", parser, start)
                    groups.setdefault((pred, len(args)), []).append(args)
            except Unfinished:
                parser.keep(start)
        if ident is not None:
            raise DataError(f"unterminated block {render_term(ident)} at end of file")


def _line_error(message: str, parser: TermParser, i: int) -> DataError:
    """The DataError ``message`` about the clause that begins at
    ``parser.toks[i]``, naming its line."""
    return DataError(f"{message} (line {parser.line_of(i)})")


def write_block(f, ident: Term, facts: Iterable[Literal]) -> None:
    """Write one example as the ``begin/end`` block that ``iter_kb_blocks``
    reads: each fact on a line of its own, the class among them as a
    nullary fact."""
    f.write(f"begin(model({render_term(ident)})).\n")
    for fact in facts:
        f.write(f"  {render_fact(fact)}\n")
    f.write(f"end(model({render_term(ident)})).\n")


def _block_id(args):
    """The ``Id`` of a ``begin`` or ``end`` fact's arguments ``(model(Id),)``,
    or None when they are not of that shape."""
    if len(args) == 1 and isinstance(args[0], Compound) and args[0].functor == "model" and len(args[0].args) == 1:
        return args[0].args[0]
    return None


# ---------------------------------------------------------------------------
# Chunk store


@dataclass
class ChunkInfo:
    path: Path  # the store's data file, which holds every chunk
    count: int
    start_ordinal: int


class ChunkWriter(contextlib.AbstractContextManager):
    """Accumulates interpretations and appends them to the store's data
    file, a frame of G records at a time.  As a context manager it removes
    the data file it was writing unless ``finish`` published the store."""

    def __init__(self, directory, granularity: int):
        if granularity < 1:
            raise DataError("granularity must be a positive integer")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.granularity = granularity
        self._buffer: list[Interpretation] = []
        self._ids: set[Term] = set()
        self._predicates: set[tuple[str, int]] = set()
        self._class_counts: Counter = Counter()
        self._record_hashes: list[bytes] = []
        # The directory's old store stops opening before anything is written;
        # the new one opens once ``finish`` has renamed its meta.json.
        (self.dir / META_NAME).unlink(missing_ok=True)
        self._tmp = self.dir / f"{DATA_NAME}.tmp"
        self._file = open(self._tmp, "wb")
        self._file.write(CHUNK_MAGIC)

    def __exit__(self, *exc):
        self._file.close()
        self._tmp.unlink(missing_ok=True)

    def add(self, interp: Interpretation):
        if interp.ident in self._ids:
            raise DataError(f"duplicate example id {render_term(interp.ident)}")
        self._ids.add(interp.ident)
        self._predicates.update(interp.groups)
        self._class_counts[interp.label] += 1
        self._buffer.append(interp)
        if len(self._buffer) == self.granularity:
            self._flush()

    def _flush(self):
        """Append the buffer as the next chunk's frame: when it reaches G,
        and once at the end, which is the layout ``open_dataset`` derives."""
        if not self._buffer:
            return
        self._record_hashes += (hashlib.sha256(encode_record(e)).digest() for e in self._buffer)
        body = encode_chunk(self._buffer)
        if len(body) >= 1 << 32:
            raise DataError(f"a chunk of {len(body)} bytes is over the 4 GiB that a frame holds")
        self._file.write(_FRAME.pack(len(body)) + body)
        self._buffer = []

    def finish(self) -> "DatasetHandle":
        self._flush()
        if not self._ids:
            raise DataError("empty dataset")
        meta = {
            "granularity": self.granularity,
            "total": len(self._ids),
            "class_counts": dict(self._class_counts),
            "fingerprint": hashlib.sha256(b"".join(sorted(self._record_hashes))).hexdigest(),
            "predicates": [list(k) for k in sorted(self._predicates)],
        }
        self._file.close()
        self._tmp.replace(self.dir / DATA_NAME)
        self._tmp = self.dir / f"{META_NAME}.tmp"  # now the one ``__exit__`` removes
        self._tmp.write_text(json.dumps(meta, indent=1), encoding="utf-8")
        self._tmp.replace(self.dir / META_NAME)
        return open_dataset(self.dir)


class DatasetHandle:
    """Read handle over a chunk store; shareable for concurrent passes."""

    def __init__(self, directory, chunks, granularity, total, class_counts, fingerprint, predicates):
        self.dir = Path(directory)
        self.chunks: list[ChunkInfo] = chunks
        self.granularity = granularity
        self.total = total
        self.class_counts = class_counts
        self.fingerprint = fingerprint
        self.predicates: frozenset[tuple[str, int]] = predicates  # of every example's facts
        self.chunk_loads = 0
        self.decode_seconds = 0.0  # spent reading and decoding the chunks that streams loaded
        self._peak = 0

    def __len__(self):
        return self.total

    def peak_resident(self) -> int:
        """Maximum number of examples decoded from one chunk, and so
        resident at once, by streaming passes over this handle so far (0
        before any pass).  Callers that copy examples out of the stream are
        outside this accounting."""
        return self._peak

    def stream_examples(self, ordinals: Iterable[int] | None = None) -> Iterator[tuple[int, Interpretation]]:
        """Yield ``(ordinal, interpretation)`` in ordinal order: every
        example, or only those the ascending iterable ``ordinals`` lists.

        ``ordinals`` is read only as far as the chunk being loaded, and only
        the listed records of a chunk get groups, at most one chunk (<= G
        examples) at a time; a loaded chunk is checked whole.  The data file
        is opened at the first chunk with a listed ordinal and read front to
        back from there: a chunk with none is passed over by its frame
        header, and a pass that lists nothing opens no file."""
        path, f = self.chunks[0].path, None
        listed = iter(range(self.total) if ordinals is None else ordinals)
        o = next(listed, self.total)

        def length(index: int) -> int:  # of the frame body whose header ``f`` is at
            head = f.read(4)
            if len(head) < 4 or f.tell() + (ln := _FRAME.unpack(head)[0]) > size:
                raise DataError(f"corrupt chunk {index} of data file {path}: its frame is truncated")
            return ln

        with contextlib.ExitStack() as files:
            for index, chunk in enumerate(self.chunks):
                chosen = set()  # the positions of the chunk's listed records
                while o < chunk.start_ordinal + chunk.count:
                    chosen.add(o - chunk.start_ordinal)
                    o = next(listed, self.total)
                if f is None and chosen:
                    f = files.enter_context(open(path, "rb"))
                    size = os.fstat(f.fileno()).st_size
                    if f.read(len(CHUNK_MAGIC)) != CHUNK_MAGIC:
                        raise DataError(f"data file {path} is not in chunk format v5: compile the data file again")
                    for skipped in range(index):
                        f.seek(length(skipped), 1)
                if chosen:
                    t0 = time.perf_counter()
                    out = self._load_chunk(index, chunk, f.read(length(index)), chosen)
                    self.decode_seconds += time.perf_counter() - t0
                    yield from out
                elif f is not None:
                    f.seek(length(index), 1)
            if f is not None and f.tell() != size:
                raise DataError(f"corrupt chunk {index} of data file {path}: {size - f.tell()} bytes follow it")

    def _load_chunk(self, index, chunk, raw, chosen) -> list[tuple[int, Interpretation]]:
        """The records of chunk ``index`` in its frame body ``raw`` whose
        positions ``chosen`` holds, decoded, with their ordinals; the whole
        body is checked."""
        counts = self.class_counts
        try:
            out = decode_chunk(raw, chunk.count, chosen, chunk.start_ordinal)
            for _, interp in out:
                if interp.label not in counts:
                    raise DataError(f"label {interp.label!r} is not among the class counts of {META_NAME}")
        except DataError as e:
            raise DataError(f"corrupt chunk {index} of data file {chunk.path}: {e}") from e
        self.chunk_loads += 1
        if len(out) > self._peak:
            self._peak = len(out)
        return out


def load_dataset(path, settings, out_dir, granularity: int | None = None) -> DatasetHandle:
    """Parse a block file and build its chunk store in the directory
    ``out_dir``; nothing is written beside the block file.  Granularity
    defaults to the settings parameter."""
    g = granularity if granularity is not None else settings.params.granularity
    with in_file(path), ChunkWriter(out_dir, g) as writer:
        for interp in iter_kb_blocks(path, settings.classes):
            writer.add(interp)
        return writer.finish()


def open_dataset(directory) -> DatasetHandle:
    """Open an existing chunk store from its directory.  Its metadata is
    checked here; each chunk, against the layout, when it is streamed."""
    directory = Path(directory)
    meta_path = directory / META_NAME
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read chunk-store metadata {meta_path}: {e}") from e
    try:
        granularity, total, class_counts, fingerprint, predicates = (
            meta[k]
            for k in ("granularity", "total", "class_counts", "fingerprint", "predicates")
        )
        counts = list(class_counts.values())
        predicates = frozenset(map(tuple, predicates))
        if not all(isinstance(name, str) and type(arity) is int for name, arity in predicates):
            raise ValueError("predicates must be a list of [name, arity] pairs")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise DataError(f"malformed chunk-store metadata {meta_path}: {e!r}") from e
    if type(granularity) is not int or granularity < 1:
        raise DataError(f"granularity {granularity!r} in {meta_path} is not a positive integer")
    if type(total) is not int or total < 1:
        raise DataError(f"total {total!r} in {meta_path} is not a positive integer")
    if not all(type(n) is int and n >= 0 for n in counts) or sum(counts) != total:
        raise DataError(f"class counts in {meta_path} are not integers >= 0 summing to {total}")
    data = directory / DATA_NAME
    if not data.is_file():
        raise DataError(f"chunk store {directory} has no {DATA_NAME}: compile the data file again")
    # Every frame takes its 4-byte length and the least a chunk holds, and
    # every record the least it adds: before the layout is built, a tampered
    # total allocates nothing.
    if data.stat().st_size < len(CHUNK_MAGIC) + (4 + _MIN_CHUNK) * -(-total // granularity) + _MIN_RECORD * total:
        raise DataError(f"data file {data} is too short for the {total} examples of {meta_path}")
    chunks = [ChunkInfo(data, min(granularity, total - o), o) for o in range(0, total, granularity)]
    return DatasetHandle(directory, chunks, granularity, total, dict(class_counts), fingerprint, predicates)
