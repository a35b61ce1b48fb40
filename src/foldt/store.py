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
the engine reads (``Interpretation.groups``): the block reader adds each
fact's arguments to its key's group as it reads, and each record decodes
straight into its groups.  A streaming pass reads the data file front to
back and decodes one chunk at a time, so at most ``G`` examples are ever
resident; the handle counts chunk loads and the peak number of resident
examples so that callers can verify the bound.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError, in_file
from .terms import (
    Atom,
    Compound,
    Literal,
    Number,
    Term,
    is_ground,
    line_pieces,
    read_clauses,
    render_fact,
    render_term,
)

CHUNK_MAGIC = b"foldt-chunk v4\n"
META_NAME = "meta.json"
DATA_NAME = "chunks.bin"
_FRAME = struct.Struct("<I")  # the length of a chunk's frame body, or of a record in it


class _FactGroup:
    """The facts of one predicate/arity key in one example: ``rows`` holds
    their argument tuples in file order.  ``first(t)`` gives the rows whose
    first argument is ``t``; its index is built on first use."""

    __slots__ = ("rows", "_index")

    def __init__(self, rows: tuple[tuple[Term, ...], ...]):
        self.rows = rows
        self._index = None

    def first(self, term: Term):
        index = self._index
        if index is None:
            index = self._index = {}
            for row in self.rows:
                index.setdefault(row[0], []).append(row)
        return index.get(term, ())


class Interpretation:
    """One example: an identifier, a class label, and its ground facts (the
    class fact itself is kept out).  ``groups`` maps each predicate/arity
    key, in order of first occurrence, to the ``_FactGroup`` of its facts;
    the groups are kept as given, shared and not copied."""

    __slots__ = ("ident", "label", "groups")

    def __init__(self, ident: Term, label: str, groups: dict[tuple[str, int], _FactGroup]):
        self.ident = ident
        self.label = label
        self.groups = groups

    @property
    def facts(self) -> tuple[Literal, ...]:
        """The facts as literals, key by key in ``groups`` order."""
        return tuple(
            Literal(pred, row) for (pred, _), g in self.groups.items() for row in g.rows
        )

    def _content(self):
        return tuple((k, g.rows) for k, g in self.groups.items())

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
        n = sum(len(g.rows) for g in self.groups.values())
        return f"Interpretation({render_term(self.ident)}, {self.label}, {n} facts)"


# ---------------------------------------------------------------------------
# Binary codec
#
# A record is self-contained.  It opens with a fixed header: the number of
# constants, the byte length of the constant table, the width of a code (1,
# 2 or 4 bytes) and the number of codes.  Then come a kind byte per constant
# and the constant table: each constant's text in UTF-8, followed by the
# table's separator, which is its last character.  An atom's text is its
# name, an integer's its decimal digits, a float's the 16 hex digits of its
# ``<d`` bytes.  The separator is NUL unless a name holds one.  Last come the
# codes, little-endian at the record's width: the example id (an argument),
# the label (a constant index), the number of groups and, per predicate/arity
# key in order of first occurrence, the predicate (a constant index), the
# arity doubled, plus 1 when the group is tree-coded, the fact count and the
# facts' arguments in file order, or a 0 per fact when the arity is 0.  In a
# plain group each argument is a constant index.  In a tree-coded group, and
# for the id, an argument is a code ``c``: constant ``c >> 1`` when ``c`` is
# even, else a compound of functor constant ``c >> 1`` followed by its arity
# and its arguments.  Facts and ids are ground, so nothing encodes a variable.

_ATOM, _INT, _FLOAT = 0, 1, 2  # constant kinds
_DOUBLE = struct.Struct("<d")
_HEAD = struct.Struct("<IIBI")  # constants, table bytes, code width, codes
_TYPECODES = {1: "B", 2: "H", 4: "I"}  # code width -> array type code
_SWAP = sys.byteorder == "big"  # codes are stored little-endian
# The least a record takes: its header, one constant (the label) of one
# byte of table, and the codes of an id, a label and a group count.
_MIN_RECORD = _HEAD.size + 1 + 1 + 3


def encode_record(interp: Interpretation) -> bytes:
    # Constants take indexes in order of first use: the dict's order is the
    # table's.  Floats are keyed by their bytes, so -0.0 and 0.0 stay apart.
    consts: dict = {}  # atom name, int value or packed float -> index
    numbers: dict[int, int] = {}  # the index of each number constant -> its kind
    codes: list[int] = []
    index = consts.setdefault

    def number(v) -> int:  # the index of the number constant ``v``
        if type(v) is int:
            i = index(v, len(consts))
            numbers[i] = _INT
        else:
            i = index(_DOUBLE.pack(v), len(consts))
            numbers[i] = _FLOAT
        return i

    def put(t: Term):  # one argument in the tree coding
        tt = type(t)
        if tt is Atom:
            codes.append(index(t.name, len(consts)) << 1)
        elif tt is Number:
            codes.append(number(t.value) << 1)
        elif tt is Compound:
            codes.append(index(t.functor, len(consts)) << 1 | 1)
            codes.append(len(t.args))
            for a in t.args:
                put(a)
        else:
            raise TypeError(f"not a ground term: {t!r}")

    put(interp.ident)
    codes.append(index(interp.label, len(consts)))
    codes.append(len(interp.groups))
    for (pred, arity), group in interp.groups.items():
        rows = group.rows
        codes += (index(pred, len(consts)), arity << 1, len(rows))
        if not arity:
            codes += [0] * len(rows)
            continue
        mark = len(codes)
        for t in chain.from_iterable(rows):
            tt = type(t)
            if tt is Atom:
                codes.append(index(t.name, len(consts)))
            elif tt is Number:
                codes.append(number(t.value))
            else:  # a compound, or a variable that ``put`` rejects: tree-code the group
                del codes[mark:]
                codes[mark - 2] |= 1
                for a in chain.from_iterable(rows):
                    put(a)
                break
    texts = list(consts)  # an atom's name is its text
    kinds = bytearray(len(texts))
    for i, kind in numbers.items():
        key = texts[i]
        if kind == _FLOAT:
            texts[i] = key.hex()
        elif -(2**63) <= key < 2**63:
            texts[i] = str(key)
        else:
            raise DataError(f"integer {key} out of the 64-bit storable range")
        kinds[i] = kind
    sep = "\0"
    table = sep.join(texts) + sep
    if table.count(sep) != len(texts):  # a name holds NUL: take a character none holds
        sep = next(c for c in map(chr, range(1, 0x110000)) if all(c not in t for t in texts))
        table = sep.join(texts) + sep
    table = table.encode("utf-8")
    top = max(codes)
    if top < 1 << 8:
        width, packed = 1, bytes(codes)
    elif top < 1 << 32:
        width = 2 if top < 1 << 16 else 4
        packed = array(_TYPECODES[width], codes)
        if _SWAP:
            packed.byteswap()
        packed = packed.tobytes()
    else:
        raise DataError(f"a count or index of {top} is over the 32 bits of a record code")
    return b"".join((_HEAD.pack(len(texts), len(table), width, len(codes)), kinds, table, packed))


def _constant(kind: int, text: str) -> Term:
    """The constant of kind ``kind`` and text ``text``."""
    if kind == _ATOM:
        term = Atom(text)
    elif kind == _INT:
        try:
            term = Number(int(text))
        except ValueError:
            term = None
        if term is None or str(term.value) != text:
            raise DataError(f"corrupt chunk record (bad integer {text!r})")
    elif kind == _FLOAT:
        try:
            term = Number(_DOUBLE.unpack(bytes.fromhex(text))[0])
        except (ValueError, struct.error):
            raise DataError(f"corrupt chunk record (bad float {text!r})") from None
    else:
        raise DataError(f"corrupt chunk record (bad constant kind {kind})")
    return term


def _name(terms: list, c: int) -> str:
    """The name of atom constant ``c``."""
    t = terms[c]
    if type(t) is not Atom:
        raise DataError(f"corrupt chunk record (constant {c} is a number where a name is required)")
    return t.name


def _args(codes, pos: int, count: int, terms: list) -> tuple[list, int]:
    """The ``count`` tree-coded arguments from ``pos`` on, and the position
    after them."""
    out = []
    for _ in range(count):
        if pos >= len(codes):
            raise DataError("corrupt chunk record (truncated)")
        c = codes[pos]
        if c & 1:
            functor = _name(terms, c >> 1)
            if pos + 1 >= len(codes):
                raise DataError("corrupt chunk record (truncated)")
            args, pos = _args(codes, pos + 2, codes[pos + 1], terms)
            out.append(Compound(functor, tuple(args)))
        else:
            out.append(terms[c >> 1])
            pos += 1
    return out, pos


def decode_record(buf: bytes, memo: dict | None = None) -> Interpretation:
    """The example a record holds, its facts decoded straight into groups.
    A record that does not decode, or leaves bytes unread, is a
    ``DataError``.  ``memo`` keeps the constants built so far under their
    kind and text, so that records decoded with one memo share them."""
    if memo is None:
        memo = {}
    size = len(buf)
    if size < _HEAD.size:
        raise DataError("corrupt chunk record (truncated)")
    nconst, tlen, width, ncodes = _HEAD.unpack_from(buf)
    start = _HEAD.size + nconst  # of the table
    end = start + tlen  # of the table, and the start of the codes
    if end > size:
        raise DataError(f"corrupt chunk record (its constant table of {tlen} bytes ends past the record)")
    typecode = _TYPECODES.get(width)
    if typecode is None:
        raise DataError(f"corrupt chunk record (bad code width {width})")
    unread = size - end - width * ncodes
    if unread > 0:
        raise DataError(f"corrupt chunk record ({unread} bytes unread)")
    if unread < 0:
        raise DataError(f"corrupt chunk record ({ncodes} codes of {width} bytes do not fit)")
    codes = array(typecode, buf[end:])
    if _SWAP:
        codes.byteswap()
    kinds = buf[_HEAD.size : start]
    try:
        text = buf[start:end].decode("utf-8")
    except UnicodeDecodeError:
        raise DataError("corrupt chunk record (its constant table is not UTF-8)") from None
    texts = text.split(text[-1]) if text else [""]
    del texts[-1]  # what follows the separator that ends the table
    if len(texts) != nconst:
        raise DataError(f"corrupt chunk record ({len(texts)} constants in a table of {nconst})")
    terms = list(map(memo.get, zip(kinds, texts)))
    if None in terms:  # constants new to the memo
        # An id that is one constant is unique to its record, so it is built
        # but not kept.
        ident_at = codes[0] >> 1 if ncodes and not codes[0] & 1 else -1
        i = 0
        for _ in range(terms.count(None)):
            i = terms.index(None, i)
            term = terms[i] = _constant(kinds[i], texts[i])
            if i != ident_at:
                memo[kinds[i], texts[i]] = term
    get = terms.__getitem__
    try:
        (ident,), pos = _args(codes, 0, 1, terms)
        c, ngroups = codes[pos : pos + 2]
        label = _name(terms, c)
        pos += 2
        groups: dict[tuple[str, int], _FactGroup] = {}
        for _ in range(ngroups):
            c, arity, n = codes[pos : pos + 3]
            pos += 3
            tree = arity & 1
            arity >>= 1
            key = (_name(terms, c), arity)
            if key in groups:
                raise DataError(f"corrupt chunk record ({key[0]}/{arity} grouped twice)")
            # Every fact takes at least a code per argument, a nullary one
            # its 0 marker, and no group is empty: this bounds what a
            # corrupt count or arity allocates by the record's length.
            if not arity:
                if not 0 < n <= ncodes - pos:
                    raise DataError(f"corrupt chunk record ({n} facts of {key[0]}/0 do not fit)")
                if any(codes[pos : pos + n]):
                    raise DataError(f"corrupt chunk record (a fact of {key[0]}/0 is not marked 0)")
                pos += n
                groups[key] = _FactGroup(((),) * n)
                continue
            stop = pos + n * arity
            if not pos < stop <= ncodes:
                raise DataError(f"corrupt chunk record ({n} facts of {key[0]}/{arity} do not fit)")
            if tree:
                args, pos = _args(codes, pos, n * arity, terms)
                args = iter(args)
            else:
                args = map(get, codes[pos:stop])
                pos = stop
            groups[key] = _FactGroup(tuple(zip(*[args] * arity)))
    except ValueError:  # a slice of codes cut short
        raise DataError("corrupt chunk record (truncated)") from None
    except IndexError:
        raise DataError(f"corrupt chunk record (a constant index beyond the table of {nconst})") from None
    except RecursionError:
        raise DataError("corrupt chunk record (compounds nested too deeply)") from None
    if pos != ncodes:
        raise DataError(f"corrupt chunk record ({(ncodes - pos) * width} bytes unread)")
    return Interpretation(ident, label, groups)


# ---------------------------------------------------------------------------
# Reading data files


def iter_kb_blocks(path, classes, allow_unlabeled: bool = False) -> Iterator[Interpretation]:
    """Stream interpretations from a ``begin/end`` block file, read clause by
    clause through ``terms.read_clauses`` from the file's ``line_pieces``.

    ``classes`` is the declared class-label list: exactly one matching nullary
    fact must appear in each block; it becomes the label and is removed from
    the fact set.  With ``allow_unlabeled`` a block without a class fact
    yields an interpretation with an empty label (classification input).
    """
    class_set = set(classes)
    ident = None
    groups: dict[tuple[str, int], list] = {}  # of the open block: each key's rows
    label: str | None = None
    with in_file(path), open(path, "r", encoding="utf-8") as f:
        for line, clause in read_clauses(line_pieces(f)):
            if clause.body:
                raise DataError(f"a data file holds facts, not rules (line {line})")
            fact = clause.head
            if fact.pred in ("begin", "end") and (marker := _block_marker(fact, line)) is not None:
                kind, block_id = marker
                if kind == "begin":
                    if ident is not None:
                        raise DataError(f"begin inside block {render_term(ident)} (line {line})")
                    ident, groups, label = block_id, {}, None
                    continue
                if ident is None:
                    raise DataError(f"end outside any block (line {line})")
                if block_id != ident:
                    raise DataError(
                        f"mismatched begin/end ids: {render_term(ident)} vs {render_term(block_id)} (line {line})"
                    )
                if label is None:
                    if not allow_unlabeled:
                        raise DataError(f"no class fact in example {render_term(ident)}")
                    label = ""
                yield Interpretation(ident, label, {k: _FactGroup(tuple(v)) for k, v in groups.items()})
                ident = None
                continue
            if ident is None:
                raise DataError(f"fact outside of a begin/end block (line {line})")
            if not fact.args and fact.pred in class_set:
                if label is not None:
                    raise DataError(
                        f"ambiguous class in example {render_term(ident)}: "
                        f"both {label} and {fact.pred} (line {line})"
                    )
                label = fact.pred
                continue
            if not all(map(is_ground, fact.args)):
                raise DataError(f"non-ground fact in example {render_term(ident)} (line {line})")
            groups.setdefault(fact.key, []).append(fact.args)
        if ident is not None:
            raise DataError(f"unterminated block {render_term(ident)} at end of file")


def write_block(f, ident: Term, facts: Iterable[Literal]) -> None:
    """Write one example as the ``begin/end`` block that ``iter_kb_blocks``
    reads: each fact on a line of its own, the class among them as a
    nullary fact."""
    f.write(f"begin(model({render_term(ident)})).\n")
    for fact in facts:
        f.write(f"  {render_fact(fact)}\n")
    f.write(f"end(model({render_term(ident)})).\n")


def _block_marker(fact: Literal, line: int):
    if (
        len(fact.args) == 1
        and isinstance(fact.args[0], Compound)
        and fact.args[0].functor == "model"
        and len(fact.args[0].args) == 1
    ):
        block_id = fact.args[0].args[0]
        if not is_ground(block_id):
            raise DataError(f"example identifier must be ground (line {line})")
        return fact.pred, block_id
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
        body = bytearray()
        for interp in self._buffer:
            rec = encode_record(interp)
            self._record_hashes.append(hashlib.sha256(rec).digest())
            body += _FRAME.pack(len(rec)) + rec
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
        the listed records of a chunk are decoded, at most one chunk (<= G
        examples) at a time.  The data file is opened at the first chunk with
        a listed ordinal and read front to back from there: a chunk with
        none is passed over by its frame header, and a pass that lists
        nothing opens no file."""
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
                        raise DataError(f"data file {path} is not in chunk format v4: compile the data file again")
                    for skipped in range(index):
                        f.seek(length(skipped), 1)
                if chosen:
                    yield from self._load_chunk(index, chunk, f.read(length(index)), chosen)
                elif f is not None:
                    f.seek(length(index), 1)
            if f is not None and f.tell() != size:
                raise DataError(f"corrupt chunk {index} of data file {path}: {size - f.tell()} bytes follow it")

    def _load_chunk(self, index, chunk, raw, chosen) -> list[tuple[int, Interpretation]]:
        """The records of chunk ``index`` in its frame body ``raw`` whose
        positions ``chosen`` holds, decoded, with their ordinals; the record
        framing and count are checked."""
        counts = self.class_counts
        out: list[tuple[int, Interpretation]] = []
        pos = found = 0
        memo: dict = {}  # the chunk's constants, shared by its records
        try:
            while pos < len(raw):
                start = pos + 4
                pos = start + (_FRAME.unpack_from(raw, pos)[0] if start <= len(raw) else len(raw))
                if pos > len(raw):  # as does a record header cut short
                    raise DataError("its records overrun the frame")
                if found in chosen:
                    interp = decode_record(raw[start:pos], memo)
                    if interp.label not in counts:
                        raise DataError(f"label {interp.label!r} is not among the class counts of {META_NAME}")
                    out.append((chunk.start_ordinal + found, interp))
                found += 1
            if found != chunk.count:
                raise DataError(f"expected {chunk.count} records, found {found}")
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
    # Every frame takes its 4-byte length and every record its own and the
    # least a record holds: before the layout is built, a tampered total
    # allocates nothing.
    if data.stat().st_size < len(CHUNK_MAGIC) + 4 * -(-total // granularity) + (4 + _MIN_RECORD) * total:
        raise DataError(f"data file {data} is too short for the {total} examples of {meta_path}")
    chunks = [ChunkInfo(data, min(granularity, total - o), o) for o in range(0, total, granularity)]
    return DatasetHandle(directory, chunks, granularity, total, dict(class_counts), fingerprint, predicates)
