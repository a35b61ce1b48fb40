"""On-disk dataset store: interpretations chunked by granularity G.

A dataset text file is a sequence of blocks::

    begin(model(4)).
      card(7,spades).
      ...
      pair.
    end(model(4)).

``load_dataset`` parses the blocks once and writes a chunk store into the
directory it is given: binary chunk files of ``G`` pre-parsed examples each,
the last holding the rest, and a metadata file whose ``granularity`` and
``total`` give that layout and which also records every predicate/arity key
the examples' facts use.  Streaming passes then decode one chunk at a time,
so at most ``G`` examples are ever resident; the handle counts chunk loads
and the peak number of resident examples so that callers can verify the
bound.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .errors import DataError, in_file
from .terms import (
    Atom,
    Compound,
    Literal,
    Number,
    Term,
    is_ground,
    read_clauses,
    render_term,
)

CHUNK_MAGIC = b"foldt-chunk v1\n"
META_NAME = "meta.json"
CHUNK_NAME = "chunk-{:05d}.bin"


class _FactGroup:
    __slots__ = ("facts", "by_first")

    def __init__(self, facts: tuple[Literal, ...]):
        self.facts = facts
        by_first: dict[Term, list[Literal]] = {}
        if facts and facts[0].args:
            for f in facts:
                by_first.setdefault(f.args[0], []).append(f)
        self.by_first = {k: tuple(v) for k, v in by_first.items()}


class Interpretation:
    """One example: an identifier, a class label, and an indexed set of
    ground facts (the class fact itself is kept out of the index).
    ``groups`` maps each predicate/arity key to its facts."""

    __slots__ = ("ident", "label", "facts", "groups")

    def __init__(self, ident: Term, label: str, facts: tuple[Literal, ...]):
        self.ident = ident
        self.label = label
        self.facts = facts
        groups: dict[tuple[str, int], list[Literal]] = {}
        for f in facts:
            groups.setdefault(f.key, []).append(f)
        self.groups = {k: _FactGroup(tuple(v)) for k, v in groups.items()}

    def predicates(self):
        return self.groups.keys()

    def __eq__(self, other):
        return (
            isinstance(other, Interpretation)
            and self.ident == other.ident
            and self.label == other.label
            and self.facts == other.facts
        )

    def __hash__(self):
        return hash((self.ident, self.label, self.facts))

    def __repr__(self):
        return f"Interpretation({render_term(self.ident)}, {self.label}, {len(self.facts)} facts)"


# ---------------------------------------------------------------------------
# Binary codec

# Facts and ids are ground, so no tag encodes a variable.  Tag 3 stays
# unassigned so that stores already written keep their tag numbers.
_TAG_ATOM, _TAG_INT, _TAG_FLOAT, _TAG_COMPOUND = 0, 1, 2, 4


def _put_uvarint(out: bytearray, n: int):
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _put_str(out: bytearray, s: str):
    raw = s.encode("utf-8")
    _put_uvarint(out, len(raw))
    out.extend(raw)


def _put_term(out: bytearray, t: Term):
    if isinstance(t, Atom):
        out.append(_TAG_ATOM)
        _put_str(out, t.name)
    elif isinstance(t, Number):
        if isinstance(t.value, int):
            out.append(_TAG_INT)
            n = t.value
            _put_uvarint(out, (n << 1) ^ (n >> 63) if -(2**63) <= n < 2**63 else _reject_int(n))
        else:
            out.append(_TAG_FLOAT)
            out.extend(struct.pack("<d", t.value))
    elif isinstance(t, Compound):
        out.append(_TAG_COMPOUND)
        _put_str(out, t.functor)
        _put_uvarint(out, len(t.args))
        for a in t.args:
            _put_term(out, a)
    else:
        raise TypeError(f"not a ground term: {t!r}")


def _reject_int(n: int):
    raise DataError(f"integer {n} out of the 64-bit storable range")


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def uvarint(self) -> int:
        shift = n = 0
        while True:
            b = self.buf[self.pos]
            self.pos += 1
            n |= (b & 0x7F) << shift
            if not b & 0x80:
                return n
            shift += 7

    def string(self) -> str:
        ln = self.uvarint()
        raw = self.buf[self.pos : self.pos + ln]
        self.pos += ln
        return raw.decode("utf-8")

    def term(self) -> Term:
        tag = self.buf[self.pos]
        self.pos += 1
        if tag == _TAG_ATOM:
            return Atom(self.string())
        if tag == _TAG_INT:
            z = self.uvarint()
            return Number((z >> 1) ^ -(z & 1))
        if tag == _TAG_FLOAT:
            (v,) = struct.unpack_from("<d", self.buf, self.pos)
            self.pos += 8
            return Number(v)
        if tag == _TAG_COMPOUND:
            functor = self.string()
            arity = self.uvarint()
            return Compound(functor, tuple(self.term() for _ in range(arity)))
        raise DataError(f"corrupt chunk record (bad tag {tag})")


def encode_record(interp: Interpretation) -> bytes:
    out = bytearray()
    _put_term(out, interp.ident)
    _put_str(out, interp.label)
    _put_uvarint(out, len(interp.facts))
    for f in interp.facts:
        _put_str(out, f.pred)
        _put_uvarint(out, len(f.args))
        for a in f.args:
            _put_term(out, a)
    return bytes(out)


def decode_record(buf: bytes) -> Interpretation:
    r = _Reader(buf)
    ident = r.term()
    label = r.string()
    nfacts = r.uvarint()
    facts = []
    for _ in range(nfacts):
        pred = r.string()
        arity = r.uvarint()
        args = tuple(r.term() for _ in range(arity))
        facts.append(Literal(pred, args))
    if r.pos != len(buf):
        raise DataError(f"corrupt chunk record ({len(buf) - r.pos} bytes unread)")
    return Interpretation(ident, label, tuple(facts))


# ---------------------------------------------------------------------------
# Reading data files


def iter_kb_blocks(path, classes, allow_unlabeled: bool = False) -> Iterator[Interpretation]:
    """Stream interpretations from a ``begin/end`` block file, read clause by
    clause through ``terms.read_clauses``.

    ``classes`` is the declared class-label list: exactly one matching nullary
    fact must appear in each block; it becomes the label and is removed from
    the fact set.  With ``allow_unlabeled`` a block without a class fact
    yields an interpretation with an empty label (classification input).
    """
    class_set = set(classes)
    ident = None
    facts: list[Literal] = []
    label: str | None = None
    with in_file(path), open(path, "r", encoding="utf-8") as f:
        for line, clause in read_clauses(f):
            if clause.body:
                raise DataError(f"a data file holds facts, not rules (line {line})")
            fact = clause.head
            if fact.pred in ("begin", "end") and (marker := _block_marker(fact, line)) is not None:
                kind, block_id = marker
                if kind == "begin":
                    if ident is not None:
                        raise DataError(f"begin inside block {render_term(ident)} (line {line})")
                    ident, facts, label = block_id, [], None
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
                yield Interpretation(ident, label, tuple(facts))
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
            facts.append(fact)
        if ident is not None:
            raise DataError(f"unterminated block {render_term(ident)} at end of file")


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
    path: Path
    count: int
    start_ordinal: int


class ChunkWriter:
    """Accumulates interpretations and writes chunk files of size G."""

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

    def add(self, interp: Interpretation):
        if interp.ident in self._ids:
            raise DataError(f"duplicate example id {render_term(interp.ident)}")
        self._ids.add(interp.ident)
        self._predicates.update(interp.predicates())
        self._class_counts[interp.label] += 1
        self._buffer.append(interp)
        if len(self._buffer) == self.granularity:
            self._flush()

    def _flush(self):
        """Write the buffer as the next chunk: when it reaches G, and once at
        the end, which is the layout ``open_dataset`` derives."""
        if not self._buffer:
            return
        index = len(self._record_hashes) // self.granularity
        with open(self.dir / CHUNK_NAME.format(index), "wb") as f:
            f.write(CHUNK_MAGIC)
            for interp in self._buffer:
                rec = encode_record(interp)
                self._record_hashes.append(hashlib.sha256(rec).digest())
                f.write(struct.pack("<I", len(rec)))
                f.write(rec)
        self._buffer = []

    def finish(self) -> "DatasetHandle":
        self._flush()
        if not self._ids:
            raise DataError("empty dataset")
        fingerprint = hashlib.sha256(b"".join(sorted(self._record_hashes))).hexdigest()
        meta = {
            "granularity": self.granularity,
            "total": len(self._ids),
            "class_counts": dict(self._class_counts),
            "fingerprint": fingerprint,
            "predicates": [list(k) for k in sorted(self._predicates)],
        }
        with open(self.dir / META_NAME, "w", encoding="utf-8") as f:
            json.dump(meta, f, indent=1)
        return open_dataset(self.dir)


class DatasetHandle:
    """Read handle over a chunk store; shareable for concurrent passes."""

    def __init__(
        self, directory, chunks, granularity, total, class_counts, fingerprint, predicates
    ):
        self.dir = Path(directory)
        self.chunks: list[ChunkInfo] = chunks
        self.granularity = granularity
        self.total = total
        self.class_counts = class_counts
        self.fingerprint = fingerprint
        # Predicate/arity keys of every example's facts.
        self.predicates: frozenset[tuple[str, int]] = predicates
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

    def stream_examples(
        self, selector: Callable[[int], bool] | None = None
    ) -> Iterator[tuple[int, Interpretation]]:
        """Yield ``(ordinal, interpretation)`` in ordinal order.

        ``selector`` filters by ordinal and is called once per ordinal;
        chunks whose examples are all excluded are skipped without opening
        the file, and only the selected records of a chunk are decoded.  At
        most one chunk (<= G examples) is decoded at a time.
        """
        for chunk in self.chunks:
            ordinals = range(chunk.start_ordinal, chunk.start_ordinal + chunk.count)
            chosen = None if selector is None else list(map(selector, ordinals))
            if chosen is not None and not any(chosen):
                continue
            yield from self._load_chunk(chunk, chosen)

    def _load_chunk(self, chunk: ChunkInfo, chosen=None) -> list[tuple[int, Interpretation]]:
        """The chunk's records that ``chosen`` selects by position (all of
        them without it), decoded, with their ordinals.  The framing of
        every record is checked: magic, record headers and lengths, and the
        record count."""
        try:
            raw = chunk.path.read_bytes()
        except OSError as e:
            raise DataError(f"missing chunk file {chunk.path}: {e}") from e
        if not raw.startswith(CHUNK_MAGIC):
            raise DataError(f"corrupt chunk file {chunk.path}: bad magic")
        pos = len(CHUNK_MAGIC)
        out: list[tuple[int, Interpretation]] = []
        found = 0
        while pos < len(raw):
            if pos + 4 > len(raw):
                raise DataError(f"corrupt chunk file {chunk.path}: truncated record header")
            (ln,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            if pos + ln > len(raw):
                raise DataError(f"corrupt chunk file {chunk.path}: truncated record")
            if found < chunk.count and (chosen is None or chosen[found]):
                out.append((chunk.start_ordinal + found, self._decode(chunk, raw[pos : pos + ln])))
            found += 1
            pos += ln
        if found != chunk.count:
            raise DataError(
                f"corrupt chunk file {chunk.path}: expected {chunk.count} records, found {found}"
            )
        self.chunk_loads += 1
        if len(out) > self._peak:
            self._peak = len(out)
        return out

    def _decode(self, chunk: ChunkInfo, record: bytes) -> Interpretation:
        try:
            interp = decode_record(record)
        except (DataError, IndexError, UnicodeDecodeError, struct.error) as e:
            raise DataError(f"corrupt chunk file {chunk.path}: {e}") from e
        if interp.label not in self.class_counts:
            raise DataError(
                f"corrupt chunk file {chunk.path}: label {interp.label!r} is not "
                f"among the class counts of {META_NAME}"
            )
        return interp


def load_dataset(path, settings, out_dir, granularity: int | None = None) -> DatasetHandle:
    """Parse a block file and build its chunk store in the directory
    ``out_dir``; nothing is written beside the block file.  Granularity
    defaults to the settings parameter."""
    g = granularity if granularity is not None else settings.params.granularity
    writer = ChunkWriter(out_dir, g)
    with in_file(path):
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
    last = directory / CHUNK_NAME.format((total - 1) // granularity)
    if not last.is_file():  # before the layout is built: a tampered total allocates nothing
        raise DataError(f"missing chunk file {last}: {meta_path} gives {total} examples")
    chunks = [
        ChunkInfo(directory / CHUNK_NAME.format(i), min(granularity, total - start), start)
        for i, start in enumerate(range(0, total, granularity))
    ]
    return DatasetHandle(
        directory, chunks, granularity, total, dict(class_counts), fingerprint, predicates
    )
