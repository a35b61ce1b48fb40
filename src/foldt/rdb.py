"""Semi-automated conversion from a relational snapshot to interpretations.

Input is one delimiter-separated file per table plus a schema file in the
directive syntax::

    table(molecules, [formula, name, class]).
    key(molecules, [formula]).
    table(contains, [molecule, atom_id]).
    fk(contains, [molecule], molecules).
    fk(contains, [atom_id], atoms).
    background(mendelev).
    example_id(molecules, formula).
    class_attr(molecules, class).     % optional
    drop_id.                          % optional: strip the id attribute
    elide(contains).                  % optional: collect but do not emit

Per example id the converter collects the fixpoint closure: it seeds with
every non-background tuple containing the id value in any cell (optionally
key cells only), then repeatedly follows foreign keys in both directions --
tuples referenced by a foreign key of a collected tuple, and tuples whose
foreign keys reference a collected tuple's key -- never entering background
tables.  Collected tuples become facts ``table(cell1,...,cellN)``; background
tables are emitted once as a fact program.  Cells that lexically are numbers
become numeric constants, everything else becomes an atom.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError, ParseError
from .terms import (
    Atom,
    Literal,
    Number,
    Term,
    TermParser,
    render_atom,
    render_fact,
    render_term,
    tokenize,
)

log = logging.getLogger(__name__)

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?\Z")


def cell_term(text: str) -> Term:
    """A number for a cell that lexically is one, else an atom; a numeric
    cell without a finite value is a ``DataError``."""
    text = text.strip()
    if _INT_RE.match(text):
        try:
            return Number(int(text))
        except ValueError:  # more digits than int() converts
            raise DataError(f"number too long ({len(text)} characters)") from None
    if _FLOAT_RE.match(text):
        value = float(text)
        if not math.isfinite(value):
            raise DataError(f"number out of range: {text}")
        return Number(value)
    return Atom(text)


@dataclass
class ForeignKey:
    attrs: tuple[str, ...]
    target: str


@dataclass
class Table:
    name: str
    attrs: tuple[str, ...]
    key: tuple[str, ...] = ()
    fks: tuple[ForeignKey, ...] = ()
    background: bool = False
    elide: bool = False

    def positions(self, attrs) -> tuple[int, ...]:
        return tuple(self.attrs.index(a) for a in attrs)


@dataclass
class Schema:
    tables: dict[str, Table]  # in declaration order
    example_table: str
    id_attr: str
    class_attr: str | None = None
    drop_id: bool = False


def parse_schema(text: str) -> Schema:
    stream = TermParser(tokenize(text))
    tables: dict[str, Table] = {}
    fks: list[tuple[str, tuple[str, ...], str]] = []
    keys: list[tuple[str, tuple[str, ...]]] = []
    background: list[str] = []
    elide: list[str] = []
    example_id: tuple[str, str] | None = None
    class_attr: tuple[str, str] | None = None
    drop_id = False

    def atom_list() -> tuple[str, ...]:
        stream.expect("punct", "[")
        names = []
        while True:
            tok = stream.peek()
            if tok.kind != "atom":
                raise ParseError("expected an attribute name", tok.line, tok.col)
            stream.next()
            names.append(tok.value)
            if stream.at("punct", ","):
                stream.next()
                continue
            break
        stream.expect("punct", "]")
        return tuple(names)

    def atom_arg() -> str:
        tok = stream.peek()
        if tok.kind != "atom":
            raise ParseError("expected a name", tok.line, tok.col)
        stream.next()
        return tok.value

    while not stream.at("eof"):
        tok = stream.peek()
        if tok.kind != "atom":
            raise ParseError("expected a schema directive", tok.line, tok.col)
        stream.next()
        if tok.value == "drop_id":
            stream.expect("end")
            drop_id = True
            continue
        stream.expect("punct", "(")
        if tok.value == "table":
            name = atom_arg()
            stream.expect("punct", ",")
            attrs = atom_list()
            if name in tables:
                raise ParseError(f"table {name!r} declared twice", tok.line, tok.col)
            tables[name] = Table(name, attrs)
        elif tok.value == "key":
            name = atom_arg()
            stream.expect("punct", ",")
            keys.append((name, atom_list()))
        elif tok.value == "fk":
            name = atom_arg()
            stream.expect("punct", ",")
            attrs = atom_list()
            stream.expect("punct", ",")
            fks.append((name, attrs, atom_arg()))
        elif tok.value == "background":
            background.append(atom_arg())
        elif tok.value == "elide":
            elide.append(atom_arg())
        elif tok.value == "example_id":
            name = atom_arg()
            stream.expect("punct", ",")
            if example_id is not None:
                raise ParseError("example_id declared twice", tok.line, tok.col)
            example_id = (name, atom_arg())
        elif tok.value == "class_attr":
            name = atom_arg()
            stream.expect("punct", ",")
            class_attr = (name, atom_arg())
        else:
            raise ParseError(f"unknown schema directive {tok.value!r}", tok.line, tok.col)
        stream.expect("punct", ")")
        stream.expect("end")

    def table_of(name, what):
        t = tables.get(name)
        if t is None:
            raise ParseError(f"{what} references undeclared table {name!r}")
        return t

    for name, attrs in keys:
        t = table_of(name, "key")
        _check_attrs(t, attrs, "key")
        t.key = attrs
    by_table: dict[str, list[ForeignKey]] = {}
    for name, attrs, target in fks:
        t = table_of(name, "fk")
        _check_attrs(t, attrs, "fk")
        tt = table_of(target, "fk target")
        if not tt.background and len(tt.key) != len(attrs):
            raise ParseError(
                f"fk {name}{attrs} -> {target}: target must declare a key of the same arity"
            )
        by_table.setdefault(name, []).append(ForeignKey(attrs, target))
    for name, lst in by_table.items():
        tables[name].fks = tuple(lst)
    for name in background:
        table_of(name, "background").background = True
    for name in elide:
        table_of(name, "elide").elide = True
    if example_id is None:
        raise ParseError("schema must declare example_id(table, attr)")
    root = table_of(example_id[0], "example_id")
    _check_attrs(root, (example_id[1],), "example_id")
    if root.background:
        raise ParseError("the example table cannot be background")
    if class_attr is not None:
        if class_attr[0] != root.name:
            raise ParseError("class_attr must be on the example table")
        _check_attrs(root, (class_attr[1],), "class_attr")
    return Schema(
        tables,
        example_id[0],
        example_id[1],
        class_attr[1] if class_attr else None,
        drop_id,
    )


def _check_attrs(table: Table, attrs, what: str):
    for a in attrs:
        if a not in table.attrs:
            raise ParseError(f"{what}: {table.name!r} has no attribute {a!r}")


@dataclass
class Snapshot:
    rows: dict[str, list[tuple[Term, ...]]]


def load_snapshot(directory, schema: Schema, delimiter: str = ",") -> Snapshot:
    directory = Path(directory)
    rows: dict[str, list[tuple[Term, ...]]] = {}
    for name, table in schema.tables.items():
        path = directory / f"{name}.csv"
        if not path.exists():
            raise DataError(f"missing table file {path}")
        with open(path, "r", encoding="utf-8", newline="") as f:
            table_rows = []
            for lineno, cells in enumerate(csv.reader(f, delimiter=delimiter), 1):
                if not cells or (len(cells) == 1 and not cells[0].strip()):
                    continue
                if len(cells) != len(table.attrs):
                    raise DataError(
                        f"{path}:{lineno}: expected {len(table.attrs)} cells, found {len(cells)}"
                    )
                try:
                    table_rows.append(tuple(cell_term(c) for c in cells))
                except DataError as e:
                    raise DataError(f"{path}:{lineno}: {e}") from None
            rows[name] = table_rows
    return Snapshot(rows)


# ---------------------------------------------------------------------------
# Closure


class _Indexes:
    def __init__(self, snapshot: Snapshot, schema: Schema):
        self._snapshot = snapshot
        self._schema = schema
        self._seeds: dict[str, dict[Term, list[tuple[str, int]]]] = {}
        self.key_rows: dict[str, dict[tuple, list[int]]] = {}
        self.fk_rows: dict[tuple[str, int], dict[tuple, list[int]]] = {}
        self.inbound: dict[str, list[tuple[str, int]]] = {}
        for name, table in schema.tables.items():
            if table.key:
                pos = table.positions(table.key)
                index: dict[tuple, list[int]] = {}
                for ri, row in enumerate(snapshot.rows[name]):
                    index.setdefault(tuple(row[p] for p in pos), []).append(ri)
                self.key_rows[name] = index
            for fi, fk in enumerate(table.fks):
                pos = table.positions(fk.attrs)
                index = {}
                for ri, row in enumerate(snapshot.rows[name]):
                    index.setdefault(tuple(row[p] for p in pos), []).append(ri)
                self.fk_rows[(name, fi)] = index
                if not table.background:
                    self.inbound.setdefault(fk.target, []).append((name, fi))

    def seeds(self, containing: str) -> dict[Term, list[tuple[str, int]]]:
        """Each cell value mapped to the non-background rows that contain it
        (in any cell, or in a key cell for ``containing="key"``), in table
        declaration order then row order; built once per mode."""
        index = self._seeds.get(containing)
        if index is None:
            index = self._seeds[containing] = {}
            for name, table in self._schema.tables.items():
                if table.background:
                    continue
                if containing == "key":
                    pos = table.positions(table.key) if table.key else ()
                else:
                    pos = range(len(table.attrs))
                for ri, row in enumerate(self._snapshot.rows[name]):
                    for value in {row[p] for p in pos}:
                        index.setdefault(value, []).append((name, ri))
        return index


def _closure(
    snapshot: Snapshot,
    schema: Schema,
    idx: _Indexes,
    id_value: Term,
    strict_fk: bool,
    containing: str,
    warnings: dict[str, None],
):
    """The rows collected for one example id.  ``warnings`` is an ordered
    set of the dangling-key messages met so far."""
    selected: set[tuple[str, int]] = set()
    queue = list(idx.seeds(containing).get(id_value, ()))
    while queue:
        item = queue.pop()
        if item in selected:
            continue
        selected.add(item)
        name, ri = item
        table = schema.tables[name]
        row = snapshot.rows[name][ri]
        for fi, fk in enumerate(table.fks):
            target = schema.tables[fk.target]
            if target.background:
                continue  # background boundary: follow zero steps
            value = tuple(row[p] for p in table.positions(fk.attrs))
            refs = idx.key_rows.get(fk.target, {}).get(value, [])
            if not refs:
                msg = (
                    f"dangling foreign key {name}.{'/'.join(fk.attrs)} = "
                    f"{','.join(render_term(v) for v in value)} (no row in {fk.target})"
                )
                if strict_fk:
                    raise DataError(msg)
                warnings[msg] = None
            for rj in refs:
                queue.append((fk.target, rj))
        if table.key:
            key_value = tuple(row[p] for p in table.positions(table.key))
            for src_name, fi in idx.inbound.get(name, ()):
                for rj in idx.fk_rows[(src_name, fi)].get(key_value, ()):
                    queue.append((src_name, rj))
    return selected


def _selected_facts(snapshot, schema, selected) -> list[Literal]:
    facts: list[Literal] = []
    drop_pos = None
    if schema.drop_id:
        drop_pos = schema.tables[schema.example_table].attrs.index(schema.id_attr)
    for name, table in schema.tables.items():
        if table.elide or table.background:
            continue
        for ri in sorted(ri for (n, ri) in selected if n == name):
            row = snapshot.rows[name][ri]
            if name == schema.example_table and drop_pos is not None:
                row = tuple(c for p, c in enumerate(row) if p != drop_pos)
            facts.append(Literal(name, row))
    return facts


def extract_example(
    snapshot: Snapshot,
    schema: Schema,
    id_value: Term,
    strict_fk: bool = False,
    containing: str = "any",
) -> list[Literal]:
    """The fixpoint closure for one example id, converted to ground facts in
    table-declaration order then row order."""
    idx = _Indexes(snapshot, schema)
    warnings: dict[str, None] = {}
    root = schema.tables[schema.example_table]
    id_pos = root.attrs.index(schema.id_attr)
    if all(row[id_pos] != id_value for row in snapshot.rows[root.name]):
        raise DataError(f"unknown example id {render_term(id_value)}")
    selected = _closure(snapshot, schema, idx, id_value, strict_fk, containing, warnings)
    for w in warnings:
        log.warning("%s", w)
    return _selected_facts(snapshot, schema, selected)


@dataclass
class ConversionReport:
    example_count: int
    background_fact_count: int
    warnings: list[str] = field(default_factory=list)
    locality_violations: list[str] = field(default_factory=list)


def convert_all(
    snapshot: Snapshot,
    schema: Schema,
    out_data,
    out_background,
    strict_fk: bool = False,
    containing: str = "any",
) -> ConversionReport:
    """One begin/end block per distinct example id in first-occurrence order,
    plus the background tables as a fact program.  Locality (no example
    mentioning another example's id) is checked and reported, not assumed."""
    idx = _Indexes(snapshot, schema)
    root = schema.tables[schema.example_table]
    id_pos = root.attrs.index(schema.id_attr)
    class_pos = root.attrs.index(schema.class_attr) if schema.class_attr else None
    root_rows = snapshot.rows[root.name]
    if not root_rows:
        raise DataError("no examples: the example table is empty")
    # Each example id, in first-occurrence order, with the class cells of
    # its rows.
    labels_of: dict[Term, set[Term]] = {}
    for row in root_rows:
        labels = labels_of.setdefault(row[id_pos], set())
        if class_pos is not None:
            labels.add(row[class_pos])
    report = ConversionReport(0, 0)
    warnings: dict[str, None] = {}
    with open(out_data, "w", encoding="utf-8") as f:
        for id_value, labels in labels_of.items():
            selected = _closure(snapshot, schema, idx, id_value, strict_fk, containing, warnings)
            label = None
            if class_pos is not None:
                if len(labels) != 1:
                    raise DataError(
                        f"conflicting class values for example {render_term(id_value)}"
                    )
                label = labels.pop()
                if not isinstance(label, Atom) or not label.name:
                    raise DataError(
                        f"missing or non-atom class value for example {render_term(id_value)}"
                    )
            facts = _selected_facts(snapshot, schema, selected)
            for fact in facts:
                for cell in fact.args:
                    if cell != id_value and cell in labels_of:
                        report.locality_violations.append(
                            f"example {render_term(id_value)} mentions "
                            f"{render_term(cell)} in {fact.pred}"
                        )
            f.write(f"begin(model({render_term(id_value)})).\n")
            if label is not None:
                f.write(f"  {render_atom(label.name)}.\n")
            for fact in facts:
                f.write(f"  {render_fact(fact)}\n")
            f.write(f"end(model({render_term(id_value)})).\n")
            report.example_count += 1
    report.warnings = list(warnings)
    with open(out_background, "w", encoding="utf-8") as f:
        for name, table in schema.tables.items():
            if not table.background:
                continue
            for row in snapshot.rows[name]:
                f.write(render_fact(Literal(name, row)) + "\n")
                report.background_fact_count += 1
    for v in report.locality_violations:
        log.warning("locality: %s", v)
    return report
