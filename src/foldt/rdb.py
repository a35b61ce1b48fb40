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
from .store import write_block
from .terms import (
    Atom,
    Literal,
    Number,
    Term,
    lex_clauses,
    lexeme_kind,
    lexeme_value,
    render_atom,
    render_fact,
    render_term,
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


# The arguments of each schema directive: a name or a list of names.
_NAME, _NAMES = "name", "names"
_SHAPES = {
    "table": (_NAME, _NAMES),
    "key": (_NAME, _NAMES),
    "fk": (_NAME, _NAMES, _NAME),
    "background": (_NAME,),
    "elide": (_NAME,),
    "example_id": (_NAME, _NAME),
    "class_attr": (_NAME, _NAME),
    "drop_id": (),
}
# What a directive declares that may be declared once, from its arguments.
_ONCE = {
    "table": "table {!r}",
    "key": "key of {!r}",
    "example_id": "example_id",
    "class_attr": "class_attr",
}


def parse_schema(text: str) -> Schema:
    parser, starts = lex_clauses(text)
    toks = parser.toks
    found: dict[str, list[list]] = {d: [] for d in _SHAPES}
    declared: set[str] = set()

    def read_name(i, what: str = "a name"):
        if lexeme_kind(toks[i]) != "atom":
            raise parser.error(f"expected {what}", i)
        return lexeme_value(toks[i]), i + 1

    def read_names(i):
        name, i = read_name(parser.expect(toks, i, "["), "an attribute name")
        out = [name]
        while toks[i] == ",":
            name, i = read_name(i + 1, "an attribute name")
            out.append(name)
        return tuple(out), parser.expect(toks, i, "]")

    for s in starts:
        if lexeme_kind(toks[s]) != "atom":
            raise parser.error("expected a schema directive", s)
        directive = lexeme_value(toks[s])
        shape = _SHAPES.get(directive)
        i = s + 1
        if shape != ():
            i = parser.expect(toks, i, "(")
            if shape is None:
                raise parser.error(f"unknown schema directive {directive!r}", s)
        args = []
        for kind in shape:
            if args:
                i = parser.expect(toks, i, ",")
            arg, i = read_names(i) if kind is _NAMES else read_name(i)
            args.append(arg)
        if directive in _ONCE:
            what = _ONCE[directive].format(*args)
            if what in declared:
                raise parser.error(f"{what} declared twice", s)
            declared.add(what)
        if shape:
            i = parser.expect(toks, i, ")")
        parser.end(toks, i)
        found[directive].append(args)

    tables = {name: Table(name, attrs) for name, attrs in found["table"]}

    def table_of(name, what):
        t = tables.get(name)
        if t is None:
            raise ParseError(f"{what} references undeclared table {name!r}")
        return t

    for name, attrs in found["key"]:
        t = table_of(name, "key")
        _check_attrs(t, attrs, "key")
        t.key = attrs
    # The closure never follows a foreign key into a background table, so
    # such a target needs no key.
    background = {name for (name,) in found["background"]}
    for name, attrs, target in found["fk"]:
        t = table_of(name, "fk")
        _check_attrs(t, attrs, "fk")
        target_key = table_of(target, "fk target").key
        if target not in background and len(target_key) != len(attrs):
            raise ParseError(
                f"fk({render_atom(name)}, [{', '.join(map(render_atom, attrs))}], "
                f"{render_atom(target)}): target must declare a key of the same arity"
            )
        t.fks += (ForeignKey(attrs, target),)
    for (name,) in found["background"]:
        table_of(name, "background").background = True
    for (name,) in found["elide"]:
        table_of(name, "elide").elide = True
    if not found["example_id"]:
        raise ParseError("schema must declare example_id(table, attr)")
    [(root_name, id_attr)] = found["example_id"]
    root = table_of(root_name, "example_id")
    _check_attrs(root, (id_attr,), "example_id")
    if root.background:
        raise ParseError("the example table cannot be background")
    class_attr = None
    for table_name, class_attr in found["class_attr"]:
        if table_name != root.name:
            raise ParseError("class_attr must be on the example table")
        _check_attrs(root, (class_attr,), "class_attr")
    return Schema(tables, root_name, id_attr, class_attr, bool(found["drop_id"]))


def _check_attrs(table: Table, attrs, what: str):
    for a in attrs:
        if a not in table.attrs:
            raise ParseError(f"{what}: {table.name!r} has no attribute {a!r}")


Rows = dict[str, list[tuple[Term, ...]]]


def load_snapshot(directory, schema: Schema, delimiter: str = ",") -> Rows:
    """The rows of each table of ``schema``, read from ``<name>.csv``."""
    directory = Path(directory)
    rows: Rows = {}
    for name, table in schema.tables.items():
        path = directory / f"{name}.csv"
        if not path.exists():
            raise DataError(f"missing table file {path}")
        with open(path, "r", encoding="utf-8", newline="") as f:
            table_rows = rows[name] = []
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
    return rows


# ---------------------------------------------------------------------------
# Closure


def _group(pairs) -> dict:
    """Each key of the ``(key, item)`` pairs mapped to its items, in order."""
    index: dict = {}
    for key, item in pairs:
        index.setdefault(key, []).append(item)
    return index


def _by_cells(rows, pos) -> dict[tuple, list[int]]:
    return _group((tuple(row[p] for p in pos), ri) for ri, row in enumerate(rows))


class _Indexes:
    """Everything one conversion looks up, built once: the example ids with
    their root rows, the seed rows of each cell value, and per table the
    foreign keys to follow out of a row and the rows whose foreign keys
    point into it.  ``warnings`` is the ordered set of dangling-key messages
    met so far."""

    def __init__(self, rows: Rows, schema: Schema, containing: str, strict_fk: bool):
        tables = schema.tables
        root = tables[schema.example_table]
        self.rows, self.schema, self.strict_fk = rows, schema, strict_fk
        self.warnings: dict[str, None] = {}
        self.id_pos = root.attrs.index(schema.id_attr)
        self.examples = _group((row[self.id_pos], row) for row in rows[root.name])
        keys = {name: _by_cells(rows[name], t.positions(t.key)) for name, t in tables.items() if t.key}
        self.follow: dict[str, list] = {}
        inbound: dict[str, list] = {}
        for name, table in tables.items():
            if table.background:
                continue
            self.follow[name] = []
            for fk in table.fks:
                if tables[fk.target].background:
                    continue  # background boundary: follow zero steps
                pos = table.positions(fk.attrs)
                self.follow[name].append((fk, pos, keys[fk.target]))
                inbound.setdefault(fk.target, []).append((name, _by_cells(rows[name], pos)))
        self.inbound = {
            name: (tables[name].positions(tables[name].key), sources) for name, sources in inbound.items()
        }
        # Each cell value mapped to the non-background rows that contain it
        # (in any cell, or in a key cell), in table then row order.
        self.seeds = _group(
            (value, (name, ri))
            for name, table in tables.items()
            if not table.background
            for pos in [table.positions(table.key) if containing == "key" else range(len(table.attrs))]
            for ri, row in enumerate(rows[name])
            for value in {row[p] for p in pos}
        )


def _closure(idx: _Indexes, id_value: Term) -> set[tuple[str, int]]:
    """The ``(table, row number)`` pairs collected for one example id."""
    selected: set[tuple[str, int]] = set()
    queue = list(idx.seeds.get(id_value, ()))
    while queue:
        item = queue.pop()
        if item in selected:
            continue
        selected.add(item)
        name, ri = item
        row = idx.rows[name][ri]
        for fk, pos, key_rows in idx.follow[name]:
            value = tuple(row[p] for p in pos)
            refs = key_rows.get(value, ())
            if not refs:
                msg = (
                    f"dangling foreign key {name}.{'/'.join(fk.attrs)} = "
                    f"{','.join(render_term(v) for v in value)} (no row in {fk.target})"
                )
                if idx.strict_fk:
                    raise DataError(msg)
                idx.warnings[msg] = None
            queue.extend((fk.target, rj) for rj in refs)
        if name in idx.inbound:
            pos, sources = idx.inbound[name]
            value = tuple(row[p] for p in pos)
            for src, fk_rows in sources:
                queue.extend((src, rj) for rj in fk_rows.get(value, ()))
    return selected


def _example_facts(idx: _Indexes, id_value: Term) -> list[Literal]:
    """The closure of one example id as ground facts, in table-declaration
    order then row order, without elided and background tables."""
    if id_value not in idx.examples:
        raise DataError(f"unknown example id {render_term(id_value)}")
    schema = idx.schema
    row_numbers = _group(_closure(idx, id_value))
    facts: list[Literal] = []
    for name, table in schema.tables.items():
        if table.elide or table.background:
            continue
        drop = schema.drop_id and name == schema.example_table
        for ri in sorted(row_numbers.get(name, ())):
            row = idx.rows[name][ri]
            if drop:
                row = row[: idx.id_pos] + row[idx.id_pos + 1 :]
            facts.append(Literal(name, row))
    return facts


@dataclass
class ConversionReport:
    example_count: int
    background_fact_count: int
    warnings: list[str] = field(default_factory=list)
    locality_violations: list[str] = field(default_factory=list)


def convert_all(
    snapshot: Rows,
    schema: Schema,
    out_data,
    out_background,
    strict_fk: bool = False,
    containing: str = "any",
) -> ConversionReport:
    """One begin/end block per distinct example id in first-occurrence order,
    plus the background tables as a fact program.  Locality (no example
    mentioning another example's id) is checked and reported, not assumed."""
    idx = _Indexes(snapshot, schema, containing, strict_fk)
    if not idx.examples:
        raise DataError("no examples: the example table is empty")
    root = schema.tables[schema.example_table]
    class_pos = root.attrs.index(schema.class_attr) if schema.class_attr else None
    report = ConversionReport(0, 0)
    with open(out_data, "w", encoding="utf-8") as f:
        for id_value, root_rows in idx.examples.items():
            facts = _example_facts(idx, id_value)
            for fact in facts:
                for cell in fact.args:
                    if cell != id_value and cell in idx.examples:
                        report.locality_violations.append(
                            f"example {render_term(id_value)} mentions "
                            f"{render_term(cell)} in {fact.pred}"
                        )
            if class_pos is not None:
                labels = {row[class_pos] for row in root_rows}
                if len(labels) != 1:
                    raise DataError(
                        f"conflicting class values for example {render_term(id_value)}"
                    )
                [label] = labels
                if not isinstance(label, Atom) or not label.name:
                    raise DataError(
                        f"missing or non-atom class value for example {render_term(id_value)}"
                    )
                if label.name == "!":  # the nullary fact would read back as the cut
                    raise DataError(f"class value ! of example {render_term(id_value)} is not a class label")
                facts.insert(0, Literal(label.name, ()))
            write_block(f, id_value, facts)
            report.example_count += 1
    report.warnings = list(idx.warnings)
    with open(out_background, "w", encoding="utf-8") as f:
        for name, table in schema.tables.items():
            if not table.background:
                continue
            for row in snapshot[name]:
                f.write(render_fact(Literal(name, row)) + "\n")
                report.background_fact_count += 1
    for v in report.locality_violations:
        log.warning("locality: %s", v)
    return report
