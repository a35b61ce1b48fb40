import logging
import re
import time

import pytest
from conftest import learn_with
from oracles import extract_example
from rdb_fixtures import (
    BONGARD_LABELLED_SCHEMA,
    BONGARD_SCHEMA,
    BONGARD_TABLES,
    CHEM_SCHEMA,
    CHEM_SCHEMA_WITH_CLASS,
    CHEM_TABLES,
    H2O_FACTS,
    bongard_tables,
    write_tables,
)

from foldt.bench import fit_loglog_slope
from foldt.errors import DataError, ParseError
from foldt.rdb import cell_term, convert_all, load_snapshot, parse_schema
from foldt.settings import parse_settings
from foldt.model import classify, serialize
from foldt.store import iter_kb_blocks, load_dataset
from foldt.terms import Atom, Number, parse_term, render_fact


@pytest.fixture
def chem(tmp_path):
    d = write_tables(tmp_path / "chem", CHEM_TABLES)
    schema = parse_schema(CHEM_SCHEMA)
    return load_snapshot(d, schema), schema


def test_cell_typing():
    assert cell_term("42") == Number(42)
    assert cell_term("-0.117") == Number(-0.117)
    assert cell_term("1.0079") == Number(1.0079)
    assert cell_term("1e5") == Number(1e5)
    assert cell_term("H2O") == Atom("H2O")
    assert cell_term("h2o-1") == Atom("h2o-1")
    assert cell_term("carbon dioxide") == Atom("carbon dioxide")
    assert cell_term("nan") == Atom("nan")
    # Digits are ASCII, as in the term grammar: Arabic-Indic digits are no
    # number, so these cells cannot join the key value 12.
    assert cell_term("١٢") == Atom("١٢")
    assert cell_term("1.٥") == Atom("1.٥")


def test_h2o_extraction_is_the_nine_facts(chem):
    snapshot, schema = chem
    facts = extract_example(snapshot, schema, Atom("H2O"))
    assert [render_fact(f)[:-1] for f in facts] == H2O_FACTS


def test_unknown_id_rejected(chem):
    snapshot, schema = chem
    with pytest.raises(DataError, match="unknown example id"):
        extract_example(snapshot, schema, Atom("XYZ"))


def test_single_root_tuple_one_fact(tmp_path):
    d = write_tables(tmp_path / "solo", {"things.csv": "t1,red\nt2,blue\n"})
    schema = parse_schema(
        "table(things, [id, color]). key(things, [id]). example_id(things, id)."
    )
    snapshot = load_snapshot(d, schema)
    facts = extract_example(snapshot, schema, Atom("t1"))
    assert [render_fact(f) for f in facts] == ["things(t1,red)."]


def test_two_hop_chain_collects_all_three_tables(tmp_path):
    d = write_tables(
        tmp_path / "chain",
        {
            "a.csv": "x1,b1\nx2,b2\n",
            "b.csv": "b1,c1\nb2,c2\n",
            "c.csv": "c1,42\nc2,43\nc9,99\n",
        },
    )
    schema = parse_schema(
        """
table(a, [id, bref]). key(a, [id]). fk(a, [bref], b).
table(b, [bid, cref]). key(b, [bid]). fk(b, [cref], c).
table(c, [cid, val]). key(c, [cid]).
example_id(a, id).
"""
    )
    snapshot = load_snapshot(d, schema)
    facts = [render_fact(f)[:-1] for f in extract_example(snapshot, schema, Atom("x1"))]

    # brute-force closure oracle: repeatedly join on shared cell values
    # through declared fk/key pairs until nothing is added
    rows = {
        ("a", ("x1", "b1")), ("a", ("x2", "b2")),
        ("b", ("b1", "c1")), ("b", ("b2", "c2")),
        ("c", ("c1", "42")), ("c", ("c2", "43")), ("c", ("c9", "99")),
    }
    links = {("a", 1, "b", 0), ("b", 1, "c", 0)}
    S = {r for r in rows if "x1" in r[1]}
    while True:
        add = {
            (t2, cells2)
            for (t1, i1, t2, i2) in links
            for (t, cells) in S
            if t == t1
            for (tt, cells2) in rows
            if tt == t2 and cells2[i2] == cells[i1]
        }
        if add <= S:
            break
        S |= add
    expected = sorted(f"{t}({','.join(c)})" for t, c in S)
    assert sorted(facts) == expected
    assert {"a(x1,b1)", "b(b1,c1)", "c(c1,42)"} == set(facts)


def test_convert_all_chemical(tmp_path, chem_dir=None):
    d = write_tables(tmp_path / "chem", CHEM_TABLES)
    schema = parse_schema(CHEM_SCHEMA_WITH_CLASS)
    snapshot = load_snapshot(d, schema)
    out_kb = tmp_path / "chem.kb"
    out_bg = tmp_path / "bg.pl"
    report = convert_all(snapshot, schema, out_kb, out_bg)
    assert report.example_count == 5
    assert report.background_fact_count == 6
    assert report.locality_violations == []
    # dangling co2 bond endpoints are warned about, not fatal
    assert any("dangling" in w for w in report.warnings)
    text = out_kb.read_text()
    assert "begin(model('H2O'))." in text
    assert "  inorganic.\n" in text and "  organic.\n" in text
    bg = out_bg.read_text()
    assert "mendelev(1,'H',1.0079,1)." in bg
    # every block loads back as an interpretation
    classes = parse_settings("classes([inorganic,organic]).").classes
    blocks = list(iter_kb_blocks(out_kb, classes))
    assert len(blocks) == 5
    h2o = blocks[0]
    assert h2o.ident == Atom("H2O") and h2o.label == "inorganic"
    assert len(h2o.facts) == 9


def test_strict_fk_errors(tmp_path):
    d = write_tables(tmp_path / "chem", CHEM_TABLES)
    schema = parse_schema(CHEM_SCHEMA_WITH_CLASS)
    snapshot = load_snapshot(d, schema)
    with pytest.raises(DataError, match="dangling"):
        convert_all(snapshot, schema, tmp_path / "x.kb", tmp_path / "x.pl", strict_fk=True)


def test_bongard_snapshot_blocks(tmp_path):
    d = write_tables(tmp_path / "bon", BONGARD_TABLES)
    schema = parse_schema(BONGARD_SCHEMA)
    snapshot = load_snapshot(d, schema)
    p1 = extract_example(snapshot, schema, Number(1))
    assert [render_fact(f)[:-1] for f in p1] == [
        "circle(o1)",
        "triangle(o2)",
        "points(o2,up)",
        "inside(o2,o1)",
    ]
    p2 = extract_example(snapshot, schema, Number(2))
    assert [render_fact(f)[:-1] for f in p2] == [
        "circle(o3)",
        "triangle(o4)",
        "triangle(o5)",
        "points(o4,up)",
        "points(o5,down)",
        "inside(o4,o5)",
    ]
    out_kb = tmp_path / "bon.kb"
    convert_all(snapshot, schema, out_kb, tmp_path / "bon-bg.pl")
    text = out_kb.read_text()
    assert "begin(model(1)).\n  circle(o1).\n  triangle(o2).\n  points(o2,up).\n  inside(o2,o1).\nend(model(1)).\n" in text
    # output re-parses under the term grammar with zero errors
    for line in text.splitlines():
        parse_term(line.strip().rstrip("."))


def test_empty_snapshot_rejected(tmp_path):
    d = write_tables(tmp_path / "empty", {"things.csv": ""})
    schema = parse_schema("table(things, [id]). key(things, [id]). example_id(things, id).")
    snapshot = load_snapshot(d, schema)
    with pytest.raises(DataError, match="no examples"):
        convert_all(snapshot, schema, tmp_path / "x.kb", tmp_path / "x.pl")


@pytest.mark.parametrize("cell,cause", [("1e999", "number out of range"), ("9" * 5000, "number too long")])
def test_numeric_cell_without_a_finite_value_rejected(tmp_path, cell, cause):
    d = write_tables(tmp_path / "big", {"t.csv": f"e1,1\ne2,{cell}\n"})
    schema = parse_schema("table(t,[id,v]). key(t,[id]). example_id(t,id).")
    with pytest.raises(DataError, match=f"t.csv:2: {cause}"):
        load_snapshot(d, schema)


def test_schema_validation_errors():
    with pytest.raises(ParseError, match="undeclared table"):
        parse_schema("table(a,[x]). fk(a,[x],b). example_id(a,x).")
    with pytest.raises(ParseError, match="example_id"):
        parse_schema("table(a,[x]).")
    with pytest.raises(ParseError, match="key of the same arity"):
        parse_schema("table(a,[x]). table(b,[y]). fk(a,[x],b). example_id(a,x).")
    with pytest.raises(ParseError, match="no attribute"):
        parse_schema("table(a,[x]). key(a,[z]). example_id(a,x).")


def test_conflicting_class_values(tmp_path):
    d = write_tables(tmp_path / "conf", {"t.csv": "e1,pos\ne1,neg\n"})
    schema = parse_schema(
        "table(t,[id,cls]). key(t,[id]). example_id(t,id). class_attr(t,cls)."
    )
    snapshot = load_snapshot(d, schema)
    with pytest.raises(DataError, match="conflicting class"):
        convert_all(snapshot, schema, tmp_path / "x.kb", tmp_path / "x.pl")


def test_convert_all_time_grows_linearly(tmp_path):
    """Seeding, id deduplication, labels and warnings are looked up, not
    scanned, so conversion time grows linearly with the number of pictures
    (a quadratic converter gives a slope near 2 at these sizes)."""
    schema = parse_schema(BONGARD_SCHEMA)
    sizes = (500, 1000, 2000, 4000)
    seconds = []
    for n in sizes:
        tables = write_tables(tmp_path / f"t{n}", bongard_tables(n, seed=n))
        snapshot = load_snapshot(tables, schema)
        best = None
        for _ in range(3):
            t0 = time.perf_counter()
            report = convert_all(snapshot, schema, tmp_path / "out.kb", tmp_path / "bg.pl")
            t = time.perf_counter() - t0
            best = t if best is None else min(best, t)
        assert report.example_count == n
        seconds.append(best)
    slope = fit_loglog_slope(sizes, seconds)
    assert slope <= 1.3, (slope, seconds)


# ---------------------------------------------------------------------------
# Pinning tests: containing modes, locality, class facts, and convert_all
# against extract_example

# Three examples that mention each other through ``sim``, and a key table
# ``notes`` that names example c only in a non-key cell.
LINKED_TABLES = {
    "m.csv": "a,x\nb,y\nc,z\n",
    "sim.csv": "a,b\nb,c\nq,a\n",
    "notes.csv": "n1,c\nn2,zz\n",
}
LINKED_SCHEMA = """
table(m, [id, v]). key(m, [id]).
table(sim, [l, r]). fk(sim, [l], m).
table(notes, [k, about]). key(notes, [k]).
example_id(m, id).
"""


@pytest.fixture
def linked(tmp_path):
    schema = parse_schema(LINKED_SCHEMA)
    return load_snapshot(write_tables(tmp_path / "linked", LINKED_TABLES), schema), schema


def test_containing_any_seeds_every_cell_and_key_only_key_cells(linked):
    snapshot, schema = linked

    def facts(ident, containing):
        return [render_fact(f)[:-1] for f in extract_example(snapshot, schema, Atom(ident), containing=containing)]

    assert facts("c", "any") == ["m(b,y)", "m(c,z)", "sim(b,c)", "notes(n1,c)"]
    assert facts("c", "key") == ["m(c,z)"]
    assert facts("a", "any") == ["m(a,x)", "sim(a,b)", "sim(q,a)"]
    assert facts("a", "key") == ["m(a,x)", "sim(a,b)"]


def test_locality_violations_are_reported_in_order(linked, tmp_path, caplog):
    snapshot, schema = linked
    with caplog.at_level(logging.WARNING, logger="foldt.rdb"):
        report = convert_all(snapshot, schema, tmp_path / "x.kb", tmp_path / "x.pl")
    assert report.locality_violations == [
        "example a mentions b in sim",
        "example b mentions a in m",
        "example b mentions a in sim",
        "example b mentions c in sim",
        "example c mentions b in m",
        "example c mentions b in sim",
    ]
    assert report.warnings == ["dangling foreign key sim.l = q (no row in m)"]
    logged = [r.getMessage() for r in caplog.records if r.message.startswith("locality")]
    assert logged == [f"locality: {v}" for v in report.locality_violations]


def test_class_attr_writes_the_label_as_the_first_fact_of_each_block(tmp_path):
    d = write_tables(tmp_path / "chem", CHEM_TABLES)
    schema = parse_schema(CHEM_SCHEMA_WITH_CLASS)
    out_kb = tmp_path / "chem.kb"
    convert_all(load_snapshot(d, schema), schema, out_kb, tmp_path / "bg.pl")
    text = out_kb.read_text()
    h2o = "".join(f"  {f}.\n" for f in H2O_FACTS)
    assert text.startswith(f"begin(model('H2O')).\n  inorganic.\n{h2o}end(model('H2O')).\n")
    assert "begin(model('CH4')).\n  organic.\n  molecules('CH4',methane,organic).\nend(model('CH4')).\n" in text


def test_a_cut_class_value_is_rejected_at_conversion(tmp_path):
    """A nullary ``!`` fact reads back as the cut, so a class cell ``!``
    could not be read from the data file; quoted, it is a cut head too."""
    tables = dict(CHEM_TABLES)
    tables["molecules.csv"] = tables["molecules.csv"].replace("CO,carbon monoxide,inorganic", "CO,carbon monoxide,!")
    schema = parse_schema(CHEM_SCHEMA_WITH_CLASS)
    snapshot = load_snapshot(write_tables(tmp_path / "chem", tables), schema)
    with pytest.raises(DataError, match=r"^class value ! of example 'CO' is not a class label$"):
        convert_all(snapshot, schema, tmp_path / "chem.kb", tmp_path / "bg.pl")


def _chemical_case(tmp_path, containing):
    rows = [line.split(",") for line in CHEM_TABLES["molecules.csv"].splitlines()]
    return (
        write_tables(tmp_path / "chem", CHEM_TABLES),
        CHEM_SCHEMA_WITH_CLASS,
        ("inorganic", "organic"),
        {cell_term(r[0]): r[2] for r in rows},
        containing,
    )


def _bongard_case(tmp_path, seed, labelled=False):
    tables = bongard_tables(40, seed, labelled)
    rows = [line.split(",") for line in tables["contains.csv"].splitlines()]
    return (
        write_tables(tmp_path / "bon", tables),
        BONGARD_LABELLED_SCHEMA if labelled else BONGARD_SCHEMA,
        ("pos", "neg") if labelled else (),
        {cell_term(r[0]): r[2] if labelled else "" for r in rows},
        "any",
    )


@pytest.mark.parametrize(
    "case",
    [
        lambda p: _chemical_case(p, "any"),
        lambda p: _chemical_case(p, "key"),
        lambda p: _bongard_case(p, 1),
        lambda p: _bongard_case(p, 2),
        lambda p: _bongard_case(p, 3),
        lambda p: _bongard_case(p, 4, labelled=True),
    ],
    ids=["chem-any", "chem-key", "bongard-1", "bongard-2", "bongard-3", "bongard-labelled"],
)
def test_convert_all_blocks_are_the_extracted_examples(tmp_path, case):
    """Read back, every block of ``convert_all`` holds exactly the facts that
    ``extract_example`` gives its id, and its class label."""
    tables, schema_text, classes, labels, containing = case(tmp_path)
    schema = parse_schema(schema_text)
    snapshot = load_snapshot(tables, schema)
    out_kb = tmp_path / "out.kb"
    convert_all(snapshot, schema, out_kb, tmp_path / "bg.pl", containing=containing)
    blocks = list(iter_kb_blocks(out_kb, classes, allow_unlabeled=True))
    assert [(b.ident, b.label) for b in blocks] == list(labels.items())
    for b in blocks:
        assert list(b.facts) == extract_example(snapshot, schema, b.ident, containing=containing)


@pytest.mark.parametrize(
    "second,message",
    [
        ("key(molecules, [name]).", "key of 'molecules' declared twice"),
        ("class_attr(molecules, name).", "class_attr declared twice"),
    ],
)
def test_repeated_key_or_class_attr_is_an_error_at_the_directive(second, message):
    text = CHEM_SCHEMA_WITH_CLASS + second
    with pytest.raises(ParseError, match=re.escape(message)) as e:
        parse_schema(text)
    assert e.value.line == text.count("\n") + 1


def test_fk_arity_error_names_the_directive_as_schema_text():
    text = CHEM_SCHEMA.replace("key(molecules, [formula])", "key(molecules, [formula, formula])")
    with pytest.raises(
        ParseError,
        match=re.escape("fk(contains, [molecule], molecules): target must declare a key of the same arity"),
    ):
        parse_schema(text)


def test_a_foreign_key_into_a_background_table_needs_no_key_there(tmp_path):
    """The closure never follows a foreign key into a background table, so
    its target declares no key, and its rows go to the background file
    once, not into the blocks."""
    schema = parse_schema(
        "table(a,[x,e]). key(a,[x]). table(el,[e,w]). fk(a,[e],el). background(el). example_id(a,x)."
    )
    assert schema.tables["el"].key == () and schema.tables["el"].background
    tables = write_tables(tmp_path / "bg", {"a.csv": "x1,h\nx2,o\nx3,h\n", "el.csv": "h,1\no,16\n"})
    snapshot = load_snapshot(tables, schema)
    report = convert_all(snapshot, schema, tmp_path / "out.kb", tmp_path / "bg.pl")
    assert (report.example_count, report.background_fact_count, report.warnings) == (3, 2, [])
    assert (tmp_path / "bg.pl").read_text() == "el(h,1).\nel(o,16).\n"
    blocks = list(iter_kb_blocks(tmp_path / "out.kb", ("pos",), allow_unlabeled=True))
    assert [[render_fact(f) for f in b.facts] for b in blocks] == [["a(x1,h)."], ["a(x2,o)."], ["a(x3,h)."]]


BONGARD_RELATIONAL_BIAS = """
classes([pos,neg]).
rmode(5: triangle(+-V)).
rmode(5: circle(+-V)).
rmode(5: inside(+V,+-W)).
rmode(5: inside(-V,+W)).
rmode(5: points(+V,up)).
rmode(5: points(+V,down)).
"""


def test_converted_labelled_bongard_tables_are_learned_alike_by_both_engines(tmp_path):
    """The relational route end to end: tables, convert, store, learn."""
    schema = parse_schema(BONGARD_LABELLED_SCHEMA)
    snapshot = load_snapshot(write_tables(tmp_path / "lbon", bongard_tables(300, 5, labelled=True)), schema)
    out_kb = tmp_path / "lbon.kb"
    convert_all(snapshot, schema, out_kb, tmp_path / "bg.pl")
    settings = parse_settings(BONGARD_RELATIONAL_BIAS)
    data = load_dataset(out_kb, settings, tmp_path / "store")
    lds = learn_with("lds", data, None, settings)
    classic = learn_with("classic", data, None, settings)
    assert serialize(lds).split("section tree")[1] == serialize(classic).split("section tree")[1]
    examples = list(iter_kb_blocks(out_kb, settings.classes))
    assert {e.label for e in examples} == {"pos", "neg"}
    assert all(classify(lds, e) == e.label for e in examples)
