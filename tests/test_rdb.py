import time

import pytest
from rdb_fixtures import (
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
from foldt.rdb import cell_term, convert_all, extract_example, load_snapshot, parse_schema
from foldt.settings import parse_settings
from foldt.store import iter_kb_blocks
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
