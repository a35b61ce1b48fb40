import json
import struct
import tracemalloc
from collections import Counter
from functools import partial
from unittest import mock

import oracles
import pytest
from conftest import POKER_BIAS_TEXT, examples, learn_with, mk_interp
from hypothesis import example, given, settings as hsettings, strategies as st

from foldt import store
from foldt.errors import DataError, FoldtError, ParseError
from foldt.generators import GenSpec, generate, replicate
from foldt.settings import ALGORITHMS, parse_settings
from foldt.store import (
    _MIN_CHUNK,
    _MIN_RECORD,
    CHUNK_MAGIC,
    DATA_NAME,
    decode_chunk,
    encode_chunk,
    encode_record,
    iter_kb_blocks,
    load_dataset,
    open_dataset,
)
from foldt.terms import Atom, Compound, Literal, Number, line_pieces, parse_term

POKER_SETTINGS = parse_settings(
    "classes([nothing,pair,two_pairs,three_of_a_kind,full_house,four_of_a_kind])."
)
BONGARD_SETTINGS = parse_settings("classes([pos,neg]).")

FIG_BLOCK = """\
begin(model(4)).
  card(7,spades).
  card(queen,hearts).
  card(9,clubs).
  card(9,spades).
  card(ace,diamonds).
  pair.
end(model(4)).
"""


def _write_many(tmp_path, n, name="data.kb"):
    path = tmp_path / name
    blocks = []
    for i in range(1, n + 1):
        blocks.append(
            f"begin(model({i})).\n  card({i},spades).\n  card({i},hearts).\n  pair.\nend(model({i})).\n"
        )
    path.write_text("".join(blocks))
    return path


def _frames(path) -> list[bytes]:
    """The chunk frame bodies of a data file, in order; the file must frame
    exactly."""
    raw = path.read_bytes()
    assert raw.startswith(CHUNK_MAGIC)
    pos, bodies = len(CHUNK_MAGIC), []
    while pos < len(raw):
        (ln,) = struct.unpack_from("<I", raw, pos)
        bodies.append(raw[pos + 4 : pos + 4 + ln])
        pos += 4 + ln
    assert pos == len(raw)
    return bodies


_HEAD = struct.Struct("<IIIIBI")  # of a frame body: records, keys, constants, table bytes, code width, codes


def _recount(body: bytes, n: int) -> bytes:
    """A frame body whose header gives ``n`` records."""
    return struct.pack("<I", n) + body[4:]


def _codes(body: bytes) -> tuple[int, int]:
    """Where the codes of a frame body start, and their width."""
    _, _, nconst, tlen, width, _ = _HEAD.unpack_from(body)
    return _HEAD.size + nconst + tlen, width


def _body(frames) -> bytes:
    """A data file's frames: each body after its length."""
    return b"".join(struct.pack("<I", len(r)) + r for r in frames)


def _write_frames(path, bodies):
    path.write_bytes(CHUNK_MAGIC + _body(bodies))


def _round_trip(interps, listed=None) -> list:
    """The examples of a chunk of ``interps``, or of those at the positions
    ``listed``, as decoded."""
    chosen = set(range(len(interps)) if listed is None else listed)
    return [e for _, e in decode_chunk(encode_chunk(interps), len(interps), chosen)]


def test_block_parse_card_example(tmp_path):
    path = tmp_path / "one.kb"
    path.write_text(FIG_BLOCK)
    (interp,) = iter_kb_blocks(path, POKER_SETTINGS.classes)
    assert interp.ident == Number(4)
    assert interp.label == "pair"
    assert len(interp.facts) == 5
    group = interp.groups[("card", 2)]
    assert group is not None and len(group.rows) == 5
    assert list(group.first(Number(9))) == [
        (Number(9), Atom("clubs")),
        (Number(9), Atom("spades")),
    ]
    assert list(group.first(Number(10))) == []


def test_ambiguous_class_rejected(tmp_path):
    path = tmp_path / "bad.kb"
    path.write_text("begin(model(1)).\n pos.\n neg.\nend(model(1)).\n")
    settings = parse_settings("classes([pos,neg]).")
    with pytest.raises(DataError, match=r"ambiguous class .* \(line 3\)"):
        list(iter_kb_blocks(path, settings.classes))


def test_missing_class_and_mismatched_ids(tmp_path):
    path = tmp_path / "bad.kb"
    path.write_text("begin(model(1)).\n f(a).\nend(model(2)).\n")
    with pytest.raises(DataError, match="mismatched begin/end"):
        list(iter_kb_blocks(path, ("pos", "neg")))
    path.write_text("begin(model(1)).\n f(a).\nend(model(1)).\n")
    with pytest.raises(DataError, match="no class fact"):
        list(iter_kb_blocks(path, ("pos", "neg")))
    path.write_text("f(a).\n")
    with pytest.raises(DataError, match="outside"):
        list(iter_kb_blocks(path, ("pos", "neg")))
    path.write_text("begin(model(1)).\n pos.\n f(a) :- g(a).\nend(model(1)).\n")
    with pytest.raises(DataError, match=r"facts, not rules \(line 3\)"):
        list(iter_kb_blocks(path, ("pos", "neg")))
    path.write_text("begin(model(1)).\n pos.\nend(model(1)).\nbegin(model(X)).\n")
    with pytest.raises(DataError, match=r"identifier must be ground \(line 4\)"):
        list(iter_kb_blocks(path, ("pos", "neg")))


@pytest.mark.parametrize("tail", ["", "\n", "\n% comment\n"])
def test_last_clause_without_end_rejected(tmp_path, tail):
    path = tmp_path / "bad.kb"
    path.write_text("begin(model(1)).\n pair.\nend(model(1))" + tail)
    with pytest.raises(ParseError) as e:
        list(iter_kb_blocks(path, POKER_SETTINGS.classes))
    assert e.value.line == 3


def test_a_block_file_is_read_a_piece_at_a_time(tmp_path):
    """Reading a 2 MB block file holds about 32 KiB of it at a time, and
    counts lines across its pieces."""
    comment = "% " + "x" * 998 + "\n"
    blocks = "".join(f"begin(model({i})).\n{comment}{comment}  pair.\nend(model({i})).\n" for i in range(1000))
    path = tmp_path / "big.kb"
    path.write_text(blocks)
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_kb_blocks(path, POKER_SETTINGS.classes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1000 and peak < 512 * 1024
    path.write_text(blocks + "begin(model(x)).\n  card(7,²).\n")
    with pytest.raises(ParseError) as e:
        list(iter_kb_blocks(path, POKER_SETTINGS.classes))
    assert (e.value.message, e.value.line, e.value.column) == ("unexpected character '²'", 5002, 10)


def test_a_dense_block_file_is_read_a_piece_at_a_time(tmp_path):
    """Reading 2 MB of facts, with no comments, holds one 32 KiB piece and
    its lexemes at a time.  Such a piece holds about 1,900 lines and 12,500
    lexemes, whose list takes about 0.45 MiB (each lexeme longer than one
    character is a string object of its own); the peak, about 0.55 MiB,
    stays under 0.75 MiB."""
    hand = "".join(f"  card({r},{s}).\n" for r, s in zip((7, "queen", 9, 10, "ace"), ("spades", "hearts", "clubs") * 2))
    blocks = "".join(f"begin(model({i})).\n{hand}  pair.\nend(model({i})).\n" for i in range(15000))
    path = tmp_path / "dense.kb"
    path.write_text(blocks)
    assert 2_000_000 < path.stat().st_size < 2_200_000
    tracemalloc.start()
    try:
        count = sum(1 for _ in iter_kb_blocks(path, POKER_SETTINGS.classes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 15000 and peak < 768 * 1024


# Block files for the reference reader: facts whose arguments hold quoted
# atoms with a ``''`` escape, compounds, signed and float numbers, written
# over several lines with comments between them, and one time in two one
# bad clause: a lexical or syntax error, a non-ground fact, a rule, a block
# marker out of place or a term nested too deeply.
_block_args = st.sampled_from(
    ["a", "h2o-1", "'it''s'", "''", "'Q r'", "7", "-2", "+3", "1.5", "-2.5e3", "0.0", "f(a,7)", "g(f(b),'x''y')"]
)
_arg_separators = st.sampled_from([",", ",", ", ", ",\n    ", ", % c. x\n  "])
_block_facts = st.builds(
    lambda pred, args, seps: pred
    + ("(" + args[0] + "".join(seps[k % len(seps)] + a for k, a in enumerate(args[1:])) + ")" if args else ""),
    st.sampled_from(["card", "p", "q", "'Big'", "'it''s'", "begin", "end"]),
    st.lists(_block_args, max_size=3),
    st.lists(_arg_separators, min_size=1, max_size=3),
)
_bad_clauses = st.sampled_from(
    ["p(a, \u00b2).", "q('open", "r(1e999).", "s(" + "1" * 5000 + ").", "p(a b).", "p(X).", "p(a, _).", "q(f(Y)).",
     "p(a) :- q(a).", "end(model(zz)).", "begin(model(Y)).", "begin(model(1)).", "X = y.", "p(a).q(b).", "pos.",
     "neg.", "p(" + "f(" * 260 + "a" + ")" * 260 + ").", "'begin'(model(1)).", "p(a)", "end(model(1))."]
)


def _block_text(blocks, layouts, bad):
    clauses = []
    for ident, facts, label in blocks:
        clauses += [f"begin(model({ident})).", *[f + "." for f in facts], *label, f"end(model({ident}))."]
    if bad is not None:
        k, clause = bad
        clauses.insert(k % (len(clauses) + 1), clause)
    return "".join(c + layouts[k % len(layouts)] for k, c in enumerate(clauses))


_block_files = st.builds(
    _block_text,
    st.lists(
        st.tuples(
            st.sampled_from(["1", "2", "b7", "'id 3'", "-4", "2.5", "f(a)"]),
            st.lists(_block_facts, max_size=4),
            st.sampled_from([["pos."], ["neg."], ["pos."], ["neg."], []]),
        ),
        max_size=4,
    ),
    st.lists(st.sampled_from(["\n", "\n  ", " ", " % c.\n", "\r\n", "\n\n% x\n"]), min_size=1, max_size=3),
    st.none() | st.tuples(st.integers(0, 30), _bad_clauses),
)


def _read_outcome(read):
    try:
        return list(read())
    except FoldtError as e:
        return (type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None))


@hsettings(max_examples=examples(200), deadline=None)
@given(_block_files, st.integers(1, 40), st.booleans())
@example("begin(model(1)).\n  card(7,\n    'it''s') % c\n  .\n  pos.\nend(model(1)).\n", 3, False)
@example("begin(model(1)).\n  p(a).\n  q(\u00b2).\n  pos.\nend(model(1)).\n", 8, False)
@example("begin(model(1)).\n  p(a,\n    f(X)).\n  pos.\nend(model(1)).\n", 2, True)
def test_iter_kb_blocks_agrees_with_the_reference_reader(tmp_path_factory, text, size, allow_unlabeled):
    """Equal examples, or the same error at the same place, as the reader
    that took each clause whole from the reference parser, whatever the
    size of the pieces the file is read in."""
    path = tmp_path_factory.getbasetemp() / "blocks.kb"
    path.write_text(text, encoding="utf-8")
    classes = ("pos", "neg")
    expected = _read_outcome(lambda: oracles.iter_kb_blocks(path, classes, allow_unlabeled))
    assert _read_outcome(lambda: iter_kb_blocks(path, classes, allow_unlabeled)) == expected
    with mock.patch.object(store, "line_pieces", partial(line_pieces, size=size)):
        assert _read_outcome(lambda: iter_kb_blocks(path, classes, allow_unlabeled)) == expected


def test_compile_leaves_the_block_file_directory_as_it_was(tmp_path):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    path = _write_many(data_dir, 5)
    before = sorted(data_dir.iterdir())
    handle = load_dataset(path, POKER_SETTINGS, tmp_path / "store", granularity=2)
    assert sorted(data_dir.iterdir()) == before
    assert handle.dir == tmp_path / "store" and len(handle.chunks) == 3


def test_chunking_sizes(tmp_path):
    path = _write_many(tmp_path, 25)
    handle = load_dataset(path, POKER_SETTINGS, tmp_path / "store", granularity=10)
    assert [c.count for c in handle.chunks] == [10, 10, 5]
    assert handle.total == 25
    assert handle.class_counts == {"pair": 25}


def test_stream_counts_and_peak(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 25), POKER_SETTINGS, tmp_path / "store", granularity=10)
    assert handle.peak_resident() == 0
    seen = list(handle.stream_examples())
    assert len(seen) == 25
    assert [o for o, _ in seen] == list(range(25))
    assert handle.chunk_loads == 3
    assert handle.peak_resident() == 10


def test_selector_skips_whole_chunk(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 25), POKER_SETTINGS, tmp_path / "store", granularity=10)
    selected = list(handle.stream_examples([*range(10), *range(20, 25)]))
    assert [o for o, _ in selected] == list(range(10)) + list(range(20, 25))
    assert [e.ident for _, e in selected] == [Number(o + 1) for o, _ in selected]
    assert handle.chunk_loads == 2  # chunk 2 never opened


def test_selective_stream_decodes_only_selected_records(tmp_path, monkeypatch):
    import foldt.store

    handle = load_dataset(_write_many(tmp_path, 25), POKER_SETTINGS, tmp_path / "store", granularity=10)
    built = []
    make = foldt.store.Interpretation
    monkeypatch.setattr(foldt.store, "Interpretation", lambda *a: built.append(a[0]) or make(*a))
    selected = [o for o, _ in handle.stream_examples(range(0, 25, 4))]
    assert selected == [0, 4, 8, 12, 16, 20, 24]
    assert built == [Number(o + 1) for o in selected]  # only listed records get groups
    assert handle.peak_resident() == 3

    # Point the label of record 1 (not selected) past the constant table.
    # A loaded chunk is checked whole, so a pass that lists a record of
    # chunk 0 fails; one that lists none passes it over by its frame header.
    data = handle.chunks[0].path
    [body, *rest] = _frames(data)
    assert _codes(body)[1] == 1  # one byte a code
    label = len(body) - 5 * 10 + 5 + 1  # records take 5 codes each: id, label, 1 group, its key, 2 facts
    _write_frames(data, [body[:label] + b"\xff" + body[label + 1 :], *rest])
    assert [o for o, _ in handle.stream_examples(range(12, 25, 4))] == selected[3:]
    with pytest.raises(DataError, match=r"corrupt chunk 0 of data file .*: a constant index beyond the table of 14"):
        list(handle.stream_examples(range(0, 25, 4)))


@hsettings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), g=st.integers(1, 7), picks=st.data())
def test_stream_yields_exactly_the_listed_ordinals(tmp_path_factory, n, g, picks):
    tmp = tmp_path_factory.mktemp("listed")
    handle = load_dataset(_write_many(tmp, n), POKER_SETTINGS, tmp / "store", granularity=g)
    full = dict(handle.stream_examples())
    listed = sorted(picks.draw(st.sets(st.integers(0, n - 1))))
    pulled = []

    def ordinals():  # records how far the stream has read the listing
        for o in listed:
            pulled.append(o)
            yield o

    store = open_dataset(handle.dir)
    seen = []
    for o, e in store.stream_examples(ordinals()):
        end = (o // g + 1) * g
        assert sum(p >= end for p in pulled) <= 1  # no further than the chunk being loaded
        seen.append(o)
        assert e == full[o]
    assert seen == listed
    per_chunk = Counter(o // g for o in listed)
    assert store.chunk_loads == len(per_chunk)
    assert store.peak_resident() == max(per_chunk.values(), default=0) <= g


def test_granularity_one_loads_per_example(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 7), POKER_SETTINGS, tmp_path / "store", granularity=1)
    list(handle.stream_examples())
    assert handle.chunk_loads == 7
    assert handle.peak_resident() == 1


def test_open_dataset_roundtrip(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    reopened = open_dataset(handle.dir)
    assert reopened.total == handle.total
    assert reopened.granularity == handle.granularity
    assert reopened.fingerprint == handle.fingerprint
    assert reopened.predicates == handle.predicates == {("card", 2)}
    a = [i for _, i in handle.stream_examples()]
    b = [i for _, i in reopened.stream_examples()]
    assert [i.ident for i in b] == [Number(n) for n in range(1, 13)]
    assert a == b


def test_store_records_predicates(tmp_path):
    path = tmp_path / "mixed.kb"
    path.write_text(
        "begin(model(1)).\n pair.\n card(2,hearts).\n flush.\nend(model(1)).\n"
        "begin(model(2)).\n nothing.\n rank(3).\n card(3,spades).\nend(model(2)).\n"
    )
    handle = load_dataset(path, POKER_SETTINGS, tmp_path / "store")
    meta = json.loads((handle.dir / "meta.json").read_text())
    assert meta["predicates"] == [["card", 2], ["flush", 0], ["rank", 1]]
    assert open_dataset(handle.dir).predicates == {("card", 2), ("flush", 0), ("rank", 1)}
    assert sorted(p.name for p in handle.dir.iterdir()) == [DATA_NAME, "meta.json"]


@pytest.mark.parametrize("n,g", [(12, 5), (10, 5), (3, 5), (7, 1)])
def test_store_layout_follows_from_meta(tmp_path, n, g):
    handle = load_dataset(_write_many(tmp_path, n), POKER_SETTINGS, tmp_path / "store", granularity=g)
    data = handle.dir / DATA_NAME
    assert sorted(p.name for p in handle.dir.iterdir()) == [DATA_NAME, "meta.json"]
    assert {c.path for c in handle.chunks} == {data}
    frames = _frames(data)
    assert len(frames) == len(handle.chunks) == -(-n // g)
    assert [c.count for c in handle.chunks] == [_HEAD.unpack_from(b)[0] for b in frames]
    assert [c.start_ordinal for c in handle.chunks] == list(range(0, n, g))
    assert vars(handle) == vars(open_dataset(handle.dir))


def _edit_meta(**changes):
    """Set each key of meta.json to its value, or delete it for None."""

    def edit(directory):
        path = directory / "meta.json"
        meta = json.loads(path.read_text())
        for key, value in changes.items():
            if value is None:
                del meta[key]
            else:
                meta[key] = value
        path.write_text(json.dumps(meta))

    return edit


@pytest.mark.parametrize(
    "edit,when,names",
    [
        (_edit_meta(granularity=None), "open", "meta.json"),
        (_edit_meta(total=7), "open", "meta.json"),
        (_edit_meta(class_counts={"pair": 11}), "open", "meta.json"),
        (_edit_meta(predicates=None), "open", "meta.json"),
        (_edit_meta(predicates=[["card"]]), "open", "meta.json"),
        (_edit_meta(predicates=[["card", "2"]]), "open", "meta.json"),
        (_edit_meta(predicates="card/2"), "open", "meta.json"),
        (_edit_meta(granularity="ten"), "open", "meta.json"),
        (_edit_meta(granularity=0), "open", "meta.json"),
        (_edit_meta(class_counts={"pair": 13, "nothing": -1}), "open", "meta.json"),
        (_edit_meta(class_counts={"pair": 11, "nothing": True}), "open", "meta.json"),
        (_edit_meta(class_counts={"pair": 12.0}), "open", "meta.json"),
        (_edit_meta(class_counts=[["pair", 12]]), "open", "meta.json"),
        (_edit_meta(total=12.0), "open", "meta.json"),
        (_edit_meta(total=0, class_counts={}), "open", "meta.json"),
        (
            _edit_meta(total=10**12, class_counts={"pair": 10**12}),
            "open",
            r"data file .*chunks\.bin is too short for the 1000000000000 examples of .*meta\.json",
        ),
        (
            _edit_meta(total=40, class_counts={"pair": 40}),
            "open",
            r"data file .*chunks\.bin is too short for the 40 examples of .*meta\.json",
        ),
        (_edit_meta(granularity=4), "stream", r"chunk 0 of data file .*chunks\.bin: expected 4 records, found 5"),
        (
            _edit_meta(total=11, class_counts={"pair": 11}),
            "stream",
            r"chunk 2 of data file .*chunks\.bin: expected 1 records, found 2",
        ),
    ],
    ids=[
        "no-granularity",
        "total",
        "class-counts",
        "no-predicates",
        "predicate-pair",
        "predicate-arity",
        "predicates-list",
        "granularity-type",
        "granularity-zero",
        "class-count-negative",
        "class-count-bool",
        "class-count-float",
        "class-counts-list",
        "total-float",
        "total-zero",
        "total-without-chunks",
        "total-past-the-least-records",
        "chunk-above-granularity",
        "last-chunk-above-total",
    ],
)
def test_open_dataset_rejects_inconsistent_store(tmp_path, edit, when, names):
    """Metadata that contradicts itself, or that the data file is too short
    for, fails at open; chunks that contradict the layout it gives fail as
    they are streamed."""
    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    edit(handle.dir)
    if when == "open":
        with pytest.raises(DataError, match=names):
            open_dataset(handle.dir)
    else:
        store = open_dataset(handle.dir)
        with pytest.raises(DataError, match=names):
            list(store.stream_examples())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_class_counts_unlike_the_examples_rejected(tmp_path, algorithm):
    settings = parse_settings(POKER_BIAS_TEXT)
    path = generate(GenSpec("poker", 200, seed=5), tmp_path / "p.kb")
    handle = load_dataset(path, settings, tmp_path / "store", granularity=10)
    counts = dict(handle.class_counts, pair=handle.class_counts["pair"] - 5)
    counts["nothing"] += 5
    _edit_meta(class_counts=counts)(handle.dir)
    with pytest.raises(DataError, match=r"class counts in .*meta\.json are \(111, 80, "):
        learn_with(algorithm, open_dataset(handle.dir), None, settings)


def test_rechunking_preserves_content(tmp_path):
    """The fingerprint is the same at every granularity, for cards and for
    Bongard scenes, and also for the compound ids ``rep(Id, K)`` that
    replication gives."""
    inputs = {
        "cards": (_write_many(tmp_path, 23), POKER_SETTINGS),
        "bongard": (generate(GenSpec("bongard", 23, seed=3), tmp_path / "b.kb"), BONGARD_SETTINGS),
    }
    for name, (path, settings) in inputs.items():
        seen = set()
        for g in (1, 3, 10):
            handle = load_dataset(path, settings, out_dir=tmp_path / f"{name}{g}", granularity=g)
            copies = replicate(handle, 2, tmp_path / f"{name}-rep{g}")
            assert Compound("rep", (Number(1), Number(2))) in {e.ident for _, e in copies.stream_examples()}
            seen.add((handle.fingerprint, copies.fingerprint, tuple(sorted(handle.class_counts.items()))))
        assert len(seen) == 1


def test_streaming_order_deterministic(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 9), POKER_SETTINGS, tmp_path / "store", granularity=4)
    first = [(o, i.ident) for o, i in handle.stream_examples()]
    second = [(o, i.ident) for o, i in handle.stream_examples()]
    assert first == second


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "dup.kb"
    block = "begin(model(1)).\n pair.\n card(2,spades).\nend(model(1)).\n"
    path.write_text(block + block)
    with pytest.raises(DataError, match="duplicate example id"):
        load_dataset(path, POKER_SETTINGS, tmp_path / "store")


def test_empty_dataset_rejected(tmp_path):
    path = tmp_path / "empty.kb"
    path.write_text("% nothing here\n")
    with pytest.raises(DataError, match="empty dataset"):
        load_dataset(path, POKER_SETTINGS, tmp_path / "store")
    assert list((tmp_path / "store").iterdir()) == []


def test_record_codec_roundtrip():
    interp = oracles.interp_of(
        parse_term("rep('E 71',3)"),
        "pos",
        (
            Literal("player", tuple(parse_term(t) for t in ("my", "1", "-48.804436", "-0.16494742", "339"))),
            Literal("flag", ()),
        ),
    )
    assert _round_trip([interp]) == [interp]


def test_the_least_record_is_the_one_open_dataset_assumes():
    # One constant, the empty name, is both id and label; no facts.  Each
    # such record adds the codes of its id, its label and its group count.
    least = oracles.interp_of(Atom(""), "", ())
    assert [len(encode_chunk([least] * k)) for k in (1, 2, 3)] == [_MIN_CHUNK + k * _MIN_RECORD for k in (1, 2, 3)]


def test_names_that_hold_nul_round_trip():
    """The table's separator is NUL unless a name holds one; then it is the
    first character that no constant's text holds."""
    interp = oracles.interp_of(Atom("\0"), "a\0b", (Literal("p\1", (Atom("\2\0"), Number(3))),))
    body = encode_chunk([interp])
    assert _round_trip([interp]) == [interp]
    _, _, nconst, tlen, _, _ = _HEAD.unpack_from(body)
    table = body[_HEAD.size + nconst : _HEAD.size + nconst + tlen]
    assert sorted(table.decode().split("\3")) == sorted(["", "\0", "a\0b", "p\1", "\2\0", "3"])
    assert table.endswith(b"\3")


def test_records_of_one_chunk_share_one_object_per_constant():
    hands = [
        mk_interp("1", "pair", "card(7,spades)", "v(2.5)"),
        mk_interp("2", "pair", "card(queen,spades)", "card(7,clubs)"),
    ]
    first, second = _round_trip(hands)
    assert [first, second] == hands
    [(seven, spades)] = first.groups[("card", 2)].rows
    [(_, spades_again), (seven_again, _)] = second.groups[("card", 2)].rows
    assert spades_again is spades and seven_again is seven
    # another chunk builds its own
    [again] = _round_trip(hands[1:])
    assert again.groups[("card", 2)].rows[0][1] is not spades


def test_record_codec_rejects_variables_bad_tags_and_unread_bytes(tmp_path):
    unground = oracles.interp_of(Number(1), "pair", (Literal("card", (parse_term("X"), Atom("hearts"))),))
    for encode in (encode_record, lambda e: encode_chunk([e])):
        with pytest.raises(TypeError, match="ground"):
            encode(unground)
    body = encode_chunk([oracles.interp_of(Number(1), "pair", (Literal("flush", ()),))])
    assert body[8:12] == b"\x03\x00\x00\x00"  # three constants
    kinds = _HEAD.size
    assert sorted(body[kinds : kinds + 3]) == [0, 0, 1]  # two names and the integer 1
    with pytest.raises(DataError, match="bad constant kind 3"):
        decode_chunk(body[:kinds] + b"\x03" + body[kinds + 1 :], 1, {0})  # an unassigned kind
    with pytest.raises(DataError, match="1 bytes unread"):
        decode_chunk(body + b"\x00", 1, {0})
    with pytest.raises(DataError, match="truncated"):
        decode_chunk(body[: _HEAD.size - 1], 1, {0})  # its header cut short
    handle = load_dataset(_write_many(tmp_path, 2), POKER_SETTINGS, tmp_path / "store", granularity=5)
    data = handle.chunks[0].path
    [body] = _frames(data)
    _write_frames(data, [body + b"\x00"])
    with pytest.raises(DataError, match=r"chunk 0 of data file .*chunks\.bin: 1 bytes unread"):
        list(open_dataset(handle.dir).stream_examples())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_chunk_label_outside_class_counts_rejected(tmp_path, algorithm):
    settings = parse_settings(POKER_BIAS_TEXT)
    path = generate(GenSpec("poker", 40, seed=3), tmp_path / "p.kb")
    handle = load_dataset(path, settings, tmp_path / "store", granularity=10)
    data = handle.chunks[1].path
    bodies = _frames(data)
    assert b"nothing" in bodies[1]
    bodies[1] = bodies[1].replace(b"nothing", b"mothing")
    _write_frames(data, bodies)
    with pytest.raises(DataError, match=r"chunk 1 of data file .*chunks\.bin: label 'mothing' is not among the class counts"):
        learn_with(algorithm, open_dataset(handle.dir), None, settings)


@pytest.fixture(scope="module")
def fuzz_store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = generate(GenSpec("poker", 30, seed=5), tmp / "p.kb")
    handle = load_dataset(path, POKER_SETTINGS, tmp / "store", granularity=10)
    return handle.dir, handle.chunks[0].path


@hsettings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 2),
    cut=st.none() | st.integers(0, 10**6),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 7)), max_size=4),
)
def test_corrupt_chunk_streams_or_raises_data_error(fuzz_store, which, cut, flips):
    """Chunk ``which``'s frame, its header included, cut short or with
    flipped bits: a pass streams or raises a DataError."""
    directory, data = fuzz_store
    original = data.read_bytes()
    bodies = _frames(data)
    start = len(CHUNK_MAGIC) + sum(4 + len(b) for b in bodies[:which])
    frame = original[start : start + 4 + len(bodies[which])]
    raw = bytearray(frame if cut is None else frame[: cut % len(frame)])
    for pos, bit in flips:
        if raw:
            raw[pos % len(raw)] ^= 1 << bit
    data.write_bytes(original[:start] + bytes(raw) + original[start + len(frame) :])
    try:
        examples = [e for _, e in open_dataset(directory).stream_examples()]
    except DataError as e:
        assert str(e).startswith("corrupt chunk ")
        examples = []
    finally:
        data.write_bytes(original)
    for e in examples:
        for (pred, arity), group in e.groups.items():
            assert type(pred) is str
            for row in group.rows:
                assert len(row) == arity and all(type(t) in (Atom, Number, Compound) for t in row)


def test_non_integer_ids(tmp_path):
    path = tmp_path / "sym.kb"
    path.write_text(
        "begin(model(e71)).\n pair.\n card(2,hearts).\nend(model(e71)).\n"
        "begin(model(e72)).\n nothing.\n card(3,hearts).\nend(model(e72)).\n"
    )
    handle = load_dataset(path, POKER_SETTINGS, tmp_path / "store")
    assert [i.ident for _, i in handle.stream_examples()] == [Atom("e71"), Atom("e72")]
    reopened = open_dataset(handle.dir)
    assert [i.ident for _, i in reopened.stream_examples()] == [Atom("e71"), Atom("e72")]


def test_v1_chunk_rejected_with_a_recompile_hint(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 3), POKER_SETTINGS, tmp_path / "store", granularity=5)
    data = handle.chunks[0].path
    assert data.read_bytes().startswith(b"foldt-chunk v5\n")
    data.write_bytes(b"foldt-chunk v1\n" + data.read_bytes()[len(CHUNK_MAGIC) :])
    with pytest.raises(DataError, match=r"store/chunks\.bin is not in chunk format v5: compile the data file again"):
        list(open_dataset(handle.dir).stream_examples())


def _v2_layout(directory):
    """Turn a store into the layout of format v2: a chunk file per frame,
    each opening with the v2 magic line, and no data file."""
    data = directory / DATA_NAME
    for i, body in enumerate(_frames(data)):
        (directory / f"chunk-{i:05d}.bin").write_bytes(b"foldt-chunk v2\n" + body)
    data.unlink()


def _magic(line: bytes):
    """Put the first line ``line`` of an older format on the data file."""

    def edit(directory):
        data = directory / DATA_NAME
        data.write_bytes(line + data.read_bytes()[len(CHUNK_MAGIC) :])

    return edit


@pytest.mark.parametrize(
    "edit,when,message",
    [
        (_v2_layout, "open", r"chunk store .*/store has no chunks\.bin: compile the data file again"),
        (_magic(b"foldt-chunk v2\n"), "stream", r"data file .*/store/chunks\.bin is not in chunk format v5: compile the data file again"),
        (_magic(b"foldt-chunk v3\n"), "stream", r"data file .*/store/chunks\.bin is not in chunk format v5: compile the data file again"),
        (_magic(b"foldt-chunk v4\n"), "stream", r"data file .*/store/chunks\.bin is not in chunk format v5: compile the data file again"),
        (lambda d: (d / DATA_NAME).unlink(), "open", r"chunk store .*/store has no chunks\.bin"),
    ],
    ids=["v2-layout", "v2-magic", "v3-magic", "v4-magic", "no-data-file"],
)
def test_older_store_rejected_with_a_recompile_hint(tmp_path, edit, when, message):
    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    edit(handle.dir)
    with pytest.raises(DataError, match=message):
        list(open_dataset(handle.dir).stream_examples())


def _edit_frames(edit, tail=b"", cut=0):
    """Replace the data file's frame bodies by ``edit(bodies)``, add the
    bytes ``tail`` and drop the last ``cut`` bytes."""

    def apply(data):
        raw = CHUNK_MAGIC + _body(edit(_frames(data))) + tail
        data.write_bytes(raw[: len(raw) - cut])

    return apply


# A store of 12 examples at G=5: frames of 5, 5 and 2 records.
@pytest.mark.parametrize(
    "edit,message",
    [
        (_edit_frames(lambda b: b[:2], tail=b"\x05\x00"), r"chunk 2 .*: its frame is truncated"),
        (_edit_frames(lambda b: b, cut=1), r"chunk 2 .*: its frame is truncated"),
        (_edit_frames(lambda b: b[:2]), r"chunk 2 .*: its frame is truncated"),
        (_edit_frames(lambda b: [b[0] + b"\x01", *b[1:]]), r"chunk 0 .*: 1 bytes unread"),
        (_edit_frames(lambda b: [b[0][:-1], *b[1:]]), r"chunk 0 .*: \d+ codes of 1 bytes do not fit"),
        (_edit_frames(lambda b: [b[0], _recount(b[1], 4), b[2]]), r"chunk 1 .*: expected 5 records, found 4"),
        (_edit_frames(lambda b: [b[0], _recount(b[1], 7), b[2]]), r"chunk 1 .*: expected 5 records, found 7"),
        (_edit_frames(lambda b: [*b, b"x"]), r"chunk 2 .*: 5 bytes follow it"),
        (_edit_frames(lambda b: b, tail=b"\x00\x00"), r"chunk 2 .*: 2 bytes follow it"),
    ],
    ids=[
        "header-truncated", "body-truncated", "frame-missing", "records-short-of-frame",
        "record-past-frame", "too-few-records", "too-many-records", "frame-after-last", "bytes-after-last",
    ],
)
def test_corrupt_data_file_names_its_chunk(tmp_path, edit, message):
    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    edit(handle.dir / DATA_NAME)
    store = open_dataset(handle.dir)
    with pytest.raises(DataError, match=r"corrupt " + message.replace(" .*", r" of data file .*/store/chunks\.bin")):
        list(store.stream_examples())


def test_level_that_selects_nothing_opens_nothing(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    (handle.dir / DATA_NAME).unlink()
    assert list(handle.stream_examples(())) == []
    assert handle.chunk_loads == 0


def test_stream_reads_only_the_frame_headers_of_unselected_chunks(tmp_path):
    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    data = handle.dir / DATA_NAME
    bodies = _frames(data)
    _write_frames(data, [b"\xff" * len(bodies[0]), bodies[1], b"\xff" * len(bodies[2])])
    assert [o for o, _ in handle.stream_examples(range(5, 10))] == list(range(5, 10))
    assert handle.chunk_loads == 1


def test_stream_closes_the_data_file_when_abandoned(tmp_path, monkeypatch):
    import builtins

    import foldt.store

    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    opened = []
    monkeypatch.setattr(
        foldt.store, "open", lambda *a, **k: opened.append(builtins.open(*a, **k)) or opened[-1], raising=False
    )
    stream = handle.stream_examples(range(0, 12, 3))
    assert next(stream)[0] == 0 and next(stream)[0] == 3
    assert len(opened) == 1 and not opened[0].closed
    stream.close()
    assert opened[0].closed
    assert [o for o, _ in handle.stream_examples()] == list(range(12))
    assert len(opened) == 2 and opened[1].closed


def _chunk(consts, codes, width=1, **head) -> bytes:
    """The frame body of a chunk from its constants, each ``(kind, text)``
    with the text in bytes, and its codes at ``width`` bytes each; ``head``
    overrides the header's ``nrec``, ``nkeys``, ``nconst``, ``tlen``,
    ``width`` or ``ncodes``."""
    table = b"".join(text + b"\0" for _, text in consts)
    fields = dict(nrec=1, nkeys=1, nconst=len(consts), tlen=len(table), width=width, ncodes=len(codes)) | head
    return (
        _HEAD.pack(*fields.values())
        + bytes(kind for kind, _ in consts)
        + table
        + b"".join(c.to_bytes(width, "little") for c in codes)
    )


# One example: id 1, label pair, one fact card(x).  Constants: 0 the integer
# 1, 1 pair, 2 card, 3 x.  The codes: the key card/1 (arity 1 doubled, plain)
# with one fact; its column, whose one argument is constant 3; the record:
# its id (constant 0, tree-coded), its label and one group, of key 0 with
# one fact.
_CONSTS = [(1, b"1"), (0, b"pair"), (0, b"card"), (0, b"x")]
_KEY, _COLUMN, _RECORD = [2, 1 << 1, 1], [3], [0 << 1, 1, 1, 0, 1]
_BODY = _KEY + _COLUMN + _RECORD
_WIDE = (2**31 - 1) << 1  # the largest arity that a 4-byte code holds


# The test keeps the name it had when records first carried their own
# constant table (format v2); its chunks are those of the current format,
# and its ids the names of the cases it had then.
@pytest.mark.parametrize(
    "body,message",
    [
        (_chunk(_CONSTS, _BODY), None),
        (_chunk(_CONSTS, _KEY + [9] + _RECORD), r"a constant index beyond the table of 4"),
        (_chunk(_CONSTS, _KEY + _COLUMN + [0, 7, 1, 0, 1]), r"a constant index beyond the table of 4"),
        (_chunk(_CONSTS, [0] + _BODY[1:]), r"constant 0 is a number where a name"),
        (_chunk(_CONSTS, _KEY + _COLUMN + [0, 0, 1, 0, 1]), r"constant 0 is a number where a name"),
        (_chunk(_CONSTS, _KEY + _COLUMN + [0 << 1 | 1, 1, 3 << 1] + _RECORD[1:]), r"constant 0 is a number where a name"),
        (_chunk(_CONSTS[:3] + [(7, b"x")], _BODY), r"bad constant kind 7"),
        (_chunk(_CONSTS, _BODY + [0]), r"1 bytes unread"),
        (_chunk(_CONSTS, _BODY[:-3]), r"its codes are truncated"),
        (_chunk(_CONSTS, _KEY), r"1 facts of card/1 do not fit"),
        (_chunk(_CONSTS, [2, 2, 2, 3, 3, 0, 1, 2, 0, 1, 0, 1]), r"card/1 grouped twice in record 0"),
        (_chunk(_CONSTS, [2, 2, 0] + _BODY[3:]), r"0 facts of card/1 do not fit"),
        (_chunk(_CONSTS, [2, _WIDE, 0] + _BODY[3:], width=4), r"0 facts of card/2147483647 do not fit"),
        (_chunk(_CONSTS, [2, _WIDE, 1] + _BODY[3:], width=4), r"1 facts of card/2147483647 do not fit"),
        (_chunk(_CONSTS, [2, 0, 65537, 0] + _RECORD, width=4), r"65537 facts of card/0 do not fit"),
        (_chunk(_CONSTS, [2, 0, 2, 0, 5, 0, 1, 1, 0, 2]), r"a fact of card/0 is not marked 0"),
        (_chunk(_CONSTS[:3] + [(0, b"\xff")], _BODY), r"its constant table is not UTF-8"),
        (_chunk(_CONSTS, _KEY + _COLUMN + [1 << 1 | 1, 1] * 5000 + _RECORD), r"compounds nested too deeply"),
        (_chunk(_CONSTS, _BODY, width=3), r"bad code width 3"),
        (_chunk(_CONSTS, _BODY, tlen=1000), r"its constant table of 1000 bytes ends past the frame"),
        (_chunk(_CONSTS, _BODY, ncodes=10), r"10 codes of 1 bytes do not fit"),
        (_chunk(_CONSTS, _BODY, ncodes=8), r"1 bytes unread"),
        (_chunk(_CONSTS, _BODY, width=2, ncodes=5), r"8 bytes unread"),
        (_chunk(_CONSTS[:3] + [(0, b"x\0y")], _BODY), r"5 constants in a table of 4"),
        (_chunk([(1, b"01")] + _CONSTS[1:], _BODY), r"bad integer '01'"),
        (_chunk([(2, b"00")] + _CONSTS[1:], _BODY), r"bad float '00'"),
        (_chunk([], [0] * 3, width=4, nkeys=0), r"a constant index beyond the table of 0"),
        (_chunk(_CONSTS, _KEY * 2 + _COLUMN * 2 + _RECORD, nkeys=2), r"card/1 keyed twice"),
        (_chunk(_CONSTS, _BODY, nkeys=4), r"4 keys do not fit"),
        (_chunk(_CONSTS, _BODY[:-2] + [1, 1]), r"a key index beyond the 1 keys"),
        (_chunk(_CONSTS, _BODY[:-1] + [0]), r"a group of record 0 holds no facts"),
        (_chunk(_CONSTS, [2, 2, 2, 3, 3] + _RECORD), r"its records claim 1 facts of card/1, of the 2 its column holds"),
        (_chunk(_CONSTS, _BODY[:4] + [0, 1, 3] + _BODY[-2:]), r"the 3 groups of record 0 do not fit"),
    ],
    ids=[
        "valid", "argument-index", "label-index", "predicate-number", "label-number",
        "functor-number", "constant-kind", "unread-bytes", "truncated", "facts-past-record",
        "group-twice",
        "zero-facts", "zero-facts-huge-arity", "arity-past-record", "nullary-count",
        "nullary-marker", "utf8", "deep-compound",
        "code-width", "table-past-record", "code-count-past-record", "code-count-short-of-record",
        "code-width-unlike-codes", "table-count", "integer-text", "float-text", "no-constants",
        "key-twice", "keys-past-codes", "key-index", "empty-group", "facts-unclaimed", "groups-past-codes",
    ],
)
def test_corrupt_v2_record_names_its_chunk(tmp_path, body, message):
    handle = load_dataset(_write_many(tmp_path, 1), POKER_SETTINGS, tmp_path / "store", granularity=5)
    _write_frames(handle.dir / DATA_NAME, [body])
    store = open_dataset(handle.dir)
    if message is None:
        [(_, e)] = store.stream_examples()
        assert (e.ident, e.label, e.facts) == (Number(1), "pair", (Literal("card", (Atom("x"),)),))
        return
    with pytest.raises(DataError, match=rf"^corrupt chunk 0 of data file .*chunks\.bin: {message}"):
        list(store.stream_examples())


@pytest.mark.parametrize("field", ["nrec", "nkeys", "nconst", "ncodes", "key-count", "group-count", "arity"])
def test_a_corrupt_count_allocates_no_more_than_the_frame_holds(field):
    """A count past what the frame holds fails before anything of that
    size is built: the decoder's peak memory stays within a small multiple
    of the frame's length."""
    huge = 2**32 - 1
    codes = {
        "key-count": [2, 2, huge] + _BODY[3:],
        "group-count": _KEY + _COLUMN + [0, 1, huge, 0, 1],
        "arity": [2, huge - 1, 1] + _BODY[3:],
    }.get(field, _BODY)
    head = {field: huge} if field in ("nrec", "nkeys", "nconst", "ncodes") else {}
    body = _chunk(_CONSTS, codes, width=4, **head)
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            decode_chunk(body, head.get("nrec", 1), {0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(body) + 10_000


def test_float_constants_keep_their_bits():
    values = [0.0, -0.0, float("nan"), 1.0, float("-inf"), *_NANS]
    interp = oracles.interp_of(Atom("e"), "pos", (Literal("v", tuple(map(Number, values)) + (Number(1),)),))
    [decoded] = _round_trip([interp])
    [row] = decoded.groups[("v", len(values) + 1)].rows
    assert [struct.pack("<d", t.value) for t in row[:-1]] == [struct.pack("<d", v) for v in values]
    assert type(row[-1].value) is int


def test_many_nullary_facts_round_trip():
    interp = oracles.interp_of(Number(1), "pair", (Literal("flush", ()),) * (2**16 + 1))
    assert _round_trip([interp, interp]) == [interp, interp]


def test_compile_over_a_larger_store_leaves_only_its_own_files(tmp_path):
    store = tmp_path / "store"
    load_dataset(_write_many(tmp_path, 30), POKER_SETTINGS, store, granularity=5)
    foreign = {
        "notes.txt": b"kept",
        "chunk-00001.txt": b"kept",
        "chunk-00000.bin": b"foldt-chunk v2\n",  # a v2 store's chunk files
        "chunk-00007.bin": b"foldt-chunk v2\n",
    }
    for name, content in foreign.items():
        (store / name).write_bytes(content)
    handle = load_dataset(_write_many(tmp_path, 12, "small.kb"), POKER_SETTINGS, store, granularity=5)
    assert sorted(p.name for p in store.iterdir()) == sorted([*foreign, DATA_NAME, "meta.json"])
    assert all((store / name).read_bytes() == content for name, content in foreign.items())
    assert len(_frames(store / DATA_NAME)) == 3
    reopened = open_dataset(store)
    assert [e.ident for _, e in reopened.stream_examples()] == [Number(n) for n in range(1, 13)]
    assert reopened.fingerprint == handle.fingerprint


def test_compile_that_fails_midway_leaves_no_store(tmp_path):
    store = tmp_path / "store"
    load_dataset(generate(GenSpec("poker", 30, seed=1), tmp_path / "a.kb"), POKER_SETTINGS, store, granularity=5)
    text = generate(GenSpec("poker", 30, seed=4), tmp_path / "b.kb").read_text()
    lines = text.splitlines(keepends=True)
    ends = [i for i, line in enumerate(lines) if line.startswith("end(")]
    broken = tmp_path / "broken.kb"
    broken.write_text("".join(lines[: ends[14] + 1]) + "begin(model(x)).\n card(2,\n")
    with pytest.raises(ParseError):
        load_dataset(broken, POKER_SETTINGS, store, granularity=5)
    # The old data file stays, but without its meta.json; the 15 blocks
    # written before the error went to a temporary file, which is gone.
    assert sorted(p.name for p in store.iterdir()) == [DATA_NAME]
    with pytest.raises(DataError, match=r"meta\.json"):
        open_dataset(store)


_NAMES = ["p", "card", "o1", "pair", "", "it's", "two words", "Upper", "ünï", "π", "\0", "a\0b", "\1\0"]
_INT_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 63, 64, 255, 256, 65535, 65536, 2**63 - 2, 2**63 - 1]
# NaNs other than Python's own: quiet with a payload, signalling, negative.
_NANS = [
    struct.unpack("<d", struct.pack("<Q", bits))[0]
    for bits in (0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF)
]


def _ground_terms(allow_nan: bool):
    names = st.sampled_from(_NAMES) | st.text(max_size=4)
    leaves = (
        st.builds(Atom, names)
        | st.builds(Number, st.sampled_from(_INT_EDGES) | st.integers(-(2**63), 2**63 - 1))
        | st.builds(Number, st.sampled_from([0.0, -0.0, 1.0]) | st.floats(allow_nan=allow_nan))
        | st.builds(Number, st.sampled_from(_NANS if allow_nan else [0.5]))
    )
    return st.recursive(
        leaves,
        lambda kids: st.builds(Compound, names, st.lists(kids, min_size=1, max_size=3).map(tuple)),
        max_leaves=6,
    )


@st.composite
def _interpretations(draw, allow_nan=True):
    """Ground examples whose facts repeat, are nullary, and reuse predicate
    names as atoms and functors."""
    terms = _ground_terms(allow_nan)
    pool = draw(st.lists(
        st.tuples(st.sampled_from(_NAMES), st.lists(terms, max_size=3).map(tuple)), min_size=1, max_size=5
    ))
    facts = draw(st.lists(st.sampled_from(pool), max_size=12))
    label = draw(st.sampled_from(_NAMES))
    rep = st.builds(lambda i, k: Compound("rep", (Number(i), Number(k))), st.integers(0, 10**6), st.integers(1, 300))
    ident = draw(terms | rep)  # ``replicate`` gives ids rep(Id, K)
    return oracles.interp_of(ident, label, tuple(Literal(p, args) for p, args in facts))


def _bits(t):
    """A term with each float replaced by its bytes, so that -0.0, 0.0 and
    NaN compare by their bits."""
    if isinstance(t, Number):
        return (type(t.value).__name__, struct.pack("<d", t.value) if isinstance(t.value, float) else t.value)
    if isinstance(t, Compound):
        return (t.functor, tuple(map(_bits, t.args)))
    return t


def _content(e):
    """An example's id, label and groups, floats by their bits, group keys
    in order of first occurrence."""
    return _bits(e.ident), e.label, [(k, [tuple(map(_bits, row)) for row in g.rows]) for k, g in e.groups.items()]


# A key whose column turns tree-coded at a later record of the chunk, a
# nullary key, and floats that compare equal but differ in their bits.
_MIXED = [
    oracles.interp_of(Number(1), "pos", (Literal("p", (Atom("a"), Number(-0.0))), Literal("q", ()))),
    oracles.interp_of(Number(2), "neg", (Literal("p", (Compound("f", (Atom("a"),)), Number(0.0))),)),
    oracles.interp_of(Compound("rep", (Number(1), Number(2))), "pos", (Literal("q", ()),) * 3),
]


@hsettings(max_examples=examples(300), deadline=None)
@given(interps=st.lists(_interpretations(), min_size=1, max_size=5), listed=st.sets(st.integers(0, 4)))
@example(interps=_MIXED, listed={0, 1, 2})
@example(interps=_MIXED, listed={1})
def test_a_v5_chunk_decodes_what_v4_records_decode(interps, listed):
    """The listed records of a chunk decode, in order and with their
    ordinals, to the examples that their format v4 records decode to, group
    for group; and the v4 bytes that define the fingerprint are those of the
    reference encoder."""
    chosen = {i for i in listed if i < len(interps)}
    got = decode_chunk(encode_chunk(interps), len(interps), chosen, 7)
    reference = [oracles.decode_record(oracles.encode_record(interps[i])) for i in sorted(chosen)]
    assert [o for o, _ in got] == [7 + i for i in sorted(chosen)]
    assert [_content(e) for _, e in got] == list(map(_content, reference))
    assert list(map(_content, reference)) == [_content(interps[i]) for i in sorted(chosen)]
    assert [encode_record(e) for e in interps] == [oracles.encode_record(e) for e in interps]


def _well_formed(t) -> bool:
    if type(t) is Compound:
        return type(t.functor) is str and all(map(_well_formed, t.args))
    return type(t) in (Atom, Number)


@hsettings(max_examples=examples(300), deadline=None)
@given(
    interps=st.lists(_interpretations(), min_size=1, max_size=3),
    cut=st.none() | st.integers(0, 10**6),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 7)), max_size=3),
)
def test_a_damaged_chunk_decodes_or_raises_data_error(interps, cut, flips):
    """Chunks with compounds and floats, cut short or with flipped bits,
    decode to well-formed examples or raise a DataError, whatever records
    are listed."""
    body = encode_chunk(interps)
    raw = bytearray(body if cut is None else body[: cut % (len(body) + 1)])
    for pos, bit in flips:
        if raw:
            raw[pos % len(raw)] ^= 1 << bit
    try:
        out = decode_chunk(bytes(raw), len(interps), set(range(0, len(interps), 2)))
    except DataError:
        return
    for _, e in out:
        assert _well_formed(e.ident) and type(e.label) is str
        for (pred, arity), group in e.groups.items():
            assert type(pred) is str and group.rows
            assert all(len(row) == arity and all(map(_well_formed, row)) for row in group.rows)


@hsettings(max_examples=200, deadline=None)
@given(interp=_interpretations(allow_nan=False), absent=_ground_terms(allow_nan=False))
def test_first_argument_index_equals_an_eager_index(interp, absent):
    [decoded] = _round_trip([interp])
    for group in decoded.groups.values():
        if not group.rows or not group.rows[0]:
            continue
        eager: dict = {}
        for row in group.rows:
            eager.setdefault(row[0], []).append(row)
        for t in [row[0] for row in group.rows] + [absent]:
            assert list(group.first(t)) == eager.get(t, [])
            assert list(group.first(t)) == [row for row in group.rows if row[0] == t]
