import json
import struct

import pytest
from conftest import POKER_BIAS_TEXT, learn_with
from hypothesis import given, settings as hsettings, strategies as st

from foldt.errors import DataError, ParseError
from foldt.generators import GenSpec, gen_poker
from foldt.settings import ALGORITHMS, parse_settings
from foldt.store import (
    CHUNK_MAGIC,
    MANIFEST_NAME,
    Interpretation,
    decode_record,
    encode_record,
    iter_kb_blocks,
    load_dataset,
    open_dataset,
)
from foldt.terms import Atom, Literal, Number, parse_term

POKER_SETTINGS = parse_settings(
    "classes([nothing,pair,two_pairs,three_of_a_kind,full_house,four_of_a_kind])."
)

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


def test_block_parse_card_example(tmp_path):
    path = tmp_path / "one.kb"
    path.write_text(FIG_BLOCK)
    (interp,) = iter_kb_blocks(path, POKER_SETTINGS.classes)
    assert interp.ident == Number(4)
    assert interp.label == "pair"
    assert len(interp.facts) == 5
    group = interp.groups[("card", 2)]
    assert group is not None and len(group.facts) == 5
    assert group.by_first[Number(9)] == (
        Literal("card", (Number(9), Atom("clubs"))),
        Literal("card", (Number(9), Atom("spades"))),
    )


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
    selected = list(handle.stream_examples(lambda o: not 10 <= o < 20))
    assert [o for o, _ in selected] == list(range(10)) + list(range(20, 25))
    assert [e.ident for _, e in selected] == [Number(o + 1) for o, _ in selected]
    assert handle.chunk_loads == 2  # chunk 2 never opened


def test_selective_stream_decodes_only_selected_records(tmp_path, monkeypatch):
    import foldt.store

    handle = load_dataset(_write_many(tmp_path, 25), POKER_SETTINGS, tmp_path / "store", granularity=10)
    decoded = []
    decode = foldt.store.decode_record
    monkeypatch.setattr(foldt.store, "decode_record", lambda rec: decoded.append(1) or decode(rec))
    calls = []

    def selector(o):
        calls.append(o)
        return o % 4 == 0

    selected = [o for o, _ in handle.stream_examples(selector)]
    assert selected == [0, 4, 8, 12, 16, 20, 24]
    assert len(decoded) == 7
    assert sorted(calls) == list(range(25))  # once per ordinal
    assert handle.peak_resident() == 3

    # Corrupt the payload of record 1 (not selected) but keep its framing.
    chunk = handle.chunks[0].path
    raw = bytearray(chunk.read_bytes())
    pos = len(CHUNK_MAGIC)
    (ln,) = struct.unpack_from("<I", raw, pos)
    raw[pos + 4 + ln + 4] = 0x7F  # the identifier's term tag
    chunk.write_bytes(bytes(raw))
    assert [o for o, _ in handle.stream_examples(lambda o: o % 4 == 0)] == selected
    with pytest.raises(DataError, match="bad tag"):
        list(handle.stream_examples())


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
    assert sorted(p.name for p in handle.dir.iterdir()) == [
        "chunk-00000.bin", "manifest.txt", "meta.json"
    ]


def _edit_meta(key, value):
    def edit(directory):
        path = directory / "meta.json"
        meta = json.loads(path.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        path.write_text(json.dumps(meta))

    return edit


def _edit_manifest_field(pos, value):
    def edit(directory):
        path = directory / "manifest.txt"
        lines = path.read_text().splitlines()
        parts = lines[0].split()
        parts[pos] = value
        lines[0] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")

    return edit


@pytest.mark.parametrize(
    "edit,names",
    [
        (_edit_meta("granularity", None), "meta.json"),
        (_edit_meta("total", 7), "meta.json"),
        (_edit_meta("class_counts", {"pair": 11}), "meta.json"),
        (_edit_meta("predicates", None), "meta.json"),
        (_edit_meta("predicates", [["card"]]), "meta.json"),
        (_edit_meta("predicates", [["card", "2"]]), "meta.json"),
        (_edit_meta("predicates", "card/2"), "meta.json"),
        (_edit_meta("granularity", "ten"), "meta.json"),
        (_edit_meta("granularity", 0), "meta.json"),
        (_edit_meta("granularity", 4), "manifest.txt"),
        (_edit_manifest_field(1, "one"), "manifest.txt"),
        (_edit_manifest_field(-1, "5.0"), "manifest.txt"),
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
        "chunk-above-granularity",
        "index",
        "count",
    ],
)
def test_open_dataset_rejects_inconsistent_store(tmp_path, edit, names):
    handle = load_dataset(_write_many(tmp_path, 12), POKER_SETTINGS, tmp_path / "store", granularity=5)
    edit(handle.dir)
    with pytest.raises(DataError, match=names):
        open_dataset(handle.dir)


def test_rechunking_preserves_content(tmp_path):
    path = _write_many(tmp_path, 23)
    h1 = load_dataset(path, POKER_SETTINGS, out_dir=tmp_path / "g10", granularity=10)
    h2 = load_dataset(path, POKER_SETTINGS, out_dir=tmp_path / "g3", granularity=3)
    assert h1.fingerprint == h2.fingerprint
    assert h1.class_counts == h2.class_counts


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


def test_record_codec_roundtrip():
    interp = Interpretation(
        parse_term("rep('E 71',3)"),
        "pos",
        (
            Literal("player", tuple(parse_term(t) for t in ("my", "1", "-48.804436", "-0.16494742", "339"))),
            Literal("flag", ()),
        ),
    )
    assert decode_record(encode_record(interp)) == interp


def test_record_codec_rejects_variables_bad_tags_and_unread_bytes(tmp_path):
    with pytest.raises(TypeError, match="ground"):
        encode_record(Interpretation(Number(1), "pair", (Literal("card", (parse_term("X"), Atom("hearts"))),)))
    record = encode_record(Interpretation(Number(1), "pair", (Literal("flush", ()),)))
    with pytest.raises(DataError, match="bad tag 3"):
        decode_record(b"\x03\x01X" + record[2:])  # an unassigned tag in place of the id
    with pytest.raises(DataError, match="1 bytes unread"):
        decode_record(record + b"\x00")
    handle = load_dataset(_write_many(tmp_path, 2), POKER_SETTINGS, tmp_path / "store", granularity=5)
    chunk = handle.chunks[0].path
    raw = chunk.read_bytes()
    (ln,) = struct.unpack_from("<I", raw, len(CHUNK_MAGIC))
    padded = raw[len(CHUNK_MAGIC) + 4 : len(CHUNK_MAGIC) + 4 + ln] + b"\x00"
    chunk.write_bytes(CHUNK_MAGIC + struct.pack("<I", len(padded)) + padded + raw[len(CHUNK_MAGIC) + 4 + ln :])
    with pytest.raises(DataError, match=f"{chunk.name}: corrupt chunk record"):
        list(open_dataset(handle.dir).stream_examples())


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_chunk_label_outside_class_counts_rejected(tmp_path, algorithm):
    settings = parse_settings(POKER_BIAS_TEXT)
    path = gen_poker(GenSpec("poker", 40, seed=3), tmp_path / "p.kb")
    handle = load_dataset(path, settings, tmp_path / "store", granularity=10)
    chunk = handle.chunks[1].path
    raw = chunk.read_bytes()
    assert b"nothing" in raw
    chunk.write_bytes(raw.replace(b"nothing", b"mothing"))
    with pytest.raises(DataError, match=f"{chunk.name}: label 'mothing' is not among the class counts"):
        learn_with(algorithm, open_dataset(handle.dir), None, settings)


@pytest.fixture(scope="module")
def fuzz_store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = gen_poker(GenSpec("poker", 30, seed=5), tmp / "p.kb")
    handle = load_dataset(path, POKER_SETTINGS, tmp / "store", granularity=10)
    return handle.dir, [c.path for c in handle.chunks]


@hsettings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 2),
    cut=st.none() | st.integers(0, 10**6),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 7)), max_size=4),
)
def test_corrupt_chunk_streams_or_raises_data_error(fuzz_store, which, cut, flips):
    directory, chunks = fuzz_store
    chunk = chunks[which]
    original = chunk.read_bytes()
    raw = bytearray(original if cut is None else original[: cut % len(original)])
    for pos, bit in flips:
        if raw:
            raw[pos % len(raw)] ^= 1 << bit
    chunk.write_bytes(bytes(raw))
    try:
        list(open_dataset(directory).stream_examples())
    except DataError:
        pass
    finally:
        chunk.write_bytes(original)


def test_non_integer_ids(tmp_path):
    path = tmp_path / "sym.kb"
    path.write_text(
        "begin(model(e71)).\n pair.\n card(2,hearts).\nend(model(e71)).\n"
        "begin(model(e72)).\n nothing.\n card(3,hearts).\nend(model(e72)).\n"
    )
    handle = load_dataset(path, POKER_SETTINGS, tmp_path / "store")
    assert [i.ident for _, i in handle.stream_examples()] == [Atom("e71"), Atom("e72")]
    reopened = open_dataset(handle.dir / MANIFEST_NAME)
    assert [i.ident for _, i in reopened.stream_examples()] == [Atom("e71"), Atom("e72")]
