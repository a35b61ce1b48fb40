from collections import Counter

import pytest
from conftest import BONGARD_BIAS_TEXT, mk_query_literals
from oracles import poker_label_oracle

from foldt.engine import Query, succeeds
from foldt.generators import (
    DECK,
    GenSpec,
    POKER_CLASSES,
    gen_bongard,
    gen_poker,
    poker_hand_label,
    replicate,
)
from foldt.settings import parse_settings
from foldt.store import iter_kb_blocks, load_dataset
from foldt.terms import render_term

POKER_SETTINGS = parse_settings("classes([%s])." % ",".join(POKER_CLASSES))
BONGARD_SETTINGS = parse_settings(BONGARD_BIAS_TEXT)


def test_generators_reproducible(tmp_path):
    a = gen_poker(GenSpec("poker", 60, seed=42), tmp_path / "a.kb").read_bytes()
    b = gen_poker(GenSpec("poker", 60, seed=42), tmp_path / "b.kb").read_bytes()
    c = gen_poker(GenSpec("poker", 60, seed=43), tmp_path / "c.kb").read_bytes()
    assert a == b
    assert a != c
    x = gen_bongard(GenSpec("bongard", 60, seed=42), tmp_path / "x.kb").read_bytes()
    y = gen_bongard(GenSpec("bongard", 60, seed=42), tmp_path / "y.kb").read_bytes()
    assert x == y


def test_poker_label_against_enumeration_oracle():
    # every achievable rank-count pattern, via small constructed hands
    hands = {
        (4, 1): [("a", 0), ("a", 1), ("a", 2), ("a", 3), ("b", 0)],
        (3, 2): [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1)],
        (3, 1, 1): [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("c", 0)],
        (2, 2, 1): [("a", 0), ("a", 1), ("b", 0), ("b", 1), ("c", 0)],
        (2, 1, 1, 1): [("a", 0), ("a", 1), ("b", 0), ("c", 0), ("d", 0)],
        (1, 1, 1, 1, 1): [("a", 0), ("b", 0), ("c", 0), ("d", 0), ("e", 0)],
    }
    for pattern, hand in hands.items():
        assert tuple(sorted(Counter(r for r, _ in hand).values(), reverse=True)) == pattern
        assert poker_hand_label(hand) == poker_label_oracle([r for r, _ in hand])
    # five of a kind is impossible without replacement: max 4 suits per rank
    per_rank = Counter(r for r, _ in DECK)
    assert max(per_rank.values()) == 4


def test_generated_poker_labels_consistent(tmp_path):
    path = gen_poker(GenSpec("poker", 200, seed=3), tmp_path / "p.kb")
    for interp in iter_kb_blocks(path, POKER_SETTINGS.classes):
        group = interp.groups[("card", 2)]
        assert len(group.rows) == 5
        assert len(set(group.rows)) == 5  # distinct cards
        ranks = [render_term(rank) for rank, _ in group.rows]
        assert interp.label == poker_label_oracle(ranks)


def test_generated_bongard_labels_match_query(tmp_path):
    path = gen_bongard(GenSpec("bongard", 200, seed=8), tmp_path / "b.kb")
    target = Query(mk_query_literals("triangle(X)", "inside(X,Y)"))
    seen = Counter()
    for interp in iter_kb_blocks(path, ("pos", "neg")):
        seen[interp.label] += 1
        assert (interp.label == "pos") == succeeds(target, interp)
    assert seen["pos"] > 10 and seen["neg"] > 10


def test_bongard_inside_acyclic(tmp_path):
    path = gen_bongard(GenSpec("bongard", 150, seed=21), tmp_path / "b.kb")
    for interp in iter_kb_blocks(path, ("pos", "neg")):
        group = interp.groups.get(("inside", 2))
        if group is None:
            continue
        edges = {(render_term(inner), render_term(outer)) for inner, outer in group.rows}
        # inner always has a higher object index than outer
        for inner, outer in edges:
            assert int(inner[1:]) > int(outer[1:])


def test_balanced_generation(tmp_path):
    path = gen_bongard(GenSpec("bongard", 40, seed=5, balance=True), tmp_path / "b.kb")
    labels = Counter(i.label for i in iter_kb_blocks(path, ("pos", "neg")))
    assert labels == {"pos": 20, "neg": 20}
    path = gen_poker(GenSpec("poker", 18, seed=5, balance=True), tmp_path / "p.kb")
    labels = Counter(i.label for i in iter_kb_blocks(path, POKER_SETTINGS.classes))
    assert all(labels[c] == 3 for c in POKER_CLASSES)


def test_replicate_counts_and_histogram(tmp_path):
    path = gen_poker(GenSpec("poker", 188, seed=1), tmp_path / "m.kb")
    data = load_dataset(path, POKER_SETTINGS, tmp_path / "m.chunks", granularity=25)
    rep = replicate(data, 8, tmp_path / "rep8")
    assert rep.total == 1504
    assert rep.class_counts == {c: 8 * v for c, v in data.class_counts.items()}


def test_replicate_k1_content_identical_new_ids(tmp_path):
    path = gen_poker(GenSpec("poker", 12, seed=2), tmp_path / "s.kb")
    data = load_dataset(path, POKER_SETTINGS, tmp_path / "s.chunks", granularity=5)
    rep = replicate(data, 1, tmp_path / "rep1")
    originals = [e for _, e in data.stream_examples()]
    copies = [e for _, e in rep.stream_examples()]
    assert len(copies) == len(originals)
    for orig, copy in zip(originals, copies):
        assert copy.facts == orig.facts
        assert copy.label == orig.label
        assert copy.ident != orig.ident
        assert render_term(copy.ident) == f"rep({render_term(orig.ident)},1)"


def test_genspec_validation():
    with pytest.raises(Exception):
        GenSpec("poker", 0, seed=1)
