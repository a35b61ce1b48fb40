import gc
import logging
import os
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings as hsettings, strategies as st
from conftest import (
    BONGARD_BACKGROUND,
    BONGARD_BIAS_TEXT,
    POKER_BIAS_TEXT,
    bongard12_kb_text,
    learn_with,
    mk_query_literals,
)
from oracles import check_scope, full_query_counters, gain_oracle

import foldt.learner
from foldt.bench import structure_hash
from foldt.engine import Background, Query, succeeds
from foldt.errors import BudgetExceededError, DataError
from foldt.generators import GenSpec, generate, replicate
from foldt.learner import (
    LearnerConfig,
    choose_split,
    entropy,
    gain_of,
    learn,
    majority_class,
    score,
)
from foldt.model import INode, Leaf, classify, tree_depth
from foldt.settings import ALGORITHMS, parse_settings
from foldt.store import iter_kb_blocks, load_dataset, write_block
from foldt.terms import Atom, Literal, Number, parse_program

BONGARD_SETTINGS = parse_settings(BONGARD_BIAS_TEXT)


@pytest.fixture
def bongard12(tmp_path):
    path = tmp_path / "bongard12.kb"
    path.write_text(bongard12_kb_text())
    return load_dataset(path, BONGARD_SETTINGS, tmp_path / "bongard12.chunks", granularity=5)


# ---------------------------------------------------------------------------
# Heuristic units


def test_score_pure_split():
    assert score("weighted_entropy", (2, 2), (2, 0), (0, 2)) == 0.0
    assert score("gain", (2, 2), (2, 0), (0, 2)) == 1.0
    assert score("gainratio", (2, 2), (2, 0), (0, 2)) == 1.0


def test_score_no_information():
    assert score("gain", (2, 2), (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_score_three_one_case():
    # oracle-confirmed constant, then frozen
    gain, splitinfo, ratio = gain_oracle((4, 4), (3, 1), (1, 3))
    assert gain == pytest.approx(0.18872187554086708, abs=1e-15)
    assert splitinfo == 1.0
    assert score("gain", (4, 4), (3, 1), (1, 3)) == pytest.approx(gain, abs=0)
    assert score("gainratio", (4, 4), (3, 1), (1, 3)) == pytest.approx(ratio, abs=0)


def test_score_degenerate_split_rejected_for_gainratio():
    assert score("gainratio", (3, 1), (3, 1), (0, 0)) is None
    assert score("gain", (3, 1), (3, 1), (0, 0)) == pytest.approx(0.0, abs=1e-12)


def test_score_empty_parent():
    with pytest.raises(DataError, match="empty parent"):
        score("gain", (0, 0), (0, 0), (0, 0))


def test_choose_split_tiebreak_first():
    cfg = LearnerConfig(minleaf=1)
    pure, mixed = ((4, 0), (0, 4)), ((3, 1), (1, 3))
    # equal scores: the earliest candidate wins
    assert choose_split((4, 4), [pure, pure, mixed], LearnerConfig(heuristic="gain")) == 0
    # an inadmissible candidate is skipped, then the highest ratio wins
    assert choose_split((4, 4), [((4, 4), (0, 0)), mixed, pure], cfg) == 2
    # weighted entropy: the lowest wins, ties to the earliest
    we = LearnerConfig(heuristic="weighted_entropy", minleaf=1)
    assert choose_split((4, 4), [mixed, pure, pure], we) == 1
    assert choose_split((4, 4), [((4, 4), (0, 0)), ((2, 2), (2, 2))], cfg) is None
    assert choose_split((4, 4), [], cfg) is None


def test_choose_split_admissibility():
    cfg = LearnerConfig(minleaf=5)
    # no gain
    assert choose_split((50, 50), [((25, 25), (25, 25))], cfg) is None
    # gain, but one side below minleaf
    assert choose_split((50, 50), [((1, 0), (49, 50))], cfg) is None
    assert choose_split((10, 10), [((10, 0), (0, 10))], cfg) == 0
    assert choose_split((10, 4), [((10, 0), (0, 4))], cfg) is None
    # gain must exceed gain_epsilon
    mixed = [((3, 1), (1, 3))]
    assert choose_split((4, 4), mixed, LearnerConfig(minleaf=1)) == 0
    assert choose_split((4, 4), mixed, LearnerConfig(minleaf=1, gain_epsilon=0.5)) is None


def test_choose_split_score_none_rejects(monkeypatch):
    monkeypatch.setattr(foldt.learner, "score", lambda *args: None)
    assert choose_split((10, 10), [((10, 0), (0, 10))], LearnerConfig()) is None


def test_majority_class():
    assert majority_class((3, 1), ("pos", "neg")) == "pos"
    assert majority_class((2, 2), ("pos", "neg")) == "pos"
    assert majority_class((0, 7), ("pair", "nothing")) == "nothing"
    with pytest.raises(DataError):
        majority_class((0, 0), ("a", "b"))


def test_entropy_bits():
    assert entropy((1, 1)) == 1.0
    assert entropy((4, 0)) == 0.0
    assert gain_of((4, 4), (4, 0), (0, 4)) == 1.0


# ---------------------------------------------------------------------------
# End-to-end induction


def expected_bongard_tree():
    tri = mk_query_literals("triangle(A)")
    ins = mk_query_literals("inside(A,B)")
    return INode(
        tri,
        INode(ins, Leaf("pos", (6, 0)), Leaf("neg", (0, 3))),
        Leaf("neg", (0, 3)),
    )


def test_bongard12_classic_builds_reference_tree(bongard12):
    model = learn_with("classic", bongard12, None, BONGARD_SETTINGS)
    assert model.tree == expected_bongard_tree()
    assert check_scope(model)


def test_bongard12_lds_builds_reference_tree(bongard12):
    model = learn_with("lds", bongard12, None, BONGARD_SETTINGS)
    assert model.tree == expected_bongard_tree()
    assert model.metadata["passes"] == tree_depth(model.tree) == 3


def test_classic_equals_lds_exactly(bongard12):
    classic = learn_with("classic", bongard12, None, BONGARD_SETTINGS)
    lds = learn_with("lds", bongard12, None, BONGARD_SETTINGS)
    assert classic.tree == lds.tree  # conjunctions, names, counts, everything
    for key in ("evaluations", "reused", "nodes_evaluated", "candidates_generated", "proof_steps"):
        assert classic.metadata[key] == lds.metadata[key], key
    assert lds.metadata["proof_steps"] > 0


def test_lds_level_records_sum_to_totals(bongard12):
    meta = learn_with("lds", bongard12, None, BONGARD_SETTINGS).metadata
    levels = meta["levels"]
    assert sum(lv["candidates"] for lv in levels) == meta["candidates_generated"] > 0
    assert sum(lv["evaluations"] for lv in levels) == meta["evaluations"]
    assert sum(lv["reused"] for lv in levels) == meta["reused"]
    assert sum(lv["proof_steps"] for lv in levels) == meta["proof_steps"] > 0
    # only examples at nodes with a pack are streamed; the last level has none
    assert [lv["examples_touched"] for lv in levels] == [12, 9, 0]


def _generated(domain, count, seed, tmp_path, granularity=17):
    settings = parse_settings(POKER_BIAS_TEXT) if domain == "poker" else BONGARD_SETTINGS
    path = generate(GenSpec(domain, count, seed=seed), tmp_path / f"{domain}{seed}.kb")
    return load_dataset(path, settings, tmp_path / f"{domain}{seed}.chunks", granularity), settings


@pytest.mark.parametrize("domain", ["poker", "bongard"])
def test_level_tests_proven_and_reused_cover_every_candidate(tmp_path, monkeypatch, domain):
    data, settings = _generated(domain, 150, 11, tmp_path)
    opened = []
    open_node = foldt.learner._open

    def recording(node, *args):
        evaluated = open_node(node, *args)
        if evaluated:
            opened.append((node.depth + 1, sum(node.counts) * len(node.candidates)))
        return evaluated

    monkeypatch.setattr(foldt.learner, "_open", recording)
    meta = learn_with("lds", data, None, settings).metadata
    for lv in meta["levels"]:
        tests = sum(n for level, n in opened if level == lv["level"])
        assert lv["evaluations"] + lv["reused"] == tests, lv["level"]
    assert meta["reused"] > 0


def test_poker_levels_below_the_root_reuse_every_outcome(tmp_path, monkeypatch):
    # Every poker candidate's coverage query is one of the root's four up to
    # renaming, so below the root nothing is proven and nothing is streamed.
    data, settings = _generated("poker", 150, 11, tmp_path)
    listings = []  # per stream: the collections its listing yielded
    loads = []  # per stream: the chunks loaded before it started
    stream = type(data).stream_examples

    def recording(handle, listing):
        listings.append(taken := [])
        loads.append(handle.chunk_loads)
        return stream(handle, (taken.append(c) or c for c in listing))

    monkeypatch.setattr(type(data), "stream_examples", recording)
    spills = []  # the files the learner writes
    monkeypatch.setattr(
        foldt.learner,
        "open",
        lambda path, mode="r", *a, **k: (spills.append(path) if "w" in mode else None) or open(path, mode, *a, **k),
        raising=False,
    )
    model = learn_with("lds", data, None, settings)
    meta, levels = model.metadata, model.metadata["levels"]
    assert len(levels) == meta["passes"] == tree_depth(model.tree) > 2
    assert len(set(spills)) == len(spills) == meta["passes"]  # each level writes its own spill
    assert len(listings) == meta["passes"]  # one stream per level
    assert not any(c for taken in listings[1:] for c in taken)  # nothing to list, nothing called per example
    assert loads[1] > 0 and data.chunk_loads == loads[1]  # no chunk is loaded after level 1
    assert [lv["examples_touched"] for lv in levels] == [150] + [0] * (len(levels) - 1)
    assert meta["evaluations"] == levels[0]["evaluations"] == 150 * levels[0]["candidates"]
    assert all(lv["proof_steps"] == 0 for lv in levels[1:])
    assert meta["reused"] > 0


@pytest.mark.parametrize(
    "rmodes,clauses,counts",
    [
        # points/2 has facts in the scenes and, here, a clause too, so a
        # points test tries the scene's facts and then the clause.
        ("", "points(O,up) :- circle(O).\n", (5090, 1545, 10021)),
        # above/2 is recursive, so its tests run on the machine.
        (
            "rmode(5: above(+V,+-W)).\n",
            "above(X,Y) :- inside(X,Y).\nabove(X,Y) :- inside(X,Z), above(Z,Y).\n",
            (5399, 1545, 10566),
        ),
    ],
    ids=["facts", "recursive"],
)
def test_clause_for_a_predicate_with_facts_keeps_both_engines_equal(tmp_path, rmodes, clauses, counts):
    settings = parse_settings(
        BONGARD_BIAS_TEXT + "rmode(5: polygon(+-V)).\nrmode(5: doubletriangle(+-V,+-W)).\n" + rmodes
    )
    background = Background(parse_program(BONGARD_BACKGROUND + clauses))
    path = generate(GenSpec("bongard", 400, seed=7), tmp_path / "scenes.kb")
    data = load_dataset(path, settings, tmp_path / "scenes.chunks")
    classic, lds = (learn_with(a, data, background, settings) for a in ("classic", "lds"))
    assert classic.tree == lds.tree
    for model in (classic, lds):
        meta = model.metadata
        assert (meta["evaluations"], meta["reused"], meta["proof_steps"]) == counts


def test_lds_level_time_split_fits_in_the_pass(tmp_path):
    data, settings = _generated("bongard", 120, 5, tmp_path, granularity=10)
    meta = learn_with("lds", data, None, settings).metadata
    parts = ("decode_seconds", "eval_seconds", "decide_seconds")
    for lv in meta["levels"]:
        assert all(lv[p] >= 0 for p in parts), lv
        assert sum(lv[p] for p in parts) <= lv["pass_wall_seconds"], lv
    assert meta["eval_seconds"] == pytest.approx(sum(lv["eval_seconds"] for lv in meta["levels"]))


_DIFFERENTIAL_CONFIGS = [
    dict(heuristic="gainratio", minleaf=1, granularity=7),
    dict(heuristic="gain", minleaf=3, granularity=25),
    dict(heuristic="weighted_entropy", minleaf=2, granularity=10, max_depth=3),
    dict(heuristic="gainratio", minleaf=2, granularity=2, tally_keys=2),  # tallies fold all the time
]


@hsettings(max_examples=30, deadline=None)
@given(
    domain=st.sampled_from(["poker", "bongard"]),
    count=st.integers(30, 120),
    seed=st.integers(0, 10_000),
    overrides=st.sampled_from(_DIFFERENTIAL_CONFIGS),
)
def test_node_counters_equal_full_query_proofs(tmp_path_factory, domain, count, seed, overrides):
    """At every evaluated node, the counters ``choose_split`` receives
    equal those from proving each candidate's full query alone on each
    example at the node, with no coverage query or reused outcome
    involved."""
    tmp = tmp_path_factory.mktemp("differential")
    overrides = dict(overrides)
    tally_keys = overrides.pop("tally_keys", foldt.learner._TALLY_KEYS)
    data, settings = _generated(domain, count, seed, tmp, overrides["granularity"])
    cfg = LearnerConfig.from_settings(settings, **overrides)
    examples = [e for _, e in data.stream_examples()]
    split = foldt.learner._split
    for algorithm in ALGORITHMS:
        evaluated = {}  # id of each evaluated node -> (node, full queries, counters)

        def recording(node, *args):
            queries = [c.query for c in node.candidates]
            evaluated[id(node)] = (node, queries, node.counters)
            return split(node, *args)

        with (
            mock.patch.object(foldt.learner, "_split", recording),
            mock.patch.object(foldt.learner, "_TALLY_KEYS", tally_keys),
        ):
            learn_with(algorithm, data, None, settings, cfg)
        if not evaluated:
            continue
        todo = [(next(iter(evaluated.values()))[0], examples)]  # the root is evaluated first
        while todo:
            node, members = todo.pop()
            _, queries, counters = evaluated.pop(id(node))
            assert counters == full_query_counters(queries, members, settings.classes), algorithm
            if node.kids is not None:
                left, right = node.kids
                goes_left = [succeeds(left.query, e) for e in members]
                for kid, side in ((left, True), (right, False)):
                    if id(kid) in evaluated:
                        todo.append((kid, [e for e, g in zip(members, goes_left) if g == side]))
        assert not evaluated, algorithm  # every evaluated node was reached


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_a_tally_past_its_key_cap_folds_into_the_counters(tmp_path, monkeypatch, algorithm):
    """With the tally cap ``_TALLY_KEYS`` set to 2, the root's examples fall
    into more (class, path bits) patterns than the cap.  Its tally never
    holds more keys than the cap, and the counters ``choose_split``
    receives equal those from proving each candidate's full query alone on
    every example."""
    monkeypatch.setattr(foldt.learner, "_TALLY_KEYS", 2)
    data, settings = _generated("bongard", 120, 5, tmp_path, granularity=10)
    examples = [e for _, e in data.stream_examples()]
    patterns, largest, counted = set(), [0], []
    evaluate, split = foldt.learner._evaluate, foldt.learner._split

    def tallying(node, *args):
        bits = evaluate(node, *args)
        if node.depth == 0:
            patterns.add((bits & node.mask, args[1]))
            largest[0] = max(largest[0], len(node.tally))
        return bits

    def recording(node, *args):
        if node.depth == 0:
            counted.append(([c.query for c in node.candidates], node.counters))
        return split(node, *args)

    monkeypatch.setattr(foldt.learner, "_evaluate", tallying)
    monkeypatch.setattr(foldt.learner, "_split", recording)
    learn_with(algorithm, data, None, settings)
    [(queries, counters)] = counted
    assert len(patterns) > foldt.learner._TALLY_KEYS >= largest[0] > 0
    assert counters == full_query_counters(queries, examples, settings.classes)


def test_each_node_folds_once_whatever_the_granularity(tmp_path, monkeypatch):
    """On 500 Bongard scenes with the default tally cap, every evaluated
    node's tally is folded exactly once, after its examples are all
    evaluated, at G = 1, 2 and 10 alike, and the tree and the counts do
    not depend on G."""
    path = generate(GenSpec("bongard", 500, seed=55), tmp_path / "scenes.kb")
    folded, decided = [], []  # the nodes passed to _fold and to _split
    fold, split = foldt.learner._fold, foldt.learner._split
    monkeypatch.setattr(foldt.learner, "_fold", lambda node: folded.append(node) or fold(node))
    monkeypatch.setattr(foldt.learner, "_split", lambda node, *args: decided.append(node) or split(node, *args))
    runs = {}
    for algorithm in ALGORITHMS:
        for g in (1, 2, 10):
            data = load_dataset(path, BONGARD_SETTINGS, tmp_path / f"g{g}.chunks", granularity=g)
            del folded[:], decided[:]
            model = learn_with(algorithm, data, None, BONGARD_SETTINGS)
            meta = model.metadata
            assert len(decided) == meta["nodes_evaluated"] > 1, (algorithm, g)
            assert sorted(map(id, folded)) == sorted(map(id, decided)), (algorithm, g)
            runs[algorithm, g] = model.tree, meta["evaluations"], meta["reused"], meta["proof_steps"]
    assert len(set(runs.values())) == 1, runs


def test_chunks_without_spill_records_keep_their_place_in_the_listing(tmp_path, monkeypatch):
    """The scenes are written shallowest leaf first, so at the deeper levels
    the first chunks keep no spill record while later chunks still stream.
    Each chunk still takes its own collection of the listing, and the tree
    and the counts are those of the classic engine."""
    data, settings = _generated("bongard", 200, 3, tmp_path, granularity=4)
    reference = learn_with("classic", data, None, settings)

    def depth(e):  # of the scene's leaf in the reference tree, the root's being 1
        tree, query, d = reference.tree, (), 1
        while isinstance(tree, INode):
            if succeeds(Query(query + tree.conj), e):
                tree, query = tree.left, query + tree.conj
            else:
                tree = tree.right
            d += 1
        return d

    scenes = sorted((e for _, e in data.stream_examples()), key=depth)
    path = tmp_path / "by_depth.kb"
    with open(path, "w", encoding="utf-8") as f:
        for e in scenes:
            write_block(f, e.ident, [*e.facts, Literal(e.label, ())])
    ordered = load_dataset(path, settings, tmp_path / "by_depth.chunks", granularity=4)
    listings = []  # per level with a listing: the collection each chunk took
    stream = type(ordered).stream_examples

    def recording(handle, listing=None):
        if listing is not None:
            taken = []
            listings.append(taken)
            listing = (taken.append(list(c)) or c for c in listing)
        return stream(handle, listing)

    classic = learn_with("classic", ordered, None, settings)
    monkeypatch.setattr(type(ordered), "stream_examples", recording)
    lds = learn_with("lds", ordered, None, settings)
    assert lds.tree == classic.tree == reference.tree and lds.metadata["passes"] > 2
    for key in ("evaluations", "reused", "proof_steps"):
        assert lds.metadata[key] == classic.metadata[key], key
    # Some level lists nothing of its first chunks, and then lists examples.
    assert any(taken[:2] == [[], []] and any(taken) for taken in listings), listings


def test_lds_spills_outside_the_data_directory(bongard12, monkeypatch):
    import tempfile

    dirs, made, spills = [], [], []
    make = tempfile.TemporaryDirectory
    stream = type(bongard12).stream_examples

    def recording(*args, **kwargs):
        dirs.append(kwargs.get("dir"))
        made.append(make(*args, **kwargs))
        return made[-1]

    def listing(handle, ordinals):  # the spills a pass starts with
        spills.append(len(os.listdir(made[-1].name)))
        return stream(handle, ordinals)

    monkeypatch.setattr(tempfile, "TemporaryDirectory", recording)
    monkeypatch.setattr(type(bongard12), "stream_examples", listing)
    before = sorted(bongard12.dir.iterdir())
    model = learn_with("lds", bongard12, None, BONGARD_SETTINGS)
    assert dirs == [None]  # one directory per learn, in the system temporary directory
    assert spills == [0] + [1] * (model.metadata["passes"] - 1)  # each read spill is deleted
    assert model.metadata["passes"] > 2 and not os.path.exists(made[0].name)
    assert sorted(bongard12.dir.iterdir()) == before


def _lds_memory(base, settings, tmp_path):
    """What LDS learns on one and on eight copies of each example of
    ``base`` hold, with ``minleaf`` eight times as large on eight so that the
    tree is the same: per number of copies, the ``tracemalloc`` peak and the
    most memory traced when the stream yields an example; and the model
    learnt on one copy.

    Objects freed into the interpreter's free lists stay counted as traced,
    and a full collection empties those lists, so a collection inside the
    measured learn would move its peak by when it ran.  The collector is
    therefore off from the warm-up learn to the end of the measured one."""
    peaks, highs, hashes, models = {}, {}, set(), {}
    for k in (1, 8):
        data = replicate(base, k, tmp_path / f"x{k}")
        cfg = replace(settings.params, minleaf=settings.params.minleaf * k)
        stream = type(data).stream_examples
        high = 0

        def sampling(handle, ordinals=None):
            nonlocal high
            for item in stream(handle, ordinals):
                high = max(high, tracemalloc.get_traced_memory()[0])
                yield item

        gc.collect()
        gc.disable()
        try:
            learn_with("lds", data, None, settings, cfg)  # warm-up: imports, caches, free lists
            tracemalloc.start()
            with mock.patch.object(type(data), "stream_examples", sampling):
                models[k] = learn_with("lds", data, None, settings, cfg)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        highs[k] = high
        hashes.add(structure_hash(models[k].tree))
    assert len(hashes) == 1
    return peaks, highs, models[1]


def test_lds_memory_does_not_grow_with_the_examples(tmp_path):
    """An LDS learn keeps nothing per example: on eight copies of each scene
    its ``tracemalloc`` peak stays within 32 KiB of the peak on one copy."""
    base, settings = _generated("bongard", 500, 7, tmp_path, granularity=10)
    peaks, _, _ = _lds_memory(base, settings, tmp_path)
    assert peaks[8] - peaks[1] < 32 * 1024, peaks


_MINORITY_SETTINGS = parse_settings("classes([pos,neg]).\nrmode(5: r(+-V)).\nrmode(5: s(+V,+-W)).\n")


def _minority_kb(path, count: int, seed: int):
    """``count`` examples, of which about 2 % hold ``r(o9)``: half of those
    hold ``s(o9,o8)`` too and are positive, the other half negative.  The
    rest are positive at random, 30 % of them."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as f:
        for i in range(1, count + 1):
            facts, label = [], "pos" if rng.random() < 0.3 else "neg"
            if rng.random() < 0.02:
                facts, label = [Literal("r", (Atom("o9"),))], "neg"
                if rng.random() < 0.5:
                    facts.append(Literal("s", (Atom("o9"), Atom("o8"))))
                    label = "pos"
            write_block(f, Number(i), [*facts, Literal(label, ())])
    return path


def test_lds_pass_keeps_no_record_between_listed_ones(tmp_path):
    """The root splits on ``r(A)``.  At the second level only the examples
    with ``r`` are listed to the stream (about 2 %); the others are at a
    node whose candidates all reuse their outcomes, and their records lie
    between the listed ones.  The pass holds one chunk's records at a time
    and writes them once the chunk's listed examples are evaluated, so on
    eight copies of each example, where the listed ones lie eight times as
    far apart, the memory traced while examples stream stays within 24 KiB
    of that on one copy.  (The peak
    does not show this: compiling the packs takes more.)  A pass that kept
    the records between two listed ones until the stream brought the
    second read about 50 KiB more on eight copies."""
    path = _minority_kb(tmp_path / "minority.kb", 2000, 3)
    base = load_dataset(path, _MINORITY_SETTINGS, tmp_path / "minority.chunks", granularity=10)
    _, highs, model = _lds_memory(base, _MINORITY_SETTINGS, tmp_path)
    second = model.metadata["levels"][1]
    assert second["evaluated_nodes"] == 2 and 0 < second["examples_touched"] < len(base) // 20
    assert highs[8] - highs[1] < 24 * 1024, highs


def test_resubstitution_accuracy_on_separable_data(bongard12):
    model = learn(bongard12, None, BONGARD_SETTINGS)
    for _, e in bongard12.stream_examples():
        assert classify(model, e) == e.label


def test_single_class_dataset_single_leaf(tmp_path):
    path = tmp_path / "mono.kb"
    path.write_text(
        "begin(model(1)). triangle(t1). points(t1,up). pos. end(model(1)).\n"
        "begin(model(2)). circle(c1). pos. end(model(2)).\n"
    )
    data = load_dataset(path, BONGARD_SETTINGS, tmp_path / "mono.chunks")
    for algorithm in ALGORITHMS:
        model = learn_with(algorithm, data, None, BONGARD_SETTINGS)
        assert model.tree == Leaf("pos", (2, 0))
        if algorithm == "lds":
            assert model.metadata["passes"] == 1


def test_empty_refinements_majority_leaf(tmp_path):
    path = tmp_path / "mixed.kb"
    path.write_text(
        "begin(model(1)). f(a). pos. end(model(1)).\n"
        "begin(model(2)). f(b). pos. end(model(2)).\n"
        "begin(model(3)). f(c). pos. end(model(3)).\n"
        "begin(model(4)). f(d). neg. end(model(4)).\n"
    )
    no_rmodes = parse_settings("classes([pos,neg]).")
    data = load_dataset(path, no_rmodes, tmp_path / "mixed.chunks")
    for algorithm in ALGORITHMS:
        model = learn_with(algorithm, data, None, no_rmodes)
        assert model.tree == Leaf("pos", (3, 1))


def test_max_depth_caps_tree(bongard12):
    settings = replace(BONGARD_SETTINGS, params=replace(BONGARD_SETTINGS.params, max_depth=1))
    for algorithm in ALGORITHMS:
        model = learn_with(algorithm, bongard12, None, settings)
        assert tree_depth(model.tree) <= 2  # one split at most
    lds = learn_with("lds", bongard12, None, settings)
    assert lds.metadata["passes"] == tree_depth(lds.tree)


def test_minleaf_blocks_small_branches(bongard12):
    settings = replace(BONGARD_SETTINGS, params=replace(BONGARD_SETTINGS.params, minleaf=4))
    model = learn_with("classic", bongard12, None, settings)
    # the inside split (6/3) is now rejected; triangle (9/3) also fails minleaf
    assert isinstance(model.tree, Leaf) or all(
        sum(leaf.counts) >= 4
        for leaf in _leaves(model.tree)
    )


def _leaves(tree):
    if isinstance(tree, Leaf):
        return [tree]
    return _leaves(tree.left) + _leaves(tree.right)


def test_replication_invariance_small(tmp_path, bongard12):
    base = learn_with("classic", bongard12, None, BONGARD_SETTINGS)
    for k in (2, 3):
        rep = replicate(bongard12, k, tmp_path / f"rep{k}")
        assert rep.total == 12 * k
        assert rep.class_counts == {c: k * v for c, v in bongard12.class_counts.items()}
        params = BONGARD_SETTINGS.params
        scaled = replace(BONGARD_SETTINGS, params=replace(params, minleaf=params.minleaf * k))
        for algorithm in ALGORITHMS:
            model = learn_with(algorithm, rep, None, scaled)
            assert structure_hash(model.tree) == structure_hash(base.tree)


def test_classic_equals_lds_on_generated_data(tmp_path):
    poker_settings = parse_settings(POKER_BIAS_TEXT)
    path = generate(GenSpec("poker", 150, seed=11), tmp_path / "p.kb")
    data = load_dataset(path, poker_settings, tmp_path / "p.chunks", granularity=20)
    classic = learn_with("classic", data, None, poker_settings)
    lds = learn_with("lds", data, None, poker_settings)
    assert classic.tree == lds.tree
    assert check_scope(lds)

    bon_path = generate(GenSpec("bongard", 120, seed=5), tmp_path / "b.kb")
    bon = load_dataset(bon_path, BONGARD_SETTINGS, tmp_path / "b.chunks", granularity=17)
    assert learn_with("classic", bon, None, BONGARD_SETTINGS).tree == learn_with("lds", 
        bon, None, BONGARD_SETTINGS
    ).tree


def test_budget_bounds_one_coverage_test(tmp_path):
    # Below the root's left child, Q finds a pair, which has several
    # solutions in a hand; a failing candidate with fresh variables would
    # backtrack through all of them if Q were proved again.  That full
    # re-proof needs thousands of steps on some hand, the coverage queries
    # at most about 150.
    settings = parse_settings(POKER_BIAS_TEXT)
    path = generate(GenSpec("poker", 150, seed=11), tmp_path / "p.kb")
    data = load_dataset(path, settings, tmp_path / "p.chunks", granularity=20)
    unbounded = learn_with("classic", data, None, settings)
    assert tree_depth(unbounded.tree) >= 3
    tight = LearnerConfig.from_settings(settings, resolution_budget=400)
    for algorithm in ALGORITHMS:
        assert learn_with(algorithm, data, None, settings, tight).tree == unbounded.tree


BANDS_TEXT = "classes([a,b,c]).\ndiscretize(val(_,C), C).\nrmode(1: (val(-O,-C), C =< threshold(1))).\n"


def test_max_thresholds_override_acts_like_the_directive(tmp_path):
    path = tmp_path / "bands.kb"
    path.write_text(
        "".join(f"begin(model({i})). val(x,{i}). {'abc'[i // 10]}. end(model({i})).\n" for i in range(30))
    )
    settings = parse_settings(BANDS_TEXT)
    data = load_dataset(path, settings, tmp_path / "bands.chunks")
    default = learn(data, None, settings)
    override = learn(data, None, settings, LearnerConfig.from_settings(settings, max_thresholds=1))
    directive = learn(data, None, parse_settings(BANDS_TEXT + "max_thresholds(1).\n"))
    generated = [m.metadata["candidates_generated"] for m in (default, override, directive)]
    assert generated[0] > generated[1] == generated[2]
    assert override.tree == directive.tree
    assert override.bias_text == directive.bias_text


def test_lds_pass_count_equals_depth_various(tmp_path):
    bon_path = generate(GenSpec("bongard", 80, seed=9), tmp_path / "b.kb")
    data = load_dataset(bon_path, BONGARD_SETTINGS, tmp_path / "b.chunks", granularity=10)
    for minleaf in (1, 2, 6):
        settings = replace(BONGARD_SETTINGS, params=replace(BONGARD_SETTINGS.params, minleaf=minleaf))
        model = learn_with("lds", data, None, settings)
        assert model.metadata["passes"] == tree_depth(model.tree)


# ---------------------------------------------------------------------------
# Predicates that nothing defines are reported once per run, before induction


def _poker100(tmp_path):
    path = generate(GenSpec("poker", 100, seed=7), tmp_path / "poker.kb")
    return load_dataset(path, parse_settings(POKER_BIAS_TEXT), tmp_path / "poker.chunks")


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


MISSPELT_POKER_SETTINGS = parse_settings(POKER_BIAS_TEXT + "rmode(2: crad(-R,-S)).\n")


def test_misspelt_bias_predicate_warns(tmp_path, caplog):
    learn(_poker100(tmp_path), None, MISSPELT_POKER_SETTINGS)
    (message,) = _warnings(caplog)
    assert "crad/2" in message and "rmode 5" in message


def test_misspelt_bias_predicate_warns_on_every_run(tmp_path, caplog):
    data = _poker100(tmp_path)
    for _ in range(2):
        caplog.clear()
        learn(data, None, MISSPELT_POKER_SETTINGS)
        assert len(_warnings(caplog)) == 1


def test_undefined_background_body_predicate_warns(bongard12, caplog):
    background = Background(parse_program("polygon(O) :- triangel(O).\npolygon(O) :- square(O).\n"))
    settings = parse_settings(BONGARD_BIAS_TEXT + "rmode(5: polygon(+-V)).\n")
    learn(bongard12, background, settings)
    (message,) = _warnings(caplog)
    assert "triangel/1" in message and "the background clause for polygon/1" in message


@pytest.mark.parametrize("domain", ["poker", "bongard"])
def test_benchmark_inputs_never_reach_the_machine(tmp_path, monkeypatch, domain):
    """Learning with both engines and classifying, on inputs like those the
    benchmark copies (the poker bias; the Bongard bias with rmodes over its
    background), never calls the SLD machine: every coverage test runs as
    generated code alone."""
    import foldt.engine

    calls = []
    solve = foldt.engine._solve
    monkeypatch.setattr(foldt.engine, "_solve", lambda *args: calls.append(args) or solve(*args))
    if domain == "poker":
        settings, background, granularity = parse_settings(POKER_BIAS_TEXT), None, 100
    else:
        settings = parse_settings(
            BONGARD_BIAS_TEXT + "rmode(5: polygon(+-V)).\nrmode(5: doubletriangle(+-V,+-W)).\n"
        )
        background, granularity = Background(parse_program(BONGARD_BACKGROUND)), 10
    path = generate(GenSpec(domain, 500, seed=55), tmp_path / f"{domain}.kb")
    data = load_dataset(path, settings, tmp_path / f"{domain}.chunks", granularity)
    for algorithm in ALGORITHMS:
        model = learn_with(algorithm, data, background, settings)
        assert model.metadata["evaluations"] > 0
        for interp in iter_kb_blocks(path, settings.classes):
            classify(model, interp, background)
    assert calls == []


def test_readme_poker_bias_raises_no_warning(tmp_path, caplog):
    learn(_poker100(tmp_path), None, parse_settings(POKER_BIAS_TEXT))
    assert _warnings(caplog) == []


def test_pack_budget_exhaustion_in_learn_names_example_and_query(tmp_path):
    path = tmp_path / "loop.kb"
    path.write_text(bongard12_kb_text())
    settings = parse_settings(BONGARD_BIAS_TEXT + "rmode(5: looping(+-V)).\n")
    data = load_dataset(path, settings, tmp_path / "loop.chunks", granularity=5)
    looping = Background(parse_program("looping(X) :- looping(X)."))
    config = LearnerConfig.from_settings(settings, resolution_budget=200)
    for algorithm in ALGORITHMS:
        with pytest.raises(
            BudgetExceededError, match=r"exhausted in example 1 on query looping\(A\)"
        ):
            learn_with(algorithm, data, looping, settings, config)


def test_classic_equals_lds_when_coverage_queries_grow_with_depth(tmp_path):
    """Chains of 0 to 23 links, labelled by the parity of their length: each
    left child extends the chain by one literal, so the tree is 24 levels
    deep and its coverage queries grow to 23 linked literals.  No depth
    limit is set."""
    path = tmp_path / "chains.kb"
    path.write_text("".join(
        f"begin(model({i})). {' '.join(f'next(n{j},n{j + 1}).' for j in range(i % 24))} "
        f"{'odd' if i % 24 % 2 else 'even'}. end(model({i})).\n"
        for i in range(72)
    ))
    settings = parse_settings("classes([odd,even]).\nrmode(30: next(+-V,-W)).\n")
    assert settings.params.max_depth is None
    data = load_dataset(path, settings, tmp_path / "chains.chunks", granularity=5)
    classic = learn_with("classic", data, None, settings)
    lds = learn_with("lds", data, None, settings)
    assert tree_depth(lds.tree) == 24
    assert classic.tree == lds.tree
    assert classic.metadata["proof_steps"] == lds.metadata["proof_steps"]
