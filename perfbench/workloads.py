"""Seeded inputs of the benchmark workloads.

The benchmark writes its own input files rather than calling
``foldt.generators``, so that the inputs of a workload stay byte-identical
across commits of the program.  Poker hands are drawn per class from fixed
class quotas: every candidate of the poker bias tests a rank multiset, so its
coverage counts depend only on the class quotas, and every seed therefore
builds the same tree with the same number of coverage tests.  Bongard scenes
follow the distribution of the program's generator; their concept ("some
triangle inside some object") is recovered exactly from every sample of this
size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

RANKS = ("2", "3", "4", "5", "6", "7", "8", "9", "10", "jack", "queen", "king", "ace")
SUITS = ("hearts", "spades", "diamonds", "clubs")
RANK_PATTERNS = {
    "nothing": (1, 1, 1, 1, 1),
    "pair": (2, 1, 1, 1),
    "two_pairs": (2, 2, 1),
    "three_of_a_kind": (3, 1, 1),
    "full_house": (3, 2),
    "four_of_a_kind": (4, 1),
}

# The poker and Bongard bias of the test suite (tests/conftest.py); the
# Bongard one adds rmodes over the background predicates, so that tests run
# SLD resolution through background clauses.
POKER_SETTINGS = """\
classes([nothing,pair,two_pairs,three_of_a_kind,full_house,four_of_a_kind]).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2)).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2, card(R,-S3), S1 \\= S3, S2 \\= S3)).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2, card(R,-S3), S1 \\= S3, S2 \\= S3,
          card(R,-S4), S1 \\= S4, S2 \\= S4, S3 \\= S4)).
rmode(1: (card(-R1,-T1), card(R1,-T2), T1 \\= T2, card(-R2,-U1), R1 \\= R2,
          card(R2,-U2), U1 \\= U2)).
"""

BONGARD_SETTINGS = """\
classes([pos,neg]).
rmode(5: triangle(+-V)).
rmode(5: square(+-V)).
rmode(5: circle(+-V)).
rmode(5: inside(+V,+-W)).
rmode(5: inside(-V,+W)).
rmode(5: points(+V,up)).
rmode(5: points(+V,down)).
rmode(5: polygon(+-V)).
rmode(5: doubletriangle(+-V,+-W)).
"""

BONGARD_BACKGROUND = """\
doubletriangle(O1,O2) :- triangle(O1), triangle(O2), O1 \\= O2.
polygon(O) :- triangle(O).
polygon(O) :- square(O).
"""

# Class quotas, from the class counts of 3000, 1000 and 10000 hands dealt at
# random (seed 55 of the program's generator for the first two).  The
# classified sets move 5 % of the hands from "pair" to "nothing": at the
# natural share of about 50 %, the median classify latency sits on the
# boundary between the fast "nothing" hands and the slower "pair" hands and
# jumps between the two from seed to seed.
POKER_3000 = {
    "nothing": 1650, "pair": 1118, "two_pairs": 154,
    "three_of_a_kind": 70, "full_house": 6, "four_of_a_kind": 2,
}
POKER_1000 = {
    "nothing": 503, "pair": 417, "two_pairs": 48,
    "three_of_a_kind": 28, "full_house": 2, "four_of_a_kind": 2,
}
POKER_10000 = {
    "nothing": 5500, "pair": 3798, "two_pairs": 475,
    "three_of_a_kind": 211, "full_house": 14, "four_of_a_kind": 2,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "lds": the timed step is learn; "classify": it is classify
    settings: str
    background: str | None
    train: dict | int  # poker class quotas, or a number of Bongard scenes
    granularity: int
    test: dict | None = None  # held-out poker class quotas (classify only)
    # Structure hash of the learned tree at full scale, for every seed.
    tree_hash: str | None = None
    # Predictions digest and accuracy of the default seed (classify only).
    predictions: tuple[str, float] | None = None


DEFAULT_SEED = 55

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "poker-lds", "lds", POKER_SETTINGS, None, POKER_3000, 100,
            tree_hash="bce707c004b2a6bf",
        ),
        Workload(
            "bongard-lds", "lds", BONGARD_SETTINGS, BONGARD_BACKGROUND, 10_000, 10,
            tree_hash="75ee324afa4118f2",
        ),
        Workload(
            "poker-classify", "classify", POKER_SETTINGS, None, POKER_1000, 10,
            test=POKER_10000, tree_hash="6a759ce514838c41",
            predictions=("91752d6e08997806", 1.0),
        ),
    )
}


def scaled_quotas(quotas: dict, scale: float) -> dict:
    """Quotas times ``scale``, keeping every class that had examples."""
    return {c: max(1, round(q * scale)) for c, q in quotas.items()}


def _write_block(f, ident: int, facts, label: str):
    f.write(f"begin(model({ident})).\n")
    for fact in facts:
        f.write(f"  {fact}.\n")
    f.write(f"  {label}.\n")
    f.write(f"end(model({ident})).\n")


def write_poker(path: Path, quotas: dict, seed: int) -> Path:
    """Hands in a seeded order, each drawn uniformly within its class."""
    rng = random.Random(seed)
    labels = [label for label, q in quotas.items() for _ in range(q)]
    rng.shuffle(labels)
    with open(path, "w", encoding="utf-8") as f:
        for ident, label in enumerate(labels, 1):
            pattern = RANK_PATTERNS[label]
            ranks = rng.sample(RANKS, len(pattern))
            cards = [(r, s) for r, k in zip(ranks, pattern) for s in rng.sample(SUITS, k)]
            rng.shuffle(cards)
            _write_block(f, ident, [f"card({r},{s})" for r, s in cards], label)
    return path


def write_bongard(path: Path, count: int, seed: int) -> Path:
    """Scenes of 2 to 6 objects; containment edges point from a later object
    to an earlier one, and a scene is pos iff a triangle is inside something."""
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as f:
        for ident in range(1, count + 1):
            n = rng.randint(2, 6)
            shapes = [rng.choice(("circle", "triangle", "square")) for _ in range(n)]
            facts = []
            for i, shape in enumerate(shapes, 1):
                facts.append(f"{shape}(o{i})")
                if shape == "triangle":
                    facts.append(f"points(o{i},{rng.choice(('up', 'down'))})")
            label = "neg"
            for i in range(1, n):
                if rng.random() < 0.45:
                    facts.append(f"inside(o{i + 1},o{rng.randrange(i) + 1})")
                    if shapes[i] == "triangle":
                        label = "pos"
            _write_block(f, ident, facts, label)
    return path


@dataclass(frozen=True)
class Inputs:
    settings: Path
    background: Path | None
    train: Path
    test: Path | None


def write_inputs(w: Workload, seed: int, directory: Path, scale: float = 1.0) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    settings = directory / "bias.s"
    settings.write_text(w.settings, encoding="utf-8")
    background = None
    if w.background is not None:
        background = directory / "background.pl"
        background.write_text(w.background, encoding="utf-8")
    train = directory / "train.kb"
    if isinstance(w.train, dict):
        write_poker(train, scaled_quotas(w.train, scale), seed)
    else:
        write_bongard(train, max(12, round(w.train * scale)), seed)
    test = None
    if w.test is not None:
        # A distinct stream, so held-out hands are not the training hands.
        test = write_poker(directory / "test.kb", scaled_quotas(w.test, scale), seed + 1_000_003)
    return Inputs(settings, background, train, test)
