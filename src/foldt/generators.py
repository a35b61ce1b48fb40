"""Synthetic interpretation generators and dataset replication.

``generate`` is the one generator: one loop over a table that gives each
domain its classes and a function drawing one example from an RNG.  It is
deterministic per seed: the same ``GenSpec`` always produces a
byte-identical file.  Poker hands are five distinct cards drawn without
replacement and labelled from the rank multiset (flushes and straights are
not separate classes); scenes contain circles, triangles, and squares,
triangles point up or down, and the containment relation is acyclic by
construction.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .store import ChunkWriter, DatasetHandle, Interpretation, write_block
from .terms import Atom, Compound, Literal, Number

# Each poker class by the rank multiset of its hands, in class order.
_RANK_PATTERNS = {
    (1, 1, 1, 1, 1): "nothing",
    (2, 1, 1, 1): "pair",
    (2, 2, 1): "two_pairs",
    (3, 1, 1): "three_of_a_kind",
    (3, 2): "full_house",
    (4, 1): "four_of_a_kind",
}
POKER_CLASSES = tuple(_RANK_PATTERNS.values())

RANKS = tuple(Number(n) for n in range(2, 11)) + tuple(
    Atom(a) for a in ("jack", "queen", "king", "ace")
)
SUITS = tuple(Atom(s) for s in ("hearts", "spades", "diamonds", "clubs"))
DECK = tuple((r, s) for r in RANKS for s in SUITS)


@dataclass
class GenSpec:
    domain: str  # a key of DOMAINS
    count: int
    seed: int
    balance: bool = False

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise DataError(f"unknown generator domain {self.domain!r}")
        if self.count < 1:
            raise DataError("example count must be at least 1")


def poker_hand_label(hand) -> str:
    pattern = tuple(sorted(Counter(r for r, _ in hand).values(), reverse=True))
    return _RANK_PATTERNS[pattern]


def poker_hand(rng) -> tuple[list[Literal], str]:
    """Five distinct cards, labelled from their rank multiset."""
    hand = rng.sample(DECK, 5)
    return [Literal("card", (r, s)) for r, s in hand], poker_hand_label(hand)


def bongard_scene(rng) -> tuple[list[Literal], str]:
    """One random scene; the label is pos iff some triangle is inside some
    object (containment edges always point from a higher-indexed object to a
    lower-indexed one, so the relation is acyclic)."""
    n = rng.randint(2, 6)
    shapes = [rng.choice(("circle", "triangle", "square")) for _ in range(n)]
    facts: list[Literal] = []
    for i, shape in enumerate(shapes):
        obj = Atom(f"o{i + 1}")
        facts.append(Literal(shape, (obj,)))
        if shape == "triangle":
            facts.append(Literal("points", (obj, Atom(rng.choice(("up", "down"))))))
    positive = False
    for i in range(1, n):
        if rng.random() < 0.45:
            j = rng.randrange(i)
            facts.append(Literal("inside", (Atom(f"o{i + 1}"), Atom(f"o{j + 1}"))))
            if shapes[i] == "triangle":
                positive = True
    return facts, ("pos" if positive else "neg")


# Each domain's classes and the function that draws one example from an RNG.
DOMAINS = {
    "poker": (POKER_CLASSES, poker_hand),
    "bongard": (("pos", "neg"), bongard_scene),
}


def generate(spec: GenSpec, out_path) -> Path:
    """Write ``spec.count`` examples of ``spec.domain`` as a block file, with
    ids 1 to count.  With ``balance``, example i is drawn again until its
    label is class ``(i - 1) % len(classes)`` of the domain."""
    classes, draw = DOMAINS[spec.domain]
    rng = random.Random(spec.seed)
    out_path = Path(out_path)
    with open(out_path, "w", encoding="utf-8") as f:
        for i in range(1, spec.count + 1):
            facts, label = draw(rng)
            while spec.balance and label != classes[(i - 1) % len(classes)]:
                facts, label = draw(rng)
            write_block(f, Number(i), [*facts, Literal(label, ())])
    return out_path


def replicate(data: DatasetHandle, k: int, out_dir) -> DatasetHandle:
    """Duplicate every example exactly ``k`` times under fresh unique ids
    (``rep(<original>, <copy>)``); the class histogram scales by exactly k."""
    if k < 1:
        raise DataError("replication factor must be at least 1")
    with ChunkWriter(out_dir, data.granularity) as writer:
        for _, e in data.stream_examples():
            for copy in range(1, k + 1):
                ident = Compound("rep", (e.ident, Number(copy)))
                writer.add(Interpretation(ident, e.label, e.groups))
        return writer.finish()
