"""Synthetic interpretation generators and dataset replication.

Both generators are deterministic per seed: the same ``GenSpec`` always
produces a byte-identical file.  Poker hands are five distinct cards drawn
without replacement and labelled from the rank multiset (flushes and
straights are not separate classes); scenes contain circles, triangles, and
squares, triangles point up or down, and the containment relation is acyclic
by construction.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .store import ChunkWriter, DatasetHandle, Interpretation, write_block
from .terms import Atom, Compound, Literal, Number

POKER_CLASSES = (
    "nothing",
    "pair",
    "two_pairs",
    "three_of_a_kind",
    "full_house",
    "four_of_a_kind",
)

RANKS = tuple(Number(n) for n in range(2, 11)) + tuple(
    Atom(a) for a in ("jack", "queen", "king", "ace")
)
SUITS = tuple(Atom(s) for s in ("hearts", "spades", "diamonds", "clubs"))
DECK = tuple((r, s) for r in RANKS for s in SUITS)

_RANK_PATTERNS = {
    (4, 1): "four_of_a_kind",
    (3, 2): "full_house",
    (3, 1, 1): "three_of_a_kind",
    (2, 2, 1): "two_pairs",
    (2, 1, 1, 1): "pair",
    (1, 1, 1, 1, 1): "nothing",
}


@dataclass
class GenSpec:
    domain: str  # "poker" | "bongard"
    count: int
    seed: int
    balance: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise DataError("example count must be at least 1")


def poker_hand_label(hand) -> str:
    pattern = tuple(sorted(Counter(r for r, _ in hand).values(), reverse=True))
    return _RANK_PATTERNS[pattern]


def gen_poker(spec: GenSpec, out_path) -> Path:
    """Write ``spec.count`` random five-card hands as a block file."""
    rng = random.Random(spec.seed)
    out_path = Path(out_path)
    with open(out_path, "w", encoding="utf-8") as f:
        for i in range(1, spec.count + 1):
            if spec.balance:
                target = POKER_CLASSES[(i - 1) % len(POKER_CLASSES)]
                while True:
                    hand = rng.sample(DECK, 5)
                    if poker_hand_label(hand) == target:
                        break
                label = target
            else:
                hand = rng.sample(DECK, 5)
                label = poker_hand_label(hand)
            facts = [Literal("card", (r, s)) for r, s in hand]
            write_block(f, Number(i), [*facts, Literal(label, ())])
    return out_path


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


def gen_bongard(spec: GenSpec, out_path) -> Path:
    rng = random.Random(spec.seed)
    out_path = Path(out_path)
    with open(out_path, "w", encoding="utf-8") as f:
        for i in range(1, spec.count + 1):
            if spec.balance:
                target = "pos" if i % 2 else "neg"
                while True:
                    facts, label = bongard_scene(rng)
                    if label == target:
                        break
            else:
                facts, label = bongard_scene(rng)
            write_block(f, Number(i), [*facts, Literal(label, ())])
    return out_path


def generate(spec: GenSpec, out_path) -> Path:
    if spec.domain == "poker":
        return gen_poker(spec, out_path)
    if spec.domain == "bongard":
        return gen_bongard(spec, out_path)
    raise DataError(f"unknown generator domain {spec.domain!r}")


def replicate(data: DatasetHandle, k: int, out_dir) -> DatasetHandle:
    """Duplicate every example exactly ``k`` times under fresh unique ids
    (``rep(<original>, <copy>)``); the class histogram scales by exactly k."""
    if k < 1:
        raise DataError("replication factor must be at least 1")
    with ChunkWriter(out_dir, data.granularity) as writer:
        for _, e in data.stream_examples():
            for copy in range(1, k + 1):
                ident = Compound("rep", (e.ident, Number(copy)))
                writer.add(Interpretation.from_groups(ident, e.label, e.groups))
        return writer.finish()
