"""Tree induction: the depth-first classic engine and the level-wise
large-dataset (LDS) engine, one algorithm reaching its examples two ways.

Everything that shapes the tree is shared.  A node that is not a forced leaf
gets the refinement candidates of its associated query, and their coverage
tests are compiled once into one query pack (``_open``,
``engine.compile_pack``).  Each example reaching the node runs that pack
once (``_evaluate``: one pack per example), which decides every candidate in
one walk, adds the example's class to the counters
``counter[candidate][branch][class]`` and yields its outcome bits.  The
steps the node's pack spent go to the ``proof_steps`` of the run and of its
level.  ``choose_split`` picks the winner from the counters alone, and
``_split`` makes the two children.  Selection considers only admissible
candidates: positive gain and at least ``minleaf`` examples on each side.
Without that validity filter the gain ratio favors degenerate near-empty
splits (a split isolating one example of a rare class scores a ratio of
~1.0), which would then be vetoed and turn the node into a leaf prematurely;
a node becomes a leaf only when no admissible candidate exists.

Every example that reaches a node satisfies its associated query ``Q``: the
root's ``Q`` is empty, a left child's is ``Q`` plus the winner's
conjunction, and a right child's is its parent's.  So a test proves the
candidate's coverage query (``engine.coverage_query``, computed once per
candidate in ``_open``), which leaves out the literals of ``Q`` that the
candidate's conjunction does not reach; the candidate's full query becomes
the left child's ``Q``.

The classic engine keeps every example resident and recurses depth-first,
partitioning the examples of a node by the winner's outcome bit.

The LDS engine builds one tree level per streaming pass.  A pass streams
only the examples whose node has candidates, and spills each one's outcome
bits to a temporary file in the system temporary directory.  After the pass
each open node either becomes a leaf or an internal node; examples are then
routed to children straight from the spilled bits of the winning candidate,
so no second pass over the data is needed.  Every level costs exactly one
pass, including the final all-leaf level, so the pass count equals the depth
of the finished tree (counted in node levels).

Memory at any moment is one chunk of examples (bounded by the store's
granularity) plus the counters of one level, which scale with nodes-per-level
times candidates-per-node, never with the number of examples.  The
example-to-node assignment is one reference per example; an example whose
node became a leaf keeps pointing at it, and a leaf has no candidates.

Both engines make identical decisions from identical integer counters, and
fresh variable names are derived from path-local state, so the two engines
produce structurally identical trees (same splits, conjunctions, variable
names, and leaf distributions) for the same inputs.
"""

from __future__ import annotations

import logging
import math
import struct
import tempfile
import time
from dataclasses import dataclass, field, replace

from .bias import (
    Candidate,
    RefinementContext,
    entropy,
    prepare_bias,
    refinements,
    weighted_entropy,
)
from .engine import Background, Pack, Query, compile_pack, coverage_query
from .errors import DataError
from .model import FOLDT, INode, Leaf, Model, count_nodes, tree_depth
from .settings import LearnerConfig, Settings, render_settings
from .store import DatasetHandle

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Heuristics and the split decision


def gain_of(parent, left, right) -> float:
    return entropy(parent) - weighted_entropy(left, right)


def score(heuristic: str, parent, left, right) -> float | None:
    """The value of ``heuristic`` (one of ``settings.HEURISTICS``) for a
    split; None rejects the candidate (gain ratio is undefined when the split
    puts everything on one side)."""
    if sum(parent) == 0:
        raise DataError("empty parent distribution")
    w = weighted_entropy(left, right)
    if heuristic == "weighted_entropy":
        return w
    gain = entropy(parent) - w
    if heuristic == "gain":
        return gain
    n = sum(parent)
    splitinfo = 0.0
    for nb in (sum(left), sum(right)):
        if nb:
            splitinfo -= (nb / n) * math.log2(nb / n)
    if splitinfo == 0.0:
        return None
    return gain / splitinfo


def choose_split(counts, counters, cfg: LearnerConfig) -> int | None:
    """Index of the winning candidate at a node with class distribution
    ``counts``, or None when no candidate is admissible.  ``counters[i]`` is
    candidate i's pair of per-class counts (succeeding, failing).

    A candidate is admissible when its gain exceeds ``gain_epsilon``, both
    branches hold at least one and at least ``minleaf`` examples, and
    ``score`` does not reject it.  The highest score wins (the lowest for
    weighted entropy) under strict comparison, so ties go to the earliest
    candidate in generation order."""
    minimize = cfg.heuristic == "weighted_entropy"
    best = best_s = None
    for i, (left, right) in enumerate(counters):
        if min(sum(left), sum(right)) < max(1, cfg.minleaf):
            continue
        if gain_of(counts, left, right) <= cfg.gain_epsilon:
            continue
        s = score(cfg.heuristic, counts, left, right)
        if s is None:
            continue
        if best is None or (s < best_s if minimize else s > best_s):
            best, best_s = i, s
    return best


def majority_class(counts, classes) -> str:
    total = sum(counts)
    if total == 0:
        raise DataError("empty class distribution")
    best = max(range(len(counts)), key=lambda i: (counts[i], -i))
    return classes[best]


def _forced_leaf(counts, depth: int, config: LearnerConfig) -> bool:
    """Decisions that need no candidate evaluation: a pure node can never
    gain, a node below 2*minleaf cannot split without starving a branch, and
    the depth cap forces a leaf.  Full evaluation would reach the same
    conclusion, so both engines apply the same shortcut."""
    if sum(1 for c in counts if c) <= 1:
        return True
    if sum(counts) < 2 * config.minleaf:
        return True
    return config.max_depth is not None and depth >= config.max_depth


# ---------------------------------------------------------------------------
# The induction step shared by both engines


@dataclass
class BuildStats:
    passes: int = 0
    evaluations: int = 0
    eval_seconds: float = 0.0
    nodes_evaluated: int = 0
    candidates_generated: int = 0
    proof_steps: int = 0
    levels: list = field(default_factory=list)


@dataclass(eq=False)
class _Node:
    """A tree node under construction.  ``usage`` (uses of each rmode on the
    path from the root) and ``name_base`` (index of the next fresh variable
    name) are path-local, so both engines name variables alike."""

    query: Query
    usage: tuple[int, ...]
    name_base: int
    depth: int
    counts: tuple[int, ...]
    candidates: list[Candidate] | None = None  # set while the node is evaluated
    pack: Pack | None = None  # the candidates' coverage queries, in candidate order
    counters: list | None = None  # per candidate: [left per-class, right per-class]
    winner: int | None = None  # index of the winning candidate, once split
    conj: tuple = ()  # the winner's added conjunction
    kids: tuple[_Node, _Node] | None = None


def _open(node: _Node, cfg: LearnerConfig, bias, stats: BuildStats) -> bool:
    """Give the node its candidates, the pack of their coverage queries and
    zeroed counters; False when it is a leaf without evaluation (forced, or
    no refinement applies)."""
    if _forced_leaf(node.counts, node.depth, cfg):
        return False
    ctx = RefinementContext(node.query, node.usage, node.name_base)
    node.candidates = refinements(ctx, bias) or None
    if node.candidates is None:
        return False
    stats.nodes_evaluated += 1
    stats.candidates_generated += len(node.candidates)
    node.pack = compile_pack(coverage_query(node.query, c.added) for c in node.candidates)
    nclasses = len(node.counts)
    node.counters = [[[0] * nclasses, [0] * nclasses] for _ in node.candidates]
    return True


def _evaluate(pack: Pack, example, cls: int, counters, background, budget: int) -> int:
    """Run the node's pack on one example of class index ``cls`` that
    satisfies the node's associated query: count the example in each
    candidate's succeeding or failing branch, and return the outcome bits
    (bit i set when candidate i succeeds)."""
    bits = pack.run(example, background, budget)
    for ci, (left, right) in enumerate(counters):
        (left if bits >> ci & 1 else right)[cls] += 1
    return bits


def _close(node: _Node, stats: BuildStats) -> int:
    """Drop an evaluated node's candidates, pack and counters, and return
    the proof steps its pack spent."""
    steps = node.pack.steps
    stats.proof_steps += steps
    node.candidates = node.pack = node.counters = None
    return steps


def _split(node: _Node, cfg: LearnerConfig) -> int | None:
    """Decide an evaluated node from its counters.  When a candidate is
    admissible the node becomes internal with two children (left: the
    candidate succeeds) and the winner's index is returned."""
    w = choose_split(node.counts, node.counters, cfg)
    if w is None:
        return None
    winner = node.candidates[w]
    fresh = len(winner.query.variables()) - len(node.query.variables())
    usage = tuple(u + 1 if ri == winner.rmode_index else u for ri, u in enumerate(node.usage))
    base = node.name_base + fresh
    left, right = node.counters[w]
    node.winner, node.conj = w, winner.added
    node.kids = (
        _Node(winner.query, usage, base, node.depth + 1, tuple(left)),
        _Node(node.query, node.usage, base, node.depth + 1, tuple(right)),
    )
    return w


def _tree(node: _Node, classes) -> FOLDT:
    if node.kids is None:
        return Leaf(majority_class(node.counts, classes), node.counts)
    left, right = node.kids
    return INode(node.conj, _tree(left, classes), _tree(right, classes))


def _root_counts(data: DatasetHandle, classes) -> tuple[int, ...]:
    unknown = set(data.class_counts) - set(classes)
    if unknown:
        raise DataError(f"dataset labels not in the declared classes: {sorted(unknown)}")
    return tuple(data.class_counts.get(c, 0) for c in classes)


def _metadata(cfg, data, stats, tree, wall, cpu) -> dict:
    inodes, leaves = count_nodes(tree)
    return {
        "algorithm": cfg.algorithm,
        "heuristic": cfg.heuristic,
        "minleaf": cfg.minleaf,
        "gain_epsilon": cfg.gain_epsilon,
        "resolution_budget": cfg.resolution_budget,
        "granularity": cfg.granularity,
        "max_depth": cfg.max_depth,
        "examples": len(data),
        "dataset_fingerprint": data.fingerprint,
        "tree_depth": tree_depth(tree),
        "internal_nodes": inodes,
        "leaves": leaves,
        "passes": stats.passes,
        "evaluations": stats.evaluations,
        "nodes_evaluated": stats.nodes_evaluated,
        "candidates_generated": stats.candidates_generated,
        "eval_seconds": stats.eval_seconds,
        "proof_steps": stats.proof_steps,
        "induction_wall_seconds": wall,
        "induction_cpu_seconds": cpu,
        "levels": stats.levels,
    }


# ---------------------------------------------------------------------------
# Classic engine


def _grow_classic(root, data, background, cidx, cfg, bias, stats):
    examples = [e for _, e in data.stream_examples()]
    labels = [cidx[e.label] for e in examples]
    stats.passes = 1

    def grow(node: _Node, idxs):
        if not _open(node, cfg, bias, stats):
            return
        t0 = time.perf_counter()
        bits = [
            _evaluate(
                node.pack, examples[i], labels[i], node.counters,
                background, cfg.resolution_budget,
            )
            for i in idxs
        ]
        stats.evaluations += len(idxs) * len(node.candidates)
        stats.eval_seconds += time.perf_counter() - t0
        w = _split(node, cfg)
        _close(node, stats)
        if w is None:
            return
        left, right = node.kids
        grow(left, [i for i, b in zip(idxs, bits) if b >> w & 1])
        grow(right, [i for i, b in zip(idxs, bits) if not b >> w & 1])

    grow(root, range(len(examples)))


# ---------------------------------------------------------------------------
# LDS engine


def _grow_lds(root, data, background, cidx, cfg, bias, stats):
    assignment = [root] * len(data)
    frontier = [root]
    while frontier:
        stats.passes += 1
        level_wall0 = time.perf_counter()
        evaluable = [n for n in frontier if _open(n, cfg, bias, stats)]
        candidates = sum(len(n.candidates) for n in evaluable)

        # One pass over the examples whose node has candidates; always exactly
        # one per level, since the final all-leaf level is decided by its own.
        touched = 0
        evals_before = stats.evaluations
        eval_t0 = time.perf_counter()
        with tempfile.TemporaryFile() as spill:
            for ordinal, e in data.stream_examples(
                lambda o: assignment[o].candidates is not None
            ):
                touched += 1
                node = assignment[ordinal]
                bits = _evaluate(
                    node.pack, e, cidx[e.label], node.counters,
                    background, cfg.resolution_budget,
                )
                stats.evaluations += len(node.candidates)
                nbytes = (len(node.candidates) + 7) // 8
                spill.write(struct.pack("<I", ordinal) + bits.to_bytes(nbytes, "little"))
            stats.eval_seconds += time.perf_counter() - eval_t0

            new_frontier: list[_Node] = []
            for n in evaluable:
                if _split(n, cfg) is not None:
                    new_frontier.extend(n.kids)

            # Route examples to children from the spilled outcome bits of each
            # node's winning candidate; no re-evaluation pass.
            spill.seek(0)
            header = spill.read(4)
            while header:
                (ordinal,) = struct.unpack("<I", header)
                node = assignment[ordinal]
                bits = int.from_bytes(spill.read((len(node.candidates) + 7) // 8), "little")
                if node.kids is not None:
                    left, right = node.kids
                    assignment[ordinal] = left if bits >> node.winner & 1 else right
                header = spill.read(4)

        # Drop the level's candidates and counters before the next level's are
        # built; a node without candidates selects no example.
        steps = sum(_close(n, stats) for n in evaluable)
        level_wall = time.perf_counter() - level_wall0
        stats.levels.append(
            {
                "level": stats.passes,
                "open_nodes": len(frontier),
                "evaluated_nodes": len(evaluable),
                "candidates": candidates,
                "examples_touched": touched,
                "evaluations": stats.evaluations - evals_before,
                "proof_steps": steps,
                "pass_wall_seconds": level_wall,
            }
        )
        log.info(
            "level %d: open=%d evaluated=%d examples=%d pass=%.3fs",
            stats.passes, len(frontier), len(evaluable), touched, level_wall,
        )
        frontier = new_frontier


_ENGINES = {"classic": _grow_classic, "lds": _grow_lds}


def learn(
    data: DatasetHandle,
    background: Background | None,
    settings: Settings,
    config: LearnerConfig | None = None,
) -> Model:
    """Grow a tree with the engine ``config.algorithm`` names (``config``
    defaults to the settings' parameters) and wrap it in a model.  The run's
    configuration is ``config`` with the store's granularity; the bias
    computation reads it, and the model's bias section and ``meta`` record
    it."""
    cfg = replace(config or settings.params, granularity=data.granularity)
    settings = replace(settings, params=cfg)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    bias = prepare_bias(settings, data, background)
    classes = settings.classes
    root = _Node(Query(()), (0,) * len(settings.rmodes), 0, 0, _root_counts(data, classes))
    stats = BuildStats()
    _ENGINES[cfg.algorithm](root, data, background, settings.class_index(), cfg, bias, stats)
    tree = _tree(root, classes)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    meta = _metadata(cfg, data, stats, tree, wall, cpu)
    return Model(tree, classes, render_settings(settings), meta)
