"""Tree induction: the depth-first classic engine and the level-wise
large-dataset (LDS) engine, one algorithm reaching its examples two ways.

Everything that shapes the tree is shared.  A node that is not a forced leaf
gets the refinement candidates of its associated query (``_open``).  Every
example that reaches a node satisfies the node's associated query ``Q``:
the root's ``Q`` is empty, a left child's is ``Q`` plus the winner's
conjunction, and a right child's is its parent's.  So a candidate is decided
by its coverage query (``engine.coverage_query``), which leaves out the
literals of ``Q`` that the candidate's conjunction does not reach; the
candidate's full query becomes the left child's ``Q``.

Each coverage query is decided at most once per example.  An example
carries path bits: its outcome for every distinct coverage query decided on
its path from the root.  A node's table (``decided``) maps the key of each
such query (``_query_key``: variables renamed by first occurrence, literal
order kept) to its position in the path bits.  A candidate whose key the
table holds reads that outcome; a coverage query is the same closed query
at every node, so it holds on the same examples.  This is common: a right
child keeps its parent's ``Q`` and rmode usage, and a conjunction that
shares no variable with ``Q`` has the same coverage query at every depth.
Only the remaining queries are compiled into the node's query pack
(``engine.compile_pack``), whose outcomes take the next positions.  Each
example reaching the node runs that pack once, if there is one, and adds
its class to the counters ``counter[candidate][branch][class]``
(``_evaluate``).  ``evaluations`` counts the (example, query) outcomes the
packs proved, ``reused`` those read from the path bits, and ``proof_steps``
the steps the packs spent.  ``choose_split`` picks the winner from the
counters alone, and ``_split`` makes the two children, which inherit the
node's table.  Selection considers only admissible candidates: positive
gain and at least ``minleaf`` examples on each side.  Without that validity
filter the gain ratio favors degenerate near-empty splits (a split isolating
one example of a rare class scores a ratio of ~1.0), which would then be
vetoed and turn the node into a leaf prematurely; a node becomes a leaf only
when no admissible candidate exists.

The classic engine keeps every example and its path bits resident and
recurses depth-first, partitioning the examples of a node by the winner's
outcome bit.

The LDS engine builds one tree level per streaming pass, and the path bits
travel on disk.  A pass reads the previous pass's spill file, one record
(ordinal, class index, path bits) per example that was at a node with
candidates.  The path bits say where the example is: from the root, each
internal node sends it to the child its winner's outcome names
(``_reached``), and a record whose node is a leaf is skipped.  The pass
merge-joins the rest, in ordinal order, with the stream of the examples
whose node has a pack, which a second reader of the spill lists: only those
are decoded, and a node whose candidates all reuse outcomes counts its
examples from their records alone.  A level whose nodes all reuse their
outcomes streams no example and opens no chunk.  The pass writes each
example's record, with its new path bits, to the next spill file, in a
directory of its own in the system temporary directory, and deletes the
spill it read.  Splitting a node moves no example, so no routing pass or
second pass over the data is needed.  Every level costs exactly one pass,
including the final all-leaf level, so the pass count equals the depth of
the finished tree (counted in node levels).

Memory at any moment is one chunk of examples (bounded by the store's
granularity), the tree, and the counters and tables of one level, which
scale with nodes-per-level times candidates-per-node.  Nothing is kept per
example, so memory does not grow with the number of examples.

Both engines make identical decisions from identical integer counters, and
fresh variable names are derived from path-local state, so the two engines
produce structurally identical trees (same splits, conjunctions, variable
names, and leaf distributions) for the same inputs.
"""

from __future__ import annotations

import logging
import math
import os
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
from .store import META_NAME, DatasetHandle
from .terms import Literal, Variable, map_literals

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
    reused: int = 0
    eval_seconds: float = 0.0
    nodes_evaluated: int = 0
    candidates_generated: int = 0
    proof_steps: int = 0
    levels: list = field(default_factory=list)


def _query_key(query: Query) -> tuple[Literal, ...]:
    """``query`` with its variables renamed V0, V1, ... by first occurrence
    and its literal order kept.  Two queries with one key are the same up to
    renaming, so they hold on the same examples."""
    names: dict[str, Variable] = {}

    def rename(t):
        if isinstance(t, Variable):
            return names.setdefault(t.name, Variable(f"V{len(names)}"))
        return None

    return map_literals(query.literals, rename)


@dataclass(eq=False)
class _Node:
    """A tree node under construction.  ``usage`` (uses of each rmode on the
    path from the root) and ``name_base`` (index of the next fresh variable
    name) are path-local, so both engines name variables alike.  So is
    ``decided``: the key (``_query_key``) of each coverage query decided on
    the path from the root, mapped to the position of its outcome in the
    path bits of the examples that reach the node."""

    query: Query
    usage: tuple[int, ...]
    name_base: int
    depth: int
    counts: tuple[int, ...]
    decided: dict[tuple[Literal, ...], int] | None
    candidates: list[Candidate] | None = None  # set while the node is evaluated
    positions: list[int] | None = None  # per candidate: the position of its outcome
    base: int = 0  # the position of the outcome of the pack's first query
    pack: Pack | None = None  # the coverage queries the path has not decided, if any
    counters: list | None = None  # per candidate: [left per-class, right per-class]
    win_bit: int | None = None  # the position of the winner's outcome, once split
    conj: tuple = ()  # the winner's added conjunction
    kids: tuple[_Node, _Node] | None = None


def _open(node: _Node, cfg: LearnerConfig, bias, stats: BuildStats) -> bool:
    """Give the node its candidates, the position of each one's outcome,
    the pack of the coverage queries its path has not decided and zeroed
    counters; False when it is a leaf without evaluation (forced, or no
    refinement applies).  The node's examples are counted as proving the
    pack's queries and reusing the other candidates' outcomes."""
    inherited, node.decided = node.decided, None
    if _forced_leaf(node.counts, node.depth, cfg):
        return False
    ctx = RefinementContext(node.query, node.usage, node.name_base)
    node.candidates = refinements(ctx, bias) or None
    if node.candidates is None:
        return False
    decided = dict(inherited)  # the sibling shares the inherited table
    fresh = []
    node.positions = []
    for c in node.candidates:
        query = coverage_query(node.query, c.added)
        key = _query_key(query)
        if key not in decided:
            decided[key] = len(decided)
            fresh.append(query)
        node.positions.append(decided[key])
    node.base, node.decided = len(inherited), decided
    node.pack = compile_pack(fresh) if fresh else None
    nclasses = len(node.counts)
    node.counters = [[[0] * nclasses, [0] * nclasses] for _ in node.candidates]
    examples = sum(node.counts)
    stats.nodes_evaluated += 1
    stats.candidates_generated += len(node.candidates)
    stats.evaluations += examples * len(fresh)
    stats.reused += examples * (len(node.candidates) - len(fresh))
    return True


def _evaluate(node: _Node, example, cls: int, bits: int, background, budget: int) -> int:
    """Evaluate the node's candidates on one example of class index ``cls``
    that satisfies the node's associated query and brings the path bits
    ``bits``; ``example`` is read only when the node has a pack.  The pack
    adds its outcomes to the bits, the example is counted in each
    candidate's succeeding or failing branch, and the new bits are
    returned."""
    if node.pack is not None:
        bits |= node.pack.run(example, background, budget) << node.base
    for pos, (left, right) in zip(node.positions, node.counters):
        (left if bits >> pos & 1 else right)[cls] += 1
    return bits


def _close(node: _Node, stats: BuildStats):
    """Drop an evaluated node's candidates, pack, counters and table, and
    add the steps its pack spent to the run's proof steps."""
    if node.pack is not None:
        stats.proof_steps += node.pack.steps
    node.candidates = node.positions = node.pack = node.counters = node.decided = None


def _split(node: _Node, cfg: LearnerConfig, data: DatasetHandle) -> int | None:
    """Decide an evaluated node from its counters.  When a candidate is
    admissible the node becomes internal with two children (left: the
    candidate succeeds), which inherit its table, and the position of the
    winner's outcome is returned.  A candidate's two branches count each of
    the node's examples once; only the root's counts, read from the store's
    metadata, can differ from their sum."""
    counted = tuple(map(sum, zip(*node.counters[0])))
    if counted != node.counts:
        raise DataError(
            f"class counts in {data.dir / META_NAME} are {node.counts}, not the examples' {counted}"
        )
    w = choose_split(node.counts, node.counters, cfg)
    if w is None:
        return None
    winner = node.candidates[w]
    fresh = len(winner.query.variables()) - len(node.query.variables())
    usage = tuple(u + 1 if ri == winner.rmode_index else u for ri, u in enumerate(node.usage))
    base = node.name_base + fresh
    left, right = node.counters[w]
    node.win_bit, node.conj = node.positions[w], winner.added
    node.kids = (
        _Node(winner.query, usage, base, node.depth + 1, tuple(left), node.decided),
        _Node(node.query, node.usage, base, node.depth + 1, tuple(right), node.decided),
    )
    return node.win_bit


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
        "reused": stats.reused,
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
    bits = [0] * len(examples)  # each example's path bits
    stats.passes = 1

    def grow(node: _Node, idxs):
        if not _open(node, cfg, bias, stats):
            return
        t0 = time.perf_counter()
        for i in idxs:
            bits[i] = _evaluate(
                node, examples[i], labels[i], bits[i], background, cfg.resolution_budget
            )
        stats.eval_seconds += time.perf_counter() - t0
        pos = _split(node, cfg, data)
        _close(node, stats)
        if pos is None:
            return
        left, right = node.kids
        grow(left, [i for i in idxs if bits[i] >> pos & 1])
        grow(right, [i for i in idxs if not bits[i] >> pos & 1])

    grow(root, range(len(examples)))


# ---------------------------------------------------------------------------
# LDS engine

# A spill record: an example's ordinal and class index, then its path bits in
# a width fixed per file.
_RECORD = struct.Struct("<II")


def _spill_records(path, width: int, total: int):
    """The ``(ordinal, class index, path bits)`` records of the spill file
    ``path``; before the first spill (``path`` None), every example's, at
    the root with no path bits."""
    if path is None:
        yield from ((o, None, 0) for o in range(total))
        return
    size = _RECORD.size + width
    with open(path, "rb") as spill:
        while record := spill.read(size):
            ordinal, cls = _RECORD.unpack_from(record)
            yield ordinal, cls, int.from_bytes(record[_RECORD.size :], "little")


def _reached(node: _Node, bits: int) -> _Node:
    """The node an example with path bits ``bits`` reaches from ``node``:
    each split node sends it to the child its winner's outcome names."""
    while node.kids is not None:
        node = node.kids[0 if bits >> node.win_bit & 1 else 1]
    return node


def _grow_lds(root, data, background, cidx, cfg, bias, stats):
    frontier = [root]
    budget = cfg.resolution_budget
    with tempfile.TemporaryDirectory() as tmp:
        spill = spill_width = None  # the previous pass's spill file and its path-bit width
        while frontier:
            stats.passes += 1
            level_wall0 = time.perf_counter()
            before = stats.evaluations, stats.reused, stats.proof_steps
            evaluable = [n for n in frontier if _open(n, cfg, bias, stats)]
            candidates = sum(len(n.candidates) for n in evaluable)
            width = (max((len(n.decided) for n in evaluable), default=0) + 7) // 8

            # One pass: the previous pass's records merge-joined in ordinal
            # order with the stream of the examples whose node has a pack,
            # which a second reader of the spill lists.  Always exactly one
            # stream per level, even when it lists no example.
            ordinals = ()
            if any(n.pack is not None for n in evaluable):
                records = _spill_records(spill, spill_width, len(data))
                ordinals = (o for o, _, bits in records if _reached(root, bits).pack is not None)
            stream = data.stream_examples(ordinals)
            out_path = os.path.join(tmp, f"level{stats.passes}")
            touched, decode = 0, 0.0
            pass_t0 = time.perf_counter()
            with open(out_path, "wb") as out:
                for ordinal, cls, bits in _spill_records(spill, spill_width, len(data)):
                    node = _reached(root, bits)
                    if node.candidates is None:  # the example reached a leaf
                        continue
                    e = None
                    if node.pack is not None:
                        t0 = time.perf_counter()
                        _, e = next(stream)
                        decode += time.perf_counter() - t0
                        touched += 1
                        cls = cidx[e.label]
                    bits = _evaluate(node, e, cls, bits, background, budget)
                    out.write(_RECORD.pack(ordinal, cls) + bits.to_bytes(width, "little"))
            t0 = time.perf_counter()
            next(stream, None)  # ends the pass, and starts it when no record read it
            decode += time.perf_counter() - t0
            if spill is not None:
                os.unlink(spill)
            spill, spill_width = out_path, width
            pass_seconds = time.perf_counter() - pass_t0
            stats.eval_seconds += pass_seconds

            t0 = time.perf_counter()
            new_frontier: list[_Node] = []
            for n in evaluable:
                if _split(n, cfg, data) is not None:
                    new_frontier.extend(n.kids)
                _close(n, stats)
            decide = time.perf_counter() - t0
            level_wall = time.perf_counter() - level_wall0
            evaluations, reused, steps = (
                now - then
                for now, then in zip((stats.evaluations, stats.reused, stats.proof_steps), before)
            )
            stats.levels.append(
                {
                    "level": stats.passes,
                    "open_nodes": len(frontier),
                    "evaluated_nodes": len(evaluable),
                    "candidates": candidates,
                    "examples_touched": touched,
                    "evaluations": evaluations,
                    "reused": reused,
                    "proof_steps": steps,
                    "decode_seconds": decode,
                    "eval_seconds": pass_seconds - decode,
                    "decide_seconds": decide,
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
    root = _Node(Query(()), (0,) * len(settings.rmodes), 0, 0, _root_counts(data, classes), {})
    stats = BuildStats()
    _ENGINES[cfg.algorithm](root, data, background, settings.class_index(), cfg, bias, stats)
    tree = _tree(root, classes)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    meta = _metadata(cfg, data, stats, tree, wall, cpu)
    return Model(tree, classes, render_settings(settings), meta)
