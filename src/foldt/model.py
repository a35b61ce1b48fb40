"""First-order logical decision trees: structure, classification, decision
lists, and the model file format.

A tree is binary: internal nodes carry a conjunction of literals, leaves a
class label with the training class distribution.  A node's test is evaluated
as ``Q and conj`` where ``Q`` is the node's associated query (the conjunction
of left-taken ancestors' conjunctions); success extends ``Q`` and descends
left, failure descends right with ``Q`` unchanged.  So every example that
reaches a node satisfies its ``Q``, and ``classify`` proves only the node's
coverage query (``engine.coverage_query``), which leaves out the literals of
``Q`` that the conjunction does not reach.  Each such query is compiled
once per ``Model``, when it is built, into a one-query pack
(``engine.compile_pack``, ``Model.tests``), so ``classify`` runs one pack per
(example, node) on the evaluator the learner uses.  Exported as a decision
list, each leaf becomes one guarded clause ending in a cut, except the final
catch-all clause, and first-matching-clause evaluation agrees with tree
classification; ``eval_decision_list`` proves the full guards.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

from .engine import (
    DEFAULT_BUDGET,
    Background,
    Pack,
    Query,
    compile_pack,
    coverage_query,
    succeeds,
)
from .errors import ModelFormatError
from .settings import parse_settings
from .store import Interpretation
from .terms import Literal, parse_program, render_atom, render_conjunction

FORMAT_HEADER = "foldt-model v1"


@dataclass(frozen=True)
class Leaf:
    label: str
    counts: tuple[int, ...]  # aligned with the model's class list


@dataclass(frozen=True)
class INode:
    conj: tuple[Literal, ...]
    left: "FOLDT"
    right: "FOLDT"


FOLDT = Union[Leaf, INode]


@dataclass(frozen=True, slots=True)
class _Test:
    """An internal node as ``classify`` walks it: a one-query pack of the
    coverage query of the node's conjunction under its associated query."""

    pack: Pack
    left: "_Test | Leaf"
    right: "_Test | Leaf"


def _compile(node: FOLDT, q_lits: tuple[Literal, ...] = ()) -> _Test | Leaf:
    if isinstance(node, Leaf):
        return node
    return _Test(
        compile_pack((coverage_query(Query(q_lits), node.conj),)),
        _compile(node.left, q_lits + node.conj),
        _compile(node.right, q_lits),
    )


@dataclass(frozen=True)
class Model:
    tree: FOLDT
    classes: tuple[str, ...]
    bias_text: str  # settings snapshot; classification reproduces training's environment
    metadata: dict
    tests: _Test | Leaf = field(init=False, repr=False, compare=False)  # derived from tree

    def __post_init__(self):
        object.__setattr__(self, "tests", _compile(self.tree))


def tree_depth(tree: FOLDT) -> int:
    """Number of nodes on the longest root-to-leaf path (a lone leaf is 1)."""
    if isinstance(tree, Leaf):
        return 1
    return 1 + max(tree_depth(tree.left), tree_depth(tree.right))


def count_nodes(tree: FOLDT) -> tuple[int, int]:
    """(internal nodes, leaves)."""
    if isinstance(tree, Leaf):
        return 0, 1
    il, ll = count_nodes(tree.left)
    ir, lr = count_nodes(tree.right)
    return il + ir + 1, ll + lr


def classify(
    model: Model,
    interp: Interpretation,
    background: Background | None = None,
    budget: int = DEFAULT_BUDGET,
) -> str:
    node = model.tests
    while isinstance(node, _Test):
        node = node.left if node.pack.run(interp, background, budget) else node.right
    return node.label


@dataclass(frozen=True)
class DecisionRule:
    label: str
    guard: tuple[Literal, ...]
    cut: bool


def to_decision_list(model: Model) -> list[DecisionRule]:
    """Depth-first, left-before-right: one clause per leaf, guarded by the
    leaf's associated query.  The final clause is guard-free and carries no
    cut (the rightmost path never extends the associated query)."""
    rules: list[DecisionRule] = []

    def walk(node: FOLDT, q_lits: tuple[Literal, ...]):
        if isinstance(node, Leaf):
            rules.append(DecisionRule(node.label, q_lits, True))
            return
        walk(node.left, q_lits + node.conj)
        walk(node.right, q_lits)

    walk(model.tree, ())
    last = rules[-1]
    if not last.guard:
        rules[-1] = DecisionRule(last.label, (), False)
    return rules


def render_decision_list(rules: list[DecisionRule]) -> str:
    lines = []
    for r in rules:
        head = f"class({render_atom(r.label)})"
        parts = [render_conjunction(r.guard)] if r.guard else []
        if r.cut:
            parts.append("!")
        if parts:
            lines.append(f"{head} :- {', '.join(parts)}.")
        else:
            lines.append(f"{head}.")
    return "\n".join(lines) + "\n"


def eval_decision_list(
    rules: list[DecisionRule],
    interp: Interpretation,
    background: Background | None = None,
    budget: int = DEFAULT_BUDGET,
) -> str:
    """First-matching-clause semantics (what the cuts encode)."""
    for r in rules:
        if not r.guard or succeeds(Query(r.guard), interp, background, budget):
            return r.label
    raise ModelFormatError("decision list has no applicable clause")


# ---------------------------------------------------------------------------
# Serialization


def _tree_lines(tree: FOLDT, depth: int, out: list[str]):
    if isinstance(tree, Leaf):
        payload = json.dumps(
            {"label": tree.label, "counts": list(tree.counts)},
            separators=(",", ":"),
            sort_keys=True,
        )
        out.append(f"leaf {depth} {payload}")
    else:
        out.append(f"inode {depth} {render_conjunction(tree.conj)}")
        _tree_lines(tree.left, depth + 1, out)
        _tree_lines(tree.right, depth + 1, out)


def serialize(model: Model) -> str:
    meta_line = json.dumps(model.metadata, separators=(",", ":"), sort_keys=True)
    bias_lines = model.bias_text.rstrip("\n").split("\n")
    tree_lines: list[str] = []
    _tree_lines(model.tree, 0, tree_lines)
    dlist_lines = render_decision_list(to_decision_list(model)).rstrip("\n").split("\n")
    parts = [FORMAT_HEADER]
    for name, lines in (
        ("meta", [meta_line]),
        ("bias", bias_lines),
        ("tree", tree_lines),
        ("dlist", dlist_lines),
    ):
        parts.append(f"section {name} {len(lines)}")
        parts.extend(lines)
    return "\n".join(parts) + "\n"


def _parse_conj(text: str) -> tuple[Literal, ...]:
    return parse_program(f"x :- {text}.")[0].body


def _read_tree(lines: list[str], pos: int, depth: int, classes) -> tuple[FOLDT, int]:
    if pos >= len(lines):
        raise ModelFormatError("tree section truncated")
    parts = lines[pos].split(" ", 2)
    if len(parts) != 3 or parts[0] not in ("inode", "leaf"):
        raise ModelFormatError(f"malformed tree line: {lines[pos]!r}")
    if _int_field(parts[1], lines[pos]) != depth:
        raise ModelFormatError(f"tree line at wrong depth: {lines[pos]!r}")
    if parts[0] == "leaf":
        try:
            payload = json.loads(parts[2])
            leaf = Leaf(payload["label"], tuple(int(c) for c in payload["counts"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise ModelFormatError(f"malformed leaf line: {lines[pos]!r}") from e
        if leaf.label not in classes or len(leaf.counts) != len(classes):
            raise ModelFormatError(f"leaf inconsistent with class list: {lines[pos]!r}")
        return leaf, pos + 1
    conj = _parse_conj(parts[2])
    left, pos = _read_tree(lines, pos + 1, depth + 1, classes)
    right, pos = _read_tree(lines, pos, depth + 1, classes)
    return INode(conj, left, right), pos


def _int_field(field: str, line: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise ModelFormatError(f"expected an integer, found {field!r} in line {line!r}") from None


def deserialize(text: str) -> Model:
    lines = text.rstrip("\n").split("\n")
    if not lines or lines[0] != FORMAT_HEADER:
        if lines and lines[0].startswith("foldt-model"):
            raise ModelFormatError(f"unsupported model version: {lines[0]!r}")
        raise ModelFormatError("not a model file")
    sections: dict[str, list[str]] = {}
    i = 1
    for name in ("meta", "bias", "tree", "dlist"):
        if i >= len(lines):
            raise ModelFormatError(f"missing section {name!r}")
        parts = lines[i].split()
        if len(parts) != 3 or parts[0] != "section" or parts[1] != name:
            raise ModelFormatError(f"expected section {name!r}, found {lines[i]!r}")
        n = _int_field(parts[2], lines[i])
        if i + 1 + n > len(lines):
            raise ModelFormatError(f"section {name!r} truncated")
        sections[name] = lines[i + 1 : i + 1 + n]
        i += 1 + n
    if i != len(lines):
        raise ModelFormatError("trailing content after the last section")
    try:
        metadata = json.loads(sections["meta"][0])
    except (IndexError, json.JSONDecodeError) as e:
        raise ModelFormatError("malformed meta section") from e
    if not isinstance(metadata, dict):
        raise ModelFormatError(f"meta section is not a JSON object: {sections['meta'][0]!r}")
    budget = metadata.get("resolution_budget", DEFAULT_BUDGET)
    if type(budget) is not int or budget < 1:
        raise ModelFormatError(f"resolution_budget {budget!r} in meta is not a positive integer")
    bias_text = "\n".join(sections["bias"]) + "\n"
    settings = parse_settings(bias_text)
    tree, pos = _read_tree(sections["tree"], 0, 0, set(settings.classes))
    if pos != len(sections["tree"]):
        raise ModelFormatError("extra lines in tree section")
    model = Model(tree, settings.classes, bias_text, metadata)
    expected = render_decision_list(to_decision_list(model)).rstrip("\n").split("\n")
    if sections["dlist"] != expected:
        raise ModelFormatError("decision-list section does not match the tree")
    parse_program("\n".join(sections["dlist"]), allow_cut=True)
    return model


def save_model(model: Model, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize(model))


def load_model(path) -> Model:
    with open(path, "r", encoding="utf-8") as f:
        return deserialize(f.read())
