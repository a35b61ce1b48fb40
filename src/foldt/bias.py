"""The refinement operator and numeric discretization.

``refinements`` maps a node's associated query to the ordered list of
candidate extensions allowed by the rmode declarations: input-moded template
arguments range over the type-compatible variables already in the query,
output-moded arguments get fresh variables, and ``+-`` arguments take both
options.  Distinct formals always map to distinct variables (write the same
formal twice to force sharing).  Every candidate extends the query by the
instantiated template, so each one is theta-subsumed by its parent query.

Fresh variables are named ``A``, ``B``, ... by first occurrence, starting
from the context's ``name_base`` (the number of variable names consumed along
the path from the root).  Carrying the base in the node state keeps names
deterministic, makes the two induction engines produce byte-identical trees,
and guarantees that a name introduced by a node's conjunction can never
reappear in that node's right subtree.  As the base is past every variable of
the query, candidates equal up to renaming their new variables are literally
equal: the added conjunction is its own key for removing duplicates.

Numeric thresholds come from ``discretize(Query, Var)`` declarations: the
query runs in every example, each collected value's occurrences are counted
per example class, and cut points are chosen by recursive entropy minimization
with the minimum-description-length stopping rule, capped at
``max_thresholds`` (highest-gain cuts kept first).  A template containing the
placeholder ``threshold(K)`` expands to one candidate per cut point of the
K-th declaration.

``prepare_bias`` runs once per learning run, before induction, and warns once
for each predicate that the bias or a background clause body queries but that
neither the dataset's facts nor a background clause head defines.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .engine import Pack, Query, matches
from .errors import DataError
from .settings import DiscretizeRequest, LearnerConfig, Settings, is_threshold, threshold_indices
from .terms import (
    Compound,
    Literal,
    Number,
    Variable,
    map_literals,
    render_term,
    term_variables,
)

log = logging.getLogger(__name__)

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def fresh_name(i: int) -> str:
    return _LETTERS[i % 26] + (str(i // 26) if i >= 26 else "")


@dataclass
class Bias:
    """Settings plus the computed cut lists, ready for refinement generation."""

    settings: Settings
    cuts: dict[int, tuple[float, ...]]  # 1-based discretize index -> cut points

    @cached_property
    def templates(self) -> tuple:
        """Per rmode: its formals and its template's threshold indices."""
        return tuple(
            (_formal_specs(rm, self.settings), threshold_indices(rm.template))
            for rm in self.settings.rmodes
        )


@dataclass
class RefinementContext:
    query: Query
    usage: tuple[int, ...]  # per-rmode occurrence counts along the path
    name_base: int


@dataclass
class Candidate:
    query: Query  # the full refined query
    added: tuple[Literal, ...]  # conjunction appended to the associated query
    rmode_index: int


def used_predicates(settings: Settings, background=None) -> dict[tuple[str, int], list[str]]:
    """Each non-builtin predicate/arity pair that an rmode template, a
    lookahead, a discretize query or a background clause body queries,
    mapped to the places that use it, in declaration order."""
    places = [(f"rmode {i}", rm.template) for i, rm in enumerate(settings.rmodes, 1)]
    places += [
        (f"lookahead {i}", la.trigger + la.extension)
        for i, la in enumerate(settings.lookaheads, 1)
    ]
    places += [(f"discretize {i}", dr.query) for i, dr in enumerate(settings.discretize, 1)]
    places += [
        (f"the background clause for {c.head.pred}/{len(c.head.args)}", c.body)
        for c in (background.clauses if background is not None else ())
    ]
    uses: dict[tuple[str, int], list[str]] = {}
    for where, literals in places:
        for l in literals:
            if not l.builtin and where not in uses.setdefault(l.key, []):
                uses[l.key].append(where)
    return uses


def prepare_bias(settings, data, background=None) -> Bias:
    """Check the predicates the run queries against ``data.predicates`` and
    the background, then compute the discretize thresholds under the run's
    configuration, ``settings.params``."""
    for key, wheres in used_predicates(settings, background).items():
        if key not in data.predicates and not (background and background.clauses_for(key)):
            log.warning(
                "predicate %s/%d, used in %s, has no facts in any example and no "
                "background clauses, so it always fails",
                key[0],
                key[1],
                ", ".join(wheres),
            )
    cuts = {
        k: discretize(request, data, background, settings.params)
        for k, request in enumerate(settings.discretize, 1)
    }
    return Bias(settings, cuts)


def infer_var_types(query: Query, settings: Settings) -> dict[str, str | None]:
    """A variable's type is the declared type of the argument position where
    it first occurred; undeclared positions give the universal type (None)."""
    types: dict[str, str | None] = {}
    for lit in query.literals:
        decl = None if lit.builtin else settings.types.get(lit.key)
        for pos, arg in enumerate(lit.args):
            if isinstance(arg, Variable):
                if arg.name not in types:
                    types[arg.name] = decl[pos] if decl else None
            elif isinstance(arg, Compound):
                for v in term_variables(arg):
                    types.setdefault(v, None)
    return types


def _type_ok(var_type, formal_type) -> bool:
    return var_type is None or formal_type is None or var_type == formal_type


def _formal_specs(rmode, settings) -> list[tuple[str, str, str | None]]:
    """(name, mode, type) per formal, in first-occurrence order."""
    specs = []
    seen = set()
    for lit in rmode.template:
        decl = None if lit.builtin else settings.types.get(lit.key)
        for pos, arg in enumerate(lit.args):
            for name in term_variables(arg):
                if name not in seen:
                    seen.add(name)
                    ftype = decl[pos] if decl and isinstance(arg, Variable) else None
                    specs.append((name, rmode.modes[name], ftype))
    return specs


_FRESH = object()


def _assignments(formals, qvars, vtypes):
    """Enumerate injective formal->actual assignments in deterministic order:
    existing variables in query order, then a fresh variable for +- modes."""
    out = []

    def go(i, used, acc):
        if i == len(formals):
            out.append(dict(acc))
            return
        name, mode, ftype = formals[i]
        if mode in ("+", "+-"):
            for v in qvars:
                if v in used or not _type_ok(vtypes.get(v), ftype):
                    continue
                acc.append((name, v))
                go(i + 1, used | {v}, acc)
                acc.pop()
        if mode in ("-", "+-"):
            acc.append((name, _FRESH))
            go(i + 1, used, acc)
            acc.pop()

    go(0, frozenset(), [])
    return out


def _instantiate(template, assignment, name_base):
    """Apply a formal->actual assignment, numbering fresh variables from
    ``name_base`` in formal order; returns (literals, fresh_count)."""
    names = {}
    fresh = 0
    for formal, actual in assignment.items():
        if actual is _FRESH:
            actual = fresh_name(name_base + fresh)
            fresh += 1
        names[formal] = Variable(actual)
    lits = map_literals(template, lambda t: names[t.name] if isinstance(t, Variable) else None)
    return lits, fresh


def _expand_thresholds(literals, ks: list[int], bias: Bias):
    """``literals`` once per combination of cuts for the ``threshold(K)``
    placeholders whose indices ``ks`` lists."""
    if not ks:
        return [literals]
    expanded = []
    for combo in itertools.product(*(bias.cuts.get(k, ()) for k in ks)):
        cuts = iter(combo)
        expanded.append(
            map_literals(literals, lambda t: Number(next(cuts)) if is_threshold(t) else None)
        )
    return expanded


def lookahead_extensions(added, bias: Bias, name_base: int, fresh_used: int):
    """Extension conjunctions triggered by an added conjunction, one list per
    matching lookahead declaration/substitution (one level, no chaining)."""
    extensions = []
    for la in bias.settings.lookaheads:
        seen: list[dict] = []
        for sigma in matches(la.trigger, added):
            if sigma in seen:
                continue
            seen.append(sigma)
            names = dict(sigma)
            fresh = itertools.count(name_base + fresh_used)

            def bind(t):
                if not isinstance(t, Variable):
                    return None
                if t.name not in names:
                    names[t.name] = Variable(fresh_name(next(fresh)))
                return names[t.name]

            extensions.append(map_literals(la.extension, bind))
    return extensions


def refinements(ctx: RefinementContext, bias: Bias) -> list[Candidate]:
    """All candidate queries derivable from the associated query, in
    deterministic order: rmode declaration order, then instantiation
    enumeration order, with lookahead extensions right after their trigger
    candidate.  Duplicates up to renaming of the new variables are removed
    by their literals, which needs ``ctx.name_base`` past every variable of
    the query (see the module docstring)."""
    settings = bias.settings
    out: list[Candidate] = []
    seen: set[tuple[Literal, ...]] = set()
    qvars = ctx.query.variables()
    vtypes = infer_var_types(ctx.query, settings)

    for ri, rm in enumerate(settings.rmodes):
        if ctx.usage[ri] >= rm.count:
            continue
        formals, ks = bias.templates[ri]
        for assignment in _assignments(formals, qvars, vtypes):
            base_added, fresh_used = _instantiate(rm.template, assignment, ctx.name_base)
            for added in _expand_thresholds(base_added, ks, bias):
                extensions = lookahead_extensions(added, bias, ctx.name_base, fresh_used)
                for conj in [added, *(added + ext for ext in extensions)]:
                    if conj not in seen:
                        seen.add(conj)
                        out.append(Candidate(Query(ctx.query.literals + conj), conj, ri))
    return out


# ---------------------------------------------------------------------------
# Discretization (entropy minimization with the MDL stopping rule)


def entropy(counts) -> float:
    """Class entropy in bits (of a split branch, or of a discretization
    interval)."""
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def weighted_entropy(left, right) -> float:
    n = sum(left) + sum(right)
    nl = sum(left)
    return (nl / n) * entropy(left) + ((n - nl) / n) * entropy(right)


def _classes_present(counts) -> int:
    return sum(1 for c in counts if c)


def fayyad_irani_cuts(counts, max_cuts: int) -> list[float]:
    """Cut points for the values ``counts`` maps, each to a ``Counter`` of
    the labels it occurs with.

    Candidate cuts are midpoints between adjacent distinct values.  Each
    interval's best cut (minimum weighted class entropy, leftmost on ties) is
    kept when its gain clears the MDL criterion; accepted intervals recurse.
    When ``max_cuts`` binds, the highest-gain cuts are kept.
    """
    if max_cuts <= 0:
        return []
    labels = sorted({lbl for c in counts.values() for lbl in c})
    pts = sorted((v, [c[lbl] for lbl in labels]) for v, c in counts.items())
    k = len(pts)
    nclasses = len(labels)
    prefix = [[0] * nclasses]
    for _, row in pts:
        prefix.append([a + b for a, b in zip(prefix[-1], row)])

    def seg(lo, hi):
        return [prefix[hi][c] - prefix[lo][c] for c in range(nclasses)]

    def best_split(lo, hi):
        """(gain, boundary, accepted) for the interval of point indices
        [lo, hi); boundary b cuts between pts[b-1] and pts[b]."""
        parent = seg(lo, hi)
        n = sum(parent)
        ent = entropy(parent)
        best = None
        for b in range(lo + 1, hi):
            left = seg(lo, b)
            right = seg(b, hi)
            w = weighted_entropy(left, right)
            if best is None or w < best[0] - 1e-12:
                best = (w, b, left, right)
        if best is None:
            return None
        w, b, left, right = best
        gain = ent - w
        kc = _classes_present(parent)
        delta = math.log2(3**kc - 2) - (
            kc * ent - _classes_present(left) * entropy(left) - _classes_present(right) * entropy(right)
        )
        accepted = gain > (math.log2(n - 1) + delta) / n
        return gain, b, accepted

    heap: list[tuple[float, int, int, int]] = []

    def push(lo, hi):
        if hi - lo < 2:
            return
        found = best_split(lo, hi)
        if found and found[2]:
            heapq.heappush(heap, (-found[0], lo, hi, found[1]))

    push(0, k)
    cuts: list[float] = []
    while heap and len(cuts) < max_cuts:
        _, lo, hi, b = heapq.heappop(heap)
        cuts.append((pts[b - 1][0] + pts[b][0]) / 2)
        push(lo, b)
        push(b, hi)
    return sorted(cuts)


def discretize(request: DiscretizeRequest, data, background, cfg: LearnerConfig) -> tuple[float, ...]:
    """Count the variable's bindings over all examples, per value and
    example class, and derive the sorted cut points, at most
    ``cfg.max_thresholds`` of them, each query under ``cfg.resolution_budget``."""
    query = Query(request.query)
    pack = Pack((query,))
    counts: dict[float, Counter] = {}
    for _, interp in data.stream_examples():
        for t in pack.answers(request.var, interp, background, cfg.resolution_budget):
            if not isinstance(t, Number):
                raise DataError(
                    f"discretize({query}, {request.var}) collected the non-numeric value "
                    f"{render_term(t)} in example {render_term(interp.ident)}"
                )
            counts.setdefault(float(t.value), Counter())[interp.label] += 1
    if cfg.max_thresholds <= 0:
        return ()
    if not counts:
        raise DataError(f"discretize({query}, {request.var}) collected no values")
    return tuple(fayyad_irani_cuts(counts, cfg.max_thresholds))
