"""Conjunctive query evaluation against one interpretation plus background.

``succeeds`` decides whether the existential closure of an ordered
conjunction of literals is provable from an example's ground facts together
with a Horn background program, by SLD resolution with left-to-right literal
selection and clause order as written.  Facts of the current example are
tried before background clauses for the same predicate.  A step budget turns
runaway recursion in background rules into a diagnosable
``BudgetExceededError`` instead of a hang.

Builtins: ``=`` unifies; ``\\=`` is syntactic disequality over ground terms;
``<  >  =<  >=`` compare numbers exactly.  A predicate with no facts in the
example and no background clauses simply fails: an example may lack facts a
bias mentions.  The engine keeps no state between proofs; predicates that no
example and no background clause defines are reported once per run, before
induction, by ``bias.prepare_bias``.

Coverage tests in a tree prove ``coverage_query(Q, C)`` rather than
``Q and C``.  This relies on one invariant of the tree: every example that
reaches a node satisfies the node's associated query ``Q`` (the root's is
empty, a left child's is ``Q`` plus the winning conjunction, a right child's
is its parent's ``Q``).  The literals of ``Q`` that no chain of shared
variables links to the candidate conjunction ``C`` then need no proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExceededError, DataError, QueryError
from .store import Interpretation
from .terms import (
    Clause,
    Compound,
    Literal,
    Number,
    Term,
    Variable,
    is_ground,
    literal_variables,
    read_clauses,
    render_literal,
    render_term,
)

DEFAULT_BUDGET = 100_000

_FAIL = object()


@dataclass(frozen=True, slots=True)
class Query:
    """An ordered conjunction of literals sharing variables."""

    literals: tuple[Literal, ...]

    def variables(self) -> list[str]:
        return literal_variables(self.literals)

    def __str__(self):
        return ", ".join(render_literal(l) for l in self.literals) or "true"



class Background:
    """Horn background program indexed by head predicate/arity."""

    def __init__(self, clauses: tuple[Clause, ...] = ()):
        self.clauses = clauses
        self._by_key: dict[tuple[str, int], list[Clause]] = {}
        for c in clauses:
            for lit in c.body:
                if lit.pred == "!":
                    raise DataError("background clauses cannot contain cuts")
            self._by_key.setdefault(c.head.key, []).append(c)

    def clauses_for(self, key: tuple[str, int]) -> list[Clause]:
        return self._by_key.get(key, [])


EMPTY_BACKGROUND = Background(())


def load_background(path) -> Background:
    with open(path, "r", encoding="utf-8") as f:
        return Background(tuple(clause for _, clause in read_clauses(f)))


class Budget:
    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        if steps <= 0:
            raise QueryError("resolution budget must be positive")
        self.remaining = steps

    def spend(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceededError("resolution step budget exhausted")


def _deref(t: Term, bind: dict) -> Term:
    while isinstance(t, Variable):
        nxt = bind.get(t.name)
        if nxt is None:
            return t
        t = nxt
    return t


def _resolve(t: Term, bind: dict) -> Term:
    t = _deref(t, bind)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_resolve(a, bind) for a in t.args))
    return t


def _occurs(name: str, t: Term, bind: dict) -> bool:
    t = _deref(t, bind)
    if isinstance(t, Variable):
        return t.name == name
    if isinstance(t, Compound):
        return any(_occurs(name, a, bind) for a in t.args)
    return False


class _Resolver:
    __slots__ = ("interp", "bg", "budget", "bind", "trail", "_fresh")

    def __init__(self, interp: Interpretation, bg: Background, budget: Budget):
        self.interp = interp
        self.bg = bg
        self.budget = budget
        self.bind: dict[str, Term] = {}
        self.trail: list[str] = []
        self._fresh = 0

    # -- unification ---------------------------------------------------

    def unify(self, a: Term, b: Term) -> bool:
        a = _deref(a, self.bind)
        b = _deref(b, self.bind)
        if a is b:
            return True
        if isinstance(a, Variable):
            if isinstance(b, Variable) and b.name == a.name:
                return True
            if _occurs(a.name, b, self.bind):
                return False
            self.bind[a.name] = b
            self.trail.append(a.name)
            return True
        if isinstance(b, Variable):
            if _occurs(b.name, a, self.bind):
                return False
            self.bind[b.name] = a
            self.trail.append(b.name)
            return True
        if isinstance(a, Compound):
            return (
                isinstance(b, Compound)
                and a.functor == b.functor
                and len(a.args) == len(b.args)
                and all(self.unify(x, y) for x, y in zip(a.args, b.args))
            )
        return a == b

    def undo(self, mark: int):
        while len(self.trail) > mark:
            del self.bind[self.trail.pop()]

    def _unify_args(self, xs, ys) -> bool:
        return all(self.unify(x, y) for x, y in zip(xs, ys))

    def _rename_clause(self, clause: Clause) -> tuple[Literal, tuple[Literal, ...]]:
        self._fresh += 1
        suffix = f"@{self._fresh}"
        mapping: dict[str, Variable] = {}

        def walk(t: Term) -> Term:
            if isinstance(t, Variable):
                v = mapping.get(t.name)
                if v is None:
                    v = Variable(t.name + suffix)
                    mapping[t.name] = v
                return v
            if isinstance(t, Compound):
                return Compound(t.functor, tuple(walk(a) for a in t.args))
            return t

        head = Literal(clause.head.pred, tuple(walk(a) for a in clause.head.args))
        body = tuple(
            Literal(l.pred, tuple(walk(a) for a in l.args), l.builtin) for l in clause.body
        )
        return head, body

    # -- resolution ------------------------------------------------------

    def _alternatives(self, lit: Literal, rest):
        """Yield successor goal lists for one selected literal.

        Each yield leaves the trail extended with the alternative's bindings;
        the driver undoes to the choice-point mark before asking for the next
        alternative, so only failed attempts are undone here.
        """
        if lit.builtin:
            self.budget.spend()
            mark = len(self.trail)
            if self._builtin(lit):
                yield rest
            else:
                self.undo(mark)
            return
        key = lit.key
        group = self.interp.group(key)
        clauses = self.bg.clauses_for(key)
        if group is not None:
            facts = group.facts
            if lit.args:
                a0 = _resolve(lit.args[0], self.bind)
                if is_ground(a0):
                    facts = group.by_first.get(a0, ())
            for fact in facts:
                self.budget.spend()
                mark = len(self.trail)
                if self._unify_args(lit.args, fact.args):
                    yield rest
                else:
                    self.undo(mark)
        for clause in clauses:
            self.budget.spend()
            mark = len(self.trail)
            head, body = self._rename_clause(clause)
            if self._unify_args(lit.args, head.args):
                goals = rest
                for l in reversed(body):
                    goals = (l, goals)
                yield goals
            else:
                self.undo(mark)

    def prove(self, literals: tuple[Literal, ...]):
        """Depth-first proof over an explicit choice-point stack (no Python
        recursion, so budget exhaustion surfaces before any stack limit).
        Yields once per solution; bindings are valid only during the yield.
        """
        goals = None
        for lit in reversed(literals):
            goals = (lit, goals)
        stack: list[tuple] = []
        while True:
            if goals is None:
                yield
            else:
                lit, rest = goals
                gen = self._alternatives(lit, rest)
                mark = len(self.trail)
                nxt = next(gen, _FAIL)
                if nxt is not _FAIL:
                    stack.append((gen, mark))
                    goals = nxt
                    continue
                self.undo(mark)
            while True:  # backtrack
                if not stack:
                    return
                gen, mark = stack[-1]
                self.undo(mark)
                nxt = next(gen, _FAIL)
                if nxt is _FAIL:
                    stack.pop()
                else:
                    goals = nxt
                    break

    def _builtin(self, lit: Literal) -> bool:
        a = _resolve(lit.args[0], self.bind)
        b = _resolve(lit.args[1], self.bind)
        op = lit.pred
        if op == "=":
            return self.unify(a, b)
        if op == "\\=":
            if not (is_ground(a) and is_ground(b)):
                raise QueryError(
                    f"\\= needs ground arguments, got {render_literal(lit)}"
                )
            return a != b
        if not (isinstance(a, Number) and isinstance(b, Number)):
            raise QueryError(f"{op} needs numeric arguments, got {render_literal(lit)}")
        if op == "<":
            return a.value < b.value
        if op == ">":
            return a.value > b.value
        if op == "=<":
            return a.value <= b.value
        if op == ">=":
            return a.value >= b.value
        raise QueryError(f"unknown builtin {op!r}")


def _prove(query: Query, interp: Interpretation, background, budget: int):
    """Prove ``query`` in ``interp`` plus background, yielding the bindings
    once per solution.  An exhausted step budget is reported with the
    example and the query it ran out on."""
    r = _Resolver(interp, background or EMPTY_BACKGROUND, Budget(budget))
    try:
        for _ in r.prove(query.literals):
            yield r.bind
    except BudgetExceededError:
        raise BudgetExceededError(
            f"resolution step budget of {budget} exhausted in example "
            f"{render_term(interp.ident)} on query {query}"
        ) from None


def succeeds(
    query: Query,
    interp: Interpretation,
    background: Background | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff the query is provable in the example plus background."""
    for _ in _prove(query, interp, background, budget):
        return True
    return False


def answer_all(
    query: Query,
    var: str,
    interp: Interpretation,
    background: Background | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[Term]:
    """Bindings of ``var`` over all solutions (duplicates kept, discovery
    order)."""
    if var not in query.variables():
        raise QueryError(f"variable {var} does not occur in the query")
    v = Variable(var)
    return [_resolve(v, bind) for bind in _prove(query, interp, background, budget)]


def coverage_query(query: Query, added: tuple[Literal, ...]) -> Query:
    """The query whose success decides ``query`` plus ``added`` on an
    example that satisfies ``query``: the literals of ``query`` linked to
    ``added`` by shared variables, directly or through other literals of
    ``query``, kept in their order, followed by ``added``.

    Precondition: the example satisfies ``query``.  The literals left out
    share no variable with what is kept, so they have a solution whatever
    the kept literals bind, and the two queries succeed on exactly the same
    such examples.  The depth-first proof of the result takes at most the
    steps of the proof of the whole conjunction: it is that proof with the
    independent literals, and their backtracking, taken out.
    """
    linked = set(literal_variables(added))
    names = [set(literal_variables((lit,))) for lit in query.literals]
    kept = [False] * len(names)
    grew = True
    while grew:
        grew = False
        for i, vs in enumerate(names):
            if not kept[i] and vs & linked:
                kept[i] = grew = True
                linked |= vs
    return Query(tuple(lit for lit, k in zip(query.literals, kept) if k) + tuple(added))


# ---------------------------------------------------------------------------
# One-way matching


def matches(patterns, targets) -> Iterator[dict[str, Term]]:
    """Substitutions that make every literal of ``patterns`` equal to some
    literal of ``targets`` (one-way matching: only the patterns' variables
    bind, and the targets' variables are rigid).

    Solutions come depth first: pattern literals left to right, each tried
    against the targets in order.  A substitution reached through two
    different choices of targets is yielded twice.
    """
    theta: dict[str, Term] = {}
    trail: list[str] = []
    by_key: dict[tuple[str, int, bool], list[Literal]] = {}
    for l in targets:
        by_key.setdefault((l.pred, len(l.args), l.builtin), []).append(l)

    def match(p: Term, t: Term) -> bool:
        # Pattern variables bind to final target subterms, never
        # dereferenced again.
        if isinstance(p, Variable):
            prev = theta.get(p.name)
            if prev is not None:
                return prev == t
            theta[p.name] = t
            trail.append(p.name)
            return True
        if isinstance(p, Compound):
            return (
                isinstance(t, Compound)
                and p.functor == t.functor
                and len(p.args) == len(t.args)
                and all(match(x, y) for x, y in zip(p.args, t.args))
            )
        return p == t

    def go(i: int):
        if i == len(patterns):
            yield dict(theta)
            return
        lit = patterns[i]
        for cand in by_key.get((lit.pred, len(lit.args), lit.builtin), ()):
            mark = len(trail)
            if all(match(x, y) for x, y in zip(lit.args, cand.args)):
                yield from go(i + 1)
            while len(trail) > mark:
                del theta[trail.pop()]

    return go(0)
