"""Conjunctive query evaluation against one interpretation plus background.

One evaluator proves every query: ``Pack(queries)`` compiles a list of
queries into one pack and ``Pack.run`` decides them all on one example in a
single depth-first walk.  The learner runs one pack per (example, node),
holding the coverage queries of the node's candidates; ``model.classify``
runs a one-query pack per node; ``succeeds`` and ``answer_all`` wrap a
one-query pack.

The pack is a trie over literal prefixes, so a prefix that several queries
share is proved once.  The walk reaches a query's end once per solution of
that query; reaching it marks the query as succeeded.  A subtree is pruned
once every query below it has succeeded, and the walk stops when every query
has.  Each query is proved by SLD resolution with left-to-right literal
selection and clause order as written.  Facts of the current example are
tried before background clauses for the same predicate, and the facts tried
are those whose first argument equals the literal's when that argument is
ground.  So a query meets its solutions in the same order inside a pack as
alone, and ``answer_all`` lists them in that order, duplicates included.

Variables are integer slots in one flat binding list; a trail records the
bindings to undo on backtracking.  Each literal is compiled once per pack and
background.  Every literal meets the example's facts through a fact plan:
its ground arguments must equal the fact's (the first argument, when ground,
picks the facts through the first-argument index), a slot it repeats must
meet equal arguments, its unbound slots take the fact's values, and an
argument that holds a compound with an unbound slot is a pattern that the
fact's argument must match.  Example facts are ground, so no occurs check is
needed.  A pack's literal whose predicate has no background clauses gets its
plan once, where the slots it sees are known along its trie path to be
unbound or bound to ground terms (a query's variables are bound to ground
subterms after a literal that only example facts prove).  Any other literal,
in a clause body, after a literal that background clauses prove, or with
clauses of its own, gets its plan when the walk reaches it, from its
arguments dereferenced.  The facts are tried first, through the plan, and
then the predicate's clauses.  Background clauses are compiled once and get
fresh variables by shifting their slots past the end of the binding list.  A
head of distinct variables (a linear head) binds each argument to its fresh
slot, or the slot to the argument, with no unification; other heads and
``=`` unify with the occurs check.  Builtins and run-time plans dereference
their arguments and rebuild a term only for a compound.  Choice points live
on an explicit stack: recursion in the background grows the stack, not the
Python call depth, so an exhausted budget surfaces before any stack limit.

A step is one fact tried, one clause tried or one builtin evaluated.  A pack
of k queries may spend k times ``budget`` steps on an example, and exhausting
them raises ``BudgetExceededError`` naming the example and the first undecided
query below the literal being proved; a builtin that cannot evaluate its
arguments raises ``QueryError`` naming the same.  A one-query pack spends
exactly the steps of the proof alone.  A k-query pack never spends more than
the k proofs alone: it goes on past a solution of a prefix only while some
query below that prefix is undecided, and that query's own proof meets the
same solution.  ``Pack.steps`` adds up the steps of every run.

Builtins: ``=`` unifies; ``\\=`` is syntactic disequality over ground terms;
``<  >  =<  >=`` compare numbers exactly.  A predicate with no facts in the
example and no background clauses simply fails: an example may lack facts a
bias mentions.  Predicates that no example and no background clause defines
are reported once per run, before induction, by ``bias.prepare_bias``.

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

from .errors import BudgetExceededError, DataError, QueryError, in_file
from .store import Interpretation
from .terms import (
    Clause,
    Compound,
    Literal,
    Number,
    Term,
    Variable,
    is_ground,
    line_pieces,
    literal_variables,
    read_clauses,
    render_literal,
    render_term,
)

DEFAULT_BUDGET = 100_000


@dataclass(frozen=True, slots=True)
class Query:
    """An ordered conjunction of literals sharing variables."""

    literals: tuple[Literal, ...]

    def variables(self) -> list[str]:
        return literal_variables(self.literals)

    def __str__(self):
        return ", ".join(render_literal(l) for l in self.literals) or "true"


# ---------------------------------------------------------------------------
# Compiled terms and literals
#
# A compiled term is a ground ``Term`` as it is, an ``int`` for a variable
# (its slot), or a ``_Struct`` for a compound with a variable in it.  A
# clause's slots count from 0 and are shifted by the offset of its frame; a
# pack's slots are absolute.  Bound values are ground terms, slots, or
# ``_Struct``s over absolute slots.


class _Struct:
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args


def _compile_term(t: Term, slots: dict[str, int]):
    if isinstance(t, Variable):
        s = slots.get(t.name)
        if s is None:
            s = slots[t.name] = len(slots)
        return s
    if isinstance(t, Compound):
        args = tuple(_compile_term(a, slots) for a in t.args)
        if any(type(a) is int or type(a) is _Struct for a in args):
            return _Struct(t.functor, args)
    return t


class _Lit:
    """A compiled literal.  ``plan`` is set for a pack's literal whose
    predicate has no clauses and whose arguments are constants and slots
    known to be unbound or bound to a ground term (see ``_fact_plan`` and
    ``_builtin_plan``); every other literal that is not a builtin gets its
    fact plan from ``_goal_plan`` when the walk reaches it."""

    __slots__ = ("lit", "key", "args", "op", "plan")

    def __init__(self, lit: Literal, slots: dict[str, int]):
        self.lit = lit
        self.key = lit.key
        self.args = tuple(_compile_term(a, slots) for a in lit.args)
        self.op = lit.pred if lit.builtin else None
        self.plan = None


class _Clause:
    """A compiled clause.  ``linear`` is set when the head's arguments are
    distinct variables in slot order, so that matching the head is binding
    each argument (see ``Pack._walk``)."""

    __slots__ = ("size", "head", "body", "linear")

    def __init__(self, clause: Clause):
        slots: dict[str, int] = {}
        self.head = tuple(_compile_term(a, slots) for a in clause.head.args)
        self.body = tuple(_Lit(l, slots) for l in clause.body)
        self.size = len(slots)
        self.linear = self.head == tuple(range(len(self.head)))


class Background:
    """Horn background program indexed by head predicate/arity, each clause
    compiled once."""

    def __init__(self, clauses: tuple[Clause, ...] = ()):
        self.clauses = clauses
        by_key: dict[tuple[str, int], list[_Clause]] = {}
        for c in clauses:
            for lit in c.body:
                if lit.pred == "!":
                    raise DataError("background clauses cannot contain cuts")
            by_key.setdefault(c.head.key, []).append(_Clause(c))
        self._by_key = {k: tuple(v) for k, v in by_key.items()}

    def clauses_for(self, key: tuple[str, int]) -> tuple:
        """The compiled clauses for ``key``, in program order."""
        return self._by_key.get(key, ())


EMPTY_BACKGROUND = Background(())


def load_background(path) -> Background:
    with in_file(path), open(path, "r", encoding="utf-8") as f:
        return Background(tuple(clause for _, clause in read_clauses(line_pieces(f))))


# ---------------------------------------------------------------------------
# Unification over the binding list


def _deref(t, b: list):
    while type(t) is int:
        v = b[t]
        if v is None:
            return t
        t = v
    return t


def _shift(t, off: int):
    if type(t) is int:
        return t + off
    if type(t) is _Struct:
        return _Struct(t.functor, tuple(_shift(a, off) for a in t.args))
    return t


def _undo(b: list, trail: list, mark: int):
    for s in trail[mark:]:
        b[s] = None
    del trail[mark:]


def _occurs(s: int, t, b: list) -> bool:
    t = _deref(t, b)
    if type(t) is int:
        return t == s
    if type(t) is _Struct:
        return any(_occurs(s, a, b) for a in t.args)
    return False


def _bind(s: int, t, b: list, trail: list):
    b[s] = t
    trail.append(s)


def _unify(x, y, b: list, trail: list) -> bool:
    x = _deref(x, b)
    y = _deref(y, b)
    if type(x) is int:
        if type(y) is int and x == y:
            return True
        if _occurs(x, y, b):
            return False
        _bind(x, y, b, trail)
        return True
    if type(y) is int:
        if _occurs(y, x, b):
            return False
        _bind(y, x, b, trail)
        return True
    if type(x) is _Struct or type(y) is _Struct:
        return (
            isinstance(x, (Compound, _Struct))
            and isinstance(y, (Compound, _Struct))
            and x.functor == y.functor
            and len(x.args) == len(y.args)
            and all(_unify(p, q, b, trail) for p, q in zip(x.args, y.args))
        )
    return x == y


def _match(t, g: Term, b: list, trail: list) -> bool:
    """Unify ``t`` with the ground term ``g`` (no occurs check needed)."""
    t = _deref(t, b)
    if type(t) is int:
        _bind(t, g, b, trail)
        return True
    if type(t) is _Struct:
        return (
            type(g) is Compound
            and g.functor == t.functor
            and len(g.args) == len(t.args)
            and all(_match(x, y, b, trail) for x, y in zip(t.args, g.args))
        )
    return t == g


def _term(t, b: list, names: list[str]) -> Term:
    """The term ``t`` stands for under the bindings; an unbound slot becomes
    the variable it was compiled from (``_G<slot>`` inside a clause)."""
    t = _deref(t, b)
    if type(t) is int:
        return Variable(names[t] if t < len(names) else f"_G{t}")
    if type(t) is _Struct:
        return Compound(t.functor, tuple(_term(a, b, names) for a in t.args))
    return t


def _ground(t, b: list, names: list[str]):
    """The ground term ``t`` stands for under the bindings, or None when it
    is not ground; only a compound is rebuilt as a ``Term``."""
    t = _deref(t, b)
    if type(t) is int:
        return None
    if type(t) is _Struct:
        t = _term(t, b, names)
        return t if is_ground(t) else None
    return t


def _test(op: str, x: Term | None, y: Term | None, lit: Literal) -> bool:
    """``\\=`` or a comparison between two ground terms (None where an
    argument is not ground)."""
    if op == "\\=":
        if x is None or y is None:
            raise QueryError(f"\\= needs ground arguments, got {render_literal(lit)}")
        return x != y
    if not (type(x) is Number and type(y) is Number):
        raise QueryError(f"{op} needs numeric arguments, got {render_literal(lit)}")
    if op == "<":
        return x.value < y.value
    if op == ">":
        return x.value > y.value
    if op == "=<":
        return x.value <= y.value
    if op == ">=":
        return x.value >= y.value
    raise QueryError(f"unknown builtin {op!r}")


def _scan(facts, i: int, want, sames, pats, b: list, trail: list) -> int:
    """Index of the first fact from ``i`` on (``facts`` holds argument
    tuples) with ``want``'s values at their positions, equal arguments at
    each pair of ``sames`` positions, and arguments that ``pats``' compiled
    terms match in order; ``len(facts)`` when there is none.  The matches
    with the fact found stay bound."""
    n = len(facts)
    while i < n:
        fa = facts[i]
        for p, v in want:
            if fa[p] != v:
                break
        else:
            if not sames or all(fa[p] == fa[q] for p, q in sames):
                if not pats:
                    return i
                mark = len(trail)
                if all(_match(t, fa[p], b, trail) for p, t in pats):
                    return i
                _undo(b, trail, mark)
        i += 1
    return n


def _builtin(g: _Lit, off: int, b: list, trail: list, names) -> bool:
    x, y = g.args
    if off:
        x, y = _shift(x, off), _shift(y, off)
    if g.op == "=":
        return _unify(x, y, b, trail)
    return _test(g.op, _ground(x, b, names), _ground(y, b, names), g.lit)


def _goal_plan(args: tuple, off: int, b: list, names: list[str]):
    """The fact plan of a literal with no static one, made when the walk
    reaches it: ``_fact_plan``'s ``(index, want, checks, binds, sames,
    pats)`` with every argument dereferenced, so ground values go to
    ``want`` (or the index) and ``checks`` is empty.  An argument that holds
    a compound with an unbound slot goes to ``pats``; then the unbound slots
    go there too, ahead of it, so ``_scan`` binds them before it matches the
    compounds, and ``binds`` is empty."""
    want, binds, sames, pats = [], [], [], []
    for p, a in enumerate(args):
        if type(a) is int:
            a = _deref(a + off, b)
            if type(a) is int:
                for q, s in binds:
                    if s == a:
                        sames.append((p, q))
                        break
                else:
                    binds.append((p, a))
                continue
        elif type(a) is _Struct and off:
            a = _shift(a, off)
        if type(a) is _Struct:
            t = _ground(a, b, names)
            if t is None:
                pats.append((p, a))
                continue
            a = t
        want.append((p, a))
    index = (False, want.pop(0)[1]) if want and want[0][0] == 0 else None
    if pats:
        return index, want, (), (), sames, binds + pats
    return index, want, (), binds, sames, ()


# ---------------------------------------------------------------------------
# Plans: what is known, along a path of the trie, about each slot

_DIRECT, _UNKNOWN = 1, 2  # bound to a ground term / anything; absent: unbound


def _known(a, state: dict) -> bool:
    """A constant, or a slot bound to a ground term."""
    return type(a) is not _Struct and (type(a) is not int or state.get(a) == _DIRECT)


def _builtin_plan(g: _Lit, state: dict):
    """For an argument pair that is all constants and ground-bound slots:
    ``(x, x_is_slot, y, y_is_slot, equal)``, where ``equal`` is what the
    builtin needs of ``x == y`` (True for ``=``, False for ``\\=``, None for a
    comparison)."""
    x, y = g.args
    if _known(x, state) and _known(y, state):
        equal = {"=": True, "\\=": False}.get(g.op)
        return (x, type(x) is int, y, type(y) is int, equal)
    return None


def _fact_plan(g: _Lit, state: dict, rules: dict):
    """For a literal that only facts prove, over constants and slots that are
    unbound or ground-bound: ``(index, want, checks, binds, sames, pats)``.

    ``index`` is None (scan every fact), ``(False, constant)`` or ``(True,
    slot)`` for the first-argument index key.  A fact must have ``want``'s
    constants and ``checks``' slot values at their positions (position 0 is
    left out when indexed), equal arguments at each pair of ``sames``
    positions, and then gives ``binds``' unbound slots their values.
    ``pats`` is always empty here (see ``_goal_plan``)."""
    if g.key in rules:
        return None
    want, checks, binds, sames, first = [], [], [], [], {}
    for p, a in enumerate(g.args):
        if type(a) is _Struct:
            return None
        if type(a) is not int:
            want.append((p, a))
        elif state.get(a) == _UNKNOWN:
            return None
        elif state.get(a) == _DIRECT:
            checks.append((p, a))
        elif a in first:
            sames.append((p, first[a]))
        else:
            first[a] = p
            binds.append((p, a))
    index = None
    if want and want[0][0] == 0:
        index = (False, want.pop(0)[1])
    elif checks and checks[0][0] == 0:
        index = (True, checks.pop(0)[1])
    return (index, tuple(want), tuple(checks), tuple(binds), tuple(sames), ())


def _after(g: _Lit, state: dict, rules: dict) -> dict:
    """The slot states once ``g`` has succeeded: a literal that only facts
    prove binds its unbound slots to ground terms; ``=`` and a literal with
    background clauses may leave them anything."""
    if g.op is not None and g.op != "=":
        return state
    slots: list[int] = []
    stack = list(g.args)
    while stack:
        a = stack.pop()
        if type(a) is int:
            slots.append(a)
        elif type(a) is _Struct:
            stack.extend(a.args)
    new = _DIRECT if g.op is None and g.key not in rules else _UNKNOWN
    out = dict(state)
    for s in slots:
        out.setdefault(s, new)
    return out


# ---------------------------------------------------------------------------
# Query packs


class _Node:
    """A trie node: the literals on its path are a prefix of every query in
    ``mask`` and the whole of every query in ``ends``.  ``entry`` is the goal
    list that proves the node's literal and then arrives at the node."""

    __slots__ = ("lit", "ends", "mask", "kids", "lone", "entry")

    def __init__(self, lit: _Lit | None):
        self.lit = lit
        self.ends = self.mask = 0
        self.kids: tuple[_Node, ...] = ()
        self.lone: _Node | None = None  # the kid, when there is just one
        self.entry = (lit, 0, (self, 0, None))


_BRANCH, _FACTS, _CLAUSES = 0, 1, 2  # choice point kinds


class Pack:
    """Queries compiled into one literal-prefix trie (see the module
    docstring); ``run`` decides them all on an example in one walk."""

    def __init__(self, queries):
        self.queries = tuple(queries)
        slots: dict[str, int] = {}
        self.root = _Node(None)
        index: dict[tuple[int, Literal], _Node] = {}
        for qi, query in enumerate(self.queries):
            bit = 1 << qi
            node = self.root
            node.mask |= bit
            for lit in query.literals:
                kid = index.get((id(node), lit))
                if kid is None:
                    kid = index[id(node), lit] = _Node(_Lit(lit, slots))
                    node.kids += (kid,)
                    node.lone = kid if len(node.kids) == 1 else None
                node = kid
                node.mask |= bit
            node.ends |= bit
        self.slots = slots
        self.names = list(slots)  # slot -> variable name
        self.full = (1 << len(self.queries)) - 1
        self.steps = 0
        self._background = None  # the background the plans were made for

    def _plan(self, background: Background):
        rules = background._by_key
        todo = [(self.root, {})]
        while todo:
            node, state = todo.pop()
            for kid in node.kids:
                g = kid.lit
                g.plan = _fact_plan(g, state, rules) if g.op is None else _builtin_plan(g, state)
                todo.append((kid, _after(g, state, rules)))
        self._background = background

    def run(
        self,
        interp: Interpretation,
        background: Background | None = None,
        budget: int = DEFAULT_BUDGET,
    ) -> int:
        """Outcome bits on one example: bit i is set when query i succeeds."""
        return self._walk(interp, background, budget, None)

    def _error(self, cls, what: str, interp, pending: int) -> QueryError:
        """The error ``cls`` for a walk that failed with ``what`` while
        proving for the undecided queries ``pending``: it names the example
        and the first of them."""
        first = (pending & -pending).bit_length() - 1
        return cls(f"{what} in example {render_term(interp.ident)} on query {self.queries[first]}")

    def _exhausted(self, interp, budget: int, pending: int) -> BudgetExceededError:
        k = len(self.queries)
        what = f"resolution step budget of {budget if k == 1 else f'{k} x {budget}'} exhausted"
        return self._error(BudgetExceededError, what, interp, pending)

    def _walk(self, interp, background, budget: int, sink) -> int:
        """The depth-first walk.  Without ``sink`` it decides the queries and
        returns their outcome bits.  With one, it calls ``sink(bindings)`` at
        every solution of every query and never prunes."""
        if budget <= 0:
            raise QueryError("resolution budget must be positive")
        bg = EMPTY_BACKGROUND if background is None else background
        if bg is not self._background:
            self._plan(bg)
        rules = bg._by_key
        groups = interp.groups
        names = self.names
        full = self.full
        limit = budget * len(self.queries)
        b: list = [None] * len(names)
        size = len(b)  # len(b), kept as clause frames extend it and backtracking cuts it
        trail: list[int] = []
        stack: list[list] = []
        steps = done = 0
        owner = self.root  # the trie node the current goals lead to
        goals = owner.entry[2]
        while True:
            g, off, rest = goals
            if type(g) is _Node:
                if sink is None:
                    done |= g.ends
                    if done == full:
                        break
                elif g.ends:
                    sink(b)
                # The walk reaches a node only while a query below it is
                # undecided, so a lone kid is still undecided.
                if g.lone is not None:
                    owner = g.lone
                    goals = owner.entry
                    continue
                if g.kids:
                    stack.append([_BRANCH, g, len(trail), size, iter(g.kids)])
            elif g.op is not None:
                steps += 1
                if steps > limit:
                    raise self._exhausted(interp, budget, owner.mask & ~done)
                plan = g.plan
                try:
                    if plan is None:
                        ok = _builtin(g, off, b, trail, names)
                    else:
                        x, xs, y, ys, equal = plan
                        x = b[x] if xs else x
                        y = b[y] if ys else y
                        ok = _test(g.op, x, y, g.lit) if equal is None else (x == y) is equal
                except QueryError as e:
                    raise self._error(QueryError, e.message, interp, owner.mask & ~done) from None
                if ok:
                    goals = rest
                    continue
            else:
                # Facts prove the literal through its plan (the static one,
                # else one made now), then its clauses: their choice point
                # goes below the facts' one, to resume once the facts are
                # spent.
                plan = g.plan
                if plan is None and g.key in rules:
                    args = g.args if not off else tuple(_shift(a, off) for a in g.args)
                    stack.append([_CLAUSES, owner, len(trail), size, 0, rules[g.key], args, rest])
                group = groups.get(g.key)
                if group is not None:
                    if plan is None:
                        plan = _goal_plan(g.args, off, b, names)
                    index, want, checks, binds, sames, pats = plan
                    if index is None:
                        facts = group.rows
                    else:
                        facts = group.first(b[index[1]] if index[0] else index[1])
                    if checks:
                        want = want + tuple((p, b[s]) for p, s in checks)
                    n = len(facts)
                    mark = len(trail)
                    i = _scan(facts, 0, want, sames, pats, b, trail) if want or sames or pats else 0
                    steps += i + 1 if i < n else n
                    if steps > limit:
                        raise self._exhausted(interp, budget, owner.mask & ~done)
                    if i < n:
                        if i + 1 < n:  # facts left to try on backtracking
                            stack.append([
                                _FACTS, owner, mark, size, i + 1,
                                facts, n, want, binds, sames, pats, rest,
                            ])
                        fa = facts[i]
                        for p, s in binds:
                            b[s] = fa[p]
                            trail.append(s)
                        goals = rest
                        continue

            # Backtrack: resume the newest choice point that still serves an
            # undecided query; leave the walk when none is left.  A choice
            # point holds its kind, its owner, the trail's and the binding
            # list's lengths to return to, and what is left to try: the index
            # of the next fact or clause, or an iterator over the kids.
            while stack:
                cp = stack[-1]
                mark = cp[2]
                _undo(b, trail, mark)
                if size > cp[3]:
                    size = cp[3]
                    del b[size:]
                if not cp[1].mask & ~done:
                    stack.pop()
                    continue
                kind = cp[0]
                if kind is _FACTS:
                    i, facts, n, want, binds, sames, pats = cp[4:11]
                    j = _scan(facts, i, want, sames, pats, b, trail) if want or sames or pats else i
                    steps += j + 1 - i if j < n else n - i
                    if steps > limit:
                        raise self._exhausted(interp, budget, cp[1].mask & ~done)
                    if j == n:
                        stack.pop()
                        continue
                    if j + 1 < n:
                        cp[4] = j + 1
                    else:
                        stack.pop()
                    fa = facts[j]
                    for p, s in binds:
                        b[s] = fa[p]
                        trail.append(s)
                    owner, goals = cp[1], cp[11]
                    break
                if kind is _CLAUSES:
                    i, clauses, args = cp[4], cp[5], cp[6]
                    while i < len(clauses):
                        c = clauses[i]
                        i += 1
                        steps += 1
                        if steps > limit:
                            raise self._exhausted(interp, budget, cp[1].mask & ~done)
                        top = size
                        size += c.size
                        b.extend([None] * c.size)
                        if c.linear:
                            # What ``_unify`` does against fresh slots: an
                            # unbound argument is bound to its head slot,
                            # anything else binds the head slot.
                            for s, x in enumerate(args, top):
                                x = _deref(x, b)
                                if type(x) is int:
                                    b[x] = s
                                    trail.append(x)
                                else:
                                    b[s] = x
                                    trail.append(s)
                        elif not all(
                            _unify(x, _shift(h, top), b, trail) for x, h in zip(args, c.head)
                        ):
                            _undo(b, trail, mark)
                            size = top
                            del b[top:]
                            continue
                        cp[4] = i
                        if i == len(clauses):
                            stack.pop()
                        owner, goals = cp[1], cp[7]
                        for lit in reversed(c.body):
                            goals = (lit, top, goals)
                        break
                    else:
                        stack.pop()
                        continue
                    break
                for kid in cp[4]:
                    if kid.mask & ~done:
                        owner = kid
                        goals = owner.entry
                        break
                else:
                    stack.pop()
                    continue
                break
            else:
                break
        self.steps += steps
        return done


def succeeds(
    query: Query,
    interp: Interpretation,
    background: Background | None = None,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """True iff the query is provable in the example plus background."""
    return Pack((query,)).run(interp, background, budget) == 1


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
    pack = Pack((query,))
    slot, names, out = pack.slots[var], pack.names, []
    pack._walk(interp, background, budget, lambda b: out.append(_term(slot, b, names)))
    return out


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
