"""Conjunctive query evaluation against one interpretation plus background.

One evaluator decides every query: ``Pack(queries)`` compiles a list of
queries into one pack and ``Pack.run`` decides them all on one example in a
single depth-first walk.  The learner runs one pack per (example, node),
holding the coverage queries of the node's candidates; ``model.classify``
runs a one-query pack per node and ``model.eval_decision_list`` one per
rule, each built once.  ``succeeds`` builds a one-query pack per call.
``answers`` lists a variable's bindings for a one-query pack by running the
SLD machine over the whole query, without generating the pack's walk;
``bias.discretize`` builds its pack once per request, and ``answer_all``
once per call.

The pack is a trie over literal prefixes, so a prefix that several queries
share is proved once.  The walk reaches a query's end once per solution of
that query; reaching it marks the query as succeeded.  A subtree is pruned
once every query below it has succeeded, and the walk stops when every query
has.  Each query is proved by SLD resolution with left-to-right literal
selection and clause order as written.  Facts of the current example are
tried before background clauses for the same predicate, and the facts tried
are those whose first argument equals the literal's when that argument is
ground.  So a query meets its solutions in the same order inside a pack as
alone, and ``answers``, proving it on the machine, lists them in that
order, duplicates included.

A pack is compiled to Python code.  The first time it runs against a
background, ``_generate`` writes one function for its trie and builds it with
``compile`` and ``exec``.  Variables are integer slots; along each trie path
it is known which slots are bound to ground terms (a query's variables are,
after a literal that only example facts prove).  A literal whose predicate
has no background clauses and whose arguments are constants and such slots
or unbound ones has a static plan, and becomes a ``for`` loop over the
example's facts of its predicate, or over those whose first argument its
ground first argument picks from the example's first-argument index
(``Interpretation.firsts``, built once per example and key, so the packs
run on one example share it), whose ``get`` the function binds once per
run: its other ground arguments and repeated slots become comparisons, and
the slots it binds become Python locals.  A builtin over constants and
ground-bound slots becomes an ``if``.  Each loop's body is
the code of its trie node: reaching a query's end marks it succeeded, the
function returns once every query has, and a loop is left once every query
below its node has succeeded.  A path that nests too deep goes on in a
function of its own, so no function nears CPython's limits on nested blocks
and indentation.  Writing and compiling a pack's function costs about
0.3 ms for one three-literal query and 1 ms for the four queries (27
literals) of the poker root, against a few microseconds per example for the
walk.  A pack keeps its walk for the background it last ran against, so
each pack compiles once, and every learn or classification pays for the
packs it builds.

A literal with background clauses over constants and such slots compiles
inline when its clauses do (``_Writer.clauses``): none of them is recursive,
each head is distinct variables, and once the head's variables stand for the
literal's arguments, every body literal has a static plan and the body binds
every argument that was unbound.  The literal becomes a loop over the
example's facts of its predicate and then, for each clause in order, one
step, a budget check and the body's loops and ``if``s, whose own variables
are fresh locals; a body literal whose clauses compile inline is inlined the
same way.  What follows a solution of such a literal is one function that the
fact loop and each clause body call, so the code grows linearly with the
literals and not by a factor per clause.  The Bongard background's
``polygon/1`` and ``doubletriangle/2`` compile this way.

Every other literal (one whose clauses are recursive, have a head that is not
distinct variables or a body with a compound or a variable no literal binds;
one after a literal whose slots may be bound to anything; one that must match
a compound pattern) is a loop over the solutions of ``_solve``, an
explicit-stack SLD machine, started on the goal list of that one literal.
``answers`` starts it on the goal list of the whole query, and at each
solution renders the variable's binding, naming a slot left unbound after
its query variable, or ``_G<slot>`` for a slot of a clause frame.  The
machine keeps the slots in one flat binding list with a trail of the
bindings to undo on backtracking.  A goal pushes a choice point for the
predicate's clauses and, above it, one for the example's facts: those that
its first argument picks when that argument is ground now (``_goal_plan``),
else all of them.  Every fact, the first as well as those tried on
backtracking, is tried the same way: its arguments are unified with the
goal's others (``_scan``).  Background clauses are compiled once and get
fresh variables by shifting their slots past the end of the binding list.
The machine binds one way: fact arguments, clause heads and ``=`` all go
through ``_unify``, with the occurs check.  Builtins dereference their
arguments and rebuild a term only for a compound.  Recursion in the
background grows the machine's stack, not the Python call depth, and the
occurs check keeps a stack of its own, but unifying two compounds and
rebuilding a term (for a builtin or an answer) recurse: a term nested deeper
than Python's recursion limit allows raises ``QueryError`` ("term nested too
deeply") there, where the budget has not run out first.

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
    """A compiled literal: ``op`` is the builtin's name, None for a literal
    that facts and clauses prove."""

    __slots__ = ("lit", "key", "args", "op")

    def __init__(self, lit: Literal, slots: dict[str, int]):
        self.lit = lit
        self.key = lit.key
        self.args = tuple(_compile_term(a, slots) for a in lit.args)
        self.op = lit.pred if lit.builtin else None

    def renamed(self, args: tuple) -> _Lit:
        """The same literal over the compiled terms ``args``."""
        out = object.__new__(_Lit)
        out.lit, out.key, out.args, out.op = self.lit, self.key, args, self.op
        return out


class _Clause:
    """A compiled clause.  ``linear`` is set when the head's arguments are
    distinct variables in slot order: such a clause may compile inline into
    a generated walk (``_Writer.clauses``)."""

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
        return Background(tuple(read_clauses(line_pieces(f))))


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
    """Whether the slot ``s`` occurs in ``t`` under the bindings.  The walk
    keeps its own stack, so a term of any depth can be bound."""
    stack = [t]
    while stack:
        t = _deref(stack.pop(), b)
        if type(t) is int:
            if t == s:
                return True
        elif type(t) is _Struct:
            stack.extend(t.args)
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


def _scan(facts, i: int, pats, b: list, trail: list) -> int:
    """Index of the first fact from ``i`` on (``facts`` holds argument
    tuples) whose arguments ``pats``' compiled terms unify with in order;
    ``len(facts)`` when there is none.  The bindings made with the fact
    found stay."""
    n = len(facts)
    mark = len(trail)
    while i < n:
        fa = facts[i]
        if all(_unify(t, fa[p], b, trail) for p, t in pats):
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
    """How the machine tries the example's facts of a literal with the
    arguments ``args`` in the frame at ``off``: ``(index, pats)``.  ``index``
    is the first argument when it is ground under the bindings, and picks
    the facts tried; else it is None and every fact is tried.  ``pats``
    holds each other argument's position and shifted compiled term, for
    ``_scan`` to match."""
    pats = [(p, _shift(a, off)) for p, a in enumerate(args)]
    index = _ground(pats[0][1], b, names) if pats else None
    if index is not None:
        del pats[0]
    return index, pats


# ---------------------------------------------------------------------------
# Static plans: what is known, along a path of the trie, about each slot
#
# A slot that the path binds to a ground term is _DIRECT: the generated walk
# holds its value in a Python local.  One that a literal proved by the
# machine may bind to anything is _UNKNOWN: its value lives in the binding
# list.  A slot that is absent is unbound.

_DIRECT, _UNKNOWN = 1, 2


def _known(a, state: dict) -> bool:
    """A constant, or a slot bound to a ground term."""
    return type(a) is not _Struct and (type(a) is not int or state.get(a) == _DIRECT)


def _builtin_plan(g: _Lit, state: dict):
    """For an argument pair that is all constants and ground-bound slots:
    ``(x, y, equal)``, where ``equal`` is what the builtin needs of ``x ==
    y`` (True for ``=``, False for ``\\=``, None for a comparison)."""
    x, y = g.args
    if _known(x, state) and _known(y, state):
        return (x, y, {"=": True, "\\=": False}.get(g.op))
    return None


def _fact_plan(g: _Lit, state: dict):
    """For the example's facts of a literal over constants and slots that are
    unbound or ground-bound: ``(index, want, checks, binds, sames)``.

    ``index`` is None (scan every fact), ``(False, constant)`` or ``(True,
    slot)`` for the first-argument index key.  A fact must have ``want``'s
    constants and ``checks``' slot values at their positions (position 0 is
    left out when indexed), equal arguments at each pair of ``sames``
    positions, and then gives ``binds``' unbound slots their values."""
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
    return index, want, checks, binds, sames


def _after(g: _Lit, state: dict, new: int) -> dict:
    """The slot states once ``g`` has succeeded: its unbound slots become
    ``new`` (_DIRECT where static loops or facts bound them, _UNKNOWN where
    ``=`` or clauses the machine tried may have bound them to anything); a
    builtin other than ``=`` binds none."""
    if g.op is not None and g.op != "=":
        return state
    out = dict(state)
    for s in _slots(g.args):
        out.setdefault(s, new)
    return out


def _slots(args) -> list[int]:
    """The slots that compiled terms ``args`` hold, compounds included."""
    slots: list[int] = []
    stack = list(args)
    while stack:
        a = stack.pop()
        if type(a) is int:
            slots.append(a)
        elif type(a) is _Struct:
            stack.extend(a.args)
    return slots


# ---------------------------------------------------------------------------
# Query packs


class _Node:
    """A trie node: the literals on its path are a prefix of every query in
    ``mask`` and the whole of every query in ``ends``."""

    __slots__ = ("lit", "ends", "mask", "kids")

    def __init__(self, lit: _Lit | None):
        self.lit = lit
        self.ends = self.mask = 0
        self.kids: tuple[_Node, ...] = ()


class Pack:
    """Queries compiled into one literal-prefix trie (see the module
    docstring); ``run`` decides them all on an example in one walk,
    generated once per background."""

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
                node = kid
                node.mask |= bit
            node.ends |= bit
        self.slots = slots
        self.names = list(slots)  # slot -> variable name
        self.full = (1 << len(self.queries)) - 1
        self.steps = 0
        self._background = None  # the background the walk was generated for
        self._walk = None

    def run(
        self,
        interp: Interpretation,
        background: Background | None = None,
        budget: int = DEFAULT_BUDGET,
    ) -> int:
        """Outcome bits on one example: bit i is set when query i succeeds."""
        if budget <= 0:
            raise QueryError("resolution budget must be positive")
        bg = EMPTY_BACKGROUND if background is None else background
        if bg is not self._background:
            self._background, self._walk = bg, _generate(self, bg)
        return self._walk(interp, budget, budget * len(self.queries))

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


# ---------------------------------------------------------------------------
# The generated walk (see the module docstring)
#
# Where a path nests deeper than ``_NEST`` levels, the rest of it goes to a
# function of its own, so that no function comes near CPython's limits of 20
# nested blocks and 100 indentation levels.

_NEST = 16
_OPS = {"<": "<", ">": ">", "=<": "<=", ">=": ">="}


class _Writer:
    """The source of one pack's walk, with the objects it names."""

    def __init__(self, pack: Pack, rules: dict):
        self.pack, self.rules = pack, rules
        self.env = {
            "P": pack, "FULL": pack.full, "RULES": rules, "Number": Number,
            "QueryError": QueryError, "_Run": _Run, "_solve": _solve, "_no_rows": {}.get,
        }
        self.names: dict = {}  # id of a named object -> its name
        self.groups: dict = {}  # predicate key -> (its name's number, uses rows, uses first)
        self.machine = False
        self.funcs: list[list[str]] = []
        self.fresh = len(pack.names)  # the next slot for a variable of an inlined clause

    def name(self, obj, prefix: str) -> str:
        got = self.names.get(id(obj))
        if got is None:
            got = self.names[id(obj)] = f"{prefix}{len(self.names)}"
            self.env[got] = obj
        return got

    def term(self, a) -> str:
        return f"v{a}" if type(a) is int else self.name(a, "C")

    def source(self, key, first: bool) -> str:
        k, rows, firsts = self.groups.get(key, (len(self.groups), False, False))
        self.groups[key] = (k, rows or not first, firsts or first)
        return f"{'F' if first else 'R'}{k}"

    def exit(self, top: bool) -> list[str]:
        return ["P.steps += steps", "return done"] if top else ["return steps, done"]

    def write(self) -> str:
        body: list[str] = []
        self.node(self.pack.root, {}, 1, body, True)
        head = ["groups = interp.groups", "steps = done = 0"]
        if self.machine:
            head += ["run = _Run(P, interp, budget, limit, RULES)", "b = run.b"]
        else:
            head += ["run = b = None"]
        for key, (k, rows, firsts) in self.groups.items():
            name = self.name(key, "K")
            head += [f"R{k} = groups.get({name}, ())"] if rows else []
            head += [f"F{k} = interp.firsts({name}).get if {name} in groups else _no_rows"] if firsts else []
        lines = ["def walk(interp, budget, limit):"]
        lines += ["    " + line for line in head] + body + ["    " + line for line in self.exit(True)]
        for func in self.funcs:
            lines += func
        return "\n".join(lines).replace("@CTX@", self.context()) + "\n"

    def context(self) -> str:
        """What every split-off function takes before its locals."""
        names = ["interp", "budget", "limit", "run", "b", "steps", "done"]
        for k, rows, firsts in self.groups.values():
            names += [f"R{k}"] if rows else []
            names += [f"F{k}"] if firsts else []
        return ", ".join(names)

    def node(self, node: _Node, state: dict, d: int, out: list[str], top: bool):
        """Arrive at ``node`` with the slot states ``state``, at nesting ``d``."""
        pad = "    " * d
        if node.ends:
            out += [f"{pad}done |= {node.ends}", f"{pad}if done == FULL:"]
            out += [f"{pad}    {line}" for line in self.exit(top)]
        if len(node.kids) == 1:
            self.kid(node.kids[0], state, d, out, top)
        else:
            # More than one kid: a kid whose queries have all succeeded on an
            # earlier visit of this node is skipped.
            for kid in node.kids:
                out.append(f"{pad}if {kid.mask} & ~done:")
                self.kid(kid, state, d + 1, out, top)

    def kid(self, kid: _Node, state: dict, d: int, out: list[str], top: bool):
        """Prove ``kid``'s literal and arrive at ``kid`` at each solution."""
        self.prove(kid.lit, kid.mask, state, d, out, top, lambda st, dd, o, tp: self.node(kid, st, dd, o, tp))

    def prove(self, g: _Lit, mask: int, state: dict, d: int, out: list[str], top: bool, then):
        """Prove ``g`` for the queries ``mask`` from the slot states
        ``state``, and at each solution write ``then(states, nesting, out,
        top)``."""
        if d > _NEST:
            func = self.function(state, lambda func: self.prove(g, mask, state, 1, func, False, then))
            self.call(func, d, out, top)
            return
        pad = "    " * d
        if g.op is not None:
            plan = _builtin_plan(g, state)
            if plan is not None:
                x, y, equal = plan
                x, y = self.term(x), self.term(y)
                out += [f"{pad}steps += 1"] + self.check(pad, mask)
                if equal is not None:
                    out.append(f"{pad}if {x} {'==' if equal else '!='} {y}:")
                else:
                    what = self.name(f"{g.op} needs numeric arguments, got {render_literal(g.lit)}", "M")
                    out += [
                        f"{pad}if type({x}) is not Number or type({y}) is not Number:",
                        f"{pad}    raise P._error(QueryError, {what}, interp, {mask} & ~done)",
                        f"{pad}if {x}.value {_OPS[g.op]} {y}.value:",
                    ]
                then(state, d + 1, out, top)
                return
        elif g.key not in self.rules:
            plan = _fact_plan(g, state)
            if plan is not None:
                self.loop(g, mask, plan, state, d, out, top, then)
                return
        else:
            bodies = self.clauses(g, state)
            if bodies is not None:
                self.inline(g, mask, bodies, state, d, out, top, then)
                return
        self.solve(g, mask, state, d, out, top, then)

    def check(self, pad: str, mask: int) -> list[str]:
        """The budget check, naming the first undecided query of ``mask``."""
        return [f"{pad}if steps > limit:", f"{pad}    raise P._exhausted(interp, budget, {mask} & ~done)"]

    def function(self, state: dict, write) -> str:
        """A function of its own for the code ``write(func)`` writes at
        nesting 1, which takes the slots ``state`` binds to ground terms:
        the statement that calls it."""
        live = sorted(s for s, how in state.items() if how == _DIRECT)
        args = "@CTX@" + "".join(f", v{s}" for s in live)
        name = f"walk{len(self.funcs) + 1}"
        func = [f"def {name}({args}):"]
        self.funcs.append(func)
        write(func)
        func.append("    return steps, done")
        return f"steps, done = {name}({args})"

    def call(self, call: str, d: int, out: list[str], top: bool):
        pad = "    " * d
        out += [pad + call, f"{pad}if done == FULL:"]
        out += [f"{pad}    {line}" for line in self.exit(top)]

    def loop(self, g: _Lit, mask: int, plan, state: dict, d: int, out: list[str], top: bool, then):
        """A literal with a static fact plan: a loop over the facts."""
        pad = "    " * d
        index, want, checks, binds, sames = plan
        if index is None:
            facts = self.source(g.key, False)
        else:
            at = f"v{index[1]}" if index[0] else self.term(index[1])
            facts = f"{self.source(g.key, True)}({at}, ())"
        args = [f"a{p}" for p in range(len(g.args))]
        for p, s in binds:
            args[p] = f"v{s}"
        tests = [f"{args[p]} != {self.term(v)}" for p, v in want]
        tests += [f"{args[p]} != v{s}" for p, s in checks]
        tests += [f"{args[p]} != {args[q]}" for p, q in sames]
        target = "_" if not args else f"({args[0]},)" if len(args) == 1 else ", ".join(args)
        out += [f"{pad}for {target} in {facts}:", f"{pad}    steps += 1"]
        if tests:
            out.append(f"{pad}    if {' or '.join(tests)}:")
            out.append(f"{pad}        continue")
        out += self.check(pad + "    ", mask)
        then(_after(g, state, _DIRECT), d + 1, out, top)
        out += [f"{pad}    if not {mask} & ~done:", f"{pad}        break"]
        if tests:
            out.append(f"{pad}else:")
            out += self.check(pad + "    ", mask)

    def clauses(self, g: _Lit, state: dict, active: tuple = ()):
        """For a literal whose background clauses compile inline, each
        clause's body with the head's variables replaced by the literal's
        arguments and the clause's own variables by fresh slots; None when
        one does not.  They do when the literal's arguments are constants and
        slots unbound or bound to ground terms, and every clause is
        non-recursive (``active`` holds the predicates being inlined around
        ``g``), has a head of distinct variables and a body of literals with
        static plans, and binds each unbound argument."""
        if g.key in active or any(
            type(a) is _Struct or type(a) is int and state.get(a) == _UNKNOWN for a in g.args
        ):
            return None
        active += (g.key,)
        bodies = []
        for c in self.rules[g.key]:
            if not c.linear:
                return None
            sub = g.args + tuple(range(self.fresh, self.fresh + c.size - len(g.args)))
            self.fresh += c.size - len(g.args)
            body, st = [], state
            for lit in c.body:
                # A compound keeps its clause slots, and no static plan takes it.
                lit = lit.renamed(tuple(sub[a] if type(a) is int else a for a in lit.args))
                if lit.op is not None:
                    plan = _builtin_plan(lit, st)
                elif lit.key in self.rules:
                    plan = self.clauses(lit, st, active)
                else:
                    plan = _fact_plan(lit, st)
                if plan is None:
                    return None
                st = _after(lit, st, _DIRECT)
                body.append(lit)
            if any(type(a) is int and st.get(a) != _DIRECT for a in g.args):
                return None
            bodies.append(body)
        return bodies

    def inline(self, g: _Lit, mask: int, bodies, state: dict, d: int, out: list[str], top: bool, then):
        """A literal whose clauses compile inline: a loop over its facts,
        then each clause's body as static code, one step and a budget check
        for the clause first.  What follows a solution is written once, as
        a function that each of them calls."""
        pad = "    " * d
        after = _after(g, state, _DIRECT)
        func = self.function(after, lambda func: then(after, 1, func, False))
        found = lambda st, dd, o, tp: self.call(func, dd, o, tp)  # noqa: E731
        self.loop(g, mask, _fact_plan(g, state), state, d, out, top, found)
        for body in bodies:
            out += [f"{pad}if {mask} & ~done:", f"{pad}    steps += 1"] + self.check(pad + "    ", mask)
            self.conj(body, mask, state, d + 1, out, top, found)

    def conj(self, lits: list, mask: int, state: dict, d: int, out: list[str], top: bool, then):
        """Prove ``lits`` in order, then ``then``."""
        if not lits:
            then(state, d, out, top)
            return
        rest = lambda st, dd, o, tp: self.conj(lits[1:], mask, st, dd, o, tp, then)  # noqa: E731
        self.prove(lits[0], mask, state, d, out, top, rest)

    def solve(self, g: _Lit, mask: int, state: dict, d: int, out: list[str], top: bool, then):
        """A literal with no static plan: a loop over ``_solve``'s solutions,
        with the slots it reads set in the binding list first.  Slots that
        it binds to ground terms are read back into locals."""
        pad = "    " * d
        self.machine = True
        after = _after(g, state, _DIRECT if g.op is None and g.key not in self.rules else _UNKNOWN)
        for s in sorted(set(_slots(g.args))):
            if state.get(s) == _DIRECT:
                out.append(f"{pad}b[{s}] = v{s}")
            elif s not in state:
                out.append(f"{pad}b[{s}] = None")
        sync = [f"{pad}run.steps = steps", f"{pad}run.done = done"]
        out += sync + [f"{pad}for _ in _solve(run, {self.name((g, 0, None), 'L')}, {mask}):"]
        out.append(f"{pad}    steps = run.steps")
        out += [
            f"{pad}    v{s} = b[{s}]" for s in sorted(after)
            if after[s] == _DIRECT and state.get(s) != _DIRECT
        ]
        then(after, d + 1, out, top)
        out += [f"{pad}    if not {mask} & ~done:", f"{pad}        break"]
        out += ["    " + line for line in sync]
        out += [f"{pad}else:", f"{pad}    steps = run.steps"]


def _generate(pack: Pack, background: Background):
    """The walk of ``pack`` against ``background``: ``walk(interp, budget,
    limit)`` decides the queries and returns their outcome bits."""
    writer = _Writer(pack, background._by_key)
    exec(compile(writer.write(), "<query pack>", "exec"), writer.env)
    return writer.env["walk"]


# ---------------------------------------------------------------------------
# The machine: SLD resolution of one goal on an explicit stack

_FACTS, _CLAUSES = 1, 2  # choice point kinds


class _Run:
    """What ``_solve`` shares with its caller, a generated walk or
    ``answers``, on one example: the binding list and trail, the steps
    spent and the queries decided so far (kept current before each solution
    is resumed)."""

    __slots__ = ("pack", "interp", "budget", "limit", "rules", "groups", "b", "trail", "steps", "done")

    def __init__(self, pack: Pack, interp, budget: int, limit: int, rules: dict):
        self.pack, self.interp, self.budget, self.limit = pack, interp, budget, limit
        self.rules = rules
        self.groups = interp.groups
        self.b: list = [None] * len(pack.names)
        self.trail: list[int] = []
        self.steps = self.done = 0

    def exhausted(self, mask: int) -> BudgetExceededError:
        return self.pack._exhausted(self.interp, self.budget, mask & ~self.done)

    def failed(self, what: str, mask: int) -> QueryError:
        return self.pack._error(QueryError, what, self.interp, mask & ~self.done)


def _solve(run: _Run, goals, mask: int):
    """Yield at each solution of the goal list ``goals``, proved for the
    queries ``mask``.  A goal list is ``(literal, frame offset, rest)``, and
    None once every goal is proved.  Each literal's facts in the example are
    tried, then its predicate's clauses, each through a choice point on an
    explicit stack, and a clause's body goes on the front of the list.
    Closing the generator undoes every binding it made."""
    b, trail, groups, rules, limit = run.b, run.trail, run.groups, run.rules, run.limit
    names = run.pack.names
    mark = len(trail)
    base = size = len(b)  # len(b), kept as clause frames extend it and backtracking cuts it
    stack: list[list] = []
    steps = run.steps
    try:
        while True:
            if goals is None:
                run.steps = steps
                yield
                steps = run.steps
            else:
                g, off, rest = goals
                if g.op is not None:
                    steps += 1
                    if steps > limit:
                        raise run.exhausted(mask)
                    try:
                        ok = _builtin(g, off, b, trail, names)
                    except QueryError as e:
                        raise run.failed(e.message, mask) from None
                    if ok:
                        goals = rest
                        continue
                else:
                    # A literal's facts and clauses are each tried through
                    # a choice point, the facts' one on top, so that they
                    # are tried first and the clauses once they are spent.
                    clauses = rules.get(g.key)
                    if clauses is not None:
                        args = g.args if not off else tuple(_shift(a, off) for a in g.args)
                        stack.append([_CLAUSES, len(trail), size, 0, clauses, args, rest])
                    facts = groups.get(g.key)
                    if facts is not None:
                        index, pats = _goal_plan(g.args, off, b, names)
                        if index is not None:
                            facts = run.interp.firsts(g.key).get(index, ())
                        stack.append([_FACTS, len(trail), size, 0, facts, len(facts), pats, rest])

            # Try the newest choice point's next fact or clause, dropping
            # the choice point once it has none left, and leave when none
            # is left.  A choice point holds its kind, the trail's and the
            # binding list's lengths to return to, the index of the next
            # fact or clause, and what that index runs over.
            while stack:
                cp = stack[-1]
                _undo(b, trail, cp[1])
                if size > cp[2]:
                    size = cp[2]
                    del b[size:]
                i = cp[3]
                if cp[0] is _FACTS:
                    facts, n, pats = cp[4:7]
                    j = _scan(facts, i, pats, b, trail)
                    steps += j + 1 - i if j < n else n - i
                    if steps > limit:
                        raise run.exhausted(mask)
                    if j + 1 >= n:
                        stack.pop()
                        if j == n:
                            continue
                    cp[3] = j + 1
                    goals = cp[7]
                    break
                clauses, args = cp[4], cp[5]
                if i + 1 == len(clauses):
                    stack.pop()
                cp[3] = i + 1
                c = clauses[i]
                steps += 1
                if steps > limit:
                    raise run.exhausted(mask)
                top = size
                size += c.size
                b.extend([None] * c.size)
                if not all(_unify(x, _shift(h, top), b, trail) for x, h in zip(args, c.head)):
                    continue  # the next turn of the loop undoes the bindings
                goals = cp[6]
                for lit in reversed(c.body):
                    goals = (lit, top, goals)
                break
            else:
                run.steps = steps
                return
    except RecursionError:
        # A term the proof built nests deeper than the recursive term
        # functions (``_term``, ``_unify``) can walk.
        raise run.failed("term nested too deeply", mask) from None
    finally:
        _undo(b, trail, mark)
        del b[base:]


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
    """Bindings of ``var`` at every solution of ``query`` (duplicates kept,
    discovery order): ``answers`` of a one-query pack built for the call."""
    return answers(Pack((query,)), var, interp, background, budget)


def answers(
    pack: Pack,
    var: str,
    interp: Interpretation,
    background: Background | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[Term]:
    """Bindings of ``var`` at every solution of the query of the one-query
    ``pack`` (duplicates kept, discovery order); a binding that is not
    ground comes back with its unbound variables named.  The machine proves
    the whole query, so the pack's walk is never generated; a caller that
    lists answers on many examples builds the pack once."""
    (query,) = pack.queries
    slot = pack.slots.get(var)
    if slot is None:
        raise QueryError(f"variable {var} does not occur in the query")
    if budget <= 0:
        raise QueryError("resolution budget must be positive")
    rules = (EMPTY_BACKGROUND if background is None else background)._by_key
    run = _Run(pack, interp, budget, budget, rules)
    goals = None
    for lit in reversed(query.literals):
        goals = (_Lit(lit, pack.slots), 0, goals)
    out: list[Term] = []
    try:
        for _ in _solve(run, goals, pack.full):
            out.append(_term(slot, run.b, pack.names))
    except RecursionError:
        # ``_term`` rendering a binding that nests too deeply.
        raise pack._error(QueryError, "term nested too deeply", interp, pack.full) from None
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
