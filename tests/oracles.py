"""Independent reference implementations and checks used only by the test
suite.

These deliberately avoid the package's own evaluation/scoring code paths:
the join evaluator is a naive nested-loop join over ground facts, the
entropy oracle recomputes scores from first principles with Fractions where
possible, ``pair_fayyad_irani_cuts`` is the cut search that took one
``(value, label)`` pair per collected value, the reference for
``bias.fayyad_irani_cuts``, and the poker labeler is a direct rank-multiset
table.  Next is
``SLDResolver``, plain SLD resolution by substitution over named variables
that counts steps as the engine does, the reference for ``engine.Pack``.
The helpers after it check a tree's variable scope and theta-subsumption
between queries, build the root refinement context and a bias without
thresholds, and count a node's candidates by proving each full query alone.
Then comes ``scan``, a character-loop tokenizer that states the lexical
grammar without regular expressions, the reference for the lexemes of
``terms.TermParser`` with their kinds, values and places.
Next is the parser that ``terms`` had before it parsed each clause from a
list of tokens, the reference for ``terms.read_clauses`` and ``parse_term``:
a one-token-lookahead ``TokenStream`` that pulls tokens from the lazy
``_line_tokens`` as a ``TermParser`` advances.  ``_line_tokens`` scans one
line at a time with its own copy of the token pattern that ``terms`` had
then.  Over it run the settings and schema readers that ``settings`` and
``rdb`` had before they read each directive from its clause's tokens by
index, the reference for ``parse_settings`` and ``parse_schema``, and
``extract_example``, the facts of one example id as ``rdb.convert_all``
writes them.
Its ``TermParser`` takes a compound nested more than ``MAX_DEPTH`` deep
for an error, as ``terms`` does.  ``iter_kb_blocks`` is the block reader
that ``store`` had before it read facts straight from a piece's lexemes,
over that ``read_clauses``: the reference for ``store.iter_kb_blocks``.
Then comes ``interp_of``, which builds an example from a list of facts by
grouping them as the block reader does, and the chunk record codec of
format v4, in which each record held its own constant table: its
``encode_record`` is the reference for ``store.encode_record``, whose bytes
define a store's fingerprint, and its ``decode_record`` the reference for
the examples that ``store.decode_chunk`` decodes from a format v5 chunk.
Last of all come the frozen dataclasses that were ``terms``' term classes
before each became a tagged tuple, with their renderer: the reference for
the equality, hashing, ``repr`` and rendering of ``Atom``, ``Number``,
``Variable`` and ``Compound``.
"""

import heapq
import io
import math
import re
import struct
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, NamedTuple

from foldt.bias import Bias, RefinementContext, entropy, weighted_entropy
from foldt.engine import (
    DEFAULT_BUDGET,
    EMPTY_BACKGROUND,
    Background,
    Query,
    _compile_term as _e_compile_term,
    _deref as _e_deref,
    _ground as _e_ground,
    _shift as _e_shift,
    _Struct as _e_Struct,
    _term as _e_term,
    _test as _e_test,
    _undo as _e_undo,
    _unify as _e_unify,
    matches,
    succeeds,
)
from foldt.errors import BudgetExceededError, DataError, ParseError, QueryError, in_file
from foldt.model import Leaf
from foldt.rdb import ForeignKey, Schema, Table, _example_facts, _Indexes
from foldt.settings import DiscretizeRequest, LearnerConfig, Lookahead, RMode, Settings, threshold_indices
from foldt.store import Interpretation
from foldt.terms import (
    BUILTIN_PREDS,
    Atom,
    Clause,
    Compound,
    Literal,
    Number,
    Term,
    Variable,
    is_ground,
    literal_variables,
    render_atom,
    render_literal,
    render_term,
)


def _bind_term(qarg, farg, subst):
    """Extend subst so qarg matches ground farg, or return None."""
    if isinstance(qarg, Variable):
        bound = subst.get(qarg.name)
        if bound is None:
            new = dict(subst)
            new[qarg.name] = farg
            return new
        return subst if bound == farg else None
    if isinstance(qarg, Compound):
        if not isinstance(farg, Compound) or qarg.functor != farg.functor:
            return None
        if len(qarg.args) != len(farg.args):
            return None
        for qa, fa in zip(qarg.args, farg.args):
            subst = _bind_term(qa, fa, subst)
            if subst is None:
                return None
        return subst
    return subst if qarg == farg else None


def _subst_term(t, subst):
    if isinstance(t, Variable):
        return subst.get(t.name, t)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_subst_term(a, subst) for a in t.args))
    return t


def _eval_builtin(lit, subst):
    a = _subst_term(lit.args[0], subst)
    b = _subst_term(lit.args[1], subst)
    if isinstance(a, Variable) or isinstance(b, Variable):
        raise ValueError("oracle builtin saw an unbound variable")
    if lit.pred == "=":
        return a == b
    if lit.pred == "\\=":
        return a != b
    if not (isinstance(a, Number) and isinstance(b, Number)):
        raise ValueError("oracle comparison on non-numbers")
    return {
        "<": a.value < b.value,
        ">": a.value > b.value,
        "=<": a.value <= b.value,
        ">=": a.value >= b.value,
    }[lit.pred]


def ground_join_solutions(literals, facts):
    """All substitutions satisfying the conjunction over a ground fact list,
    one per derivation (naive join, no indexing, no background)."""
    sols = [{}]
    for lit in literals:
        new = []
        if lit.builtin:
            for s in sols:
                if _eval_builtin(lit, s):
                    new.append(s)
        else:
            for s in sols:
                for f in facts:
                    if f.pred != lit.pred or len(f.args) != len(lit.args):
                        continue
                    s2 = s
                    for qa, fa in zip(lit.args, f.args):
                        s2 = _bind_term(qa, fa, s2)
                        if s2 is None:
                            break
                    if s2 is not None:
                        new.append(s2)
        sols = new
    return sols


def ground_join_succeeds(literals, facts) -> bool:
    return bool(ground_join_solutions(literals, facts))


# ---------------------------------------------------------------------------
# Reference SLD resolver


def _walk(t, subst):
    while isinstance(t, Variable) and t.name in subst:
        t = subst[t.name]
    return t


def _resolved(t, subst):
    t = _walk(t, subst)
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_resolved(a, subst) for a in t.args))
    return t


def _occurs_in(name, t, subst) -> bool:
    t = _walk(t, subst)
    if isinstance(t, Variable):
        return t.name == name
    return isinstance(t, Compound) and any(_occurs_in(name, a, subst) for a in t.args)


def _unify(x, y, subst):
    """``subst`` extended so that ``x`` and ``y`` are equal, or None.  An
    unbound ``x`` is bound to ``y``, else an unbound ``y`` to ``x``, with
    the occurs check."""
    x, y = _walk(x, subst), _walk(y, subst)
    if isinstance(x, Variable):
        if x == y:
            return subst
        return None if _occurs_in(x.name, y, subst) else {**subst, x.name: y}
    if isinstance(y, Variable):
        return None if _occurs_in(y.name, x, subst) else {**subst, y.name: x}
    if isinstance(x, Compound) and isinstance(y, Compound):
        if x.functor != y.functor or len(x.args) != len(y.args):
            return None
        for a, b in zip(x.args, y.args):
            subst = _unify(a, b, subst)
            if subst is None:
                return None
        return subst
    if isinstance(x, Compound) or isinstance(y, Compound):
        return None
    return subst if x == y else None


def _renamed(t, names: dict):
    if isinstance(t, Variable):
        return names[t.name]
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_renamed(a, names) for a in t.args))
    return t


class SLDResolver:
    """Plain SLD resolution of one query against an example plus background
    clauses, by substitution over named variables: the reference for
    ``engine.Pack``.

    Goals are selected left to right.  A literal is proved by the example's
    facts for its predicate/arity first, in file order and only those whose
    first argument equals the literal's when that argument is ground, then
    by the clauses for it in program order.  A step is one fact tried, one
    clause tried or one builtin evaluated; more than ``budget`` of them is a
    ``BudgetExceededError``.  A clause tried with the binding list ``top``
    slots long gets its variables named ``_G<top + k>``, k counting them in
    order of first occurrence, head first, and its frame makes the list
    ``top`` plus its variable count long for the goals after it; the
    query's own variables take the first slots.  So an unbound answer
    carries the engine's name for it."""

    def __init__(self, query, interp: Interpretation, clauses, budget: int):
        self.query, self.interp, self.budget = query, interp, budget
        self.facts: dict = {}
        for f in interp.facts:
            self.facts.setdefault(f.key, []).append(f.args)
        self.clauses: dict = {}
        for c in clauses:
            self.clauses.setdefault(c.head.key, []).append(c)
        self.steps = 0

    def _fail(self, cls, what: str):
        return cls(f"{what} in example {render_term(self.interp.ident)} on query {self.query}")

    def _step(self):
        self.steps += 1
        if self.steps > self.budget:
            what = f"resolution step budget of {self.budget} exhausted"
            raise self._fail(BudgetExceededError, what)

    def solutions(self) -> Iterator[dict]:
        """Substitutions at each solution, in SLD order, duplicates kept."""
        goals = None
        for lit in reversed(self.query.literals):
            goals = ((lit, lit), goals)
        return self._solve(goals, {}, len(self.query.variables()))

    def _solve(self, goals, subst, top):
        if goals is None:
            yield subst
            return
        (lit, written), rest = goals
        if lit.builtin:
            self._step()
            x, y = (_resolved(a, subst) for a in lit.args)
            if lit.pred == "=":
                subst = _unify(x, y, subst)
                ok = subst is not None
            elif lit.pred == "\\=":
                if not (is_ground(x) and is_ground(y)):
                    what = f"\\= needs ground arguments, got {render_literal(written)}"
                    raise self._fail(QueryError, what)
                ok = x != y
            else:
                if not (isinstance(x, Number) and isinstance(y, Number)):
                    what = f"{lit.pred} needs numeric arguments, got {render_literal(written)}"
                    raise self._fail(QueryError, what)
                x, y = x.value, y.value
                ok = {"<": x < y, ">": x > y, "=<": x <= y, ">=": x >= y}[lit.pred]
            if ok:
                yield from self._solve(rest, subst, top)
            return
        first = _resolved(lit.args[0], subst) if lit.args else None
        for args in self.facts.get(lit.key, ()):
            if first is not None and is_ground(first) and args[0] != first:
                continue
            self._step()
            s = subst
            for a, f in zip(lit.args, args):
                s = _unify(a, f, s)
                if s is None:
                    break
            else:
                yield from self._solve(rest, s, top)
        for clause in self.clauses.get(lit.key, ()):
            self._step()
            order = literal_variables((clause.head,) + clause.body)
            names = {v: Variable(f"_G{top + k}") for k, v in enumerate(order)}
            s = subst
            for a, h in zip(lit.args, clause.head.args):
                s = _unify(a, _renamed(h, names), s)
                if s is None:
                    break
            else:
                body = rest
                for b in reversed(clause.body):
                    renamed = Literal(b.pred, tuple(_renamed(a, names) for a in b.args), b.builtin)
                    body = ((renamed, b), body)
                yield from self._solve(body, s, top + len(order))


def sld_outcome(query, interp: Interpretation, clauses, budget: int):
    """``(True or False, steps to decide)`` for a query proved alone, or the
    error it raises, as ``(type, message)``; a term nested deeper than
    Python's recursion allows is the engine's ``QueryError`` for it."""
    r = SLDResolver(query, interp, clauses, budget)
    try:
        found = next(r.solutions(), None) is not None
    except QueryError as e:
        return type(e), str(e)
    except RecursionError:
        return QueryError, str(r._fail(QueryError, "term nested too deeply"))
    return found, r.steps


def sld_answers(query, var: str, interp: Interpretation, clauses, budget: int):
    """The bindings of ``var`` over every solution, unbound variables kept,
    or the error the search raises, as ``(type, message)``."""
    r = SLDResolver(query, interp, clauses, budget)
    try:
        return [_resolved(Variable(var), s) for s in r.solutions()]
    except QueryError as e:
        return type(e), str(e)
    except RecursionError:
        return QueryError, str(r._fail(QueryError, "term nested too deeply"))


# ---------------------------------------------------------------------------
# Entropy / gain oracle


def entropy_bits(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def gain_oracle(parent, left, right):
    """(gain, splitinfo, gainratio-or-None) computed directly."""
    n = sum(parent)
    nl, nr = sum(left), sum(right)
    weighted = (nl / n) * entropy_bits(left) + (nr / n) * entropy_bits(right)
    gain = entropy_bits(parent) - weighted
    splitinfo = 0.0
    for nb in (nl, nr):
        if nb:
            splitinfo -= (nb / n) * math.log2(nb / n)
    ratio = gain / splitinfo if splitinfo != 0.0 else None
    return gain, splitinfo, ratio


def best_single_cut(values_with_labels):
    """Exhaustive scan over all midpoints between adjacent distinct values;
    returns (cut, weighted_entropy) minimizing class entropy."""
    pts = sorted(values_with_labels)
    distinct = sorted({v for v, _ in pts})
    best = None
    for lo, hi in zip(distinct, distinct[1:]):
        cut = (lo + hi) / 2
        left = Counter(l for v, l in pts if v <= cut)
        right = Counter(l for v, l in pts if v > cut)
        n = len(pts)
        w = (sum(left.values()) / n) * entropy_bits(left.values()) + (
            sum(right.values()) / n
        ) * entropy_bits(right.values())
        if best is None or w < best[1] - 1e-15:
            best = (cut, w)
    return best


def pair_fayyad_irani_cuts(values, max_cuts: int) -> list[float]:
    """Fayyad-Irani cut points for a multiset of ``(value, label)`` pairs,
    aggregated here into per-value class counts."""
    if max_cuts <= 0:
        return []
    labels = sorted({lbl for _, lbl in values})
    lidx = {l: i for i, l in enumerate(labels)}
    agg: dict[float, list[int]] = {}
    for v, lbl in values:
        agg.setdefault(v, [0] * len(labels))[lidx[lbl]] += 1
    pts = sorted(agg.items())
    k = len(pts)
    nclasses = len(labels)
    prefix = [[0] * nclasses]
    for _, counts in pts:
        prefix.append([a + b for a, b in zip(prefix[-1], counts)])

    def seg(lo, hi):
        return [prefix[hi][c] - prefix[lo][c] for c in range(nclasses)]

    def present(counts):
        return sum(1 for c in counts if c)

    def best_split(lo, hi):
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
        kc = present(parent)
        delta = math.log2(3**kc - 2) - (
            kc * ent - present(left) * entropy(left) - present(right) * entropy(right)
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


# ---------------------------------------------------------------------------
# Poker labels by exhaustive rank-multiset analysis

_PATTERN_TO_CLASS = {
    (4, 1): "four_of_a_kind",
    (3, 2): "full_house",
    (3, 1, 1): "three_of_a_kind",
    (2, 2, 1): "two_pairs",
    (2, 1, 1, 1): "pair",
    (1, 1, 1, 1, 1): "nothing",
}


def poker_label_oracle(ranks) -> str:
    pattern = tuple(sorted(Counter(ranks).values(), reverse=True))
    return _PATTERN_TO_CLASS[pattern]


def random_join_instance(rng):
    """A random fact set and conjunctive query over a tiny vocabulary, for
    engine-vs-naive-join equivalence tests."""
    consts = ["a", "b", "c", "d"]
    facts = []
    for _ in range(rng.randint(1, 8)):
        if rng.random() < 0.5:
            facts.append(f"p({rng.choice(consts)})")
        else:
            facts.append(f"r({rng.choice(consts)},{rng.choice(consts)})")
    lits, used = [], []
    for _ in range(rng.randint(1, 3)):
        v1, v2 = rng.choice("XYZW"), rng.choice("XYZW")
        if rng.random() < 0.4:
            lits.append(f"p({v1})")
            used.append(v1)
        else:
            lits.append(f"r({v1},{v2})")
            used.extend([v1, v2])
    if len(set(used)) >= 2 and rng.random() < 0.5:
        a, b = sorted(set(used))[:2]
        lits.append(f"{a} \\= {b}")
    return facts, lits


# ---------------------------------------------------------------------------
# Tree and refinement checks


def check_scope(model) -> bool:
    """True iff no variable introduced by a node's conjunction occurs anywhere
    in that node's right subtree."""

    def subtree_vars(node) -> set[str]:
        if isinstance(node, Leaf):
            return set()
        return (
            set(literal_variables(node.conj))
            | subtree_vars(node.left)
            | subtree_vars(node.right)
        )

    def walk(node, scope: set[str]) -> bool:
        if isinstance(node, Leaf):
            return True
        introduced = set(literal_variables(node.conj)) - scope
        if introduced & subtree_vars(node.right):
            return False
        return walk(node.left, scope | introduced) and walk(node.right, scope)

    return walk(model.tree, set())


def theta_subsumes(q1: Query, q2: Query) -> bool:
    """True iff a substitution makes every literal of ``q1`` a literal of
    ``q2`` (set containment; ``q2``'s variables are treated as constants)."""
    for _ in matches(q1.literals, q2.literals):
        return True
    return False


def root_context(settings) -> RefinementContext:
    return RefinementContext(Query(()), (0,) * len(settings.rmodes), 0)


def static_bias(settings) -> Bias:
    """Bias with no computed thresholds (templates without placeholders)."""
    return Bias(settings, {k: () for k in range(1, len(settings.discretize) + 1)})


def full_query_counters(queries, examples, classes, background=None):
    """Per query, the per-class counts of the ``examples`` on which it
    succeeds and of those on which it fails, each query proved whole and
    alone with ``engine.succeeds``: the counters that a node whose
    candidates have these full queries must reach, however its outcomes were
    decided."""
    index = {c: i for i, c in enumerate(classes)}
    counters = []
    for query in queries:
        left, right = [0] * len(classes), [0] * len(classes)
        for e in examples:
            (left if succeeds(query, e, background) else right)[index[e.label]] += 1
        counters.append([left, right])
    return counters


# ---------------------------------------------------------------------------
# Reference lexer: one character at a time


class Token(NamedTuple):
    kind: str  # atom var int float punct op end eof
    text: str
    value: object
    line: int
    col: int


_TWO_CHAR_OPS = (":-", "=<", ">=", "\\=")
_ONE_CHAR_OPS = ("=", "<", ">")
_PUNCT = "(),.[]:+-!"


# Unquoted lexemes are ASCII-only (Unicode goes inside quotes), so the
# classifiers below must not use str.isdigit()/isalpha(), which accept
# characters like superscripts that int()/the grammar reject.
def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_ident(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z" or _is_digit(ch) or ch == "_"


def scan(text: str) -> list[Token]:
    """The tokens of ``text``, without ``eof``; raises ParseError with
    position on bad input."""
    toks: list[Token] = []
    i, n = 0, len(text)
    line = col = 1
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n or text[j] == "\n":
                    raise ParseError("unterminated quote", start_line, start_col)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    j += 1
                    break
                buf.append(text[j])
                j += 1
            toks.append(Token("atom", text[i:j], "".join(buf), start_line, start_col))
            col += j - i
            i = j
            continue
        if _is_digit(ch) or (ch in "+-" and i + 1 < n and _is_digit(text[i + 1])):
            i2, num = _scan_number(text, i, start_line, start_col)
            toks.append(
                Token("float" if isinstance(num, float) else "int", text[i:i2], num, start_line, start_col)
            )
            col += i2 - i
            i = i2
            continue
        if "a" <= ch <= "z":
            i2 = _scan_name(text, i)
            toks.append(Token("atom", text[i:i2], text[i:i2], start_line, start_col))
            col += i2 - i
            i = i2
            continue
        if "A" <= ch <= "Z" or ch == "_":
            i2 = i + 1
            while i2 < n and _is_ident(text[i2]):
                i2 += 1
            toks.append(Token("var", text[i:i2], text[i:i2], start_line, start_col))
            col += i2 - i
            i = i2
            continue
        two = text[i : i + 2]
        if two in _TWO_CHAR_OPS:
            toks.append(Token("op", two, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR_OPS:
            toks.append(Token("op", ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            ends = ch == "." and (i + 1 == n or text[i + 1] in " \t\r\n%")
            toks.append(Token("end" if ends else "punct", ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", start_line, start_col)
    return toks


def _scan_name(text: str, i: int) -> int:
    n = len(text)
    j = i + 1
    while j < n:
        c = text[j]
        if _is_ident(c):
            j += 1
        elif c == "-" and j + 1 < n and _is_ident(text[j + 1]):
            j += 2
        else:
            break
    return j


def _scan_number(text: str, i: int, line: int, col: int):
    n = len(text)
    j = i
    if text[j] in "+-":
        j += 1
    while j < n and _is_digit(text[j]):
        j += 1
    is_float = False
    if j + 1 < n and text[j] == "." and _is_digit(text[j + 1]):
        is_float = True
        j += 1
        while j < n and _is_digit(text[j]):
            j += 1
    if j < n and text[j] in "eE":
        k = j + 1
        if k < n and text[k] in "+-":
            k += 1
        if k < n and _is_digit(text[k]):
            is_float = True
            j = k
            while j < n and _is_digit(text[j]):
                j += 1
    lexeme = text[i:j]
    try:
        value = float(lexeme) if is_float else int(lexeme)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"number too long ({len(lexeme)} characters)", line, col) from None
    if is_float and not math.isfinite(value):
        raise ParseError("number out of range", line, col)
    return j, value


# ---------------------------------------------------------------------------
# Reference parser: one token pulled at a time

# Builds a Token without the Python frame of NamedTuple.__new__, which is a
# quarter of the lexer's time on a large block file.
_new_token = tuple.__new__

# The token pattern that ``terms`` scanned each line with before it scanned
# pieces of whole lines, kept here as it was, so that a change to the
# package's pattern cannot change what this parser expects.  One named group
# per token kind; alternatives are tried in order.
_TOKEN_RE = re.compile(
    r"""(?:[ \t\r\n]|%[^\n]*)*
    (?: (?P<quoted>'(?:[^'\n]|'')*'(?!'))
      | (?P<float>[+-]?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
      | (?P<int>[+-]?[0-9]+)
      | (?P<atom>[a-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<op>:-|=<|>=|\\=|[=<>])
      | (?P<end>\.)(?=[ \t\r\n%]|\Z)
      | (?P<punct>[(),.\[\]:+!-])
      | (?P<unterminated>')
      | (?P<unexpected>.)
      | \Z
    )""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises ParseError with position on bad input."""
    return list(_line_tokens(io.StringIO(text)))


def _line_tokens(lines: Iterable[str]) -> Iterator[Token]:
    """The tokens of ``lines``, one line at a time; ``eof`` sits just after
    the last token, or at line 1, column 1 when there is none."""
    tok = Token("eof", "", None, 1, 1)
    for line, text in enumerate(lines, 1):
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind is None:
                break
            lexeme = m[kind]
            col = m.start(kind) + 1
            if kind == "int":
                try:
                    value = int(lexeme)
                except ValueError:  # more digits than int() converts
                    raise ParseError(f"number too long ({len(lexeme)} characters)", line, col) from None
            elif kind == "float":
                value = float(lexeme)
                if not math.isfinite(value):
                    raise ParseError("number out of range", line, col)
            elif kind == "quoted":
                kind, value = "atom", lexeme[1:-1].replace("''", "'")
            elif kind == "unterminated":
                raise ParseError("unterminated quote", line, col)
            elif kind == "unexpected":
                raise ParseError(f"unexpected character {lexeme!r}", line, col)
            else:
                value = lexeme
            tok = _new_token(Token, (kind, lexeme, value, line, col))
            yield tok
    yield Token("eof", "", None, tok.line, tok.col + len(tok.text))


_WANTED = {"end": "'.' followed by layout to end the clause"}
# How many compounds a term may sit inside, as ``terms`` allows.
MAX_DEPTH = 256


def term_to_literal(term: Term, *, line=None, col=None) -> Literal:
    if isinstance(term, Atom):
        return Literal(term.name, ())
    if isinstance(term, Compound):
        return Literal(term.functor, term.args)
    raise ParseError("a literal must be an atom or a compound term", line, col)


class TokenStream:
    """One token of lookahead over an iterable of tokens that ends with an
    ``eof`` token; tokens are drawn from it only as the parser advances."""

    def __init__(self, tokens: Iterable[Token]):
        self._next = iter(tokens).__next__
        self._tok = self._next()

    def peek(self) -> Token:
        return self._tok

    def next(self) -> Token:
        tok = self._tok
        if tok.kind != "eof":
            self._tok = self._next()
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self._tok
        if tok.kind != kind or (text is not None and tok.text != text):
            want = repr(text) if text is not None else _WANTED.get(kind, repr(kind))
            raise ParseError(f"expected {want}, found {tok.text or tok.kind!r}", tok.line, tok.col)
        return self.next()

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)


class TermParser:
    """Recursive-descent parser over a token stream.

    Every bare ``_`` token becomes a distinct fresh variable (``_1``, ``_2``,
    ...); named underscore variables such as ``_Foo`` are kept as written.
    While ``modes`` is a dict, variables take mode markers and the dict
    records each variable's marker (``+``, ``-`` or ``+-``); while it is
    None, a marker is a parse error.
    """

    def __init__(self, stream: TokenStream):
        self.s = stream
        self._anon = 0
        self.modes: dict[str, str] | None = None

    def term(self, depth: int = 0) -> Term:
        """The next term, inside ``depth`` compounds (a literal counting as
        one); a compound inside ``MAX_DEPTH`` of them is an error at its
        functor."""
        tok = self.s.peek()
        if tok.kind == "var":
            self.s.next()
            if tok.text == "_":
                name = self._fresh_anonymous()
                if self.modes is not None:
                    self.modes[name] = "-"  # each anonymous slot is a fresh output
                return Variable(name)
            if self.modes is not None and tok.text not in self.modes:
                raise ParseError(
                    f"variable {tok.text} needs a mode marker at its first occurrence",
                    tok.line,
                    tok.col,
                )
            return Variable(tok.text)
        if tok.kind in ("int", "float"):
            self.s.next()
            return Number(tok.value)
        if tok.kind == "atom":
            self.s.next()
            if self.s.at("punct", "("):
                if depth == MAX_DEPTH:
                    raise ParseError("term nested too deeply", tok.line, tok.col)
                self.s.next()
                args = [self.term(depth + 1)]
                while self.s.at("punct", ","):
                    self.s.next()
                    args.append(self.term(depth + 1))
                self.s.expect("punct", ")")
                return Compound(tok.value, tuple(args))
            return Atom(tok.value)
        if tok.kind == "punct" and tok.text in ("+", "-"):
            return self._marked_variable(tok)
        raise ParseError(f"expected a term, found {tok.text or tok.kind!r}", tok.line, tok.col)

    def _marked_variable(self, marker: Token) -> Variable:
        if self.modes is None:
            raise ParseError("mode markers are not allowed here", marker.line, marker.col)
        self.s.next()
        mode = marker.text
        if mode == "+" and self.s.at("punct", "-"):
            self.s.next()
            mode = "+-"
        v = self.s.peek()
        if v.kind != "var":
            raise ParseError("mode marker must precede a variable", v.line, v.col)
        self.s.next()
        if v.text == "_":
            name = self._fresh_anonymous()
        elif v.value in self.modes:
            raise ParseError(f"variable {v.value} already carries a mode marker", v.line, v.col)
        else:
            name = v.value
        self.modes[name] = mode
        return Variable(name)

    def _fresh_anonymous(self) -> str:
        self._anon += 1
        return f"_{self._anon}"

    def literal(self, allow_cut: bool = False) -> Literal:
        tok = self.s.peek()
        if tok.kind == "punct" and tok.text == "!":
            if not allow_cut:
                raise ParseError("cut is not allowed here", tok.line, tok.col)
            self.s.next()
            return Literal("!", ())
        lhs = self.term()
        nxt = self.s.peek()
        if nxt.kind == "op" and nxt.text in BUILTIN_PREDS:
            self.s.next()
            rhs = self.term()
            return Literal(nxt.text, (lhs, rhs), builtin=True)
        if lhs == Atom("!") and not allow_cut:  # the quoted cut
            raise ParseError("cut is not allowed here", tok.line, tok.col)
        return term_to_literal(lhs, line=tok.line, col=tok.col)


def parse_term(text: str) -> Term:
    """Parse a complete term; trailing input is an error."""
    stream = TokenStream(tokenize(text))
    if stream.at("eof"):
        raise ParseError("empty input", 1, 1)
    term = TermParser(stream).term()
    tok = stream.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return term


def read_clauses(lines: Iterable[str], allow_cut: bool = False) -> Iterator[tuple[int, Clause]]:
    """Stream ``(line, clause)`` pairs, ``line`` being where the clause
    starts, from an iterable of text lines such as an open file.

    Clauses are ``Head.`` facts and ``Head :- B1, ..., Bn.`` rules, each
    ended by the tokenizer's ``end`` token.  Lines are tokenized one at a
    time as the parser needs them, so only one line's tokens plus the
    pending clause are ever held.  One ``TermParser`` serves all the lines,
    so bare ``_`` variables are numbered through the whole input.
    ``allow_cut`` admits ``!`` as a body literal, which the model-file
    decision-list section uses as a trailing marker token.
    """
    stream = TokenStream(_line_tokens(lines))
    parser = TermParser(stream)
    while not stream.at("eof"):
        tok = stream.peek()
        head = parser.literal(allow_cut=True)
        if head.builtin:
            raise ParseError(f"builtin {head.pred!r} cannot appear in head position", tok.line, tok.col)
        if head.pred == "!":
            raise ParseError("cut cannot appear in head position", tok.line, tok.col)
        body: list[Literal] = []
        if stream.at("op", ":-"):
            stream.next()
            body.append(parser.literal(allow_cut=allow_cut))
            while stream.at("punct", ","):
                stream.next()
                body.append(parser.literal(allow_cut=allow_cut))
        stream.expect("end")
        yield tok.line, Clause(head, tuple(body))


class CursorParser(TermParser):
    """The reference ``TermParser`` with the cursor methods that
    ``terms.TermParser`` had, over which the reference settings and schema
    readers run."""

    def __init__(self, tokens):
        super().__init__(TokenStream(tokens))
        self.peek, self.next, self.expect, self.at = self.s.peek, self.s.next, self.s.expect, self.s.at


# ---------------------------------------------------------------------------
# Reference directive readers: settings and schema files through the cursor


class _SettingsParser:
    """The settings reader that ``settings`` had before it read each
    directive from its clause's tokens by index."""

    def __init__(self, text: str):
        self.s = CursorParser(tokenize(text))
        self.classes: list[str] | None = None
        self.rmodes: list[RMode] = []
        self.lookaheads: list[Lookahead] = []
        self.types: dict[tuple[str, int], tuple[str, ...]] = {}
        self.discretize: list[DiscretizeRequest] = []
        self.params = LearnerConfig()

    def run(self) -> Settings:
        while not self.s.at("eof"):
            tok = self.s.peek()
            if tok.kind != "atom":
                raise ParseError("expected a directive", tok.line, tok.col)
            self.s.next()
            self.s.expect("punct", "(")
            if tok.value in _DIRECTIVES:
                getattr(self, f"_d_{tok.value}")(tok)
            elif tok.value in _PARAMS:
                self._d_param(_PARAMS[tok.value])
            else:
                raise ParseError(f"unknown directive {tok.value!r}", tok.line, tok.col)
            self.s.expect("punct", ")")
            self.s.expect("end")
        return self._finish()

    # -- individual directives ------------------------------------------

    def _d_classes(self, tok):
        self.s.expect("punct", "[")
        labels: list[str] = []
        if self.s.at("punct", "]"):
            raise ParseError("class list empty", tok.line, tok.col)
        while True:
            t = self.s.peek()
            if t.kind != "atom":
                raise ParseError("class labels must be atoms", t.line, t.col)
            self.s.next()
            if t.value in labels:
                raise ParseError(f"duplicate class label {t.value!r}", t.line, t.col)
            labels.append(t.value)
            if self.s.at("punct", ","):
                self.s.next()
                continue
            break
        self.s.expect("punct", "]")
        if self.classes is not None:
            raise ParseError("classes declared twice", tok.line, tok.col)
        self.classes = labels

    def _d_rmode(self, tok):
        cnt = self.s.peek()
        if cnt.kind != "int" or cnt.value < 1:
            raise ParseError("rmode count must be a positive integer", cnt.line, cnt.col)
        self.s.next()
        self.s.expect("punct", ":")
        modes: dict[str, str] = {}
        template = self._conjunction(modes)
        _check_builtin_safety(template, {v for v, m in modes.items() if m == "+"}, tok)
        self.rmodes.append(RMode(cnt.value, template, modes))

    def _d_lookahead(self, tok):
        trigger = self._conjunction()
        self.s.expect("punct", ",")
        extension = self._conjunction()
        _check_builtin_safety(extension, set(literal_variables(trigger)), tok)
        self.lookaheads.append(Lookahead(trigger, extension))

    def _d_typed(self, tok):
        t = self.s.term()
        if not isinstance(t, Compound) or not all(isinstance(a, Atom) for a in t.args):
            raise ParseError("typed/1 expects pred(type1,...,typeN)", tok.line, tok.col)
        key = (t.functor, len(t.args))
        if key in self.types:
            raise ParseError(f"duplicate type declaration for {t.functor}/{len(t.args)}", tok.line, tok.col)
        self.types[key] = tuple(a.name for a in t.args)

    def _d_discretize(self, tok):
        query = self._conjunction()
        self.s.expect("punct", ",")
        v = self.s.peek()
        if v.kind != "var":
            raise ParseError("discretize/2 expects a variable as second argument", v.line, v.col)
        self.s.next()
        if v.value not in literal_variables(query):
            raise ParseError(f"variable {v.value} does not occur in the discretize query", v.line, v.col)
        self.discretize.append(DiscretizeRequest(query, v.value))

    def _d_param(self, f):
        t = self.s.next()
        kind = f.type.removesuffix(" | None")
        if (kind, t.kind) in (("int", "int"), ("str", "atom")):
            value = t.value
        elif kind == "float" and t.kind in ("int", "float"):
            value = float(t.value)
        else:
            raise ParseError(f"{f.name}/1 expects {_KIND_NAMES[kind]}", t.line, t.col)
        try:
            self.params = replace(self.params, **{f.name: value})
        except ParseError as e:
            raise ParseError(e.message, t.line, t.col) from None

    # -- template machinery ----------------------------------------------

    def _conjunction(self, modes: dict[str, str] | None = None) -> tuple[Literal, ...]:
        """One literal, or a parenthesized comma-list of literals; variables
        take mode markers, recorded in ``modes``, only when it is given."""
        self.s.modes = modes
        if self.s.at("punct", "("):
            self.s.next()
            lits = [self.s.literal()]
            while self.s.at("punct", ","):
                self.s.next()
                lits.append(self.s.literal())
            self.s.expect("punct", ")")
        else:
            lits = [self.s.literal()]
        self.s.modes = None
        return tuple(lits)

    # -- finalization ------------------------------------------------------

    def _finish(self) -> Settings:
        if not self.classes:
            raise ParseError("settings must declare classes([...])")
        st = Settings(
            classes=tuple(self.classes),
            rmodes=tuple(self.rmodes),
            lookaheads=tuple(self.lookaheads),
            types=self.types,
            discretize=tuple(self.discretize),
            params=self.params,
        )
        for rm in st.rmodes:
            for k in threshold_indices(rm.template):
                if not 1 <= k <= len(st.discretize):
                    raise ParseError(
                        f"threshold({k}) does not match any discretize declaration"
                    )
        return st


_DIRECTIVES = frozenset({"classes", "rmode", "lookahead", "typed", "discretize"})

_KIND_NAMES = {"int": "an integer", "float": "a number", "str": "an atom"}

_PARAMS = {f.name: f for f in fields(LearnerConfig)}


def _check_builtin_safety(literals, input_vars: set[str], tok):
    """Builtins must only see variables bound by earlier non-builtin literals
    or by the query (input mode)."""
    bound = set(input_vars)
    for lit in literals:
        if lit.builtin:
            for v in literal_variables([lit]):
                if v not in bound:
                    raise ParseError(
                        f"builtin {lit.pred!r} would see unbound variable {v}",
                        tok.line,
                        tok.col,
                    )
        else:
            bound.update(literal_variables([lit]))


def parse_settings(text: str) -> Settings:
    return _SettingsParser(text).run()


# The arguments of each schema directive: a name or a list of names.
_NAME, _NAMES = "name", "names"
_SHAPES = {
    "table": (_NAME, _NAMES),
    "key": (_NAME, _NAMES),
    "fk": (_NAME, _NAMES, _NAME),
    "background": (_NAME,),
    "elide": (_NAME,),
    "example_id": (_NAME, _NAME),
    "class_attr": (_NAME, _NAME),
    "drop_id": (),
}
# What a directive declares that may be declared once, from its arguments.
_ONCE = {
    "table": "table {!r}",
    "key": "key of {!r}",
    "example_id": "example_id",
    "class_attr": "class_attr",
}


def parse_schema(text: str) -> Schema:
    """The schema reader that ``rdb`` had before it read each directive from
    its clause's tokens by index, with one change: a foreign key into a
    background table needs no key on its target."""
    stream = CursorParser(tokenize(text))
    found: dict[str, list[list]] = {d: [] for d in _SHAPES}
    declared: set[str] = set()

    def read_name(what: str = "a name") -> str:
        tok = stream.peek()
        if tok.kind != "atom":
            raise ParseError(f"expected {what}", tok.line, tok.col)
        stream.next()
        return tok.value

    def read_names() -> tuple[str, ...]:
        stream.expect("punct", "[")
        out = [read_name("an attribute name")]
        while stream.at("punct", ","):
            stream.next()
            out.append(read_name("an attribute name"))
        stream.expect("punct", "]")
        return tuple(out)

    while not stream.at("eof"):
        tok = stream.peek()
        if tok.kind != "atom":
            raise ParseError("expected a schema directive", tok.line, tok.col)
        stream.next()
        shape = _SHAPES.get(tok.value)
        if shape != ():
            stream.expect("punct", "(")
            if shape is None:
                raise ParseError(f"unknown schema directive {tok.value!r}", tok.line, tok.col)
        args = []
        for kind in shape:
            if args:
                stream.expect("punct", ",")
            args.append(read_names() if kind is _NAMES else read_name())
        if tok.value in _ONCE:
            what = _ONCE[tok.value].format(*args)
            if what in declared:
                raise ParseError(f"{what} declared twice", tok.line, tok.col)
            declared.add(what)
        if shape:
            stream.expect("punct", ")")
        stream.expect("end")
        found[tok.value].append(args)

    tables = {name: Table(name, attrs) for name, attrs in found["table"]}

    def table_of(name, what):
        t = tables.get(name)
        if t is None:
            raise ParseError(f"{what} references undeclared table {name!r}")
        return t

    for name, attrs in found["key"]:
        t = table_of(name, "key")
        _check_attrs(t, attrs, "key")
        t.key = attrs
    background = {name for (name,) in found["background"]}
    for name, attrs, target in found["fk"]:
        t = table_of(name, "fk")
        _check_attrs(t, attrs, "fk")
        target_key = table_of(target, "fk target").key
        if target not in background and len(target_key) != len(attrs):
            raise ParseError(
                f"fk({render_atom(name)}, [{', '.join(map(render_atom, attrs))}], "
                f"{render_atom(target)}): target must declare a key of the same arity"
            )
        t.fks += (ForeignKey(attrs, target),)
    for (name,) in found["background"]:
        table_of(name, "background").background = True
    for (name,) in found["elide"]:
        table_of(name, "elide").elide = True
    if not found["example_id"]:
        raise ParseError("schema must declare example_id(table, attr)")
    [(root_name, id_attr)] = found["example_id"]
    root = table_of(root_name, "example_id")
    _check_attrs(root, (id_attr,), "example_id")
    if root.background:
        raise ParseError("the example table cannot be background")
    class_attr = None
    for table_name, class_attr in found["class_attr"]:
        if table_name != root.name:
            raise ParseError("class_attr must be on the example table")
        _check_attrs(root, (class_attr,), "class_attr")
    return Schema(tables, root_name, id_attr, class_attr, bool(found["drop_id"]))


def _check_attrs(table: Table, attrs, what: str):
    for a in attrs:
        if a not in table.attrs:
            raise ParseError(f"{what}: {table.name!r} has no attribute {a!r}")


# ---------------------------------------------------------------------------
# Per-id extraction


def extract_example(snapshot, schema: Schema, id_value: Term, containing: str = "any") -> list[Literal]:
    """The facts of one example id, in table-declaration order then row
    order, from an index built for this one id: what ``rdb.convert_all``
    writes in that id's block."""
    return _example_facts(_Indexes(snapshot, schema, containing, False), id_value)


# ---------------------------------------------------------------------------
# Examples from fact lists


def interp_of(ident: Term, label: str, facts: Iterable[Literal]) -> Interpretation:
    """The example with ``facts``, grouped by predicate/arity key in order of
    first occurrence, each group's rows in the facts' order."""
    groups: dict[tuple[str, int], list] = {}
    for f in facts:
        groups.setdefault(f.key, []).append(f.args)
    return Interpretation(ident, label, {k: tuple(v) for k, v in groups.items()})


# ---------------------------------------------------------------------------
# Reference block reader: one clause at a time through the reference parser
#
# The block reader that ``store`` had before it read facts straight from a
# piece's lexemes: each clause comes whole from ``read_clauses`` above, with
# the line it starts on, as a ``Clause`` of ``Literal``s.


def iter_kb_blocks(path, classes, allow_unlabeled: bool = False) -> Iterator[Interpretation]:
    """The examples of a ``begin/end`` block file, the reference for
    ``store.iter_kb_blocks``."""
    class_set = set(classes)
    ident = None
    groups: dict[tuple[str, int], list] = {}
    label: str | None = None
    with in_file(path), open(path, "r", encoding="utf-8") as f:
        for line, clause in read_clauses(f):
            if clause.body:
                raise DataError(f"a data file holds facts, not rules (line {line})")
            fact = clause.head
            if fact.pred in ("begin", "end") and (marker := _block_marker(fact, line)) is not None:
                kind, block_id = marker
                if kind == "begin":
                    if ident is not None:
                        raise DataError(f"begin inside block {render_term(ident)} (line {line})")
                    ident, groups, label = block_id, {}, None
                    continue
                if ident is None:
                    raise DataError(f"end outside any block (line {line})")
                if block_id != ident:
                    raise DataError(
                        f"mismatched begin/end ids: {render_term(ident)} vs {render_term(block_id)} (line {line})"
                    )
                if label is None:
                    if not allow_unlabeled:
                        raise DataError(f"no class fact in example {render_term(ident)}")
                    label = ""
                yield Interpretation(ident, label, {k: tuple(v) for k, v in groups.items()})
                ident = None
                continue
            if ident is None:
                raise DataError(f"fact outside of a begin/end block (line {line})")
            if not fact.args and fact.pred in class_set:
                if label is not None:
                    raise DataError(
                        f"ambiguous class in example {render_term(ident)}: "
                        f"both {label} and {fact.pred} (line {line})"
                    )
                label = fact.pred
                continue
            if not all(map(is_ground, fact.args)):
                raise DataError(f"non-ground fact in example {render_term(ident)} (line {line})")
            groups.setdefault(fact.key, []).append(fact.args)
        if ident is not None:
            raise DataError(f"unterminated block {render_term(ident)} at end of file")


def _block_marker(fact: Literal, line: int):
    if (
        len(fact.args) == 1
        and isinstance(fact.args[0], Compound)
        and fact.args[0].functor == "model"
        and len(fact.args[0].args) == 1
    ):
        block_id = fact.args[0].args[0]
        if not is_ground(block_id):
            raise DataError(f"example identifier must be ground (line {line})")
        return fact.pred, block_id
    return None


# ---------------------------------------------------------------------------
# The chunk record codec of format v4
#
# A record is self-contained.  It opens with a fixed header: the number of
# constants, the byte length of the constant table, the width of a code (1,
# 2 or 4 bytes) and the number of codes.  Then come a kind byte per constant
# and the constant table: each constant's text in UTF-8, followed by the
# table's separator, which is its last character.  An atom's text is its
# name, an integer's its decimal digits, a float's the 16 hex digits of its
# ``<d`` bytes.  The separator is NUL unless a name holds one.  Last come the
# codes, little-endian at the record's width: the example id (an argument),
# the label (a constant index), the number of groups and, per predicate/arity
# key in order of first occurrence, the predicate (a constant index), the
# arity doubled, plus 1 when the group is tree-coded, the fact count and the
# facts' arguments in file order, or a 0 per fact when the arity is 0.  In a
# plain group each argument is a constant index.  In a tree-coded group, and
# for the id, an argument is a code ``c``: constant ``c >> 1`` when ``c`` is
# even, else a compound of functor constant ``c >> 1`` followed by its arity
# and its arguments.

_ATOM, _INT, _FLOAT = 0, 1, 2  # constant kinds
_DOUBLE = struct.Struct("<d")
_HEAD = struct.Struct("<IIBI")  # constants, table bytes, code width, codes
_TYPECODES = {1: "B", 2: "H", 4: "I"}  # code width -> array type code


def encode_record(interp: Interpretation) -> bytes:
    # Constants take indexes in order of first use: the dict's order is the
    # table's.  Floats are keyed by their bytes, so -0.0 and 0.0 stay apart.
    consts: dict = {}  # atom name, int value or packed float -> index
    numbers: dict[int, int] = {}  # the index of each number constant -> its kind
    codes: list[int] = []
    index = consts.setdefault

    def number(v) -> int:  # the index of the number constant ``v``
        if type(v) is int:
            i = index(v, len(consts))
            numbers[i] = _INT
        else:
            i = index(_DOUBLE.pack(v), len(consts))
            numbers[i] = _FLOAT
        return i

    def put(t: Term):  # one argument in the tree coding
        tt = type(t)
        if tt is Atom:
            codes.append(index(t.name, len(consts)) << 1)
        elif tt is Number:
            codes.append(number(t.value) << 1)
        elif tt is Compound:
            codes.append(index(t.functor, len(consts)) << 1 | 1)
            codes.append(len(t.args))
            for a in t.args:
                put(a)
        else:
            raise TypeError(f"not a ground term: {t!r}")

    put(interp.ident)
    codes.append(index(interp.label, len(consts)))
    codes.append(len(interp.groups))
    for (pred, arity), rows in interp.groups.items():
        codes += (index(pred, len(consts)), arity << 1, len(rows))
        if not arity:
            codes += [0] * len(rows)
            continue
        mark = len(codes)
        for row in rows:
            for t in row:
                tt = type(t)
                if tt is Atom:
                    codes.append(index(t.name, len(consts)))
                elif tt is Number:
                    codes.append(number(t.value))
                else:
                    break
            else:
                continue
            break
        else:
            continue
        del codes[mark:]  # a compound, or a variable that ``put`` rejects: tree-code the group
        codes[mark - 2] |= 1
        for row in rows:
            for t in row:
                put(t)
    texts = list(consts)  # an atom's name is its text
    kinds = bytearray(len(texts))
    for i, kind in numbers.items():
        key = texts[i]
        if kind == _FLOAT:
            texts[i] = key.hex()
        elif -(2**63) <= key < 2**63:
            texts[i] = str(key)
        else:
            raise DataError(f"integer {key} out of the 64-bit storable range")
        kinds[i] = kind
    sep = "\0"
    if any(sep in t for t in texts):  # take the first character that no text holds
        sep = next(c for c in map(chr, range(1, 0x110000)) if all(c not in t for t in texts))
    table = "".join(t + sep for t in texts).encode("utf-8")
    top = max(codes)
    if top >= 1 << 32:
        raise DataError(f"a count or index of {top} is over the 32 bits of a record code")
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    packed = b"".join(c.to_bytes(width, "little") for c in codes)
    return _HEAD.pack(len(texts), len(table), width, len(codes)) + bytes(kinds) + table + packed


def _constant(kind: int, text: str) -> Term:
    """The constant of kind ``kind`` and text ``text``."""
    if kind == _ATOM:
        return Atom(text)
    if kind == _INT:
        if str(value := int(text)) != text:
            raise ValueError(text)
        return Number(value)
    if kind == _FLOAT:
        return Number(_DOUBLE.unpack(bytes.fromhex(text))[0])
    raise DataError(f"corrupt chunk record (bad constant kind {kind})")


def _args(codes: list, pos: int, count: int, terms: list) -> tuple[list, int]:
    """The ``count`` tree-coded arguments from ``pos`` on, and the position
    after them."""
    out = []
    for _ in range(count):
        c = codes[pos]
        if c & 1:
            args, pos = _args(codes, pos + 2, codes[pos + 1], terms)
            out.append(Compound(_atom_name(terms[c >> 1]), tuple(args)))
        else:
            out.append(terms[c >> 1])
            pos += 1
    return out, pos


def _atom_name(t: Term) -> str:
    if type(t) is not Atom:
        raise DataError("corrupt chunk record (a number where a name is required)")
    return t.name


def decode_record(buf: bytes) -> Interpretation:
    """The example a v4 record holds, its facts in groups.  A record that
    does not decode, or leaves bytes unread, is a ``DataError``."""
    try:
        nconst, tlen, width, ncodes = _HEAD.unpack_from(buf)
        start = _HEAD.size + nconst  # of the table
        end = start + tlen  # of the table, and the start of the codes
        if end + width * ncodes != len(buf) or width not in _TYPECODES:
            raise DataError("corrupt chunk record (its sizes disagree with its length)")
        codes = [int.from_bytes(buf[i : i + width], "little") for i in range(end, len(buf), width)]
        text = buf[start:end].decode("utf-8")
        texts = text.split(text[-1])[:-1] if text else []
        if len(texts) != nconst:
            raise DataError(f"corrupt chunk record ({len(texts)} constants in a table of {nconst})")
        terms = [_constant(kind, t) for kind, t in zip(buf[_HEAD.size : start], texts)]
        (ident,), pos = _args(codes, 0, 1, terms)
        label = _atom_name(terms[codes[pos]])
        ngroups = codes[pos + 1]
        pos += 2
        groups: dict[tuple[str, int], tuple] = {}
        for _ in range(ngroups):
            c, arity, n = codes[pos], codes[pos + 1], codes[pos + 2]
            pos += 3
            key = (_atom_name(terms[c]), arity >> 1)
            if key in groups or not n or n * max(key[1], 1) > ncodes - pos:
                raise DataError(f"corrupt chunk record (bad group {key[0]}/{key[1]})")
            if not key[1]:
                if any(codes[pos : pos + n]):
                    raise DataError(f"corrupt chunk record (a fact of {key[0]}/0 is not marked 0)")
                rows = ((),) * n
                pos += n
            elif arity & 1:
                args, pos = _args(codes, pos, n * key[1], terms)
                rows = tuple(zip(*[iter(args)] * key[1]))
            else:
                args = [terms[c] for c in codes[pos : pos + n * key[1]]]
                rows = tuple(zip(*[iter(args)] * key[1]))
                pos += n * key[1]
            groups[key] = rows
    except (IndexError, ValueError, struct.error, UnicodeDecodeError, RecursionError):
        raise DataError("corrupt chunk record") from None
    if pos != ncodes:
        raise DataError(f"corrupt chunk record ({(ncodes - pos) * width} bytes unread)")
    return Interpretation(ident, label, groups)


# ---------------------------------------------------------------------------
# The frozen dataclass terms


@dataclass(frozen=True, slots=True)
class DataclassAtom:
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class DataclassNumber:
    """Numeric constant; integers and floats are distinct terms (1 != 1.0)."""

    value: int | float

    def __eq__(self, other):
        return (
            type(other) is DataclassNumber
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self):
        return hash((type(self.value).__name__, self.value))


@dataclass(frozen=True, slots=True)
class DataclassVariable:
    name: str


@dataclass(frozen=True, slots=True)
class DataclassCompound:
    functor: str
    args: tuple


def dataclass_repr(term) -> str:
    """The dataclass ``repr`` under the names of ``terms``' classes."""
    return repr(term).replace("Dataclass", "")


def render_dataclass_term(term) -> str:
    if isinstance(term, DataclassAtom):
        return render_atom(term.name)
    if isinstance(term, DataclassNumber):
        v = term.value
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"cannot render non-finite float {v!r}")
        return repr(v)
    if isinstance(term, DataclassVariable):
        return term.name
    if isinstance(term, DataclassCompound):
        return render_atom(term.functor) + "(" + ",".join(render_dataclass_term(a) for a in term.args) + ")"
    raise TypeError(f"not a term: {term!r}")


def from_dataclass(term) -> Term:
    """The ``terms`` term with the fields of the dataclass term ``term``."""
    if isinstance(term, DataclassAtom):
        return Atom(term.name)
    if isinstance(term, DataclassNumber):
        return Number(term.value)
    if isinstance(term, DataclassVariable):
        return Variable(term.name)
    return Compound(term.functor, tuple(from_dataclass(a) for a in term.args))


# ---------------------------------------------------------------------------
# The interpreted query-pack walk
#
# ``InterpretedPack`` is ``engine.Pack`` as it was while its trie was walked
# by an interpreter: a static plan per pack literal (``_plan``), then one
# explicit-stack loop (``_walk``) over trie nodes, static plans, run-time
# plans and clause resolution.  It is kept, with its helpers renamed, as the
# reference that the generated walks must agree with: outcome bits, steps,
# ``answers`` lists and error texts.  It reads the term helpers that the
# engine still has, matches facts with its own ``_walk_match``, and compiles
# background clauses with its own literal class (``_walk_rules``).

class _WalkLit:
    """A compiled literal.  ``plan`` is set for a pack's literal whose
    predicate has no clauses and whose arguments are constants and slots
    known to be unbound or bound to a ground term (see ``_walk_fact_plan`` and
    ``_walk_builtin_plan``); every other literal that is not a builtin gets its
    fact plan from ``_walk_goal_plan`` when the walk reaches it."""

    __slots__ = ("lit", "key", "args", "op", "plan")

    def __init__(self, lit: Literal, slots: dict[str, int]):
        self.lit = lit
        self.key = lit.key
        self.args = tuple(_e_compile_term(a, slots) for a in lit.args)
        self.op = lit.pred if lit.builtin else None
        self.plan = None


class _WalkClause:
    """A compiled clause.  ``linear`` is set when the head's arguments are
    distinct variables in slot order, so that matching the head is binding
    each argument (see ``InterpretedPack._walk``)."""

    __slots__ = ("size", "head", "body", "linear")

    def __init__(self, clause: Clause):
        slots: dict[str, int] = {}
        self.head = tuple(_e_compile_term(a, slots) for a in clause.head.args)
        self.body = tuple(_WalkLit(l, slots) for l in clause.body)
        self.size = len(slots)
        self.linear = self.head == tuple(range(len(self.head)))



def _walk_match(t, g: Term, b: list, trail: list) -> bool:
    """Unify ``t`` with the ground term ``g`` (no occurs check needed)."""
    t = _e_deref(t, b)
    if type(t) is int:
        b[t] = g
        trail.append(t)
        return True
    if type(t) is _e_Struct:
        return (
            type(g) is Compound
            and g.functor == t.functor
            and len(g.args) == len(t.args)
            and all(_walk_match(x, y, b, trail) for x, y in zip(t.args, g.args))
        )
    return t == g


def _walk_scan(facts, i: int, want, sames, pats, b: list, trail: list) -> int:
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
                if all(_walk_match(t, fa[p], b, trail) for p, t in pats):
                    return i
                _e_undo(b, trail, mark)
        i += 1
    return n


def _walk_builtin(g: _WalkLit, off: int, b: list, trail: list, names) -> bool:
    x, y = g.args
    if off:
        x, y = _e_shift(x, off), _e_shift(y, off)
    if g.op == "=":
        return _e_unify(x, y, b, trail)
    return _e_test(g.op, _e_ground(x, b, names), _e_ground(y, b, names), g.lit)


def _walk_goal_plan(args: tuple, off: int, b: list, names: list[str]):
    """The fact plan of a literal with no static one, made when the walk
    reaches it: ``_walk_fact_plan``'s ``(index, want, checks, binds, sames,
    pats)`` with every argument dereferenced, so ground values go to
    ``want`` (or the index) and ``checks`` is empty.  An argument that holds
    a compound with an unbound slot goes to ``pats``; then the unbound slots
    go there too, ahead of it, so ``_walk_scan`` binds them before it matches the
    compounds, and ``binds`` is empty."""
    want, binds, sames, pats = [], [], [], []
    for p, a in enumerate(args):
        if type(a) is int:
            a = _e_deref(a + off, b)
            if type(a) is int:
                for q, s in binds:
                    if s == a:
                        sames.append((p, q))
                        break
                else:
                    binds.append((p, a))
                continue
        elif type(a) is _e_Struct and off:
            a = _e_shift(a, off)
        if type(a) is _e_Struct:
            t = _e_ground(a, b, names)
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

_WALK_DIRECT, _WALK_UNKNOWN = 1, 2  # bound to a ground term / anything; absent: unbound


def _walk_known(a, state: dict) -> bool:
    """A constant, or a slot bound to a ground term."""
    return type(a) is not _e_Struct and (type(a) is not int or state.get(a) == _WALK_DIRECT)


def _walk_builtin_plan(g: _WalkLit, state: dict):
    """For an argument pair that is all constants and ground-bound slots:
    ``(x, x_is_slot, y, y_is_slot, equal)``, where ``equal`` is what the
    builtin needs of ``x == y`` (True for ``=``, False for ``\\=``, None for a
    comparison)."""
    x, y = g.args
    if _walk_known(x, state) and _walk_known(y, state):
        equal = {"=": True, "\\=": False}.get(g.op)
        return (x, type(x) is int, y, type(y) is int, equal)
    return None


def _walk_fact_plan(g: _WalkLit, state: dict, rules: dict):
    """For a literal that only facts prove, over constants and slots that are
    unbound or ground-bound: ``(index, want, checks, binds, sames, pats)``.

    ``index`` is None (scan every fact), ``(False, constant)`` or ``(True,
    slot)`` for the first-argument index key.  A fact must have ``want``'s
    constants and ``checks``' slot values at their positions (position 0 is
    left out when indexed), equal arguments at each pair of ``sames``
    positions, and then gives ``binds``' unbound slots their values.
    ``pats`` is always empty here (see ``_walk_goal_plan``)."""
    if g.key in rules:
        return None
    want, checks, binds, sames, first = [], [], [], [], {}
    for p, a in enumerate(g.args):
        if type(a) is _e_Struct:
            return None
        if type(a) is not int:
            want.append((p, a))
        elif state.get(a) == _WALK_UNKNOWN:
            return None
        elif state.get(a) == _WALK_DIRECT:
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


def _walk_after(g: _WalkLit, state: dict, rules: dict) -> dict:
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
        elif type(a) is _e_Struct:
            stack.extend(a.args)
    new = _WALK_DIRECT if g.op is None and g.key not in rules else _WALK_UNKNOWN
    out = dict(state)
    for s in slots:
        out.setdefault(s, new)
    return out



class _WalkNode:
    """A trie node: the literals on its path are a prefix of every query in
    ``mask`` and the whole of every query in ``ends``.  ``entry`` is the goal
    list that proves the node's literal and then arrives at the node."""

    __slots__ = ("lit", "ends", "mask", "kids", "lone", "entry")

    def __init__(self, lit: _WalkLit | None):
        self.lit = lit
        self.ends = self.mask = 0
        self.kids: tuple[_WalkNode, ...] = ()
        self.lone: _WalkNode | None = None  # the kid, when there is just one
        self.entry = (lit, 0, (self, 0, None))


_WALK_BRANCH, _WALK_FACTS, _WALK_CLAUSES = 0, 1, 2  # choice point kinds


class InterpretedPack:
    """Queries compiled into one literal-prefix trie (see the module
    docstring); ``run`` decides them all on an example in one walk."""

    def __init__(self, queries):
        self.queries = tuple(queries)
        slots: dict[str, int] = {}
        self.root = _WalkNode(None)
        index: dict[tuple[int, Literal], _WalkNode] = {}
        for qi, query in enumerate(self.queries):
            bit = 1 << qi
            node = self.root
            node.mask |= bit
            for lit in query.literals:
                kid = index.get((id(node), lit))
                if kid is None:
                    kid = index[id(node), lit] = _WalkNode(_WalkLit(lit, slots))
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
        rules = self._rules = _walk_rules(background)
        todo = [(self.root, {})]
        while todo:
            node, state = todo.pop()
            for kid in node.kids:
                g = kid.lit
                g.plan = _walk_fact_plan(g, state, rules) if g.op is None else _walk_builtin_plan(g, state)
                todo.append((kid, _walk_after(g, state, rules)))
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
        rules = self._rules
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
        try:
            while True:
                g, off, rest = goals
                if type(g) is _WalkNode:
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
                        stack.append([_WALK_BRANCH, g, len(trail), size, iter(g.kids)])
                elif g.op is not None:
                    steps += 1
                    if steps > limit:
                        raise self._exhausted(interp, budget, owner.mask & ~done)
                    plan = g.plan
                    try:
                        if plan is None:
                            ok = _walk_builtin(g, off, b, trail, names)
                        else:
                            x, xs, y, ys, equal = plan
                            x = b[x] if xs else x
                            y = b[y] if ys else y
                            ok = _e_test(g.op, x, y, g.lit) if equal is None else (x == y) is equal
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
                        args = g.args if not off else tuple(_e_shift(a, off) for a in g.args)
                        stack.append([_WALK_CLAUSES, owner, len(trail), size, 0, rules[g.key], args, rest])
                    facts = groups.get(g.key)
                    if facts is not None:
                        if plan is None:
                            plan = _walk_goal_plan(g.args, off, b, names)
                        index, want, checks, binds, sames, pats = plan
                        if index is not None:
                            facts = interp.firsts(g.key).get(b[index[1]] if index[0] else index[1], ())
                        if checks:
                            want = want + tuple((p, b[s]) for p, s in checks)
                        n = len(facts)
                        mark = len(trail)
                        i = _walk_scan(facts, 0, want, sames, pats, b, trail) if want or sames or pats else 0
                        steps += i + 1 if i < n else n
                        if steps > limit:
                            raise self._exhausted(interp, budget, owner.mask & ~done)
                        if i < n:
                            if i + 1 < n:  # facts left to try on backtracking
                                stack.append([
                                    _WALK_FACTS, owner, mark, size, i + 1,
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
                    _e_undo(b, trail, mark)
                    if size > cp[3]:
                        size = cp[3]
                        del b[size:]
                    if not cp[1].mask & ~done:
                        stack.pop()
                        continue
                    kind = cp[0]
                    if kind is _WALK_FACTS:
                        i, facts, n, want, binds, sames, pats = cp[4:11]
                        j = _walk_scan(facts, i, want, sames, pats, b, trail) if want or sames or pats else i
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
                    if kind is _WALK_CLAUSES:
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
                                # What ``_e_unify`` does against fresh slots: an
                                # unbound argument is bound to its head slot,
                                # anything else binds the head slot.
                                for s, x in enumerate(args, top):
                                    x = _e_deref(x, b)
                                    if type(x) is int:
                                        b[x] = s
                                        trail.append(x)
                                    else:
                                        b[s] = x
                                        trail.append(s)
                            elif not all(
                                _e_unify(x, _e_shift(h, top), b, trail) for x, h in zip(args, c.head)
                            ):
                                _e_undo(b, trail, mark)
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
        except RecursionError:
            # As the engine: a term nested deeper than the recursive term
            # helpers can walk is an error of the query being proved.
            raise self._error(QueryError, "term nested too deeply", interp, owner.mask & ~done) from None
        self.steps += steps
        return done


    def answers(self, var: str, interp, background=None, budget: int = DEFAULT_BUDGET) -> list[Term]:
        """What ``answer_all`` returned: the bindings of ``var`` at every
        solution, through the walk's sink."""
        if var not in self.slots:
            raise QueryError(f"variable {var} does not occur in the query")
        slot, names, out = self.slots[var], self.names, []
        self._walk(interp, background, budget, lambda b: out.append(_e_term(slot, b, names)))
        return out


def _walk_rules(background) -> dict:
    """``background``'s clauses by head key, compiled with ``_WalkLit``."""
    by_key: dict = {}
    for c in background.clauses:
        by_key.setdefault(c.head.key, []).append(_WalkClause(c))
    return {k: tuple(v) for k, v in by_key.items()}
