"""Term model, tokenizer, parser, renderer and term mapper for the Prolog
subset used by data files, background programs, settings files and model
files.

Each term is a ``tuple`` subclass whose first item is a private tag for its
kind: ``Atom`` is ``(tag, name)``, ``Number`` is ``(tag, type(value),
value)``, ``Variable`` is ``(tag, name)`` and ``Compound`` is ``(tag,
functor, args)``, with ``args`` a tuple of terms.  So ``==``, ``!=`` and
``hash`` are the tuple's own, run in C, which is what the engine's fact scans,
first-argument index and ``\\=`` tests do on every example.  Two terms are
equal exactly when they are of one kind with equal fields: ``Atom('x') !=
Variable('x')``, and ``Number(1) != Number(1.0) != Number(True)`` because the
value's type is compared too, while ``Number(0.0) == Number(-0.0)``.  The
tags compare by identity, so no tuple built without them equals a term.  A
NaN is equal to itself inside a term, unlike the float alone: tuple equality
takes one object as equal to itself, so ``n == n`` holds for a ``Number``
``n`` holding NaN, while two ``Number``s over distinct NaN objects differ.
The fields are read-only properties over the tuple's items, a term has no
``__dict__``, and a tuple's items cannot be reassigned, so a term cannot be
changed after it is built; pickling and copying rebuild it through its
constructor.

The grammar is deliberately small: unquoted lowercase atoms (interior hyphens
allowed, so identifiers like ``h2o-1`` are plain atoms), single-quoted atoms
with ``''`` escaping, signed integers and floats, uppercase/underscore
variables, and compounds ``f(t1,...,tn)``.  The only infix operators are
``:-`` and the comparison builtins; ``%`` starts a comment.

The tokenizer alone decides where a clause ends: a ``.`` followed by layout,
``%`` or the end of the input is an ``end`` token, in every input (a data
file's last clause included).  Any other ``.`` is a ``punct`` token that no
grammar accepts, so ``p(a).q(b).`` is a ``ParseError``.  Rendering is
canonical: ``parse(render(parse(t)))`` is structurally identical to
``parse(t)``, and atoms are quoted exactly when they would not re-parse
unquoted.

Refinement templates (the ``rmode`` directive of settings files) extend the
grammar with mode markers: a variable may be written ``+V`` (input), ``-V``
(output) or ``+-V`` (either).  Markers are accepted only while a
``TermParser`` has a mode table; there, a named variable must carry a marker
at its first occurrence and no later one, and each bare ``_`` counts as an
output.  A marked ``_`` (``+_``, ``-_``, ``+-_``) is a fresh variable,
numbered like a bare one, that keeps its marker.  Anywhere else -- data files,
background programs, lookahead declarations, discretize queries -- a marker
is a ``ParseError`` at its position.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Union

from .errors import ParseError

BUILTIN_PREDS = frozenset({"=", "\\=", "<", ">", "=<", ">="})


# The private kind tags that open each term's tuple.  They compare by
# identity, so two terms are equal only when their kinds are, and no plain
# tuple equals a term.  So pickling and copying go through each class's
# ``__reduce__``, which rebuilds a term from its fields: copying the items
# would copy the tag by value (pickle protocols 0 and 1 ignore
# ``__getnewargs__``), and the copy would equal nothing.
_ATOM_TAG, _NUMBER_TAG, _VARIABLE_TAG, _COMPOUND_TAG = object(), object(), object(), object()


class Atom(tuple):
    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, (_ATOM_TAG, name))

    name = property(itemgetter(1))

    def __reduce__(self):
        return Atom, (self[1],)

    def __repr__(self):
        return f"Atom(name={self[1]!r})"


class Number(tuple):
    """Numeric constant; integers and floats are distinct terms (1 != 1.0),
    as the value's type is part of the tuple."""

    __slots__ = ()

    def __new__(cls, value: int | float):
        return tuple.__new__(cls, (_NUMBER_TAG, type(value), value))

    value = property(itemgetter(2))

    def __reduce__(self):
        return Number, (self[2],)

    def __repr__(self):
        return f"Number(value={self[2]!r})"


class Variable(tuple):
    __slots__ = ()

    def __new__(cls, name: str):
        return tuple.__new__(cls, (_VARIABLE_TAG, name))

    name = property(itemgetter(1))

    def __reduce__(self):
        return Variable, (self[1],)

    def __repr__(self):
        return f"Variable(name={self[1]!r})"


class Compound(tuple):
    __slots__ = ()

    def __new__(cls, functor: str, args: "tuple[Term, ...]"):
        return tuple.__new__(cls, (_COMPOUND_TAG, functor, args))

    functor = property(itemgetter(1))
    args = property(itemgetter(2))

    def __reduce__(self):
        return Compound, (self[1], self[2])

    def __repr__(self):
        return f"Compound(functor={self[1]!r}, args={self[2]!r})"


Term = Union[Atom, Number, Variable, Compound]


@dataclass(frozen=True, slots=True)
class Literal:
    """A predicate applied to terms; ``builtin`` only for the comparison set."""

    pred: str
    args: tuple[Term, ...]
    builtin: bool = False

    @property
    def key(self) -> tuple[str, int]:
        return (self.pred, len(self.args))


@dataclass(frozen=True, slots=True)
class Clause:
    head: Literal
    body: tuple[Literal, ...] = ()


def term_variables(term: Term, acc: list[str] | None = None) -> list[str]:
    """Variable names in ``term``, ordered by first occurrence."""
    if acc is None:
        acc = []
    if isinstance(term, Variable):
        if term.name not in acc:
            acc.append(term.name)
    elif isinstance(term, Compound):
        for a in term.args:
            term_variables(a, acc)
    return acc


def literal_variables(literals, acc: list[str] | None = None) -> list[str]:
    if acc is None:
        acc = []
    for lit in literals:
        for a in lit.args:
            term_variables(a, acc)
    return acc


def is_ground(term: Term) -> bool:
    if isinstance(term, Variable):
        return False
    if isinstance(term, Compound):
        return all(is_ground(a) for a in term.args)
    return True


def map_term(term: Term, fn) -> Term:
    """``term`` with every subterm ``t`` for which ``fn(t)`` is not None
    replaced by that value.  Subterms are visited left to right, outermost
    first, and a replaced subterm is not descended into."""
    new = fn(term)
    if new is not None:
        return new
    if isinstance(term, Compound):
        return Compound(term.functor, tuple(map_term(a, fn) for a in term.args))
    return term


def map_literals(literals, fn) -> tuple[Literal, ...]:
    """``map_term`` over the arguments of each literal, in order."""
    return tuple(
        Literal(l.pred, tuple(map_term(a, fn) for a in l.args), l.builtin) for l in literals
    )


# ---------------------------------------------------------------------------
# Tokenizer

# The lexical grammar, one named group per token kind.  Layout (space, tab,
# CR, LF and %-comments) is absorbed before each token, and the unnamed last
# alternative matches the end of the text.  Alternatives are tried in order,
# the most frequent first: an atom, then the punctuation that no other
# alternative can start.  Where two alternatives can start alike, the longer
# comes first: a float before an int, a signed number before a '+'/'-'
# marker, a two-character operator before a ':' and an ``end`` before a '.'.
# ``sign`` holds those last four punctuation marks; its tokens are of kind
# ``punct``.  Unquoted lexemes are ASCII (Unicode goes inside quotes), so
# digits are [0-9], never \d.  Python 3.10 has neither possessive
# quantifiers nor atomic groups; ``(?!')`` instead keeps a quoted atom from
# closing on the first quote of a ``''`` escape.  No token spans a line: a
# quoted atom and a comment stop at a newline.
_ATOM = r"[a-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"
_TOKEN_RE = re.compile(
    rf"""(?:[ \t\r\n]|%[^\n]*)*
    (?: (?P<atom>{_ATOM})
      | (?P<punct>[(),\[\]!])
      | (?P<end>\.)(?=[ \t\r\n%]|\Z)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<op>:-|=<|>=|\\=|[=<>])
      | (?P<float>[+-]?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
      | (?P<int>[+-]?[0-9]+)
      | (?P<quoted>'(?:[^'\n]|'')*'(?!'))
      | (?P<sign>[.:+-])
      | (?P<unterminated>')
      | (?P<unexpected>.)
      | \Z
    )""",
    re.VERBOSE,
)
_UNQUOTED_ATOM_RE = re.compile(_ATOM + r"\Z")
# The kind of a token by the index of its group, which ``Match.lastindex``
# gives faster than ``lastgroup`` gives the name.
_KINDS = (None,) + tuple(
    "punct" if name == "sign" else name for name in sorted(_TOKEN_RE.groupindex, key=_TOKEN_RE.groupindex.get)
)
# The kinds whose value is not their text, or that are lexical errors.
_CONVERTED = frozenset({"float", "int", "quoted", "unterminated", "unexpected"})


def line_pieces(f, size: int = 1 << 16) -> Iterator[str]:
    """The text of the open file ``f`` in pieces of whole lines: each the
    next ``size`` characters and the rest of the line they end in."""
    while piece := f.read(size):
        yield piece + f.readline()


class _Lexer:
    """The tokens of an iterable of items of whole lines, such as the pieces
    of ``line_pieces`` or a single text; the end of an item ends a line.

    A token is the tuple ``(kind, text, value, pos)``, ``pos`` being its
    offset in the text the lexer holds, which is the current item, led by
    the lines of a clause that began in an item before.  ``position`` turns
    an offset into a line and column by counting newlines from the place
    it was last asked about, so offsets must be asked about in order."""

    def __init__(self, items: Iterable[str]):
        self._items = items
        self._text = ""
        self._at = 0  # an offset in ``_text``, on line ``_line``
        self._line = 1

    def line(self, pos: int) -> int:
        """The line of the offset ``pos``."""
        self._line += self._text.count("\n", self._at, pos)
        self._at = pos
        return self._line

    def position(self, pos: int) -> tuple[int, int]:
        return self.line(pos), pos - self._text.rfind("\n", 0, pos)

    def clauses(self) -> Iterator[list[tuple]]:
        """The tokens, one list per clause, handed out at its ``end`` token
        before anything after it is read.  A list that the input ends before
        its ``end`` gets an ``eof`` token just after its last one.  A lexical
        error hands out the tokens before it, and is raised next."""
        finditer = _TOKEN_RE.finditer
        kinds, converted = _KINDS, _CONVERTED
        toks: list[tuple] = []
        text = ""
        for piece in self._items:
            if piece[-1:] != "\n":
                piece += "\n"
            if toks:  # a clause runs on: keep its lines, and its tokens' places in them
                cut = text.rfind("\n", 0, toks[0][3]) + 1
                self._line += text.count("\n", self._at, cut)
                text = text[cut:] + piece
                toks = [(kind, lexeme, value, pos - cut) for kind, lexeme, value, pos in toks]
            else:
                self._line += text.count("\n", self._at)
                text = piece
            self._text, self._at = text, 0
            error = None
            for m in finditer(text, len(text) - len(piece)):
                i = m.lastindex
                if i is None:
                    break
                kind, lexeme, pos = kinds[i], m[i], m.start(i)
                if kind not in converted:
                    value = lexeme
                elif kind == "int":
                    try:
                        value = int(lexeme)
                    except ValueError:  # more digits than int() converts
                        error = f"number too long ({len(lexeme)} characters)"
                        break
                elif kind == "float":
                    value = float(lexeme)
                    if not math.isfinite(value):
                        error = "number out of range"
                        break
                elif kind == "quoted":
                    kind, value = "atom", lexeme[1:-1].replace("''", "'")
                else:
                    error = "unterminated quote" if kind == "unterminated" else f"unexpected character {lexeme!r}"
                    break
                toks.append((kind, lexeme, value, pos))
                if kind == "end":
                    yield toks
                    toks = []
            if error is not None:
                yield toks  # the parser may name one of them first, and places go in order
                raise ParseError(error, *self.position(pos))
        if toks:
            last = toks[-1]
            toks.append(("eof", "", None, last[3] + len(last[1])))
            yield toks


# ---------------------------------------------------------------------------
# Parser

# A punctuation or operator token is told by its text alone: no other kind
# has such a text, as a quoted atom's text keeps its quotes.
_END_WANTED = "'.' followed by layout to end the clause"


class TermParser:
    """Recursive-descent parser over a list of tokens that ends with an
    ``end`` or ``eof`` token.  The grammar methods take the list and an index
    and return what they parsed with the index after it.  They read a token
    only after taking the one before it, so tokens that a lexical error cut
    short run out (``IndexError``) where a parser pulling one token at a time
    would meet the error.  ``where`` gives the line and column of a token,
    for errors.

    Every bare ``_`` token becomes a distinct fresh variable (``_1``, ``_2``,
    ...); named underscore variables such as ``_Foo`` are kept as written.
    While ``modes`` is a dict, variables take mode markers and the dict
    records each variable's marker (``+``, ``-`` or ``+-``); while it is
    None, a marker is a parse error.
    """

    def __init__(self, where):
        self._anon = 0
        self.modes: dict[str, str] | None = None
        self.where = where

    def expect(self, toks, i, text: str) -> int:
        """The index after ``toks[i]``, which must be the punctuation or
        operator ``text``."""
        if toks[i][1] != text:
            raise self._expected(repr(text), toks[i])
        return i + 1

    def end(self, toks, i):
        """``toks[i]`` must end the clause."""
        if toks[i][0] != "end":
            raise self._expected(_END_WANTED, toks[i])

    def clause(self, toks, allow_cut: bool = False) -> Clause:
        """The fact ``Head.`` or rule ``Head :- B1, ..., Bn.`` that ``toks``
        holds up to its ``end`` token."""
        head, i = self.literal(toks, 0, False)
        tok = toks[i]
        if head.builtin or head.pred == "!":
            what = f"builtin {head.pred!r}" if head.builtin else "cut"
            raise self.error(f"{what} cannot appear in head position", toks[0])
        body: list[Literal] = []
        sep = ":-"
        while tok[1] == sep:
            lit, i = self.literal(toks, i + 1, allow_cut)
            body.append(lit)
            tok, sep = toks[i], ","
        if tok[0] != "end":
            raise self._expected(_END_WANTED, tok)
        return Clause(head, tuple(body))

    def error(self, message: str, tok) -> ParseError:
        return ParseError(message, *self.where(tok))

    def _expected(self, want: str, tok) -> ParseError:
        return self.error(f"expected {want}, found {tok[1] or tok[0]!r}", tok)

    def literal(self, toks, i, allow_cut: bool = False):
        tok = toks[i]
        if tok[1] == "!":
            if not allow_cut:
                raise self.error("cut is not allowed here", tok)
            return Literal("!", ()), i + 1
        if tok[0] == "atom":  # built as a literal unless a builtin follows
            args, i = self._args(toks, i + 2) if toks[i + 1][1] == "(" else ((), i + 1)
            if toks[i][1] not in BUILTIN_PREDS:
                return Literal(tok[2], args), i
            lhs = Compound(tok[2], args) if args else Atom(tok[2])
        else:  # a variable or a number, which only a builtin makes a literal
            lhs, i = self.term(toks, i)
            if toks[i][1] not in BUILTIN_PREDS:
                raise self.error("a literal must be an atom or a compound term", tok)
        op = toks[i][1]
        rhs, i = self.term(toks, i + 1)
        return Literal(op, (lhs, rhs), builtin=True), i

    def term(self, toks, i):
        tok = toks[i]
        kind = tok[0]
        if kind == "atom":
            if toks[i + 1][1] == "(":
                args, i = self._args(toks, i + 2)
                return Compound(tok[2], args), i
            return Atom(tok[2]), i + 1
        if kind == "int" or kind == "float":
            return Number(tok[2]), i + 1
        text = tok[1]
        if kind == "var":
            if text == "_":
                name = self._fresh_anonymous()
                if self.modes is not None:
                    self.modes[name] = "-"  # each anonymous slot is a fresh output
                return Variable(name), i + 1
            if self.modes is not None and text not in self.modes:
                raise self.error(f"variable {text} needs a mode marker at its first occurrence", tok)
            return Variable(text), i + 1
        if text == "+" or text == "-":
            return self._marked_variable(toks, i)
        raise self.error(f"expected a term, found {text or kind!r}", tok)

    def _args(self, toks, i):
        """The comma-separated terms from ``toks[i]`` to a closing ``)``."""
        arg, i = self.term(toks, i)
        args = [arg]
        while toks[i][1] == ",":
            arg, i = self.term(toks, i + 1)
            args.append(arg)
        if toks[i][1] != ")":
            raise self._expected("')'", toks[i])
        return tuple(args), i + 1

    def _marked_variable(self, toks, i):
        marker = toks[i]
        if self.modes is None:
            raise self.error("mode markers are not allowed here", marker)
        mode = marker[1]
        i += 1
        if mode == "+" and toks[i][1] == "-":
            mode, i = "+-", i + 1
        v = toks[i]
        if v[0] != "var":
            raise self.error("mode marker must precede a variable", v)
        if v[1] == "_":
            name = self._fresh_anonymous()
        elif v[1] in self.modes:
            raise self.error(f"variable {v[1]} already carries a mode marker", v)
        else:
            name = v[1]
        self.modes[name] = mode
        return Variable(name), i + 1

    def _fresh_anonymous(self) -> str:
        self._anon += 1
        return f"_{self._anon}"


def lex_clauses(text: str) -> tuple[list[list[tuple]], TermParser]:
    """The tokens of ``text``, one list per clause as ``read_clauses`` gets
    them, and a parser that places them in ``text``.  The whole text is
    lexed first, so a lexical error anywhere in it comes before any syntax
    error."""
    lexer = _Lexer((text,))
    return list(lexer.clauses()), TermParser(where=lambda tok: lexer.position(tok[3]))


def parse_term(text: str) -> Term:
    """Parse a complete term; trailing input is an error."""
    clauses, parser = lex_clauses(text)
    if not clauses:
        raise ParseError("empty input", 1, 1)
    toks = clauses[0]
    term, i = parser.term(toks, 0)
    if toks[i][0] != "eof":
        raise parser.error(f"unexpected trailing input {toks[i][1]!r}", toks[i])
    return term


def read_clauses(items: Iterable[str], allow_cut: bool = False) -> Iterator[tuple[int, Clause]]:
    """Stream ``(line, clause)`` pairs, ``line`` being where the clause
    starts, from an iterable of items of whole lines, such as the lines of
    an open file or its ``line_pieces``.  The end of an item ends a line.

    Clauses are ``Head.`` facts and ``Head :- B1, ..., Bn.`` rules, each
    ended by the tokenizer's ``end`` token.  Items are read up to a clause's
    ``end`` and no further before the clause is yielded, and at most one
    item (led by the lines of a clause begun before it) and one clause's
    tokens are held at a time.  A syntax error takes precedence over a
    lexical error later in the same clause: the tokens before a lexical
    error are parsed first.  One ``TermParser`` serves all the items, so
    bare ``_`` variables are numbered through the whole input.
    ``allow_cut`` admits ``!`` as a body literal, which the model-file
    decision-list section uses as a trailing marker token.
    """
    lexer = _Lexer(items)
    parser = TermParser(where=lambda tok: lexer.position(tok[3]))
    for toks in lexer.clauses():
        try:
            clause = parser.clause(toks, allow_cut)
        except IndexError:  # cut short by a lexical error, raised next
            continue
        yield lexer.line(toks[0][3]), clause


def parse_program(text: str, allow_cut: bool = False) -> tuple[Clause, ...]:
    """Parse a sequence of facts and rules (see ``read_clauses``)."""
    return tuple(clause for _, clause in read_clauses((text,), allow_cut))

# ---------------------------------------------------------------------------
# Renderer


def render_atom(name: str) -> str:
    if _UNQUOTED_ATOM_RE.match(name):
        return name
    return "'" + name.replace("'", "''") + "'"


def render_term(term: Term) -> str:
    if isinstance(term, Atom):
        return render_atom(term.name)
    if isinstance(term, Number):
        v = term.value
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"cannot render non-finite float {v!r}")
        return repr(v)
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Compound):
        return render_atom(term.functor) + "(" + ",".join(render_term(a) for a in term.args) + ")"
    raise TypeError(f"not a term: {term!r}")


def render_literal(lit: Literal) -> str:
    if lit.builtin:
        return f"{render_term(lit.args[0])} {lit.pred} {render_term(lit.args[1])}"
    if lit.pred == "!" and not lit.args:
        return "!"
    if not lit.args:
        return render_atom(lit.pred)
    return render_atom(lit.pred) + "(" + ",".join(render_term(a) for a in lit.args) + ")"


def render_conjunction(literals) -> str:
    if not literals:
        return "true"
    return ", ".join(render_literal(l) for l in literals)


def render_fact(lit: Literal) -> str:
    return render_literal(lit) + "."
