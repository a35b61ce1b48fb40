"""Term model, lexer, parser, renderer and term mapper for the Prolog
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
variables, and compounds ``f(t1,...,tn)`` nested at most 256 deep.  The
only infix operators are ``:-`` and the comparison builtins; ``%`` starts a
comment.

The lexer gets the lexemes of a whole text, or of a piece of whole lines,
with one ``findall`` of ``_TOKEN_RE``: a flat list of plain strings, built
in C, with no kind, value or place beside them.  The parser tells a
lexeme's kind from its first character and converts a number or a quoted
atom only when it takes it, and a line and column are worked out only for
an error, by lexing the text again.  The lexer alone decides where a
clause ends: a ``.`` followed by layout, ``%`` or the end of the input is
an end lexeme, in every input (a data file's last clause included).  Any
other ``.`` is a punctuation lexeme that no grammar accepts, so
``p(a).q(b).`` is a ``ParseError``.  Rendering is canonical:
``parse(render(parse(t)))`` is structurally identical to ``parse(t)``, and
atoms are quoted exactly when they would not re-parse unquoted.

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
from itertools import islice, repeat
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


def atoms(names: Iterable[str]) -> list[Atom]:
    """``[Atom(n) for n in names]``, built without a call per atom."""
    return list(map(tuple.__new__, repeat(Atom), zip(repeat(_ATOM_TAG), names)))


def numbers(values: list[int | float]) -> list[Number]:
    """``[Number(v) for v in values]``, built without a call per number."""
    return list(map(tuple.__new__, repeat(Number), zip(repeat(_NUMBER_TAG), map(type, values), values)))


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
# Lexer

# The lexical grammar.  Layout (space, tab, CR, LF and %-comments) is
# absorbed before each lexeme, and the pattern's one group holds the lexeme,
# so ``findall`` gives the lexemes of a text as one flat list of strings,
# built in C.  Alternatives are tried in order, the most frequent first: an
# atom, then the punctuation that no other alternative can start.  Where two
# alternatives can start alike, the longer comes first: an end before a
# '.', a two-character operator before a ':', a number (float or int, one
# alternative) before a '+'/'-' marker.  A clause's ending '.' takes the
# layout character or the comment after it into its lexeme, so an end is
# the one kind of lexeme that starts with '.' and is longer than one
# character; every text the lexer reads ends with a newline, so each '.'
# that ends a clause has layout or a comment after it.  The any-character
# alternative gives the other one-character lexemes: '.', ':', '+', '-', a
# lone quote (an unterminated quoted atom) and an unexpected character.
# Unquoted lexemes are ASCII (Unicode goes inside quotes), so digits are
# [0-9], never \d.  Python 3.10 has neither possessive quantifiers nor
# atomic groups; ``(?!')`` instead keeps a quoted atom from closing on the
# first quote of a ``''`` escape.  No lexeme spans a line: a quoted atom
# and a comment stop at a newline.  The last alternative matches the end of
# the text, so the list ends with '' (once or twice), the end of the input.
_ATOM = r"[a-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"
_TOKEN_RE = re.compile(
    rf"""(?:[ \t\r\n]|%[^\n]*)*
    ( {_ATOM}
    | [(),\[\]!]
    | \.(?:[ \t\r\n]|%[^\n]*)
    | [A-Z_][A-Za-z0-9_]*
    | :-|=<|>=|\\=|[=<>]
    | [+-]?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)?
    | '(?:[^'\n]|'')*'(?!')
    | .
    | \Z
    )""",
    re.VERBOSE,
)
_UNQUOTED_ATOM_RE = re.compile(_ATOM + r"\Z")
_PUNCT = frozenset("(),[]!.:+-")
_OPS = frozenset({":-", "=<", ">=", "\\=", "=", "<", ">"})
# How deeply compounds may nest: a compound inside this many others (a
# literal counting as one) is a ParseError.  The parser takes two Python
# frames per level, and the term helpers that recurse over what it builds
# take one or two, so a term it accepts stays well inside Python's default
# recursion limit of 1000.
_MAX_DEPTH = 256


def lexeme_kind(tok: str) -> str:
    """The kind of the lexeme ``tok``, told by its first character: atom
    (quoted or not), var, int, float, punct, op, end or eof, or one of the
    lexical errors unterminated (a lone quote) and unexpected."""
    c = tok[:1]
    if "a" <= c <= "z" or (c == "'" and len(tok) > 1):
        return "atom"
    if "A" <= c <= "Z" or c == "_":
        return "var"
    if "0" <= c <= "9" or (len(tok) > 1 and c in "+-"):
        return "float" if _is_float(tok) else "int"
    if tok in _PUNCT:
        return "punct"
    if tok in _OPS:
        return "op"
    if c == ".":
        return "end"
    if not tok:
        return "eof"
    return "unterminated" if tok == "'" else "unexpected"


def lexeme_value(tok: str):
    """The value of the lexeme ``tok``, which has no lexical error: an
    atom's name, a number's int or float, an end's '.', or else the lexeme
    itself."""
    kind = lexeme_kind(tok)
    if kind == "atom":
        return _name(tok)
    if kind == "int":
        return int(tok)
    if kind == "float":
        return float(tok)
    return "." if kind == "end" else tok


def _name(atom: str) -> str:
    """The name of an atom lexeme, quoted or not."""
    return atom[1:-1].replace("''", "'") if atom[0] == "'" else atom


def _is_float(number: str) -> bool:
    return "." in number or "e" in number or "E" in number


def _lexical_error(tok: str) -> str | None:
    """What makes ``tok`` no lexeme of the grammar, if anything."""
    kind = lexeme_kind(tok)
    if kind == "int":
        try:
            int(tok)
        except ValueError:  # more digits than int() converts
            return f"number too long ({len(tok)} characters)"
    elif kind == "float":
        if not math.isfinite(float(tok)):
            return "number out of range"
    elif kind == "unterminated":
        return "unterminated quote"
    elif kind == "unexpected":
        return f"unexpected character {tok!r}"
    return None


def _is_end(tok: str) -> bool:
    # The strings between '.' and '/' are those that start with '.' and
    # are longer than it: the ends.
    return "." < tok < "/"


def _shown(tok: str) -> str:
    """A lexeme as an error message names it."""
    return "eof" if not tok else "." if tok[0] == "." else tok


def line_pieces(f, size: int = 1 << 15) -> Iterator[str]:
    """The text of the open file ``f`` in pieces of whole lines: each the
    next ``size`` characters and the rest of the line they end in."""
    while piece := f.read(size):
        yield piece + f.readline()


# ---------------------------------------------------------------------------
# Parser

_END_WANTED = "'.' followed by layout to end the clause"


class Unfinished(Exception):
    """Raised by a ``TermParser`` that reads ``pieces`` in place of an error
    at the end of a piece: the clause may go on in the next one."""


class TermParser:
    """Recursive-descent parser over the lexemes that it holds as ``toks``,
    those of ``text`` from the offset where lexing began.  The grammar
    methods take the list and an index and return what they parsed with the
    index after it.  A lexeme's kind is told by its first character (see
    ``lexeme_kind``), and a number or a quoted atom is converted only when
    the parser takes it, so a lexical error is raised only when the parser
    reads the lexeme that holds it.  A line and column are worked out only
    for an error or when asked for (``where``, ``line_of``), by lexing the
    text again with the same pattern.  The parser keeps each atom and number
    it builds, by its lexeme, until the next text is lexed, so a repeated
    constant is built once.

    Every bare ``_`` becomes a distinct fresh variable (``_1``, ``_2``,
    ...); named underscore variables such as ``_Foo`` are kept as written.
    ``variables`` counts the variables built.  While ``modes`` is a dict,
    variables take mode markers and the dict records each variable's marker
    (``+``, ``-`` or ``+-``); while it is None, a marker is a parse error.
    A compound nested more than ``_MAX_DEPTH`` deep is a parse error at its
    functor.
    """

    def __init__(self):
        self._anon = 0
        self.variables = 0
        self.modes: dict[str, str] | None = None
        self._final = True  # whether the end of ``text`` ends the input
        self._kept: int | None = None
        self.lex("")

    # -- lexing and places ---------------------------------------------------

    def lex(self, text: str, start: int = 0, line: int = 1) -> list[str]:
        """Hold the lexemes of ``text`` from the offset ``start``, which is
        on its first line, numbered ``line``, and return them.  A newline
        is added to a text that does not end with one."""
        if text[-1:] != "\n":
            text += "\n"
        self.text, self._line, self._start = text, line, start
        self._at = (0, start, line)
        self._consts: dict[str, Term] = {}
        self.toks = _TOKEN_RE.findall(text, start)
        return self.toks

    def pieces(self, items: Iterable[str]) -> Iterator[list[str]]:
        """The lexemes of each of ``items``, which hold whole lines, such as
        the pieces of ``line_pieces``; the end of an item ends a line.  The
        caller parses the clauses of each list in turn from index 0 up to
        the first ''.  Where a clause runs into that '' (``Unfinished``),
        the caller hands its first index to ``keep``: its lines then lead
        the next item.  Once the items run out, the lines of a kept clause
        are lexed alone as the last piece, which the end of the input
        ends."""
        self._final = False
        line, text, start = 1, "", 0  # the place and lines of a kept clause
        for item in items:
            if item[-1:] != "\n":
                item += "\n"
            self._kept = None
            yield self.lex(text + item, start, line)
            self.toks.clear()  # free the lexemes the caller still refers to before lexing more
            text = self.text
            if self._kept is None:
                line, text, start = line + text.count("\n"), "", 0
            else:
                off = self._place(self._kept)[0]
                cut = text.rfind("\n", 0, off) + 1
                line, text, start = self._line + text.count("\n", 0, cut), text[cut:], off - cut
        self._final = True
        if text:
            yield self.lex(text, start, line)

    def keep(self, i: int):
        """Carry the clause that begins at ``toks[i]`` over to the next
        piece.  Its bare ``_`` variables, all numbered before it ran out,
        are numbered again when it is parsed whole."""
        self._kept = i
        self._anon -= self.toks[i:].count("_")

    def _place(self, i: int) -> tuple[int, int]:
        """The offset of ``toks[i]`` in ``text`` and its line, found by
        lexing again from the lexeme last asked about, or from the start
        when ``i`` lies before it."""
        k, off, line = self._at  # lexing from ``off``, on ``line``, gives ``toks[k]`` first
        if i < k:
            k, off, line = 0, self._start, self._line
        new = next(islice(_TOKEN_RE.finditer(self.text, off), i - k, None)).start(1)
        line += self.text.count("\n", off, new)
        self._at = (i, new, line)
        return new, line

    def line_of(self, i: int) -> int:
        """The line of ``toks[i]``."""
        return self._place(i)[1]

    def where(self, i: int) -> tuple[int, int]:
        """The line and column of ``toks[i]``; the end of the input sits
        just after the lexeme before it."""
        toks = self.toks
        if not toks[i] and i:
            off, line = self._place(i - 1)
            off += len(toks[i - 1])
        else:
            off, line = self._place(i)
        return line, off - self.text.rfind("\n", 0, off)

    # -- errors ----------------------------------------------------------------

    def error(self, message: str, i: int, seen: int | None = None) -> Exception:
        """The error ``message`` at ``toks[i]``, met on reading ``toks[seen]``
        (by default ``toks[i]``).  If that lexeme is a lexical error, it is
        the error instead; if it is the end of a piece that more may
        follow, the error is ``Unfinished``."""
        k = i if seen is None else seen
        if not self.toks[k] and not self._final:
            return Unfinished()
        if _lexical_error(self.toks[k]) is not None:
            return self._bad(k)
        return ParseError(message, *self.where(i))

    def _bad(self, i: int) -> ParseError:
        """The lexical error of ``toks[i]``."""
        return ParseError(_lexical_error(self.toks[i]), *self.where(i))

    def _expected(self, want: str, i: int) -> Exception:
        return self.error(f"expected {want}, found {_shown(self.toks[i])!r}", i)

    def expect(self, toks, i: int, text: str) -> int:
        """The index after ``toks[i]``, which must be the punctuation or
        operator ``text``."""
        if toks[i] != text:
            raise self._expected(repr(text), i)
        return i + 1

    def end(self, toks, i: int):
        """``toks[i]`` must end the clause."""
        if not _is_end(toks[i]):
            raise self._expected(_END_WANTED, i)

    # -- grammar ---------------------------------------------------------------

    def clause(self, toks, i: int, allow_cut: bool = False) -> tuple[Clause, int]:
        """The fact ``Head.`` or rule ``Head :- B1, ..., Bn.`` from
        ``toks[i]`` on, and the index after its end."""
        start = i
        head, i = self.literal(toks, i, allow_cut=True)
        tok = toks[i]
        if head.builtin:
            raise self.error(f"builtin {head.pred!r} cannot appear in head position", start, i)
        if head.pred == "!":
            raise self.error("cut cannot appear in head position", start, i)
        body: list[Literal] = []
        sep = ":-"
        while tok == sep:
            lit, i = self.literal(toks, i + 1, allow_cut)
            body.append(lit)
            tok, sep = toks[i], ","
        if not _is_end(tok):
            raise self._expected(_END_WANTED, i)
        return Clause(head, tuple(body)), i + 1

    def literal(self, toks, i: int, allow_cut: bool = False):
        tok = toks[i]
        if tok == "!":
            if not allow_cut:
                raise self.error("cut is not allowed here", i)
            return Literal("!", ()), i + 1
        start = i
        c = tok[:1]
        if "a" <= c <= "z" or (c == "'" and len(tok) > 1):  # a literal unless a builtin follows
            name = _name(tok)
            args, i = self.args(toks, i + 2) if toks[i + 1] == "(" else ((), i + 1)
            if toks[i] not in BUILTIN_PREDS:
                if name == "!" and not args and not allow_cut:  # the quoted cut
                    raise self.error("cut is not allowed here", start, i)
                return Literal(name, args), i
            lhs = Compound(name, args) if args else Atom(name)
        else:  # a variable or a number, which only a builtin makes a literal
            lhs, i = self.term(toks, i)
            if toks[i] not in BUILTIN_PREDS:
                raise self.error("a literal must be an atom or a compound term", start, i)
        op = toks[i]
        rhs, i = self.term(toks, i + 1)
        return Literal(op, (lhs, rhs), builtin=True), i

    def term(self, toks, i: int, depth: int = 0):
        """The term at ``toks[i]``, inside ``depth`` compounds."""
        tok = toks[i]
        c = tok[:1]
        if "a" <= c <= "z" or c == "'":
            if tok == "'":
                raise self._bad(i)
            name = _name(tok)
            if toks[i + 1] == "(":
                if depth == _MAX_DEPTH:
                    raise self.error("term nested too deeply", i)
                args, i = self.args(toks, i + 2, depth + 1)
                return Compound(name, args), i
            t = self._consts[tok] = Atom(name)
            return t, i + 1
        if "A" <= c <= "Z" or c == "_":
            self.variables += 1
            if tok == "_":
                name = self._fresh_anonymous()
                if self.modes is not None:
                    self.modes[name] = "-"  # each anonymous slot is a fresh output
                return Variable(name), i + 1
            if self.modes is not None and tok not in self.modes:
                raise self.error(f"variable {tok} needs a mode marker at its first occurrence", i)
            return Variable(tok), i + 1
        if "0" <= c <= "9" or (len(tok) > 1 and c in "+-"):
            if _lexical_error(tok) is not None:
                raise self._bad(i)
            t = self._consts[tok] = Number(float(tok) if _is_float(tok) else int(tok))
            return t, i + 1
        if tok == "+" or tok == "-":
            return self._marked_variable(toks, i)
        raise self._expected("a term", i)

    def args(self, toks, i: int, depth: int = 1):
        """The comma-separated terms from ``toks[i]`` to a closing ``)``,
        inside ``depth`` compounds, and the index after the ``)``.  A
        constant built before is taken as it is."""
        consts = self._consts
        args = []
        while True:
            tok = toks[i]
            t = consts.get(tok)
            if t is None or toks[i + 1] == "(":
                t, i = self.term(toks, i, depth)
            else:
                i += 1
            args.append(t)
            if toks[i] != ",":
                break
            i += 1
        if toks[i] != ")":
            raise self._expected("')'", i)
        return tuple(args), i + 1

    def _marked_variable(self, toks, i: int):
        if self.modes is None:
            raise self.error("mode markers are not allowed here", i)
        mode = toks[i]
        i += 1
        if mode == "+" and toks[i] == "-":
            mode, i = "+-", i + 1
        v = toks[i]
        if lexeme_kind(v) != "var":
            raise self.error("mode marker must precede a variable", i)
        if v == "_":
            name = self._fresh_anonymous()
        elif v in self.modes:
            raise self.error(f"variable {v} already carries a mode marker", i)
        else:
            name = v
        self.modes[name] = mode
        self.variables += 1
        return Variable(name), i + 1

    def _fresh_anonymous(self) -> str:
        self._anon += 1
        return f"_{self._anon}"


def lex_clauses(text: str) -> tuple[TermParser, list[int]]:
    """A parser holding the lexemes of ``text``, and the index of each
    clause's first lexeme: the first, each one after an end, but not the
    end of the input.  Every lexeme is checked first, so a lexical error
    anywhere in the text comes before any syntax error."""
    parser = TermParser()
    starts = [0]
    for i, tok in enumerate(parser.lex(text)):
        if _lexical_error(tok) is not None:
            raise parser._bad(i)
        if _is_end(tok):
            starts.append(i + 1)
    if not parser.toks[starts[-1]]:
        starts.pop()
    return parser, starts


def parse_term(text: str) -> Term:
    """Parse a complete term; trailing input is an error."""
    parser, _ = lex_clauses(text)
    toks = parser.toks
    if not toks[0]:
        raise ParseError("empty input", 1, 1)
    term, i = parser.term(toks, 0)
    if toks[i]:
        raise parser.error(f"unexpected trailing input {_shown(toks[i])!r}", i)
    return term


def read_clauses(items: Iterable[str], allow_cut: bool = False) -> Iterator[Clause]:
    """Stream the clauses of an iterable of items of whole lines, such as
    the lines of an open file or its ``line_pieces``.  The end of an item
    ends a line.

    Clauses are ``Head.`` facts and ``Head :- B1, ..., Bn.`` rules, each
    ended by an end lexeme.  Each item is lexed when the clauses before it
    have been yielded, and the clauses it ends are yielded before the next
    one is read, so one item's lexemes (led by the lines of a clause begun
    before it) are held at a time.  A syntax error takes precedence over a
    lexical error later in the same clause: the lexemes before a lexical
    error are parsed first.  One ``TermParser`` serves all the items, so
    bare ``_`` variables are numbered through the whole input.
    ``allow_cut`` admits ``!`` as a body literal, which the model-file
    decision-list section uses as a trailing marker token.
    """
    parser = TermParser()
    for toks in parser.pieces(items):
        i = 0
        try:
            while toks[i]:
                clause, i = parser.clause(toks, i, allow_cut)
                yield clause
        except Unfinished:
            parser.keep(i)


def parse_program(text: str, allow_cut: bool = False) -> tuple[Clause, ...]:
    """Parse a sequence of facts and rules (see ``read_clauses``)."""
    return tuple(read_clauses((text,), allow_cut))


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
