"""Term model, tokenizer, parser, renderer and term mapper for the Prolog
subset used by data files, background programs, settings files and model
files.

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

import io
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import ParseError

BUILTIN_PREDS = frozenset({"=", "\\=", "<", ">", "=<", ">="})


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True, eq=False)
class Number:
    """Numeric constant; integers and floats are distinct terms (1 != 1.0)."""

    value: int | float

    def __eq__(self, other):
        return (
            type(other) is Number
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self):
        return hash((type(self.value).__name__, self.value))


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


@dataclass(frozen=True, slots=True)
class Compound:
    functor: str
    args: "tuple[Term, ...]"


Term = Union[Atom, Number, Variable, Compound]


@dataclass(frozen=True, slots=True)
class Literal:
    """A predicate applied to terms; ``builtin`` only for the comparison set."""

    pred: str
    args: tuple[Term, ...]
    builtin: bool = False

    @property
    def arity(self) -> int:
        return len(self.args)

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


def term_to_literal(term: Term, *, line=None, col=None) -> Literal:
    if isinstance(term, Atom):
        return Literal(term.name, ())
    if isinstance(term, Compound):
        return Literal(term.functor, term.args)
    raise ParseError("a literal must be an atom or a compound term", line, col)


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
# alternative matches the end of the line.  Alternatives are tried in order:
# a float before an int, a signed number before a '+'/'-' marker, a two-
# character operator before one.  Unquoted lexemes are ASCII (Unicode goes
# inside quotes), so digits are [0-9], never \d.  Python 3.10 has neither
# possessive quantifiers nor atomic groups; ``(?!')`` instead keeps a quoted
# atom from closing on the first quote of a ``''`` escape.
_ATOM = r"[a-z][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"
_TOKEN_RE = re.compile(
    rf"""(?:[ \t\r\n]|%[^\n]*)*
    (?: (?P<quoted>'(?:[^'\n]|'')*'(?!'))
      | (?P<float>[+-]?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
      | (?P<int>[+-]?[0-9]+)
      | (?P<atom>{_ATOM})
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
_UNQUOTED_ATOM_RE = re.compile(_ATOM + r"\Z")


class Token(NamedTuple):
    kind: str  # atom var int float punct op end eof
    text: str
    value: object
    line: int
    col: int


# Builds a Token without the Python frame of NamedTuple.__new__, which is a
# quarter of the lexer's time on a large block file.
_new_token = tuple.__new__


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


# ---------------------------------------------------------------------------
# Parser

_WANTED = {"end": "'.' followed by layout to end the clause"}


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

    def term(self) -> Term:
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
                self.s.next()
                args = [self.term()]
                while self.s.at("punct", ","):
                    self.s.next()
                    args.append(self.term())
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
        head = parser.literal(allow_cut=False)
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


def parse_program(text: str, allow_cut: bool = False) -> tuple[Clause, ...]:
    """Parse a sequence of facts and rules (see ``read_clauses``)."""
    return tuple(clause for _, clause in read_clauses(io.StringIO(text), allow_cut))


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
