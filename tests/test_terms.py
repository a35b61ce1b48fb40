import copy
import io
import pickle

import oracles
import pytest
from conftest import examples
from hypothesis import example, given, settings as hsettings, strategies as st
from oracles import scan

from foldt.engine import load_background
from foldt.errors import FoldtError, ParseError
from foldt.rdb import parse_schema
from foldt.settings import parse_settings
from foldt.store import iter_kb_blocks
from foldt.terms import (
    Atom,
    Clause,
    Compound,
    Literal,
    Number,
    Variable,
    _shown,
    is_ground,
    lex_clauses,
    lexeme_kind,
    lexeme_value,
    line_pieces,
    parse_program,
    parse_term,
    read_clauses,
    render_fact,
    render_literal,
    render_term,
    term_variables,
)


def test_parse_player_fact():
    t = parse_term("player(my,1,-48.804436,-0.16494742,339)")
    assert isinstance(t, Compound)
    assert t.functor == "player"
    assert len(t.args) == 5
    assert t.args == (
        Atom("my"),
        Number(1),
        Number(-48.804436),
        Number(-0.16494742),
        Number(339),
    )
    assert isinstance(t.args[2].value, float)
    assert isinstance(t.args[4].value, int)


def test_parse_quoted_and_hyphenated_atoms():
    t = parse_term("contains('H2O', h2o-1)")
    assert t == Compound("contains", (Atom("H2O"), Atom("h2o-1")))
    assert render_term(t) == "contains('H2O',h2o-1)"


def test_atom_roundtrip():
    t = parse_term("foo")
    assert t == Atom("foo")
    assert render_term(t) == "foo"


def test_int_float_distinct():
    assert Number(1) != Number(1.0)
    assert parse_term("339") == Number(339)
    assert parse_term("339.0") == Number(339.0)
    assert parse_term("339") != parse_term("339.0")
    assert render_term(Number(339.0)) == "339.0"
    assert render_term(Number(1e-9)) == "1e-09"
    assert parse_term(render_term(Number(1e-9))) == Number(1e-9)


def test_variables_and_groundness():
    t = parse_term("inside(X,o1)")
    assert t.args[0] == Variable("X")
    assert not is_ground(t)
    assert is_ground(parse_term("inside(o2,o1)"))
    assert term_variables(parse_term("f(X,g(Y,X),Z)")) == ["X", "Y", "Z"]


def test_anonymous_variables_distinct():
    t = parse_term("f(_,_)")
    assert t.args[0] != t.args[1]


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_term("f(a,")
    assert e.value.line == 1
    with pytest.raises(ParseError, match="unterminated quote"):
        parse_term("'abc")
    with pytest.raises(ParseError, match="empty input"):
        parse_term("   % just a comment")
    with pytest.raises(ParseError, match="trailing"):
        parse_term("foo bar")
    with pytest.raises(ParseError, match="number too long") as e:
        parse_term("f(a, " + "1" * 5000 + ")")
    assert e.value.column == 6
    with pytest.raises(ParseError, match="number out of range") as e:
        parse_term("f(a, -1.5e999)")
    assert e.value.column == 6


def _nested(n: int, leaf: str = "a") -> str:
    return "f(" * n + leaf + ")" * n


def test_a_term_nested_too_deeply_is_a_parse_error(tmp_path):
    """A compound inside 256 others (a literal counting as one) is an error
    at its functor, wherever the term is read; one level less parses."""
    assert parse_term(_nested(256)) == parse_term(_nested(255, "f(a)"))
    assert len(parse_program(f"p({_nested(255)}).")) == 1
    data = tmp_path / "deep.kb"
    data.write_text(f"begin(model(1)).\n  p({_nested(500)}).\n  pair.\nend(model(1)).\n")
    background = tmp_path / "deep.pl"
    background.write_text(f"q(X) :-\n  r(X, {_nested(500)}).\n")
    cases = [
        (lambda: parse_term(_nested(500)), (1, 513)),
        (lambda: parse_term(_nested(257)), (1, 513)),
        (lambda: parse_program(f"p({_nested(500)}) :- q."), (1, 513)),
        (lambda: list(iter_kb_blocks(data, ("pair",))), (2, 515)),
        (lambda: load_background(background), (2, 518)),
        (lambda: parse_settings(f"classes([a]).\ntyped({_nested(500)})."), (2, 519)),
    ]
    for read, place in cases:
        with pytest.raises(ParseError) as e:
            read()
        assert (e.value.message, e.value.line, e.value.column) == ("term nested too deeply", *place)


@pytest.mark.parametrize("text,col", [("f(a,+X)", 5), ("f(-X)", 3), ("f(+-X)", 3)])
def test_mode_markers_rejected_outside_templates(text, col):
    with pytest.raises(ParseError, match="mode markers are not allowed") as e:
        parse_term(text)
    assert (e.value.line, e.value.column) == (1, col)


def test_parse_program_rule():
    prog = parse_program("polygon(O) :- triangle(O).")
    assert prog == (
        Clause(Literal("polygon", (Variable("O"),)), (Literal("triangle", (Variable("O"),)),)),
    )


def test_parse_program_fact():
    prog = parse_program("circle(o1).")
    assert prog == (Clause(Literal("circle", (Atom("o1"),))),)


def test_parse_program_builtin_body():
    prog = parse_program("doubletriangle(O1,O2) :- triangle(O1), triangle(O2), O1 \\= O2.")
    (clause,) = prog
    assert len(clause.body) == 3
    last = clause.body[2]
    assert last.builtin and last.pred == "\\="
    assert last.args == (Variable("O1"), Variable("O2"))


def test_builtin_in_head_rejected():
    with pytest.raises(ParseError, match="head"):
        parse_program("X = Y :- foo(X,Y).")


def test_cut_only_where_allowed():
    with pytest.raises(ParseError):
        parse_program("class(pos) :- triangle(X), !.")
    prog = parse_program("class(pos) :- triangle(X), !.", allow_cut=True)
    assert prog[0].body[-1] == Literal("!", ())


def test_quoting_exactly_when_needed():
    assert render_term(Atom("h2o-1")) == "h2o-1"
    assert render_term(Atom("H2O")) == "'H2O'"
    assert render_term(Atom("don't")) == "'don''t'"
    assert render_term(Atom("two words")) == "'two words'"
    assert render_term(Atom("=<")) == "'=<'"
    # Every quoted rendering re-parses to the same atom.
    for name in ("H2O", "don't", "two words", "a-", "-a", "1abc", ""):
        assert parse_term(render_term(Atom(name))) == Atom(name)


def test_read_clauses_streaming():
    src = io.StringIO(
        "begin(model(4)).\n  card(7,spades). % inline comment\n  card(9,clubs).\n"
        "pair.\nend(model(4)).\n% trailing comment\n"
    )
    clauses = list(read_clauses(src))
    assert [render_literal(c.head) for _, c in clauses] == [
        "begin(model(4))",
        "card(7,spades)",
        "card(9,clubs)",
        "pair",
        "end(model(4))",
    ]
    assert [line for line, _ in clauses] == [1, 2, 3, 4, 5]


def test_read_clauses_decimal_dot_not_terminator():
    src = io.StringIO("turn(137.4931640625).\nf(1.5,2).")
    texts = [render_literal(c.head) for _, c in read_clauses(src)]
    assert texts == ["turn(137.4931640625)", "f(1.5,2)"]


def test_read_clauses_reads_lines_as_it_goes():
    def lines():
        yield "p(a).\n"
        yield "q(b).\n"
        raise AssertionError("read past the line after the first clause")

    assert next(read_clauses(lines())) == (1, Clause(Literal("p", (Atom("a"),))))


def test_read_clauses_yields_a_clause_before_reading_the_next_line():
    def lines():
        yield "p(a).\n"
        raise AssertionError("read the line after the first clause")

    assert next(read_clauses(lines())) == (1, Clause(Literal("p", (Atom("a"),))))


@pytest.mark.parametrize(
    "text,error",
    [
        ("p(a b\nc \u00b2).", ("expected ')', found 'b'", 1, 5)),
        ("p(a b \u00b2).", ("expected ')', found 'b'", 1, 5)),
        ("p(a, \u00b2).", ("unexpected character '\u00b2'", 1, 6)),
        ("X = Y \u00b2.", ("unexpected character '\u00b2'", 1, 7)),
        ("X = Y.", ("builtin '=' cannot appear in head position", 1, 1)),
        ("p(a", ("expected ')', found 'eof'", 1, 4)),
    ],
)
def test_a_syntax_error_precedes_a_later_lexical_error(text, error):
    """The tokens before a lexical error are parsed first; the lexical error
    is reported once the parser needs the token it spoils."""
    with pytest.raises(ParseError) as e:
        list(read_clauses(io.StringIO(text)))
    assert (e.value.message, e.value.line, e.value.column) == error


def test_read_clauses_numbers_anonymous_variables_through_the_input():
    src = io.StringIO("p(_) :- q(_).\nr(_).\n")
    assert [c for _, c in read_clauses(src)] == [
        Clause(Literal("p", (Variable("_1"),)), (Literal("q", (Variable("_2"),)),)),
        Clause(Literal("r", (Variable("_3"),))),
    ]


def test_dot_without_layout_is_an_error_everywhere(tmp_path):
    data = tmp_path / "d.kb"
    data.write_text("begin(model(1)).pair.\nend(model(1)).\n")
    background = tmp_path / "bg.pl"
    background.write_text("p(a).q(b).\n")
    errors = []
    for read in (
        lambda: list(iter_kb_blocks(data, ("pair",))),
        lambda: load_background(background),
        lambda: parse_program("p(a).q(b)."),
        lambda: parse_settings("classes([a,b]).minleaf(3).\n"),
    ):
        with pytest.raises(ParseError) as e:
            read()
        errors.append(e.value)
    assert {e.message for e in errors} == {"expected '.' followed by layout to end the clause, found '.'"}
    assert [(e.line, e.column) for e in errors] == [(1, 16), (1, 5), (1, 5), (1, 15)]


@pytest.mark.parametrize(
    "text", ["classes([a,b])", "classes([a,b]) % x", "classes([a,b])   ", "classes([a,b])\n\n% x\n"]
)
def test_eof_sits_just_after_the_last_token(text):
    with pytest.raises(ParseError, match="found 'eof'") as e:
        parse_settings(text)
    assert (e.value.line, e.value.column) == (1, 15)


# ---------------------------------------------------------------------------
# Property tests

_lexer_pieces = st.sampled_from(
    ["'", "''", "+", "-", "e", "E", ".", "%", "\n", "\r", "\x0c", "\t", " ", "²", "١", "a", "X", "_",
     "7", "(", ")", ",", "[", "]", ":", "!", "=", "<", ">", "\\", "1" * 5000, "1e999"]
)


@hsettings(max_examples=examples(500), deadline=None)
@given(st.one_of(st.lists(_lexer_pieces, max_size=20).map("".join), st.text(max_size=40)))
def test_tokenize_agrees_with_the_character_scanner(text):
    """The lexer gives the reference scanner's tokens, then ``eof`` just
    after the last one when the text ends inside a clause, or the same
    ParseError at the same place.  Each lexeme's kind and value come from
    ``lexeme_kind`` and ``lexeme_value``, its place from the parser, and an
    end's text is its '.'."""

    def lexed(text):
        parser, _ = lex_clauses(text)
        toks = parser.toks[: parser.toks.index("")]
        if toks and lexeme_kind(toks[-1]) != "end":
            toks.append("")
        return [
            (lexeme_kind(tok), _shown(tok) if tok else "", lexeme_value(tok) if tok else None, *parser.where(i))
            for i, tok in enumerate(toks)
        ]

    def outcome(lex):
        try:
            return [(kind, lexeme, value, type(value), line, col) for kind, lexeme, value, line, col in lex(text)]
        except ParseError as e:
            return (e.message, e.line, e.column)

    expected = outcome(scan)
    if isinstance(expected, list) and expected and expected[-1][0] != "end":
        kind, lexeme, _, _, line, col = expected[-1]
        expected.append(("eof", "", None, type(None), line, col + len(lexeme)))
    assert outcome(lexed) == expected

_atom_names = st.one_of(
    st.from_regex(r"[a-z][a-z0-9_]{0,6}(-[a-z0-9]{1,3}){0,2}", fullmatch=True),
    st.text(min_size=0, max_size=8).filter(lambda s: "\n" not in s),
)
_var_names = st.from_regex(r"[A-Z_][A-Za-z0-9_]{0,6}", fullmatch=True).filter(lambda s: s != "_")
_numbers = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


_ground_leaves = st.one_of(_atom_names.map(Atom), _numbers.map(Number))
_functors = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


def _terms(depth: int, leaf=st.one_of(_ground_leaves, _var_names.map(Variable))):
    if depth == 0:
        return leaf
    return st.one_of(
        leaf,
        st.tuples(
            _functors,
            st.lists(_terms(depth - 1, leaf), min_size=1, max_size=3),
        ).map(lambda fa: Compound(fa[0], tuple(fa[1]))),
    )


@hsettings(max_examples=examples(300), deadline=None)
@given(_terms(3))
def test_render_parse_roundtrip(term):
    text = render_term(term)
    assert parse_term(text) == term
    # Idempotence of the canonical form.
    assert render_term(parse_term(text)) == text


@hsettings(max_examples=examples(300), deadline=None)
@given(st.text(max_size=40))
def test_parser_totality_on_fuzz(text):
    try:
        parse_term(text)
    except ParseError:
        pass


@hsettings(max_examples=examples(300), deadline=None)
@given(
    st.one_of(st.text(max_size=60), st.text(alphabet="pX_(),.:-'%\n 1.5e=\\!<>+", max_size=60)),
    st.booleans(),
)
def test_read_clauses_raises_only_parse_errors(text, allow_cut):
    try:
        list(read_clauses(io.StringIO(text), allow_cut))
    except ParseError:
        pass


_ground_facts = st.tuples(_functors, st.lists(_terms(2, _ground_leaves), max_size=3)).map(
    lambda fa: Literal(fa[0], tuple(fa[1]))
)


@hsettings(max_examples=examples(200), deadline=None)
@given(
    st.lists(
        st.tuples(_ground_facts, st.booleans(), st.sampled_from([" ", "\n", " % a. b.\n", "%\n", "\n\n"])),
        min_size=1,
        max_size=8,
    )
)
def test_read_clauses_roundtrip_of_laid_out_facts(items):
    """Facts written several to a line, some split across two lines, with
    comments between them, read back as the same facts at their lines."""
    text, expected = "", []
    for fact, split, layout in items:
        rendered = render_fact(fact)
        if split and fact.args:
            rendered = rendered.replace("(", "(\n", 1)
        expected.append((text.count("\n") + 1, Clause(fact)))
        text += rendered + layout
    assert list(read_clauses(io.StringIO(text))) == expected
    assert list(read_clauses(io.StringIO(text.rstrip(" \n")))) == expected


# ---------------------------------------------------------------------------
# The list-indexed parser against the reference parser that pulls one token
# at a time (tests/oracles.py)

_noise = st.sampled_from(
    ["\u00b2", "'", "1" * 5000, "1e999", "(", ")", ",", ".", ". ", ":-", "=", "!", "+", "-", "X", "_", "a",
     "\n", " ", "%c\n", "[", "]", ":"]
)
_leaves = st.sampled_from(
    ["a", "b", "'B c'", "X", "Y", "_", "_Y", "7", "-2", "3.5e1"] * 6 + ["+X", "-_", "'!'"]
)


def _comma_separated(items):
    return [x for i, item in enumerate(items) for x in ([","] if i else []) + item]


def _applied(functors, args):
    """A functor alone, or applied to a nonempty argument list."""
    return st.tuples(functors, args).map(
        lambda fa: [fa[0]] + (["("] + _comma_separated(fa[1]) + [")"] if fa[1] else [])
    )


_term_lexemes = st.recursive(
    _leaves.map(lambda leaf: [leaf]),
    lambda inner: _applied(st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=3)),
    max_leaves=6,
)
_predicate_lexemes = _applied(st.sampled_from(["p", "q", "r"]), st.lists(_term_lexemes, max_size=3))
# Mostly predicates; one literal in eight a builtin, one in sixteen a cut, a
# variable or a number.
_literal_lexemes = st.tuples(
    st.integers(0, 15),
    _predicate_lexemes,
    st.tuples(_term_lexemes, st.sampled_from(["=", "\\=", "<", ">=", "=<"]), _term_lexemes).map(
        lambda t: t[0] + [t[1]] + t[2]
    ),
    st.sampled_from([["!"], ["X"], ["7"]]),
).map(lambda t: t[1] if t[0] < 13 else t[2] if t[0] < 15 else t[3])
_clause_lexemes = st.tuples(_literal_lexemes, st.lists(_literal_lexemes, max_size=3)).map(
    lambda hb: hb[0] + ([":-"] + _comma_separated(hb[1]) if hb[1] else []) + ["."]
)


def _laid_out(lexemes, separators, noise, cut):
    """``lexemes`` joined by ``separators`` in turn, with each ``(k, piece)``
    of ``noise`` put before lexeme ``k``, and cut short to ``cut`` characters
    when ``cut`` is not None."""
    pieces = list(lexemes)
    for k, piece in sorted(noise, reverse=True):
        pieces.insert(min(k, len(pieces)), piece)
    text = "".join(p + separators[i % len(separators)] for i, p in enumerate(pieces))
    return text if cut is None else text[:cut]


_programs = st.builds(
    _laid_out,
    st.lists(_clause_lexemes, min_size=1, max_size=4).map(lambda cs: [x for c in cs for x in c]),
    st.lists(st.sampled_from([" ", "\n", " % c\n", "\n\n  "]), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 40), _noise), max_size=1),
    st.none() | st.none() | st.integers(0, 120),
)


def _outcome(read, text):
    try:
        return read(text)
    except FoldtError as e:
        return (type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None))


@hsettings(max_examples=examples(600), deadline=None)
@given(st.one_of(_programs, st.lists(_noise, max_size=12).map("".join)), st.booleans())
@example("p(a b\nc \u00b2).", False)
@example("q.\nX = f(Y) \u00b2.", False)
@example("p(_, X) :- q(_),\n  r(X, _).\ns(_).\n", False)
@example("p :- q, !.\nr(a) :- !.", True)
@example("p(a).\nq(b", False)
@example(f"p(a).\nq({_nested(255)}).\nr({_nested(256)}).\n", False)
@example(f"p(X) :- q(X,\n  {_nested(300, 'Y')}).", False)
def test_read_clauses_agrees_with_the_reference_parser(text, allow_cut):
    """Same ``(line, clause)`` list, or the same ParseError at the same
    place, as the parser that pulls one token at a time."""
    expected = _outcome(lambda t: list(oracles.read_clauses(io.StringIO(t), allow_cut)), text)
    assert _outcome(lambda t: list(read_clauses(io.StringIO(t), allow_cut)), text) == expected


def _whole_line_items(text, cuts, size):
    """``text`` cut into items of whole lines in each of five ways."""
    lines = text.split("\n")
    lines = [line + "\n" for line in lines[:-1]] + ([lines[-1]] if lines[-1] else [])
    groups, start = [], 0
    for k in sorted({c % (len(lines) + 1) for c in cuts}) + [len(lines)]:
        if k > start:
            groups.append("".join(lines[start:k]))
            start = k
    return {
        "one item": [text],
        "one per line": lines,
        "random groups": groups,
        "without newlines": [line.removesuffix("\n") for line in lines],
        "file pieces": list(line_pieces(io.StringIO(text), size)),
    }


# Clauses with quoted atoms that hold a ``''`` escape, laid out over lines
# with comments between them, and one time in two a last line with a
# lexical error.
_split_programs = st.builds(
    lambda text, last: text + last,
    st.builds(
        _laid_out,
        st.lists(_clause_lexemes, min_size=1, max_size=4).map(lambda cs: [x for c in cs for x in c]),
        st.lists(st.sampled_from([" ", "\n", " % c.\n", "\n\n  ", "\r\n"]), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 40), st.sampled_from(["'it''s'", "'''' ", "%'\n"])), max_size=2),
        st.none(),
    ),
    st.sampled_from(["", "", "", "\np(a, ²).", "\nq('open", "\nr(1e999).\n"]),
)


@hsettings(max_examples=examples(300), deadline=None)
@given(st.one_of(_split_programs, _programs), st.lists(st.integers(0, 60), max_size=6), st.integers(1, 24))
@example("p('it''s',\n  b) :- % c\n  q(_).\nr(²).", [1], 3)
def test_read_clauses_gives_the_same_for_any_cut_into_whole_lines(text, cuts, size):
    """Same ``(line, clause)`` list, or the same ParseError at the same
    place, whichever way the text is cut into items of whole lines."""
    items = _whole_line_items(text, cuts, size)
    assert "".join(items["file pieces"]) == text
    assert all(piece.endswith("\n") for piece in items["file pieces"][:-1])
    outcomes = {way: _outcome(lambda its: list(read_clauses(iter(its))), its) for way, its in items.items()}
    assert len(set(map(repr, outcomes.values()))) == 1, outcomes


@hsettings(max_examples=examples(300), deadline=None)
@given(st.one_of(_term_lexemes.map(" ".join), st.lists(_noise, max_size=8).map("".join)))
@example(_nested(256))
@example(_nested(257))
@example(_nested(500, "\u00b2"))
def test_parse_term_agrees_with_the_reference_parser(text):
    assert _outcome(parse_term, text) == _outcome(oracles.parse_term, text)


_directives = st.sampled_from(
    ["classes([pos,neg]).", "classes([a]).", "rmode(2: p(+X,-Y)).", "rmode(1: (q(+-A), r(A,-_), A \\= b)).",
     "rmode(3: s(+_, -B, +-_)).", "rmode(1: t(X)).", "rmode(1: (p(+X), q(+X))).", "rmode(1: p(+ -)).",
     "rmode(1: (p(-X), X < threshold(1))).", "lookahead(p(X), q(X,Y)).", "lookahead((p(X), q(X)), r(X)).",
     "typed(p(t,u)).", "discretize(p(_,X), X).", "minleaf(2).", "heuristic(gain).", "granularity(3).",
     "minleaf(a).", "rmode(1: !).", "classes([]).", "classes([a,a]).", "rmode(0: p(X)).", "typed(p).",
     "discretize(p(X), Y).", "rmode(1: (p(+X), Y < X))."]
)
_schema_directives = st.sampled_from(
    ["table(m, [f, n, c]).", "key(m, [f]).", "table(c, [m, a]).", "fk(c, [m], m).", "background(b).",
     "table(b, [x]).", "example_id(m, f).", "class_attr(m, c).", "drop_id.", "elide(c).", "key(m, []).",
     "fk(c, [m], b)."]
)


@hsettings(max_examples=examples(300), deadline=None)
@given(
    st.builds(
        _laid_out,
        st.lists(_directives, max_size=6),
        st.lists(st.sampled_from(["\n", " ", "\n% c\n"]), min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 6), _noise), max_size=1),
        st.none(),
    )
)
@example("classes([pos,neg]).\nrmode(2: (p(+X,-Y), q(Y, _))).\nrmode(1: r(+-_)).\n")
@example("classes([a]).\nrmode(1: !).\nminleaf(\u00b2).")
def test_parse_settings_agrees_with_the_reference_parser(text):
    assert _outcome(parse_settings, text) == _outcome(oracles.parse_settings, text)


@hsettings(max_examples=examples(200), deadline=None)
@given(
    st.builds(
        _laid_out,
        st.lists(_schema_directives, max_size=8),
        st.lists(st.sampled_from(["\n", " "]), min_size=1, max_size=2),
        st.lists(st.tuples(st.integers(0, 8), _noise), max_size=1),
        st.none(),
    )
)
@example("table(m, [f, n, c]).\ntable(c, [m, a]).\nkey(m, [f]).\nfk(c, [m], m).\nexample_id(m, f).\n")
@example("table(m, [f, n, c]).\ntable(c, [m, a]).\ntable(b, [x]).\nfk(c, [m], b).\nbackground(b).\nexample_id(m, f).\n")
def test_parse_schema_agrees_with_the_reference_parser(text):
    assert _outcome(parse_schema, text) == _outcome(oracles.parse_schema, text)


# ---------------------------------------------------------------------------
# The term classes against the frozen dataclasses they replaced

# Small pools, so that atoms and variables share names and numbers share
# values across int, float and bool.
_shared_names = st.one_of(st.sampled_from(["x", "a", "X", "_1", ""]), st.text(max_size=4))
_ref_leaves = st.one_of(
    _shared_names.map(oracles.DataclassAtom),
    _shared_names.map(oracles.DataclassVariable),
    st.sampled_from([0, 1, -1, 0.0, -0.0, 1.0, -1.0, True, False]).map(oracles.DataclassNumber),
    st.integers().map(oracles.DataclassNumber),
    st.floats(allow_nan=False, allow_infinity=False).map(oracles.DataclassNumber),
    st.booleans().map(oracles.DataclassNumber),
)


def _ref_terms(depth: int = 3):
    if depth == 0:
        return _ref_leaves
    return st.one_of(
        _ref_leaves,
        st.tuples(
            st.sampled_from(["f", "g", "x"]),
            st.lists(_ref_terms(depth - 1), max_size=3).map(tuple),
        ).map(lambda fa: oracles.DataclassCompound(*fa)),
    )


_FIELDS = {Atom: ("name",), Number: ("value",), Variable: ("name",), Compound: ("functor", "args")}


@hsettings(max_examples=examples(800), deadline=None)
@given(_ref_terms(), st.data())
def test_terms_compare_hash_and_render_like_the_dataclasses(ref, data):
    other = data.draw(st.one_of(st.just(ref), _ref_terms()))
    # Built afresh from the fields: equal terms are not the same objects.
    t, u = oracles.from_dataclass(ref), oracles.from_dataclass(other)
    assert (t == u) == (ref == other)
    assert (t != u) == (ref != other)
    if t == u:
        assert hash(t) == hash(u)
    assert repr(t) == oracles.dataclass_repr(ref)
    assert render_term(t) == oracles.render_dataclass_term(ref)


@hsettings(max_examples=examples(200), deadline=None)
@given(_ref_terms())
def test_terms_are_immutable_and_copy_through_their_constructors(ref):
    t = oracles.from_dataclass(ref)
    for name in _FIELDS[type(t)]:
        with pytest.raises(AttributeError):
            setattr(t, name, Atom("z"))
        with pytest.raises(AttributeError):
            object.__setattr__(t, name, Atom("z"))
    with pytest.raises(AttributeError):
        t.other = 1
    assert not hasattr(t, "__dict__")
    copies = [pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(t), copy.deepcopy(t)]:
        assert type(c) is type(t) and c == t and hash(c) == hash(t) and repr(c) == repr(t)


def test_no_plain_tuple_equals_a_term():
    terms = (Atom("x"), Number(1), Variable("X"), Compound("f", (Atom("a"),)))
    # Each kind's tag is an object of its own, equal only to itself.
    assert len({id(t[0]) for t in terms}) == 4 and all(type(t[0]) is object for t in terms)
    for t in terms:
        assert t != t[1:] and t[1:] != t
        assert t != tuple(getattr(t, name) for name in _FIELDS[type(t)])
    assert Number(1) != (int, 1) and Atom("x") != ("x",) and Atom("x") != "x"
    assert Atom("x") != Variable("x") and Number(1) != Number(1.0) != Number(True)
    assert Number(0.0) == Number(-0.0)


def test_a_nan_number_equals_itself_only_as_one_object():
    # Tuple equality takes an item to equal itself, so a NaN inside one
    # term does too; the dataclass compared the values with ``==``.
    nan = float("nan")
    n = Number(nan)
    assert n == n and not n != n
    assert Number(nan) == Number(nan)
    assert Number(float("nan")) != Number(float("nan"))
    ref = oracles.DataclassNumber(nan)
    assert ref != ref
