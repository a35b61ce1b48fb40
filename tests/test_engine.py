import random
import sys

import pytest
from conftest import BONGARD_BACKGROUND, PICTURE_1, PICTURE_2, examples, mk_interp, mk_query_literals
from hypothesis import assume, example, given, settings as hsettings, strategies as st
from oracles import ground_join_succeeds, theta_subsumes

from foldt.engine import (
    Background,
    Pack,
    Query,
    _Writer,
    answer_all,
    coverage_query,
    succeeds,
)
from foldt.errors import BudgetExceededError, DataError, QueryError
from foldt.terms import Atom, Literal, Number, parse_program, parse_term

P1 = mk_interp(*PICTURE_1)
P2 = mk_interp(*PICTURE_2)
BG = Background(parse_program(BONGARD_BACKGROUND))


def q(*texts) -> Query:
    return Query(mk_query_literals(*texts))


def test_triangle_inside_picture1():
    assert succeeds(q("triangle(X)", "inside(X,Y)"), P1)
    assert not succeeds(q("triangle(X)", "inside(X,Y)"), mk_interp("9", "neg", "circle(c1)"))


def test_doubletriangle_background_picture2():
    assert succeeds(q("doubletriangle(A,B)"), P2, BG)
    assert not succeeds(q("doubletriangle(A,B)"), P1, BG)
    assert succeeds(q("polygon(o4)"), P2, BG)


def test_empty_query_true():
    assert succeeds(Query(()), P1)


def test_answer_all_card_multiset():
    hand = mk_interp(
        "4",
        "pair",
        "card(7,spades)",
        "card(queen,hearts)",
        "card(9,clubs)",
        "card(9,spades)",
        "card(ace,diamonds)",
    )
    values = answer_all(q("card(R,S)"), "R", hand)
    assert values == [Number(7), Atom("queen"), Number(9), Number(9), Atom("ace")]


def test_answer_all_molecule_charges():
    mol = mk_interp(
        "1",
        "pos",
        "atom(d1_1,c,22,-0.117)",
        "atom(d1_2,c,22,-0.117)",
        "atom(d1_3,c,22,-0.117)",
        "atom(d1_4,c,195,-0.087)",
        "atom(d1_5,c,195,0.013)",
        "atom(d1_6,c,22,-0.117)",
        "atom(d1_25,o,40,-0.388)",
        "atom(d1_26,o,40,-0.388)",
        "bond(d1_1,d1_2,7)",
    )
    charges = answer_all(q("atom(A,E,T,C)"), "C", mol)
    assert charges.count(Number(-0.117)) >= 3
    assert len(charges) == 8


def test_answer_all_unsatisfiable_and_bad_var():
    assert answer_all(q("square(X)"), "X", P1) == []
    with pytest.raises(QueryError, match="does not occur"):
        answer_all(q("triangle(X)"), "Z", P1)


def test_unknown_predicate_fails_quietly():
    assert not succeeds(q("martian(X)"), P1, BG)


def test_budget_exhaustion_on_recursive_background():
    looping = Background(parse_program("p(X) :- p(X)."))
    with pytest.raises(BudgetExceededError, match=r"in example 1 on query p\(a\)"):
        succeeds(q("p(a)"), P1, looping, budget=1000)


def test_background_cut_rejected():
    with pytest.raises(DataError, match="cut"):
        Background(parse_program("p(X) :- q(X), !.", allow_cut=True))


def test_builtin_semantics():
    e = mk_interp("1", "pos", "val(a,1)", "val(b,2)", "val(c,2.5)")
    assert succeeds(q("val(X,V)", "V > 1"), e)
    assert not succeeds(q("val(a,V)", "V > 1"), e)
    assert succeeds(q("val(b,V)", "V >= 2"), e)
    assert succeeds(q("val(c,V)", "V =< 2.5"), e)
    assert succeeds(q("val(X,V)", "X \\= a"), e)
    assert succeeds(q("val(X,1)", "X = a"), e)
    with pytest.raises(QueryError, match="ground"):
        succeeds(q("X \\= Y"), e)
    with pytest.raises(QueryError, match="numeric"):
        succeeds(q("val(X,V)", "X < V"), e)


def test_builtin_errors_name_the_example_and_the_first_undecided_query():
    e = mk_interp("e7", "pos", "val(a,1)", "val(b,x)")
    checks = Background(parse_program("bad(X) :- X \\= Y.\nlow(X) :- val(X,V), V < 2.\n"))
    ground, numeric = "\\= needs ground arguments, got X \\= Y", "< needs numeric arguments, got V < 2"
    cases = [
        ([q("val(X,V)", "X \\= Y")], ground, "val(X,V), X \\= Y"),  # a pack literal
        ([q("val(a,V)"), q("bad(a)")], ground, "bad(a)"),  # a clause body's
        ([q("low(X)", "val(X,x)"), q("low(b)")], numeric, "low(X), val(X,x)"),
    ]
    for queries, cause, query in cases:
        with pytest.raises(QueryError) as info:
            Pack(queries).run(e, checks)
        assert type(info.value) is QueryError
        assert str(info.value) == f"{cause} in example e7 on query {query}"


def test_int_float_comparisons_exact():
    e = mk_interp("1", "pos", "v(2)", "v(2.0)")
    assert succeeds(q("v(X)", "X >= 2"), e)
    assert succeeds(q("v(X)", "X =< 2.0"), e)
    assert not succeeds(q("v(X)", "X > 2"), e)
    # disequality is structural: the int and the float are different terms
    assert succeeds(q("v(X)", "v(Y)", "X \\= Y"), e)


def test_solutions_deterministic_order():
    sols1 = answer_all(q("triangle(X)"), "X", P2)
    sols2 = answer_all(q("triangle(X)"), "X", P2)
    assert sols1 == sols2 == [Atom("o4"), Atom("o5")]


def test_monotonicity_adding_conjuncts():
    # adding a positive literal never gains solutions: every prefix of a
    # succeeding query also succeeds
    from oracles import random_join_instance

    rng = random.Random(99)
    for i in range(150):
        fact_texts, lit_texts = random_join_instance(rng)
        e = mk_interp(str(i), "pos", *dict.fromkeys(fact_texts))
        if succeeds(q(*lit_texts), e):
            for cut in range(len(lit_texts)):
                assert succeeds(Query(q(*lit_texts).literals[:cut]), e)


def test_theta_subsumes_examples():
    assert theta_subsumes(q("triangle(X)"), q("triangle(X)", "inside(X,Y)"))
    assert not theta_subsumes(q("p(X,X)"), q("p(a,b)"))
    assert theta_subsumes(q("p(X,X)"), q("p(a,a)"))
    assert theta_subsumes(q("p(X,Y)"), q("p(a,b)"))
    # set semantics: two pattern literals may land on one target literal
    assert theta_subsumes(q("p(X)", "p(Y)"), q("p(a)"))


def test_theta_subsumes_rigid_target_variables():
    # X binds to q2's variable Y; later occurrences must still match.
    assert theta_subsumes(q("p(X,Y)", "r(X)"), q("p(Y,a)", "r(Y)"))
    assert not theta_subsumes(q("p(X,Y)", "r(Y)"), q("p(Y,a)", "r(b)"))


def test_theta_subsumes_reflexive_transitive():
    qs = [
        q("triangle(X)"),
        q("triangle(X)", "inside(X,Y)"),
        q("triangle(X)", "inside(X,Y)", "circle(Y)"),
    ]
    for x in qs:
        assert theta_subsumes(x, x)
    assert theta_subsumes(qs[0], qs[1]) and theta_subsumes(qs[1], qs[2])
    assert theta_subsumes(qs[0], qs[2])


def test_ground_join_oracle_equivalence():
    from oracles import random_join_instance

    rng = random.Random(7)
    for i in range(200):
        fact_texts, lit_texts = random_join_instance(rng)
        e = mk_interp(str(i), "pos", *dict.fromkeys(fact_texts))
        query = q(*lit_texts)
        expected = ground_join_succeeds(query.literals, e.facts)
        assert succeeds(query, e) == expected, (fact_texts, lit_texts)


# ---------------------------------------------------------------------------
# Coverage queries against the full conjunction they stand for


def test_coverage_query_keeps_linked_literals_in_order():
    qlits = mk_query_literals(
        "triangle(X)", "circle(Z)", "inside(X,Y)", "points(Z,up)", "square(V)"
    )
    got = coverage_query(Query(qlits), mk_query_literals("circle(Y)"))
    assert got == q("triangle(X)", "inside(X,Y)", "circle(Y)")
    assert coverage_query(Query(qlits), mk_query_literals("square(W)")) == q("square(W)")
    assert coverage_query(Query(()), mk_query_literals("p(X)")) == q("p(X)")


def _steps(query, interp, background=None) -> int:
    """The least budget under which ``succeeds`` finishes, with its outcome
    or with an error other than an exhausted budget."""

    def finishes(budget):
        try:
            succeeds(query, interp, background, budget=budget)
        except BudgetExceededError:
            return False
        except QueryError:
            pass
        return True

    lo, hi = 1, 1
    while not finishes(hi):
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if finishes(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _assert_coverage_matches(qlits, added, interp, background=None, facts=None):
    """On an example that satisfies ``qlits``: the coverage query succeeds
    exactly when the whole conjunction does (and when the naive join over
    ``facts`` does), and it needs no larger budget."""
    full = Query(qlits + added)
    cover = coverage_query(Query(qlits), added)
    expected = succeeds(full, interp, background)
    assert succeeds(cover, interp, background) == expected, (full, cover)
    if facts is not None:
        assert ground_join_succeeds(full.literals, facts) == expected, full
    assert _steps(cover, interp, background) <= _steps(full, interp, background), (full, cover)


_VARS = "XYZUW"
_CONSTS = "abc"


@st.composite
def _join_literals(draw, low, high):
    out = []
    for _ in range(draw(st.integers(low, high))):
        kind = draw(st.sampled_from("prs"))
        v1, v2 = draw(st.sampled_from(_VARS)), draw(st.sampled_from(_VARS + _CONSTS))
        out.append(f"p({v1})" if kind == "p" else f"{kind}({v1},{v2})")
    return out


def _bound(texts):
    """Variables a list of non-builtin literal texts binds, in order."""
    return list(dict.fromkeys(ch for t in texts for ch in t if ch in _VARS))


@hsettings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("prs"), st.sampled_from(_CONSTS), st.sampled_from(_CONSTS)),
        min_size=1,
        max_size=10,
    ),
    _join_literals(0, 4),
    _join_literals(1, 3),
    st.booleans(),
)
def test_coverage_query_equals_full_conjunction(fact_parts, qtexts, ctexts, guard):
    fact_texts = [f"p({a})" if f == "p" else f"{f}({a},{b})" for f, a, b in fact_parts]
    e = mk_interp("1", "pos", *dict.fromkeys(fact_texts))
    bound = _bound(qtexts + ctexts)
    if guard and len(bound) >= 2:
        ctexts = ctexts + [f"{bound[0]} \\= {bound[-1]}"]
    qlits = mk_query_literals(*qtexts) if qtexts else ()
    assume(succeeds(Query(qlits), e))
    _assert_coverage_matches(qlits, mk_query_literals(*ctexts), e, facts=e.facts)


_SHAPES = ("triangle", "square", "circle")


@hsettings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
    st.lists(
        st.tuples(
            st.sampled_from(_SHAPES + ("polygon", "inside", "doubletriangle")),
            st.sampled_from(_VARS),
            st.sampled_from(_VARS),
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 6),
)
def test_coverage_query_through_background(shapes, edges, parts, split):
    """Scenes under the Bongard background; the naive join runs over the
    scene plus the facts the background derives."""
    facts = [f"{shape}(o{i})" for i, shape in enumerate(shapes)]
    facts += [f"inside(o{a},o{b})" for a, b in edges if a < len(shapes) and b < len(shapes)]
    e = mk_interp("1", "pos", *dict.fromkeys(facts))
    texts = [
        f"{f}({v},{w})" if f in ("inside", "doubletriangle") else f"{f}({v})"
        for f, v, w in parts
    ]
    literals = mk_query_literals(*texts)
    split = min(split, len(texts) - 1)
    qlits, added = literals[:split], literals[split:]
    assume(succeeds(Query(qlits), e, BG))
    triangles = [f"o{i}" for i, s in enumerate(shapes) if s == "triangle"]
    derived = [f"polygon(o{i})" for i, s in enumerate(shapes) if s != "circle"]
    derived += [f"doubletriangle({a},{b})" for a in triangles for b in triangles if a != b]
    closed = mk_interp("1", "pos", *dict.fromkeys(facts + derived))
    _assert_coverage_matches(qlits, added, e, BG, facts=closed.facts)


# ---------------------------------------------------------------------------
# Query packs against the proofs they replace


def _separate_steps(queries, interp, background=None) -> int:
    """Steps of proving each query alone, added up."""
    total = 0
    for query in queries:
        pack = Pack((query,))
        pack.run(interp, background)
        total += pack.steps
    return total


# ``t`` is ``r`` plus the diagonal over ``p``; the naive join sees it as
# facts derived from the example.
_JOIN_BACKGROUND = Background(parse_program("t(X,Y) :- r(X,Y).\nt(X,X) :- p(X).\n"))


@hsettings(max_examples=examples(300), deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.booleans())
def test_pack_bits_equal_separate_proofs_and_naive_join(seed, k, derived):
    """Outcome bits of a k-query pack equal those of k one-query packs and of
    the naive join, and the pack spends no more steps than they do.  Queries
    extend each other's prefixes, so the trie shares literals; with
    ``derived`` some of them go through background clauses."""
    from oracles import random_join_instance

    rng = random.Random(seed)
    fact_texts, first = random_join_instance(rng)
    e = mk_interp("1", "pos", *dict.fromkeys(fact_texts))
    texts = [first]
    for _ in range(k - 1):
        _, lits = random_join_instance(rng)
        if derived:
            lits = [t.replace("r(", "t(") if rng.random() < 0.5 else t for t in lits]
        base = rng.choice(texts)
        texts.append(base[: rng.randint(0, len(base))] + lits)
    background = _JOIN_BACKGROUND if derived else None
    closed = e.facts + tuple(
        Literal("t", f.args if f.pred == "r" else f.args * 2) for f in e.facts
    )
    queries = [q(*t) for t in texts]
    pack = Pack(queries)
    bits = pack.run(e, background)
    for i, query in enumerate(queries):
        alone = Pack((query,)).run(e, background) == 1
        assert (bits >> i & 1 == 1) == alone == succeeds(query, e, background), texts[i]
        assert alone == ground_join_succeeds(query.literals, closed), texts[i]
    assert pack.steps <= _separate_steps(queries, e, background), texts


def test_one_query_pack_spends_what_succeeds_spends():
    queries = [q("card(A,B)", "card(A,C)", "B \\= C"), q("triangle(X)", "inside(X,Y)")]
    for query in queries:
        for e in (P1, P2, HAND):
            pack = Pack((query,))
            pack.run(e, BG)
            # ``_steps`` tries budgets from 1, so it reads 1 for a 0-step proof
            assert max(pack.steps, 1) == _steps(query, e, BG)


HAND = mk_interp(
    "4", "pair",
    "card(7,spades)", "card(queen,hearts)", "card(9,clubs)", "card(9,spades)", "card(ace,diamonds)",
)
CHAIN = mk_interp("5", "pos", "par(a,b)", "par(b,c)", "par(c,d)")
ANCESTOR = Background(
    parse_program("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n")
)
NUMBERS = mk_interp("6", "pos", "val(a,1)", "val(b,2)", "val(c,2.5)", "v(2)", "v(2.0)")
TERMS = mk_interp("7", "pos", "s(g(b))", "s(f(a))", "r(a,b)")
_PAIR = ("card(A,B)", "card(A,C)", "B \\= C")
LINKS = mk_interp("10", "pos", "p(a,b)", "p(b,b)", "p(a,c)", "p(c,c)", "s(c)", "s(b)")
# Clause bodies with a repeated variable, a binding chain (s(X) reads X
# through Y and Z), a disequality between clause-local variables, and a
# head that is not distinct variables.
LINKED = Background(parse_program(
    "loop(X) :- p(X,X).\n"
    "chain(X) :- X = Y, Y = Z, p(Z,W), s(X).\n"
    "diff(X) :- p(X,Y), p(X,Z), Y \\= Z.\n"
    "link(X,X) :- s(X).\n"
))
COL = Background(parse_program("col(X) :- red(X).\ncol(X) :- blue(X).\ncol(green).\n"))
COLOURED = mk_interp("1", "pos", "blue(b1)", "red(r1)", "col(c0)", "red(r2)")
NESTED = mk_interp("11", "pos", "s(g(b))", "s(f(a))", "r(a,f(a))", "r(b,f(c))", "r(c,f(c))")
SCENE = mk_interp(
    "15", "pos",
    "circle(o1)", "square(o2)", "triangle(o3)", "triangle(o4)",
    "inside(o3,o2)", "inside(o4,o1)", "size(o1,2)", "size(o3,big)", "size(o4,3)",
)
# ``large/1`` nests ``polygon/1`` and compares a clause-local variable.
SIZED = Background(parse_program(BONGARD_BACKGROUND + "large(O) :- polygon(O), size(O,S), S > 1.\n"))
# ``up/2`` is ``anc/2`` over r/2, whose second arguments in NESTED are compounds.
REACH = Background(parse_program("up(X,Y) :- r(X,Y).\nup(X,Y) :- r(X,Z), up(Z,Y).\n"))

# Least budgets under which ``succeeds`` finishes, measured with ``_steps``
# and pinned.  The rows over LINKS were measured on the resolver before
# clause bodies were proved through fact plans; those over COLOURED and
# NESTED and those with an s(f(...)) literal on the resolver that matched
# such literals against facts in a loop of its own; those over SCENE on the
# walk that proved every literal with background clauses through the
# machine; the anc(X,X) and up(X,f(Y)) rows on the machine that bound a
# clause head of distinct variables without unifying; the others on the
# resolver that query packs replaced.  A step is
# one fact tried, one clause tried or one builtin evaluated.  An expected
# outcome that is text is the error the query raises, and its steps are the
# least budget under which it raises that error.
STEP_TABLE = [
    (("triangle(X)", "inside(X,Y)"), P1, None, True, 2),
    (("triangle(X)", "inside(X,Y)"), P2, None, True, 2),
    (("doubletriangle(A,B)",), P2, BG, True, 6),
    (("doubletriangle(A,B)",), P1, BG, False, 4),
    (("polygon(X)", "inside(X,Y)", "circle(Y)"), P2, BG, False, 5),
    (_PAIR, HAND, None, True, 11),
    (_PAIR + ("card(A,D)", "B \\= D", "C \\= D"), HAND, None, False, 29),
    (("v(X)", "v(Y)", "X \\= Y"), NUMBERS, None, True, 5),
    (("val(X,V)", "V > 2"), NUMBERS, None, True, 6),
    (("anc(a,d)",), CHAIN, ANCESTOR, True, 10),
    (("anc(d,a)",), CHAIN, ANCESTOR, False, 2),
    (("s(T)", "T = f(U)", "r(U,V)"), TERMS, None, True, 5),
    (("loop(A)",), LINKS, LINKED, True, 3),
    (("chain(A)",), LINKS, LINKED, True, 6),
    (("diff(A)",), LINKS, LINKED, True, 6),
    (("s(A)", "diff(A)"), LINKS, LINKED, False, 10),
    (("p(A,B)", "link(A,B)"), LINKS, LINKED, True, 5),
    (("col(X)", "blue(X)"), COLOURED, COL, True, 7),
    (("col(X)", "col(green)"), COLOURED, COL, True, 4),
    (("s(f(X))",), TERMS, None, True, 2),
    (("s(f(X))", "r(X,b)"), TERMS, None, True, 3),
    (("s(f(a))",), TERMS, None, True, 1),
    (("r(X,f(X))",), NESTED, None, True, 1),
    (("r(X,f(Y))", "s(f(Y))"), NESTED, None, True, 2),
    (("r(X,f(X))", "X \\= a"), NESTED, None, True, 5),
    (("polygon(X)",), SCENE, BG, True, 2),
    # the last step is square(o2) in polygon's second clause
    (("polygon(o2)",), SCENE, BG, True, 3),
    (("polygon(o1)",), SCENE, BG, False, 2),
    (("polygon(X)", "inside(X,Y)", "circle(Y)"), SCENE, BG, True, 6),
    (("doubletriangle(A,B)",), SCENE, BG, True, 6),
    (("doubletriangle(A,o3)",), SCENE, BG, True, 7),
    (("inside(X,Y)", "doubletriangle(X,Y)"), SCENE, BG, False, 6),
    (("large(X)",), SCENE, SIZED, "> needs numeric arguments, got S > 1 in example 15 on query large(X)", 5),
    (
        ("size(X,S)", "large(X)"), SCENE, SIZED,
        "> needs numeric arguments, got S > 1 in example 15 on query size(X,S), large(X)", 10,
    ),
    # s(T)'s first argument is a compound ground only under the bindings:
    # it picks s(f(a)) as the one fact to try (4 steps without the index).
    (("T = f(U)", "U = a", "s(T)"), TERMS, None, True, 3),
    # One unbound variable passed twice to the recursive head anc(X,Y), and
    # a compound passed to up(X,Y): both heads are distinct variables.
    (("anc(X,X)",), CHAIN, ANCESTOR, False, 26),
    (("up(X,f(Y))", "X \\= Y"), NESTED, REACH, True, 5),
]


@pytest.mark.parametrize("texts,e,background,expected,steps", STEP_TABLE)
def test_step_counts_pinned(texts, e, background, expected, steps):
    query = q(*texts)
    if type(expected) is str:
        with pytest.raises(QueryError) as info:
            succeeds(query, e, background)
        assert type(info.value) is QueryError and str(info.value) == expected
    else:
        assert succeeds(query, e, background) is expected
    assert _steps(query, e, background) == steps


def test_pack_through_recursive_background():
    queries = [q("anc(a,d)"), q("anc(d,a)"), q("anc(b,X)", "par(X,Y)"), q("anc(X,a)")]
    pack = Pack(queries)
    assert pack.run(CHAIN, ANCESTOR) == 0b0101
    assert pack.steps <= _separate_steps(queries, CHAIN, ANCESTOR)
    assert answer_all(q("anc(a,X)"), "X", CHAIN, ANCESTOR) == [Atom("b"), Atom("c"), Atom("d")]
    deep = mk_interp("8", "pos", *(f"par(n{i},n{i + 1})" for i in range(300)))
    assert succeeds(q("anc(n0,n300)"), deep, ANCESTOR)
    with pytest.raises(BudgetExceededError, match=r"budget of 50 exhausted in example 8"):
        succeeds(q("anc(n0,n300)"), deep, ANCESTOR, budget=50)


def test_a_term_nested_too_deeply_is_a_query_error():
    # Each grow/1 call wraps its argument once more, and \\= walks the
    # whole of it, until it nests deeper than Python's recursion allows.
    grow = Background(parse_program("grow(X) :- X \\= a, grow(f(X)).\n"))
    with pytest.raises(QueryError) as info:
        succeeds(q("grow(b)"), CHAIN, grow)
    assert type(info.value) is QueryError
    assert str(info.value) == "term nested too deeply in example 5 on query grow(b)"
    # wrap/2 builds its answer from the outside in, one shallow binding per
    # par/2 fact, so only rendering the answer walks the whole term.
    wrap = Background(parse_program("wrap(N,a) :- last(N).\nwrap(N,f(Y)) :- par(N,M), wrap(M,Y).\n"))
    n = sys.getrecursionlimit()
    deep = mk_interp("9", "pos", *(f"par(n{i},n{i + 1})" for i in range(n)), f"last(n{n})")
    assert succeeds(q("wrap(n0,X)"), deep, wrap)
    with pytest.raises(QueryError) as info:
        answer_all(q("wrap(n0,X)"), "X", deep, wrap)
    assert type(info.value) is QueryError
    assert str(info.value) == "term nested too deeply in example 9 on query wrap(n0,X)"
    # Binding the whole term to keep/1's head slot walks it in the occurs
    # check, which keeps a stack of its own.
    keep = Background(wrap.clauses + parse_program("keep(Y) :- ok.\nok.\n"))
    assert succeeds(q("wrap(n0,X)", "keep(X)"), deep, keep)


def test_unification_with_compounds_and_occurs_check():
    assert succeeds(q("s(T)", "T = f(U)", "r(U,V)"), TERMS)
    assert answer_all(q("s(T)", "T = f(U)"), "U", TERMS) == [Atom("a")]
    assert answer_all(q("X = f(Y, g(Z))", "Y = a", "Z = Y"), "X", TERMS) == [
        parse_term("f(a, g(a))")
    ]
    assert not succeeds(q("X = f(X)"), TERMS)
    assert not succeeds(q("X = f(Y)", "Y = g(X)"), TERMS)
    wrap = Background(parse_program("wrap(X, f(X)).\nself(X) :- X = f(X).\n"))
    assert succeeds(q("wrap(a, W)", "s(W)"), mk_interp("9", "pos", "s(f(a))"), wrap)
    assert not succeeds(q("wrap(W, W)"), TERMS, wrap)
    assert not succeeds(q("self(X)"), TERMS, wrap)
    # an unbound variable comes back under its own name
    assert answer_all(q("wrap(a, W)"), "W", TERMS, wrap) == [parse_term("f(a)")]


def test_answer_all_keeps_fact_then_clause_order():
    assert answer_all(q("col(X)"), "X", COLOURED, COL) == [
        Atom("c0"), Atom("r1"), Atom("r2"), Atom("b1"), Atom("green")
    ]
    assert answer_all(q("col(X)", "col(X)"), "X", COLOURED, COL) == [
        Atom("c0"), Atom("r1"), Atom("r2"), Atom("b1"), Atom("green")
    ]


def test_pack_budget_error_names_example_and_first_undecided_query():
    looping = Background(parse_program("p(X) :- p(X)."))
    pack = Pack([q("triangle(X)"), q("p(a)"), q("p(b)")])
    expected = r"of 3 x 100 exhausted in example 1 on query p\(a\)"
    with pytest.raises(BudgetExceededError, match=expected):
        pack.run(P1, looping, budget=100)


# ---------------------------------------------------------------------------
# The engine against the reference SLD resolver

_CLAUSE_VARS = ("X", "Y", "Z")
_QUERY_VARS = ("A", "B", "C")
_GROUND = ("a", "b", "1", "2", "f(a)")
# Example facts prove e/1, n/1 and r/2; clauses prove d/1 and t/2, and may
# prove r/2 as well, so some literals meet facts and clauses both.  An r/2
# fact may hold a compound in either argument, so that a literal such as
# r(A,f(B)) can match one.
_FACTS = (
    st.sampled_from(("a", "b", "c", "f(a)")).map(lambda x: f"e({x})")
    | st.sampled_from(("1", "2", "3")).map(lambda x: f"n({x})")
    | st.tuples(
        st.sampled_from(("a", "b", "c", "f(a)")),
        st.sampled_from(("a", "b", "c", "1", "f(a)", "f(b)")),
    ).map(lambda xy: f"r({xy[0]},{xy[1]})")
)


def _arg(variables):
    # Mostly variables, so that literals repeat them and clauses share them.
    return st.one_of(
        *[st.sampled_from(variables)] * 3,
        st.sampled_from(_GROUND),
        st.sampled_from(variables).map(lambda v: f"f({v})"),
    )


def _derived_literal(variables):
    a = _arg(variables)
    return st.builds("d({})".format, a) | st.builds("t({},{})".format, a, a)


def _body_literal(variables):
    v = st.sampled_from(variables)
    a = _arg(variables)
    return st.one_of(
        st.builds("e({})".format, a),
        st.builds("n({})".format, a),
        st.builds("r({},{})".format, a, a),
        st.builds("r({0},{0})".format, v),
        _derived_literal(variables),
        st.builds("{} = {}".format, v, a),
        st.builds("{} \\= {}".format, v, a),
        st.builds("{} < {}".format, v, st.sampled_from(variables + ("2",))),
    )


@st.composite
def _clause(draw):
    pred = draw(st.sampled_from(("d", "t", "t", "r")))
    arity = 1 if pred == "d" else 2
    if draw(st.booleans()):  # distinct variables: a linear head
        head = draw(st.permutations(_CLAUSE_VARS))[:arity]
    else:
        head = [draw(_arg(_CLAUSE_VARS)) for _ in range(arity)]
    body = draw(st.lists(_body_literal(_CLAUSE_VARS), max_size=3))
    text = f"{pred}({','.join(head)})"
    return text + (" :- " + ", ".join(body) if body else "") + "."


@hsettings(max_examples=examples(400), deadline=None)
@given(
    st.lists(_clause(), max_size=5),
    st.lists(_FACTS, max_size=8),
    st.lists(
        st.lists(_derived_literal(_QUERY_VARS) | _body_literal(_QUERY_VARS), min_size=1, max_size=3),
        min_size=1, max_size=3,
    ),
    st.integers(1, 12),
)
def test_engine_agrees_with_the_reference_resolver(clauses, facts, query_texts, small):
    """One-query outcomes and steps, ``answer_all`` lists (unbound answers
    included) and errors, at a full and at a small budget, and the bits of
    a pack of the queries, equal those of plain SLD resolution."""
    _assert_agrees_with_the_reference(clauses, facts, query_texts, small)


def _caught(call):
    """What ``call()`` returns, or the type and text of the ``QueryError`` it
    raises."""
    try:
        return call()
    except QueryError as error:
        return type(error), str(error)


def _assert_agrees_with_the_reference(clauses, facts, query_texts, small):
    from oracles import sld_answers, sld_outcome

    program = parse_program("\n".join(clauses))
    background = Background(program)
    e = mk_interp("1", "pos", *dict.fromkeys(facts))
    queries = [q(*texts) for texts in query_texts]
    full = 200
    for query in queries:
        for budget in (full, small):
            pack = Pack((query,))
            got = _caught(lambda: (pack.run(e, background, budget) == 1, pack.steps))
            assert got == sld_outcome(query, e, program, budget), (clauses, facts, str(query))
            for var in query.variables():
                got = _caught(lambda: answer_all(query, var, e, background, budget))
                assert got == sld_answers(query, var, e, program, budget), (clauses, facts, str(query))
    outcomes = [sld_outcome(query, e, program, full)[0] for query in queries]
    if all(type(o) is bool for o in outcomes):
        bits = Pack(queries).run(e, background, full)
        assert bits == sum(1 << i for i, o in enumerate(outcomes) if o)


# ---------------------------------------------------------------------------
# The generated walk against the interpreted walk it replaced


def _every_outcome(packs, interp, background, budget):
    """Outcome bits and the steps of this run of each of ``packs``, or the
    type and text of the error each raised."""
    got = []
    for pack in packs:
        before = pack.steps
        try:
            got.append((pack.run(interp, background, budget), pack.steps - before))
        except QueryError as error:
            got.append((type(error), str(error)))
    return got


def _assert_answers_agree(query, interp, background, full):
    """``answer_all`` lists the answers of the interpreted walk, or raises
    its error, for every variable of ``query`` at ``full``, and for its first
    variable at every budget from 1 up to the steps that walk spends at
    ``full``: so it spends the same steps.  The proof, and so the budget at
    which it runs out, is the same whichever variable's answers it lists."""
    from oracles import InterpretedPack

    old = InterpretedPack((query,))

    def both(var, budget):
        before = old.steps
        want = _caught(lambda: old.answers(var, interp, background, budget))
        got = _caught(lambda: answer_all(query, var, interp, background, budget))
        assert got == want, (budget, str(query), var)
        return old.steps - before if type(want) is list else full

    variables = query.variables()
    for var in variables[1:]:
        both(var, full)
    if variables:
        spent = both(variables[0], full)
        for budget in range(1, min(spent, full) + 1):
            both(variables[0], budget)


def _assert_walks_agree(queries, interp, background, full=200):
    """At every budget from 1 up to what the pack spends at ``full`` (and at
    ``full``), outcome bits, steps and errors agree, and so do the answers
    of every variable of every query alone (``_assert_answers_agree``).  One
    ``Pack`` and one ``InterpretedPack`` of ``queries`` serve every budget."""
    from oracles import InterpretedPack

    packs = (Pack(queries), InterpretedPack(queries))
    new, old = _every_outcome(packs, interp, background, full)
    assert new == old, [str(q) for q in queries]
    spent = new[1] if type(new[0]) is int else full
    per_query = -(-spent // len(queries))
    for budget in range(1, min(per_query, full) + 1):
        new, old = _every_outcome(packs, interp, background, budget)
        assert new == old, (budget, [str(q) for q in queries])
    for query in queries:
        _assert_answers_agree(query, interp, background, full)


@st.composite
def _pack_queries(draw, literal=_derived_literal(_QUERY_VARS) | _body_literal(_QUERY_VARS)):
    """Queries over the literals of the reference-resolver test, or over
    ``literal``; a query may start with a prefix of an earlier one, so that
    the trie branches."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        tail = draw(st.lists(literal, min_size=1, max_size=3))
        if out and draw(st.booleans()):
            base = draw(st.sampled_from(out))
            tail = base[: draw(st.integers(0, len(base)))] + tail
        out.append(tail)
    return out


@hsettings(max_examples=examples(200), deadline=None)
@given(st.lists(_clause(), max_size=5), st.lists(_FACTS, max_size=8), _pack_queries())
# A literal that clauses prove twice, under which its query is decided while
# another is not: the walk must leave its solutions there.
@example(["d(a).", "d(b)."], ["e(a)"], [["d(A)"], ["e(c)"]])
@example(["t(X,Y) :- r(X,Y).", "t(a,Z)."], ["r(a,b)", "r(a,c)", "e(b)"], [["t(a,B)", "e(B)"], ["t(a,B)", "n(B)"]])
def test_generated_walk_agrees_with_the_interpreted_walk(clauses, facts, query_texts):
    """Packs of up to four queries with shared prefixes, over recursive
    background clauses, ``=``, ``\\=`` and ``<``, compounds, repeated
    variables and ground first arguments."""
    background = Background(parse_program("\n".join(clauses)))
    e = mk_interp("1", "pos", *dict.fromkeys(facts))
    _assert_walks_agree([q(*texts) for texts in query_texts], e, background)


# ---------------------------------------------------------------------------
# Background clauses compiled into the walk
#
# Programs that are mostly non-recursive clauses with heads of distinct
# variables over e/1, n/1 and r/2, which bind every head variable and then
# test with \= and <: the walk compiles those inline.  r/2 has example facts
# and may have clauses; d/1 may have both and calls r/2; t/2 calls d/1, so
# clauses nest two and three deep.  Now and then a clause of the general
# strategy joins them, and with it recursion, other heads and compounds.

_CALLS = {"r": ("e", "n"), "d": ("e", "n", "r"), "t": ("e", "n", "r", "d")}
_INLINE_FACTS = _FACTS | st.sampled_from(("a", "b", "1")).map("d({})".format)


def _mostly(usual, other, odds: int):
    """``usual``, or ``other`` in about one draw of ``odds``."""
    return st.integers(1, odds).flatmap(lambda i: other if i == odds else usual)


@st.composite
def _inline_clause(draw):
    pred = draw(st.sampled_from(("d", "d", "t", "t", "r")))
    head = draw(st.permutations(_CLAUSE_VARS))[: 1 if pred == "d" else 2]
    arg = _mostly(st.sampled_from(_CLAUSE_VARS), st.sampled_from(("a", "b", "1", "2")), 4)
    body = []
    for callee in draw(st.lists(st.sampled_from(_CALLS[pred]), min_size=1, max_size=3)):
        args = [draw(arg) for _ in range(2 if callee == "r" else 1)]
        body.append(f"{callee}({','.join(args)})")
    bound = [v for v in _CLAUSE_VARS if any(v in lit for lit in body)]
    for v in head:
        if v not in bound:
            body.append(f"{draw(st.sampled_from(('e', 'n')))}({v})")
            bound.append(v)
    for op in draw(st.lists(st.sampled_from(("\\=", "<")), max_size=2)):
        x, y = draw(st.sampled_from(bound)), draw(st.sampled_from(bound + ["2"]))
        body.append(f"{x} {op} {y}")
    return f"{pred}({','.join(head)}) :- {', '.join(body)}."


_INLINE_ARG = _mostly(st.sampled_from(_QUERY_VARS), st.sampled_from(("a", "b", "1")), 4)
_INLINE_PROGRAM = st.lists(_mostly(_inline_clause(), _clause(), 8), max_size=6)
_INLINE_QUERIES = _pack_queries(
    _mostly(
        st.builds("d({})".format, _INLINE_ARG)
        | st.builds("t({},{})".format, _INLINE_ARG, _INLINE_ARG)
        | st.builds("r({},{})".format, _INLINE_ARG, _INLINE_ARG),
        _body_literal(_QUERY_VARS),
        4,
    )
)


@hsettings(max_examples=examples(300), deadline=None)
@given(_INLINE_PROGRAM, st.lists(_INLINE_FACTS, max_size=8), _INLINE_QUERIES, st.integers(1, 12))
def test_inlined_clauses_agree_with_the_reference_resolver(clauses, facts, query_texts, small):
    _assert_agrees_with_the_reference(clauses, facts, query_texts, small)


@hsettings(max_examples=examples(200), deadline=None)
@given(_INLINE_PROGRAM, st.lists(_INLINE_FACTS, max_size=8), _INLINE_QUERIES)
def test_inlined_clauses_agree_with_the_interpreted_walk(clauses, facts, query_texts):
    background = Background(parse_program("\n".join(clauses)))
    e = mk_interp("1", "pos", *dict.fromkeys(facts))
    _assert_walks_agree([q(*texts) for texts in query_texts], e, background)


def _machine(queries, background) -> bool:
    """Whether the walk of ``queries`` calls the machine."""
    writer = _Writer(Pack(queries), background._by_key)
    writer.write()
    return writer.machine


def test_bongard_background_compiles_inline():
    queries = [q("polygon(X)"), q("doubletriangle(X,Y)"), q("inside(X,Y)", "polygon(Y)")]
    assert not _machine(queries, BG)
    assert not _machine([q("size(X,S)", "large(X)")], SIZED)


@pytest.mark.parametrize(
    "program,text",
    [
        ("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).", "anc(a,B)"),  # recursive
        ("points(O,up) :- circle(O).", "points(A,B)"),  # a head that is not distinct variables
        ("bad(X) :- X \\= Y.", "bad(a)"),  # a body variable absent from the head, never bound
        ("any(X) :- circle(Y).", "any(A)"),  # a head variable the body leaves unbound
        ("wrap(X) :- s(f(X)).", "wrap(A)"),  # a compound in the body
        ("p(X) :- q(X).\nq(X) :- r(X, X).\nq(X) :- q(X).", "p(A)"),  # calls a recursive predicate
    ],
)
def test_other_clauses_go_to_the_machine(program, text):
    assert _machine([q(text)], Background(parse_program(program)))


def test_inlined_clauses_keep_the_walk_linear_in_size():
    """Each polygon literal after the first adds the same number of lines:
    what follows a literal with several clauses is written once, not once
    per clause."""
    literals = [f"polygon(X{i})" for i in range(12)]
    sources = [_Writer(Pack([q(*literals[:k])]), BG._by_key).write() for k in range(1, 13)]
    lines = [len(source.splitlines()) for source in sources]
    assert len({b - a for a, b in zip(lines, lines[1:])}) == 1, lines
    queries = [q(*literals[:k]) for k in range(1, 13)]
    assert not _machine(queries, BG)
    scene = mk_interp("16", "pos", "circle(o1)", "triangle(o2)", "inside(o2,o1)")
    assert Pack(queries).run(scene, BG) == (1 << 12) - 1
    _assert_walks_agree(queries, scene, BG)
    _assert_walks_agree([q(*literals, "circle(X11)"), q(*literals[:6], "square(X5)")], scene, BG)


def test_budget_runs_out_inside_an_inlined_clause_body():
    assert not _machine([q("polygon(o2)")], BG)
    exhausted = r"budget of 2 exhausted in example 15 on query polygon\(o2\)"
    with pytest.raises(BudgetExceededError, match=exhausted):
        succeeds(q("polygon(o2)"), SCENE, BG, budget=2)
    assert succeeds(q("polygon(o2)"), SCENE, BG, budget=3)


def test_long_queries_compile_and_agree_with_the_interpreted_walk():
    chain = mk_interp("12", "pos", "s(n0)", *(f"p(n{i},n{i + 1})" for i in range(60)), "p(n60,n0)")
    hops = [f"p(X{i},X{i + 1})" for i in range(60)]
    guarded = [t for i, h in enumerate(hops[:30]) for t in (h, f"X{i} \\= X{i + 1}")]
    queries = [q(*hops), q(*hops[:59], "p(X59,n0)"), q("s(X0)", *guarded[:59]), q(*guarded)]
    assert [len(query.literals) for query in queries] == [60] * 4
    assert Pack(queries).run(chain) == 0b1111
    _assert_walks_agree(queries, chain, None, full=400)
    # 25 nested fact literals, each binding a new variable, under a trie
    # whose deepest node is 26 literals down.
    spread = mk_interp("13", "pos", *(f"e{i}(a)" for i in range(26)), "e25(b)", "f(b)")
    nested = [f"e{i}(Y{i})" for i in range(26)]
    queries = [q(*nested), q(*nested[:25], "f(Y24)"), q(*nested, "f(Y25)"), q(*nested[:12])]
    assert Pack(queries).run(spread) == 0b1101
    _assert_walks_agree(queries, spread, None, full=100)


def test_walks_keep_the_sign_of_zero():
    e = mk_interp("14", "pos", "v(1)")
    assert answer_all(q("X = 0.0"), "X", e) == [Number(0.0)]
    answer = answer_all(q("X = -0.0"), "X", e)
    assert str(answer[0].value) == "-0.0"
    with pytest.raises(QueryError, match=r"< needs numeric arguments, got X < -0.0 in example 14"):
        Pack([q("X = a", "X < -0.0")]).run(e)
