from collections import Counter

from conftest import mk_query_literals
from hypothesis import given, strategies as st
from oracles import best_single_cut, pair_fayyad_irani_cuts, root_context, static_bias, theta_subsumes

from foldt.bias import (
    Bias,
    Candidate,
    RefinementContext,
    fayyad_irani_cuts,
    fresh_name,
    refinements,
)
from foldt.engine import Query
from foldt.settings import parse_settings
from foldt.terms import render_conjunction

BONGARD_BIAS = parse_settings(
    """
classes([pos,neg]).
rmode(5: triangle(+-V)).
rmode(5: square(+-V)).
rmode(5: circle(+-V)).
rmode(5: inside(+V,+-W)).
rmode(5: inside(-V,+W)).
rmode(5: points(+V,up)).
rmode(5: points(+V,down)).
"""
)


def added_strings(cands: list[Candidate]) -> list[str]:
    return [render_conjunction(c.added) for c in cands]


def ctx_for(*lit_texts, settings=BONGARD_BIAS, usage=None):
    lits = mk_query_literals(*lit_texts) if lit_texts else ()
    q = Query(tuple(lits))
    return RefinementContext(
        q, usage or (0,) * len(settings.rmodes), len(q.variables())
    )


def test_root_candidates_are_the_three_shapes():
    cands = refinements(root_context(BONGARD_BIAS), static_bias(BONGARD_BIAS))
    assert added_strings(cands) == ["triangle(A)", "square(A)", "circle(A)"]


def test_triangle_child_has_the_ten_tests():
    cands = refinements(ctx_for("triangle(X)"), static_bias(BONGARD_BIAS))
    assert added_strings(cands) == [
        "triangle(X)",
        "triangle(B)",
        "square(X)",
        "square(B)",
        "circle(X)",
        "circle(B)",
        "inside(X,B)",
        "inside(B,X)",
        "points(X,up)",
        "points(X,down)",
    ]
    assert len(cands) == 10


def test_exhausted_rmode_contributes_nothing():
    usage = (5, 0, 0, 0, 0, 0, 0)  # triangle/1 used up
    cands = refinements(ctx_for("triangle(X)", usage=usage), static_bias(BONGARD_BIAS))
    strings = added_strings(cands)
    assert "triangle(X)" not in strings and "triangle(B)" not in strings
    assert len(cands) == 8


def test_rho_soundness_every_candidate_subsumed():
    bias = static_bias(BONGARD_BIAS)
    for ctx in (root_context(BONGARD_BIAS), ctx_for("triangle(X)"), ctx_for("triangle(X)", "inside(X,Y)")):
        for cand in refinements(ctx, bias):
            assert theta_subsumes(ctx.query, cand.query)


def test_determinism():
    bias = static_bias(BONGARD_BIAS)
    ctx = ctx_for("triangle(X)")
    a = added_strings(refinements(ctx, bias))
    b = added_strings(refinements(ctx, bias))
    assert a == b


def test_fresh_variable_hygiene():
    bias = static_bias(BONGARD_BIAS)
    ctx = ctx_for("triangle(X)", "inside(X,Y)")
    qvars = set(ctx.query.variables())
    for cand in refinements(ctx, bias):
        new = [v for v in cand.query.variables() if v not in qvars]
        assert all(v == fresh_name(ctx.name_base + i) for i, v in enumerate(new))


def test_lookahead_extension_appended():
    settings = parse_settings(
        """
classes([pos,neg]).
rmode(5: triangle(-V)).
lookahead(triangle(T), points(T,up)).
"""
    )
    cands = refinements(root_context(settings), static_bias(settings))
    assert added_strings(cands) == ["triangle(A)", "triangle(A), points(A,up)"]
    # both candidates charge the same rmode
    assert [c.rmode_index for c in cands] == [0, 0]


def test_lookahead_no_trigger_no_extension():
    settings = parse_settings(
        """
classes([pos,neg]).
rmode(5: circle(-V)).
lookahead(triangle(T), points(T,up)).
"""
    )
    cands = refinements(root_context(settings), static_bias(settings))
    assert added_strings(cands) == ["circle(A)"]


def test_two_lookaheads_same_trigger_declaration_order():
    settings = parse_settings(
        """
classes([pos,neg]).
rmode(5: triangle(-V)).
lookahead(triangle(T), points(T,up)).
lookahead(triangle(T), points(T,down)).
"""
    )
    cands = refinements(root_context(settings), static_bias(settings))
    assert added_strings(cands) == [
        "triangle(A)",
        "triangle(A), points(A,up)",
        "triangle(A), points(A,down)",
    ]


def test_typed_arguments_restrict_inputs():
    settings = parse_settings(
        """
classes([pos,neg]).
typed(card(rank,suit)).
typed(bonus(rank)).
rmode(1: card(-R,-S)).
rmode(1: bonus(+X)).
"""
    )
    bias = static_bias(settings)
    ctx = ctx_for("card(R,S)", settings=settings)
    strings = added_strings(refinements(ctx, bias))
    # bonus/1 wants a rank: only R qualifies, S is a suit
    assert "bonus(R)" in strings
    assert "bonus(S)" not in strings


def test_duplicate_candidates_removed_up_to_renaming():
    settings = parse_settings(
        """
classes([pos,neg]).
rmode(5: triangle(-V)).
rmode(5: triangle(+-V)).
"""
    )
    cands = refinements(root_context(settings), static_bias(settings))
    # both rmodes generate triangle(<fresh>) at the root; one survives
    assert added_strings(cands) == ["triangle(A)"]


def test_threshold_placeholder_expansion():
    settings = parse_settings(
        """
classes([pos,neg]).
discretize(val(_,C), C).
rmode(3: (val(-O,-C), C =< threshold(1))).
"""
    )
    bias = static_bias(settings)
    bias.cuts[1] = (2.5, 7.25)
    cands = refinements(root_context(settings), bias)
    assert added_strings(cands) == [
        "val(A,B), B =< 2.5",
        "val(A,B), B =< 7.25",
    ]
    bias.cuts[1] = ()
    assert refinements(root_context(settings), bias) == []


# ---------------------------------------------------------------------------
# Discretization


def _cuts(values, max_cuts):
    """``fayyad_irani_cuts`` over the per-value label counts of ``(value,
    label)`` pairs."""
    counts = {}
    for v, lbl in values:
        counts.setdefault(v, Counter())[lbl] += 1
    return fayyad_irani_cuts(counts, max_cuts)


def test_single_cut_between_class_bands():
    values = [(1, "a"), (2, "a"), (3, "a"), (8, "b"), (9, "b"), (10, "b")]
    # independent exhaustive-midpoint oracle confirms the optimum first
    cut, _ = best_single_cut(values)
    assert cut == 5.5
    assert _cuts(values, 8) == [5.5]


def test_pure_values_no_cuts():
    values = [(1, "a"), (2, "a"), (5, "a"), (9, "a")]
    assert _cuts(values, 8) == []


def test_zero_cap_empty():
    values = [(1, "a"), (9, "b")]
    assert _cuts(values, 0) == []


def test_cuts_strictly_inside_range_and_increasing():
    values = [(i, "a" if i % 4 else "b") for i in range(1, 30)]
    cuts = _cuts(values, 8)
    vs = [v for v, _ in values]
    assert all(min(vs) < c < max(vs) for c in cuts)
    assert cuts == sorted(cuts)
    assert len(cuts) <= 8


def test_cap_keeps_highest_gain_cut():
    values = [(1, "a"), (2, "a"), (3, "b"), (4, "b"), (10, "c"), (11, "c"), (12, "c"), (13, "c")]
    all_cuts = _cuts(values, 8)
    capped = _cuts(values, 1)
    assert len(capped) == 1
    assert capped[0] in all_cuts


# Labels follow the value's band of five, with some flipped, so that cuts
# are often accepted and sometimes capped.
_BANDED = st.tuples(st.integers(0, 14), st.integers(0, 4)).map(
    lambda t: (t[0] / 2, "abc"[(t[0] // 5 + (t[1] == 0)) % 3])
)


@given(values=st.lists(_BANDED, max_size=80), max_cuts=st.integers(0, 4))
def test_counted_cuts_equal_the_pair_list_reference(values, max_cuts):
    assert _cuts(values, max_cuts) == pair_fayyad_irani_cuts(values, max_cuts)


def test_canonical_keys_kept_by_a_bias_change_no_candidate():
    """A bias keeps each candidate's canonical key by its rmode, the query
    variables its formals take and its cuts; a bias that has served other
    contexts gives the candidates a fresh one gives.  The last context's
    fresh names (from A on) collide with its query's variables."""
    bands = parse_settings(
        "classes([a,b]).\ndiscretize(val(_,C), C).\n"
        "rmode(2: (val(+-O,-C), C =< threshold(1))).\nrmode(2: near(+O,-P)).\n"
    )
    cases = [
        (BONGARD_BIAS, lambda: static_bias(BONGARD_BIAS), [
            root_context(BONGARD_BIAS),
            ctx_for("triangle(X)"),
            ctx_for("triangle(X)", "inside(X,Y)"),
            ctx_for("square(B)", "inside(B,A)"),
            RefinementContext(Query(tuple(mk_query_literals("triangle(B)", "inside(B,A)"))), (0,) * 7, 0),
        ]),
        (bands, lambda: Bias(bands, {1: (1.5, 2.5)}), [
            root_context(bands),
            ctx_for("val(X,C)", settings=bands),
            RefinementContext(Query(tuple(mk_query_literals("val(A,B)"))), (0, 0), 0),
        ]),
    ]
    for settings, make, contexts in cases:
        warm = make()
        for ctx in contexts + contexts[::-1]:
            assert refinements(ctx, warm) == refinements(ctx, make())
