import pytest
from conftest import PICTURE_1, PICTURE_2, mk_interp, mk_query_literals
from oracles import check_scope

from foldt.engine import Query, succeeds
from foldt.errors import BudgetExceededError, ModelFormatError
from foldt.model import (
    INode,
    Leaf,
    Model,
    classify,
    count_nodes,
    deserialize,
    eval_decision_list,
    render_decision_list,
    serialize,
    to_decision_list,
    tree_depth,
)
from foldt.settings import render_settings, parse_settings
BIAS_TEXT = render_settings(parse_settings("classes([pos,neg])."))


def lits(*texts):
    return mk_query_literals(*texts)


def bongard_tree() -> Model:
    """Root tests triangle(X); its left child tests inside(X,Y)."""
    tri = lits("triangle(X)")
    ins = lits("inside(X,Y)")
    tree = INode(
        tri,
        INode(
            ins,
            Leaf("pos", (6, 0)),
            Leaf("neg", (0, 3)),
        ),
        Leaf("neg", (0, 3)),
    )
    return Model(tree, ("pos", "neg"), BIAS_TEXT, {"algorithm": "classic"})


def test_classify_picture1_pos():
    assert classify(bongard_tree(), mk_interp(*PICTURE_1)) == "pos"


def test_classify_right_branch_neg():
    assert classify(bongard_tree(), mk_interp("7", "neg", "circle(c1)")) == "neg"


def test_classify_left_then_right_neg():
    assert classify(bongard_tree(), mk_interp("8", "neg", "triangle(t1)")) == "neg"


def test_decision_list_three_clauses():
    rules = to_decision_list(bongard_tree())
    assert [(r.label, len(r.guard), r.cut) for r in rules] == [
        ("pos", 2, True),
        ("neg", 1, True),
        ("neg", 0, False),
    ]
    text = render_decision_list(rules)
    assert text == (
        "class(pos) :- triangle(X), inside(X,Y), !.\n"
        "class(neg) :- triangle(X), !.\n"
        "class(neg).\n"
    )


def test_single_leaf_decision_list():
    m = Model(Leaf("pos", (4, 0)), ("pos", "neg"), BIAS_TEXT, {})
    rules = to_decision_list(m)
    assert rules == [type(rules[0])("pos", (), False)]
    assert render_decision_list(rules) == "class(pos).\n"
    assert classify(m, mk_interp("1", "neg", "circle(c1)")) == "pos"


def test_classify_budget_bounds_one_coverage_test():
    """The left child's test has fresh variables, so classification proves
    it alone: under a budget that the full re-proof of ``Q`` plus the test
    exhausts (it backtracks through each of the pairs ``Q`` finds), a two
    pairs hand still goes left, then right."""
    pair = lits("card(A,B)", "card(A,C)", "B \\= C")
    trips = lits("card(D,E)", "card(D,F)", "E \\= F", "card(D,G)", "E \\= G", "F \\= G")
    classes = ("nothing", "pair", "three_of_a_kind")
    tree = INode(
        pair,
        INode(trips, Leaf("three_of_a_kind", (0, 0, 1)), Leaf("pair", (0, 1, 0))),
        Leaf("nothing", (1, 0, 0)),
    )
    bias = render_settings(parse_settings("classes([nothing,pair,three_of_a_kind])."))
    model = Model(tree, classes, bias, {})
    hand = mk_interp(
        "1", "two_pairs",
        "card(7,spades)", "card(7,hearts)", "card(queen,clubs)", "card(queen,diamonds)",
        "card(2,hearts)",
    )
    with pytest.raises(BudgetExceededError):
        succeeds(Query(pair + trips), hand, budget=100)
    assert classify(model, hand, budget=100) == classify(model, hand) == "pair"


def test_classify_equals_decision_list():
    m = bongard_tree()
    rules = to_decision_list(m)
    for e in (
        mk_interp(*PICTURE_1),
        mk_interp(*PICTURE_2),
        mk_interp("7", "neg", "circle(c1)"),
        mk_interp("8", "neg", "triangle(t1)", "points(t1,up)"),
    ):
        assert classify(m, e) == eval_decision_list(rules, e)


def test_check_scope():
    assert check_scope(bongard_tree())
    # right child referencing the variable its parent introduced
    bad = Model(
        INode(
            lits("triangle(X)"),
            Leaf("pos", (1, 0)),
            INode(lits("inside(X,Y)"), Leaf("pos", (1, 0)), Leaf("neg", (0, 1))),
        ),
        ("pos", "neg"),
        BIAS_TEXT,
        {},
    )
    assert not check_scope(bad)


def test_depth_and_counts():
    m = bongard_tree()
    assert tree_depth(m.tree) == 3
    assert count_nodes(m.tree) == (2, 3)
    assert tree_depth(Leaf("pos", (1, 0))) == 1


def test_serialize_roundtrip():
    m = bongard_tree()
    text = serialize(m)
    m2 = deserialize(text)
    assert m2 == m
    assert serialize(m2) == text


def test_serialized_contains_program_clauses():
    text = serialize(bongard_tree())
    assert "class(pos) :- triangle(X), inside(X,Y), !." in text
    assert "class(neg) :- triangle(X), !." in text
    assert "class(neg)." in text
    assert text.startswith("foldt-model v1\n")


def test_truncated_file_rejected():
    text = serialize(bongard_tree())
    for cut_at in (len(text) // 3, len(text) // 2, len(text) - 20):
        with pytest.raises(ModelFormatError):
            deserialize(text[:cut_at])


def test_version_mismatch_rejected():
    text = serialize(bongard_tree()).replace("foldt-model v1", "foldt-model v9", 1)
    with pytest.raises(ModelFormatError, match="version"):
        deserialize(text)
    with pytest.raises(ModelFormatError, match="not a model file"):
        deserialize("hello\nworld\n")


@pytest.mark.parametrize(
    "old,new", [("section meta 1", "section meta x"), ("leaf 2 ", "leaf zero ")]
)
def test_non_integer_count_rejected(old, new):
    text = serialize(bongard_tree())
    assert old in text
    with pytest.raises(ModelFormatError, match=new):
        deserialize(text.replace(old, new, 1))


def test_tampered_dlist_rejected():
    text = serialize(bongard_tree()).replace("class(neg) :- triangle(X), !.", "class(pos) :- triangle(X), !.")
    with pytest.raises(ModelFormatError, match="decision-list"):
        deserialize(text)
