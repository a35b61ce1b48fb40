from dataclasses import replace

import pytest

from foldt.errors import ParseError
from foldt.settings import LearnerConfig, parse_settings, render_settings
from foldt.terms import Atom, Literal, Variable

BONGARD_BIAS = """
classes([pos,neg]).
rmode(5: triangle(+-V)).
rmode(5: square(+-V)).
rmode(5: circle(+-V)).
rmode(5: inside(+V,+-W)).
rmode(5: inside(-V,+W)).
rmode(5: points(+V,up)).
rmode(5: points(+V,down)).
"""


def test_parse_classes():
    s = parse_settings("classes([pos,neg]).")
    assert s.classes == ("pos", "neg")


def test_parse_rmode_modes():
    s = parse_settings("classes([pos,neg]).\nrmode(5: inside(+V,+-W)).")
    (rm,) = s.rmodes
    assert rm.count == 5
    assert rm.template == (Literal("inside", (Variable("V"), Variable("W"))),)
    assert rm.modes == {"V": "+", "W": "+-"}


def test_parse_lookahead_shared_variable():
    s = parse_settings("classes([pos,neg]).\nlookahead(triangle(T), points(T,up)).")
    (la,) = s.lookaheads
    assert la.trigger == (Literal("triangle", (Variable("T"),)),)
    assert la.extension == (Literal("points", (Variable("T"), Atom("up"))),)


def test_parse_multiliteral_template():
    s = parse_settings(
        "classes([a,b]).\nrmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2))."
    )
    (rm,) = s.rmodes
    assert len(rm.template) == 3
    assert rm.template[2].builtin
    assert rm.modes == {"R": "-", "S1": "-", "S2": "-"}


def test_parse_typed_and_discretize():
    s = parse_settings(
        "classes([a,b]).\ntyped(card(rank,suit)).\n"
        "discretize(atom(_,_,_,C), C).\n"
        "rmode(3: (atom(-A,-E,-T,-C), C =< threshold(1)))."
    )
    assert s.types[("card", 2)] == ("rank", "suit")
    (dr,) = s.discretize
    assert dr.var == "C"
    assert len(dr.query) == 1


def test_parameters_and_defaults():
    s = parse_settings(
        "classes([a,b]). minleaf(4). heuristic(gain). algorithm(classic). granularity(25)."
    )
    assert s.params.minleaf == 4
    assert s.params.heuristic == "gain"
    assert s.params.algorithm == "classic"
    assert s.params.granularity == 25
    # untouched defaults
    assert s.params.gain_epsilon == 1e-9
    assert s.params.resolution_budget == 100_000
    assert s.params.max_depth is None
    d = parse_settings("classes([a,b]).")
    assert d.params.minleaf == 2
    assert d.params.heuristic == "gainratio"
    assert d.params.granularity == 10


@pytest.mark.parametrize(
    "text,msg",
    [
        ("classes([]).", "class list empty"),
        ("classes([a,a]).", "duplicate class"),
        ("classes([a,b]). rmode(0: f(+X)).", "positive integer"),
        ("classes([a,b]). frobnicate(3).", "unknown directive"),
        ("classes([a,b]). rmode(1: f(X)).", "mode marker"),
        ("classes([a,b]). rmode(1: (f(+X), +X > 3)).", "already carries"),
        ("classes([a,b]). rmode(1: (f(-X), X \\= -Y)).", "unbound"),
        ("classes([a,b]). rmode(1: (f(-X), X =< threshold(2))).", "discretize"),
        ("classes([a,b]). heuristic(zorp).", "unknown heuristic"),
        ("classes([a,b]).\nminleaf(0).", "minleaf must be at least 1 at line 2, column 9"),
        ("classes([a,b]). gain_epsilon(a).", "gain_epsilon/1 expects a number"),
        ("classes([a,b]). lookahead(p(+X), q(X)).", "mode markers are not allowed"),
        ("classes([a,b]). discretize(val(-X,C), C).", "mode markers are not allowed"),
        ("rmode(1: f(-X)).", "classes"),
    ],
)
def test_settings_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_settings(text)


@pytest.mark.parametrize(
    "name,value,msg",
    [
        ("minleaf", 0, "minleaf must be at least 1"),
        ("heuristic", "zorp", "unknown heuristic 'zorp'"),
        ("algorithm", "fast", "unknown algorithm 'fast'"),
        ("gain_epsilon", 0.0, "gain_epsilon must be positive"),
        ("max_thresholds", -1, "max_thresholds must be nonnegative"),
    ],
)
def test_learner_config_checks_itself_like_the_directive(name, value, msg):
    with pytest.raises(ParseError, match=f"^{msg}$"):
        LearnerConfig(**{name: value})
    with pytest.raises(ParseError, match=f"^{msg}$"):
        replace(LearnerConfig(), **{name: value})


def test_gain_epsilon_accepts_scientific_notation():
    s = parse_settings("classes([a,b]). gain_epsilon(1e-12).")
    assert s.params.gain_epsilon == 1e-12


def test_weighted_entropy_hyphen_alias():
    s = parse_settings("classes([a,b]). heuristic(weighted-entropy).")
    assert s.params.heuristic == "weighted_entropy"


def test_render_settings_roundtrip():
    s = parse_settings(
        BONGARD_BIAS
        + "lookahead(triangle(T), points(T,up)).\n"
        + "typed(inside(obj,obj)).\nminleaf(3). max_depth(7).\n"
    )
    text = render_settings(s)
    s2 = parse_settings(text)
    assert s2.classes == s.classes
    assert s2.rmodes == s.rmodes
    assert s2.lookaheads == s.lookaheads
    assert s2.types == s.types
    assert s2.params == s.params
    assert render_settings(s2) == text


def test_marked_anonymous_variables_are_fresh():
    s = parse_settings("classes([a,b]). rmode(1: (f(+_), g(+_))). rmode(1: h(-_,+-_,_)).")
    assert [rm.template for rm in s.rmodes] == [
        (Literal("f", (Variable("_1"),)), Literal("g", (Variable("_2"),))),
        (Literal("h", (Variable("_3"), Variable("_4"), Variable("_5"))),),
    ]
    assert [rm.modes for rm in s.rmodes] == [
        {"_1": "+", "_2": "+"},
        {"_3": "-", "_4": "+-", "_5": "-"},
    ]
    assert parse_settings(render_settings(s)) == s


EVERY_TEMPLATE_FEATURE = r"""
classes([pos,neg]).
rmode(3: inside(+V,+-W)).
rmode(2: (val(-O,_), obj(O))).
rmode(1: (val(+-O,-C), C > threshold(1))).
rmode(1: (w(+O,-W), W =< threshold(2), W \= 0)).
lookahead(inside(X,Y), (val(Y,_), w(Y,Z))).
discretize(val(_,C), C).
discretize((obj(O), w(O,W)), W).
typed(inside(obj,obj)).
minleaf(3). max_depth(4).
"""


def test_render_settings_text_is_pinned():
    # Markers on first occurrences only, bare _ numbered across the whole
    # file, builtins infix, multi-literal conjunctions parenthesized.
    text = render_settings(parse_settings(EVERY_TEMPLATE_FEATURE))
    assert text == (
        "classes([pos,neg]).\n"
        "typed(inside(obj,obj)).\n"
        "rmode(3: inside(+V,+-W)).\n"
        "rmode(2: (val(-O,-_1), obj(O))).\n"
        "rmode(1: (val(+-O,-C), C > threshold(1))).\n"
        "rmode(1: (w(+O,-W), W =< threshold(2), W \\= 0)).\n"
        "lookahead(inside(X,Y), (val(Y,_2), w(Y,Z))).\n"
        "discretize(val(_3,C), C).\n"
        "discretize((obj(O), w(O,W)), W).\n"
        "minleaf(3).\n"
        "heuristic(gainratio).\n"
        "algorithm(lds).\n"
        "granularity(10).\n"
        "gain_epsilon(1e-09).\n"
        "resolution_budget(100000).\n"
        "max_depth(4).\n"
        "max_thresholds(8).\n"
    )
    assert render_settings(parse_settings(text)) == text
