import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from oracles import term_to_literal

from foldt.learner import learn
from foldt.store import Interpretation
from foldt.terms import parse_program, parse_term


def mk_interp(ident_text, label, *fact_texts) -> Interpretation:
    facts = tuple(term_to_literal(parse_term(t)) for t in fact_texts)
    return Interpretation(parse_term(str(ident_text)), label, facts)


def learn_with(algorithm, data, background, settings, config=None):
    """``learn`` with the engine named ``algorithm`` and the other parameters
    of ``config`` (default: the settings')."""
    return learn(data, background, settings, replace(config or settings.params, algorithm=algorithm))


def mk_query_literals(*texts):
    """Parse literals given as body text of a dummy clause."""
    prog = parse_program("q :- " + ", ".join(texts) + ".")
    return prog[0].body


BONGARD_BACKGROUND = """
doubletriangle(O1,O2) :- triangle(O1), triangle(O2), O1 \\= O2.
polygon(O) :- triangle(O).
polygon(O) :- square(O).
"""

BONGARD_BIAS_TEXT = """
classes([pos,neg]).
rmode(5: triangle(+-V)).
rmode(5: square(+-V)).
rmode(5: circle(+-V)).
rmode(5: inside(+V,+-W)).
rmode(5: inside(-V,+W)).
rmode(5: points(+V,up)).
rmode(5: points(+V,down)).
"""

# Rank-multiset tests for the poker domain.  Disequality guards are
# interleaved right after the literal that binds their second operand, so
# failing card joins are pruned early and no test comes near the resolution
# budget even on long associated queries.
POKER_BIAS_TEXT = """
classes([nothing,pair,two_pairs,three_of_a_kind,full_house,four_of_a_kind]).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2)).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2, card(R,-S3), S1 \\= S3, S2 \\= S3)).
rmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2, card(R,-S3), S1 \\= S3, S2 \\= S3,
          card(R,-S4), S1 \\= S4, S2 \\= S4, S3 \\= S4)).
rmode(1: (card(-R1,-T1), card(R1,-T2), T1 \\= T2, card(-R2,-U1), R1 \\= R2,
          card(R2,-U2), U1 \\= U2)).
"""

# Twelve hand-constructed scenes separable by "some triangle inside some
# object": six positive, six negative (three with a stray triangle, three
# without any triangle).  Built so that triangle at the root and inside at
# its left child are the unique score maximizers; the acceptance suite
# re-verifies that uniqueness with an independent scoring oracle.
BONGARD12_BLOCKS = [
    ("pos", ["circle(o1)", "triangle(o2)", "points(o2,up)", "inside(o2,o1)"]),
    (
        "pos",
        [
            "circle(o3)",
            "triangle(o4)",
            "points(o4,up)",
            "triangle(o5)",
            "points(o5,down)",
            "inside(o4,o5)",
        ],
    ),
    ("pos", ["square(a1)", "triangle(a2)", "points(a2,down)", "inside(a2,a1)"]),
    ("pos", ["triangle(b1)", "points(b1,up)", "triangle(b2)", "points(b2,up)", "inside(b2,b1)"]),
    ("pos", ["circle(c1)", "circle(c2)", "triangle(c3)", "points(c3,down)", "inside(c3,c2)"]),
    ("pos", ["square(d1)", "triangle(d2)", "points(d2,up)", "inside(d2,d1)", "circle(d3)"]),
    ("neg", ["circle(e1)"]),
    ("neg", ["square(f1)", "circle(f2)"]),
    ("neg", ["triangle(g1)", "points(g1,up)"]),
    ("neg", ["triangle(h1)", "points(h1,down)", "square(h2)"]),
    ("neg", ["circle(i1)", "triangle(i2)", "points(i2,up)"]),
    ("neg", ["square(j1)"]),
]


def bongard12_kb_text() -> str:
    lines = []
    for i, (label, facts) in enumerate(BONGARD12_BLOCKS, 1):
        lines.append(f"begin(model({i})).")
        lines.extend(f"  {f}." for f in facts)
        lines.append(f"  {label}.")
        lines.append(f"end(model({i})).")
    return "\n".join(lines) + "\n"


def bongard12_interps():
    return [
        mk_interp(str(i), label, *facts)
        for i, (label, facts) in enumerate(BONGARD12_BLOCKS, 1)
    ]

PICTURE_1 = ("1", "pos", "circle(o1)", "triangle(o2)", "points(o2,up)", "inside(o2,o1)")
PICTURE_2 = (
    "2",
    "neg",
    "circle(o3)",
    "triangle(o4)",
    "points(o4,up)",
    "triangle(o5)",
    "points(o5,down)",
    "inside(o4,o5)",
)
