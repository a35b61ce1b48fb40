"""Independent reference implementations and checks used only by the test
suite.

These deliberately avoid the package's own evaluation/scoring code paths:
the join evaluator is a naive nested-loop join over ground facts, the
entropy oracle recomputes scores from first principles with Fractions where
possible, and the poker labeler is a direct rank-multiset table.  The
helpers at the end check a tree's variable scope and theta-subsumption
between queries, build the root refinement context and a bias without
thresholds, and count a node's candidates by proving each full query alone.
"""

import math
from collections import Counter

from foldt.bias import Bias, RefinementContext
from foldt.engine import Query, matches, succeeds
from foldt.model import Leaf
from foldt.terms import Compound, Number, Variable, literal_variables


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
