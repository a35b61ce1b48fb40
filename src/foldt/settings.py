"""Settings files: class declarations, refinement-operator bias, and learner
parameters.

A settings file is a sequence of directives:

    classes([pos,neg]).
    typed(card(rank,suit)).
    rmode(5: inside(+V,+-W)).
    rmode(1: (card(-R,-S1), card(R,-S2), S1 \\= S2)).
    lookahead(triangle(T), points(T,up)).
    discretize(atom(_,_,_,C), C).
    minleaf(2).  heuristic(gainratio).  algorithm(lds).  granularity(10).

Mode markers (``+`` input, ``-`` output, ``+-`` either) annotate a template
variable at its first occurrence only; later occurrences are written bare.
Multi-literal conjunction arguments must be parenthesized.  The reserved
template term ``threshold(K)`` expands, at refinement time, to one candidate
per cut point of the K-th ``discretize`` declaration (1-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .engine import DEFAULT_BUDGET
from .errors import ParseError
from .terms import (
    Atom,
    Compound,
    Literal,
    Number,
    Variable,
    lex_clauses,
    lexeme_kind,
    lexeme_value,
    literal_variables,
    map_literals,
    render_atom,
    render_conjunction,
)

HEURISTICS = ("gainratio", "gain", "weighted_entropy")
ALGORITHMS = ("classic", "lds")

THRESHOLD_FUNCTOR = "threshold"


@dataclass
class RMode:
    """One refinement template with its per-path occurrence cap."""

    count: int
    template: tuple[Literal, ...]
    modes: dict[str, str]  # formal variable -> '+', '-' or '+-'


@dataclass
class Lookahead:
    trigger: tuple[Literal, ...]
    extension: tuple[Literal, ...]


@dataclass
class DiscretizeRequest:
    query: tuple[Literal, ...]
    var: str


@dataclass(frozen=True)
class LearnerConfig:
    """Learner parameters.  Each field is one parameter directive of a
    settings file, read by its type (``int``, ``float`` as any number, ``str``
    as an atom); the value must pass the directive's rule, checked on
    construction."""

    minleaf: int = 2
    heuristic: str = "gainratio"
    algorithm: str = "lds"
    granularity: int = 10
    gain_epsilon: float = 1e-9
    resolution_budget: int = DEFAULT_BUDGET
    max_depth: int | None = None
    max_thresholds: int = 8

    def __post_init__(self):
        object.__setattr__(self, "heuristic", self.heuristic.replace("-", "_"))
        if self.heuristic not in HEURISTICS:
            raise ParseError(f"unknown heuristic {self.heuristic!r}")
        if self.algorithm not in ALGORITHMS:
            raise ParseError(f"unknown algorithm {self.algorithm!r}")
        if self.gain_epsilon <= 0:
            raise ParseError("gain_epsilon must be positive")
        for name in ("minleaf", "granularity", "resolution_budget"):
            if getattr(self, name) < 1:
                raise ParseError(f"{name} must be at least 1")
        for name in ("max_depth", "max_thresholds"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ParseError(f"{name} must be nonnegative")

    @classmethod
    def from_settings(cls, settings: Settings, **overrides) -> LearnerConfig:
        """A copy of the settings' parameters with each override that is not
        None applied."""
        return replace(settings.params, **{k: v for k, v in overrides.items() if v is not None})


_PARAMS = {f.name: f for f in fields(LearnerConfig)}


@dataclass
class Settings:
    classes: tuple[str, ...]
    rmodes: tuple[RMode, ...] = ()
    lookaheads: tuple[Lookahead, ...] = ()
    types: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)
    discretize: tuple[DiscretizeRequest, ...] = ()
    params: LearnerConfig = field(default_factory=LearnerConfig)

    def class_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.classes)}


class _SettingsParser:
    """Reads each directive ``name(args).`` from the file's lexemes by
    index.  One ``TermParser`` serves the whole file, so bare ``_``
    variables are numbered through it."""

    def __init__(self, text: str):
        self.p, self.starts = lex_clauses(text)
        self.start = 0  # the index of the directive being read
        self.classes: list[str] | None = None
        self.rmodes: list[RMode] = []
        self.lookaheads: list[Lookahead] = []
        self.types: dict[tuple[str, int], tuple[str, ...]] = {}
        self.discretize: list[DiscretizeRequest] = []
        self.params = LearnerConfig()

    def run(self) -> Settings:
        p = self.p
        toks = p.toks
        for s in self.starts:
            self.start = s
            if lexeme_kind(toks[s]) != "atom":
                raise p.error("expected a directive", s)
            name = lexeme_value(toks[s])
            i = p.expect(toks, s + 1, "(")
            if name in _DIRECTIVES:
                i = getattr(self, f"_d_{name}")(toks, i)
            elif name in _PARAMS:
                i = self._d_param(_PARAMS[name], toks, i)
            else:
                raise p.error(f"unknown directive {name!r}", s)
            p.end(toks, p.expect(toks, i, ")"))
        return self._finish()

    # -- individual directives ------------------------------------------
    # Each reads its arguments from ``toks[i]`` on and returns the index
    # after them; ``toks[self.start]`` is the directive's name.

    def _d_classes(self, toks, i):
        i = self.p.expect(toks, i, "[")
        if toks[i] == "]":
            raise self.p.error("class list empty", self.start)
        labels: list[str] = []
        while True:
            if lexeme_kind(toks[i]) != "atom":
                raise self.p.error("class labels must be atoms", i)
            label = lexeme_value(toks[i])
            if label in labels:
                raise self.p.error(f"duplicate class label {label!r}", i)
            labels.append(label)
            if toks[i + 1] != ",":
                break
            i += 2
        i = self.p.expect(toks, i + 1, "]")
        if self.classes is not None:
            raise self.p.error("classes declared twice", self.start)
        self.classes = labels
        return i

    def _d_rmode(self, toks, i):
        if lexeme_kind(toks[i]) != "int" or (count := lexeme_value(toks[i])) < 1:
            raise self.p.error("rmode count must be a positive integer", i)
        modes: dict[str, str] = {}
        template, i = self._conjunction(toks, self.p.expect(toks, i + 1, ":"), modes)
        self._check_builtin_safety(template, {v for v, m in modes.items() if m == "+"})
        self.rmodes.append(RMode(count, template, modes))
        return i

    def _d_lookahead(self, toks, i):
        trigger, i = self._conjunction(toks, i)
        extension, i = self._conjunction(toks, self.p.expect(toks, i, ","))
        self._check_builtin_safety(extension, set(literal_variables(trigger)))
        self.lookaheads.append(Lookahead(trigger, extension))
        return i

    def _d_typed(self, toks, i):
        t, i = self.p.term(toks, i)
        if not isinstance(t, Compound) or not all(isinstance(a, Atom) for a in t.args):
            raise self.p.error("typed/1 expects pred(type1,...,typeN)", self.start)
        key = (t.functor, len(t.args))
        if key in self.types:
            raise self.p.error(f"duplicate type declaration for {t.functor}/{len(t.args)}", self.start)
        self.types[key] = tuple(a.name for a in t.args)
        return i

    def _d_discretize(self, toks, i):
        query, i = self._conjunction(toks, i)
        i = self.p.expect(toks, i, ",")
        v = toks[i]
        if lexeme_kind(v) != "var":
            raise self.p.error("discretize/2 expects a variable as second argument", i)
        if v not in literal_variables(query):
            raise self.p.error(f"variable {v} does not occur in the discretize query", i)
        self.discretize.append(DiscretizeRequest(query, v))
        return i + 1

    def _d_param(self, f, toks, i):
        kind, found = f.type.removesuffix(" | None"), lexeme_kind(toks[i])
        if (kind, found) in (("int", "int"), ("str", "atom")):
            value = lexeme_value(toks[i])
        elif kind == "float" and found in ("int", "float"):
            value = float(lexeme_value(toks[i]))
        else:
            raise self.p.error(f"{f.name}/1 expects {_KIND_NAMES[kind]}", i)
        try:
            self.params = replace(self.params, **{f.name: value})
        except ParseError as e:
            raise self.p.error(e.message, i) from None
        return i + 1

    # -- template machinery ----------------------------------------------

    def _conjunction(self, toks, i, modes: dict[str, str] | None = None):
        """One literal, or a parenthesized comma-list of literals, with the
        index after it; variables take mode markers, recorded in ``modes``,
        only when it is given."""
        self.p.modes = modes
        if toks[i] == "(":
            lits, sep = [], "("
            while toks[i] == sep:
                lit, i = self.p.literal(toks, i + 1)
                lits.append(lit)
                sep = ","
            i = self.p.expect(toks, i, ")")
        else:
            lit, i = self.p.literal(toks, i)
            lits = [lit]
        self.p.modes = None
        return tuple(lits), i

    def _check_builtin_safety(self, literals, input_vars: set[str]):
        """Builtins must only see variables bound by earlier non-builtin
        literals or by the query (input mode)."""
        bound = set(input_vars)
        for lit in literals:
            if lit.builtin:
                for v in literal_variables([lit]):
                    if v not in bound:
                        raise self.p.error(f"builtin {lit.pred!r} would see unbound variable {v}", self.start)
            else:
                bound.update(literal_variables([lit]))

    # -- finalization ------------------------------------------------------

    def _finish(self) -> Settings:
        if not self.classes:
            raise ParseError("settings must declare classes([...])")
        st = Settings(
            classes=tuple(self.classes),
            rmodes=tuple(self.rmodes),
            lookaheads=tuple(self.lookaheads),
            types=self.types,
            discretize=tuple(self.discretize),
            params=self.params,
        )
        for rm in st.rmodes:
            for k in threshold_indices(rm.template):
                if not 1 <= k <= len(st.discretize):
                    raise ParseError(
                        f"threshold({k}) does not match any discretize declaration"
                    )
        return st


_DIRECTIVES = frozenset({"classes", "rmode", "lookahead", "typed", "discretize"})

_KIND_NAMES = {"int": "an integer", "float": "a number", "str": "an atom"}


def is_threshold(t) -> bool:
    """Whether ``t`` is a ``threshold(K)`` placeholder."""
    return isinstance(t, Compound) and t.functor == THRESHOLD_FUNCTOR and len(t.args) == 1


def threshold_indices(literals) -> list[int]:
    """The K of each ``threshold(K)`` placeholder, in walk order."""
    found: list[int] = []

    def visit(t):
        if not is_threshold(t):
            return None
        arg = t.args[0]
        if not (isinstance(arg, Number) and isinstance(arg.value, int)):
            raise ParseError("threshold placeholder expects an integer index")
        found.append(arg.value)
        return t

    map_literals(literals, visit)
    return found


def parse_settings(text: str) -> Settings:
    return _SettingsParser(text).run()


# ---------------------------------------------------------------------------
# Canonical rendering (used for the bias snapshot embedded in model files)


def _render_conj(literals, modes: dict[str, str] | None = None) -> str:
    """A template conjunction, each moded variable marked at its first
    occurrence; parenthesized when it has several literals."""
    marked: set[str] = set()

    def mark(t):
        if isinstance(t, Variable) and modes and t.name in modes and t.name not in marked:
            marked.add(t.name)
            return Variable(modes[t.name] + t.name)
        return None

    text = render_conjunction(map_literals(literals, mark))
    return f"({text})" if len(literals) > 1 else text


def render_settings(s: Settings) -> str:
    lines = ["classes([" + ",".join(render_atom(c) for c in s.classes) + "])."]
    for (pred, _arity), types in s.types.items():
        lines.append(f"typed({render_atom(pred)}({','.join(render_atom(t) for t in types)})).")
    for rm in s.rmodes:
        lines.append(f"rmode({rm.count}: {_render_conj(rm.template, rm.modes)}).")
    for la in s.lookaheads:
        lines.append(f"lookahead({_render_conj(la.trigger)}, {_render_conj(la.extension)}).")
    for dr in s.discretize:
        lines.append(f"discretize({_render_conj(dr.query)}, {dr.var}).")
    for f in fields(s.params):
        value = getattr(s.params, f.name)
        if value is not None:
            text = render_atom(value) if isinstance(value, str) else repr(value)
            lines.append(f"{f.name}({text}).")
    return "\n".join(lines) + "\n"
