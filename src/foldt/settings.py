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
    TermParser,
    Variable,
    literal_variables,
    map_literals,
    render_atom,
    render_conjunction,
    tokenize,
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
    def __init__(self, text: str):
        self.s = TermParser(tokenize(text))
        self.classes: list[str] | None = None
        self.rmodes: list[RMode] = []
        self.lookaheads: list[Lookahead] = []
        self.types: dict[tuple[str, int], tuple[str, ...]] = {}
        self.discretize: list[DiscretizeRequest] = []
        self.params = LearnerConfig()

    def run(self) -> Settings:
        while not self.s.at("eof"):
            tok = self.s.peek()
            if tok.kind != "atom":
                raise ParseError("expected a directive", tok.line, tok.col)
            self.s.next()
            self.s.expect("punct", "(")
            if tok.value in _DIRECTIVES:
                getattr(self, f"_d_{tok.value}")(tok)
            elif tok.value in _PARAMS:
                self._d_param(_PARAMS[tok.value])
            else:
                raise ParseError(f"unknown directive {tok.value!r}", tok.line, tok.col)
            self.s.expect("punct", ")")
            self.s.expect("end")
        return self._finish()

    # -- individual directives ------------------------------------------

    def _d_classes(self, tok):
        self.s.expect("punct", "[")
        labels: list[str] = []
        if self.s.at("punct", "]"):
            raise ParseError("class list empty", tok.line, tok.col)
        while True:
            t = self.s.peek()
            if t.kind != "atom":
                raise ParseError("class labels must be atoms", t.line, t.col)
            self.s.next()
            if t.value in labels:
                raise ParseError(f"duplicate class label {t.value!r}", t.line, t.col)
            labels.append(t.value)
            if self.s.at("punct", ","):
                self.s.next()
                continue
            break
        self.s.expect("punct", "]")
        if self.classes is not None:
            raise ParseError("classes declared twice", tok.line, tok.col)
        self.classes = labels

    def _d_rmode(self, tok):
        cnt = self.s.peek()
        if cnt.kind != "int" or cnt.value < 1:
            raise ParseError("rmode count must be a positive integer", cnt.line, cnt.col)
        self.s.next()
        self.s.expect("punct", ":")
        modes: dict[str, str] = {}
        template = self._conjunction(modes)
        _check_builtin_safety(template, {v for v, m in modes.items() if m == "+"}, tok)
        self.rmodes.append(RMode(cnt.value, template, modes))

    def _d_lookahead(self, tok):
        trigger = self._conjunction()
        self.s.expect("punct", ",")
        extension = self._conjunction()
        _check_builtin_safety(extension, set(literal_variables(trigger)), tok)
        self.lookaheads.append(Lookahead(trigger, extension))

    def _d_typed(self, tok):
        t = self.s.term()
        if not isinstance(t, Compound) or not all(isinstance(a, Atom) for a in t.args):
            raise ParseError("typed/1 expects pred(type1,...,typeN)", tok.line, tok.col)
        key = (t.functor, len(t.args))
        if key in self.types:
            raise ParseError(f"duplicate type declaration for {t.functor}/{len(t.args)}", tok.line, tok.col)
        self.types[key] = tuple(a.name for a in t.args)

    def _d_discretize(self, tok):
        query = self._conjunction()
        self.s.expect("punct", ",")
        v = self.s.peek()
        if v.kind != "var":
            raise ParseError("discretize/2 expects a variable as second argument", v.line, v.col)
        self.s.next()
        if v.value not in literal_variables(query):
            raise ParseError(f"variable {v.value} does not occur in the discretize query", v.line, v.col)
        self.discretize.append(DiscretizeRequest(query, v.value))

    def _d_param(self, f):
        t = self.s.next()
        kind = f.type.removesuffix(" | None")
        if (kind, t.kind) in (("int", "int"), ("str", "atom")):
            value = t.value
        elif kind == "float" and t.kind in ("int", "float"):
            value = float(t.value)
        else:
            raise ParseError(f"{f.name}/1 expects {_KIND_NAMES[kind]}", t.line, t.col)
        try:
            self.params = replace(self.params, **{f.name: value})
        except ParseError as e:
            raise ParseError(e.message, t.line, t.col) from None

    # -- template machinery ----------------------------------------------

    def _conjunction(self, modes: dict[str, str] | None = None) -> tuple[Literal, ...]:
        """One literal, or a parenthesized comma-list of literals; variables
        take mode markers, recorded in ``modes``, only when it is given."""
        self.s.modes = modes
        if self.s.at("punct", "("):
            self.s.next()
            lits = [self.s.literal()]
            while self.s.at("punct", ","):
                self.s.next()
                lits.append(self.s.literal())
            self.s.expect("punct", ")")
        else:
            lits = [self.s.literal()]
        self.s.modes = None
        return tuple(lits)

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


def _check_builtin_safety(literals, input_vars: set[str], tok):
    """Builtins must only see variables bound by earlier non-builtin literals
    or by the query (input mode)."""
    bound = set(input_vars)
    for lit in literals:
        if lit.builtin:
            for v in literal_variables([lit]):
                if v not in bound:
                    raise ParseError(
                        f"builtin {lit.pred!r} would see unbound variable {v}",
                        tok.line,
                        tok.col,
                    )
        else:
            bound.update(literal_variables([lit]))


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
