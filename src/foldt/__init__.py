"""First-order logical decision tree learner over interpretation datasets.

The package covers the full pipeline: parsing Prolog-style data and
settings files (`terms`, `settings`), a chunked on-disk dataset store
(`store`), conjunctive query evaluation against one example plus background
knowledge (`engine`), the declared refinement operator with numeric
discretization (`bias`), tree induction with an in-memory and an out-of-core
level-wise engine (`learner`), the tree value itself with classification and
decision-list export (`model`), a relational-snapshot converter (`rdb`),
synthetic data generators (`generators`), and a scaling benchmark harness
(`bench`).  The ``foldt`` console script fronts all of it.

``__all__`` is written out by hand and names each stage's entry points,
value types and errors.  It lists no submodule (import ``foldt.engine`` and
the others by name) and no helper that only the test suite calls.
"""

from .bench import BenchReport, BenchResult, bench_run
from .bias import Bias, Candidate, RefinementContext, discretize, refinements
from .engine import Background, Query, answer_all, load_background, succeeds
from .errors import (
    BudgetExceededError,
    DataError,
    FoldtError,
    ModelFormatError,
    ParseError,
    QueryError,
)
from .generators import GenSpec, generate, replicate
from .learner import LearnerConfig, learn
from .model import (
    FOLDT,
    INode,
    Leaf,
    Model,
    classify,
    deserialize,
    eval_decision_list,
    load_model,
    save_model,
    serialize,
    to_decision_list,
    tree_depth,
)
from .rdb import Schema, convert_all, load_snapshot, parse_schema
from .settings import Settings, parse_settings, render_settings
from .store import DatasetHandle, Interpretation, load_dataset, open_dataset
from .terms import Atom, Clause, Compound, Literal, Number, Variable, parse_program, parse_term

__version__ = "0.1.0"

__all__ = [
    # terms
    "Atom", "Clause", "Compound", "Literal", "Number", "Variable", "parse_program", "parse_term",
    # errors
    "BudgetExceededError", "DataError", "FoldtError", "ModelFormatError", "ParseError",
    "QueryError",
    # settings
    "Settings", "parse_settings", "render_settings",
    # store
    "DatasetHandle", "Interpretation", "load_dataset", "open_dataset",
    # engine
    "Background", "Query", "answer_all", "load_background", "succeeds",
    # bias
    "Bias", "Candidate", "RefinementContext", "discretize", "refinements",
    # learner
    "LearnerConfig", "learn",
    # model
    "FOLDT", "INode", "Leaf", "Model", "classify", "deserialize", "eval_decision_list",
    "load_model", "save_model", "serialize", "to_decision_list", "tree_depth",
    # rdb
    "Schema", "convert_all", "load_snapshot", "parse_schema",
    # generators
    "GenSpec", "generate", "replicate",
    # bench
    "BenchReport", "BenchResult", "bench_run",
]
