import types

import foldt

PUBLIC = {
    "Atom", "Clause", "Compound", "Literal", "Number", "Variable", "parse_program", "parse_term",
    "BudgetExceededError", "DataError", "FoldtError", "ModelFormatError", "ParseError",
    "QueryError",
    "Settings", "parse_settings", "render_settings",
    "DatasetHandle", "Interpretation", "load_dataset", "open_dataset",
    "Background", "Query", "answer_all", "load_background", "succeeds",
    "Bias", "Candidate", "RefinementContext", "discretize", "refinements",
    "LearnerConfig", "learn",
    "FOLDT", "INode", "Leaf", "Model", "classify", "deserialize", "eval_decision_list",
    "load_model", "save_model", "serialize", "to_decision_list", "tree_depth",
    "Schema", "convert_all", "load_snapshot", "parse_schema",
    "GenSpec", "generate", "replicate",
    "BenchReport", "BenchResult", "bench_run",
}


def test_all_is_the_pinned_public_api():
    assert len(foldt.__all__) == len(set(foldt.__all__))
    assert set(foldt.__all__) == PUBLIC
    namespace = {}
    exec("from foldt import *", namespace)
    for name in foldt.__all__:
        assert namespace[name] is getattr(foldt, name)
        assert not isinstance(namespace[name], types.ModuleType), name
