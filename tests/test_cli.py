import re

import pytest
from conftest import BONGARD_BIAS_TEXT, bongard12_kb_text
from rdb_fixtures import CHEM_SCHEMA_WITH_CLASS, CHEM_TABLES, write_tables

from foldt.cli import main
from foldt.model import load_model, tree_depth
from foldt.settings import parse_settings


@pytest.fixture
def bias_file(tmp_path):
    p = tmp_path / "bias.s"
    p.write_text(BONGARD_BIAS_TEXT)
    return p


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "b12.kb"
    p.write_text(bongard12_kb_text())
    return p


def _listing(directory):
    return sorted(p.name for p in directory.iterdir())


def test_learn_and_classify(tmp_path, bias_file, data_file, capsys):
    model_path = tmp_path / "m.foldt"
    rc = main(
        [
            "learn",
            "--data", str(data_file),
            "--settings", str(bias_file),
            "--algo", "lds",
            "--out", str(model_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "12 examples" in out and "passes 3" in out
    model = load_model(model_path)
    assert tree_depth(model.tree) == 3

    preds = tmp_path / "preds.tsv"
    rc = main(
        [
            "classify",
            "--model", str(model_path),
            "--data", str(data_file),
            "--out", str(preds),
        ]
    )
    assert rc == 0
    assert "accuracy 12/12 = 1.00000" in capsys.readouterr().out
    lines = preds.read_text().splitlines()
    assert lines[0] == "id\tactual\tpredicted"
    assert len(lines) == 13


def test_gen_and_bench(tmp_path, bias_file, capsys):
    data = tmp_path / "bon.kb"
    rc = main(["gen", "--domain", "bongard", "--count", "40", "--seed", "3", "--out", str(data)])
    assert rc == 0
    report = tmp_path / "bench.tsv"
    rc = main(
        [
            "bench",
            "--data", str(data),
            "--settings", str(bias_file),
            "--k", "1,2",
            "--out", str(report),
            "--workdir", str(tmp_path / "w"),
        ]
    )
    assert rc == 0
    assert report.read_text().startswith("k\tN\tcpu_seconds")
    assert len(report.read_text().splitlines()) == 3


def test_convert_cli(tmp_path, capsys):
    tables = write_tables(tmp_path / "chem", CHEM_TABLES)
    schema = tmp_path / "schema.s"
    schema.write_text(CHEM_SCHEMA_WITH_CLASS)
    rc = main(
        [
            "convert",
            "--tables", str(tables),
            "--schema", str(schema),
            "--out", str(tmp_path / "chem.kb"),
            "--bg", str(tmp_path / "bg.pl"),
        ]
    )
    assert rc == 0
    assert "wrote 5 examples" in capsys.readouterr().out
    assert "begin(model('H2O'))." in (tmp_path / "chem.kb").read_text()


def test_discretize_cli(tmp_path, capsys):
    kb = tmp_path / "vals.kb"
    blocks = []
    for i, (v, label) in enumerate([(1, "a"), (2, "a"), (3, "a"), (8, "b"), (9, "b"), (10, "b")], 1):
        blocks.append(f"begin(model({i})). val(x,{v}). {label}. end(model({i})).")
    kb.write_text("\n".join(blocks) + "\n")
    settings = tmp_path / "s.s"
    settings.write_text("classes([a,b]).\ndiscretize(val(_,C), C).\n")
    before = _listing(tmp_path)
    rc = main(["discretize", "--data", str(kb), "--settings", str(settings)])
    assert rc == 0
    assert "5.5" in capsys.readouterr().out
    assert _listing(tmp_path) == before


def test_discretize_names_a_non_numeric_value_and_its_example(tmp_path, capsys):
    kb = tmp_path / "vals.kb"
    kb.write_text(
        "begin(model(1)). val(x,1). a. end(model(1)).\n"
        "begin(model(e2)). val(x,abc). b. end(model(e2)).\n"
    )
    settings = tmp_path / "s.s"
    settings.write_text("classes([a,b]).\ndiscretize(val(_,C), C).\n")
    assert main(["discretize", "--data", str(kb), "--settings", str(settings)]) == 2
    assert capsys.readouterr().err == (
        "error: discretize(val(_1,C), C) collected the non-numeric value abc in example e2\n"
    )


@pytest.mark.parametrize(
    "flags,rc,cause",
    [
        (["--max-thresholds", "-3"], 2, "max_thresholds must be nonnegative"),
        (["--minleaf", "0"], 1, "unrecognized arguments: --minleaf"),
    ],
)
def test_discretize_flags(tmp_path, bias_file, data_file, capsys, flags, rc, cause):
    args = ["discretize", "--data", str(data_file), "--settings", str(bias_file)]
    before = _listing(tmp_path)
    assert main(args + flags) == rc
    assert cause in capsys.readouterr().err
    assert _listing(tmp_path) == before


def test_usage_error_exit_1(capsys):
    assert main(["learn"]) == 1
    assert main(["frobnicate"]) == 1


def test_data_error_exit_2(tmp_path, bias_file, capsys):
    bad = tmp_path / "bad.kb"
    bad.write_text("begin(model(1)). pos. neg. end(model(1)).\n")
    rc = main(
        ["learn", "--data", str(bad), "--settings", str(bias_file), "--out", str(tmp_path / "m")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: {bad}: ambiguous class in example 1: both pos and neg (line 1)\n"


@pytest.mark.parametrize(
    "flag,text,where",
    [
        ("--data", "begin(model(1)).\npos.\ncard(7,²).\nend(model(1)).\n", "line 3, column 8"),
        ("--bg", "p(a).\nq(²).\n", "line 2, column 3"),
        ("--settings", "classes([pos,neg]).\nminleaf(²).\n", "line 2, column 9"),
    ],
    ids=["data", "background", "settings"],
)
def test_parse_errors_name_their_file(tmp_path, bias_file, data_file, capsys, flag, text, where):
    background = tmp_path / "bg.pl"
    background.write_text("p(a).\n")
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    files = {"--data": data_file, "--settings": bias_file, "--bg": background}
    files[flag] = bad
    args = [x for f, path in files.items() for x in (f, str(path))]
    assert main(["learn", *args, "--out", str(tmp_path / "m.foldt")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: unexpected character '²' at {where}\n"


@pytest.mark.parametrize(
    "flag,raw,where",
    [
        ("--data", b"begin(model(1)).\np(\xff).\npos.\nend(model(1)).\n", "(invalid start byte) at line 2, column 3"),
        ("--bg", b"p(a).\r\nq('\xc3(').\n", "(invalid continuation byte) at line 2, column 4"),
        ("--settings", b"classes([pos,neg]).\r% caf\xc3\xa9 \xe9t\xe9\n", "(invalid continuation byte) at line 2, column 8"),
        ("--model", b"foldt-model 2\nsection meta 1\n{\"a\":\"\xff\"}\n", "(invalid start byte) at line 3, column 7"),
        ("--schema", b"table(m, [f]).\n\n\xc3", "(unexpected end of data) at line 3, column 1"),
        ("--tables", b"1,q\n2,p\xff\n", "(invalid start byte) at line 2, column 4"),
    ],
    ids=["data", "background", "settings", "model", "schema", "table"],
)
def test_a_file_that_is_not_utf8_is_an_error_at_its_first_bad_byte(
    tmp_path, bias_file, data_file, capsys, flag, raw, where
):
    bad = tmp_path / ("m.csv" if flag == "--tables" else "bad.txt")
    bad.write_bytes(raw)
    if flag == "--model":
        args = ["classify", "--model", str(bad), "--data", str(data_file)]
    elif flag == "--schema":
        args = ["convert", "--tables", str(tmp_path), "--schema", str(bad), "--out", "o.kb", "--bg", "o.pl"]
    elif flag == "--tables":
        schema = tmp_path / "schema.s"
        schema.write_text("table(m, [f, g]).\nkey(m, [f]).\nexample_id(m, f).\n")
        out = ["--out", str(tmp_path / "o.kb"), "--bg", str(tmp_path / "o.pl")]
        args = ["convert", "--tables", str(tmp_path), "--schema", str(schema), *out]
    else:
        background = tmp_path / "bg.pl"
        background.write_text("p(a).\n")
        files = {"--data": data_file, "--settings": bias_file, "--bg": background, flag: bad}
        args = ["learn", *[x for f, path in files.items() for x in (f, str(path))], "--out", str(tmp_path / "m")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text {where}\n"


def test_builtin_error_names_its_example_and_query(tmp_path, data_file, capsys):
    bias = tmp_path / "bias.s"
    bias.write_text("classes([pos,neg]).\nrmode(5: triangle(+-V)).\nrmode(5: bad(+-V)).\n")
    background = tmp_path / "bg.pl"
    background.write_text("bad(X) :- X \\= Y.\n")
    args = ["--data", str(data_file), "--settings", str(bias), "--bg", str(background)]
    assert main(["learn", *args, "--out", str(tmp_path / "m.foldt")]) == 2
    assert capsys.readouterr().err == (
        "error: \\= needs ground arguments, got X \\= Y in example 1 on query bad(A)\n"
    )


def test_malformed_model_exit_2(tmp_path, bias_file, data_file, capsys):
    model_path = tmp_path / "m.foldt"
    assert main(["learn", "--data", str(data_file), "--settings", str(bias_file), "--out", str(model_path)]) == 0
    text = model_path.read_text()
    for pattern, replacement, cause in (
        (
            "section meta 1",
            "section meta x",
            "expected an integer, found 'x' in line 'section meta x'",
        ),
        (r"(?m)^\{.*\}$", "[1,2]", "meta section is not a JSON object: '[1,2]'"),
        (
            '"resolution_budget":100000',
            '"resolution_budget":"x"',
            "resolution_budget 'x' in meta is not a positive integer",
        ),
        (
            '"resolution_budget":100000',
            '"resolution_budget":0',
            "resolution_budget 0 in meta is not a positive integer",
        ),
    ):
        broken = re.sub(pattern, replacement, text, count=1)
        assert broken != text
        model_path.write_text(broken)
        capsys.readouterr()
        assert main(["classify", "--model", str(model_path), "--data", str(data_file)]) == 2
        assert capsys.readouterr().err == f"error: {model_path}: {cause}\n"


@pytest.mark.parametrize(
    "text,cause",
    [
        (
            "begin(model(1)).\npos.\nend(model(1)).\nbegin(model(1)).\nneg.\nend(model(1)).\n",
            "duplicate example id 1",
        ),
        ("% no examples\n", "empty dataset"),
    ],
    ids=["duplicate-id", "comment-only"],
)
def test_store_errors_name_the_block_file_once(tmp_path, bias_file, capsys, text, cause):
    data = tmp_path / "dup.kb"
    data.write_text(text)
    args = ["learn", "--data", str(data), "--settings", str(bias_file), "--out", str(tmp_path / "m.foldt")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {data}: {cause}\n"


def test_granularity_of_an_existing_store_is_fixed(tmp_path, bias_file, data_file, capsys):
    store = tmp_path / "store"

    def learn_with(data, g):
        return main(
            ["learn", "--data", str(data), "--settings", str(bias_file), "--chunks", str(store),
             "--granularity", g, "--out", str(tmp_path / "m.foldt")]
        )

    assert learn_with(data_file, "4") == 0
    assert learn_with(store, "4") == 0
    capsys.readouterr()
    assert learn_with(store, "5") == 2
    err = capsys.readouterr().err
    assert "--granularity 5" in err and "G=4" in err


@pytest.mark.parametrize(
    "flags,cause",
    [
        (["--minleaf", "0"], "minleaf must be at least 1"),
        (["--max-depth", "-1"], "max_depth must be nonnegative"),
    ],
)
def test_learner_flags_checked_like_directives(tmp_path, bias_file, data_file, capsys, flags, cause):
    before = _listing(tmp_path)
    rc = main(
        ["learn", "--data", str(data_file), "--settings", str(bias_file),
         "--out", str(tmp_path / "m.foldt")] + flags
    )
    assert rc == 2
    assert cause in capsys.readouterr().err
    assert _listing(tmp_path) == before


@pytest.mark.parametrize(
    "args,cause",
    [
        (["bench", "--k", "1,x"], "argument --k: expected comma-separated positive integers, got '1,x'"),
        (["bench", "--k", "2,0"], "argument --k: expected comma-separated positive integers, got '2,0'"),
        (["convert", "--delimiter", ""], "argument --delimiter: expected one character, got ''"),
        (["convert", "--delimiter", ";;"], "argument --delimiter: expected one character, got ';;'"),
    ],
)
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, args, cause):
    required = {
        "bench": ["--data", "d.kb", "--settings", "s.s", "--out", "r.tsv"],
        "convert": ["--tables", "t", "--schema", "s.s", "--out", "d.kb", "--bg", "bg.pl"],
    }
    assert main(args + required[args[0]]) == 1
    assert capsys.readouterr().err.endswith(f"foldt {args[0]}: error: {cause}\n")


@pytest.mark.parametrize(
    "command,out",
    [(["learn"], "m.foldt"), (["bench", "--k", "1,2"], "bench.tsv")],
)
def test_commands_leave_the_data_and_store_directories_as_they_were(
    tmp_path, bias_file, data_file, command, out
):
    store = tmp_path / "store"
    assert main(
        ["learn", "--data", str(data_file), "--settings", str(bias_file), "--chunks", str(store),
         "--out", str(tmp_path / "first.foldt")]
    ) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    before = _listing(tmp_path), _listing(store)
    for data in (data_file, store):
        args = ["--data", str(data), "--settings", str(bias_file), "--out", str(out_dir / out)]
        assert main(command + args) == 0
    assert (_listing(tmp_path), _listing(store)) == before


def _files(directory):
    """Each entry of ``directory`` by name: a file's bytes, None for a
    subdirectory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def test_classify_and_convert_write_only_their_outputs(tmp_path, bias_file, data_file):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    model = out_dir / "m.foldt"
    assert main(
        ["learn", "--data", str(data_file), "--settings", str(bias_file), "--out", str(model)]
    ) == 0
    tables = write_tables(tmp_path / "chem", CHEM_TABLES)
    schema = tmp_path / "schema.s"
    schema.write_text(CHEM_SCHEMA_WITH_CLASS)
    before = _files(tmp_path), _files(tables)
    assert main(
        ["classify", "--model", str(model), "--data", str(data_file),
         "--out", str(out_dir / "preds.tsv")]
    ) == 0
    assert main(
        ["convert", "--tables", str(tables), "--schema", str(schema),
         "--out", str(out_dir / "chem.kb"), "--bg", str(out_dir / "bg.pl")]
    ) == 0
    assert (_files(tmp_path), _files(tables)) == before
    assert _listing(out_dir) == ["bg.pl", "chem.kb", "m.foldt", "preds.tsv"]


def test_bias_section_records_the_run_configuration(tmp_path, bias_file, data_file):
    model_path = tmp_path / "m.foldt"
    assert main(
        ["learn", "--data", str(data_file), "--settings", str(bias_file), "--algo", "classic",
         "--minleaf", "4", "--granularity", "5", "--out", str(model_path)]
    ) == 0
    model = load_model(model_path)
    params = parse_settings(model.bias_text).params
    assert (params.algorithm, params.minleaf, params.granularity) == ("classic", 4, 5)
    for key in ("algorithm", "minleaf", "heuristic", "granularity", "gain_epsilon",
                "resolution_budget", "max_depth"):
        assert getattr(params, key) == model.metadata[key], key


def test_classify_unlabeled(tmp_path, bias_file, data_file, capsys):
    model_path = tmp_path / "m.foldt"
    main(["learn", "--data", str(data_file), "--settings", str(bias_file), "--out", str(model_path)])
    capsys.readouterr()
    unlabeled = tmp_path / "u.kb"
    unlabeled.write_text(
        "begin(model(u1)). triangle(t1). inside(t1,t2). circle(t2). end(model(u1)).\n"
    )
    rc = main(["classify", "--model", str(model_path), "--data", str(unlabeled)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "u1\t?\tpos" in captured.out
    assert "classified 1 examples" in captured.err


def test_a_class_label_that_needs_quotes_survives_learn_save_and_classify(tmp_path, capsys):
    bias = tmp_path / "bias.s"
    bias.write_text(BONGARD_BIAS_TEXT.replace("classes([pos,neg])", "classes(['Big One',neg])"))
    data = tmp_path / "b12.kb"
    data.write_text(bongard12_kb_text().replace("  pos.\n", "  'Big One'.\n"))
    model_path = tmp_path / "m.foldt"
    assert main(["learn", "--data", str(data), "--settings", str(bias), "--out", str(model_path)]) == 0
    assert "class('Big One') :- " in model_path.read_text()
    assert load_model(model_path).classes == ("Big One", "neg")
    preds = tmp_path / "preds.tsv"
    capsys.readouterr()
    assert main(["classify", "--model", str(model_path), "--data", str(data), "--out", str(preds)]) == 0
    assert "accuracy 12/12 = 1.00000" in capsys.readouterr().out
    assert "\tBig One\tBig One" in preds.read_text()
