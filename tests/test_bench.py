from dataclasses import replace

import pytest
from conftest import BONGARD_BIAS_TEXT, bongard12_kb_text

from foldt.bench import bench_run, fit_loglog_slope, format_bench_table, structure_hash
from foldt.learner import LearnerConfig
from foldt.model import Leaf
from foldt.settings import parse_settings
from foldt.store import load_dataset

BONGARD_SETTINGS = parse_settings(BONGARD_BIAS_TEXT)


@pytest.fixture
def bongard12(tmp_path):
    path = tmp_path / "b12.kb"
    path.write_text(bongard12_kb_text())
    return load_dataset(path, BONGARD_SETTINGS, tmp_path / "b12.chunks", granularity=6)


def test_bench_identical_trees_and_tsv(tmp_path, bongard12):
    out = tmp_path / "bench.tsv"
    result = bench_run(
        bongard12,
        None,
        BONGARD_SETTINGS,
        LearnerConfig.from_settings(BONGARD_SETTINGS),
        k_list=(1, 2, 4),
        workdir=tmp_path / "work",
        out_tsv=out,
    )
    assert result.trees_identical
    assert [r.k for r in result.reports] == [1, 2, 4]
    assert [r.examples for r in result.reports] == [12, 24, 48]
    assert len({r.tree_hash for r in result.reports}) == 1
    assert all(r.passes == 3 for r in result.reports)  # LDS default engine
    assert all(r.peak_resident <= bongard12.granularity for r in result.reports)
    lines = out.read_text().splitlines()
    assert lines[0] == "k\tN\tcpu_seconds\tchunk_seconds\tpasses\ttree_hash"
    assert len(lines) == 4
    cols = lines[1].split("\t")
    assert cols[0] == "1" and cols[1] == "12"
    float(cols[2]), float(cols[3])
    table = format_bench_table(result.reports)
    assert "passes" in table and str(result.reports[0].examples) in table


def test_bench_reports_monotone_N(tmp_path, bongard12):
    result = bench_run(
        bongard12, None, BONGARD_SETTINGS, k_list=(1, 2, 4, 8), workdir=tmp_path / "w"
    )
    ns = [r.examples for r in result.reports]
    assert ns == sorted(ns) and len(set(ns)) == len(ns)


@pytest.mark.parametrize("algorithm", ["lds", "classic"])
def test_mean_test_seconds_leaves_chunk_decoding_out(tmp_path, bongard12, monkeypatch, algorithm):
    """c times the evaluations is the evaluation time without decoding: the
    levels' eval_seconds for LDS, the run's eval_seconds for classic."""
    import foldt.bench

    models = []
    learn = foldt.bench.learn
    monkeypatch.setattr(foldt.bench, "learn", lambda *args: models.append(learn(*args)) or models[-1])
    cfg = replace(LearnerConfig.from_settings(BONGARD_SETTINGS), algorithm=algorithm)
    [report] = bench_run(bongard12, None, BONGARD_SETTINGS, cfg, k_list=(1,), workdir=tmp_path / "w").reports
    [meta] = [m.metadata for m in models]
    if algorithm == "lds":
        evaluating = sum(level["eval_seconds"] for level in meta["levels"])
        assert sum(level["decode_seconds"] for level in meta["levels"]) > 0
        assert evaluating < meta["eval_seconds"]
    else:
        evaluating = meta["eval_seconds"]
    assert meta["evaluations"] > 0
    assert report.mean_test_seconds * meta["evaluations"] == pytest.approx(evaluating)


def test_structure_hash_ignores_counts():
    assert structure_hash(Leaf("pos", (1, 0))) == structure_hash(Leaf("pos", (8, 0)))
    assert structure_hash(Leaf("pos", (1, 0))) != structure_hash(Leaf("neg", (1, 0)))


def test_fit_loglog_slope_exact():
    xs = [100, 200, 400, 800]
    assert fit_loglog_slope(xs, [x * 0.01 for x in xs]) == pytest.approx(1.0, abs=1e-9)
    assert fit_loglog_slope(xs, [x * x * 0.01 for x in xs]) == pytest.approx(2.0, abs=1e-9)
    assert fit_loglog_slope(xs, [5.0] * 4) == pytest.approx(0.0, abs=1e-9)
    noisy = [0.011 * 100, 0.0095 * 200, 0.0102 * 400, 0.0099 * 800]
    assert 0.9 < fit_loglog_slope(xs, noisy) < 1.1
