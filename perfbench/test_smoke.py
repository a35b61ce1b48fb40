"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench

Every metric that BENCHMARK.json names is emitted with its unit, every output
check passes, the traced run builds the same trees as the untraced one, and
without the program's sources the benchmark fails without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = 0.03


@pytest.fixture(scope="module", autouse=True)
def program():
    run.load_program()


def test_declared_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_at_tiny_size(workload):
    plain = run.run_workload(workload, seed=7, seconds=0, trace=False, scale=SCALE)
    traced = run.run_workload(workload, seed=7, seconds=0, trace=True, scale=SCALE)
    for result, units in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert result["correct"], result["lines"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert plain["tree_hashes"]["untraced"]
    assert traced["tree_hashes"]["traced"] == plain["tree_hashes"]["untraced"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poker-lds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
