"""Scaling benchmark harness.

``bench_run`` replicates a base dataset by each factor k, scales ``minleaf``
by k so that the same tree is built at every size, runs the selected engine,
and records per-run measurements.  Tree identity across the factors is
asserted structurally; a mismatch invalidates the benchmark (reported, not
raised).  Results go to a tab-separated, plot-ready file with log-log-friendly
columns:

    k  N  cpu_seconds  chunk_seconds  passes  tree_hash
"""

from __future__ import annotations

import hashlib
import logging
import math
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .generators import replicate
from .learner import LearnerConfig, learn
from .model import FOLDT, Leaf
from .terms import render_conjunction

log = logging.getLogger(__name__)


@dataclass
class BenchReport:
    k: int
    examples: int  # N
    node_count: int  # n: internal nodes evaluated and kept
    mean_candidates: float  # t: candidates per evaluated node
    mean_test_seconds: float  # c: evaluation seconds, chunk decoding left out, per coverage test (meta evaluations)
    passes: int
    peak_resident: int
    chunk_wall_seconds: float
    chunk_cpu_seconds: float
    induction_wall_seconds: float
    induction_cpu_seconds: float
    tree_hash: str


@dataclass
class BenchResult:
    reports: list[BenchReport]
    trees_identical: bool


def structure_hash(tree: FOLDT) -> str:
    """Hash of the tree's splits and leaf labels (class counts excluded, so
    replicated runs hash identically)."""
    lines: list[str] = []

    def walk(node, depth):
        if isinstance(node, Leaf):
            lines.append(f"{depth} leaf {node.label}")
        else:
            lines.append(f"{depth} inode {render_conjunction(node.conj)}")
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

    walk(tree, 0)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx = sum(lx) / n
    my = sum(ly) / n
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def bench_run(
    data,
    background,
    settings,
    config: LearnerConfig | None = None,
    k_list=(1, 2, 4, 8),
    workdir=None,
    out_tsv=None,
) -> BenchResult:
    """Learn at each replication factor in ``k_list``; the replicated stores
    go under ``workdir``, or a temporary directory removed afterwards."""
    if workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            return bench_run(data, background, settings, config, k_list, tmp, out_tsv)
    cfg = config or settings.params
    workdir = Path(workdir)
    reports: list[BenchReport] = []
    hashes: list[str] = []
    for k in k_list:
        chunk_w0, chunk_c0 = time.perf_counter(), time.process_time()
        rep = replicate(data, k, workdir / f"k{k:03d}")
        chunk_wall = time.perf_counter() - chunk_w0
        chunk_cpu = time.process_time() - chunk_c0
        cfg_k = replace(cfg, minleaf=cfg.minleaf * k)
        model = learn(rep, background, settings, cfg_k)
        meta = model.metadata
        evals = meta["evaluations"]
        nodes = meta["nodes_evaluated"]
        report = BenchReport(
            k=k,
            examples=len(rep),
            node_count=meta["internal_nodes"],
            mean_candidates=meta["candidates_generated"] / nodes if nodes else 0.0,
            mean_test_seconds=meta["eval_seconds"] / evals if evals else 0.0,
            passes=meta["passes"],
            peak_resident=rep.peak_resident(),
            chunk_wall_seconds=chunk_wall,
            chunk_cpu_seconds=chunk_cpu,
            induction_wall_seconds=meta["induction_wall_seconds"],
            induction_cpu_seconds=meta["induction_cpu_seconds"],
            tree_hash=structure_hash(model.tree),
        )
        reports.append(report)
        hashes.append(report.tree_hash)
        log.info(
            "bench k=%d N=%d cpu=%.3fs chunk=%.3fs passes=%d hash=%s",
            k, report.examples, report.induction_cpu_seconds,
            report.chunk_cpu_seconds, report.passes, report.tree_hash,
        )
    identical = len(set(hashes)) <= 1
    if not identical:
        log.warning("benchmark invalidated: trees differ across k: %s", hashes)
    if out_tsv is not None:
        write_bench_tsv(reports, out_tsv)
    return BenchResult(reports, identical)


def write_bench_tsv(reports, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("k\tN\tcpu_seconds\tchunk_seconds\tpasses\ttree_hash\n")
        for r in reports:
            f.write(
                f"{r.k}\t{r.examples}\t{r.induction_cpu_seconds:.6f}\t"
                f"{r.chunk_cpu_seconds:.6f}\t{r.passes}\t{r.tree_hash}\n"
            )


def format_bench_table(reports) -> str:
    header = f"{'k':>4} {'N':>8} {'cpu(s)':>10} {'chunk(s)':>10} {'passes':>7} {'peak':>6}  tree"
    lines = [header]
    for r in reports:
        lines.append(
            f"{r.k:>4} {r.examples:>8} {r.induction_cpu_seconds:>10.3f} "
            f"{r.chunk_cpu_seconds:>10.3f} {r.passes:>7} {r.peak_resident:>6}  {r.tree_hash}"
        )
    return "\n".join(lines)
