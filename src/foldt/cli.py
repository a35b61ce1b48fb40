"""Command-line front end.

    foldt learn      --data data.kb --settings bias.s --out model.foldt
    foldt classify   --model model.foldt --data test.kb [--out preds.tsv]
    foldt convert    --tables DIR --schema FILE --out data.kb --bg bg.pl
    foldt gen        --domain poker --count 1000 --seed 7 --out data.kb
    foldt discretize --data data.kb --settings bias.s
    foldt bench      --data data.kb --settings bias.s --k 1,2,4,8 --out report.tsv

Exit codes: 0 success, 1 usage error, 2 data/input error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

from . import bench as bench_mod
from . import generators, rdb
from .engine import DEFAULT_BUDGET, Background, load_background
from .errors import DataError, FoldtError, in_file
from .learner import LearnerConfig, learn
from .model import classify, load_model, save_model, tree_depth
from .settings import ALGORITHMS, HEURISTICS, parse_settings
from .store import iter_kb_blocks, load_dataset, open_dataset
from .terms import render_term

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _factors(text: str) -> tuple[int, ...]:
    """``--k``: comma-separated positive replication factors."""
    try:
        factors = tuple(int(k) for k in text.split(","))
    except ValueError:
        factors = ()
    if not factors or min(factors) < 1:
        raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}")
    return factors


def _one_char(text: str) -> str:
    """``--delimiter``: exactly one character."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"expected one character, got {text!r}")
    return text


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="foldt", description="First-order logical decision tree learner")
    p.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = p.add_subparsers(dest="command", required=True)

    def common_learn_args(sp, learner_flags=True):
        sp.add_argument("--data", required=True, help="block file, or an existing chunk store")
        sp.add_argument("--settings", required=True, help="settings file")
        sp.add_argument("--bg", help="background program file")
        sp.add_argument("--granularity", type=int, help="examples per chunk (G)")
        sp.add_argument("--chunks", help="directory for the chunk store")
        if learner_flags:
            sp.add_argument("--minleaf", type=int, help="minimal examples per leaf")
            sp.add_argument("--algo", choices=ALGORITHMS, help="induction engine")
            sp.add_argument("--heuristic", choices=HEURISTICS)
            sp.add_argument("--max-depth", type=int, dest="max_depth")

    sp = sub.add_parser("learn", help="induce a tree and save the model")
    common_learn_args(sp)
    sp.add_argument("--out", required=True, help="model file to write")

    sp = sub.add_parser("classify", help="classify examples with a saved model")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True, help="block file (labels optional)")
    sp.add_argument("--bg", help="background program file")
    sp.add_argument("--out", help="predictions TSV (default: stdout)")

    sp = sub.add_parser("convert", help="relational snapshot to interpretations")
    sp.add_argument("--tables", required=True, help="directory of <table>.csv files")
    sp.add_argument("--schema", required=True, help="schema directive file")
    sp.add_argument("--out", required=True, help="interpretations file to write")
    sp.add_argument("--bg", required=True, help="background fact file to write")
    sp.add_argument("--strict-fk", action="store_true", dest="strict_fk",
                    help="dangling foreign keys are fatal")
    sp.add_argument("--delimiter", type=_one_char, default=",")
    sp.add_argument("--containing", choices=("any", "key"), default="any",
                    help="seed the closure from any cell or key cells only")

    sp = sub.add_parser("gen", help="generate a synthetic dataset")
    sp.add_argument("--domain", required=True, choices=tuple(generators.DOMAINS))
    sp.add_argument("--count", required=True, type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--balance", action="store_true")
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("discretize", help="print thresholds for discretize declarations")
    common_learn_args(sp, learner_flags=False)
    sp.add_argument("--max-thresholds", type=int, dest="max_thresholds")

    sp = sub.add_parser("bench", help="replicate-and-scale benchmark")
    common_learn_args(sp)
    sp.add_argument("--k", type=_factors, default="1,2,4,8", help="comma-separated replication factors")
    sp.add_argument("--out", required=True, help="TSV report file")
    sp.add_argument("--workdir", help="directory for replicated chunk stores")
    for child in sub.choices.values():
        child.add_argument(
            "-v", "--verbose", action="store_true", dest="verbose_sub", help=argparse.SUPPRESS
        )
    return p


@contextmanager
def _open_data(args, settings):
    """The command's dataset: an existing chunk store, or the block file
    compiled into ``--chunks``, or else into a temporary directory that is
    removed when the command ends."""
    path = Path(args.data)
    if path.is_dir():
        data = open_dataset(path)
        if args.granularity not in (None, data.granularity):
            raise DataError(
                f"--granularity {args.granularity} cannot apply to the existing chunk store "
                f"{data.dir}, which holds G={data.granularity}; compile the block file "
                f"again to change it"
            )
        yield data
        return
    with nullcontext(args.chunks) if args.chunks else tempfile.TemporaryDirectory() as out_dir:
        yield load_dataset(path, settings, out_dir=out_dir, granularity=args.granularity)


def _background(args) -> Background | None:
    return load_background(args.bg) if args.bg else None


def _settings(args):
    with in_file(args.settings):
        return parse_settings(Path(args.settings).read_text(encoding="utf-8"))


def _learn_settings(args):
    """Settings and learner configuration of a learning command, checked
    before any data is read."""
    settings = _settings(args)
    cfg = LearnerConfig.from_settings(
        settings,
        algorithm=args.algo,
        heuristic=args.heuristic,
        minleaf=args.minleaf,
        max_depth=args.max_depth,
    )
    return settings, cfg


def _cmd_learn(args) -> int:
    settings, cfg = _learn_settings(args)
    with _open_data(args, settings) as data:
        model = learn(data, _background(args), settings, cfg)
    save_model(model, args.out)
    meta = model.metadata
    print(
        f"{meta['algorithm']}: {meta['examples']} examples -> "
        f"{meta['internal_nodes']} internal nodes, {meta['leaves']} leaves, "
        f"depth {tree_depth(model.tree)}, passes {meta['passes']}, "
        f"cpu {meta['induction_cpu_seconds']:.2f}s"
    )
    print(f"model written to {args.out}")
    return 0


def _cmd_classify(args) -> int:
    with in_file(args.model):
        model = load_model(args.model)
    background = _background(args)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    budget = model.metadata.get("resolution_budget", DEFAULT_BUDGET)
    correct = labelled = total = 0
    try:
        out.write("id\tactual\tpredicted\n")
        for interp in iter_kb_blocks(args.data, model.classes, allow_unlabeled=True):
            predicted = classify(model, interp, background, budget)
            actual = interp.label or "?"
            out.write(f"{render_term(interp.ident)}\t{actual}\t{predicted}\n")
            total += 1
            if interp.label:
                labelled += 1
                correct += predicted == interp.label
    finally:
        if args.out:
            out.close()
    report = sys.stdout if args.out else sys.stderr
    if labelled:
        report.write(f"accuracy {correct}/{labelled} = {correct / labelled:.5f}\n")
    report.write(f"classified {total} examples\n")
    return 0


def _cmd_convert(args) -> int:
    with in_file(args.schema):
        schema = rdb.parse_schema(Path(args.schema).read_text(encoding="utf-8"))
    snapshot = rdb.load_snapshot(args.tables, schema, delimiter=args.delimiter)
    report = rdb.convert_all(
        snapshot,
        schema,
        args.out,
        args.bg,
        strict_fk=args.strict_fk,
        containing=args.containing,
    )
    print(
        f"wrote {report.example_count} examples to {args.out}, "
        f"{report.background_fact_count} background facts to {args.bg}"
    )
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for v in report.locality_violations:
        print(f"locality: {v}", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    spec = generators.GenSpec(args.domain, args.count, args.seed, args.balance)
    path = generators.generate(spec, args.out)
    print(f"wrote {args.count} {args.domain} examples to {path}")
    return 0


def _cmd_discretize(args) -> int:
    settings = _settings(args)
    cfg = LearnerConfig.from_settings(settings, max_thresholds=args.max_thresholds)
    if not settings.discretize:
        print("no discretize declarations in the settings file")
        return 0
    from .bias import discretize as run_discretize
    from .engine import Query

    with _open_data(args, settings) as data:
        background = _background(args)
        for k, request in enumerate(settings.discretize, 1):
            cuts = run_discretize(request, data, background, cfg)
            shown = ", ".join(map(repr, cuts)) or "(none)"
            print(f"threshold({k}): {Query(request.query)} on {request.var} -> {shown}")
    return 0


def _cmd_bench(args) -> int:
    settings, cfg = _learn_settings(args)
    with _open_data(args, settings) as data:
        result = bench_mod.bench_run(
            data,
            _background(args),
            settings,
            cfg,
            k_list=args.k,
            workdir=args.workdir,
            out_tsv=args.out,
        )
    print(bench_mod.format_bench_table(result.reports))
    if not result.trees_identical:
        print("benchmark invalidated: trees differ across replication factors", file=sys.stderr)
    print(f"report written to {args.out}")
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "classify": _cmd_classify,
    "convert": _cmd_convert,
    "gen": _cmd_gen,
    "discretize": _cmd_discretize,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    verbose = args.verbose or getattr(args, "verbose_sub", False)
    logging.basicConfig(
        level=logging.INFO if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (FoldtError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
