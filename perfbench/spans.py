"""Span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id, level).  The parent is the span
that was open when this one started; the run id numbers the top-level
operation (one set-up, one ``learn`` call, one classified example, ...) that
the span belongs to; the level is the tree level the work served (the pass
index inside ``learn``, the node depth inside ``classify``), 0 when none.
Spans stay in memory and are written out as TSV when the run ends.

``patched`` wraps, for the duration of a ``with`` block, the names that the
calling modules of foldt look up at run time, and restores them afterwards.
A name that no longer exists is reported as absent instead of failing, so a
later change that removes a call path (query packs remove the per-candidate
``succeeds`` loop) still runs under this benchmark.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

perf_counter = time.perf_counter


class Recorder:
    """Spans in parallel lists, plus counts keyed by (run id, name)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.levels: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._run = -1
        # Level state set by the wrappers: the pass index inside learn, the
        # number of tests made so far inside one classify call.
        self.in_learn = False
        self.pass_index = 0
        self.depth = 0
        self.last_example = None

    @property
    def run(self) -> int:
        return self._run

    def open(self, name: str, level: int = 0) -> int:
        i = len(self.names)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = -1
            self._run += 1
        self.names.append(name)
        self.parents.append(parent)
        self.runs.append(self._run)
        self.levels.append(level)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int):
        self.ends[i] = perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1):
        self.counts[self._run, name] += n

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tname\tstart\tend\tparent\trun\tlevel\n")
            for i, name in enumerate(self.names):
                f.write(
                    f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t"
                    f"{self.parents[i]}\t{self.runs[i]}\t{self.levels[i]}\n"
                )


class Summary:
    """Totals over the spans of a set of top-level runs."""

    def __init__(self, rec: Recorder, runs):
        runs = set(runs)
        n = len(rec.names)
        child = [0.0] * n
        for i in range(n):
            p = rec.parents[i]
            if p >= 0:
                child[p] += rec.ends[i] - rec.starts[i]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.level_calls: Counter = Counter()
        self.level_total: Counter = Counter()
        self.overlap = 0  # spans whose children cover more than the span itself
        for i in range(n):
            if rec.runs[i] not in runs:
                continue
            name = rec.names[i]
            dur = rec.ends[i] - rec.starts[i]
            if child[i] > dur:
                self.overlap += 1
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            if rec.levels[i]:
                self.level_calls[name, rec.levels[i]] += 1
                self.level_total[name, rec.levels[i]] += dur
        self.counts: Counter = Counter()
        for (run, name), v in rec.counts.items():
            if run in runs:
                self.counts[name] += v


def _wrap_call(rec: Recorder, fn, name: str):
    def traced(*args, **kwargs):
        i = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)

    return traced


def _wrap_learner_test(rec: Recorder, fn):
    def traced(query, interp, *args, **kwargs):
        if interp is not rec.last_example:
            rec.last_example = interp
            rec.count("store.examples_evaluated")
        i = rec.open("engine.test", rec.pass_index)
        try:
            ok = fn(query, interp, *args, **kwargs)
        finally:
            rec.close(i)
        if ok:
            rec.count("engine.successes")
        return ok

    return traced


def _wrap_model_test(rec: Recorder, fn):
    def traced(*args, **kwargs):
        rec.depth += 1
        i = rec.open("engine.test", rec.depth)
        try:
            ok = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if ok:
            rec.count("engine.successes")
        return ok

    return traced


def _wrap_stream(rec: Recorder, fn):
    def traced(self, *args, **kwargs):
        level = 0
        if rec.in_learn:
            rec.pass_index += 1
            level = rec.pass_index
            rec.count("learner.passes")
        inner = fn(self, *args, **kwargs)
        while True:
            i = rec.open("store.stream", level)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.close(i)
            rec.count(f"store.examples_streamed.L{level}")
            yield item

    return traced


def _wrap_refinements(rec: Recorder, fn):
    def traced(*args, **kwargs):
        i = rec.open("bias.refine")
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        rec.count("bias.candidates", len(out))
        return out

    return traced


@contextmanager
def patched(rec: Recorder):
    """Wrap the looked-up names for the duration of the block; yields the
    list of names that were absent."""
    import foldt.learner
    import foldt.model
    import foldt.store

    targets = [
        (foldt.learner, "succeeds", lambda fn: _wrap_learner_test(rec, fn)),
        (foldt.learner, "refinements", lambda fn: _wrap_refinements(rec, fn)),
        (foldt.learner, "prepare_bias", lambda fn: _wrap_call(rec, fn, "bias.prepare")),
        (foldt.learner, "score", lambda fn: _wrap_call(rec, fn, "learner.decide")),
        (foldt.learner, "is_good", lambda fn: _wrap_call(rec, fn, "learner.decide")),
        (foldt.learner, "select_best", lambda fn: _wrap_call(rec, fn, "learner.decide")),
        (foldt.model, "succeeds", lambda fn: _wrap_model_test(rec, fn)),
        (foldt.store, "parse_term", lambda fn: _wrap_call(rec, fn, "terms.parse")),
        (foldt.store.DatasetHandle, "stream_examples", lambda fn: _wrap_stream(rec, fn)),
    ]
    saved = []
    absent = []
    try:
        for owner, attr, make in targets:
            original = owner.__dict__.get(attr)
            if original is None:
                absent.append(f"{owner.__name__}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield absent
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
