"""Layer spans and counters recorded from outside the hampack package.

Each public name that a layer exposes is rebound, at the module where
its caller looks it up, to a wrapper that opens a span around the call
and reads counters from the value it returns.  Classes are rebound to a
subclass that times ``__init__``.  The original objects are put back
when the ``bound`` block exits, so a traced pass leaves the package as
it found it.

Spans record name, start, end, parent span and trial index.  A span's
self time is its duration minus the durations of its children; calls
are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager


class Recorder:
    """Spans and counters kept in memory for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, trial]
        self.counts: Counter = Counter()
        self.trial = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.trial])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def totals(self) -> dict:
        """name -> {"s": summed duration, "self_s": summed self time, "calls"}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child_time):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += end - start
            agg["self_s"] += end - start - inner
            agg["calls"] += 1
        return out


# --------------------------------------------------------------- counters
# Each reads the value a wrapped call returned; (counts, args, out).

def _draws(counts, args, out):
    counts["model.degree_vector_draws"] += int(out[1])


def _sampler_attempts(counts, args, out):
    counts["model.sampler_attempts"] += int(out[1])


def _deficiency(counts, args, out):
    counts["matching.deficiency"] += int(args[0].n) - int(out.size)


def _boosters(counts, args, out):
    counts["matching.boosters_consumed"] += int(out.consumed)


def _out_closed(counts, args, out):
    counts["cover.out_phase.closed"] += out[0] == "closed"


def _in_closed(counts, args, out):
    counts["cover.in_phase.closed"] += out is not None


def _phase_two(counts, args, out):
    stats = out[1]
    counts["cover.iterations"] += stats.iterations
    counts["cover.second_attempts"] += stats.second_attempts
    counts["cover.w_size"] += stats.w_size


def _patch(counts, args, out):
    stats = out[1]
    counts["patch.merges"] += stats.merges
    counts["patch.relaxed_merges"] += stats.relaxed_merges


# (module under hampack, attribute looked up there, span name, counter)
BINDINGS = [
    ("harness", "run_trial", "harness.run_trial", None),
    ("harness", "run_pipeline", "harness.run_pipeline", None),
    ("harness", "sample_erased_digraph", "model.sample_erased_digraph",
     _sampler_attempts),
    ("model", "conditioned_degree_vector", "model.conditioned_degree_vector",
     _draws),
    ("model", "pair_configuration", "model.pair_configuration", None),
    ("model", "SimpleDigraph", "model.SimpleDigraph", None),
    ("harness", "split_edges", "partition.split_edges", None),
    ("harness", "compute_small", "partition.compute_small", None),
    ("harness", "build_k_matchings", "matching.build_k_matchings", None),
    ("matching", "digraph_to_bipartite", "matching.digraph_to_bipartite", None),
    ("matching", "maximum_matching", "matching.maximum_matching", _deficiency),
    ("matching", "booster_augment", "matching.booster_augment", _boosters),
    ("harness", "matching_to_cycle_cover", "matching.matching_to_cycle_cover",
     None),
    ("harness", "eliminate_small_cycles", "cover.eliminate_small_cycles",
     _phase_two),
    ("cover", "out_phase", "cover.out_phase", _out_closed),
    ("cover", "in_phase", "cover.in_phase", _in_closed),
    # matching_to_cycle_cover imports PermutationDigraph from cover at
    # call time, so its one build per cover lands under this span too
    ("cover", "PermutationDigraph", "cover.PermutationDigraph", None),
    ("harness", "merge_patch", "patch.merge_patch", _patch),
    ("patch", "PermutationDigraph", "patch.PermutationDigraph", None),
    ("harness", "certificate_from_covers", "verify.certificate_from_covers",
     None),
    ("harness", "verify_packing", "verify.verify_packing", None),
]


def _timed_function(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            counter(rec.counts, args, out)
        return out
    return wrapper


def _timed_class(rec: Recorder, name: str, cls):
    def __init__(self, *args, **kwargs):
        idx = rec.open(name)
        try:
            cls.__init__(self, *args, **kwargs)
        finally:
            rec.close(idx)
    return type(cls.__name__, (cls,), {"__init__": __init__,
                                       "__module__": cls.__module__})


def _wrap(rec: Recorder, name: str, obj, counter):
    if isinstance(obj, type):
        return _timed_class(rec, name, obj)
    return _timed_function(rec, name, obj, counter)


@contextmanager
def bound(rec: Recorder):
    """Rebind every name in BINDINGS to a timing wrapper feeding rec."""
    saved = []
    try:
        for mod_name, attr, name, counter in BINDINGS:
            mod = importlib.import_module(f"hampack.{mod_name}")
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, _wrap(rec, name, orig, counter))
        yield rec
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
