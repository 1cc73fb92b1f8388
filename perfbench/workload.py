"""One benchmark workload in a process of its own.

Started by run.py from the root of a checkout:

    python3 perfbench/workload.py --workload NAME --seed N --trials T \
        --mode {run,setup,trace} --t0 MONOTONIC_SECONDS

``setup`` imports hampack from ./src and builds the workload's inputs,
then stops.  ``run`` also times the fixed, seed-derived trial list one
trial after another (a closed loop with one client) and checks every
packing with certcheck, outside the timed region.  ``trace`` runs each
trial twice, untraced and then with the layer wrappers of tracer bound
around it, requires identical records from both, and reports the
per-layer metrics.  The last line of stdout is one JSON report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import certcheck
import hostgen
import tracer

# nominal_s is the trial time on the reference box (2 cores, 8 GB,
# Python 3.11, numpy 2.4); it only sizes the trial list, which is then
# fixed for a given --seconds so that two commits time the same work.
WORKLOADS = {
    # matching-bound (digraph_to_bipartite, maximum_matching); the
    # sampler is about 30 %, and k = 2 runs the second cover on pools
    # already thinned by the used-edge bitset
    "trial-dense-k2": {"kind": "trial", "n": 2_000, "c": 100, "k": 2,
                       "nominal_s": 1.9},
    # sampler bypassed: the ``hampack pack --in`` path on a generated
    # host at n = 1e5, where matching, cover, patch and verify loops
    # that grow with n take their largest share
    "pack-host-large": {"kind": "pack", "n": 100_000, "c": 20, "k": 1,
                        "nominal_s": 12.0},
}

# (span, field) pairs timed per trial; the metric is "<span>.<field>"
LAYER_TIMES = [
    ("model.conditioned_degree_vector", "s"),
    ("model.pair_configuration", "s"),
    ("model.sample_erased_digraph", "self_s"),
    ("model.SimpleDigraph", "s"),
    ("partition.split_edges", "s"),
    ("partition.compute_small", "s"),
    ("matching.build_k_matchings", "self_s"),
    ("matching.digraph_to_bipartite", "s"),
    ("matching.maximum_matching", "s"),
    ("matching.booster_augment", "s"),
    ("matching.matching_to_cycle_cover", "s"),
    ("cover.eliminate_small_cycles", "self_s"),
    ("cover.out_phase", "s"),
    ("cover.in_phase", "s"),
    ("cover.PermutationDigraph", "s"),
    ("patch.merge_patch", "self_s"),
    ("patch.PermutationDigraph", "s"),
    ("verify.certificate_from_covers", "s"),
    ("verify.verify_packing", "s"),
    ("harness.run_trial", "self_s"),
    ("harness.run_pipeline", "self_s"),
]
# span call counts, run totals
LAYER_CALLS = ["model.SimpleDigraph", "cover.out_phase", "cover.in_phase",
               "cover.PermutationDigraph", "patch.PermutationDigraph"]
# counters read from returned values, run totals
LAYER_COUNTS = ["model.degree_vector_draws", "model.sampler_attempts",
                "matching.deficiency", "matching.boosters_consumed",
                "cover.iterations", "cover.second_attempts", "cover.w_size",
                "patch.merges", "patch.relaxed_merges"]
# spans whose self time is orchestration rather than layer work
_OUTSIDE_LAYERS = ("trial", "harness.run_trial", "harness.run_pipeline")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def trial_seeds(seed: int, trials: int) -> list[int]:
    """The run's trial seeds; a shorter list is a prefix of a longer one."""
    ss = np.random.SeedSequence(seed, spawn_key=(0,))
    return [int(s) for s in ss.generate_state(trials, dtype=np.uint32)]


def import_hampack(root: Path):
    """Import hampack from root/src, refusing any other installed copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hampack
    if Path(hampack.__file__).resolve().parent != src / "hampack":
        raise SystemExit(f"imported hampack from {hampack.__file__}, not {src}")
    return hampack


def cert_digest(cert) -> str:
    blob = json.dumps(cert.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@contextmanager
def captured_host(harness, box: list):
    """Keep the host each run_pipeline call returns, for the packing check."""
    inner = harness.run_pipeline

    def run_pipeline(*args, **kwargs):
        out = inner(*args, **kwargs)
        box.append(out[0])
        return out

    harness.run_pipeline = run_pipeline
    try:
        yield
    finally:
        harness.run_pipeline = inner


class Workload:
    """Inputs of one workload and its timed trial."""

    def __init__(self, spec: dict, seed: int, hp):
        self.spec = spec
        self.hp = hp
        n, c, k = self.spec["n"], self.spec["c"], self.spec["k"]
        if self.spec["kind"] == "trial":
            self.params = hp.ModelParams.make(n, c, k)
            self.edges = None
        else:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
            self.edges = hostgen.generate_host(n, c, k, rng)
            self.params = hp.ModelParams.from_nmk(n, len(self.edges), k)

    def trial(self, seed: int, rec: tracer.Recorder | None = None) -> dict:
        """Time one trial, then check its packing; returns its record."""
        span = rec.span("trial") if rec is not None else nullcontext()
        if self.spec["kind"] == "trial":
            harness = self.hp.harness
            box: list = []
            with captured_host(harness, box):
                with span:
                    t = time.perf_counter()
                    tr = harness.run_trial(self.params, seed)
                    elapsed = time.perf_counter() - t
            out = tr.canonical()
            host = box[0].edges if box else None
            cert = tr.certificate
        else:
            with span:
                t = time.perf_counter()
                out, cert = self._pack(seed)
                elapsed = time.perf_counter() - t
            host = self.edges
            if cert is not None:
                out["cert_digest"] = cert_digest(cert)
        out["time_s"] = elapsed
        out["check"] = None
        if out["outcome"] == "success":
            out["check"] = certcheck.packing_error(
                self.params.n, host, cert.cycles, cert.edge_ids)
        return out

    def _pack(self, seed: int):
        """The ``hampack pack --in`` path on the generated host."""
        hp = self.hp
        out = {"seed": seed, "outcome": "success", "detail": ""}
        try:
            sd = hp.model.SimpleDigraph(self.params.n, self.edges, self.params.k)
            _, cert, info = hp.harness.run_pipeline(
                self.params, hp.rng_stream(seed), sd=sd)
        except hp.PhaseFailure as exc:
            out.update(outcome=f"failure:{exc.phase}", detail=exc.detail)
            return out, None
        except hp.HampackError as exc:
            out.update(outcome="failure:sample", detail=str(exc))
            return out, None
        out["phase2_retries"] = [p.second_attempts for p in info["phase2"]]
        out["kappa"] = [p.kappa if p.kappa else 2 * p.merges
                        for p in info["phase3"]]
        out["search_nodes"] = [p.search_nodes for p in info["phase3"]]
        return out, cert


def same_records(a: list, b: list) -> list:
    """Seeds whose records differ outside their timings."""
    def strip(r):
        return {k: v for k, v in r.items() if k != "time_s"}
    return [x["seed"] for x, y in zip(a, b) if strip(x) != strip(y)]


def layer_metrics(rec: tracer.Recorder, trials: int,
                  untraced_s: float, traced_s: float) -> dict:
    totals = rec.totals()

    def get(span, field):
        return totals.get(span, {}).get(field, 0)

    out = {}
    for span, field in LAYER_TIMES:
        out[f"{span}.{field}"] = (get(span, field) / trials, "s")
    for span in LAYER_CALLS:
        out[f"{span}.calls"] = (get(span, "calls"), "count")
    for name in LAYER_COUNTS:
        out[name] = (int(rec.counts[name]), "count")
    for phase in ("cover.out_phase", "cover.in_phase"):
        calls = get(phase, "calls")
        closed = rec.counts[f"{phase}.closed"]
        out[f"{phase}.closed_share"] = (closed / calls if calls else 0.0, "ratio")
    outside = sum(get(span, "self_s") for span in _OUTSIDE_LAYERS)
    out["layer_span_share"] = (1.0 - outside / get("trial", "s"), "ratio")
    out["trace_overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def machine(hp) -> dict:
    import scipy
    mem_total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {"nproc": len(os.sched_getaffinity(0)), "mem_total_mb": mem_total >> 20,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "hampack": hp.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trials", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "setup", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() just before this process started")
    args = ap.parse_args(argv)
    root = Path.cwd()
    hp = import_hampack(root)
    wl = Workload(WORKLOADS[args.workload], args.seed, hp)
    seeds = trial_seeds(args.seed, args.trials)
    report = {"setup_s": time.monotonic() - args.t0, "machine": machine(hp)}
    if args.mode == "run":
        report["trials"] = [wl.trial(s) for s in seeds]
    elif args.mode == "trace":
        # each trial runs untraced, then traced, so both are equally warm
        rec = tracer.Recorder()
        plain, traced = [], []
        for i, s in enumerate(seeds):
            plain.append(wl.trial(s))
            rec.trial = i
            with tracer.bound(rec):
                traced.append(wl.trial(s, rec))
        report["trials"] = plain
        report["mismatched_seeds"] = same_records(plain, traced)
        report["layers"] = layer_metrics(
            rec, len(seeds), sum(t["time_s"] for t in plain),
            sum(t["time_s"] for t in traced))
        out_dir = root / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w",
                  encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trial"],
                       "spans": rec.spans}, fh)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
