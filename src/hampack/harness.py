"""Trial orchestration, parameter sweeps, statistics, and the CLI.

A trial runs the full pipeline: sample a host, split the edges into
pools, build k matchings, repair each induced cover (small-cycle
sweep, then cycle merging), and verify the resulting packing.  Trials
are attributed: any phase that gives up turns into an outcome tag, not
a crash.

Determinism contract: every emitted number is a pure function of
(command, params, seed).  Sweep trials get their seeds from a
counter-based derivation of (seed base, cell index, trial index), so
summaries do not depend on worker count or scheduling.  Wall-clock
times stay out of canonical serializations: a sweep times each trial
as one call, failed trials included, and logs the t50/t90 per cell.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .cover import PhaseTwoBudget, eliminate_small_cycles
from .errors import (EdgeListFormatError, HampackError, OracleSizeError,
                     PhaseFailure)
from .matching import build_k_matchings, matching_to_cycle_cover
from .model import (
    ModelParams,
    TruncatedPoisson,
    pair_configuration,
    read_edge_list,
    sample_degree_sequence,
    sample_erased_digraph,
    sample_simple_digraph,
    simplicity_exponents,
    write_edge_list,
)
from .partition import compute_small, split_edges
from .patch import _cyclic_taus, count_r_phi, merge_patch
from .rng import derive_seed, rng_stream
from .verify import (
    brute_force_packing,
    certificate_from_covers,
    degree_census,
    expansion_check,
    verify_packing,
)

log = logging.getLogger("hampack")

SCHEMA = 2


# ---------------------------------------------------------------- pipeline


def run_pipeline(params: ModelParams, rng: np.random.Generator, sd=None):
    """sample -> partition -> matchings -> per-i repair -> verify.

    sd, when given, is packed in place of an erased-model sample.
    Returns (sd, certificate, info).  info carries the sampler attempt
    count and per-i phase stats.  Raises PhaseFailure (or a sampler
    error) when a phase gives up.
    """
    info = {"attempts": 0, "phase2": [], "phase3": []}
    if sd is None:
        sd, info["attempts"] = sample_erased_digraph(params, rng)
    part = split_edges(sd, params.k, rng)
    compute_small(sd, part, params.c, params.k)
    used = np.zeros(sd.m, dtype=bool)
    pms = build_k_matchings(sd, part, rng, used=used)

    budget = PhaseTwoBudget.for_model(params.n, params.c, params.k)
    covers = []
    for i in range(params.k):
        try:
            pd = matching_to_cycle_cover(pms[i])
            # release this matching's reservation: its own edges are fair
            # game for rotations, only other covers' edges stay off-limits
            used[pms[i].edge_ids] = False
            pd2, p2 = eliminate_small_cycles(
                pd, sd, part.reserve(3, i, used), rng, budget)
            info["phase2"].append(p2)

            ham, p3 = merge_patch(pd2, sd, part.reserve(4, i, used), rng,
                                  ~used)
            info["phase3"].append(p3)
            used[ham.edge_ids] = True
            covers.append(ham)
        except PhaseFailure as exc:
            exc.index = i
            raise
        log.debug("cover %d repaired: max |W|=%d merges=%d", i,
                  p2.w_size, p3.merges)

    cert = certificate_from_covers(sd, covers)
    chk = verify_packing(sd, cert)
    if not chk:
        raise PhaseFailure("verify", chk.reason)
    return sd, cert, info


# ------------------------------------------------------------------ trials


@dataclass
class TrialRecord:
    """One pipeline run, and its one serialized form: canonical() holds
    every field but the certificate body (the digest pins it down), plus
    the schema number.  Adding or dropping a field here changes the
    record."""

    seed: int
    n: int
    m: int
    k: int
    c: float
    z: float | None
    outcome: str
    attempts: int = 0
    phase2_retries: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
    cert_digest: str | None = None
    detail: str = ""
    certificate: object = None

    @property
    def success(self) -> bool:
        return self.outcome == "success"

    def canonical(self) -> dict:
        return {"schema": SCHEMA} | {f.name: getattr(self, f.name)
                                     for f in fields(self)
                                     if f.name != "certificate"}

    def to_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)


def _cert_digest(cert) -> str:
    blob = json.dumps(cert.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_trial(params: ModelParams, seed: int, sd=None) -> TrialRecord:
    """Deterministic single trial; failures become outcome tags.  sd,
    when given, is the host to pack in place of a sampled one."""
    rec = TrialRecord(seed=seed, n=params.n, m=params.m, k=params.k,
                      c=params.c, z=params.z, outcome="")
    rng = rng_stream(seed)
    try:
        sd, cert, info = run_pipeline(params, rng, sd=sd)
    except PhaseFailure as exc:
        rec.outcome = f"failure:{exc.phase}"
        rec.detail = exc.detail
        log.info("trial seed=%d failed: %s", seed, exc)
        return rec
    except HampackError as exc:
        rec.outcome = "failure:sample"
        rec.detail = str(exc)
        log.info("trial seed=%d failed while sampling: %s", seed, exc)
        return rec
    except ValueError as exc:
        # a broken internal invariant (say, a cover that is not a
        # permutation): the trial fails, the sweep goes on
        rec.outcome = "failure:internal"
        rec.detail = str(exc)
        log.warning("trial seed=%d failed internally: %s", seed, exc)
        return rec
    rec.outcome = "success"
    rec.attempts = info["attempts"]
    rec.phase2_retries = [p.second_attempts for p in info["phase2"]]
    # each merge is a kappa = 2 exchange; count them in that unit
    rec.kappa = [2 * p.merges for p in info["phase3"]]
    rec.cert_digest = _cert_digest(cert)
    rec.certificate = cert
    return rec


# ------------------------------------------------------------------ sweeps


@dataclass(frozen=True)
class SweepRow:
    n: int
    c: float
    k: int
    m: int
    trials: int
    successes: int
    failures: str  # "tag=count;..." sorted by tag
    attempts_mean: float
    kappa_mean: float

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


CSV_COLUMNS = ["schema", "n", "c", "k", "m", "trials", "successes",
               "rate", "failures", "attempts_mean", "kappa_mean"]


@dataclass
class SweepSummary:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in self.rows:
            w.writerow([SCHEMA, r.n, f"{r.c:g}", r.k, r.m, r.trials,
                        r.successes, f"{r.rate:.4f}", r.failures,
                        f"{r.attempts_mean:.3f}", f"{r.kappa_mean:.3f}"])
        return buf.getvalue()


def _sweep_one(spec):
    ci, params, seed = spec
    t = time.perf_counter()
    rec = run_trial(params, seed)
    seconds = time.perf_counter() - t
    rec.certificate = None  # sweeps read the digest: keep n*k ints out of IPC
    return ci, rec, seconds


def run_sweep(cells: list, trials: int, seed: int,
              workers: int = 1) -> SweepSummary:
    """Cells x seeded trials; summary is worker-invariant.

    cells are ModelParams in grid order: cell ci's trial seeds derive
    from (seed, ci), and the summary has one row per cell in that order.
    """
    specs = [(ci, params, derive_seed(seed, ci, t))
             for ci, params in enumerate(cells) for t in range(trials)]
    # a pool starts all its processes at the first submit: cap their count
    workers = min(workers, len(specs), os.cpu_count() or 1)
    if workers <= 1:
        results = [_sweep_one(s) for s in specs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, specs))
    by_cell = {}
    for ci, rec, seconds in results:
        by_cell.setdefault(ci, []).append((rec, seconds))
    rows = []
    for ci, params in enumerate(cells):
        cell = by_cell.get(ci, [])
        recs = sorted((r for r, _ in cell), key=lambda r: r.seed)
        succ = [r for r in recs if r.success]
        tags = {}
        for r in recs:
            if not r.success:
                tag = r.outcome.split(":", 1)[1]
                tags[tag] = tags.get(tag, 0) + 1
        failures = ";".join(f"{t}={tags[t]}" for t in sorted(tags))

        def mean(vals):
            vals = list(vals)
            return sum(vals) / len(vals) if vals else 0.0

        rows.append(SweepRow(
            n=params.n, c=params.c, k=params.k, m=params.m,
            trials=len(recs), successes=len(succ), failures=failures,
            attempts_mean=mean(r.attempts for r in succ),
            kappa_mean=mean(sum(r.kappa) for r in succ)))
        if cell:
            qs = np.percentile([s for _, s in cell], [50, 90])
            log.info("cell n=%s c=%s k=%s: t50=%.2fs t90=%.2fs",
                     params.n, params.c, params.k, qs[0], qs[1])
    return SweepSummary(rows=rows)


# -------------------------------------------------------------- statistics


def permutation_cycle_lengths(n: int, rng: np.random.Generator) -> list:
    """Cycle lengths of a uniform random permutation of [n].

    Generated directly: the cycle through a fixed element is uniform
    on {1..n} and the rest is again uniform, so lengths can be drawn
    sequentially without materializing the permutation.  Exact, and
    O(number of cycles) per sample.
    """
    out = []
    rem = n
    while rem:
        ell = int(rng.integers(1, rem + 1))
        out.append(ell)
        rem -= ell
    return out


def stats_perm_cycles(n: int, samples: int, seed: int,
                      short: int = 10) -> dict:
    """Short-cycle statistics of uniform random covers.

    Checks the three cover facts the repair phases lean on: vertices
    on cycles of length <= s average to s, the number of cycles of
    length <= 3 is asymptotically Poisson(11/6), and almost every
    cover has at most 2 log n cycles.
    """
    rng = rng_stream(seed, 60)
    on_short = np.empty(samples)
    tri_count = np.empty(samples)
    few = 0
    limit = 2.0 * math.log(n)
    for i in range(samples):
        lens = permutation_cycle_lengths(n, rng)
        on_short[i] = sum(l for l in lens if l <= short)
        tri_count[i] = sum(1 for l in lens if l <= 3)
        if len(lens) <= limit:
            few += 1
    return {
        "n": n, "samples": samples, "short": short,
        "vertices_on_short_mean": float(on_short.mean()),
        "vertices_on_short_se": float(on_short.std(ddof=1)
                                      / math.sqrt(samples)),
        "short_expected": float(short),
        "tricycle_mean": float(tri_count.mean()),
        "tricycle_se": float(tri_count.std(ddof=1) / math.sqrt(samples)),
        "tricycle_expected": 11.0 / 6.0,
        "few_cycles_fraction": few / samples,
        "cycle_budget": limit,
    }


def stats_simplicity_rate(params: ModelParams, attempts: int,
                          seed: int) -> dict:
    """Observed simple-pairing rate vs the two analytic exponents.

    One typical degree sequence backs all pairings: the loop/duplicate
    moments are functions of the sequence only through sums that
    concentrate, and the analysis itself conditions on the sequence.
    """
    rng = rng_stream(seed, 61)
    simple = 0
    ds = sample_degree_sequence(params, rng)
    for _ in range(attempts):
        cd = pair_configuration(ds, rng)
        simple += cd.is_simple()
    loop_exp, beta, beta2 = simplicity_exponents(params)
    return {
        "n": params.n, "c": params.c, "k": params.k,
        "attempts": attempts, "observed_rate": simple / attempts,
        "predicted_rate": math.exp(-(loop_exp + beta)),
        "predicted_rate_second_order": math.exp(-(loop_exp + beta2)),
        "loop_exponent": loop_exp,
        "duplicate_exponent": beta,
        "duplicate_exponent_second_order": beta2,
    }


def _chi_square_p(observed: np.ndarray, expected: np.ndarray) -> float:
    stat = float(((observed - expected) ** 2 / expected).sum())
    dof = len(observed) - 1
    from scipy.stats import chi2
    return float(chi2.sf(stat, dof))


def stats_degree_gof(params: ModelParams, seed: int,
                     reseeds: int = 3) -> dict:
    """Chi-square fit of sampled out-degrees to the truncated law.

    At each end, every bin beyond the outermost one expecting 5 or more
    vertices (at tiny n: of the two largest) is folded into it.  Retries
    with derived seeds are budgeted: a uniform sampler still fails a
    fixed-level test at its stated rate.
    """
    n, k = params.n, params.k
    tp = TruncatedPoisson(params.require_z(), k)
    p_values = []
    for attempt in range(1 + reseeds):
        rng = rng_stream(derive_seed(seed, attempt), 62)
        ds = sample_degree_sequence(params, rng)
        degs = ds.out_deg
        jmax = int(degs.max())
        obs = np.bincount(degs, minlength=jmax + 1)[k + 1:].astype(float)
        exp = np.array([n * tp.pmf(j) for j in range(k + 1, jmax + 1)])
        exp[-1] += max(0.0, n - exp.sum())  # fold the open tail in
        big = exp >= min(5.0, np.sort(exp)[-2:][0])
        lo, hi = big.argmax(), len(big) - 1 - big[::-1].argmax()
        starts = np.r_[0, np.arange(lo + 1, hi + 1)]
        obs, exp = np.add.reduceat(obs, starts), np.add.reduceat(exp, starts)
        p = _chi_square_p(obs, exp)
        p_values.append(p)
        if p > 0.01:
            break
    return {
        "n": n, "c": params.c, "k": k, "seed": seed,
        "p_values": p_values,
        "passed": any(p > 0.01 for p in p_values),
        "bins": len(obs),
    }


def stats_partition_sizes(params: ModelParams, runs: int,
                          seed: int) -> dict:
    """Pool-size concentration and exactness of the edge split.

    One host, many splits: reports the worst |size - m/4k| in sigma
    units over all pools and runs, plus overlap/coverage violations
    (always zero by construction; counted anyway): each edge carries one
    pool label, so a run violates only if some label is out of range.
    """
    k = params.k
    sd, _ = sample_erased_digraph(params, rng_stream(seed, 63))
    m = sd.m
    target = m / (4 * k)
    sigma = math.sqrt(m * (1 / (4 * k)) * (1 - 1 / (4 * k)))
    worst = 0.0
    violations = 0
    for r in range(runs):
        part = split_edges(sd, k, rng_stream(derive_seed(seed, r), 64))
        sizes = np.bincount(part.pool, minlength=4 * k)
        worst = max(worst, float(np.abs(sizes[:4 * k] - target).max()
                                 / sigma))
        violations += len(sizes) != 4 * k
    return {
        "n": params.n, "c": params.c, "k": k,
        "runs": runs, "m": m, "target": target, "sigma": sigma,
        "worst_abs_deviation_sigmas": worst,
        "overlap_or_coverage_violations": violations,
    }


def stats_small_size(params: ModelParams, seed: int) -> dict:
    """Size of the low-degree exception set and its incident edges."""
    n, c, k = params.n, params.c, params.k
    rng = rng_stream(seed, 65)
    sd, _ = sample_erased_digraph(params, rng)
    part = split_edges(sd, k, rng)
    small, e_small = compute_small(sd, part, c, k)
    return {
        "n": n, "c": c, "k": k,
        "threshold": c / (8 * k),
        "small_vertices": int(small.sum()),
        "small_edges": int(e_small.sum()),
        "small_fraction": float(small.sum() / n),
    }


def _odd_partitions(total: int, largest: int | None = None):
    if largest is None:
        largest = total if total % 2 else total - 1
    if total == 0:
        yield ()
        return
    first = min(largest, total)
    if first % 2 == 0:
        first -= 1
    for part in range(first, 0, -2):
        for rest in _odd_partitions(total - part, part):
            yield (part,) + rest


def stats_rphi(kappa: int) -> dict:
    """|R_phi| per odd cycle type of a given kappa, with the factorial
    bracket (kappa-2)! <= |R_phi| <= (kappa-1)!."""
    next(_cyclic_taus(kappa))  # refuses kappa < 2 or > 10 before factorials
    lo = math.factorial(kappa - 2)
    hi = math.factorial(kappa - 1)
    rows = []
    for parts in _odd_partitions(kappa):
        phi = []
        base = 0
        for kj in parts:
            phi.extend(base + ((s - 1) % kj) for s in range(kj))
            base += kj
        size = count_r_phi(np.array(phi, dtype=np.int64))
        rows.append({"type": list(parts), "r_phi": size,
                     "lower": lo, "upper": hi,
                     "within": lo <= size <= hi})
    return {"kappa": kappa, "rows": rows}


def stats_census(params: ModelParams, seed: int) -> str:
    sd, _ = sample_erased_digraph(params, rng_stream(seed, 66))
    return degree_census(sd, params).to_csv()


def stats_expansion(params: ModelParams, samples: int, seed: int) -> dict:
    sd, _ = sample_erased_digraph(params, rng_stream(seed, 67))
    rep = expansion_check(sd, params, samples, rng_stream(seed, 68))
    return {
        "n": params.n, "c": params.c, "k": params.k,
        "samples": rep.checked, "eta": rep.eta, "max_ratio": rep.max_ratio,
        "violations": [
            {"size": v.size, "side": v.side, "degree": v.degree,
             "bound": v.bound, "vertices": list(v.vertices)}
            for v in rep.violations],
    }


# --------------------------------------------------------------------- CLI


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not 2
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """A bad model parameter, grid or option mix: main prints it and
    exits 64, as it does for a malformed or unopenable file and an
    oversized oracle."""


def _at_least(lo: int):
    """argparse type: an int no smaller than lo."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_POSITIVE = _at_least(1)


def _model_params(n: int, c: float, k: int) -> ModelParams:
    """ModelParams.make, with its refusals as usage errors."""
    try:
        return ModelParams.make(n, c, k)
    except (ValueError, HampackError) as exc:
        raise _UsageError(exc) from exc


def _parse_grid(spec: str):
    """'n=1000,2000;c=20,50;k=1' -> (ns, cs, ks), each field once."""
    fields = {}
    for chunk in spec.split(";"):
        if "=" not in chunk:
            raise ValueError(f"bad grid chunk {chunk!r}")
        key, vals = chunk.split("=", 1)
        key = key.strip()
        if key not in ("n", "c", "k"):
            raise ValueError(f"unknown grid field {key!r}")
        if key in fields:
            raise ValueError(f"grid field {key!r} given twice")
        fields[key] = [v for v in vals.split(",") if v]
        if not fields[key]:
            raise ValueError(f"grid field {key!r} has no values")
    missing = {"n", "c", "k"} - set(fields)
    if missing:
        raise ValueError(f"grid is missing {sorted(missing)}")
    return ([int(v) for v in fields["n"]],
            [float(v) for v in fields["c"]],
            [int(v) for v in fields["k"]])


def _add_model_args(p, seed_default=0):
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--k", type=_POSITIVE, required=True)
    p.add_argument("--seed", type=int, default=seed_default)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hampack",
        description="Sample conditioned random digraphs and pack "
                    "edge-disjoint Hamilton cycles.",
        epilog="Sweep CSV columns: " + ",".join(CSV_COLUMNS)
               + ". Set HAMPACK_LOG=DEBUG (or INFO) for phase traces.")
    sub = p.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    ps = sub.add_parser("sample", help="sample a host digraph")
    _add_model_args(ps)
    ps.add_argument("--host", choices=["erased", "exact"], default="erased")
    ps.add_argument("--out", required=True)

    pp = sub.add_parser("pack", help="run the full pipeline once")
    pp.add_argument("--in", dest="infile")
    pp.add_argument("--n", type=_POSITIVE)
    pp.add_argument("--c", type=float)
    pp.add_argument("--k", type=_POSITIVE)
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--cert-out")

    pw = sub.add_parser("sweep", help="trial grid with per-cell summary")
    pw.add_argument("--grid", required=True,
                    help="e.g. 'n=1000,2000;c=20,50;k=1'")
    pw.add_argument("--trials", type=_POSITIVE, required=True)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--workers", type=_POSITIVE, default=1)
    pw.add_argument("--out", help="CSV path (default: stdout)")

    pt = sub.add_parser("stats", help="model and phase diagnostics")
    st = pt.add_subparsers(dest="subcmd", required=True,
                           parser_class=_Parser)

    s = st.add_parser("simplicity-rate")
    _add_model_args(s)
    s.add_argument("--attempts", type=_POSITIVE, default=500)

    s = st.add_parser("degree-gof")
    _add_model_args(s)
    s.add_argument("--reseeds", type=_at_least(0), default=3)

    s = st.add_parser("partition-sizes")
    _add_model_args(s)
    s.add_argument("--runs", type=_POSITIVE, default=200)

    s = st.add_parser("small-size")
    _add_model_args(s)

    s = st.add_parser("perm-cycles")
    s.add_argument("--n", type=_POSITIVE, required=True)
    # a standard error needs two samples
    s.add_argument("--samples", type=_at_least(2), default=10000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--short", type=_POSITIVE, default=10)

    s = st.add_parser("rphi")
    s.add_argument("--kappa", type=_at_least(2), required=True)

    s = st.add_parser("census")
    _add_model_args(s)

    s = st.add_parser("expansion")
    _add_model_args(s)
    s.add_argument("--samples", type=_POSITIVE, default=1000)

    po = sub.add_parser("oracle", help="exhaustive packing on tiny hosts")
    po.add_argument("--in", dest="infile", required=True)
    po.add_argument("--k", type=_POSITIVE, required=True)

    return p


def _cmd_sample(args) -> int:
    params = _model_params(args.n, args.c, args.k)
    sampler = (sample_erased_digraph if args.host == "erased"
               else sample_simple_digraph)
    # opened before sampling: a path that cannot be written costs no sample
    with open(args.out, "w", encoding="ascii") as fh:
        sd, attempts = sampler(params, rng_stream(args.seed))
        write_edge_list(sd, fh)
    print(f"n={sd.n} m={sd.m} k={sd.k} attempts={attempts} -> {args.out}")
    return 0


def _cmd_pack(args) -> int:
    if args.infile:
        if args.n is not None or args.c is not None:
            raise _UsageError(
                "--in takes n and c from the file: drop --n, --c")
        sd = read_edge_list(args.infile)
        params = ModelParams.from_nmk(sd.n, sd.m,
                                      sd.k if args.k is None else args.k)
    else:
        if args.n is None or args.c is None or args.k is None:
            raise _UsageError("pack needs --in or all of --n --c --k")
        params, sd = _model_params(args.n, args.c, args.k), None
    rec = run_trial(params, args.seed, sd=sd)
    if not rec.success:
        print(f"{rec.outcome}: {rec.detail}", file=sys.stderr)
        return 2
    cert = rec.certificate
    if args.cert_out:  # first: a path that cannot be written prints nothing
        with open(args.cert_out, "w", encoding="ascii") as fh:
            json.dump(cert.as_dict(), fh, sort_keys=True)
            fh.write("\n")
    for cyc in cert.cycles:
        print(" ".join(str(int(v)) for v in cyc))
    print(rec.to_json())
    return 0


def _cmd_sweep(args) -> int:
    try:
        ns, cs, ks = _parse_grid(args.grid)
    except ValueError as exc:
        raise _UsageError(exc) from exc
    cells = [_model_params(n, c, k)  # refusals are usage errors
             for n, c, k in itertools.product(ns, cs, ks)]
    # opened before the first trial: a path that cannot be written costs none
    with (open(args.out, "w", encoding="ascii") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(run_sweep(cells, args.trials, args.seed,
                           workers=args.workers).to_csv())
    return 0


def _cmd_stats(args) -> int:
    params = (None if args.subcmd in ("perm-cycles", "rphi")
              else _model_params(args.n, args.c, args.k))
    if args.subcmd == "simplicity-rate":
        out = stats_simplicity_rate(params, args.attempts, args.seed)
    elif args.subcmd == "degree-gof":
        out = stats_degree_gof(params, args.seed, reseeds=args.reseeds)
    elif args.subcmd == "partition-sizes":
        out = stats_partition_sizes(params, args.runs, args.seed)
    elif args.subcmd == "small-size":
        out = stats_small_size(params, args.seed)
    elif args.subcmd == "perm-cycles":
        out = stats_perm_cycles(args.n, args.samples, args.seed,
                                short=args.short)
    elif args.subcmd == "rphi":
        out = stats_rphi(args.kappa)
    elif args.subcmd == "census":
        sys.stdout.write(stats_census(params, args.seed))
        return 0
    else:  # expansion: argparse admits no other subcommand
        out = stats_expansion(params, args.samples, args.seed)
    print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_oracle(args) -> int:
    cert = brute_force_packing(read_edge_list(args.infile), args.k)
    if cert is None:
        print(f"no packing of {args.k} edge-disjoint Hamilton cycles")
        return 2
    for cyc in cert.cycles:
        print(" ".join(str(int(v)) for v in cyc))
    return 0


def main(argv=None) -> int:
    level = os.environ.get("HAMPACK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    command = {"sample": _cmd_sample, "pack": _cmd_pack, "sweep": _cmd_sweep,
               "stats": _cmd_stats, "oracle": _cmd_oracle}[args.cmd]
    cmd = " ".join((args.cmd, getattr(args, "subcmd", ""))).strip()
    try:
        return command(args)
    except (_UsageError, EdgeListFormatError, OracleSizeError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            raise  # not a file argument: a failed fork, say
        print(f"hampack {cmd}: {exc}", file=sys.stderr)
        return 64
    except HampackError as exc:  # a sampler that gave up, say
        print(f"hampack {cmd}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
