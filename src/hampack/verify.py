"""Ground-truth checking for packings, plus model diagnostics.

The two verifiers trust nothing: Hamiltonicity is rechecked against the
host's ordered-pair set and disjointness against the pairs themselves,
not the edge-id bookkeeping of the pipeline.  The diagnostics compare a
host against the calibrated degree law (census cell by cell) and the
set-degree growth bound d(S) <= eta |S| log(n/|S|) with eta = e*z, and
return what `hampack stats census` and `stats expansion` print: the
census CSV text and the expansion report's JSON-ready dict.
An exhaustive oracle handles instances small enough to enumerate.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleSizeError
from .model import ModelParams, SimpleDigraph, TruncatedPoisson

__all__ = [
    "Check", "PackingCertificate",
    "verify_hamilton", "verify_packing", "certificate_from_covers",
    "degree_census", "expansion_check",
    "brute_force_packing",
]


@dataclass(frozen=True)
class Check:
    """Outcome of a verifier: truthy iff ok, with a reason code."""

    ok: bool
    reason: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


def _has_repeat(values: np.ndarray) -> bool:
    """True iff some value occurs twice (equal neighbours once sorted)."""
    s = np.sort(values)
    return bool(np.any(s[1:] == s[:-1]))


def verify_hamilton(sd: SimpleDigraph, cycle) -> Check:
    """True iff cycle visits every vertex once using edges of sd.

    The closing edge last -> first is required too.  False outcomes
    carry a reason code: length, range, repeat, or non-edge.
    """
    cyc = np.asarray(cycle, dtype=np.int64)
    if cyc.ndim != 1 or len(cyc) != sd.n or sd.n == 0:
        return Check(False, "length")
    if cyc.min() < 0 or cyc.max() >= sd.n:
        return Check(False, "range")
    if _has_repeat(cyc):
        return Check(False, "repeat")
    if (sd.edge_lookup(cyc, np.roll(cyc, -1)) < 0).any():
        return Check(False, "non-edge")
    return Check(True)


@dataclass
class PackingCertificate:
    """k vertex sequences with their edge-index lists.

    edge_ids[j][i] is the host edge cycles[j][i] -> cycles[j][i+1]
    (cyclically).  flags is filled in by verify_packing.
    """

    cycles: list
    edge_ids: list
    flags: list | None = None

    @property
    def k(self) -> int:
        return len(self.cycles)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "cycles": [np.asarray(c).tolist() for c in self.cycles],
            "edge_ids": [np.asarray(e).tolist() for e in self.edge_ids],
            "flags": self.flags,
        }


def certificate_from_covers(sd: SimpleDigraph, covers) -> PackingCertificate:
    """Read single-cycle covers (successor arrays with edge ids) into a
    certificate.  Each sequence starts at vertex 0: a one-cycle cover
    lists its cycle from its smallest vertex."""
    cycles = []
    edge_ids = []
    for pd in covers:
        if pd.num_cycles != 1 or pd.n != sd.n:
            raise ValueError("cover is not a single cycle through 0")
        cycles.append(pd.cycles[0])
        edge_ids.append(pd.edge_ids[pd.cycles[0]])
    return PackingCertificate(cycles=cycles, edge_ids=edge_ids)


def verify_packing(sd: SimpleDigraph, cert: PackingCertificate) -> Check:
    """All cycles Hamiltonian and pairwise edge-disjoint.

    Disjointness is on ordered pairs recomputed from the sequences, so
    a certificate with wrong edge_ids but honest cycles still gets an
    honest verdict.
    """
    flags = []
    reasons = []
    for cyc in cert.cycles:
        chk = verify_hamilton(sd, cyc)
        flags.append(chk.ok)
        reasons.append(chk.reason)
    cert.flags = flags
    if not all(flags):
        j = flags.index(False)
        return Check(False, f"cycle {j}: {reasons[j]}")
    if cert.k:
        all_codes = np.concatenate([
            np.asarray(cyc, dtype=np.int64) * sd.n + np.roll(cyc, -1)
            for cyc in cert.cycles])
        if _has_repeat(all_codes):
            return Check(False, "shared edge")
    return Check(True)


def degree_census(x, params: ModelParams) -> str:
    """Count vertices by (in, out) degree against the calibrated law, as
    CSV lines r,s,observed,expected,normalized.

    Expected cell mass is n pmf(r) pmf(s) under the truncated law, zero
    unless r, s >= k+1; the deviation is normalized by
    (1 + sqrt(expected)) log n so cells are comparable.  Floats are
    printed in their shortest round-trip form, so a cell expecting 1e-9
    vertices reads back as that, not as 0.
    """
    out, inn = x.out_deg, x.in_deg
    n = len(out)
    z = params.require_z()
    logn = math.log(max(n, 2))
    rmax = int(inn.max()) if n else 0
    smax = int(out.max()) if n else 0
    counts = np.zeros((rmax + 1, smax + 1), dtype=np.int64)
    np.add.at(counts, (inn, out), 1)
    pmf = list(map(TruncatedPoisson(z, params.k).pmf,
                   range(max(rmax, smax) + 1)))
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["r", "s", "observed", "expected", "normalized"])
    for r in range(rmax + 1):
        for s in range(smax + 1):
            obs = int(counts[r, s])
            exp = n * pmf[r] * pmf[s]
            if obs == 0 and exp < 1e-12:
                continue
            dev = abs(obs - exp) / ((1.0 + math.sqrt(exp)) * logn)
            w.writerow([r, s, obs, exp, dev])
    return buf.getvalue()


def expansion_check(sd: SimpleDigraph, params: ModelParams, samples: int,
                    rng: np.random.Generator) -> dict:
    """Sample vertex sets against d(S) <= eta |S| log(n/|S|), eta = e z.

    Sizes run over a log-spaced grid from k to n/2; in- and out-degree
    sums are checked separately (the bound is one-sided, violations
    only when a sum exceeds it).  Violating sets are kept verbatim so
    a recheck can reproduce them.  Returns the report `stats expansion`
    prints; it reads samples 0 when no set size fits between k and n/2.
    """
    n = sd.n
    eta = math.e * params.require_z()
    lo, hi = params.k, n // 2
    if hi < lo or samples <= 0:
        samples = 0
    else:
        grid = np.unique(np.round(np.exp(np.linspace(
            math.log(lo), math.log(hi), 24))).astype(np.int64))
        grid = grid[(grid >= lo) & (grid <= hi)]
    max_ratio = 0.0
    violations = []
    for i in range(samples):
        size = int(grid[i % len(grid)])
        s_set = rng.choice(n, size=size, replace=False)
        bound = eta * size * math.log(n / size)
        for side, deg in (("out", int(sd.out_deg[s_set].sum())),
                          ("in", int(sd.in_deg[s_set].sum()))):
            max_ratio = max(max_ratio, deg / bound)
            if deg > bound:
                violations.append({
                    "size": size, "side": side, "degree": deg,
                    "bound": bound, "vertices": np.sort(s_set).tolist()})
    return {"n": n, "c": params.c, "k": params.k, "samples": samples,
            "eta": eta, "max_ratio": max_ratio, "violations": violations}


def brute_force_packing(sd: SimpleDigraph, k: int,
                        ) -> PackingCertificate | None:
    """Exact decision procedure for k edge-disjoint Hamilton cycles.

    Backtracks over Hamilton cycles (anchored at vertex 0) for each
    layer, banning the edges of earlier layers.  Exhaustive, so None
    means no packing exists.
    """
    n = sd.n
    if n > 9:
        raise OracleSizeError(f"n={n} exceeds the n <= 9 enumeration cap")
    if n < 2 or k < 1:
        return None
    adj = [sorted(int(h) for h in sd.heads[sd.tails == v])
           for v in range(n)]

    def ham_cycles(banned):
        path = [0]
        used = [False] * n
        used[0] = True

        def extend():
            v = path[-1]
            if len(path) == n:
                if (v, 0) not in banned and 0 in adj[v]:
                    yield tuple(path)
                return
            for w in adj[v]:
                if not used[w] and (v, w) not in banned:
                    used[w] = True
                    path.append(w)
                    yield from extend()
                    path.pop()
                    used[w] = False

        yield from extend()

    def search(layer, banned):
        if layer == k:
            return []
        for cyc in ham_cycles(banned):
            pairs = set(zip(cyc, cyc[1:] + cyc[:1]))
            rest = search(layer + 1, banned | pairs)
            if rest is not None:
                return [cyc] + rest
        return None

    found = search(0, set())
    if found is None:
        return None
    cycles = [np.array(cyc, dtype=np.int64) for cyc in found]
    edge_ids = [sd.edge_lookup(cyc, np.roll(cyc, -1)) for cyc in cycles]
    return PackingCertificate(cycles=cycles, edge_ids=edge_ids)
