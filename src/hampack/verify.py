"""Ground-truth checking for packings, plus model diagnostics.

The two verifiers trust nothing: Hamiltonicity is rechecked against the
host's ordered-pair set and disjointness against the pairs themselves,
not the edge-id bookkeeping of the pipeline.  The diagnostics compare a
host against the calibrated degree law (census cell by cell) and the
set-degree growth bound d(S) <= eta |S| log(n/|S|) with eta = e*z.
An exhaustive oracle handles instances small enough to enumerate.
"""

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleSizeError
from .model import ModelParams, SimpleDigraph, TruncatedPoisson

__all__ = [
    "Check", "PackingCertificate",
    "verify_hamilton", "verify_packing", "certificate_from_covers",
    "CensusReport", "degree_census",
    "ExpansionReport", "expansion_check",
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


@dataclass(frozen=True)
class CensusRow:
    r: int
    s: int
    observed: int
    expected: float
    normalized: float


@dataclass
class CensusReport:
    n: int
    k: int
    z: float
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        """One line per row; floats in their shortest round-trip form, so
        a cell expecting 1e-9 vertices reads back as that, not as 0."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["r", "s", "observed", "expected", "normalized"])
        for row in self.rows:
            w.writerow([row.r, row.s, row.observed, row.expected,
                        row.normalized])
        return buf.getvalue()


def degree_census(x, params: ModelParams) -> CensusReport:
    """Count vertices by (in, out) degree against the calibrated law.

    Expected cell mass is n pmf(r) pmf(s) under the truncated law, zero
    unless r, s >= k+1; the deviation is normalized by
    (1 + sqrt(expected)) log n so cells are comparable.
    """
    out, inn = x.out_deg, x.in_deg
    n = len(out)
    z = params.require_z()
    k = params.k
    logn = math.log(max(n, 2))
    rmax = int(inn.max()) if n else 0
    smax = int(out.max()) if n else 0
    counts = np.zeros((rmax + 1, smax + 1), dtype=np.int64)
    np.add.at(counts, (inn, out), 1)
    pmf = list(map(TruncatedPoisson(z, k).pmf, range(max(rmax, smax) + 1)))
    rows = []
    for r in range(rmax + 1):
        for s in range(smax + 1):
            obs = int(counts[r, s])
            exp = n * pmf[r] * pmf[s]
            if obs == 0 and exp < 1e-12:
                continue
            dev = abs(obs - exp) / ((1.0 + math.sqrt(exp)) * logn)
            rows.append(CensusRow(r=r, s=s, observed=obs, expected=exp,
                                  normalized=dev))
    return CensusReport(n=n, k=k, z=z, rows=rows)


@dataclass(frozen=True)
class ExpansionViolation:
    size: int
    side: str
    degree: int
    bound: float
    vertices: tuple


@dataclass
class ExpansionReport:
    n: int
    eta: float
    checked: int
    max_ratio: float
    violations: list = field(default_factory=list)


def expansion_check(sd: SimpleDigraph, params: ModelParams, samples: int,
                    rng: np.random.Generator) -> ExpansionReport:
    """Sample vertex sets against d(S) <= eta |S| log(n/|S|), eta = e z.

    Sizes run over a log-spaced grid from k to n/2; in- and out-degree
    sums are checked separately (the bound is one-sided, violations
    only when a sum exceeds it).  Violating sets are kept verbatim so
    a recheck can reproduce them.
    """
    n = sd.n
    z = params.require_z()
    eta = math.e * z
    lo, hi = params.k, n // 2
    if hi < lo or samples <= 0:
        return ExpansionReport(n=n, eta=eta, checked=0, max_ratio=0.0)
    grid = np.unique(np.round(np.exp(np.linspace(
        math.log(lo), math.log(hi), 24))).astype(np.int64))
    grid = grid[(grid >= lo) & (grid <= hi)]
    checked = 0
    max_ratio = 0.0
    violations = []
    for i in range(samples):
        size = int(grid[i % len(grid)])
        s_set = rng.choice(n, size=size, replace=False)
        bound = eta * size * math.log(n / size)
        for side, deg in (("out", int(sd.out_deg[s_set].sum())),
                          ("in", int(sd.in_deg[s_set].sum()))):
            ratio = deg / bound
            if ratio > max_ratio:
                max_ratio = ratio
            if deg > bound:
                violations.append(ExpansionViolation(
                    size=size, side=side, degree=deg, bound=bound,
                    vertices=tuple(int(v) for v in np.sort(s_set))))
        checked += 1
    return ExpansionReport(n=n, eta=eta, checked=checked,
                           max_ratio=max_ratio, violations=violations)


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
