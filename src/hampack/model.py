"""Random digraph model with a minimum in/out-degree condition.

A digraph on n vertices with m = c*n edges is drawn conditioned on
every in-degree and out-degree being at least k+1.  Degrees follow a
truncated Poisson law

    P(Z = j) = z^j / (j! * f_{k+1}(z)),        j >= k+1,

where f_l(z) = sum_{j>=l} z^j / j! and z is calibrated so that the mean

    rho(z) = z * f_k(z) / f_{k+1}(z)

equals c.  Such z exists and is unique for c > k+1 and lies strictly
inside (c-(k+1), c).

Sampling proceeds in three stages:

1. draw n iid truncated-Poisson out-degrees conditioned on their sum
   being exactly m (full-vector rejection), and independently the
   in-degrees;
2. pair degree slots uniformly at random (bipartite configuration
   model): edge j of the multigraph is (heads[j], tails[j]) where heads
   is a uniform shuffle of the out-degree multiset and tails of the
   in-degree multiset;
3. either reject non-simple pairings outright (exactly uniform over
   simple digraphs, but the acceptance rate decays like
   exp(-rho^2/c - O(c)), which is astronomically small beyond c ~ 5),
   or erase loops and duplicate ordered pairs (near-uniform, and the
   only practical option at the mean degrees where Hamilton packing is
   interesting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConditioningFailureError, EdgeListFormatError,
                     InfeasibleDegreeError, PhaseFailure, RejectionStallError,
                     TailUnderflowError)

__all__ = [
    "tail_sum", "rho", "sigma2", "solve_z", "ModelParams", "TruncatedPoisson",
    "DegreeSequence", "conditioned_degree_vector", "sample_degree_sequence",
    "ConfigDigraph", "pair_configuration", "duplicate_pair_count",
    "pair_csr", "SimpleDigraph", "sample_simple_digraph",
    "sample_erased_digraph",
    "simplicity_exponents", "write_edge_list", "read_edge_list",
]

# largest x with exp(x) finite in float64
_EXP_MAX = 709.0


def tail_sum(ell: int, z: float) -> float:
    """Poisson tail sum f_ell(z) = sum_{j >= ell} z^j / j!.

    Relative error is a few ulps (well below 1e-12).  For ell <= z the
    tail dominates e^z, so it is computed as e^z minus the short head;
    for ell > z the head would cancel catastrophically and the tail is
    summed forward instead.
    """
    if z <= 0.0:
        raise ValueError("z must be positive")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell == 0:
        if z > _EXP_MAX:
            raise TailUnderflowError("tail overflow: e^z not representable")
        return math.exp(z)
    if ell <= z:
        if z > _EXP_MAX:
            raise TailUnderflowError("tail overflow: e^z not representable")
        head = []
        t = 1.0
        for j in range(ell):
            head.append(t)
            t *= z / (j + 1)
        return math.exp(z) - math.fsum(head)
    # forward summation from j = ell
    log_t = ell * math.log(z) - math.lgamma(ell + 1)
    if log_t < -745.0:
        raise TailUnderflowError("tail underflow")
    t = math.exp(log_t)
    total = 0.0
    j = ell
    while True:
        total += t
        j += 1
        t *= z / j
        if t < total * 1e-18:
            break
        if j > ell + 100000:  # pragma: no cover - unreachable for sane input
            break
    if total == 0.0:
        raise TailUnderflowError("tail underflow")
    return total


def rho(z: float, k: int) -> float:
    """Mean of the truncated Poisson: z * f_k(z) / f_{k+1}(z)."""
    return z * tail_sum(k, z) / tail_sum(k + 1, z)


def sigma2(z: float, k: int) -> float:
    """Variance of the truncated Poisson.

    z^2 f_{k-1}/f_{k+1} + z f_k/f_{k+1} - (z f_k/f_{k+1})^2, with
    f_{-1} read as f_0 + nothing extra needed since k >= 1 here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    f_k1 = tail_sum(k + 1, z)
    mean = z * tail_sum(k, z) / f_k1
    second_fact = z * z * tail_sum(k - 1, z) / f_k1
    return second_fact + mean - mean * mean


def solve_z(c: float, k: int) -> float:
    """Unique z with rho(z) = c, located by bisection on (c-(k+1), c).

    rho is strictly increasing on the bracket; the returned z satisfies
    |rho(z) - c| <= 1e-10.
    """
    if c <= k + 1:
        raise InfeasibleDegreeError(
            f"mean degree c={c} requires c > k+1 = {k + 1}")
    lo = c - (k + 1)
    hi = float(c)
    if lo <= 0.0:  # pragma: no cover - impossible given the check above
        lo = 1e-12
    flo = rho(lo, k) - c
    fhi = rho(hi, k) - c
    # for large c the root hugs c so tightly that rho(c) rounds to c
    if abs(fhi) <= 1e-10:
        return hi
    if abs(flo) <= 1e-10:  # pragma: no cover - only near c = k+1
        return lo
    if not (flo < 0.0 < fhi):
        raise InfeasibleDegreeError(
            f"bracket failure for c={c}, k={k}: rho({lo})-c={flo}, "
            f"rho({hi})-c={fhi}")
    z = 0.5 * (lo + hi)
    for _ in range(300):
        z = 0.5 * (lo + hi)
        fz = rho(z, k) - c
        if abs(fz) <= 1e-10:
            return z
        if fz < 0.0:
            lo = z
        else:
            hi = z
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    fz = rho(z, k) - c
    if abs(fz) > 1e-10:  # pragma: no cover - float64 always converges
        raise InfeasibleDegreeError(f"solve_z stalled at z={z}, residual={fz}")
    return z


@dataclass(frozen=True)
class ModelParams:
    """Immutable description of one model point (n, c, k).

    m = c*n must be an integer; z is the calibrated truncated-Poisson
    parameter (None only for digraphs loaded from files whose c is not
    above k+1, where no calibration is possible or needed).
    """

    n: int
    c: float
    k: int
    m: int
    z: float | None

    @classmethod
    def make(cls, n: int, c: float, k: int) -> "ModelParams":
        if n < 1:
            raise ValueError("n must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        m_real = c * n
        m = int(round(m_real))
        if abs(m_real - m) > 1e-9:
            raise ValueError(f"c*n = {m_real} is not an integer")
        z = solve_z(c, k)
        return cls(n=n, c=float(c), k=k, m=m, z=z)

    @classmethod
    def from_nmk(cls, n: int, m: int, k: int) -> "ModelParams":
        c = m / n
        z = solve_z(c, k) if c > k + 1 else None
        return cls(n=n, c=c, k=k, m=m, z=z)

    def require_z(self) -> float:
        if self.z is None:
            raise InfeasibleDegreeError(
                f"c={self.c} <= k+1={self.k + 1}: no truncated-Poisson fit")
        return self.z


class TruncatedPoisson:
    """Sampler for Poisson(z) conditioned on Z >= k+1.

    Sampling walks the inverse CDF starting at j = k+1.  The cumulative
    table is precomputed once (the neglected tail mass is below 1e-16
    relative) and uniform draws are mapped through searchsorted, which
    is the same walk evaluated in bulk.
    """

    def __init__(self, z: float, k: int):
        if z <= 0.0:
            raise ValueError("z must be positive")
        self.z = float(z)
        self.k = int(k)
        self.lo = k + 1
        self._norm = tail_sum(k + 1, z)
        probs = []
        t = math.exp((k + 1) * math.log(z) - math.lgamma(k + 2)) / self._norm
        j = self.lo
        acc = 0.0
        while True:
            probs.append(t)
            acc += t
            j += 1
            t *= z / j
            if t < 1e-17 and acc > 0.5:
                break
            if len(probs) > 200000:  # pragma: no cover
                raise TailUnderflowError("pmf table blow-up")
        self._cdf = np.cumsum(np.asarray(probs))

    def pmf(self, j: int) -> float:
        """P(Z = j) = z^j / (j! f_{k+1}(z)), zero below the truncation."""
        if j < self.lo:
            return 0.0
        return math.exp(j * math.log(self.z) - math.lgamma(j + 1)) / self._norm

    def mean(self) -> float:
        return rho(self.z, self.k)

    def variance(self) -> float:
        return sigma2(self.z, self.k)

    def sample(self, rng: np.random.Generator, size=None):
        u = rng.random(size)
        idx = np.searchsorted(self._cdf, u, side="right")
        idx = np.minimum(idx, len(self._cdf) - 1)
        if size is None:
            return int(self.lo + idx)
        return (self.lo + idx).astype(np.int64)


@dataclass
class DegreeSequence:
    """Paired out/in degree vectors with equal sums."""

    out_deg: np.ndarray
    in_deg: np.ndarray

    def __post_init__(self):
        self.out_deg = np.asarray(self.out_deg, dtype=np.int64)
        self.in_deg = np.asarray(self.in_deg, dtype=np.int64)
        if self.out_deg.shape != self.in_deg.shape:
            raise ValueError("out/in degree vectors differ in length")
        if int(self.out_deg.sum()) != int(self.in_deg.sum()):
            raise ValueError("degree sums differ")

    @property
    def n(self) -> int:
        return len(self.out_deg)

    @property
    def m(self) -> int:
        return int(self.out_deg.sum())


_BATCH_ROWS = 64


def conditioned_degree_vector(params: ModelParams,
                              rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """One n-vector of iid truncated-Poisson draws conditioned on sum m.

    Conditioning is by rejection: the whole vector is redrawn until the
    sum is exactly m.  Acceptance is Theta(1/sqrt(n)); the cap of
    1e6*sqrt(n) attempts is unreachable in practice.  Returns the
    vector and the number of attempts consumed.
    """
    sampler = TruncatedPoisson(params.require_z(), params.k)
    cap = int(1e6 * math.sqrt(params.n))
    attempts = 0
    while attempts < cap:
        block = sampler.sample(rng, (_BATCH_ROWS, params.n))
        sums = block.sum(axis=1)
        hits = np.nonzero(sums == params.m)[0]
        if hits.size:
            attempts += int(hits[0]) + 1
            return block[hits[0]].copy(), attempts
        attempts += _BATCH_ROWS
    raise ConditioningFailureError(
        f"conditioning failure: no sum-{params.m} vector in {cap} attempts")


def sample_degree_sequence(params: ModelParams,
                           rng: np.random.Generator) -> DegreeSequence:
    """Out- and in-degree vectors, independently conditioned on sum m."""
    out_deg, _ = conditioned_degree_vector(params, rng)
    in_deg, _ = conditioned_degree_vector(params, rng)
    return DegreeSequence(out_deg=out_deg, in_deg=in_deg)


@dataclass
class ConfigDigraph:
    """A pairing of degree slots: possibly with loops and multi-edges.

    slots is the flat sequence x of 2m vertex labels; edge j is
    (x[2j], x[2j+1]).  loops/multis hold the edge indices that are
    loops or members of a duplicated ordered pair.
    """

    n: int
    slots: np.ndarray
    loops: np.ndarray = field(default=None)
    multis: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.loops is None or self.multis is None:
            self.recompute_defects()

    @property
    def m(self) -> int:
        return len(self.slots) // 2

    @property
    def heads(self) -> np.ndarray:
        return self.slots[0::2]

    @property
    def tails(self) -> np.ndarray:
        return self.slots[1::2]

    def recompute_defects(self):
        heads, tails = self.heads, self.tails
        self.loops = np.nonzero(heads == tails)[0]
        codes = heads.astype(np.int64) * self.n + tails
        _, inv, counts = np.unique(codes, return_inverse=True,
                                   return_counts=True)
        self.multis = np.nonzero(counts[inv] > 1)[0]

    def is_simple(self) -> bool:
        return len(self.loops) == 0 and len(self.multis) == 0

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.heads, minlength=self.n)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.tails, minlength=self.n)


def pair_configuration(ds: DegreeSequence,
                       rng: np.random.Generator) -> ConfigDigraph:
    """Uniform pairing of out-slots with in-slots.

    heads (the odd positions of x) is a uniform permutation of the
    multiset holding vertex v out_deg[v] times, tails likewise for
    in-degrees; the two shuffles are independent so the pairing is
    uniform over the configuration space.
    """
    n = ds.n
    heads = np.repeat(np.arange(n, dtype=np.int64), ds.out_deg)
    tails = np.repeat(np.arange(n, dtype=np.int64), ds.in_deg)
    rng.shuffle(heads)
    rng.shuffle(tails)
    slots = np.empty(2 * len(heads), dtype=np.int64)
    slots[0::2] = heads
    slots[1::2] = tails
    return ConfigDigraph(n=n, slots=slots)


def duplicate_pair_count(cfg: ConfigDigraph, include_loops: bool = False) -> int:
    """Number of unordered index pairs {j, j'} carrying the same ordered pair."""
    heads, tails = cfg.heads, cfg.tails
    keep = np.ones(len(heads), dtype=bool) if include_loops else heads != tails
    codes = heads[keep].astype(np.int64) * cfg.n + tails[keep]
    _, counts = np.unique(codes, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def pair_csr(rows: np.ndarray, cols: np.ndarray, width: int,
             n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR layout of pairs keyed by the codes rows*width + cols.

    rows lie in [0, n), cols in [0, width), and no code repeats.
    Returns (order, indptr): order sorts the codes ascending, so row v
    is order[indptr[v]:indptr[v + 1]], ascending by col.
    """
    order = np.argsort(rows * width + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return order, indptr


class SimpleDigraph:
    """Loop-free digraph without repeated ordered pairs.

    Edges are stored as an (m, 2) array in a canonical order that is
    part of the identity of the instance: every pool label, bitset and
    certificate refers to positions in this array.
    """

    def __init__(self, n: int, edges: np.ndarray, k: int):
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self.n = int(n)
        self.k = int(k)
        self.edges = edges
        self._validate()
        self._build_adjacency()
        self._codes_sorted = None
        self._codes_order = None

    def _validate(self):
        if len(self.edges):
            if self.edges.min() < 0 or self.edges.max() >= self.n:
                raise ValueError("edge endpoint out of range")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise ValueError("loop edge present")
            codes = self.edges[:, 0] * self.n + self.edges[:, 1]
            if len(np.unique(codes)) != len(codes):
                raise ValueError("duplicate ordered pair present")

    def _build_adjacency(self):
        ids = np.arange(self.m)
        self._out_order, self._out_ptr = pair_csr(self.edges[:, 0], ids,
                                                  self.m, self.n)
        self._in_order, self._in_ptr = pair_csr(self.edges[:, 1], ids,
                                                self.m, self.n)
        self.out_deg = np.diff(self._out_ptr)
        self.in_deg = np.diff(self._in_ptr)

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_edge_ids(self, v: int) -> np.ndarray:
        """Edge indices leaving v, ascending by edge index."""
        return self._out_order[self._out_ptr[v]:self._out_ptr[v + 1]]

    def in_edge_ids(self, v: int) -> np.ndarray:
        return self._in_order[self._in_ptr[v]:self._in_ptr[v + 1]]

    def edge_lookup(self, u: int, v: int) -> int:
        """Edge index of the ordered pair (u, v), or -1."""
        if self._codes_sorted is None:
            codes = self.edges[:, 0] * self.n + self.edges[:, 1]
            self._codes_order = np.argsort(codes, kind="stable")
            self._codes_sorted = codes[self._codes_order]
        code = u * self.n + v
        pos = np.searchsorted(self._codes_sorted, code)
        if pos < len(self._codes_sorted) and self._codes_sorted[pos] == code:
            return int(self._codes_order[pos])
        return -1

    def has_edge(self, u: int, v: int) -> bool:
        return self.edge_lookup(u, v) >= 0

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return int(min(self.out_deg.min(), self.in_deg.min()))


def _config_to_simple(cfg: ConfigDigraph, k: int) -> SimpleDigraph:
    edges = np.column_stack((cfg.heads, cfg.tails))
    return SimpleDigraph(n=cfg.n, edges=edges, k=k)


def sample_simple_digraph(params: ModelParams, rng: np.random.Generator,
                          cap: int = 10_000) -> tuple[SimpleDigraph, int]:
    """Exact-uniform simple digraph by whole-sample rejection.

    Each attempt draws a fresh degree sequence and pairing and keeps it
    only when no loop and no duplicated ordered pair occurred.  Every
    simple digraph is then equally likely.  The acceptance probability
    is asymptotically exp(-rho^2/c) * exp(-beta^2/2) with
    beta = z^2 f_{k-1}(z) / (c f_{k+1}(z)); it is usable for c below
    roughly 5 and decays super-exponentially in c afterwards.
    """
    for attempt in range(1, cap + 1):
        ds = sample_degree_sequence(params, rng)
        cfg = pair_configuration(ds, rng)
        if cfg.is_simple():
            return _config_to_simple(cfg, params.k), attempt
    raise RejectionStallError(
        f"rejection stall: no simple pairing in {cap} attempts", attempts=cap)


def sample_erased_digraph(params: ModelParams, rng: np.random.Generator,
                          cap: int = 100) -> tuple[SimpleDigraph, int]:
    """Near-uniform simple digraph by erasing defects from one pairing.

    Loops are dropped and each duplicated ordered pair keeps a single
    copy.  At the mean degrees where Hamilton packing applies this
    removes an O(c + c^2) = o(m) sliver of edges and the min-degree
    condition survives; when it does not (possible at small c), the
    draw is repeated up to cap times.
    """
    for attempt in range(1, cap + 1):
        ds = sample_degree_sequence(params, rng)
        cfg = pair_configuration(ds, rng)
        heads, tails = cfg.heads, cfg.tails
        non_loop = heads != tails
        codes = heads.astype(np.int64) * params.n + tails
        _, first = np.unique(codes, return_index=True)
        keep = np.zeros(len(heads), dtype=bool)
        keep[first] = True
        keep &= non_loop
        edges = np.column_stack((heads[keep], tails[keep]))
        sd = SimpleDigraph(n=params.n, edges=edges, k=params.k)
        if sd.min_degree() >= params.k + 1:
            return sd, attempt
    raise PhaseFailure("sample",
                       f"erasure broke the degree condition {cap} times")


def simplicity_exponents(params: ModelParams) -> tuple[float, float, float]:
    """(rho^2/c, beta, beta^2/2) with beta = z^2 f_{k-1}/(c f_{k+1}).

    rho^2/c is the asymptotic Poisson mean of the loop count; beta^2/2
    is the asymptotic mean of the duplicate-pair count (the first-order
    expression beta is also reported because downstream acceptance
    checks quote exp(-rho^2/c - beta)).
    """
    z = params.require_z()
    k = params.k
    loop_mean = rho(z, k) ** 2 / params.c
    beta = z * z * tail_sum(k - 1, z) / (params.c * tail_sum(k + 1, z))
    return loop_mean, beta, 0.5 * beta * beta


def write_edge_list(sd: SimpleDigraph, path) -> None:
    """Plain text: header "n m k", then m lines "u v" (0-indexed)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{sd.n} {sd.m} {sd.k}\n")
        for u, v in sd.edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> SimpleDigraph:
    """Inverse of write_edge_list; round-trips bit-exactly."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise EdgeListFormatError("header must be 'n m k'")
        try:
            n, m, k = (int(x) for x in header)
        except ValueError as exc:
            raise EdgeListFormatError("non-integer header") from exc
        edges = np.empty((m, 2), dtype=np.int64)
        for j in range(m):
            line = fh.readline().split()
            if len(line) != 2:
                raise EdgeListFormatError(f"edge line {j} malformed")
            edges[j, 0] = int(line[0])
            edges[j, 1] = int(line[1])
        if fh.readline().strip():
            raise EdgeListFormatError("trailing content after edge list")
    try:
        return SimpleDigraph(n=n, edges=edges, k=k)
    except ValueError as exc:
        raise EdgeListFormatError(str(exc)) from exc
