"""Random digraph model with a minimum in/out-degree condition.

A digraph on n vertices with m = c*n edges is drawn conditioned on
every in-degree and out-degree being at least k+1.  Degrees follow a
truncated Poisson law

    P(Z = j) = z^j / (j! * f_{k+1}(z)),        j >= k+1,

where f_l(z) = sum_{j>=l} z^j / j! = e^z P_l(z), P_l(z) = P(Pois(z) >= l),
and z is calibrated so that the mean

    rho(z) = z * f_k(z) / f_{k+1}(z) = z * P_k(z) / P_{k+1}(z)

equals c.  Such z exists and is unique for c > k+1 and lies strictly
inside (c-(k+1), c).  e^z cancels from every such ratio, so the code
forms only the terms P(Pois(z) = j), in logs, and the tails P_l.

Sampling proceeds in three stages:

1. draw n iid truncated-Poisson out-degrees conditioned on their sum
   being exactly m, and independently the in-degrees.  That law does
   not depend on z: its pmf is z^m / f_{k+1}(z)^n * prod 1/x_i!, which
   on {x_i >= k+1, sum x_i = m} is proportional to prod 1/x_i!.  So is
   the pmf of Multinomial(m; 1/n, ..., 1/n) conditioned on every count
   being >= k+1, and the two laws are equal.  Each vector comes from
   whichever exact path is expected to be cheaper at (n, m, k):
   - multinomial: bincount m uniform vertex labels, redrawn until the
     minimum is >= k+1 (about e^lambda * m labels, with
     lambda = n * P(Pois(c) <= k) the expected number of counts below
     the floor);
   - rejection: n truncated-Poisson draws, redrawn until the sum is m
     (about sqrt(2 pi sigma^2 n) * n draws), the path for low c where
     the floor almost never holds by chance;
2. pair degree slots uniformly at random (bipartite configuration
   model): edge j of the multigraph runs from tails[j] to heads[j], where
   tails lists the out-degree multiset in vertex order and heads is a
   uniform arrangement of the in-degree multiset: a shuffle, or the
   labels the multinomial path counted, whose order given their counts
   is uniform;
3. either reject non-simple pairings outright (exactly uniform over
   simple digraphs, but the acceptance rate decays like
   exp(-rho^2/c - O(c)), which is astronomically small beyond c ~ 5),
   or erase loops and repeated ordered pairs (near-uniform, and the
   only practical option at the mean degrees where Hamilton packing is
   interesting).  Erasure is one np.sort of the pair codes u*n + v, so
   edge id is the code's rank; the host takes the kept columns as is,
   and one sort of the codes v*n + u is its index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConditioningFailureError, EdgeListFormatError,
                     InfeasibleDegreeError, RejectionStallError,
                     TailUnderflowError)

__all__ = [
    "poisson_term", "poisson_tail", "rho", "sigma2", "solve_z", "ModelParams",
    "TruncatedPoisson", "DegreeSequence", "degree_vector_path",
    "conditioned_degree_vector", "sample_degree_sequence",
    "ConfigDigraph", "pair_configuration", "duplicate_pair_count",
    "key_dtype", "sort_codes", "row_starts", "SimpleDigraph",
    "sample_simple_digraph", "sample_erased_digraph",
    "simplicity_exponents", "write_edge_list", "read_edge_list",
]


def poisson_term(j: int, z: float) -> float:
    """P(Pois(z) = j) = e^-z z^j / j!, formed in logs."""
    return math.exp(j * math.log(z) - z - math.lgamma(j + 1))


def poisson_tail(ell: int, z: float) -> float:
    """P_ell(z) = P(Pois(z) >= ell), relative error well below 1e-12.

    For ell <= z the tail is at least about 1/2, so it is one minus the
    short head; for ell > z the head would cancel catastrophically and
    the tail is summed forward instead, which raises TailUnderflowError
    when its first term underflows.
    """
    if z <= 0.0:
        raise ValueError("z must be positive")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if ell <= z:
        return 1.0 - math.fsum(poisson_term(j, z) for j in range(ell))
    t = poisson_term(ell, z)
    if t == 0.0:
        raise TailUnderflowError("tail underflow")
    total, j = 0.0, ell
    while t >= total * 1e-18:
        total += t
        j += 1
        t *= z / j
    return total


def rho(z: float, k: int) -> float:
    """Mean of the truncated Poisson: z * P_k(z) / P_{k+1}(z)."""
    return z * poisson_tail(k, z) / poisson_tail(k + 1, z)


def sigma2(z: float, k: int) -> float:
    """Variance of the truncated Poisson.

    z^2 P_{k-1}/P_{k+1} + z P_k/P_{k+1} - (z P_k/P_{k+1})^2, which reads
    P_{k-1} and so needs k >= 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p_k1 = poisson_tail(k + 1, z)
    mean = z * poisson_tail(k, z) / p_k1
    second_fact = z * z * poisson_tail(k - 1, z) / p_k1
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
        if k * n > m:  # k edge-disjoint Hamilton cycles hold k*n edges
            raise ValueError(f"k={k} edge-disjoint Hamilton cycles on n={n} "
                             f"vertices need k*n={k * n} edges, but m={m}")
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
        self._norm = poisson_tail(k + 1, z)
        probs, acc = [], 0.0
        for j in range(self.lo, self.lo + 200000):
            t = self.pmf(j)
            if t < 1e-17 and acc > 0.5:
                break
            probs.append(t)
            acc += t
        else:  # pragma: no cover - z above about 2e5
            raise TailUnderflowError("pmf table blow-up")
        self._cdf = np.cumsum(np.asarray(probs))

    def pmf(self, j: int) -> float:
        """P(Z = j) = P(Pois(z) = j) / P_{k+1}(z), zero below k+1."""
        if j < self.lo:
            return 0.0
        return poisson_term(j, self.z) / self._norm

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
    in_slots: np.ndarray | None = field(  # set by the sampler, used once
        default=None, init=False, repr=False, compare=False)

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
# attempts allowed per vector, per sqrt(n)
_CAP_PER_ROOT_N = 1e6


def degree_vector_path(n: int, m: int, k: int) -> str:
    """"multinomial" or "rejection": the cheaper exact path at (n, m, k).

    The multinomial path meets the floor with probability about
    e^-lambda, lambda = n * P(Pois(m/n) <= k), and costs m labels per
    try; rejection hits sum m with probability about
    1/sqrt(2 pi sigma^2 n) and costs n draws per try.  The expected
    costs are compared in logs.  Raises InfeasibleDegreeError when
    m/n <= k+1, as the sampler does.
    """
    c = m / n
    z = solve_z(c, k)
    lam = n * math.fsum(poisson_term(j, c) for j in range(k + 1))
    multinomial = lam + math.log(m)
    rejection = 0.5 * math.log(2 * math.pi * sigma2(z, k) * n) + math.log(n)
    return "multinomial" if multinomial < rejection else "rejection"


def _multinomial_vector(params: ModelParams, rng: np.random.Generator,
                        cap: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Counts of m uniform labels over n vertices, redrawn until every
    count is >= k+1; returns the vector, the draws and the labels."""
    floor = params.k + 1
    for attempt in range(1, cap + 1):
        labels = rng.integers(0, params.n, params.m)
        vec = np.bincount(labels, minlength=params.n)
        if vec.min() >= floor:
            return vec.astype(np.int64, copy=False), attempt, labels
    raise ConditioningFailureError(
        f"conditioning failure: no count vector with min >= {floor} "
        f"in {cap} attempts")


def _rejection_vector(params: ModelParams, rng: np.random.Generator,
                      cap: int) -> tuple[np.ndarray, int, None]:
    """n truncated-Poisson draws, redrawn in blocks of _BATCH_ROWS
    vectors until one sums to m; returns it, the vectors consumed up to
    and including it, and no labels."""
    sampler = TruncatedPoisson(params.require_z(), params.k)
    attempts = 0
    while attempts < cap:
        block = sampler.sample(rng, (_BATCH_ROWS, params.n))
        sums = block.sum(axis=1)
        hits = np.nonzero(sums == params.m)[0]
        if hits.size:
            attempts += int(hits[0]) + 1
            return block[hits[0]].copy(), attempts, None
        attempts += _BATCH_ROWS
    raise ConditioningFailureError(
        f"conditioning failure: no sum-{params.m} vector in {cap} attempts")


def conditioned_degree_vector(params: ModelParams,
                              rng: np.random.Generator) -> tuple:
    """One n-vector of iid truncated-Poisson draws conditioned on sum m.

    The law has pmf proportional to prod 1/x_i! on
    {x_i >= k+1, sum x_i = m}, whatever z is, and so does
    Multinomial(m; 1/n, ..., 1/n) conditioned on every count being
    >= k+1.  Two exact paths draw it, and degree_vector_path picks the
    one expected to be cheaper at (n, m, k): the count of m uniform
    labels, redrawn until its minimum is >= k+1, when the floor holds
    by chance often enough; n truncated-Poisson draws, redrawn until
    they sum to m, otherwise (low c).  Either stops after 1e6*sqrt(n)
    vectors with ConditioningFailureError, a cap that is unreachable in
    practice.  Returns the vector, the number of vectors drawn and the
    multinomial path's labels (None on the rejection path).
    """
    cap = int(_CAP_PER_ROOT_N * math.sqrt(params.n))
    if degree_vector_path(params.n, params.m, params.k) == "multinomial":
        return _multinomial_vector(params, rng, cap)
    return _rejection_vector(params, rng, cap)


def sample_degree_sequence(params: ModelParams,
                           rng: np.random.Generator) -> DegreeSequence:
    """Out- and in-degree vectors, independently conditioned on sum m."""
    out_deg, _, _ = conditioned_degree_vector(params, rng)
    in_deg, _, labels = conditioned_degree_vector(params, rng)
    ds = DegreeSequence(out_deg=out_deg, in_deg=in_deg)
    ds.in_slots = labels
    return ds


@dataclass
class ConfigDigraph:
    """A pairing of degree slots, possibly with loops and repeated pairs.

    Edge j of the multigraph runs from tails[j] to heads[j], tails
    ascending, as in SimpleDigraph.  Nothing else is stored: loops and
    degrees are computed when asked for, and repeated pairs are counted
    by duplicate_pair_count.
    """

    n: int
    tails: np.ndarray
    heads: np.ndarray

    @property
    def m(self) -> int:
        return len(self.tails)

    @property
    def loops(self) -> np.ndarray:
        """Indices of the edges that are loops."""
        return np.flatnonzero(self.tails == self.heads)

    @property
    def out_deg(self) -> np.ndarray:
        return np.bincount(self.tails, minlength=self.n)

    @property
    def in_deg(self) -> np.ndarray:
        return np.bincount(self.heads, minlength=self.n)

    def is_simple(self) -> bool:
        return len(self.loops) == 0 and duplicate_pair_count(self) == 0


def pair_configuration(ds: DegreeSequence,
                       rng: np.random.Generator) -> ConfigDigraph:
    """Uniform pairing of out-slots with in-slots.

    tails lists vertex v out_deg[v] times in vertex order; heads is
    ds.in_slots, taken once, or else a shuffle of the in-slots: a uniform
    arrangement either way, so the pairing is a uniform bijection.
    """
    n = ds.n
    tails = np.repeat(np.arange(n, dtype=np.int64), ds.out_deg)
    heads, ds.in_slots = ds.in_slots, None
    if heads is None:
        heads = np.repeat(np.arange(n, dtype=np.int64), ds.in_deg)
        rng.shuffle(heads)
    return ConfigDigraph(n=n, tails=tails, heads=heads)


_CHUNK = 1 << 20  # positions ORed or gathered per step, in place


def key_dtype(bound: int, shift: int = 0):
    """int32 when every (key < bound) << shift fits in 31 bits, else int64."""
    return np.int32 if max(int(bound) - 1, 0) << shift < 1 << 31 else np.int64


def _sort_packed(key: np.ndarray, shift: int) -> np.ndarray:
    """Sort key << shift | position in place; key is a fresh array."""
    key <<= shift
    for lo in range(0, len(key), _CHUNK):
        hi = min(lo + _CHUNK, len(key))
        key[lo:hi] |= np.arange(lo, hi, dtype=key.dtype)
    key.sort()
    return key


def sort_codes(codes, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, codes[order]): the stable ascending order of codes.

    A code outside [0, bound) raises ValueError, as a packed key would
    misorder it.  One np.sort of code << b | position, b the bit length
    of len - 1, in an int32 word when (bound - 1) << b < 2^31, does a
    stable argsort's work at a fraction of its cost; when bound << b
    would pass 63 bits, the low and then the high digits are sorted so
    in turn (LSD).  Both results are int64.  At most three m-long int64
    arrays, the input included, live at once, plus the word if int32.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if len(codes) and (codes.min() < 0 or codes.max() >= bound):
        raise ValueError("code outside [0, bound)")
    shift = max(len(codes) - 1, 0).bit_length()
    width, mask = 63 - shift, (1 << shift) - 1
    if max(bound - 1, 0) >> width == 0:
        key = _sort_packed(codes.astype(key_dtype(bound, shift)), shift)
        codes = (key >> shift).astype(np.int64, copy=False)
        key &= mask
        return key.astype(np.int64, copy=False), codes
    low = _sort_packed(codes & ((1 << width) - 1), shift)
    low &= mask
    order = codes[low]
    order >>= width
    _sort_packed(order, shift)
    order &= mask
    for lo in range(0, len(order), _CHUNK):
        order[lo:lo + _CHUNK] = low[order[lo:lo + _CHUNK]]
    del low  # so codes[order] is the third m-long array, not the fourth
    return order, codes[order]


def row_starts(codes: np.ndarray, n: int) -> np.ndarray:
    """indptr of ascending codes r*n + c, one row per r in [0, n)."""
    return np.searchsorted(codes, np.arange(n + 1, dtype=codes.dtype) * n)


def duplicate_pair_count(cfg: ConfigDigraph) -> int:
    """Number of unordered index pairs {j, j'} carrying the same ordered
    pair, loops left out."""
    keep = cfg.tails != cfg.heads
    _, counts = np.unique(cfg.tails[keep] * cfg.n + cfg.heads[keep],
                          return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


class SimpleDigraph:
    """Loop-free digraph without repeated ordered pairs.

    Edge e runs from tails[e] to heads[e] (edges: (tail, head) rows, read
    through column views; from_columns takes the columns as they are),
    in an order every pool label, bitset and certificate refers to.
    Its one index serves edge_lookup, csr(1) and in_deg: the codes
    v*n + u, sorted once at construction by the check for repeats, and
    their edge ids.
    """

    def __init__(self, n: int, edges, k: int, *, _columns=None):
        if _columns is None:
            edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
            _columns = edges[:, 0], edges[:, 1]
        t, h = self.tails, self.heads = [np.asarray(c, dtype=np.int64)
                                         for c in _columns]
        self.n, self.k = n, k = int(n), int(k)
        if n * n > 1 << 63:  # before any n-long array is made
            raise ValueError(f"n = {n}: pair codes overflow int64")
        if t.ndim != 1 or t.shape != h.shape:
            raise ValueError("tail and head columns differ in shape")
        if len(t):  # (m, 2) rows are range-checked in one contiguous pass
            blocks = (t, h) if edges is None else (edges,)
            lo, hi = min(b.min() for b in blocks), max(b.max() for b in blocks)
            if lo < 0 or hi >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(t == h):
                raise ValueError("loop edge present")
        order, codes = sort_codes(h * n + t, n * n)
        if np.any(codes[1:] == codes[:-1]):  # repeats are neighbours
            raise ValueError("duplicate ordered pair present")
        self._codes = codes
        self._csrs = [None, (row_starts(codes, n),
                             order.astype(key_dtype(len(t))))]
        self.out_deg = np.bincount(t, minlength=n)
        self.in_deg = np.diff(self._csrs[1][0])

    @classmethod
    def from_columns(cls, n: int, tails, heads, k: int) -> "SimpleDigraph":
        """Edges tails[e] -> heads[e]; int64 columns are kept, not copied."""
        return cls(n, None, k, _columns=(tails, heads))

    @property
    def m(self) -> int:
        return len(self.tails)

    @property
    def edges(self) -> np.ndarray:
        """(tail, head) rows, stacked afresh in O(m) on every read."""
        return np.column_stack((self.tails, self.heads))

    def csr(self, side: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(indptr, ids): edge ids by tail (side 0) or head (side 1); row
        v is ids[indptr[v]:indptr[v + 1]], or that range when ids is None
        (tails that ascend).  Out-rows ascend by id and in-rows by tail;
        the in-CSR is the index, the out-CSR one packed sort of the
        tails, int32 if m <= 2^31, made on first use."""
        if self._csrs[side] is None:
            ids = None
            if np.any(self.tails[1:] < self.tails[:-1]):
                b = max(self.m - 1, 0).bit_length()  # n << b < 2nm
                ids = _sort_packed(self.tails.astype(key_dtype(self.n, b)), b)
                ids &= (1 << b) - 1
                ids = ids.astype(key_dtype(self.m), copy=False)
            self._csrs[0] = np.r_[0, np.cumsum(self.out_deg)], ids
        return self._csrs[side]

    def edge_lookup(self, u, v):
        """Edge index of the ordered pair (u, v), or -1: no such edge, or
        an end outside [0, n).

        u and v may also be equal-length arrays; the answer is then an
        int64 array with one index (or -1) per pair.
        """
        u, v, n = np.asarray(u, np.int64), np.asarray(v, np.int64), self.n
        # code -1, which no edge has, for a pair with an end off [0, n)
        code = np.where((u >= 0) & (u < n) & (v >= 0) & (v < n), v * n + u, -1)
        if self.m == 0:
            return -1 if code.ndim == 0 else np.full(code.shape, -1, np.int64)
        # queries in ascending order walk the index once, in cache order
        flat = code.ravel()
        order = np.argsort(flat)
        pos = np.empty(flat.shape, dtype=np.int64)
        pos[order] = np.searchsorted(self._codes, flat[order])
        pos = np.minimum(pos.reshape(code.shape), self.m - 1)
        # an int64 -1 keeps the answer int64 when the ids are int32
        out = np.where(self._codes[pos] == code, self.csr(1)[1][pos],
                       np.int64(-1))
        return int(out) if out.ndim == 0 else out

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return int(min(self.out_deg.min(), self.in_deg.min()))


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
        cfg = pair_configuration(sample_degree_sequence(params, rng), rng)
        if cfg.is_simple():
            return SimpleDigraph.from_columns(cfg.n, cfg.tails, cfg.heads,
                                              params.k), attempt
    raise RejectionStallError(
        f"rejection stall: no simple pairing in {cap} attempts", attempts=cap)


def sample_erased_digraph(params: ModelParams, rng: np.random.Generator,
                          cap: int = 100) -> tuple[SimpleDigraph, int]:
    """Near-uniform simple digraph by erasing defects from one pairing.

    Loops are dropped and each repeated ordered pair is kept once, the
    edges in ascending pair code u*n + v.  The pairing's tails ascend,
    so one in-place np.sort of the codes only reorders heads within
    rows and puts repeats side by side.  At the mean degrees where
    Hamilton packing applies this removes an O(c + c^2) = o(m) sliver
    of edges and the min-degree condition survives; when it does not
    (possible at small c), the draw is repeated up to cap times.
    """
    for attempt in range(1, cap + 1):
        cfg = pair_configuration(sample_degree_sequence(params, rng), rng)
        tails, heads = cfg.tails, cfg.heads  # heads reuse the in-slot buffer
        codes = np.multiply(tails, params.n, dtype=key_dtype(params.n ** 2))
        codes += heads
        codes.sort()  # tails are nondecreasing, so the sorted codes keep them
        np.subtract(codes, np.multiply(tails, params.n, out=heads), out=heads)
        keep = heads != tails
        keep[1:] &= codes[1:] != codes[:-1]
        del cfg, codes  # at most four m-long arrays live at once
        cols = tails[keep], heads[keep]
        del tails, heads  # and the host's check holds only the kept columns
        sd = SimpleDigraph.from_columns(params.n, *cols, params.k)
        if sd.min_degree() >= params.k + 1:
            return sd, attempt
    raise ConditioningFailureError(
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
    beta = (z * z * poisson_tail(k - 1, z)
            / (params.c * poisson_tail(k + 1, z)))
    return loop_mean, beta, 0.5 * beta * beta


def write_edge_list(sd: SimpleDigraph, fh) -> None:
    """To text handle fh: header "n m k", then m lines "u v" (0-indexed)."""
    fh.write(f"{sd.n} {sd.m} {sd.k}\n")
    for lo in range(0, sd.m, _CHUNK):
        fh.writelines(f"{u} {v}\n" for u, v in zip(
            sd.tails[lo:lo + _CHUNK].tolist(),
            sd.heads[lo:lo + _CHUNK].tolist()))


def _edge_lines(fh, m: int):
    """The next m lines of fh, for np.loadtxt, which would skip a blank
    line: one is refused as malformed, and so is an early end."""
    j = -1
    for j, line in zip(range(m), fh):
        if line.isspace():
            raise EdgeListFormatError(f"edge line {j} malformed")
        yield line
    if j + 1 < m:
        raise EdgeListFormatError(f"file ends after {j + 1} of {m} edge lines")


def read_edge_list(path) -> SimpleDigraph:
    """Inverse of write_edge_list; round-trips bit-exactly.

    A bad header or edge line, an early end, a non-blank line after the
    edge lines, n > m (no Hamilton cycle), a non-ASCII byte or a
    digraph SimpleDigraph refuses raises EdgeListFormatError.
    """
    try:
        with open(path, encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            header = fh.readline().split()
            try:
                n, m, k = map(int, header)
            except ValueError:  # a field count other than 3, or "3.0"
                raise EdgeListFormatError("header must be 'n m k'") from None
            if n < 1 or k < 1:
                raise EdgeListFormatError("header needs n >= 1 and k >= 1")
            if m < 0:
                raise EdgeListFormatError("negative edge count in header")
            # loadtxt grows its array as lines arrive (m is not trusted),
            # warns on no lines, refuses a line not of two int64 fields and
            # in older numpy truncates "1.9" with only a DeprecationWarning
            edges = np.empty(0, dtype=np.int64)
            try:
                if m:
                    edges = np.loadtxt(_edge_lines(fh, m), dtype="i8,i8",
                                       comments=None, ndmin=1)
            except (ValueError, DeprecationWarning) as exc:
                raise EdgeListFormatError("edge line malformed") from exc
            if not all(line.isspace() for line in fh):
                raise EdgeListFormatError("trailing content after edge list")
            if n > m:
                raise EdgeListFormatError(
                    f"{n} vertices but only {m} edge lines")
        return SimpleDigraph(n=n, edges=edges.view(np.int64), k=k)
    except (ValueError, OverflowError) as exc:
        raise EdgeListFormatError(str(exc)) from exc
