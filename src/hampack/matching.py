"""Phase 1: k edge-disjoint perfect matchings, then cycle covers.

A digraph on [n] maps to a bipartite graph on A ∪ B (two copies of
[n]) with an edge {a_u, b_v} per digraph edge (u, v); perfect
matchings correspond to cycle covers.  For each i the working graph
G_i is built from Ê_{1,i} plus the unused E_SMALL edges, a maximum
matching is found, and any deficiency is repaired by streaming booster
edges from Ê_{2,i} one at a time, each followed by a single
augmenting-path search.  A global used-edge bitset keeps the k
matchings edge-disjoint and stops E_SMALL edges from being spent
twice.

The B side is relabeled by a uniform random permutation before
matching and unrelabeled after, so the algorithmic tie-breaking cannot
bias the cycle statistics of the resulting cover away from those of a
uniform permutation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import PhaseFailure
from .model import SimpleDigraph, pair_csr
from .partition import EdgePartition

__all__ = [
    "BipartiteGraph", "Matching", "PerfectMatching", "BoosterReport",
    "digraph_to_bipartite", "maximum_matching", "booster_augment",
    "build_k_matchings", "matching_to_cycle_cover",
]


class BipartiteGraph:
    """Side A and side B are both [n); every edge remembers the host
    edge id it came from.

    Edges are held as sorted pair codes a*n + b with their host edge
    ids aligned, and the same order read as CSR rows: A vertex a is
    adjacent to indices[indptr[a]:indptr[a + 1]], ascending.  Edges
    added later (boosters) wait in a per-vertex append buffer until
    fold() merges them into the arrays.
    """

    def __init__(self, n: int, a, b, eids):
        self.n = int(n)
        self._extra: dict[int, list[tuple[int, int]]] = {}
        self._build(np.asarray(a, dtype=np.int64),
                    np.asarray(b, dtype=np.int64),
                    np.asarray(eids, dtype=np.int64))

    def _build(self, a: np.ndarray, b: np.ndarray, eids: np.ndarray) -> None:
        order, self.indptr = pair_csr(a, b, self.n, self.n)
        self.indices = b[order]
        self.codes = a[order] * self.n + self.indices
        self.eids = eids[order]

    def fold(self) -> None:
        """Merge the booster buffer into the sorted arrays."""
        if not self._extra:
            return
        extra = np.array([(a, b, e) for a, row in self._extra.items()
                          for b, e in row], dtype=np.int64)
        self._extra = {}
        self._build(np.concatenate((self.codes // self.n, extra[:, 0])),
                    np.concatenate((self.indices, extra[:, 1])),
                    np.concatenate((self.eids, extra[:, 2])))

    def add_edge(self, a: int, b: int, eid: int) -> None:
        self._extra.setdefault(a, []).append((b, eid))

    def has_edge(self, a: int, b: int) -> bool:
        code = a * self.n + b
        pos = np.searchsorted(self.codes, code)
        if pos < len(self.codes) and self.codes[pos] == code:
            return True
        return any(b2 == b for b2, _ in self._extra.get(a, ()))

    @property
    def num_edges(self) -> int:
        return len(self.codes) + sum(map(len, self._extra.values()))


def digraph_to_bipartite(edge_ids, sd: SimpleDigraph,
                         label: np.ndarray) -> BipartiteGraph:
    """Translate host edges into the bipartite view: host edge (u, v)
    becomes {a_u, b_label[v]} for the B-side permutation label."""
    ids = np.asarray(edge_ids, dtype=np.int64)
    ends = sd.edges[ids]
    return BipartiteGraph(sd.n, ends[:, 0], np.asarray(label)[ends[:, 1]], ids)


@dataclass
class Matching:
    """Partial injective pairing between the two sides; -1 = exposed."""

    pair_a: np.ndarray
    pair_b: np.ndarray

    @property
    def size(self) -> int:
        return int((self.pair_a >= 0).sum())

    def is_perfect(self) -> bool:
        return bool((self.pair_a >= 0).all())

    def check_consistent(self, g: BipartiteGraph) -> bool:
        for a, b in enumerate(self.pair_a):
            if b >= 0 and (self.pair_b[b] != a or not g.has_edge(a, int(b))):
                return False
        return True


def maximum_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by scipy's Hopcroft-Karp over g's
    CSR rows; deterministic for fixed arrays."""
    g.fold()
    mat = csr_matrix((np.ones(len(g.indices), dtype=np.int8), g.indices,
                      g.indptr), shape=(g.n, g.n))
    pair_a = maximum_bipartite_matching(mat, perm_type="column")
    pair_a = pair_a.astype(np.int64)
    pair_b = np.full(g.n, -1, dtype=np.int64)
    hit = np.nonzero(pair_a >= 0)[0]
    pair_b[pair_a[hit]] = hit
    return Matching(pair_a, pair_b)


class _AlternatingForest:
    """Reachability from exposed A-vertices along alternating paths.

    Grown incrementally as booster edges arrive: reach_a holds A
    vertices reachable by even alternating paths, reach_b the B
    vertices reachable by odd ones, parent_b the discovering A vertex.
    An exposed vertex entering reach_b completes an augmenting path.
    rows holds g's CSR rows as Python lists, which the search reads
    faster than array slices; offered edges are appended to them.
    """

    def __init__(self, g: BipartiteGraph, mt: Matching):
        ptr, ind = g.indptr.tolist(), g.indices.tolist()
        self.rows = [ind[ptr[a]:ptr[a + 1]] for a in range(g.n)]
        self.mt = mt

    def rebuild(self):
        n = len(self.rows)
        self.reach_a = bytearray(n)
        self.reach_b = bytearray(n)
        self.parent_b = [-1] * n
        self.queue = deque()
        for a in np.nonzero(self.mt.pair_a < 0)[0].tolist():
            self.reach_a[a] = 1
            self.queue.append(a)
        return self._drain()

    def _visit(self, a: int, b: int):
        """Mark b discovered from a; returns b if b is exposed."""
        self.reach_b[b] = 1
        self.parent_b[b] = a
        a2 = int(self.mt.pair_b[b])
        if a2 < 0:
            return b
        self.reach_a[a2] = 1
        self.queue.append(a2)
        return None

    def _drain(self):
        while self.queue:
            a = self.queue.popleft()
            for b in self.rows[a]:
                if not self.reach_b[b]:
                    hit = self._visit(a, b)
                    if hit is not None:
                        return hit
        return None

    def offer(self, a: int, b: int):
        """Feed one new edge; returns an exposed B endpoint if this
        completes an augmenting path, else None."""
        self.rows[a].append(b)
        if not self.reach_a[a] or self.reach_b[b]:
            return None
        hit = self._visit(a, b)
        if hit is not None:
            return hit
        return self._drain()

    def augment(self, b_end: int):
        """Flip the alternating path ending at the exposed b_end."""
        b = b_end
        while b >= 0:
            a = self.parent_b[b]
            prev_b = int(self.mt.pair_a[a])
            self.mt.pair_a[a] = b
            self.mt.pair_b[b] = a
            b = prev_b

    def witness(self) -> tuple[np.ndarray, np.ndarray]:
        """Hall violator: S = reachable A side, N(S) = reachable B side
        with |N(S)| = |S| - (number of exposed roots) < |S|."""
        s = np.nonzero(np.frombuffer(bytes(self.reach_a), dtype=np.uint8))[0]
        ns = np.nonzero(np.frombuffer(bytes(self.reach_b), dtype=np.uint8))[0]
        return s.astype(np.int64), ns.astype(np.int64)


@dataclass
class BoosterReport:
    matching: Matching
    consumed: int
    witness: tuple[np.ndarray, np.ndarray] | None

    def is_perfect(self) -> bool:
        return self.witness is None


def booster_augment(g: BipartiteGraph, mt: Matching, stream) -> BoosterReport:
    """Repair a non-perfect maximum matching with streamed boosters.

    stream yields (a, b, host_edge_id) triples; each edge joins g and
    triggers at most one augmenting-path extension.  Scanning stops as
    soon as the matching is perfect.  On exhaustion the report carries
    the Hall violator certifying that no perfect matching exists in
    the graph examined so far.
    """
    g.fold()
    forest = _AlternatingForest(g, mt)
    hit = forest.rebuild()
    while hit is not None:  # mt was not maximum: finish the job first
        forest.augment(hit)
        hit = forest.rebuild()
    consumed = 0
    for a, b, eid in stream:
        if mt.is_perfect():
            break
        a, b = int(a), int(b)
        if g.has_edge(a, b):
            continue
        g.add_edge(a, b, int(eid))
        consumed += 1
        hit = forest.offer(a, b)
        while hit is not None:
            forest.augment(hit)
            hit = forest.rebuild()
    if mt.is_perfect():
        return BoosterReport(matching=mt, consumed=consumed, witness=None)
    return BoosterReport(matching=mt, consumed=consumed,
                         witness=forest.witness())


@dataclass
class PerfectMatching:
    """A perfect matching translated back to digraph terms: vertex v is
    matched to succ[v] through host edge edge_ids[v]."""

    succ: np.ndarray
    edge_ids: np.ndarray


def _finalize(g: BipartiteGraph, mt: Matching,
              unlabel: np.ndarray) -> PerfectMatching:
    g.fold()
    pos = np.searchsorted(g.codes, np.arange(g.n) * g.n + mt.pair_a)
    return PerfectMatching(succ=unlabel[mt.pair_a], edge_ids=g.eids[pos])


def build_k_matchings(sd: SimpleDigraph, part: EdgePartition,
                      rng: np.random.Generator,
                      used: np.ndarray | None = None) -> list[PerfectMatching]:
    """k pairwise edge-disjoint perfect matchings, one per pool index.

    G_i = (Ê_{1,i} ∪ E_SMALL) minus every edge spent by earlier
    matchings; boosters stream from the unspent part of Ê_{2,i} in
    uniform random order.  used, when passed in, is the trial-global
    bitset and is updated in place.
    """
    if part.e_small is None:
        raise ValueError("compute_small has not run")
    n, k = sd.n, part.k
    if used is None:
        used = np.zeros(sd.m, dtype=bool)
    out = []
    for i in range(k):
        label = rng.permutation(n).astype(np.int64)
        unlabel = np.empty(n, dtype=np.int64)
        unlabel[label] = np.arange(n)
        base = part.working_edges(1, i)
        base = base[~used[base]]
        g = digraph_to_bipartite(base, sd, label)
        mt = maximum_matching(g)
        if not mt.is_perfect():
            pool2 = part.pool_edges(2, i)
            pool2 = pool2[~used[pool2] & ~part.e_small[pool2]]
            pool2 = pool2[rng.permutation(len(pool2))]
            uu = sd.edges[pool2, 0]
            vv = label[sd.edges[pool2, 1]]
            report = booster_augment(g, mt, zip(uu, vv, pool2))
            if not report.is_perfect():
                s, ns = report.witness
                raise PhaseFailure(
                    "phase1", f"deficiency witness |S|={len(s)} > "
                    f"|N(S)|={len(ns)} after {report.consumed} boosters",
                    index=i, witness=report.witness)
            mt = report.matching
        pm = _finalize(g, mt, unlabel)
        if used[pm.edge_ids].any():
            raise PhaseFailure("phase1", "matched an already-used edge",
                               index=i)
        used[pm.edge_ids] = True
        out.append(pm)
    return out


def matching_to_cycle_cover(pm: PerfectMatching):
    """Read the perfect matching as a permutation digraph: the B
    partner of a_v becomes the successor of v."""
    from .cover import PermutationDigraph
    return PermutationDigraph(pm.succ, pm.edge_ids)
