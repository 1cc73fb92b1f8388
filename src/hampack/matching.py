"""Phase 1: k edge-disjoint perfect matchings, then cycle covers.

A digraph on [n] maps to a bipartite graph on A ∪ B (two copies of
[n]) with an edge {a_u, b_v} per digraph edge (u, v); perfect
matchings correspond to cycle covers.  For each i the working graph
G_i is built from Ê_{1,i} plus the unused E_SMALL edges and given a
maximum matching.  If that falls short of perfect, every booster edge
from Ê_{2,i} joins a copy of G_i at once and the grown graph gets one
more maximum matching; it has a perfect one exactly when some subset of
the boosters would give one.  Ê_{2,i} is disjoint from Ê_{1,i} ∪
E_SMALL, so every booster is a new pair.  The bipartite graphs hold
int32 CSR rows of pairs only: each matched pair (v, succ v) is read
back to its edge id through the host's one pair-code index,
SimpleDigraph.edge_lookup.  A global used-edge bitset keeps the k
matchings edge-disjoint and stops E_SMALL edges from being spent twice.

The B side is relabeled by a uniform random permutation before
matching and unrelabeled after, so the algorithmic tie-breaking cannot
bias the cycle statistics of the resulting cover away from those of a
uniform permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order,
                                  maximum_bipartite_matching)

from .errors import PhaseFailure
from .model import SimpleDigraph, key_dtype, row_starts
from .partition import EdgePartition

__all__ = [
    "BipartiteGraph", "Matching", "PerfectMatching", "BoosterReport",
    "digraph_to_bipartite", "maximum_matching", "booster_augment",
    "build_k_matchings", "matching_to_cycle_cover",
]


class BipartiteGraph:
    """Side A and side B are both [n); edge {a_a, b_b} is the pair
    (a, b), with no host edge id: the host's index holds those.

    Edges are held as int32 CSR rows only: A vertex a is adjacent to
    indices[indptr[a]:indptr[a + 1]], ascending.  One plain np.sort of
    the pair codes a*n + b (int32 words when n^2 < 2^31) orders them,
    a pair given twice raises ValueError, row_starts cuts the rows (as
    it cuts the host's), and each index is its code mod n, taken in place.
    """

    def __init__(self, n: int, a, b):
        self.n = n = int(n)
        codes = np.multiply(a, n, dtype=key_dtype(n * n))
        codes += b
        codes.sort()
        if np.any(codes[1:] == codes[:-1]):
            raise ValueError("repeated pair code")
        self.indptr = row_starts(codes, n).astype(np.int32)
        np.remainder(codes, n, out=codes)
        self.indices = codes.astype(np.int32, copy=False)

    @property
    def num_edges(self) -> int:
        return len(self.indices)


def digraph_to_bipartite(mask: np.ndarray, sd: SimpleDigraph,
                         label: np.ndarray) -> BipartiteGraph:
    """Translate the host edges that mask (a bool mask over edge ids)
    selects into the bipartite view: host edge (u, v) becomes
    {a_u, b_label[v]} for the B-side permutation label."""
    return BipartiteGraph(sd.n, sd.tails.compress(mask),
                          label[sd.heads.compress(mask)])


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
        a = np.nonzero(self.pair_a >= 0)[0]
        b = self.pair_a[a]
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        return bool((self.pair_b[b] == a).all()
                    and np.isin(a * g.n + b, rows * g.n + g.indices).all())


def _matching(n: int, indptr: np.ndarray, indices: np.ndarray) -> Matching:
    """scipy's Hopcroft-Karp over int32 CSR rows, handed over uncopied."""
    mat = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                     shape=(n, n), copy=False)
    pair_a = maximum_bipartite_matching(mat, perm_type="column")
    pair_a = pair_a.astype(np.int64)
    pair_b = np.full(n, -1, dtype=np.int64)
    hit = np.nonzero(pair_a >= 0)[0]
    pair_b[pair_a[hit]] = hit
    return Matching(pair_a, pair_b)


def maximum_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by scipy's Hopcroft-Karp over g's
    CSR rows; deterministic for fixed arrays."""
    return _matching(g.n, g.indptr, g.indices)


def _hall_violator(g: BipartiteGraph,
                   mt: Matching) -> tuple[np.ndarray, np.ndarray]:
    """Hall violator from a maximum matching mt of g: S and N(S) are the
    A and B vertices that alternating paths from the exposed A vertices
    reach, so |S| - |N(S)| is the deficiency.  S does not depend on
    which maximum matching mt is (Dulmage-Mendelsohn)."""
    n = g.n
    exposed = np.nonzero(mt.pair_a < 0)[0]
    mated = np.nonzero(mt.pair_b >= 0)[0]
    # one BFS from a root 2n over A = [0, n) and B = [n, 2n), as CSR
    # rows in that order: A points at B along g, B at its mate, and the
    # root at each exposed A vertex
    head = np.concatenate((n + g.indices, mt.pair_b[mated], exposed))
    ptr = np.r_[g.indptr, len(g.indices) + np.cumsum(mt.pair_b >= 0),
                len(head)]
    arcs = csr_matrix((np.ones(len(head), dtype=np.int8), head, ptr),
                      shape=(2 * n + 1, 2 * n + 1))
    seen = breadth_first_order(arcs, 2 * n, return_predecessors=False)
    seen = np.sort(seen[seen < 2 * n]).astype(np.int64)
    split = np.searchsorted(seen, n)
    return seen[:split], seen[split:] - n


@dataclass
class BoosterReport:
    """matching is a maximum matching of g grown by every booster
    offered (mt itself when it was already perfect, with consumed 0),
    and witness its Hall violator when not perfect."""

    matching: Matching
    consumed: int
    witness: tuple[np.ndarray, np.ndarray] | None

    def is_perfect(self) -> bool:
        return self.witness is None


def booster_augment(g: BipartiteGraph, mt: Matching,
                    boosters) -> BoosterReport:
    """Repair a maximum matching mt of g with booster edges.

    boosters holds (a, b) rows, each a new pair: no two rows share a
    pair and no row's pair is in g; a repeat raises ValueError.  Every
    row joins g at once and the grown graph gets one maximum matching,
    so consumed is the number of rows.  Adding edges never removes a
    perfect matching, so the grown graph has one exactly when some
    prefix of the rows does; when it has none, the report carries the
    Hall violator certifying that.  g and mt are not modified.
    """
    if mt.is_perfect():
        return BoosterReport(matching=mt, consumed=0, witness=None)
    a, b = np.asarray(boosters, dtype=np.int64).reshape(-1, 2).T
    rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
    grown = BipartiteGraph(g.n, np.concatenate((rows, a)),
                           np.concatenate((g.indices, b)))
    found = _matching(g.n, grown.indptr, grown.indices)
    witness = None if found.is_perfect() else _hall_violator(grown, found)
    return BoosterReport(matching=found, consumed=len(a), witness=witness)


@dataclass
class PerfectMatching:
    """A perfect matching translated back to digraph terms: vertex v is
    matched to succ[v] through host edge edge_ids[v]."""

    succ: np.ndarray
    edge_ids: np.ndarray


def _finalize(sd: SimpleDigraph, mt: Matching,
              unlabel: np.ndarray) -> PerfectMatching:
    """succ unlabelled, and each pair's edge id read off the host."""
    succ = unlabel[mt.pair_a]
    return PerfectMatching(succ=succ,
                           edge_ids=sd.edge_lookup(np.arange(sd.n), succ))


def build_k_matchings(sd: SimpleDigraph, part: EdgePartition,
                      rng: np.random.Generator,
                      used: np.ndarray) -> list[PerfectMatching]:
    """k pairwise edge-disjoint perfect matchings, one per pool index.

    G_i is part.reserve(1, i, used): Ê_{1,i} ∪ E_SMALL minus every
    edge spent by earlier matchings; when its matching is short, every
    edge of part.reserve(2, i, used) joins it as a booster.  used is the
    trial-global bitset of spent host edges and is updated in place.
    """
    n, k = sd.n, part.k
    out = []
    for i in range(k):
        label = rng.permutation(n).astype(key_dtype(n))
        unlabel = np.empty(n, dtype=np.int64)
        unlabel[label] = np.arange(n)
        g = digraph_to_bipartite(part.reserve(1, i, used), sd, label)
        mt = maximum_matching(g)
        if not mt.is_perfect():
            pool2 = part.reserve(2, i, used)
            report = booster_augment(g, mt, np.column_stack(
                (sd.tails[pool2], label[sd.heads[pool2]])))
            if not report.is_perfect():
                s, ns = report.witness
                raise PhaseFailure(
                    "phase1", f"deficiency witness |S|={len(s)} > "
                    f"|N(S)|={len(ns)} after {report.consumed} boosters",
                    index=i, witness=report.witness)
            mt = report.matching
        pm = _finalize(sd, mt, unlabel)
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
