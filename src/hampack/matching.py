"""Phase 1: k edge-disjoint perfect matchings, then cycle covers.

A digraph on [n] maps to a bipartite graph on A ∪ B (two copies of
[n]) with an edge {a_u, b_v} per digraph edge (u, v); perfect
matchings correspond to cycle covers.  For each i the working graph
G_i, the mask EdgePartition.reserve(1, i, used) of Ê_{1,i} plus the
unused E_SMALL edges, gets a maximum matching.  If that falls short,
the booster mask reserve(2, i, used), Ê_{2,i} less E_SMALL, joins it
at once and the union gets one more maximum matching; when that has
no perfect one, phase 1 fails naming its deficiency n - |M|.  The
bipartite graphs hold int32 CSR rows of pairs only: each matched pair
(v, succ v) is read back to its edge id through the host's one
pair-code index, SimpleDigraph.edge_lookup.  A global used-edge bitset
keeps the k matchings edge-disjoint and stops E_SMALL edges from
being spent twice.

The B side is relabeled by a uniform random permutation before
matching and unrelabeled after, so the algorithmic tie-breaking cannot
bias the cycle statistics of the resulting cover away from those of a
uniform permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

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


def digraph_to_bipartite(mask: np.ndarray, sd: SimpleDigraph,
                         label: np.ndarray) -> BipartiteGraph:
    """Translate the host edges that mask (a bool mask over edge ids)
    selects into the bipartite view: host edge (u, v) becomes
    {a_u, b_label[v]} for the B-side permutation label."""
    return BipartiteGraph(sd.n, sd.tails.compress(mask),
                          label[sd.heads.compress(mask)])


@dataclass
class Matching:
    """Partial injective pairing between the two sides: pair_a[a] is
    the B partner of a, or -1 when a is exposed."""

    pair_a: np.ndarray

    @property
    def size(self) -> int:
        return int((self.pair_a >= 0).sum())

    def is_perfect(self) -> bool:
        return bool((self.pair_a >= 0).all())


def _matching(n: int, indptr: np.ndarray, indices: np.ndarray) -> Matching:
    """scipy's Hopcroft-Karp over int32 CSR rows, handed over uncopied."""
    mat = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                     shape=(n, n), copy=False)
    pair_a = maximum_bipartite_matching(mat, perm_type="column")
    return Matching(pair_a.astype(np.int64))


def maximum_matching(g: BipartiteGraph) -> Matching:
    """Maximum-cardinality matching by scipy's Hopcroft-Karp over g's
    CSR rows; deterministic for fixed arrays."""
    return _matching(g.n, g.indptr, g.indices)


@dataclass
class BoosterReport:
    """matching is a maximum matching of G_i grown by every booster;
    consumed is the number of boosters."""

    matching: Matching
    consumed: int


def booster_augment(sd: SimpleDigraph, mask: np.ndarray,
                    boosters: np.ndarray, label: np.ndarray) -> BoosterReport:
    """A maximum matching of the view under label of G_i, the host
    edges mask selects, grown at once by the disjoint booster mask.

    Adding edges never removes a perfect matching, so the grown graph
    has one exactly when some prefix of the boosters does; when it has
    none, the matching falls short by its deficiency.
    """
    grown = digraph_to_bipartite(mask | boosters, sd, label)
    return BoosterReport(matching=_matching(sd.n, grown.indptr, grown.indices),
                         consumed=int(np.count_nonzero(boosters)))


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
        mask = part.reserve(1, i, used)
        mt = maximum_matching(digraph_to_bipartite(mask, sd, label))
        if not mt.is_perfect():
            report = booster_augment(sd, mask, part.reserve(2, i, used), label)
            mt = report.matching
            if not mt.is_perfect():
                raise PhaseFailure(
                    "phase1", f"deficiency {n - mt.size} after "
                    f"{report.consumed} boosters", index=i)
        pm = _finalize(sd, mt, unlabel)
        if used[pm.edge_ids].any():
            raise ValueError("phase 1: matched an already-used edge")
        used[pm.edge_ids] = True
        out.append(pm)
    return out


def matching_to_cycle_cover(pm: PerfectMatching):
    """Read the perfect matching as a permutation digraph: the B
    partner of a_v becomes the successor of v."""
    from .cover import PermutationDigraph
    return PermutationDigraph(pm.succ, pm.edge_ids)
