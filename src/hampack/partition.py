"""Edge-pool partition and the SMALL vertex set.

The m host edges are split into 3k+1 pools, Ê_{t,i} for t <= 3 and
i < k, and E_4.  Each edge draws one of 4k labels uniformly and
independently, so it lies in each Ê_{t,i} with probability 1/4k, as
in the paper, and in E_4 with probability 1/4.  E_4 comes as k parts
E_{4,i}, one label each: their sizes are independent multinomial
cells of mean m/4k, not near-equal deals.

A vertex is SMALL when its in- or out-degree is at most c/8k either in
the host or inside any single pool Ê_{t,i} with t <= 3.  E_SMALL is
every host edge touching SMALL.

Pool membership is one label per canonical edge id, never a copied
edge list: edge e lies in pool[e] = (t-1)k + i, which names Ê_{t,i}
for t <= 3 and the part E_{4,i} of E_4 for t = 4.

EdgePartition.reserve is the one place the recipe for cover i's edge
supply E_{t,i} lives; every phase takes its pool from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SimpleDigraph

__all__ = ["EdgePartition", "split_edges", "compute_small"]


@dataclass
class EdgePartition:
    """Pool labels over edge ids plus the E_SMALL mark.

    pool[e] = (t-1)k + i, in [0, 4k), names the pool of edge e: Ê_{t,i}
    for t <= 3, E_{4,i} for t = 4, with i in [0, k).  e_small is a
    boolean mark over edges; it stays None until compute_small fills it.
    """

    k: int
    pool: np.ndarray
    e_small: np.ndarray | None = None

    def pool_edges(self, t: int, i: int) -> np.ndarray:
        """Edge ids of Ê_{t,i} (t <= 3) or E_{4,i} (t = 4), ascending."""
        return np.flatnonzero(self.pool == (t - 1) * self.k + i)

    def reserve(self, t: int, i: int, used: np.ndarray) -> np.ndarray:
        """Cover i's supply t as a fresh bool mask over edge ids, with no
        edge marked in used: Ê_{t,i} ∪ E_SMALL for t = 1 (matching) and
        t = 3 (rotations), so low-degree vertices keep their full supply;
        Ê_{2,i} minus E_SMALL for t = 2, the boosters, which must be new
        pairs to G_i; E_{4,i} for t = 4, the merges."""
        if self.e_small is None:
            raise ValueError("compute_small has not run")
        mask = self.pool == (t - 1) * self.k + i
        if t in (1, 3):
            mask |= self.e_small
        elif t == 2:
            mask &= ~self.e_small
        mask &= ~used
        return mask


def split_edges(sd: SimpleDigraph, k: int, rng: np.random.Generator) -> EdgePartition:
    """Assign every edge to one of the 4k pool labels.

    One uniform draw per edge: each edge lies in each Ê_{t,i} and each
    E_{4,i} with probability 1/4k, independently of every other edge.
    """
    pool = rng.integers(0, 4 * k, sd.m, dtype=np.min_scalar_type(4 * k - 1))
    return EdgePartition(k=k, pool=pool)


def compute_small(sd: SimpleDigraph, part: EdgePartition,
                  c: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """SMALL vertices and E_SMALL, their incident edges, as bool masks;
    part.e_small is set to the latter.

    The threshold is the real value c/8k compared with <=; on integer
    degrees this equals floor(c/8k).  Pools with t = 4 do not count:
    they are reserve edges, not working graphs.
    """
    thr = c / (8.0 * k)
    n = sd.n
    small = (sd.out_deg <= thr) | (sd.in_deg <= thr)
    # each pool label is a row of the per-pool degree tables, which two
    # bincounts over (pool, vertex) keys fill at once; rows 3k and up
    # hold E_4 and are dropped
    row = part.pool.astype(np.int64)
    row *= n
    key = np.empty_like(row)
    for ends in (sd.tails, sd.heads):
        deg = np.bincount(np.add(row, ends, out=key),
                          minlength=4 * k * n)[:3 * k * n]
        small |= deg.reshape(3 * k, n).min(axis=0) <= thr
    e_small = small[sd.tails]
    e_small |= small[sd.heads]
    part.e_small = e_small
    return small, e_small
