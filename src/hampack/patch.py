"""Final repair: merge the long cycles of a cover into one Hamilton cycle.

A cover that survived the small-cycle sweep consists of at most a few
cycles, each of length >= n0.  ``merge_patch`` turns it into a Hamilton
cycle using reserve edges from the fourth pool: it repeatedly splices
the smallest cycle into another one with a pairwise edge exchange.
When E_{4,i} holds no exchange for the smallest cycle, the search runs
once more over every edge no cover has spent; these are not fresh and
may be labelled for a later cover, a departure the README lists.
Break (a, a+) in cycle A and (b, b+) in cycle B, rejoin with reserve
edges (a, b+) and (b, a+).  An exchange is the kappa = 2 case of the
paper's reconnection of path sections along a cyclic tau, and it never
shrinks a cycle, so no new small cycles can appear.

There is no one-shot reconnection.  Joining bare section endpoints
gives an auxiliary digraph of about kappa^2 * d_4 / n edges, too sparse
to hold a Hamilton cycle at any n the pipeline runs.  A faithful version
would join the endpoint sets of rotation trees.
``count_r_phi`` and ``find_cyclic_tau`` stay as the counting side of
that argument.  Both walk one enumeration of the cyclic tau of [kappa]:
the first counts those with phi∘tau cyclic (|R_phi|), the second
returns the first of them that a given auxiliary digraph admits.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .cover import PermutationDigraph, pool_rows
from .errors import OracleSizeError, PhaseFailure
from .model import SimpleDigraph


@dataclass
class PatchStats:
    merges: int = 0
    # how many of the merges the spare-mask rung made
    rung_merges: int = 0
    # always 0: perfbench reads all three (tracer.py reads relaxed_merges,
    # workload.py::_pack reads kappa and search_nodes); each goes with
    # the benchmark change that stops reading it (ROADMAP items 1 and 4)
    relaxed_merges: int = 0
    kappa: int = 0
    search_nodes: int = 0


def _is_cyclic(p: np.ndarray) -> bool:
    """Whether the permutation p of [len(p)] is a single cycle."""
    x = 0
    for steps in range(1, len(p) + 1):
        x = int(p[x])
        if x == 0:
            return steps == len(p)
    return False


def _cyclic_taus(kappa: int):
    """Every cyclic tau of [kappa]: tau runs 0 -> order[1] -> ... -> 0,
    with order[1:] taking the permutations of 1..kappa-1 in
    lexicographic order."""
    if kappa < 2:
        raise ValueError("need at least two sections")
    if kappa > 10:
        raise OracleSizeError("enumeration limited to kappa <= 10")
    for rest in itertools.permutations(range(1, kappa)):
        tau = np.empty(kappa, dtype=np.int64)
        tau[[0, *rest]] = [*rest, 0]
        yield tau


def find_cyclic_tau(aux: list, phi: np.ndarray):
    """The first cyclic tau over the auxiliary digraph with phi∘tau cyclic.

    aux[a] lists (b, eid): section a may be joined to section b through
    reserve edge eid.  tau[a] = b joins a to b.  Returns (tau, eid_of)
    for the first tau in enumeration order whose arcs a -> tau[a] are
    all in aux and for which phi∘tau is cyclic, the class the
    second-moment analysis works in; (None, None) when there is none.
    """
    arcs = [dict(row) for row in aux]
    phi = np.asarray(phi, dtype=np.int64)
    for tau in _cyclic_taus(len(aux)):
        joins = list(enumerate(tau.tolist()))
        if all(b in arcs[a] for a, b in joins) and _is_cyclic(phi[tau]):
            return tau, np.array([arcs[a][b] for a, b in joins],
                                 dtype=np.int64)
    return None, None


def count_r_phi(phi: np.ndarray) -> int:
    """|R_phi| = #{cyclic tau : phi∘tau is cyclic}, by enumeration."""
    phi = np.asarray(phi, dtype=np.int64)
    return sum(_is_cyclic(phi[tau]) for tau in _cyclic_taus(len(phi)))


def _find_exchange(pd: PermutationDigraph, cid: int, sd: SimpleDigraph,
                   pool: np.ndarray, rng: np.random.Generator):
    """A feasible 2-exchange splicing cycle cid into another cycle.

    Returns (a, b, eid_ab+, eid_ba+) where both joins are pool edges off
    Π, or None.  Candidates a are tried in a random order and, per a,
    along its pool row (a, b+); they are checked in chunks of that order
    growing 4x from 256, and the first feasible one wins.
    """
    cyc = pd.cycles[cid]
    order = cyc[rng.permutation(len(cyc))]
    lo, size = 0, 256
    while lo < len(order):
        chunk = order[lo:lo + size]
        at, eid1, h = pool_rows(sd, pool, pd, 0, chunk)
        a = chunk[at]
        lo, size = lo + size, 4 * size
        keep = pd.cycle_id[h] != cid
        a, b, eid1 = a[keep], pd.pred[h[keep]], eid1[keep]
        eid2 = sd.edge_lookup(b, pd.succ[a])
        ok = eid2 >= 0
        # (b, a+) is never an arc of Π: succ(b) = h lies off cycle cid,
        # while a+ lies on it
        ok[ok] = pool[eid2[ok]]
        hit = np.flatnonzero(ok)
        if len(hit):
            j = hit[0]
            return int(a[j]), int(b[j]), int(eid1[j]), int(eid2[j])
    return None


def merge_patch(pd: PermutationDigraph, sd: SimpleDigraph,
                in_pool: np.ndarray, rng: np.random.Generator,
                spare: np.ndarray) -> tuple[PermutationDigraph, PatchStats]:
    """Merge cycles pairwise until the cover is one Hamilton cycle.

    in_pool, the reserve pool as a bool mask over edge ids, and spare,
    a second such mask, are never written.  Each round splices
    the smallest cycle into another via an edge exchange from in_pool,
    or from spare when in_pool has none; PhaseFailure when neither has
    an exchange.
    """
    stats = PatchStats()
    while pd.num_cycles > 1:
        cid = int(np.argmin(pd.cycle_lens))
        found = _find_exchange(pd, cid, sd, in_pool, rng)
        if found is None:
            found = _find_exchange(pd, cid, sd, spare, rng)
            stats.rung_merges += found is not None
        if found is None:
            raise PhaseFailure(
                "phase3", f"no exchange merges the {int(pd.cycle_lens[cid])}"
                f"-cycle ({pd.num_cycles} cycles left)")
        a, b, eid1, eid2 = found
        merged = pd.rewired((a, b), (sd.heads[eid1], pd.succ[a]),
                            (eid1, eid2))
        if merged.num_cycles != pd.num_cycles - 1:
            raise ValueError("phase 3: exchange failed to merge")
        pd = merged
        stats.merges += 1
    return pd, stats
