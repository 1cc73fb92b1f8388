"""Final repair: merge the long cycles of a cover into one Hamilton cycle.

A cover that survived the small-cycle sweep consists of at most a few
cycles, each of length >= n0.  ``merge_patch`` turns it into a Hamilton
cycle using reserve edges from the fourth pool: it repeatedly splices
the smallest cycle into another one with a pairwise edge exchange.
Break (a, a+) in cycle A and (b, b+) in cycle B, rejoin with reserve
edges (a, b+) and (b, a+).  An exchange is the kappa = 2 case of the
paper's reconnection of path sections along a cyclic tau, and it never
shrinks a cycle, so no new small cycles can appear.

There is no one-shot reconnection.  Joining bare section endpoints
gives an auxiliary digraph of about kappa^2 * d_4 / n edges, too sparse
to hold a Hamilton cycle at any n the pipeline runs.  A faithful version
joins the endpoint sets of rotation trees and belongs on phase 2's
rotation engine (ROADMAP item 4).  ``find_cyclic_tau`` and
``count_r_phi`` stay as the counting side of that argument: the tau
search on a given auxiliary digraph and |R_phi| by enumeration.

Break vertices are drawn from V_j, the cycle's vertices that are
neither burnt (W) nor of low pool degree (SMALL), while the relaxed
fallback drops that filter rather than fail a trial.
"""

from dataclasses import dataclass

import numpy as np

from .cover import PermutationDigraph, _Ctx
from .errors import OracleSizeError, PhaseFailure
from .model import SimpleDigraph


@dataclass
class PatchStats:
    merges: int = 0
    relaxed_merges: int = 0
    # always 0: perfbench/workload.py::_pack reads both, and they go
    # when ROADMAP item 1 makes _pack call run_trial
    kappa: int = 0
    search_nodes: int = 0


def find_cyclic_tau(aux: list, phi: np.ndarray | None = None,
                    mode: str = "any", node_cap: int = 1_000_000):
    """Hamilton cycle in the auxiliary digraph by backtracking.

    Returns (tau, eid_of, nodes_expanded) or (None, None, nodes).
    tau[a] = b means section a is joined to section b; in
    "restrict-rphi" mode phi∘tau must itself be cyclic, matching the
    class the second-moment analysis works in.
    """
    if mode not in ("any", "restrict-rphi"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "restrict-rphi" and phi is None:
        raise ValueError("restrict-rphi mode needs phi")
    kappa = len(aux)
    if kappa < 2:
        raise ValueError("need at least two sections")
    visited = np.zeros(kappa, dtype=bool)

    def choices(a):
        # fewest-options-first over the still-unvisited successors
        cand = [(b, eid) for b, eid in aux[a] if not visited[b]]
        cand.sort(key=lambda be: sum(not visited[x] for x, _ in aux[be[0]]))
        return iter(cand)

    path = [0]
    eids = [-1]
    visited[0] = True
    iters = [choices(0)]
    nodes = 0

    def accept():
        tau = np.empty(kappa, dtype=np.int64)
        eid_of = np.empty(kappa, dtype=np.int64)
        for idx in range(kappa):
            a = path[idx]
            b = path[(idx + 1) % kappa]
            tau[a] = b
            eid_of[a] = eids[(idx + 1) % kappa]
        if mode == "restrict-rphi":
            lam = phi[tau]
            seen = 0
            x = 0
            for _ in range(kappa):
                x = int(lam[x])
                seen += 1
                if x == 0:
                    break
            if seen != kappa:
                return None
        return tau, eid_of

    while iters:
        if nodes >= node_cap:
            return None, None, nodes
        advanced = False
        for b, eid in iters[-1]:
            if visited[b]:
                continue
            nodes += 1
            visited[b] = True
            path.append(b)
            eids.append(eid)
            iters.append(choices(b))
            advanced = True
            break
        if advanced:
            continue
        # leaf: either a full tour that closes, or backtrack
        if len(path) == kappa:
            back = next((e for b, e in aux[path[-1]] if b == 0), None)
            if back is not None:
                eids[0] = back
                got = accept()
                if got is not None:
                    tau, eid_of = got
                    return tau, eid_of, nodes
        last = path.pop()
        visited[last] = False
        eids.pop()
        iters.pop()
    return None, None, nodes


def count_r_phi(phi: np.ndarray) -> int:
    """|R_phi| = #{cyclic tau : phi∘tau is cyclic}, by enumeration."""
    phi = np.asarray(phi, dtype=np.int64)
    kappa = len(phi)
    if kappa > 10:
        raise OracleSizeError("enumeration limited to kappa <= 10")
    import itertools

    def is_cyclic(p):
        x = 0
        for steps in range(1, kappa + 1):
            x = int(p[x])
            if x == 0:
                return steps == kappa
        return False

    count = 0
    tau = np.empty(kappa, dtype=np.int64)
    for rest in itertools.permutations(range(1, kappa)):
        order = (0,) + rest
        for idx in range(kappa):
            tau[order[idx]] = order[(idx + 1) % kappa]
        if is_cyclic(phi[tau]):
            count += 1
    return count


def _find_exchange(pd: PermutationDigraph, cid: int, ctx: _Ctx,
                   blocked: np.ndarray | None,
                   rng: np.random.Generator):
    """A feasible 2-exchange splicing cycle cid into another cycle.

    Returns (a, b, eid_ab+, eid_ba+) where both joins are available
    reserve edges, or None.  blocked filters the two break vertices.
    Candidates a are tried in a random order and, per a, along its
    available pool edges (a, b+); they are checked in chunks of that
    order growing 4x from 256, and the first feasible one wins.
    """
    cyc = pd.cycles[cid]
    order = cyc[rng.permutation(len(cyc))]
    if blocked is not None:
        order = order[~blocked[order]]
    lo, size = 0, 256
    while lo < len(order):
        chunk = order[lo:lo + size]
        at, eid1, h = ctx.pool_out_edges(chunk)
        a = chunk[at]
        lo, size = lo + size, 4 * size
        keep = pd.cycle_id[h] != cid
        b = pd.pred[h]
        if blocked is not None:
            keep &= ~blocked[b]
        a, b, eid1 = a[keep], b[keep], eid1[keep]
        eid2 = ctx.sd.edge_lookup(b, pd.succ[a])
        ok = eid2 >= 0
        ok[ok] = ctx.avail[eid2[ok]]
        hit = np.flatnonzero(ok)
        if len(hit):
            j = hit[0]
            return int(a[j]), int(b[j]), int(eid1[j]), int(eid2[j])
    return None


def merge_patch(pd: PermutationDigraph, sd: SimpleDigraph,
                pool_ids: np.ndarray, blocked: np.ndarray,
                rng: np.random.Generator,
                ) -> tuple[PermutationDigraph, PatchStats]:
    """Merge cycles pairwise until the cover is one Hamilton cycle.

    Each round splices the smallest cycle into some other cycle via an
    edge exchange whose break vertices avoid W ∪ SMALL; if no such
    exchange exists the filter is dropped before giving up.
    """
    stats = PatchStats()
    ctx = _Ctx(sd, pool_ids)
    while pd.num_cycles > 1:
        ctx.refresh(pd)
        cid = int(np.argmin(pd.cycle_lens))
        found = _find_exchange(pd, cid, ctx, blocked, rng)
        if found is None:
            found = _find_exchange(pd, cid, ctx, None, rng)
            if found is None:
                raise PhaseFailure(
                    "phase3", f"no exchange merges the {int(pd.cycle_lens[cid])}"
                    f"-cycle ({pd.num_cycles} cycles left)")
            stats.relaxed_merges += 1
        a, b, eid1, eid2 = found
        merged = pd.rewired((a, b), (sd.heads[eid1], pd.succ[a]),
                            (eid1, eid2))
        if merged.num_cycles != pd.num_cycles - 1:
            raise PhaseFailure("phase3", "exchange failed to merge")
        pd = merged
        stats.merges += 1
    return pd, stats
