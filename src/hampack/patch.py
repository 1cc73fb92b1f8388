"""Final repair: merge the long cycles of a cover into one Hamilton cycle.

A cover that survived the small-cycle sweep consists of at most a few
cycles, each of length >= n0.  Two drivers turn it into a Hamilton
cycle using reserve edges from the fourth pool:

* ``merge_patch`` (pipeline default) repeatedly splices the smallest
  cycle into another one with a pairwise edge exchange: break (a, a+)
  in cycle A and (b, b+) in cycle B, rejoin with reserve edges
  (a, b+) and (b, a+).  Each exchange is the kappa = 2 instance of the
  section machinery below and never shrinks a cycle, so no new small
  cycles can appear.

* ``oneshot_patch`` breaks kappa_j = 2*floor(10*c_j/n0) + 1 edges per
  cycle in one go, labels the resulting path sections, and searches the
  auxiliary digraph for a cyclic tau whose joining edges all exist.
  This needs a reserve pool dense enough that the kappa-node auxiliary
  digraph has a Hamilton cycle, which desk-scale instances rarely
  provide; it is kept for fidelity experiments at friendlier densities.

Break vertices are drawn from V_j, the cycle's vertices that are
neither burnt (W) nor of low pool degree (SMALL), while the relaxed
fallback of ``merge_patch`` drops that filter rather than fail a trial.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cover import PermutationDigraph, _Ctx
from .errors import OracleSizeError, PhaseFailure
from .model import SimpleDigraph


@dataclass
class PatchStats:
    merges: int = 0
    relaxed_merges: int = 0
    kappa: int = 0
    kappa_j: list = field(default_factory=list)
    search_nodes: int = 0
    mode: str = "merge"


@dataclass(frozen=True)
class PathSystem:
    """Path sections of a cover after deleting the break edges.

    Section s (0-based) runs u[phi[s]] -> v[s] inside the cover; v
    holds the break vertices in label order, u[s] is the former
    successor of v[s], and phi is the product of one odd cycle per
    cover cycle.
    """

    v: np.ndarray
    u: np.ndarray
    phi: np.ndarray
    break_eids: np.ndarray
    kappa_j: tuple
    c_j: tuple

    @property
    def kappa(self) -> int:
        return len(self.v)


def select_breaks(pd: PermutationDigraph, blocked: np.ndarray, n0: float,
                  rng: np.random.Generator) -> PathSystem:
    """Pick kappa_j break vertices per cycle and label the sections.

    blocked marks W ∪ SMALL; eligible vertices per cycle form V_j.
    Labels start at the lowest-numbered break vertex of each cycle and
    follow the cycle, cycles in id order, so phi(s) = s - 1 cyclically
    within each block.
    """
    if pd.edge_ids is None:
        raise ValueError("cover lacks edge provenance")
    v_parts = []
    kappa_js = []
    c_js = []
    phi_parts = []
    for cid in range(pd.num_cycles):
        cyc = pd.cycles[cid]
        elig = cyc[~blocked[cyc]]
        c_j = len(elig)
        if c_j < n0 / 10:
            raise PhaseFailure(
                "3-select", f"cycle {cid}: only {c_j} eligible vertices "
                f"(need >= {n0 / 10:.0f})")
        kappa_j = 2 * math.floor(10 * c_j / n0) + 1
        if kappa_j > c_j:  # tiny-instance guard, impossible at scale
            raise PhaseFailure(
                "3-select", f"cycle {cid}: kappa_j={kappa_j} exceeds "
                f"eligible count {c_j}")
        chosen = rng.choice(elig, size=kappa_j, replace=False)
        marks = np.zeros(pd.n, dtype=bool)
        marks[chosen] = True
        # walk the cycle from the lowest-numbered break vertex
        start_v = int(chosen.min())
        offset = int(pd.pos[start_v])
        order = np.roll(cyc, -offset)
        block = [int(x) for x in order if marks[x]]
        base = sum(kappa_js)
        phi_parts.extend([base + ((s - 1) % kappa_j) for s in range(kappa_j)])
        v_parts.extend(block)
        kappa_js.append(kappa_j)
        c_js.append(c_j)
    v = np.array(v_parts, dtype=np.int64)
    u = pd.succ[v]
    return PathSystem(v=v, u=u, phi=np.array(phi_parts, dtype=np.int64),
                      break_eids=pd.edge_ids[v],
                      kappa_j=tuple(kappa_js), c_j=tuple(c_js))


def build_aux(ps: PathSystem, ctx: _Ctx) -> list:
    """Adjacency of the auxiliary digraph.

    aux[a] lists (b, eid) with a reserve edge (v_a, u[phi[b]]); a = b
    is excluded.
    """
    kappa = ps.kappa
    start_of = {}  # section start vertex -> section label
    for b in range(kappa):
        start_of[int(ps.u[ps.phi[b]])] = b
    aux = [[] for _ in range(kappa)]
    for a in range(kappa):
        for eid, h in ctx.pool_out(int(ps.v[a])):
            b = start_of.get(h)
            if b is not None and b != a:
                aux[a].append((b, eid))
    return aux


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


def reassemble(pd: PermutationDigraph, ps: PathSystem, tau: np.ndarray,
               eid_of: np.ndarray) -> PermutationDigraph:
    """Apply the joins (v_a, u[phi[tau[a]]]) and return the new cover."""
    out = pd.rewired(ps.v, ps.u[ps.phi[tau]], eid_of)
    if out.num_cycles != 1:
        raise PhaseFailure("phase3", "reassembled cover is not one cycle")
    return out


def oneshot_patch(pd: PermutationDigraph, sd: SimpleDigraph,
                  pool_ids: np.ndarray, blocked: np.ndarray, n0: float,
                  rng: np.random.Generator, mode: str = "any",
                  ) -> tuple[PermutationDigraph, PatchStats]:
    """Break every cycle at once and rejoin along one cyclic tau.

    A second break selection is drawn if the first has no cyclic tau.
    """
    stats = PatchStats(mode=f"oneshot-{mode}")
    if pd.num_cycles == 1:
        return pd, stats
    ctx = _Ctx(sd, pool_ids)
    ctx.refresh(pd)
    for _ in range(2):
        ps = select_breaks(pd, blocked, n0, rng)
        aux = build_aux(ps, ctx)
        tau, eid_of, nodes = find_cyclic_tau(aux, ps.phi, mode)
        stats.search_nodes += nodes
        if tau is not None:
            stats.kappa = ps.kappa
            stats.kappa_j = list(ps.kappa_j)
            return reassemble(pd, ps, tau, eid_of), stats
    raise PhaseFailure(
        "3-search", "no cyclic tau after 2 break selections "
        f"({stats.search_nodes} nodes)")


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
    stats = PatchStats(mode="merge")
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
