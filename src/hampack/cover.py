"""Cycle covers and small-cycle elimination via rotation trees (phase 2).

A cycle cover is a permutation digraph Π.  Cycles shorter than
n₀ = n/ln n are *small* and must go.  One elimination iteration picks
a small cycle C, deletes one of its edges (v₀,u₀) turning C into a
path u₀ → … → v₀, and then rotates the resulting near-permutation
digraphs (NPDs):

  out-phase:   extend or re-split at the path END by adding a reserve
               edge (v,w) and removing the edge (x,w) that previously
               fed w; grown breadth-first into a tree of NPDs until
               enough long-path leaves exist (or the path closes back
               onto u₀ early).
  in-phase:    from every leaf, the same surgery at the path START:
               add (w,u') into the current start u', removing (w,x) so
               x starts the path; success when a reserve edge runs
               from a leaf's fixed end v_j to the current start,
               closing everything into one cycle of length ≥ n₀.

Admission of a rotation needs C(i): any cycle it creates has ≥ n₀
vertices and the surviving path is empty or keeps ≥ n₀ vertices; and
C(ii): the touched pair {w, x} avoids the burnt set W.  Vertices burn
on admission, which freezes their successor pointers and is exactly
what lets all in-phase trees share one layer structure: for any
unburnt w, succ(w) agrees with Π across every NPD in play.

Tree nodes never copy the digraph.  A node stores its surgery delta
plus the current path as a tuple of Π-arcs (first, last); lengths and
membership come from Π's cycle tables in O(arcs).  Cycles created by
earlier splits are never absorbed again (they are ≥ n₀ by admission,
so nothing is lost).

The textbook asymptotic budgets (ν = √n·ln n leaves, |W| ≤ n^{3/4})
only separate at astronomical n: already 2αν > n^{3/4} for every n
below ~10⁹, so a literal reading can never finish a single tree.  The
defaults here keep the same shape at bench scale: ν ≈ √(n/α) leaves
and a W cap of max(n^{3/4}, 3n/4); PhaseTwoBudget.asymptotic restores
the literal constants for limit experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PhaseFailure
from .model import SimpleDigraph, pair_csr

__all__ = [
    "PermutationDigraph", "PhaseTwoBudget", "PhaseTwoStats", "cycles_of",
    "out_phase", "in_phase", "eliminate_small_cycles",
]


class PermutationDigraph:
    """A cycle cover of [n]: a permutation successor map with provenance.

    succ[v] is the next vertex after v; edge_ids[v] is the host edge id
    of (v, succ[v]).  Cycles are extracted eagerly: cycle_id[v] names
    the cycle of v, pos[v] is v's offset along its cycle from the
    cycle's canonical start.
    """

    def __init__(self, succ: np.ndarray, edge_ids: np.ndarray | None = None):
        succ = np.asarray(succ, dtype=np.int64)
        n = len(succ)
        if n == 0 or not np.array_equal(np.sort(succ), np.arange(n)):
            raise ValueError("succ is not a permutation")
        self.succ = succ
        self.pred = np.empty(n, dtype=np.int64)
        self.pred[succ] = np.arange(n)
        self.edge_ids = (None if edge_ids is None
                         else np.asarray(edge_ids, dtype=np.int64))
        self._extract_cycles()

    @property
    def n(self) -> int:
        return len(self.succ)

    def _extract_cycles(self):
        n = self.n
        cycle_id = np.full(n, -1, dtype=np.int64)
        pos = np.zeros(n, dtype=np.int64)
        cycles = []
        for start in range(n):
            if cycle_id[start] >= 0:
                continue
            cid = len(cycles)
            walk = []
            v = start
            while cycle_id[v] < 0:
                cycle_id[v] = cid
                pos[v] = len(walk)
                walk.append(v)
                v = int(self.succ[v])
            cycles.append(np.asarray(walk, dtype=np.int64))
        self.cycle_id = cycle_id
        self.pos = pos
        self.cycles = cycles
        self.cycle_lens = np.array([len(c) for c in cycles], dtype=np.int64)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def cycle_len_of(self, v: int) -> int:
        return int(self.cycle_lens[self.cycle_id[v]])

    def arc_edges(self, first: int, last: int) -> int:
        """Edge count of the cycle arc first -> ... -> last."""
        if self.cycle_id[first] != self.cycle_id[last]:
            raise ValueError("arc endpoints on different cycles")
        length = self.cycle_lens[self.cycle_id[first]]
        return int((self.pos[last] - self.pos[first]) % length)


def cycles_of(pd: PermutationDigraph, n0: float) -> tuple[list, list]:
    """Cycle ids split into (small, large): small means length < n0."""
    small = [c for c in range(pd.num_cycles) if pd.cycle_lens[c] < n0]
    large = [c for c in range(pd.num_cycles) if pd.cycle_lens[c] >= n0]
    return small, large


@dataclass(frozen=True)
class PhaseTwoBudget:
    """Knobs for the rotation trees; None fields auto-fill from (n,c,k)."""

    n0: float
    alpha: int
    leaf_target: int
    leaf_cap: int
    w_cap: int
    max_levels: int = 60
    max_starts: int = 384
    max_validations: int = 512
    in_branch: int = 0  # 0 means fall back to alpha

    @classmethod
    def for_model(cls, n: int, c: float, k: int) -> "PhaseTwoBudget":
        alpha = max(2, math.ceil(c / (8 * k)))
        nu = max(8, min(math.ceil(math.sqrt(n / alpha)),
                        math.ceil(math.sqrt(n) * math.log(n))))
        # a wide shallow start tree burns the same two vertices per
        # start but keeps the delta chains short, which is what closure
        # validation odds hinge on
        return cls(n0=n / math.log(n), alpha=alpha, leaf_target=nu,
                   leaf_cap=3 * nu,
                   w_cap=max(math.ceil(n ** 0.75), math.ceil(0.85 * n)),
                   in_branch=3 * alpha)

    @classmethod
    def asymptotic(cls, n: int, c: float, k: int) -> "PhaseTwoBudget":
        alpha = max(2, math.ceil(c / (8 * k)))
        nu = math.ceil(math.sqrt(n) * math.log(n))
        return cls(n0=n / math.log(n), alpha=alpha, leaf_target=nu,
                   leaf_cap=3 * nu, w_cap=math.ceil(n ** 0.75),
                   in_branch=alpha)


@dataclass
class PhaseTwoStats:
    iterations: int = 0
    early_closures: int = 0
    in_phase_closures: int = 0
    second_attempts: int = 0
    validations: int = 0
    w_size: int = 0
    eliminated: list = field(default_factory=list)


class _Node:
    """One NPD in a rotation tree, stored as a delta chain.

    segs is the path u0 -> ... -> end as consecutive Π-arcs (first,
    last); touched is the set of Π-cycle ids that ever contributed an
    arc (their leftovers may live on created cycles, which are opaque
    to further surgery).
    """

    __slots__ = ("parent", "added", "removed", "segs", "touched",
                 "path_v", "end")

    def __init__(self, parent, added, removed, segs, touched, path_v, end):
        self.parent = parent
        self.added = added      # (v, w, eid) or None at the root
        self.removed = removed  # (x, w) or None
        self.segs = segs
        self.touched = touched
        self.path_v = path_v
        self.end = end

    def chain(self):
        """Deltas from the root down to this node."""
        steps = []
        node = self
        while node.added is not None:
            steps.append((node.added, node.removed))
            node = node.parent
        steps.reverse()
        return steps


class _Ctx:
    """Per-cover working context: Π tables plus reserve-pool adjacency.

    Adjacency over the pool is built once; availability (pool member
    and not sitting in the current cover) refreshes per iteration.
    """

    def __init__(self, sd: SimpleDigraph, pool_ids: np.ndarray):
        self.sd = sd
        self.pool_ids = np.asarray(pool_ids, dtype=np.int64)
        tails = sd.edges[self.pool_ids, 0]
        heads = sd.edges[self.pool_ids, 1]
        order_out, self._out_ptr = pair_csr(tails, self.pool_ids, sd.m, sd.n)
        self._out_ids = self.pool_ids[order_out]
        self._out_heads = heads[order_out]
        order_in, self._in_ptr = pair_csr(heads, self.pool_ids, sd.m, sd.n)
        self._in_ids = self.pool_ids[order_in]
        self._in_tails = tails[order_in]
        self.avail = np.zeros(sd.m, dtype=bool)
        self.pd: PermutationDigraph | None = None

    def refresh(self, pd: PermutationDigraph):
        self.pd = pd
        self.avail[:] = False
        self.avail[self.pool_ids] = True
        self.avail[pd.edge_ids] = False

    def pool_out(self, v: int):
        """(eid, head) pairs of available pool edges leaving v."""
        lo, hi = self._out_ptr[v], self._out_ptr[v + 1]
        for idx in range(lo, hi):
            e = self._out_ids[idx]
            if self.avail[e]:
                yield int(e), int(self._out_heads[idx])

    def pool_in(self, u: int):
        """(eid, tail) pairs of available pool edges entering u."""
        lo, hi = self._in_ptr[u], self._in_ptr[u + 1]
        for idx in range(lo, hi):
            e = self._in_ids[idx]
            if self.avail[e]:
                yield int(e), int(self._in_tails[idx])


def _root_node(pd: PermutationDigraph, u0: int, v0: int, cid: int) -> _Node:
    return _Node(parent=None, added=None, removed=None,
                 segs=((u0, v0),), touched=frozenset((cid,)),
                 path_v=int(pd.cycle_lens[cid]), end=v0)


def _locate(pd: PermutationDigraph, segs, w: int):
    """Position of w along the path, or None.

    Returns (arc index, vertices strictly before w on the path).
    """
    before = 0
    wc = pd.cycle_id[w]
    wp = pd.pos[w]
    for idx, (f, l) in enumerate(segs):
        fc = pd.cycle_id[f]
        if fc == wc:
            length = pd.cycle_lens[fc]
            off_w = (wp - pd.pos[f]) % length
            off_l = (pd.pos[l] - pd.pos[f]) % length
            if off_w <= off_l:
                return idx, before + int(off_w)
        before += pd.arc_edges(f, l) + 1
    return None


def _apply_absorb(pd, node_segs, touched, path_v, w):
    """Absorb w's intact Π-cycle at the path end (out-phase case 1)."""
    x = int(pd.pred[w])
    segs = node_segs + ((w, x),)
    clen = pd.cycle_len_of(w)
    return segs, touched | {int(pd.cycle_id[w])}, path_v + clen, x


def _split_tail(pd, segs, at_idx: int, w: int):
    """Path prefix left after splitting off w..end (out-phase case 2)."""
    f, _ = segs[at_idx]
    x = int(pd.pred[w])
    return segs[:at_idx] + ((f, x),), x


def _split_head(pd, segs, at_idx: int, w: int):
    """Path suffix left after the front splits off (in-phase split)."""
    _, l = segs[at_idx]
    x = int(pd.succ[w])
    return ((x, l),) + segs[at_idx + 1:], x


def out_phase(pd: PermutationDigraph, cid: int, ctx: _Ctx, w_set: bytearray,
              budget: PhaseTwoBudget, rng: np.random.Generator,
              u0: int | None = None):
    """Grow the rotation tree for one small cycle.

    Returns ("closed", Π') on early closure, ("leaves", u0, [nodes])
    once enough long-path leaves exist, or ("fail", reason).
    """
    n0 = budget.n0
    cyc = pd.cycles[cid]
    if u0 is None:
        u0 = int(cyc[rng.integers(len(cyc))])
    v0 = int(pd.pred[u0])
    # the broken edge needs no C(ii) clearance: burns from earlier
    # iterations are already materialized into Π, so only this
    # iteration's own surgeries constrain pivot admission
    w_set[u0] = 1
    w_set[v0] = 1
    root = _root_node(pd, u0, v0, cid)
    level = [root]
    for _ in range(budget.max_levels):
        leaves = [nd for nd in level if nd.path_v >= n0]
        if len(leaves) >= budget.leaf_target:
            leaves.sort(key=lambda nd: -nd.path_v)
            return ("leaves", u0, leaves[:budget.leaf_cap])
        nxt = []
        for node in level:
            v = node.end
            closing = None
            admitted = 0
            for eid, w in ctx.pool_out(v):
                # eager full scan for the early closure first
                if w == u0 and node.path_v >= n0:
                    closing = (eid, node)
                    break
            if closing is not None:
                eid, node = closing
                closed = _materialize(pd, node, [], (node.end, u0, eid))
                return ("closed", closed)
            for eid, w in ctx.pool_out(v):
                if admitted >= budget.alpha:
                    break
                if w_set[w] or w == u0:
                    continue
                hit = _locate(pd, node.segs, w)
                if hit is None:
                    if int(pd.cycle_id[w]) in node.touched:
                        continue  # lives on a created cycle: opaque
                    segs, touched, pv, x = _apply_absorb(
                        pd, node.segs, node.touched, node.path_v, w)
                    if w_set[x]:
                        continue
                else:
                    idx, before = hit
                    cyc_v = node.path_v - before
                    if cyc_v < n0 or (before > 0 and before < n0):
                        continue
                    if before == 0:
                        continue  # w == u0 handled by the eager scan
                    segs, x = _split_tail(pd, node.segs, idx, w)
                    if w_set[x]:
                        continue
                    touched, pv = node.touched, before
                w_set[w] = 1
                w_set[x] = 1
                nxt.append(_Node(parent=node, added=(v, w, eid),
                                 removed=(x, w), segs=segs, touched=touched,
                                 path_v=pv, end=x))
            if len(nxt) >= budget.leaf_cap:
                break
        if not nxt:
            leaves = [nd for nd in level if nd.path_v >= n0]
            if leaves:
                leaves.sort(key=lambda nd: -nd.path_v)
                return ("leaves", u0, leaves[:budget.leaf_cap])
            return ("fail", "tree stalled with no long-path leaf")
        if sum(w_set) > budget.w_cap:
            return ("fail", "burnt-vertex cap exceeded")
        level = nxt
    return ("fail", "level budget exhausted")


def _replay(pd: PermutationDigraph, leaf: _Node, steps, n0: float):
    """Validate an in-phase chain against one leaf.

    steps is [(w, eid), ...] in application order (pivot w feeds the
    current start).  Returns (ok, final path vertices, final segs).
    """
    segs = leaf.segs
    touched = set(leaf.touched)
    path_v = leaf.path_v
    for w, _eid in steps:
        hit = _locate(pd, segs, w)
        if hit is None:
            if int(pd.cycle_id[w]) in touched:
                return False, 0, None  # created-cycle vertex: opaque
            x = int(pd.succ[w])
            segs = ((x, w),) + segs
            touched.add(int(pd.cycle_id[w]))
            path_v += pd.cycle_len_of(w)
        else:
            idx, before = hit
            front = before + 1  # vertices u' .. w inclusive
            rest = path_v - front
            if front < n0 or rest < n0:
                return False, 0, None
            segs, x = _split_head(pd, segs, idx, w)
            path_v = rest
    if path_v < n0:
        return False, 0, None
    return True, path_v, segs


def _materialize(pd: PermutationDigraph, leaf: _Node, in_steps,
                 closure) -> PermutationDigraph:
    """Apply a full delta chain to Π and build the new cover.

    in_steps = [(w, start_before, eid)] start-side surgeries in order;
    closure = (tail, head, eid) the final closing edge.
    """
    succ = pd.succ.copy()
    eids = pd.edge_ids.copy()
    # each removal (x,w) is superseded: x is the next delta's tail (or
    # the final dangling end the closure edge resolves), so writing the
    # additions in order leaves no stale pointer behind
    for (v, w, eid), _removed in leaf.chain():
        succ[v] = w
        eids[v] = eid
    for w, start, eid in in_steps:
        succ[w] = start
        eids[w] = eid
    t, h, eid = closure
    succ[t] = h
    eids[t] = eid
    return PermutationDigraph(succ, eids)


def in_phase(pd: PermutationDigraph, u0: int, leaves: list, ctx: _Ctx,
             w_set: bytearray, budget: PhaseTwoBudget):
    """Close one of the leaf paths into a ≥ n0 cycle by start-side
    rotations shared across every leaf tree.

    Every leaf path starts at u0, and all vertices whose successor
    differs from Π are burnt, so one breadth-first layer structure of
    reachable path starts serves every tree.  A reserve edge from a
    leaf's end to the current start is a closure candidate; candidates
    are validated against that leaf by replaying the chain (C(i) may
    hold for one leaf and fail for another).
    """
    n0 = budget.n0
    # closure targets: reserve edges out of each leaf end.  Long paths
    # validate far more often (short ones refuse most pivots as opaque
    # created-cycle vertices), so try them first.
    target: dict[int, list] = {}
    for j in sorted(range(len(leaves)), key=lambda i: -leaves[i].path_v):
        for eid, w in ctx.pool_out(leaves[j].end):
            target.setdefault(w, []).append((j, eid))
    if not target:
        return None
    parent: dict[int, tuple] = {u0: None}  # start -> (prev, w, eid)
    frontier = [u0]
    starts_seen = 1
    validations = 0

    def chain_to(s):
        steps = []
        cur = s
        while parent[cur] is not None:
            prev, w, eid = parent[cur]
            steps.append((w, eid, prev))
            cur = prev
        steps.reverse()
        return steps  # [(w, eid, start_fed)] root-first

    def try_close(s):
        nonlocal validations
        for j, closure_eid in target.get(s, ()):
            if validations >= budget.max_validations:
                return None
            validations += 1
            leaf = leaves[j]
            steps = chain_to(s)
            chain_eids = {e for _, e, _ in steps}
            if closure_eid in chain_eids:
                continue
            ok, _pv, _segs = _replay(
                pd, leaf, [(w, e) for w, e, _ in steps], n0)
            if not ok:
                continue
            in_steps = [(w, fed, e) for w, e, fed in steps]
            return _materialize(pd, leaf, in_steps,
                                (leaf.end, s, closure_eid))
        return None

    hit = try_close(u0)
    if hit is not None:
        return hit
    branch = budget.in_branch or budget.alpha
    # each start burns two vertices; never spend more than half the
    # remaining W headroom on one attempt so a retry stays possible
    headroom = budget.w_cap - sum(w_set)
    if headroom <= 0:
        return None
    max_starts = min(budget.max_starts, max(16, headroom // 4))
    while frontier and starts_seen < max_starts:
        if validations >= budget.max_validations:
            return None  # try_close can no longer accept anything
        nxt = []
        for s in frontier:
            admitted = 0
            for eid, w in ctx.pool_in(s):
                if admitted >= branch:
                    break
                if w_set[w]:
                    continue
                x = int(pd.succ[w])
                if w_set[x] or x in parent:
                    continue
                w_set[w] = 1
                w_set[x] = 1
                parent[x] = (s, w, eid)
                admitted += 1
                starts_seen += 1
                hit = try_close(x)
                if hit is not None:
                    return hit
                nxt.append(x)
        if sum(w_set) > budget.w_cap:
            return None
        frontier = nxt
    return None


def _assert_progress(old: PermutationDigraph, new: PermutationDigraph,
                     n0: float):
    old_small, _ = cycles_of(old, n0)
    new_small, _ = cycles_of(new, n0)
    if len(new_small) >= len(old_small):
        raise PhaseFailure("phase2", "small-cycle count failed to drop")
    old_sets = {frozenset(old.cycles[c].tolist()) for c in old_small}
    for c in new_small:
        members = frozenset(new.cycles[c].tolist())
        if members not in old_sets:
            raise PhaseFailure("phase2", "a new small cycle appeared")


def eliminate_small_cycles(pd: PermutationDigraph, sd: SimpleDigraph,
                           pool_ids: np.ndarray, rng: np.random.Generator,
                           budget: PhaseTwoBudget,
                           w_set: bytearray | None = None,
                           ) -> tuple[PermutationDigraph, PhaseTwoStats]:
    """Drive rotations until every cycle has ≥ n0 vertices.

    Small cycles are processed largest first; a cycle of length ≥ 4
    may use two attempts with vertex-disjoint broken edges, shorter
    ones get one.  W persists across the whole phase.
    """
    if pd.edge_ids is None:
        raise ValueError("cover lacks edge provenance")
    stats = PhaseTwoStats()
    ctx = _Ctx(sd, pool_ids)
    if w_set is None:
        w_set = bytearray(sd.n)
    while True:
        small, _large = cycles_of(pd, budget.n0)
        if not small:
            break
        small.sort(key=lambda c: -int(pd.cycle_lens[c]))
        cid = small[0]
        clen = int(pd.cycle_lens[cid])
        ctx.refresh(pd)
        stats.iterations += 1
        attempts = 2 if clen >= 4 else 1
        cyc = pd.cycles[cid]
        order = rng.permutation(len(cyc))
        tried: list[tuple[int, int]] = []
        new_pd = None
        for a in range(attempts):
            u0 = None
            for idx in order:
                cand = int(cyc[idx])
                pair = (cand, int(pd.pred[cand]))
                if all(pair[0] not in t and pair[1] not in t for t in tried):
                    u0 = cand
                    break
            if u0 is None:
                break
            tried.append((u0, int(pd.pred[u0])))
            if a == 1:
                stats.second_attempts += 1
            res = out_phase(pd, cid, ctx, w_set, budget, rng, u0=u0)
            if res[0] == "closed":
                stats.early_closures += 1
                new_pd = res[1]
                break
            if res[0] == "leaves":
                _, u0_fixed, leaves = res
                closed = in_phase(pd, u0_fixed, leaves, ctx, w_set, budget)
                if closed is not None:
                    stats.in_phase_closures += 1
                    new_pd = closed
                    break
        if new_pd is None:
            raise PhaseFailure(
                "phase2", f"could not remove a {clen}-cycle "
                f"(|W|={sum(w_set)}, cap={budget.w_cap})")
        _assert_progress(pd, new_pd, budget.n0)
        stats.eliminated.append(clen)
        pd = new_pd
    stats.w_size = sum(w_set)
    if pd.cycle_lens.min() < budget.n0:
        raise PhaseFailure("phase2", "postcondition violated")
    return pd, stats
