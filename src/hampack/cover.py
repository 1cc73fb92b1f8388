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
vertices and the surviving path keeps ≥ n₀ vertices; and C(ii): the
touched pair {w, x} avoids the burnt set W.  _rotate is the one place
C(i) and the arc surgery live, for both path ends.  Vertices burn on
admission, which freezes their successor pointers and is exactly what
lets all in-phase trees share one layer structure: for any unburnt w,
succ(w) agrees with Π across every NPD in play.

Tree nodes never copy the digraph.  A node stores its steps from the
root, the reserve edges (tail, head, eid) its rotations added, as does
each in-phase chain, so a closure's delta chain is one concatenation.
It also stores the current path as a tuple of Π-arcs (first, last);
lengths and membership come from Π's cycle tables in O(arcs).  Cycles
created by earlier splits are opaque: a pivot on one is refused, not
absorbed, although such cycles are ≥ n₀ by admission.

Covers are spliced, never rebuilt: one depth-first walk builds the
cycle tables once, for phase 1's cover, and each closure (like each
merge in phase 3) hands its rewired tails to PermutationDigraph.rewired,
which reuses the tables of every cycle the closure leaves alone and
joins the arcs of the rest.  Reserve pools are read against the cover
itself: pool_rows drops Π's one arc at each vertex from the host's CSR
row, so no per-cover copy of a pool is made.

The textbook asymptotic budgets (ν = √n·ln n leaves, |W| ≤ n^{3/4})
only separate at astronomical n: already 2αν > n^{3/4} for every n
below ~10⁹, so a literal reading can never finish a single tree.  The
leaf budget here keeps its shape at bench scale: ν ≈ √(n/α) leaves
with α = ⌈c/8k⌉.  W is not capped.  Unlike the construction, the
out-phase has no per-node cap of α children: a node admits every pivot
its pool row offers, and only the level's leaf cap stops it.

Those are all the limits: the leaf target and leaf cap, the in-phase's
in_branch = 3α children per start, and the MAX_STARTS cap on in-phase
starts.  Every loop ends without a cap of its own.  Each node an
out-phase level admits, like each in-phase start, burns its pivot w,
which was unburnt, so the levels of either phase stop once nothing is
left to burn, and a start burns at most n vertices.  Each in-phase
start is a vertex not seen before, so each closure target is validated
at most once.  The start cap is checked once per breadth-first level,
before the level runs, so the level that crosses it still admits all
its starts, up to in_branch per frontier start: at n = 10⁵ an in-phase
admitted about 800 starts against MAX_STARTS = 384.  A small cycle gets
at most one start per vertex, each with a fresh W, and each elimination
removes a small cycle.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import depth_first_order

from .errors import PhaseFailure
from .model import SimpleDigraph, sort_codes

__all__ = [
    "PermutationDigraph", "PhaseTwoBudget", "PhaseTwoStats", "cycles_of",
    "pool_rows", "out_phase", "in_phase", "eliminate_small_cycles",
]


class PermutationDigraph:
    """A cycle cover of [n]: a permutation successor map with provenance.

    succ[v] is the next vertex after v; edge_ids[v] is the host edge id
    of (v, succ[v]).  Cycles are extracted eagerly: cycles are numbered
    by their smallest vertex, which is also their canonical start;
    cycle_id[v] names the cycle of v, pos[v] is v's offset along its
    cycle from that start, and cycles[c] lists cycle c from its start.
    The constructor builds these tables with one depth-first walk;
    rewired splices them for a cover that differs in a few arcs.
    """

    def __init__(self, succ: np.ndarray, edge_ids: np.ndarray):
        succ = np.asarray(succ, dtype=np.int64)
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        if edge_ids.shape != succ.shape:
            raise ValueError("edge_ids and succ differ in shape")
        n = len(succ)
        if n == 0 or succ.min() < 0 or succ.max() >= n:
            raise ValueError("succ is not a permutation")
        self.succ = succ
        self.pred = np.full(n, -1, dtype=np.int64)
        self.pred[succ] = np.arange(n)
        if (self.pred < 0).any():  # some vertex has no predecessor
            raise ValueError("succ is not a permutation")
        self.edge_ids = edge_ids
        self._extract_cycles()

    @property
    def n(self) -> int:
        return len(self.succ)

    def _extract_cycles(self):
        """Cycle tables from one depth-first walk, in O(n).

        The walk runs over 2n nodes: vertex v has one arc, to succ[v],
        and ladder node n + v two, first to v and then up to n + v + 1.
        From ladder node n it enters each cycle at its smallest vertex
        and lists the whole cycle before it climbs on, so the vertices
        come out cycle by cycle, in start order.  A cycle ends wherever
        the next vertex is not the successor of the last.  scipy rescans
        a node's row each time the walk returns to it, so one root with
        an arc to every vertex would cost O(n * cycles); the ladder keeps
        every row at two arcs.  The walk's order is scipy behaviour, not
        API, so starts out of order raise ValueError.
        """
        n = self.n
        v = np.arange(n)
        # the top ladder node climbs back to n, where the walk began
        rungs = np.column_stack((v, n + np.roll(v, -1))).ravel()
        arcs = csr_matrix((np.ones(3 * n), np.r_[self.succ, rungs],
                           np.r_[v, n + 2 * np.arange(n + 1)]),
                          shape=(2 * n, 2 * n))
        order = depth_first_order(arcs, n, return_predecessors=False)
        order = order[order < n].astype(np.int64)
        cut = np.flatnonzero(order[1:] != self.succ[order[:-1]]) + 1
        lo = np.r_[0, cut]
        if order[0] != 0 or np.any(np.diff(order[lo]) <= 0):
            raise ValueError("the walk did not list cycles in start order")
        ends = np.r_[lo, n]
        self.cycle_lens = np.diff(ends)
        self.cycle_id = np.empty(n, dtype=np.int64)
        self.cycle_id[order] = np.repeat(np.arange(len(lo)), self.cycle_lens)
        self.pos = np.empty(n, dtype=np.int64)
        self.pos[order] = np.arange(n) - np.repeat(lo, self.cycle_lens)
        self.cycles = [order[a:b]
                       for a, b in zip(lo.tolist(), ends[1:].tolist())]

    def rewired(self, tails, heads, eids) -> "PermutationDigraph":
        """The cover with succ[tails] = heads and edge_ids[tails] = eids.

        The tails must be distinct and the heads a permutation of the old
        succ[tails], or ValueError: every caller rewires distinct
        vertices (each burnt on admission, or one per cycle of an
        exchange), so a repeat is a broken invariant.  The tables are
        spliced from this cover's, not rebuilt: in pack-host-large
        trials (n = 10^5, a 2-vCPU Xeon box) a two-arc splice took
        1.2 ms and the constructor's rebuild 4.6 ms (medians over 101
        calls), 9 against 39 ms per trial of a 224 ms median.  Cutting
        each touched cycle after its rewired tails leaves arcs, each
        running from an old head to the next rewired tail along its
        cycle; each new cycle is a ring of such arcs, rotated to start
        at its smallest vertex.  Cycles with no rewired tail keep their
        arrays, and cycle ids are renumbered by start.
        """
        n = self.n
        tails = np.asarray(tails, dtype=np.int64).ravel()
        heads = np.asarray(heads, dtype=np.int64).ravel()
        eids = np.asarray(eids, dtype=np.int64).ravel()
        if not len(tails) == len(heads) == len(eids):
            raise ValueError("tails, heads and eids differ in length")
        if len(tails) == 0:
            return self
        if tails.min() < 0 or tails.max() >= n:
            raise ValueError("tail out of range")
        # tails run by (cycle_id, pos), their order along cycles
        order, key = sort_codes(self.cycle_id[tails] * n + self.pos[tails],
                                self.num_cycles * n)
        if np.any(key[1:] == key[:-1]):
            raise ValueError("repeated tail")
        tails, heads, eids = tails[order], heads[order], eids[order]
        if not np.array_equal(np.sort(heads), np.sort(self.succ[tails])):
            raise ValueError("succ is not a permutation")
        d = len(tails)
        cid = self.cycle_id[tails]
        lead = np.flatnonzero(np.r_[True, cid[1:] != cid[:-1]])
        # arc j runs from the old head of tails[j] to tails[nxt[j]], the
        # next rewired tail along its cycle
        nxt = np.arange(1, d + 1)
        nxt[np.r_[lead[1:], d] - 1] = lead
        lens = self.cycle_lens[cid]
        from_pos = (self.pos[tails] + 1) % lens
        arc_lens = (self.pos[tails[nxt]] - from_pos) % lens + 1
        # the arc after arc j starts at the new head of tails[nxt[j]],
        # which is the old head of tails[link[j]]
        fed = self.pred[heads[nxt]]
        link = np.searchsorted(key, self.cycle_id[fed] * n
                               + self.pos[fed]).tolist()
        cid_l, lo_l, len_l = cid.tolist(), from_pos.tolist(), arc_lens.tolist()
        rings = []
        seen = [False] * d
        for j in range(d):
            parts = []
            while not seen[j]:
                seen[j] = True
                cyc = self.cycles[cid_l[j]]
                lo, hi = lo_l[j], lo_l[j] + len_l[j]
                parts.append(cyc[lo:hi])
                if hi > len(cyc):  # the arc wraps past the cycle's start
                    parts.append(cyc[:hi - len(cyc)])
                j = link[j]
            if parts:
                ring = np.concatenate(parts)
                at = int(ring.argmin())
                rings.append(np.concatenate((ring[at:], ring[:at])))
        ring_lens = np.array([len(r) for r in rings], dtype=np.int64)
        ring_at = np.cumsum(ring_lens) - ring_lens
        rid = np.repeat(np.arange(len(rings)), ring_lens)
        flat = np.concatenate(rings)
        # renumber: kept cycles and new rings, in order of their starts
        kept = np.ones(self.num_cycles, dtype=bool)
        kept[cid] = False
        kept = np.flatnonzero(kept)
        order = np.argsort(np.r_[np.flatnonzero(self.pos == 0)[kept],
                                 flat[ring_at]])
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        remap = np.full(self.num_cycles, -1, dtype=np.int64)
        remap[kept] = rank[:len(kept)]
        pieces = [self.cycles[c] for c in kept.tolist()] + rings

        out = object.__new__(type(self))
        out.succ = self.succ.copy()
        out.succ[tails] = heads
        out.pred = self.pred.copy()
        out.pred[heads] = tails
        out.edge_ids = self.edge_ids.copy()
        out.edge_ids[tails] = eids
        out.cycle_id = remap[self.cycle_id]
        out.cycle_id[flat] = rank[len(kept):][rid]
        out.pos = self.pos.copy()
        out.pos[flat] = np.arange(len(flat)) - ring_at[rid]
        out.cycles = [pieces[i] for i in order.tolist()]
        out.cycle_lens = np.r_[self.cycle_lens[kept], ring_lens][order]
        return out

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
    small = pd.cycle_lens < n0
    return np.flatnonzero(small).tolist(), np.flatnonzero(~small).tolist()


# no further in-phase level runs once this many starts are admitted
MAX_STARTS = 384


@dataclass(frozen=True)
class PhaseTwoBudget:
    """Sizes of the rotation trees, derived from (n, c, k)."""

    n0: float
    leaf_target: int
    leaf_cap: int
    in_branch: int

    @classmethod
    def for_model(cls, n: int, c: float, k: int) -> "PhaseTwoBudget":
        alpha = max(2, math.ceil(c / (8 * k)))
        nu = max(8, math.ceil(math.sqrt(n / alpha)))
        # a wide shallow start tree burns the same two vertices per
        # start but keeps the delta chains short, which is what closure
        # validation odds hinge on.  Below n = 3, n/ln n exceeds n (or
        # divides by ln 1 = 0) and would make a Hamilton cycle small.
        n0 = n / math.log(n) if n >= 3 else n
        return cls(n0=n0, leaf_target=nu, leaf_cap=3 * nu,
                   in_branch=3 * alpha)


@dataclass
class PhaseTwoStats:
    """Counters of one phase-2 run; w_size is the largest |W| of any
    start, since each start burns a fresh W.  second_attempts counts
    each start after a cycle's first; trial records (phase2_retries)
    and the benchmark read it by that name."""

    iterations: int = 0
    early_closures: int = 0
    in_phase_closures: int = 0
    second_attempts: int = 0
    w_size: int = 0
    eliminated: list = field(default_factory=list)


class _Node:
    """One NPD in a rotation tree, stored as a delta chain.

    steps are the reserve edges (tail, head, eid) the rotations from
    the root added, in order; each displaced the Π-edge into its head.
    segs is the path u0 -> ... -> end as consecutive Π-arcs (first,
    last); touched is the set of Π-cycle ids that ever contributed an
    arc (their leftovers may live on created cycles, which are opaque
    to further surgery).
    """

    __slots__ = ("steps", "segs", "touched", "path_v", "end")

    def __init__(self, steps, segs, touched, path_v, end):
        self.steps = steps
        self.segs = segs
        self.touched = touched
        self.path_v = path_v
        self.end = end


def pool_rows(sd: SimpleDigraph, pool: np.ndarray, pd: PermutationDigraph,
              side: int, vs: np.ndarray):
    """Pool edges off Π with an end in vs, on side 0 (leaving) or 1
    (entering), as arrays.

    A rotation or exchange may use only the edges of pool (a bool mask
    over edge ids) that are not arcs of Π.  Each row is the host's CSR
    row (SimpleDigraph.csr) filtered by pool, less the one arc of Π at
    v on that side: pd.edge_ids[v] leaving v, pd.edge_ids[pd.pred[v]]
    entering it.  Returns (at, eids, ends): for each v of vs in turn,
    its row's edges (by id on side 0, by tail on side 1), each with end
    vs[at] on side and its other end in ends.  at is nondecreasing.
    """
    ptr, ids = sd.csr(side)
    lo = ptr[vs]
    cnt = ptr[vs + 1] - lo
    first = np.cumsum(cnt) - cnt
    eids = np.arange(int(cnt.sum())) + np.repeat(lo - first, cnt)
    eids = eids if ids is None else ids[eids]
    at = np.repeat(np.arange(len(vs)), cnt)
    arc = pd.edge_ids[pd.pred[vs] if side else vs]
    keep = pool[eids] & (eids != arc[at])
    eids = eids[keep]
    return at[keep], eids, (sd.tails if side else sd.heads)[eids]


def _root_node(pd: PermutationDigraph, u0: int, v0: int, cid: int) -> _Node:
    return _Node(steps=(), segs=((u0, v0),),
                 touched=frozenset((cid,)), path_v=int(pd.cycle_lens[cid]),
                 end=v0)


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


def _rotate(pd: PermutationDigraph, segs, touched, path_v: int, w: int,
            n0: float, at_end: bool):
    """One rotation on pivot w, at the path end or at its start.

    At the end the reserve edge (end, w) replaces (x, w) with
    x = pred(w), and x becomes the end; at the start (w, start)
    replaces (w, x) with x = succ(w), and x becomes the start.  A w off
    the path brings its whole Π-cycle into the path (absorb), unless an
    earlier rotation touched that cycle (opaque).  A w on the path
    closes the piece between w and the pivot end into a cycle (split).
    C(i): the closed piece and the path left over both keep ≥ n0
    vertices.  Returns (segs, touched, path_v, x), or None if refused.
    """
    hit = _locate(pd, segs, w)
    x = int(pd.pred[w] if at_end else pd.succ[w])
    if hit is None:
        cid = int(pd.cycle_id[w])
        if cid in touched:
            return None  # lives on a created cycle: opaque
        segs = segs + ((w, x),) if at_end else ((x, w),) + segs
        return segs, touched | {cid}, path_v + pd.cycle_len_of(w), x
    idx, before = hit
    if at_end:
        closed, rest = path_v - before, before
    else:
        closed, rest = before + 1, path_v - before - 1
    if closed < n0 or rest < n0:
        return None
    if at_end:
        segs = segs[:idx] + ((segs[idx][0], x),)
    else:
        segs = ((x, segs[idx][1]),) + segs[idx + 1:]
    return segs, touched, rest, x


def out_phase(pd: PermutationDigraph, u0: int, sd: SimpleDigraph,
              pool: np.ndarray, w_set: bytearray, budget: PhaseTwoBudget):
    """Grow the rotation tree for u0's small cycle, broken at (v0, u0).

    w_set is the burnt set W, one byte per vertex, 1 once burnt.

    Returns ("closed", Π') on early closure, ("leaves", [nodes]) once
    enough long-path leaves exist, or ("fail", reason).
    """
    n0 = budget.n0
    v0 = int(pd.pred[u0])
    # the broken edge needs no C(ii) clearance: W is this start's own,
    # and burns from earlier closures are already materialized into Π
    w_set[u0] = w_set[v0] = 1
    root = _root_node(pd, u0, v0, int(pd.cycle_id[u0]))
    level = [root]
    while True:
        leaves = [nd for nd in level if nd.path_v >= n0]
        if len(leaves) >= budget.leaf_target:
            break
        ends = np.array([nd.end for nd in level], dtype=np.int64)
        at, eids, heads = pool_rows(sd, pool, pd, 0, ends)
        # node j's row is entries cuts[j]:cuts[j + 1]
        cuts = np.searchsorted(at, np.arange(len(level) + 1)).tolist()
        eids, heads = eids.tolist(), heads.tolist()
        nxt = []
        for j, node in enumerate(level):
            v = node.end
            row = list(zip(eids[cuts[j]:cuts[j + 1]],
                           heads[cuts[j]:cuts[j + 1]]))
            if node.path_v >= n0:
                for eid, w in row:
                    if w == u0:
                        return ("closed", _materialize(
                            pd, node.steps + ((v, u0, eid),)))
            for eid, w in row:
                if w_set[w]:  # u0 among them, burnt at the root
                    continue
                out = _rotate(pd, node.segs, node.touched, node.path_v, w,
                              n0, at_end=True)
                if out is None:
                    continue
                segs, touched, pv, x = out
                if w_set[x]:
                    continue
                w_set[w] = w_set[x] = 1
                nxt.append(_Node(steps=node.steps + ((v, w, eid),),
                                 segs=segs, touched=touched, path_v=pv,
                                 end=x))
            if len(nxt) >= budget.leaf_cap:
                break
        if not nxt:
            if leaves:
                break
            return ("fail", "tree stalled with no long-path leaf")
        level = nxt
    leaves.sort(key=lambda nd: -nd.path_v)
    return ("leaves", leaves[:budget.leaf_cap])


def _replay(pd: PermutationDigraph, leaf: _Node, steps, n0: float) -> bool:
    """Whether an in-phase chain is admissible against one leaf.

    steps is ((w, start_fed, eid), ...) in application order (pivot w
    feeds the current start); the final path must keep ≥ n0 vertices.
    """
    segs, touched, path_v = leaf.segs, leaf.touched, leaf.path_v
    for w, _fed, _eid in steps:
        out = _rotate(pd, segs, touched, path_v, w, n0, at_end=False)
        if out is None:
            return False
        segs, touched, path_v, _x = out
    return path_v >= n0


def _materialize(pd: PermutationDigraph, steps) -> PermutationDigraph:
    """Apply a full delta chain to Π by splicing its cycles.

    steps = [(tail, head, eid)] are the added edges in order: a leaf's
    out-phase steps, then the in-phase's start-side ones, then the
    closing edge.  Each removal is superseded: the tail it leaves
    dangling is the next step's tail (or the final dangling end the
    closing edge resolves).  No vertex is a tail twice: each out-phase
    tail is a path end and each in-phase tail a pivot, and both burn on
    admission, so rewired gets distinct tails.
    """
    tails, heads, eids = np.array(steps, dtype=np.int64).T
    return pd.rewired(tails, heads, eids)


def in_phase(pd: PermutationDigraph, u0: int, leaves: list,
             sd: SimpleDigraph, pool: np.ndarray, w_set: bytearray,
             budget: PhaseTwoBudget):
    """Close one of the leaf paths into a ≥ n0 cycle by start-side
    rotations shared across every leaf tree.

    Every leaf path starts at u0, and all vertices whose successor
    differs from Π are burnt, so one breadth-first layer structure of
    reachable path starts serves every tree.  A reserve edge from a
    leaf's end to the current start is a closure candidate; candidates
    are validated against that leaf by replaying the chain (C(i) may
    hold for one leaf and fail for another).  leaves come longest path
    first, as out_phase returns them.
    """
    n0 = budget.n0
    # closure targets: reserve edges out of each leaf end, sorted
    # stably by head.  Long paths validate far more often (short ones
    # refuse most pivots as opaque created-cycle vertices), so each
    # head lists them first, by leaf order and then by row.
    ends = np.array([leaf.end for leaf in leaves], dtype=np.int64)
    at, eids, heads = pool_rows(sd, pool, pd, 0, ends)
    if not len(heads):
        return None
    by_head, target_heads = sort_codes(heads, pd.n)
    target_heads = target_heads.tolist()  # bisect beats a numpy scalar call
    target_leaf = at[by_head].tolist()
    target_eid = eids[by_head].tolist()
    # start -> its chain ((w, start_fed, eid), ...), root-first, built once
    chains: dict[int, tuple] = {u0: ()}
    frontier = [u0]

    def try_close(s):
        lo = bisect_left(target_heads, s)
        hi = bisect_right(target_heads, s, lo)
        for j, closure_eid in zip(target_leaf[lo:hi], target_eid[lo:hi]):
            leaf = leaves[j]
            if _replay(pd, leaf, chains[s], n0):
                return _materialize(pd, leaf.steps + chains[s]
                                    + ((leaf.end, s, closure_eid),))
        return None

    hit = try_close(u0)
    if hit is not None:
        return hit
    while frontier and len(chains) < MAX_STARTS:
        at, eids, tails = pool_rows(sd, pool, pd, 1,
                                    np.array(frontier, dtype=np.int64))
        cuts = np.searchsorted(at, np.arange(len(frontier) + 1)).tolist()
        eids, tails = eids.tolist(), tails.tolist()
        nxt = []
        for j, s in enumerate(frontier):
            admitted = 0
            for eid, w in zip(eids[cuts[j]:cuts[j + 1]],
                              tails[cuts[j]:cuts[j + 1]]):
                if admitted >= budget.in_branch:
                    break
                if w_set[w]:
                    continue
                x = int(pd.succ[w])
                if w_set[x] or x in chains:
                    continue
                w_set[w] = w_set[x] = 1
                chains[x] = chains[s] + ((w, s, eid),)
                admitted += 1
                hit = try_close(x)
                if hit is not None:
                    return hit
                nxt.append(x)
        frontier = nxt
    return None


def _assert_progress(old: PermutationDigraph, new: PermutationDigraph,
                     n0: float):
    old_small, _ = cycles_of(old, n0)
    new_small, _ = cycles_of(new, n0)
    if len(new_small) >= len(old_small):
        raise ValueError("phase 2: small-cycle count failed to drop")
    old_sets = {frozenset(old.cycles[c].tolist()) for c in old_small}
    for c in new_small:
        members = frozenset(new.cycles[c].tolist())
        if members not in old_sets:
            raise ValueError("phase 2: a new small cycle appeared")


def eliminate_small_cycles(pd: PermutationDigraph, sd: SimpleDigraph,
                           in_pool: np.ndarray, rng: np.random.Generator,
                           budget: PhaseTwoBudget,
                           ) -> tuple[PermutationDigraph, PhaseTwoStats]:
    """Drive rotations until every cycle has ≥ n0 vertices.

    in_pool, the reserve pool as a bool mask over edge ids, is never
    written.  Small cycles go largest first.  u0 runs over the cycle in
    one random order, and each u0 starts an out-phase (then, on leaves,
    an in-phase) from the broken edge (pred u0, u0), until a start
    closes: at most len starts, so a 2-cycle is tried both ways round.
    Each start burns a fresh W.  A failed start materializes nothing,
    so the next one begins from the same Π.
    """
    stats = PhaseTwoStats()
    while True:
        small, _large = cycles_of(pd, budget.n0)
        if not small:
            break
        cid = max(small, key=lambda c: pd.cycle_lens[c])
        clen = int(pd.cycle_lens[cid])
        stats.iterations += 1
        new_pd = None
        order = pd.cycles[cid][rng.permutation(clen)].tolist()
        for starts, u0 in enumerate(order, 1):
            w_set = bytearray(sd.n)
            res = out_phase(pd, u0, sd, in_pool, w_set, budget)
            if res[0] == "leaves":
                new_pd = in_phase(pd, u0, res[1], sd, in_pool, w_set, budget)
            w_size = w_set.count(1)
            stats.w_size = max(stats.w_size, w_size)
            if res[0] == "closed":
                stats.early_closures += 1
                new_pd = res[1]
                break
            if new_pd is not None:
                stats.in_phase_closures += 1
                break
            reason = "last: " + (res[1] if res[0] == "fail"
                                 else "no in-phase closure")
        if new_pd is None:
            raise PhaseFailure(
                "phase2", f"could not remove a {clen}-cycle after "
                f"{starts} starts ({reason}; "
                f"|W|={w_size})")
        stats.second_attempts += starts - 1
        _assert_progress(pd, new_pd, budget.n0)
        stats.eliminated.append(clen)
        pd = new_pd
    if pd.cycle_lens.min() < budget.n0:
        raise ValueError("phase 2: postcondition violated")
    return pd, stats
