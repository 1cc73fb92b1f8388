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
               from a leaf's fixed end v_j to the current start and
               every cycle the closure leaves has ≥ n₀ vertices.

Admission of a rotation needs C(ii): the touched pair {w, x} avoids the
burnt set W.  An out-phase admission also needs C(i): any cycle it
creates has ≥ n₀ vertices and the surviving path keeps ≥ n₀ vertices.
Both phases read C(i) off PermutationDigraph.rings, the cycles a delta
chain makes of the Π-cycles it cuts, so a pivot on a cycle an earlier
split created counts like any other, as in Frieze's rotations.  The
out-phase places each pivot on its node's rings (_path_rings, _rotate);
the in-phase checks no single rotation, only the cycles a closure's
whole delta chain leaves.
Vertices burn on admission, which freezes their successor pointers and
is exactly what lets all in-phase trees share one layer structure: for
any unburnt w, succ(w) agrees with Π across every NPD in play.

Tree nodes never copy the digraph.  A node stores its steps from the
root, the reserve edges (tail, head, eid) its rotations added, as does
each in-phase chain, so a closure's delta chain is one concatenation.
An out-phase node adds only its path's vertex count and end; its rings
come from its steps, once per node that has a pivot to place.

Covers are spliced, never rebuilt: one depth-first walk builds the
cycle tables once, for phase 1's cover, and each closure (like each
merge in phase 3) hands its rewired tails to PermutationDigraph.rewired.
A cycle is named by its smallest vertex, so every cycle the closure
leaves alone keeps its name and its array, and only the arcs of the
rest are joined and written.  Reserve pools are read against the cover
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
start is a vertex not seen before, so each closure target is checked
at most once.  The start cap is checked once per breadth-first level,
before the level runs, so the level that crosses it still admits all
its starts, up to in_branch per frontier start.  It binds only on an
in-phase that never closes: measured from n = 2·10³ to 10⁵, every
in-phase past its root check closed within 115 starts.  A small cycle
gets at most one start per vertex, each with a fresh W, and each
elimination removes a small cycle.
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
    of (v, succ[v]).  Cycles are extracted eagerly: each cycle is named
    by its smallest vertex, which is also its canonical start;
    cycle_id[v] is the name of v's cycle, pos[v] is v's offset along it
    from that start, and cycles maps each name to the cycle's vertices
    from its start, so a cycle's length is len(cycles[c]).  The
    constructor builds these tables with one depth-first walk; rewired
    splices them for a cover that differs in a few arcs.
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
        lens = np.diff(ends)
        self.cycle_id = np.empty(n, dtype=np.int64)
        self.cycle_id[order] = np.repeat(order[lo], lens)
        self.pos = np.empty(n, dtype=np.int64)
        self.pos[order] = np.arange(n) - np.repeat(lo, lens)
        self.cycles = {int(order[a]): order[a:b]
                       for a, b in zip(lo.tolist(), ends[1:].tolist())}

    def rings(self, tails, heads):
        """The cycles that succ[tails] = heads makes of the ones it cuts.

        The tails must be distinct and the heads a permutation of the old
        succ[tails], or ValueError: every caller rewires distinct
        vertices (each burnt on admission, or one per cycle of an
        exchange), so a repeat is a broken invariant.  Cutting each
        touched cycle after its rewired tails leaves arcs, each running
        from an old head to the next rewired tail along its cycle; each
        new cycle is a ring of such arcs.  Returns (rings, lens): each
        ring lists its arcs in path order as (cycle name, offset of the
        arc's first vertex, vertex count), and lens[r] is ring r's vertex
        count.  O(d log d) for d tails, with no n-long array, in plain
        Python: d is a delta chain's length, never n, and numpy's fixed
        cost per call would outweigh the work on so few ints.
        """
        tails = np.asarray(tails, dtype=np.int64).ravel()
        heads = np.asarray(heads, dtype=np.int64).ravel().tolist()
        listed = tails.tolist()
        if min(listed) < 0 or max(listed) >= self.n:
            raise ValueError("tail out of range")
        if len(set(listed)) < len(listed):
            raise ValueError("repeated tail")
        old = self.succ[tails].tolist()
        if sorted(heads) != sorted(old):
            raise ValueError("succ is not a permutation")
        cid = self.cycle_id[tails].tolist()
        # tails run by (cycle name, pos), their order along cycles
        runs = sorted(zip(cid, self.pos[tails].tolist(),
                          [len(self.cycles[c]) for c in cid], old, heads))
        d = len(runs)
        rank = {r[3]: j for j, r in enumerate(runs)}  # by old head
        # arc j runs from the old head of tail j to tail k, the next
        # rewired tail along its cycle; the arc after it starts at the
        # new head of tail k, which is the old head of tail link[j]
        arcs, link, lead = [], [], 0
        for j, (c, p, clen, _, _) in enumerate(runs):
            k = j + 1
            if k == d or runs[k][0] != c:
                k, lead = lead, k  # the last tail wraps to its run's first
            first = (p + 1) % clen
            arcs.append((c, first, (runs[k][1] - first) % clen + 1))
            link.append(rank[runs[k][4]])
        rings = []
        seen = [False] * d
        for j in range(d):
            ring = []
            while not seen[j]:
                seen[j] = True
                ring.append(arcs[j])
                j = link[j]
            if ring:
                rings.append(ring)
        return rings, [sum(a[2] for a in ring) for ring in rings]

    def rewired(self, tails, heads, eids) -> "PermutationDigraph":
        """The cover with succ[tails] = heads and edge_ids[tails] = eids.

        The tables are spliced from this cover's, not rebuilt: each new
        cycle is one of rings' rings, its arcs joined and rotated to
        start at its smallest vertex, and stored under that name in
        place of the cycles the tails cut.  Every other cycle keeps its
        name and its array.
        """
        tails = np.asarray(tails, dtype=np.int64).ravel()
        heads = np.asarray(heads, dtype=np.int64).ravel()
        eids = np.asarray(eids, dtype=np.int64).ravel()
        if not len(tails) == len(heads) == len(eids):
            raise ValueError("tails, heads and eids differ in length")
        if len(tails) == 0:
            return self
        arc_rings, _ = self.rings(tails, heads)
        out = object.__new__(type(self))
        out.succ = self.succ.copy()
        out.succ[tails] = heads
        out.pred = self.pred.copy()
        out.pred[heads] = tails
        out.edge_ids = self.edge_ids.copy()
        out.edge_ids[tails] = eids
        out.cycle_id = self.cycle_id.copy()
        out.pos = self.pos.copy()
        out.cycles = dict(self.cycles)
        for c in set(self.cycle_id[tails].tolist()):
            del out.cycles[c]
        for arcs in arc_rings:
            parts = []
            for c, lo, length in arcs:
                cyc = self.cycles[c]
                parts.append(cyc[lo:lo + length])
                if lo + length > len(cyc):  # the arc wraps past the start
                    parts.append(cyc[:lo + length - len(cyc)])
            ring = np.concatenate(parts)
            at = int(ring.argmin())
            ring = np.concatenate((ring[at:], ring[:at]))
            start = int(ring[0])
            out.cycle_id[ring] = start
            out.pos[ring] = np.arange(len(ring))
            out.cycles[start] = ring
        return out

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)


def cycles_of(pd: PermutationDigraph, n0: float) -> tuple[list, list]:
    """Cycle names, ascending, split into (small, large): small means
    length < n0."""
    small, large = [], []
    for c in sorted(pd.cycles):
        (small if len(pd.cycles[c]) < n0 else large).append(c)
    return small, large


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
    The path runs u0 -> ... -> end and holds path_v vertices.
    """

    __slots__ = ("steps", "path_v", "end")

    def __init__(self, steps, path_v, end):
        self.steps = steps
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


def _path_rings(pd: PermutationDigraph, steps, end: int, u0: int):
    """A node's NPD as rings, to place its pivots on.

    A virtual edge from the path's end to u0 closes the path, for
    counting only, so the steps and that edge rewire Π: the tails are
    v0 and each later end, the heads their Π-successors.  rings cuts
    every Π-cycle a step touched into arcs.  Returns (arcs, lens):
    arcs maps each such cycle's name to its arcs (first pos, vertex
    count, ring, vertices before the arc along its ring), and lens[r] is
    ring r's vertex count.  Ring 0 is the path's, rotated to start at u0, so
    lens[0] is the path's vertex count.
    """
    tails = [t for t, _, _ in steps] + [end]
    heads = [h for _, h, _ in steps] + [u0]
    rings, lens = pd.rings(tails, heads)
    first = (int(pd.cycle_id[u0]), int(pd.pos[u0]))
    ((r, j),) = [(r, j) for r, ring in enumerate(rings)
                 for j, arc in enumerate(ring) if arc[:2] == first]
    path = rings.pop(r)
    rings.insert(0, path[j:] + path[:j])
    lens.insert(0, lens.pop(r))
    arcs = {}
    for r, ring in enumerate(rings):
        before = 0
        for c, lo, count in ring:
            arcs.setdefault(c, []).append((lo, count, r, before))
            before += count
    return arcs, lens


def _rotate(pd: PermutationDigraph, arcs, lens, w: int, n0: float):
    """The path's vertex count after a rotation on pivot w, or None.

    The reserve edge (end, w) replaces (x, w) with x = pred(w), and x
    becomes the end; arcs and lens are the node's _path_rings.  A w on
    a cycle off the path, one an earlier split created or a Π-cycle no
    step cut, brings that whole cycle into the path (absorb).  A w on
    the path closes the piece from w to the end into a cycle (split),
    refused unless C(i) holds: the closed piece and the path left over
    both keep ≥ n0 vertices.
    """
    c = int(pd.cycle_id[w])
    for lo, count, ring, before in arcs.get(c, ()):
        into = (int(pd.pos[w]) - lo) % len(pd.cycles[c])
        if into < count:
            if ring:
                return lens[0] + lens[ring]
            before += into
            return before if n0 <= before <= lens[0] - n0 else None
    return lens[0] + len(pd.cycles[c])


def out_phase(pd: PermutationDigraph, u0: int, sd: SimpleDigraph,
              pool: np.ndarray, w_set: bytearray, budget: PhaseTwoBudget):
    """Grow the rotation tree for u0's small cycle, broken at (v0, u0).

    w_set is the burnt set W, one byte per vertex, 1 once burnt.  A
    node's rings are built on its first pivot past W, and every pivot
    it places is read off them (_rotate): one off the path absorbs its
    whole cycle, one on the path splits under C(i).

    Returns ("closed", Π') on early closure, ("leaves", [nodes]) once
    enough long-path leaves exist, or ("fail", reason).
    """
    n0 = budget.n0
    v0 = int(pd.pred[u0])
    # the broken edge needs no C(ii) clearance: W is this start's own,
    # and burns from earlier closures are already materialized into Π
    w_set[u0] = w_set[v0] = 1
    level = [_Node((), len(pd.cycles[int(pd.cycle_id[u0])]), v0)]
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
            node_rings = None  # built on the first pivot past W
            for eid, w in row:
                if w_set[w]:  # u0 among them, burnt at the root
                    continue
                x = int(pd.pred[w])
                if w_set[x]:
                    continue
                if node_rings is None:
                    node_rings = _path_rings(pd, node.steps, v, u0)
                pv = _rotate(pd, *node_rings, w, n0)
                if pv is None:
                    continue
                w_set[w] = w_set[x] = 1
                nxt.append(_Node(node.steps + ((v, w, eid),), pv, x))
            if len(nxt) >= budget.leaf_cap:
                break
        if not nxt:
            if leaves:
                break
            return ("fail", "tree stalled with no long-path leaf")
        level = nxt
    leaves.sort(key=lambda nd: -nd.path_v)
    return ("leaves", leaves[:budget.leaf_cap])


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
    leaf's end to the current start is a closure candidate.  The leaf's
    steps, the chain and that edge rewire Π, and the candidate closes
    when every cycle the rewiring makes (PermutationDigraph.rings) has
    ≥ n0 vertices: the chain may hold for one leaf and fail for another.
    A pivot on a cycle an earlier split created is judged like any
    other.  leaves come longest path first, as out_phase returns them.
    """
    n0 = budget.n0
    # closure targets: reserve edges out of each leaf end, sorted
    # stably by head.  The closing cycle keeps what the chain's splits
    # leave of the leaf's path, so a long path has the most to spare;
    # each head lists long paths first, by leaf order and then by row,
    # which also fixes which of several valid closures a start takes.
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
            steps = leaf.steps + chains[s] + ((leaf.end, s, closure_eid),)
            tails, heads, _eids = zip(*steps)
            if min(pd.rings(tails, heads)[1]) >= n0:
                return _materialize(pd, steps)
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
    # equal vertex sets have the same smallest vertex, so an old small
    # cycle that survives keeps its name
    for c in new_small:
        if c not in old.cycles or (set(new.cycles[c].tolist())
                                   != set(old.cycles[c].tolist())):
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
        cid = max(small, key=lambda c: len(pd.cycles[c]))
        clen = len(pd.cycles[cid])
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
    if min(map(len, pd.cycles.values())) < budget.n0:
        raise ValueError("phase 2: postcondition violated")
    return pd, stats
