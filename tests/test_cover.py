"""Cycle-cover repair: rotation trees and the small-cycle sweep."""

import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampack import cover as cv
from hampack.cover import (
    PermutationDigraph,
    PhaseTwoBudget,
    cycles_of,
    eliminate_small_cycles,
)
from hampack.errors import PhaseFailure
from hampack.matching import build_k_matchings, matching_to_cycle_cover
from hampack.model import SimpleDigraph
from hampack.partition import compute_small, split_edges
from hampack.rng import rng_stream


def perm_digraph(*cycles, n=None):
    """Build a PermutationDigraph from explicit vertex cycles; vertex v's
    arc has edge id v."""
    if n is None:
        n = max(v for cyc in cycles for v in cyc) + 1
    succ = np.full(n, -1, dtype=np.int64)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            succ[a] = b
    assert (succ >= 0).all(), "cycles must cover all vertices"
    return PermutationDigraph(succ, np.arange(n))


def host_with_cover(*cycles, extra=()):
    """SimpleDigraph whose first edges realise the given cover.

    Returns (sd, pd, in_pool) where in_pool is the bool mask over edge
    ids that marks the extra (reserve) edges.
    """
    n = max(v for cyc in cycles for v in cyc) + 1
    cover_edges = []
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            cover_edges.append((a, b))
    edges = np.array(cover_edges + list(extra), dtype=np.int64)
    sd = SimpleDigraph(n, edges, k=1)
    succ = np.full(n, -1, dtype=np.int64)
    eids = np.full(n, -1, dtype=np.int64)
    for i, (a, b) in enumerate(cover_edges):
        succ[a] = b
        eids[a] = i
    pd = PermutationDigraph(succ, eids)
    in_pool = np.arange(sd.m) >= len(cover_edges)
    return sd, pd, in_pool


def mask_of(sd, ids):
    """The bool mask over sd's edge ids that marks ids."""
    mask = np.zeros(sd.m, dtype=bool)
    mask[ids] = True
    return mask


def tiny_budget(n0, **kw):
    base = dict(n0=n0, leaf_target=4, in_branch=4)
    base.update(kw)
    return PhaseTwoBudget(**base)


def record_nodes(monkeypatch):
    """The list of every _Node the rotation trees make from now on."""
    made = []

    class Recorded(cv._Node):
        __slots__ = ()

        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(cv, "_Node", Recorded)
    return made


class TestPermutationDigraph:
    def test_cycle_extraction(self):
        pd = perm_digraph([0, 3, 1], [2, 4], [5])
        assert pd.num_cycles == 3
        # each cycle is named by its smallest vertex
        assert sorted(pd.cycles) == [0, 2, 5]
        assert [len(pd.cycles[c]) for c in (0, 2, 5)] == [3, 2, 1]
        for v in (0, 3, 1):
            assert pd.cycle_id[v] == 0
        assert pd.cycle_id[4] == 2
        # pos is the offset from the cycle's canonical start
        walk = pd.cycles[0]
        for off, v in enumerate(walk):
            assert pd.pos[v] == off
            assert pd.succ[walk[off]] == walk[(off + 1) % len(walk)]

    def test_pred_inverts_succ(self):
        pd = perm_digraph([0, 1, 2, 3, 4])
        assert (pd.pred[pd.succ] == np.arange(5)).all()

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            PermutationDigraph(np.array([0, 0, 2]), np.arange(3))
        with pytest.raises(ValueError):
            PermutationDigraph(np.array([], dtype=np.int64), np.arange(0))
        for succ in ([1, 3, 0], [1, -1, 0]):  # successor out of range
            with pytest.raises(ValueError):
                PermutationDigraph(np.array(succ), np.arange(3))

    def test_requires_edge_ids(self):
        # a cover always carries one host edge id per vertex
        succ = np.array([1, 2, 0])
        for ids in (np.arange(2), np.arange(4), np.arange(6).reshape(3, 2)):
            with pytest.raises(ValueError, match="differ in shape"):
                PermutationDigraph(succ, ids)
        with pytest.raises(TypeError):
            PermutationDigraph(succ)


def walk_cycles(succ):
    """Reference cycle tables by walking succ from each unseen vertex.

    A plain Python loop over the vertices in order, kept as the oracle
    for PermutationDigraph's cycle_id, pos and cycles: the first vertex
    a walk meets is its cycle's smallest, which names the cycle.
    """
    n = len(succ)
    cycle_id = np.full(n, -1, dtype=np.int64)
    pos = np.zeros(n, dtype=np.int64)
    cycles = {}
    for start in range(n):
        if cycle_id[start] >= 0:
            continue
        walk = []
        v = start
        while cycle_id[v] < 0:
            cycle_id[v] = start
            pos[v] = len(walk)
            walk.append(v)
            v = int(succ[v])
        cycles[start] = np.asarray(walk, dtype=np.int64)
    return cycle_id, pos, cycles


class TestExtractCyclesOracle:
    @staticmethod
    def check(succ):
        pd = PermutationDigraph(succ, np.arange(len(succ)))
        cycle_id, pos, cycles = walk_cycles(succ)
        assert np.array_equal(pd.cycle_id, cycle_id)
        assert np.array_equal(pd.pos, pos)
        assert pd.cycle_id.dtype == pd.pos.dtype == np.int64
        assert list(pd.cycles) == list(cycles)  # names, in start order
        for c, want in cycles.items():
            assert type(c) is int
            assert pd.cycles[c].dtype == np.int64
            assert np.array_equal(pd.cycles[c], want)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300).flatmap(
        lambda n: st.permutations(list(range(n)))))
    def test_matches_walk(self, succ):
        self.check(succ)

    @pytest.mark.parametrize("n", [1, 2, 257, 1000])
    def test_identity_and_one_n_cycle(self, n):
        self.check(np.arange(n))
        self.check(np.roll(np.arange(n), -1))
        self.check(np.roll(np.arange(n), 1))

    def test_cycles_of_mixed_lengths(self):
        perm = rng_stream(5).permutation(5000)
        succ = np.empty(5000, dtype=np.int64)
        cuts = [0, 1, 3, 40, 41, 1000, 5000]
        for lo, hi in zip(cuts, cuts[1:]):
            block = perm[lo:hi]
            succ[block] = np.roll(block, -1)
        self.check(succ)

    @pytest.mark.parametrize("succ", [np.arange(100_000),
                                      np.arange(100_000) ^ 1],
                             ids=["identity", "all-2-cycles"])
    def test_many_cycles(self, succ):
        # a walk from one root with an arc to every vertex would rescan
        # that row once per cycle: 3.5 s (2-cycles) to 6.4 s (identity)
        # for the walk alone on a 2-vCPU box, against about 3 ms for the
        # ladder's
        self.check(succ)

    @pytest.mark.parametrize("succ, listed", [
        ([1, 0, 2], [3, 4, 5, 2, 1, 0]),
        ([1, 2, 0], [3, 4, 5, 2, 0, 1]),
    ], ids=["two-cycles", "one-cycle"])
    def test_walk_out_of_start_order_raises(self, monkeypatch, succ,
                                            listed):
        # what a walk that climbs the ladder before it enters a cycle
        # lists: cycles from their largest vertex, in descending order
        monkeypatch.setattr(cv, "depth_first_order",
                            lambda *args, **kwargs: np.array(listed))
        with pytest.raises(ValueError, match="start order"):
            PermutationDigraph(np.array(succ), np.arange(3))


TABLES = ("succ", "pred", "edge_ids", "cycle_id", "pos")


@st.composite
def rewires(draw):
    """(succ, eids, tails, heads, new_eids): a cover and writes to it.

    The tails are distinct and the heads a permutation of their old
    heads, as every caller of rewired guarantees.
    """
    n = draw(st.integers(1, 40))
    succ = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    eids = np.array(draw(st.lists(st.integers(0, 999), min_size=n,
                                  max_size=n)), dtype=np.int64)
    tails = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    heads = draw(st.permutations([int(succ[t]) for t in tails]))
    new_eids = draw(st.lists(st.integers(0, 999), min_size=len(tails),
                             max_size=len(tails)))
    return succ, eids, tails, heads, new_eids


class TestRewiredOracle:
    """rewired splices the tables; the constructor rebuilds them."""

    @staticmethod
    def check(pd, tails, heads, new_eids):
        succ, eids = pd.succ.copy(), pd.edge_ids.copy()
        for t, h, e in zip(tails, heads, new_eids):
            succ[t], eids[t] = h, e
        got = pd.rewired(tails, heads, new_eids)
        want = PermutationDigraph(succ, eids)
        for name in TABLES:
            assert getattr(got, name).dtype == np.int64, name
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert sorted(got.cycles) == sorted(want.cycles)
        for c, cyc in want.cycles.items():
            assert type(c) is int
            assert got.cycles[c].dtype == np.int64
            assert np.array_equal(got.cycles[c], cyc)
        # a cycle no tail cuts keeps its name and its array
        cut = set(pd.cycle_id[list(tails)].tolist())
        for c, cyc in pd.cycles.items():
            if c not in cut:
                assert got.cycles[c] is cyc
        if len(tails):
            # the rings are the rebuilt cover's cycles through a tail
            _, lens = pd.rings(tails, heads)
            made = set(want.cycle_id[list(tails)].tolist())
            assert sorted(lens) == sorted(len(want.cycles[c]) for c in made)

    @settings(max_examples=300, deadline=None)
    @given(rewires())
    def test_matches_rebuild(self, case):
        succ, eids, tails, heads, new_eids = case
        self.check(PermutationDigraph(succ, eids), tails, heads, new_eids)

    @settings(max_examples=100, deadline=None)
    @given(rewires())
    def test_identity_rewire(self, case):
        succ, eids, tails, _, new_eids = case
        pd = PermutationDigraph(succ, eids)
        self.check(pd, tails, succ[tails], new_eids)
        assert pd.rewired([], [], []) is pd

    @settings(max_examples=100, deadline=None)
    @given(rewires(), st.data())
    def test_non_permutation_refused(self, case, data):
        succ, eids, tails, heads, new_eids = case
        if not tails:
            return
        pd = PermutationDigraph(succ, eids)
        # the final tail gets a head that some other vertex keeps, or
        # one outside [0, n)
        kept = set(range(len(succ))) - set(succ[tails].tolist())
        bad = data.draw(st.sampled_from(sorted(kept | {-1, len(succ)})))
        heads = list(heads)
        heads[-1] = bad
        with pytest.raises(ValueError, match="not a permutation"):
            pd.rewired(tails, heads, new_eids)

    @settings(max_examples=100, deadline=None)
    @given(rewires(), st.data())
    def test_repeated_tail_refused(self, case, data):
        # a tail given twice is refused, even when both writes agree
        succ, eids, tails, heads, new_eids = case
        if not tails:
            return
        j = data.draw(st.integers(0, len(tails) - 1))
        with pytest.raises(ValueError, match="repeated tail"):
            PermutationDigraph(succ, eids).rewired(
                tails + tails[j:j + 1], heads + heads[j:j + 1],
                new_eids + new_eids[j:j + 1])

    def test_splices_only_touched_cycles(self):
        pd = perm_digraph([0, 3, 1], [2, 4], [5, 6, 7])
        out = pd.rewired([0, 2], [4, 3], [10, 11])
        # 0 -> 4 -> 2 -> 3 -> 1 -> 0 joins the first two cycles
        assert out.cycles[0].tolist() == [0, 4, 2, 3, 1]
        assert out.cycles[5] is pd.cycles[5]
        assert sorted(out.cycles) == [0, 5]
        assert out.edge_ids[[0, 2]].tolist() == [10, 11]
        assert out.pred[4] == 0 and out.pred[3] == 2

    def test_refusals(self):
        pd = perm_digraph([0, 1, 2])
        with pytest.raises(ValueError, match="out of range"):
            pd.rewired([3], [1], [0])
        with pytest.raises(ValueError, match="differ in length"):
            pd.rewired([0, 1], [1], [0])
        with pytest.raises(ValueError, match="repeated tail"):
            pd.rewired([0, 0], [1, 1], [0, 0])


class TestRings:
    """rings' arcs, walked over Π's old cycles, are the rewired cover's
    cycles through a rewired tail."""

    @settings(max_examples=300, deadline=None)
    @given(rewires())
    def test_arcs_walk_the_rebuilt_cycles(self, case):
        succ, eids, tails, heads, _ = case
        if not tails:
            return
        pd = PermutationDigraph(succ, eids)
        new = succ.copy()
        new[tails] = heads
        want = PermutationDigraph(new, eids)
        rings, lens = pd.rings(tails, heads)
        assert len(lens) == len(rings)
        made, firsts = set(), []
        for ring, length in zip(rings, lens):
            walk, keys = [], []
            for c, lo, count in ring:
                cyc = pd.cycles[c].tolist()
                assert 0 <= lo < len(cyc) and 1 <= count <= len(cyc)
                # an arc runs from an old head to the next rewired tail,
                # wrapping past its cycle's start
                arc = [cyc[(lo + j) % len(cyc)] for j in range(count)]
                assert arc[0] in heads and arc[-1] in tails
                assert not set(arc[:-1]) & set(tails)
                walk += arc
                keys.append((c, (lo - 1) % len(cyc)))  # the feeding tail
            # one whole cycle of the rewired cover, in successor order
            cid = int(want.cycle_id[walk[0]])
            assert len(walk) == length == len(want.cycles[cid])
            assert all(new[a] == b for a, b in zip(walk, walk[1:] + walk[:1]))
            assert cid not in made
            made.add(cid)
            # each ring starts at its first tail by (cycle name, pos)
            assert keys[0] == min(keys)
            firsts.append(keys[0])
        assert made == set(want.cycle_id[tails].tolist())
        assert firsts == sorted(firsts)

    @settings(max_examples=100, deadline=None)
    @given(rewires(), st.data())
    def test_refusals(self, case, data):
        succ, eids, tails, heads, _ = case
        if not tails:
            return
        pd = PermutationDigraph(succ, eids)
        n = len(succ)
        j = data.draw(st.integers(0, len(tails) - 1))
        with pytest.raises(ValueError, match="repeated tail"):
            pd.rings(tails + tails[j:j + 1], heads + heads[j:j + 1])
        bad = list(tails)
        bad[j] = data.draw(st.sampled_from([-1, n]))
        with pytest.raises(ValueError, match="tail out of range"):
            pd.rings(bad, heads)
        bad = list(heads)
        bad[j] = data.draw(st.sampled_from([-1, n]))
        with pytest.raises(ValueError, match="not a permutation"):
            pd.rings(tails, bad)

    def test_refusals_in_order(self):
        pd = perm_digraph([0, 1, 2], [3, 4])
        for tails, heads, match in (
                ([5, 5], [1, 1], "tail out of range"),
                ([0, 0], [-1, 1], "repeated tail"),
                ([0, 3], [4, 5], "not a permutation"),
                ([0, 3], [1, 2], "not a permutation"),  # 1 keeps 2
                ([0, 3], [4], "not a permutation"),
                ([0, 3], [4, 1, 2], "not a permutation")):
            with pytest.raises(ValueError, match=match):
                pd.rings(tails, heads)


def naive_pool(sd, pool_ids, cover_ids, v, side):
    """(eid, other end) of every pool edge that is not one of the
    cover's edge ids, with end v on side (0: tail, 1: head), by eid on
    side 0 and by tail on side 1: a scan of the pool."""
    ends, other = (sd.heads, sd.tails) if side else (sd.tails, sd.heads)
    return [(e, int(other[e])) for e in sorted(
        set(pool_ids), key=lambda e: (int(other[e]) * side, e))
            if e not in cover_ids and ends[e] == v]


def cover_on(sd, succ):
    """The PermutationDigraph succ names, with the host's edge ids."""
    succ = np.asarray(succ, dtype=np.int64)
    eids = sd.edge_lookup(np.arange(sd.n), succ)
    assert (eids >= 0).all(), "every arc must be a host edge"
    return PermutationDigraph(succ, eids)


def succ_of(*cycles):
    succ = {a: b for cyc in cycles for a, b in zip(cyc, cyc[1:] + cyc[:1])}
    return [succ[v] for v in range(len(succ))]


class TestCtxPoolOracle:
    """pool_rows, the one reader of reserve pools, against a scan."""

    @staticmethod
    def instance(seed):
        """A host holding two covers: pd, whose edges come first, and
        other; the pool holds some of each cover's own edges."""
        rng = rng_stream(seed, 4)
        n = 40
        perm = rng.permutation(n).tolist()
        cycles = [perm[:13], perm[13:]]
        cover = {(a, b) for cyc in cycles
                 for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        perm = rng.permutation(n).tolist()
        succ = succ_of(perm[:17], perm[17:])
        extra = set(enumerate(succ)) - cover
        while len(extra) < 300:
            u, v = (int(x) for x in rng.integers(n, size=2))
            if u != v and (u, v) not in cover:
                extra.add((u, v))
        sd, pd, reserve = host_with_cover(*cycles, extra=sorted(extra))
        other = cover_on(sd, succ)
        # unsorted pool ids that also hold some of both covers' edges
        pool = rng.permutation(np.concatenate(
            (reserve[rng.random(len(reserve)) < 0.7], pd.edge_ids[::3],
             other.edge_ids[1::3])))
        return sd, pd, other, pool, rng

    @staticmethod
    def check(sd, pool, pd, rng):
        """pool_rows on both sides lists what the naive scan lists, for
        every vertex in turn, a random draw, one vertex read twice
        around another, and no vertex at all."""
        in_pool = mask_of(sd, pool)
        cover_ids = set(pd.edge_ids.tolist())
        draws = [np.arange(sd.n), rng.integers(sd.n, size=25),
                 np.array([sd.n - 1, 0, sd.n - 1]),
                 np.empty(0, dtype=np.int64)]
        for side in (0, 1):
            for vs in draws:
                at, eids, ends = cv.pool_rows(sd, in_pool, pd, side, vs)
                want = [(j, e, o) for j, v in enumerate(vs.tolist())
                        for e, o in naive_pool(sd, pool, cover_ids, v, side)]
                assert list(zip(at.tolist(), eids.tolist(),
                                ends.tolist())) == want
        # the reader never writes the mask it is given
        assert np.array_equal(in_pool, mask_of(sd, pool))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_naive_scan(self, seed):
        sd, pd, other, pool, rng = self.instance(seed)
        # each cover holds pool edges that are arcs of it and not of
        # the other, so the two reads differ
        for held, free in ((pd, other), (other, pd)):
            own = np.intersect1d(held.edge_ids, pool)
            assert np.isin(own, free.edge_ids, invert=True).any()
        self.check(sd, pool, pd, rng)
        self.check(sd, pool, other, rng)

    def test_empty_pool(self):
        sd, pd, _other, _pool, rng = self.instance(0)
        self.check(sd, [], pd, rng)
        # the host's rows hold every edge; only the pool filter empties them
        assert sd.csr(0)[0][-1] == sd.csr(1)[0][-1] == sd.m > 0

    @staticmethod
    def random_host(seed, order):
        """30 vertices in random pairs plus vertex 30, and a cover of all
        31: vertex 30's only edges are its two cover arcs, so its pool
        rows are empty on both sides although the pool holds them."""
        rng = rng_stream(seed, 4)
        n = 30
        codes = rng.choice(n * n, size=240, replace=False)
        edges = np.column_stack((codes // n, codes % n))
        edges = edges[edges[:, 0] != edges[:, 1]]
        perm = rng.permutation(n + 1).tolist()
        succ = succ_of(perm[:11], perm[11:])
        have = set(map(tuple, edges.tolist()))
        arcs = [e for e in enumerate(succ) if e not in have]
        edges = np.concatenate((edges, np.array(arcs, dtype=np.int64)))
        edges = edges[rng.permutation(len(edges))]
        if order == "code":
            edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
        elif order == "tail":
            edges = edges[np.argsort(edges[:, 0], kind="stable")]
        elif order == "descending":
            edges = edges[np.argsort(-edges[:, 0], kind="stable")]
        sd = SimpleDigraph(n + 1, edges, k=1)
        return sd, cover_on(sd, succ), rng

    @pytest.mark.parametrize("order",
                             ["code", "tail", "shuffled", "descending"])
    def test_host_orders(self, order):
        # pair-code order, as sampled; tails ascending with the ids and
        # heads unsorted within each row, the order perfbench's
        # generated host comes in; no order; or by descending tail, so
        # ascending ids run against the tails the out-rows are keyed by
        sd, pd, rng = self.random_host(6, order)
        pool = np.union1d(rng.permutation(sd.m)[:150], pd.edge_ids)
        # the host's out-rows are its ids as they stand when tails ascend
        assert (sd.csr(0)[1] is None) == (order in ("code", "tail"))
        v = sd.n - 1
        assert sd.out_deg[v] == sd.in_deg[v] == 1
        for side in (0, 1):
            at, _eids, _ends = cv.pool_rows(sd, mask_of(sd, pool), pd,
                                            side, np.array([v]))
            assert len(at) == 0
        self.check(sd, pool, pd, rng)


class TestCyclesOf:
    def test_threshold_at_ten_thousand(self):
        # n/ln n = 1085.73...: 1085 is small, 1086 is not
        n = 10_000
        lens = [1085, 1086, n - 1085 - 1086]
        succ = np.empty(n, dtype=np.int64)
        start = 0
        for ln in lens:
            block = np.arange(start, start + ln)
            succ[block] = np.roll(block, -1)
            start += ln
        pd = PermutationDigraph(succ, np.arange(n))
        small, large = cycles_of(pd, n / math.log(n))
        small_lens = sorted(len(pd.cycles[c]) for c in small)
        large_lens = sorted(len(pd.cycles[c]) for c in large)
        assert small_lens == [1085]
        assert large_lens == [1086, n - 2171]

    def test_all_large_single_cycle(self):
        pd = perm_digraph(list(range(40)))
        small, large = cycles_of(pd, 40 / math.log(40))
        assert small == [] and large == [0]

    def test_names_ascend_after_a_rewire(self):
        # splitting cycle 0 adds names 0 and 2 after 4, the one cycle
        # the rewire leaves alone; cycles_of still lists them in order
        pd = perm_digraph([0, 1, 2, 3], [5, 6, 7, 8, 9, 4])
        out = pd.rewired([1, 3], [0, 2], [10, 11])
        assert list(out.cycles)[0] == 4 and sorted(out.cycles) == [0, 2, 4]
        assert cycles_of(out, 3) == ([0, 2], [4])


class TestUniformCycleLaw:
    def test_expected_vertices_on_short_cycles_exact(self):
        # over all permutations of [6], E[#vertices on cycles of
        # length <= s] = s for every s
        n = 6
        totals = {s: 0 for s in (1, 2, 3)}
        count = 0
        for p in itertools.permutations(range(n)):
            pd = PermutationDigraph(np.array(p), np.arange(n))
            count += 1
            for s in totals:
                totals[s] += sum(len(cyc) for cyc in pd.cycles.values()
                                 if len(cyc) <= s)
        assert count == math.factorial(n)
        for s, tot in totals.items():
            assert tot == s * count

    def test_expected_cycle_count_is_harmonic(self):
        n = 6
        tot = sum(
            PermutationDigraph(np.array(p), np.arange(n)).num_cycles
            for p in itertools.permutations(range(n)))
        harmonic = sum(1.0 / j for j in range(1, n + 1))
        assert tot / math.factorial(n) == pytest.approx(harmonic)


class TestRotate:
    """Pivots placed on a node's rings: splits, absorbs and C(i)."""

    def make(self):
        # one 8-cycle broken at (7 -> 0): path 0 1 2 3 4 5 6 7
        pd = perm_digraph([0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10])
        return pd, cv._Node((), 8, 7)

    @staticmethod
    def rotate(pd, node, w, n0, u0=0):
        rings = cv._path_rings(pd, node.steps, node.end, u0)
        return cv._rotate(pd, *rings, w, n0)

    def test_root_is_one_ring(self):
        pd, root = self.make()
        arcs, lens = cv._path_rings(pd, root.steps, root.end, 0)
        assert lens == [8]
        assert arcs == {int(pd.cycle_id[0]): [(0, 8, 0, 0)]}

    def test_split_offsets_on_the_root(self):
        pd, root = self.make()
        # a split on pivot v keeps the v path vertices before it
        for v in range(1, 8):
            assert self.rotate(pd, root, v, n0=1) == v
        assert self.rotate(pd, root, 9, n0=1) == 11  # off the path

    def test_split_piece_is_a_created_ring(self):
        pd, root = self.make()
        # 7 -> 5 split 5 6 7 off, end 4: a pivot on that created cycle
        # absorbs all 3 of it, as a pivot on a Π-cycle absorbs its own
        split = cv._Node(((7, 5, 0),), 5, 4)
        assert self.rotate(pd, split, 6, n0=1) == 5 + 3
        assert self.rotate(pd, split, 7, n0=1) == 5 + 3
        assert self.rotate(pd, split, 9, n0=1) == 5 + 3
        assert self.rotate(pd, split, 2, n0=1) == 2

    def test_split_after_absorb(self):
        pd = perm_digraph([0, 1, 2, 3], [4, 5, 6, 7])
        # 3 -> 5 absorbed the second cycle: path 0 1 2 3 5 6 7 4, end 4
        node = cv._Node(((3, 5, 0),), 8, 4)
        assert self.rotate(pd, node, 1, n0=1) == 1
        assert self.rotate(pd, node, 5, n0=1) == 4
        assert self.rotate(pd, node, 7, n0=1) == 6
        # C(i): 6 7 4 closes off as 3 < 4 vertices; 5 6 7 4 keeps 4
        assert self.rotate(pd, node, 6, n0=4) is None
        assert self.rotate(pd, node, 5, n0=4) == 4

    def test_absorb_appends_full_cycle(self):
        pd, root = self.make()
        assert self.rotate(pd, root, 9, n0=3) == 8 + 3
        # enters at 9 and runs to pred 8, the new end: 8 + 3 vertices
        node = cv._Node(((7, 9, 0),), 11, 8)
        assert cv._path_rings(pd, node.steps, node.end, 0)[1] == [11]

    def test_split_tail_keeps_prefix(self):
        pd, root = self.make()
        assert self.rotate(pd, root, 5, n0=3) == 5  # 5 6 7 closes off
        # C(i) at the end: the closed piece 5 6 7 is 3 < 4
        assert self.rotate(pd, root, 5, n0=4) is None
        # and at the front: the path left over, 0 1 2, is 3 < 4
        assert self.rotate(pd, root, 3, n0=4) is None
        assert self.rotate(pd, root, 4, n0=4) == 4


class TestReplay:
    """An in-phase closure, replayed on Π as the rings it leaves."""

    def make(self):
        pd = perm_digraph(list(range(12)), [12, 13, 14, 15])
        root = cv._Node((), 12, 11)
        return pd, root

    @staticmethod
    def rings(pd, leaf, chain, u0=0):
        """Sorted ring lengths of the closure of leaf's path after the
        in-phase chain ((w, start_fed, eid), ...), as try_close reads
        them; they are the lengths of the cycles rewired makes."""
        start = int(pd.succ[chain[-1][0]]) if chain else u0
        steps = leaf.steps + tuple(chain) + ((leaf.end, start, 0),)
        tails, heads, eids = zip(*steps)
        _, lens = pd.rings(tails, heads)
        new = pd.rewired(tails, heads, eids)
        made = set(new.cycle_id[list(tails)].tolist())
        assert sorted(lens) == sorted(len(new.cycles[c]) for c in made)
        return sorted(lens)

    def test_empty_chain_needs_long_path(self):
        pd, root = self.make()
        # the closing edge 11 -> u0 makes the whole path one 12-cycle
        assert self.rings(pd, root, []) == [12]
        assert root.path_v == 12

    def test_split_boundaries(self):
        pd, root = self.make()
        # pivot w feeding u0 closes 0..w off; the rest w+1..11 closes
        # through the closing edge
        assert self.rings(pd, root, [(3, 0, 0)]) == [4, 8]
        assert self.rings(pd, root, [(2, 0, 0)]) == [3, 9]  # front 3 < 4
        assert self.rings(pd, root, [(8, 0, 0)]) == [3, 9]  # rest 3 < 4

    def test_absorb_then_split(self):
        pd, root = self.make()
        # 13 feeds u0, so the start moves to succ(13) = 14 and the 4-cycle
        # joins the path; 5 feeds 14: front 14 15 12 13 0..5 closes off,
        # the rest 6..11 closes through the closing edge 11 -> 6
        assert self.rings(pd, root, [(13, 0, 0), (5, 14, 1)]) == [6, 10]

    def test_created_cycle_pivot_closes(self):
        pd, root = self.make()
        # a leaf that absorbed the 4-cycle at its end: 11 -> 13, end 12,
        # path 0..11 13 14 15 12; pivot 14 feeds u0, so 15 12 closes
        # through the closing edge and 0..11 13 14 is the other ring
        absorbed = cv._Node(((11, 13, 0),), 16, 12)
        assert self.rings(pd, absorbed, [(14, 0, 0)]) == [2, 14]  # n0 <= 2
        # a leaf whose end split 4..11 off (11 -> 4, end 3): pivot 7 on
        # that created cycle feeds u0 and brings all of it into the one
        # ring 8..11 4..7 0..3; at the end, the out-phase absorbs it too
        split = cv._Node(((11, 4, 0),), 4, 3)
        rings = cv._path_rings(pd, split.steps, split.end, 0)
        assert cv._rotate(pd, *rings, 7, n0=4) == 12
        assert self.rings(pd, split, [(7, 0, 0)]) == [12]


def npd_of(pd, node, v0):
    """Successor map of node's NPD, following its steps from Π.

    The broken edge (v0, u0) and each removed edge (x, w) leave their
    tail with no successor (-1) until a later addition sets it; x is
    whichever vertex fed w before the step added (v, w), and v must be
    the tail left dangling so far.
    """
    succ = pd.succ.copy()
    succ[v0] = -1
    for v, w, _eid in node.steps:
        assert succ[v] == -1
        (x,) = np.flatnonzero(succ == w)
        succ[x] = -1
        succ[v] = w
    return succ


class TestRotateOracle:
    """Every NPD out_phase admits, rebuilt from Π and walked."""

    @staticmethod
    def instance(seed):
        rng = rng_stream(seed, 9)
        n = 90
        perm = rng.permutation(n).tolist()
        # even cuts: every cycle has ≥ 2 vertices, so no loop edges
        cuts = sorted(2 * rng.choice(np.arange(1, n // 2), size=5,
                                     replace=False))
        cycles = [perm[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]
        cover = {(a, b) for cyc in cycles
                 for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        extra = set()
        while len(extra) < 4 * n:
            u, v = (int(x) for x in rng.integers(n, size=2))
            if u != v and (u, v) not in cover:
                extra.add((u, v))
        sd, pd, pool = host_with_cover(*cycles, extra=sorted(extra))
        return sd, pd, pool, min(cycles, key=len)[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_admitted_nodes_match_their_chains(self, seed, monkeypatch):
        made = record_nodes(monkeypatch)
        sd, pd, pool, u0 = self.instance(seed)
        v0 = int(pd.pred[u0])
        n0 = 8
        budget = tiny_budget(n0=n0, leaf_target=10 ** 6)
        w_set = bytearray(sd.n)
        cv.out_phase(pd, u0, sd, pool, w_set, budget)
        assert w_set.count(1) > 0
        old = {frozenset(c.tolist()) for c in pd.cycles.values()}
        by_steps = {node.steps: node for node in made}
        assert len(by_steps) == len(made)
        kinds = []
        for node in made:
            succ = npd_of(pd, node, v0)
            path = [u0]
            while succ[path[-1]] >= 0:
                path.append(int(succ[path[-1]]))
            assert path[-1] == node.end
            assert len(path) == node.path_v
            # off the path succ is a permutation: Π's cycles and the
            # cycles rotations closed off, each of ≥ n0 vertices
            rest = np.setdiff1d(np.arange(sd.n), path)
            assert sorted(succ[rest].tolist()) == rest.tolist()
            seen = set()
            for v in rest.tolist():
                if v in seen:
                    continue
                cyc = [v]
                while int(succ[cyc[-1]]) != v:
                    cyc.append(int(succ[cyc[-1]]))
                seen.update(cyc)
                if frozenset(cyc) not in old:
                    assert len(cyc) >= n0
            # a node's parent is the admitted node one step shorter; a
            # pivot off the parent's path brings its whole cycle in
            if node.steps:
                parent = by_steps[node.steps[:-1]]
                if node.path_v < parent.path_v:
                    kinds.append("split")
                    continue
                succ = npd_of(pd, parent, v0)
                cyc = [node.steps[-1][1]]
                while int(succ[cyc[-1]]) != cyc[0]:
                    cyc.append(int(succ[cyc[-1]]))
                assert node.path_v == parent.path_v + len(cyc)
                kinds.append("Π-cycle" if frozenset(cyc) in old
                             else "created cycle")
        assert len(made) > 1
        if seed == 0:
            # splits, and absorbs of Π-cycles and of created cycles
            assert set(kinds) == {"split", "Π-cycle", "created cycle"}

    def test_materialized_tails_distinct(self, monkeypatch):
        # rewired refuses a repeated tail: each delta chain a closure
        # materializes, out-phase steps, in-phase steps and the closing
        # edge, names every tail once
        real, real_out, real_in = cv._materialize, cv.out_phase, cv.in_phase
        real_rings = cv.PermutationDigraph.rings
        n0 = 8
        in_steps_seen = []
        checked_rings = []
        started = []
        closing = []

        def rings(pd, tails, heads):
            out = real_rings(pd, tails, heads)
            if closing:  # the out-phase's own calls place pivots
                checked_rings.append((list(tails), list(heads), out[1]))
            return out

        def in_phase(*args):
            closing.append(True)
            try:
                return real_in(*args)
            finally:
                closing.pop()

        def out_phase(pd, u0, *args):
            res = real_out(pd, u0, *args)
            started.append((u0, res[1] if res[0] == "leaves" else []))
            return res

        def checked(pd, steps):
            tails = [t for t, _, _ in steps]
            assert len(set(tails)) == len(tails)
            # an in-phase closure splices the chain whose rings it just
            # checked: the leaf's steps, the in-phase steps, each feeding
            # the start the one before it left, then the closing edge
            # from the leaf's end into the chain's last start
            in_steps = ()
            if checked_rings and min(checked_rings[-1][2]) >= n0:
                assert checked_rings[-1][:2] == (
                    tails, [h for _, h, _ in steps])
                u0, leaves = started[-1]
                (leaf,) = {nd for nd in leaves if nd.end == steps[-1][0]
                           and tuple(steps[:len(nd.steps)]) == nd.steps}
                in_steps = tuple(steps[len(leaf.steps):-1])
                start = u0
                for w, fed, _eid in in_steps:
                    assert fed == start
                    start = int(pd.succ[w])
                assert steps[-1][1] == start
            in_steps_seen.append(len(in_steps))
            out = real(pd, steps)
            checked_rings.clear()  # rewired's own call included
            return out

        monkeypatch.setattr(cv.PermutationDigraph, "rings", rings)
        monkeypatch.setattr(cv, "out_phase", out_phase)
        monkeypatch.setattr(cv, "in_phase", in_phase)
        monkeypatch.setattr(cv, "_materialize", checked)
        for seed in range(8):
            sd, pd, pool, _u0 = self.instance(seed)
            try:
                eliminate_small_cycles(pd, sd, pool, rng_stream(seed, 3),
                                       tiny_budget(n0=n0))
            except PhaseFailure:
                pass
        # chains with and without in-phase steps both ran
        assert 0 in in_steps_seen and max(in_steps_seen) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_running_w_count(self, seed, monkeypatch):
        # the |W| that stats and failure details report is the mask's
        # popcount after a start's out_phase and in_phase calls
        checked = []

        def counted(phase):
            def run(*args):
                out = phase(*args)
                w_set = args[-2]  # both phases take (..., w_set, budget)
                checked.append(w_set.count(1))
                return out
            return run

        monkeypatch.setattr(cv, "out_phase", counted(cv.out_phase))
        monkeypatch.setattr(cv, "in_phase", counted(cv.in_phase))
        sd, pd, pool, _u0 = self.instance(seed)
        try:
            _, stats = eliminate_small_cycles(pd, sd, pool,
                                              rng_stream(seed, 3),
                                              tiny_budget(n0=8))
            # W only grows within a start, so the largest count seen is
            # the largest start's
            assert stats.w_size == max(checked)
        except PhaseFailure as exc:
            assert exc.detail.endswith(f"|W|={checked[-1]})")
        assert checked


class TestOutPhase:
    def test_early_closure_single_pass(self):
        # 2-cycle {0,1} plus a 6-cycle; reserve edges let the path
        # absorb the 6-cycle and close straight back to u0
        sd, pd, pool = host_with_cover(
            [0, 1], [2, 3, 4, 5, 6, 7],
            extra=[(1, 2), (7, 0)])
        w_set = bytearray(sd.n)
        budget = tiny_budget(n0=3)
        res = cv.out_phase(pd, 0, sd, pool, w_set, budget)
        assert res[0] == "closed"
        closed = res[1]
        assert closed.num_cycles == 1
        assert len(closed.cycles[0]) == 8
        # the closure reused only host edges
        tails = np.arange(8)
        assert all(
            sd.edge_lookup(int(t), int(closed.succ[t])) == closed.edge_ids[t]
            for t in tails)

    def test_stalls_without_reserve_edges(self):
        sd, pd, pool = host_with_cover([0, 1], [2, 3, 4, 5, 6, 7])
        res = cv.out_phase(pd, 0, sd, pool, bytearray(sd.n),
                           tiny_budget(n0=3))
        assert res[0] == "fail"

    def test_burns_break_edge_endpoints(self):
        sd, pd, pool = host_with_cover([0, 1], [2, 3, 4, 5, 6, 7],
                                       extra=[(1, 2), (7, 0)])
        w_set = bytearray(sd.n)
        cv.out_phase(pd, 0, sd, pool, w_set, tiny_budget(n0=3))
        assert w_set[0] == 1 and w_set[1] == 1

    def test_absorbs_a_created_cycle(self):
        # the root splits 4..11 off by (11, 4), end 3; pivot 7 lies on
        # that created cycle, and (3, 7) absorbs it: path 0..3 7..11
        # 4..6, end 6, which (6, 0) closes
        sd, pd, pool = host_with_cover(list(range(12)),
                                       extra=[(11, 4), (3, 7), (6, 0)])
        w_set = bytearray(sd.n)
        res = cv.out_phase(pd, 0, sd, pool, w_set, tiny_budget(n0=4))
        assert res[0] == "closed"
        assert res[1].cycles[0].tolist() == [0, 1, 2, 3, 7, 8, 9, 10, 11,
                                             4, 5, 6]
        assert w_set.count(1) == 6

    @staticmethod
    def two_cycle_chain(length, closing=False):
        """length 2-cycles {2i, 2i+1}, with one reserve edge from each
        cycle's odd vertex to the next cycle's even one: broken at
        (1, 0), the path can absorb only the next cycle, one per level.
        closing adds the reserve edge from the last vertex back to 0."""
        cycles = [[2 * i, 2 * i + 1] for i in range(length)]
        extra = [(2 * i + 1, 2 * i + 2) for i in range(length - 1)]
        if closing:
            extra.append((2 * length - 1, 0))
        return host_with_cover(*cycles, extra=extra)

    def test_levels_run_until_the_tree_stalls(self):
        # 69 levels, one node each, before the path holds every vertex;
        # the first leaf (path ≥ n0) comes at level 49, and only the
        # stall at the chain's end stops the tree
        sd, pd, pool = self.two_cycle_chain(70)
        w_set = bytearray(sd.n)
        res = cv.out_phase(pd, 0, sd, pool, w_set, tiny_budget(n0=100))
        assert res[0] == "leaves"
        (leaf,) = res[1]
        assert leaf.path_v == 140 and leaf.end == 139
        assert [(t, h) for t, h, _ in leaf.steps] == [
            (2 * i + 1, 2 * i + 2) for i in range(69)]
        assert all(sd.edge_lookup(t, h) == eid for t, h, eid in leaf.steps)
        assert w_set.count(1) == 140

    def test_leaves_longest_first(self, monkeypatch):
        # in_phase ranks closure targets by leaf order, so out_phase
        # must hand its leaves over longest path first: every long-path
        # node of its last level, which like every level holds at most
        # 3 * leaf_target nodes
        made = record_nodes(monkeypatch)
        runs = []
        for seed in range(8):
            for leaf_target in (4, 1):
                sd, pd, pool, u0 = TestRotateOracle.instance(seed)
                cap = 3 * leaf_target
                made.clear()
                res = cv.out_phase(pd, u0, sd, pool, bytearray(sd.n),
                                   tiny_budget(n0=8, leaf_target=leaf_target))
                sizes = collections.Counter(len(nd.steps) for nd in made)
                assert max(sizes.values()) <= cap
                if res[0] != "leaves":
                    continue
                lens = [leaf.path_v for leaf in res[1]]
                assert lens == sorted(lens, reverse=True)
                assert 0 < len(lens) <= cap and min(lens) >= 8
                last = [nd for nd in made if len(nd.steps) == max(sizes)
                        and nd.path_v >= 8]
                assert {id(nd) for nd in res[1]} == {id(nd) for nd in last}
                runs.append((cap in sizes.values(), len(set(lens)) > 1))
        # some level filled to the cap, and some leaves differ in length
        assert any(full for full, _ in runs)
        assert any(mixed for _, mixed in runs)

    def test_a_full_level_burns_only_its_nodes(self, monkeypatch):
        # the root absorbs the 2-cycle {2, 3} or {4, 5}: a level of two
        # nodes, ends 3 and 5.  Their rows offer eight and two pivots,
        # each the head of its own 8-cycle, whose absorb makes a
        # 12-vertex leaf.  The next level fills at 3 * leaf_target = 6
        # nodes inside end 3's row, and end 5's is never read, so only
        # the pivots of kept nodes and their predecessors burn
        made = record_nodes(monkeypatch)
        eights = [list(range(6 + 8 * i, 14 + 8 * i)) for i in range(10)]
        sd, pd, pool = host_with_cover(
            [0, 1], [2, 3], [4, 5], *eights,
            extra=[(1, 2), (1, 4)] + [(3 if i < 8 else 5, 6 + 8 * i)
                                      for i in range(10)])
        w_set = bytearray(sd.n)
        res = cv.out_phase(pd, 0, sd, pool, w_set,
                           tiny_budget(n0=10, leaf_target=2))
        admitted = [nd for nd in made if nd.steps]
        assert [len(nd.steps) for nd in admitted] == [1] * 2 + [2] * 6
        assert w_set.count(1) == 2 + 2 * len(admitted)
        assert res[0] == "leaves"
        assert [nd.path_v for nd in res[1]] == [12] * 6
        assert {id(nd) for nd in res[1]} == {id(nd) for nd in admitted[2:]}
        assert {nd.steps[0][1] for nd in res[1]} == {2}

    def test_tree_stops_when_nothing_is_left_to_burn(self):
        # with n0 past n no leaf ever comes and no closure is tried:
        # each level burns two more vertices, and the tree stalls only
        # at 139, whose one reserve edge leads to 0, burnt at the root
        sd, pd, pool = self.two_cycle_chain(70, closing=True)
        w_set = bytearray(sd.n)
        res = cv.out_phase(pd, 0, sd, pool, w_set, tiny_budget(n0=1000))
        assert res == ("fail", "tree stalled with no long-path leaf")
        assert w_set.count(1) == 140


class TestInPhase:
    @staticmethod
    def start_chain(length):
        """length 2-cycles {2i, 2i+1}, the first broken at (1, 0) into a
        leaf path 0 -> 1: reserve edge (2, 0) makes 3 the next start,
        (4, 3) then makes 5, and so on, one start and two burnt vertices
        per level.  The leaf's one closure target, (1, 2), enters a
        vertex that never starts."""
        cycles = [[2 * i, 2 * i + 1] for i in range(length)]
        extra = [(1, 2), (2, 0)] + [(2 * i + 2, 2 * i + 1)
                                    for i in range(1, length - 1)]
        sd, pd, pool = host_with_cover(*cycles, extra=extra)
        w_set = bytearray(sd.n)
        w_set[0] = w_set[1] = 1  # as the out-phase burns the broken edge
        leaf = cv._Node((), 2, 1)
        return sd, pd, pool, w_set, leaf

    def test_starts_run_until_nothing_is_left_to_burn(self):
        # no start closes, so the starts run to the chain's end, one
        # level each, and stop with every vertex burnt
        sd, pd, pool, w_set, leaf = self.start_chain(20)
        assert cv.in_phase(pd, 0, [leaf], sd, pool, w_set,
                           tiny_budget(n0=100)) is None
        assert w_set.count(1) == 40

    @pytest.mark.parametrize("max_starts", [2, 4])
    def test_stops_at_max_starts(self, max_starts, monkeypatch):
        # five reserve edges (2i, 0) into the leaf path 0 -> 1 make the
        # odd vertices 3, 5, ..., 11 starts, and no closure is valid (n0
        # past n): the in-phase stops at the start that brings its count,
        # u0's included, to MAX_STARTS, two burns per start after u0
        monkeypatch.setattr(cv, "MAX_STARTS", max_starts)
        sd, pd, pool = host_with_cover(
            *[[2 * i, 2 * i + 1] for i in range(6)],
            extra=[(1, 2)] + [(2 * i, 0) for i in range(1, 6)])
        w_set = bytearray(sd.n)
        w_set[0] = w_set[1] = 1  # the leaves' burns: the broken edge's
        assert cv.in_phase(pd, 0, [cv._Node((), 2, 1)], sd, pool, w_set,
                           tiny_budget(n0=100)) is None
        assert w_set.count(1) - 2 == 2 * (max_starts - 1)

    def test_closes_through_a_created_cycle(self):
        # the leaf's end split 4..11 off (11 -> 4, end 3); reserve edge
        # (7, 0) pivots on that created cycle and makes 8 the start, and
        # (3, 8) closes 8..11 4..7 0..3 into one 12-cycle
        sd, pd, pool = host_with_cover(list(range(12)), [12, 13, 14, 15],
                                       extra=[(11, 4), (7, 0), (3, 8)])
        leaf = cv._Node(((11, 4, sd.edge_lookup(11, 4)),), 4, 3)
        w_set = bytearray(sd.n)
        for v in (0, 11, 4, 3):  # the broken edge and the split's pair
            w_set[v] = 1
        out = cv.in_phase(pd, 0, [leaf], sd, pool, w_set, tiny_budget(n0=4))
        assert out is not None
        assert out.cycles[0].tolist() == [0, 1, 2, 3, 8, 9, 10, 11, 4, 5,
                                          6, 7]
        assert {c: len(cyc) for c, cyc in out.cycles.items()} == {0: 12,
                                                                  12: 4}


class TestEliminate:
    def test_a_start_may_burn_every_vertex(self):
        # the start from u0 = 0 absorbs the chain one 2-cycle a level,
        # burning all 140 vertices, and closes back onto 0 by the edge
        # (139, 0); the start from u0 = 1 stalls at once
        sd, pd, pool = TestOutPhase.two_cycle_chain(70, closing=True)
        out, stats = eliminate_small_cycles(
            pd, sd, pool, rng_stream(7), PhaseTwoBudget.for_model(140, 8, 1))
        assert out.num_cycles == 1 and len(out.cycles[0]) == 140
        assert stats.eliminated == [2] and stats.early_closures == 1
        assert stats.w_size == 140

    def test_clean_cover_untouched(self):
        sd, pd, pool = host_with_cover(list(range(30)))
        budget = tiny_budget(n0=5)
        out, stats = eliminate_small_cycles(pd, sd, pool,
                                            rng_stream(7), budget)
        assert (out.succ == pd.succ).all()
        assert stats.iterations == 0
        assert stats.eliminated == []

    def test_two_cycle_absorbed(self):
        # reserve edges support a closure whichever break edge of the
        # 2-cycle the sweep happens to pick
        sd, pd, pool = host_with_cover(
            [0, 1], [2, 3, 4, 5, 6, 7],
            extra=[(1, 2), (7, 0), (0, 3), (2, 1)])
        budget = tiny_budget(n0=3)
        out, stats = eliminate_small_cycles(pd, sd, pool,
                                            rng_stream(7), budget)
        assert out.num_cycles == 1
        assert stats.eliminated == [2]
        assert stats.early_closures + stats.in_phase_closures == 1

    def test_unremovable_cycle_raises(self):
        sd, pd, pool = host_with_cover([0, 1], [2, 3, 4, 5, 6, 7])
        with pytest.raises(PhaseFailure, match="phase2"):
            eliminate_small_cycles(pd, sd, pool, rng_stream(7),
                                   tiny_budget(n0=3))

    def test_every_vertex_starts_with_a_fresh_w(self, monkeypatch):
        # with out_phase always failing, an L-cycle gets L starts, one
        # from each of its vertices, in the order of the iteration's one
        # permutation draw, and each start enters with an empty W
        calls = []

        def failing_out_phase(pd, u0, sd, pool, w_set, budget):
            calls.append((u0, w_set.count(1)))
            w_set[u0] = w_set[int(pd.pred[u0])] = 1
            return ("fail", "forced")

        monkeypatch.setattr(cv, "out_phase", failing_out_phase)
        for clen in range(2, 13):
            calls.clear()
            sd, pd, pool = host_with_cover(
                list(range(clen)), list(range(clen, 2 * clen + 1)))
            with pytest.raises(PhaseFailure) as exc:
                eliminate_small_cycles(pd, sd, pool, rng_stream(7),
                                       tiny_budget(n0=clen + 1))
            # cycle vertex u is its own offset, so u0 = u
            assert calls == [(u, 0) for u in
                             rng_stream(7).permutation(clen).tolist()]
            assert exc.value.detail == (
                f"could not remove a {clen}-cycle after {clen} starts "
                f"(last: forced; |W|=2)")

    def test_later_start_closes(self, monkeypatch):
        # two forced failures, then the real out_phase closes the cycle
        # from the third start
        real_out_phase = cv.out_phase
        calls = []

        def flaky_out_phase(pd, u0, sd, pool, w_set, budget):
            calls.append(u0)
            if len(calls) <= 2:
                return ("fail", "forced")
            return real_out_phase(pd, u0, sd, pool, w_set, budget)

        monkeypatch.setattr(cv, "out_phase", flaky_out_phase)
        small, long = list(range(7)), list(range(7, 15))
        cross = [(a, b) for a in small for b in long]
        sd, pd, pool = host_with_cover(
            small, long, extra=cross + [(b, a) for a, b in cross])
        out, stats = eliminate_small_cycles(pd, sd, pool, rng_stream(7),
                                            tiny_budget(n0=8))
        assert len(calls) == 3
        assert out.num_cycles == 1
        assert stats.eliminated == [7]
        assert stats.second_attempts == 2

    def test_largest_small_cycle_first(self, monkeypatch):
        seen = []

        def failing_out_phase(pd, u0, sd, pool, w_set, budget):
            seen.append(len(pd.cycles[int(pd.cycle_id[u0])]))
            return ("fail", "forced")

        monkeypatch.setattr(cv, "out_phase", failing_out_phase)
        sd, pd, pool = host_with_cover([0, 1], [2, 3, 4], [5, 6, 7, 8],
                                       [9, 10, 11, 12, 13, 14, 15, 16, 17])
        with pytest.raises(PhaseFailure):
            eliminate_small_cycles(pd, sd, pool, rng_stream(7),
                                   tiny_budget(n0=5))
        assert seen and seen[0] == 4

    def test_equal_largest_small_cycles_lowest_start_first(self,
                                                           monkeypatch):
        # the 3-cycles 2 3 4 and 5 6 7 tie for largest small cycle; the
        # rewire that split 2 3 4 off 0 1 stores it after 5 6 7, and it
        # is still entered first
        seen = []

        def failing_out_phase(pd, u0, sd, pool, w_set, budget):
            seen.append(int(pd.cycles[int(pd.cycle_id[u0])][0]))
            return ("fail", "forced")

        monkeypatch.setattr(cv, "out_phase", failing_out_phase)
        sd, pd, pool = host_with_cover([5, 6, 7], [0, 1, 2, 3, 4],
                                       list(range(8, 17)),
                                       extra=[(1, 0), (4, 2)])
        pd = pd.rewired([1, 4], [0, 2],
                        [sd.edge_lookup(1, 0), sd.edge_lookup(4, 2)])
        with pytest.raises(PhaseFailure, match="3-cycle after 3 starts"):
            eliminate_small_cycles(pd, sd, pool, rng_stream(7),
                                   tiny_budget(n0=5))
        assert seen == [2, 2, 2]

    def test_output_pinned(self, host_k2):
        # cover 0 of host_k2 after the pipeline's own split, SMALL and
        # matchings: seven eliminations, all closed in the in-phase
        params, sd = host_k2
        rng = rng_stream(58, 4)
        part = split_edges(sd, params.k, rng)
        compute_small(sd, part, params.c, params.k)
        used = np.zeros(sd.m, dtype=bool)
        pms = build_k_matchings(sd, part, rng, used=used)
        budget = PhaseTwoBudget.for_model(params.n, params.c, params.k)
        pd = matching_to_cycle_cover(pms[0])
        used[pms[0].edge_ids] = False
        out, stats = eliminate_small_cycles(
            pd, sd, part.reserve(3, 0, used), rng, budget)
        counts = (stats.iterations, stats.early_closures,
                  stats.in_phase_closures, stats.second_attempts,
                  stats.w_size, stats.eliminated)
        assert counts[:3] == (7, 0, 7)
        h = hashlib.sha256()
        h.update(out.succ.astype("<i8").tobytes())
        h.update(out.edge_ids.astype("<i8").tobytes())
        h.update(repr(counts).encode())
        assert h.hexdigest() == ("2d8892e9765278ae6755df9c9a74b964"
                                 "2c6ea5a16602e9dcaecba44db6e98964")
        assert int(rng.integers(1 << 62)) == 4277912237676510138


class TestAssertProgress:
    def test_count_must_drop(self):
        old = perm_digraph([0, 1], [2, 3], [4, 5, 6, 7, 8, 9])
        with pytest.raises(ValueError, match="phase 2: small-cycle count"):
            cv._assert_progress(old, old, n0=3)

    def test_no_new_small_cycles(self):
        old = perm_digraph([0, 1], [2, 3], [4, 5, 6, 7, 8, 9])
        # drops to one small cycle, but it is a brand new one
        new = perm_digraph([0, 2], [1, 3, 4, 5, 6, 7, 8, 9])
        with pytest.raises(ValueError, match="phase 2: a new small cycle"):
            cv._assert_progress(old, new, n0=3)

    def test_surviving_old_cycle_is_fine(self):
        old = perm_digraph([0, 1], [2, 3], [4, 5, 6, 7, 8, 9])
        new = perm_digraph([0, 1], [2, 3, 4, 5, 6, 7, 8, 9])
        cv._assert_progress(old, new, n0=3)


class TestBudget:
    def test_for_model_arithmetic(self):
        b = PhaseTwoBudget.for_model(5000, 50.0, 1)
        alpha = math.ceil(50 / 8)
        assert b.n0 == pytest.approx(5000 / math.log(5000))
        assert b.in_branch == 3 * alpha
        assert b.leaf_target == math.ceil(math.sqrt(5000 / alpha))


class TestPipelineIntegration:
    @pytest.fixture(scope="class")
    @staticmethod
    def repaired(host_k2):
        params, sd = host_k2
        rng = rng_stream(55, 2)
        part = split_edges(sd, params.k, rng)
        compute_small(sd, part, params.c, params.k)
        used = np.zeros(sd.m, dtype=bool)
        pms = build_k_matchings(sd, part, rng, used=used)
        budget = PhaseTwoBudget.for_model(params.n, params.c, params.k)
        covers = []
        for i in range(params.k):
            pd = matching_to_cycle_cover(pms[i])
            used[pms[i].edge_ids] = False
            out, stats = eliminate_small_cycles(
                pd, sd, part.reserve(3, i, used), rng, budget)
            used[out.edge_ids] = True
            covers.append((out, stats))
        return params, sd, budget, covers

    def test_min_cycle_length_postcondition(self, repaired):
        params, _, budget, covers = repaired
        for out, _ in covers:
            assert min(map(len, out.cycles.values())) >= budget.n0

    def test_covers_use_disjoint_host_edges(self, repaired):
        params, sd, _, covers = repaired
        all_ids = np.concatenate([out.edge_ids for out, _ in covers])
        assert len(np.unique(all_ids)) == len(all_ids)
        for out, _ in covers:
            rows = sd.edges[out.edge_ids]
            assert (rows[:, 0] == np.arange(params.n)).all()
            assert (rows[:, 1] == out.succ).all()

    def test_deterministic_given_seed(self, host_k2):
        params, sd = host_k2

        def run():
            rng = rng_stream(56, 2)
            part = split_edges(sd, params.k, rng)
            compute_small(sd, part, params.c, params.k)
            used = np.zeros(sd.m, dtype=bool)
            pms = build_k_matchings(sd, part, rng, used=used)
            budget = PhaseTwoBudget.for_model(params.n, params.c, params.k)
            outs = []
            for i in range(params.k):
                pd = matching_to_cycle_cover(pms[i])
                used[pms[i].edge_ids] = False
                out, _ = eliminate_small_cycles(
                    pd, sd, part.reserve(3, i, used), rng, budget)
                used[out.edge_ids] = True
                outs.append(out)
            return outs

        a = run()
        b = run()
        for x, y in zip(a, b):
            assert (x.succ == y.succ).all()
            assert (x.edge_ids == y.edge_ids).all()
