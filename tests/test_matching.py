"""Phase-1 matchings: translation, maximum matching, boosters.

The maximum-matching oracle is an exhaustive bitmask DP, written
independently of the library code and feasible up to n = 12; networkx
serves as a second independent oracle at larger n.
"""

import functools
import hashlib

import networkx as nx
import numpy as np
import pytest

from hampack.errors import PhaseFailure
from hampack.matching import (BipartiteGraph, Matching, booster_augment,
                              build_k_matchings, digraph_to_bipartite,
                              matching_to_cycle_cover, maximum_matching)
from hampack.model import SimpleDigraph
from hampack.partition import compute_small, split_edges
from hampack.rng import rng_stream


def oracle_max_matching(adj: list[list[int]], n_b: int) -> int:
    """Exhaustive maximum matching size via DP over B-subsets."""
    masks = [sum(1 << b for b in nbrs) for nbrs in adj]

    @functools.lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(masks):
            return 0
        top = best(i + 1, used)
        free = masks[i] & ~used
        while free:
            bit = free & -free
            free ^= bit
            top = max(top, 1 + best(i + 1, used | bit))
        return top

    result = best(0, 0)
    best.cache_clear()
    return result


def random_pairs(n: int, p: float, rng) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(n) if rng.random() < p]


def graph_of(n: int, pairs) -> BipartiteGraph:
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return BipartiteGraph(n, ends[:, 0], ends[:, 1], np.arange(len(ends)))


def random_bipartite(n: int, p: float, rng) -> BipartiteGraph:
    return graph_of(n, random_pairs(n, p, rng))


def row(g: BipartiteGraph, a: int) -> list[int]:
    return g.indices[g.indptr[a]:g.indptr[a + 1]].tolist()


def edge_id(g: BipartiteGraph, a: int, b: int) -> int:
    """Host edge id of {a, b}, read off the sorted pair codes."""
    pos = int(np.searchsorted(g.codes, a * g.n + b))
    assert g.codes[pos] == a * g.n + b
    return int(g.eids[pos])


class TestTranslation:
    def test_single_edge(self):
        sd = SimpleDigraph(8, np.array([[3, 7]]), 1)
        g = digraph_to_bipartite([0], sd, np.arange(8))
        assert row(g, 3) == [7]
        assert edge_id(g, 3, 7) == 0
        assert g.num_edges == 1

    def test_min_degree_preserved(self, tiny_host):
        g = digraph_to_bipartite(np.arange(tiny_host.m), tiny_host,
                                 np.arange(tiny_host.n))
        a_deg = np.diff(g.indptr)
        b_deg = np.bincount(g.indices, minlength=g.n)
        assert a_deg.min() >= tiny_host.k + 1
        assert b_deg.min() >= tiny_host.k + 1

    def test_empty(self, tiny_host):
        g = digraph_to_bipartite([], tiny_host, np.arange(tiny_host.n))
        assert g.num_edges == 0

    def test_relabel_round_trip(self, tiny_host):
        rng = rng_stream(31, 0)
        label = rng.permutation(tiny_host.n)
        g = digraph_to_bipartite([0, 1, 2], tiny_host, label)
        for e in (0, 1, 2):
            u, v = tiny_host.edges[e]
            assert edge_id(g, int(u), int(label[v])) == e

    def test_codes_sorted_and_rows_aligned(self, tiny_host):
        label = rng_stream(31, 1).permutation(tiny_host.n)
        g = digraph_to_bipartite(np.arange(tiny_host.m), tiny_host, label)
        assert np.all(np.diff(g.codes) > 0)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        assert np.array_equal(g.codes, rows * g.n + g.indices)
        ends = tiny_host.edges[g.eids]
        assert np.array_equal(ends[:, 0], rows)
        assert np.array_equal(label[ends[:, 1]], g.indices)


class TestMaximumMatching:
    def test_disjoint_perfect(self):
        g = graph_of(5, [(v, (v + 2) % 5) for v in range(5)])
        mt = maximum_matching(g)
        assert mt.is_perfect()
        assert mt.check_consistent(g)

    def test_star(self):
        g = graph_of(3, [(0, b) for b in range(3)])
        assert maximum_matching(g).size == 1

    def test_matches_exhaustive_oracle(self):
        rng = rng_stream(32, 0)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            p = float(rng.uniform(0.1, 0.9))
            pairs = random_pairs(n, p, rng)
            adj = [[b for a2, b in pairs if a2 == a] for a in range(n)]
            want = oracle_max_matching(adj, n)
            assert maximum_matching(graph_of(n, pairs)).size == want

    def test_networkx_agrees_medium(self):
        rng = rng_stream(33, 0)
        n = 300
        pairs = random_pairs(n, 0.02, rng)
        g = graph_of(n, pairs)
        mt = maximum_matching(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_nodes_from(range(n, 2 * n))
        nxg.add_edges_from((a, n + b) for a, b in pairs)
        ref = nx.bipartite.hopcroft_karp_matching(nxg, top_nodes=range(n))
        assert mt.size == len(ref) // 2
        assert mt.check_consistent(g)


class TestBoosterAugment:
    def test_perfect_input_untouched(self):
        g = graph_of(3, [(v, v) for v in range(3)])
        mt = maximum_matching(g)
        report = booster_augment(g, mt, iter([(0, 1, 99)]))
        assert report.is_perfect()
        assert report.consumed == 0

    def test_forced_augmentation(self):
        # a1-b1-a2 path matched at {a1 b1}; booster {a2, b2} completes it
        g = graph_of(2, [(0, 0), (1, 0)])
        mt = maximum_matching(g)
        assert mt.size == 1
        report = booster_augment(g, mt, iter([(1, 1, 2)]))
        assert report.is_perfect()
        assert report.consumed == 1
        assert report.matching.check_consistent(g)

    def test_witness_on_failure(self):
        # three A vertices contending for one B vertex
        g = graph_of(3, [(a, 0) for a in range(3)])
        mt = maximum_matching(g)
        report = booster_augment(g, mt, iter([]))
        assert not report.is_perfect()
        s, ns = report.witness
        assert len(ns) < len(s)
        neighborhood = set()
        for a in s:
            neighborhood.update(row(g, a))
        assert neighborhood == set(ns.tolist())

    def test_incremental_equals_batch(self):
        # after any prefix of boosters, the incremental matching has the
        # size a from-scratch maximum matching finds on the same graph
        rng = rng_stream(34, 0)
        for trial in range(30):
            n = int(rng.integers(4, 16))
            g = random_bipartite(n, 0.15, rng)
            mt = maximum_matching(g)
            boosters = [(int(a), int(b), 1000 + j) for j, (a, b) in enumerate(
                zip(rng.integers(0, n, 25), rng.integers(0, n, 25)))]
            report = booster_augment(g, mt, iter(boosters))
            fresh = maximum_matching(g)
            assert report.matching.size == fresh.size
            assert report.matching.check_consistent(g)

    def test_augmenting_never_uncovers(self):
        rng = rng_stream(35, 0)
        g = random_bipartite(12, 0.12, rng)
        mt = maximum_matching(g)
        covered_before = set(np.nonzero(mt.pair_a >= 0)[0].tolist())
        boosters = [(int(a), int(b), 500 + j) for j, (a, b) in enumerate(
            zip(rng.integers(0, 12, 40), rng.integers(0, 12, 40)))]
        report = booster_augment(g, mt, iter(boosters))
        covered_after = set(np.nonzero(report.matching.pair_a >= 0)[0].tolist())
        assert covered_before <= covered_after


class TestBuildK:
    def _check(self, params, sd, k, seed):
        rng = rng_stream(seed, 0)
        part = split_edges(sd, k, rng)
        compute_small(sd, part, params.c, k)
        used = np.zeros(sd.m, dtype=bool)
        pms = build_k_matchings(sd, part, rng, used=used)
        all_ids = np.concatenate([pm.edge_ids for pm in pms])
        assert len(np.unique(all_ids)) == len(all_ids)  # edge-disjoint
        assert used.sum() == len(all_ids)
        for pm in pms:
            assert np.array_equal(np.sort(pm.succ), np.arange(sd.n))
            # every matched pair is a real host edge
            assert np.array_equal(sd.edges[pm.edge_ids, 0], np.arange(sd.n))
            assert np.array_equal(sd.edges[pm.edge_ids, 1], pm.succ)
        return pms

    def test_k1_host(self, host_5k):
        params, sd = host_5k
        self._check(params, sd, 1, 36)

    def test_k2_host(self, host_k2):
        params, sd = host_k2
        self._check(params, sd, 2, 37)

    def test_output_pinned(self, host_k2):
        # digest of the matchings the dict-backed view and scipy's COO
        # round trip produced; the CSR view must reproduce them bit for bit
        params, sd = host_k2
        h = hashlib.sha256()
        for pm in self._check(params, sd, 2, 37):
            h.update(pm.succ.astype("<i8").tobytes())
            h.update(pm.edge_ids.astype("<i8").tobytes())
        assert h.hexdigest() == ("54056c994ee6c6bd03aad4defbc54303"
                                 "e118fcfda930ab10502af4dadc7dc096")

    def test_deterministic(self, host_k2):
        params, sd = host_k2
        a = self._check(params, sd, 2, 38)
        b = self._check(params, sd, 2, 38)
        for x, y in zip(a, b):
            assert np.array_equal(x.succ, y.succ)
            assert np.array_equal(x.edge_ids, y.edge_ids)


class TestCycleCover:
    def test_two_two_cycles(self):
        from hampack.matching import PerfectMatching
        pm = PerfectMatching(succ=np.array([1, 0, 3, 2]),
                             edge_ids=np.array([0, 1, 2, 3]))
        pd = matching_to_cycle_cover(pm)
        assert pd.num_cycles == 2
        assert sorted(pd.cycle_lens.tolist()) == [2, 2]

    def test_single_n_cycle(self):
        from hampack.matching import PerfectMatching
        n = 7
        pm = PerfectMatching(succ=np.arange(1, n + 1) % n,
                             edge_ids=np.arange(n))
        pd = matching_to_cycle_cover(pm)
        assert pd.num_cycles == 1
        assert pd.cycle_lens[0] == n
