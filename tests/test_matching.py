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

from hampack import matching
from hampack.errors import PhaseFailure
from hampack.matching import (BipartiteGraph, Matching, booster_augment,
                              build_k_matchings, digraph_to_bipartite,
                              matching_to_cycle_cover, maximum_matching)
from hampack.model import (ModelParams, SimpleDigraph, key_dtype,
                           sample_erased_digraph)
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
    return BipartiteGraph(n, ends[:, 0], ends[:, 1])


def row(g: BipartiteGraph, a: int) -> list[int]:
    return g.indices[g.indptr[a]:g.indptr[a + 1]].tolist()


def codes_of(g: BipartiteGraph) -> np.ndarray:
    """g's pair codes a*n + b in CSR order, derived from its rows."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    return rows * g.n + g.indices


def in_graph(mt: Matching, g: BipartiteGraph) -> bool:
    """mt's B partners are distinct and every matched pair is in g."""
    a = np.flatnonzero(mt.pair_a >= 0)
    b = mt.pair_a[a]
    return bool(len(np.unique(b)) == len(b)
                and np.isin(a * g.n + b, codes_of(g)).all())


class TestTranslation:
    def test_single_edge(self):
        sd = SimpleDigraph(8, np.array([[3, 7]]), 1)
        g = digraph_to_bipartite(np.array([True]), sd, np.arange(8))
        assert row(g, 3) == [7]
        assert codes_of(g).tolist() == [3 * 8 + 7]
        assert len(g.indices) == 1

    def test_min_degree_preserved(self, tiny_host):
        g = digraph_to_bipartite(np.ones(tiny_host.m, dtype=bool),
                                 tiny_host, np.arange(tiny_host.n))
        a_deg = np.diff(g.indptr)
        b_deg = np.bincount(g.indices, minlength=g.n)
        assert a_deg.min() >= tiny_host.k + 1
        assert b_deg.min() >= tiny_host.k + 1

    def test_empty(self, tiny_host):
        g = digraph_to_bipartite(np.zeros(tiny_host.m, dtype=bool),
                                 tiny_host, np.arange(tiny_host.n))
        assert len(g.indices) == 0

    def test_relabel_round_trip(self, tiny_host):
        rng = rng_stream(31, 0)
        label = rng.permutation(tiny_host.n)
        g = digraph_to_bipartite(np.arange(tiny_host.m) < 3, tiny_host,
                                 label)
        want = [u * g.n + label[v] for u, v in tiny_host.edges[:3]]
        assert codes_of(g).tolist() == sorted(want)

    def test_codes_sorted_and_rows_aligned(self, tiny_host):
        label = rng_stream(31, 1).permutation(tiny_host.n)
        g = digraph_to_bipartite(np.ones(tiny_host.m, dtype=bool),
                                 tiny_host, label)
        assert np.all(np.diff(codes_of(g)) > 0)
        rows = np.repeat(np.arange(g.n), np.diff(g.indptr))
        # unlabelled, the pairs are the host's edges, each once
        ids = tiny_host.edge_lookup(rows, np.argsort(label)[g.indices])
        assert np.array_equal(np.sort(ids), np.arange(tiny_host.m))


class TestBipartiteLayout:
    """BipartiteGraph against a layout sorted by brute force."""

    @staticmethod
    def check(n, pairs):
        a, b = (np.array([p[i] for p in pairs], dtype=np.int64)
                for i in (0, 1))
        g = BipartiteGraph(n, a, b)
        rows = sorted(zip(a.tolist(), b.tolist()))
        assert g.indices.tolist() == [y for _, y in rows]
        assert g.indptr.tolist() == [sum(x < r for x, _ in rows)
                                     for r in range(n + 1)]
        for arr in (g.indices, g.indptr):
            assert arr.dtype == np.int32
        assert not hasattr(g, "codes")

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs_with_isolated_rows(self, seed):
        rng = rng_stream(seed, 17)
        n = 12
        pairs = random_pairs(n, 0.2, rng)
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        # rows 0 and n - 1 stay isolated
        pairs = [(x, y) for x, y in pairs if x not in (0, n - 1)]
        self.check(n, pairs)

    def test_empty_edge_set(self):
        self.check(5, [])

    @pytest.mark.parametrize("n", [46_340, 46_341])
    def test_pair_codes_either_side_of_2_to_the_31(self, n):
        # n^2 is just under 2^31 at 46 340, so the codes sort as int32
        # words, and just over it at 46 341, so they sort as int64 words;
        # the largest code (n - 1) * n + n - 1 is among the pairs
        assert key_dtype(n * n) == (np.int32 if n == 46_340 else np.int64)
        rng = rng_stream(n, 18)
        pairs = {(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)}
        pairs |= set(zip(rng.integers(0, n, 40).tolist(),
                         rng.integers(0, n, 40).tolist()))
        pairs = sorted(pairs)
        self.check(n, [pairs[i] for i in rng.permutation(len(pairs))])

    def test_repeated_pair_refused(self):
        with pytest.raises(ValueError, match="repeated"):
            BipartiteGraph(3, [1, 0, 1], [2, 2, 2])


class TestMaximumMatching:
    def test_disjoint_perfect(self):
        g = graph_of(5, [(v, (v + 2) % 5) for v in range(5)])
        mt = maximum_matching(g)
        assert mt.is_perfect()
        assert in_graph(mt, g)

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
        assert in_graph(mt, g)


def booster_stream(n, pairs, length, rng):
    """Up to length boosters in random order, each a distinct pair not
    in the graph, as build_k_matchings offers them."""
    taken = set(pairs)
    new = [(a, b) for a in range(n) for b in range(n) if (a, b) not in taken]
    return [new[i] for i in rng.permutation(len(new))[:length].tolist()]


def nx_matching_size(n, pairs) -> int:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(2 * n))
    nxg.add_edges_from((a, n + b) for a, b in pairs)
    pairing = nx.bipartite.hopcroft_karp_matching(nxg, top_nodes=range(n))
    return len(pairing) // 2


class TestBoosterAugment:
    def test_perfect_input_untouched(self):
        g = graph_of(3, [(v, v) for v in range(3)])
        mt = maximum_matching(g)
        report = booster_augment(g, mt, [(0, 1)])
        assert report.matching.is_perfect()
        assert report.consumed == 0 and report.matching is mt

    def test_forced_augmentation(self):
        # a1-b1-a2 path matched at {a1 b1}; booster {a2, b2} completes it
        g = graph_of(2, [(0, 0), (1, 0)])
        mt = maximum_matching(g)
        assert mt.size == 1
        report = booster_augment(g, mt, [(1, 1)])
        assert report.matching.is_perfect()
        assert report.consumed == 1 and len(g.indices) == 2
        grown = graph_of(2, [(0, 0), (1, 0), (1, 1)])
        assert in_graph(report.matching, grown)
        assert not in_graph(report.matching, g)

    def test_repeated_booster_refused(self):
        # two A vertices short, so boosters run and meet both copies
        g = graph_of(3, [(0, 0)])
        with pytest.raises(ValueError, match="repeated pair"):
            booster_augment(g, maximum_matching(g),
                            [(1, 1), (1, 1), (2, 2)])

    def test_booster_already_in_graph_refused(self):
        g = graph_of(3, [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="repeated pair"):
            booster_augment(g, maximum_matching(g), [(0, 0), (2, 2)])

    def test_deficiency_on_failure(self):
        # three A vertices contending for one B vertex: one is matched
        g = graph_of(3, [(a, 0) for a in range(3)])
        mt = maximum_matching(g)
        report = booster_augment(g, mt, [])
        assert not report.matching.is_perfect()
        assert report.matching.size == 1 and len(report.matching.pair_a) == 3

    def test_incremental_equals_batch(self):
        # the report's matching has the size a from-scratch maximum
        # matching finds on g grown by every booster
        rng = rng_stream(34, 0)
        for trial in range(30):
            n = int(rng.integers(4, 16))
            pairs = random_pairs(n, 0.15, rng)
            g = graph_of(n, pairs)
            mt = maximum_matching(g)
            stream = booster_stream(n, pairs, 25, rng)
            report = booster_augment(g, mt, stream)
            grown = graph_of(n, pairs + stream)
            assert report.matching.size == maximum_matching(grown).size
            assert in_graph(report.matching, grown)

    def test_equals_some_prefix(self):
        # the report is perfect exactly when networkx finds a perfect
        # matching for some prefix of the boosters, and its matching
        # lies in g plus every booster; on failure it is a maximum one
        # there, short by the deficiency.  Neither g nor the matching
        # given changes.
        rng = rng_stream(35, 0)
        outcomes = set()
        for trial in range(40):
            n = int(rng.integers(4, 14))
            pairs = random_pairs(n, 0.15, rng)
            g = graph_of(n, pairs)
            mt = maximum_matching(g)
            given = [a.copy() for a in (g.indices, g.indptr, mt.pair_a)]
            kept = booster_stream(n, pairs, 30, rng)
            report = booster_augment(g, mt, kept)
            for old, now in zip(given, (g.indices, g.indptr, mt.pair_a)):
                assert np.array_equal(old, now)
            some_prefix = any(nx_matching_size(n, pairs + kept[:t]) == n
                              for t in range(len(kept) + 1))
            assert report.matching.is_perfect() == some_prefix
            if mt.is_perfect():
                assert report.consumed == 0 and report.matching is mt
                continue
            assert report.consumed == len(kept)
            grown = graph_of(n, pairs + kept)
            assert in_graph(report.matching, grown)
            outcomes.add(report.matching.is_perfect())
            assert report.matching.size == nx_matching_size(n, pairs + kept)
        assert outcomes == {True, False}


def forced_booster_host(keep2: float):
    """A (500, 100, 1) host and partition with 97 % of pool 1's
    non-E_SMALL edges moved into pool 2, and only a keep2 share of
    pool 2's kept there: phase 1 falls about 250 short.  Tests that
    pin values on it draw it with the rejection_path fixture."""
    params = ModelParams.make(500, 100.0, 1)
    sd, _ = sample_erased_digraph(params, rng_stream(1))
    rng = rng_stream(1, 0)
    part = split_edges(sd, 1, rng)
    compute_small(sd, part, params.c, 1)
    side = np.random.default_rng(1)
    p1 = np.nonzero((part.pool == 0) & ~part.e_small)[0]
    part.pool[p1[side.random(len(p1)) < 0.97]] = 1
    p2 = np.nonzero((part.pool == 1) & ~part.e_small)[0]
    part.pool[p2[side.random(len(p2)) >= keep2]] = 2
    return sd, part, rng


class TestBuildK:
    @staticmethod
    def _build(sd, part, rng):
        used = np.zeros(sd.m, dtype=bool)
        pms = build_k_matchings(sd, part, rng, used=used)
        all_ids = np.concatenate([pm.edge_ids for pm in pms])
        assert len(np.unique(all_ids)) == len(all_ids)  # edge-disjoint
        assert used.sum() == len(all_ids)
        for pm in pms:
            assert np.array_equal(np.sort(pm.succ), np.arange(sd.n))
            # every matched pair is a real host edge
            assert np.array_equal(sd.tails[pm.edge_ids], np.arange(sd.n))
            assert np.array_equal(sd.heads[pm.edge_ids], pm.succ)
        return pms

    def _check(self, params, sd, k, seed):
        rng = rng_stream(seed, 0)
        part = split_edges(sd, k, rng)
        compute_small(sd, part, params.c, k)
        return self._build(sd, part, rng)

    def test_forced_boosters(self, monkeypatch, rejection_path):
        # one booster run repairs the matching, and consumed counts
        # every row it was offered
        reports, offered = [], []
        real = matching.booster_augment

        def recorded(g, mt, boosters):
            offered.append(len(boosters))
            reports.append(real(g, mt, boosters))
            return reports[-1]
        monkeypatch.setattr(matching, "booster_augment", recorded)
        self._build(*forced_booster_host(1.0))
        assert len(reports) == 1 and reports[0].matching.is_perfect()
        assert reports[0].consumed == offered[0]

    def test_boosters_are_new_pairs(self, monkeypatch, rejection_path):
        # booster_augment takes its rows as given: those build_k_matchings
        # hands it are distinct pairs, none of them already in G_i
        offered = []
        real = matching.booster_augment

        def checked(g, mt, boosters):
            codes = boosters[:, 0] * g.n + boosters[:, 1]
            assert len(np.unique(codes)) == len(codes)
            assert not np.isin(codes, codes_of(g)).any()
            offered.append(len(codes))
            return real(g, mt, boosters)
        monkeypatch.setattr(matching, "booster_augment", checked)
        self._build(*forced_booster_host(1.0))
        assert len(offered) == 1 and offered[0] > 1172

    def test_forced_boosters_run_out(self, rejection_path):
        # the deficiency and the boosters consumed on this case
        sd, part, rng = forced_booster_host(0.05)
        with pytest.raises(PhaseFailure,
                           match="deficiency 17 after 1049 boosters"):
            build_k_matchings(sd, part, rng, used=np.zeros(sd.m, dtype=bool))

    def test_k1_host(self, host_5k):
        params, sd = host_5k
        self._check(params, sd, 1, 36)

    def test_k2_host(self, host_k2):
        params, sd = host_k2
        self._check(params, sd, 2, 37)

    def test_output_pinned(self, host_k2):
        # digest of both matchings on host_k2's split: a change to the
        # bipartite view or the matcher must reproduce them bit for bit
        params, sd = host_k2
        h = hashlib.sha256()
        for pm in self._check(params, sd, 2, 37):
            h.update(pm.succ.astype("<i8").tobytes())
            h.update(pm.edge_ids.astype("<i8").tobytes())
        assert h.hexdigest() == ("d48708a10b0cd937dce5554769dcea36"
                                 "261a1aee11cb786268db5e9c2b79f66e")

    @pytest.mark.parametrize("short", [False, True],
                             ids=["first-matching", "boosters"])
    def test_edges_read_off_shuffled_host(self, host_k2, short, monkeypatch):
        # on a host out of pair-code order, each matched pair (v, succ v)
        # resolves to its host edge, one from cover i's own pools; with
        # the first matching cut two short, boosters build the cover
        params, sampled = host_k2
        perm = rng_stream(39, 0).permutation(sampled.m)
        sd = SimpleDigraph(sampled.n, sampled.edges[perm], sampled.k)
        assert np.any(sd.tails[1:] < sd.tails[:-1])  # a full-code index
        if short:
            real = matching.maximum_matching

            def short_by_two(g):
                mt = real(g)
                a = np.flatnonzero(mt.pair_a >= 0)[:2]
                mt.pair_a[a] = -1
                return mt
            monkeypatch.setattr(matching, "maximum_matching", short_by_two)
        rng = rng_stream(37, 0)
        part = split_edges(sd, 2, rng)
        compute_small(sd, part, params.c, 2)
        pms = self._build(sd, part, rng)
        used = np.zeros(sd.m, dtype=bool)
        for i, pm in enumerate(pms):
            assert np.array_equal(sd.edges[pm.edge_ids],
                                  np.column_stack((np.arange(sd.n), pm.succ)))
            pools = part.reserve(1, i, used) | part.reserve(2, i, used)
            assert pools[pm.edge_ids].all()
            used[pm.edge_ids] = True

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
