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


def booster_host(n, pairs, boosters, rng=None):
    """A loop-free host on [n] holding pairs and boosters, in random
    order when rng is given, with the masks that select each part."""
    edges = np.array(pairs + boosters, dtype=np.int64).reshape(-1, 2)
    is_booster = np.arange(len(edges)) >= len(pairs)
    if rng is not None:
        order = rng.permutation(len(edges))
        edges, is_booster = edges[order], is_booster[order]
    return SimpleDigraph(n, edges, 1), ~is_booster, is_booster


def random_host_pairs(n, p, length, rng):
    """Loop-free pairs on [n], each present with probability p, and up
    to length boosters in random order: distinct pairs, none of them
    among the first."""
    pairs = [(u, v) for u, v in random_pairs(n, p, rng) if u != v]
    taken = set(pairs)
    new = [(u, v) for u in range(n) for v in range(n)
           if u != v and (u, v) not in taken]
    return pairs, [new[i] for i in rng.permutation(len(new))[:length].tolist()]


def labelled(pairs, label):
    """The bipartite pairs (u, label[v]) of digraph pairs (u, v)."""
    return [(u, int(label[v])) for u, v in pairs]


def nx_matching_size(n, pairs) -> int:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(2 * n))
    nxg.add_edges_from((a, n + b) for a, b in pairs)
    pairing = nx.bipartite.hopcroft_karp_matching(nxg, top_nodes=range(n))
    return len(pairing) // 2


class TestBoosterAugment:
    def test_forced_augmentation(self):
        # b_0 is in no G_i pair, so G_i matches two of three; booster
        # {a_1, b_0} completes it, with a_0 moved onto b_2
        pairs = [(0, 1), (0, 2), (1, 2), (2, 1)]
        sd, mask, boosters = booster_host(3, pairs, [(1, 0)])
        label = np.arange(3)
        assert maximum_matching(digraph_to_bipartite(mask, sd, label)).size == 2
        report = booster_augment(sd, mask, boosters, label)
        assert report.matching.is_perfect() and report.consumed == 1
        assert report.matching.pair_a.tolist() == [2, 0, 1]

    def test_deficiency_on_failure(self):
        # three A vertices contending for one B vertex, and no booster:
        # one is matched
        sd, mask, boosters = booster_host(4, [(a, 3) for a in range(3)], [])
        report = booster_augment(sd, mask, boosters, np.arange(4))
        assert not report.matching.is_perfect() and report.consumed == 0
        assert report.matching.size == 1 and len(report.matching.pair_a) == 4

    def test_incremental_equals_batch(self):
        # the report's matching has the size a from-scratch maximum
        # matching finds on G_i grown by every booster
        rng = rng_stream(34, 0)
        for trial in range(30):
            n = int(rng.integers(4, 16))
            pairs, kept = random_host_pairs(n, 0.15, 25, rng)
            sd, mask, boosters = booster_host(n, pairs, kept, rng)
            label = rng.permutation(n)
            report = booster_augment(sd, mask, boosters, label)
            grown = graph_of(n, labelled(pairs + kept, label))
            assert report.consumed == len(kept)
            assert report.matching.size == maximum_matching(grown).size
            assert in_graph(report.matching, grown)

    def test_equals_some_prefix(self):
        # the report is perfect exactly when networkx finds a perfect
        # matching for some prefix of the boosters, and its matching
        # lies in G_i plus every booster; on failure it is a maximum one
        # there, short by the deficiency.  Neither mask changes.
        rng = rng_stream(35, 0)
        outcomes = set()
        for trial in range(40):
            n = int(rng.integers(4, 14))
            pairs, kept = random_host_pairs(n, 0.15, 30, rng)
            sd, mask, boosters = booster_host(n, pairs, kept, rng)
            label = rng.permutation(n)
            given = mask.copy(), boosters.copy()
            report = booster_augment(sd, mask, boosters, label)
            assert np.array_equal(given[0], mask)
            assert np.array_equal(given[1], boosters)
            bip = labelled(pairs, label), labelled(kept, label)
            some_prefix = any(nx_matching_size(n, bip[0] + bip[1][:t]) == n
                              for t in range(len(kept) + 1))
            assert report.matching.is_perfect() == some_prefix
            assert report.consumed == len(kept)
            grown = graph_of(n, bip[0] + bip[1])
            assert in_graph(report.matching, grown)
            outcomes.add(report.matching.is_perfect())
            assert report.matching.size == nx_matching_size(n, bip[0] + bip[1])
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

        def recorded(sd, mask, boosters, label):
            offered.append(np.count_nonzero(boosters))
            reports.append(real(sd, mask, boosters, label))
            return reports[-1]
        monkeypatch.setattr(matching, "booster_augment", recorded)
        self._build(*forced_booster_host(1.0))
        assert len(reports) == 1 and reports[0].matching.is_perfect()
        assert reports[0].consumed == offered[0]

    def test_boosters_are_new_pairs(self, monkeypatch, rejection_path):
        # booster_augment takes its masks as given: those
        # build_k_matchings hands it share no edge, so on a host with no
        # repeated pair every booster is a new pair to G_i
        offered = []
        real = matching.booster_augment

        def checked(sd, mask, boosters, label):
            assert not (mask & boosters).any()
            offered.append(np.count_nonzero(boosters))
            return real(sd, mask, boosters, label)
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

    def test_k2_host(self, host_k2, monkeypatch):
        # boosters run only after a short first matching: here none is
        # short, so booster_augment is never called
        params, sd = host_k2
        short, boosted = [], []
        real = matching.maximum_matching

        def recorded(g):
            mt = real(g)
            short.append(not mt.is_perfect())
            return mt
        monkeypatch.setattr(matching, "maximum_matching", recorded)
        monkeypatch.setattr(matching, "booster_augment",
                            lambda *args: boosted.append(args))
        self._check(params, sd, 2, 37)
        assert short == [False, False] and boosted == []

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
