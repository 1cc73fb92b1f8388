"""Pool splitting and SMALL detection."""

import math

import numpy as np
import pytest

from hampack.model import ModelParams, SimpleDigraph, sample_erased_digraph
from hampack.partition import compute_small, split_edges
from hampack.rng import rng_stream


def grid_digraph(n_side: int, k: int = 1) -> SimpleDigraph:
    """Dense circulant on n_side vertices: out-edges to the next 6."""
    n = n_side
    edges = [(u, (u + d) % n) for u in range(n) for d in range(1, 7)]
    return SimpleDigraph(n, np.array(edges), k)


class TestSplitEdges:
    def test_partition_covers_disjointly(self, tiny_host):
        k = 2
        part = split_edges(tiny_host, k, rng_stream(20, 0))
        seen = np.zeros(tiny_host.m, dtype=int)
        for t in (1, 2, 3, 4):
            for i in range(k):
                seen[np.flatnonzero(part.pool == (t - 1) * k + i)] += 1
        assert np.all(seen == 1)

    def test_expected_pool_size(self):
        # every pool has mean m/4k; 200 runs, mean within 4 sigma of the
        # per-run std sqrt(m p (1-p))
        sd = grid_digraph(500)
        k = 2
        m = sd.m
        p = 1.0 / (4 * k)
        runs = 200
        sizes = np.zeros((runs, 3 * k + k))
        rng = rng_stream(21, 0)
        for r in range(runs):
            part = split_edges(sd, k, rng)
            col = 0
            for t in (1, 2, 3, 4):
                for i in range(k):
                    ids = np.flatnonzero(part.pool == (t - 1) * k + i)
                    sizes[r, col] = len(ids)
                    col += 1
        sigma = math.sqrt(m * p * (1 - p))
        for col in range(3 * k + k):
            assert abs(sizes[:, col].mean() - m * p) < 4 * sigma

    def test_label_sizes_binomial(self):
        # each of the 4k labels, E_4's k parts included, is a
        # Binomial(m, 1/4k) count: within 4 sigma on every seed
        sd = grid_digraph(500)
        m = sd.m
        for k in (1, 2, 3):
            p = 1.0 / (4 * k)
            sigma = math.sqrt(m * p * (1 - p))
            for seed in range(5):
                part = split_edges(sd, k, rng_stream(22, k, seed))
                sizes = np.bincount(part.pool, minlength=4 * k)
                assert len(sizes) == 4 * k
                assert np.all(np.abs(sizes - m * p) < 4 * sigma), (k, seed)

    def test_deterministic(self, tiny_host):
        a = split_edges(tiny_host, 2, rng_stream(23, 0))
        b = split_edges(tiny_host, 2, rng_stream(23, 0))
        assert np.array_equal(a.pool, b.pool)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 1000])
    def test_one_draw(self, k, m):
        """The labels are one rng.integers draw over the 4k labels, in
        the narrowest dtype that holds them, and nothing else is drawn."""
        n = 50
        codes = np.arange(n * n)
        codes = codes[codes // n != codes % n][:m]
        sd = SimpleDigraph(n, np.column_stack((codes // n, codes % n)), k)
        ref, new = rng_stream(31, k), rng_stream(31, k)
        dtype = np.min_scalar_type(4 * k - 1)
        part = split_edges(sd, k, new)
        assert part.pool.dtype == dtype
        assert np.array_equal(part.pool, ref.integers(0, 4 * k, m, dtype=dtype))
        assert ref.random() == new.random()  # the same draws were taken


class TestComputeSmall:
    def test_threshold_arithmetic(self):
        # c=20, k=1: threshold 2.5, so pool in-degree 2 makes a vertex SMALL
        sd = grid_digraph(40)
        part = split_edges(sd, 1, rng_stream(24, 0))
        # force a known pool structure: all edges to pool (1,1) except
        # vertex 0 keeps only 2 out-edges there
        part.pool[:] = 0
        v0_edges = np.nonzero(sd.tails == 0)[0]
        part.pool[v0_edges[2:]] = 1
        small, e_small = compute_small(sd, part, 20.0, 1)
        assert small[0]
        incident = (sd.tails == 0) | (sd.heads == 0)
        assert np.array_equal(e_small, small[sd.tails] | small[sd.heads])
        assert np.all(e_small[incident])

    def test_no_small_when_degrees_large(self):
        # circulant with 6 out/in everywhere, c/8k below 6 only if pools
        # are ignored; with all edges in one pool and threshold < 6
        sd = grid_digraph(60)
        part = split_edges(sd, 1, rng_stream(25, 0))
        part.pool[:] = 0
        small, e_small = compute_small(sd, part, 40.0, 1)
        # threshold 5: every degree is 6 in host and in pool (1,1), but
        # pools (2,1), (3,1) are empty so every vertex is small there
        assert small.all()
        # spread edges so each of the three pools holds 2 per vertex:
        # with threshold below 2 nobody is small
        part2 = split_edges(sd, 1, rng_stream(25, 1))
        offsets = (sd.heads - sd.tails) % sd.n  # 1..6
        part2.pool[:] = (offsets - 1) // 2
        small2, _ = compute_small(sd, part2, 8.0, 1)  # threshold 1
        assert not small2.any()

    @pytest.mark.parametrize("k, c", [(1, 30.0), (2, 60.0), (3, 100.0)])
    def test_matches_pool_by_pool_loop(self, k, c):
        """One pass over (pool, vertex) keys marks what a mask and two
        bincounts per pool mark."""
        params = ModelParams.make(400, c, k)
        sd, _ = sample_erased_digraph(params, rng_stream(30, k))
        part = split_edges(sd, k, rng_stream(30, k))
        small, e_small = compute_small(sd, part, c, k)
        thr = c / (8.0 * k)
        want = (sd.out_deg <= thr) | (sd.in_deg <= thr)
        for t in (1, 2, 3):
            for i in range(k):
                ends = sd.edges[np.flatnonzero(part.pool == (t - 1) * k + i)]
                want |= np.bincount(ends[:, 0], minlength=sd.n) <= thr
                want |= np.bincount(ends[:, 1], minlength=sd.n) <= thr
        assert 0 < want.sum() < sd.n
        assert np.array_equal(small, want)
        assert np.array_equal(e_small,
                              want[sd.tails] | want[sd.heads])

    def test_idempotent(self, tiny_params, tiny_host):
        part = split_edges(tiny_host, 1, rng_stream(26, 0))
        s1, e1 = compute_small(tiny_host, part, tiny_params.c, 1)
        s2, e2 = compute_small(tiny_host, part, tiny_params.c, 1)
        assert np.array_equal(s1, s2) and np.array_equal(e1, e2)

    def test_small_fraction_bound(self):
        # |SMALL| <= n e^{-c/100k} holds easily at c=80 (threshold 10,
        # Binomial(80, 1/4) tails): checked over a few erased hosts
        params = ModelParams.make(3000, 80.0, 1)
        rng = rng_stream(27, 0)
        for rep in range(3):
            sd, _ = sample_erased_digraph(params, rng)
            part = split_edges(sd, 1, rng)
            small, _ = compute_small(sd, part, params.c, 1)
            assert small.sum() <= params.n * math.exp(-params.c / 100.0)


class TestReserve:
    @pytest.mark.parametrize("k, c", [(1, 30.0), (2, 60.0), (3, 100.0)])
    def test_matches_set_formula(self, k, c):
        """reserve(t, i, used) is E_{t,i} built from the pool's ids,
        E_SMALL and used: Ê_{t,i} ∪ E_SMALL for t in {1, 3}, Ê_{2,i}
        without E_SMALL, E_{4,i} as it is, minus the used edges."""
        params = ModelParams.make(400, c, k)
        sd, _ = sample_erased_digraph(params, rng_stream(30, k))
        part = split_edges(sd, k, rng_stream(30, k))
        compute_small(sd, part, c, k)
        used = rng_stream(31, k).random(sd.m) < 0.3
        before = used.copy()
        e_small = set(np.flatnonzero(part.e_small).tolist())
        spent = set(np.flatnonzero(used).tolist())
        assert e_small and spent
        for t in (1, 2, 3, 4):
            for i in range(k):
                ids = np.flatnonzero(part.pool == (t - 1) * k + i)
                pool = set(ids.tolist())
                want = {1: pool | e_small, 2: pool - e_small,
                        3: pool | e_small, 4: pool}[t] - spent
                got = part.reserve(t, i, used)
                assert got.dtype == bool and got.shape == (sd.m,)
                assert set(np.flatnonzero(got).tolist()) == want
        for i in range(k):
            # boosters are new pairs to G_i: no E_SMALL edge and no edge
            # of reserve(1, i, .), used or not
            for mask in (used, np.zeros(sd.m, dtype=bool)):
                boosters = part.reserve(2, i, mask)
                assert not (boosters & part.e_small).any()
                assert not (boosters & part.reserve(1, i, mask)).any()
        assert np.array_equal(used, before)

    def test_refuses_before_compute_small(self, tiny_host):
        part = split_edges(tiny_host, 1, rng_stream(28, 0))
        for t in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="compute_small has not run"):
                part.reserve(t, 0, np.zeros(tiny_host.m, dtype=bool))
