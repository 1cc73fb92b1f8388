"""Model numerics and samplers.

Closed-form quantities are cross-checked against an independent oracle
built on scipy's regularized incomplete gamma (Poisson tails) rather
than the package's own series code, and a handful of calibrated values
are frozen as regression anchors.
"""

import collections
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hampack import model as md
from hampack.errors import (ConditioningFailureError, EdgeListFormatError,
                            InfeasibleDegreeError, RejectionStallError,
                            TailUnderflowError)
from hampack.harness import run_pipeline
from hampack.model import (ConfigDigraph, DegreeSequence, ModelParams,
                           SimpleDigraph, TruncatedPoisson,
                           conditioned_degree_vector, duplicate_pair_count,
                           pair_configuration, poisson_tail, poisson_term,
                           read_edge_list, rho, sample_degree_sequence,
                           sample_erased_digraph, sample_simple_digraph,
                           sigma2, simplicity_exponents, solve_z,
                           write_edge_list)
from hampack.rng import derive_seed, rng_stream


def oracle_tail(ell: int, z: float) -> float:
    """P(Poisson(z) >= ell) via the regularized incomplete gamma."""
    if ell == 0:
        return 1.0
    return scipy.special.gammainc(ell, z)


def oracle_rho(z: float, k: int) -> float:
    return z * oracle_tail(k, z) / oracle_tail(k + 1, z)


class TestTailSum:
    """poisson_tail: the Poisson tail sum P_ell(z) = sum_{j >= ell} of
    P(Poisson(z) = j)."""

    def test_matches_incomplete_gamma_oracle(self):
        for z in [0.5, 2.1491258000023663, 3.0, 19.99999917554669, 50.0,
                  100.0, 700.0]:
            for ell in range(0, 31):
                got = poisson_tail(ell, z)
                want = oracle_tail(ell, z)
                assert got == pytest.approx(want, rel=1e-10), (ell, z)

    def test_deep_tail_regime(self):
        # ell far above z: forward summation vs oracle, looser tolerance
        # because gammainc itself carries a few more ulps of error here
        for ell, z in [(25, 3.0), (40, 5.0), (60, 20.0)]:
            assert poisson_tail(ell, z) == pytest.approx(oracle_tail(ell, z),
                                                         rel=1e-8)

    def test_recurrence(self):
        # P_ell - P_{ell+1} = P(Poisson(z) = ell)
        z = 7.3
        for ell in range(0, 20):
            diff = poisson_tail(ell, z) - poisson_tail(ell + 1, z)
            assert diff == pytest.approx(poisson_term(ell, z), rel=1e-9)

    def test_underflow_raises(self):
        with pytest.raises(TailUnderflowError):
            poisson_tail(400, 1e-3)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            poisson_tail(2, 0.0)
        with pytest.raises(ValueError):
            poisson_tail(-1, 1.0)


class TestSolveZ:
    # anchors computed once and frozen; each satisfies |rho(z)-c| <= 1e-10
    FROZEN = {
        (50.0, 1): 50.0,
        (100.0, 2): 100.0,
        (20.0, 1): 19.99999917554669,
        (3.0, 1): 2.1491258000023663,
        (2.5, 1): 1.229933200404048,
        (4.0, 2): 2.687999345595017,
    }

    def test_frozen_anchors(self):
        for (c, k), z in self.FROZEN.items():
            assert solve_z(c, k) == pytest.approx(z, rel=1e-12, abs=1e-12)

    def test_residual_and_bracket(self):
        for (c, k) in self.FROZEN:
            z = solve_z(c, k)
            assert abs(rho(z, k) - c) <= 1e-10
            assert c - (k + 1) < z <= c

    def test_against_brentq_oracle(self):
        # independent root find through the incomplete-gamma oracle
        for c, k in [(3.0, 1), (6.5, 2), (12.0, 3)]:
            z_oracle = scipy.optimize.brentq(
                lambda z: oracle_rho(z, k) - c, 1e-9, c, xtol=1e-13)
            assert solve_z(c, k) == pytest.approx(z_oracle, abs=1e-9)

    def test_large_c_asymptotic(self):
        # z = c - c^2 e^{-c} (1 + o(1)) for k=1
        z = solve_z(20.0, 1)
        assert 20.0 - z == pytest.approx(400.0 * math.exp(-20.0), rel=1e-4)

    def test_no_exp_z_ceiling(self):
        # e^z overflows float64 here; the tails it cancels from do not
        params = ModelParams.make(1000, 750, 1)
        assert params.z == 750.0
        assert rho(params.z, 1) == pytest.approx(750.0, rel=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleDegreeError):
            solve_z(2.0, 1)
        with pytest.raises(InfeasibleDegreeError):
            solve_z(2.9, 2)


class TestMoments:
    def test_sigma2_matches_series(self):
        for c, k in [(3.0, 1), (20.0, 1), (4.0, 2)]:
            z = solve_z(c, k)
            tp = TruncatedPoisson(z, k)
            mean = sum(j * tp.pmf(j) for j in range(k + 1, 400))
            second = sum(j * j * tp.pmf(j) for j in range(k + 1, 400))
            assert mean == pytest.approx(c, abs=1e-9)
            assert sigma2(z, k) == pytest.approx(second - mean * mean,
                                                 rel=1e-9)

    def test_large_c_variance_near_c(self):
        z = solve_z(50.0, 1)
        assert sigma2(z, 1) == pytest.approx(50.0, rel=1e-6)


class TestTruncatedPoisson:
    def test_pmf_normalizes_and_matches_scipy(self):
        z, k = solve_z(3.0, 1), 1
        tp = TruncatedPoisson(z, k)
        total = sum(tp.pmf(j) for j in range(0, 100))
        assert total == pytest.approx(1.0, abs=1e-12)
        for j in range(2, 30):
            want = scipy.stats.poisson.pmf(j, z) / scipy.stats.poisson.sf(k, z)
            assert tp.pmf(j) == pytest.approx(want, rel=1e-9)
        assert tp.pmf(0) == 0.0
        assert tp.pmf(k) == 0.0

    def test_sampling_respects_truncation_and_moments(self):
        tp = TruncatedPoisson(solve_z(20.0, 1), 1)
        s = tp.sample(rng_stream(5, 0), 200_000)
        assert int(s.min()) >= 2
        se = math.sqrt(sigma2(tp.z, 1) / len(s))
        assert abs(s.mean() - rho(tp.z, 1)) < 4 * se

    def test_scalar_draw(self):
        tp = TruncatedPoisson(solve_z(4.0, 2), 2)
        x = tp.sample(rng_stream(6, 0))
        assert isinstance(x, int) and x >= 3

    def test_deterministic_under_stream(self):
        tp = TruncatedPoisson(solve_z(3.0, 1), 1)
        a = tp.sample(rng_stream(7, 1, 2), 1000)
        b = tp.sample(rng_stream(7, 1, 2), 1000)
        assert np.array_equal(a, b)


class TestConditionedVector:
    def test_sum_is_exact(self, tiny_params):
        rng = rng_stream(11, 0)
        for _ in range(5):
            vec, attempts, _ = conditioned_degree_vector(tiny_params, rng)
            assert int(vec.sum()) == tiny_params.m
            assert vec.min() >= tiny_params.k + 1
            assert attempts >= 1

    def test_small_case_distribution(self):
        # n=2, m=6, k=1: conditioned on d1+d2=6 with di>=2 the law is
        # P(d1=j) proportional to pmf(j) pmf(6-j) for j in {2,3,4}
        params = ModelParams.make(2, 3.0, 1)
        tp = TruncatedPoisson(params.z, 1)
        weights = {j: tp.pmf(j) * tp.pmf(6 - j) for j in (2, 3, 4)}
        norm = sum(weights.values())
        rng = rng_stream(12, 0)
        counts = {2: 0, 3: 0, 4: 0}
        trials = 4000
        for _ in range(trials):
            vec, _, _ = conditioned_degree_vector(params, rng)
            counts[int(vec[0])] += 1
        for j in (2, 3, 4):
            p = weights[j] / norm
            se = math.sqrt(p * (1 - p) / trials)
            assert abs(counts[j] / trials - p) < 5 * se

    def test_acceptance_rate_scaling(self, tiny_params):
        # mean attempts is close to sqrt(2 pi sigma^2 n)
        rng = rng_stream(13, 0)
        total = 0
        reps = 40
        for _ in range(reps):
            _, attempts, _ = conditioned_degree_vector(tiny_params, rng)
            total += attempts
        predicted = math.sqrt(
            2 * math.pi * sigma2(tiny_params.z, tiny_params.k) * tiny_params.n)
        assert 0.5 * predicted < total / reps < 2.0 * predicted


def conditional_pmf(n: int, m: int, k: int) -> dict[tuple, float]:
    """Every vector with entries >= k+1 summing to m, weighted by
    prod 1/x_i! and normalized: the law both sampler paths must give."""
    def vectors(slots, total):
        if slots == 1:
            yield (total,)
            return
        for x in range(k + 1, total - (k + 1) * (slots - 1) + 1):
            for rest in vectors(slots - 1, total - x):
                yield (x,) + rest
    weights = {v: math.exp(-sum(math.lgamma(x + 1) for x in v))
               for v in vectors(n, m)}
    total = math.fsum(weights.values())
    return {v: w / total for v, w in weights.items()}


def chi_square_p(draws: list[tuple], pmf: dict[tuple, float]) -> float:
    """Pearson p value of the draws against pmf, cells of expected
    count < 5 pooled into one."""
    counts = collections.Counter(draws)
    assert set(counts) <= set(pmf), "a vector outside the support"
    big = sorted(v for v, p in pmf.items() if p * len(draws) >= 5)
    obs = [counts[v] for v in big]
    exp = [pmf[v] * len(draws) for v in big]
    rest = len(draws) - sum(obs)
    if rest or len(big) < len(pmf):
        obs.append(rest)
        exp.append(len(draws) - math.fsum(exp))
    return float(scipy.stats.chisquare(obs, exp).pvalue)


class TestExactLaw:
    """Each path against the enumerated conditional law at tiny points.

    10^4 draws per path and point; the Pearson test must give p > 1e-4,
    and the total variation distance to the law must be below twice the
    mean distance of 10^4 exact draws (0.012-0.044 at these points).
    The same Pearson test on the same draws rejects the uniform law on
    the support, so it can see a wrong law.
    """

    POINTS = [(3, 9, 1), (4, 14, 2), (5, 15, 1)]
    DRAWS = 10_000

    @pytest.mark.parametrize("path", [md._multinomial_vector,
                                      md._rejection_vector],
                             ids=["multinomial", "rejection"])
    @pytest.mark.parametrize("point", POINTS, ids=str)
    def test_path_draws_the_conditional_law(self, path, point):
        n, m, k = point
        params = ModelParams.from_nmk(n, m, k)
        pmf = conditional_pmf(n, m, k)
        rng = rng_stream(derive_seed(18, *point), 0)
        draws = []
        for _ in range(self.DRAWS):
            vec, attempts, labels = path(params, rng, 10_000)
            assert vec.dtype == np.int64 and attempts >= 1
            # the multinomial path also hands back the labels it counted
            assert (labels is None if path is md._rejection_vector else
                    np.array_equal(np.bincount(labels, minlength=n), vec))
            draws.append(tuple(vec.tolist()))
        assert chi_square_p(draws, pmf) > 1e-4
        counts = collections.Counter(draws)
        tv = 0.5 * sum(abs(counts[v] / self.DRAWS - p)
                       for v, p in pmf.items())
        # mean total variation of DRAWS exact draws, from the normal
        # approximation E|p_hat - p| = sqrt(2 p (1 - p) / (pi N))
        noise = 0.5 * sum(math.sqrt(2 * p * (1 - p) / (math.pi * self.DRAWS))
                          for p in pmf.values())
        assert tv < 2 * noise
        uniform = {v: 1 / len(pmf) for v in pmf}
        assert chi_square_p(draws, uniform) < 1e-4


class TestPathChoice:
    @pytest.mark.parametrize("point", [(2000, 100, 2), (5000, 50, 1),
                                       (100_000, 20, 1)], ids=str)
    def test_multinomial_where_the_floor_holds_by_chance(self, point):
        n, c, k = point
        assert md.degree_vector_path(n, c * n, k) == "multinomial"

    @pytest.mark.parametrize("point", [(300, 3, 1), (10_000, 5, 1),
                                       (100_000, 10, 1)], ids=str)
    def test_rejection_at_low_c(self, point):
        n, c, k = point
        assert md.degree_vector_path(n, c * n, k) == "rejection"

    def test_dispatch_follows_the_choice(self, monkeypatch):
        # the chosen path draws the vector: same vector, same stream
        params = ModelParams.make(200, 10.0, 1)
        for name, path in (("multinomial", md._multinomial_vector),
                           ("rejection", md._rejection_vector)):
            monkeypatch.setattr(md, "degree_vector_path",
                                lambda n, m, k, name=name: name)
            a, b = rng_stream(20, 0), rng_stream(20, 0)
            vec, draws, _ = conditioned_degree_vector(params, a)
            ref, ref_draws, _ = path(params, b, int(1e6 * math.sqrt(200)))
            assert np.array_equal(vec, ref) and draws == ref_draws
            assert a.integers(1 << 62) == b.integers(1 << 62)

    def test_infeasible_point_refused(self):
        with pytest.raises(InfeasibleDegreeError):
            md.degree_vector_path(10, 20, 1)


class TestPairing:
    def test_degrees_preserved(self, tiny_params):
        rng = rng_stream(14, 0)
        ds = sample_degree_sequence(tiny_params, rng)
        cfg = pair_configuration(ds, rng)
        assert np.array_equal(cfg.out_deg, ds.out_deg)
        assert np.array_equal(cfg.in_deg, ds.in_deg)
        assert cfg.m == tiny_params.m

    def test_defect_detection_on_fixed_slots(self):
        # edges: (0,0) loop, (1,2), (1,2) duplicated, (2,1)
        cfg = ConfigDigraph(n=3, tails=np.array([0, 1, 1, 2]),
                            heads=np.array([0, 2, 2, 1]))
        assert list(cfg.loops) == [0]
        assert not cfg.is_simple()
        assert duplicate_pair_count(cfg) == 1

    def test_triple_pair_counts_three(self):
        cfg = ConfigDigraph(n=3, tails=np.array([0, 0, 0, 2]),
                            heads=np.array([1, 1, 1, 0]))
        assert duplicate_pair_count(cfg) == 3  # C(3,2)

    def test_degree_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DegreeSequence(out_deg=np.array([2, 2]), in_deg=np.array([2, 3]))

    def test_in_slots_are_sampler_state(self):
        # slots that disagree with in_deg cannot be handed in, and the
        # m-long array stays out of repr
        with pytest.raises(TypeError):
            DegreeSequence(out_deg=[2, 2], in_deg=[2, 2],
                           in_slots=[0, 0, 0, 1])
        ds = DegreeSequence(out_deg=[2, 2], in_deg=[2, 2])
        ds.in_slots = np.array([1, 0, 1, 0])
        assert "in_slots" not in repr(ds)


class TestSimpleDigraph:
    def test_adjacency_matches_naive(self, tiny_host):
        sd = tiny_host
        out_naive = [0] * sd.n
        in_naive = [0] * sd.n
        for u, v in sd.edges:
            out_naive[u] += 1
            in_naive[v] += 1
        assert sd.out_deg.tolist() == out_naive
        assert sd.in_deg.tolist() == in_naive
        for j, (u, v) in enumerate(sd.edges[:50]):
            assert sd.edge_lookup(int(u), int(v)) == j
        assert sd.edge_lookup(0, 0) == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleDigraph(3, np.array([[0, 0]]), 1)
        with pytest.raises(ValueError):
            SimpleDigraph(3, np.array([[0, 1], [0, 1]]), 1)
        with pytest.raises(ValueError):
            SimpleDigraph(3, np.array([[0, 3]]), 1)
        # (n-1)^2 < 2^63 < n^2: refused before any n-long array is made
        with pytest.raises(ValueError, match="overflow int64"):
            SimpleDigraph(3_037_000_500, np.array([[0, 1]]), 1)

    def test_validation_non_adjacent_duplicate(self):
        # tails out of order, or ascending with the copies apart
        for edges in ([[0, 1], [1, 2], [0, 1]], [[0, 1], [0, 2], [0, 1]]):
            with pytest.raises(ValueError, match="duplicate"):
                SimpleDigraph(3, np.array(edges), 1)

    def test_validation_duplicate_in_shuffled_large_host(self):
        rng = rng_stream(19, 0)
        n = 2000
        codes = rng.choice(n * n, size=10_000, replace=False)
        edges = np.column_stack((codes // n, codes % n))
        edges = edges[edges[:, 0] != edges[:, 1]]
        sd = SimpleDigraph(n, edges, 1)  # distinct pairs pass
        assert np.array_equal(sd.edge_lookup(edges[:, 0], edges[:, 1]),
                              np.arange(sd.m))
        dup = np.vstack((edges, edges[rng.integers(len(edges))]))
        rng.shuffle(dup)
        with pytest.raises(ValueError, match="duplicate"):
            SimpleDigraph(n, dup, 1)

    def test_validation_negative_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            SimpleDigraph(3, np.array([[0, 1], [-1, 2]]), 1)

    def test_edge_lookup_arrays(self, tiny_host):
        sd = tiny_host
        ids = np.arange(0, sd.m, 7)
        got = sd.edge_lookup(sd.tails[ids], sd.heads[ids])
        assert got.dtype == np.int64 and np.array_equal(got, ids)
        # reversed pairs: hits only where the reverse edge exists
        rev = sd.edge_lookup(sd.heads[ids], sd.tails[ids])
        want = [sd.edge_lookup(int(v), int(u)) for u, v in sd.edges[ids]]
        assert rev.tolist() == want
        assert sd.edge_lookup(np.array([0, sd.n - 1]),
                              np.array([0, sd.n - 1])).tolist() == [-1, -1]
        # unsorted queries with repeats keep their order and shape
        q = rng_stream(19, 1).choice(sd.m, size=(6, 5))
        assert np.array_equal(sd.edge_lookup(sd.tails[q], sd.heads[q]),
                              q)
        empty = SimpleDigraph(3, np.empty((0, 2), dtype=np.int64), 1)
        assert empty.edge_lookup(0, 1) == -1
        assert empty.edge_lookup(np.array([0]), np.array([1])).tolist() == [-1]

    def test_edge_lookup_out_of_range_is_no_edge(self):
        # v * n + u of (-1, 1) is edge 3 -> 0's code, and of (4, 0) edge
        # 0 -> 1's: an end outside [0, n) must not alias a real edge
        sd = SimpleDigraph(4, [(3, 0), (0, 1), (1, 2), (2, 3)], 1)
        assert sd.edge_lookup(-1, 1) == -1
        assert sd.edge_lookup(4, 0) == -1
        assert sd.edge_lookup(1, -4) == -1 and sd.edge_lookup(0, 4) == -1
        got = sd.edge_lookup([-1, 2], [1, 3])
        assert got.dtype == np.int64 and got.tolist() == [-1, 3]
        got = sd.edge_lookup(np.array([4, 0, 3, 5]), np.array([0, 1, 0, -1]))
        assert got.tolist() == [-1, 1, 0, -1]

    @staticmethod
    def counted_sorts(monkeypatch) -> list:
        """Lengths of the codes each model.sort_codes call sorts."""
        calls, real = [], md.sort_codes

        def counted(codes, bound):
            calls.append(len(codes))
            return real(codes, bound)
        monkeypatch.setattr(md, "sort_codes", counted)
        return calls

    @staticmethod
    def packed(sd):
        """run_pipeline on sd at a (300, 20, 1) point where the sampled
        host and a shuffle of it both pack, phase 3 and verify included."""
        run_pipeline(ModelParams.from_nmk(sd.n, sd.m, sd.k), rng_stream(1),
                     sd=sd)

    @staticmethod
    def small_host():
        return sample_erased_digraph(ModelParams.make(300, 20.0, 1),
                                     rng_stream(19, 2))[0]

    def test_lookup_index_built_at_construction(self, monkeypatch):
        # a host whose tails do not ascend sorts its codes once, by its
        # check for repeats; phase 1's matched edges, every later lookup
        # and the in-rows read that index, and only the out-rows sort
        # again, once, on first use, by a packed sort of the tails
        host = self.small_host()
        edges = host.edges[rng_stream(19, 3).permutation(host.m)]
        calls = self.counted_sorts(monkeypatch)
        sd = SimpleDigraph(host.n, edges, host.k)
        assert calls == [sd.m]
        ids = sd.csr(1)[1]
        assert ids.dtype == np.int32
        assert np.array_equal(sd.heads[ids] * sd.n + sd.tails[ids],
                              sd._codes)
        assert np.all(np.diff(sd._codes) > 0)
        assert sd.edge_lookup(int(sd.tails[3]), int(sd.heads[3])) == 3
        out_ids = sd.csr(0)[1]
        assert out_ids.dtype == np.int32 and np.array_equal(
            out_ids, np.argsort(sd.tails, kind="stable"))
        self.packed(sd)
        assert calls == [sd.m] and sd.csr(0)[1] is out_ids

    def test_min_degree(self, tiny_params, tiny_host):
        assert tiny_host.min_degree() >= tiny_params.k + 1

    @pytest.mark.parametrize("order", ["code", "tail"])
    def test_ascending_tails_sort_codes_once(self, monkeypatch, order):
        # a sampled host, or one whose heads are shuffled within each
        # row, as perfbench's generated host comes: its index is one
        # sort of its codes, its in-CSR a stable argsort of the heads and
        # its out-CSR the ids as they stand, and nothing is sorted again
        # to the end of a trial
        host = self.small_host()
        edges = host.edges
        if order == "tail":
            edges = edges[np.lexsort((rng_stream(19, 4).random(host.m),
                                      host.tails))]
        calls = self.counted_sorts(monkeypatch)
        sd = SimpleDigraph(host.n, edges, host.k)
        assert calls == [sd.m]
        assert np.array_equal(sd.csr(1)[1],
                              np.argsort(sd.heads, kind="stable"))
        assert sd.csr(0)[1] is None
        assert np.array_equal(sd.edge_lookup(sd.tails, sd.heads),
                              np.arange(sd.m))
        self.packed(sd)
        assert calls == [sd.m]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=40),
        st.randoms(use_true_random=False))))
    def test_sorted_and_shuffled_agree(self, case):
        n, pairs, rnd = case
        by_code = sorted(pairs, key=lambda e: e[0] * n + e[1])
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        verdicts = []
        for edges in (by_code, shuffled):
            arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
            try:
                sd = SimpleDigraph(n, arr, 1)
            except ValueError as exc:
                verdicts.append(str(exc))
                continue
            verdicts.append("ok")
            index = {e: j for j, e in enumerate(edges)}
            us, vs = np.divmod(np.arange(n * n), n)
            want = [index.get((u, v), -1) for u, v in zip(us, vs)]
            assert sd.edge_lookup(us, vs).tolist() == want
            assert [sd.edge_lookup(int(u), int(v))
                    for u, v in zip(us, vs)] == want
        assert verdicts[0] == verdicts[1]
        has_loop = any(u == v for u, v in pairs)
        has_repeat = len(set(pairs)) < len(pairs)
        assert (verdicts[0] == "ok") == (not has_loop and not has_repeat)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=40),
        st.sampled_from([None, -1, n]))))
    def test_columns_and_edges_agree(self, case):
        # the same pairs handed over as an (m, 2) array and as two
        # columns: same verdict, and the same host when both pass
        n, pairs, bad = case
        arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        if bad is not None and len(arr):
            arr[-1, 1] = bad
        hosts = []
        for make in (lambda: SimpleDigraph(n, arr, 1),
                     lambda: SimpleDigraph.from_columns(
                         n, arr[:, 0].copy(), arr[:, 1].copy(), 1)):
            try:
                hosts.append(make())
            except ValueError as exc:
                hosts.append(str(exc))
        a, b = hosts
        rows = [tuple(e) for e in arr.tolist()]
        if bad is not None and rows:
            assert a == b == "edge endpoint out of range"
            return
        if any(u == v for u, v in rows):
            assert a == b == "loop edge present"
            return
        if len(set(rows)) < len(rows):
            assert a == b == "duplicate ordered pair present"
            return
        assert np.array_equal(a.edges, arr) and np.array_equal(b.edges, arr)
        for x in (a, b):
            assert np.array_equal(x.tails, arr[:, 0])
            assert np.array_equal(x.heads, arr[:, 1])
        assert np.array_equal(a.out_deg, b.out_deg)
        assert np.array_equal(a.in_deg, b.in_deg)
        us, vs = np.divmod(np.arange(n * n), n)
        assert np.array_equal(a.edge_lookup(us, vs), b.edge_lookup(us, vs))

    def test_edges_are_stacked_on_each_read(self):
        tails, heads = np.array([0, 1]), np.array([1, 2])
        sd = SimpleDigraph.from_columns(3, tails, heads, 1)
        assert sd.tails is tails and sd.heads is heads  # kept, not copied
        assert sd.edges.tolist() == [[0, 1], [1, 2]]
        assert sd.edges is not sd.edges  # stacked afresh on each read
        with pytest.raises(ValueError, match="differ in shape"):
            SimpleDigraph.from_columns(3, np.array([0, 1]), np.array([1]), 1)

    def test_any_sequence_of_pairs_is_rows(self):
        # a tuple of two pairs is two edges, not a (tails, heads) pair
        for edges in (((0, 2), (1, 0)), [(0, 2), (1, 0)],
                      ((0, 2), (1, 0), (2, 1))):
            sd = SimpleDigraph(3, edges, 1)
            assert sd.edges.tolist() == [list(e) for e in edges]

    @staticmethod
    def arranged(edges, order, rnd):
        """edges in pair-code order, in no order, by tail with heads
        unsorted within each row, or by descending tail."""
        edges = sorted(edges)
        if order != "code":
            rnd.shuffle(edges)
        if order in ("tail", "descending"):
            edges.sort(key=lambda e: e[0], reverse=order == "descending")
        return edges

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=50),
        st.sampled_from(["code", "tail", "shuffled", "descending"]),
        st.randoms(use_true_random=False))))
    def test_csr_rows_match_naive(self, case):
        # the one index against naive scans: lookups, rows, in-degrees
        # and repeats, on a host in each order
        n, pairs, order, rnd = case
        edges = self.arranged([(u, v) for u, v in pairs if u != v],
                              order, rnd)
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        sd = SimpleDigraph.from_columns(n, arr[:, 0].copy(),
                                        arr[:, 1].copy(), 1)
        index = {e: j for j, e in enumerate(edges)}
        us, vs = np.divmod(np.arange(n * n), n)
        assert sd.edge_lookup(us, vs).tolist() == [
            index.get((u, v), -1) for u, v in zip(us.tolist(), vs.tolist())]
        assert np.array_equal(sd.in_deg, np.bincount(arr[:, 1], minlength=n))
        tails = arr[:, 0].tolist()
        ascend = tails == sorted(tails)
        for side in (0, 1):
            ptr, ids = sd.csr(side)
            assert sd.csr(side)[1] is ids  # built once, kept
            assert (ids is None) == (side == 0 and ascend)
            assert ids is None or ids.dtype == np.int32
            if side and ascend:
                assert ids.tolist() == np.argsort(arr[:, 1],
                                                  kind="stable").tolist()
            for v in range(n):
                row = (list(range(ptr[v], ptr[v + 1])) if ids is None
                       else ids[ptr[v]:ptr[v + 1]].tolist())
                # out-rows by id, in-rows by tail
                want = sorted((tails[e] * side, e) for e, x
                              in enumerate(arr[:, side].tolist()) if x == v)
                assert row == [e for _, e in want]
        # a repeated edge is refused, its copies adjacent or apart
        if edges:
            dup = self.arranged(edges + [rnd.choice(edges)], order, rnd)
            with pytest.raises(ValueError, match="duplicate"):
                SimpleDigraph(n, dup, 1)

    @pytest.mark.parametrize("n, m", [(300, 4096), (2000, 4096),
                                      (70_000, 32_768)])
    def test_in_csr_is_a_stable_argsort_of_heads(self, n, m):
        # (n^2 - 1) << b, b = 12 or 15 the bit length of m - 1, is under
        # 2^31 on the first host and over it on the others: the index
        # sorts int32 words on one and int64 words on the others
        shift = (m - 1).bit_length()
        assert md.key_dtype(n * n, shift) == (np.int32 if n == 300
                                              else np.int64)
        rng = rng_stream(19, 3)
        codes = rng.choice(n * (n - 1), size=m, replace=False)
        tails, heads = codes // (n - 1), codes % (n - 1)
        heads += heads >= tails  # no loops
        # tails ascend with the ids, heads stay unsorted within each row
        by_tail = np.argsort(tails, kind="stable")
        tails, heads = tails[by_tail], heads[by_tail]
        sd = SimpleDigraph.from_columns(n, tails, heads, 1)
        ptr, ids = sd.csr(1)
        assert ids.dtype == np.int32
        assert ids.tolist() == np.argsort(heads, kind="stable").tolist()
        assert ptr.tolist() == np.r_[0, np.cumsum(
            np.bincount(heads, minlength=n))].tolist()


@st.composite
def codes_and_bound(draw):
    """(codes, bound): repeats likely, bound - 1 sometimes present."""
    bound = draw(st.one_of(st.integers(1, 20), st.integers(1, 1 << 40)))
    values = st.one_of(st.integers(0, bound - 1), st.just(bound - 1))
    return np.array(draw(st.lists(values, max_size=80)), dtype=np.int64), bound


class TestSortCodes:
    @staticmethod
    def check(codes, bound):
        order, got = md.sort_codes(codes, bound)
        want = np.argsort(codes, kind="stable")
        assert order.dtype == np.int64 and got.dtype == np.int64
        assert order.tolist() == want.tolist()
        assert got.tolist() == np.sort(codes).tolist()

    @settings(max_examples=300, deadline=None)
    @given(codes_and_bound())
    def test_matches_stable_argsort(self, case):
        self.check(*case)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, (1 << 62) - 1), max_size=40),
           st.integers(0, 3))
    def test_two_pass_near_two_to_the_62(self, values, reps):
        # a bound near 2^62 leaves too few bits for even a short
        # array's positions, so the low and high digits sort in turn
        codes = np.array(values * (reps + 1), dtype=np.int64)
        self.check(codes, 1 << 62)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 300), st.sampled_from(["int32", "int64", "lsd"]),
           st.integers(0, 1), st.randoms(use_true_random=False))
    def test_word_width_either_side_of_2_to_the_31(self, size, side, off,
                                                     rnd):
        # b, the bit length of size - 1, stays below 32 here (it reaches
        # 32 only past 2^31 keys), so 31 - b is never a negative shift.
        # top = bound - 1 sits at or just under the last int32 word,
        # just over it, or at or one under the first two-pass (LSD)
        # bound; at b = 0 no int64 code passes that bound
        size = max(size, 2) if side == "lsd" else size
        b = (size - 1).bit_length()
        top = {"int32": (1 << 31 - b) - 1 - off, "int64": (1 << 31 - b) + off,
               "lsd": (1 << 63 - b) - off}[side]
        assert md.key_dtype(top + 1, b) == (np.int32 if side == "int32"
                                            else np.int64)
        assert (top >> 63 - b != 0) == (side == "lsd" and off == 0)
        values = [top, 0] + [rnd.randint(0, top) for _ in range(size)]
        codes = np.array([rnd.choice(values) for _ in range(size)],
                         dtype=np.int64)
        self.check(codes, top + 1)

    def test_two_pass_ties_on_each_digit(self):
        hi, lo = 1 << 61, 5
        codes = np.array([hi + lo, lo, hi, hi + lo, 0, lo, hi, 0],
                         dtype=np.int64)
        self.check(codes, 1 << 62)

    def test_chunked_steps(self, monkeypatch):
        # positions ORed and gathered three at a time, ragged last chunk
        monkeypatch.setattr(md, "_CHUNK", 3)
        rng = rng_stream(23, 0)
        self.check(rng.integers(0, 7, 29), 7)
        # ties on both digits of the two-pass sort
        self.check(rng.integers(0, 4, 29) << 58 | rng.integers(0, 3, 29),
                   1 << 62)

    def test_empty_and_one_element(self):
        for codes in ([], [0], [6]):
            self.check(np.array(codes, dtype=np.int64), 7)
        self.check(np.array([], dtype=np.int64), 0)

    @pytest.mark.parametrize("code, bound",
                             [(-1, 5), (5, 5), (1 << 62, 1 << 62)])
    def test_out_of_range_refused(self, code, bound):
        with pytest.raises(ValueError, match="outside"):
            md.sort_codes(np.array([0, code, 1], dtype=np.int64), bound)


class TestSamplers:
    def test_strict_rejection_is_simple(self, tiny_params, tiny_host):
        assert tiny_host.n == tiny_params.n
        assert tiny_host.m == tiny_params.m
        assert tiny_host.min_degree() >= 2

    def test_rejection_stall_raises_with_attempts(self):
        params = ModelParams.make(100, 12.0, 1)  # acceptance ~ e^-84
        with pytest.raises(RejectionStallError) as exc:
            sample_simple_digraph(params, rng_stream(15, 0), cap=3)
        assert exc.value.attempts == 3

    def test_erased_host_properties(self, host_5k):
        params, sd = host_5k
        assert sd.min_degree() >= params.k + 1
        assert sd.m <= params.m
        # erasure removes an O(c^2) sliver, far below 1 percent here
        assert params.m - sd.m < 0.01 * params.m

    def test_erasure_below_the_floor_is_a_conditioning_failure(self):
        # at c = 2.5 erasure leaves a vertex below k+1 in each of these
        # three draws: the sampler gives up as a sampler, not as a phase
        with pytest.raises(ConditioningFailureError,
                           match="erasure broke the degree condition 3 "):
            sample_erased_digraph(ModelParams.make(200, 2.5, 1),
                                  rng_stream(0, 0), cap=3)

    def test_erased_deterministic(self):
        params = ModelParams.make(500, 8.0, 1)
        a, _ = sample_erased_digraph(params, rng_stream(77, 3))
        b, _ = sample_erased_digraph(params, rng_stream(77, 3))
        assert np.array_equal(a.edges, b.edges)

    # a pairing on 4 vertices with its out-slots in vertex order, as
    # pair_configuration leaves them, and heads unsorted within rows:
    # loops (2,2) and (3,3), and (0,1), (1,2), (3,0) repeated; erasure
    # leaves the complete digraph, every degree 3
    PAIRING = [(0, 3), (0, 1), (0, 2), (0, 1), (1, 2), (1, 0), (1, 3),
               (1, 2), (2, 1), (2, 2), (2, 0), (2, 3), (3, 0), (3, 2),
               (3, 3), (3, 1), (3, 0)]

    def test_erasure_leaves_distinct_pairs_in_code_order(self, monkeypatch):
        pairs = np.array(self.PAIRING, dtype=np.int64)

        def fixed_pairing(ds, rng):
            return ConfigDigraph(n=4, tails=pairs[:, 0].copy(),
                                 heads=pairs[:, 1].copy())

        monkeypatch.setattr(md, "pair_configuration", fixed_pairing)
        sd, attempts = sample_erased_digraph(ModelParams.make(4, 4.0, 1),
                                             rng_stream(21, 0))
        assert attempts == 1
        want = sorted({(u, v) for u, v in self.PAIRING if u != v})
        assert sd.edges.tolist() == [list(e) for e in want]
        assert np.all(np.diff(sd.tails * 4 + sd.heads) > 0)
        assert sd.min_degree() == 3

    def test_one_shuffle_pairing_law(self):
        # every bijection of out-slots to in-slots is equally likely, so
        # a multigraph's probability is its share of the 5! bijections
        out_deg, in_deg = [2, 2, 1], [1, 2, 2]
        outs = np.repeat(np.arange(3), out_deg)
        ins = np.repeat(np.arange(3), in_deg)
        law = collections.Counter(
            tuple(sorted(zip(outs.tolist(), ins[list(p)].tolist())))
            for p in itertools.permutations(range(5)))
        ds = DegreeSequence(out_deg=out_deg, in_deg=in_deg)
        rng = rng_stream(31, 0)
        draws = 12_000
        seen = collections.Counter()
        for _ in range(draws):
            cfg = pair_configuration(ds, rng)
            assert cfg.tails.tolist() == outs.tolist()
            seen[tuple(sorted(zip(cfg.tails.tolist(),
                                  cfg.heads.tolist())))] += 1
        assert set(seen) == set(law)
        keys = sorted(law)
        expected = [draws * law[g] / 120 for g in keys]
        _, pval = scipy.stats.chisquare([seen[g] for g in keys], expected)
        assert pval > 1e-3

    @staticmethod
    def tables(rows, cols):
        """Every nonnegative integer matrix with these row and column
        sums, flattened row by row."""
        if not rows:
            if not any(cols):
                yield ()
            return
        for first in itertools.product(*(range(min(c, rows[0]) + 1)
                                         for c in cols)):
            if sum(first) == rows[0]:
                rest = [c - f for c, f in zip(cols, first)]
                for more in TestSamplers.tables(rows[1:], rest):
                    yield first + more

    @staticmethod
    def bijection_share(out_deg, in_deg, table):
        """Share of the m! slot bijections that give the pair counts
        table: prod out_deg! prod in_deg! / (m! prod table!)."""
        lf = lambda xs: sum(math.lgamma(x + 1) for x in xs)  # noqa: E731
        return math.exp(lf(out_deg) + lf(in_deg)
                        - math.lgamma(sum(out_deg) + 1) - lf(table))

    PAIRING_DRAWS = 12_000

    def test_multinomial_path_pairing_law(self):
        # at (2, 7, 1) the in-slots are the sampler's accepted labels as
        # drawn; the pair counts must follow the degree law times a
        # uniform bijection of out-slots to in-slots
        n, m, k = 2, 7, 1
        assert md.degree_vector_path(n, m, k) == "multinomial"
        pmf = conditional_pmf(n, m, k)
        law = {t: p_out * p_in * self.bijection_share(d_out, d_in, t)
               for d_out, p_out in pmf.items() for d_in, p_in in pmf.items()
               for t in self.tables(d_out, d_in)}
        assert math.isclose(math.fsum(law.values()), 1.0)
        params = ModelParams.from_nmk(n, m, k)
        rng = rng_stream(32, 0)
        draws = []
        for _ in range(self.PAIRING_DRAWS):
            ds = sample_degree_sequence(params, rng)
            slots = ds.in_slots
            cfg = pair_configuration(ds, rng)
            assert cfg.heads is slots and ds.in_slots is None
            draws.append(tuple(np.bincount(cfg.tails * n + cfg.heads,
                                           minlength=n * n).tolist()))
        assert chi_square_p(draws, law) > 1e-4
        uniform = {t: 1 / len(law) for t in law}
        assert chi_square_p(draws, uniform) < 1e-4

    def test_reused_sequence_is_paired_afresh(self):
        # the drawn arrangement serves the first pairing only; every
        # later pairing of the same sequence is a fresh uniform one
        params = ModelParams.from_nmk(2, 7, 1)
        rng = rng_stream(33, 0)
        ds = sample_degree_sequence(params, rng)
        first = ds.in_slots
        assert np.array_equal(np.bincount(first, minlength=2), ds.in_deg)
        d_out, d_in = tuple(ds.out_deg.tolist()), tuple(ds.in_deg.tolist())
        law = {t: self.bijection_share(d_out, d_in, t)
               for t in self.tables(d_out, d_in)}
        draws = []
        for j in range(self.PAIRING_DRAWS):
            cfg = pair_configuration(ds, rng)
            assert ds.in_slots is None and (cfg.heads is first) == (j == 0)
            draws.append(tuple(np.bincount(cfg.tails * 2 + cfg.heads,
                                           minlength=4).tolist()))
        assert len(law) > 1 and chi_square_p(draws, law) > 1e-4

    def test_erased_edges_pinned(self):
        # sha256 of the int64 edge bytes: a change to the sampler's
        # stream or to the host's edge order shows here
        sd, attempts = sample_erased_digraph(ModelParams.make(2000, 100.0, 2),
                                             rng_stream(0))
        assert attempts == 1 and sd.m == 194917
        digest = hashlib.sha256(
            np.ascontiguousarray(sd.edges, dtype="<i8").tobytes()).hexdigest()
        assert digest == ("dbcbebf03c60c360849c9d4d29b3f2b8"
                          "1e85a9773244985356340baa981a1efb")

    def test_defect_rates_match_theory(self):
        # loop count ~ Poisson(rho^2/c); duplicate pairs ~ Poisson(beta^2/2)
        params = ModelParams.make(10_000, 20.0, 1)
        loop_mean, beta, half_beta_sq = simplicity_exponents(params)
        rng = rng_stream(16, 0)
        ds = sample_degree_sequence(params, rng)
        loops, dups = [], []
        for _ in range(40):
            cfg = pair_configuration(ds, rng)
            loops.append(len(cfg.loops))
            dups.append(duplicate_pair_count(cfg))
        assert np.mean(loops) == pytest.approx(
            loop_mean, abs=5 * math.sqrt(loop_mean / 40))
        assert np.mean(dups) == pytest.approx(
            half_beta_sq, abs=6 * math.sqrt(half_beta_sq / 40))
        # the first-order exponent beta is an order of magnitude off the
        # duplicate mean: the quadratic form is the right one
        assert abs(np.mean(dups) - beta) > 10 * math.sqrt(half_beta_sq / 40)


class TestEdgeListIO:
    def test_round_trip_bit_exact(self, tiny_host, tmp_path, monkeypatch):
        monkeypatch.setattr(md, "_CHUNK", 7)  # the write slices its rows
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        with p1.open("w") as fh:
            write_edge_list(tiny_host, fh)
        sd2 = read_edge_list(p1)
        with p2.open("w") as fh:
            write_edge_list(sd2, fh)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(tiny_host.edges, sd2.edges)
        assert sd2.k == tiny_host.k

    def test_written_text_pinned(self, tmp_path, monkeypatch):
        # slices of 2 rows, so lines cross slice boundaries; the text is
        # pinned, not compared with a second run of the same writer
        monkeypatch.setattr(md, "_CHUNK", 2)
        sd = SimpleDigraph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0],
                                        [0, 2]]), 1)
        path = tmp_path / "h.txt"
        with path.open("w") as fh:
            write_edge_list(sd, fh)
        assert path.read_bytes() == b"4 5 1\n0 1\n1 2\n2 3\n3 0\n0 2\n"

    @pytest.mark.filterwarnings("error")
    def test_more_vertices_than_edges_refused(self, tmp_path):
        # no Hamilton cycle, and no n-long array is made for it; m = 0,
        # blank lines after the header or not, reads no edge line (the
        # parser warns on an input with none)
        bad = tmp_path / "bad.txt"
        for text, want in ((b"4 2 1\n0 1\n1 0\n", "4 vertices but only 2"),
                           (b"3 0 1\n", "3 vertices but only 0 edge lines"),
                           (b"3 0 1\n\n \n", "3 vertices but only 0")):
            bad.write_bytes(text)
            with pytest.raises(EdgeListFormatError, match=want):
                read_edge_list(bad)

    # under the default filters too, so a numpy that only warns on a
    # float field cannot hide behind a run that makes warnings errors
    @pytest.mark.filterwarnings("default")
    def test_malformed(self, tmp_path):
        bad = tmp_path / "bad.txt"
        # a header of two fields, or with a field that is not an integer
        for text in (b"3 1\n0 1\n", b"3.0 3 1\n0 1\n1 2\n2 0\n"):
            bad.write_bytes(text)
            with pytest.raises(EdgeListFormatError,
                               match="^header must be 'n m k'$"):
                read_edge_list(bad)
        # content after the edge lines, straight after or past a blank
        # line, or after a header with m = 0
        for text in (b"3 1 1\n0 1\nextra\n",
                     b"3 3 1\n0 1\n1 2\n2 0\n\nextra junk\n",
                     b"3 0 1\n0 1\n"):
            bad.write_bytes(text)
            with pytest.raises(EdgeListFormatError,
                               match="trailing content after edge list"):
                read_edge_list(bad)
        bad.write_text("3 1 1\n0 0\n")
        with pytest.raises(EdgeListFormatError):
            read_edge_list(bad)
        bad.write_text("3 3 1\n0 1\n1 2\n0 1\n")
        with pytest.raises(EdgeListFormatError, match="duplicate"):
            read_edge_list(bad)
        # an endpoint that is not an integer or is beyond int64, and edge
        # lines of one or three fields, first or later (all-1 and all-3
        # lines would pair up into a valid edge list if reshaped), are
        # named in the file's terms, not the parser's
        for text in (b"3 1 1\n1 x\n", b"3 3 1\n0 1.5\n1 2\n2 0\n",
                     b"3 3 1\n0 1e0\n1 2\n2 0\n",
                     b"3 1 1\n0 99999999999999999999\n",
                     b"3 4 1\n0\n1\n1\n2\n",
                     b"3 4 1\n0 1 1\n2 2 0\n0 2 2\n1 1 0\n",
                     b"3 1 1\n0 1 2\n", b"3 3 1\n0 1 2\n1 2\n2 0\n",
                     b"3 3 1\n0\n1 2\n2 0\n", b"3 3 1\n0 1\n1\n2 0\n"):
            bad.write_bytes(text)
            with pytest.raises(EdgeListFormatError,
                               match="^edge line malformed$"):
                read_edge_list(bad)
        # a negative edge count, a non-ASCII byte, an edge count no
        # memory holds
        for text in (b"3 -1 1\n", b"3 1 1\n0 \xe9\n",
                     b"5 10000000000000 1\n0 1\n"):
            bad.write_bytes(text)
            with pytest.raises(EdgeListFormatError):
                read_edge_list(bad)
        # no vertex, or no cycle to pack: the header itself is refused
        for text in (b"0 0 1\n", b"-2 0 1\n", b"3 0 0\n"):
            bad.write_bytes(text)
            with pytest.raises(EdgeListFormatError, match="header needs"):
                read_edge_list(bad)

    @pytest.mark.filterwarnings("default")
    def test_float_field_refused_by_a_warning_parser(self, tmp_path,
                                                     monkeypatch):
        # numpy releases that parse "1.9" as the integer 1 with only a
        # DeprecationWarning: the read must still refuse the file
        real = np.loadtxt

        def truncating(lines, dtype, **kwargs):
            warnings.warn("integer parsed via a float", DeprecationWarning)
            return real(lines, dtype="f8,f8", **kwargs).astype(dtype)

        monkeypatch.setattr(np, "loadtxt", truncating)
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3 3 1\n0 1.9\n1 2\n2 0\n")
        with pytest.raises(EdgeListFormatError, match="edge line malformed"):
            read_edge_list(bad)

    def test_early_end_named(self, tmp_path):
        # a missing edge line is an early end, not a malformed line; a
        # present but wrong line is still called malformed
        bad = tmp_path / "bad.txt"
        for text, want in ((b"5 10000000000000 1\n0 1\n",
                            "file ends after 1 of 10000000000000 edge lines"),
                           (b"3 2 1\n", "file ends after 0 of 2 edge lines"),
                           (b"3 2 1\n0 1\n\n", "edge line 1 malformed")):
            bad.write_bytes(text)
            with pytest.raises(EdgeListFormatError, match=want):
                read_edge_list(bad)


class TestParams:
    def test_non_integer_m_rejected(self):
        with pytest.raises(ValueError):
            ModelParams.make(1000, 3.0005, 1)

    def test_from_nmk_low_density(self):
        p = ModelParams.from_nmk(10, 15, 1)
        assert p.z is None
        with pytest.raises(InfeasibleDegreeError):
            p.require_z()

    def test_seed_derivation_distinct(self):
        seeds = {derive_seed(1000, cell, trial)
                 for cell in range(4) for trial in range(10)}
        assert len(seeds) == 40
