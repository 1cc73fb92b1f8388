"""Final repair: the tau enumeration, |R_phi| counts, and cycle merging."""

import copy
import hashlib
import itertools
import math

import numpy as np
import pytest

from hampack import patch as pt
from hampack.cover import (
    PermutationDigraph,
    PhaseTwoBudget,
    eliminate_small_cycles,
)
from hampack.errors import OracleSizeError, PhaseFailure
from hampack.matching import build_k_matchings, matching_to_cycle_cover
from hampack.model import SimpleDigraph
from hampack.partition import EdgePartition, compute_small, split_edges
from hampack.rng import rng_stream


def cover_instance(cycle_lists, extra=()):
    """Host digraph + cover + reserve pool from explicit cycles; the
    pool is the bool mask over edge ids that marks the extra edges."""
    n = max(v for cyc in cycle_lists for v in cyc) + 1
    cover_edges = []
    for cyc in cycle_lists:
        cover_edges += list(zip(cyc, cyc[1:] + cyc[:1]))
    edges = np.array(cover_edges + list(extra), dtype=np.int64)
    sd = SimpleDigraph(n, edges, k=1)
    succ = np.full(n, -1, dtype=np.int64)
    eids = np.full(n, -1, dtype=np.int64)
    for i, (a, b) in enumerate(cover_edges):
        succ[a] = b
        eids[a] = i
    pd = PermutationDigraph(succ, eids)
    pool = np.arange(sd.m) >= len(cover_edges)
    return sd, pd, pool


def random_instance(seed, extra_count, n=150, parts=2):
    """Random cycle layout with a random reserve pool."""
    rng = rng_stream(seed)
    perm = rng.permutation(n)
    size = n // parts
    cycles = [perm[j * size:(j + 1) * size].tolist() for j in range(parts)]
    cover_set = set()
    for cyc in cycles:
        cover_set |= set(zip(cyc, cyc[1:] + cyc[:1]))
    extra = set()
    while len(extra) < extra_count:
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v and (u, v) not in cover_set and (u, v) not in extra:
            extra.add((u, v))
    sd, pd, pool = cover_instance(cycles, extra=sorted(extra))
    return sd, pd, pool, rng


def none_of(sd):
    """The all-false mask over sd's edge ids: a spare pool for
    merge_patch that holds no exchange, so E_4 alone must merge."""
    return np.zeros(sd.m, dtype=bool)


def phi_of_type(*parts):
    out = []
    base = 0
    for kj in parts:
        out.extend(base + ((s - 1) % kj) for s in range(kj))
        base += kj
    return np.array(out, dtype=np.int64)


def cycle_type(p):
    seen = [False] * len(p)
    parts = []
    for s in range(len(p)):
        if seen[s]:
            continue
        ln = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            ln += 1
        parts.append(ln)
    return sorted(parts)


class TestFindCyclicTau:
    def test_two_sections(self):
        aux = [[(1, 7)], [(0, 9)]]
        ident = np.array([0, 1])
        tau, eid_of = pt.find_cyclic_tau(aux, ident)
        assert list(tau) == [1, 0]
        assert list(eid_of) == [7, 9]
        tau, eid_of = pt.find_cyclic_tau([[(1, 7)], []], ident)
        assert tau is None and eid_of is None

    def test_forced_three_section_layout(self):
        # kappa=3 with a complete auxiliary digraph and phi = (1 3 2):
        # the search lands on tau = (1 3 2), lambda = (1 2 3)
        phi = np.array([2, 0, 1])
        aux = [[(b, 10 * a + b) for b in range(3) if b != a]
               for a in range(3)]
        tau, eid_of = pt.find_cyclic_tau(aux, phi)
        assert list(tau) == [2, 0, 1]
        assert list(phi[tau]) == [1, 2, 0]
        assert cycle_type(phi[tau]) == [3]
        assert [int(e) for e in eid_of] == [2, 10, 21]

    def test_agrees_with_enumeration(self):
        rng = rng_stream(23)
        for trial in range(60):
            kappa = int(rng.integers(3, 8))
            density = 0.25 + 0.35 * rng.random()
            adj = rng.random((kappa, kappa)) < density
            np.fill_diagonal(adj, False)
            aux = [[(b, a * kappa + b) for b in range(kappa) if adj[a, b]]
                   for a in range(kappa)]
            phi = phi_of_type(kappa) if kappa % 2 else phi_of_type(kappa - 1, 1)

            def first_feasible():
                for rest in itertools.permutations(range(1, kappa)):
                    order = (0,) + rest
                    if not all(adj[order[i], order[(i + 1) % kappa]]
                               for i in range(kappa)):
                        continue
                    tau = np.empty(kappa, dtype=np.int64)
                    for i in range(kappa):
                        tau[order[i]] = order[(i + 1) % kappa]
                    if cycle_type(phi[tau]) == [kappa]:
                        return list(tau)
                return None

            got, eid_of = pt.find_cyclic_tau(aux, phi)
            want = first_feasible()
            if want is None:
                assert got is None and eid_of is None
            else:
                assert list(got) == want
                assert list(eid_of) == [a * kappa + b
                                        for a, b in enumerate(want)]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            pt.find_cyclic_tau([[]], np.array([0]))
        with pytest.raises(OracleSizeError):
            pt.find_cyclic_tau([[]] * 11, phi_of_type(11))


class TestCountRPhi:
    # enumeration results are stable; the factorial bounds must frame them
    FROZEN = {(3,): 1, (5,): 8, (7,): 180, (9,): 8064,
              (3, 3, 1): 216, (5, 3, 1): 9120, (3, 3, 3): 8352}

    def test_frozen_values(self):
        for parts, want in self.FROZEN.items():
            assert pt.count_r_phi(phi_of_type(*parts)) == want

    def test_bracketing_bounds(self):
        for parts, value in self.FROZEN.items():
            kappa = sum(parts)
            assert math.factorial(kappa - 2) <= value
            assert value <= math.factorial(kappa - 1)

    def test_identity_phi(self):
        # type (1,1,1): every cyclic tau qualifies
        assert pt.count_r_phi(np.array([0, 1, 2])) == 2

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            pt.count_r_phi(phi_of_type(11))


class TestMergePatch:
    def test_single_exchange(self):
        sd, pd, pool = cover_instance(
            [[0, 1, 2, 3], [4, 5, 6, 7]],
            extra=[(0, 5), (4, 1)])
        ham, stats = pt.merge_patch(pd, sd, pool, rng_stream(4),
                                    none_of(sd))
        assert ham.num_cycles == 1 and stats.merges == 1
        assert stats.relaxed_merges == 0
        assert int(ham.succ[0]) == 5 and int(ham.succ[4]) == 1

    def test_no_exchange_raises(self):
        sd, pd, pool = cover_instance(
            [[0, 1, 2, 3], [4, 5, 6, 7]],
            extra=[(0, 5)])  # no return edge
        with pytest.raises(PhaseFailure, match="phase3"):
            pt.merge_patch(pd, sd, pool, rng_stream(4), none_of(sd))

    def test_three_cycles_two_merges(self):
        sd, pd, pool, rng = random_instance(77, 4000, n=150, parts=3)
        ham, stats = pt.merge_patch(pd, sd, pool, rng, none_of(sd))
        assert ham.num_cycles == 1 and stats.merges == 2

    def test_never_consumes_cover_edges(self):
        sd, pd, pool, rng = random_instance(78, 4000)
        ham, _ = pt.merge_patch(pd, sd, pool, rng, none_of(sd))
        new = set(ham.edge_ids.tolist()) - set(pd.edge_ids.tolist())
        assert new <= set(np.flatnonzero(pool).tolist())

    # two 4-cycles, cover 0 of k = 2.  E_{4,0} holds (0, 6) alone, which
    # has no return edge.  Three exchanges exist: (0, 5)/(4, 1) in cover
    # 0's Ê_{2,0} and Ê_{3,0}, (2, 7)/(6, 3) in cover 1's pools, and
    # (1, 6)/(5, 2) with label 0 but already used
    RUNG_PAIRS = {(0, 6): 6, (0, 5): 2, (4, 1): 4, (2, 7): 7, (6, 3): 1,
                  (1, 6): 0, (5, 2): 0}

    @staticmethod
    def rung_case(pairs):
        """Host, cover, E_{4,0} and the unused mask for the given labels."""
        sd, pd, _ = cover_instance([[0, 1, 2, 3], [4, 5, 6, 7]],
                                   extra=list(pairs))
        part = EdgePartition(k=2, pool=np.zeros(sd.m, dtype=np.uint8),
                             e_small=np.zeros(sd.m, dtype=bool))
        for (u, v), label in pairs.items():
            part.pool[sd.edge_lookup(u, v)] = label
        used = np.zeros(sd.m, dtype=bool)
        used[[sd.edge_lookup(1, 6), sd.edge_lookup(5, 2)]] = True
        return sd, pd, part.reserve(4, 0, used), ~used

    def test_rung_merges(self):
        sd, pd, e4, unused = self.rung_case(self.RUNG_PAIRS)
        with pytest.raises(PhaseFailure, match="no exchange merges"):
            pt.merge_patch(pd, sd, e4, rng_stream(5), none_of(sd))
        taken = set()
        for seed in range(8):
            ham, stats = pt.merge_patch(pd, sd, e4, rng_stream(seed), unused)
            assert ham.num_cycles == 1
            assert (stats.merges, stats.rung_merges) == (1, 1)
            new = np.setdiff1d(ham.edge_ids, pd.edge_ids)
            taken.add(tuple(sorted(map(tuple, sd.edges[new].tolist()))))
        # both unused exchanges, never the used pair (1, 6)/(5, 2)
        assert taken == {((0, 5), (4, 1)), ((2, 7), (6, 3))}

    def test_rung_takes_a_later_covers_edges(self):
        # only cover 1's labels hold an exchange: cover 0's own edges
        # cannot merge, every unused edge can, and the used pair stays out
        pairs = {e: t for e, t in self.RUNG_PAIRS.items()
                 if e not in ((0, 5), (4, 1))}
        sd, pd, e4, unused = self.rung_case(pairs)
        ham, stats = pt.merge_patch(pd, sd, e4, rng_stream(5), unused)
        assert ham.num_cycles == 1
        assert (stats.merges, stats.rung_merges) == (1, 1)
        new = np.setdiff1d(ham.edge_ids, pd.edge_ids)
        assert sorted(sd.edges[new].tolist()) == [[2, 7], [6, 3]]

    def test_rung_idle_when_e4_merges(self):
        sd, pd, pool = cover_instance(
            [[0, 1, 2, 3], [4, 5, 6, 7]],
            extra=[(0, 5), (4, 1)])
        ham, stats = pt.merge_patch(pd, sd, pool, rng_stream(4),
                                    np.ones(sd.m, dtype=bool))
        assert ham.num_cycles == 1
        assert (stats.merges, stats.rung_merges) == (1, 0)

    def test_output_pinned(self):
        # digest of what merge_patch produced with loop_find_exchange
        # as its search: five merges; the batched search must reproduce
        # them and leave the stream where the loop left it
        sd, pd, pool, rng = random_instance(81, 8000, n=600, parts=6)
        ham, stats = pt.merge_patch(pd, sd, pool, rng, none_of(sd))
        assert (stats.merges, stats.relaxed_merges) == (5, 0)
        h = hashlib.sha256()
        h.update(ham.succ.astype("<i8").tobytes())
        h.update(ham.edge_ids.astype("<i8").tobytes())
        assert h.hexdigest() == ("3c8a63ae6eeab04e10bc376f28b8889d"
                                 "9f6c0e41c55aa7cf12e81f52f0cf6c09")
        assert int(rng.integers(1 << 62)) == 4188567748077616332


def loop_find_exchange(pd, cid, sd, pool, rng):
    """Reference exchange search: one a at a time, scalar lookups.

    The loop _find_exchange ran before it was batched; kept as the
    oracle for its return value and its draw from rng.  Both joins must
    be in the pool and not arcs of Π, and a's edges are found by a scan
    of the tails, in id order.
    """
    cyc = pd.cycles[cid]
    cover = set(pd.edge_ids.tolist())

    def usable(eid):
        return eid >= 0 and pool[eid] and eid not in cover

    for idx in rng.permutation(len(cyc)):
        a = int(cyc[idx])
        a_next = int(pd.succ[a])
        for eid1 in np.flatnonzero(sd.tails == a).tolist():
            h = int(sd.heads[eid1])
            if not usable(eid1) or pd.cycle_id[h] == cid:
                continue
            b = int(pd.pred[h])
            eid2 = sd.edge_lookup(b, a_next)
            if usable(eid2):
                return a, b, eid1, eid2
    return None


class TestFindExchangeOracle:
    def test_matches_loop(self):
        rng0 = rng_stream(0, 9)
        outcomes = {True: 0, False: 0}
        for seed in range(48):
            parts = int(rng0.integers(2, 6))
            n = parts * int(rng0.integers(5, 60))
            extra = int(rng0.integers(0, min(20 * n, n * (n - 1) // 4)))
            sd, pd, pool, _ = random_instance(seed, extra, n=n, parts=parts)
            # the whole host as the pool puts the cover's own edges in
            # the pool, where only their being arcs of Π keeps them out;
            # half the reserve leaves host edges off Π out of the pool
            half = pool & (rng_stream(seed, 7).random(sd.m) < 0.5)
            for in_pool in (pool, np.ones(sd.m, dtype=bool), half):
                for cid in range(pd.num_cycles):
                    twin = copy.deepcopy(rng0)
                    want = loop_find_exchange(pd, cid, sd, in_pool, twin)
                    got = pt._find_exchange(pd, cid, sd, in_pool, rng0)
                    assert got == want
                    # both searches leave the stream at the same place
                    assert np.array_equal(twin.integers(1 << 62, size=4),
                                          rng0.integers(1 << 62, size=4))
                    if got is not None:
                        assert all(type(x) is int for x in got)
                    outcomes[got is not None] += 1
        assert outcomes[True] > 20 and outcomes[False] > 20


    LONG = 1500  # cycle 0 is 0 -> 1 -> ... -> 1499; cycle 1 has 10

    def long_cycle_case(self, seed, hit_positions):
        """A long cycle whose feasible exchanges start only at the given
        positions of the search order, with dead ends (a pool edge into
        cycle 1 but no return edge) at positions before them."""
        L = self.LONG
        order = rng_stream(seed, 6).permutation(L)  # cyc is 0..L-1
        extra = []
        for j, p in enumerate(hit_positions):
            a = int(order[p])
            h = L + j % 10
            b = L + (j - 1) % 10
            extra += [(a, h), (b, (a + 1) % L)]
        for p in range(0, min(hit_positions, default=L), 37):
            extra.append((int(order[p]), L + 5))
        sd, pd, pool = cover_instance(
            [list(range(L)), list(range(L, L + 10))], extra=extra)
        return sd, pd, pool, order

    @pytest.mark.parametrize("hits", [(256, 1000), (1279, 1450), (1280,), ()])
    def test_hit_past_first_chunk(self, hits):
        sd, pd, pool, order = self.long_cycle_case(8, hits)
        rng = rng_stream(8, 6)
        twin = copy.deepcopy(rng)
        got = pt._find_exchange(pd, 0, sd, pool, rng)
        assert got == loop_find_exchange(pd, 0, sd, pool, twin)
        assert np.array_equal(twin.integers(1 << 62, size=4),
                              rng.integers(1 << 62, size=4))
        if not hits:
            assert got is None  # every chunk scanned, nothing feasible
            return
        a, b, eid1, eid2 = got
        assert a == order[hits[0]] and b == self.LONG + 9
        assert sd.edges[eid1].tolist() == [a, self.LONG]
        assert sd.edges[eid2].tolist() == [b, (a + 1) % self.LONG]


class TestPipelinePhaseThree:
    @pytest.fixture(scope="class")
    @staticmethod
    def hamiltons(host_k2):
        params, sd = host_k2

        def run(seed):
            rng = rng_stream(seed, 3)
            part = split_edges(sd, params.k, rng)
            compute_small(sd, part, params.c, params.k)
            used = np.zeros(sd.m, dtype=bool)
            pms = build_k_matchings(sd, part, rng, used=used)
            budget = PhaseTwoBudget.for_model(params.n, params.c, params.k)
            hams = []
            for i in range(params.k):
                pd = matching_to_cycle_cover(pms[i])
                used[pms[i].edge_ids] = False
                pd2, p2 = eliminate_small_cycles(
                    pd, sd, part.reserve(3, i, used), rng, budget)
                ham, _ = pt.merge_patch(pd2, sd, part.reserve(4, i, used),
                                        rng, none_of(sd))
                used[ham.edge_ids] = True
                hams.append(ham)
            return hams

        return params, sd, run

    def test_hamilton_cycles_come_out(self, hamiltons):
        params, sd, run = hamiltons
        hams = run(91)
        assert len(hams) == params.k
        for ham in hams:
            assert ham.num_cycles == 1
            assert int(ham.cycle_lens[0]) == params.n
            rows = sd.edges[ham.edge_ids]
            assert (rows[:, 0] == np.arange(params.n)).all()
            assert (rows[:, 1] == ham.succ).all()

    def test_edge_disjoint_across_cycles(self, hamiltons):
        params, _, run = hamiltons
        hams = run(92)
        ids = np.concatenate([h.edge_ids for h in hams])
        assert len(np.unique(ids)) == params.k * params.n

    def test_deterministic(self, hamiltons):
        _, _, run = hamiltons
        a = run(93)
        b = run(93)
        for x, y in zip(a, b):
            assert (x.succ == y.succ).all()
            assert (x.edge_ids == y.edge_ids).all()
