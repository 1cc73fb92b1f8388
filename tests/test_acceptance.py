"""Acceptance gates: one test per numbered criterion, at full stated size.

Each test prints a single verdict line carrying the measured quantity, so
the captured output doubles as the acceptance report; the `pytest -v`
transcript gives the same pass/fail per criterion through the test names.
All seeds are fixed.  The end-to-end gates (1 and 2) and the
simplicity rate (4) dominate the runtime, about 35 seconds combined.
"""

import functools
import itertools
import math
import time

import numpy as np

from hampack.cover import PhaseTwoBudget, eliminate_small_cycles
from hampack.errors import HampackError
from hampack.harness import (
    run_pipeline,
    run_sweep,
    run_trial,
    stats_degree_gof,
    stats_partition_sizes,
    stats_perm_cycles,
    stats_rphi,
    stats_simplicity_rate,
)
from hampack.matching import (BipartiteGraph, build_k_matchings,
                              matching_to_cycle_cover, maximum_matching)
from hampack.model import ModelParams, SimpleDigraph
from hampack.partition import compute_small, split_edges
from hampack.patch import find_cyclic_tau
from hampack.rng import derive_seed, rng_stream
from hampack.verify import (brute_force_packing, verify_hamilton,
                            verify_packing)

BASE = 20260814


def _gate(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{verdict}] {label}: {detail}")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def _packing_run(params, seed):
    """One seeded pipeline run; (host, certificate) or None on failure."""
    try:
        sd, cert, _ = run_pipeline(params, rng_stream(seed))
    except HampackError:
        return None
    return sd, cert


def test_criterion_01_packing_k1_n5000():
    params = ModelParams.make(5000, 50.0, 1)
    t0 = time.perf_counter()
    wins = 0
    for t in range(50):
        out = _packing_run(params, derive_seed(BASE, 1, t))
        if out is not None and verify_packing(*out):
            wins += 1
    elapsed = time.perf_counter() - t0
    _gate(1, "end-to-end packing k=1 (n=5000, c=50)",
          wins >= 45 and elapsed <= 600.0,
          f"{wins}/50 verified certificates in {elapsed:.0f}s")


def test_criterion_02_packing_k2_n2000():
    params = ModelParams.make(2000, 100.0, 2)
    wins = 0
    for t in range(30):
        out = _packing_run(params, derive_seed(BASE, 2, t))
        if out is None:
            continue
        sd, cert = out
        if not verify_packing(sd, cert):
            continue
        # independent disjointness recheck on the raw vertex cycles
        pair_sets = []
        for cyc in cert.cycles:
            walk = [int(v) for v in cyc]
            pair_sets.append({(walk[i], walk[(i + 1) % len(walk)])
                              for i in range(len(walk))})
        for sa, sb in itertools.combinations(pair_sets, 2):
            assert not (sa & sb), "ordered pair shared between cycles"
        wins += 1
    _gate(2, "end-to-end packing k=2 (n=2000, c=100)", wins >= 24,
          f"{wins}/30 verified and pairwise edge-disjoint")


def test_criterion_03_degree_marginals():
    out = stats_degree_gof(ModelParams.make(100_000, 20.0, 1), seed=BASE)
    shown = ", ".join(f"{p:.3f}" for p in out["p_values"])
    _gate(3, "out-degree chi-square fit (n=1e5, c=20)", out["passed"],
          f"p values [{shown}] against level 0.01, {out['bins']} bins")


def test_criterion_04_simplicity_rate():
    out = stats_simplicity_rate(ModelParams.make(10_000, 20.0, 1),
                                attempts=500, seed=BASE)
    gap = abs(out["observed_rate"] - out["predicted_rate"])
    _gate(4, "pairing simplicity rate (n=1e4, c=20, 500 attempts)",
          gap <= 0.05,
          f"observed {out['observed_rate']:.4f} vs predicted "
          f"{out['predicted_rate']:.2e}, gap {gap:.4f}")


def test_criterion_05_partition_sizes():
    out = stats_partition_sizes(ModelParams.make(10_000, 20.0, 2),
                                runs=200, seed=BASE)
    ok = (out["worst_abs_deviation_sigmas"] <= 4.0
          and out["overlap_or_coverage_violations"] == 0)
    _gate(5, "pool sizes within 4 sigma, split exact (200 runs)", ok,
          f"worst {out['worst_abs_deviation_sigmas']:.2f} sigma, "
          f"{out['overlap_or_coverage_violations']} violations")


def test_criterion_06_cover_cycle_statistics():
    out = stats_perm_cycles(10_000, 10_000, seed=BASE)
    short_gap = abs(out["vertices_on_short_mean"] - 10.0)
    tri_gap = abs(out["tricycle_mean"] - 11.0 / 6.0)
    ok = (short_gap <= 3.0 * out["vertices_on_short_se"]
          and tri_gap <= 0.05
          and out["few_cycles_fraction"] >= 0.95)
    _gate(6, "uniform cover short-cycle laws (n=1e4, 1e4 samples)", ok,
          f"short mass {out['vertices_on_short_mean']:.3f} "
          f"(SE {out['vertices_on_short_se']:.3f}), "
          f"tricycles {out['tricycle_mean']:.3f}, "
          f"few-cycles fraction {out['few_cycles_fraction']:.4f}")


def test_criterion_07_reconnection_counts():
    bad = []
    for kappa in (3, 5, 7, 9):
        for row in stats_rphi(kappa)["rows"]:
            if not row["within"]:
                bad.append((kappa, row["type"]))
    # worked 3-section example: phi = (1 3 2) over a complete auxiliary
    # digraph forces tau = (1 3 2) and lambda = phi tau = (1 2 3)
    phi = np.array([2, 0, 1])
    aux = [[(b, 0) for b in range(3) if b != a] for a in range(3)]
    tau, _ = find_cyclic_tau(aux, phi)
    example_ok = (tau is not None and list(tau) == [2, 0, 1]
                  and list(phi[np.asarray(tau)]) == [1, 2, 0])
    _gate(7, "reconnection counts inside factorial bounds (kappa 3..9)",
          not bad and example_ok,
          f"{len(bad)} cycle types out of bounds; 3-section example "
          f"{'reproduced' if example_ok else 'wrong'}")


def _phase2_floors(params, sd, seed):
    """Min cycle length of every cover right after small-cycle removal."""
    rng = rng_stream(seed, 3)
    part = split_edges(sd, params.k, rng)
    compute_small(sd, part, params.c, params.k)
    used = np.zeros(sd.m, dtype=bool)
    pms = build_k_matchings(sd, part, rng, used=used)
    budget = PhaseTwoBudget.for_model(params.n, params.c, params.k)
    floors = []
    for i in range(params.k):
        pd = matching_to_cycle_cover(pms[i])
        used[pms[i].edge_ids] = False
        pd2, _ = eliminate_small_cycles(pd, sd, part.reserve(3, i, used),
                                        rng, budget)
        floors.append(min(map(len, pd2.cycles.values())))
        used[pd2.edge_ids] = True
    return floors


def test_criterion_08_small_cycle_floor(host_5k, host_k2):
    checked = []
    for params, sd in (host_5k, host_k2):
        n0 = params.n / math.log(params.n)
        for seed in (81, 82):
            for got in _phase2_floors(params, sd, seed):
                checked.append((got, n0))
    ok = all(got >= n0 for got, n0 in checked)
    ratio = min(got / n0 for got, n0 in checked)
    _gate(8, "cycle-length floor n/log n after small-cycle removal", ok,
          f"{len(checked)} covers over two hosts, "
          f"min length/floor ratio {ratio:.2f}")


def _random_digraph(rng, n, p):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    return SimpleDigraph(n, np.argwhere(mask).astype(np.int64), k=0)


def _naive_hamilton(sd, cyc):
    """Set-based recheck, independent of the array verifier."""
    cyc = [int(v) for v in np.atleast_1d(np.asarray(cyc))]
    if len(cyc) != sd.n or sd.n == 0:
        return False
    if any(v < 0 or v >= sd.n for v in cyc):
        return False
    if len(set(cyc)) != sd.n:
        return False
    pairs = {(int(a), int(b)) for a, b in sd.edges}
    return all((cyc[i], cyc[(i + 1) % sd.n]) in pairs
               for i in range(sd.n))


def test_criterion_09_small_graph_oracles():
    rng = rng_stream(BASE, 9)
    checked = found = 0
    while checked < 200:
        n = int(rng.integers(4, 8))
        sd = _random_digraph(rng, n, 0.4 + 0.4 * rng.random())
        if min(sd.out_deg.min(), sd.in_deg.min()) < 2:
            continue
        checked += 1
        cert = brute_force_packing(sd, 1 + checked % 2)
        if cert is None:
            continue
        found += 1
        chk = verify_packing(sd, cert)
        assert chk, f"oracle certificate rejected: {chk.reason}"
    agree, trials = 0, 1000
    for t in range(trials):
        n = int(rng.integers(3, 9))
        sd = _random_digraph(rng, n, 0.2 + 0.7 * rng.random())
        kind = t % 4
        if kind == 0:
            seq = rng.permutation(n)
        elif kind == 1:
            seq = rng.integers(0, n, size=n)
        elif kind == 2:
            seq = rng.permutation(n)[: n - 1]
        else:
            seq = rng.integers(-2, n + 2, size=n)
        agree += bool(verify_hamilton(sd, seq)) == _naive_hamilton(sd, seq)
    _gate(9, "exhaustive packing oracle and verifier agreement",
          found >= 30 and agree == trials,
          f"{found}/200 oracle certificates, all verified; "
          f"naive-recheck agreement {agree}/{trials}")


def test_criterion_10_determinism(sweep_cells):
    params = ModelParams.make(2000, 50.0, 1)
    seed = derive_seed(BASE, 10, 0)
    trial_ok = run_trial(params, seed).to_json() == \
        run_trial(params, seed).to_json()
    grid = dict(cells=sweep_cells([400, 500], [5.0], [1]), trials=3,
                seed=BASE)
    csv_one = run_sweep(workers=1, **grid)
    csv_rerun = run_sweep(workers=1, **grid)
    csv_eight = run_sweep(workers=8, **grid)
    sweep_ok = csv_one == csv_rerun == csv_eight
    _gate(10, "byte-identical reruns, worker counts {1, 8}",
          trial_ok and sweep_ok,
          f"trial record stable: {trial_ok}; sweep summary stable "
          f"across reruns and workers: {sweep_ok}")


def _oracle_max_matching(adj, n_b):
    """Exhaustive maximum matching size via DP over B-subsets."""
    masks = [sum(1 << b for b in nbrs) for nbrs in adj]

    @functools.lru_cache(maxsize=None)
    def best(i, used):
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


def test_criterion_11_matching_oracle_agreement():
    rng = rng_stream(BASE, 11)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        p = 0.1 + 0.8 * rng.random()
        pairs = [(a, b) for a in range(n) for b in range(n)
                 if rng.random() < p]
        adj = [[b for a2, b in pairs if a2 == a] for a in range(n)]
        want = _oracle_max_matching(adj, n)
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        g = BipartiteGraph(n, ends[:, 0], ends[:, 1])
        got = maximum_matching(g).size
        assert got == want, f"{got} != {want}"
    _gate(11, "maximum matching equals exhaustive optimum",
          True, "200 random bipartite graphs")
