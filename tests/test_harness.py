"""Trial orchestration, sweep determinism, stats, and CLI plumbing."""

import csv
import functools
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hampack import cover as cv
from hampack import harness as hn
from hampack import matching as mt
from hampack import model as md
from hampack import patch as pt
from hampack.model import (ModelParams, SimpleDigraph, read_edge_list,
                           sample_erased_digraph, write_edge_list)
from hampack.errors import (FAILURE_TAGS, ConditioningFailureError,
                            OracleSizeError, PhaseFailure)
from hampack.rng import derive_seed, rng_stream
from hampack.verify import verify_packing


def hall_violator_host() -> SimpleDigraph:
    """Every degree >= 2, but 0, 1 and 2 send edges only into {3, 4}:
    no cycle cover exists, so every seed fails in phase 1."""
    n = 8
    edges = [(u, w) for u in (0, 1, 2) for w in (3, 4)]
    edges += [(v, w) for v in range(3, n) for w in range(n)
              if w != v and w not in (3, 4)]
    return SimpleDigraph(n, np.array(edges), 1)


def sweep_rows(text) -> list:
    """The sweep CSV's lines, one dict per cell."""
    return list(csv.DictReader(io.StringIO(text)))


def tail_ordered_host(n, c, k, seed) -> SimpleDigraph:
    """A model host drawn without hampack's sampler: degree vectors are
    floored multinomial counts, tails stay in vertex order and heads are
    shuffled, and erasure keeps the first copy of each pair."""
    rng = np.random.default_rng(seed)
    m = int(c * n)
    while True:
        out_deg, in_deg = (np.bincount(rng.integers(0, n, m), minlength=n)
                           for _ in range(2))
        if min(out_deg.min(), in_deg.min()) < k + 1:
            continue
        tails = np.repeat(np.arange(n), out_deg)
        heads = rng.permutation(np.repeat(np.arange(n), in_deg))
        _, first = np.unique(tails * n + heads, return_index=True)
        keep = np.zeros(m, dtype=bool)
        keep[first] = True
        keep &= tails != heads
        sd = SimpleDigraph(n, np.column_stack((tails[keep], heads[keep])), k)
        if sd.min_degree() >= k + 1:
            return sd


class TestRunTrial:
    @pytest.fixture(scope="class")
    @staticmethod
    def success_record():
        params = ModelParams.make(2000, 50.0, 1)
        return params, hn.run_trial(params, 7)

    def test_success_outcome(self, success_record):
        params, rec = success_record
        assert rec.success and rec.outcome == "success"
        assert rec.n == 2000 and rec.m == 100000 and rec.k == 1
        # phase 2 closes this seed's cover into one cycle: no merge
        assert rec.kappa == [0]
        assert rec.cert_digest and len(rec.cert_digest) == 64

    def test_certificate_verifies_against_rebuilt_host(self, success_record):
        params, rec = success_record
        # the host is a pure function of the seed stream prefix
        sd, _ = sample_erased_digraph(params, rng_stream(rec.seed))
        assert verify_packing(sd, rec.certificate)

    def test_repeat_is_byte_identical(self, success_record):
        params, rec = success_record
        again = hn.run_trial(params, 7)
        assert again.to_json() == rec.to_json()

    def test_canonical_json_has_no_timings(self, success_record):
        _, rec = success_record
        doc = json.loads(rec.to_json())
        assert doc["schema"] == 2
        assert "timings" not in doc and "certificate" not in doc

    def test_closes_through_a_created_cycle(self):
        # an in-phase check that refused every pivot on a cycle an
        # earlier split created failed this seed in phase 2, with no
        # in-phase closure for a 2-cycle after 2 starts
        params = ModelParams.make(2000, 8.0, 1)
        rec = hn.run_trial(params, 150001)
        assert rec.outcome == "success", rec.detail
        sd, _ = sample_erased_digraph(params, rng_stream(rec.seed))
        assert verify_packing(sd, rec.certificate)

    def test_out_phase_absorbs_a_created_cycle(self):
        # an out-phase that refused every pivot on a cycle an earlier
        # split created failed this seed in phase 2, with no in-phase
        # closure for a 2-cycle after 2 starts
        params = ModelParams.make(2000, 5.0, 1)
        rec = hn.run_trial(params, 180032)
        assert rec.outcome == "success", rec.detail
        sd, _ = sample_erased_digraph(params, rng_stream(rec.seed))
        assert verify_packing(sd, rec.certificate)

    def test_failure_is_attributed_not_raised(self):
        sd = hall_violator_host()
        params = ModelParams.from_nmk(sd.n, sd.m, 1)
        rec = hn.run_trial(params, 7, sd=sd)
        assert rec.outcome.startswith("failure:")
        assert rec.detail
        assert rec.certificate is None and rec.cert_digest is None

    def test_two_vertex_hamilton_host_packs(self):
        # the cover's one cycle, 0 -> 1 -> 0, is already Hamilton: phase 2
        # must not count it small and try to remove it
        sd = SimpleDigraph(2, np.array([(0, 1), (1, 0)]), 1)
        rec = hn.run_trial(ModelParams.from_nmk(2, 2, 1), 1, sd=sd)
        assert rec.outcome == "success", rec.detail
        assert [sorted(cyc.tolist()) for cyc in rec.certificate.cycles] \
            == [[0, 1]]
        assert verify_packing(sd, rec.certificate)

    def test_tiny_params_never_crash(self):
        params = ModelParams.make(40, 3.0, 1)
        for seed in range(4):
            rec = hn.run_trial(params, seed)
            # an internal failure is a broken invariant, the crash this
            # test guards against; every other tag is an attributed failure
            assert rec.success or rec.outcome in (
                set(FAILURE_TAGS) - {"failure:internal"})


def test_covers_built_once_then_spliced(monkeypatch):
    """Phase 1 builds each of the k covers from scratch; phases 2 and 3
    only splice them."""
    built, spliced = [], []
    init = cv.PermutationDigraph.__init__
    rewired = cv.PermutationDigraph.rewired

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_rewired(self, *args, **kwargs):
        spliced.append(1)
        return rewired(self, *args, **kwargs)

    monkeypatch.setattr(cv.PermutationDigraph, "__init__", counted_init)
    monkeypatch.setattr(cv.PermutationDigraph, "rewired", counted_rewired)
    rec = hn.run_trial(ModelParams.make(600, 30.0, 1), 0)
    assert rec.outcome == "success" and rec.kappa == [4]
    assert len(built) == 1 and len(spliced) >= 2


@pytest.mark.parametrize("point, want_wins, fires", [
    ((2000, 100.0, 2), 4, False), ((600, 30.0, 1), 4, False),
    ((2000, 60.0, 3), 4, False), ((2000, 12.0, 2), 4, True),
], ids=["k2", "k1", "k3", "k2-low-c"])
def test_cycles_use_own_pools(monkeypatch, point, want_wins, fires):
    """Every edge of Hamilton cycle i lies in one of cover i's own
    pools, Ê_{t,i} or E_{4,i} (pool label = i mod k), or in E_SMALL,
    except the two edges each of phase 3's rung merges adds: those may
    carry any label.  At k = 1 every label qualifies, so that point
    checks only that trials get this far; all four of its seeds pack
    (200 of 200 seeds do there).  The rung fires on the low-c point
    only, so there the exception is exercised."""
    parts, stats = [], []
    split, merge = hn.split_edges, hn.merge_patch

    def kept(*args, **kwargs):
        parts.append(split(*args, **kwargs))
        return parts[-1]

    def merged(*args, **kwargs):
        ham, st = merge(*args, **kwargs)
        stats.append(st)
        return ham, st

    monkeypatch.setattr(hn, "split_edges", kept)
    monkeypatch.setattr(hn, "merge_patch", merged)
    params = ModelParams.make(*point)
    wins = rungs = 0
    for seed in range(4):
        stats.clear()
        rec = hn.run_trial(params, seed)
        if not rec.success:
            continue
        wins += 1
        part = parts[-1]
        for i, eids in enumerate(rec.certificate.edge_ids):
            own = (part.pool[eids] % part.k == i) | part.e_small[eids]
            assert (~own).sum() <= 2 * stats[i].rung_merges, (
                seed, i, np.flatnonzero(~own))
            rungs += stats[i].rung_merges
    assert len(parts) == 4 and wins == want_wins
    assert (rungs > 0) == fires


class TestRecordsPinned:
    """Digests of canonical trial records.  A change that claims to
    leave the RNG stream and every output alone must keep them."""

    @staticmethod
    def digest(rec) -> str:
        return hashlib.sha256(rec.to_json().encode()).hexdigest()

    @pytest.mark.parametrize("seed, want", [
        (0, "df60404bbd97ee2cf810c54be4d28cbb6a460c6e90042c2d51b34eae37a22a66"),
        (1, "3462f185c4a740d84541e17aa7bccc2eeeb5483193f2b5c549930575f65aada6"),
        (2, "9b35c39f5328f0b84123607ab06824abd2fb372aba269dc846d57aa0ceaffb7e"),
    ], ids=["seed0", "seed1", "seed2"])
    def test_run_trial(self, seed, want):
        rec = hn.run_trial(ModelParams.make(2000, 100.0, 2), seed)
        assert rec.outcome == "success"
        assert self.digest(rec) == want

    @pytest.mark.parametrize("seed, outcome, want", [
        (0, "success",
         "4a7858b5e68af39df98c808565eb0eb5ed46eb136ed223b7f9707cadb5b046fe"),
        (1, "success",
         "7117941e18f4ccd418849b840a5e11e3d0e027e3a9c7647d3fc0582a89fc70cf"),
    ], ids=["seed0", "seed1"])
    def test_pack_given_host(self, seed, outcome, want):
        # the ``pack --in`` path: a fixed host, drawn apart from the
        # sampler so a sampler change leaves it alone, packed with
        # params read off it
        sd = tail_ordered_host(3000, 20.0, 1, 2)
        params = ModelParams.from_nmk(sd.n, sd.m, 1)
        rec = hn.run_trial(params, seed, sd=sd)
        assert rec.outcome == outcome
        assert self.digest(rec) == want

    @pytest.mark.parametrize("seed, outcome, want", [
        (0, "success",
         "0eca1680a65fb1116a1ac4367d2cae8ffa4bf1bac76403257f091195424d730a"),
        (1, "success",
         "468039094f4b015117e59254f0dc3c3997e9449ec4e65382bb1d4a0c466c3ac7"),
    ], ids=["seed0", "seed1"])
    def test_pack_given_host_k2(self, seed, outcome, want):
        # k = 2 on a host out of pair-code order, so both covers' matched
        # edges and phase 3's exchanges read a sorted index of the host
        sd = tail_ordered_host(600, 40.0, 2, 0)
        params = ModelParams.from_nmk(sd.n, sd.m, 2)
        rec = hn.run_trial(params, seed, sd=sd)
        assert rec.outcome == outcome
        assert self.digest(rec) == want


class TestInternalFailure:
    @staticmethod
    def broken_pipeline(*args, **kwargs):
        raise ValueError("succ is not a permutation")

    def test_run_trial_records_value_error(self, monkeypatch):
        monkeypatch.setattr(hn, "run_pipeline", self.broken_pipeline)
        rec = hn.run_trial(ModelParams.make(300, 4.0, 1), 41)
        assert rec.outcome == "failure:internal"
        assert rec.detail == "succ is not a permutation"
        assert rec.seed == 41 and not rec.success
        assert rec.cert_digest is None

    def test_sweep_completes(self, monkeypatch, sweep_cells):
        monkeypatch.setattr(hn, "run_pipeline", self.broken_pipeline)
        text = hn.run_sweep(sweep_cells([60, 80], [4.0], [1]), trials=2,
                            seed=29)
        assert [(r["trials"], r["successes"], r["failures"])
                for r in sweep_rows(text)] == [("2", "0", "internal=2")] * 2

    def test_pack_in_reports_internal_tag(self, monkeypatch, tmp_path,
                                          capsys):
        params = ModelParams.make(60, 4.0, 1)
        sd, _ = sample_erased_digraph(params, rng_stream(3))
        path = tmp_path / "host.txt"
        with path.open("w") as fh:
            write_edge_list(sd, fh)
        monkeypatch.setattr(hn, "run_pipeline", self.broken_pipeline)
        assert hn.main(["pack", "--in", str(path), "--seed", "1"]) == 2
        assert "failure:internal: succ is not a permutation" in \
            capsys.readouterr().err


# the real functions, kept before any test patches their names
real_finalize = mt._finalize
real_certificate = hn.certificate_from_covers
real_maximum_matching = mt.maximum_matching
real_booster_augment = mt.booster_augment


@functools.lru_cache(maxsize=None)
def failure_host(n, c, k):
    """A model host every failure case below starts from."""
    return sample_erased_digraph(ModelParams.make(n, c, k), rng_stream(5))[0]


def two_cycles(pd, *args, **kwargs):
    """Stand-in for phase 2: the cover becomes two cycles of n/2."""
    half = pd.n // 2
    succ = np.roll(np.arange(pd.n), -1)
    succ[half - 1], succ[-1] = 0, half
    return (cv.PermutationDigraph(succ, pd.edge_ids),
            cv.PhaseTwoStats())


def new_small_cycle(pd, *args, **kwargs):
    """An "early closure" that leaves one small cycle, a new one."""
    v = int(max(pd.cycles.values(), key=len)[0])
    rest = np.flatnonzero(np.arange(pd.n) != v)
    succ = np.full(pd.n, v)
    succ[rest] = np.roll(rest, -1)
    return "closed", cv.PermutationDigraph(succ, pd.edge_ids)


def replay_first_matching():
    """_finalize that hands every cover the first matching's edges."""
    first = []

    def finalize(sd, m, unlabel):
        first.append(real_finalize(sd, m, unlabel))
        return first[0]
    return finalize


def same_cycle_exchange(pd, cid, sd, *args):
    """An "exchange" whose two break vertices share cycle cid: a valid
    rewiring, but it splits that cycle instead of merging two."""
    a = int(pd.cycles[cid][0])
    b = int(pd.succ[pd.succ[a]])
    into = np.flatnonzero(sd.heads == pd.succ[b])  # some edge into b+
    return a, b, int(into[0]), int(pd.edge_ids[a])


def short_by_two(g):
    """A maximum matching with two A vertices unmatched: boosters run."""
    m = real_maximum_matching(g)
    a = np.flatnonzero(m.pair_a >= 0)[:2]
    m.pair_a[a] = -1
    return m


def swap_two_steps(sd, covers):
    cert = real_certificate(sd, covers)
    cyc = cert.cycles[0].copy()
    cyc[[1, 2]] = cyc[[2, 1]]
    cert.cycles[0] = cyc
    return cert


def raise_conditioning(*args):
    raise ConditioningFailureError("stub")

# case -> (host point, patches as (module, name, value), expected tag,
#          a fragment of its detail); a host point of None
# runs the real sampler, which `pack --in` bypasses
FAILURE_CASES = {
    "erasure": (None,
                [(SimpleDigraph, "min_degree", lambda self: 0)],
                "sample", "erasure broke"),
    "conditioning": (None,
                     [(md, "conditioned_degree_vector", raise_conditioning)],
                     "sample", "stub"),
    "deficiency": ("no-in-edges", [], "phase1", "deficiency"),
    "used-edge": ((600, 40.0, 2),
                  [(mt, "_finalize", replay_first_matching)], "internal",
                  "phase 1: matched an already-used"),
    "rotation-fails": ((600, 30.0, 1),
                       [(cv, "out_phase", lambda *a, **kw: ("fail", "x"))],
                       "phase2", "could not remove"),
    "no-drop": ((600, 30.0, 1),
                [(cv, "out_phase", lambda pd, *a, **kw: ("closed", pd))],
                "internal", "phase 2: small-cycle count failed to drop"),
    "new-small": ((600, 30.0, 1),
                  [(cv, "out_phase", new_small_cycle)],
                  "internal", "phase 2: a new small cycle"),
    "postcondition": ((600, 30.0, 1),
                      [(cv, "cycles_of", lambda pd, n0: ([], []))],
                      "internal", "phase 2: postcondition"),
    "no-exchange": ((600, 30.0, 1),
                    [(hn, "eliminate_small_cycles", two_cycles),
                     (pt, "_find_exchange", lambda *a: None)],
                    "phase3", "no exchange"),
    "no-merge": ((600, 30.0, 1),
                 [(hn, "eliminate_small_cycles", two_cycles),
                  (pt, "_find_exchange", same_cycle_exchange)],
                 "internal", "phase 3: exchange failed to merge"),
    "verify": ((600, 30.0, 1),
               [(hn, "certificate_from_covers", swap_two_steps)],
               "verify", "cycle 0"),
    "internal": ((600, 30.0, 1),
                 [(hn, "matching_to_cycle_cover",
                   lambda pm: cv.PermutationDigraph(0 * pm.succ,
                                                    pm.edge_ids))],
                 "internal", "not a permutation"),
    # a broken invariant the pipeline no longer repairs: an exchange
    # that names one tail twice
    "repeated-tail": ((600, 30.0, 1),
                      [(hn, "eliminate_small_cycles", two_cycles),
                       (pt, "_find_exchange",
                        lambda pd, *a: (0, 0, int(pd.edge_ids[0]),
                                        int(pd.edge_ids[0])))],
                      "internal", "repeated tail"),
}


class TestFailureTags:
    """Each raise site a trial can reach, driven through run_trial and
    `pack --in`: the outcome carries the expected tag from the closed
    set FAILURE_TAGS."""

    @staticmethod
    def host_for(point):
        if point == "no-in-edges":  # b_0 is unmatchable: Hall fails
            sd = failure_host(600, 30.0, 1)
            keep = sd.heads != 0
            return SimpleDigraph.from_columns(sd.n, sd.tails[keep],
                                              sd.heads[keep], sd.k)
        return failure_host(*point)

    @staticmethod
    def apply(monkeypatch, patches):
        for owner, name, value in patches:
            if value is replay_first_matching:  # fresh state per test
                value = value()
            monkeypatch.setattr(owner, name, value)

    @pytest.mark.parametrize("case", sorted(FAILURE_CASES))
    def test_run_trial_tag(self, case, monkeypatch):
        point, patches, tag, fragment = FAILURE_CASES[case]
        if point is None:
            params = ModelParams.make(200, 10.0, 1)
        else:
            sd = self.host_for(point)
            params = ModelParams.from_nmk(sd.n, sd.m, sd.k)
            monkeypatch.setattr(hn, "sample_erased_digraph",
                                lambda params, rng: (sd, 1))
        self.apply(monkeypatch, patches)
        rec = hn.run_trial(params, 0)
        assert rec.outcome in FAILURE_TAGS
        assert rec.outcome == f"failure:{tag}" and fragment in rec.detail
        assert rec.seed == 0 and rec.cert_digest is None

    @pytest.mark.parametrize("case", sorted(
        c for c, spec in FAILURE_CASES.items() if spec[0] is not None))
    def test_pack_in_tag(self, case, monkeypatch, tmp_path, capsys):
        point, patches, tag, fragment = FAILURE_CASES[case]
        path = tmp_path / "host.txt"
        with path.open("w") as fh:
            write_edge_list(self.host_for(point), fh)
        self.apply(monkeypatch, patches)
        code = hn.main(["pack", "--in", str(path), "--seed", "0"])
        err = capsys.readouterr().err
        emitted = ":".join(err.split(":", 2)[:2])
        assert code == 2 and emitted in FAILURE_TAGS
        assert emitted == f"failure:{tag}" and fragment in err

    def test_multinomial_cap_is_a_sample_failure(self, monkeypatch):
        # forced onto the multinomial path at (300, 3, 1), where about 60
        # counts per draw fall below the floor, with a cap of
        # int(sqrt(300)) = 17 draws
        monkeypatch.setattr(md, "degree_vector_path",
                            lambda n, m, k: "multinomial")
        monkeypatch.setattr(md, "_CAP_PER_ROOT_N", 1.0)
        rec = hn.run_trial(ModelParams.make(300, 3.0, 1), 9)
        assert rec.outcome == "failure:sample"
        assert "min >= 2 in 17 attempts" in rec.detail
        assert rec.seed == 9 and rec.cert_digest is None

    @pytest.mark.parametrize("name, phase", [
        ("eliminate_small_cycles", "phase2"), ("merge_patch", "phase3")])
    def test_failure_carries_cover_index(self, name, phase, monkeypatch):
        # phase 2 or phase 3 of the second cover gives up: the failure
        # names cover 1.  The host is drawn apart from the sampler, and
        # its first cover passes phases 2 and 3 on stream 0
        sd = tail_ordered_host(600, 40.0, 2, 0)
        real = getattr(hn, name)
        calls = []

        def second_call_fails(*args, **kwargs):
            calls.append(name)
            if len(calls) == 2:
                raise PhaseFailure(phase, "stub")
            return real(*args, **kwargs)

        monkeypatch.setattr(hn, name, second_call_fails)
        params = ModelParams.from_nmk(sd.n, sd.m, sd.k)
        with pytest.raises(PhaseFailure) as info:
            hn.run_pipeline(params, rng_stream(0), sd=sd)
        assert len(calls) == 2 and info.value.index == 1
        assert f"{phase}[i=1]" in str(info.value)

    def test_every_tag_is_driven(self):
        assert {f"failure:{spec[2]}" for spec in FAILURE_CASES.values()} \
            == set(FAILURE_TAGS)
        assert len(set(FAILURE_TAGS)) == len(FAILURE_TAGS)


def test_booster_built_cover(monkeypatch):
    # at the phase-2 and phase-3 failure cases' host point, with the
    # first matching two short, boosters build the cover: one report,
    # perfect, that consumed every booster offered; the cover's edges
    # come from G_i and Ê_{2,i}, and the trial gets past phase 1
    # without breaking an invariant
    sd = failure_host(600, 30.0, 1)
    params = ModelParams.from_nmk(sd.n, sd.m, sd.k)
    offered, reports, supply, pms = [], [], [], []
    real_build = hn.build_k_matchings

    def recorded(sd, mask, boosters, label):
        offered.append(np.count_nonzero(boosters))
        reports.append(real_booster_augment(sd, mask, boosters, label))
        return reports[-1]

    def build(sd, part, rng, used):
        supply.append(part.reserve(1, 0, used) | part.reserve(2, 0, used))
        pms.extend(real_build(sd, part, rng, used=used))
        return pms

    monkeypatch.setattr(hn, "sample_erased_digraph",
                        lambda params, rng: (sd, 1))
    monkeypatch.setattr(hn, "build_k_matchings", build)
    monkeypatch.setattr(mt, "maximum_matching", short_by_two)
    monkeypatch.setattr(mt, "booster_augment", recorded)
    rec = hn.run_trial(params, 0)
    assert len(reports) == 1 and reports[0].matching.is_perfect()
    assert reports[0].consumed == offered[0] > 0
    assert len(pms) == 1 and supply[0][pms[0].edge_ids].all()
    assert rec.outcome not in ("failure:phase1", "failure:internal")


class TestRunSweep:
    @pytest.fixture
    def grid(self, sweep_cells):
        return dict(cells=sweep_cells([300, 400], [4.0], [1]), trials=3,
                    seed=17)

    def test_summary_shape(self, grid):
        text = hn.run_sweep(**grid)
        rows = sweep_rows(text)
        assert len(rows) == 2
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(hn.CSV_COLUMNS)
        assert len(lines) == 3
        for row in rows:
            assert row["trials"] == "3"
            assert 0 <= int(row["successes"]) <= 3
            assert row["rate"] == f"{int(row['successes']) / 3:.4f}"

    def test_worker_invariance(self, grid):
        a = hn.run_sweep(**grid, workers=1)
        b = hn.run_sweep(**grid, workers=2)
        assert a == b

    def test_repeat_identical(self, grid):
        a = hn.run_sweep(**grid)
        b = hn.run_sweep(**grid)
        assert a == b

    def test_pool_capped_by_trials_and_cpus(self, monkeypatch, sweep_cells):
        # a pool launches every worker at its first submit, so the cap
        # is what keeps a large --workers from forking that many; the
        # stand-in pool records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(hn, "ProcessPoolExecutor", SerialPool)
        grid = dict(cells=sweep_cells([300], [4.0], [1]), trials=4, seed=17)
        serial = hn.run_sweep(**grid)
        for cpus, workers, size in ((3, 5000, 3), (64, 5000, 4),
                                    (64, 2, 2), (None, 5000, None)):
            monkeypatch.setattr(hn.os, "cpu_count", lambda: cpus)
            sizes.clear()
            assert hn.run_sweep(**grid, workers=workers) == serial
            assert sizes == ([] if size is None else [size])

    def test_trial_seeds_derived_per_cell(self):
        s00 = derive_seed(17, 0, 0)
        s01 = derive_seed(17, 0, 1)
        s10 = derive_seed(17, 1, 0)
        assert len({s00, s01, s10}) == 3

    def test_failure_histogram_totals(self, sweep_cells):
        [row] = sweep_rows(hn.run_sweep(sweep_cells([60], [4.0], [1]),
                                        trials=4, seed=23))
        counted = sum(int(part.split("=")[1])
                      for part in row["failures"].split(";") if part)
        assert int(row["successes"]) + counted == int(row["trials"])

    def test_times_every_trial(self, caplog, sweep_cells):
        # one of this cell's four trials fails in phase 2, and the
        # cell's t50/t90 line reads the times of all four
        with caplog.at_level("INFO", logger="hampack"):
            text = hn.run_sweep(sweep_cells([40], [3.0], [1]), 4, 0)
        assert sweep_rows(text)[0]["failures"] == "phase2=1"
        lines = [r.getMessage() for r in caplog.records
                 if "t50=" in r.getMessage()]
        assert len(lines) == 1
        assert lines[0].startswith("cell n=40 c=3.0 k=1: t50=")
        assert " t90=" in lines[0]


class TestPermCycles:
    def test_lengths_partition_n(self):
        rng = rng_stream(31)
        for _ in range(200):
            lens = hn.permutation_cycle_lengths(50, rng)
            assert sum(lens) == 50
            assert all(l >= 1 for l in lens)

    def test_matches_direct_extraction(self):
        # the sequential-lengths sampler against literally permuting
        n, samples = 9, 4000

        def direct(rng):
            perm = rng.permutation(n)
            seen = np.zeros(n, dtype=bool)
            lens = []
            for s in range(n):
                if seen[s]:
                    continue
                ln = 0
                x = s
                while not seen[x]:
                    seen[x] = True
                    x = perm[x]
                    ln += 1
                lens.append(ln)
            return lens

        rng1, rng2 = rng_stream(32), rng_stream(33)
        a = [hn.permutation_cycle_lengths(n, rng1) for _ in range(samples)]
        b = [direct(rng2) for _ in range(samples)]

        def short_mass(lens_list, s):
            return np.array([sum(l for l in lens if l <= s)
                             for lens in lens_list])

        for s in (1, 3):
            xa, xb = short_mass(a, s), short_mass(b, s)
            se = math.sqrt(xa.var(ddof=1) / samples
                           + xb.var(ddof=1) / samples)
            assert abs(xa.mean() - xb.mean()) < 4 * se
            # the law itself: expected vertex mass on <= s cycles is s
            assert abs(xa.mean() - s) < 4 * math.sqrt(xa.var(ddof=1)
                                                      / samples)
        ca = np.array([len(lens) for lens in a])
        cb = np.array([len(lens) for lens in b])
        se = math.sqrt(ca.var(ddof=1) / samples + cb.var(ddof=1) / samples)
        assert abs(ca.mean() - cb.mean()) < 4 * se

    def test_stats_perm_cycles(self):
        out = hn.stats_perm_cycles(10000, 2000, seed=3)
        assert "schema" not in out  # SCHEMA versions trial data only
        assert abs(out["vertices_on_short_mean"] - 10.0) \
            < 5 * out["vertices_on_short_se"]
        assert abs(out["tricycle_mean"] - 11 / 6) \
            < 5 * out["tricycle_se"]
        assert out["few_cycles_fraction"] >= 0.95


class TestStats:
    def test_rphi_table(self):
        out = hn.stats_rphi(5)
        by_type = {tuple(r["type"]): r["r_phi"] for r in out["rows"]}
        assert by_type == {(5,): 8, (3, 1, 1): 12, (1, 1, 1, 1, 1): 24}
        assert all(r["within"] for r in out["rows"])

    def test_rphi_size_guard(self):
        with pytest.raises(OracleSizeError):
            hn.stats_rphi(11)

    @pytest.mark.parametrize("kappa", [0, 1])
    def test_rphi_needs_two_sections(self, kappa):
        with pytest.raises(ValueError, match="need at least two sections"):
            hn.stats_rphi(kappa)

    def test_odd_partitions(self):
        parts = list(hn._odd_partitions(9))
        assert len(parts) == 8
        assert all(sum(p) == 9 for p in parts)
        assert all(x % 2 == 1 for p in parts for x in p)
        assert (9,) in parts and (3, 3, 3) in parts

    def test_simplicity_rate_fields(self):
        out = hn.stats_simplicity_rate(ModelParams.make(2000, 4.0, 1),
                                       attempts=50, seed=5)
        assert 0.0 <= out["observed_rate"] <= 1.0
        assert out["predicted_rate"] == pytest.approx(
            math.exp(-(out["loop_exponent"]
                       + out["duplicate_exponent"])))
        assert out["duplicate_exponent_second_order"] \
            > out["duplicate_exponent"]

    def test_degree_gof_passes(self):
        out = hn.stats_degree_gof(ModelParams.make(20000, 10.0, 1), seed=3)
        assert out["passed"]
        assert out["p_values"][0] > 0.01

    def test_degree_gof_bins_expect_five(self, monkeypatch):
        # both ends fold: at trial-dense-k2's point most of the raw bins
        # expect far fewer than 5 vertices
        seen = []
        real = hn._chi_square_p

        def capture(observed, expected):
            seen.append(expected)
            return real(observed, expected)

        monkeypatch.setattr(hn, "_chi_square_p", capture)
        out = hn.stats_degree_gof(ModelParams.make(2000, 100.0, 2), seed=3)
        assert seen and all(e.min() >= 5.0 for e in seen)
        assert out["bins"] == len(seen[-1])
        assert sum(seen[-1]) == pytest.approx(2000)

    @pytest.mark.parametrize("point", [(2000, 800.0, 1), (15, 3.0, 1)],
                             ids=["c800", "n15"])
    def test_degree_gof_is_finite(self, point):
        # e^z overflows float64 at z = 800; at n = 15 one bin expects 5
        # or more, and folding into it alone would leave no dof
        out = hn.stats_degree_gof(ModelParams.make(*point), seed=1)
        assert out["bins"] >= 2
        assert all(math.isfinite(p) for p in out["p_values"])

    def test_partition_sizes_clean(self):
        out = hn.stats_partition_sizes(ModelParams.make(2000, 10.0, 2),
                                       runs=20, seed=3)
        assert out["overlap_or_coverage_violations"] == 0
        assert out["worst_abs_deviation_sigmas"] < 4.0

    def test_small_size_report(self):
        out = hn.stats_small_size(ModelParams.make(2000, 20.0, 1), seed=3)
        assert out["threshold"] == 2.5
        assert 0 <= out["small_vertices"] <= 2000
        assert out["small_fraction"] == out["small_vertices"] / 2000

    def test_census_csv(self):
        text = hn.stats_census(ModelParams.make(1000, 8.0, 1), seed=3)
        assert text.splitlines()[0] == "r,s,observed,expected,normalized"

    def test_expansion_clean(self):
        out = hn.stats_expansion(ModelParams.make(2000, 10.0, 1),
                                 samples=100, seed=3)
        assert out["violations"] == []
        assert 0 < out["max_ratio"] < 1


class TestGridParsing:
    def test_round_trip(self):
        assert hn._parse_grid("n=1000,2000;c=20,50;k=1") == \
            ([1000, 2000], [20.0, 50.0], [1])

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            hn._parse_grid("n=10;c=5")

    def test_bad_chunk(self):
        with pytest.raises(ValueError, match="bad grid chunk"):
            hn._parse_grid("n=10;nonsense;k=1")

    @pytest.mark.parametrize("spec, fault", [
        ("n=200;c=8;k=1;q=3", "unknown grid field 'q'"),
        ("n=200;n=300;c=8;k=1", "grid field 'n' given twice"),
        ("n=;c=8;k=1", "grid field 'n' has no values")])
    def test_ignores_no_input(self, spec, fault, capsys):
        # each once ran a grid without the field's input, and exited 0;
        # the message names the subcommand, with no usage line before it
        with pytest.raises(ValueError, match=fault):
            hn._parse_grid(spec)
        assert hn.main(["sweep", "--grid", spec, "--trials", "1"]) == 64
        err = capsys.readouterr().err
        assert err == f"hampack sweep: {fault}\n"


def readme_commands() -> list:
    """Every `hampack ...` line in README's fenced blocks, with backslash
    continuations joined, split as a shell would split it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in text.split("```")[1::2]:
        joined = block.replace("\\\n", " ")
        commands += [shlex.split(line)[1:] for line in joined.splitlines()
                     if line.startswith("hampack ")]
    return commands


def test_readme_commands_parse():
    # parse only: a flag or subcommand the CLI no longer has exits 64
    commands = readme_commands()
    assert len(commands) >= 10
    parser = hn.build_parser()
    for argv in commands:
        parser.parse_args(argv)


class TestCLI:
    def test_sample_round_trip(self, tmp_path):
        out = tmp_path / "host.txt"
        code = hn.main(["sample", "--n", "300", "--c", "4", "--k", "1",
                        "--seed", "2", "--out", str(out)])
        assert code == 0
        sd = read_edge_list(out)
        assert sd.n == 300 and sd.k == 1
        assert sd.min_degree() >= 2

    def test_pack_success(self, capsys, tmp_path):
        seed = derive_seed(11, 0, 0)  # a known-good sweep trial seed
        cert_file = tmp_path / "cert.json"
        code = hn.main(["pack", "--n", "600", "--c", "30", "--k", "1",
                        "--seed", str(seed),
                        "--cert-out", str(cert_file)])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        cycle = [int(v) for v in lines[0].split()]
        assert len(cycle) == 600 and cycle[0] == 0
        # the last line is the trial record, byte for byte
        params = ModelParams.make(600, 30.0, 1)
        assert lines[-1] == hn.run_trial(params, seed).to_json()
        meta = json.loads(lines[-1])
        assert set(meta) == {"schema", "k", "seed", "kappa", "cert_digest",
                             "n", "m", "c", "z", "outcome", "attempts",
                             "phase2_retries", "detail"}
        assert meta["schema"] == 2 and meta["k"] == 1
        assert meta["seed"] == seed and meta["kappa"][0] >= 2
        assert meta["outcome"] == "success" and meta["n"] == 600
        # the digest is of the certificate file, less its final newline
        blob = cert_file.read_bytes()
        assert blob.endswith(b"\n")
        assert hashlib.sha256(blob[:-1]).hexdigest() == meta["cert_digest"]
        doc = json.loads(blob)
        assert doc["k"] == 1 and doc["cycles"][0] == cycle

    def test_pack_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "host.txt"
        with path.open("w") as fh:
            write_edge_list(hall_violator_host(), fh)
        code = hn.main(["pack", "--in", str(path), "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 2
        assert "failure:" in captured.err

    def test_pack_needs_model_or_file(self, capsys):
        assert hn.main(["pack", "--seed", "1"]) == 64
        assert capsys.readouterr().err == \
            "hampack pack: pack needs --in or all of --n --c --k\n"

    def test_pack_in_refuses_n_and_c(self, capsys, tmp_path):
        # the file sets n and c, so --n and --c would be ignored; --k is
        # the documented override and stays
        path = tmp_path / "ring.txt"
        path.write_text("3 3 1\n0 1\n1 2\n2 0\n")
        for extra in (["--n", "999", "--c", "50"], ["--n", "3"],
                      ["--c", "1"]):
            assert hn.main(["pack", "--in", str(path), *extra]) == 64
            assert capsys.readouterr().err == "hampack pack: --in takes " \
                "n and c from the file: drop --n, --c\n"
        assert hn.main(["pack", "--in", str(path), "--k", "1"]) == 0

    def test_sweep_to_file(self, tmp_path, sweep_cells):
        out = tmp_path / "sweep.csv"
        code = hn.main(["sweep", "--grid", "n=300;c=4;k=1",
                        "--trials", "2", "--seed", "17",
                        "--out", str(out)])
        assert code == 0
        direct = hn.run_sweep(sweep_cells([300], [4.0], [1]), 2, 17)
        assert out.read_text() == direct

    def test_oracle_paths(self, capsys, tmp_path):
        ring = tmp_path / "ring.txt"
        ring.write_text("5 5 1\n0 1\n1 2\n2 3\n3 4\n4 0\n")
        assert hn.main(["oracle", "--in", str(ring), "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0 1 2 3 4"
        assert hn.main(["oracle", "--in", str(ring), "--k", "2"]) == 2
        big = tmp_path / "big.txt"
        rows = [f"{v} {(v + 1) % 10}" for v in range(10)]
        big.write_text("10 10 1\n" + "\n".join(rows) + "\n")
        assert hn.main(["oracle", "--in", str(big), "--k", "1"]) == 64

    @staticmethod
    def exit_code(argv) -> int:
        """main's exit status, whether returned or raised by argparse."""
        try:
            return hn.main(argv)
        except SystemExit as exc:
            return exc.code

    def test_module_entry_point(self):
        # `python -m hampack` runs the CLI from a checkout, without the
        # runpy warning `python -m hampack.harness` prints
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "hampack", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0 and "usage: hampack" in done.stdout
        assert "RuntimeWarning" not in done.stderr

    def test_usage_errors_exit_64(self, capsys, tmp_path):
        # phase 3 has one driver, so its old mode flag is a usage error
        for argv in ([], ["bogus"], ["stats", "bogus"],
                     ["pack", "--n", "300", "--c", "4", "--k", "1",
                      "--tau-mode", "merge"],
                     ["sweep", "--grid", "n=300;c=4;k=1", "--trials", "1",
                      "--tau-mode", "merge"]):
            with pytest.raises(SystemExit) as exc:
                hn.main(argv)
            assert exc.value.code == 64
        # model parameters ModelParams refuses, and counts below their
        # floor: a message naming the command and the reason, no traceback
        model = ["--n", "10", "--c", "0.5", "--k", "1"]
        for argv, fragment in (
                (["pack", *model], "requires c > k+1"),
                (["sample", *model, "--out", str(tmp_path / "h.txt")],
                 "requires c > k+1"),
                (["stats", "small-size", "--n", "100", "--c", "1.5",
                  "--k", "1"], "requires c > k+1"),
                (["stats", "census", *model], "requires c > k+1"),
                (["pack", "--n", "10", "--c", "4.05", "--k", "1"],
                 "not an integer"),
                (["sweep", "--grid", "n=10;c=4", "--trials", "1"],
                 "grid is missing ['k']"),
                (["sweep", "--grid", "n=0;c=4;k=1", "--trials", "1"],
                 "n must be >= 1"),
                (["sweep", "--grid", "n=100;c=4,1.5;k=1", "--trials", "1"],
                 "requires c > k+1"),
                (["pack", "--n", "0", "--c", "4", "--k", "1"], "--n"),
                (["pack", "--n", "10", "--c", "4", "--k", "0"], "--k"),
                (["stats", "rphi", "--kappa", "1"], "--kappa"),
                (["sweep", "--grid", "n=300;c=4;k=1", "--trials", "1",
                  "--workers", "0"], "--workers"),
                (["stats", "perm-cycles", "--n", "10", "--samples", "0"],
                 "--samples"),
                (["stats", "perm-cycles", "--n", "10", "--samples", "1"],
                 "--samples"),
                (["stats", "perm-cycles", "--n", "10", "--short", "0"],
                 "--short"),
                (["stats", "simplicity-rate", "--n", "100", "--c", "4",
                  "--k", "1", "--attempts", "0"], "--attempts"),
                (["stats", "degree-gof", "--n", "100", "--c", "4", "--k",
                  "1", "--reseeds", "-1"], "--reseeds"),
                (["oracle", "--in", str(tmp_path / "h.txt"), "--k", "0"],
                 "--k"),
                (["oracle", "--in", str(tmp_path / "h.txt"), "--k", "-1"],
                 "--k")):
            assert self.exit_code(argv) == 64, argv
            err = capsys.readouterr().err
            cmd = " ".join(argv[:2] if argv[0] == "stats" else argv[:1])
            assert f"hampack {cmd}:" in err and fragment in err, argv
            assert "Traceback" not in err

    def test_bad_host_file_exits_64(self, capsys, tmp_path):
        headerless = tmp_path / "bad.txt"
        headerless.write_text("0 1\n1 2\n2 0\n")
        letter = tmp_path / "letter.txt"
        letter.write_text("3 1 1\n1 x\n")
        no_vertex = tmp_path / "n0.txt"
        no_vertex.write_text("0 0 1\n")
        no_cycle = tmp_path / "k0.txt"
        no_cycle.write_text("3 3 0\n0 1\n1 2\n2 0\n")
        ring = tmp_path / "ring.txt"
        ring.write_text("3 3 1\n0 1\n1 2\n2 0\n")
        huge_m = tmp_path / "huge_m.txt"  # m no memory could hold
        huge_m.write_text("5 10000000000000 1\n0 1\n")
        for argv in (["oracle", "--in", str(headerless), "--k", "1"],
                     ["oracle", "--in", str(huge_m), "--k", "1"],
                     ["pack", "--in", str(huge_m), "--seed", "1"],
                     ["pack", "--in", str(headerless), "--seed", "1"],
                     ["pack", "--in", str(letter), "--seed", "1"],
                     ["pack", "--in", str(no_vertex), "--seed", "1"],
                     ["pack", "--in", str(no_cycle), "--seed", "1"],
                     ["pack", "--in", str(ring), "--k", "0"],
                     ["oracle", "--in", str(tmp_path / "absent.txt"),
                      "--k", "1"]):
            assert self.exit_code(argv) == 64, argv
            assert "hampack" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "300", "--c", "4", "--k", "1", "--out"],
        ["sweep", "--grid", "n=300;c=4;k=1", "--trials", "2", "--out"],
        ["pack", "--n", "600", "--c", "30", "--k", "1", "--seed",
         str(derive_seed(11, 0, 0)), "--cert-out"]],
        ids=["sample", "sweep", "pack"])
    def test_unwritable_output_exits_64(self, argv, capsys, tmp_path,
                                        monkeypatch):
        # an output in a missing directory is a usage error, as an
        # unreadable input is: sweep opens it before its first trial, and
        # pack (whose trial packs) before it prints a cycle
        trials = []
        real = hn.run_trial

        def counted(*args, **kwargs):
            trials.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(hn, "run_trial", counted)
        path = str(tmp_path / "missing" / "out.txt")
        assert hn.main([*argv, path]) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"hampack {argv[0]}: ")
        assert path in err and len(trials) == (argv[0] == "pack")

    def test_sample_opens_out_before_sampling(self, monkeypatch, tmp_path):
        # a path that cannot be written costs no sample
        calls = []
        monkeypatch.setattr(hn, "sample_erased_digraph",
                            lambda *args: calls.append(args))
        path = str(tmp_path / "missing" / "h.txt")
        assert hn.main(["sample", "--n", "300", "--c", "4", "--k", "1",
                        "--out", path]) == 64
        assert calls == []

    def test_huge_n_header_exits_64(self, capsys, tmp_path):
        # more vertices than edge lines: refused before any n-long array
        # is made
        path = tmp_path / "huge.txt"
        path.write_text("3037000500 1 1\n0 1\n")
        assert self.exit_code(["pack", "--in", str(path), "--seed", "1"]) \
            == 64
        assert capsys.readouterr().err == "hampack pack: 3037000500 " \
            "vertices but only 1 edge lines\n"

    @pytest.mark.parametrize("header_k, argv, k", [
        ("99999999999999999999999", [], "99999999999999999999999"),
        ("1", ["--k", "4611686018427387904"], "4611686018427387904"),
        ("1", ["--k", "2"], "2")],
        ids=["header-k", "huge-k", "k2-triangle"])
    def test_k_above_m_over_n_exits_64(self, header_k, argv, k, capsys,
                                       tmp_path):
        # k edge-disjoint Hamilton cycles need k*n edges: a larger k is
        # refused before the pools are labelled or any array is sized by it
        path = tmp_path / "triangle.txt"
        path.write_text(f"3 3 {header_k}\n0 1\n1 2\n2 0\n")
        assert hn.main(["pack", "--in", str(path), *argv]) == 64
        assert capsys.readouterr().err == (
            f"hampack pack: k={k} edge-disjoint Hamilton cycles on n=3 "
            f"vertices need k*n={3 * int(k)} edges, but m=3\n")

    def test_thin_host_names_its_deficiency(self, capsys, tmp_path):
        # vertices 1 and 2 each send their one edge into 0, so matchings
        # fall one short; every edge is small, so none is a booster
        path = tmp_path / "thin.txt"
        path.write_text("3 3 1\n0 1\n1 0\n2 0\n")
        assert hn.main(["pack", "--in", str(path), "--k", "1"]) == 2
        assert capsys.readouterr().err == \
            "failure:phase1: deficiency 1 after 0 boosters\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "20", "--c", "15", "--k", "1", "--host", "exact"],
        ["stats", "census", "--n", "200", "--c", "2.5", "--k", "1"]],
        ids=["sample", "stats"])
    def test_sampler_failure_exits_2(self, argv, capsys, tmp_path,
                                     monkeypatch):
        # the real samplers, with caps small enough to give up at once:
        # a message naming the command, exit 2, no traceback
        monkeypatch.setattr(hn, "sample_simple_digraph", functools.partial(
            md.sample_simple_digraph, cap=20))
        monkeypatch.setattr(hn, "sample_erased_digraph", functools.partial(
            md.sample_erased_digraph, cap=1))
        if argv[0] == "sample":
            argv = [*argv, "--out", str(tmp_path / "h.txt")]
        assert hn.main(argv) == 2
        err = capsys.readouterr().err
        cmd = " ".join(argv[:2] if argv[0] == "stats" else argv[:1])
        assert f"hampack {cmd}:" in err and "Traceback" not in err
        assert ("rejection stall" if argv[0] == "sample"
                else "erasure broke") in err

    def test_stats_cli_json(self, capsys):
        code = hn.main(["stats", "rphi", "--kappa", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["r_phi"] in (1, 2)

    def test_stats_rphi_oversize_exit(self, capsys):
        assert hn.main(["stats", "rphi", "--kappa", "12"]) == 64

    @pytest.mark.parametrize("argv", [
        ["simplicity-rate", "--n", "200", "--c", "4", "--k", "1",
         "--attempts", "5", "--seed", "1"],
        ["degree-gof", "--n", "500", "--c", "8", "--k", "1",
         "--reseeds", "0", "--seed", "1"],
        ["partition-sizes", "--n", "200", "--c", "8", "--k", "2",
         "--runs", "3", "--seed", "1"],
        ["small-size", "--n", "200", "--c", "8", "--k", "1", "--seed", "1"],
        ["perm-cycles", "--n", "100", "--samples", "20", "--seed", "1"],
        ["rphi", "--kappa", "4"],
        ["expansion", "--n", "200", "--c", "8", "--k", "1",
         "--samples", "10", "--seed", "1"]], ids=lambda argv: argv[0])
    def test_stats_json_subcommands(self, argv, capsys):
        # one JSON object per run; SCHEMA versions trial data, not these
        assert hn.main(["stats", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert isinstance(doc, dict) and "schema" not in doc

    def test_stats_census_floats(self, capsys):
        assert hn.main(["stats", "census", "--n", "200", "--c", "20",
                        "--k", "1", "--seed", "1"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows and list(rows[0]) == ["r", "s", "observed", "expected",
                                          "normalized"]
        # every host degree is >= k+1, so every cell expects some mass,
        # however small: none may print as 0
        assert all(float(r["expected"]) > 0 for r in rows)
        assert all(float(r["normalized"]) >= 0 for r in rows)
