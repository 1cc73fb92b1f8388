"""Verifier correctness against naive recheckers, plus the diagnostics."""

import csv
import io
import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from hampack import verify as vf
from hampack.cover import PermutationDigraph
from hampack.errors import OracleSizeError
from hampack.model import (
    ModelParams,
    SimpleDigraph,
    TruncatedPoisson,
    pair_configuration,
    sample_degree_sequence,
    sample_erased_digraph,
)
from hampack.rng import rng_stream


def complete_digraph(n):
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    return SimpleDigraph(n, np.array(edges, dtype=np.int64), k=1)


def ring_digraph(n):
    edges = [(v, (v + 1) % n) for v in range(n)]
    return SimpleDigraph(n, np.array(edges, dtype=np.int64), k=0)


def random_digraph(rng, n, p):
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    edges = np.argwhere(mask).astype(np.int64)
    return SimpleDigraph(n, edges, k=0)


def naive_hamilton(sd, cyc):
    """Set-based recheck, built independently of the array routine."""
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


class TestVerifyHamilton:
    def test_ring_accepts_itself(self):
        sd = ring_digraph(7)
        assert vf.verify_hamilton(sd, np.arange(7))
        # any rotation works too
        assert vf.verify_hamilton(sd, np.roll(np.arange(7), 3))

    def test_reason_codes(self):
        sd = ring_digraph(5)
        assert vf.verify_hamilton(sd, [0, 1, 2, 3]).reason == "length"
        assert vf.verify_hamilton(sd, [0, 1, 2, 3, 9]).reason == "range"
        assert vf.verify_hamilton(sd, [0, 1, 2, 3, 3]).reason == "repeat"
        assert vf.verify_hamilton(sd, [0, 2, 1, 3, 4]).reason == "non-edge"
        assert vf.verify_hamilton(sd, np.arange(5)).reason == "ok"

    def test_reversed_ring_rejected(self):
        sd = ring_digraph(6)
        assert not vf.verify_hamilton(sd, np.arange(6)[::-1])

    def test_missing_closing_edge(self):
        # path 0->1->2->3 plus chords, but no edge back to 0
        edges = np.array([(0, 1), (1, 2), (2, 3), (3, 1), (1, 3)],
                         dtype=np.int64)
        sd = SimpleDigraph(4, edges, k=0)
        chk = vf.verify_hamilton(sd, [0, 1, 2, 3])
        assert not chk and chk.reason == "non-edge"

    def test_agrees_with_naive_recheck(self):
        rng = rng_stream(41)
        agree = 0
        for trial in range(300):
            n = int(rng.integers(3, 8))
            sd = random_digraph(rng, n, 0.5)
            kind = trial % 4
            if kind == 0:
                seq = rng.permutation(n)
            elif kind == 1:
                seq = rng.integers(0, n, size=n)  # may repeat
            elif kind == 2:
                seq = rng.permutation(n)[:max(1, n - 1)]  # short
            else:
                seq = rng.permutation(n)
                seq[0] = n + 2  # out of range
            got = bool(vf.verify_hamilton(sd, seq))
            assert got == naive_hamilton(sd, seq)
            agree += 1
        assert agree == 300


class TestCertificateDict:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.integers(0, 1 << 40), max_size=30),
        st.lists(st.integers(0, 1 << 40), max_size=30)), max_size=4),
        st.sampled_from(["ndarray", "ints", "numpy ints"]),
        st.sampled_from([None, [True, False]]))
    def test_as_dict_equals_per_element_form(self, rows, form, flags):
        def as_form(xs):
            if form == "ndarray":
                return np.array(xs, dtype=np.int64)
            return [np.int64(x) for x in xs] if form == "numpy ints" else xs
        cert = vf.PackingCertificate(
            cycles=[as_form(c) for c, _ in rows],
            edge_ids=[as_form(e) for _, e in rows], flags=flags)
        old = {"k": cert.k,
               "cycles": [[int(v) for v in cyc] for cyc in cert.cycles],
               "edge_ids": [[int(e) for e in ids] for ids in cert.edge_ids],
               "flags": flags}
        got = cert.as_dict()
        assert got == old
        assert all(type(x) is int for part in ("cycles", "edge_ids")
                   for xs in got[part] for x in xs)
        assert json.dumps(got, sort_keys=True) == json.dumps(old,
                                                             sort_keys=True)


class TestVerifyPacking:
    def test_two_orientations_of_triangle(self):
        sd = complete_digraph(3)
        cert = vf.PackingCertificate(
            cycles=[np.array([0, 1, 2]), np.array([0, 2, 1])],
            edge_ids=[np.array([0, 0, 0]), np.array([0, 0, 0])])
        assert vf.verify_packing(sd, cert)
        assert cert.flags == [True, True]

    def test_shared_edges_rejected(self):
        sd = complete_digraph(3)
        cert = vf.PackingCertificate(
            cycles=[np.array([0, 1, 2]), np.array([1, 2, 0])],
            edge_ids=[np.zeros(3, dtype=np.int64)] * 2)
        chk = vf.verify_packing(sd, cert)
        assert not chk and chk.reason == "shared edge"

    def test_bad_cycle_named(self):
        sd = complete_digraph(3)
        cert = vf.PackingCertificate(
            cycles=[np.array([0, 1, 1]), np.array([0, 2, 1])],
            edge_ids=[np.zeros(3, dtype=np.int64)] * 2)
        chk = vf.verify_packing(sd, cert)
        assert not chk
        assert chk.reason == "cycle 0: repeat"
        assert cert.flags == [False, True]

    def test_disjointness_ignores_edge_id_claims(self):
        # honest cycles, nonsense ids: the verdict must not change
        sd = complete_digraph(4)
        seqs = [np.array([0, 1, 2, 3]), np.array([0, 3, 2, 1])]
        wrong = [np.full(4, 5, dtype=np.int64)] * 2
        assert vf.verify_packing(
            sd, vf.PackingCertificate(cycles=seqs, edge_ids=wrong))

    def test_certificate_from_covers(self):
        sd = complete_digraph(4)

        def as_cover(seq):
            succ = np.empty(4, dtype=np.int64)
            eids = np.empty(4, dtype=np.int64)
            for a, b in zip(seq, np.roll(seq, -1)):
                succ[a] = b
                eids[a] = sd.edge_lookup(int(a), int(b))
            return PermutationDigraph(succ, eids)

        covers = [as_cover(np.array([0, 1, 2, 3])),
                  as_cover(np.array([0, 3, 2, 1]))]
        cert = vf.certificate_from_covers(sd, covers)
        assert vf.verify_packing(sd, cert)
        for cyc, ids in zip(cert.cycles, cert.edge_ids):
            assert cyc[0] == 0
            pairs = sd.edges[ids]
            assert (pairs[:, 0] == cyc).all()
            assert (pairs[:, 1] == np.roll(cyc, -1)).all()

    def test_multi_cycle_cover_refused(self):
        sd = complete_digraph(4)
        succ = np.array([1, 0, 3, 2], dtype=np.int64)
        eids = np.array([sd.edge_lookup(0, 1), sd.edge_lookup(1, 0),
                         sd.edge_lookup(2, 3), sd.edge_lookup(3, 2)])
        with pytest.raises(ValueError, match="single cycle"):
            vf.certificate_from_covers(sd, [PermutationDigraph(succ, eids)])

    def test_as_dict_round_trip(self):
        sd = complete_digraph(3)
        cert = vf.PackingCertificate(
            cycles=[np.array([0, 1, 2])], edge_ids=[np.array([0, 2, 4])])
        vf.verify_packing(sd, cert)
        d = cert.as_dict()
        assert d["k"] == 1 and d["cycles"] == [[0, 1, 2]]
        assert d["flags"] == [True]


@pytest.fixture(scope="module")
def census_host():
    params = ModelParams.make(20000, 10.0, 1)
    sd, _ = sample_erased_digraph(params, rng_stream(606, 0))
    return params, sd


def census_rows(text):
    """degree_census's CSV read back, one typed dict per line."""
    return [{"r": int(d["r"]), "s": int(d["s"]),
             "observed": int(d["observed"]), "expected": float(d["expected"]),
             "normalized": float(d["normalized"])}
            for d in csv.DictReader(io.StringIO(text))]


class TestDegreeCensus:
    def fake_params(self):
        return ModelParams.make(3, 3.0, 1)

    def test_matches_direct_count(self):
        sd = complete_digraph(4)
        rows = census_rows(vf.degree_census(sd, self.fake_params()))
        direct = Counter((int(r), int(s))
                         for r, s in zip(sd.in_deg, sd.out_deg))
        got = {(row["r"], row["s"]): row["observed"] for row in rows
               if row["observed"]}
        assert got == dict(direct)

    def test_cells_sum_to_n(self, census_host):
        params, sd = census_host
        rows = census_rows(vf.degree_census(sd, params))
        assert sum(row["observed"] for row in rows) == sd.n

    def test_invariant_under_edge_reorder(self, census_host):
        params, sd = census_host
        rng = rng_stream(607)
        shuffled = SimpleDigraph(
            sd.n, sd.edges[rng.permutation(sd.m)], k=params.k)
        a = vf.degree_census(sd, params)
        b = vf.degree_census(shuffled, params)
        assert a == b

    def test_expected_formula(self):
        params = ModelParams.make(1000, 5.0, 1)
        z = params.z
        sd = complete_digraph(4)  # degrees (3,3) everywhere
        rows = census_rows(vf.degree_census(sd, params))
        cell = {(r["r"], r["s"]): r for r in rows}[(3, 3)]
        pmf3 = scipy.stats.poisson.pmf(3, z) / scipy.stats.poisson.sf(1, z)
        want = 4 * pmf3 ** 2
        assert cell["expected"] == pytest.approx(want)
        assert cell["normalized"] == pytest.approx(
            abs(4 - want) / ((1 + math.sqrt(want)) * math.log(4)))

    def test_dense_point(self):
        # trial-dense-k2's point: z^(r+s) and r! s! overflow a float
        # here, the product of two pmfs does not
        params = ModelParams.make(2000, 100.0, 2)
        sd, _ = sample_erased_digraph(params, rng_stream(614))
        rows = census_rows(vf.degree_census(sd, params))
        assert sum(row["observed"] for row in rows) == sd.n
        # cells past the largest degrees seen hold the rest of n
        assert sum(row["expected"] for row in rows) == pytest.approx(
            sd.n, rel=0.01)
        assert max(row["normalized"] for row in rows) <= 20.0

    def test_conditioned_host_within_band(self, census_host):
        params, sd = census_host
        rows = census_rows(vf.degree_census(sd, params))
        assert max(row["normalized"] for row in rows) <= 20.0

    def test_accepts_configuration(self):
        params = ModelParams.make(500, 4.0, 1)
        out_deg, in_deg, in_slots = sample_degree_sequence(params,
                                                           rng_stream(608))
        tails, heads = pair_configuration(out_deg, in_deg, rng_stream(609),
                                          in_slots)
        # the pairing's own degree vectors, loops and repeats included
        cd = SimpleNamespace(out_deg=np.bincount(tails, minlength=500),
                             in_deg=np.bincount(heads, minlength=500))
        assert np.array_equal(cd.out_deg, out_deg)
        assert np.array_equal(cd.in_deg, in_deg)
        rows = census_rows(vf.degree_census(cd, params))
        assert sum(row["observed"] for row in rows) == 500

    def test_csv_shape(self):
        sd = complete_digraph(4)
        text = vf.degree_census(sd, self.fake_params())
        lines = text.strip().splitlines()
        assert lines[0] == "r,s,observed,expected,normalized"
        assert len(lines) >= 2

    def test_csv_lines_end_in_newline(self):
        # as the sweep CSV's do: no "\r" before them
        text = vf.degree_census(complete_digraph(4), self.fake_params())
        assert "\r" not in text and text.endswith("\n")

    def test_csv_floats_read_back(self):
        # at trial-dense-k2's point many cells expect between 1e-12 and
        # 5e-7 vertices, which a fixed six decimals would print as 0
        params = ModelParams.make(2000, 100.0, 2)
        sd, _ = sample_erased_digraph(params, rng_stream(614))
        rows = census_rows(vf.degree_census(sd, params))
        pmf = TruncatedPoisson(params.z, params.k).pmf
        logn = math.log(sd.n)
        tiny = 0
        for row in rows:
            exp = sd.n * pmf(row["r"]) * pmf(row["s"])
            assert row["expected"] == exp
            assert row["normalized"] == abs(row["observed"] - exp) / (
                (1.0 + math.sqrt(exp)) * logn)
            tiny += 1e-12 <= row["expected"] < 5e-7
        assert tiny > 0


class TestExpansionCheck:
    def test_no_violations_on_conditioned_host(self, census_host):
        params, sd = census_host
        rep = vf.expansion_check(sd, params, 200, rng_stream(610))
        assert rep["samples"] == 200
        assert rep["violations"] == []
        assert 0 < rep["max_ratio"] < 1

    def test_detects_dense_sets(self):
        # complete digraph checked against a sparse model point: every
        # singleton has degree n-1, far above eta*log(n)
        sd = complete_digraph(12)
        params = ModelParams.make(12, 2.5, 1)
        rep = vf.expansion_check(sd, params, 10, rng_stream(611))
        assert rep["violations"]
        v = rep["violations"][0]
        assert v["size"] == 1 and v["degree"] == 11
        assert v["degree"] > v["bound"]

    def test_violations_recheck(self):
        sd = complete_digraph(12)
        params = ModelParams.make(12, 2.5, 1)
        rep = vf.expansion_check(sd, params, 10, rng_stream(611))
        for v in rep["violations"]:
            deg = sd.out_deg if v["side"] == "out" else sd.in_deg
            assert deg[v["vertices"]].sum() > v["bound"]

    def test_bound_at_half_n(self):
        params = ModelParams.make(12, 2.5, 1)
        sd = complete_digraph(12)
        rep = vf.expansion_check(sd, params, 50, rng_stream(612))
        eta = math.e * params.z
        half = [v for v in rep["violations"] if v["size"] == 6]
        assert half, "size n/2 must appear in the grid"
        assert half[0]["bound"] == pytest.approx(eta * 6 * math.log(2))

    def test_deterministic(self, census_host):
        params, sd = census_host
        a = vf.expansion_check(sd, params, 50, rng_stream(613))
        b = vf.expansion_check(sd, params, 50, rng_stream(613))
        assert a["max_ratio"] == b["max_ratio"]
        assert a["samples"] == b["samples"]


class TestBruteForce:
    def test_triangle_two_orientations(self):
        cert = vf.brute_force_packing(complete_digraph(3), 2)
        assert cert is not None
        assert vf.verify_packing(complete_digraph(3), cert)

    def test_ring_has_no_second_cycle(self):
        assert vf.brute_force_packing(ring_digraph(6), 2) is None

    def test_ring_single(self):
        cert = vf.brute_force_packing(ring_digraph(6), 1)
        assert cert is not None
        assert list(cert.cycles[0]) == list(range(6))

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            vf.brute_force_packing(complete_digraph(10), 1)

    def test_edge_ids_match_pairs(self):
        sd = complete_digraph(5)
        cert = vf.brute_force_packing(sd, 3)
        assert cert is not None
        for cyc, ids in zip(cert.cycles, cert.edge_ids):
            pairs = sd.edges[ids]
            assert (pairs[:, 0] == cyc).all()
            assert (pairs[:, 1] == np.roll(cyc, -1)).all()

    def test_complete_digraph_packs_n_minus_one(self):
        # K5 decomposes into 4 Hamilton cycles; a 5th is impossible
        sd = complete_digraph(5)
        assert vf.brute_force_packing(sd, 4) is not None
        assert vf.brute_force_packing(sd, 5) is None

    def test_certificates_always_verify(self):
        rng = rng_stream(42)
        found = 0
        for _ in range(60):
            n = int(rng.integers(3, 8))
            sd = random_digraph(rng, n, 0.45)
            k = int(rng.integers(1, 3))
            cert = vf.brute_force_packing(sd, k)
            if cert is not None:
                assert vf.verify_packing(sd, cert)
                found += 1
        assert found >= 10  # density keeps a healthy share feasible
