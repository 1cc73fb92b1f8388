import importlib
import json
from pathlib import Path

import pytest

import tracer
import workload

ROOT = Path(__file__).resolve().parents[2]
SPECS = {
    "trial": {"kind": "trial", "n": 1000, "c": 60, "k": 2},
    "pack": {"kind": "pack", "n": 2000, "c": 20, "k": 1},
}


@pytest.fixture(scope="module")
def hp():
    return workload.import_hampack(ROOT)


def test_self_time_subtracts_children():
    rec = tracer.Recorder()
    rec.spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
                 ["c", 5.0, 6.0, 0, 0], ["b", 7.0, 8.0, 0, 0]]
    tot = rec.totals()
    assert tot["a"] == {"s": 10.0, "self_s": 5.0, "calls": 1}
    assert tot["b"] == {"s": 4.0, "self_s": 4.0, "calls": 2}


def test_bound_wraps_and_restores_every_name(hp):
    mods = [importlib.import_module(f"hampack.{m}") for m, *_ in tracer.BINDINGS]
    before = [getattr(mod, b[1]) for mod, b in zip(mods, tracer.BINDINGS)]
    with pytest.raises(KeyboardInterrupt):
        with tracer.bound(tracer.Recorder()):
            for mod, b, orig in zip(mods, tracer.BINDINGS, before):
                assert getattr(mod, b[1]) is not orig
            raise KeyboardInterrupt
    for mod, b, orig in zip(mods, tracer.BINDINGS, before):
        assert getattr(mod, b[1]) is orig


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_traced_passes_repeat_the_untraced_records(hp, kind):
    wl = workload.Workload(SPECS[kind], 3, hp)
    seeds = workload.trial_seeds(3, 2)
    plain = [wl.trial(s) for s in seeds]
    assert all(r["outcome"] == "success" and r["check"] is None for r in plain)
    recs = []
    for _ in range(2):
        rec = tracer.Recorder()
        with tracer.bound(rec):
            traced = []
            for i, s in enumerate(seeds):
                rec.trial = i
                traced.append(wl.trial(s, rec))
        assert workload.same_records(plain, traced) == []
        recs.append(rec)
    assert recs[0].counts == recs[1].counts
    calls = [{k: v["calls"] for k, v in r.totals().items()} for r in recs]
    assert calls[0] == calls[1]
    assert calls[0]["trial"] == len(seeds)


def test_benchmark_json_names_every_workload_and_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    rec = tracer.Recorder()
    rec.close(rec.open("trial"))
    names = list(workload.layer_metrics(rec, 1, 1.0, 1.0))
    assert [m["name"] for m in spec["per_layer"]] == names
