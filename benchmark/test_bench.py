"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from dpv.groebner import Inconclusive  # noqa: E402


def small_request(workload: str, n: int, **fields) -> dict:
    request = inputs.make_inputs(workload, 7)
    request["ops"] = sorted(request["ops"], key=lambda s: s["pool_index"])[:n]
    request.update(trace=False, check=True, full_check=[s["pool_index"] for s in request["ops"]])
    request.update(fields)
    return request


def bindings() -> dict:
    out = {}
    for ns in tracer._dpv_namespaces():
        for key, value in vars(ns).items():
            if callable(value):
                out[(id(ns), key)] = value
    return out


def test_tracer_restores_every_binding():
    before = bindings()
    t = tracer.Tracer()
    t.install()
    assert getattr(passrun.groebner.buchberger, "_bench_traced", False)
    assert getattr(sys.modules["dpv.scheme"].normal_form, "_bench_traced", False)
    passrun.ideal_pass("sweep", [passrun.Op(s) for s in small_request("sweep", 5)["ops"]],
                       t.clock, t)
    t.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "_bench_traced", False) for v in after.values())


def test_traced_and_untraced_passes_agree():
    def outputs(res):
        return [(r["i"], r["status"], r.get("basis"), r.get("nf"), r.get("dims")) for r in res["ops"]]

    for workload, n in (("sweep", 40), ("fp-ideals", 1)):
        plain = passrun.run(small_request(workload, n))
        traced = passrun.run(small_request(workload, n, trace=True))
        assert outputs(plain) == outputs(traced)
        assert plain["work_units"] == traced["work_units"]
        layers = traced["layers"]
        total = sum(v for k, v in layers.items() if k.endswith(".self_s")) + layers["trace.harness_s"]
        assert total == pytest.approx(layers["trace.pass_s"], abs=1e-9)


def test_raising_and_inconclusive_ops_are_counted(monkeypatch):
    request = small_request("sweep", 6)
    ops = [passrun.Op(s) for s in request["ops"]]
    real = passrun.OP_FUNCS["sweep"]

    def flaky(op, clock):
        if op.index == ops[0].index:
            raise RuntimeError("boom")
        if op.index == ops[1].index:
            raise Inconclusive("work budget exceeded")
        return real(op, clock)

    monkeypatch.setitem(passrun.OP_FUNCS, "sweep", flaky)
    wall, raw = passrun.ideal_pass("sweep", ops, passrun.time.perf_counter, None)
    res = {"wall": wall, "rss_mb": 1.0, "work_units": 0, **passrun.ideal_records(raw, True, set())}
    r = run.Run("sweep", 7, 0, False)
    r.setups = [0.1]
    r._check(res)
    r.untraced.append(res)
    _, info = r.end_to_end()
    assert info["failed_frac"] == pytest.approx(1 / 6)
    assert info["inconclusive_frac"] == pytest.approx(1 / 6)
    assert any("boom" in p for p in r.problems)


def test_harness_runs_one_clean_child_at_a_time(monkeypatch):
    for var in ("DPV_STEP_LIMIT", "DPV_PAIR_LIMIT", "DPV_THREADS"):
        monkeypatch.setenv(var, "1")
    r = run.Run("sweep", 7, 0, False)
    r.request["ops"] = sorted(r.request["ops"], key=lambda s: s["pool_index"])[:8]
    r.execute()
    assert r.problems == []
    assert len(r.untraced) == run.MIN_PASSES
    assert len(r.children) == run.SETUP_PROBES + 2 * run.MIN_PASSES
    spans = sorted(r.children)
    assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
    assert len({res["pid"] for res in r.untraced}) == len(r.untraced)  # a fresh interpreter each
    # DPV_PAIR_LIMIT=1 would have tripped these; the children never saw it
    assert all(rec["status"] == "ok" for res in r.untraced for rec in res["ops"])
    assert threading.active_count() == 1


def test_golden_covers_the_pools():
    for workload in ("sweep", "fp-ideals"):
        golden = run.load_golden(workload)
        keys = {run.ideal_key(s) for s in inputs.make_inputs(workload, 0)["ops"]}
        assert len(keys & golden.keys()) >= 0.95 * len(keys)
    assert sorted(run.load_golden("catalogue")) == sorted(passrun.catalogue.RECORD_ORDER)


def test_inputs_depend_on_the_seed_only():
    assert inputs.make_inputs("sweep", 3) == inputs.make_inputs("sweep", 3)
    assert inputs.make_inputs("sweep", 3) != inputs.make_inputs("sweep", 4)


@pytest.mark.parametrize("n, q", [(300, 96), (60, 83), (58, 82), (11, 9), (5, 0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    assert run.tail_percentile(n) == q
