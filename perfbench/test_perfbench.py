"""Checks on the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses

import numpy as np
import pytest

import run
from spans import Tracer


def test_golden_check_fails_a_perturbed_model():
    wl = run.setup("cpd-fabric", run.DEFAULT_SEED)
    sys_p = wl.systems["proposed"]
    wl.systems["proposed"] = dataclasses.replace(
        sys_p, dram=dataclasses.replace(sys_p.dram,
                                        t_row_miss=sys_p.dram.t_row_miss + 1))
    rnd = run.run_round(wl, run.load_golden("cpd-fabric", run.DEFAULT_SEED))
    assert rnd.attempted == 5
    assert len(rnd.failures) == 1, rnd.failures
    assert rnd.failures[0].startswith("proposed: CheckFailed")
    assert "total_cycles" in rnd.failures[0]
    # the failed operation still ran and was timed
    assert rnd.complete


@pytest.mark.parametrize("name", ["grid-scattered", "grid-clustered"])
def test_default_seed_reproduces_golden_counts(name):
    rnd = run.run_round(run.setup(name, run.DEFAULT_SEED),
                        run.load_golden(name, run.DEFAULT_SEED))
    assert rnd.failures == []
    assert rnd.attempted == 5


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_seed_changes_the_tensor(name):
    a = run.setup(name, run.DEFAULT_SEED).tensor
    b = run.setup(name, run.DEFAULT_SEED).tensor
    c = run.setup(name, 1).tensor
    assert a == b
    assert a.dims == c.dims and a.nnz == c.nnz
    assert not (np.array_equal(a.i, c.i) and np.array_equal(a.j, c.j)
                and np.array_equal(a.k, c.k))


def test_cp_als_check_fails_a_stalling_kernel(monkeypatch):
    # A kernel that repeats its first answer stops improving the fit, so
    # cp_als stops before the reference does.
    real = run.fabric_mod.fabric_mttkrp_kernel

    def stale_kernel(fabric):
        kernel, first = real(fabric), []

        def stale(tensor, d, c):
            if not first:
                first.append(kernel(tensor, d, c))
            return first[0]
        return stale

    wl = run.setup("cpd-fabric", run.DEFAULT_SEED)
    monkeypatch.setattr(run.fabric_mod, "fabric_mttkrp_kernel", stale_kernel)
    rnd = run.run_round(wl, run.load_golden("cpd-fabric", run.DEFAULT_SEED))
    assert [f.split(":")[0] for f in rnd.failures] == ["cp_als"], rnd.failures
    assert "iterations, oracle kernel 10" in rnd.failures[0]


def test_traced_counts_agree_with_the_simulator():
    # Count engine loop iterations independently of the tracer: the engine
    # steps the fabric side once per iteration.
    sim_cls = run.engine_mod.Simulator
    original = sim_cls._fabric_step
    iterations = [0]

    def counting(self, now):
        iterations[0] += 1
        return original(self, now)

    sim_cls._fabric_step = counting
    try:
        tracer = Tracer()
        untraced, traced = run.measure("cpd-fabric", run.DEFAULT_SEED, 0,
                                       tracer)
    finally:
        sim_cls._fabric_step = original
    assert len(untraced) == len(traced) == 1
    assert untraced[0].failures == [] and traced[0].failures == []
    assert traced[0].counts == untraced[0].counts
    # wrappers are gone once measuring is over
    assert run.engine_mod.Simulator.run.__qualname__ == "Simulator.run"

    layer = run.per_layer_metrics(tracer, traced, untraced)
    reports = traced[0].reports.values()
    assert layer["dram.beats"]["value"] == sum(r["dram"]["beats"]
                                               for r in reports)
    stepped = layer["engine.stepped_cycles"]["value"]
    # both rounds step the same cycles; the counter saw both
    assert 2 * stepped == iterations[0]
    assert stepped <= sum(r["total_cycles"] + 1 for r in reports)
    assert layer["router.forwarded"]["value"] == layer["dram.beats"]["value"]
    # one block per system here, stepped on every engine cycle
    assert sum(layer[f"memsys.{m}.step_calls"]["value"]
               for m in run.MODES) == stepped
    assert 0 < layer["engine.skip_calls"]["value"] < stepped
    assert layer["trace.overhead_ratio"]["unit"] == "ratio"
