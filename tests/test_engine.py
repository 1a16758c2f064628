"""Timed simulations: micro-walk timing, mode equivalence, replay, reports."""

import contextlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lmbsim.dram import Dram, DramConfig
from lmbsim.engine import (Router, Simulator, SystemConfig, TracePlayer,
                           _percentiles, replay_trace, report_to_json,
                           simulate, verify_output)
from lmbsim.errors import (ConfigurationError, DeadlockError, ProtocolError,
                           VerificationError)
from lmbsim.fabric import (FabricConfig, MemoryRequest, ReqKind, RequestTrace,
                           run_functional)
from lmbsim.memsys import (MODES, CacheConfig, DmaConfig, DmaEngine, Lmb,
                           LmbConfig, MshrConfig, RrshConfig, _Cursor)
from lmbsim.queues import INF, TimedFifo
from lmbsim.tensor import (CooTensor, FactorMatrix, GenSpec, gen_synthetic,
                           mttkrp_oracle)

from refmodel import Beat, off_at_origin, pop_ready
from test_equivalence_digest import replay_system, timed_inputs


def one_element_tensor():
    # coordinates chosen so the element line, both factor rows, and the
    # output row all land on distinct DRAM banks: every access is a row miss
    return CooTensor((4, 4, 4),
                     np.array([1], dtype=np.uint32),
                     np.array([0], dtype=np.uint32),
                     np.array([2], dtype=np.uint32),
                     np.array([2.0], dtype=np.float32))


def system(mode="proposed", fabric_type="type2", rank=32, num_lmbs=1,
           t_row_miss=45, pe_count=4):
    return SystemConfig(
        fabric=FabricConfig(fabric_type=fabric_type, pe_count=pe_count,
                            rank=rank),
        lmb=LmbConfig(mode=mode),
        num_lmbs=num_lmbs,
        dram=DramConfig(t_row_miss=t_row_miss),
    )


def random_case(dims, nnz, rank, seed):
    t = gen_synthetic(GenSpec(dims=dims, nnz=nnz, seed=seed)).sorted_mode0()
    d = FactorMatrix.random(dims[1], rank, seed=seed + 1)
    c = FactorMatrix.random(dims[2], rank, seed=seed + 2)
    return t, d, c


# --- single-element walk ------------------------------------------------------
#
# The run makes three DRAM round trips that cannot overlap: the element
# fetch, then the later of the two factor-row reads, then the output-row
# store.  Everything else (wires, arbitration, pipeline, accumulate) adds a
# fixed number of cycles: 29 at rank 32 (factor rows are two beats), 26 at
# rank 8 (one beat).  See the acceptance suite for the cycle-by-cycle walk.

@pytest.mark.parametrize("fabric_type", ["type1", "type2"])
@pytest.mark.parametrize("t_row_miss", [37, 45, 50])
@pytest.mark.parametrize("rank,fixed", [(32, 29), (8, 26)])
def test_single_element_closed_form(fabric_type, t_row_miss, rank, fixed):
    t = one_element_tensor()
    d = FactorMatrix.random(4, rank, seed=1)
    c = FactorMatrix.random(4, rank, seed=2)
    cfg = system(fabric_type=fabric_type, rank=rank, t_row_miss=t_row_miss)
    out, rep = simulate(t, d, c, cfg, verify=True)
    assert rep["total_cycles"] == fixed + 3 * t_row_miss


def test_single_element_beat_accounting():
    t = one_element_tensor()
    d = FactorMatrix.random(4, 32, seed=1)
    c = FactorMatrix.random(4, 32, seed=2)
    _, rep = simulate(t, d, c, system(rank=32))
    # element 1, D row 2, C row 2, output write 2
    assert rep["dram"]["beats"] == 7
    assert rep["dram"]["row_misses"] == 7
    assert rep["dram"]["row_hits"] == 0
    assert rep["bus"]["bytes"] == 448
    assert rep["bus"]["useful_bytes"] == 400   # 16 + 3 * 128
    assert rep["bus"]["wasted_bytes"] == 48

    _, rep8 = simulate(t, FactorMatrix.random(4, 8, seed=1),
                       FactorMatrix.random(4, 8, seed=2), system(rank=8))
    assert rep8["dram"]["beats"] == 4
    assert rep8["bus"]["bytes"] == 256
    assert rep8["bus"]["useful_bytes"] == 112  # 16 + 3 * 32


# --- timed runs compute the same numbers as the oracle --------------------------

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fabric_type", ["type1", "type2"])
def test_timed_matches_oracle_every_mode(mode, fabric_type):
    t, d, c = random_case((12, 9, 14), 150, 8, seed=5)
    cfg = system(mode=mode, fabric_type=fabric_type, rank=8)
    out, rep = simulate(t, d, c, cfg)
    want = mttkrp_oracle(t, d, c)
    assert np.array_equal(out.values, want.values)
    assert rep["total_cycles"] > 0


@pytest.mark.parametrize("num_lmbs", [2, 4])
def test_timed_matches_oracle_multi_block(num_lmbs):
    t, d, c = random_case((16, 12, 10), 200, 8, seed=9)
    cfg = system(mode="proposed", rank=8, num_lmbs=num_lmbs)
    out, _ = simulate(t, d, c, cfg)
    assert np.array_equal(out.values, mttkrp_oracle(t, d, c).values)


def test_timed_matches_functional_request_for_request():
    t, d, c = random_case((10, 8, 8), 120, 8, seed=3)
    cfg = system(rank=8)
    functional = run_functional(t, d, c, cfg.fabric)
    timed_out, _ = simulate(t, d, c, cfg)
    assert np.array_equal(timed_out.values, functional.values)


def test_empty_tensor_simulates_to_zero_cycles():
    t = CooTensor((3, 3, 3), *(np.array([], dtype=np.uint32),) * 3,
                  np.array([], dtype=np.float32))
    d = FactorMatrix.random(3, 4, seed=0)
    c = FactorMatrix.random(3, 4, seed=1)
    for mode in MODES:
        out, rep = simulate(t, d, c, system(mode=mode, rank=4))
        assert rep["total_cycles"] == 0
        assert np.array_equal(out.values, np.zeros((3, 4), dtype=np.float32))


# --- verification plumbing ----------------------------------------------------

def test_verify_passes_clean_run():
    t, d, c = random_case((8, 8, 8), 60, 2, seed=1)
    simulate(t, d, c, system(rank=2), verify=True)


def test_corrupted_output_fails_verification(monkeypatch):
    t, d, c = random_case((8, 8, 8), 60, 2, seed=1)
    monkeypatch.setattr("lmbsim.engine.mttkrp_oracle", off_at_origin)
    with pytest.raises(VerificationError, match="mismatch at row 0 col 0"):
        simulate(t, d, c, system(rank=2), verify=True)


def test_verify_output_shape_mismatch():
    a = FactorMatrix.random(4, 2, seed=0)
    b = FactorMatrix.random(5, 2, seed=0)
    with pytest.raises(VerificationError, match="shape"):
        verify_output(a, b)


def _f32(bits):
    return np.uint32(bits).view(np.float32)


@pytest.mark.parametrize("got,want,ok", [
    (np.nan, 1.0, False),           # NaN against a finite reference
    (1.0, np.nan, False),
    (np.inf, 1.0, False),
    (1.0, np.inf, False),           # an infinite error, an infinite bound
    (-np.inf, np.inf, False),
    (np.inf, np.inf, True),         # equal infinities
    (np.nan, np.nan, True),         # NaN input values give NaN on both sides
    pytest.param(_f32(0x7FC00001), _f32(0x7FC00002), True,
                 id="nan-payloads"),  # whatever their payloads
    (1.0 + 1e-6, 1.0, False),       # the output must match bit for bit
    pytest.param(_f32(0x3F800001), 1.0, False, id="one-ulp"),
    (-0.0, 0.0, False),
])
def test_verify_output_non_finite_values(got, want, ok):
    a = FactorMatrix(2, 2, np.ones((2, 2), dtype=np.float32))
    b = FactorMatrix(2, 2, np.ones((2, 2), dtype=np.float32))
    a.values[1, 0], b.values[1, 0] = got, want
    assert a.values.view(np.uint32)[1, 0] == np.float32(got).view(np.uint32)
    if ok:
        verify_output(a, b)
    else:
        with pytest.raises(VerificationError, match="row 1 col 0"):
            verify_output(a, b)


def test_rank_mismatch_rejected():
    t, d, c = random_case((8, 8, 8), 60, 2, seed=1)
    with pytest.raises(ConfigurationError):
        simulate(t, d, c, system(rank=4))


# --- determinism and replay ---------------------------------------------------

def test_reports_are_byte_identical_across_runs():
    t, d, c = random_case((14, 11, 9), 180, 8, seed=21)
    cfg = system(rank=8, num_lmbs=2)
    eff = {"memsys.num_lmbs": 2, "fabric.rank": 8}
    reports = []
    for _ in range(2):
        _, rep = simulate(t, d, c, cfg, effective_config=eff,
                          workload_name="twice")
        reports.append(report_to_json(rep))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("mode,num_lmbs", [("proposed", 1), ("proposed", 2),
                                           ("cache-only", 1)])
def test_replay_reproduces_memory_timeline(mode, num_lmbs):
    t, d, c = random_case((12, 10, 8), 140, 8, seed=13)
    cfg = system(mode=mode, rank=8, num_lmbs=num_lmbs)
    tr = RequestTrace()
    _, rep = simulate(t, d, c, cfg, trace=tr)
    replay = replay_trace(tr.records, cfg)
    assert replay["total_cycles"] == rep["total_cycles"]
    assert replay["dram"] == rep["dram"]
    assert replay["bus"] == rep["bus"]
    assert replay["workload"]["records"] == len(tr.records)


def _scan_records(elems, stride=16):
    # one PE reading 16-byte elements back to back, one record per cycle
    return [(e, "elem", 0, 0, stride * e, 16, e) for e in range(elems)]


def test_sequential_scan_fetches_the_line_once():
    # four elements of one 64-byte line: first read misses, the rest coalesce
    rep = replay_trace(_scan_records(4), system())
    assert rep["blocks"]["cache_hits"] + rep["blocks"]["cache_misses"] == 1
    assert rep["dram"]["beats"] == 1


def test_ip_only_scan_rereads_the_line():
    rep = replay_trace(_scan_records(4), system(mode="ip-only"))
    assert rep["dram"]["beats"] == 4
    assert rep["bus"]["bytes"] == 256


def test_dma_only_scalar_loads_waste_three_quarters_of_the_bus():
    # ten 16-byte loads from ten distinct lines, each moving a full beat
    rep = replay_trace(_scan_records(10, stride=64), system(mode="dma-only"))
    assert rep["bus"]["bytes"] == 640
    assert rep["bus"]["useful_bytes"] == 160
    assert rep["bus"]["wasted_bytes"] == 480


@pytest.mark.parametrize("block", [-1, 2])
def test_replay_refuses_a_record_on_a_block_not_configured(block):
    # the trace path's own check, not the CLI's record parser
    records = _scan_records(2) + [(2, "elem", block, 0, 128, 16, 2)]
    with pytest.raises(ConfigurationError,
                       match=rf"request targets block {block}, only 2 "
                             "configured"):
        replay_trace(records, system(num_lmbs=2))


class StubBlock:
    def __init__(self):
        self.to_router = TimedFifo()


class StubDram:
    def __init__(self):
        self.ingress = TimedFifo()


def test_router_serves_every_block_within_port_count_cycles():
    blocks = [StubBlock() for _ in range(4)]
    for n in range(60):                      # block 0 saturates its port
        blocks[0].to_router.push(0, (0, n))
    for m in (1, 2, 3):                      # the rest trickle
        for cyc in range(0, 30, 5):
            blocks[m].to_router.push(cyc, (m, cyc))
    dram = StubDram()
    router = Router(blocks, dram)
    grants = {b: [] for b in range(4)}
    for now in range(200):
        router.step(now)
        beat = pop_ready(dram.ingress, now + 1)
        if beat is not None:
            grants[beat[0]].append(now)
    assert sum(len(g) for g in grants.values()) == 78
    # a trickling block waits at most the other three ports' grants
    for m in (1, 2, 3):
        for ready, granted in zip(range(0, 30, 5), grants[m]):
            assert granted - ready < 4
    # and the saturating block is never locked out while it has beats
    gaps = np.diff(grants[0])
    assert gaps.max() <= 4


# --- scheduling -----------------------------------------------------------------

def test_router_wake_is_the_earliest_input_head():
    blocks = [StubBlock(), StubBlock()]
    dram = StubDram()
    blocks[0].to_router.push(3, "a")
    blocks[1].to_router.push(3, "b")
    blocks[1].to_router.push(9, "c")
    router = Router(blocks, dram)
    assert router.step(3)
    assert router.wake == 4        # block 1's head was ready but not picked
    assert router.step(4)
    assert router.wake == 9        # block 1's next beat
    assert not router.step(5)      # asleep: a no-op
    assert router.step(9)
    assert router.wake == INF      # every input is empty


def test_a_lone_block_sends_straight_to_the_dram():
    lmb, dram = Lmb(0, LmbConfig(mode="dma-only")), Dram(DramConfig())
    router = Router([lmb], dram)
    assert router.inputs == [] and router.wake == INF
    answered = []
    first, second = (
        Beat(addr=addr, useful=64, lmb=0, token=addr,
             handler=lambda token, now: answered.append((token, now)))
        for addr in (0, 64))
    # the forward half is a pure delay: beats the block's arbiter takes at
    # cycles 4 and 5 are on the DRAM's ingress for cycles 6 and 7, and the
    # first wakes the DRAM
    lmb.dma.src.extend([(4, first), (5, second)])
    lmb.wake = 4
    for now in (4, 5, 6):
        lmb.step(now)
    assert list(dram.ingress) == [(6, first), (7, second)]
    assert dram.wake == 6 and lmb.wake == INF
    assert router.stats == {"forwarded": 2, "returned": 0}
    # so is the return half: the DRAM grants banks 0 and 1 at cycles 51
    # and 52 (45-cycle misses from cycles 6 and 7), puts each beat on its
    # block's in_resp two cycles on, and the first wakes the block
    for now in range(6, 53):
        dram.step(now)
    assert list(lmb.in_resp) == [(53, first), (54, second)]
    assert lmb.wake == 53
    assert router.stats == {"forwarded": 2, "returned": 2}
    for now in (53, 54):
        lmb.step(now)
    assert answered == [(0, 53), (64, 54)]
    # the router never wakes
    assert dram.idle() and lmb.drained()
    assert router.inputs == [] and router.wake == INF


@pytest.mark.parametrize("num_lmbs", [1, 2])
def test_the_engine_steps_a_router_only_when_it_has_inputs(num_lmbs,
                                                           monkeypatch):
    calls = {"router": 0, "iterations": 0}
    router_step, fabric_step = Router.step, Simulator._fabric_step

    def counting_router(self, now):
        calls["router"] += 1
        return router_step(self, now)

    def counting_fabric(self, now):
        calls["iterations"] += 1
        return fabric_step(self, now)

    monkeypatch.setattr(Router, "step", counting_router)
    monkeypatch.setattr(Simulator, "_fabric_step", counting_fabric)
    t, d, c = random_case((8, 8, 8), 30, 4, seed=3)
    _, rep = simulate(t, d, c, system(rank=4, num_lmbs=num_lmbs), verify=True)
    assert rep["router"]["forwarded"] == rep["dram"]["beats"] > 0
    assert calls["iterations"] > 0
    assert calls["router"] == (0 if num_lmbs == 1 else calls["iterations"])


def test_done_is_checked_only_on_iterations_that_moved_nothing(monkeypatch):
    calls = {"_done": 0, "_next_event": 0, "_fabric_step": 0}
    for name in calls:
        original = getattr(Simulator, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(Simulator, name, counting)
    t, d, c = random_case((8, 8, 8), 30, 4, seed=3)
    simulate(t, d, c, system(rank=4))
    # every idle iteration asks for the next event; only the last, which
    # finds nothing pending, asks whether the run is done
    assert calls["_done"] == 1
    assert 0 < calls["_next_event"] < calls["_fabric_step"]


def test_write_ack_reaches_the_fabric_in_the_cycle_it_is_pushed():
    player = TracePlayer([(0, "write", 0, 0, 0, 64, 7)])
    sim = Simulator(system(mode="dma-only"), [player], route_by_pe=False)
    lmb = sim.lmbs[0]
    pushed, delivered = [], []
    respond, deliver = lmb._respond, player.deliver

    def spy_respond(req, now):
        pushed.append((now, sim.wake))
        respond(req, now)

    def spy_deliver(req):
        delivered.append(sim._now)
        deliver(req)

    lmb._respond, player.deliver = spy_respond, spy_deliver
    sim.run()
    (ack_cycle, wake_before), = pushed
    assert wake_before > ack_cycle   # the fabric side was asleep
    assert delivered == [ack_cycle]  # and the push woke it in the same cycle
    assert sim.report()["requests"]["write"]["max"] == ack_cycle


@pytest.mark.parametrize("kind", ["elem", "write"])
def test_a_second_answer_from_a_block_is_refused(kind):
    # a trace player keeps no record of its requests, so only the engine's
    # check on the request itself can refuse the second answer
    player = TracePlayer([(0, kind, 0, 0, 0, 16, 7)])
    sim = Simulator(system(mode="dma-only"), [player], route_by_pe=False)
    lmb = sim.lmbs[0]
    respond = lmb._respond

    def respond_twice(req, now):
        respond(req, now)
        respond(req, now)

    lmb._respond = respond_twice
    with pytest.raises(ProtocolError, match="second response for tag 7"):
        sim.run()


def _small_run(mode, dims, nnz, seed, fabric_type, pe_count, max_outstanding,
               rank, num_lmbs, lmb=None):
    t = gen_synthetic(GenSpec(dims=dims, nnz=min(nnz, dims[0] * dims[1] * dims[2]),
                              seed=seed))
    d = FactorMatrix.random(dims[1], rank, seed=seed + 1)
    c = FactorMatrix.random(dims[2], rank, seed=seed + 2)
    cfg = SystemConfig(
        fabric=FabricConfig(fabric_type=fabric_type, pe_count=pe_count,
                            max_outstanding=max_outstanding, rank=rank),
        lmb=lmb or LmbConfig(mode=mode), num_lmbs=num_lmbs,
        dram=DramConfig(num_banks=2, queue_depth=1))
    simulate(t, d, c, cfg, verify=True)


@settings(max_examples=40, deadline=None)
@given(dims=st.tuples(*(st.integers(min_value=1, max_value=8),) * 3),
       nnz=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=1000),
       fabric_type=st.sampled_from(["type1", "type2"]),
       pe_count=st.integers(min_value=1, max_value=8),
       max_outstanding=st.integers(min_value=1, max_value=4),
       rank=st.sampled_from([2, 8, 32]),
       num_lmbs=st.integers(min_value=1, max_value=4))
def test_ip_port_counts_equal_a_recount(**case):
    steps = [0]
    step = Lmb.step

    def checked_step(lmb, now):
        wake = lmb.wake
        moved = step(lmb, now)
        steps[0] += 1
        # a loaded port has a beat to issue when none of its beats is out
        assert lmb._ip_issuable == sum(
            1 for p in lmb._ports
            if p.req is not None and p.left == p.unanswered)
        for p in lmb._ports:
            if p.req is not None:
                assert 0 <= p.unanswered - p.left <= 1 and p.unanswered
        assert [p.pe for p in lmb._ports] == sorted(lmb._port_of)
        # the step took every free port with a request queued
        if now >= wake:
            assert not lmb._ip_takers
        assert sorted(p.pe for p in lmb._ip_takers) == \
            [p.pe for p in lmb._ports if p.req is None and p.wire]
        return moved

    Lmb.step = checked_step
    try:
        _small_run("ip-only", **case)
    finally:
        Lmb.step = step
    assert steps[0] > 0


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["cache-only", "proposed"]),
       dims=st.tuples(*(st.integers(min_value=1, max_value=8),) * 3),
       nnz=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=1000),
       fabric_type=st.sampled_from(["type1", "type2"]),
       pe_count=st.integers(min_value=1, max_value=8),
       max_outstanding=st.integers(min_value=1, max_value=4),
       rank=st.sampled_from([2, 8, 32]),
       num_lmbs=st.integers(min_value=1, max_value=4),
       depth=st.integers(min_value=1, max_value=4),
       slots=st.integers(min_value=1, max_value=4),
       lines=st.sampled_from([16, 8192]))
def test_fetch_slot_and_split_cursor_counts_equal_a_recount(mode, depth,
                                                            slots, lines,
                                                            **case):
    steps = [0]
    step = Lmb.step

    def checked_step(lmb, now):
        moved = step(lmb, now)
        steps[0] += 1
        fetch = lmb.fetch_slots
        waiters = sum(len(w) for w in fetch.lines.values())
        assert fetch.used == (waiters if fetch.per_request
                              else len(fetch.lines))
        assert fetch.used <= fetch.capacity
        if lmb._wait_from is not None:
            # the pipe head skips its slot test until a fill: it would fail
            _, waiter, line = lmb._pipe[0][1]
            cost = 1 if fetch.per_request else int(line not in fetch.lines)
            assert fetch.used + cost > fetch.capacity
        # a held split cursor's unanswered count covers its pieces still
        # held; its other pieces are on the write wire or answered
        held = [item[1] for _, item in lmb._pipe] + \
            [item[1] for _, item in lmb._intake] + \
            [w for ws in fetch.lines.values() for w in ws]
        for cur in held:
            if isinstance(cur, _Cursor):
                assert cur.unanswered >= sum(1 for h in held if h is cur)
                assert cur.unanswered <= cur.left
        return moved

    lmb = LmbConfig(mode=mode,
                    cache=CacheConfig(num_lines=lines, pipeline_depth=depth,
                                      miss_slots=slots),
                    mshr=MshrConfig(entries=slots))
    Lmb.step = checked_step
    try:
        _small_run(mode, lmb=lmb, **case)
    finally:
        Lmb.step = step
    assert steps[0] > 0


def test_rrsh_pending_counts_the_parked_waiters():
    # small pending caps, ways and bucket counts, so that the draws reach
    # both a stall on the cap and a bypass of a full set
    reached = {"rrsh_stall_cycles": 0, "rrsh_bypass": 0}
    step = Lmb.step

    def checked_step(lmb, now):
        moved = step(lmb, now)
        rrsh = lmb.rrsh
        assert rrsh.pending == sum(len(waiters) for bucket in rrsh.sets
                                   for waiters in bucket.values())
        for key in reached:
            reached[key] += lmb.stats[key] > 0
        return moved

    @settings(max_examples=30, deadline=None)
    @given(dims=st.tuples(*(st.integers(min_value=1, max_value=8),) * 3),
           nnz=st.integers(min_value=0, max_value=60),
           seed=st.integers(min_value=0, max_value=1000),
           fabric_type=st.sampled_from(["type1", "type2"]),
           pe_count=st.integers(min_value=1, max_value=8),
           max_outstanding=st.integers(min_value=1, max_value=4),
           rank=st.sampled_from([2, 8, 32]),
           num_lmbs=st.integers(min_value=1, max_value=4),
           cap=st.integers(min_value=1, max_value=4),
           ways=st.integers(min_value=1, max_value=2),
           buckets=st.sampled_from([1, 2]))
    @example(dims=(8, 8, 8), nnz=60, seed=1, fabric_type="type2", pe_count=8,
             max_outstanding=4, rank=8, num_lmbs=1, cap=2, ways=1, buckets=1)
    def check(cap, ways, buckets, **case):
        rrsh = RrshConfig(entries=ways * buckets, ways=ways, pending_cap=cap)
        _small_run("proposed", lmb=LmbConfig(mode="proposed", rrsh=rrsh),
                   **case)

    Lmb.step = checked_step
    try:
        check()
    finally:
        Lmb.step = step
    assert all(reached.values()), reached


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(MODES),
       dims=st.tuples(*(st.integers(min_value=1, max_value=8),) * 3),
       nnz=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=1000),
       fabric_type=st.sampled_from(["type1", "type2"]),
       pe_count=st.integers(min_value=1, max_value=8),
       max_outstanding=st.integers(min_value=1, max_value=4),
       rank=st.sampled_from([2, 8, 32]),
       num_lmbs=st.integers(min_value=1, max_value=4),
       depth=st.integers(min_value=1, max_value=4),
       slots=st.integers(min_value=1, max_value=4),
       buffers=st.integers(min_value=1, max_value=2),
       desc_slots=st.integers(min_value=1, max_value=2))
def test_a_step_that_moved_nothing_leaves_no_beat_and_no_dma_backlog(
        mode, depth, slots, buffers, desc_slots, **case):
    # the rule that lets _idle_wake skip the arbiter sources and the DMA
    # backlog in every mode
    steps = [0]
    step = Lmb.step

    def checked_step(lmb, now):
        awake = now >= lmb.wake
        moved = step(lmb, now)
        steps[0] += 1
        if awake and not moved:
            assert not (lmb._cache_src or lmb.dma.src or lmb._wr_src
                        or lmb._ip_src)
            assert not (lmb.dma.queued or lmb.dma.descs)
        return moved

    lmb = LmbConfig(mode=mode,
                    cache=CacheConfig(pipeline_depth=depth, miss_slots=slots),
                    dma=DmaConfig(buffers=buffers, buffer_bytes=64,
                                  desc_slots=desc_slots),
                    mshr=MshrConfig(entries=slots))
    Lmb.step = checked_step
    try:
        _small_run(mode, lmb=lmb, **case)
    finally:
        Lmb.step = step
    assert steps[0] > 0


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(["proposed", "dma-only"]),
       dims=st.tuples(*(st.integers(min_value=1, max_value=8),) * 3),
       nnz=st.integers(min_value=0, max_value=60),
       seed=st.integers(min_value=0, max_value=1000),
       fabric_type=st.sampled_from(["type1", "type2"]),
       pe_count=st.integers(min_value=1, max_value=8),
       max_outstanding=st.integers(min_value=1, max_value=4),
       rank=st.sampled_from([2, 8, 32]),
       num_lmbs=st.integers(min_value=1, max_value=4),
       credits=st.integers(min_value=1, max_value=2),
       desc_slots=st.integers(min_value=1, max_value=2))
def test_staged_dma_beats_never_exceed_beat_credits(
        mode, credits, desc_slots, **case):
    # a beat holds its staging credit from issue until the arbiter takes
    # it, so a credit stall happens only with every credit staged
    dma = DmaConfig(buffers=credits, buffer_bytes=64, desc_slots=desc_slots)
    steps = [0]
    step = Lmb.step
    engine_step = DmaEngine.step

    def checked_step(lmb, now):
        moved = step(lmb, now)
        steps[0] += 1
        assert len(lmb.dma.src) <= dma.beat_credits
        return moved

    def checked_engine_step(engine, now):
        stalls = engine.stats["credit_stall_cycles"]
        moved = engine_step(engine, now)
        if engine.stats["credit_stall_cycles"] > stalls:
            assert len(engine.src) == dma.beat_credits
        return moved

    Lmb.step, DmaEngine.step = checked_step, checked_engine_step
    try:
        _small_run(mode, lmb=LmbConfig(mode=mode, dma=dma), **case)
    finally:
        Lmb.step, DmaEngine.step = step, engine_step
    assert steps[0] > 0


@settings(max_examples=40, deadline=None)
@given(mode=st.sampled_from(MODES),
       dims=st.tuples(st.integers(min_value=4, max_value=10),
                      st.integers(min_value=2, max_value=10),
                      st.integers(min_value=2, max_value=10)),
       nnz=st.integers(min_value=20, max_value=120),
       seed=st.integers(min_value=0, max_value=1000),
       pe_count=st.integers(min_value=2, max_value=8),
       max_outstanding=st.sampled_from([4, 16]),
       rank=st.sampled_from([2, 8, 32]),
       num_lmbs=st.integers(min_value=1, max_value=4))
def test_armed_list_is_the_workloads_with_want_step(mode, **case):
    # several type2 machines with room to run ahead, so that deliveries
    # re-arm a machine below one that is still armed
    steps = [0]
    fabric_step = Simulator._fabric_step

    def checked_fabric_step(sim, now):
        moved = fabric_step(sim, now)
        steps[0] += 1
        assert sim._armed == [i for i, w in enumerate(sim.workloads)
                              if w.want_step]
        return moved

    Simulator._fabric_step = checked_fabric_step
    try:
        _small_run(mode, fabric_type="type2", **case)
    finally:
        Simulator._fabric_step = fabric_step
    assert steps[0] > 0


# --- every-cycle reference -------------------------------------------------------

@contextlib.contextmanager
def every_cycle(last_cycle):
    """Run the engine with no wake rule: the DRAM, the router, every block
    and the fabric side are woken, and every workload re-armed, before each
    of their steps, and an iteration that moved nothing goes on to the next
    cycle until the run is done.  A lone block is routed like many, through
    a router stepped every cycle, not straight onto the DRAM's ingress.
    Skipping a step that can act, missing a wake, or a direct send that is
    not the router's one-cycle delay, changes the timeline of the normal run
    but not of this one.  A run still busy after `last_cycle` has gone
    wrong; it stops there."""
    fabric_step = Simulator._fabric_step

    def woken(step):
        def stepped(self, now):
            self.wake = 0
            return step(self, now)
        return stepped

    def fabric_every_cycle(sim, now):
        assert sim.router.inputs, "a block reached the DRAM directly"
        sim.wake = 0
        for w in sim.workloads:
            w.want_step = True
        sim._armed = list(range(len(sim.workloads)))
        return fabric_step(sim, now)

    def next_cycle(sim, now):
        if sim._done():
            return INF
        assert now < last_cycle, f"reference still busy at cycle {now}"
        return now + 1

    patches = [(cls, "step", woken(cls.step)) for cls in (Dram, Router, Lmb)]
    patches += [(Simulator, "_fabric_step", fabric_every_cycle),
                (Simulator, "_next_event", next_cycle),
                (Router, "_direct_lone_block", False)]
    saved = [(cls, name, getattr(cls, name)) for cls, name, _ in patches]
    for cls, name, patched in patches:
        setattr(cls, name, patched)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


@contextlib.contextmanager
def bus_grants():
    """Record the beats that each run's DRAM grants the bus: one list per
    DRAM, in the order the runs first stepped them, of (beat, request).  A
    granted beat is the one a step appends to a block's in_resp, and its
    request is its token's, read at the grant, because a raw port's changes
    once its last beat is answered.  The lists keep the beats alive, so no
    two share an id."""
    grants = {}
    step = Dram.step

    def recording_step(dram, now):
        got = grants.setdefault(dram, [])
        wires = [block.in_resp for block in dram.blocks]
        before = [len(wire) for wire in wires]
        moved = step(dram, now)
        for wire, n in zip(wires, before):
            for _, beat in list(wire)[n:]:
                got.append((beat, getattr(beat[4], "req", None)))
        return moved

    Dram.step = recording_step
    try:
        yield grants
    finally:
        Dram.step = step


def _timed_and_replayed(t, d, c, syscfg, replay_cfg):
    trace = RequestTrace()
    out, rep = simulate(t, d, c, syscfg, verify=True, trace=trace)
    replay = replay_trace(trace.records, replay_cfg)
    return rep, out.values.tobytes(), trace.records, replay


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       mode=st.sampled_from(MODES))
def test_every_cycle_reference_gives_the_same_run(seed, mode):
    # the equivalence digest's generator: small systems with every queue,
    # slot and credit down to one
    rng = random.Random(seed)
    t, d, c, syscfg = timed_inputs(rng, mode)
    replay_cfg = replay_system(rng, syscfg)
    with bus_grants() as grants:
        rep, out, records, replay = _timed_and_replayed(t, d, c, syscfg,
                                                        replay_cfg)
    last = max(rep["total_cycles"], replay["total_cycles"]) + 1
    with every_cycle(last), bus_grants() as ref_grants:
        ref = _timed_and_replayed(t, d, c, syscfg, replay_cfg)
    assert report_to_json(ref[0]) == report_to_json(rep)
    assert ref[1] == out
    assert ref[2] == records
    assert report_to_json(ref[3]) == report_to_json(replay)
    # every beat crosses the router both ways, and each is 64 bytes on the bus
    for r in (rep, replay):
        beats = r["dram"]["beats"]
        assert r["router"]["forwarded"] == beats == r["router"]["returned"]
        assert r["bus"]["bytes"] == 64 * beats
    # each beat the DRAM accepted is granted the bus exactly once, in the
    # timed run and the replay, with and without the wake rules
    for runs, reports in ((grants, (rep, replay)),
                          (ref_grants, (ref[0], ref[3]))):
        assert len(runs) == len(reports)
        for beats, r in zip(runs.values(), reports):
            assert len({id(b) for b, _ in beats}) == len(beats) \
                == r["dram"]["beats"]


# the requests whose beats each carry their cursor: DMA descriptors (every
# kind but elements in proposed) and raw ports
_CURSOR_KINDS = {"proposed": ("row_d", "row_c", "write"),
                 "dma-only": ("elem", "row_d", "row_c", "write"),
                 "ip-only": ("elem", "row_d", "row_c", "write")}


@pytest.mark.parametrize("mode", sorted(_CURSOR_KINDS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_useful_bytes_of_a_requests_beats_add_up_to_its_length(mode, seed):
    t, d, c, syscfg = timed_inputs(random.Random(seed), mode)
    trace = RequestTrace()
    with bus_grants() as grants:
        _, rep = simulate(t, d, c, syscfg, trace=trace)
    (beats,) = grants.values()
    useful = {}
    for beat, req in beats:
        if req is not None:
            useful[req.tag] = useful.get(req.tag, 0) + Beat(*beat).useful
    want = {tag: nbytes for _, kind, _, _, _, nbytes, tag in trace.records
            if kind in _CURSOR_KINDS[mode]}
    assert useful == want
    assert sum(Beat(*b).useful for b, _ in beats) == rep["bus"]["useful_bytes"]


@pytest.mark.xfail(strict=True, reason="a cache-only write piece counts its "
                   "whole line as useful")
def test_a_cache_only_write_piece_counts_only_its_written_bytes():
    # half a line, written through: 32 of the beat's 64 bytes are useful,
    # as the other modes count them
    rep = replay_trace([(0, "write", 0, 0, 0, 32, 1)],
                       system(mode="cache-only"))
    assert rep["bus"]["useful_bytes"] == 32


# --- giving up ------------------------------------------------------------------

def test_engine_gives_up_when_work_remains_without_pending_events():
    class NeverIdle:
        """A workload that never finishes and never schedules anything."""
        want_step = True

        def step(self, now, sink):
            return False

        def next_event(self, now):
            return INF

        def idle(self):
            return False

    sim = Simulator(system(), [NeverIdle()])
    with pytest.raises(DeadlockError) as info:
        sim.run()
    assert str(info.value) == "no pending events but work remains"
    assert isinstance(info.value.dump, str)
    assert info.value.dump.startswith("cycle 0\n")
    assert DeadlockError("x").dump == ""


def test_engine_gives_up_on_a_block_awake_without_progress(monkeypatch):
    # the limit adds the longest quiet stretch the configuration allows: a
    # row miss (45) and an accumulator through a machine's slots (1 * 16)
    monkeypatch.setattr("lmbsim.engine._NO_PROGRESS_LIMIT", 50)
    sim = Simulator(system(), [TracePlayer([])])
    lmb = sim.lmbs[0]
    lmb.accept(MemoryRequest(ReqKind.ELEM, 0, 16, 0, 0), 0)
    lmb.step = lambda now: False            # holds its request for ever
    lmb.next_event = lambda now: now + 1    # and never sleeps
    with pytest.raises(DeadlockError, match="no progress for 111 cycles") as info:
        sim.run()
    assert "block 0: drained=False" in info.value.dump


# --- report shape -------------------------------------------------------------

def test_report_structure():
    t, d, c = random_case((8, 8, 8), 50, 2, seed=4)
    cfg = system(rank=2)
    _, rep = simulate(t, d, c, cfg, effective_config={"fabric.rank": 2},
                      workload_name="shape")
    for key in ("total_cycles", "requests", "blocks", "router", "dram", "bus",
                "pes", "workload", "config"):
        assert key in rep
    assert rep["bus"]["bytes"] == rep["dram"]["beats"] * 64
    # the bus moves one beat per cycle, so the makespan bounds the beat count
    assert rep["total_cycles"] >= rep["dram"]["beats"]
    assert rep["blocks"]["count"] == 1
    assert rep["workload"]["name"] == "shape"
    assert rep["config"]["fabric.rank"] == 2
    json_text = report_to_json(rep)
    assert json_text.startswith("{")


def test_percentiles_helper():
    assert _percentiles([]) == {"count": 0, "p50": 0, "p95": 0, "max": 0}
    p = _percentiles([1, 2, 3])
    assert p["count"] == 3 and p["p50"] == 2 and p["max"] == 3


def test_num_lmbs_validated():
    with pytest.raises(ConfigurationError):
        SystemConfig(num_lmbs=0)
