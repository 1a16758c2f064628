"""Fabric machines: partitioning, address layout, functional equivalence."""

import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lmbsim.dram import DramConfig
from lmbsim.engine import SystemConfig, simulate
from lmbsim.errors import ConfigurationError, ProtocolError
from lmbsim.fabric import (AddressMap, FabricConfig, MemoryImage, PeMachine,
                           ReqKind, RequestTrace, build_machines,
                           fabric_mttkrp_kernel, partition_nonzeros,
                           run_functional)
from lmbsim.memsys import MODES, LmbConfig
from lmbsim.queues import INF
from lmbsim.tensor import (ELEMENT_BYTES, CooTensor, FactorMatrix, GenSpec,
                           cp_als, gen_synthetic, mttkrp_oracle)
from refmodel import run_functional_interleaved


# --- row partitioning ---------------------------------------------------------

def test_partition_never_splits_a_row():
    i = np.array([0, 0, 0, 0, 1, 1], dtype=np.uint32)
    # even split would cut at 3, inside the run of i=0; boundary slides to 4
    assert partition_nonzeros(i, 2) == [(0, 4), (4, 6)]


def test_partition_single_part_and_empty():
    assert partition_nonzeros(np.array([], dtype=np.uint32), 3) == [(0, 0)] * 3
    i = np.array([0, 1, 2], dtype=np.uint32)
    assert partition_nonzeros(i, 1) == [(0, 3)]


def test_partition_more_parts_than_rows():
    i = np.array([5, 5, 5], dtype=np.uint32)
    ranges = partition_nonzeros(i, 4)
    assert ranges[0] == (0, 3)
    assert all(lo == hi for lo, hi in ranges[1:])


def test_partition_rejects_zero_parts():
    with pytest.raises(ConfigurationError):
        partition_nonzeros(np.array([0], dtype=np.uint32), 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=40),
    st.integers(min_value=1, max_value=6),
)
def test_partition_covers_range_without_straddling(rows, parts):
    i = np.array(sorted(rows), dtype=np.uint32)
    ranges = partition_nonzeros(i, parts)
    assert len(ranges) == parts
    assert ranges[0][0] == 0 and ranges[-1][1] == len(i)
    for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
        assert a_hi == b_lo
    for lo, hi in ranges:
        assert lo <= hi
        if 0 < lo < len(i):
            assert i[lo - 1] != i[lo]


# --- address layout -----------------------------------------------------------

# The layout's reference: where element z, D row j, C row k and output row i
# live.  The PE machines compute the same addresses from the segment bases.

def element_addr(amap, z):
    return amap.tensor_base + z * ELEMENT_BYTES


def d_row_addr(amap, j):
    return amap.d_base + j * amap.row_bytes


def c_row_addr(amap, k):
    return amap.c_base + k * amap.row_bytes


def out_row_addr(amap, i):
    return amap.out_base + i * amap.row_bytes


def test_address_map_layout():
    amap = AddressMap.build(nnz=10, dims=(4, 5, 6), rank=8)
    # elements: 10 * 16 = 160 bytes, next segment aligns up to 64
    assert amap.tensor_base == 0
    assert amap.d_base == 192
    assert amap.c_base == 384   # 192 + 5 rows * 32 B, aligned
    assert amap.out_base == 576
    assert amap.end == 704
    assert element_addr(amap, 3) == 48
    assert d_row_addr(amap, 2) == 192 + 64
    assert c_row_addr(amap, 0) == 384
    assert out_row_addr(amap, 1) == 576 + 32
    for base in (amap.d_base, amap.c_base, amap.out_base, amap.end):
        assert base % 64 == 0


def test_address_map_rejects_overflow():
    # 2**45 elements at 16 B each passes the 48-bit address limit
    with pytest.raises(ConfigurationError, match="address space"):
        AddressMap.build(nnz=1 << 45, dims=(4, 4, 4), rank=8)


# --- memory image -------------------------------------------------------------

def test_memory_image_rejects_double_write():
    t = gen_synthetic(GenSpec(dims=(4, 4, 4), nnz=8, seed=0))
    img = MemoryImage(t, FactorMatrix.random(4, 2, seed=1),
                      FactorMatrix.random(4, 2, seed=2))
    row = np.zeros(2, dtype=np.float32)
    img.write(1, row)
    with pytest.raises(ProtocolError, match="written twice"):
        img.write(1, row)


# --- functional runs ----------------------------------------------------------

def sorted_tensor(dims, nnz, seed, clustered=False):
    spec = GenSpec(dims=dims, nnz=nnz, seed=seed,
                   distribution="mode-clustered" if clustered else "uniform")
    return gen_synthetic(spec).sorted_mode0()


def signed_zero_factors(d, c):
    """Copies of d and c holding 0.0, -0.0 and negative entries.

    Every product in column 0 is -0.0, so each row's sum there is +0.0 only
    because it starts from zero; column 1 mixes both zeros with negative and
    positive products.
    """
    dv, cv = d.values.copy(), c.values.copy()
    dv[1::2] *= -1
    dv[:, 0] = -0.0
    cv[::3, 1] = 0.0
    cv[1::3, 1] = -0.0
    return FactorMatrix(d.rows, d.rank, dv), FactorMatrix(c.rows, c.rank, cv)


def row_pairs(t):
    """The (D row shared, C row shared) pairs that t's elements multiply: a
    shared row is one that two or more elements read."""
    shared_d = np.bincount(t.j)[t.j] >= 2
    shared_c = np.bincount(t.k)[t.k] >= 2
    return set(zip(shared_d.tolist(), shared_c.tolist()))


@pytest.mark.parametrize("fabric_type", ["type1", "type2"])
@pytest.mark.parametrize("rank", [2, 8, 32])
def test_functional_matches_oracle_bitexact(fabric_type, rank):
    cfg = FabricConfig(fabric_type=fabric_type, pe_count=4, rank=rank)
    # 150 elements on 9 and 14 rows share every row; on 400 and 300 rows
    # most rows are read once, so each term's rows are shared, single or mixed
    for dims, pairs in (((12, 9, 14), {(True, True)}),
                        ((12, 400, 300), {(True, True), (True, False),
                                          (False, True), (False, False)})):
        t = sorted_tensor(dims, 150, seed=rank)
        assert row_pairs(t) == pairs
        d = FactorMatrix.random(dims[1], rank, seed=3)
        c = FactorMatrix.random(dims[2], rank, seed=4)
        for d_in, c_in in ((d, c), signed_zero_factors(d, c)):
            got = run_functional(t, d_in, c_in, cfg)
            want = mttkrp_oracle(t, d_in, c_in)
            # same zero-started, in-order float64 sum per row as the oracle,
            # so the bits agree, the sign of every zero included
            assert got.values.tobytes() == want.values.tobytes()
        # the signed-zero run's column 0 sums only -0.0 products
        assert not np.signbit(got.values[np.unique(t.i), 0]).any()


def test_memory_image_terms_match_a_per_element_loop():
    t = sorted_tensor((12, 400, 300), 150, seed=2)
    d, c = signed_zero_factors(FactorMatrix.random(400, 8, seed=3),
                               FactorMatrix.random(300, 8, seed=4))
    img = MemoryImage(t, d, c)
    assert img.terms.dtype == np.float64 and img.terms.shape == (t.nnz, 8)
    dv, cv = d.values.tolist(), c.values.tolist()
    want = [[(dv[j][r] * cv[k][r]) * val for r in range(8)]
            for j, k, val in zip(t.j.tolist(), t.k.tolist(), t.vals.tolist())]
    # bit for bit, the sign of every zero included
    assert img.terms.tobytes() == np.array(want, dtype=np.float64).tobytes()
    assert np.signbit(img.terms[:, 0]).any() and (img.terms[:, 1] == 0).any()


@pytest.mark.parametrize("which, rows, rank, message", [
    ("d", 5, 2, "D has 5 rows, tensor J extent is 10"),
    ("c", 11, 2, "C has 11 rows, tensor K extent is 10"),
    ("c", 10, 3, "rank mismatch: D rank 2, C rank 3"),
])
def test_mismatched_factors_are_refused_before_the_run(which, rows, rank,
                                                        message):
    t = sorted_tensor((10, 10, 10), 60, seed=1)
    assert t.j.max() >= 5  # a 5-row D would be indexed past its end
    factors = {"d": FactorMatrix.random(10, 2, seed=1),
               "c": FactorMatrix.random(10, 2, seed=2)}
    factors[which] = FactorMatrix.random(rows, rank, seed=3)
    d, c = factors["d"], factors["c"]
    fab = FabricConfig(fabric_type="type2", pe_count=2, rank=2)
    for run in (lambda: MemoryImage(t, d, c), lambda: mttkrp_oracle(t, d, c),
                lambda: simulate(t, d, c, SystemConfig(fabric=fab)),
                lambda: run_functional(t, d, c, fab)):
        with pytest.raises(ConfigurationError, match=message):
            run()


def test_a_second_answer_to_a_request_is_refused():
    t = sorted_tensor((4, 4, 4), 8, seed=0)
    d, c = FactorMatrix.random(4, 2, seed=1), FactorMatrix.random(4, 2, seed=2)
    cfg = FabricConfig(fabric_type="type1", rank=2)
    (m,) = build_machines(cfg, t, AddressMap.build(t.nnz, t.dims, 2),
                          MemoryImage(t, d, c))
    issued = []
    m.step(0, issued.append)
    (req,) = issued  # the first element load, nothing else can issue yet
    m.deliver(req)
    assert m.outstanding == [0, 0, 0]
    with pytest.raises(ProtocolError, match="second response"):
        m.deliver(req)
    assert m.outstanding == [0, 0, 0]


def test_functional_empty_tensor():
    t = CooTensor((3, 3, 3), *(np.array([], dtype=np.uint32),) * 3,
                  np.array([], dtype=np.float32))
    cfg = FabricConfig(fabric_type="type2", pe_count=2, rank=4)
    out = run_functional(t, FactorMatrix.random(3, 4, seed=0),
                         FactorMatrix.random(3, 4, seed=1), cfg)
    assert np.array_equal(out.values, np.zeros((3, 4), dtype=np.float32))


def test_functional_requires_sorted_elements():
    t = CooTensor((4, 4, 4),
                  np.array([2, 0], dtype=np.uint32),
                  np.array([0, 0], dtype=np.uint32),
                  np.array([0, 0], dtype=np.uint32),
                  np.array([1.0, 2.0], dtype=np.float32))
    cfg = FabricConfig(fabric_type="type2", pe_count=2, rank=2)
    with pytest.raises(ConfigurationError, match="sort the tensor first"):
        run_functional(t, FactorMatrix.random(4, 2, seed=0),
                       FactorMatrix.random(4, 2, seed=1), cfg)


def test_functional_rejects_rank_mismatch():
    t = sorted_tensor((4, 4, 4), 8, seed=0)
    cfg = FabricConfig(fabric_type="type1", pe_count=1, rank=8)
    with pytest.raises(ConfigurationError, match="rank"):
        run_functional(t, FactorMatrix.random(4, 2, seed=0),
                       FactorMatrix.random(4, 2, seed=1), cfg)


def scanned_want_step(m, answers):
    """want_step as a scan of the slots computes it, without row_wait;
    `answers` maps each slot to the kinds of its requests answered so far.

    A complete head counts only if its commit can proceed: not while it
    starts a new row and the current row's flush is still pending.  The
    partition's last flush counts only if no flush is pending.
    """
    w, out = m.max_outstanding, m.outstanding
    head = m.slots[0] if m.slots else None
    return bool(
        (m.pending_flush is not None and out[m._write_port] < w)
        or (m.next_z < m.hi and len(m.slots) < m.slot_cap
            and out[m._elem_port] < w)
        or (out[m._fiber_port] < w
            and any(s.i >= 0 and not (s.d_issued and s.c_issued)
                    for s in m.slots))
        or (head is not None
            and answers.get(head, set()) == {ReqKind.ELEM, ReqKind.ROW_D,
                                             ReqKind.ROW_C}
            and (m.pending_flush is None or m.cur_i is None
                 or head.i == m.cur_i))
        or (m.next_z >= m.hi and not m.slots and m.cur_i is not None
            and m.pending_flush is None))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(*(st.integers(min_value=1, max_value=6),) * 3),
    nnz=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
    fabric_type=st.sampled_from(["type1", "type2"]),
    pe_count=st.integers(min_value=1, max_value=8),
    max_outstanding=st.integers(min_value=1, max_value=16),
    accumulate_cycles=st.integers(min_value=1, max_value=3),
    mode=st.sampled_from(MODES),
    num_lmbs=st.integers(min_value=1, max_value=4),
)
def test_row_wait_counts_slots_awaiting_rows(dims, nnz, seed, fabric_type,
                                            pe_count, max_outstanding,
                                            accumulate_cycles, mode, num_lmbs):
    t = sorted_tensor(dims, min(nnz, dims[0] * dims[1] * dims[2]), seed=seed)
    rank = 4
    d = FactorMatrix.random(dims[1], rank, seed=seed + 1)
    c = FactorMatrix.random(dims[2], rank, seed=seed + 2)
    cfg = FabricConfig(fabric_type=fabric_type, pe_count=pe_count,
                       max_outstanding=max_outstanding,
                       accumulate_cycles=accumulate_cycles, rank=rank)
    steps = [0]
    step, deliver = PeMachine.step, PeMachine.deliver
    answers = {}  # slot -> the kinds of its requests answered so far

    def tallied_deliver(m, req):
        if req.slot is not None:
            kinds = answers.setdefault(req.slot, set())
            assert req.kind not in kinds
            kinds.add(req.kind)
        deliver(m, req)

    def checked_step(m, now, sink):
        issued = step(m, now, sink)
        steps[0] += 1
        # i is set when the element arrives; rows only after it
        assert m.row_wait == sum(1 for s in m.slots
                                 if s.i >= 0 and not s.c_issued)
        for s in m.slots:
            kinds = answers.get(s, set())
            assert (s.i >= 0) == (ReqKind.ELEM in kinds)
            assert s.arrived == len(kinds)
        assert bool(m.want_step) == scanned_want_step(m, answers)
        return issued

    PeMachine.step, PeMachine.deliver = checked_step, tallied_deliver
    try:
        run_functional(t, d, c, cfg)
        simulate(t, d, c, SystemConfig(fabric=cfg, lmb=LmbConfig(mode=mode),
                                       num_lmbs=num_lmbs))
    finally:
        PeMachine.step, PeMachine.deliver = step, deliver
    assert steps[0] > 0 or t.nnz == 0


def test_a_blocked_flush_leaves_the_machine_disarmed():
    # rows of about one element behind a port of four: a burst of commits
    # fills the port with row stores, so a flush waits for the port while
    # the next row's head is complete, and only a response can free it
    t = sorted_tensor((200, 40, 40), 60, seed=5)
    rank = 32
    cfg = FabricConfig(fabric_type="type2", pe_count=1, max_outstanding=4,
                       accumulate_cycles=1, rank=rank)
    syscfg = SystemConfig(fabric=cfg, lmb=LmbConfig(mode="cache-only"),
                          dram=DramConfig(num_banks=2))
    blocked = [0]
    step = PeMachine.step

    def checked_step(m, now, sink):
        issues, busy, cur_i = m.issue_count, m.accum_busy_cycles, m.cur_i
        issued = step(m, now, sink)
        head = m.slots[0] if m.slots else None
        if (m.pending_flush is not None and head is not None
                and head.arrived == 3 and head.i != m.cur_i):
            blocked[0] += 1
        committed = (m.accum_busy_cycles != busy
                     or (cur_i is not None and m.cur_i is None))
        if m.issue_count == issues and not committed:
            # with a one-cycle accumulator, a step that did nothing had
            # nothing it could do, and nothing changes before a response
            assert not m.want_step
        return issued

    PeMachine.step = checked_step
    try:
        simulate(t, FactorMatrix.random(40, rank, seed=1),
                 FactorMatrix.random(40, rank, seed=2), syscfg, verify=True)
    finally:
        PeMachine.step = step
    assert blocked[0] > 0


def test_next_event_names_the_cycle_the_accumulator_frees():
    # one machine, two requests in flight, over a row of two elements, each
    # answer a cycle after its request
    t = CooTensor((1, 2, 2), np.array([0, 0], dtype=np.uint32),
                  np.array([0, 1], dtype=np.uint32),
                  np.array([0, 1], dtype=np.uint32),
                  np.array([1.0, 2.0], dtype=np.float32))
    cfg = FabricConfig(fabric_type="type2", pe_count=1, max_outstanding=2,
                       accumulate_cycles=10, rank=2)
    (m,) = build_machines(cfg, t, AddressMap.build(t.nnz, t.dims, 2),
                          MemoryImage(t, FactorMatrix.random(2, 2, seed=1),
                                      FactorMatrix.random(2, 2, seed=2)))
    # cycle: (the step issued, next_event after it).  Element 0 commits at
    # 3 and holds the accumulator to 13; a port that can issue still asks
    # for the next cycle (4), a full wait for an answer for none (3, 5).
    # Element 1 is complete at 6 and only its commit can act: at 13, and
    # the row's flush then waits for the accumulator to 23.
    want = {0: (True, 1), 1: (True, 2), 2: (True, 3), 3: (True, INF),
            4: (True, 5), 5: (True, INF),
            **{now: (False, 13) for now in range(6, 13)},
            13: (False, 23), 23: (True, INF), 24: (False, INF)}
    sent = []
    for now in sorted(want):
        for req in sent:
            m.deliver(req)
        sent.clear()
        issued = m.step(now, sent.append)
        assert (issued, m.next_event(now)) == want[now], now
    assert m.acc_busy_until == 23 and m.idle()


def _count_accumulator_skips(run, strict):
    """Run `run()` with every PE step checked, and return how many times a
    machine's steps jumped over cycles to a free accumulator.

    A step before the accumulator frees, with no port able to issue, can do
    nothing.  With `strict`, no such step may come unless an answer came
    since the machine's last step: the functional harness jumps to
    `next_event` after a step that issued nothing, and answers a step that
    issued in the next cycle."""
    step, deliver = PeMachine.step, PeMachine.deliver
    answered = set()
    last = {}
    skips = [0]

    def noting_deliver(m, req):
        answered.add(m)
        deliver(m, req)

    def checked_step(m, now, sink):
        if now < m.acc_busy_until and not m._can_act(commit=False):
            assert m in answered or not strict, f"idle step at {now}"
        elif now == m.acc_busy_until and now - last.get(m, now) > 1:
            skips[0] += 1
        answered.discard(m)
        last[m] = now
        return step(m, now, sink)

    PeMachine.step, PeMachine.deliver = checked_step, noting_deliver
    try:
        run()
    finally:
        PeMachine.step, PeMachine.deliver = step, deliver
    return skips[0]


def _accumulator_case(dims, nnz, seed, fabric_type, pe_count, max_outstanding,
                      accumulate_cycles, rank=4):
    t = sorted_tensor(dims, min(nnz, dims[0] * dims[1] * dims[2]), seed=seed)
    d = FactorMatrix.random(dims[1], rank, seed=seed + 1)
    c = FactorMatrix.random(dims[2], rank, seed=seed + 2)
    cfg = FabricConfig(fabric_type=fabric_type, pe_count=pe_count,
                       max_outstanding=max_outstanding,
                       accumulate_cycles=accumulate_cycles, rank=rank)
    return t, d, c, cfg


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(*(st.integers(min_value=1, max_value=6),) * 3),
    nnz=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
    fabric_type=st.sampled_from(["type1", "type2"]),
    pe_count=st.integers(min_value=1, max_value=8),
    max_outstanding=st.integers(min_value=1, max_value=16),
    accumulate_cycles=st.integers(min_value=2, max_value=4),
)
def test_the_harness_skips_a_wait_for_the_accumulator(**case):
    t, d, c, cfg = _accumulator_case(**case)
    _count_accumulator_skips(lambda: run_functional(t, d, c, cfg), strict=True)


def test_both_drivers_jump_to_a_free_accumulator():
    # the engine's quiet jump reads next_event too, where nothing else moves
    t, d, c, cfg = _accumulator_case((8, 8, 8), 120, seed=3,
                                     fabric_type="type2", pe_count=2,
                                     max_outstanding=4, accumulate_cycles=3)
    assert _count_accumulator_skips(lambda: run_functional(t, d, c, cfg),
                                    strict=True) > 0
    syscfg = SystemConfig(fabric=cfg, lmb=LmbConfig(mode="proposed"))
    assert _count_accumulator_skips(
        lambda: simulate(t, d, c, syscfg, verify=True), strict=False) > 0


@settings(max_examples=80, deadline=None)
@given(
    dims=st.tuples(*(st.integers(min_value=1, max_value=6),) * 3),
    nnz=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=1000),
    fabric_type=st.sampled_from(["type1", "type2"]),
    pe_count=st.integers(min_value=1, max_value=8),
    max_outstanding=st.integers(min_value=1, max_value=16),
    accumulate_cycles=st.integers(min_value=1, max_value=3),
    rank=st.integers(min_value=1, max_value=32),
)
@example(dims=(3, 3, 3), nnz=0, seed=0, fabric_type="type2", pe_count=3,
         max_outstanding=2, accumulate_cycles=1, rank=4)
@example(dims=(1, 6, 6), nnz=30, seed=1, fabric_type="type2", pe_count=4,
         max_outstanding=3, accumulate_cycles=2, rank=5)
@example(dims=(1, 6, 6), nnz=30, seed=2, fabric_type="type1", pe_count=1,
         max_outstanding=1, accumulate_cycles=3, rank=32)
def test_functional_matches_the_interleaved_reference(**case):
    # the machines run one after another; the reference steps them side by
    # side on one clock, every cycle, and answers from one shared queue
    t, d, c, cfg = _accumulator_case(**case)
    got_trace, want_trace = RequestTrace(), RequestTrace()
    got = run_functional(t, d, c, cfg, trace=got_trace)
    want = run_functional_interleaved(t, d, c, cfg, trace=want_trace)
    assert np.array_equal(got.values.view(np.uint32),
                          want.values.view(np.uint32))
    assert got_trace.records == want_trace.records
    assert len(got_trace) >= 3 * t.nnz


def test_request_stream_is_deterministic():
    t = sorted_tensor((10, 8, 8), 120, seed=7, clustered=True)
    d = FactorMatrix.random(8, 8, seed=1)
    c = FactorMatrix.random(8, 8, seed=2)
    cfg = FabricConfig(fabric_type="type2", pe_count=4, rank=8)
    traces = []
    for _ in range(2):
        tr = RequestTrace()
        run_functional(t, d, c, cfg, trace=tr)
        traces.append(tr.records)
    assert traces[0] == traces[1]
    assert len(traces[0]) > 0


@pytest.mark.parametrize("fabric_type", ["type1", "type2"])
def test_request_counts_follow_the_algorithm(fabric_type):
    t = sorted_tensor((10, 8, 8), 120, seed=9, clustered=True)
    rank = 8
    cfg = FabricConfig(fabric_type=fabric_type, pe_count=4, rank=rank)
    tr = RequestTrace()
    run_functional(t, FactorMatrix.random(8, rank, seed=1),
                   FactorMatrix.random(8, rank, seed=2), cfg, trace=tr)
    by_kind = {}
    for _, kind, _, pe, addr, nbytes, _ in tr.records:
        by_kind.setdefault(kind, []).append((pe, addr, nbytes))

    # every element address fetched exactly once, one D and one C row per
    # element, each at the layout's address
    amap = AddressMap.build(t.nnz, t.dims, rank)
    assert sorted(a for _, a, _ in by_kind["elem"]) == \
        [element_addr(amap, z) for z in range(t.nnz)]
    assert sorted(a for _, a, _ in by_kind["row_d"]) == \
        sorted(d_row_addr(amap, int(j)) for j in t.j)
    assert sorted(a for _, a, _ in by_kind["row_c"]) == \
        sorted(c_row_addr(amap, int(k)) for k in t.k)
    assert sorted(a for _, a, _ in by_kind["write"]) == \
        [out_row_addr(amap, int(i)) for i in np.unique(t.i)]

    # one flush per distinct output row, and rows never shared between PEs
    writes = by_kind["write"]
    assert sum(nb for _, _, nb in writes) == len(np.unique(t.i)) * rank * 4
    writers = {}
    for pe, addr, _ in writes:
        writers.setdefault(addr, set()).add(pe)
    assert all(len(pes) == 1 for pes in writers.values())
    if fabric_type == "type2":
        flushes_per_pe = {}
        for pe, _, _ in writes:
            flushes_per_pe[pe] = flushes_per_pe.get(pe, 0) + 1
        for m, (lo, hi) in enumerate(partition_nonzeros(t.i, 4)):
            assert flushes_per_pe.get(m, 0) == len(np.unique(t.i[lo:hi]))


def test_type1_multiset_matches_single_pe_type2():
    t = sorted_tensor((10, 8, 8), 120, seed=9)
    d = FactorMatrix.random(8, 8, seed=1)
    c = FactorMatrix.random(8, 8, seed=2)
    traces = []
    for cfg in (FabricConfig(fabric_type="type1", pe_count=4, rank=8),
                FabricConfig(fabric_type="type2", pe_count=1, rank=8)):
        tr = RequestTrace()
        run_functional(t, d, c, cfg, trace=tr)
        traces.append(tr)
    multisets = [sorted((k, a, n) for _, k, _, _, a, n, _ in tr.records)
                 for tr in traces]
    assert multisets[0] == multisets[1]
    # with a single block every request targets block 0
    assert all(rec[2] == 0 for rec in traces[0].records)


def test_trace_dump_format():
    t = sorted_tensor((4, 4, 4), 5, seed=3)
    cfg = FabricConfig(fabric_type="type1", pe_count=1, rank=2)
    tr = RequestTrace()
    run_functional(t, FactorMatrix.random(4, 2, seed=0),
                   FactorMatrix.random(4, 2, seed=1), cfg, trace=tr)
    buf = io.StringIO()
    tr.dump(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# cycle kind lmb pe addr len tag"
    assert len(lines) == len(tr) + 1
    for line in lines[1:]:
        assert len(line.split()) == 7


def test_type1_uses_one_machine_for_all_elements():
    t = sorted_tensor((6, 6, 6), 30, seed=5)
    cfg = FabricConfig(fabric_type="type1", pe_count=4, rank=4)
    amap = AddressMap.build(t.nnz, t.dims, cfg.rank)
    machines = build_machines(cfg, t, amap, MemoryImage(
        t, FactorMatrix.random(6, 4, seed=0), FactorMatrix.random(6, 4, seed=1)))
    assert len(machines) == 1
    assert (machines[0].next_z, machines[0].hi) == (0, t.nnz)


def test_type2_machines_cover_all_elements():
    t = sorted_tensor((6, 6, 6), 30, seed=5)
    cfg = FabricConfig(fabric_type="type2", pe_count=4, rank=4)
    amap = AddressMap.build(t.nnz, t.dims, cfg.rank)
    machines = build_machines(cfg, t, amap, MemoryImage(
        t, FactorMatrix.random(6, 4, seed=0), FactorMatrix.random(6, 4, seed=1)))
    assert len(machines) == 4
    spans = [(m.next_z, m.hi) for m in machines]
    assert spans[0][0] == 0 and spans[-1][1] == t.nnz


def test_config_validation():
    with pytest.raises(ConfigurationError, match="fabric type"):
        FabricConfig(fabric_type="type3")
    with pytest.raises(ConfigurationError):
        FabricConfig(pe_count=0)
    with pytest.raises(ConfigurationError):
        FabricConfig(max_outstanding=0)
    with pytest.raises(ConfigurationError):
        FabricConfig(rank=0)


def test_cp_als_runs_on_fabric_kernel():
    t = sorted_tensor((6, 5, 7), 60, seed=11)
    cfg = FabricConfig(fabric_type="type2", pe_count=2, rank=3)
    res = cp_als(t, rank=3, max_iters=3, seed=0,
                 mttkrp=fabric_mttkrp_kernel(cfg))
    ref = cp_als(t, rank=3, max_iters=3, seed=0)
    assert res.mttkrp_calls == ref.mttkrp_calls == 9
    assert np.allclose(res.fits, ref.fits, rtol=1e-5, atol=1e-6)
