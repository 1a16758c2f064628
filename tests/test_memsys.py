"""Memory-block internals: hash, buffers, cache array, fetch slots, DMA."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from lmbsim.engine import SystemConfig, replay_trace
from lmbsim.errors import ConfigurationError
from lmbsim.fabric import MemoryRequest, ReqKind
from lmbsim.memsys import (CacheArray, CacheConfig, DmaConfig, DmaEngine, Lmb,
                           LmbConfig, MshrConfig, RrshConfig, RrshTable,
                           TempBuffer, TempBufferConfig, xor_hash, _FetchSlots)
from lmbsim.queues import TimedFifo

from refmodel import Beat, SetAssocLruRef, cache_read, pop_ready


# --- xor fold hash ------------------------------------------------------------

def test_xor_hash_frozen_values():
    # 0xA5 into 16 buckets: 0x5 ^ 0xA = 0xF
    assert xor_hash(0xA5, 16) == 15
    # 0x12345 into 256 buckets: 0x45 ^ 0x23 ^ 0x01 = 0x67
    assert xor_hash(0x12345, 256) == 0x67
    assert xor_hash(0, 64) == 0
    assert xor_hash(12345, 1) == 0  # degenerate single-bucket table


def test_xor_hash_rejects_non_power_of_two():
    with pytest.raises(ConfigurationError):
        xor_hash(5, 12)


@pytest.mark.parametrize("buckets", [1, 1024])
def test_xor_hash_rejects_negative_value(buckets):
    # a negative value never shifts down to zero, so it must not reach the loop
    with pytest.raises(ConfigurationError, match="-1"):
        xor_hash(-1, buckets)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**48),
       st.sampled_from([2, 16, 256, 1024]))
def test_xor_hash_in_range(value, buckets):
    assert 0 <= xor_hash(value, buckets) < buckets


def test_xor_hash_mixes_high_bits():
    # same low bits, different high bits, must not all collide
    hashes = {xor_hash((h << 16) | 0x3, 256) for h in range(16)}
    assert len(hashes) > 1


# --- temp buffer --------------------------------------------------------------

def test_temp_buffer_fifo_eviction():
    tb = TempBuffer(TempBufferConfig(entries=2))
    tb.deposit(1)
    tb.deposit(2)
    assert tb.probe(1) and tb.probe(2)
    tb.deposit(3)
    assert not tb.probe(1)
    assert tb.probe(2) and tb.probe(3)


def test_temp_buffer_redeposit_keeps_age():
    tb = TempBuffer(TempBufferConfig(entries=2))
    tb.deposit(1)
    tb.deposit(2)
    tb.deposit(1)  # already present: position unchanged
    tb.deposit(3)  # evicts 1, the oldest
    assert not tb.probe(1)
    assert tb.probe(2) and tb.probe(3)


# --- request-sharing table ----------------------------------------------------

def test_rrsh_coalesces_waiters():
    table = RrshTable(RrshConfig(entries=8, ways=2, pending_cap=16))
    assert table.lookup(5) is None
    assert table.allocate(5, "first")
    assert table.lookup(5) == ["first"]
    table.add_waiter(5, "second")
    assert table.pending == 2
    assert table.complete(5) == ["first", "second"]
    assert table.pending == 0
    assert table.lookup(5) is None


def test_rrsh_pending_cap():
    table = RrshTable(RrshConfig(entries=4, ways=4, pending_cap=2))
    table.allocate(0, "a")
    table.add_waiter(0, "b")
    assert not table.can_take_waiter()
    table.complete(0)
    assert table.can_take_waiter()


def test_rrsh_full_set_forces_bypass():
    # one bucket, four ways
    table = RrshTable(RrshConfig(entries=4, ways=4, pending_cap=64))
    for line in range(4):
        assert table.allocate(line, f"r{line}")
    assert table.allocate(99, "overflow") is False
    assert table.pending == 4


def test_rrsh_config_needs_a_bucket():
    with pytest.raises(ConfigurationError, match="bucket count 0"):
        RrshConfig(entries=0, ways=4)
    with pytest.raises(ConfigurationError, match="bucket count 3"):
        RrshConfig(entries=12, ways=4)
    assert RrshConfig(entries=4, ways=4).buckets == 1


# --- cache array vs reference model -------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
def test_cache_array_matches_reference(lines):
    cache = CacheArray(CacheConfig(num_lines=16, assoc=2))
    ref = SetAssocLruRef(num_lines=16, assoc=2)
    for line in lines:
        assert cache_read(cache, line) == ref.access(line)


@pytest.mark.parametrize("seed", range(20))
def test_lookup_pipe_lru_matches_reference(seed):
    # the policy the simulator runs: a hit refreshes its line inside the
    # lookup pipe, a miss fills it when its line returns.  Reads 200 cycles
    # apart each see the previous read's fill, so the block's counts must
    # equal the reference's
    rng = random.Random(seed)
    lines = [rng.randrange(64) for _ in range(300)]
    records = [(200 * n, "elem", 0, 0, 64 * line + 16 * rng.randrange(4), 16,
                n) for n, line in enumerate(lines)]
    syscfg = SystemConfig(lmb=LmbConfig(
        mode="cache-only", cache=CacheConfig(num_lines=16, assoc=2)))
    blocks = replay_trace(records, syscfg)["blocks"]
    ref = SetAssocLruRef(num_lines=16, assoc=2)
    hits = sum(ref.access(line) for line in lines)
    assert 0 < hits < len(lines)
    assert (blocks["cache_hits"], blocks["cache_misses"]) == \
        (hits, len(lines) - hits)


def test_cache_insert_reports_lru_victim():
    cache = CacheArray(CacheConfig(num_lines=16, assoc=2))  # 8 sets
    assert cache.insert(0) is None
    assert cache.insert(8) is None   # same set as 0
    assert cache_read(cache, 0)      # a hit: 0 becomes MRU
    assert cache.insert(16) == 8


def test_cache_config_validation():
    with pytest.raises(ConfigurationError):
        CacheConfig(num_lines=9, assoc=2)
    with pytest.raises(ConfigurationError):
        CacheConfig(num_lines=24, assoc=2)  # 12 sets
    with pytest.raises(ConfigurationError, match="set count 0"):
        CacheConfig(num_lines=0, assoc=2)   # 0 & -1 == 0, yet no set
    assert CacheConfig(num_lines=16, assoc=2).num_sets == 8


# --- lookup pipeline ----------------------------------------------------------
#
# The pipe is folded into the block, so its timing is read off a cache-only
# block: the splitter cuts one request per cycle and its first piece enters
# the pipe in the cycle it is cut; every lookup here misses, so the cycle an
# access is due is the cycle cache_misses counts it.

def _lookup_block(depth, mshr=8):
    cfg = LmbConfig(mode="cache-only",
                    cache=CacheConfig(num_lines=16, pipeline_depth=depth),
                    mshr=MshrConfig(entries=mshr))
    return Lmb(0, cfg)


def _miss_cycles(lmb, cycles):
    out = []
    for now in range(cycles):
        before = lmb.stats["cache_misses"]
        lmb.step(now)
        out += [now] * (lmb.stats["cache_misses"] - before)
    return out


def test_cache_pipe_depth_and_order():
    lmb = _lookup_block(depth=3)
    lmb.accept(make_req(ReqKind.ELEM, 0, 16, tag=0), -1)   # cut at cycle 0
    lmb.accept(make_req(ReqKind.ELEM, 64, 16, tag=1), 0)   # cut at cycle 1
    assert _miss_cycles(lmb, 6) == [2, 3]  # due depth - 1 cycles after entry
    # in order: fetch beats reach the router wire one hop and one
    # arbiter hop after their outcome
    assert [(ready, Beat(*beat).addr) for ready, beat in lmb.to_router] == \
        [(4, 0), (5, 64)]


def test_cache_pipe_capacity():
    # one 4-line request; a single MSHR slot lets the first piece miss and
    # leaves the second waiting at the head, so the pipe fills up
    lmb = _lookup_block(depth=2, mshr=1)
    lmb.accept(make_req(ReqKind.ROW_D, 0, 256), -1)
    for now in range(6):
        lmb.step(now)
        assert len(lmb._pipe) <= 2
    assert len(lmb._pipe) == 2 and len(lmb._intake) == 1
    assert [due for due, _ in lmb._pipe] == [2, 3]


@pytest.mark.parametrize("fill", [False, True])
def test_first_piece_enters_the_pipe_where_it_is_cut(fill):
    # depth 1: an access is due in the cycle it enters, so a piece that
    # enters where it is cut misses in that cycle; a fill in that cycle
    # blocks the intake, and the piece enters from the intake a cycle later
    lmb = _lookup_block(depth=1)
    lmb.accept(make_req(ReqKind.ELEM, 0, 16), 4)             # cut at cycle 5
    if fill:
        lmb.fetch_slots.try_add(7, "w")
        lmb.in_resp.push(5, Beat(addr=7 * 64, useful=16, lmb=0,
                                 handler=lmb._fill, token=7))
        lmb._finish_read = lambda waiter, now, line: None
    assert _miss_cycles(lmb, 8) == ([6] if fill else [5])
    # the request is open: its one piece waits on line 0's fetch slot
    (cur,) = lmb.fetch_slots.lines[0]
    assert cur.unanswered == 1 and not lmb._intake
    assert lmb.stats["responses"] == 0 and not lmb.drained()


# --- fetch slot accounting ----------------------------------------------------

def test_fetch_slots_shared_line_costs_one():
    slots = _FetchSlots(capacity=2, per_request_slots=False)
    assert slots.try_add(10, "w1") is True
    assert slots.try_add(10, "w2") is False  # joined existing fetch
    assert slots.try_add(11, "w3") is True
    assert slots.try_add(12, "w4") is None   # both slots held
    assert slots.complete(10) == ["w1", "w2"]
    assert slots.try_add(12, "w4") is True


def test_fetch_slots_per_request_costs_each():
    slots = _FetchSlots(capacity=2, per_request_slots=True)
    assert slots.try_add(10, "w1") is True
    assert slots.try_add(10, "w2") is False
    assert slots.try_add(10, "w3") is None
    assert slots.used == 2
    slots.complete(10)
    assert slots.used == 0


# --- DMA engine ---------------------------------------------------------------

def make_req(kind, addr, nbytes, pe=0, tag=0):
    return MemoryRequest(kind, addr, nbytes, pe, tag)


def make_dma(cfg=None, stats=None):
    return DmaEngine(cfg or DmaConfig(), {} if stats is None else stats, 0,
                     None, TimedFifo())


def enqueue(dma, req):
    """Put `req` on the engine's wire, due at cycle 0."""
    dma.wire.push(0, req)


def drain_beats(dma, limit=100):
    """Step the engine until a step stages nothing; the beats it staged."""
    for _ in range(limit):
        if not dma.step(0):
            break
    return [Beat(*beat) for _, beat in dma.src]


def split_beats(addr, nbytes):
    """The list form the beat cursor replaced, kept as its reference:
    (beat address, useful bytes) for each 64-byte beat a request covers."""
    end = addr + nbytes
    return [(b, min(end, b + 64) - max(addr, b))
            for b in range(addr - addr % 64, end, 64)]


def ip_port_beats(req):
    """The beats an ip-only port issues for one request, each answered as
    soon as it reaches the router wire."""
    lmb = Lmb(0, LmbConfig(mode="ip-only"))
    lmb.accept(req, -1)
    beats = []
    for now in range(4 * (req.nbytes // 64 + 2)):
        lmb.step(now)
        beat = pop_ready(lmb.to_router, now + 1)
        if beat is not None:
            beats.append(beat)
            lmb.in_resp.push(now + 1, beat)
    assert lmb.stats["responses"] == 1 and lmb._ports[0].req is None
    return [Beat(*beat) for beat in beats]


@settings(max_examples=60, deadline=None)
@given(addr=st.integers(min_value=0, max_value=1 << 20),
       nbytes=st.integers(min_value=1, max_value=600),
       kind=st.sampled_from([ReqKind.ROW_D, ReqKind.WRITE]))
def test_dma_and_ip_beats_equal_the_list_form(addr, nbytes, kind):
    want = split_beats(addr, nbytes)
    dma = make_dma()
    enqueue(dma, make_req(kind, addr, nbytes))
    ip_beats = ip_port_beats(make_req(kind, addr, nbytes))
    for beats in (drain_beats(dma), ip_beats):
        assert [(b.addr, b.useful) for b in beats] == want


@pytest.mark.parametrize("nbytes", range(4, 257, 4))
def test_dma_beats_cover_aligned_request(nbytes):
    dma = make_dma()
    enqueue(dma, make_req(ReqKind.ROW_D, 0, nbytes))
    beats = drain_beats(dma)
    assert dma.stats["descs"] == 1
    assert len(beats) == math.ceil(nbytes / 64)
    assert sum(b.useful for b in beats) == nbytes


def test_dma_unaligned_request_spans_extra_line():
    dma = make_dma()
    enqueue(dma, make_req(ReqKind.ROW_C, 60, 8))
    beats = drain_beats(dma)
    assert [(b.addr, b.useful) for b in beats] == [(0, 4), (64, 4)]


def test_dma_desc_slot_frees_at_last_beat_issue():
    stats = {}
    dma = make_dma(DmaConfig(desc_slots=1), stats)
    enqueue(dma, make_req(ReqKind.ROW_D, 0, 128, tag=1))
    enqueue(dma, make_req(ReqKind.ROW_D, 256, 64, tag=2))
    assert dma.step(0)            # grant the first request, stage its beat 0
    assert dma.step(0)            # slot occupied: stage beat 1 only
    assert stats["grant_stall_cycles"] == 1 and stats["descs"] == 1
    # responses have not returned, but address generation finished
    assert dma.step(0)
    assert stats["descs"] == 2
    assert [Beat(*b).addr for _, b in dma.src] == [0, 64, 256]


def test_dma_credits_throttle_and_return():
    # one credit: beat 1 waits until the arbiter takes beat 0 off the
    # staging wire, which returns its credit
    lmb = Lmb(0, LmbConfig(mode="dma-only",
                           dma=DmaConfig(buffers=1, buffer_bytes=64)))
    lmb.accept(make_req(ReqKind.ROW_D, 0, 128), -1)
    staged = []
    for now in range(6):
        lmb.step(now)
        staged.append(len(lmb.dma.src))
    assert staged == [1, 0, 1, 0, 0, 0]
    assert [(ready, Beat(*beat).addr) for ready, beat in lmb.to_router] == \
        [(2, 0), (4, 64)]
    assert lmb.stats["credit_stall_cycles"] == 1


def test_dma_completion_fires_after_all_beats_respond():
    lmb = Lmb(0, LmbConfig(mode="dma-only"))
    req = make_req(ReqKind.ROW_D, 0, 128, tag=5)
    lmb.accept(req, -1)
    for now in range(4):
        lmb.step(now)
    first, second = [beat for _, beat in lmb.to_router]
    lmb.to_router.clear()  # the router took both
    desc = Beat(*first).token
    assert Beat(*second).token is desc and desc.unanswered == 2
    lmb.in_resp.push(10, second)
    lmb.step(10)
    assert not lmb.to_fabric and desc.unanswered == 1
    assert not lmb.drained()
    lmb.in_resp.push(11, first)
    lmb.step(11)
    assert pop_ready(lmb.to_fabric, 12) is req  # the answer is the request
    assert desc.unanswered == 0 and lmb.drained()


def test_dma_round_robin_interleaves_descriptors():
    # a grant and a beat per step: the second descriptor joins the rotation
    # one step after the first
    dma = make_dma()
    enqueue(dma, make_req(ReqKind.ROW_D, 0, 192, pe=0))
    enqueue(dma, make_req(ReqKind.ROW_D, 1024, 192, pe=1))
    addrs = [b.addr for b in drain_beats(dma)]
    assert addrs == [0, 64, 1024, 128, 1088, 1152]


def test_dma_config_validation():
    with pytest.raises(ConfigurationError):
        DmaConfig(buffer_bytes=60)
    with pytest.raises(ConfigurationError):
        DmaConfig(buffers=0)
    with pytest.raises(ConfigurationError):
        DmaConfig(desc_slots=0)
    assert DmaConfig(buffers=4, buffer_bytes=256).beat_credits == 16
