"""Memory-block internals: hash, buffers, cache array, fetch slots, DMA."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from lmbsim.errors import ConfigurationError
from lmbsim.fabric import MemoryRequest, ReqKind
from lmbsim.memsys import (CacheArray, CacheConfig, DmaConfig, DmaEngine, Lmb,
                           LmbConfig, MshrConfig, RrshConfig, RrshTable,
                           TempBuffer, TempBufferConfig, xor_hash, _FetchSlots)

from refmodel import SetAssocLruRef


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
        hit = cache.lookup(line)
        if not hit:
            cache.insert(line)
        assert hit == ref.access(line)


def test_cache_insert_reports_lru_victim():
    cache = CacheArray(CacheConfig(num_lines=16, assoc=2))  # 8 sets
    assert cache.insert(0) is None
    assert cache.insert(8) is None   # same set as 0
    cache.lookup(0)                  # 0 becomes MRU
    assert cache.insert(16) == 8


def test_cache_config_validation():
    with pytest.raises(ConfigurationError):
        CacheConfig(line_bytes=32)
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
    return Lmb(0, cfg, image=None)  # no line returns, so nothing is answered


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
    assert [(ready, beat.addr) for ready, beat in lmb.to_router] == \
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
        lmb.in_resp.push(5, (lmb._fill, 7))
        lmb._finish_read = lambda waiter, now, line: None
    assert _miss_cycles(lmb, 8) == ([6] if fill else [5])
    assert lmb._open_splits == 1 and not lmb._intake


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
    return MemoryRequest(kind, addr, nbytes, pe, tag, ("drow", 0))


def drain_beats(dma, limit=100):
    beats = []
    for _ in range(limit):
        beat = dma.step_beats(0)
        if beat is None:
            break
        beats.append(beat)
    return beats


@pytest.mark.parametrize("nbytes", range(4, 257, 4))
def test_dma_beats_cover_aligned_request(nbytes):
    dma = DmaEngine(DmaConfig(), {})
    dma.enqueue(make_req(ReqKind.ROW_D, 0, nbytes))
    assert dma.step_grant(0)
    beats = drain_beats(dma)
    assert len(beats) == math.ceil(nbytes / 64)
    assert sum(u for _, _, _, u in beats) == nbytes


def test_dma_unaligned_request_spans_extra_line():
    dma = DmaEngine(DmaConfig(), {})
    dma.enqueue(make_req(ReqKind.ROW_C, 60, 8))
    dma.step_grant(0)
    beats = drain_beats(dma)
    assert [(a, u) for a, _, _, u in beats] == [(0, 4), (64, 4)]


def test_dma_desc_slot_frees_at_last_beat_issue():
    stats = {}
    dma = DmaEngine(DmaConfig(desc_slots=1), stats)
    dma.enqueue(make_req(ReqKind.ROW_D, 0, 128, tag=1))
    dma.enqueue(make_req(ReqKind.ROW_D, 256, 64, tag=2))
    assert dma.step_grant(0)
    assert not dma.step_grant(0)  # slot occupied
    assert stats["grant_stall_cycles"] == 1
    drain_beats(dma)
    # responses have not returned, but address generation finished
    assert dma.step_grant(0)
    assert stats["descs"] == 2


def test_dma_credits_throttle_and_return():
    stats = {}
    dma = DmaEngine(DmaConfig(buffers=1, buffer_bytes=64), stats)
    dma.enqueue(make_req(ReqKind.ROW_D, 0, 128))
    dma.step_grant(0)
    assert len(drain_beats(dma)) == 1
    assert stats["credit_stall_cycles"] == 1
    dma.credit_return()
    assert len(drain_beats(dma)) == 1


def test_dma_completion_fires_after_all_beats_respond():
    dma = DmaEngine(DmaConfig(), {})
    req = make_req(ReqKind.ROW_D, 0, 128)
    dma.enqueue(req)
    dma.step_grant(0)
    beats = drain_beats(dma)
    assert dma.on_response(beats[0][2]) is None
    assert dma.on_response(beats[1][2]) is req
    assert not dma.backlog()


def test_dma_write_beats_marked_write():
    dma = DmaEngine(DmaConfig(), {})
    dma.enqueue(make_req(ReqKind.WRITE, 0, 128))
    dma.step_grant(0)
    beats = drain_beats(dma)
    assert all(rw == "w" for _, rw, _, _ in beats)


def test_dma_round_robin_interleaves_descriptors():
    dma = DmaEngine(DmaConfig(), {})
    dma.enqueue(make_req(ReqKind.ROW_D, 0, 128, pe=0))
    dma.enqueue(make_req(ReqKind.ROW_D, 1024, 128, pe=1))
    assert dma.step_grant(0) and dma.step_grant(0)
    addrs = [a for a, _, _, _ in drain_beats(dma)]
    assert addrs == [0, 1024, 64, 1088]


def test_dma_config_validation():
    with pytest.raises(ConfigurationError):
        DmaConfig(buffer_bytes=60)
    with pytest.raises(ConfigurationError):
        DmaConfig(buffers=0)
    with pytest.raises(ConfigurationError):
        DmaConfig(desc_slots=0)
    assert DmaConfig(buffers=4, buffer_bytes=256).beat_credits == 16
