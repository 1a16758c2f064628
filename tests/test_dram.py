"""Open-row bank model: address mapping, timing, bus arbitration, blocking."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from collections import deque

from lmbsim.dram import Dram, DramConfig
from lmbsim.errors import ConfigurationError
from lmbsim.queues import INF

from refmodel import Beat


def beat(addr, token=0, useful=64):
    return Beat(addr=addr, useful=useful, lmb=0, handler=None, token=token)


class Sink:
    """Block 0 as the DRAM sees it: a response wire and a wake."""

    def __init__(self):
        self.in_resp = deque()
        self.wake = INF


def dram(cfg):
    d = Dram(cfg)
    d.blocks = [Sink()]
    return d


def drain(dram, horizon=200000):
    """Step until idle; returns [(visible_cycle, beat)] in bus-grant order,
    where a beat is visible the cycle after its grant (it reaches its
    block's in_resp one cycle later still, the router's return cycle)."""
    out = []
    wire = dram.blocks[0].in_resp
    for now in range(horizon):
        dram.step(now)
        while wire:
            ready, item = wire.popleft()
            assert ready == now + 2
            out.append((ready - 1, Beat(*item)))
        if dram.idle():
            return out
    raise AssertionError("dram did not drain")


# --- address mapping ----------------------------------------------------------

def test_locate_interleaves_at_beat_granularity():
    d = dram(DramConfig())  # 16 banks, 4096-byte rows: 64 lines per row
    assert d._locate(0) == (0, 0)
    assert d._locate(64) == (1, 0)
    assert d._locate(15 * 64) == (15, 0)
    assert d._locate(16 * 64) == (0, 0)      # wraps to bank 0, same row
    assert d._locate(16 * 64 * 64) == (0, 1)  # 64 lines deep: next row
    assert d._locate(16 * 64 * 64 + 64) == (1, 1)


def test_locate_masks_high_address_bits():
    d = dram(DramConfig())
    assert d._locate(1 << 31) == (0, 0)
    assert d._locate((1 << 31) + 64) == (1, 0)
    assert d._locate(123456) == d._locate(123456 + (1 << 31))


# --- open-row timing ----------------------------------------------------------

def test_first_access_misses_then_same_row_hits():
    d = dram(DramConfig(num_banks=1))
    d.ingress.push(0, beat(0, token="a"))
    d.ingress.push(0, beat(64, token="b"))  # same bank, same row
    done = drain(d)
    assert d.stats["row_misses"] == 1
    assert d.stats["row_hits"] == 1
    # miss service starts the cycle it arrives: done at 45, on the wire at 46;
    # the hit starts at 45 and lands at 66
    assert [t for t, _ in done] == [46, 66]
    assert [b.token for _, b in done] == ["a", "b"]


def test_row_change_misses_again():
    cfg = DramConfig(num_banks=1, row_bytes=128)  # 2 lines per row
    d = dram(cfg)
    for n, addr in enumerate((0, 64, 128)):  # rows 0, 0, 1
        d.ingress.push(0, beat(addr, token=n))
    drain(d)
    assert d.stats["row_hits"] == 1
    assert d.stats["row_misses"] == 2


def test_custom_timings_respected():
    d = dram(DramConfig(num_banks=1, t_row_hit=5, t_row_miss=9))
    d.ingress.push(0, beat(0))
    d.ingress.push(0, beat(64))
    done = drain(d)
    assert [t for t, _ in done] == [10, 15]  # miss+1, then miss+hit+1


def test_busy_cycles_account_for_service_times():
    d = dram(DramConfig())
    for n in range(40):
        d.ingress.push(n, beat(n * 64, token=n))
    drain(d)
    s = d.stats
    assert s["beats"] == 40
    assert s["row_hits"] + s["row_misses"] == 40
    assert s["busy_cycles"] == 20 * s["row_hits"] + 45 * s["row_misses"]
    assert s["bus_bytes"] == 40 * 64


def test_sequential_stream_revisits_open_rows():
    d = dram(DramConfig())
    for n in range(17):  # 16 banks, line 16 returns to bank 0's open row
        d.ingress.push(0, beat(n * 64, token=n))
    drain(d)
    assert d.stats["row_misses"] == 16
    assert d.stats["row_hits"] == 1


def test_streaming_beats_random_rows_by_the_latency_ratio():
    # one bank, 8192-byte rows: 128 sequential beats stay in one row while
    # 128 row-hopping beats miss every time
    results = {}
    for name, addrs in (
        ("seq", [n * 64 for n in range(128)]),
        ("rand", [(((37 * n) % 128) + 1) * 8192 for n in range(128)]),
    ):
        d = dram(DramConfig(num_banks=1, row_bytes=8192))
        for n, addr in enumerate(addrs):
            d.ingress.push(0, beat(addr, token=n))
        results[name] = drain(d)[-1][0]
    assert results["seq"] < results["rand"]
    # past the shared compulsory first miss the gap is the full hit/miss ratio
    first = 45 + 1
    assert results["rand"] - first >= (results["seq"] - first) * (45 / 20)


def test_longer_miss_latency_never_helps():
    rng = random.Random(5)
    for _ in range(20):
        trace = sorted((rng.randrange(60), rng.randrange(4096) * 64)
                       for _ in range(40))
        by_timing = []
        for t_miss in (45, 60):
            d = dram(DramConfig(num_banks=4, queue_depth=2, t_row_miss=t_miss))
            for n, (cycle, addr) in enumerate(trace):
                d.ingress.push(cycle, beat(addr, token=n))
            by_timing.append({b.token: t for t, b in drain(d)})
        fast, slow = by_timing
        assert all(slow[tok] >= fast[tok] for tok in fast)


# --- bus arbitration ----------------------------------------------------------

def test_one_bus_grant_per_cycle():
    d = dram(DramConfig(num_banks=4))
    for n in range(4):
        d.ingress.push(0, beat(n * 64, token=n))
    done = drain(d)
    # all four services finish at 45; the bus serializes them
    assert [t for t, _ in done] == [46, 47, 48, 49]
    assert [b.token for _, b in done] == [0, 1, 2, 3]


def test_bus_round_robin_is_fair_across_batches():
    d = dram(DramConfig(num_banks=2))
    for n in range(4):
        d.ingress.push(0, beat(n * 64, token=n))
    done = drain(d)
    assert [b.token for _, b in done] == [0, 1, 2, 3]


# --- queues and blocking ------------------------------------------------------

def test_head_of_line_blocking_delays_other_bank():
    cfg = DramConfig(num_banks=2, queue_depth=1)
    d = dram(cfg)
    # three beats for bank 0 ahead of one for bank 1
    for n, addr in enumerate((0, 128, 256)):
        d.ingress.push(0, beat(addr, token=f"b0_{n}"))
    d.ingress.push(0, beat(64, token="b1"))
    done = drain(d)
    assert d.stats["hol_block_cycles"] > 0
    when = {b.token: t for t, b in done}
    # without blocking bank 1 would finish at cycle 46
    assert when["b1"] > 50


def test_blocked_head_sleeps_until_its_bank_frees_a_slot():
    d = dram(DramConfig(num_banks=1, queue_depth=1))
    for n in range(3):                        # one bank, one open row
        d.ingress.push(0, beat(n * 64, token=n))
    d.step(0)      # 0 starts, 1 blocks; the start frees the queue slot
    assert d.next_event(0) == 1
    d.step(1)      # 1 queues behind 0, 2 blocks with the queue full
    assert d.next_event(1) == 45
    assert d.stats["hol_block_cycles"] == 1   # 1's wait, charged as it entered
    for now in range(2, 45):
        assert not d.step(now)
    d.step(45)     # 0 done and granted, 1 starts, 2 was blocked all along
    assert d.stats["hol_block_cycles"] == 1   # nothing until 2 moves
    assert d.next_event(45) == 46
    d.step(46)     # 2 enters: its wait, cycles 1 to 45, is charged now
    assert d.stats["hol_block_cycles"] == 1 + 45
    assert d.stats["beats"] == 3


def test_wait_histogram_counts_every_beat():
    d = dram(DramConfig(num_banks=2))
    for n in range(30):
        d.ingress.push(n // 3, beat(n * 64, token=n))
    drain(d)
    hist = d.stats["wait_histogram"]
    assert sum(hist.values()) == 30
    for bucket in hist:
        assert bucket & (bucket - 1) == 0  # power of two


def test_useful_bytes_tracked_separately():
    d = dram(DramConfig(num_banks=1))
    d.ingress.push(0, beat(0, useful=16))
    d.ingress.push(0, beat(64, useful=4))
    drain(d)
    assert d.stats["bus_bytes"] == 128
    assert d.stats["bus_useful_bytes"] == 20


# --- event scheduling ---------------------------------------------------------

def test_next_event_points_at_service_completion():
    d = dram(DramConfig(num_banks=1))
    d.ingress.push(0, beat(0))
    d.step(0)  # service starts at cycle 0, busy until 45
    assert d.next_event(0) == 45
    assert not d.idle()


def test_idle_dram_reports_no_events():
    d = dram(DramConfig())
    assert d.idle()
    assert d.next_event(0) == INF


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.integers(min_value=0, max_value=4095)),
                min_size=1, max_size=60))
def test_every_beat_is_eventually_granted(arrivals):
    d = dram(DramConfig(num_banks=4, queue_depth=2))
    for n, (cycle, line) in enumerate(sorted(arrivals)):
        d.ingress.push(cycle, beat(line * 64, token=n))
    done = drain(d)
    assert sorted(b.token for _, b in done) == list(range(len(arrivals)))
    assert d.stats["beats"] == len(arrivals)


# --- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        DramConfig(num_banks=3)
    with pytest.raises(ConfigurationError):
        DramConfig(row_bytes=60)
    with pytest.raises(ConfigurationError):
        DramConfig(t_row_hit=0)
    with pytest.raises(ConfigurationError):
        DramConfig(t_row_hit=20, t_row_miss=10)
    with pytest.raises(ConfigurationError):
        DramConfig(queue_depth=0)
    with pytest.raises(ConfigurationError):
        DramConfig(address_bits=8)
