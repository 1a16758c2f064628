"""Open-row DRAM bank model behind a shared beat-wide bus.

Addresses interleave across banks at beat granularity, so sequential streams
rotate over all banks: bank = (addr // 64) mod banks, and each bank's open
row covers row_bytes of its own beats (row = addr // 64 // banks //
(row_bytes // 64)).  A beat hitting the open row costs t_row_hit, anything
else t_row_miss.  Per cycle the model completes services and grants the bus
to at most one finished beat (round-robin over banks, same-cycle grant
allowed), then moves ingress beats into bank queues with head-of-line
blocking on a full queue, then starts new services on idle banks, same-cycle
start allowed.

A beat is the memory side's tuple (addr, useful, lmb, handler, token).  The
router's return half is a pure delay, so the DRAM does it: a granted beat
goes on its block's in_resp two cycles after the grant (see queues.py).

The model is event-driven.  Beats in service sit in a heap keyed on the
cycle their service ends, so completions cost O(log banks) each and nothing
per idle cycle.  A completed bank joins a sorted list of the banks waiting
for the bus, and the round-robin grant bisects that list from the bank
after the last one granted, wrapping to its start.  Only a bank granted the
bus or handed a beat while idle can start a service, so step 3 looks at
those banks alone, and a step that starts none allocates nothing.  At the
end of a step `wake` is the earliest cycle at which the next step can do
anything: the heap's top, the next cycle while a finished beat waits for the
bus, or the ingress head's ready time.  A head blocked on a full bank queue
is left out while that queue stays full; only a service start on its bank,
in some later step, frees a slot.  Its blocked cycles are charged to
hol_block_cycles once, when the wait ends: the step in which the head enters
its queue adds the cycles since the head was first found blocked.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import ConfigurationError
from .queues import INF, TimedFifo

BEAT_BYTES = 64


@dataclass(frozen=True)
class DramConfig:
    num_banks: int = 16
    row_bytes: int = 4096
    t_row_hit: int = 20
    t_row_miss: int = 45
    queue_depth: int = 8
    address_bits: int = 31

    def __post_init__(self):
        if self.num_banks < 1 or self.num_banks & (self.num_banks - 1):
            raise ConfigurationError("bank count must be a power of two")
        if self.row_bytes < BEAT_BYTES or self.row_bytes % BEAT_BYTES:
            raise ConfigurationError("row bytes must be a beat multiple")
        if self.t_row_hit < 1 or self.t_row_miss < self.t_row_hit:
            raise ConfigurationError("need 1 <= t_row_hit <= t_row_miss")
        if self.queue_depth < 1:
            raise ConfigurationError("bank queue depth must be positive")
        if not 12 <= self.address_bits <= 48:
            raise ConfigurationError("address_bits out of range")


class _Bank:
    __slots__ = ("queue", "open_row", "beat")

    def __init__(self):
        self.queue = deque()   # (beat, row, arrival cycle)
        self.open_row = None
        self.beat = None       # in service, or served and waiting for the bus


class Dram:
    def __init__(self, cfg: DramConfig):
        self.cfg = cfg
        self.queue_depth = cfg.queue_depth
        self.t_row_hit = cfg.t_row_hit
        self.t_row_miss = cfg.t_row_miss
        self._addr_mask = (1 << cfg.address_bits) - 1
        self._num_banks = cfg.num_banks
        # beats in one row of every bank: a row index steps once per span
        self._row_span = cfg.num_banks * (cfg.row_bytes // BEAT_BYTES)
        self.banks = [_Bank() for _ in range(cfg.num_banks)]
        self.ingress = TimedFifo(self)  # beats from the router
        self.blocks = []       # by block id: where a granted beat goes
        self.wake = INF        # step is a no-op before this cycle
        self._bus_rr = 0
        self._busy = []        # heap of (service end, bank index)
        self._ready = []       # sorted indices of banks waiting for the bus
        self._hol = None       # (bank, row) of the ingress head while blocked
        self._hol_from = 0     # first cycle a step found that head blocked
        self.stats = {
            "beats": 0, "row_hits": 0, "row_misses": 0,
            "busy_cycles": 0, "hol_block_cycles": 0,
            "bus_bytes": 0, "bus_useful_bytes": 0,
            "wait_histogram": {},  # power-of-two bucket -> count
        }

    def _locate(self, addr):
        line = (addr & self._addr_mask) // BEAT_BYTES
        return line % self._num_banks, line // self._row_span

    def step(self, now):
        if now < self.wake:
            return False
        moved = False
        banks = self.banks
        busy = self._busy
        ready = self._ready
        stats = self.stats
        starts = ()  # banks that may start a service this cycle
        # 1. completions, then one bus grant
        while busy and busy[0][0] <= now:
            insort(ready, heappop(busy)[1])
            moved = True
        if ready:
            # round-robin: the first waiting bank from _bus_rr on, wrapping
            k = bisect_left(ready, self._bus_rr)
            i = ready.pop(k if k < len(ready) else 0)
            self._bus_rr = i + 1
            bank = banks[i]
            beat = bank.beat
            bank.beat = None
            stats["bus_bytes"] += BEAT_BYTES
            stats["bus_useful_bytes"] += beat[1]
            # one bus grant per cycle: on the block's in_resp two cycles on
            block = self.blocks[beat[2]]
            block.in_resp.append((now + 2, beat))
            if now + 2 < block.wake:
                block.wake = now + 2
            if bank.queue:
                starts = (i,)
            moved = True
        # 2. ingress with head-of-line blocking
        ingress = self.ingress
        depth = self.queue_depth
        while ingress and ingress[0][0] <= now:
            beat = ingress[0][1]
            loc = self._hol or self._locate(beat[0])
            bank = banks[loc[0]]
            if len(bank.queue) >= depth:
                if self._hol is None:
                    self._hol = loc
                    self._hol_from = now
                break
            if self._hol is not None:
                stats["hol_block_cycles"] += now - self._hol_from
                self._hol = None
            ingress.popleft()
            if not bank.queue and bank.beat is None:
                starts += (loc[0],)
            bank.queue.append((beat, loc[1], now))
            stats["beats"] += 1
            moved = True
        # 3. start services, same-cycle start allowed
        for i in starts:
            bank = banks[i]
            beat, row, arrived = bank.queue.popleft()
            if row == bank.open_row:
                service = self.t_row_hit
                stats["row_hits"] += 1
            else:
                service = self.t_row_miss
                stats["row_misses"] += 1
            bank.open_row = row
            bank.beat = beat
            heappush(busy, (now + service, i))
            stats["busy_cycles"] += service
            wait = now - arrived
            bucket = 1 << (wait - 1).bit_length() if wait > 1 else 1
            hist = stats["wait_histogram"]
            hist[bucket] = hist.get(bucket, 0) + 1
            moved = True
        # wake: a finished beat is granted next cycle; otherwise the next
        # completion or the ingress head, unless that head is still blocked
        if ready:
            self.wake = now + 1
        else:
            wake = busy[0][0] if busy else INF
            if ingress and (self._hol is None
                            or len(banks[self._hol[0]].queue) < depth):
                wake = min(wake, max(ingress[0][0], now + 1))
            self.wake = wake
        return moved

    def next_event(self, now):
        return self.wake

    def idle(self):
        # called once per run, so it may scan the bank queues
        return (not self.ingress and not self._busy and not self._ready
                and not any(bank.queue for bank in self.banks))
