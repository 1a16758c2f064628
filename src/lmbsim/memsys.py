"""Local memory block: one set of shared parts, wired one of four ways.

The shared parts: a two-stage request reductor for element reads (TempBuffer
probe of recent lines, then the RrshTable that parks a request on a line in
flight); the cache lookup pipe (a fixed-depth in-order deque in the block, one
intake and one outcome per cycle, over the tag-only CacheArray, whose misses
take _FetchSlots and whose write pieces go out write-through, no-allocate);
the DmaEngine (per-PE descriptor queues it fills from in_dma itself,
round-robin beat issue, staging credits, which are the staged beats: a beat
holds one from issue until the arbiter takes it); the cursor, one record of
a request's 64-byte beats (aligned next address, beats not yet issued, beats
not yet answered) for a DMA descriptor, a split request and a raw port; and
the port arbiter, one beat per cycle toward the router, round-robin over the
mode's beat sources (a one-source mode takes its source's head).

The mode picks, once, when the block is built, the wire each request kind
enters on, the request-side step, what a returned line completes and the
arbiter's sources:

  proposed    element reads: in_cache -> reductor -> lookup pipe, one fetch
              slot per line; a returned line answers every parked request.
              Other kinds: in_dma -> DMA engine.  Arbiter: fetches, DMA.
  cache-only  everything: in_cache -> splitter -> intake -> lookup pipe, one
              line piece per line a request touches, each carrying the
              request's cursor, whose last answered piece answers the
              request.  One MSHR slot per waiting piece (primary and
              secondary alike), and the pipe stalls when slots run out.
              Arbiter: fetches, writes.
  dma-only    everything: in_dma -> DMA engine, elements included, so each
              16-byte element costs a full 64-byte beat.  The DMA engine
              drains in_dma, so its step is the block's request step.
  ip-only     raw port: a wire per PE, one request per PE at a time, whose
              beats issue one by one, each after the previous round trip.
              The ports are cursors in a list sorted by PE.  A count of the
              ports holding a beat to issue gates the round-robin issue
              scan: taking a request adds one, issuing a beat takes one
              away, and the answer to a beat that is not its request's last
              adds one back.  A list of the free ports with a request queued
              (filled by accept and by a port's last answer) is all the
              intake looks at; the next step takes every one, because accept
              pushes for the cycle after the blocks have stepped.

A beat is a plain tuple (addr, useful, lmb, handler, token): its aligned
address, the bytes of it its request uses, its block, the block's handler
for its answer and that handler's token.  It comes back itself on in_resp,
so an answer is handler(token, now), with no dispatch on where its beat
came from.

A step that moved nothing finds its next wake on the same wires in every mode
(a wire the mode never feeds is empty): in_resp, in_cache and reductor stage
2, then the lookup pipe.  Nothing else can hold work that such a step
skipped.  The arbiter takes a ready head every cycle, and a beat appended to
a source is ready the next cycle, after a step that moved.  A DMA backlog
always grants, issues a beat or has staged beats ready at the arbiter.  Only
the fabric pushes onto in_dma, after the blocks have stepped, and the
block's next step drains every ready entry.  An intake entry is ready the
cycle after the step that appended it, so one left after a step that moved
nothing waits behind a full pipe.

drained() checks that every wire, stage, queue and fetch slot is empty and
that every request the block accepted has been answered (requests ==
responses); the engine's second-answer ProtocolError rules out a second
answer to one request hiding a missing answer to another.

The block carries no data: it answers a request by pushing the request
itself toward the fabric, whose PE machines read and write the data (see
fabric.py).

Timing contract: every arrow between stages is a 1-cycle timestamped wire.
Within a cycle an Lmb first applies responses from memory, then advances the
request side, then lets the port arbiter pick one beat for the router (a
lone block's arbiter sends it straight onto the DRAM's ingress, two cycles
on, the second being the router's; see engine.py).  Read responses toward
the fabric take a 1-cycle data hop; write acknowledgements are same-cycle
credit pulses (the fabric steps after the memory side).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .dram import BEAT_BYTES
from .errors import ConfigurationError, ProtocolError
from .fabric import ReqKind
from .queues import INF, TimedFifo
from .tensor import ELEMENT_BYTES

MODES = ("proposed", "cache-only", "dma-only", "ip-only")


def xor_hash(value, buckets):
    """Fold an integer into [0, buckets) by XOR of log2(buckets)-wide chunks."""
    if buckets & (buckets - 1):
        raise ConfigurationError(f"bucket count {buckets} is not a power of two")
    v = int(value)
    if v < 0:
        raise ConfigurationError(f"cannot hash negative value {v}")
    if buckets == 1:
        return 0
    width = buckets.bit_length() - 1
    mask = buckets - 1
    h = 0
    while v:
        h ^= v & mask
        v >>= width
    return h


def _check_sets(count, things, ways, set_name):
    """Refuse `count` things that do not fill `ways`-way sets whose count is
    a positive power of two."""
    if ways < 1 or count % ways:
        raise ConfigurationError(f"{count} {things} not divisible into {ways} ways")
    sets = count // ways
    if sets < 1 or sets & (sets - 1):
        raise ConfigurationError(
            f"{set_name} count {sets} is not a positive power of two")


@dataclass(frozen=True)
class CacheConfig:
    num_lines: int = 8192
    assoc: int = 2
    pipeline_depth: int = 3
    miss_slots: int = 16

    def __post_init__(self):
        _check_sets(self.num_lines, "lines", self.assoc, "set")
        if self.pipeline_depth < 1:
            raise ConfigurationError("pipeline depth must be at least 1")
        if self.miss_slots < 1:
            raise ConfigurationError("need at least one miss slot")

    @property
    def num_sets(self):
        return self.num_lines // self.assoc


@dataclass(frozen=True)
class RrshConfig:
    entries: int = 4096
    ways: int = 4
    pending_cap: int = 64

    def __post_init__(self):
        _check_sets(self.entries, "entries", self.ways, "bucket")
        if self.pending_cap < 1:
            raise ConfigurationError("pending cap must be positive")

    @property
    def buckets(self):
        return self.entries // self.ways


@dataclass(frozen=True)
class TempBufferConfig:
    entries: int = 8

    def __post_init__(self):
        if self.entries < 1:
            raise ConfigurationError("TempBuffer needs at least one entry")


@dataclass(frozen=True)
class DmaConfig:
    buffers: int = 4
    buffer_bytes: int = 256
    desc_slots: int = 8

    def __post_init__(self):
        if self.buffers < 1 or self.buffer_bytes < BEAT_BYTES:
            raise ConfigurationError("DMA staging must hold at least one beat")
        if self.buffer_bytes % BEAT_BYTES:
            raise ConfigurationError("DMA buffer bytes must be a beat multiple")
        if self.desc_slots < 1:
            raise ConfigurationError("need at least one DMA descriptor slot")

    @property
    def beat_credits(self):
        # Staging storage in beat units: a staged beat holds one until the
        # port arbiter takes it.
        return self.buffers * self.buffer_bytes // BEAT_BYTES


@dataclass(frozen=True)
class MshrConfig:
    entries: int = 8

    def __post_init__(self):
        if self.entries < 1:
            raise ConfigurationError("need at least one MSHR entry")


@dataclass(frozen=True)
class LmbConfig:
    mode: str = "proposed"
    cache: CacheConfig = field(default_factory=CacheConfig)
    rrsh: RrshConfig = field(default_factory=RrshConfig)
    tempbuf: TempBufferConfig = field(default_factory=TempBufferConfig)
    dma: DmaConfig = field(default_factory=DmaConfig)
    mshr: MshrConfig = field(default_factory=MshrConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown memory mode {self.mode!r}, expected one of {MODES}")


def _line_of(addr):
    return addr // BEAT_BYTES


class _Cursor:
    """A request's 64-byte beats, cut one at a time as each issues (a DMA
    descriptor, and the base of a raw port); a split request's line pieces
    are its first `left` lines from `addr`.  `addr` is the next beat's
    address, `left` the beats not yet issued and `unanswered` those not yet
    answered; beat b of [start, end) has min(end, b + 64) - max(start, b)
    useful bytes."""

    __slots__ = ("req", "start", "end", "addr", "left", "unanswered")

    def load(self, req):
        self.req = req
        self.start = start = req.addr
        self.end = end = start + req.nbytes
        self.addr = addr = start - start % BEAT_BYTES
        self.left = self.unanswered = -((addr - end) // BEAT_BYTES)
        return self

    def beat(self, lmb, handler):
        """The next beat, with this cursor as its handler's token."""
        addr = self.addr
        self.addr = nxt = addr + BEAT_BYTES
        self.left -= 1
        end, start = self.end, self.start
        return ((addr, (end if end < nxt else nxt)
                 - (start if start > addr else addr), lmb, handler, self))


class _Port(_Cursor):
    """ip-only: one PE's raw port, a cursor over the request it works on;
    while it holds one, `left == unanswered` says no beat of it is out."""

    __slots__ = ("pe", "wire")

    def __init__(self, pe, wire):
        self.pe = pe
        self.wire = wire      # requests queued behind the current one
        self.req = None


class TempBuffer:
    """FIFO of recently returned element lines; a probe hit skips the cache."""

    def __init__(self, cfg: TempBufferConfig):
        self.cap = cfg.entries
        self._fifo = deque()
        self._set = set()

    def probe(self, line):
        return line in self._set

    def deposit(self, line):
        if line in self._set:
            return
        if len(self._fifo) >= self.cap:
            self._set.discard(self._fifo.popleft())
        self._fifo.append(line)
        self._set.add(line)


class RrshTable:
    """Set-associative table of element lines in flight, with waiter lists.

    One entry per distinct line; every waiting request counts against a global
    pending cap.  A full set forces the request through untracked (no
    coalescing for it), which is counted but harmless.
    """

    def __init__(self, cfg: RrshConfig):
        self.cfg = cfg
        self.sets = [dict() for _ in range(cfg.buckets)]
        self.pending = 0

    def lookup(self, line):
        return self.sets[xor_hash(line, self.cfg.buckets)].get(line)

    def can_take_waiter(self):
        return self.pending < self.cfg.pending_cap

    def add_waiter(self, line, req):
        self.sets[xor_hash(line, self.cfg.buckets)][line].append(req)
        self.pending += 1

    def allocate(self, line, req):
        """Track a new line; False when the set has no free way."""
        bucket = self.sets[xor_hash(line, self.cfg.buckets)]
        if len(bucket) >= self.cfg.ways:
            return False
        bucket[line] = [req]
        self.pending += 1
        return True

    def complete(self, line):
        bucket = self.sets[xor_hash(line, self.cfg.buckets)]
        waiters = bucket.pop(line)
        self.pending -= len(waiters)
        return waiters


class CacheArray:
    """Tag-only LRU array: the memory side holds no data.

    A set lists its lines MRU last; the block's lookup pipe reads and
    refreshes the sets in place.
    """

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.num_sets = cfg.num_sets
        self.sets = [[] for _ in range(cfg.num_sets)]  # MRU last

    def insert(self, line):
        """Fill a line that is not in its set; returns the evicted line."""
        s = self.sets[line % self.num_sets]
        victim = s.pop(0) if len(s) >= self.cfg.assoc else None
        s.append(line)
        return victim


class _FetchSlots:
    """Line fetches in flight.

    per_request_slots False: one slot per line (non-blocking fetch engine).
    per_request_slots True: one slot per waiting piece, primaries and
    secondaries alike, which is what throttles the conventional cache.
    """

    def __init__(self, capacity, per_request_slots):
        self.capacity = capacity
        self.per_request = per_request_slots
        self.lines = {}
        self.used = 0

    def try_add(self, line, waiter):
        cost = 1 if self.per_request else (0 if line in self.lines else 1)
        if self.used + cost > self.capacity:
            return None
        new_fetch = line not in self.lines
        if new_fetch:
            self.lines[line] = []
        self.lines[line].append(waiter)
        self.used += cost
        return new_fetch

    def complete(self, line):
        waiters = self.lines.pop(line)
        self.used -= len(waiters) if self.per_request else 1
        return waiters


class DmaEngine:
    """Descriptor-based bulk mover with shared staging credits.

    Per-PE descriptor queues, filled from `wire` (the block's in_dma); one
    grant per cycle into a free descriptor slot; one beat issued per cycle
    round-robin over active descriptors, staged on `src`.  A descriptor slot
    is an address-generation context: it frees once the last beat has issued,
    while the descriptor counts its answers.  Each beat on `src` holds one
    staging credit, so the credits left are beat_credits - len(src): they
    bound how far the engine runs ahead of the port, not the DRAM round
    trip.  In proposed the block steps it only while `wire`, `queued`
    or `descs` holds something; in dma-only it is the request step.
    """

    def __init__(self, cfg: DmaConfig, stats, lmb_id, done, wire):
        self.cfg = cfg
        self.lmb_id = lmb_id
        self.done = done   # the block's handler for a DMA beat's answer
        self.wire = wire   # requests toward the queues
        self.queues = {}   # pe -> waiting requests
        self._pes = []     # the keys of queues, sorted
        self.queued = 0    # requests in all queues
        self.descs = []    # slot-holding cursors, each with a beat left
        self.src = deque()  # staged beats toward the port arbiter
        self.beat_credits = cfg.beat_credits
        self._grant_rr = 0
        self._beat_rr = 0
        self.stats = stats
        stats.update(descs=0, beats=0, grant_stall_cycles=0,
                     credit_stall_cycles=0)

    def step(self, now):
        """Queue the requests due on the wire, grant a queued request a slot,
        then stage one beat; True if any of these happened."""
        moved = False
        wire = self.wire
        while wire and wire[0][0] <= now:
            req = wire.popleft()[1]
            q = self.queues.get(req.pe)
            if q is None:
                q = self.queues[req.pe] = deque()
                insort(self._pes, req.pe)
            q.append(req)
            self.queued += 1
            moved = True
        descs = self.descs
        if self.queued:
            if len(descs) >= self.cfg.desc_slots:
                self.stats["grant_stall_cycles"] += 1
            else:
                pes = self._pes
                n = len(pes)
                rr = self._grant_rr
                for off in range(n):
                    q = self.queues[pes[(rr + off) % n]]
                    if q:
                        self.queued -= 1
                        self._grant_rr = (rr + off + 1) % n
                        descs.append(_Cursor().load(q.popleft()))
                        self.stats["descs"] += 1
                        moved = True
                        break
        if not descs:
            return moved
        if len(self.src) >= self.beat_credits:
            self.stats["credit_stall_cycles"] += 1
            return moved
        count = len(descs)
        idx = self._beat_rr % count
        desc = descs[idx]
        self.stats["beats"] += 1
        self._beat_rr = (self._beat_rr + 1) % count
        self.src.append((now + 1, desc.beat(self.lmb_id, self.done)))
        if not desc.left:
            del descs[idx]
        return True


class Lmb:
    """One memory block; its mode picks how the shared parts are wired."""

    def __init__(self, lmb_id, cfg: LmbConfig):
        self.lmb_id = lmb_id
        self.cfg = cfg
        self.mode = mode = cfg.mode
        self.wake = INF       # step is a no-op before this cycle
        self._wait_from = None  # first cycle the pipe head found no miss slot
        # wires toward this block; a push onto an empty one lowers wake
        self.in_cache = TimedFifo(self)  # into the reductor or the splitter
        self.in_dma = TimedFifo(self)
        self.in_resp = TimedFifo(self)
        # wires away from this block; the arbiter's beats are on to_router
        # send_delay cycles on (a lone block's router rewires both)
        self.to_router = TimedFifo()
        self.send_delay = 1
        self.to_fabric = TimedFifo()
        # internals
        self.stats = {
            "requests": 0, "tempbuf_hits": 0, "coalesced": 0,
            "rrsh_bypass": 0, "rrsh_stall_cycles": 0,
            "cache_hits": 0, "cache_misses": 0, "evictions": 0,
            "miss_slot_stall_cycles": 0, "fill_block_cycles": 0,
            "write_beats": 0, "responses": 0,
        }
        self.cache = CacheArray(cfg.cache)
        self._sets = self.cache.sets
        self._num_sets = self.cache.num_sets
        # lookup pipe: in-order (due, (kind, waiter, line)); an access
        # entering at cycle t is due at t + pipeline_depth - 1
        self._pipe = deque()
        self._depth = cfg.cache.pipeline_depth
        per_req = mode == "cache-only"
        cap = cfg.mshr.entries if per_req else cfg.cache.miss_slots
        self.fetch_slots = _FetchSlots(cap, per_req)
        self.tempbuf = TempBuffer(cfg.tempbuf)
        self.rrsh = RrshTable(cfg.rrsh)
        self.dma = DmaEngine(cfg.dma, self.stats, lmb_id, self._answered,
                             self.in_dma)
        # stage wires inside the block: plain deques of (ready, item),
        # appended and read in place (see queues.py)
        self._stage2 = deque()     # reductor stage 1 -> stage 2
        self._intake = deque()     # stage 2 / splitter -> lookup pipe
        self._cache_src = deque()  # fetch beats toward the arbiter
        self._wr_src = deque()
        self._ip_src = deque()
        self._ports = []             # ip-only: _Port records, sorted by pe
        self._port_of = {}           # pe -> its _Port
        self._ip_issuable = 0        # ports holding a beat to issue
        self._ip_takers = []         # free ports with a request queued
        self._ip_rr = 0
        self._fill_block = -1
        self._arb_rr = 0
        # the wiring: request-side step, what a returned line completes and
        # the arbiter's sources
        self._step_requests, self._finish_read, self._sources = {
            "proposed": (self._step_proposed, self._finish_elem_line,
                         (self._cache_src, self.dma.src)),
            "cache-only": (self._step_cache_only, self._answered,
                           (self._cache_src, self._wr_src)),
            "dma-only": (self.dma.step, None, (self.dma.src,)),
            "ip-only": (self._step_ip, None, (self._ip_src,)),
        }[mode]
        self._lone_source = self._sources[0] if len(self._sources) == 1 else None
        # the wires _idle_wake reads, the same in every mode
        self._wake_wires = (self.in_resp, self.in_cache, self._stage2)
        # the wire each request kind enters on, indexed by ReqKind; ip-only
        # has a wire per PE instead
        cache, dma = self.in_cache, self.in_dma
        self._entry = {"proposed": (cache, dma, dma, dma),
                       "cache-only": (cache, cache, cache, cache),
                       "dma-only": (dma, dma, dma, dma)}.get(mode)

    # -- request intake from the fabric ---------------------------------

    def accept(self, req, now):
        self.stats["requests"] += 1
        entry = self._entry
        wire = self._ip_wire(req) if entry is None else entry[req.kind]
        wire.push(now + 1, req)

    def _ip_wire(self, req):
        port = self._port_of.get(req.pe)
        if port is None:
            port = self._port_of[req.pe] = _Port(req.pe, TimedFifo(self))
            insort(self._ports, port, key=attrgetter("pe"))
        if port.req is None and not port.wire:
            self._ip_takers.append(port)
        return port.wire

    # -- responses to the fabric -----------------------------------------

    def _respond(self, req, now):
        """The answer is the request itself: a read's takes the data hop, a
        write ack is a same-cycle credit pulse."""
        self.stats["responses"] += 1
        self.to_fabric.push(now if req.kind is ReqKind.WRITE else now + 1, req)

    # -- answers from memory: each beat names its handler -------------------

    def _fill(self, line, now):
        """A fetched line: fill it, block the intake, answer its waiters.

        The fill frees a miss slot, so a pipe head waiting for one stops
        waiting now and its stall is charged once, here.
        """
        if self.cache.insert(line) is not None:
            self.stats["evictions"] += 1
        self._fill_block = now
        if self._wait_from is not None:
            self.stats["miss_slot_stall_cycles"] += now - self._wait_from
            self._wait_from = None
        self.stats["fill_block_cycles"] += 1
        for waiter in self.fetch_slots.complete(line):
            self._finish_read(waiter, now, line)

    def _finish_elem_line(self, waiter, now, line):
        if waiter == "rrsh":
            for req in self.rrsh.complete(line):
                self._respond(req, now)
        else:
            self._respond(waiter, now)
        self.tempbuf.deposit(line)

    def _answered(self, cur, now, line=None):
        """One beat or line piece of a DMA descriptor or split request is
        answered; the last one answers the request.  A returned line passes
        its line number, which a piece does not need."""
        cur.unanswered -= 1
        if not cur.unanswered:
            self._respond(cur.req, now)

    def _ip_beat_done(self, port, now):
        port.unanswered -= 1
        if port.unanswered:
            self._ip_issuable += 1
        else:
            self._respond(port.req, now)
            port.req = None
            if port.wire:
                self._ip_takers.append(port)

    # -- request side --------------------------------------------------------

    def _step_proposed(self, now):
        moved = False
        # reductor stage 1: TempBuffer probe, one request per cycle
        wire = self.in_cache
        if wire and wire[0][0] <= now:
            req = wire.popleft()[1]
            line = _line_of(req.addr)
            if self.tempbuf.probe(line):
                self.stats["tempbuf_hits"] += 1
                self._respond(req, now)
            else:
                self._stage2.append((now + 1, (req, line)))
            moved = True
        # reductor stage 2: coalescing table, one request per cycle
        stage2 = self._stage2
        if stage2 and stage2[0][0] <= now:
            rrsh = self.rrsh
            if not rrsh.can_take_waiter():
                self.stats["rrsh_stall_cycles"] += 1
            else:
                req, line = stage2.popleft()[1]
                if rrsh.lookup(line) is not None:
                    rrsh.add_waiter(line, req)
                    self.stats["coalesced"] += 1
                elif rrsh.allocate(line, req):
                    self._intake.append((now + 1, (ReqKind.ELEM, "rrsh", line)))
                else:
                    self.stats["rrsh_bypass"] += 1
                    self._intake.append((now + 1, (ReqKind.ELEM, req, line)))
                moved = True
        if self._intake or self._pipe:
            moved |= self._step_lookup(now)
        dma = self.dma
        if self.in_dma or dma.queued or dma.descs:
            moved |= dma.step(now)
        return moved

    def _step_cache_only(self, now):
        moved = False
        # splitter: one request per cycle into line pieces, ready at once
        wire = self.in_cache
        if wire and wire[0][0] <= now:
            req = wire.popleft()[1]
            kind = req.kind
            cur = _Cursor().load(req)
            line = _line_of(cur.addr)
            for piece in range(line, line + cur.left):
                self._intake.append((now, (kind, cur, piece)))
            moved = True
        if self._intake or self._pipe:
            moved |= self._step_lookup(now)
        return moved

    def _step_lookup(self, now):
        """Lookup pipe: one intake and one outcome per cycle.

        The head's cache set is read in place; a hit makes its line MRU.
        Only the head takes miss slots and only a fill frees one or changes
        the sets, so a head that found no slot finds none until a fill comes:
        until then it waits untested, and the fill charges its stall.
        """
        pipe = self._pipe
        moved = False
        intake = self._intake
        if (intake and intake[0][0] <= now and len(pipe) < self._depth
                and self._fill_block != now):
            pipe.append((now + self._depth - 1, intake.popleft()[1]))
            moved = True
        if not pipe or pipe[0][0] > now or self._wait_from is not None:
            return moved
        kind, waiter, line = pipe[0][1]
        s = self._sets[line % self._num_sets]
        hit = line in s
        if hit:
            s.remove(line)  # most recently used
            s.append(line)
        if kind is ReqKind.WRITE:
            # write-through, no allocate: a hit only refreshes the line
            pipe.popleft()
            self.stats["write_beats"] += 1
            self._wr_src.append((now + 1, (line * BEAT_BYTES, BEAT_BYTES,
                                           self.lmb_id, self._answered,
                                           waiter)))
            return True
        if hit:
            pipe.popleft()
            self.stats["cache_hits"] += 1
            self._finish_read(waiter, now, line)
            return True
        new_fetch = self.fetch_slots.try_add(line, waiter)
        if new_fetch is None:
            self._wait_from = now
            return moved
        pipe.popleft()
        self.stats["cache_misses"] += 1
        if new_fetch:
            # an element line serves one element per waiting request
            useful = ELEMENT_BYTES if kind is ReqKind.ELEM else BEAT_BYTES
            self._cache_src.append((now + 1, (line * BEAT_BYTES, useful,
                                              self.lmb_id, self._fill, line)))
        return True

    def _step_ip(self, now):
        moved = False
        takers = self._ip_takers
        if takers:
            # a taker's head is ready: accept pushes it for the cycle after
            # the blocks have stepped
            for port in takers:
                port.load(port.wire.popleft()[1])
            self._ip_issuable += len(takers)
            takers.clear()
            moved = True
        if not self._ip_issuable:
            return moved
        # issue one beat per cycle across PEs, round-robin; a port holding
        # a request with no beat out has one left (its last answer frees
        # it).  The beat carries its port back as token.
        ports = self._ports
        n = len(ports)
        for off in range(n):
            idx = (self._ip_rr + off) % n
            port = ports[idx]
            if port.req is not None and port.left == port.unanswered:
                self._ip_issuable -= 1
                self._ip_rr = (idx + 1) % n
                self._ip_src.append(
                    (now + 1, port.beat(self.lmb_id, self._ip_beat_done)))
                return True
        raise ProtocolError("ip-only issuable count found no port to issue")

    # -- main step ---------------------------------------------------------

    def step(self, now):
        if now < self.wake:
            return False
        moved = False
        wire = self.in_resp
        while wire and wire[0][0] <= now:
            beat = wire.popleft()[1]
            beat[3](beat[4], now)
            moved = True
        moved |= self._step_requests(now)
        # port arbiter: one beat per cycle toward the router, round-robin
        # over the sources; a one-source mode takes its source's head
        src = self._lone_source
        if src is not None:
            if src and src[0][0] <= now:
                self.to_router.push(now + self.send_delay, src.popleft()[1])
                moved = True
        else:
            sources = self._sources
            n = len(sources)
            for off in range(n):
                src = sources[(self._arb_rr + off) % n]
                if src and src[0][0] <= now:
                    beat = src.popleft()[1]
                    self._arb_rr = (self._arb_rr + off + 1) % n
                    self.to_router.push(now + self.send_delay, beat)
                    moved = True
                    break
        self.wake = now + 1 if moved else self._idle_wake(now)
        return moved

    def _idle_wake(self, now):
        """First cycle at which a step that moved nothing can act again.

        Whatever was ready and is not read here is blocked: a pipe head
        waiting for a miss slot waits for a fill on in_resp, the intake waits
        behind a full pipe, and a busy ip port's queued requests wait for its
        response.  A stalled reductor stage 2 counts its stall cycles one
        step at a time.  No free ip port is left with a request queued: the
        step took every one.
        """
        wake = INF
        for wire in self._wake_wires:
            if wire:
                ready = wire[0][0]
                if ready < wake:
                    wake = ready
        pipe = self._pipe
        if pipe and self._wait_from is None:
            wake = min(wake, pipe[0][0])
        return max(wake, now + 1)

    def next_event(self, now):
        return self.wake

    def drained(self):
        return (not self.in_cache and not self.in_dma and not self.in_resp
                and not self._stage2 and not self._intake and not self._pipe
                and not self._cache_src and not self.dma.src
                and not self._wr_src and not self._ip_src
                and not self.to_router and not self.to_fabric
                and self.stats["requests"] == self.stats["responses"]
                and not self.fetch_slots.lines
                and not self.dma.queued
                and all(port.req is None and not port.wire
                        for port in self._ports)
                and self.rrsh.pending == 0)
