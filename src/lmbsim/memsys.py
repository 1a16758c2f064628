"""Local memory block: request reduction, cache, DMA engine, raw port.

One Lmb instance models one memory block in one of four modes:

  proposed    element reads pass a two-stage request reductor (TempBuffer
              probe, then a hashed coalescing table) in front of a
              non-blocking cache; factor-row reads and output-row writes go
              through the DMA engine.
  cache-only  every request is split into line pieces and fed through the
              cache; misses take one MSHR slot per waiting piece (primary and
              secondary alike) and stall the pipeline when slots run out;
              writes are write-through, no-allocate.
  dma-only    every request becomes a DMA descriptor, elements included, so
              each 16-byte element costs a full 64-byte beat.
  ip-only     raw port: one request per PE at a time, and the beats of a
              request issue one by one, each waiting for the previous beat's
              round trip.

Timing contract: every arrow between stages is a 1-cycle timestamped wire.
Within a cycle an Lmb first applies responses from memory, then advances the
request side, then lets the port arbiter pick one beat for the router.  Read
responses toward the fabric take a 1-cycle data hop; write acknowledgements
are same-cycle credit pulses (the fabric steps after the memory side).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from .errors import ConfigurationError, ProtocolError
from .fabric import ReqKind
from .queues import INF, TimedFifo

BEAT_BYTES = 64

MODES = ("proposed", "cache-only", "dma-only", "ip-only")


def xor_hash(value, buckets):
    """Fold an integer into [0, buckets) by XOR of log2(buckets)-wide chunks."""
    if buckets & (buckets - 1):
        raise ConfigurationError(f"bucket count {buckets} is not a power of two")
    if buckets == 1:
        return 0
    width = buckets.bit_length() - 1
    mask = buckets - 1
    h = 0
    v = int(value)
    while v:
        h ^= v & mask
        v >>= width
    return h


@dataclass(frozen=True)
class CacheConfig:
    num_lines: int = 8192
    assoc: int = 2
    line_bytes: int = 64
    pipeline_depth: int = 3
    miss_slots: int = 16

    def __post_init__(self):
        if self.line_bytes != BEAT_BYTES:
            raise ConfigurationError("only 64-byte cache lines are supported")
        if self.assoc < 1 or self.num_lines % self.assoc:
            raise ConfigurationError(
                f"{self.num_lines} lines not divisible into {self.assoc} ways")
        sets = self.num_lines // self.assoc
        if sets & (sets - 1):
            raise ConfigurationError(f"set count {sets} is not a power of two")
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
        if self.ways < 1 or self.entries % self.ways:
            raise ConfigurationError(
                f"{self.entries} entries not divisible into {self.ways} ways")
        buckets = self.entries // self.ways
        if buckets & (buckets - 1):
            raise ConfigurationError(f"bucket count {buckets} is not a power of two")
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
        # Staging storage in beat units; a read beat holds a credit from issue
        # until its data is drained, a write beat until its ack returns.
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


class Beat:
    """One 64-byte transfer on the memory side."""

    __slots__ = ("lmb", "origin", "token", "rw", "addr", "useful")

    def __init__(self, lmb, origin, token, rw, addr, useful):
        self.lmb = lmb
        self.origin = origin  # cache | dma | wr | ip
        self.token = token
        self.rw = rw
        self.addr = addr
        self.useful = useful

    def __repr__(self):
        return (f"Beat({self.origin}/{self.rw}, addr={self.addr:#x}, "
                f"lmb={self.lmb}, token={self.token})")


def _line_of(addr):
    return addr // BEAT_BYTES


def _lines_of(addr, nbytes):
    return range(_line_of(addr), _line_of(addr + nbytes - 1) + 1)


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
    """Tag-only LRU array; payload content always comes from the image."""

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.sets = [[] for _ in range(cfg.num_sets)]  # MRU last

    def _set_of(self, line):
        return self.sets[line % self.cfg.num_sets]

    def lookup(self, line, touch=True):
        s = self._set_of(line)
        if line in s:
            if touch:
                s.remove(line)
                s.append(line)
            return True
        return False

    def insert(self, line):
        s = self._set_of(line)
        if line in s:
            s.remove(line)
            s.append(line)
            return None
        victim = None
        if len(s) >= self.cfg.assoc:
            victim = s.pop(0)
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

    def line_in_flight(self, line):
        return line in self.lines

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


class CachePipe:
    """Fixed-depth in-order lookup pipeline, one intake and one outcome per cycle."""

    def __init__(self, depth):
        self.depth = depth
        self.entries = deque()  # (due, item)

    def can_accept(self):
        return len(self.entries) < self.depth

    def accept(self, item, now):
        self.entries.append((now + self.depth - 1, item))

    def head_due(self, now):
        if self.entries and self.entries[0][0] <= now:
            return self.entries[0][1]
        return None

    def pop_head(self):
        return self.entries.popleft()[1]

    def next_due(self):
        return self.entries[0][0] if self.entries else INF


class DmaEngine:
    """Descriptor-based bulk mover with shared staging credits.

    Per-PE descriptor queues; one grant per cycle into a free descriptor slot;
    one beat issued per cycle round-robin over active descriptors.  A
    descriptor slot is an address-generation context: it frees once the last
    beat has issued, while response reassembly is tracked separately.  Each
    issued beat holds one staging credit until the block port drains it, so
    the credits bound how far the engine runs ahead of the port, not the DRAM
    round trip.
    """

    def __init__(self, cfg: DmaConfig, stats):
        self.cfg = cfg
        self.queues = {}   # pe -> waiting requests
        self._pes = []     # the keys of queues, sorted
        self._queued = 0   # requests in all queues
        self.descs = []    # slot-holding, in id order: beats still to issue
        self.pending = {}  # desc id -> response reassembly
        self.credits = cfg.beat_credits
        self._grant_rr = 0
        self._beat_rr = 0
        self._next_desc = 0
        self.stats = stats
        stats.update(descs=0, beats=0, grant_stall_cycles=0,
                     credit_stall_cycles=0)

    def enqueue(self, req):
        q = self.queues.get(req.pe)
        if q is None:
            q = self.queues[req.pe] = deque()
            insort(self._pes, req.pe)
        q.append(req)
        self._queued += 1

    def backlog(self):
        return self._queued > 0 or bool(self.descs)

    def credit_return(self):
        self.credits += 1

    def on_response(self, token, complete_cb):
        desc_id, _ = token
        rec = self.pending[desc_id]
        rec["done"] += 1
        if rec["done"] == rec["total"]:
            del self.pending[desc_id]
            complete_cb(rec["req"])

    def step_grant(self, now):
        if not self._queued:
            return False
        if len(self.descs) >= self.cfg.desc_slots:
            self.stats["grant_stall_cycles"] += 1
            return False
        pes = self._pes
        for off in range(len(pes)):
            pe = pes[(self._grant_rr + off) % len(pes)]
            q = self.queues[pe]
            if q:
                req = q.popleft()
                self._queued -= 1
                self._grant_rr = (self._grant_rr + off + 1) % len(pes)
                beats = [line * BEAT_BYTES for line in
                         _lines_of(req.addr, req.nbytes)]
                self.descs.append({
                    "id": self._next_desc, "req": req, "beats": beats,
                    "next_beat": 0,
                })
                self.pending[self._next_desc] = {
                    "req": req, "total": len(beats), "done": 0,
                }
                self._next_desc += 1
                self.stats["descs"] += 1
                return True
        return False

    def step_beats(self, now, emit):
        if not self.descs:
            return False
        if self.credits <= 0:
            self.stats["credit_stall_cycles"] += 1
            return False
        descs = self.descs
        count = len(descs)
        for off in range(count):
            idx = (self._beat_rr + off) % count
            desc = descs[idx]
            n = desc["next_beat"]
            if n < len(desc["beats"]):
                req = desc["req"]
                rw = "w" if req.kind == ReqKind.WRITE else "r"
                addr = desc["beats"][n]
                useful = (min(req.addr + req.nbytes, addr + BEAT_BYTES)
                          - max(req.addr, addr))
                desc["next_beat"] += 1
                self.credits -= 1
                self.stats["beats"] += 1
                self._beat_rr = (self._beat_rr + off + 1) % count
                if desc["next_beat"] == len(desc["beats"]):
                    del descs[idx]
                emit(addr, rw, (desc["id"], n), useful)
                return True
        return False


class Lmb:
    """One memory block in one of the four modes."""

    def __init__(self, lmb_id, cfg: LmbConfig, image):
        self.lmb_id = lmb_id
        self.cfg = cfg
        self.image = image
        self.mode = cfg.mode
        self.wake = INF       # step is a no-op before this cycle
        self._now = 0         # cycle of the step in progress
        self._stall_at = None  # last cycle the pipe head found no miss slot
        # wires toward this block; a push onto an empty one lowers wake
        self.in_elem = TimedFifo(self)
        self.in_fe = TimedFifo(self)
        self.in_dma = TimedFifo(self)
        self.in_ip = {}
        self.in_resp = TimedFifo(self)
        # wires away from this block
        self.to_router = TimedFifo()
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
        self.pipe = CachePipe(cfg.cache.pipeline_depth)
        per_req = self.mode == "cache-only"
        cap = cfg.mshr.entries if per_req else cfg.cache.miss_slots
        self.fetch_slots = _FetchSlots(cap, per_req)
        self.tempbuf = TempBuffer(cfg.tempbuf)
        self.rrsh = RrshTable(cfg.rrsh)
        self.dma = DmaEngine(cfg.dma, self.stats)
        self._stage2 = TimedFifo()   # reductor stage 1 -> stage 2
        self._intake = TimedFifo()   # stage 2 / splitter -> cache lookup
        self._access_q = deque()     # cache-only pieces awaiting intake
        self._parents = {}           # cache-only: req id -> piece bookkeeping
        self._next_parent = 0
        self._wr_tokens = {}
        self._next_wr = 0
        self._cache_src = TimedFifo()  # fetch beats toward the arbiter
        self._dma_src = TimedFifo()
        self._wr_src = TimedFifo()
        self._ip_src = TimedFifo()
        self._ip_state = {}          # pe -> {req, beats, next, waiting}
        self._ip_pes = []            # the keys of _ip_state, sorted
        self._ip_rr = 0
        self._emit_dma = self._push_dma_beat
        self._fill_block = -1
        self._arb_rr = 0
        self._sources = {
            "proposed": (self._cache_src, self._dma_src),
            "cache-only": (self._cache_src, self._wr_src),
            "dma-only": (self._dma_src,),
            "ip-only": (self._ip_src,),
        }[self.mode]

    # -- request intake from the fabric ---------------------------------

    def accept(self, req, now):
        self.stats["requests"] += 1
        if self.mode == "proposed":
            wire = self.in_elem if req.kind == ReqKind.ELEM else self.in_dma
        elif self.mode == "cache-only":
            wire = self.in_fe
        elif self.mode == "dma-only":
            wire = self.in_dma
        else:
            wire = self.in_ip.get(req.pe)
            if wire is None:
                wire = self.in_ip[req.pe] = TimedFifo(self)
                self._ip_state[req.pe] = {"req": None, "beats": (), "next": 0,
                                          "waiting": False}
                insort(self._ip_pes, req.pe)
        wire.push(now + 1, req)

    # -- responses to the fabric -----------------------------------------

    def _respond(self, req, now):
        """Read data takes a hop; write acks are same-cycle credit pulses."""
        self.stats["responses"] += 1
        if req.kind == ReqKind.WRITE:
            self.image.write(req.sem)
            self.to_fabric.push(now, (req.tag, None))
        else:
            self.to_fabric.push(now + 1, (req.tag, self.image.read(req.sem)))

    # -- memory-side response processing -----------------------------------

    def _apply_response(self, beat_info, now):
        origin, token = beat_info
        if origin == "cache":
            line = token
            victim = self.cache.insert(line)
            if victim is not None:
                self.stats["evictions"] += 1
            self._fill_block = now
            self.stats["fill_block_cycles"] += 1
            for waiter in self.fetch_slots.complete(line):
                self._finish_read_piece(waiter, line, now)
        elif origin == "dma":
            self.dma.on_response(token, lambda req: self._respond(req, now))
        elif origin == "wr":
            parent_id = self._wr_tokens.pop(token)
            self._piece_done(parent_id, now)
        elif origin == "ip":
            self._ip_beat_done(token, now)
        else:
            raise ProtocolError(f"response with unknown origin {origin!r}")

    def _finish_read_piece(self, waiter, line, now):
        if self.mode == "proposed":
            if waiter == "rrsh":
                for req in self.rrsh.complete(line):
                    self._respond(req, now)
            else:
                self._respond(waiter, now)
            self.tempbuf.deposit(line)
        else:
            self._piece_done(waiter, now)

    def _piece_done(self, parent_id, now):
        parent = self._parents[parent_id]
        parent["left"] -= 1
        if parent["left"] == 0:
            del self._parents[parent_id]
            self._respond(parent["req"], now)

    def _ip_beat_done(self, pe, now):
        st = self._ip_state[pe]
        st["waiting"] = False
        if st["next"] >= len(st["beats"]):
            self._respond(st["req"], now)
            st["req"] = None

    # -- per-mode request side ---------------------------------------------

    def _step_proposed(self, now):
        moved = False
        # stage 1: TempBuffer probe, one request per cycle
        req = self.in_elem.peek(now)
        if req is not None:
            line = _line_of(req.addr)
            if self.tempbuf.probe(line):
                self.in_elem.pop(now)
                self.stats["tempbuf_hits"] += 1
                self._respond(req, now)
            else:
                self.in_elem.pop(now)
                self._stage2.push(now + 1, (req, line))
            moved = True
        # stage 2: coalescing table, one request per cycle
        head = self._stage2.peek(now)
        if head is not None:
            req, line = head
            entry = self.rrsh.lookup(line)
            if entry is not None:
                if self.rrsh.can_take_waiter():
                    self._stage2.pop(now)
                    self.rrsh.add_waiter(line, req)
                    self.stats["coalesced"] += 1
                    moved = True
                else:
                    self.stats["rrsh_stall_cycles"] += 1
            elif self.rrsh.can_take_waiter():
                self._stage2.pop(now)
                if self.rrsh.allocate(line, req):
                    self._intake.push(now + 1, ("rrsh", line))
                else:
                    self.stats["rrsh_bypass"] += 1
                    self._intake.push(now + 1, (req, line))
                moved = True
            else:
                self.stats["rrsh_stall_cycles"] += 1
        moved |= self._step_cache(now)
        moved |= self.dma.step_grant(now)
        moved |= self.dma.step_beats(now, self._emit_dma)
        return moved

    def _step_cache_only(self, now):
        moved = False
        # splitter: one request per cycle into line pieces
        req = self.in_fe.pop(now)
        if req is not None:
            parent_id = self._next_parent
            self._next_parent += 1
            lines = list(_lines_of(req.addr, req.nbytes))
            self._parents[parent_id] = {"req": req, "left": len(lines)}
            for line in lines:
                self._access_q.append((req.kind, parent_id, line))
            moved = True
        if self._access_q and self.pipe.can_accept() and self._fill_block != now:
            self.pipe.accept(self._access_q.popleft(), now)
            moved = True
        head = self.pipe.head_due(now)
        if head is not None:
            kind, parent_id, line = head
            if kind == ReqKind.WRITE:
                self.pipe.pop_head()
                self.cache.lookup(line, touch=True)  # write-through, no allocate
                token = self._next_wr
                self._next_wr += 1
                self._wr_tokens[token] = parent_id
                self.stats["write_beats"] += 1
                self._wr_src.push(now + 1, Beat(self.lmb_id, "wr", token, "w",
                                                line * BEAT_BYTES, BEAT_BYTES))
                moved = True
            elif self.cache.lookup(line):
                self.pipe.pop_head()
                self.stats["cache_hits"] += 1
                self._piece_done(parent_id, now)
                moved = True
            else:
                new_fetch = self.fetch_slots.try_add(line, parent_id)
                if new_fetch is None:
                    self.stats["miss_slot_stall_cycles"] += 1
                    self._stall_at = now
                else:
                    self.pipe.pop_head()
                    self.stats["cache_misses"] += 1
                    if new_fetch:
                        useful = 16 if kind == ReqKind.ELEM else BEAT_BYTES
                        self._cache_src.push(
                            now + 1, Beat(self.lmb_id, "cache", line, "r",
                                          line * BEAT_BYTES, useful))
                    moved = True
        return moved

    def _step_cache(self, now):
        """Lookup pipeline shared by the proposed mode's element path."""
        moved = False
        item = self._intake.peek(now)
        if item is not None and self.pipe.can_accept() and self._fill_block != now:
            self._intake.pop(now)
            self.pipe.accept(item, now)
            moved = True
        head = self.pipe.head_due(now)
        if head is not None:
            waiter, line = head
            if self.cache.lookup(line):
                self.pipe.pop_head()
                self.stats["cache_hits"] += 1
                self._finish_read_piece(waiter, line, now)
                moved = True
            else:
                new_fetch = self.fetch_slots.try_add(line, waiter)
                if new_fetch is None:
                    self.stats["miss_slot_stall_cycles"] += 1
                    self._stall_at = now
                else:
                    self.pipe.pop_head()
                    self.stats["cache_misses"] += 1
                    if new_fetch:
                        # element lines: 16 bytes consumed per waiting request
                        self._cache_src.push(
                            now + 1, Beat(self.lmb_id, "cache", line, "r",
                                          line * BEAT_BYTES, 16))
                    moved = True
        return moved

    def _push_dma_beat(self, addr, rw, token, useful):
        self._dma_src.push(self._now + 1, Beat(self.lmb_id, "dma", token, rw,
                                               addr, useful))

    def _drain_dma_wire(self, now):
        moved = False
        req = self.in_dma.pop(now)
        while req is not None:
            self.dma.enqueue(req)
            moved = True
            req = self.in_dma.pop(now)
        return moved

    def _step_ip(self, now):
        moved = False
        for pe, wire in self.in_ip.items():
            st = self._ip_state[pe]
            if st["req"] is None:
                req = wire.pop(now)
                if req is not None:
                    st["req"] = req
                    st["beats"] = [line * BEAT_BYTES
                                   for line in _lines_of(req.addr, req.nbytes)]
                    st["next"] = 0
                    st["waiting"] = False
                    moved = True
        # issue at most one beat per cycle across PEs, round-robin
        pes = self._ip_pes
        for off in range(len(pes)):
            pe = pes[(self._ip_rr + off) % len(pes)]
            st = self._ip_state[pe]
            if st["req"] is not None and not st["waiting"] \
                    and st["next"] < len(st["beats"]):
                req = st["req"]
                n = st["next"]
                st["next"] += 1
                st["waiting"] = True
                rw = "w" if req.kind == ReqKind.WRITE else "r"
                beat_addr = st["beats"][n]
                useful = (min(req.addr + req.nbytes, beat_addr + BEAT_BYTES)
                          - max(req.addr, beat_addr))
                self._ip_rr = (self._ip_rr + off + 1) % len(pes)
                self._ip_src.push(now + 1, Beat(self.lmb_id, "ip", pe, rw,
                                                beat_addr, useful))
                moved = True
                break
        return moved

    # -- main step ---------------------------------------------------------

    def step(self, now):
        if now < self.wake:
            return False
        self._now = now
        if self._stall_at is not None:
            # cycles slept with the pipe head waiting for a miss slot; the
            # lookup below charges this cycle if it still waits
            self.stats["miss_slot_stall_cycles"] += now - self._stall_at - 1
            self._stall_at = None
        moved = False
        resp = self.in_resp.pop(now)
        while resp is not None:
            self._apply_response(resp, now)
            moved = True
            resp = self.in_resp.pop(now)
        if self.mode == "proposed":
            moved |= self._drain_dma_wire(now)
            moved |= self._step_proposed(now)
        elif self.mode == "cache-only":
            moved |= self._step_cache_only(now)
        elif self.mode == "dma-only":
            moved |= self._drain_dma_wire(now)
            moved |= self.dma.step_grant(now)
            moved |= self.dma.step_beats(now, self._emit_dma)
        else:
            moved |= self._step_ip(now)
        # port arbiter: one beat per cycle toward the router
        n = len(self._sources)
        for off in range(n):
            src = self._sources[(self._arb_rr + off) % n]
            beat = src.pop(now)
            if beat is not None:
                self._arb_rr = (self._arb_rr + off + 1) % n
                if beat.origin == "dma":
                    self.dma.credit_return()
                self.to_router.push(now + 1, beat)
                moved = True
                break
        self.wake = now + 1 if moved else self._idle_wake(now)
        return moved

    def _idle_wake(self, now):
        """First cycle at which a step that moved nothing can act again.

        Whatever was ready and is not listed here is blocked, and only an
        input push unblocks it: a pipe head waiting for a miss slot and the
        intake behind a full pipe wait for a fill on in_resp, and a busy ip
        port's queued requests wait for its response.  A DMA backlog and a
        stalled reductor stage 2 count their stall cycles one step at a time.
        """
        if self.dma.backlog():
            return now + 1
        wake = min(self.in_resp.head_ready(), self.in_elem.head_ready(),
                   self.in_fe.head_ready(), self.in_dma.head_ready(),
                   self._stage2.head_ready(), self._cache_src.head_ready(),
                   self._dma_src.head_ready(), self._wr_src.head_ready(),
                   self._ip_src.head_ready())
        if self._stall_at is None:
            wake = min(wake, self.pipe.next_due())
        if self.pipe.can_accept():
            wake = min(wake, self._intake.head_ready())
        for pe, w in self.in_ip.items():
            if self._ip_state[pe]["req"] is None:
                wake = min(wake, w.head_ready())
        return max(wake, now + 1)

    def next_event(self, now):
        return self.wake

    def drained(self):
        return (not self.in_elem and not self.in_fe and not self.in_dma
                and not self.in_resp and not self._stage2 and not self._intake
                and not self.pipe.entries and not self._access_q
                and not self._cache_src and not self._dma_src
                and not self._wr_src and not self._ip_src
                and not self.to_router and not self.to_fabric
                and not self._parents and not self.fetch_slots.lines
                and not self.dma.descs and not self.dma.pending
                and not self.dma.backlog()
                and all(not w for w in self.in_ip.values())
                and all(st["req"] is None for st in self._ip_state.values())
                and self.rrsh.pending == 0)
