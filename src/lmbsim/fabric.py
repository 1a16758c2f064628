"""Parallel MTTKRP fabric: PE state machines, address layout, partitioning.

The fabric walks the nonzeros of a mode-0 sorted COO tensor.  For each element
it fetches the 16-byte element record, then one row of each side factor, and
accumulates val * D[j, :] * C[k, :] into its output row.  When the output row
index changes (or the partition ends) the row is flushed as a row write.  Two
arrangements are modeled:

  type1  one shared stream of elements with three memory ports (element loads,
         row loads, row stores), each port holding up to `max_outstanding`
         requests in flight;
  type2  `pe_count` independent machines, each owning a contiguous slice of
         elements and a single memory port.

The same machine logic runs under an instant-responder harness (functional
results, request traces) and under the cycle engine (timing).  The memory
side moves timing only: a request carries no data, and its answer is the
request itself.  Each machine reads and writes the data in the MemoryImage
on its own: an answered element load reads the coordinates its slot names,
a commit takes the slot's term into its row, and issuing a row store writes
the output row.  Both runs therefore produce identical numerics.  The image
computes every element's term (D[j, :] * C[k, :]) * val before the run, in
float64 and in one vectorized pass: the float32 by float32 product fits a
float64 significand, so only the scale by the value rounds.  A row's sum is
made once, at its flush: it starts from +0.0, is carried in float64 in
element order, and is rounded to float32.

Each slot counts its answers (the element, then its two rows) and commits
at three.  Each machine counts the slots whose element is here and that still
have a row to issue, so asking whether a row load waits costs no scan.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .dram import BEAT_BYTES
from .errors import ConfigurationError, ProtocolError
from .queues import INF
from .tensor import (ELEMENT_BYTES, VALUE_BYTES, CooTensor, FactorMatrix,
                     check_factors)

ADDRESS_LIMIT_BITS = 48


class ReqKind(enum.IntEnum):
    ELEM = 0   # 16-byte tensor element
    ROW_D = 1  # factor row, rank * 4 bytes
    ROW_C = 2
    WRITE = 3  # output row store, rank * 4 bytes


_ELEM, _ROW_D, _ROW_C, _WRITE = (ReqKind.ELEM, ReqKind.ROW_D, ReqKind.ROW_C,
                                ReqKind.WRITE)


class MemoryRequest:
    """One request, and the one record of it from issue to answer.

    The issuer's part: the slot its answer fills (none for a row store) and
    the port whose count it holds, None once it has been answered.  The
    engine's part, stamped when it is issued: `src`, the index of the
    workload that issued it, and `issued`, its issue cycle, None once it
    has been answered.  The tag names it in traces and error messages.
    """

    __slots__ = ("kind", "addr", "nbytes", "pe", "lmb", "tag", "slot", "port",
                 "src", "issued")

    def __init__(self, kind, addr, nbytes, pe, tag, slot=None, port=None):
        self.kind = kind
        self.addr = addr
        self.nbytes = nbytes
        self.pe = pe
        self.lmb = 0
        self.tag = tag
        self.slot = slot
        self.port = port
        self.src = self.issued = None

    def __repr__(self):
        return (f"MemoryRequest({self.kind.name}, addr={self.addr:#x}, "
                f"nbytes={self.nbytes}, pe={self.pe}, tag={self.tag})")


def _align_up(x, a):
    return (x + a - 1) // a * a


@dataclass(frozen=True)
class AddressMap:
    """Byte layout of the four flat segments, each 64-byte aligned.

    tensor elements | D rows | C rows | output rows
    """

    rank: int
    nnz: int
    dims: tuple
    tensor_base: int
    d_base: int
    c_base: int
    out_base: int
    end: int

    @classmethod
    def build(cls, nnz, dims, rank):
        row_bytes = rank * VALUE_BYTES
        tensor_base = 0
        d_base = _align_up(tensor_base + nnz * ELEMENT_BYTES, BEAT_BYTES)
        c_base = _align_up(d_base + dims[1] * row_bytes, BEAT_BYTES)
        out_base = _align_up(c_base + dims[2] * row_bytes, BEAT_BYTES)
        end = _align_up(out_base + dims[0] * row_bytes, BEAT_BYTES)
        if end >= 1 << ADDRESS_LIMIT_BITS:
            raise ConfigurationError(
                f"address space {end} bytes exceeds {ADDRESS_LIMIT_BITS}-bit limit")
        return cls(rank, nnz, tuple(int(d) for d in dims), tensor_base, d_base,
                   c_base, out_base, end)

    @property
    def row_bytes(self):
        return self.rank * VALUE_BYTES


def partition_nonzeros(i_arr, parts):
    """Split [0, len(i_arr)) into `parts` contiguous ranges on row boundaries.

    Starts from an even split (first len % parts ranges get one extra) and
    advances each boundary forward while it would cut a run of equal row
    indices, so no output row is shared by two ranges.
    """
    if parts < 1:
        raise ConfigurationError(f"need at least one partition, got {parts}")
    m = len(i_arr)
    q, r = divmod(m, parts)
    bounds = [0]
    for p in range(parts):
        bounds.append(bounds[-1] + q + (1 if p < r else 0))
    for t in range(1, parts):
        b = max(bounds[t], bounds[t - 1])
        while 0 < b < m and i_arr[b - 1] == i_arr[b]:
            b += 1
        bounds[t] = b
    for t in range(1, parts + 1):
        bounds[t] = max(bounds[t], bounds[t - 1])
    return [(bounds[t], bounds[t + 1]) for t in range(parts)]


@dataclass(frozen=True)
class FabricConfig:
    fabric_type: str = "type2"  # type1: shared units, type2: per-PE ports
    pe_count: int = 8
    max_outstanding: int = 16   # in-flight requests per port
    accumulate_cycles: int = 1  # accumulator occupancy per element
    rank: int = 32

    def __post_init__(self):
        if self.fabric_type not in ("type1", "type2"):
            raise ConfigurationError(f"unknown fabric type {self.fabric_type!r}")
        if self.pe_count < 1:
            raise ConfigurationError("pe_count must be positive")
        if self.max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be positive")
        if self.accumulate_cycles < 1:
            raise ConfigurationError("accumulate_cycles must be positive")
        if self.rank < 1:
            raise ConfigurationError("rank must be positive")

    @property
    def slot_cap(self):
        """Elements a PE machine keeps in flight: two per port on type1."""
        return self.max_outstanding * (2 if self.fabric_type == "type1" else 1)


class _Slot:
    """One element in flight; a machine's slots are in element order.  `z`
    indexes the element's coordinates, which its answer fills in, and its
    term in the MemoryImage."""

    __slots__ = ("z", "i", "j", "k", "arrived", "d_issued", "c_issued")

    def __init__(self, z):
        self.z = z
        self.i = self.j = self.k = -1
        self.arrived = 0  # the element, then its two rows: complete at 3
        self.d_issued = False
        self.c_issued = False


# Port issue categories in fixed priority order.
_CAT_WRITE, _CAT_FIBER, _CAT_ELEM = 0, 1, 2


class PeMachine:
    """One element-stream state machine with in-order row accumulation.

    `ports` maps each category to (port index, pe id on requests).  type2
    uses one port for all categories; type1 splits element loads, row loads,
    and row stores onto three ports.  Each port issues at most one request
    per cycle and holds at most `max_outstanding` in flight.  The machine
    keeps no table of its requests in flight: each request carries the slot
    its answer fills and its port, and `outstanding` counts them per port.
    The data comes from `image`, not from the answers: an answered element
    load reads the slot's coordinates, and a commit takes the slot's term,
    `image.terms[z]`, into its row: the machine keeps the row's first
    element, and the flush sums the row's terms at once, in element order.

    `row_wait` counts the slots whose element has arrived and that still
    have a row to issue: a delivered element adds one, issuing its C row
    takes one away.  It stands in for a scan of the slots wherever the
    machine asks whether a row load is waiting.  The slot walk that picks
    the row to issue stays, because timed elements arrive out of order and
    the lowest z goes first.

    `want_step` says whether the next step can act without a further
    response: a port with room has a request to issue, or the complete head
    or the partition's last flush can commit.  The head cannot while its row
    differs from the current one and the current row's flush still waits
    for a full store port, nor can the last flush while another is pending.
    A busy accumulator does not clear it.  `_can_act` states the rule; a
    step sets `want_step` from it, and a response to a disarmed machine
    re-arms it by the same rule.
    """

    __slots__ = ("cfg", "hi", "next_z", "slots", "slot_cap",
                 "cur_i", "row_z0", "acc_busy_until", "pending_flush",
                 "outstanding", "max_outstanding", "row_wait",
                 "_dispatch", "_write_port", "_fiber_port", "_elem_port",
                 "_row_bytes", "_d_base", "_c_base", "_out_base",
                 "_tensor_base", "_next_tag", "_zero",
                 "_elements", "_terms", "_image",
                 "issue_count", "accum_busy_cycles", "first_cycle", "last_cycle",
                 "want_step")

    def __init__(self, cfg: FabricConfig, lo, hi, amap: AddressMap, ports,
                 image, tag_base=0):
        self.cfg = cfg
        self.hi = hi
        self.next_z = lo
        self.slots = deque()
        self.slot_cap = cfg.slot_cap
        self.cur_i = None
        self.row_z0 = lo  # the current row's first element
        self._zero = np.zeros(cfg.rank)  # where a row's sum starts
        self.acc_busy_until = 0
        self.pending_flush = None
        self.max_outstanding = cfg.max_outstanding
        self.row_wait = 0
        self._write_port = ports[_CAT_WRITE][0]
        self._fiber_port = ports[_CAT_FIBER][0]
        self._elem_port = ports[_CAT_ELEM][0]
        # per port, in port order: (port, then the pe id it issues writes,
        # row loads and element loads under, or None for a category it lacks)
        port_ids = sorted({p for p, _ in ports.values()})
        self._dispatch = tuple(
            (p, *(ports[cat][1] if ports[cat][0] == p else None
                  for cat in (_CAT_WRITE, _CAT_FIBER, _CAT_ELEM)))
            for p in port_ids)
        self.outstanding = [0] * (port_ids[-1] + 1)
        self._row_bytes = amap.row_bytes
        self._tensor_base = amap.tensor_base
        self._d_base = amap.d_base
        self._c_base = amap.c_base
        self._out_base = amap.out_base
        self._next_tag = tag_base
        self._image = image
        self._elements = image.elements
        self._terms = image.terms
        self.issue_count = 0
        self.accum_busy_cycles = 0
        self.first_cycle = None
        self.last_cycle = 0
        self.want_step = hi > lo

    # -- response side -------------------------------------------------

    def deliver(self, req):
        """Apply the answer to one of this machine's requests; order within a
        cycle does not matter.  Answering a request frees its port slot and
        clears its port, so a second answer is refused."""
        port = req.port
        if port is None:
            raise ProtocolError(f"second response for tag {req.tag}")
        req.port = None
        self.outstanding[port] -= 1
        slot = req.slot
        if req.kind is _ELEM:
            slot.i, slot.j, slot.k = self._elements[slot.z]
            slot.arrived = 1
            self.row_wait += 1
        elif slot is not None:  # a row; a row store's answer frees its port
            slot.arrived += 1
        if not self.want_step:
            self.want_step = self._can_act()

    # -- compute side ----------------------------------------------------

    def _commit(self, now):
        """Accumulate the complete head slot, or flush the partition's last
        row once no slot is left."""
        if now < self.acc_busy_until:
            return
        if self.slots:
            head = self.slots[0]
            if head.i != self.cur_i:
                if self.cur_i is not None:
                    if self.pending_flush is not None:
                        return  # previous row still waiting for the store port
                    self._flush(head.z)
                self.cur_i = head.i
                self.row_z0 = head.z
            self.slots.popleft()
            self.acc_busy_until = now + self.cfg.accumulate_cycles
            self.accum_busy_cycles += self.cfg.accumulate_cycles
        else:
            self._flush(self.next_z)  # every element is committed
            self.cur_i = None

    def _flush(self, z1):
        """Queue the current row's store: its terms row_z0 to z1 - 1 summed
        in element order in float64 from +0.0, rounded to float32 once."""
        terms, z0 = self._terms, self.row_z0
        row = (terms[z0] if z1 - z0 == 1
               else np.add.accumulate(terms[z0:z1])[-1])
        self.pending_flush = (self.cur_i, (self._zero + row).astype(np.float32))

    # -- request side ----------------------------------------------------

    def step(self, now, sink):
        """Commit at most one element, then issue at most one request per port.

        A port at `max_outstanding` issues nothing; otherwise it issues its
        first category with work: a pending row store, then a row load for
        the lowest-z slot that holds its element, then the next element.
        """
        slots = self.slots
        if slots:
            if slots[0].arrived == 3:
                self._commit(now)
        elif (self.next_z >= self.hi and self.cur_i is not None
              and self.pending_flush is None):
            self._commit(now)
        issued_any = False
        out = self.outstanding
        w = self.max_outstanding
        for port, write_pe, fiber_pe, elem_pe in self._dispatch:
            if out[port] >= w:
                continue
            tag = self._next_tag
            if write_pe is not None and self.pending_flush is not None:
                i, row = self.pending_flush
                self.pending_flush = None
                self._image.write(i, row)
                req = MemoryRequest(_WRITE,
                                    self._out_base + i * self._row_bytes,
                                    self._row_bytes, write_pe, tag, None, port)
            elif fiber_pe is not None and self.row_wait:
                for slot in self.slots:  # the lowest z with a row to issue
                    if slot.arrived and not slot.c_issued:
                        break
                if not slot.d_issued:
                    slot.d_issued = True
                    req = MemoryRequest(_ROW_D,
                                        self._d_base + slot.j * self._row_bytes,
                                        self._row_bytes, fiber_pe, tag, slot,
                                        port)
                else:
                    slot.c_issued = True
                    self.row_wait -= 1
                    req = MemoryRequest(_ROW_C,
                                        self._c_base + slot.k * self._row_bytes,
                                        self._row_bytes, fiber_pe, tag, slot,
                                        port)
            elif (elem_pe is not None and self.next_z < self.hi
                  and len(self.slots) < self.slot_cap):
                z = self.next_z
                self.next_z = z + 1
                slot = _Slot(z)
                self.slots.append(slot)
                req = MemoryRequest(_ELEM,
                                    self._tensor_base + z * ELEMENT_BYTES,
                                    ELEMENT_BYTES, elem_pe, tag, slot, port)
            else:
                continue
            self._next_tag = tag + 1
            out[port] += 1
            sink(req)
            self.issue_count += 1
            issued_any = True
            if self.first_cycle is None:
                self.first_cycle = now
            self.last_cycle = now
        self.want_step = self._can_act()
        return issued_any

    def _can_act(self):
        """Backlog that needs no response to make progress next cycle.
        Ports at max outstanding cannot act, nor can a head whose commit
        waits for a pending flush."""
        out = self.outstanding
        w = self.max_outstanding
        slots = self.slots
        flush = self.pending_flush
        return ((flush is not None and out[self._write_port] < w)
                or (self.next_z < self.hi and len(slots) < self.slot_cap
                    and out[self._elem_port] < w)
                or (self.row_wait and out[self._fiber_port] < w)
                or (slots and slots[0].arrived == 3
                    and (flush is None or slots[0].i == self.cur_i))
                or (self.next_z >= self.hi and not slots
                    and self.cur_i is not None and flush is None))

    def next_event(self, now):
        # a machine with want_step clear acts only after a delivery re-arms it
        return now + 1 if self.want_step else INF

    def idle(self):
        """True once every element is committed, flushed, and acknowledged."""
        return (self.next_z >= self.hi and not self.slots
                and self.pending_flush is None and self.cur_i is None
                and not any(self.outstanding))


def build_machines(cfg: FabricConfig, tensor: CooTensor, amap: AddressMap,
                   image):
    """Instantiate the PE machines and their element ranges; each reads and
    writes its data in `image`, the MemoryImage of `tensor`."""
    if cfg.rank != image.out.shape[1]:
        raise ConfigurationError("fabric rank differs from factor rank")
    if not tensor.mode_sorted():
        raise ConfigurationError("fabric requires elements sorted by (i, j, k); "
                                 "sort the tensor first")
    machines = []
    if cfg.fabric_type == "type1":
        ports = {_CAT_ELEM: (0, 0), _CAT_FIBER: (1, 1), _CAT_WRITE: (2, 2)}
        machines.append(PeMachine(cfg, 0, tensor.nnz, amap, ports, image))
    else:
        ranges = partition_nonzeros(tensor.i, cfg.pe_count)
        for m, (lo, hi) in enumerate(ranges):
            ports = {_CAT_ELEM: (0, m), _CAT_FIBER: (0, m), _CAT_WRITE: (0, m)}
            machines.append(PeMachine(cfg, lo, hi, amap, ports, image,
                                      tag_base=m << 32))
    return machines


class MemoryImage:
    """The data the PE machines read and write, kept apart from the timing
    models, which move addressed bytes and no data.

    `elements` holds each element's (i, j, k) in Python ints, and `terms`
    row z holds element z's term (D[j, :] * C[k, :]) * val in float64.
    Factors of the wrong shape are refused before a run starts.  Writes
    land whole output rows, each exactly once per run.
    """

    def __init__(self, tensor: CooTensor, d: FactorMatrix, c: FactorMatrix):
        check_factors(tensor, d, c)
        self.tensor = tensor
        self.out = np.zeros((tensor.dims[0], d.rank), dtype=np.float32)
        self._written = set()
        self.elements = list(zip(tensor.i.tolist(), tensor.j.tolist(),
                                 tensor.k.tolist()))
        terms = d.take(tensor.j).astype(np.float64)
        terms *= c.take(tensor.k)  # exact: a float32 product fits float64
        terms *= tensor.vals[:, None]  # the one rounding
        self.terms = terms

    def write(self, i, row):
        if i in self._written:
            raise ProtocolError(f"output row {i} written twice")
        self._written.add(i)
        self.out[i] = row

    def result(self, rank):
        return FactorMatrix(self.tensor.dims[0], rank, self.out)


class RequestTrace:
    """Flat record of issued requests: (cycle, kind, lmb, pe, addr, nbytes, tag)."""

    COLUMNS = ("cycle", "kind", "lmb", "pe", "addr", "len", "tag")

    def __init__(self):
        self.records = []

    def add(self, cycle, req):
        self.records.append((cycle, req.kind.name.lower(), req.lmb, req.pe,
                             req.addr, req.nbytes, req.tag))

    def dump(self, fh):
        fh.write("# " + " ".join(self.COLUMNS) + "\n")
        for rec in self.records:
            fh.write(" ".join(str(x) for x in rec) + "\n")

    def __len__(self):
        return len(self.records)


def run_functional(tensor: CooTensor, d: FactorMatrix, c: FactorMatrix,
                   cfg: FabricConfig, trace: RequestTrace | None = None):
    """Drive the machines against an instant (1-cycle) memory.

    Returns the MTTKRP output.  Numerics and request streams are identical to
    the timed run; only response latencies differ.
    """
    amap = AddressMap.build(tensor.nnz, tensor.dims, cfg.rank)
    image = MemoryImage(tensor, d, c)
    machines = build_machines(cfg, tensor, amap, image)
    pending = deque()  # (ready_cycle, the issuer's deliver, request)
    now = 0
    guard = 0
    # a busy accumulator keeps its machine stepping every cycle
    guard_limit = (100 + cfg.accumulate_cycles) * max(tensor.nnz, 1) + 10000

    def make_sink(mach):
        deliver = mach.deliver

        def sink(req):
            if trace is not None:
                trace.add(now, req)
            pending.append((now + 1, deliver, req))
        return sink

    sinks = [(mach, make_sink(mach)) for mach in machines]
    while True:
        while pending and pending[0][0] <= now:
            _, deliver, req = pending.popleft()
            deliver(req)
        active = False
        for mach, sink in sinks:
            # as in the engine: a machine without want_step cannot act, and
            # a delivery re-arms it
            if mach.want_step and mach.step(now, sink):
                active = True
        if not active and not pending:
            # an issue leaves a request pending, so only a quiet cycle can
            # find every machine idle
            if all(m.idle() for m in machines):
                break
            # machines not idle: accumulator busy or stalled
            nxt = min(m.next_event(now) for m in machines)
            if nxt == INF:
                raise ProtocolError("functional run stalled with work remaining")
            now = int(nxt)
        else:
            now += 1
        guard += 1
        if guard > guard_limit:
            raise ProtocolError("functional run exceeded cycle guard")
    return image.result(cfg.rank)


def fabric_mttkrp_kernel(cfg: FabricConfig):
    """Adapter for cp_als: sorts each mode view, then runs functionally."""

    def kernel(tensor, d, c):
        t = tensor if tensor.mode_sorted() else tensor.sorted_mode0()
        fc = cfg if cfg.rank == d.rank else replace(cfg, rank=d.rank)
        return run_functional(t, d, c, fc)

    return kernel
