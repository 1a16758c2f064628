"""Cycle engine tying fabric, memory blocks, router, and DRAM together.

Timing contract (every number below is load-bearing and tested):

  * Every hop between components is a timestamped wire with a 1-cycle delay:
    PE -> block intake, reductor stage 1 -> stage 2, stage 2 -> cache lookup,
    cache outcome -> fetch arbiter, arbiter -> router, router -> DRAM,
    block -> PE (read data).  DRAM bus -> router -> block takes two cycles
    in one send: the router's return half is a pure delay, so the DRAM
    appends a granted beat to its block's in_resp two cycles on.  With one
    block so does arbiter -> router -> DRAM: the forward half is then a
    pure delay too, and the block's arbiter pushes onto the DRAM's ingress
    two cycles on.  Each of these wires has one producer that sends at most
    one beat per cycle, so its ready times are monotone as sent.
    Write acknowledgements toward the fabric are same-cycle credit pulses.
  * The cache lookup pipeline accepts one access per cycle; its outcome is
    visible pipeline_depth - 1 cycles after acceptance.  Fills bypass the
    pipeline and block the intake for that cycle.
  * The DMA engine grants one descriptor and issues one beat per cycle, the
    first beat in the grant cycle.
  * Within a cycle components step in the order DRAM, router, blocks, fabric,
    so a completion can be granted the bus, a freed structure reused, and a
    write ack consumed by the fabric in the cycle it occurs.

This puts the full round trip of a single missing element read at
11 + t_row_miss cycles.  A whole one-element MTTKRP walks three serial DRAM
round trips (element, then the later of the two factor rows, then the row
store), so with every beat on its own bank it totals 29 + 3 * t_row_miss
cycles at rank 32 (two beats per row) and 26 + 3 * t_row_miss at rank 8 (one
beat per row); the derivation is walked through in the acceptance tests.

Requests issue from PE machines as in the functional harness (identical
numerics) and flow to one memory block chosen by pe modulo the block count.
The memory side moves timing only: a block answers a request by handing the
request itself back, and the PE machines read and write the data.  The
request is its own in-flight record: the Simulator's sink stamps it with its
workload's index (`src`) and its issue cycle (`issued`), and an answer goes
to that workload's deliver and clears `issued`, so a second answer to one
request is refused.  Tags name requests only in traces and error messages.

The engine steps every component once per loop iteration, except a router
with no inputs (one block: both of its halves are pure delays).  The DRAM, the
router and each block keep a `wake` cycle, and a step below it is a no-op:
the component sets its wake at the end of each step, and a push onto an empty
input wire lowers it (see queues.py).  The router's wake is its earliest
input head, or the next cycle when a head is already ready (a block it did
not pick).  The fabric side has a wake too: the Simulator owns the blocks'
wires toward the fabric and scans them only from that cycle on, so a write
ack pushed at `now` still reaches its PE in the same cycle.  A block runs
each of its parts only when that part holds input.  A DRAM head blocked on a
full bank queue and a lookup-pipe head waiting for a miss slot are left out
of the wake until what unblocks them happens (a service start on that bank,
a fill on in_resp).  Their stall counters, hol_block_cycles and
miss_slot_stall_cycles, are each charged once, when the wait ends: the cycles
since the head was first found blocked are added when the DRAM head enters
its bank queue, and at the fill that frees the pipe head's slot.  A count
read in the middle of a wait leaves that wait out.  The fabric side steps
only the armed workloads: the indices, in index order, of those whose
want_step is set.  A workload leaves the list when a step clears want_step,
and comes back after a delivery only if that delivery set it (a PE machine
sets it only for a response that lets it act; see fabric.PeMachine).  Index
order matters, because machines feed the block wires in that order.  An
iteration that moved nothing jumps to the earliest wake or armed workload's
event (a jump to a workload's event, such as a trace record or a free
accumulator, is no stall); only when nothing is pending does it ask whether
the run is done (if not, it is a deadlock).
"""

from __future__ import annotations

import json
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from .dram import BEAT_BYTES, Dram, DramConfig
from .errors import (ConfigurationError, DeadlockError, ProtocolError,
                     VerificationError)
from .fabric import (AddressMap, FabricConfig, MemoryImage, MemoryRequest,
                     ReqKind, RequestTrace, build_machines)
from .memsys import Lmb, LmbConfig
from .queues import INF
from .tensor import FactorMatrix, mttkrp_oracle

_NO_PROGRESS_LIMIT = 1_000_000

REFERENCE_SPEEDUP = {
    "ip-only": 1.0,
    "cache-only": 1.75,
    "dma-only": 2.78,
    "proposed": 3.5,
}


@dataclass(frozen=True)
class SystemConfig:
    fabric: FabricConfig = field(default_factory=FabricConfig)
    lmb: LmbConfig = field(default_factory=LmbConfig)
    num_lmbs: int = 1
    dram: DramConfig = field(default_factory=DramConfig)

    def __post_init__(self):
        if self.num_lmbs < 1:
            raise ConfigurationError("need at least one memory block")


class Router:
    """The forward half: one beat per cycle toward DRAM, round-robin over
    the blocks, on the DRAM's ingress one cycle on.  The return half is a
    pure delay with nothing to choose, so it is the DRAM's own output: each
    bus grant lands on its block's in_resp two cycles on (see dram.py).

    With a lone block (its id is 0) the forward half is a pure delay too:
    the router wires the block's arbiter straight onto the DRAM's ingress,
    two cycles on, so it has no inputs and the Simulator does not step it.
    Cleared, the test seam `_direct_lone_block` routes a lone block like
    many, so a reference run can step the general path every cycle.
    Both halves count from the DRAM: a beat forwarded is on its ingress or
    in a bank, and a beat returned was granted the bus.
    """

    _direct_lone_block = True

    def __init__(self, lmbs, dram):
        self.dram = dram
        self._rr = 0
        dram.blocks = lmbs
        if len(lmbs) == 1 and self._direct_lone_block:
            lmbs[0].to_router = dram.ingress
            lmbs[0].send_delay = 2
            self.inputs = []
        else:
            self.inputs = [lmb.to_router for lmb in lmbs]
        for wire in self.inputs:
            wire.owner = self
        # the wires may already hold beats
        self.wake = 0 if self.inputs else INF

    @property
    def stats(self):
        dram = self.dram
        return {"forwarded": dram.stats["beats"] + len(dram.ingress),
                "returned": dram.stats["bus_bytes"] // BEAT_BYTES}

    def step(self, now):
        if now < self.wake:
            return False
        moved = False
        inputs = self.inputs
        n = len(inputs)
        for off in range(n):
            wire = inputs[(self._rr + off) % n]
            if wire and wire[0][0] <= now:
                self._rr = (self._rr + off + 1) % n
                self.dram.ingress.push(now + 1, wire.popleft()[1])
                moved = True
                break
        # the earliest input head, or the next cycle when one is already
        # ready (a block not picked this cycle)
        wake = INF
        for wire in inputs:
            if wire:
                ready = wire[0][0]
                if ready < wake:
                    wake = ready
        self.wake = wake if wake > now else now + 1
        return moved

    def next_event(self, now):
        return self.wake


class TracePlayer:
    """Replays a recorded request stream open loop at its original cycles.

    The memory side is a deterministic function of its input schedule, so a
    replay reproduces the original memory-side timeline exactly.  It moves
    no data, and the player keeps no record of its requests in flight: each
    request is its own record, and the run is not done until every block has
    answered all it accepted.
    """

    want_step = True  # step whenever the engine advances; records gate inside

    def __init__(self, records):
        self.records = sorted(records, key=lambda r: (r[0], r[6]))
        self._pos = 0
        self.issue_count = 0
        self.accum_busy_cycles = 0
        self.first_cycle = None
        self.last_cycle = 0

    def deliver(self, req):
        pass

    def step(self, now, sink):
        issued = False
        while self._pos < len(self.records) and self.records[self._pos][0] <= now:
            cycle, kind, lmb, pe, addr, nbytes, tag = self.records[self._pos]
            self._pos += 1
            req = MemoryRequest(ReqKind[kind.upper()], addr, nbytes, pe, tag)
            req.lmb = lmb
            self.issue_count += 1
            if self.first_cycle is None:
                self.first_cycle = now
            self.last_cycle = now
            sink(req)
            issued = True
        return issued

    def next_event(self, now):
        if self._pos < len(self.records):
            return max(now + 1, self.records[self._pos][0])
        return INF

    def idle(self):
        return self._pos >= len(self.records)


def _percentiles(values):
    if not values:
        return {"count": 0, "p50": 0, "p95": 0, "max": 0}
    arr = np.asarray(values, dtype=np.int64)
    return {
        "count": int(arr.size),
        "p50": int(np.percentile(arr, 50)),
        "p95": int(np.percentile(arr, 95)),
        "max": int(arr.max()),
    }


class Simulator:
    """One timed run: a workload (PE machines or a trace player), a set of
    memory blocks, a router, and the DRAM."""

    def __init__(self, syscfg: SystemConfig, workloads,
                 trace: RequestTrace | None = None, route_by_pe=True):
        self.cfg = syscfg
        self.workloads = workloads
        self.trace = trace
        self.route_by_pe = route_by_pe
        self.lmbs = [Lmb(i, syscfg.lmb) for i in range(syscfg.num_lmbs)]
        self.dram = Dram(syscfg.dram)
        self.router = Router(self.lmbs, self.dram)
        # the wires toward the fabric; a push onto an empty one lowers wake
        self._to_fabric = [lmb.to_fabric for lmb in self.lmbs]
        for wire in self._to_fabric:
            wire.owner = self
        self.wake = INF  # _fabric_step scans the wires from this cycle on
        # indices of the workloads with want_step set, in index order
        self._armed = [i for i, w in enumerate(workloads) if w.want_step]
        self._latencies = {k: [] for k in ReqKind}
        self.total_cycles = 0
        self._now = 0
        self._sinks = [self._make_sink(i) for i in range(len(workloads))]

    def _make_sink(self, w_i):
        def sink(req):
            now = self._now
            if self.route_by_pe:
                req.lmb = req.pe % self.cfg.num_lmbs
            elif not 0 <= req.lmb < self.cfg.num_lmbs:
                raise ConfigurationError(
                    f"request targets block {req.lmb}, only "
                    f"{self.cfg.num_lmbs} configured")
            req.src = w_i
            req.issued = now
            if self.trace is not None:
                self.trace.add(now, req)
            self.lmbs[req.lmb].accept(req, now)
        return sink

    def _fabric_step(self, now):
        moved = False
        self._now = now
        workloads = self.workloads
        armed = self._armed
        if now >= self.wake:
            wake = INF
            for wire in self._to_fabric:
                while wire and wire[0][0] <= now:
                    req = wire.popleft()[1]
                    issued = req.issued
                    if issued is None:
                        raise ProtocolError(
                            f"second response for tag {req.tag}")
                    req.issued = None
                    self._latencies[req.kind].append(now - issued)
                    w_i = req.src
                    w = workloads[w_i]
                    w.deliver(req)
                    # a delivery may set want_step: then re-arm the workload
                    if w.want_step and w_i not in armed:
                        insort(armed, w_i)
                    moved = True
                if wire:
                    wake = min(wake, wire[0][0])
            self.wake = wake
        if armed:
            # in index order: machines feed the block wires in that order
            sinks = self._sinks
            still = []
            for w_i in armed:
                w = workloads[w_i]
                if w.step(now, sinks[w_i]):
                    moved = True
                if w.want_step:
                    still.append(w_i)
            self._armed = still
        return moved

    def _done(self):
        return (all(w.idle() for w in self.workloads)
                and all(l.drained() for l in self.lmbs)
                and self.dram.idle())

    def _next_event(self, now):
        nxt = self.dram.next_event(now)
        nxt = min(nxt, self.router.next_event(now), self.wake)
        for lmb in self.lmbs:
            nxt = min(nxt, lmb.next_event(now))
        if self._armed:
            nxt = min(nxt, self._workload_event(now))
        return nxt

    def _workload_event(self, now):
        """The earliest cycle an armed workload's next_event names."""
        return min(self.workloads[w].next_event(now) for w in self._armed)

    def _dump_state(self, now):
        lines = [f"cycle {now}"]
        for w_i, w in enumerate(self.workloads):
            lines.append(f"workload {w_i}: idle={w.idle()}")
        for lmb in self.lmbs:
            lines.append(f"block {lmb.lmb_id}: drained={lmb.drained()} "
                         f"stats={lmb.stats}")
        lines.append(f"dram idle={self.dram.idle()} stats={self.dram.stats}")
        return "\n".join(lines)

    def run(self):
        now = 0
        last_progress = 0
        # a valid run can sit quiet through a row miss and an accumulator
        # working through a machine's full slots, so the guard allows both
        cfg = self.cfg
        limit = (_NO_PROGRESS_LIMIT + cfg.dram.t_row_miss
                 + cfg.fabric.accumulate_cycles * cfg.fabric.slot_cap)
        # the memory side in step order; a router with no inputs (one block,
        # whose arbiter and the DRAM send past it) has nothing to step
        steps = [self.dram.step]
        if self.router.inputs:
            steps.append(self.router.step)
        steps += [lmb.step for lmb in self.lmbs]
        fabric_step = self._fabric_step
        while True:
            moved = False
            for step in steps:
                moved |= step(now)
            moved |= fabric_step(now)
            if moved:
                self.total_cycles = now
                last_progress = now
                now += 1
            else:
                # a run ends where nothing moved and nothing is pending
                nxt = self._next_event(now)
                if nxt == INF:
                    if self._done():
                        break
                    raise DeadlockError(
                        "no pending events but work remains",
                        dump=self._dump_state(now))
                if nxt <= now:
                    nxt = now + 1
                elif (nxt > now + 1 and self._armed
                      and nxt == self._workload_event(now)):
                    last_progress = nxt  # the workload scheduled the jump
                now = int(nxt)
                if now - last_progress > limit:
                    raise DeadlockError(f"no progress for {limit} cycles",
                                        dump=self._dump_state(now))
        return self.total_cycles

    # -- reporting -------------------------------------------------------

    def report(self, extra=None, effective_config=None):
        agg = {}
        for lmb in self.lmbs:
            for k, v in lmb.stats.items():
                agg[k] = agg.get(k, 0) + v
        pes = []
        for w_i, w in enumerate(self.workloads):
            span = 0
            if w.first_cycle is not None:
                span = w.last_cycle - w.first_cycle + 1
            busy = w.issue_count + w.accum_busy_cycles
            pes.append({
                "pe": w_i,
                "issues": w.issue_count,
                "accumulate_cycles": w.accum_busy_cycles,
                "active_span": span,
                "stall_cycles": max(span - busy, 0),
            })
        dram_stats = dict(self.dram.stats)
        hist = dram_stats.pop("wait_histogram")
        bus_bytes = dram_stats.pop("bus_bytes")
        bus_useful = dram_stats.pop("bus_useful_bytes")
        report = {
            "total_cycles": self.total_cycles,
            "requests": {k.name.lower(): _percentiles(v)
                         for k, v in self._latencies.items()},
            "blocks": {
                "count": len(self.lmbs),
                "mode": self.cfg.lmb.mode,
                **agg,
                "per_block": [dict(l.stats) for l in self.lmbs],
            },
            "router": dict(self.router.stats),
            "dram": {
                **dram_stats,
                "wait_histogram": {str(k): hist[k] for k in sorted(hist)},
            },
            "bus": {
                "bytes": bus_bytes,
                "useful_bytes": bus_useful,
                "wasted_bytes": bus_bytes - bus_useful,
            },
            "pes": pes,
        }
        if extra:
            report.update(extra)
        if effective_config is not None:
            report["config"] = effective_config
        return report


def verify_output(got: FactorMatrix, want: FactorMatrix):
    """Refuse an output that is not bit for bit the reference's; NaN matches
    NaN, whatever its payload."""
    a, b = got.values, want.values
    if a.shape != b.shape:
        raise VerificationError(f"output shape {a.shape} != reference {b.shape}")
    bad = (a.view(np.uint32) != b.view(np.uint32)) & ~(np.isnan(a) & np.isnan(b))
    if bad.any():
        i, r = np.argwhere(bad)[0]
        raise VerificationError(
            f"output mismatch at row {i} col {r}: got {np.float64(a[i, r])!r}, "
            f"reference {np.float64(b[i, r])!r}")


def checked_layout(tensor, syscfg: SystemConfig):
    """The workload's address map, refused with a ConfigurationError when it
    does not fit the DRAM's address space.  It allocates nothing, so a
    caller can refuse a run before any work."""
    amap = AddressMap.build(tensor.nnz, tensor.dims, syscfg.fabric.rank)
    bits = syscfg.dram.address_bits
    if amap.end > 1 << bits:
        raise ConfigurationError(
            f"the layout's {amap.end} bytes do not fit the {bits}-bit "
            "address space")
    return amap


def simulate(tensor, d, c, syscfg: SystemConfig, verify=False,
             trace: RequestTrace | None = None, effective_config=None,
             workload_name=""):
    """Run one timed simulation; returns (output FactorMatrix, report dict)."""
    amap = checked_layout(tensor, syscfg)
    image = MemoryImage(tensor, d, c)
    machines = build_machines(syscfg.fabric, tensor, amap, image)
    sim = Simulator(syscfg, machines, trace=trace)
    sim.run()
    out = image.result(syscfg.fabric.rank)
    if verify:
        verify_output(out, mttkrp_oracle(tensor, d, c))
    extra = {
        "workload": {
            "name": workload_name,
            "dims": list(tensor.dims),
            "nnz": tensor.nnz,
            "rank": syscfg.fabric.rank,
            "fabric_type": syscfg.fabric.fabric_type,
            "pe_count": syscfg.fabric.pe_count,
            "mode": syscfg.lmb.mode,
            "num_blocks": syscfg.num_lmbs,
        },
    }
    if verify:
        extra["verified"] = True
    return out, sim.report(extra=extra, effective_config=effective_config)


def replay_trace(records, syscfg: SystemConfig, effective_config=None):
    """Timing-only replay of a request trace through the memory system."""
    player = TracePlayer(records)
    sim = Simulator(syscfg, [player], route_by_pe=False)
    sim.run()
    extra = {
        "workload": {
            "name": "trace",
            "records": len(records),
            "mode": syscfg.lmb.mode,
            "num_blocks": syscfg.num_lmbs,
        },
    }
    return sim.report(extra=extra, effective_config=effective_config)


def report_to_json(report):
    return json.dumps(report, sort_keys=True, indent=2)
