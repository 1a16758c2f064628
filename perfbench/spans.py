"""Span recorder that measures lmbsim's layers from outside the package.

`Tracer.install()` replaces public methods and functions of the package with
timing wrappers and `Tracer.uninstall()` puts the originals back.  Nothing in
the package itself knows about tracing.

Two kinds of call are wrapped:

  * coarse calls (`Simulator.run`, `run_functional`, `cp_als`,
    `mttkrp_oracle`, `gen_synthetic`, plus the benchmark's own `round`
    span) become spans: name, start, end and the enclosing span;
  * per-cycle calls (`Dram.step`/`next_event`, `Router.step`/`next_event`,
    `Lmb.step`/`next_event`, `PeMachine.step`/`deliver`) run hundreds of
    thousands of times per simulation, so each is folded into its enclosing
    span as a call count, host seconds and one extra count.

A span's self time is its duration minus its child spans and folded calls.
The cost of the wrappers themselves that falls outside the folded calls'
timing lands in the enclosing span's self time.
"""

from __future__ import annotations

import contextlib
import time

from lmbsim import dram as dram_mod
from lmbsim import engine as engine_mod
from lmbsim import fabric as fabric_mod
from lmbsim import memsys as memsys_mod
from lmbsim import tensor as tensor_mod

clock = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "round", "start", "end", "child_s",
                 "folded")

    def __init__(self, name, parent, round_idx, start):
        self.name = name
        self.parent = parent       # index into Tracer.spans, or None
        self.round = round_idx     # enclosing `round` span number, or None
        self.start = start
        self.end = None
        self.child_s = 0.0         # seconds covered by child spans
        self.folded = {}           # folded call name -> [calls, seconds, extra]

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return (self.duration - self.child_s
                - sum(acc[1] for acc in self.folded.values()))

    def to_dict(self, idx):
        return {"id": idx, "name": self.name, "parent": self.parent,
                "round": self.round, "start": self.start, "end": self.end,
                "self_s": self.self_s,
                "folded": {k: {"calls": v[0], "seconds": v[1], "extra": v[2]}
                           for k, v in sorted(self.folded.items())}}


class Tracer:
    """Keeps every span in memory; `to_json` gives them for writing out."""

    def __init__(self):
        self.spans = []
        self._stack = []           # indices of open spans
        self._folded = {}          # folded dict of the innermost open span
        self._round = None
        self._rounds = 0
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        if name == "round":
            self._round = self._rounds
            self._rounds += 1
        span = Span(name, parent, self._round, clock())
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        self._folded = span.folded
        return span

    def _close(self, span):
        span.end = clock()
        self._stack.pop()
        if self._stack:
            parent = self.spans[self._stack[-1]]
            parent.child_s += span.duration
            self._folded = parent.folded
        else:
            self._folded = {}
        if span.name == "round":
            self._round = None

    @contextlib.contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _acc(self, key):
        acc = self._folded.get(key)
        if acc is None:
            acc = self._folded[key] = [0, 0.0, 0]
        return acc

    # -- wrappers --------------------------------------------------------------

    def _wrap_span(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _wrap_folded(self, fn, key):
        tracer = self

        def wrapper(obj, *args):
            t0 = clock()
            out = fn(obj, *args)
            dt = clock() - t0
            acc = tracer._acc(key)
            acc[0] += 1
            acc[1] += dt
            return out

        return wrapper

    def _wrap_dram_step(self, fn):
        # Beats accepted into the bank queues, counted from the ingress wire:
        # nothing else pushes to it while Dram.step runs.
        tracer = self

        def wrapper(obj, now):
            before = len(obj.ingress)
            t0 = clock()
            out = fn(obj, now)
            dt = clock() - t0
            acc = tracer._acc("dram.step")
            acc[0] += 1
            acc[1] += dt
            acc[2] += before - len(obj.ingress)
            return out

        return wrapper

    def _wrap_lmb_step(self, fn):
        tracer = self
        keys = {mode: f"memsys.{mode}.step" for mode in memsys_mod.MODES}

        def wrapper(obj, now):
            t0 = clock()
            out = fn(obj, now)
            dt = clock() - t0
            acc = tracer._acc(keys[obj.mode])
            acc[0] += 1
            acc[1] += dt
            return out

        return wrapper

    def _wrap_pe_step(self, fn):
        tracer = self

        def wrapper(obj, now, sink):
            before = obj.issue_count
            t0 = clock()
            out = fn(obj, now, sink)
            dt = clock() - t0
            acc = tracer._acc("fabric.step")
            acc[0] += 1
            acc[1] += dt
            acc[2] += obj.issue_count - before
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in (
                (engine_mod.Simulator, "run", "engine.run"),
                (fabric_mod, "run_functional", "fabric.functional"),
                (tensor_mod, "cp_als", "tensor.cp_als"),
                (tensor_mod, "mttkrp_oracle", "tensor.oracle"),
                (tensor_mod, "gen_synthetic", "tensor.gen")):
            self._patch(owner, attr, self._wrap_span(getattr(owner, attr), name))
        for owner, attr, key in (
                (dram_mod.Dram, "next_event", "dram.next_event"),
                (engine_mod.Router, "step", "router.step"),
                (engine_mod.Router, "next_event", "router.next_event"),
                (memsys_mod.Lmb, "next_event", "memsys.next_event"),
                (fabric_mod.PeMachine, "deliver", "fabric.deliver")):
            self._patch(owner, attr, self._wrap_folded(getattr(owner, attr), key))
        self._patch(dram_mod.Dram, "step",
                    self._wrap_dram_step(dram_mod.Dram.step))
        self._patch(memsys_mod.Lmb, "step",
                    self._wrap_lmb_step(memsys_mod.Lmb.step))
        self._patch(fabric_mod.PeMachine, "step",
                    self._wrap_pe_step(fabric_mod.PeMachine.step))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def round_totals(self):
        """Per round: span name -> [self seconds, count] and folded totals."""
        rounds = [{"spans": {}, "folded": {}} for _ in range(self._rounds)]
        for span in self.spans:
            if span.round is None or span.name == "round":
                continue
            r = rounds[span.round]
            tot = r["spans"].setdefault(span.name, [0.0, 0])
            tot[0] += span.self_s
            tot[1] += 1
            for key, acc in span.folded.items():
                f = r["folded"].setdefault(key, [0, 0.0, 0])
                f[0] += acc[0]
                f[1] += acc[1]
                f[2] += acc[2]
        return rounds

    def to_json(self):
        return [s.to_dict(i) for i, s in enumerate(self.spans)]
