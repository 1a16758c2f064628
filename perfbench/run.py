#!/usr/bin/env python3
"""Host-time benchmark of lmbsim's entry points, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
benchmark runs rounds until the next one would end after --seconds, at least
one.  A round is a fresh setup (config build, tensor, factors, references)
and then the workload's operations, each one call into the package's API:

  * `simulate` once per memory mode (grid and cpd workloads alike);
  * one MTTKRP through `fabric_mttkrp_kernel`, the fabric's functional run
    (grid workloads), or `cp_als` with that kernel (cpd-fabric).

Every operation is checked outside its timed region: simulated outputs
against `mttkrp_oracle` with `verify_output`, the fabric MTTKRP likewise, the
CP-ALS fit and iteration count against `cp_als` with the oracle kernel, and
the simulated counts against golden.json (default seed) or against the first
round (any seed).  An operation that raises or fails a check counts as
failed; the run goes on.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics from
a traced run (see spans.py).  Host times are scaled to a reference host speed
(see HostClock) and reported as the median over the run's samples.  The last
line of stdout is one JSON object; the lines before it
repeat the metrics for people.  Counts, samples and spans are written under
.bench_out/ in the checkout.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

sys.path.insert(0, SRC)
try:
    import lmbsim
    from lmbsim import config as config_mod
    from lmbsim import engine as engine_mod
    from lmbsim import fabric as fabric_mod
    from lmbsim import tensor as tensor_mod
except ImportError as exc:
    sys.exit(f"perfbench: cannot import lmbsim from {SRC}: {exc}")
if not os.path.abspath(lmbsim.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: lmbsim imported from {lmbsim.__file__}, not {SRC}")

from spans import Tracer  # noqa: E402  (needs lmbsim on the path)

clock = time.perf_counter

DEFAULT_SEED = 0
MODES = ("proposed", "dma-only", "cache-only", "ip-only")

# `lmbsim cpd --use-fabric --iters 10`, with the CLI's default tol 1e-5.  At
# 25 iterations that tol stops anywhere from iteration 12 to 25 depending on
# the seed, which would make the work per round depend on the seed; seeds 0 to
# 39 all run past iteration 11, so 10 iterations (30 MTTKRPs) is the same work
# on every seed, and a kernel whose fit stalls still stops early and fails.
CPD_RANK = 8
CPD_ITERS = 10
CPD_TOL = 1e-5
FIT_TOL = 1e-6

# Preset inputs with nnz cut so that one simulate call takes a fraction of a
# second: short calls, between reference loops close in time, are scaled by
# the host speed they actually ran at, and a run holds many of them
# (README.md, "Noise floor").  The seed argument is added to the preset's
# tensor seed, so the default seed 0 generates the preset tensor itself at the
# reduced nnz.
WORKLOADS = {
    "grid-scattered": {
        "presets": ("table2-config-a", "synth01-mini"),
        "set": {"tensor.nnz": "500"},
        "cpd": False,
    },
    "grid-clustered": {
        "presets": ("table2-config-b", "synth02-mini"),
        "set": {"tensor.nnz": "800"},
        "cpd": False,
    },
    "cpd-fabric": {
        "presets": (),
        "set": {"tensor.dims": "64 64 64", "tensor.nnz": "1000",
                "fabric.rank": str(CPD_RANK)},
        "cpd": True,
    },
}


# About the seconds `reference_loop` takes in a fast phase of the 2-vCPU VM
# (Python 3.11) that README.md's numbers come from; host times are reported
# at that speed.
REF_S = 0.004


def reference_loop():
    """Seconds that a fixed piece of pure-Python work takes right now.

    The work is the benchmark's own, so no change to lmbsim can speed it up
    or slow it down; only the host can.
    """
    t0 = clock()
    counts, window, acc = {}, [], 0
    for i in range(20000):
        k = i & 511
        counts[k] = counts.get(k, 0) + 1
        acc += k
        if i & 7 == 0:
            window.append((k, i))
            if len(window) > 64:
                window.pop(0)
    return clock() - t0


class HostClock:
    """Times calls in seconds at the reference host speed.

    The speed of a shared host drifts by up to 2x over seconds to minutes,
    for the simulator and any other Python code alike (README.md, "Host
    time").  So every timed call is bracketed by runs of `reference_loop`,
    and its seconds are multiplied by REF_S over the mean of the two: the
    time the call would take on a host that runs the loop in REF_S.
    """

    def __init__(self):
        self.ref = reference_loop()
        self.refs = [self.ref]     # every reference_loop time, for the record
        self.scales = []           # scale factor of every timed call

    def time(self, fn):
        """Return fn's result and its scaled seconds; `self.scales[-1]` is
        the factor that scaled them."""
        before = self.ref
        t0 = clock()
        try:
            out = fn()
            seconds = clock() - t0
        finally:
            self.ref = reference_loop()
            self.refs.append(self.ref)
        self.scales.append(2 * REF_S / (before + self.ref))
        return out, seconds * self.scales[-1]


class CheckFailed(Exception):
    """An operation ran but its output or counts were wrong."""


@dataclass
class Workload:
    tensor: tensor_mod.CooTensor
    d: tensor_mod.FactorMatrix
    c: tensor_mod.FactorMatrix
    systems: dict                 # mode -> SystemConfig
    fabric: fabric_mod.FabricConfig
    run_seed: int
    cpd_ref: tensor_mod.CpAlsResult | None


def decompose(wl, kernel=None):
    """What `lmbsim cpd` runs; kernel None is the oracle."""
    return tensor_mod.cp_als(wl.tensor, CPD_RANK, max_iters=CPD_ITERS,
                             tol=CPD_TOL, seed=wl.run_seed, mttkrp=kernel)


def build_config(name, mode, seed):
    """Resolve presets as criterion 2 does: table, workload, baseline-<mode>."""
    spec = WORKLOADS[name]
    settings = config_mod.default_settings()
    for preset in spec["presets"]:
        config_mod.apply_preset(settings, preset)
    if mode != "proposed":
        config_mod.apply_preset(settings, f"baseline-{mode}")
    for key, value in spec["set"].items():
        config_mod.apply_override(settings, f"{key}={value}")
    settings["tensor"]["seed"] = str(int(settings["tensor"]["seed"]) + seed)
    return config_mod.build(settings)


def setup(name, seed):
    """Config build, tensor generation, factor initialisation, references."""
    built = {mode: build_config(name, mode, seed) for mode in MODES}
    base = built["proposed"]
    tensor = tensor_mod.gen_synthetic(base.gen)
    rank = base.system.fabric.rank
    d = tensor_mod.FactorMatrix.random(tensor.dims[1], rank,
                                       seed=base.seed + 1 + 2 * seed)
    c = tensor_mod.FactorMatrix.random(tensor.dims[2], rank,
                                       seed=base.seed + 2 + 2 * seed)
    wl = Workload(tensor, d, c,
                  {mode: b.system for mode, b in built.items()},
                  base.system.fabric, base.seed, None)
    if WORKLOADS[name]["cpd"]:
        wl.cpd_ref = decompose(wl)
    return wl


def sim_counts(report):
    return {
        "total_cycles": report["total_cycles"],
        "dram.beats": report["dram"]["beats"],
        "dram.row_hits": report["dram"]["row_hits"],
        "coalesced": report["blocks"]["coalesced"],
        "tempbuf_hits": report["blocks"]["tempbuf_hits"],
        "bus.bytes": report["bus"]["bytes"],
    }


class Round:
    """Timings, reports and failures of one pass over the operations."""

    def __init__(self):
        self.setup_s = None   # host seconds of the setup before the ops
        self.times = {}       # op -> host seconds
        self.mttkrp = []      # host seconds per fabric MTTKRP call
        self.scale = None     # mean HostClock scale of the round's calls
        self.reports = {}     # mode -> simulate report
        self.counts = {}      # mode -> pinned counts
        self.attempted = 0
        self.failures = []

    def attempt(self, op, fn):
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{op}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, CheckFailed):
                traceback.print_exc(file=sys.stderr)

    @property
    def complete(self):
        """Every operation returned, so the round's timings are whole."""
        return len(self.times) == self.attempted


def _timed_kernel(kernel, sink):
    def timed(tensor, d, c):
        t0 = clock()
        out = kernel(tensor, d, c)
        sink.append(clock() - t0)
        return out
    return timed


def _count_diff(got, want):
    return ", ".join(f"{k} {got.get(k)} != {want.get(k)}"
                     for k in sorted(set(got) | set(want))
                     if got.get(k) != want.get(k))


def _check_counts(rnd, op, counts, expected):
    """Record an operation's pinned counts and compare them with `expected`,
    which takes them as the reference if it has none for `op` yet."""
    rnd.counts[op] = counts
    want = expected.setdefault(op, counts)
    if counts != want:
        raise CheckFailed(f"pinned counts differ: {_count_diff(counts, want)}")


def run_round(wl, expected, hclock=None):
    """Run every operation once.  `expected` maps each simulated mode, and
    `cp_als`, to its pinned counts; operations not in it are added from this
    round, so later rounds must repeat them."""
    rnd = Round()
    hclock = hclock or HostClock()
    oracle = tensor_mod.mttkrp_oracle(wl.tensor, wl.d, wl.c)
    calls = []    # unscaled host seconds of each fabric MTTKRP
    kernel = _timed_kernel(fabric_mod.fabric_mttkrp_kernel(wl.fabric), calls)

    def scale_calls():
        rnd.mttkrp = [t * hclock.scales[-1] for t in calls]

    if wl.cpd_ref is not None:
        def op_cp_als():
            res, rnd.times["cp_als"] = hclock.time(lambda: decompose(wl,
                                                                     kernel))
            scale_calls()
            ref = wl.cpd_ref
            wrong = []
            if res.iterations != ref.iterations:
                wrong.append(f"{res.iterations} iterations, oracle kernel "
                             f"{ref.iterations}")
            if abs(res.fit - ref.fit) > FIT_TOL:
                wrong.append(f"fit {res.fit!r}, oracle kernel {ref.fit!r}")
            if wrong:
                raise CheckFailed("; ".join(wrong))
            _check_counts(rnd, "cp_als", {"iterations": res.iterations},
                          expected)
        rnd.attempt("cp_als", op_cp_als)
    else:
        def op_functional():
            out, rnd.times["functional"] = hclock.time(
                lambda: kernel(wl.tensor, wl.d, wl.c))
            scale_calls()
            engine_mod.verify_output(out, oracle)
        rnd.attempt("functional", op_functional)

    for mode in MODES:
        def op_simulate(mode=mode):
            (out, report), rnd.times[mode] = hclock.time(
                lambda: engine_mod.simulate(wl.tensor, wl.d, wl.c,
                                            wl.systems[mode]))
            rnd.reports[mode] = report
            _check_counts(rnd, mode, sim_counts(report), expected)
            engine_mod.verify_output(out, oracle)
        rnd.attempt(mode, op_simulate)
    return rnd


def load_golden(name, seed):
    """Pinned counts for the default seed; {} (record only) for other seeds."""
    if seed != DEFAULT_SEED:
        return {}
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    if name not in golden:
        raise SystemExit(f"perfbench: {GOLDEN_PATH} has no counts for {name}")
    return {mode: dict(counts) for mode, counts in golden[name].items()}


def median(values):
    """The run's statistic for every metric with more than one sample."""
    if not values:
        raise SystemExit("perfbench: no successful sample for a metric")
    return statistics.median(values)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def op_samples(rounds):
    """Host seconds of each operation over the rounds, op -> list."""
    samples = {}
    for r in rounds:
        for op, seconds in r.times.items():
            samples.setdefault(op, []).append(seconds)
    return samples


def round_wall(rounds):
    """Host seconds of one round's operations: each operation's median."""
    return sum(median(v) for v in op_samples(rounds).values())


def timing_samples(rounds):
    """Host-time samples of the run, metric name -> list of seconds."""
    ops = op_samples(rounds)
    samples = {f"{mode}_s": ops.get(mode, []) for mode in MODES}
    samples["mttkrp_s"] = [t for r in rounds for t in r.mttkrp]
    samples["setup_s"] = [r.setup_s for r in rounds]
    return samples


def end_to_end_metrics(rounds, samples):
    steady = {name: median(values) for name, values in samples.items()}
    metrics = {"wall_s": _metric(round_wall(rounds), "s")}
    for mode in MODES:
        metrics[f"{mode}_s"] = _metric(steady[f"{mode}_s"], "s")
    full = [r for r in rounds if r.complete]
    if not full:
        raise SystemExit("perfbench: no round completed every operation")
    counts = full[0].counts
    metrics["sim_cycles_per_s"] = _metric(
        sum(counts[m]["total_cycles"] for m in MODES)
        / sum(steady[f"{m}_s"] for m in MODES), "cycles/s")
    metrics["mttkrp_s"] = _metric(steady["mttkrp_s"], "s")
    metrics["sim_speedup"] = _metric(counts["ip-only"]["total_cycles"]
                                     / counts["proposed"]["total_cycles"], "x")
    metrics["setup_s"] = _metric(steady["setup_s"], "s")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def _report_sum(rnd, path):
    total = 0
    for report in rnd.reports.values():
        node = report
        for key in path:
            node = node[key]
        total += node
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(totals, rnd):
    """Per-layer metrics of one traced round (its setup included)."""
    spans, folded = totals["spans"], totals["folded"]

    def self_s(*names):
        return sum(spans.get(name, [0.0, 0])[0] for name in names)

    def fold(key, i):
        return folded.get(key, [0, 0.0, 0])[i]

    def rep(*path):
        return _report_sum(rnd, path)

    # the engine steps the DRAM once per loop iteration and asks it for its
    # next event on each cycle where nothing moved
    stepped = fold("dram.step", 0)
    values = {
        "engine.self_s": self_s("engine.run"),
        "engine.stepped_cycles": stepped,
        "engine.stepped_ratio": _ratio(stepped, rep("total_cycles")),
        "engine.skip_calls": fold("dram.next_event", 0),
        "dram.step_s": fold("dram.step", 1),
        "dram.next_event_s": fold("dram.next_event", 1),
        "dram.beats": fold("dram.step", 2),
        "dram.row_hit_ratio": _ratio(rep("dram", "row_hits"),
                                     rep("dram", "row_hits")
                                     + rep("dram", "row_misses")),
        "dram.busy_cycles": rep("dram", "busy_cycles"),
        "dram.hol_block_cycles": rep("dram", "hol_block_cycles"),
        "router.step_s": fold("router.step", 1),
        "router.forwarded": rep("router", "forwarded"),
        "router.returned": rep("router", "returned"),
    }
    for mode in MODES:
        values[f"memsys.{mode}.step_s"] = fold(f"memsys.{mode}.step", 1)
        values[f"memsys.{mode}.step_calls"] = fold(f"memsys.{mode}.step", 0)
    values.update({
        "memsys.next_event_s": fold("memsys.next_event", 1),
        "memsys.coalesced": rep("blocks", "coalesced"),
        "memsys.tempbuf_hits": rep("blocks", "tempbuf_hits"),
        "memsys.cache_hit_ratio": _ratio(rep("blocks", "cache_hits"),
                                         rep("blocks", "cache_hits")
                                         + rep("blocks", "cache_misses")),
        "memsys.miss_slot_stall_cycles": rep("blocks", "miss_slot_stall_cycles"),
        "memsys.dma_credit_stall_cycles": rep("blocks", "credit_stall_cycles"),
        "bus.useful_ratio": _ratio(rep("bus", "useful_bytes"),
                                   rep("bus", "bytes")),
        "fabric.step_s": fold("fabric.step", 1),
        "fabric.step_calls": fold("fabric.step", 0),
        "fabric.deliver_s": fold("fabric.deliver", 1),
        "fabric.functional_s": self_s("fabric.functional"),
        "fabric.issues": fold("fabric.step", 2),
        "fabric.stall_cycles": sum(pe["stall_cycles"]
                                   for report in rnd.reports.values()
                                   for pe in report["pes"]),
        "tensor.gen_s": self_s("tensor.gen"),
        "tensor.oracle_s": self_s("tensor.oracle"),
        "tensor.self_s": self_s("tensor.gen", "tensor.oracle", "tensor.cp_als"),
    })
    # host times at the reference host speed, like the end-to-end ones
    return {name: value * rnd.scale if name.endswith("_s") else value
            for name, value in values.items()}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer_metrics(tracer, traced, untraced):
    per_round = [layer_values(t, r)
                 for t, r in zip(tracer.round_totals(), traced) if r.complete]
    if not per_round:
        raise SystemExit("perfbench: no complete traced round")
    metrics = {}
    for name in per_round[0]:
        values = [v[name] for v in per_round]
        # counts repeat exactly from round to round
        metrics[name] = _metric(median(values), _layer_unit(name))
    metrics["trace.overhead_ratio"] = _metric(
        round_wall(traced) / round_wall(untraced) - 1.0, "ratio")
    return metrics


def timed_round(name, seed, expected, hclock):
    """A fresh setup, then every operation once."""
    gc.collect()
    first = len(hclock.scales)
    wl, setup_s = hclock.time(lambda: setup(name, seed))
    rnd = run_round(wl, expected, hclock)
    rnd.setup_s = setup_s
    rnd.scale = statistics.fmean(hclock.scales[first:])
    return rnd


def measure(name, seed, seconds, tracer=None, hclock=None):
    """Rounds until the next one would end after `seconds`; at least one.

    With a tracer, each untraced round is followed by a traced one; the
    per-layer numbers come from the traced rounds, and both kinds must give
    the same simulated counts.
    """
    expected = load_golden(name, seed)
    hclock = hclock or HostClock()
    untraced, traced = [], []
    start = clock()
    while True:
        t0 = clock()
        untraced.append(timed_round(name, seed, expected, hclock))
        if tracer is not None:
            tracer.install()
            try:
                with tracer.span("round"):
                    traced.append(timed_round(name, seed, expected, hclock))
            finally:
                tracer.uninstall()
        now = clock()
        if now + (now - t0) > start + seconds:
            return untraced, traced


def _write_out(name, seed, kind, data):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-{kind}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def update_golden(names):
    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
    for name in names:
        rnd = run_round(setup(name, DEFAULT_SEED), {})
        if rnd.failures:
            raise SystemExit(f"perfbench: {name} failed: {rnd.failures}")
        golden[name] = rnd.counts
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite golden.json from the default seed of "
                         "--workload, or of every workload, and exit")
    args = ap.parse_args(argv)
    if args.update_golden:
        update_golden([args.workload] if args.workload else sorted(WORKLOADS))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    name, seed = args.workload, args.seed
    hclock = HostClock()
    if args.trace:
        tracer = Tracer()
        untraced, traced = measure(name, seed, args.seconds, tracer, hclock)
        rounds = untraced + traced
        metrics = per_layer_metrics(tracer, traced, untraced)
        _write_out(name, seed, "spans", tracer.to_json())
    else:
        rounds, _ = measure(name, seed, args.seconds, hclock=hclock)
        samples = timing_samples(rounds)
        metrics = end_to_end_metrics(rounds, samples)
        _write_out(name, seed, "samples",
                   {**samples, "reference_loop": hclock.refs})
    counts = next((r.counts for r in rounds if r.counts), {})
    _write_out(name, seed, "counts", counts)
    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)

    print(f"# {name} seed {seed}: {len(rounds)} rounds, "
          f"{attempted} operations")
    for op, c in counts.items():
        print(f"# counts {op}: " + " ".join(f"{k}={v}" for k, v in c.items()))
    print(f"error_rate {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} failed)")
    if not args.trace:
        print(f"# sim_speedup beside the published "
              f"{engine_mod.REFERENCE_SPEEDUP['proposed']}x; the model is "
              f"not validated against hardware, so no error is given")
    for metric, m in metrics.items():
        print(f"{metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
