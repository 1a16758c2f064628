"""Command line entry points.

Subcommands:

  gen      write a synthetic tensor to a file (text or packed binary)
  run      one timed simulation (or a trace replay), report to stdout/file
  sweep    rank x mode grid with speedups, published reference numbers, and
           a PASS/FAIL cycle-ordering column; optional gnuplot script
  cpd      CP decomposition via alternating least squares
  presets  list available presets (JSON)

Reports go to stdout (or --out); notes and errors go to stderr.  Exit codes:
0 success, 2 bad configuration or input data, 3 output verification failure,
1 anything else.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import multiprocessing
import os
import sys

from . import config as cfgmod
from .engine import (REFERENCE_SPEEDUP, checked_layout, replay_trace,
                     report_to_json, simulate)
from .errors import ConfigurationError, DataError, LmbsimError, VerificationError
from .fabric import ReqKind, RequestTrace, fabric_mttkrp_kernel
from .memsys import MODES
from .tensor import FactorMatrix, cp_als, gen_synthetic
from . import tensor_io


def _note(msg):
    print(msg, file=sys.stderr)


def _add_config_args(p):
    p.add_argument("--config", metavar="FILE", help="INI settings file")
    p.add_argument("--preset", action="append", default=[], metavar="NAME",
                   help="apply a named preset (repeatable, applied in order)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE",
                   help="override one setting (repeatable)")


def _resolve(args):
    settings = cfgmod.default_settings()
    if getattr(args, "config", None):
        cfgmod.apply_file(settings, args.config)
    for name in args.preset:
        cfgmod.apply_preset(settings, name)
    for spec in args.overrides + _flag_overrides(args):
        cfgmod.apply_override(settings, spec)
    return settings


# the setting each command-line flag gives; gen's --seed also seeds the tensor
_FLAG_SETTINGS = (
    ("seed", "run.seed"), ("verify", "run.verify"), ("rank", "fabric.rank"),
    ("tensor", "tensor.file"), ("format", "output.format"),
    ("trace_out", "output.trace"), ("dims", "tensor.dims"),
    ("nnz", "tensor.nnz"), ("distribution", "tensor.distribution"),
)


def _flag_overrides(args):
    """The settings the given flags make, applied after every --set."""
    table = _FLAG_SETTINGS
    if args.command == "gen":
        table += (("seed", "tensor.seed"),)
    extra = []
    for attr, key in table:
        value = getattr(args, attr, None)
        if value is None or value is False or value == "":
            continue
        extra.append(f"{key}={'true' if value is True else value}")
    return extra


def _load_workload(built):
    """Load or generate the tensor; returns (sorted tensor, display name)."""
    if built.tensor_file:
        try:
            tensor = tensor_io.load(built.tensor_file)
        except OSError as exc:
            raise DataError(
                f"cannot read tensor file {built.tensor_file}: {exc}") from None
        name = os.path.splitext(os.path.basename(built.tensor_file))[0]
    else:
        tensor = gen_synthetic(built.gen)
        name = (f"synthetic-{'x'.join(str(d) for d in built.gen.dims)}"
                f"-nnz{built.gen.nnz}")
    if not tensor.mode_sorted():
        _note("note: input tensor not sorted by (i, j, k); sorting")
        tensor = tensor.sorted_mode0()
    return tensor, name


def _factors(tensor, system, seed):
    """Random D and C at the system's rank, whose rows are drawn as the run
    reads them.  A layout that does not fit the address space refuses the
    run here, before any work."""
    checked_layout(tensor, system)
    rank = system.fabric.rank
    d = FactorMatrix.random(tensor.dims[1], rank, seed + 1)
    c = FactorMatrix.random(tensor.dims[2], rank, seed + 2)
    return d, c


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for idx, item in enumerate(obj):
            rows.extend(_flatten(item, f"{prefix}{idx}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _write_output(path, text):
    """Write `text` to the file at `path`, or to stdout when there is none.
    A path that cannot be written is bad input: a DataError naming it."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from None


def _check_output_paths(*paths):
    """Refuse, before any work, an output path that names a directory or
    whose directory does not exist; nothing is created or truncated yet."""
    for path in filter(None, paths):
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(parent):
            raise DataError(f"cannot write {path}: no directory {parent}")


def _emit_report(report, out_format, out_path):
    if out_format == "csv":
        lines = ["key,value"]
        lines.extend(f"{k},{v}" for k, v in _flatten(report))
        text = "\n".join(lines) + "\n"
    else:
        text = report_to_json(report) + "\n"
    _write_output(out_path, text)


def _emit_rows(rows, columns, out_format, out_path):
    if out_format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(str(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    _write_output(out_path, text)


def _trace_record_problem(rec, tags, system):
    """Why a parsed trace record cannot replay on `system`; None if it can."""
    cycle, kind, lmb, _, addr, nbytes, tag = rec
    bits = system.dram.address_bits
    if kind.upper() not in ReqKind.__members__:
        return f"unknown request kind {kind!r}"
    if nbytes <= 0:
        return f"request length {nbytes} is not positive"
    if tag in tags:
        return f"repeated tag {tag}"
    if cycle < 0:
        return f"cycle {cycle} is negative"
    if not 0 <= lmb < system.num_lmbs:
        return f"block {lmb} is not one of the {system.num_lmbs} configured"
    if addr < 0 or addr + nbytes > 1 << bits:
        return (f"bytes {addr} to {addr + nbytes - 1} are outside the "
                f"{bits}-bit address space")
    return None


def _parse_trace_file(path, system):
    records = []
    tags = set()
    try:
        for lineno, body in tensor_io._text_lines(path, "not UTF-8 text"):
            if not body or body.startswith("#"):
                continue
            parts = body.split()
            if len(parts) != 7:
                raise DataError(
                    f"{path} line {lineno}: expected 7 fields, got {len(parts)}")
            try:
                rec = (int(parts[0]), parts[1], int(parts[2]),
                       int(parts[3]), int(parts[4]), int(parts[5]),
                       int(parts[6]))
            except ValueError:
                raise DataError(
                    f"{path} line {lineno}: malformed trace record") from None
            problem = _trace_record_problem(rec, tags, system)
            if problem:
                raise DataError(f"{path} line {lineno}: {problem}")
            tags.add(rec[6])
            records.append(rec)
    except OSError as exc:
        raise DataError(f"cannot read trace file {path}: {exc}") from None
    return records


# -- subcommands -----------------------------------------------------------


def cmd_gen(args):
    settings = _resolve(args)
    built = cfgmod.build(settings)
    tensor = gen_synthetic(built.gen)
    binary = args.binary or args.out.endswith((".bin", ".coob"))
    save = tensor_io.save_binary if binary else tensor_io.save_text
    try:
        save(tensor, args.out)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc}") from None
    _note(f"wrote {tensor.nnz} elements to {args.out} "
          f"({'binary' if binary else 'text'})")
    cells = tensor.dims[0] * tensor.dims[1] * tensor.dims[2]
    summary = {
        "path": args.out,
        "format": "binary" if binary else "text",
        "dims": list(tensor.dims),
        "nnz": tensor.nnz,
        "density": tensor.nnz / cells if cells else 0.0,
    }
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_run(args):
    settings = _resolve(args)
    built = cfgmod.build(settings)
    flat = dict(_flatten(settings))
    _check_output_paths(args.out, "" if args.trace_in else built.trace_path)
    if args.trace_in:
        records = _parse_trace_file(args.trace_in, built.system)
        report = replay_trace(records, built.system, effective_config=flat)
        _emit_report(report, built.out_format, args.out)
        return 0
    tensor, name = _load_workload(built)
    d, c = _factors(tensor, built.system, built.seed)
    trace = RequestTrace() if built.trace_path else None
    _, report = simulate(tensor, d, c, built.system, verify=built.verify,
                         trace=trace, effective_config=flat,
                         workload_name=name)
    if trace is not None:
        buf = io.StringIO()
        trace.dump(buf)
        _write_output(built.trace_path, buf.getvalue())
        _note(f"wrote {len(trace)} trace records to {built.trace_path}")
    if built.verify:
        _note("verify: simulated output matches the reference computation")
    _emit_report(report, built.out_format, args.out)
    return 0


def _sweep_label_parts(preset_names):
    """Figure-style label pieces from the applied presets.

    A system preset named like table2-config-a contributes the configuration
    letter; a preset that sets tensor.* contributes the dataset name.
    """
    letter = None
    dataset = None
    for name in preset_names:
        preset = cfgmod.PRESETS.get(name)
        if preset is None:
            continue
        if name.startswith("table2-config-"):
            letter = name.rsplit("-", 1)[1].upper()
        elif any(sec == "tensor" for sec, _ in preset["values"]):
            dataset = name
    return letter, dataset


def run_mode(settings, mode):
    """One timed run of `mode` on resolved settings; returns its report.

    proposed runs the settings as they are; any other mode runs them under
    its baseline-<mode> preset, the conventional block it is compared with.
    The settings passed in are left unchanged.
    """
    settings = copy.deepcopy(settings)
    if mode == "proposed":
        settings["run"]["mode"] = "proposed"
    else:
        cfgmod.apply_preset(settings, f"baseline-{mode}")
    built = cfgmod.build(settings)
    tensor, name = _load_workload(built)
    d, c = _factors(tensor, built.system, built.seed)
    _, report = simulate(tensor, d, c, built.system, verify=built.verify,
                         workload_name=name)
    return report


def _sweep_worker(payload):
    settings, rank, mode, label_parts = payload
    settings = copy.deepcopy(settings)
    settings["fabric"]["rank"] = str(rank)
    report = run_mode(settings, mode)
    workload = report["workload"]
    letter, dataset = label_parts
    if letter:
        label = (f"{letter}_{workload['fabric_type'].capitalize()}_"
                 f"{dataset or workload['name']}")
    else:
        label = f"{workload['name']}_{workload['fabric_type']}"
    return {
        "label": label,
        "rank": rank,
        "mode": mode,
        "cycles": report["total_cycles"],
        "reference_speedup": REFERENCE_SPEEDUP[mode],
        "bus_bytes": report["bus"]["bytes"],
        "bus_useful_bytes": report["bus"]["useful_bytes"],
    }


def _write_plot_script(script_path, csv_path):
    png = os.path.splitext(script_path)[0] + ".png"
    text = "\n".join([
        "# render with: gnuplot " + os.path.basename(script_path),
        "set datafile separator ','",
        "set terminal pngcairo size 960,540",
        f"set output '{png}'",
        "set style data histograms",
        "set style fill solid 0.8 border -1",
        "set boxwidth 0.85",
        "set ylabel 'speedup over ip-only'",
        "set yrange [0:*]",
        "set xtics rotate by -40",
        "set key off",
        f"plot '{csv_path}' every ::1 using 5:"
        "xticlabels(sprintf('%s r%s %s', "
        "stringcolumn(1), stringcolumn(2), stringcolumn(3)))",
    ]) + "\n"
    _write_output(script_path, text)


# cycles must fall strictly in this order for the ordering column to PASS
SWEEP_ORDER = ("proposed", "dma-only", "cache-only", "ip-only")


def cmd_sweep(args):
    if args.jobs < 1:
        raise ConfigurationError(f"--jobs must be at least 1, got {args.jobs}")
    settings = _resolve(args)
    built = cfgmod.build(settings)
    for mode in built.sweep_modes:
        if mode not in MODES:
            raise ConfigurationError(f"sweep mode {mode!r} not one of {MODES}")
    if len(built.sweep_modes) < 2:
        raise ConfigurationError("a sweep needs at least two modes to compare")
    if not built.sweep_ranks:
        raise ConfigurationError("a sweep needs at least one rank")
    if args.plot_script and (built.out_format != "csv" or not args.out):
        raise ConfigurationError("--plot-script needs --format csv and --out FILE")
    _check_output_paths(args.out, args.plot_script)
    label_parts = _sweep_label_parts(args.preset)
    tasks = [(settings, rank, mode, label_parts)
             for rank in built.sweep_ranks for mode in built.sweep_modes]
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_sweep_worker, tasks)
    else:
        results = [_sweep_worker(t) for t in tasks]
    results.sort(key=lambda row: row["label"])  # stable: keeps rank/mode order
    base = {row["rank"]: row["cycles"] for row in results
            if row["mode"] == "ip-only"}
    groups = {}
    for row in results:
        ref = base.get(row["rank"])
        row["speedup"] = (round(ref / row["cycles"], 4)
                          if ref and row["cycles"] else None)
        groups.setdefault((row["label"], row["rank"]), {})[row["mode"]] = \
            row["cycles"]
    for row in results:
        cyc = groups[(row["label"], row["rank"])]
        if all(m in cyc for m in SWEEP_ORDER):
            ordered = all(cyc[a] < cyc[b]
                          for a, b in zip(SWEEP_ORDER, SWEEP_ORDER[1:]))
            row["ordering"] = "PASS" if ordered else "FAIL"
        else:
            row["ordering"] = ""
    columns = ("label", "rank", "mode", "cycles", "speedup",
               "reference_speedup", "ordering", "bus_bytes",
               "bus_useful_bytes")
    _emit_rows(results, columns, built.out_format, args.out)
    if args.plot_script:
        _write_plot_script(args.plot_script, args.out)
        _note(f"wrote gnuplot script to {args.plot_script}")
    return 0


def cmd_cpd(args):
    settings = _resolve(args)
    built = cfgmod.build(settings)
    _check_output_paths(args.out)
    tensor, name = _load_workload(built)
    kernel = None
    if args.use_fabric:
        kernel = fabric_mttkrp_kernel(built.system.fabric)
    result = cp_als(tensor, args.cp_rank, max_iters=args.iters, tol=args.tol,
                    seed=built.seed, mttkrp=kernel)
    report = {
        "workload": name,
        "rank": args.cp_rank,
        "iterations": result.iterations,
        "mttkrp_calls": result.mttkrp_calls,
        "fit": result.fit,
        "fits": result.fits,
        "lambda": [float(x) for x in result.lam],
        "kernel": "fabric" if args.use_fabric else "reference",
    }
    _emit_report(report, built.out_format, args.out)
    return 0


def cmd_presets(args):
    rows = [{"name": name, "description": preset["description"]}
            for name, preset in cfgmod.PRESETS.items()]
    sys.stdout.write(json.dumps(rows, indent=2) + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lmbsim",
        description="Cycle-level model of a reconfigurable memory system "
                    "driving sparse MTTKRP")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic tensor file")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--binary", action="store_true",
                   help="force packed binary format")
    p.add_argument("--dims", help="extents, e.g. '64 64 64'")
    p.add_argument("--nnz", type=int, help="element count")
    p.add_argument("--seed", type=int, help="generator seed")
    p.add_argument("--distribution", choices=("uniform", "mode-clustered"))
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one timed simulation")
    _add_config_args(p)
    p.add_argument("--tensor", metavar="FILE", help="tensor file (else synthetic)")
    p.add_argument("--seed", type=int, help="factor initialization seed")
    p.add_argument("--rank", type=int, help="factor rank")
    p.add_argument("--verify", action="store_true",
                   help="check the output against the reference computation")
    p.add_argument("--trace-out", metavar="FILE", help="dump the request trace")
    p.add_argument("--trace-in", metavar="FILE",
                   help="replay a request trace instead of running the fabric")
    p.add_argument("--out", metavar="FILE", help="write the report here")
    p.add_argument("--format", choices=("json", "csv"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="rank x mode grid with speedups")
    _add_config_args(p)
    p.add_argument("--tensor", metavar="FILE")
    p.add_argument("--seed", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--plot-script", metavar="FILE",
                   help="also write a gnuplot script for the CSV table")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cpd", help="CP decomposition (alternating least squares)")
    _add_config_args(p)
    p.add_argument("--tensor", metavar="FILE")
    p.add_argument("--seed", type=int)
    p.add_argument("--cp-rank", type=int, default=8, help="decomposition rank")
    p.add_argument("--iters", type=int, default=25, help="maximum iterations")
    p.add_argument("--tol", type=float, default=1e-5, help="fit change tolerance")
    p.add_argument("--use-fabric", action="store_true",
                   help="route every MTTKRP through the PE machines")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--format", choices=("json", "csv"))
    p.set_defaults(func=cmd_cpd)

    p = sub.add_parser("presets", help="list available presets")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DataError, MemoryError) as exc:
        _note(f"error: {exc or 'out of memory'}")
        return 2
    except VerificationError as exc:
        _note(f"verification failed: {exc}")
        return 3
    except LmbsimError as exc:
        _note(f"error: {exc}")
        dump = getattr(exc, "dump", None)
        if dump:
            _note(str(dump))
        return 1


if __name__ == "__main__":
    sys.exit(main())
