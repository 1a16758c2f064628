"""Settings resolution and the command line front end."""

import configparser
import dataclasses
import io
import json
import os

import pytest

from lmbsim import cli
from lmbsim import config as cfgmod
from lmbsim.cli import main
from lmbsim.engine import SystemConfig
from lmbsim.errors import ConfigurationError
from lmbsim.tensor_io import MAGIC, load, load_binary

from refmodel import off_at_origin

EXAMPLE_INI = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                           "example.ini")


def settings_to_ini(settings):
    """INI text that apply_ini_text reads back into the same settings."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    for sec in cfgmod.DEFAULTS:
        cp.add_section(sec)
        for key in cfgmod.DEFAULTS[sec]:
            cp.set(sec, key, settings[sec][key])
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# --- settings resolution ------------------------------------------------------

def test_defaults_build_cleanly():
    built = cfgmod.build(cfgmod.default_settings())
    assert built.system.lmb.mode == "proposed"
    assert built.system.fabric.rank == 32
    assert built.system.dram.num_banks == 16
    assert built.system.num_lmbs == 1
    assert built.gen.dims == (64, 64, 64)
    assert built.gen.nnz == 1000
    assert not built.verify


def test_precedence_file_preset_override():
    s = cfgmod.default_settings()
    cfgmod.apply_ini_text(s, "[fabric]\nrank = 8\npe_count = 2\n")
    cfgmod.apply_preset(s, "table2-config-b")   # leaves rank alone
    cfgmod.apply_override(s, "fabric.rank=16")
    built = cfgmod.build(s)
    assert built.system.fabric.rank == 16            # override wins
    assert built.system.fabric.pe_count == 8         # preset beat the file
    assert built.system.fabric.fabric_type == "type2"
    assert built.system.num_lmbs == 4


def test_unknown_section_rejected():
    s = cfgmod.default_settings()
    with pytest.raises(ConfigurationError, match=r"unknown section \[turbo\]"):
        cfgmod.apply_ini_text(s, "[turbo]\nboost = 1\n")


def test_unknown_key_reports_line_number():
    s = cfgmod.default_settings()
    with pytest.raises(ConfigurationError, match="line 3"):
        cfgmod.apply_ini_text(s, "[fabric]\nrank = 8\nbogus = 1\n",
                              origin="test.ini")


def test_override_spelling_errors():
    s = cfgmod.default_settings()
    with pytest.raises(ConfigurationError, match="section.key=value"):
        cfgmod.apply_override(s, "fabric.rank")
    with pytest.raises(ConfigurationError, match="section.key=value"):
        cfgmod.apply_override(s, "rank=8")
    with pytest.raises(ConfigurationError, match="unknown setting"):
        cfgmod.apply_override(s, "fabric.nope=1")


def test_unknown_preset_lists_alternatives():
    s = cfgmod.default_settings()
    with pytest.raises(ConfigurationError, match="synth01-mini"):
        cfgmod.apply_preset(s, "nope")


def test_settings_to_ini_round_trip():
    s = cfgmod.default_settings()
    cfgmod.apply_override(s, "fabric.rank=7")
    cfgmod.apply_override(s, "tensor.dims=3 4 5")
    text = settings_to_ini(s)
    back = cfgmod.apply_ini_text(cfgmod.default_settings(), text)
    assert back == s


def test_typed_value_errors():
    s = cfgmod.default_settings()
    s["fabric"]["rank"] = "many"
    with pytest.raises(ConfigurationError, match="must be an integer"):
        cfgmod.build(s)
    s = cfgmod.default_settings()
    s["run"]["verify"] = "maybe"
    with pytest.raises(ConfigurationError, match="boolean"):
        cfgmod.build(s)
    s = cfgmod.default_settings()
    s["output"]["format"] = "xml"
    with pytest.raises(ConfigurationError, match="json or csv"):
        cfgmod.build(s)
    s = cfgmod.default_settings()
    s["tensor"]["dims"] = "3 4"
    with pytest.raises(ConfigurationError, match="three extents"):
        cfgmod.build(s)


def test_system_and_workload_presets_compose():
    s = cfgmod.default_settings()
    cfgmod.apply_preset(s, "table2-config-a")
    cfgmod.apply_preset(s, "synth01-mini")
    built = cfgmod.build(s)
    assert built.system.fabric.fabric_type == "type1"
    assert built.system.num_lmbs == 1
    assert built.gen.dims == (2226, 46080, 112640)
    assert built.gen.nnz == 27343
    assert built.gen.distribution == "uniform"


def test_baseline_presets_are_single_block():
    for mode in ("ip-only", "cache-only", "dma-only"):
        s = cfgmod.default_settings()
        cfgmod.apply_preset(s, f"baseline-{mode}")
        built = cfgmod.build(s)
        assert built.system.lmb.mode == mode
        assert built.system.num_lmbs == 1


def test_defaults_are_single_sourced():
    # the INI defaults build the config classes' own defaults
    built = cfgmod.build(cfgmod.default_settings())
    assert built.system == SystemConfig()
    # and configs/example.ini names exactly the keys of DEFAULTS, with the
    # same values
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    with open(EXAMPLE_INI, encoding="utf-8") as fh:
        cp.read_file(fh)
    assert {sec: dict(cp.items(sec)) for sec in cp.sections()} == \
        cfgmod.DEFAULTS


# every class-backed INI key, a legal non-default value for it, and the
# SystemConfig field that value must reach
CLASS_BACKED = (
    ("run.mode", "ip-only", "lmb.mode"),
    ("memsys.num_lmbs", "2", "num_lmbs"),
    ("fabric.type", "type1", "fabric.fabric_type"),
    ("fabric.pe_count", "3", "fabric.pe_count"),
    ("fabric.max_outstanding", "5", "fabric.max_outstanding"),
    ("fabric.accumulate_cycles", "2", "fabric.accumulate_cycles"),
    ("fabric.rank", "9", "fabric.rank"),
    ("cache.lines", "4096", "lmb.cache.num_lines"),
    ("cache.assoc", "4", "lmb.cache.assoc"),
    ("cache.pipeline_depth", "6", "lmb.cache.pipeline_depth"),
    ("cache.miss_slots", "7", "lmb.cache.miss_slots"),
    ("rrsh.entries", "2048", "lmb.rrsh.entries"),
    ("rrsh.ways", "2", "lmb.rrsh.ways"),
    ("rrsh.pending_cap", "33", "lmb.rrsh.pending_cap"),
    ("tempbuf.entries", "11", "lmb.tempbuf.entries"),
    ("dmaengine.buffers", "13", "lmb.dma.buffers"),
    ("dmaengine.buffer_bytes", "128", "lmb.dma.buffer_bytes"),
    ("dmaengine.desc_slots", "14", "lmb.dma.desc_slots"),
    ("mshr.entries", "15", "lmb.mshr.entries"),
    ("dram.banks", "8", "dram.num_banks"),
    ("dram.row_bytes", "2048", "dram.row_bytes"),
    ("dram.t_row_hit", "21", "dram.t_row_hit"),
    ("dram.t_row_miss", "50", "dram.t_row_miss"),
    ("dram.queue_depth", "17", "dram.queue_depth"),
    ("dram.address_bits", "30", "dram.address_bits"),
)


def _system_fields(cfg, prefix=""):
    """dotted field path -> value of every leaf field under `cfg`."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            out.update(_system_fields(value, f"{prefix}{f.name}."))
        else:
            out[f"{prefix}{f.name}"] = value
    return out


def test_every_class_backed_key_reaches_its_own_field():
    base = _system_fields(SystemConfig())
    # the table covers every key a config class backs, and nothing else
    assert {key for key, _, _ in CLASS_BACKED} == {
        f"{sec}.{key}" for sec in cfgmod.DEFAULTS for key in cfgmod.DEFAULTS[sec]
        if sec not in ("tensor", "sweep", "output")
        and (sec, key) not in (("run", "verify"), ("run", "seed"))}
    assert len({path for _, _, path in CLASS_BACKED}) == len(base) == 25
    for key, value, path in CLASS_BACKED:
        s = cfgmod.default_settings()
        cfgmod.apply_override(s, f"{key}={value}")
        got = _system_fields(cfgmod.build(s).system)
        changed = {p for p in base if got[p] != base[p]}
        assert changed == {path}, key
        assert str(got[path]) == value, key


def test_flat_settings_view():
    # the run report's config view: one flattening of the settings tree
    flat = dict(cli._flatten(cfgmod.default_settings()))
    assert flat == {f"{sec}.{key}": value
                    for sec, keys in cfgmod.DEFAULTS.items()
                    for key, value in keys.items()}
    assert flat["fabric.rank"] == "32"
    assert flat["dram.banks"] == "16"
    assert "memsys.num_lmbs" in flat


# --- command line -------------------------------------------------------------

def test_cli_gen_then_run(tmp_path, capsys):
    tensor_path = tmp_path / "small.tns"
    assert main(["gen", "--out", str(tensor_path), "--dims", "8 8 8",
                 "--nnz", "40", "--seed", "3"]) == 0
    t = load(tensor_path)
    assert t.nnz == 40 and t.dims == (8, 8, 8)

    report_path = tmp_path / "report.json"
    rc = main(["run", "--tensor", str(tensor_path), "--rank", "4",
               "--set", "fabric.pe_count=2", "--verify",
               "--out", str(report_path)])
    assert rc == 0
    rep = json.loads(report_path.read_text())
    assert rep["total_cycles"] > 0
    assert rep["verified"] is True
    assert rep["workload"]["name"] == "small"
    assert rep["config"]["fabric.rank"] == "4"
    err = capsys.readouterr().err
    assert "verify: simulated output matches" in err


def test_cli_gen_binary_by_extension(tmp_path):
    out = tmp_path / "t.bin"
    assert main(["gen", "--out", str(out), "--dims", "6 6 6",
                 "--nnz", "20"]) == 0
    assert out.read_bytes()[:4] == MAGIC
    assert load_binary(out).nnz == 20


def test_cli_gen_summary_reports_density(tmp_path, capsys):
    out = tmp_path / "s1.tns"
    assert main(["gen", "--preset", "synth01-mini", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["dims"] == [2226, 46080, 112640]
    assert summary["nnz"] == 27343
    # mini preset keeps the full-size workload's density within 5%
    assert abs(summary["density"] - 2.37e-09) <= 0.05 * 2.37e-09


def test_cli_gen_empty_tensor(tmp_path, capsys):
    out = tmp_path / "empty.tns"
    assert main(["gen", "--out", str(out), "--dims", "8 8 8",
                 "--nnz", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["density"] == 0.0
    t = load(out)
    assert t.nnz == 0 and t.dims == (8, 8, 8)


def test_cli_gen_flags_win_over_every_set(tmp_path):
    out = tmp_path / "t.tns"
    flags = ["--dims", "6 6 6", "--nnz", "20", "--seed", "7",
             "--distribution", "mode-clustered"]
    assert main(["gen", "--out", str(out), *flags]) == 0
    want = out.read_bytes()
    assert main(["gen", "--out", str(out), "--set", "tensor.dims=9 9 9",
                 "--set", "tensor.nnz=30", "--set", "tensor.seed=1",
                 "--set", "tensor.distribution=uniform", *flags,
                 "--set", "tensor.nnz=40"]) == 0
    assert out.read_bytes() == want


def test_cli_gen_same_seed_same_bytes(tmp_path):
    paths = [tmp_path / f"t{n}.bin" for n in range(2)]
    for path in paths:
        assert main(["gen", "--out", str(path), "--dims", "12 12 12",
                     "--nnz", "50", "--seed", "7"]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cli_run_seed_flag_overrides_config_file(tmp_path):
    cfg = tmp_path / "seeded.ini"
    cfg.write_text("[run]\nseed = 3\n[tensor]\ndims = 8 8 8\nnnz = 20\n")
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(cfg), "--seed", "9", "--rank", "2",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["run.seed"] == "9"


def test_cli_run_emits_and_replays_trace(tmp_path):
    trace_path = tmp_path / "trace.txt"
    r1_path = tmp_path / "r1.json"
    r2_path = tmp_path / "r2.json"
    args = ["--set", "tensor.dims=16 16 16", "--set", "tensor.nnz=120",
            "--rank", "8"]
    assert main(["run", *args, "--trace-out", str(trace_path),
                 "--out", str(r1_path)]) == 0
    assert main(["run", *args, "--trace-in", str(trace_path),
                 "--out", str(r2_path)]) == 0
    r1 = json.loads(r1_path.read_text())
    r2 = json.loads(r2_path.read_text())
    assert r2["total_cycles"] == r1["total_cycles"]
    assert r2["dram"] == r1["dram"]


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["run", "--set", "fabric.nope=1"]) == 2
    assert main(["run", "--preset", "nope"]) == 2
    with monkeypatch.context() as patch:
        # a reference one too high at [0, 0]: the output cannot match it
        patch.setattr("lmbsim.engine.mttkrp_oracle", off_at_origin)
        rc = main(["run", "--verify", "--rank", "2",
                   "--set", "tensor.dims=8 8 8", "--set", "tensor.nnz=30",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert "mismatch at row 0 col 0" in capsys.readouterr().err
    # a missing tensor file, or a directory named as one
    for path in (tmp_path / "missing.tns", tmp_path):
        for command in ("run", "sweep", "cpd"):
            assert main([command, "--tensor", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"cannot read tensor file {path}" in err
            assert "Traceback" not in err
    # bytes that are neither the binary magic nor UTF-8 text
    garbage = tmp_path / "garbage.tns"
    garbage.write_bytes(b"\xff\xfe\x00garbage\n")
    for command in ("run", "sweep", "cpd"):
        assert main([command, "--tensor", str(garbage)]) == 2
        err = capsys.readouterr().err
        assert "neither a binary tensor nor UTF-8 text" in err
        assert "Traceback" not in err
    # a coordinate past the u32 range
    big = tmp_path / "big.tns"
    big.write_text("99999999999 1 1 1.0\n")
    for command in ("run", "sweep", "cpd"):
        assert main([command, "--tensor", str(big)]) == 2
        err = capsys.readouterr().err
        assert "line 1: coordinate exceeds u32 coordinate range" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
    assert main(["cpd", "--iters", "-1"]) == 2
    err = capsys.readouterr().err
    assert "max_iters" in err and "Traceback" not in err
    # no cache set or coalescing bucket, and negative seeds: a one-line error
    for command, setting, message in (
            ("run", "cache.lines=0", "set count 0"),
            ("run", "rrsh.entries=0", "bucket count 0"),
            ("run", "run.seed=-5", "run.seed must be non-negative"),
            ("sweep", "run.seed=-7", "run.seed must be non-negative"),
            ("cpd", "run.seed=-7", "run.seed must be non-negative"),
            ("run", "tensor.seed=-3", "tensor.seed must be non-negative")):
        assert main([command, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
    # an empty tensor to decompose, and a layout past dram.address_bits
    for argv, message in (
            (["cpd", "--set", "tensor.nnz=0"], "all-zero tensor"),
            (["run", "--set", "dram.address_bits=12",
              "--set", "tensor.nnz=200"], "12-bit address space")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


def test_cli_sweep_jobs_capped_at_the_task_count(monkeypatch, capsys):
    asked = []

    class FakePool:
        """Records the worker count asked for and maps in process."""

        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli.multiprocessing, "Pool", FakePool)
    argv = ["sweep", "--set", "tensor.dims=8 8 8", "--set", "tensor.nnz=30",
            "--set", "sweep.ranks=2", "--set", "sweep.modes=proposed ip-only"]
    assert main(argv + ["--jobs", "8"]) == 0   # two tasks: two workers
    assert main(argv + ["--jobs", "2"]) == 0
    assert main(argv + ["--jobs", "1"]) == 0   # in process, no pool
    assert asked == [2, 2]
    capsys.readouterr()
    for jobs in ("0", "-3"):
        assert main(argv + ["--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert f"--jobs must be at least 1, got {jobs}" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert asked == [2, 2]


def test_cli_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--set", "tensor.dims=8 8 8",
               "--set", "tensor.nnz=30", "--set", "sweep.ranks=2",
               "--set", "sweep.modes=proposed ip-only",
               "--format", "csv", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("label,rank,mode,cycles,speedup,reference_speedup,"
                        "ordering,bus_bytes,bus_useful_bytes")
    assert len(lines) == 3
    by_mode = {line.split(",")[2]: line.split(",") for line in lines[1:]}
    assert float(by_mode["ip-only"][4]) == 1.0
    assert float(by_mode["proposed"][4]) > 1.0
    # ordering column stays blank unless all four modes were swept
    assert by_mode["proposed"][6] == ""


def test_cli_sweep_preset_labels_and_ordering(tmp_path):
    out = tmp_path / "sweep.json"
    rc = main(["sweep", "--preset", "table2-config-a",
               "--set", "tensor.dims=16 12 12", "--set", "tensor.nnz=150",
               "--set", "sweep.ranks=4", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    assert {r["mode"] for r in rows} == \
        {"proposed", "dma-only", "cache-only", "ip-only"}
    for row in rows:
        assert row["label"].startswith("A_Type1_")
        assert row["ordering"] in ("PASS", "FAIL")
    by_mode = {r["mode"]: r for r in rows}
    assert by_mode["proposed"]["reference_speedup"] == 3.5
    assert by_mode["ip-only"]["reference_speedup"] == 1.0


def test_cli_sweep_plot_script(tmp_path):
    out = tmp_path / "sweep.csv"
    script = tmp_path / "sweep.gp"
    rc = main(["sweep", "--set", "tensor.dims=8 8 8",
               "--set", "tensor.nnz=20", "--set", "sweep.ranks=2",
               "--set", "sweep.modes=proposed ip-only",
               "--format", "csv", "--out", str(out),
               "--plot-script", str(script)])
    assert rc == 0
    text = script.read_text()
    assert "gnuplot" in text
    assert f"plot '{out}'" in text
    # the script needs a CSV table to point at
    assert main(["sweep", "--set", "sweep.ranks=2",
                 "--plot-script", str(script)]) == 2


_SMALL = ["--set", "tensor.dims=8 8 8", "--set", "tensor.nnz=20"]
_SWEEP = ["sweep", *_SMALL, "--set", "sweep.ranks=2",
          "--set", "sweep.modes=proposed ip-only", "--format", "csv"]


@pytest.mark.parametrize("argv", [
    ["gen", *_SMALL, "--out", "{bad}"],
    ["run", *_SMALL, "--rank", "2", "--out", "{bad}"],
    ["run", *_SMALL, "--rank", "2", "--trace-out", "{bad}"],
    [*_SWEEP, "--out", "{bad}"],
    [*_SWEEP, "--out", "{ok}", "--plot-script", "{bad}"],
], ids=["gen-out", "run-out", "run-trace-out", "sweep-out",
        "sweep-plot-script"])
def test_cli_unwritable_output_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "missing" / "x.txt"
    argv = [a.format(bad=bad, ok=tmp_path / "ok.csv") for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ")
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["run", *_SMALL, "--out", "{bad}"],
    ["run", *_SMALL, "--out", "{ok}", "--trace-out", "{bad}"],
    ["run", *_SMALL, "--set", "output.trace={bad}", "--out", "{ok}"],
    ["run", "--trace-in", "{ok}", "--out", "{bad}"],
    [*_SWEEP, "--out", "{bad}"],
    [*_SWEEP, "--out", "{ok}", "--plot-script", "{bad}"],
    ["cpd", *_SMALL, "--out", "{bad}"],
    ["cpd", *_SMALL, "--use-fabric", "--out", "{bad}"],
], ids=["run-out", "run-trace-out", "run-trace-setting", "replay-out",
        "sweep-out", "sweep-plot-script", "cpd-out", "cpd-fabric-out"])
@pytest.mark.parametrize("kind", ["missing-dir", "a-dir"])
def test_cli_output_paths_are_checked_before_the_run(tmp_path, capsys,
                                                     monkeypatch, argv, kind):
    def reached(*args, **kwargs):
        raise AssertionError("the run started before its output paths "
                             "were checked")

    for name in ("simulate", "replay_trace", "cp_als"):
        monkeypatch.setattr(cli, name, reached)
    bad = tmp_path / "missing" / "x.txt" if kind == "missing-dir" else tmp_path
    ok = tmp_path / "ok.txt"
    ok.write_text("kept")
    assert main([a.format(bad=bad, ok=ok) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ")
    assert len(err.strip().splitlines()) == 1
    assert ok.read_text() == "kept"  # no file is created or truncated early
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.txt"]


@pytest.mark.parametrize("argv", [
    ["run", "--set", "tensor.nnz=50", "--set", "fabric.rank=99999999"],
    ["run", "--set", "tensor.nnz=50", "--rank", "99999999", "--verify"],
    ["sweep", "--set", "tensor.nnz=50", "--set", "sweep.ranks=99999999"],
], ids=["run", "run-verify", "sweep"])
def test_cli_layout_is_checked_before_the_factors(capsys, monkeypatch, argv):
    def reached(*args, **kwargs):
        raise AssertionError("the factors were drawn before the layout "
                             "was checked")

    monkeypatch.setattr(cli.FactorMatrix, "random", reached)
    monkeypatch.setattr(cli, "simulate", reached)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the layout's ")
    assert err.rstrip().endswith("do not fit the 31-bit address space")
    assert len(err.strip().splitlines()) == 1


def test_cli_sweep_rejects_an_empty_rank_list(capsys):
    assert main(["sweep", "--set", "sweep.ranks="]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a sweep needs at least one rank\n"


def test_cli_sweep_rejects_unknown_mode(tmp_path):
    assert main(["sweep", "--set", "sweep.modes=warp"]) == 2


def test_cli_sweep_rejects_single_mode():
    assert main(["sweep", "--set", "sweep.modes=proposed"]) == 2


def test_cli_cpd(tmp_path):
    out = tmp_path / "cpd.json"
    rc = main(["cpd", "--set", "tensor.dims=6 6 6", "--set", "tensor.nnz=30",
               "--cp-rank", "2", "--iters", "3", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["kernel"] == "reference"
    assert 1 <= rep["iterations"] <= 3
    assert rep["mttkrp_calls"] == 3 * rep["iterations"]
    assert len(rep["lambda"]) == 2


def test_cli_cpd_fabric_kernel(tmp_path):
    out = tmp_path / "cpd.json"
    rc = main(["cpd", "--set", "tensor.dims=5 6 7", "--set", "tensor.nnz=25",
               "--cp-rank", "2", "--iters", "2", "--use-fabric",
               "--set", "fabric.pe_count=2", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["kernel"] == "fabric"
    assert rep["mttkrp_calls"] == 3 * rep["iterations"]


def test_cli_presets_listing(capsys):
    assert main(["presets"]) == 0
    rows = json.loads(capsys.readouterr().out)
    names = {row["name"] for row in rows}
    assert {"table2-config-a", "synth01-mini", "baseline-dma-only"} <= names
    assert all(row["description"] for row in rows)


def test_cli_run_csv_report(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["run", "--rank", "2", "--set", "tensor.dims=8 8 8",
               "--set", "tensor.nnz=20", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("total_cycles,") for line in lines)


def test_report_config_round_trips_to_identical_run(tmp_path):
    out1 = tmp_path / "r1.json"
    assert main(["run", "--set", "tensor.dims=10 9 8",
                 "--set", "tensor.nnz=60", "--rank", "4",
                 "--out", str(out1)]) == 0
    rep = json.loads(out1.read_text())

    # feeding the embedded effective config back in reproduces the run
    sections = {}
    for flat_key, value in rep["config"].items():
        sec, key = flat_key.split(".", 1)
        sections.setdefault(sec, {})[key] = value
    ini = tmp_path / "replay.ini"
    ini.write_text(settings_to_ini(sections))
    out2 = tmp_path / "r2.json"
    assert main(["run", "--config", str(ini), "--out", str(out2)]) == 0
    assert out2.read_bytes() == out1.read_bytes()


def test_cli_config_file(tmp_path):
    ini = tmp_path / "conf.ini"
    ini.write_text("[tensor]\ndims = 8 8 8\nnnz = 25\n[fabric]\nrank = 2\n")
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(ini), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["workload"]["nnz"] == 25
    assert rep["workload"]["rank"] == 2


def test_cli_bad_trace_file(tmp_path):
    bad = tmp_path / "trace.txt"
    bad.write_text("1 elem 0 0\n")
    assert main(["run", "--trace-in", str(bad)]) == 2


def test_cli_trace_file_not_utf8(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(b"0 elem 0 0 \xff 16 0\n")
    assert main(["run", "--trace-in", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {trace}: not UTF-8 text (invalid start byte)\n"


def test_cli_config_file_not_utf8(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(b"[run]\nseed = \xff\n")
    assert main(["run", "--config", str(ini)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {ini}: ")
    assert len(err.splitlines()) == 1


def test_cli_failed_allocation_exits_2(monkeypatch, capsys):
    # a stand-in: the real --cp-rank 100000000 would ask for 47.7 GiB
    def cp_als(*args, **kwargs):
        raise MemoryError("Unable to allocate 47.7 GiB")
    monkeypatch.setattr(cli, "cp_als", cp_als)
    assert main(["cpd", "--set", "tensor.nnz=5", "--cp-rank", "100000000"]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 47.7 GiB\n"


def test_cli_long_quiet_stretches_finish(capsys):
    # a row access of 1.5M cycles outlasts the engine's base no-progress
    # limit, and a busy accumulator the functional run's base cycle guard
    assert main(["run", "--set", "tensor.nnz=5",
                 "--set", "dram.t_row_hit=1500000",
                 "--set", "dram.t_row_miss=1500000"]) == 0
    assert json.loads(capsys.readouterr().out)["total_cycles"] == 7_500_038
    assert main(["cpd", "--use-fabric", "--set", "tensor.nnz=20",
                 "--set", "fabric.type=type1",
                 "--set", "fabric.accumulate_cycles=2000", "--iters", "1"]) == 0


def test_cli_trace_with_a_long_gap_finishes(tmp_path, capsys):
    # the engine jumps from the first request's answer to the second
    # record, three times its base no-progress limit later
    trace = tmp_path / "gap.txt"
    trace.write_text("0 elem 0 0 0 16 0\n3000000 elem 0 0 64 16 1\n")
    assert main(["run", "--trace-in", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["total_cycles"] > 3_000_000


def _bad_trace_run(tmp_path, capsys, second_record):
    trace = tmp_path / "trace.txt"
    trace.write_text("# cycle kind lmb pe addr len tag\n"
                     "0 elem 0 0 0 16 0\n" + second_record + "\n")
    rc = main(["run", "--trace-in", str(trace)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, err


def test_cli_trace_unknown_kind(tmp_path, capsys):
    rc, err = _bad_trace_run(tmp_path, capsys, "1 bogus 0 0 64 16 1")
    assert rc == 2
    assert "line 3" in err and "unknown request kind 'bogus'" in err


def test_cli_trace_repeated_tag(tmp_path, capsys):
    rc, err = _bad_trace_run(tmp_path, capsys, "1 elem 0 1 64 16 0")
    assert rc == 2
    assert "line 3" in err and "repeated tag 0" in err


@pytest.mark.parametrize("nbytes", [0, -16])
def test_cli_trace_non_positive_length(tmp_path, capsys, nbytes):
    rc, err = _bad_trace_run(tmp_path, capsys, f"1 elem 0 0 64 {nbytes} 1")
    assert rc == 2
    assert "line 3" in err and f"request length {nbytes}" in err


@pytest.mark.parametrize("record,message", [
    ("1 elem 0 0 -64 16 1",
     "bytes -64 to -49 are outside the 31-bit address space"),
    ("1 elem 0 0 1099511627776 16 1", "outside the 31-bit address space"),
    ("1 row_d 0 0 2147483632 32 1", "outside the 31-bit address space"),
    ("1 elem -1 0 64 16 1", "block -1 is not one of the 1 configured"),
    ("1 elem 1 0 64 16 1", "block 1 is not one of the 1 configured"),
    ("-1 elem 0 0 64 16 1", "cycle -1 is negative"),
])
def test_cli_trace_record_out_of_range(tmp_path, capsys, record, message):
    rc, err = _bad_trace_run(tmp_path, capsys, record)
    assert rc == 2
    assert "trace.txt line 3" in err and message in err
