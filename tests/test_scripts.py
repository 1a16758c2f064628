"""The experiment scripts under scripts/, run in process on small inputs."""

import importlib.util
import os

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_speedup_sweep_quick_rows_and_geometric_means(capsys):
    sweep = _load("run_speedup_sweep")
    assert sweep.main(["--quick", "--tables", "table2-config-a",
                       "--workloads", "synth01-mini"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # config workload mode cycles cyc/elem speedup published bus-eff
    rows = {f[2]: f for f in (line.split() for line in lines)
            if f and f[0] == "table2-config-a"}
    assert list(rows) == ["proposed", "dma-only", "cache-only", "ip-only"]
    base = int(rows["ip-only"][3])
    for mode, f in rows.items():
        assert f[1] == "synth01-mini"
        assert float(f[5]) == round(base / int(f[3]), 2)
    # one run per mode, so each geometric mean is that run's speedup
    block = lines[lines.index("geometric-mean speedup over all runs "
                              "(published numbers are the same aggregate):")
                  + 1:]
    gmeans = {f[0]: f[1] for f in (line.split() for line in block)}
    assert gmeans == {mode: f[5] for mode, f in rows.items()}


def test_coalescing_demo_smoke(capsys):
    demo = _load("coalescing_demo")
    assert demo.main(["--lines", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "800 element reads over 50 shared lines (4 PEs)"
    rows = {f[0]: [int(x) for x in f[1:]]
            for f in (line.split() for line in lines[3:])}
    assert list(rows) == ["proposed", "cache-only"]
    # columns: lookups, coalesced, tempbuf, fetches, cycles.  The proposed
    # block fetches each line once and looks it up far less often than the
    # conventional cache
    assert rows["proposed"][3] == 50
    assert rows["proposed"][0] < rows["cache-only"][0]
