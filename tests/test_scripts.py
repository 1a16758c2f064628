"""The experiment scripts under scripts/, run in process on small inputs."""

import importlib.util
import json
import os

import pytest

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


def test_bench_pairs_summary_on_fixed_samples():
    pairs = _load("bench_pairs")
    metrics = [{"name": "dma-only_s", "unit": "s", "better": "lower",
                "bound": 0.25},
               {"name": "sim_speedup", "unit": "x", "better": "higher",
                "bound": 0.25}]
    parent = {"dma-only_s": [1.0, 2.0, 3.0, 4.0, 5.0],
              "sim_speedup": [2.0, 2.0, 2.0, 2.0, 2.0]}
    change = {"dma-only_s": [0.5, 2.0, 3.5, 3.0, 4.0],
              "sim_speedup": [2.0, 2.0, 2.5, 1.5, 2.0]}
    time_row, speedup_row = pairs.summarize(metrics, parent, change)
    assert time_row["parent"] == (2.0, 3.0, 4.0)
    assert time_row["change"] == (2.0, 3.0, 3.5)
    assert time_row["ratio"] == 1.0 and time_row["parent_iqr"] == 2.0
    # lower is better: pairs 1, 4 and 5 won, pair 2 tied, pair 3 lost
    assert (time_row["wins"], time_row["pairs"]) == (3, 5)
    # higher is better: one win, one loss, three ties
    assert speedup_row["wins"] == 1 and speedup_row["ratio"] == 1.0
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    lines = pairs.format_rows([time_row, speedup_row])
    assert lines[1].split()[0] == "dma-only_s"
    assert lines[1].split()[-2:] == ["3/5", "unresolved"]
    assert lines[2].split()[-2:] == ["1/5", "same"]


@pytest.mark.parametrize("better, parent, change, want", [
    # 9 of 10 pairs won, medians 1.0 apart against a parent IQR of 0.1
    ("lower", [10.0, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.0, 10.1, 9.9],
     [9.0] * 9 + [10.5], "better"),
    # the same gap with 8 of 10 pairs won
    ("lower", [10.0, 10.1, 9.9, 10.0, 10.1, 9.9, 10.0, 10.0, 10.1, 9.9],
     [9.0] * 8 + [10.5] * 2, "same"),
    # behind by more than the bound, in each direction
    ("lower", [10.0, 10.0, 10.1], [12.6, 12.6, 12.6], "worse"),
    ("higher", [2.0, 2.0, 2.0], [1.4, 1.5, 1.4], "worse"),
    ("higher", [2.0, 2.0, 2.0], [1.6, 1.6, 1.6], "same"),
    # a parent IQR wider than bound x median leaves it open ...
    ("lower", [1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 2.5, 3.0, 3.5, 4.5],
     "unresolved"),
    # ... unless every change run beats every parent run
    ("lower", [1.0, 1.1, 1.2, 5.0, 9.0], [0.9] * 5, "same"),
])
def test_bench_pairs_verdicts_on_fixed_samples(better, parent, change, want):
    pairs = _load("bench_pairs")
    metrics = [{"name": "m", "unit": "s", "better": better, "bound": 0.25}]
    (row,) = pairs.summarize(metrics, {"m": parent}, {"m": change})
    assert row["verdict"] == want


def test_bench_pairs_refuses_a_run_that_is_not_correct(monkeypatch):
    pairs = _load("bench_pairs")
    last = {"correct": True, "failed": 0,
            "metrics": {"wall_s": {"value": 1.5}}}

    class Done:
        returncode = 0
        stderr = ""

        @property
        def stdout(self):
            return "# header\n" + json.dumps(last) + "\n"

    monkeypatch.setattr(pairs.subprocess, "run", lambda *a, **k: Done())
    assert pairs.run_once(".", "grid-clustered", 0, 1) == {"wall_s": 1.5}
    for bad in ({"correct": False, "failed": 0},
                {"correct": True, "failed": 2}):
        last.update(bad)
        with pytest.raises(SystemExit, match="not correct"):
            pairs.run_once(".", "grid-clustered", 0, 1)


@pytest.mark.parametrize("change_wall_s, verdict, code", [
    (1.0, "same", 0),
    (1.3, "worse", 1),  # behind by 30% against a bound of 25%
])
def test_bench_pairs_exits_1_when_a_metric_is_worse(monkeypatch, capsys,
                                                    change_wall_s, verdict,
                                                    code):
    pairs = _load("bench_pairs")
    with open(os.path.join(pairs.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]

    def run_once(checkout, workload, seed, seconds):
        values = dict.fromkeys(names, 1.0)
        if checkout == "change":
            values["wall_s"] = change_wall_s
        return values

    monkeypatch.setattr(pairs, "run_once", run_once)
    assert pairs.main(["parent", "change", "--workload", "cpd-fabric",
                       "--pairs", "3"]) == code
    verdicts = {f[0]: f[-1] for f in (line.split() for line in
                                      capsys.readouterr().out.splitlines())
                if f[0] in names}
    assert verdicts == {name: verdict if name == "wall_s" else "same"
                        for name in names}
