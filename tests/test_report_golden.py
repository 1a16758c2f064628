"""Whole simulation reports pinned against a golden file.

Every run below is small (a few hundred nonzeros) and covers the four memory
modes on two systems: a single type1 block with tight queues, so that every
stall counter fires, and four type2 blocks at the default sizes.  A replay of
a recorded trace is pinned too.  The golden file holds total_cycles, every
block, DRAM and router counter, and a sha1 of the whole JSON report, so any
change to simulated timing, however small, fails here.

A deliberate timing change regenerates the file with

    PYTHONPATH=src python tests/test_report_golden.py --write

and must say so in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import pytest

from lmbsim.dram import DramConfig
from lmbsim.engine import (SystemConfig, replay_trace, report_to_json,
                           simulate)
from lmbsim.fabric import FabricConfig, RequestTrace
from lmbsim.memsys import (MODES, CacheConfig, DmaConfig, LmbConfig,
                           MshrConfig, RrshConfig)
from lmbsim.tensor import FactorMatrix, GenSpec, gen_synthetic

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reports.json")

RANK = 8


def _tight_type1(mode):
    # small miss slots, MSHRs, DMA staging and bank queues: HOL blocking,
    # miss-slot, credit and grant stalls all occur
    lmb = LmbConfig(mode=mode,
                    cache=CacheConfig(num_lines=256, miss_slots=2),
                    rrsh=RrshConfig(entries=64, ways=2, pending_cap=16),
                    dma=DmaConfig(buffers=1, buffer_bytes=64, desc_slots=2),
                    mshr=MshrConfig(entries=2))
    return SystemConfig(
        fabric=FabricConfig(fabric_type="type1", pe_count=4, rank=RANK),
        lmb=lmb, num_lmbs=1,
        dram=DramConfig(num_banks=4, queue_depth=2))


def _default_type2(mode):
    return SystemConfig(
        fabric=FabricConfig(fabric_type="type2", pe_count=8, rank=RANK),
        lmb=LmbConfig(mode=mode), num_lmbs=4, dram=DramConfig())


SYSTEMS = {"type1-tight": _tight_type1, "type2-4blocks": _default_type2}


def _case():
    t = gen_synthetic(GenSpec(dims=(40, 30, 20), nnz=300, seed=11)).sorted_mode0()
    d = FactorMatrix.random(30, RANK, seed=12)
    c = FactorMatrix.random(20, RANK, seed=13)
    return t, d, c


def _summary(report):
    blocks = {k: v for k, v in report["blocks"].items()
              if k not in ("count", "mode", "per_block")}
    dram = {k: v for k, v in report["dram"].items() if k != "wait_histogram"}
    return {
        "total_cycles": report["total_cycles"],
        "blocks": blocks,
        "dram": dram,
        "router": report["router"],
        "sha1": hashlib.sha1(report_to_json(report).encode()).hexdigest(),
    }


def _runs():
    """Run name -> report summary for every pinned run."""
    t, d, c = _case()
    out = {}
    records = None
    for sys_name, make in SYSTEMS.items():
        for mode in MODES:
            trace = None
            if sys_name == "type2-4blocks" and mode == "proposed":
                trace = RequestTrace()
            _, rep = simulate(t, d, c, make(mode), verify=True, trace=trace)
            out[f"{sys_name}/{mode}"] = _summary(rep)
            if trace is not None:
                records = trace.records
    rep = replay_trace(records, _default_type2("dma-only"))
    out["replay/type2-4blocks/dma-only"] = _summary(rep)
    return out


@pytest.fixture(scope="module")
def runs():
    return _runs()


def _load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _golden_names():
    # the file is absent only while --write creates it
    return sorted(_load_golden()) if os.path.exists(GOLDEN_PATH) else []


@pytest.fixture(scope="module")
def golden():
    return _load_golden()


def test_golden_covers_every_run(runs, golden):
    assert sorted(runs) == sorted(golden)


def test_golden_exercises_both_stall_counters(golden):
    assert golden["type1-tight/proposed"]["dram"]["hol_block_cycles"] > 0
    assert golden["type1-tight/proposed"]["blocks"]["miss_slot_stall_cycles"] > 0
    assert golden["type2-4blocks/cache-only"]["blocks"]["miss_slot_stall_cycles"] > 0
    assert golden["type2-4blocks/dma-only"]["dram"]["hol_block_cycles"] > 0


@pytest.mark.parametrize("name", _golden_names())
def test_report_matches_golden(runs, golden, name):
    got, want = runs[name], golden[name]
    # counters first, so a mismatch names the counter that moved
    for key in ("total_cycles", "blocks", "dram", "router"):
        assert got[key] == want[key], key
    assert got["sha1"] == want["sha1"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(_runs(), fh, indent=1, sort_keys=True)
        fh.write("\n")
