"""Differential check: about 150 small timed runs pinned by sha1.

A fixed-seed generator draws small systems covering the four modes, both
fabric types and 1 to 4 blocks, with bank queues, miss slots, MSHRs, DMA
staging and descriptor slots down to 1 and coalescing tables of 1 to 4
entries (which force the RRSH bypass).  Each case is simulated with a
request trace, and its digest is the sha1 of the `report_to_json` output,
the output matrix bytes, the trace records and the report of a replay of
that trace in another mode.  A second set of `run_functional` cases, some
with factors holding 0.0, -0.0 and negatives, pins output bytes and traces.

The file pins simulated behaviour only, so a change meant to be faster must
leave every digest as it is.  A deliberate timing change regenerates it with

    PYTHONPATH=src python tests/test_equivalence_digest.py --write

and must say so, and why, in CHANGES.md.
"""

import hashlib
import json
import os
import random
import sys

import numpy as np
import pytest

from lmbsim.dram import DramConfig
from lmbsim.engine import (SystemConfig, replay_trace, report_to_json,
                           simulate)
from lmbsim.fabric import FabricConfig, RequestTrace, run_functional
from lmbsim.memsys import (MODES, CacheConfig, DmaConfig, LmbConfig,
                           MshrConfig, RrshConfig, TempBufferConfig)
from lmbsim.tensor import FactorMatrix, GenSpec, gen_synthetic

DIGEST_PATH = os.path.join(os.path.dirname(__file__), "equivalence_digests.json")

TIMED_CASES = 150
FUNCTIONAL_CASES = 100
SEED = 20211


def _tensor(rng):
    dims = (rng.randint(2, 24), rng.randint(2, 24), rng.randint(2, 24))
    dist = rng.choice(("uniform", "mode-clustered"))
    rows = -(-dims[0] // 8) if dist == "mode-clustered" else dims[0]
    nnz = min(rng.randint(1, 90), rows * dims[1] * dims[2])
    return gen_synthetic(GenSpec(dims=dims, nnz=nnz, seed=rng.randint(0, 9999),
                                 distribution=dist))


def _fabric(rng, rank):
    return FabricConfig(fabric_type=rng.choice(("type1", "type2")),
                        pe_count=rng.randint(1, 8),
                        max_outstanding=rng.choice((1, 2, 4, 16)),
                        accumulate_cycles=rng.randint(1, 3), rank=rank)


def _system(rng, fabric, mode, num_lmbs):
    rrsh_entries = rng.choice((1, 2, 4, 64, 4096))
    rrsh_ways = rng.choice([w for w in (1, 2, 4) if rrsh_entries % w == 0
                            and (rrsh_entries // w) & (rrsh_entries // w - 1) == 0])
    lmb = LmbConfig(
        mode=mode,
        cache=CacheConfig(num_lines=rng.choice((16, 256, 8192)),
                          assoc=rng.choice((1, 2)),
                          pipeline_depth=rng.randint(1, 4),
                          miss_slots=rng.choice((1, 2, 16))),
        rrsh=RrshConfig(entries=rrsh_entries, ways=rrsh_ways,
                        pending_cap=rng.choice((1, 2, 64))),
        tempbuf=TempBufferConfig(entries=rng.choice((1, 8))),
        dma=DmaConfig(buffers=rng.choice((1, 4)),
                      buffer_bytes=rng.choice((64, 256)),
                      desc_slots=rng.choice((1, 2, 8))),
        mshr=MshrConfig(entries=rng.choice((1, 2, 8))))
    dram = DramConfig(num_banks=rng.choice((1, 2, 4, 16)),
                      row_bytes=rng.choice((256, 4096)),
                      t_row_hit=rng.randint(1, 20),
                      t_row_miss=rng.randint(20, 45),
                      queue_depth=rng.choice((1, 2, 8)))
    return SystemConfig(fabric=fabric, lmb=lmb, num_lmbs=num_lmbs, dram=dram)


def _sha1(*parts):
    h = hashlib.sha1()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def timed_inputs(rng, mode):
    """A small timed run in `mode`: (tensor, D, C, system config)."""
    t = _tensor(rng)
    rank = rng.choice((2, 4, 8, 32))
    d = FactorMatrix.random(t.dims[1], rank, seed=rng.randint(0, 9999))
    c = FactorMatrix.random(t.dims[2], rank, seed=rng.randint(0, 9999))
    return t, d, c, _system(rng, _fabric(rng, rank), mode, rng.randint(1, 4))


def replay_system(rng, syscfg):
    """The system a trace of `syscfg` replays in: another mode, and the same
    number of blocks, since the trace names its blocks."""
    other = rng.choice([m for m in MODES if m != syscfg.lmb.mode])
    return _system(rng, syscfg.fabric, other, syscfg.num_lmbs)


def _timed_case(i):
    rng = random.Random(SEED * 1000 + i)
    t, d, c, syscfg = timed_inputs(rng, MODES[i % len(MODES)])
    trace = RequestTrace()
    out, rep = simulate(t, d, c, syscfg, verify=True, trace=trace)
    replay = replay_trace(trace.records, replay_system(rng, syscfg))
    return _sha1(report_to_json(rep), out.values.tobytes(), trace.records,
                 report_to_json(replay))


def _signed_factor(rng, rows, rank, seed):
    f = FactorMatrix.random(rows, rank, seed=seed)
    if rng.random() < 0.5:
        f.values[:, 0] = -0.0
        f.values[::2, -1] *= -1.0
        f.values[1::3, rank // 2] = 0.0
    return f


def _functional_case(i):
    rng = random.Random(SEED * 1000 + TIMED_CASES + i)
    t = _tensor(rng)
    rank = rng.choice((1, 2, 4, 8, 32))
    d = _signed_factor(rng, t.dims[1], rank, rng.randint(0, 9999))
    c = _signed_factor(rng, t.dims[2], rank, rng.randint(0, 9999))
    trace = RequestTrace()
    out = run_functional(t, d, c, _fabric(rng, rank), trace=trace)
    return _sha1(np.ascontiguousarray(out.values).tobytes(), trace.records)


def _digests():
    out = {f"timed/{i:03d}": _timed_case(i) for i in range(TIMED_CASES)}
    out.update({f"functional/{i:03d}": _functional_case(i)
                for i in range(FUNCTIONAL_CASES)})
    return out


@pytest.fixture(scope="module")
def pinned():
    with open(DIGEST_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_digest_file_covers_every_case(pinned):
    assert len(pinned) == TIMED_CASES + FUNCTIONAL_CASES


@pytest.mark.parametrize("i", range(TIMED_CASES))
def test_timed_run_matches_digest(pinned, i):
    assert _timed_case(i) == pinned[f"timed/{i:03d}"]


@pytest.mark.parametrize("i", range(FUNCTIONAL_CASES))
def test_functional_run_matches_digest(pinned, i):
    assert _functional_case(i) == pinned[f"functional/{i:03d}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with open(DIGEST_PATH, "w", encoding="utf-8") as fh:
        json.dump(_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
