"""Sparse tensor plumbing and the MTTKRP / CP-ALS reference kernels."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmbsim import tensor as tensor_mod
from lmbsim.errors import ConfigurationError, DataError
from lmbsim.tensor import (CooTensor, FactorMatrix, GenSpec, cp_als,
                           gen_synthetic, mttkrp_mode, mttkrp_oracle)

from refmodel import densify


def make_tensor(dims, coords, vals):
    i, j, k = (np.array([c[axis] for c in coords], dtype=np.uint32)
               for axis in range(3))
    return CooTensor(dims, i, j, k, np.array(vals, dtype=np.float32))


def dense_mttkrp(tensor, d, c):
    # independent dense route: materialize and contract in float64
    full = densify(tensor)
    out = np.einsum("ijk,jr,kr->ir", full,
                    d.values.astype(np.float64), c.values.astype(np.float64))
    return out.astype(np.float32)


# --- frozen example, worked by hand -----------------------------------------
# A[0] = 2*D[0]*C[0] + 3*D[1]*C[1] = [10,24] + [63,96] = [73,120]
# A[1] = 4*D[1]*C[0]               = [60,96]

def test_oracle_hand_example():
    t = make_tensor((2, 2, 2), [(0, 0, 0), (0, 1, 1), (1, 1, 0)], [2.0, 3.0, 4.0])
    d = FactorMatrix(2, 2, np.array([[1, 2], [3, 4]], dtype=np.float32))
    c = FactorMatrix(2, 2, np.array([[5, 6], [7, 8]], dtype=np.float32))
    out = mttkrp_oracle(t, d, c)
    assert out.values.dtype == np.float32
    assert np.array_equal(out.values, np.array([[73, 120], [60, 96]],
                                               dtype=np.float32))


def test_oracle_empty_tensor():
    e = np.empty(0, dtype=np.uint32)
    t = CooTensor((3, 4, 5), e, e, e, np.empty(0, dtype=np.float32))
    out = mttkrp_oracle(t, FactorMatrix.random(4, 2, seed=0),
                        FactorMatrix.random(5, 2, seed=1))
    assert out.rows == 3 and out.rank == 2
    assert not out.values.any()


def test_oracle_rejects_extent_mismatch():
    t = make_tensor((2, 2, 2), [(0, 0, 0)], [1.0])
    d3 = FactorMatrix.random(3, 2, seed=0)
    c2 = FactorMatrix.random(2, 2, seed=0)
    with pytest.raises(ConfigurationError):
        mttkrp_oracle(t, d3, c2)
    with pytest.raises(ConfigurationError):
        mttkrp_oracle(t, c2, d3)
    with pytest.raises(ConfigurationError):
        mttkrp_oracle(t, c2, FactorMatrix.random(2, 3, seed=0))


# --- random agreement with the dense route ----------------------------------

coord_sets = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    min_size=1, max_size=24)


@settings(max_examples=60, deadline=None)
@given(coords=coord_sets, seed=st.integers(0, 2**16))
def test_oracle_matches_dense(coords, seed):
    rng = np.random.default_rng(seed)
    coords = sorted(coords)
    t = make_tensor((6, 6, 6), coords, rng.uniform(-2, 2, len(coords)))
    d = FactorMatrix.random(6, 3, seed=seed)
    c = FactorMatrix.random(6, 3, seed=seed + 1)
    got = mttkrp_oracle(t, d, c).values
    want = dense_mttkrp(t, d, c)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(coords=coord_sets, seed=st.integers(0, 2**16))
def test_oracle_scales_linearly(coords, seed):
    # scaling values by a power of two commutes exactly with f32 rounding
    rng = np.random.default_rng(seed)
    coords = sorted(coords)
    vals = rng.uniform(-2, 2, len(coords))
    t1 = make_tensor((6, 6, 6), coords, vals)
    t2 = make_tensor((6, 6, 6), coords, 4.0 * np.asarray(vals))
    d = FactorMatrix.random(6, 2, seed=seed)
    c = FactorMatrix.random(6, 2, seed=seed + 1)
    assert np.array_equal(mttkrp_oracle(t2, d, c).values,
                          4.0 * mttkrp_oracle(t1, d, c).values)


f32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("rank", [1, 2, 5])
@settings(max_examples=25, deadline=None)
@given(coords=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                st.integers(0, 3)), min_size=1, max_size=20),
       data=st.data())
def test_oracle_bytes_equal_the_three_array_product(rank, coords, data):
    # the oracle builds (D[j] * val) * C[k] in place; the three-array form
    # (val * D[j]) * C[k] it replaced must give the same bytes
    coords = sorted(coords)
    vals = data.draw(st.lists(f32s, min_size=len(coords),
                              max_size=len(coords)))
    t = make_tensor((4, 4, 4), coords, vals)
    d, c = (FactorMatrix(4, rank, np.array(
        data.draw(st.lists(f32s, min_size=4 * rank, max_size=4 * rank)),
        dtype=np.float32).reshape(4, rank)) for _ in range(2))
    want = np.zeros((4, rank), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(want, t.i.astype(np.int64),
                  t.vals.astype(np.float64)[:, None]
                  * d.values[t.j].astype(np.float64)
                  * c.values[t.k].astype(np.float64))
        got = mttkrp_oracle(t, d, c).values
        want = want.astype(np.float32)
    assert got.tobytes() == want.tobytes()


def test_mode_permutations_match_dense():
    rng = np.random.default_rng(5)
    coords = sorted({(rng.integers(0, 4), rng.integers(0, 5), rng.integers(0, 6))
                     for _ in range(30)})
    t = make_tensor((4, 5, 6), coords, rng.uniform(-1, 1, len(coords)))
    full = densify(t)
    a = FactorMatrix.random(4, 3, seed=1)
    d = FactorMatrix.random(5, 3, seed=2)
    c = FactorMatrix.random(6, 3, seed=3)
    af, df, cf = (m.values.astype(np.float64) for m in (a, d, c))
    want1 = np.einsum("ijk,ir,kr->jr", full, af, cf).astype(np.float32)
    want2 = np.einsum("ijk,ir,jr->kr", full, af, df).astype(np.float32)
    got1 = mttkrp_mode(t, 1, a, c).values
    got2 = mttkrp_mode(t, 2, a, d).values
    assert np.allclose(got1, want1, rtol=1e-5, atol=1e-6)
    assert np.allclose(got2, want2, rtol=1e-5, atol=1e-6)
    with pytest.raises(ConfigurationError):
        mttkrp_mode(t, 3, d, c)


# --- construction and validation ---------------------------------------------

def test_rejects_out_of_range_coordinate():
    with pytest.raises(DataError, match="element 1"):
        make_tensor((2, 2, 2), [(0, 0, 0), (0, 2, 0)], [1.0, 1.0])


def test_rejects_duplicate_coordinate():
    with pytest.raises(DataError, match="duplicate"):
        make_tensor((2, 2, 2), [(1, 1, 0), (0, 0, 0), (1, 1, 0)], [1, 2, 3])


def test_rejects_length_mismatch():
    z = np.zeros(2, dtype=np.uint32)
    with pytest.raises(ConfigurationError):
        CooTensor((2, 2, 2), z, z, z, np.zeros(3, dtype=np.float32))


def test_rejects_negative_dim():
    e = np.empty(0, dtype=np.uint32)
    with pytest.raises(ConfigurationError):
        CooTensor((2, -1, 2), e, e, e, np.empty(0, dtype=np.float32))


def test_densify_volume_guard():
    t = make_tensor((300, 300, 300), [(0, 0, 0)], [1.0])
    with pytest.raises(ConfigurationError):
        densify(t)


@settings(max_examples=50, deadline=None)
@given(coords=coord_sets, seed=st.integers(0, 2**16))
def test_sorted_mode0_properties(coords, seed):
    rng = np.random.default_rng(seed)
    coords = list(coords)
    rng.shuffle(coords)
    t = make_tensor((6, 6, 6), coords, rng.uniform(-1, 1, len(coords)))
    s = t.sorted_mode0()
    assert s.mode_sorted()
    assert s.nnz == t.nnz
    got = sorted(zip(s.i.tolist(), s.j.tolist(), s.k.tolist(), s.vals.tolist()))
    want = sorted(zip(t.i.tolist(), t.j.tolist(), t.k.tolist(), t.vals.tolist()))
    assert got == want
    # sorting never changes the result beyond accumulation-order noise
    d = FactorMatrix.random(6, 2, seed=seed)
    c = FactorMatrix.random(6, 2, seed=seed + 1)
    assert np.allclose(mttkrp_oracle(t, d, c).values,
                       mttkrp_oracle(s, d, c).values, rtol=1e-5, atol=1e-6)


def test_mode_sorted_flags():
    t = make_tensor((3, 3, 3), [(0, 1, 2), (1, 0, 0)], [1, 2])
    assert t.mode_sorted()
    u = make_tensor((3, 3, 3), [(1, 0, 0), (0, 1, 2)], [1, 2])
    assert not u.mode_sorted()


# --- synthetic generator ------------------------------------------------------

def test_gen_exact_count_no_dups_sorted():
    t = gen_synthetic(GenSpec((40, 50, 60), 777, seed=3))
    assert t.nnz == 777
    assert t.mode_sorted()
    codes = (t.i.astype(np.int64) * 50 * 60 + t.j.astype(np.int64) * 60
             + t.k.astype(np.int64))
    assert len(np.unique(codes)) == 777
    assert t.i.max() < 40 and t.j.max() < 50 and t.k.max() < 60
    assert np.all((t.vals >= 0) & (t.vals < 1))


def test_gen_deterministic_and_seed_sensitive():
    spec = GenSpec((30, 30, 30), 200, seed=9)
    assert gen_synthetic(spec) == gen_synthetic(spec)
    assert gen_synthetic(spec) != gen_synthetic(GenSpec((30, 30, 30), 200, seed=10))


def test_gen_mode_clustered_band():
    t = gen_synthetic(GenSpec((64, 32, 32), 500, seed=1,
                              distribution="mode-clustered"))
    assert t.nnz == 500
    assert t.i.max() < 8  # ceil(64/8)


def test_gen_rejects_impossible_counts():
    with pytest.raises(ConfigurationError):
        gen_synthetic(GenSpec((2, 2, 2), 9, seed=0))
    with pytest.raises(ConfigurationError):
        gen_synthetic(GenSpec((8, 2, 2), 17, seed=0,
                              distribution="mode-clustered"))


def test_gen_empty():
    t = gen_synthetic(GenSpec((5, 5, 5), 0, seed=0))
    assert t.nnz == 0 and t.dims == (5, 5, 5)


# --- CP-ALS -------------------------------------------------------------------

def rank1_tensor(dims, seed=0):
    rng = np.random.default_rng(seed)
    u = [rng.uniform(0.5, 1.5, d) for d in dims]
    full = np.einsum("i,j,k->ijk", *u)
    i, j, k = np.meshgrid(*(np.arange(d) for d in dims), indexing="ij")
    return CooTensor(dims, i.ravel(), j.ravel(), k.ravel(),
                     full.ravel().astype(np.float32))


def test_cp_als_recovers_rank1():
    t = rank1_tensor((5, 6, 7), seed=4)
    res = cp_als(t, rank=1, max_iters=25, tol=0.0, seed=0)
    assert res.fit >= 0.999
    assert res.mttkrp_calls == 3 * res.iterations


def test_cp_als_three_mttkrps_per_iteration():
    t = gen_synthetic(GenSpec((6, 7, 8), 40, seed=2))
    res = cp_als(t, rank=2, max_iters=4, tol=0.0, seed=1)
    assert res.iterations == 4
    assert res.mttkrp_calls == 12
    assert len(res.fits) == 4


def test_cp_als_zero_iters_returns_seeded_factors():
    t = gen_synthetic(GenSpec((4, 4, 4), 10, seed=0))
    res = cp_als(t, rank=2, max_iters=0, seed=7)
    assert res.iterations == 0 and res.mttkrp_calls == 0
    assert res.fit == 0.0
    assert res.a.rows == 4 and res.d.rows == 4 and res.c.rows == 4


def test_cp_als_warns_on_overlarge_rank():
    t = gen_synthetic(GenSpec((2, 6, 6), 8, seed=0))
    res = cp_als(t, rank=3, max_iters=1, seed=0)
    assert res.warnings == 1


def test_cp_als_tolerance_stops_early():
    t = rank1_tensor((4, 4, 4), seed=1)
    res = cp_als(t, rank=1, max_iters=50, tol=0.5, seed=0)
    assert res.iterations < 50


def test_cp_als_deterministic():
    t = gen_synthetic(GenSpec((5, 5, 5), 30, seed=3))
    r1 = cp_als(t, rank=2, max_iters=5, tol=0.0, seed=11)
    r2 = cp_als(t, rank=2, max_iters=5, tol=0.0, seed=11)
    assert r1.fits == r2.fits
    assert np.array_equal(r1.a.values, r2.a.values)
    assert np.array_equal(r1.lam, r2.lam)


def test_cp_als_rejects_bad_rank():
    t = gen_synthetic(GenSpec((3, 3, 3), 5, seed=0))
    with pytest.raises(ConfigurationError):
        cp_als(t, rank=0)


def test_cp_als_rejects_negative_iters():
    t = gen_synthetic(GenSpec((3, 3, 3), 5, seed=0))
    with pytest.raises(ConfigurationError, match="max_iters"):
        cp_als(t, rank=2, max_iters=-1)


@pytest.mark.parametrize("vals", [[], [0.0, 0.0]])
def test_cp_als_rejects_an_all_zero_tensor_before_its_first_iteration(vals):
    coords = [(0, 1, 2), (2, 0, 1)][:len(vals)]
    t = make_tensor((3, 3, 3), coords, vals)
    calls = []

    def kernel(tensor, d, c):
        calls.append(1)
        return mttkrp_oracle(tensor, d, c)

    with pytest.raises(DataError, match="all-zero tensor"):
        cp_als(t, rank=2, max_iters=3, mttkrp=kernel)
    assert calls == []
    res = cp_als(t, rank=2, max_iters=0, seed=7)   # the seeded factors
    assert res.iterations == 0 and res.a.rows == 3


def test_factor_matrix_validation():
    with pytest.raises(ConfigurationError):
        FactorMatrix(2, 2, np.zeros((3, 2), dtype=np.float32))
    m = FactorMatrix.random(4, 3, seed=0)
    assert m.values.shape == (4, 3) and m.values.dtype == np.float32


# --- a random factor draws its rows as they are read -------------------------

@st.composite
def factor_reads(draw):
    """(rows, rank, seed, piece, takes): index arrays that step just under
    and just over the widest gap a run draws through, and span more rows
    than one draw of at most `piece` values holds."""
    rank = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 2_000) | st.integers(2_000, 100_000))
    piece = draw(st.sampled_from((tensor_mod._PIECE, 1_000, 64)))
    gap = tensor_mod._RUN_GAP // rank + 1   # the widest step a run draws through
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    takes = []
    for n in range(draw(st.integers(1, 3))):
        parts = []
        for _ in range(draw(st.integers(n == 0, 3))):   # later takes may be empty
            start = draw(st.integers(0, rows - 1))
            if draw(st.booleans()):
                span = draw(st.integers(1, 3 * max(1, piece // rank)))
                parts.append(np.arange(start, min(rows, start + span)))
            else:
                steps = draw(st.lists(st.sampled_from((1, gap, gap + 1))
                                      | st.integers(1, rows), min_size=1, max_size=30))
                walk = start + np.cumsum([0, *steps])
                parts.append(walk[walk < rows])
        idx = np.concatenate([np.empty(0, dtype=np.int64), *parts])
        idx = rng.permutation(np.repeat(idx, rng.integers(1, 3, idx.size)))
        takes.append(idx.astype(np.uint32))
    return rows, rank, draw(st.integers(0, 2**16)), piece, takes


@settings(max_examples=100, deadline=None)
@given(factor_reads())
def test_random_factor_rows_equal_the_dense_draw(case):
    rows, rank, seed, piece, takes = case
    want = np.random.default_rng(seed).random((rows, rank), dtype=np.float32)
    f = FactorMatrix.random(rows, rank, seed)
    with mock.patch.object(tensor_mod, "_PIECE", piece):
        for idx in takes:
            got = f.take(idx)
            assert got.dtype == np.float32 and got.shape == (idx.size, rank)
            assert np.array_equal(got, want[idx])
    assert np.array_equal(f.values, want)
    f.values[takes[0]] = -1.0    # an edit in place shows in later reads
    assert (f.take(takes[0]) == -1.0).all()


def test_random_factor_draws_only_the_rows_it_reads():
    idx = np.random.default_rng(0).integers(0, 1 << 20, 800).astype(np.uint32)
    tracemalloc.start()
    try:
        f = FactorMatrix.random(1 << 20, 32, seed=3)   # 128 MB drawn whole
        f.take(idx)
        f.take(idx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert f._values is None
