"""Sparse tensor data model and functional kernels.

A third-order tensor is stored in coordinate (COO) form: parallel arrays of
(i, j, k) coordinates plus a value array.  Elements are 16 bytes on the wire
(three u32 coordinates and one f32 value), which is the unit the memory-system
models move around.  The kernels here are the functional ground truth: the
MTTKRP oracle accumulates in element order with 64-bit intermediates, and every
simulated configuration is checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, NumericalError

ELEMENT_BYTES = 16  # u32 i, u32 j, u32 k, f32 val
VALUE_BYTES = 4

# Hard cap on I*J*K for the synthetic generator's linear-index sampling.
_MAX_GEN_VOLUME = 1 << 62


class CooTensor:
    """Sparse third-order tensor in coordinate form.

    Coordinates are stored as uint32 arrays and values as float32, mirroring
    the 16-byte packed element layout.  `dims` may exceed what the element
    count covers; every coordinate must lie inside `dims`.  Duplicate
    coordinates are rejected.
    """

    def __init__(self, dims, i, j, k, vals, check=True):
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        self.i = np.ascontiguousarray(i, dtype=np.uint32)
        self.j = np.ascontiguousarray(j, dtype=np.uint32)
        self.k = np.ascontiguousarray(k, dtype=np.uint32)
        self.vals = np.ascontiguousarray(vals, dtype=np.float32)
        if not (len(self.i) == len(self.j) == len(self.k) == len(self.vals)):
            raise ConfigurationError("coordinate and value arrays differ in length")
        if check:
            self._validate()

    def _validate(self):
        for d in self.dims:
            if d < 0:
                raise ConfigurationError(f"negative dimension in {self.dims}")
            if d >= 1 << 32:
                raise ConfigurationError(f"dimension {d} exceeds u32 coordinate range")
        if self.nnz == 0:
            return
        for axis, arr, ext in (("i", self.i, self.dims[0]),
                               ("j", self.j, self.dims[1]),
                               ("k", self.k, self.dims[2])):
            bad = np.nonzero(arr >= ext)[0]
            if bad.size:
                z = int(bad[0])
                raise DataError(
                    f"element {z}: coordinate {axis}={int(arr[z])} outside extent {ext}")
        order = np.lexsort((self.k, self.j, self.i))
        si, sj, sk = self.i[order], self.j[order], self.k[order]
        dup = (si[1:] == si[:-1]) & (sj[1:] == sj[:-1]) & (sk[1:] == sk[:-1])
        if dup.any():
            z = int(order[int(np.nonzero(dup)[0][0]) + 1])
            raise DataError(f"duplicate coordinate at element {z}: "
                            f"({int(self.i[z])}, {int(self.j[z])}, {int(self.k[z])})")

    @property
    def nnz(self):
        return len(self.vals)

    def mode_sorted(self):
        """True when elements are sorted ascending by (i, j, k)."""
        if self.nnz <= 1:
            return True
        i, j, k = self.i, self.j, self.k
        ok = ((i[1:] > i[:-1])
              | ((i[1:] == i[:-1])
                 & ((j[1:] > j[:-1])
                    | ((j[1:] == j[:-1]) & (k[1:] >= k[:-1])))))
        return bool(np.all(ok))

    def sorted_mode0(self):
        """Return a copy sorted ascending by (i, j, k)."""
        order = np.lexsort((self.k, self.j, self.i))
        return CooTensor(self.dims, self.i[order], self.j[order], self.k[order],
                         self.vals[order], check=False)

    def __eq__(self, other):
        if not isinstance(other, CooTensor):
            return NotImplemented
        return (self.dims == other.dims
                and np.array_equal(self.i, other.i)
                and np.array_equal(self.j, other.j)
                and np.array_equal(self.k, other.k)
                and np.array_equal(self.vals, other.vals))

    def __repr__(self):
        return f"CooTensor(dims={self.dims}, nnz={self.nnz})"


# A random factor draws the rows it lacks in runs: one PCG64 advance, then one
# contiguous draw.  A run draws through a gap of at most _RUN_GAP values
# rather than advance over it (the calls a new run makes cost about as much
# as drawing that many), and draws at most _PIECE values at a time.
_RUN_GAP = 2048   # 1024 64-bit outputs
_PIECE = 1 << 19  # 2 MB of float32


class FactorMatrix:
    """Dense row-major factor matrix; rows are the fibers the fabric fetches.

    `take(idx)` gathers rows, as `values[idx]` does.  A `random` matrix draws
    a row only when `take` first reads it; reading `values` draws the whole
    matrix, after which `take` reads from it.
    """

    def __init__(self, rows, rank, values):
        self.rows = rows
        self.rank = rank
        self._values = np.ascontiguousarray(values, dtype=np.float32)
        if self._values.shape != (rows, rank):
            raise ConfigurationError(
                f"factor matrix shape {self._values.shape} != ({rows}, {rank})")

    @classmethod
    def random(cls, rows, rank, seed):
        """The matrix `default_rng(seed).random((rows, rank), dtype=float32)`,
        drawn row by row as `take` reads it."""
        m = cls.__new__(cls)
        m.rows = rows
        m.rank = rank
        m._values = None
        m._seed = np.random.SeedSequence(seed)
        m._slot = np.zeros(rows, dtype=np.int32)  # row -> row of _drawn; 0: not drawn
        # row 0 stands for "not drawn" and takes no memory
        m._drawn = np.broadcast_to(np.float32(0), (1, rank))
        return m

    @property
    def values(self):
        """The (rows, rank) float32 array, C-order; a random matrix draws it
        whole on first read."""
        if self._values is None:
            self._values = np.random.Generator(np.random.PCG64(self._seed)).random(
                (self.rows, self.rank), dtype=np.float32)
            self._slot = self._drawn = None
        return self._values

    def take(self, idx):
        """Rows `idx`, as `values[idx]`."""
        if self._values is not None:
            return self._values[idx]
        slots = self._slot[idx]
        if not slots.all():
            missing = np.zeros(self.rows, dtype=bool)
            missing[idx[slots == 0]] = True
            self._draw(np.flatnonzero(missing))
            slots = self._slot[idx]
        return self._drawn[slots]

    def _draw(self, rows):
        """Draw the sorted, distinct `rows`.  Value (r, c) is the float32 the
        dense draw makes (r * rank + c)-th: each 64-bit PCG64 output yields
        two, low half first, and `advance` drops a half left over."""
        rank = self.rank
        bitgen = np.random.PCG64(self._seed)
        gen = np.random.Generator(bitgen)
        per_piece = max(1, _PIECE // rank)
        cut = np.flatnonzero(((np.diff(rows) - 1) * rank > _RUN_GAP)
                             | (np.diff(rows // per_piece) != 0)) + 1
        lo = np.r_[0, cut]
        hi = np.r_[cut, len(rows)]
        base = len(self._drawn)
        drawn = np.empty((base + len(rows), rank), dtype=np.float32)
        drawn[:base] = self._drawn
        # the longest run, and the half of an output its first row may skip
        buf = np.empty(1 + rank * int((rows[hi - 1] - rows[lo]).max() + 1),
                       dtype=np.float32)
        pos = end = 0  # 64-bit outputs made; the row after the last drawn
        for a, b, first, last in zip(lo.tolist(), hi.tolist(),
                                     rows[lo].tolist(), rows[hi - 1].tolist()):
            skip = 0
            if first != end:  # jump the gap; else go on where the last run ended
                bitgen.advance(first * rank // 2 - pos)
                skip = first * rank % 2
            end = last + 1
            n = skip + (end - first) * rank
            gen.random(dtype=np.float32, out=buf[:n])
            # mode "clip" (the indices are in range) writes straight to `out`
            np.take(buf[skip:n].reshape(-1, rank), rows[a:b] - first, axis=0,
                    out=drawn[base + a:base + b], mode="clip")
            pos = -(-end * rank // 2)
        self._slot[rows] = np.arange(base, len(drawn))
        self._drawn = drawn

    def __repr__(self):
        return f"FactorMatrix(rows={self.rows}, rank={self.rank})"


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a reproducible synthetic tensor."""

    dims: tuple
    nnz: int
    seed: int = 0
    distribution: str = "uniform"  # uniform | mode-clustered

    def __post_init__(self):
        if self.distribution not in ("uniform", "mode-clustered"):
            raise ConfigurationError(f"unknown distribution {self.distribution!r}")


def check_factors(tensor: CooTensor, d: FactorMatrix, c: FactorMatrix):
    """Raise a ConfigurationError unless D has the tensor's J rows, C its K
    rows, and the two share a rank."""
    _, j_ext, k_ext = tensor.dims
    if d.rows != j_ext:
        raise ConfigurationError(f"D has {d.rows} rows, tensor J extent is {j_ext}")
    if c.rows != k_ext:
        raise ConfigurationError(f"C has {c.rows} rows, tensor K extent is {k_ext}")
    if d.rank != c.rank:
        raise ConfigurationError(f"rank mismatch: D rank {d.rank}, C rank {c.rank}")


def mttkrp_oracle(tensor: CooTensor, d: FactorMatrix, c: FactorMatrix) -> FactorMatrix:
    """Reference MTTKRP: A[i, r] = sum_z vals[z] * D[j_z, r] * C[k_z, r].

    Accumulates in element order with float64 intermediates and rounds the
    result to float32.  D must have J rows and C must have K rows; coordinates
    are validated against the matrix extents.
    """
    check_factors(tensor, d, c)
    i_ext, j_ext, k_ext = tensor.dims
    rank = d.rank
    out = np.zeros((i_ext, rank), dtype=np.float64)
    if tensor.nnz:
        for axis, arr, ext in (("i", tensor.i, i_ext), ("j", tensor.j, j_ext),
                               ("k", tensor.k, k_ext)):
            bad = np.nonzero(arr >= ext)[0]
            if bad.size:
                raise DataError(f"element {int(bad[0])}: coordinate {axis} out of range")
        # (val * D[j]) * C[k] in float64, in place: x * y == y * x
        contrib = d.take(tensor.j).astype(np.float64)
        contrib *= tensor.vals.astype(np.float64)[:, None]
        contrib *= c.take(tensor.k)
        # ufunc.at applies updates sequentially in element order, which keeps
        # the accumulation order identical to the per-element definition.
        np.add.at(out, tensor.i.astype(np.int64), contrib)
    return FactorMatrix(i_ext, rank, out.astype(np.float32))


def _permuted_view(tensor, perm):
    """COO view with coordinates permuted; order of elements is unchanged."""
    coords = (tensor.i, tensor.j, tensor.k)
    dims = tuple(tensor.dims[p] for p in perm)
    arrs = tuple(coords[p] for p in perm)
    return CooTensor(dims, arrs[0], arrs[1], arrs[2], tensor.vals, check=False)


def mttkrp_mode(tensor, mode, m1, m2, kernel=None):
    """MTTKRP along `mode` with the two remaining-mode factors (m1, m2).

    mode 0: (D, C); mode 1: (A, C); mode 2: (A, D).  Implemented by permuting
    the coordinate view so `kernel` (default `mttkrp_oracle`) always reduces
    over its last two modes.
    """
    kernel = kernel or mttkrp_oracle
    if mode == 0:
        return kernel(tensor, m1, m2)
    if mode == 1:
        return kernel(_permuted_view(tensor, (1, 0, 2)), m1, m2)
    if mode == 2:
        return kernel(_permuted_view(tensor, (2, 1, 0)), m2, m1)
    raise ConfigurationError(f"mode {mode} out of range for third-order tensor")


@dataclass
class CpAlsResult:
    a: FactorMatrix
    d: FactorMatrix
    c: FactorMatrix
    lam: np.ndarray
    iterations: int
    fits: list = field(default_factory=list)
    mttkrp_calls: int = 0
    warnings: int = 0

    @property
    def fit(self):
        return self.fits[-1] if self.fits else 0.0


def _gram(m):
    return m.T @ m


def _solve_normal(gram, rhs, mode, iteration):
    """Solve X @ gram = rhs via LAPACK partial-pivot elimination."""
    try:
        return np.linalg.solve(gram.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"singular normal equations updating mode {mode} at iteration {iteration}"
        ) from exc


def cp_als(tensor: CooTensor, rank, max_iters=50, tol=1e-6, seed=0,
           mttkrp=None) -> CpAlsResult:
    """Alternating least squares CP decomposition of a third-order COO tensor.

    Each iteration performs exactly three MTTKRPs (one per mode), solves the
    R x R normal-equations system for each factor, then renormalizes factor
    columns (2-norm) into `lam`.  Iteration stops after `max_iters` rounds or
    when the relative change in fit drops below `tol`.  `max_iters=0` returns
    the seeded initial factors unchanged.  A `mttkrp` callable may replace the
    oracle, e.g. a fabric functional run.
    """
    if rank < 1:
        raise ConfigurationError(f"rank must be positive, got {rank}")
    if max_iters < 0:
        raise ConfigurationError(f"max_iters must be non-negative, got {max_iters}")
    i_ext, j_ext, k_ext = tensor.dims
    result = CpAlsResult(a=None, d=None, c=None, lam=np.ones(rank), iterations=0)
    if min(tensor.dims) > 0 and rank > min(tensor.dims):
        result.warnings += 1

    rng = np.random.default_rng(seed)
    mats = [rng.random((ext, rank)) for ext in (i_ext, j_ext, k_ext)]
    lam = np.ones(rank, dtype=np.float64)

    calls = 0

    def run_mttkrp(mode, m1, m2):
        nonlocal calls
        calls += 1
        out = mttkrp_mode(tensor, mode,
                          FactorMatrix(m1.shape[0], rank, m1.astype(np.float32)),
                          FactorMatrix(m2.shape[0], rank, m2.astype(np.float32)),
                          kernel=mttkrp)
        return out.values.astype(np.float64)

    norm_b = float(np.linalg.norm(tensor.vals.astype(np.float64)))
    if max_iters and norm_b == 0:
        raise DataError("cannot decompose an all-zero tensor "
                        f"({tensor.nnz} elements stored)")
    fits = []
    prev_fit = None
    iters_done = 0

    for it in range(max_iters):
        # mode 0: A <- B_(1) (D (*) C) (C'C * D'D)^-1, then modes 1 and 2.
        for mode in range(3):
            m1, m2 = (mats[m] for m in range(3) if m != mode)
            mtt = run_mttkrp(mode, m1, m2)
            mats[mode] = _solve_normal(_gram(m1) * _gram(m2), mtt, mode, it)

        lam = np.ones(rank, dtype=np.float64)
        for m_i in range(3):
            norms = np.linalg.norm(mats[m_i], axis=0)
            norms = np.where(norms > 0, norms, 1.0)
            mats[m_i] = mats[m_i] / norms
            lam = lam * norms

        fit = _fit(tensor, norm_b, mats, lam)
        if not np.isfinite(fit):
            raise NumericalError(f"fit became non-finite at iteration {it}")
        fits.append(fit)
        iters_done = it + 1
        if prev_fit is not None and abs(fit - prev_fit) < tol:
            break
        prev_fit = fit

    result.a = FactorMatrix(i_ext, rank, mats[0].astype(np.float32))
    result.d = FactorMatrix(j_ext, rank, mats[1].astype(np.float32))
    result.c = FactorMatrix(k_ext, rank, mats[2].astype(np.float32))
    result.lam = lam
    result.iterations = iters_done
    result.fits = fits
    result.mttkrp_calls = calls
    return result


def _fit(tensor, norm_b, mats, lam):
    """fit = 1 - ||B - Bhat|| / ||B||, evaluated without densifying."""
    a, d, c = mats
    gram = (lam[:, None] * lam[None, :]) * (_gram(a) * _gram(d) * _gram(c))
    norm_est_sq = float(np.sum(gram))
    if tensor.nnz:
        per_elem = (a[tensor.i.astype(np.int64)] * d[tensor.j.astype(np.int64)]
                    * c[tensor.k.astype(np.int64)]) @ lam
        inner = float(np.dot(tensor.vals.astype(np.float64), per_elem))
    else:
        inner = 0.0
    resid_sq = max(norm_b**2 + norm_est_sq - 2.0 * inner, 0.0)
    if norm_b == 0.0:
        return 1.0
    return 1.0 - np.sqrt(resid_sq) / norm_b


def gen_synthetic(spec: GenSpec) -> CooTensor:
    """Generate a duplicate-free synthetic tensor, sorted by (i, j, k).

    Exactly `spec.nnz` elements are produced, values uniform in [0, 1).
    `uniform` scatters coordinates over the whole volume; `mode-clustered`
    confines i to the lowest ceil(I/8) rows so mode-0 rows are dense.
    The same spec always yields the same tensor.
    """
    i_ext, j_ext, k_ext = (int(x) for x in spec.dims)
    volume = i_ext * j_ext * k_ext
    if spec.nnz < 0:
        raise ConfigurationError("nnz must be non-negative")
    if spec.nnz > volume:
        raise ConfigurationError(f"nnz {spec.nnz} exceeds volume {volume}")
    if volume >= _MAX_GEN_VOLUME:
        raise ConfigurationError(f"volume {volume} too large for generator")
    rng = np.random.default_rng(spec.seed)
    if spec.nnz == 0:
        e = np.empty(0, dtype=np.uint32)
        return CooTensor(spec.dims, e, e, e, np.empty(0, dtype=np.float32))

    if spec.distribution == "mode-clustered":
        band = max(1, -(-i_ext // 8))
        eff_volume = band * j_ext * k_ext
        if spec.nnz > eff_volume:
            raise ConfigurationError(
                f"nnz {spec.nnz} exceeds clustered volume {eff_volume}")
    else:
        band = i_ext
        eff_volume = volume

    codes = np.empty(0, dtype=np.uint64)
    while codes.size < spec.nnz:
        need = spec.nnz - codes.size
        draw = rng.integers(0, eff_volume, size=need * 2 + 16, dtype=np.uint64)
        codes = np.unique(np.concatenate([codes, draw]))
    codes = codes[rng.permutation(codes.size)[:spec.nnz]]
    codes = np.sort(codes)

    jk = np.uint64(j_ext) * np.uint64(k_ext)
    ii = (codes // jk).astype(np.uint32)
    rem = codes % jk
    jj = (rem // np.uint64(k_ext)).astype(np.uint32)
    kk = (rem % np.uint64(k_ext)).astype(np.uint32)
    vals = rng.random(spec.nnz, dtype=np.float32)
    return CooTensor(spec.dims, ii, jj, kk, vals)
