"""Tensor file formats: whitespace text and packed binary COO.

Text format: optional comment lines starting with '#'; the first comment may
carry extents as '# dims I J K'.  Data lines are 'i j k value' with 1-indexed
coordinates.  Without a dims header, extents default to the per-axis maxima.

Binary format: a 32-byte header followed by nnz packed 16-byte records.

    offset  size  field
    0       4     magic 'COO3'
    4       4     version (1), little-endian u32
    8       4     I extent, u32
    12      4     J extent, u32
    16      4     K extent, u32
    20      8     nnz, u64
    28      4     pad (zero)
    32      16*n  records: u32 i, u32 j, u32 k, f32 val (0-indexed)

All integers are little-endian.  File size must equal 32 + 16*nnz exactly.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError
from .tensor import CooTensor

MAGIC = b"COO3"
VERSION = 1
_HEADER = struct.Struct("<4sIIIIQ4x")
HEADER_BYTES = _HEADER.size  # 32
RECORD_DTYPE = np.dtype([("i", "<u4"), ("j", "<u4"), ("k", "<u4"), ("val", "<f4")])


def _text_lines(path, not_text="neither a binary tensor nor UTF-8 text"):
    """(line number, stripped line) for each line; bad bytes are a DataError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                yield lineno, raw.strip()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {not_text} ({exc.reason})") from None


def load_text(path) -> CooTensor:
    ii, jj, kk, vv = [], [], [], []
    dims = None
    for lineno, line in _text_lines(path):
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if fields[:1] == ["dims"]:
                if len(fields) != 4:
                    raise DataError(f"line {lineno}: dims header needs 3 extents")
                try:
                    dims = tuple(int(x) for x in fields[1:])
                except ValueError:
                    raise DataError(f"line {lineno}: non-integer extent") from None
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DataError(f"line {lineno}: expected 'i j k value', "
                            f"got {len(parts)} fields")
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
            val = float(parts[3])
        except ValueError:
            raise DataError(f"line {lineno}: could not parse coordinates") from None
        if min(i, j, k) < 1:
            raise DataError(f"line {lineno}: coordinates are 1-indexed, "
                            f"got ({i}, {j}, {k})")
        if max(i, j, k) >= 1 << 32:
            raise DataError(f"line {lineno}: coordinate exceeds u32 "
                            f"coordinate range, got ({i}, {j}, {k})")
        ii.append(i - 1)
        jj.append(j - 1)
        kk.append(k - 1)
        vv.append(val)
    i_arr = np.asarray(ii, dtype=np.uint32)
    j_arr = np.asarray(jj, dtype=np.uint32)
    k_arr = np.asarray(kk, dtype=np.uint32)
    v_arr = np.asarray(vv, dtype=np.float32)
    if dims is None:
        dims = (int(i_arr.max()) + 1 if i_arr.size else 0,
                int(j_arr.max()) + 1 if j_arr.size else 0,
                int(k_arr.max()) + 1 if k_arr.size else 0)
    try:
        return CooTensor(dims, i_arr, j_arr, k_arr, v_arr)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_text(tensor: CooTensor, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dims {tensor.dims[0]} {tensor.dims[1]} {tensor.dims[2]}\n")
        for z in range(tensor.nnz):
            fh.write(f"{int(tensor.i[z]) + 1} {int(tensor.j[z]) + 1} "
                     f"{int(tensor.k[z]) + 1} {tensor.vals[z]:.9g}\n")


def load_binary(path) -> CooTensor:
    with open(path, "rb") as fh:
        head = fh.read(HEADER_BYTES)
        if len(head) != HEADER_BYTES:
            raise DataError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, i_ext, j_ext, k_ext, nnz = _HEADER.unpack(head)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise DataError(f"{path}: unsupported version {version}")
        body = fh.read()
    expect = nnz * RECORD_DTYPE.itemsize
    if len(body) != expect:
        raise DataError(f"{path}: body is {len(body)} bytes, "
                        f"expected {expect} for nnz={nnz}")
    rec = np.frombuffer(body, dtype=RECORD_DTYPE)
    try:
        return CooTensor((i_ext, j_ext, k_ext), rec["i"], rec["j"], rec["k"],
                         rec["val"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_binary(tensor: CooTensor, path):
    rec = np.empty(tensor.nnz, dtype=RECORD_DTYPE)
    rec["i"] = tensor.i
    rec["j"] = tensor.j
    rec["k"] = tensor.k
    rec["val"] = tensor.vals
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, tensor.dims[0], tensor.dims[1],
                              tensor.dims[2], tensor.nnz))
        fh.write(rec.tobytes())


def load(path) -> CooTensor:
    """Dispatch on content: binary if the file starts with the magic."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return load_binary(path)
    return load_text(path)
