"""Text and binary tensor formats: round trips and malformed input."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmbsim.errors import DataError
from lmbsim.tensor import CooTensor, GenSpec, gen_synthetic
from lmbsim.tensor_io import (HEADER_BYTES, MAGIC, load, load_binary,
                              load_text, save_binary, save_text)


def small_tensor():
    return CooTensor(
        (3, 4, 5),
        np.array([0, 1, 2], dtype=np.uint32),
        np.array([3, 0, 1], dtype=np.uint32),
        np.array([4, 2, 0], dtype=np.uint32),
        np.array([1.5, -2.25, 0.125], dtype=np.float32),
    )


def test_binary_round_trip(tmp_path):
    t = small_tensor()
    p = tmp_path / "t.coo"
    save_binary(t, p)
    back = load_binary(p)
    assert back.dims == t.dims
    assert np.array_equal(back.i, t.i)
    assert np.array_equal(back.j, t.j)
    assert np.array_equal(back.k, t.k)
    assert np.array_equal(back.vals, t.vals)


def test_binary_file_size_is_exact(tmp_path):
    t = small_tensor()
    p = tmp_path / "t.coo"
    save_binary(t, p)
    assert p.stat().st_size == HEADER_BYTES + 16 * t.nnz
    assert HEADER_BYTES == 32


def test_text_round_trip(tmp_path):
    t = small_tensor()
    p = tmp_path / "t.tns"
    save_text(t, p)
    back = load_text(p)
    assert back.dims == t.dims
    assert np.array_equal(back.i, t.i)
    assert np.array_equal(back.j, t.j)
    assert np.array_equal(back.k, t.k)
    assert np.allclose(back.vals, t.vals)


def test_text_is_one_indexed(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("1 1 1 2.5\n3 4 5 -1.0\n")
    t = load_text(p)
    assert t.dims == (3, 4, 5)
    assert t.i[0] == 0 and t.j[0] == 0 and t.k[0] == 0
    assert t.i[1] == 2 and t.j[1] == 3 and t.k[1] == 4


def test_text_dims_header_overrides_maxima(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("# dims 10 10 10\n1 1 1 1.0\n")
    assert load_text(p).dims == (10, 10, 10)


def test_text_comments_and_blank_lines_skipped(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("# a comment\n\n1 2 3 4.0\n# another\n\n")
    t = load_text(p)
    assert t.nnz == 1 and t.vals[0] == 4.0


def test_text_zero_index_rejected(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("0 1 1 1.0\n")
    with pytest.raises(DataError, match="1-indexed"):
        load_text(p)


@pytest.mark.parametrize("line", ["4294967296 1 1 1.0", "1 99999999999 1 1.0",
                                  "1 1 4294967296 1.0"])
def test_text_coordinate_past_u32_rejected(tmp_path, line):
    p = tmp_path / "t.tns"
    p.write_text("1 1 1 1.0\n" + line + "\n")
    with pytest.raises(DataError, match="line 2: coordinate exceeds u32"):
        load_text(p)


def test_text_largest_u32_coordinate_loads(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("4294967295 1 1 1.0\n")
    t = load_text(p)
    assert t.dims == (4294967295, 1, 1) and int(t.i[0]) == 4294967294


def test_text_bad_field_count(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("1 1 1\n")
    with pytest.raises(DataError, match="line 1"):
        load_text(p)


def test_text_bad_dims_header(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("# dims 3 4\n1 1 1 1.0\n")
    with pytest.raises(DataError, match="dims header"):
        load_text(p)


def test_text_non_numeric(tmp_path):
    p = tmp_path / "t.tns"
    p.write_text("1 1 x 1.0\n")
    with pytest.raises(DataError, match="line 1"):
        load_text(p)


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "t.coo"
    p.write_bytes(b"XXXX" + b"\x00" * 28)
    with pytest.raises(DataError, match="magic"):
        load_binary(p)


def test_binary_bad_version(tmp_path):
    p = tmp_path / "t.coo"
    p.write_bytes(struct.pack("<4sIIIIQ4x", MAGIC, 2, 1, 1, 1, 0))
    with pytest.raises(DataError, match="version"):
        load_binary(p)


def test_binary_truncated_header(tmp_path):
    p = tmp_path / "t.coo"
    p.write_bytes(MAGIC + b"\x00" * 10)
    with pytest.raises(DataError, match="truncated"):
        load_binary(p)


def test_binary_truncated_body(tmp_path):
    t = small_tensor()
    p = tmp_path / "t.coo"
    save_binary(t, p)
    data = p.read_bytes()
    p.write_bytes(data[:-4])
    with pytest.raises(DataError, match="body"):
        load_binary(p)


def test_binary_out_of_range_coordinate_names_file(tmp_path):
    # header says extent 2 but a record holds coordinate 5
    p = tmp_path / "t.coo"
    body = struct.pack("<IIIf", 5, 0, 0, 1.0)
    p.write_bytes(struct.pack("<4sIIIIQ4x", MAGIC, 1, 2, 2, 2, 1) + body)
    with pytest.raises(DataError, match=str(p)):
        load_binary(p)


def test_load_dispatches_on_magic(tmp_path):
    t = small_tensor()
    pb = tmp_path / "b.coo"
    pt = tmp_path / "t.tns"
    save_binary(t, pb)
    save_text(t, pt)
    assert load(pb).nnz == t.nnz
    assert load(pt).dims == t.dims


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**30))
def test_generated_tensors_survive_both_formats(tmp_path_factory, nnz, seed):
    dims = (16, 24, 32)
    if nnz > dims[0] * dims[1] * dims[2]:
        nnz = 200
    t = gen_synthetic(GenSpec(dims=dims, nnz=nnz, seed=seed))
    d = tmp_path_factory.mktemp("io")
    save_binary(t, d / "t.coo")
    save_text(t, d / "t.tns")
    b = load(d / "t.coo")
    x = load(d / "t.tns")
    assert np.array_equal(b.i, t.i) and np.array_equal(x.i, t.i)
    assert np.array_equal(b.vals, t.vals)
    # text keeps 9 significant digits, enough to be lossless for f32
    assert np.array_equal(x.vals, t.vals)
