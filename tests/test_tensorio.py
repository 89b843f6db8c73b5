import io
import struct

import numpy as np
import pytest

from mpcadapter import tensorio
from mpcadapter.ring import FixedTensor


def test_tensor_roundtrip_f32(rng, tmp_path):
    arr = rng.standard_normal((3, 4)).astype(np.float32)
    path = tmp_path / "t.bin"
    tensorio.save_tensor_file(path, arr, "f32")
    got = tensorio.load_tensor_file(path, "f32")
    assert np.array_equal(got, arr)


def test_tensor_roundtrip_u64(rng, tmp_path):
    arr = rng.integers(0, 1 << 64, size=(5,), dtype=np.uint64)
    path = tmp_path / "t.bin"
    tensorio.save_tensor_file(path, arr, "u64ring")
    assert np.array_equal(tensorio.load_tensor_file(path, "u64ring"), arr)


def test_header_layout():
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.zeros((2, 3), np.float32), "f32")
    raw = buf.getvalue()
    assert raw[:4] == b"CPFT"
    assert int.from_bytes(raw[4:6], "little") == 1   # version
    assert int.from_bytes(raw[6:8], "little") == 2   # rank
    assert int.from_bytes(raw[8:16], "little") == 2
    assert int.from_bytes(raw[16:24], "little") == 3


def test_bad_magic_rejected():
    buf = io.BytesIO(b"NOPE" + b"\x00" * 32)
    with pytest.raises(tensorio.TensorFormatError):
        tensorio.read_tensor(buf, "f32")


@pytest.mark.parametrize("cut", [5, 8, 20], ids=["in-version-rank", "no-dims", "in-dims"])
def test_truncated_header_rejected(cut):
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.zeros((2, 3), np.float32), "f32")
    with pytest.raises(tensorio.TensorFormatError, match="truncated tensor header"):
        tensorio.read_tensor(io.BytesIO(buf.getvalue()[:cut]), "f32")


def test_truncated_payload_rejected():
    buf = io.BytesIO()
    tensorio.write_tensor(buf, np.zeros(8, np.float32), "f32")
    raw = buf.getvalue()[:-4]
    with pytest.raises(tensorio.TensorFormatError):
        tensorio.read_tensor(io.BytesIO(raw), "f32")


@pytest.mark.parametrize("dims", [(1 << 32, 1 << 32), (1 << 40,), (3, 0, 1 << 63)],
                         ids=["product-wraps-int64", "past-end-of-file", "dim-too-large"])
def test_header_dims_bounded_by_the_file(dims, tmp_path):
    """Dims whose payload the file cannot hold, or whose shape numpy cannot
    hold, are a format error before any payload is read or allocated."""
    path = tmp_path / "t.bin"
    header = struct.pack(f"<HH{len(dims)}Q", tensorio.VERSION, len(dims), *dims)
    path.write_bytes(tensorio.MAGIC + header + b"\x00" * 64)
    with pytest.raises(tensorio.TensorFormatError):
        tensorio.load_tensor_file(path, "f32")


def test_unknown_dtype_rejected():
    with pytest.raises(tensorio.TensorFormatError):
        tensorio.write_tensor(io.BytesIO(), np.zeros(1), "f64")


def test_weights_dir_roundtrip(rng, tmp_path):
    tensors = {
        "w1": FixedTensor.from_real(rng.standard_normal((4, 4))),
        "b1": FixedTensor.from_real(rng.standard_normal(4)),
    }
    tensorio.save_weights_dir(tmp_path / "w", tensors, {"note": "test"},
                              dtype="u64ring")
    got, manifest = tensorio.load_weights_dir(tmp_path / "w")
    assert manifest["note"] == "test"
    assert manifest["frac_bits"] == 16
    for name in tensors:
        assert np.array_equal(got[name].data, tensors[name].data)


def test_weights_dir_f32_lossy_but_close(rng, tmp_path):
    tensors = {"w": FixedTensor.from_real(rng.standard_normal((8, 8)))}
    tensorio.save_weights_dir(tmp_path / "w", tensors, {}, dtype="f32")
    got, _ = tensorio.load_weights_dir(tmp_path / "w")
    assert np.max(np.abs(got["w"].to_real() - tensors["w"].to_real())) < 1e-4
