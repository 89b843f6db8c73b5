"""Tensor and weights-directory serialization.

Tensor binary format (little-endian):
  magic "CPFT" | format version u16 = 1 | rank u16 | rank x u64 dims | payload

The payload dtype is not part of the header; it is declared in the JSON
manifest next to the payload ("f32" = row-major IEEE-754 single, encoded
to ring elements on load; "u64ring" = raw ring elements).

A weights directory holds manifest.json plus weights.bin, the
concatenation of the tensor records in manifest order.  The manifest
declares ``frac_bits``, which must be the engine's 16: "u64ring" payloads
are ring words at that scale.
"""

import io
import json
import math
import struct
from collections import Counter
from pathlib import Path

import numpy as np

from .ring import DEFAULT_CONFIG, FixedTensor, RingOverflowError, encode_fixed

MAGIC = b"CPFT"
VERSION = 1

# Payload dtype, as the manifest declares it: its numpy dtype.
DTYPES = {"f32": np.dtype("<f4"), "u64ring": np.dtype("<u8")}


class TensorFormatError(ValueError):
    pass


def write_tensor(buf, array: np.ndarray, dtype: str):
    if dtype not in DTYPES:
        raise TensorFormatError(f"unknown payload dtype {dtype!r}")
    buf.write(MAGIC)
    buf.write(struct.pack("<HH", VERSION, array.ndim))
    buf.write(struct.pack(f"<{array.ndim}Q", *array.shape))
    buf.write(np.ascontiguousarray(array, dtype=DTYPES[dtype]).tobytes())


def _read_exact(buf, n: int, what: str) -> bytes:
    raw = buf.read(n)
    if len(raw) != n:
        raise TensorFormatError(f"truncated tensor {what}")
    return raw


def read_tensor(buf, dtype: str) -> np.ndarray:
    if dtype not in DTYPES:
        raise TensorFormatError(f"unknown payload dtype {dtype!r}")
    magic = buf.read(4)
    if magic != MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, rank = struct.unpack("<HH", _read_exact(buf, 4, "header"))
    if version != VERSION:
        raise TensorFormatError(f"unsupported format version {version}")
    shape = struct.unpack(f"<{rank}Q", _read_exact(buf, 8 * rank, "header"))
    nbytes = math.prod(shape) * DTYPES[dtype].itemsize
    here = buf.tell()
    left = buf.seek(0, io.SEEK_END) - here
    buf.seek(here)
    if nbytes > left:
        raise TensorFormatError(
            f"truncated tensor payload: dims {shape} need {nbytes} bytes, {left} left")
    raw = _read_exact(buf, nbytes, "payload")
    try:
        return np.frombuffer(raw, dtype=DTYPES[dtype]).reshape(shape).copy()
    except ValueError as e:
        raise TensorFormatError(f"tensor dims {shape} not representable: {e}") from None


def save_tensor_file(path, array: np.ndarray, dtype: str = "f32"):
    with open(path, "wb") as fh:
        write_tensor(fh, array, dtype)


def load_tensor_file(path, dtype: str = "f32") -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh, dtype)


def tensor_as_fixed(array: np.ndarray) -> FixedTensor:
    """Ring words of a payload: reals are encoded, ring words kept.  A real
    that is not finite or out of the fixed-point range raises
    TensorFormatError."""
    if array.dtype == DTYPES["u64ring"]:
        return FixedTensor(array)
    try:
        return FixedTensor(encode_fixed(array.astype(np.float64)))
    except RingOverflowError as e:
        raise TensorFormatError(f"tensor value not encodable: {e}") from None


def save_weights_dir(path, tensors: dict, meta: dict, dtype: str = "f32"):
    """Write manifest.json + weights.bin for a named tensor collection."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    blob = io.BytesIO()
    for name, tensor in tensors.items():
        array = tensor.to_real() if dtype == "f32" else tensor.data
        entries.append({"name": name, "shape": list(tensor.shape), "dtype": dtype})
        write_tensor(blob, array, dtype)
    manifest = {
        "format_version": VERSION,
        "frac_bits": DEFAULT_CONFIG.frac_bits,
        "tensors": entries,
        **meta,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (path / "weights.bin").write_bytes(blob.getvalue())


def load_weights_dir(path):
    """Read a weights directory; returns (tensors by name, manifest).

    A manifest that is not JSON (or nests past the parser's depth), lacks
    its tensor list or an entry's name, shape or dtype, names a tensor twice,
    or declares a ``frac_bits`` other than the engine's raises
    TensorFormatError, as does a malformed payload.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_bytes())
    except (ValueError, RecursionError) as e:
        raise TensorFormatError(f"manifest.json is not valid JSON: {e}") from None
    entries = manifest.get("tensors") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list) and isinstance(e.get("dtype"), str)
            for e in entries):
        raise TensorFormatError(
            "manifest.json needs a tensors list of entries with name, shape and dtype")
    if manifest.get("frac_bits") != DEFAULT_CONFIG.frac_bits:
        raise TensorFormatError(
            f"manifest declares frac_bits {manifest.get('frac_bits')!r}, "
            f"the engine's format has {DEFAULT_CONFIG.frac_bits}")
    twice = sorted(n for n, k in Counter(e["name"] for e in entries).items() if k > 1)
    if twice:
        raise TensorFormatError(f"manifest.json names tensors more than once: {twice}")
    tensors = {}
    with open(path / "weights.bin", "rb") as fh:
        for entry in entries:
            array = read_tensor(fh, entry["dtype"])
            if list(array.shape) != entry["shape"]:
                raise TensorFormatError(
                    f"shape mismatch for {entry['name']}: manifest says "
                    f"{entry['shape']}, payload has {list(array.shape)}"
                )
            tensors[entry["name"]] = tensor_as_fixed(array)
    return tensors, manifest
