"""Minimal portable tensor container (.cmt) plus an ENVI raster import path.

CMT layout, all little-endian regardless of host:

    bytes 0-3   magic "CMT1"
    byte  4     dtype code (0x01 = float64)
    byte  5     ndim (2 or 3)
    then ndim unsigned 64-bit dimensions
    then the row-major float64 payload

The file length must equal header + payload exactly. Writes go through a
temporary file and an atomic rename; the temporary file is removed if the
write or the rename fails.

Neither direction builds a payload-sized temporary for a C-order array.
``write_tensor`` writes the payload straight from the array's own buffer and
``read_tensor`` reads into the array it returns. Both check finiteness with
:func:`hsfusion.tensor.all_finite`, which scans in slabs.

``read_envi`` covers the common case of real hyperspectral cubes shipped as
ENVI band-sequential rasters with a sidecar .hdr; it is import-only. It reads
one band at a time into the cube it returns, so its peak beyond that cube is
one band of raw samples.
"""

import contextlib
import math
import os
import struct

import numpy as np

from .errors import TensorFileError
from .tensor import all_finite

MAGIC = b"CMT1"
DTYPE_FLOAT64 = 0x01
_HEADER_FIXED = 6


def write_tensor(path, t):
    """Write a 2- or 3-way float64 array; bit-exact roundtrip with read_tensor."""
    t = np.asarray(t, dtype="<f8")
    if t.ndim not in (2, 3):
        raise ValueError(f"only 2- or 3-way arrays are supported, got ndim={t.ndim}")
    if 0 in t.shape:
        raise ValueError(f"zero dimension in shape {t.shape}; read_tensor refuses it")
    if not all_finite(t):
        raise ValueError("refusing to write non-finite values")
    # no copy for a C-order array, which is what every caller passes
    t = np.ascontiguousarray(t)
    header = MAGIC + bytes([DTYPE_FLOAT64, t.ndim])
    header += b"".join(struct.pack("<Q", d) for d in t.shape)
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(header)
            fh.write(t.data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_tensor(path):
    """Read a .cmt file into an array of its own size (no staging copy); raises
    TensorFileError with a byte offset on damage."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = fh.read(_HEADER_FIXED + 8 * 3)
        if len(data) < _HEADER_FIXED:
            raise TensorFileError(
                f"truncated header: file is {len(data)} bytes (error at offset {len(data)})"
            )
        if data[:4] != MAGIC:
            raise TensorFileError(
                f"bad magic {data[:4]!r} at offset 0 (expected {MAGIC!r})"
            )
        if data[4] != DTYPE_FLOAT64:
            raise TensorFileError(f"unsupported dtype code 0x{data[4]:02x} at offset 4")
        ndim = data[5]
        if ndim not in (2, 3):
            raise TensorFileError(f"unsupported ndim {ndim} at offset 5")
        header_len = _HEADER_FIXED + 8 * ndim
        if len(data) < header_len:
            raise TensorFileError(
                f"truncated shape header (error at offset {len(data)})"
            )
        shape = struct.unpack(f"<{ndim}Q", data[_HEADER_FIXED:header_len])
        if any(d == 0 for d in shape):
            raise TensorFileError(f"zero dimension in shape {shape} at offset 6")
        count = math.prod(shape)
        expected = header_len + 8 * count
        if size != expected:
            raise TensorFileError(
                f"payload length mismatch: expected {expected} bytes, found {size} "
                f"(error at offset {min(size, expected)})"
            )
        fh.seek(header_len)
        arr = np.fromfile(fh, dtype="<f8", count=count)
    if arr.size != count:
        raise TensorFileError(f"payload of {path} shrank while it was read")
    arr = arr.reshape(shape).astype(float, copy=False)
    if not all_finite(arr):
        raise TensorFileError(f"non-finite values in payload of {path}")
    return arr


_ENVI_DTYPES = {
    "1": np.uint8,
    "2": np.int16,
    "4": np.float32,
    "5": np.float64,
    "12": np.uint16,
}


def _parse_envi_header(text, source):
    if not text.lstrip().lower().startswith("envi"):
        raise TensorFileError(f"{source}: missing ENVI signature line")
    fields = {}
    pending_key = None
    brace_buf = []
    for raw in text.splitlines()[1:]:
        line = raw.strip()
        if pending_key is not None:
            brace_buf.append(line.rstrip("}"))
            if line.endswith("}"):
                fields[pending_key] = " ".join(brace_buf).strip()
                pending_key = None
            continue
        if not line or "=" not in line:
            continue
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if val.startswith("{") and not val.endswith("}"):
            pending_key = key
            brace_buf = [val.lstrip("{")]
        else:
            fields[key] = val.strip("{} ")
    return fields


def _envi_int(fields, key, source, minimum, default=None):
    """Integer header field ``key``, at least ``minimum``; TensorFileError otherwise."""
    text = fields.get(key, default)
    if text is None:
        raise TensorFileError(f"{source}: missing ENVI field {key!r}")
    try:
        value = int(text)
    except ValueError:
        raise TensorFileError(f"{source}: ENVI field {key!r} is not an integer: {text!r}") from None
    if value < minimum:
        raise TensorFileError(f"{source}: ENVI field {key!r} must be >= {minimum}, got {value}")
    return value


def read_envi(header_path):
    """Read an ENVI band-sequential raster as a (lines, samples, bands) cube.

    Supports interleave bsq, integer/float data types 1/2/4/5/12, byte
    order 0 (little-endian) or 1 (big-endian), and an optional header offset. ``samples``, ``lines`` and
    ``bands`` must be at least 1 and ``header offset`` at least 0. The image
    file is looked up next to the header (same stem, or .img/.dat/.raw/.bsq
    suffixes). It is read one band at a time into the returned cube, so the
    read holds one band of raw samples beyond the cube.
    """
    header_path = os.fspath(header_path)
    with open(header_path, "r", encoding="utf-8", errors="replace") as fh:
        fields = _parse_envi_header(fh.read(), header_path)
    samples = _envi_int(fields, "samples", header_path, 1)
    lines = _envi_int(fields, "lines", header_path, 1)
    bands = _envi_int(fields, "bands", header_path, 1)
    dtype_code = fields.get("data type")
    if dtype_code is None:
        raise TensorFileError(f"{header_path}: missing ENVI field 'data type'")
    interleave = fields.get("interleave", "bsq").lower()
    if interleave != "bsq":
        raise TensorFileError(
            f"{header_path}: unsupported interleave {interleave!r} (only bsq)"
        )
    if dtype_code not in _ENVI_DTYPES:
        raise TensorFileError(f"{header_path}: unsupported data type {dtype_code}")
    byte_order = fields.get("byte order", "0")
    if byte_order not in ("0", "1"):
        raise TensorFileError(
            f"{header_path}: ENVI field 'byte order' must be 0 or 1, got {byte_order!r}"
        )
    dtype = np.dtype(_ENVI_DTYPES[dtype_code]).newbyteorder(">" if byte_order == "1" else "<")
    offset = _envi_int(fields, "header offset", header_path, 0, default="0")

    stem = header_path[:-4] if header_path.lower().endswith(".hdr") else header_path
    candidates = [stem] + [stem + ext for ext in (".img", ".dat", ".raw", ".bsq")]
    data_path = next((p for p in candidates if os.path.isfile(p)), None)
    if data_path is None:
        raise TensorFileError(f"{header_path}: no image file next to the header")

    cube = np.empty((lines, samples, bands))
    band = np.empty((lines, samples), dtype=dtype)
    with open(data_path, "rb") as fh:
        fh.seek(offset)
        for b in range(bands):
            got = fh.readinto(band)
            if got != band.nbytes:
                found = (b * band.nbytes + got) // dtype.itemsize
                raise TensorFileError(
                    f"{data_path}: expected {band.size * bands} samples, found {found}"
                )
            cube[:, :, b] = band
    if not all_finite(cube):
        raise TensorFileError(f"{data_path}: non-finite values in raster")
    return cube


def load_cube(path):
    """Read either a .cmt tensor or an ENVI .hdr raster, by suffix."""
    if os.fspath(path).lower().endswith(".hdr"):
        return read_envi(path)
    return read_tensor(path)
