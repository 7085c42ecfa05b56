import io
import re
import struct

import numpy as np
import pytest

from hsfusion import TensorFileError, load_cube, read_envi, read_tensor, write_tensor
from hsfusion import tensorfile as tensorfile_module
from hsfusion.tensor import SLAB_ELEMENTS

from _shared import _traced_peak

# a cube of exactly two slabs, and the entries a slab-wise scan could miss
TWO_SLABS = (64, 64, 64)
EDGES = (0, SLAB_ELEMENTS - 1, SLAB_ELEMENTS, 2 * SLAB_ELEMENTS - 1)


def test_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, 5, 6))
    path = tmp_path / "t.cmt"
    write_tensor(path, t)
    back = read_tensor(path)
    assert back.shape == (4, 5, 6)
    assert np.array_equal(back, t)
    assert back.tobytes() == t.tobytes()


def test_read_allocates_about_the_payload(tmp_path):
    t = np.random.default_rng(1).standard_normal((48, 48, 120))  # 2.2 MB payload
    path = tmp_path / "t.cmt"
    write_tensor(path, t)
    back, peak = _traced_peak(read_tensor, path)
    assert np.array_equal(back, t)
    # the array itself plus one slab's finiteness mask
    assert peak < 1.25 * t.nbytes


def test_read_names_a_payload_that_shrank_while_it_was_read(tmp_path, monkeypatch):
    # the size check passed, then the file lost its last value before the payload was read
    path = tmp_path / "t.cmt"
    write_tensor(path, np.ones((2, 3, 4)))
    fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda fh, dtype, count: fromfile(fh, dtype, count - 1))
    with pytest.raises(TensorFileError, match=rf"^payload of {re.escape(str(path))} shrank"):
        read_tensor(path)


def test_roundtrip_matrix(tmp_path):
    m = np.array([[1.5, -2.0], [0.0, 3.25]])
    path = tmp_path / "m.cmt"
    write_tensor(path, m)
    assert np.array_equal(read_tensor(path), m)


def test_golden_bytes_decode():
    # hand-assembled 2x2 matrix [[1,2],[3,4]]
    blob = (
        b"CMT1"
        + bytes([0x01, 0x02])
        + struct.pack("<QQ", 2, 2)
        + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    )
    import tempfile, os

    with tempfile.NamedTemporaryFile(delete=False, suffix=".cmt") as fh:
        fh.write(blob)
        path = fh.name
    try:
        out = read_tensor(path)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])
    finally:
        os.unlink(path)


def test_golden_bytes_encode(tmp_path):
    path = tmp_path / "g.cmt"
    write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    blob = path.read_bytes()
    assert blob[:4] == b"CMT1"
    assert blob[4] == 0x01 and blob[5] == 0x02
    assert struct.unpack("<QQ", blob[6:22]) == (2, 2)
    assert struct.unpack("<4d", blob[22:]) == (1.0, 2.0, 3.0, 4.0)


def test_bad_magic_reports_offset_zero(tmp_path):
    path = tmp_path / "bad.cmt"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(TensorFileError, match="offset 0"):
        read_tensor(path)


def test_unsupported_dtype_code(tmp_path):
    path = tmp_path / "bad.cmt"
    path.write_bytes(b"CMT1" + bytes([0x02, 0x02]) + struct.pack("<QQ", 1, 1) + bytes(8))
    with pytest.raises(TensorFileError, match="offset 4"):
        read_tensor(path)


def test_bad_ndim(tmp_path):
    path = tmp_path / "bad.cmt"
    path.write_bytes(b"CMT1" + bytes([0x01, 0x04]) + bytes(40))
    with pytest.raises(TensorFileError, match="offset 5"):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "bad.cmt"
    good = b"CMT1" + bytes([0x01, 0x02]) + struct.pack("<QQ", 2, 2) + struct.pack("<4d", 1, 2, 3, 4)
    path.write_bytes(good[:-8])
    with pytest.raises(TensorFileError, match="payload length mismatch"):
        read_tensor(path)


def test_trailing_garbage_rejected(tmp_path):
    path = tmp_path / "bad.cmt"
    good = b"CMT1" + bytes([0x01, 0x02]) + struct.pack("<QQ", 2, 2) + struct.pack("<4d", 1, 2, 3, 4)
    path.write_bytes(good + b"zz")
    with pytest.raises(TensorFileError, match="payload length mismatch"):
        read_tensor(path)


def test_write_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "x.cmt", np.zeros(4))  # 1-d
    with pytest.raises(ValueError):
        write_tensor(tmp_path / "x.cmt", np.array([[np.inf]]))


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (3, 0, 2)])
def test_write_refuses_a_zero_dimension_that_read_would_refuse(tmp_path, shape):
    path = tmp_path / "t.cmt"
    with pytest.raises(ValueError, match=re.escape(f"zero dimension in shape {shape}")):
        write_tensor(path, np.zeros(shape))
    assert not path.exists() and not (tmp_path / "t.cmt.tmp").exists()


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "bad.cmt"
    path.write_bytes(
        b"CMT1" + bytes([0x01, 0x02]) + struct.pack("<QQ", 1, 1) + struct.pack("<d", np.nan)
    )
    with pytest.raises(TensorFileError, match="non-finite"):
        read_tensor(path)


def test_no_temp_file_left_behind(tmp_path):
    path = tmp_path / "t.cmt"
    write_tensor(path, np.zeros((2, 2)))
    assert [p.name for p in tmp_path.iterdir()] == ["t.cmt"]


def test_write_and_read_build_no_payload_sized_temporary(tmp_path):
    cube = np.random.default_rng(4).random((1024, 64, 64))  # 32 MB
    path = tmp_path / "big.cmt"
    _, peak = _traced_peak(write_tensor, path, cube)
    assert peak < cube.nbytes / 16
    back, peak = _traced_peak(read_tensor, path)
    assert np.array_equal(back, cube)
    assert peak - back.nbytes < cube.nbytes / 16


@pytest.mark.parametrize(
    "shape, axes",
    [((40, 50, 70), (2, 1, 0)), (TWO_SLABS, (1, 2, 0)), ((300, 7), (1, 0))],
)
def test_non_contiguous_view_writes_its_c_order_bytes(tmp_path, shape, axes):
    view = np.random.default_rng(5).standard_normal(shape).transpose(axes)
    assert not view.flags.c_contiguous
    write_tensor(tmp_path / "view.cmt", view)
    write_tensor(tmp_path / "copy.cmt", np.ascontiguousarray(view))
    blob = (tmp_path / "view.cmt").read_bytes()
    assert blob == (tmp_path / "copy.cmt").read_bytes()
    assert blob.endswith(np.ascontiguousarray(view).tobytes())


@pytest.mark.parametrize("index", EDGES)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_write_refuses_each_edge_entry(tmp_path, bad, index):
    cube = np.zeros(TWO_SLABS)
    cube.flat[index] = bad
    with pytest.raises(ValueError, match="^refusing to write non-finite values$"):
        write_tensor(tmp_path / "t.cmt", cube)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("index", EDGES)
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_read_rejects_each_edge_entry(tmp_path, bad, index):
    path = tmp_path / "t.cmt"
    write_tensor(path, np.zeros(TWO_SLABS))
    blob = bytearray(path.read_bytes())
    at = 6 + 8 * 3 + 8 * index
    blob[at : at + 8] = struct.pack("<d", bad)
    path.write_bytes(bytes(blob))
    with pytest.raises(TensorFileError, match="^non-finite values in payload of "):
        read_tensor(path)


@pytest.mark.parametrize(
    "shape, payload",
    [((2**62 + 1, 4, 1), 32), ((2**33, 2**33, 1), 0)],
    ids=["wraps-to-4", "wraps-to-0"],
)
def test_header_whose_element_count_overflows_int64(tmp_path, shape, payload):
    # in int64 the element counts wrap to 4 and 0, which would match these payloads
    path = tmp_path / "bad.cmt"
    path.write_bytes(b"CMT1" + bytes([0x01, 0x03]) + struct.pack("<3Q", *shape) + bytes(payload))
    with pytest.raises(TensorFileError, match="payload length mismatch.*offset"):
        read_tensor(path)


def test_failed_rename_removes_the_temporary_file(tmp_path):
    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(OSError):
        write_tensor(target, np.zeros((2, 2)))
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
    assert list(target.iterdir()) == []


def test_failed_write_removes_the_temporary_file(tmp_path, monkeypatch):
    class FillsAfterTheHeader(io.FileIO):
        def write(self, b):
            if self.tell() > 0:
                raise OSError(28, "No space left on device")
            return super().write(b)

    monkeypatch.setattr(
        tensorfile_module, "open", lambda path, mode: FillsAfterTheHeader(path, "w"),
        raising=False,
    )
    with pytest.raises(OSError, match="No space left"):
        write_tensor(tmp_path / "t.cmt", np.zeros((4, 4)))
    assert list(tmp_path.iterdir()) == []


def _write_envi(tmp_path, cube, dtype, byte_order, stem="scene", offset=0):
    lines, samples, bands = cube.shape
    hdr = tmp_path / f"{stem}.hdr"
    hdr.write_text(
        "ENVI\n"
        "description = {\n  synthetic test raster\n}\n"
        f"samples = {samples}\n"
        f"lines = {lines}\n"
        f"bands = {bands}\n"
        "header offset = %d\n" % offset
        + "data type = %s\n" % dtype
        + "interleave = bsq\n"
        f"byte order = {byte_order}\n"
    )
    codes = {"4": np.float32, "5": np.float64, "2": np.int16}
    np_dtype = np.dtype(codes[dtype]).newbyteorder(">" if byte_order else "<")
    bsq = cube.transpose(2, 0, 1).astype(np_dtype)
    (tmp_path / f"{stem}.img").write_bytes(b"\0" * offset + bsq.tobytes())
    return hdr


def test_envi_roundtrip_float64(tmp_path):
    rng = np.random.default_rng(1)
    cube = rng.random((3, 4, 5))
    hdr = _write_envi(tmp_path, cube, "5", 0)
    assert np.array_equal(read_envi(hdr), cube)


def test_envi_header_skips_blank_and_comment_lines(tmp_path):
    cube = np.random.default_rng(3).random((3, 4, 2))
    hdr = _write_envi(tmp_path, cube, "5", 0)
    text = hdr.read_text()
    hdr.write_text(text.replace("samples =", "\n; a comment line, no key\n\nsamples =", 1))
    assert np.array_equal(read_envi(hdr), cube)


def test_envi_float32_big_endian_with_offset(tmp_path):
    rng = np.random.default_rng(2)
    cube = rng.random((4, 3, 2)).astype(np.float32).astype(float)
    hdr = _write_envi(tmp_path, cube, "4", 1, offset=16)
    assert np.allclose(read_envi(hdr), cube, atol=0)


def test_envi_integer_data(tmp_path):
    cube = np.arange(24, dtype=float).reshape(2, 3, 4)
    hdr = _write_envi(tmp_path, cube, "2", 0)
    assert np.array_equal(read_envi(hdr), cube)


@pytest.mark.parametrize(
    "dtype, byte_order, offset",
    [("4", 0, 0), ("2", 1, 12), ("5", 0, 0)],
    ids=["float32-le", "int16-be-offset", "float64"],
)
def test_envi_reads_the_bytes_of_a_whole_raster_read(tmp_path, dtype, byte_order, offset):
    cube = np.round(np.random.default_rng(6).standard_normal((7, 5, 6)) * 1000)
    hdr = _write_envi(tmp_path, cube, dtype, byte_order, offset=offset)
    # the whole-raster reference: one read, then a C-order float copy
    codes = {"4": np.float32, "5": np.float64, "2": np.int16}
    raw = np.fromfile(tmp_path / "scene.img", dtype=np.dtype(codes[dtype]).newbyteorder(
        ">" if byte_order else "<"), offset=offset)
    expected = np.ascontiguousarray(raw.reshape(6, 7, 5).transpose(1, 2, 0), dtype=float)
    got = read_envi(hdr)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("byte_order", ["2", "big"])
def test_envi_rejects_a_byte_order_other_than_0_or_1(tmp_path, byte_order):
    # byte order 2 must not read a big-endian raster as little-endian
    hdr = _write_envi(tmp_path, np.array([[[1.0], [2.0]]]), "2", 1)
    hdr.write_text(hdr.read_text().replace("byte order = 1", f"byte order = {byte_order}"))
    with pytest.raises(TensorFileError, match="'byte order'"):
        read_envi(hdr)


def test_envi_read_holds_one_band_beyond_the_cube(tmp_path):
    cube = np.random.default_rng(7).random((128, 128, 16))  # 2 MB
    hdr = _write_envi(tmp_path, cube, "5", 0)
    back, peak = _traced_peak(read_envi, hdr)
    assert np.array_equal(back, cube)
    assert peak - back.nbytes < cube.nbytes / 4


@pytest.mark.parametrize("cut", [1, 8 * 20, 8 * 20 * 3 - 8])
def test_envi_truncated_raster(tmp_path, cut):
    hdr = _write_envi(tmp_path, np.ones((4, 5, 3)), "5", 0)
    img = tmp_path / "scene.img"
    img.write_bytes(img.read_bytes()[:-cut])
    with pytest.raises(TensorFileError, match="expected 60 samples, found"):
        read_envi(hdr)


@pytest.mark.parametrize(
    "field, value",
    [("samples", -2), ("lines", -3), ("samples", 0), ("bands", 0), ("header offset", -8)],
)
def test_envi_rejects_out_of_range_header_numbers(tmp_path, field, value):
    hdr = _write_envi(tmp_path, np.ones((3, 4, 2)), "5", 0)
    text = hdr.read_text().splitlines()
    at = next(i for i, line in enumerate(text) if line.startswith(field + " ="))
    text[at] = f"{field} = {value}"
    hdr.write_text("\n".join(text) + "\n")
    with pytest.raises(TensorFileError, match=rf"ENVI field '{field}' must be >= \d, got {value}$"):
        read_envi(hdr)


def test_envi_rejects_non_bsq(tmp_path):
    hdr = tmp_path / "x.hdr"
    hdr.write_text("ENVI\nsamples = 2\nlines = 2\nbands = 1\n"
                   "data type = 5\ninterleave = bil\nbyte order = 0\n")
    (tmp_path / "x.img").write_bytes(b"\0" * 32)
    with pytest.raises(TensorFileError, match="interleave"):
        read_envi(hdr)


def test_envi_missing_image_file(tmp_path):
    hdr = tmp_path / "lonely.hdr"
    hdr.write_text("ENVI\nsamples = 2\nlines = 2\nbands = 1\n"
                   "data type = 5\ninterleave = bsq\n")
    with pytest.raises(TensorFileError, match="no image file"):
        read_envi(hdr)


def test_load_cube_dispatches_on_suffix(tmp_path):
    rng = np.random.default_rng(3)
    cube = rng.random((2, 3, 4))
    cmt = tmp_path / "c.cmt"
    write_tensor(cmt, cube)
    hdr = _write_envi(tmp_path, cube, "5", 0)
    assert np.array_equal(load_cube(cmt), cube)
    assert np.array_equal(load_cube(hdr), cube)


@pytest.mark.parametrize("index", EDGES)
def test_envi_rejects_each_edge_entry(tmp_path, index):
    cube = np.zeros(TWO_SLABS)
    cube.flat[index] = np.nan
    hdr = _write_envi(tmp_path, cube, "5", 0)
    with pytest.raises(TensorFileError, match="non-finite values in raster$"):
        read_envi(hdr)


_ENVI_FIELDS = "samples = 2\nlines = 2\nbands = 1\ndata type = 5\n"


@pytest.mark.parametrize("name, content, message", [
    ("t.cmt", b"CMT1\x01\x03" + struct.pack("<Q", 4), "truncated shape header (error at offset 14)"),
    ("t.cmt", b"CMT1\x01\x02" + struct.pack("<2Q", 0, 3), "zero dimension in shape (0, 3) at offset 6"),
    ("x.hdr", _ENVI_FIELDS, "{hdr}: missing ENVI signature line"),
    ("x.hdr", "ENVI\n" + _ENVI_FIELDS.replace("lines = 2\n", ""), "{hdr}: missing ENVI field 'lines'"),
    ("x.hdr", "ENVI\n" + _ENVI_FIELDS.replace("bands = 1", "bands = one"),
     "{hdr}: ENVI field 'bands' is not an integer: 'one'"),
    ("x.hdr", "ENVI\n" + _ENVI_FIELDS.replace("data type = 5\n", ""),
     "{hdr}: missing ENVI field 'data type'"),
    ("x.hdr", "ENVI\n" + _ENVI_FIELDS.replace("data type = 5", "data type = 3"),
     "{hdr}: unsupported data type 3"),
], ids=["shape-header", "zero-dimension", "no-envi-line", "missing-field", "non-integer-field",
        "no-data-type", "unsupported-data-type"])
def test_file_guards_name_what_they_reject(tmp_path, name, content, message):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
        (tmp_path / "x.img").write_bytes(bytes(32))
    with pytest.raises(TensorFileError, match=f"^{re.escape(message.format(hdr=path))}$"):
        load_cube(path)
