import struct
import tracemalloc

import numpy as np
import pytest

from hsfusion import TensorFileError, load_cube, read_envi, read_tensor, write_tensor


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
    tracemalloc.start()
    try:
        back = read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, t)
    # the array itself plus the finiteness check's boolean mask
    assert peak < 1.25 * t.nbytes


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


def test_envi_float32_big_endian_with_offset(tmp_path):
    rng = np.random.default_rng(2)
    cube = rng.random((4, 3, 2)).astype(np.float32).astype(float)
    hdr = _write_envi(tmp_path, cube, "4", 1, offset=16)
    assert np.allclose(read_envi(hdr), cube, atol=0)


def test_envi_integer_data(tmp_path):
    cube = np.arange(24, dtype=float).reshape(2, 3, 4)
    hdr = _write_envi(tmp_path, cube, "2", 0)
    assert np.array_equal(read_envi(hdr), cube)


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
