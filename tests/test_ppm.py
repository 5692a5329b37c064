import numpy as np
import pytest

from minerf import ppm
from minerf.errors import UsageError


def test_p6_exact_byte_layout(tmp_path):
    img = np.zeros((2, 3, 3))
    img[0, 0] = [1.0, 0.0, 0.0]
    img[1, 2] = [0.0, 0.5, 1.0]
    path = tmp_path / "img.ppm"
    ppm.write_ppm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    raster = raw[len(b"P6\n3 2\n255\n"):]
    assert len(raster) == 2 * 3 * 3
    assert raster[0:3] == bytes([255, 0, 0])        # top-left pixel first
    assert raster[-3:] == bytes([0, 128, 255])      # bottom-right pixel last


def test_roundtrip_quantized(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (5, 4, 3))
    path = tmp_path / "img.ppm"
    ppm.write_ppm(path, img)
    back = ppm.read_ppm(path)
    assert back.shape == (5, 4, 3)
    assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-12


def test_u8_round_trip_is_idempotent_on_every_byte():
    raw = np.arange(256, dtype=np.uint8)
    assert np.array_equal(ppm.to_u8(ppm.from_u8(raw)), raw)
    x = np.linspace(-0.1, 1.1, 1001)
    once = ppm.from_u8(ppm.to_u8(x))
    assert np.array_equal(ppm.from_u8(ppm.to_u8(once)), once)


def test_pgm16_depth(tmp_path):
    depth = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "d.pgm"
    ppm.write_pgm16(path, depth, max_val=4.0)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n65535\n")
    vals = np.frombuffer(raw[len(b"P5\n2 2\n65535\n"):], dtype=">u2").reshape(2, 2)
    assert vals[0, 0] == 0 and vals[1, 1] == 65535
    assert vals[0, 1] == round(65535 / 4)


@pytest.mark.parametrize("blob", [b"P6\n3 2\n255\n" + bytes(17),
                                  b"P6\n3 2\n255\n",
                                  b"P6\nthree 2\n255\n" + bytes(18),
                                  b"P6\n-3 2\n255\n" + bytes(18),
                                  b"P6\n3 2\n255\n" + bytes(20),
                                  b"P6\n3 2\n255\n\n" + bytes(20)],
                         ids=["one_byte_short", "no_raster", "word_width", "negative_width",
                              "two_bytes_long", "extra_whitespace_then_two_bytes"])
def test_read_ppm_rejects_short_raster_and_bad_size(tmp_path, blob):
    path = tmp_path / "bad.ppm"
    path.write_bytes(blob)
    with pytest.raises(UsageError, match="bad.ppm"):
        ppm.read_ppm(path)
