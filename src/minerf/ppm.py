"""Binary PPM/PGM image I/O (P6 8-bit color, P5 16-bit depth)."""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def to_u8(img: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)


def from_u8(raw: np.ndarray) -> np.ndarray:
    """to_u8's inverse; from_u8(to_u8(x)) is the 8-bit round trip, and since
    to_u8(from_u8(b)) == b for every byte, a round-tripped image writes its bytes."""
    return raw.astype(np.float64) / 255.0


def write_ppm(path, img: np.ndarray):
    """Write an (H, W, 3) float image in [0,1] as binary P6."""
    h, w, c = img.shape
    if c != 3:
        raise UsageError("PPM wants 3 channels")
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(to_u8(img).tobytes())


def read_ppm(path) -> np.ndarray:
    """Read binary P6 back into float64 [0,1], shape (H, W, 3).

    UsageError names the file when the header is not 8-bit P6 with integer
    width and height, or the raster is not exactly width * height * 3 bytes.
    """
    with open(path, "rb") as f:
        data = f.read()
    # header: magic, width, height, maxval, single whitespace, then raster
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1
    if fields[0] != b"P6" or fields[3] != b"255":
        raise UsageError(f"unsupported PPM header {fields} in {path}")
    if not (fields[1].isdigit() and fields[2].isdigit()):
        raise UsageError(f"PPM width and height must be integers, got {fields[1:3]} in {path}")
    w, h = int(fields[1]), int(fields[2])
    if len(data) - pos != h * w * 3:
        raise UsageError(f"PPM raster of {path} has {max(len(data) - pos, 0)} bytes; "
                         f"{w}x{h} needs {h * w * 3}")
    return from_u8(np.frombuffer(data, dtype=np.uint8, offset=pos).reshape(h, w, 3))


def write_pgm16(path, depth: np.ndarray, max_val: float):
    """Write an (H, W) float array as big-endian 16-bit P5, max_val mapping to 65535."""
    h, w = depth.shape
    q = np.clip(np.rint(depth * (65535.0 / max_val)), 0, 65535).astype(">u2")
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(q.tobytes())
