"""Output checks computed apart from the code under test.

Each reference here re-derives a result from its definition (closed-form
integrals, the PPM byte layout, a per-pixel ray marcher written with plain
loops) instead of calling the minerf function that produced it. Only the
field MLP itself is shared: the pixel reference evaluates it one sample at a
time through field.field_forward.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# last word of the per-pixel Philox counter (step, frame, pixel, tag); the
# renderer's docstring fixes this stream layout
PIXEL_STREAM_TAG = 0x706978


def sha256_tree(root) -> str:
    """SHA-256 over relative path and bytes of every file, in sorted path order."""
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def read_p6(path) -> np.ndarray:
    """Raster of a binary P6 file written as 'P6\\n{w} {h}\\n255\\n' + bytes."""
    data = Path(path).read_bytes()
    magic, size, maxval, raster = data.split(b"\n", 3)
    w, h = (int(x) for x in size.split())
    if magic != b"P6" or maxval != b"255" or len(raster) != w * h * 3:
        raise ValueError(f"{path}: not a {w}x{h} 8-bit P6 image")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, 3)


def background_outside_boxes(data_dir) -> tuple[int, int, list]:
    """Check every pixel outside each frame's support box is the quantised background.

    Returns (frames checked, frames missing or unreadable, mismatch messages).
    """
    checked, missing, bad = 0, 0, []
    for meta_path in sorted(Path(data_dir).glob("*/meta.json")):
        meta = json.loads(meta_path.read_text())
        bg = np.rint(np.asarray(meta["background"]) * 255.0).astype(np.uint8)
        for fr in meta["frames"]:
            path = meta_path.parent / f"frame_{fr['index']:04d}.ppm"
            try:
                img = read_p6(path)
            except (OSError, ValueError):
                missing += 1
                continue
            checked += 1
            r0, r1, c0, c1 = fr["box"]
            outside = np.ones(img.shape[:2], dtype=bool)
            outside[r0:r1, c0:c1] = False
            if not np.all(img[outside] == bg):
                bad.append(f"{path.parent.name}/{path.name}")
    return checked, missing, bad


def pixel_rays(R, t, focal, cx, cy, width, height):
    """World-space origin and unit direction through every pixel centre, row-major."""
    rows, cols = np.divmod(np.arange(width * height), width)
    d_cam = np.stack([(cols + 0.5 - cx) / focal, -(rows + 0.5 - cy) / focal,
                      -np.ones(rows.size)], axis=1)
    d = d_cam @ np.asarray(R).T
    return np.asarray(t, dtype=np.float64), d / np.linalg.norm(d, axis=1, keepdims=True)


def ellipsoid_frame(meta, frame_index) -> np.ndarray:
    """Closed-form neutral-expression image of one identity's ellipsoid.

    With e = 0 the density is s * max(0, 1 - |x / a|^2) and the colour is the
    constant base colour c. Along a ray x = o + t d the bracket is
    A (t - t1)(t2 - t) with A = |d / a|^2, so the optical depth is
    tau = s A L^3 / 6 for chord length L = t2 - t1, and the pixel is
    c (1 - exp(-tau)) + exp(-tau) bg.
    """
    pose = meta["frames"][frame_index]["pose"]
    o, d = pixel_rays(np.reshape(pose["R"], (3, 3)), pose["t"], pose["focal"], pose["cx"],
                      pose["cy"], pose["width"], pose["height"])
    ident = meta["identity"]
    a = np.asarray(ident["semi_axes"])
    y0, y1 = o / a, d / a
    A = (y1 * y1).sum(axis=1)
    B = y1 @ y0
    disc = B * B - A * ((y0 * y0).sum() - 1.0)
    L = 2.0 * np.sqrt(np.maximum(disc, 0.0)) / A
    tau = ident["density_scale"] * A * L ** 3 / 6.0
    c = np.asarray(ident["base_color"])
    bg = np.asarray(meta["background"])
    img = c[None, :] * (1.0 - np.exp(-tau))[:, None] + np.exp(-tau)[:, None] * bg[None, :]
    return img.reshape(pose["height"], pose["width"], 3)


def psnr_db(a, b) -> float:
    return float(10.0 * np.log10(1.0 / np.mean((np.asarray(a) - np.asarray(b)) ** 2)))


def m_condition(params, e, i) -> np.ndarray:
    """The M module, C[(U1 e) * (U2 i)] + W2 e + W3 i, in plain numpy."""
    return (params["cond.C"] @ ((params["cond.U1"] @ e) * (params["cond.U2"] @ i))
            + params["cond.W2"] @ e + params["cond.W3"] @ i)


def _weights(ts, sigma, t_far):
    """Product-form alpha compositing weights and the transmittance left at t_far."""
    w = np.empty(len(ts))
    trans = 1.0
    for j in range(len(ts)):
        delta = (ts[j + 1] if j + 1 < len(ts) else t_far) - ts[j]
        alpha = 1.0 - np.exp(-sigma[j] * delta)
        w[j] = trans * alpha
        trans *= 1.0 - alpha
    return w, trans


def reference_pixel(field, arch, params, cfg, e, identity, pose, t_near, t_far, bg,
                    frame_id, pixel) -> np.ndarray:
    """Colour of one model pixel, marched sample by sample.

    Follows the documented render: a Philox stream keyed on the run seed with
    counter (step 0, frame, pixel, tag); one jittered sample per coarse bin;
    fine samples drawn by inverting the piecewise-constant CDF of the coarse
    weights over midpoint bins; compositing over the merged samples.
    """
    key = np.random.SeedSequence(cfg["seed"]).generate_state(2, np.uint64)
    rng = np.random.Generator(np.random.Philox(
        key=key, counter=[0, frame_id, pixel, PIXEL_STREAM_TAG]))
    o, dirs = pixel_rays(pose.R, pose.t, pose.focal, pose.cx, pose.cy, pose.width,
                         pose.height)
    d = dirs[pixel]
    cond = m_condition(params, np.asarray(e), params[f"identity.{identity}"])
    latent = np.zeros(cfg["conditioning"]["d_latent"])
    n_c, n_f = cfg["render"]["n_coarse"], cfg["render"]["n_fine"]

    def march(prefix, ts):
        w = {k[len(prefix) + 1:]: v for k, v in params.items() if k.startswith(prefix + ".")}
        rgb = np.empty((len(ts), 3))
        sigma = np.empty(len(ts))
        for j, t in enumerate(ts):
            rgb[j], sigma[j] = field.field_forward(arch, w, cond, latent, o + t * d, d)
        return rgb, sigma

    width = (t_far - t_near) / n_c
    u = rng.random(n_c)
    tc = [t_near + width * j + width * u[j] for j in range(n_c)]
    rgb, sigma = march("coarse", tc)
    w, _ = _weights(tc, sigma, t_far)
    total = w.sum()
    u = rng.random(n_f)
    if total == 0.0:
        fine = [t_near + (t_far - t_near) / n_f * (j + u[j]) for j in range(n_f)]
    else:
        edges = [t_near] + [0.5 * (tc[j] + tc[j + 1]) for j in range(n_c - 1)] + [t_far]
        cdf = np.cumsum(w) / total
        fine = []
        for uj in u:
            k = 0
            while k < n_c - 1 and cdf[k] <= uj:
                k += 1
            lo = cdf[k - 1] if k > 0 else 0.0
            frac = (uj - lo) / (cdf[k] - lo)
            fine.append(min(max(edges[k] + frac * (edges[k + 1] - edges[k]), t_near), t_far))
    ts = sorted(tc + fine)
    rgb, sigma = march("fine", ts)
    w, trans = _weights(ts, sigma, t_far)
    return (w[:, None] * rgb).sum(axis=0) + trans * np.asarray(bg)
