"""Ray generation, stratified/hierarchical sampling, and volume compositing.

Compositing uses the standard alpha estimator for the ray integral:
alpha_i = 1 - exp(-sigma_i * delta_i), T_i = prod_{j<i} (1 - alpha_j),
C = sum_i T_i alpha_i c_i + T_end * background. delta_i is the gap to the
next sample; the last delta runs to t_far. composite_batch is the one
implementation; training calls it through composite_rays_tape, a single tape
node with the closed-form vector-Jacobian product.

RNG streams are counter-based (Philox) keyed on (step, frame, pixel) so
per-ray work is order-independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, NumericError, UsageError

_PIXEL_STREAM = 0x706978  # tags the per-pixel jitter stream
_STEP_STREAM = 0x737470   # tags per-step choices (frame, ray subset)


def philox_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def pixel_rng(key, step: int, frame: int, pixel: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=key, counter=[step, frame, pixel, _PIXEL_STREAM]))


def step_rng(key, step: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=key, counter=[step, 0, 0, _STEP_STREAM]))


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world rotation R, camera center t, pinhole intrinsics."""

    R: np.ndarray
    t: np.ndarray
    focal: float
    cx: float
    cy: float
    width: int
    height: int

    def validate(self):
        if np.max(np.abs(self.R.T @ self.R - np.eye(3))) > 1e-9:
            raise UsageError("R is not orthonormal")
        if abs(np.linalg.det(self.R) - 1.0) > 1e-9:
            raise UsageError("R is not a proper rotation")
        return self


@dataclass(frozen=True)
class Ray:
    origin: np.ndarray
    direction: np.ndarray
    t_near: float
    t_far: float

    def validate(self):
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-12:
            raise UsageError("ray direction must be unit length")
        if not (0.0 < self.t_near < self.t_far):
            raise UsageError("require 0 < t_near < t_far")
        return self


def _deltas(ts: np.ndarray, t_far: float) -> np.ndarray:
    """Gaps to the next sample along each row of ts (R, S); the last runs to t_far."""
    deltas = np.empty_like(ts)
    deltas[:, :-1] = np.diff(ts, axis=1)
    deltas[:, -1] = t_far - ts[:, -1]
    return deltas


@dataclass(frozen=True)
class SampleSet:
    """Sorted t-values with per-sample color/density along one ray."""

    t: np.ndarray       # (n,) strictly increasing within [t_near, t_far]
    sigma: np.ndarray   # (n,)
    rgb: np.ndarray     # (n, 3)
    t_far: float

    def deltas(self) -> np.ndarray:
        d = _deltas(self.t[None, :], self.t_far)[0]
        if np.any(d <= 0):
            raise UsageError("t-values must be strictly increasing and below t_far")
        return d


def pixel_dirs(pose: CameraPose, rows, cols) -> np.ndarray:
    """Unit world-space directions (n, 3) through the centers of pixels (rows, cols)."""
    rows = np.asarray(rows, dtype=np.float64)
    d = np.stack([(np.asarray(cols, dtype=np.float64) + 0.5 - pose.cx) / pose.focal,
                  -(rows + 0.5 - pose.cy) / pose.focal,
                  -np.ones_like(rows)], axis=1) @ pose.R.T
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def rays_from_camera(pose: CameraPose, pixel, t_near: float = 0.05,
                     t_far: float = 100.0) -> Ray:
    """Ray through the center of pixel (row, col), in world coordinates."""
    row, col = pixel
    if not (0 <= row < pose.height and 0 <= col < pose.width):
        raise UsageError(f"pixel {pixel} outside {pose.height}x{pose.width} image")
    return Ray(origin=np.array(pose.t, dtype=np.float64),
               direction=pixel_dirs(pose, [row], [col])[0], t_near=t_near, t_far=t_far)


def ray_grid(pose: CameraPose):
    """Directions for every pixel, row-major (H*W, 3), unit length."""
    rows, cols = np.meshgrid(np.arange(pose.height), np.arange(pose.width), indexing="ij")
    return pixel_dirs(pose, rows.reshape(-1), cols.reshape(-1))


def stratified_samples(ray: Ray, n: int, jitter: bool, rng=None) -> np.ndarray:
    """One t per bin of an n-bin partition of [t_near, t_far]."""
    if n < 1:
        raise UsageError("need at least one sample")
    return stratified_t(ray.t_near, ray.t_far, n, jitter, rng)


def stratified_t(t_near: float, t_far: float, n: int, jitter: bool, rng=None) -> np.ndarray:
    width = (t_far - t_near) / n
    base = t_near + width * np.arange(n)
    if jitter:
        return base + width * rng.random(n)
    return base + 0.5 * width


def hierarchical_resample(coarse_t: np.ndarray, weights: np.ndarray, n_fine: int, rng,
                          t_near: float | None = None, t_far: float | None = None) -> np.ndarray:
    """Importance-sample fine t-values from the coarse weights, merged and sorted.

    The piecewise-constant pdf lives on bins around each coarse sample
    (midpoint edges, ends clamped to t_near/t_far when given). All-zero
    weights fall back to stratified resampling over the full interval.
    """
    coarse_t = np.asarray(coarse_t, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if coarse_t.shape != weights.shape:
        raise DimensionError("coarse_t and weights must align")
    if not np.all(np.isfinite(weights)):
        raise NumericError("non-finite sample weights")
    if np.any(weights < 0):
        raise UsageError("weights must be nonnegative")
    lo = coarse_t[0] if t_near is None else t_near
    hi = coarse_t[-1] if t_far is None else t_far
    total = weights.sum()
    if total == 0.0:
        fine = stratified_t(lo, hi, n_fine, True, rng)
        return np.sort(np.concatenate([coarse_t, fine]))
    edges = np.empty(coarse_t.size + 1)
    edges[0] = lo
    edges[-1] = hi
    edges[1:-1] = 0.5 * (coarse_t[:-1] + coarse_t[1:])
    cdf = np.cumsum(weights) / total
    u = rng.random(n_fine)
    k = np.searchsorted(cdf, u, side="right")
    k = np.minimum(k, weights.size - 1)
    cdf_lo = np.where(k > 0, cdf[k - 1], 0.0)
    frac = (u - cdf_lo) / (cdf[k] - cdf_lo)
    # rounding in the cdf can push frac a hair past 1; keep samples in range
    fine = np.clip(edges[k] + frac * (edges[k + 1] - edges[k]), lo, hi)
    return np.sort(np.concatenate([coarse_t, fine]))


def composite(samples: SampleSet, background) -> np.ndarray:
    """Alpha-composite one ray's samples over a background color."""
    if not np.all(np.isfinite(samples.sigma)):
        raise NumericError("non-finite density")
    rgb, _, _ = composite_batch(samples.t[None, :], samples.sigma[None, :],
                                samples.rgb[None, :, :], samples.t_far,
                                np.asarray(background, dtype=np.float64)[None, :])
    return rgb[0]


def composite_batch(ts: np.ndarray, sigma: np.ndarray, rgb: np.ndarray, t_far: float,
                    background: np.ndarray):
    """Vectorized compositing over rays.

    ts, sigma: (R, S); rgb: (R, S, 3); background: (R, 3).
    Returns (colors (R,3), trans (R,S), weights (R,S)); trans[:, k] is the
    transmittance past sample k, so trans[:, -1] is T_end.
    """
    alpha = -np.expm1(-sigma * _deltas(ts, t_far))
    trans = np.cumprod(1.0 - alpha, axis=1)
    T = np.concatenate([np.ones((ts.shape[0], 1)), trans[:, :-1]], axis=1)
    w = T * alpha
    colors = (w[:, :, None] * rgb).sum(axis=1) + trans[:, -1:] * background
    return colors, trans, w


def composite_rays_tape(sigma, rgb, ts: np.ndarray, t_far: float, bg: np.ndarray):
    """composite_batch as one tape node: sigma (R*S,) and rgb (R*S,3) Vars, ts (R,S) fixed.

    Returns the colors (R,3) as a Var and the weights (R,S) as an array for
    importance resampling. With s_k = sigma_k * delta_k, the vector-Jacobian
    product is dC/ds_k = T_{k+1} c_k - (sum_{i>k} w_i c_i + T_end bg) and
    dC/dc_k = w_k, from the transmittances and weights of the forward pass.
    """
    tape = ad._tape_of(sigma, rgb)
    sigma, rgb = ad._coerce(tape, sigma), ad._coerce(tape, rgb)
    R, S = ts.shape
    c = rgb.value.reshape(R, S, 3)
    colors, trans, w = composite_batch(ts, sigma.value.reshape(R, S), c, t_far, bg)

    def vjp(g):
        gc = (c * g[:, None, :]).sum(axis=2)
        # suffix sums sum_{i>k} w_i (g . c_i), seeded with T_end (g . bg)
        end = (trans[:, -1] * (g * bg).sum(axis=1))[:, None]
        tail = np.cumsum(np.concatenate([end, (w * gc)[:, :0:-1]], axis=1), axis=1)
        g_sigma = (trans * gc - tail[:, ::-1]) * _deltas(ts, t_far)
        return g_sigma.reshape(R * S), (w[:, :, None] * g[:, None, :]).reshape(R * S, 3)

    return tape._push("composite", colors, (sigma.idx, rgb.idx), vjp), w


def render_image(field_fn, pose: CameraPose, *, t_near: float, t_far: float,
                 n_coarse: int, n_fine: int = 0, fine_field_fn=None,
                 background, seed: int = 0, frame_index: int = 0,
                 jitter: bool = True, return_depth: bool = False):
    """Render one frame by per-pixel ray marching.

    field_fn(X (n,3), V (n,3)) -> (rgb (n,3), sigma (n,)). With n_fine > 0 a
    second pass evaluates fine_field_fn (default: field_fn) on the merged
    coarse+fine t-values, importance-sampled from the coarse weights.
    Deterministic for a given (seed, frame_index): every render draws from
    pixel stream step 0, which is why training keys its pixels at step + 1.
    """
    H, W = pose.height, pose.width
    npix = H * W
    key = philox_key(seed)
    dirs = ray_grid(pose)
    origin = np.asarray(pose.t, dtype=np.float64)

    rngs = ([pixel_rng(key, 0, frame_index, p) for p in range(npix)]
            if jitter or n_fine > 0 else [None] * npix)
    tc = np.stack([stratified_t(t_near, t_far, n_coarse, jitter, g) for g in rngs])

    bg = np.broadcast_to(np.asarray(background, dtype=np.float64), (npix, 3))

    def eval_pass(fn, ts):
        S = ts.shape[1]
        X = origin[None, None, :] + ts[:, :, None] * dirs[:, None, :]
        V = np.repeat(dirs, S, axis=0)
        rgb, sigma = fn(X.reshape(-1, 3), V)
        return rgb.reshape(npix, S, 3), sigma.reshape(npix, S)

    rgb_c, sig_c = eval_pass(field_fn, tc)
    colors, _, w = composite_batch(tc, sig_c, rgb_c, t_far, bg)
    ts = tc
    if n_fine > 0:
        merged = np.stack([hierarchical_resample(tc[p], w[p], n_fine, rngs[p], t_near, t_far)
                           for p in range(npix)])
        rgb_f, sig_f = eval_pass(fine_field_fn or field_fn, merged)
        colors, _, w = composite_batch(merged, sig_f, rgb_f, t_far, bg)
        ts = merged
    img = colors.reshape(H, W, 3)
    if return_depth:
        depth = (w * ts).sum(axis=1).reshape(H, W)
        return img, depth
    return img
