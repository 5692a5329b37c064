"""Ray generation, stratified/hierarchical sampling, and volume compositing.

render_rays is the one hierarchical pipeline (stratify, coarse field,
composite, importance-resample, fine field, composite) behind ground-truth
frames, model frames and training; the callers differ only in the field
functions they pass and the tape those return Vars on.

Compositing uses the standard alpha estimator for the ray integral:
alpha_i = 1 - exp(-sigma_i * delta_i), T_i = prod_{j<i} (1 - alpha_j),
C = sum_i T_i alpha_i c_i + T_end * background. delta_i is the gap to the
next sample; the last delta runs to t_far. composite_batch is the one
implementation; render_rays calls it through composite_rays_tape, a single
tape node with the closed-form vector-Jacobian product.

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
    rows, cols = np.asarray(rows, dtype=np.float64), np.asarray(cols, dtype=np.float64)
    if np.any((rows < 0) | (rows >= pose.height) | (cols < 0) | (cols >= pose.width)):
        raise UsageError(f"pixels outside the {pose.height}x{pose.width} image")
    d = np.stack([(cols + 0.5 - pose.cx) / pose.focal,
                  -(rows + 0.5 - pose.cy) / pose.focal,
                  -np.ones_like(rows)], axis=1) @ pose.R.T
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def stratified_t(t_near: float, t_far: float, n: int, rng) -> np.ndarray:
    """One jittered t per bin of an n-bin partition of [t_near, t_far]."""
    width = (t_far - t_near) / n
    return t_near + width * np.arange(n) + width * rng.random(n)


def hierarchical_resample(coarse_t: np.ndarray, weights: np.ndarray, n_fine: int, rng,
                          t_near: float, t_far: float) -> np.ndarray:
    """Importance-sample fine t-values from the coarse weights, merged and sorted.

    The piecewise-constant pdf lives on bins around each coarse sample
    (midpoint edges, ends clamped to t_near/t_far). All-zero weights fall
    back to one jittered sample per bin of n_fine over [t_near, t_far].
    """
    coarse_t = np.asarray(coarse_t, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if coarse_t.shape != weights.shape:
        raise DimensionError("coarse_t and weights must align")
    if not np.all(np.isfinite(weights)):
        raise NumericError("non-finite sample weights")
    if np.any(weights < 0):
        raise UsageError("weights must be nonnegative")
    total = weights.sum()
    if total == 0.0:
        width = (t_far - t_near) / n_fine
        fine = t_near + width * np.arange(n_fine) + width * rng.random(n_fine)
        return np.sort(np.concatenate([coarse_t, fine]))
    edges = np.empty(coarse_t.size + 1)
    edges[0] = t_near
    edges[-1] = t_far
    edges[1:-1] = 0.5 * (coarse_t[:-1] + coarse_t[1:])
    cdf = np.cumsum(weights) / total
    u = rng.random(n_fine)
    k = np.searchsorted(cdf, u, side="right")
    k = np.minimum(k, weights.size - 1)
    cdf_lo = np.where(k > 0, cdf[k - 1], 0.0)
    frac = (u - cdf_lo) / (cdf[k] - cdf_lo)
    # rounding in the cdf can push frac a hair past 1; keep samples in range
    fine = np.clip(edges[k] + frac * (edges[k + 1] - edges[k]), t_near, t_far)
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


def render_rays(pose: CameraPose, rows, cols, *, key, step: int, frame: int,
                t_near: float, t_far: float, n_coarse: int, n_fine: int, coarse_fn, fine_fn,
                background, ts=None):
    """Hierarchical volume rendering of the rays through pixels (rows, cols) of pose.

    Pixel p = row * width + col draws its coarse jitter, then its fine
    samples, from pixel_rng(key, step, frame, p). coarse_fn and fine_fn map
    points X (R*S, 3) and ray directions (R, 3) to Vars (rgb (R*S, 3), sigma
    (R*S,)), and compositing runs on their tape: recording for training,
    Tape(record=False) for rendering. n_fine > 0 adds a fine pass over the
    coarse t-values merged with importance samples of the coarse weights.
    ts=(coarse, merged) replays frozen t-values and draws nothing. Returns
    (colors Var (R, 3), ts (R, S), weights (R, S)) per pass, coarse first.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    dirs = pixel_dirs(pose, rows, cols)
    origin = np.asarray(pose.t, dtype=np.float64)
    bg = np.broadcast_to(np.asarray(background, dtype=np.float64), (dirs.shape[0], 3))

    def run(fn, t):
        X = origin[None, None, :] + t[:, :, None] * dirs[:, None, :]
        rgb, sigma = fn(X.reshape(-1, 3), dirs)
        colors, w = composite_rays_tape(sigma, rgb, t, t_far, bg)
        return colors, t, w

    if ts is None:
        rngs = [pixel_rng(key, step, frame, int(p)) for p in rows * pose.width + cols]
        tc = np.stack([stratified_t(t_near, t_far, n_coarse, g) for g in rngs])
    else:
        tc = ts[0]
    passes = [run(coarse_fn, tc)]
    if n_fine > 0:
        w = passes[0][2]
        merged = ts[1] if ts is not None else np.stack(
            [hierarchical_resample(tc[r], w[r], n_fine, g, t_near, t_far)
             for r, g in enumerate(rngs)])
        passes.append(run(fine_fn, merged))
    return passes


def render_image(field_fn, pose: CameraPose, *, t_near: float, t_far: float,
                 n_coarse: int, n_fine: int = 0, fine_field_fn=None,
                 background, seed: int = 0, frame_index: int = 0,
                 return_depth: bool = False):
    """Render every pixel of one frame, row-major, through render_rays.

    field_fn and fine_field_fn (default: field_fn) follow render_rays' field
    contract. Deterministic for a given (seed, frame_index): every render
    draws from pixel stream step 0, which is why training keys its pixels at
    step + 1.
    """
    H, W = pose.height, pose.width
    rows, cols = np.divmod(np.arange(H * W), W)
    colors, ts, w = render_rays(
        pose, rows, cols, key=philox_key(seed), step=0, frame=frame_index, t_near=t_near,
        t_far=t_far, n_coarse=n_coarse, n_fine=n_fine, coarse_fn=field_fn,
        fine_fn=fine_field_fn or field_fn, background=background)[-1]
    img = colors.value.reshape(H, W, 3)
    if return_depth:
        return img, (w * ts).sum(axis=1).reshape(H, W)
    return img
