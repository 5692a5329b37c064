"""Ray generation, stratified/hierarchical sampling, and volume compositing.

render_rays is the one hierarchical pipeline (stratify, coarse field,
composite, importance-resample, fine field, composite) behind ground-truth
frames, model frames and training; the callers differ only in the field
functions they pass: Vars on a training tape, or plain arrays for rendering.
Every call draws its sample positions from the pixel streams below.

Compositing uses the standard alpha estimator for the ray integral:
alpha_i = 1 - exp(-sigma_i * delta_i), T_i = prod_{j<i} (1 - alpha_j),
C = sum_i T_i alpha_i c_i + T_end * background. delta_i is the gap to the
next sample; the last delta runs to t_far. composite_batch is the one
compositor, over rows of rays (a single ray is a one-row batch); render_rays
calls it through composite_rays_tape, which given Vars is a single tape node
with the closed-form vector-Jacobian product.

RNG streams are counter-based (Philox-4x64-10; Salmon et al., "Parallel
Random Numbers: As Easy as 1, 2, 3", SC 2011) keyed on (step, frame, pixel),
so per-ray work is order-independent and reproducible. Pixel p's jitter is the
stream of np.random.Generator(np.random.Philox(key, counter=[step, frame, p,
_PIXEL_STREAM])), which pixel_rng computes for all pixels at once:
- numpy bumps the 256-bit counter before each block, so block b is Philox of
  the counter (step + 1 + b, frame, p, _PIXEL_STREAM), the first word carrying
  into frame;
- draw j is word j % 4 of block j // 4;
- each uniform is (u64 >> 11) * 2**-53;
- a ray draws n_coarse + n_fine uniforms: the first n_coarse jitter its coarse
  samples, the rest place its fine samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError, NumericError, UsageError

_PIXEL_STREAM = 0x706978  # tags the per-pixel jitter stream
_STEP_STREAM = 0x737470   # tags per-step choices (frame, ray subset)
_CHUNK_RAYS = 256         # render_image's rays per render_rays call, up to twice this


def philox_key(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


# Philox-4x64 round multipliers as (m, m >> 32, m & 0xffffffff) and key increments
_PHILOX_MUL = tuple((np.uint64(m), np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF))
                    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = (1 << 64) - 1
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(mul, x, hi, lo, t, u, w):
    """hi, lo <- the high and low words of the 128-bit products mul * x.

    The high word sums the four 32x32-bit partial products of the halves with
    their carries; no partial sum overflows 64 bits. t, u, w are scratch.
    """
    m, m_hi, m_lo = mul
    np.multiply(x, m, out=lo)
    np.bitwise_and(x, _LO32, out=t)
    np.right_shift(x, _S32, out=u)
    np.multiply(t, m_lo, out=w)
    np.right_shift(w, _S32, out=w)
    np.multiply(t, m_hi, out=t)
    t += w
    np.multiply(u, m_lo, out=w)
    np.bitwise_and(t, _LO32, out=hi)
    w += hi
    np.right_shift(w, _S32, out=w)
    np.right_shift(t, _S32, out=t)
    np.multiply(u, m_hi, out=hi)
    hi += t
    hi += w


def pixel_rng(key, step: int, frame: int, pixels, n: int) -> np.ndarray:
    """The first n uniforms of each pixel's jitter stream, (len(pixels), n).

    Row r is Generator(Philox(key, counter=[step, frame, pixels[r],
    _PIXEL_STREAM])).random(n) bit for bit, computed as Philox-4x64-10 over
    uint64 arrays of every (pixel, block) counter at once.
    """
    pixels = np.asarray(pixels, dtype=np.uint64).reshape(-1, 1)
    blocks = [step + 1 + b for b in range(-(-n // 4))]
    if frame + ((step + len(blocks)) >> 64) > _U64:
        raise UsageError("pixel stream counter overflows its frame word")
    v = [np.empty((pixels.shape[0], len(blocks)), np.uint64) for _ in range(4)]
    v[0][:] = [c & _U64 for c in blocks]
    v[1][:] = [frame + (c >> 64) for c in blocks]
    v[2][:] = pixels
    v[3][:] = _PIXEL_STREAM
    out = [np.empty_like(v[0]) for _ in range(4)]
    scratch = [np.empty_like(v[0]) for _ in range(3)]
    k0, k1 = (int(k) for k in key)
    for _ in range(10):
        hi0, lo0, hi1, lo1 = out
        _mulhilo(_PHILOX_MUL[0], v[0], hi0, lo0, *scratch)
        _mulhilo(_PHILOX_MUL[1], v[2], hi1, lo1, *scratch)
        hi1 ^= v[1]
        hi1 ^= np.uint64(k0)
        hi0 ^= v[3]
        hi0 ^= np.uint64(k1)
        v, out = [hi1, lo1, hi0, lo0], v
        k0, k1 = (k0 + _PHILOX_WEYL[0]) & _U64, (k1 + _PHILOX_WEYL[1]) & _U64
    words = np.stack(v, axis=2).reshape(pixels.shape[0], 4 * len(blocks))[:, :n]
    return (words >> np.uint64(11)) * 2.0 ** -53


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


def pixel_dirs(pose: CameraPose, rows, cols) -> np.ndarray:
    """Unit world-space directions (n, 3) through the centers of pixels (rows, cols)."""
    rows, cols = np.asarray(rows, dtype=np.float64), np.asarray(cols, dtype=np.float64)
    if np.any((rows < 0) | (rows >= pose.height) | (cols < 0) | (cols >= pose.width)):
        raise UsageError(f"pixels outside the {pose.height}x{pose.width} image")
    d = np.stack([(cols + 0.5 - pose.cx) / pose.focal,
                  -(rows + 0.5 - pose.cy) / pose.focal,
                  -np.ones_like(rows)], axis=1) @ pose.R.T
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def stratified_t(t_near: float, t_far: float, u: np.ndarray) -> np.ndarray:
    """One jittered t per bin of an n-bin partition of [t_near, t_far], per row of
    uniforms u (R, n)."""
    n = u.shape[-1]
    width = (t_far - t_near) / n
    return t_near + width * np.arange(n) + width * u


def hierarchical_resample(coarse_t: np.ndarray, weights: np.ndarray, u: np.ndarray,
                          t_near: float, t_far: float) -> np.ndarray:
    """Importance-sample fine t-values from each row's coarse weights, merged and sorted.

    coarse_t, weights: (R, S); u: (R, n_fine) uniforms. A row's piecewise-
    constant pdf lives on bins around its coarse samples (midpoint edges, ends
    clamped to t_near/t_far) and is inverted at u. Rows whose weights are all
    zero take stratified_t(t_near, t_far, u) instead.
    """
    coarse_t = np.asarray(coarse_t, dtype=np.float64)
    weights = np.ascontiguousarray(weights, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if coarse_t.shape != weights.shape or weights.ndim != 2 or u.ndim != 2 \
            or u.shape[0] != weights.shape[0]:
        raise DimensionError("coarse_t and weights must be (R, S) and u (R, n_fine)")
    if not np.all(np.isfinite(weights)):
        raise NumericError("non-finite sample weights")
    if np.any(weights < 0):
        raise UsageError("weights must be nonnegative")
    R, S = weights.shape
    total = weights.sum(axis=1, keepdims=True)
    empty = total == 0.0
    # all-zero rows get a stand-in uniform pdf; their samples are replaced below
    weights = np.where(empty, 1.0, weights)
    total = np.where(empty, float(S), total)
    edges = np.empty((R, S + 1))
    edges[:, 0] = t_near
    edges[:, -1] = t_far
    edges[:, 1:-1] = 0.5 * (coarse_t[:, :-1] + coarse_t[:, 1:])
    # cdf[:, k + 1] is the mass of bins 0..k, behind a leading zero
    cdf = np.zeros((R, S + 1))
    np.cumsum(weights, axis=1, out=cdf[:, 1:])
    cdf[:, 1:] /= total
    # searchsorted(side="right") per row: the count of cdf entries <= u
    k = np.minimum((cdf[:, None, 1:] <= u[:, :, None]).sum(axis=2), S - 1)
    cdf_lo, cdf_hi = np.take_along_axis(cdf, k, 1), np.take_along_axis(cdf, k + 1, 1)
    e_lo, e_hi = np.take_along_axis(edges, k, 1), np.take_along_axis(edges, k + 1, 1)
    frac = (u - cdf_lo) / (cdf_hi - cdf_lo)
    # rounding in the cdf can push frac a hair past 1; keep samples in range
    fine = np.clip(e_lo + frac * (e_hi - e_lo), t_near, t_far)
    fine = np.where(empty, stratified_t(t_near, t_far, u), fine)
    return np.sort(np.concatenate([coarse_t, fine], axis=1), axis=1)


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

    Returns the colors (R,3), a Var unless sigma and rgb are both arrays, and
    the weights (R,S) as an array for importance resampling. With
    s_k = sigma_k * delta_k, the vector-Jacobian product is
    dC/ds_k = T_{k+1} c_k - (sum_{i>k} w_i c_i + T_end bg) and dC/dc_k = w_k,
    from the transmittances and weights of the forward pass.
    """
    R, S = ts.shape
    c = ad.value(rgb).reshape(R, S, 3)
    colors, trans, w = composite_batch(ts, ad.value(sigma).reshape(R, S), c, t_far, bg)

    def vjp(g):
        gc = (c * g[:, None, :]).sum(axis=2)
        # suffix sums sum_{i>k} w_i (g . c_i), seeded with T_end (g . bg)
        end = (trans[:, -1] * (g * bg).sum(axis=1))[:, None]
        tail = np.cumsum(np.concatenate([end, (w * gc)[:, :0:-1]], axis=1), axis=1)
        g_sigma = (trans * gc - tail[:, ::-1]) * _deltas(ts, t_far)
        return g_sigma.reshape(R * S), (w[:, :, None] * g[:, None, :]).reshape(R * S, 3)

    return ad._node("composite", colors, (sigma, rgb), vjp), w


def render_rays(pose: CameraPose, rows, cols, *, key, step: int, frame: int,
                t_near: float, t_far: float, n_coarse: int, n_fine: int, coarse_fn, fine_fn,
                background):
    """Hierarchical volume rendering of the rays through pixels (rows, cols) of pose.

    Pixel p = row * width + col draws its coarse jitter, then its fine
    samples, from its stream; one pixel_rng(key, step, frame, ...) call draws
    them for all rays. coarse_fn and fine_fn map points X (R*S, 3) and ray
    directions (R, 3) to (rgb (R*S, 3), sigma (R*S,)): Vars for training, whose
    tape compositing records onto, or arrays for rendering. n_fine > 0 adds a
    fine pass over the coarse t-values merged with importance samples of the
    coarse weights. Returns (colors (R, 3), ts (R, S), weights (R, S)) per
    pass, coarse first.
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

    u = pixel_rng(key, step, frame, rows * pose.width + cols, n_coarse + n_fine)
    passes = [run(coarse_fn, stratified_t(t_near, t_far, u[:, :n_coarse]))]
    if n_fine > 0:
        passes.append(run(fine_fn, hierarchical_resample(
            passes[0][1], passes[0][2], u[:, n_coarse:], t_near, t_far)))
    return passes


def _crosses_box(origin, dirs: np.ndarray, half_extent, t_near: float,
                 t_far: float) -> np.ndarray:
    """Whether each ray's segment [t_near, t_far] meets the box |x_j| <= half_extent_j.

    Slab test. A ray in the plane of a face divides 0 by 0 and reads as a miss.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (-half_extent - origin) / dirs
        b = (half_extent - origin) / dirs
    lo = np.maximum(np.minimum(a, b).max(axis=1), t_near)
    hi = np.minimum(np.maximum(a, b).min(axis=1), t_far)
    return lo <= hi


def render_image(field_fn, pose: CameraPose, *, t_near: float, t_far: float,
                 n_coarse: int, n_fine: int = 0, fine_field_fn=None,
                 background, seed: int, frame_index: int,
                 return_depth: bool = False, support=None):
    """Render every pixel of one frame, row-major, through render_rays.

    field_fn and fine_field_fn (default: field_fn) follow render_rays' field
    contract and return arrays. Deterministic for a given (seed, frame_index):
    every render draws from pixel stream step 0, which is why training keys
    its pixels at step + 1.

    The kept rays go through render_rays in max(1, n // _CHUNK_RAYS)
    near-equal chunks of _CHUNK_RAYS to 2 * _CHUNK_RAYS - 1 rays, so peak
    memory is a chunk's and not the frame's. Pixel streams, sampling and
    compositing are per ray, so chunking changes only the row counts of the
    field's matrix products. OpenBLAS gives the (n, 32) @ (32, 3) colour
    head's rows other bits below about 12288 rows than above; at the toy
    defaults' 48 samples per ray every chunk's fine pass stays above, and a
    frame matches one whole-frame render_rays call bit for bit (minerf
    verify's chunked_model_frame_exact checks this on the running host). A
    short remainder chunk would not, hence near-equal chunks. With fewer
    samples per ray, colors can differ from a one-call render in the last bit.

    support, a half-extent h (3,), promises that the fields' density is
    exactly +0.0 outside the box |x_j| <= h_j, with slack enough that every
    point holding density lies well inside it (as synthscene's
    support_half_extent gives). Rays whose segment [t_near, t_far] misses
    the box then read exactly background + 0.0, what compositing zero
    weights gives, with depth 0.0, and neither draw from their pixel stream
    nor reach the fields. Pixel streams are per pixel, so the other rays
    render as they would in the full frame.
    """
    H, W = pose.height, pose.width
    rows, cols = np.divmod(np.arange(H * W), W)
    img, depth = np.empty((H * W, 3)), np.zeros(H * W)
    kept = np.arange(H * W)
    if support is not None:
        hit = _crosses_box(np.asarray(pose.t, dtype=np.float64), pixel_dirs(pose, rows, cols),
                           np.asarray(support, dtype=np.float64), t_near, t_far)
        img[:] = np.asarray(background, dtype=np.float64) + 0.0
        kept = kept[hit]
    key = philox_key(seed)
    for chunk in np.array_split(kept, max(1, len(kept) // _CHUNK_RAYS)):
        colors, ts, w = render_rays(
            pose, rows[chunk], cols[chunk], key=key, step=0, frame=frame_index,
            t_near=t_near, t_far=t_far, n_coarse=n_coarse, n_fine=n_fine, coarse_fn=field_fn,
            fine_fn=fine_field_fn or field_fn, background=background)[-1]
        img[chunk] = colors
        if return_depth:
            depth[chunk] = (w * ts).sum(axis=1)
    if not return_depth:
        return img.reshape(H, W, 3)
    return img.reshape(H, W, 3), depth.reshape(H, W)
