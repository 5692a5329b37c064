"""Positional-encoded MLP radiance field.

Maps (conditioning vector, latent code, point x, view direction v) to
(rgb, density). Density is read off the backbone before the view direction
enters, so sigma is view-independent by construction; softplus keeps it
nonnegative and sigmoid bounds rgb to [0,1].

forward_encoded is the one forward, written against autodiff primitives.
Every layer, with its relu, is one ad.linear node over its whole weight
matrix and its input parts, never a concatenation, and the weights' row
blocks are numpy views: encoded points and activations are matrix parts, and
the conditioning vector's parts (conditioning.variant_forward's tuple) and
the latent vector, shared by all samples, fold into the bias. The density
head's one column is read as sigma with ad.reshape, a view.
trainer.model_fields runs it on leaf Vars of a recording tape for
training, and on the stored arrays for rendering, where every op returns a
plain array; field_forward_np encodes raw points and directions and calls it
with one conditioning part.
positional_encode calls sin and cos only on the anchor octaves, every
_ANCHOR-th, and derives the others by angle doubling, sin 2a = 2 sin a cos a
and cos 2a = (cos a - sin a)(cos a + sin a). Anchors equal np.sin and np.cos
bit for bit; the worst error of the others is 5.8e-15 over 200,000 points
in [-1, 1]^3 at L = 12, and the tests hold it under 1e-14.
param_shapes names the learnable arrays and their shapes; trainer.init_arrays
draws them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import UsageError

_SKIP_LAYER = 4  # the input parts feed this layer again when the backbone is deep enough
_SKIP_MIN_DEPTH = 8
_ANCHOR = 6  # positional_encode calls sin and cos on every sixth octave, doubling between
_BLOCK = 2048  # rows per positional_encode block


@dataclass(frozen=True)
class FieldArch:
    """Architecture constants; param_shapes derives the learnable arrays from them."""

    layers: int = 4
    hidden: int = 64
    Lx: int = 6
    Lv: int = 2
    color_layers: int = 2
    color_hidden: int = 32
    d_cond: int = 8
    d_latent: int = 8

    @property
    def d_enc_x(self) -> int:
        return 6 * self.Lx

    @property
    def d_enc_v(self) -> int:
        return 6 * self.Lv

    @property
    def d_in(self) -> int:
        return self.d_enc_x + self.d_cond + self.d_latent

    @property
    def d_in_color(self) -> int:
        return self.hidden + self.d_enc_v

    @property
    def has_skip(self) -> bool:
        return self.layers >= _SKIP_MIN_DEPTH


def positional_encode(p, L: int) -> np.ndarray:
    """Sinusoidal encoding of a batch p (n, dim): per component,
    (sin(2^j pi p), cos(2^j pi p)) for j < L, as an (n, dim * 2L) array.

    Inputs are expected pre-normalized to [-1, 1] per component. L = 0
    returns an empty (n, 0) encoding.

    Only the anchor octaves, j a multiple of _ANCHOR, call np.sin and np.cos;
    they equal them bit for bit. Each other octave doubles the angle of the
    one below it, sin 2a = 2 sin a cos a and cos 2a = (cos a - sin a)(cos a +
    sin a). The rounding error about doubles with each step, so the worst
    error against direct sin and cos stays under 1e-14 for |p| <= 1 and L
    up to 12. Rows go in blocks of _BLOCK through one (L, 2, block, dim)
    scratch buffer, each octave contiguous, and every row's bits are the
    same in any batch.
    """
    p = np.asarray(p, dtype=np.float64)
    n, dim = p.shape
    out = np.empty((n, dim, L, 2))
    buf = np.empty((L, 2, min(n, _BLOCK), dim))
    for a in range(0, n, _BLOCK):
        rows = p[a:a + _BLOCK]
        m = len(rows)
        for j in range(L):
            s, c = buf[j, 0, :m], buf[j, 1, :m]
            if j % _ANCHOR == 0:
                np.multiply(rows, 2.0 ** j * np.pi, out=c)
                np.sin(c, out=s)
                np.cos(c, out=c)
            else:
                s0, c0 = buf[j - 1, 0, :m], buf[j - 1, 1, :m]
                np.add(c0, s0, out=s)
                np.subtract(c0, s0, out=c)
                c *= s
                np.multiply(s0, c0, out=s)
                s *= 2.0
        out[a:a + m] = buf[:, :, :m].transpose(2, 3, 0, 1)
    return out.reshape(n, dim * L * 2)


def param_shapes(arch: FieldArch) -> dict[str, tuple]:
    """Learnable arrays, name -> shape in draw order: weights (fan_in, fan_out), bias vectors."""
    p: dict[str, tuple] = {}
    for j in range(arch.layers):
        din = arch.d_in if j == 0 else arch.hidden
        if arch.has_skip and j == _SKIP_LAYER:
            din += arch.d_in
        p[f"W{j}"], p[f"b{j}"] = (din, arch.hidden), (arch.hidden,)
    p["Wsig"], p["bsig"] = (arch.hidden, 1), (1,)
    for j in range(arch.color_layers):
        din = arch.d_in_color if j == 0 else arch.color_hidden
        p[f"Wc{j}"], p[f"bc{j}"] = (din, arch.color_hidden), (arch.color_hidden,)
    p["Wrgb"], p["brgb"] = (arch.color_hidden if arch.color_layers else arch.d_in_color, 3), (3,)
    return p


def forward_encoded(arch: FieldArch, weights, cond, latent, enc_x, enc_v):
    """(rgb (n, 3), sigma (n,)) from encoded points enc_x (n, d_enc_x) and
    directions enc_v (n, d_enc_v), on the tape of the Vars passed in.

    cond is the conditioning vector as a tuple of parts, whose widths sum to
    d_cond, and latent a (d_latent,) vector, zero-width when d_latent is 0;
    all are shared by every row. Any of the inputs may be Vars of one tape
    or arrays; with arrays alone the outputs are arrays.
    """
    w = weights
    x = [enc_x, *cond, latent]
    h = ad.linear(x, w["W0"], w["b0"], relu=True)
    for j in range(1, arch.layers):
        parts = [h, *x] if arch.has_skip and j == _SKIP_LAYER else [h]
        h = ad.linear(parts, w[f"W{j}"], w[f"b{j}"], relu=True)
    sigma = ad.softplus(ad.reshape(ad.linear([h], w["Wsig"], w["bsig"]), (-1,)))
    c = [h, enc_v]
    for j in range(arch.color_layers):
        c = [ad.linear(c, w[f"Wc{j}"], w[f"bc{j}"], relu=True)]
    rgb = ad.sigmoid(ad.linear(c, w["Wrgb"], w["brgb"]))
    return rgb, sigma


def field_forward_np(arch: FieldArch, weights, cond: np.ndarray, latent, X: np.ndarray,
                     V: np.ndarray):
    """Batched numpy evaluation under one conditioning vector cond: X, V are
    (n, 3); returns (rgb (n,3), sigma (n,))."""
    enc_v = positional_encode(V / np.linalg.norm(V, axis=-1, keepdims=True), arch.Lv)
    return forward_encoded(arch, weights, (cond,), latent, positional_encode(X, arch.Lx), enc_v)


def field_forward(arch: FieldArch, weights, cond, latent, x, v):
    """Single-point contract: returns (rgb (3,) in [0,1], sigma >= 0 scalar)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != (3,) or v.shape != (3,):
        raise UsageError("field_forward expects 3-vectors for x and v")
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-9:
        warnings.warn("view direction not unit length; normalizing", stacklevel=2)
        v = v / nv
    rgb, sigma = field_forward_np(arch, weights, cond, latent, x[None, :], v[None, :])
    return rgb[0], float(sigma[0])
