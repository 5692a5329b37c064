"""Positional-encoded MLP radiance field.

Maps (conditioning vector, latent code, point x, view direction v) to
(rgb, density). Density is read off the backbone before the view direction
enters, so sigma is view-independent by construction; softplus keeps it
nonnegative and sigmoid bounds rgb to [0,1].

The forward pass is written once against autodiff primitives (first-layer
weights applied blockwise: encoded points as a matmul, the shared
conditioning/latent vectors folded into the bias). trainer.model_fields
enters it through forward_encoded for training (a recording tape) and
rendering (a tape that records nothing, with the weights as raw arrays so
their row blocks stay numpy views). field_forward_np, over raw points and
directions, backs field_forward and the tests' references.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DimensionError

_SKIP_LAYER = 4  # input re-concatenated here when the backbone is deep enough
_SKIP_MIN_DEPTH = 8


@dataclass(frozen=True)
class FieldArch:
    """Architecture constants; the learnable arrays live in a name->array dict."""

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
    """Sinusoidal encoding: per component, (sin(2^j pi p), cos(2^j pi p)) for j < L.

    p may be a single vector or a batch (n, dim); inputs are expected
    pre-normalized to [-1, 1] per component. L = 0 returns an empty encoding.
    """
    p = np.asarray(p, dtype=np.float64)
    single = p.ndim == 1
    if single:
        p = p[None, :]
    n, dim = p.shape
    if L == 0:
        return np.zeros((0,)) if single else np.zeros((n, 0))
    freqs = (2.0 ** np.arange(L)) * np.pi
    ang = p[:, :, None] * freqs[None, None, :]          # (n, dim, L)
    out = np.empty((n, dim, L, 2))
    np.sin(ang, out=out[..., 0])
    np.cos(ang, out=out[..., 1])
    out = out.reshape(n, dim * L * 2)
    return out[0] if single else out


def init_field_params(arch: FieldArch, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Xavier-uniform weights (stored fan_in x fan_out), zero biases."""

    def xavier(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_in, fan_out))

    p: dict[str, np.ndarray] = {}
    d = arch.d_in
    for j in range(arch.layers):
        din = d if j == 0 else arch.hidden
        if arch.has_skip and j == _SKIP_LAYER:
            din += d
        p[f"W{j}"] = xavier(din, arch.hidden)
        p[f"b{j}"] = np.zeros(arch.hidden)
    p["Wsig"] = xavier(arch.hidden, 1)
    p["bsig"] = np.zeros(1)
    for j in range(arch.color_layers):
        din = arch.d_in_color if j == 0 else arch.color_hidden
        p[f"Wc{j}"] = xavier(din, arch.color_hidden)
        p[f"bc{j}"] = np.zeros(arch.color_hidden)
    p["Wrgb"] = xavier(arch.color_hidden if arch.color_layers else arch.d_in_color, 3)
    p["brgb"] = np.zeros(3)
    return p


def _split_linear(X_mat, shared_vecs, W, b):
    """X_mat @ W[:k] + sum_j vec_j @ W[block_j] + b, with the vector terms
    folded into a single broadcast bias row (vectors are shared across rows)."""
    k = X_mat.shape[1]
    out = ad.matmul(X_mat, W[0:k])
    bias = b
    off = k
    for vec in shared_vecs:
        dv = vec.shape[0]
        z = ad.reshape(ad.matmul(ad.reshape(vec, (1, -1)), W[off:off + dv]), (-1,))
        bias = ad.add(bias, z)
        off += dv
    return ad.add(out, bias)


def _forward(arch: FieldArch, w, cond, latent, enc_x, enc_v):
    n = enc_x.shape[0]
    shared = [cond] if arch.d_latent == 0 else [cond, latent]
    if arch.has_skip:
        x_in = ad.concat([enc_x] + [ad.tile_rows(v, n) for v in shared], axis=1)
        h = ad.relu(ad.add(ad.matmul(x_in, w["W0"]), w["b0"]))
    else:
        h = ad.relu(_split_linear(enc_x, shared, w["W0"], w["b0"]))
    for j in range(1, arch.layers):
        if arch.has_skip and j == _SKIP_LAYER:
            h = ad.concat([h, x_in], axis=1)
        h = ad.relu(ad.add(ad.matmul(h, w[f"W{j}"]), w[f"b{j}"]))
    sigma = ad.softplus(ad.add(ad.matmul(h, w["Wsig"]), w["bsig"])[:, 0])
    if arch.color_layers:
        c = ad.relu(_split_linear_mat(h, enc_v, w["Wc0"], w["bc0"]))
        for j in range(1, arch.color_layers):
            c = ad.relu(ad.add(ad.matmul(c, w[f"Wc{j}"]), w[f"bc{j}"]))
        rgb = ad.sigmoid(ad.add(ad.matmul(c, w["Wrgb"]), w["brgb"]))
    else:
        rgb = ad.sigmoid(_split_linear_mat(h, enc_v, w["Wrgb"], w["brgb"]))
    return rgb, sigma


def _split_linear_mat(A, B, W, b):
    """[A | B] @ W + b without materializing the concatenation."""
    ka = A.shape[1]
    kb = B.shape[1]
    out = ad.matmul(A, W[0:ka])
    if kb:
        out = ad.add(out, ad.matmul(B, W[ka:ka + kb]))
    return ad.add(out, b)


def _normalize_dirs(V: np.ndarray) -> np.ndarray:
    return V / np.linalg.norm(V, axis=-1, keepdims=True)


def forward_encoded(arch: FieldArch, weights, cond, latent, enc_x: np.ndarray,
                    enc_v: np.ndarray):
    """Entry point over precomputed encodings; runs on the tape of the Vars passed in."""
    return _forward(arch, weights, cond, latent, enc_x, enc_v)


def field_forward_np(arch: FieldArch, weights, cond: np.ndarray, latent, X: np.ndarray,
                     V: np.ndarray):
    """Batched numpy evaluation: X, V are (n, 3); returns (rgb (n,3), sigma (n,))."""
    tape = ad.Tape(record=False)
    enc_x = ad.const(tape, positional_encode(X, arch.Lx))
    enc_v = ad.const(tape, positional_encode(_normalize_dirs(V), arch.Lv))
    rgb, sigma = _forward(arch, weights, ad.const(tape, cond),
                          None if latent is None else ad.const(tape, latent),
                          enc_x, enc_v)
    return rgb.value, sigma.value


def field_forward(arch: FieldArch, weights, cond, latent, x, v):
    """Single-point contract: returns (rgb (3,) in [0,1], sigma >= 0 scalar)."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if x.shape != (3,) or v.shape != (3,):
        raise DimensionError("field_forward expects 3-vectors for x and v")
    nv = np.linalg.norm(v)
    if abs(nv - 1.0) > 1e-9:
        warnings.warn("view direction not unit length; normalizing", stacklevel=2)
        v = v / nv
    rgb, sigma = field_forward_np(arch, weights, cond, latent, x[None, :], v[None, :])
    return rgb[0], float(sigma[0])
