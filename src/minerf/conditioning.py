"""Interaction modules mixing expression, identity, and latent vectors.

The main module computes C[(U1 e) * (U2 i)] + W2 e + W3 i (a factored
second-degree interaction); the high-degree module applies the recursion
x_n = x_{n-1} + (U_n1 e + U_n2 i) * x_{n-1}. Ablation variants A1..A7 plus
two extras (learnable concatenation, latent code inside the module) are all
dispatched through variant_forward. The higher-output ablation is M at a
larger conditioning.o.

_TABLE declares each variant once, and param_shapes, check_variant_dims,
variant_output_dim, latent_inside and variant_forward read its row. Each
formula is built from autodiff primitives over a name->array mapping (U1,
U2, C, W2, W3 for M; U{n}_e, U{n}_i per level n and C for H) and returns the
conditioning vector as a tuple of parts, whose widths sum to the output
width: (e, i) for Baseline, (W2 e, W3 i) for LearnableConcat, one part for
every other row. The field's first layer takes the parts as they are, so no
row concatenates on the tape. Given Vars of a training tape the parts are
Vars, and given numpy arrays alone they are plain arrays.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ConfigError


def _levels(p: Mapping) -> list:
    """The recursion's per-level (U{n}_e, U{n}_i) pairs, n = 1, 2, ... in order."""
    levels = []
    while f"U{len(levels) + 1}_e" in p:
        n = len(levels) + 1
        levels.append((p[f"U{n}_e"], p[f"U{n}_i"]))
    return levels


def m_forward(p: Mapping, e, i):
    """Factored multiplicative interaction plus linear terms.

    p holds U1, U2 (k x d), C (o x k), W2 and W3 (o x d).
    """
    mixed = ad.mul(ad.matmul(p["U1"], e), ad.matmul(p["U2"], i))
    return ad.matmul(p["C"], mixed) + ad.matmul(p["W2"], e) + ad.matmul(p["W3"], i)


def h_forward(p: Mapping, e, i):
    """High-degree interaction: recursive Hadamard mixing of shared embeddings.

    p holds U{n}_e and U{n}_i (k x d) for n = 1..N, and C (o x k).
    """
    levels = _levels(p)
    if not levels:
        raise ConfigError("H needs at least one level")
    (U_e, U_i), *rest = levels
    x = ad.matmul(U_e, e) + ad.matmul(U_i, i)
    for U_e, U_i in rest:
        z = ad.matmul(U_e, e) + ad.matmul(U_i, i)
        x = x + ad.mul(z, x)
    return ad.matmul(p["C"], x)


# ---------------------------------------------------------------------------
# variants

def _a5(p, e, i, l):
    p2, p3 = ad.matmul(p["W2"], e), ad.matmul(p["W3"], i)
    return (ad.mul(p2, p3) + p2 + p3,)


def _a7(p, e, i, l):
    W = p["W_tensor"]
    o, d = W.shape[0], W.shape[1]
    # W x_2 e x_3 i: contract i over the flattened (o*d, d) tensor, then e
    Yi = ad.matmul(ad.reshape(W, (o * d, d)), i)
    return (ad.matmul(ad.reshape(Yi, (o, d)), e),)


def _latent_in_m(p, e, i, l):
    if l is None:
        raise ConfigError("LatentInM needs the latent code l")
    ue, ui, ul = ad.matmul(p["U1"], e), ad.matmul(p["U2"], i), ad.matmul(p["U3"], l)
    inner = (ad.mul(ad.mul(ue, ui), ul)
             + ad.mul(ue, ui) + ad.mul(ue, ul) + ad.mul(ui, ul)
             + ue + ui + ul)
    return (ad.matmul(p["C"], inner),)


class _Variant(NamedTuple):
    """params: "name:shape" per learnable array in draw order, shapes in d, k, o;
    "U{n}_..." entries repeat for n = 1..n_levels first. out: the output width.
    square: o must equal d. latent: l feeds the module, and o == k == d."""

    params: str
    out: str
    forward: Callable
    square: bool = False
    latent: bool = False


_TABLE = {
    "Baseline": _Variant("", "2d", lambda p, e, i, l: (e, i)),
    "A1": _Variant("W2:dd W3:dd", "d", lambda p, e, i, l: (
        ad.matmul(p["W2"], e) + ad.matmul(p["W3"], i),), square=True),
    "A2": _Variant("W2:dd W3:dd", "d", lambda p, e, i, l: (
        ad.mul(e, i) + ad.matmul(p["W2"], e) + ad.matmul(p["W3"], i),), square=True),
    "A3": _Variant("W1:dd", "d", lambda p, e, i, l: (
        ad.matmul(p["W1"], ad.mul(e, i)) + ad.matmul(p["W1"], e) + ad.matmul(p["W1"], i),),
        square=True),
    "A4": _Variant("W1:dd", "d", lambda p, e, i, l: (ad.matmul(p["W1"], ad.mul(e, i)),),
                   square=True),
    "A5": _Variant("W2:dd W3:dd", "d", _a5, square=True),
    "A6": _Variant("W1:dd W2:dd W3:dd", "d", lambda p, e, i, l: (
        ad.matmul(p["W1"], ad.mul(e, i)) + ad.matmul(p["W2"], e) + ad.matmul(p["W3"], i),),
        square=True),
    "A7": _Variant("W_tensor:ddd", "d", _a7, square=True),
    "M": _Variant("U1:kd U2:kd C:ok W2:od W3:od", "o", lambda p, e, i, l: (m_forward(p, e, i),)),
    "H": _Variant("U{n}_e:kd U{n}_i:kd C:ok", "o", lambda p, e, i, l: (h_forward(p, e, i),)),
    "LearnableConcat": _Variant("W2:dd W3:dd", "2d", lambda p, e, i, l: (
        ad.matmul(p["W2"], e), ad.matmul(p["W3"], i)), square=True),
    "LatentInM": _Variant("U1:kd U2:kd U3:kd C:ok", "o", _latent_in_m, latent=True),
}

VARIANTS = tuple(_TABLE)


def _row(variant: str) -> _Variant:
    if variant not in _TABLE:
        raise ConfigError(f"unknown variant {variant!r} (choose from {VARIANTS})")
    return _TABLE[variant]


def variant_output_dim(variant: str, d: int, o: int) -> int:
    return {"2d": 2 * d, "d": d, "o": o}[_row(variant).out]


def latent_inside(variant: str) -> bool:
    """True when the per-frame latent code feeds the module instead of the field."""
    return _row(variant).latent


def check_variant_dims(variant: str, d: int, k: int, o: int, d_latent: int):
    row = _row(variant)
    if row.square and o != d:
        raise ConfigError(f"variant {variant} requires o == d, got o={o}, d={d}")
    if row.latent and not (o == k == d):
        raise ConfigError(f"{variant} requires o == k == d, got o={o}, k={k}, d={d}")
    if row.latent and d_latent != d:
        raise ConfigError(f"{variant} requires d_latent == d, got {d_latent} != {d}")


def param_shapes(variant: str, d: int, k: int, o: int, n_levels: int,
                 d_latent: int) -> dict[str, tuple]:
    """The variant's learnable arrays, name -> shape, in draw order; the
    arguments are the keys of the config's conditioning section."""
    check_variant_dims(variant, d, k, o, d_latent)
    dims = {"d": d, "k": k, "o": o}
    entries = [e.split(":") for e in _row(variant).params.split()]
    named = [(n.format(n=j), s) for j in range(1, n_levels + 1) for n, s in entries if "{n}" in n]
    named += [(n, s) for n, s in entries if "{n}" not in n]
    return {n: tuple(dims[c] for c in s) for n, s in named}


def variant_forward(variant: str, params: Mapping, e, i, l=None) -> tuple:
    """The selected conditioning variant's output parts: Vars, or arrays given arrays alone."""
    return _row(variant).forward(params, e, i, l)


def variant_value(variant: str, params: Mapping, e, i, l=None) -> np.ndarray:
    """variant_forward on arrays, its parts joined into the plain conditioning vector."""
    return np.concatenate(variant_forward(variant, params, e, i, l))
