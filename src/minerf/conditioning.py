"""Interaction modules mixing expression, identity, and latent vectors.

The main module computes C[(U1 e) * (U2 i)] + W2 e + W3 i (a factored
second-degree interaction); the high-degree module applies the recursion
x_n = x_{n-1} + (U_n1 e + U_n2 i) * x_{n-1}. Ablation variants A1..A7 plus
three extras (higher output dim, learnable concatenation, latent code inside
the module) are all dispatched through variant_forward.

Every forward reads its parameters from the name->array mapping that
init_variant_params builds and checkpoints store (U1, U2, C, W2, W3 for M;
U{n}_e, U{n}_i per level n and C for H), as arrays or as Vars. All forwards
are built from autodiff primitives so they are differentiable w.r.t. every
parameter and input: given Vars of a training tape they return a Var, and
given numpy arrays alone they return the plain array.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError

VARIANTS = (
    "Baseline", "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "M", "H", "HigherOut_o256", "LearnableConcat", "LatentInM",
)

# variants whose formula only makes sense with o == d (un-projected e*i term
# or a shared square W1); LatentInM additionally pins o == k == d
_SQUARE_ONLY = ("A1", "A2", "A3", "A4", "A5", "A6", "A7", "LearnableConcat")


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


def h_multiplicative_forward(p: Mapping, e, i):
    """The recursion with the additive carry dropped: C[z_N * ... * z_2 * x_1]."""
    (U_e, U_i), *rest = _levels(p)
    x = ad.matmul(U_e, e) + ad.matmul(U_i, i)
    for U_e, U_i in rest:
        z = ad.matmul(U_e, e) + ad.matmul(U_i, i)
        x = ad.mul(z, x)
    return ad.matmul(p["C"], x)


def h_expand_oracle(p: Mapping, e, i):
    """Symbolic distribution of the recursion into monomials of (U e)/(U i) factors.

    Supported for N in {2, 3}: 6 terms for N=2, 18 for N=3 (the 8 degree-3
    triplets plus every lower-order term carried through).
    """
    levels = _levels(p)
    if len(levels) not in (2, 3):
        raise ConfigError(f"expansion oracle supports N in {{2, 3}}, got {len(levels)}")
    (U_e, U_i), *rest = levels
    monomials = [ad.matmul(U_e, e), ad.matmul(U_i, i)]
    for U_e, U_i in rest:
        factors = (ad.matmul(U_e, e), ad.matmul(U_i, i))
        monomials = monomials + [ad.mul(f, m) for f in factors for m in monomials]
    acc = monomials[0]
    for m in monomials[1:]:
        acc = acc + m
    return ad.matmul(p["C"], acc)


# ---------------------------------------------------------------------------
# variants

def variant_output_dim(variant: str, d: int, o: int) -> int:
    if variant in ("Baseline", "LearnableConcat"):
        return 2 * d
    if variant.startswith("A"):
        return d
    if variant in ("M", "H", "HigherOut_o256", "LatentInM"):
        return o
    raise ConfigError(f"unknown variant {variant!r}")


def latent_inside(variant: str) -> bool:
    """True when the per-frame latent code feeds the module instead of the field."""
    return variant == "LatentInM"


def check_variant_dims(variant: str, d: int, k: int, o: int, d_latent: int):
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r} (choose from {VARIANTS})")
    if variant in _SQUARE_ONLY and o != d:
        raise ConfigError(f"variant {variant} requires o == d, got o={o}, d={d}")
    if variant == "LatentInM":
        if not (o == k == d):
            raise ConfigError(f"LatentInM requires o == k == d, got o={o}, k={k}, d={d}")
        if d_latent != d:
            raise ConfigError(f"LatentInM requires d_latent == d, got {d_latent} != {d}")


def _xavier(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_out, fan_in))


def init_variant_params(variant: str, d: int, k: int, o: int, rng: np.random.Generator,
                        d_latent: int, n_levels: int) -> dict[str, np.ndarray]:
    check_variant_dims(variant, d, k, o, d_latent)
    p: dict[str, np.ndarray] = {}
    if variant == "Baseline":
        return p
    if variant in ("A1", "A2", "A5"):
        p["W2"] = _xavier(rng, d, d)
        p["W3"] = _xavier(rng, d, d)
    elif variant in ("A3", "A4"):
        p["W1"] = _xavier(rng, d, d)
    elif variant == "A6":
        p["W1"] = _xavier(rng, d, d)
        p["W2"] = _xavier(rng, d, d)
        p["W3"] = _xavier(rng, d, d)
    elif variant == "A7":
        a = np.sqrt(6.0 / (d * d + d))
        p["W_tensor"] = rng.uniform(-a, a, size=(d, d, d))
    elif variant in ("M", "HigherOut_o256"):
        p["U1"] = _xavier(rng, k, d)
        p["U2"] = _xavier(rng, k, d)
        p["C"] = _xavier(rng, o, k)
        p["W2"] = _xavier(rng, o, d)
        p["W3"] = _xavier(rng, o, d)
    elif variant == "H":
        for n in range(1, n_levels + 1):
            p[f"U{n}_e"] = _xavier(rng, k, d)
            p[f"U{n}_i"] = _xavier(rng, k, d)
        p["C"] = _xavier(rng, o, k)
    elif variant == "LearnableConcat":
        p["W2"] = _xavier(rng, d, d)
        p["W3"] = _xavier(rng, d, d)
    elif variant == "LatentInM":
        p["U1"] = _xavier(rng, k, d)
        p["U2"] = _xavier(rng, k, d)
        p["U3"] = _xavier(rng, k, d)
        p["C"] = _xavier(rng, o, k)
    return p


def variant_forward(variant: str, params: Mapping, e, i, l=None):
    """Evaluate the selected conditioning variant: a Var, or an array given arrays alone."""
    if variant == "Baseline":
        return ad.concat([e, i])
    if variant == "A1":
        return ad.matmul(params["W2"], e) + ad.matmul(params["W3"], i)
    if variant == "A2":
        return ad.mul(e, i) + ad.matmul(params["W2"], e) + ad.matmul(params["W3"], i)
    if variant == "A3":
        W1 = params["W1"]
        return ad.matmul(W1, ad.mul(e, i)) + ad.matmul(W1, e) + ad.matmul(W1, i)
    if variant == "A4":
        return ad.matmul(params["W1"], ad.mul(e, i))
    if variant == "A5":
        p2 = ad.matmul(params["W2"], e)
        p3 = ad.matmul(params["W3"], i)
        return ad.mul(p2, p3) + p2 + p3
    if variant == "A6":
        return (ad.matmul(params["W1"], ad.mul(e, i))
                + ad.matmul(params["W2"], e) + ad.matmul(params["W3"], i))
    if variant == "A7":
        W = params["W_tensor"]
        o, d = W.shape[0], W.shape[1]
        # W x_2 e x_3 i: contract i over the flattened (o*d, d) tensor, then e
        Yi = ad.matmul(ad.reshape(W, (o * d, d)), i)
        return ad.matmul(ad.reshape(Yi, (o, d)), e)
    if variant in ("M", "HigherOut_o256"):
        return m_forward(params, e, i)
    if variant == "H":
        return h_forward(params, e, i)
    if variant == "LearnableConcat":
        return ad.concat([ad.matmul(params["W2"], e), ad.matmul(params["W3"], i)])
    if variant == "LatentInM":
        if l is None:
            raise ConfigError("LatentInM needs the latent code l")
        ue = ad.matmul(params["U1"], e)
        ui = ad.matmul(params["U2"], i)
        ul = ad.matmul(params["U3"], l)
        inner = (ad.mul(ad.mul(ue, ui), ul)
                 + ad.mul(ue, ui) + ad.mul(ue, ul) + ad.mul(ui, ul)
                 + ue + ui + ul)
        return ad.matmul(params["C"], inner)
    raise ConfigError(f"unknown variant {variant!r}")


def variant_value(variant: str, params: Mapping, e, i, l=None) -> np.ndarray:
    """variant_forward on arrays, which returns the plain conditioning vector."""
    return variant_forward(variant, params, e, i, l)
