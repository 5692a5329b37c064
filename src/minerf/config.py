"""Strict JSON run configuration: unknown keys rejected, defaults materialized.

The materialized dict is what lands in checkpoint headers, so a checkpoint is
always sufficient to regenerate its scene and re-render without the original
config file.
"""

from __future__ import annotations

import copy
import json
import math
import os
from pathlib import Path

from .conditioning import check_variant_dims
from .errors import ConfigError

DEFAULTS = {
    "seed": 0,
    "scene": {
        "n_identities": 2,
        "n_frames": 60,
        "resolution": 32,
        "d_expression": 8,
        "orbit_radius": 2.8,
        "orbit_elevation": 0.35,
        "focal_factor": 1.2,
        "gt_samples": 256,
        "expr_smoothness": 0.85,
        "background": [0.08, 0.10, 0.14],
        "share_expressions": False,
        "deform_budget": 0.5,
        "tint_strength": 0.35,
    },
    "conditioning": {
        "variant": "M",
        "d": 8,
        "k": 4,
        "o": 8,
        "n_levels": 2,
        "d_latent": 8,
    },
    "field": {
        "layers": 4,
        "hidden": 64,
        "Lx": 6,
        "Lv": 2,
        "color_layers": 2,
        "color_hidden": 32,
    },
    "render": {
        "n_coarse": 16,
        "n_fine": 32,
    },
    "train": {
        "steps": 3000,
        "rays_per_step": 256,
        "lr0": 5e-4,
        "lr1": 5e-5,
        "lambda_latent": 0.01,
        "lambda_identity": 1e-4,
        "in_box_fraction": 0.95,
        "eval_every": 500,
        "eval_frames": 1,
        "squared_code_norms": False,
        "divergence_factor": 10.0,
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
    },
    "eval": {
        "ssim_window": 8,
    },
}


def _merge(defaults, user, path=""):
    out = copy.deepcopy(defaults)
    for key, val in user.items():
        here = f"{path}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key {here!r}")
        dv = defaults[key]
        if isinstance(dv, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{here!r} must be a section object")
            out[key] = _merge(dv, val, here + ".")
        else:
            if isinstance(dv, bool) != isinstance(val, bool):
                raise ConfigError(f"{here!r} must be a boolean")
            if isinstance(dv, (int, float)) and not isinstance(val, (int, float)):
                raise ConfigError(f"{here!r} must be a number, got {val!r}")
            if isinstance(dv, str) and not isinstance(val, str):
                raise ConfigError(f"{here!r} must be a string")
            if isinstance(dv, list) and not isinstance(val, list):
                raise ConfigError(f"{here!r} must be a list")
            if isinstance(dv, int) and not isinstance(dv, bool) and isinstance(val, float):
                if val != int(val):
                    raise ConfigError(f"{here!r} must be an integer")
                val = int(val)
            out[key] = val
    return out


def _positive(cfg, section, keys):
    for k in keys:
        if cfg[section][k] <= 0:
            raise ConfigError(f"{section}.{k} must be positive")


def _nonnegative(cfg, section, keys):
    for k in keys:
        if cfg[section][k] < 0:
            raise ConfigError(f"{section}.{k} must be >= 0")


def validate(cfg: dict):
    if cfg["seed"] < 0:
        raise ConfigError("seed must be >= 0")
    _positive(cfg, "scene", ["n_identities", "n_frames", "resolution", "d_expression",
                             "orbit_radius", "gt_samples", "focal_factor"])
    _positive(cfg, "conditioning", ["d", "k", "o", "n_levels", "d_latent"])
    _positive(cfg, "field", ["layers", "hidden"])
    _positive(cfg, "render", ["n_coarse"])
    _positive(cfg, "train", ["rays_per_step", "lr0", "lr1"])
    _positive(cfg, "eval", ["ssim_window"])
    _nonnegative(cfg, "train", ["steps"])
    _nonnegative(cfg, "render", ["n_fine"])
    _nonnegative(cfg, "field", ["Lx", "Lv", "color_layers"])
    bg = cfg["scene"]["background"]
    if len(bg) != 3 or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                               and math.isfinite(c) for c in bg):
        raise ConfigError("scene.background must be a list of three finite numbers")
    if cfg["field"]["color_layers"] > 0 and cfg["field"]["color_hidden"] <= 0:
        raise ConfigError("field.color_hidden must be positive")
    tr = cfg["train"]
    if tr["lr1"] >= tr["lr0"]:
        raise ConfigError("train.lr1 must be below train.lr0 (decaying schedule)")
    if tr["lambda_latent"] < 0 or tr["lambda_identity"] < 0:
        raise ConfigError("regularizer weights must be nonnegative")
    if not 0.0 <= tr["in_box_fraction"] <= 1.0:
        raise ConfigError("train.in_box_fraction must lie in [0, 1]")
    cc = cfg["conditioning"]
    if cc["d"] != cfg["scene"]["d_expression"]:
        raise ConfigError("conditioning.d must equal scene.d_expression")
    check_variant_dims(cc["variant"], cc["d"], cc["k"], cc["o"], cc["d_latent"])
    return cfg


def _parse_set(expr: str):
    if "=" not in expr:
        raise ConfigError(f"--set expects key.path=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw
    return key.strip(), val


def _apply_set(user: dict, key: str, val):
    parts = key.split(".")
    node = user
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {key!r}")
    node[parts[-1]] = val


def load_config(path=None, sets=(), env=None) -> dict:
    """Read, override, validate, and materialize a run config.

    `sets` are dotted overrides like train.steps=100. MINERF_SEED applies only
    when neither the file nor an override sets the seed.
    """
    env = os.environ if env is None else env
    user: dict = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError("config root must be an object")
    for expr in sets:
        _apply_set(user, *_parse_set(expr))
    if "seed" not in user and env.get("MINERF_SEED"):
        try:
            user["seed"] = int(env["MINERF_SEED"])
        except ValueError as e:
            raise ConfigError(f"MINERF_SEED must be an integer: {e}") from e
    return validate(_merge(DEFAULTS, user))
