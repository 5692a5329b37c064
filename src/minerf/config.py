"""Strict JSON run configuration: unknown keys rejected, defaults materialized.

SCHEMA is the one source of defaults and ranges: one (default, range) row per
key. _merge walks it once and checks each given value's JSON type, that a
number is finite, then its range; validate holds only the rules between keys.
The materialized dict is what lands in checkpoint headers, so a checkpoint is
always sufficient to regenerate its scene and re-render without the original
config file, and loading one runs its header through the same checks.
"""

from __future__ import annotations

import copy
import json
import numbers
import os
import sys
from pathlib import Path

from .conditioning import check_variant_dims
from .errors import ConfigError

# A row's default fixes the key's JSON type (an int default makes it an
# integer key); its range is a key of _RANGES, or None for any finite value.
SCHEMA = {
    "seed": (0, ">= 0"),
    "scene": {
        "n_identities": (2, "> 0"),
        "n_frames": (60, "> 0"),
        "resolution": (32, "> 0"),
        "orbit_radius": (2.8, "> 0"),
        "orbit_elevation": (0.35, None),
        "focal_factor": (1.2, "> 0"),
        "gt_samples": (256, "> 0"),
        "expr_smoothness": (0.85, "in [0, 1]"),
        "background": ([0.08, 0.10, 0.14], None),
        "share_expressions": (False, None),
        "deform_budget": (0.5, ">= 0"),
        "tint_strength": (0.35, ">= 0"),
    },
    "conditioning": {
        "variant": ("M", None),
        "d": (8, "> 0"),
        "k": (4, "> 0"),
        "o": (8, "> 0"),
        "n_levels": (2, "> 0"),
        "d_latent": (8, "> 0"),
    },
    "field": {
        "layers": (4, "> 0"),
        "hidden": (64, "> 0"),
        "Lx": (6, ">= 0"),
        "Lv": (2, ">= 0"),
        "color_layers": (2, ">= 0"),
        "color_hidden": (32, None),
    },
    "render": {
        "n_coarse": (16, "> 0"),
        "n_fine": (32, ">= 0"),
    },
    "train": {
        "steps": (3000, ">= 0"),
        "rays_per_step": (256, "> 0"),
        "lr0": (5e-4, "> 0"),
        "lr1": (5e-5, "> 0"),
        "lambda_latent": (0.01, ">= 0"),
        "lambda_identity": (1e-4, ">= 0"),
        "in_box_fraction": (0.95, "in [0, 1]"),
        "eval_every": (500, ">= 0"),
        "eval_frames": (1, "> 0"),
        "divergence_factor": (10.0, "> 0"),
        "beta1": (0.9, "in [0, 1)"),
        "beta2": (0.999, "in [0, 1)"),
        "eps": (1e-8, "> 0"),
    },
    "eval": {
        "ssim_window": (8, "> 0"),
    },
}

_RANGES = {
    ">= 0": lambda v: v >= 0,
    "> 0": lambda v: v > 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
}


def check_number(name: str, val, rule=None, integer: bool = False):
    """val as a finite number within rule, an int if `integer`; else ConfigError naming name."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # NaN, an infinity, or an int beyond any float
        raise ConfigError(f"{name} must be finite, got {val!r}")
    if integer and not isinstance(val, numbers.Integral):
        if val != int(val):
            raise ConfigError(f"{name} must be an integer, got {val!r}")
        val = int(val)
    if rule is not None and not _RANGES[rule](val):
        raise ConfigError(f"{name} must be {rule}, got {val!r}")
    return val


def check_leaf(name: str, val, shape: tuple, rule=None, integer: bool = False,
               dims: dict | None = None) -> None:
    """val as a number (shape ()) or nested lists of numbers of that shape, each
    passing check_number and a JSON integer if `integer`; else ConfigError naming name.

    A shape entry is a length, None (any length) or "d", a length that the
    first list checked against it fixes in dims for every later one.
    """
    if not shape:
        if integer and type(val) is not int:
            raise ConfigError(f"{name} must be an integer, got {val!r}")
        check_number(name, val, rule)
        return
    n = shape[0] if shape[0] != "d" else dims.setdefault(
        "d", len(val) if isinstance(val, list) else 0)
    if not isinstance(val, list) or n == 0 or n not in (None, len(val)):
        count = {None: "", 0: "one or more "}.get(n, f"{n} ")
        rows = f"rows of {shape[1]} " if len(shape) > 1 else ""
        raise ConfigError(f"{name} must be a list of {count}{rows}"
                          f"{'integers' if integer else 'finite numbers'}, got {val!r}")
    for i, v in enumerate(val):
        check_leaf(f"{name}[{i}]" if len(shape) > 1 else name, v, shape[1:], rule, integer, dims)


def _merge(schema: dict, user, path: str = "") -> dict:
    """user's values over the schema's defaults, each checked against its row."""
    if not isinstance(user, dict):
        raise ConfigError(f"{path[:-1] or 'config root'} must be an object, got {user!r}")
    for key in user:
        if key not in schema:
            raise ConfigError(f"unknown config key {path + key!r}")
    out = {}
    for key, row in schema.items():
        if isinstance(row, dict):
            out[key] = _merge(row, user.get(key, {}), f"{path}{key}.")
        elif key not in user:
            out[key] = copy.deepcopy(row[0])
        elif isinstance(row[0], (bool, str, list)):
            if not isinstance(user[key], type(row[0])):
                raise ConfigError(f"{path}{key} must be a JSON {type(row[0]).__name__}, "
                                  f"got {user[key]!r}")
            out[key] = user[key]
        else:
            out[key] = check_number(path + key, user[key], row[1], isinstance(row[0], int))
    return out


def validate(cfg: dict) -> dict:
    """The rules that relate keys; each key's own type and range are _merge's."""
    check_leaf("scene.background", cfg["scene"]["background"], (3,))
    if cfg["field"]["color_layers"] > 0 and cfg["field"]["color_hidden"] <= 0:
        raise ConfigError("field.color_hidden must be > 0 when field.color_layers > 0")
    if cfg["train"]["lr1"] >= cfg["train"]["lr0"]:
        raise ConfigError("train.lr1 must be below train.lr0 (decaying schedule)")
    cc = cfg["conditioning"]
    check_variant_dims(cc["variant"], cc["d"], cc["k"], cc["o"], cc["d_latent"])
    return cfg


def materialize(user: dict) -> dict:
    """The full, checked config for a partial one; materialize({}) is the defaults."""
    return validate(_merge(SCHEMA, user))


def _parse_set(expr: str):
    if "=" not in expr:
        raise ConfigError(f"--set expects key.path=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        val = json.loads(raw)
    except ValueError:  # not JSON, or an int literal past Python's digit limit
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
        except ValueError as e:
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
    return materialize(user)
