"""Procedural multi-identity dynamic scenes and dataset assembly.

Stands in for tracked video: each identity is an analytic ellipsoid density
with its own semi-axes, color, and density scale; a global bank of radial
bump modes deforms the lookup point and tints a patch of the surface, driven
by a per-frame expression vector, one entry per mode. The config's
conditioning.d is the mode count, so the model reads that same vector as its
expression code. render_gt_frame renders the analytic field
in float64 with a high sample count; Dataset.gt_image rounds that render to
8 bits and is the one ground truth: dataset_from_config's frames, the PPMs
gen-data writes and the transfer matrix's cross-identity targets. So `train`
with and without `--data` fit the same pixels.

The density is exactly +0.0 outside the box |x_j| <= h_j of
support_half_extent, h_j = (a_j + sum_m |e_m amp_m dir_mj|)(1 + 1e-6) for
semi-axes a, mode amplitudes amp and mode directions dir.
So analytic_field evaluates the formula only at points inside the box, and
render_gt_frame renders only the rays that cross it. Culled samples have
alpha = -expm1(-0.0) = +0.0, weight +0.0 and transmittance factor 1, and
w * rgb = +0.0 for any rgb >= 0. A missed ray composites to 0.0 + 1.0 * bg.
Every render_gt_frame image is therefore bit-identical to the dense render,
given BLAS products whose rows do not depend on the other rows
(`minerf verify --suite render` checks this: support_culling_exact).

An identity's scene index k is stated once, in its name id{k}: dataset_from_config
names identity k so, and load_dataset parses k from the directory name
(IdentityData.index). The scene holds each identity's parameters once, in
SceneSpec.identities keyed by scene index. Dataset.frame_id and Dataset.gt_image
read the index, not a position in Dataset.identities, so a dataset holding some
of a scene's identities draws the same ground truth and pixel streams as the full
one.

On disk a dataset is one directory per identity, holding frame_NNNN.ppm per
frame and a meta.json whose leaves _META declares and load_dataset checks.
load_dataset reads no key outside _META, so a meta.json that still carries
the scene-bounds key older versions wrote (always 1.0, never read) loads.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ppm
from .config import check_leaf
from .errors import ConfigError, UsageError
from .renderer import CameraPose, render_image

GT_FRAME_STRIDE = 100003  # spreads per-frame render streams across identities
SUPPORT_MARGIN = 0.25  # free space between the near/far bounds and the deformed support
MAX_SEMI_AXIS = 0.42  # sample_scene draws each semi-axis from [0.22, MAX_SEMI_AXIS)


@dataclass(frozen=True)
class ModeBank:
    """Global expression deformation modes: radial Gaussian bumps."""

    centers: np.ndarray     # (d, 3)
    widths: np.ndarray      # (d,)
    directions: np.ndarray  # (d, 3) unit displacement directions
    amplitudes: np.ndarray  # (d,)
    tints: np.ndarray       # (d, 3) color shift carried by each mode

    @property
    def d(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class IdentityParams:
    semi_axes: np.ndarray   # (3,)
    base_color: np.ndarray  # (3,)
    density_scale: float


@dataclass(frozen=True)
class SceneSpec:
    modes: ModeBank
    identities: dict  # scene index -> IdentityParams; the only copy of each
    background: np.ndarray  # (3,)


@dataclass
class Frame:
    index: int
    pose: CameraPose
    e: np.ndarray
    image: np.ndarray | None
    box: tuple  # (r0, r1, c0, c1) half-open pixel bounds of the projected support


@dataclass
class IdentityData:
    name: str
    index: int  # scene index: the k of the name id{k}
    frames: list
    train_idx: list
    test_idx: list


@dataclass
class Dataset:
    scene: SceneSpec
    identities: list
    resolution: int
    t_near: float
    t_far: float
    seed: int
    gt_samples: int

    def identity_names(self):
        return [idn.name for idn in self.identities]

    def by_name(self, name: str) -> IdentityData:
        for idn in self.identities:
            if idn.name == name:
                return idn
        raise UsageError(f"unknown identity {name!r} (have {self.identity_names()})")

    def frame_id(self, name: str, fidx: int) -> int:
        """The pixel-stream frame id of identity `name`'s frame fidx."""
        return self.by_name(name).index * GT_FRAME_STRIDE + fidx

    def gt_image(self, name: str, e: np.ndarray, fidx: int) -> np.ndarray:
        """Ground truth of identity `name` under expression e, at its frame fidx's
        pose and pixel streams: render_gt_frame's 8-bit round trip. At the frame's
        own expression this is the frame gen-data writes, as load_dataset reads it."""
        idn = self.by_name(name)
        img = render_gt_frame(self.scene, idn.index, e, idn.frames[fidx].pose,
                              self.t_near, self.t_far, self.gt_samples, self.seed,
                              self.frame_id(name, fidx))
        return ppm.from_u8(ppm.to_u8(img))


def _fibonacci_sphere(n: int) -> np.ndarray:
    k = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * k
    return np.stack([np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi),
                     np.cos(phi)], axis=1)


def sample_scene(n_identities: int, d: int, rng: np.random.Generator, background,
                 deform_budget: float, tint_strength: float) -> SceneSpec:
    """Draw a random scene: global mode bank plus per-identity ellipsoids.

    deform_budget bounds sum_m |amplitude_m|, so the deformed support stays
    inside the cube [-1,1]^3 for any |e|_inf <= 1.
    """
    centers = 0.3 * _fibonacci_sphere(d)
    widths = np.full(d, 0.22)
    directions = _fibonacci_sphere(d)  # distinct fixed unit directions
    amplitudes = np.full(d, deform_budget / d)
    tints = rng.uniform(-1.0, 1.0, size=(d, 3)) * tint_strength
    identities = {k: IdentityParams(semi_axes=rng.uniform(0.22, MAX_SEMI_AXIS, size=3),
                                    base_color=rng.uniform(0.25, 0.85, size=3),
                                    density_scale=float(rng.uniform(9.0, 14.0)))
                  for k in range(n_identities)}
    return SceneSpec(modes=ModeBank(centers, widths, directions, amplitudes, tints),
                     identities=identities, background=np.asarray(background, float))


def _bump_weights(modes: ModeBank, X: np.ndarray) -> np.ndarray:
    # (n, d): Gaussian falloff of each mode at each point; expanded-norm form
    # keeps the intermediate at (n, d) instead of (n, d, 3)
    d2 = ((X * X).sum(axis=1)[:, None] - 2.0 * (X @ modes.centers.T)
          + (modes.centers * modes.centers).sum(axis=1)[None, :])
    return np.exp(-d2 / (2.0 * modes.widths[None, :] ** 2))


def support_half_extent(spec: SceneSpec, identity_index: int, e: np.ndarray) -> np.ndarray:
    """Half-extent h (3,) of a box |x_j| <= h_j outside which the density is +0.0.

    With a = semi_axes, the lookup point is y = (x - delta) / a, and
    |delta_j| = |sum_m g_m e_m amp_m dir_mj| <= sum_m |e_m amp_m| |dir_mj|
    =: s_j, since the bump weights g_m = exp(-d2 / (2 w_m^2)) are at most 1.
    If |x_j| > h_j = (a_j + s_j)(1 + 1e-6), then |y_j| > 1, so q > 1 and
    sigma = density_scale * max(0, 1 - q) is exactly +0.0. The relative slack
    covers g rounding a little above 1 where the expanded-norm d2 rounds below
    0, and the rounding of delta and y; it holds with room to spare for mode
    widths of 1e-4 and above (generated scenes use 0.22).
    """
    m = spec.modes
    s = np.abs(np.asarray(e, dtype=np.float64) * m.amplitudes) @ np.abs(m.directions)
    return (spec.identities[identity_index].semi_axes + s) * (1.0 + 1e-6)


def _analytic_kernel(spec: SceneSpec, identity_index: int, e: np.ndarray, X: np.ndarray):
    """The analytic (rgb, sigma) formula, evaluated at every row of X (n, 3)."""
    idp = spec.identities[identity_index]
    g = _bump_weights(spec.modes, X)                                     # (n, d)
    coef = g * (e * spec.modes.amplitudes)[None, :]
    delta = coef @ spec.modes.directions                                 # (n, 3)
    y = (X - delta) / idp.semi_axes[None, :]
    q = (y * y).sum(axis=1)
    sigma = idp.density_scale * np.maximum(0.0, 1.0 - q)
    rgb = np.clip(idp.base_color[None, :] + (g * e[None, :]) @ spec.modes.tints, 0.0, 1.0)
    return rgb, sigma


def analytic_field(spec: SceneSpec, identity_index: int, e: np.ndarray, X: np.ndarray):
    """Exact (rgb, sigma) of one identity at points X (n, 3) under expression e.

    The formula runs only on the rows inside support_half_extent's box; the
    others are (0, 0, 0) and +0.0.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    inside = np.flatnonzero(
        (np.abs(X) <= support_half_extent(spec, identity_index, e)).all(axis=1))
    rgb, sigma = np.zeros((X.shape[0], 3)), np.zeros(X.shape[0])
    rgb[inside], sigma[inside] = _analytic_kernel(spec, identity_index, e, X[inside])
    return rgb, sigma


def deformation_margin(spec: SceneSpec) -> float:
    return float(np.abs(spec.modes.amplitudes).sum())


def smooth_trajectory(n_frames: int, d: int, rng: np.random.Generator,
                      smoothness: float, amplitude: float = 0.85) -> np.ndarray:
    """Low-pass filtered Gaussian noise in [-1,1]^d (two cascaded one-pole filters)."""
    burn = 32
    w = rng.standard_normal((n_frames + burn, d))
    for _ in range(2):
        for t in range(1, w.shape[0]):
            w[t] = smoothness * w[t - 1] + (1.0 - smoothness) * w[t]
    w = w[burn:]
    peak = np.abs(w).max(axis=0)
    peak[peak == 0] = 1.0
    return np.clip(w / peak * amplitude, -1.0, 1.0)


def orbit_pose(frame: int, n_frames: int, radius: float, elevation: float,
               resolution: int, focal_factor: float) -> CameraPose:
    az = 2.0 * np.pi * frame / max(n_frames, 1)
    eye = radius * np.array([np.cos(elevation) * np.sin(az), np.sin(elevation),
                             np.cos(elevation) * np.cos(az)])
    z = eye / np.linalg.norm(eye)
    x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return CameraPose(R=np.column_stack([x, y, z]), t=eye,
                      focal=focal_factor * resolution,
                      cx=resolution / 2.0, cy=resolution / 2.0,
                      width=resolution, height=resolution)


def project_box(pose: CameraPose, half_extent: np.ndarray):
    """Pixel-space half-open bounding box of the axis-aligned support box."""
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    corners = signs * half_extent[None, :]
    cam = (corners - pose.t[None, :]) @ pose.R
    z = -cam[:, 2]
    u = pose.cx + pose.focal * cam[:, 0] / z
    v = pose.cy - pose.focal * cam[:, 1] / z
    r0 = int(np.clip(np.floor(v.min()), 0, pose.height - 1))
    r1 = int(np.clip(np.ceil(v.max()) + 1, r0 + 1, pose.height))
    c0 = int(np.clip(np.floor(u.min()), 0, pose.width - 1))
    c1 = int(np.clip(np.ceil(u.max()) + 1, c0 + 1, pose.width))
    return (r0, r1, c0, c1)


def dataset_from_config(cfg: dict, render_images: bool = True) -> Dataset:
    """Scene, trajectories, poses and ground-truth frames of cfg's scene section,
    with conditioning.d expression modes (the model's expression width);
    deterministic per cfg["seed"]. ConfigError when the camera orbit reaches into
    the near bound (t_near <= 0)."""
    s, seed, d = cfg["scene"], cfg["seed"], cfg["conditioning"]["d"]
    n_frames, resolution = s["n_frames"], s["resolution"]
    scene_rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    scene = sample_scene(s["n_identities"], d, scene_rng, s["background"],
                         s["deform_budget"], s["tint_strength"])
    reach = MAX_SEMI_AXIS + deformation_margin(scene)
    t_near = s["orbit_radius"] - (reach + SUPPORT_MARGIN)
    t_far = s["orbit_radius"] + (reach + SUPPORT_MARGIN)
    if t_near <= 0:
        raise ConfigError(f"scene.orbit_radius={s['orbit_radius']} puts the camera inside "
                          f"the scene support (t_near={t_near:.3g} <= 0)")
    half_extent = np.full(3, reach)

    identities = []
    n_test = max(1, int(round(0.1 * n_frames)))
    for k in range(s["n_identities"]):
        traj_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=seed, spawn_key=(1, 0 if s["share_expressions"] else k))))
        traj = smooth_trajectory(n_frames, d, traj_rng, s["expr_smoothness"])
        frames = []
        for f in range(n_frames):
            pose = orbit_pose(f, n_frames, s["orbit_radius"], s["orbit_elevation"],
                              resolution, s["focal_factor"])
            frames.append(Frame(index=f, pose=pose, e=traj[f].copy(), image=None,
                                box=project_box(pose, half_extent)))
        identities.append(IdentityData(
            name=f"id{k:02d}", index=k, frames=frames,
            train_idx=list(range(n_frames - n_test)),
            test_idx=list(range(n_frames - n_test, n_frames))))
    ds = Dataset(scene=scene, identities=identities, resolution=resolution,
                 t_near=t_near, t_far=t_far, seed=seed, gt_samples=s["gt_samples"])
    if render_images:
        for idn in identities:
            for fr in idn.frames:
                fr.image = ds.gt_image(idn.name, fr.e, fr.index)
    return ds


def render_gt_frame(scene: SceneSpec, identity_index: int, e: np.ndarray,
                    pose: CameraPose, t_near: float, t_far: float, samples: int,
                    seed: int, frame_id: int) -> np.ndarray:
    return render_image(lambda X, dirs: analytic_field(scene, identity_index, e, X), pose,
                        t_near=t_near, t_far=t_far, n_coarse=samples, n_fine=0,
                        background=scene.background, seed=seed, frame_index=frame_id,
                        support=support_half_extent(scene, identity_index, e))


# ---------------------------------------------------------------------------
# on-disk layout

def _pose_to_json(p: CameraPose):
    return {"R": p.R.reshape(-1).tolist(), "t": p.t.tolist(), "focal": p.focal,
            "cx": p.cx, "cy": p.cy, "width": p.width, "height": p.height}


def save_dataset(ds: Dataset, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m = ds.scene.modes
    for idn in ds.identities:
        idir, idp = out / idn.name, ds.scene.identities[idn.index]
        idir.mkdir(exist_ok=True)
        meta = {
            "name": idn.name,
            "resolution": ds.resolution,
            "t_near": ds.t_near,
            "t_far": ds.t_far,
            "seed": ds.seed,
            "gt_samples": ds.gt_samples,
            "background": ds.scene.background.tolist(),
            "modes": {"centers": m.centers.tolist(), "widths": m.widths.tolist(),
                      "directions": m.directions.tolist(),
                      "amplitudes": m.amplitudes.tolist(), "tints": m.tints.tolist()},
            "identity": {"semi_axes": idp.semi_axes.tolist(),
                         "base_color": idp.base_color.tolist(),
                         "density_scale": idp.density_scale},
            "split": {"train": idn.train_idx, "test": idn.test_idx},
            "frames": [{"index": fr.index, "pose": _pose_to_json(fr.pose),
                        "e": fr.e.tolist(), "box": list(fr.box)} for fr in idn.frames],
        }
        (idir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
        for fr in idn.frames:
            if fr.image is not None:
                ppm.write_ppm(idir / f"frame_{fr.index:04d}.ppm", fr.image)


# meta.json's leaves. A number leaf is (shape, rule, integer), config.check_leaf's
# arguments: rule is a key of config._RANGES or None, and a shape entry is a
# length, "d" (the mode count, fixed by modes.centers, the first "d" row walked)
# or None (any length). str is a string leaf; a dict is an object; [table] is a
# list of objects, each a table. Keys outside the table are not read.
_POSE = {"R": ((9,), None, False), "t": ((3,), None, False), "focal": ((), "> 0", False),
         "cx": ((), None, False), "cy": ((), None, False),
         "width": ((), "> 0", True), "height": ((), "> 0", True)}
_META = {
    "name": str,
    "resolution": ((), "> 0", True),
    "seed": ((), ">= 0", True),
    "t_near": ((), "> 0", False),
    "t_far": ((), "> 0", False),
    "gt_samples": ((), "> 0", True),
    "background": ((3,), None, False),
    "modes": {"centers": (("d", 3), None, False), "widths": (("d",), "> 0", False),
              "directions": (("d", 3), None, False), "amplitudes": (("d",), None, False),
              "tints": (("d", 3), None, False)},
    "identity": {"semi_axes": ((3,), "> 0", False), "base_color": ((3,), None, False),
                 "density_scale": ((), ">= 0", False)},
    "split": {"train": ((None,), ">= 0", True), "test": ((None,), ">= 0", True)},
    "frames": [{"index": ((), ">= 0", True), "pose": _POSE, "e": (("d",), None, False),
                "box": ((4,), ">= 0", True)}],
}
_SHARED = ("modes", "background", "resolution", "t_near", "t_far", "seed", "gt_samples")


def _walk(table: dict, obj, path: str, dims: dict) -> None:
    """obj against an object table of _META; ConfigError naming the first bad leaf."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path.rstrip('. ') or 'the root'} must be an object, got {obj!r}")
    for key, row in table.items():
        if key not in obj:
            raise ConfigError(f"{path}{key} is missing")
        val, kind = obj[key], row if row is str else list
        if isinstance(row, dict):
            _walk(row, val, f"{path}{key}.", dims)
        elif isinstance(row, tuple):
            check_leaf(path + key, val, *row, dims)
        elif not isinstance(val, kind):
            raise ConfigError(f"{path}{key} must be a JSON {kind.__name__}, got {val!r}")
        elif kind is list:
            for i, item in enumerate(val):
                _walk(row[0], item, f"frame {i} ", dims)


def _relations(meta: dict, dir_name: str) -> None:
    """The rules relating a walked meta.json's leaves and its directory's name;
    each leaf's own shape and range are _META's."""
    if meta["name"] != dir_name:
        raise ConfigError(f"name {meta['name']!r} is not its directory's name {dir_name!r}")
    if not re.fullmatch(r"id[0-9]+", meta["name"]):
        raise ConfigError(f"name {meta['name']!r} is not 'id' and a decimal scene index")
    if not meta["t_near"] < meta["t_far"]:
        raise ConfigError(f"t_far {meta['t_far']!r} is not above t_near {meta['t_near']!r}")
    for i, fj in enumerate(meta["frames"]):
        (r0, r1, c0, c1), h, w = fj["box"], fj["pose"]["height"], fj["pose"]["width"]
        if fj["index"] != i:
            raise ConfigError(f"frame {i} index is {fj['index']!r}, not its position {i}")
        if not (r0 < r1 <= h and c0 < c1 <= w):
            raise ConfigError(f"frame {i} box {fj['box']} is not four integers with "
                              f"0 <= r0 < r1 <= {h} and 0 <= c0 < c1 <= {w}")
    for part in _META["split"]:
        bad = [j for j in meta["split"][part] if j >= len(meta["frames"])]
        if bad:
            raise ConfigError(f"split.{part} entry {bad[0]!r} is not a frame index in "
                              f"[0, {len(meta['frames'])})")
    if not meta["split"]["test"]:
        raise ConfigError("split.test is empty")
    shared = sorted(set(meta["split"]["train"]) & set(meta["split"]["test"]))
    if shared:
        raise ConfigError(f"split.train and split.test share frame {shared[0]}")


def load_dataset(in_dir) -> Dataset:
    """Read a saved dataset. ConfigError names the file when a meta.json is not
    JSON, breaks a row of _META or a rule of _relations, has a frame pose whose R
    is not a rotation (CameraPose.validate), has a last frame id (Dataset.frame_id)
    past the pixel streams' 64-bit frame word, names the scene index of an earlier
    directory (id2 after id02), or has _SHARED keys that differ from the first
    identity's; and names the PPM when a frame has none or one whose size is not
    its pose's. Identities come in scene-index order (id2 before id10), as
    dataset_from_config makes them. A directory holding some of a scene's
    identities keeps their indices, so their ground truth and pixel streams are
    the full scene's."""
    root = Path(in_dir)
    idirs = sorted(p for p in root.iterdir() if p.is_dir() and (p / "meta.json").exists())
    if not idirs:
        raise ConfigError(f"no identity directories under {root}")
    identities, params, first, first_path = [], {}, None, idirs[0] / "meta.json"
    for idir in idirs:
        meta_path, frames = idir / "meta.json", []
        try:
            meta = json.loads(meta_path.read_text())
            _walk(_META, meta, "", {})
            _relations(meta, idir.name)
            for i, fj in enumerate(meta["frames"]):
                p = fj["pose"]
                pose = CameraPose(np.array(p["R"], float).reshape(3, 3), np.array(p["t"], float),
                                  *(p[k] for k in ("focal", "cx", "cy", "width", "height")))
                try:
                    frames.append(Frame(i, pose.validate(), np.array(fj["e"], float), None,
                                        tuple(fj["box"])))
                except UsageError as exc:
                    raise UsageError(f"frame {i} pose: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad dataset metadata {meta_path} "
                              f"({type(exc).__name__}: {exc})") from None
        index = int(meta["name"][2:])
        last = index * GT_FRAME_STRIDE + len(frames) - 1
        if last >> 64:
            raise ConfigError(f"bad dataset metadata {meta_path} (last frame id {last} "
                              f"does not fit the pixel streams' 64-bit frame word)")
        if index in params:
            twin = next(idn.name for idn in identities if idn.index == index)
            raise ConfigError(f"bad dataset metadata {meta_path} (scene index {index} is "
                              f"also {root / twin / 'meta.json'}'s)")
        first = first or meta
        differ = [k for k in _SHARED if meta[k] != first[k]]
        if differ:
            raise ConfigError(f"bad dataset metadata {meta_path} ({differ[0]} differs from "
                              f"{first_path})")
        for fr in frames:
            img_path = idir / f"frame_{fr.index:04d}.ppm"
            if not img_path.exists():
                raise ConfigError(f"missing frame image {img_path} (listed in {meta_path})")
            fr.image = ppm.read_ppm(img_path)
            if fr.image.shape != (fr.pose.height, fr.pose.width, 3):
                raise ConfigError(f"frame image {img_path} is {fr.image.shape[1]}x"
                                  f"{fr.image.shape[0]}, its pose in {meta_path} is "
                                  f"{fr.pose.width}x{fr.pose.height}")
        ij = meta["identity"]
        params[index] = IdentityParams(np.array(ij["semi_axes"], float),
                                       np.array(ij["base_color"], float), ij["density_scale"])
        identities.append(IdentityData(meta["name"], index, frames, meta["split"]["train"],
                                       meta["split"]["test"]))
    modes = ModeBank(**{k: np.array(first["modes"][k], float) for k in _META["modes"]})
    scene = SceneSpec(modes=modes, identities=params,
                      background=np.array(first["background"], float))
    return Dataset(scene=scene, identities=sorted(identities, key=lambda idn: idn.index),
                   **{k: first[k] for k in ("resolution", "t_near", "t_far", "seed", "gt_samples")})


def dataset_checksum(dir_path) -> str:
    """SHA-256 over all file bytes under dir_path, in sorted relative-path order."""
    root = Path(dir_path)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()
