"""Procedural multi-identity dynamic scenes and dataset assembly.

Stands in for tracked video: each identity is an analytic ellipsoid density
with its own semi-axes, color, and density scale; a global bank of radial
bump modes deforms the lookup point and tints a patch of the surface, driven
by a per-frame expression vector. Ground-truth frames are rendered from the
analytic field with a high sample count, so every model prediction can be
compared against exact ground truth, including under transferred expressions.

The density is exactly +0.0 outside the box |x_j| <= h_j of
support_half_extent, h_j = (a_j + sum_m |e_m amp_m dir_mj|)(1 + 1e-6) for
semi-axes a, mode amplitudes amp and mode directions dir.
So analytic_field evaluates the formula only at points inside the box, and
render_gt_frame renders only the rays that cross it. Culled samples have
alpha = -expm1(-0.0) = +0.0, weight +0.0 and transmittance factor 1, and
w * rgb = +0.0 for any rgb >= 0. A missed ray composites to 0.0 + 1.0 * bg.
Every ground-truth frame is therefore bit-identical to the dense render,
given BLAS products whose rows do not depend on the other rows
(`minerf verify --suite render` checks this: support_culling_exact).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ppm
from .config import check_number, check_numbers
from .errors import ConfigError, UsageError
from .renderer import CameraPose, render_image

GT_FRAME_STRIDE = 100003  # spreads per-frame render streams across identities
SUPPORT_MARGIN = 0.25  # free space between the near/far bounds and the deformed support


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
    identities: list
    background: np.ndarray  # (3,)
    bounds: float = 1.0


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
    params: IdentityParams
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
        raise UsageError(f"unknown identity {name!r}")


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
    inside the [-1,1]^3 scene bounds for any |e|_inf <= 1.
    """
    centers = 0.3 * _fibonacci_sphere(d)
    widths = np.full(d, 0.22)
    directions = _fibonacci_sphere(d)  # distinct fixed unit directions
    amplitudes = np.full(d, deform_budget / d)
    tints = rng.uniform(-1.0, 1.0, size=(d, 3)) * tint_strength
    identities = []
    for _ in range(n_identities):
        identities.append(IdentityParams(
            semi_axes=rng.uniform(0.22, 0.42, size=3),
            base_color=rng.uniform(0.25, 0.85, size=3),
            density_scale=float(rng.uniform(9.0, 14.0)),
        ))
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
    """Scene, trajectories, poses and ground-truth frames of cfg's scene section;
    deterministic per cfg["seed"]. ConfigError when the camera orbit reaches into
    the near bound (t_near <= 0)."""
    s, seed = cfg["scene"], cfg["seed"]
    n_frames, resolution, d = s["n_frames"], s["resolution"], s["d_expression"]
    scene_rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    scene = sample_scene(s["n_identities"], d, scene_rng, s["background"],
                         s["deform_budget"], s["tint_strength"])
    reach = 0.42 + deformation_margin(scene)
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
            img = None
            if render_images:
                img = render_gt_frame(scene, k, traj[f], pose, t_near, t_far,
                                      s["gt_samples"], seed, k * GT_FRAME_STRIDE + f)
            frames.append(Frame(index=f, pose=pose, e=traj[f].copy(), image=img,
                                box=project_box(pose, half_extent)))
        identities.append(IdentityData(
            name=f"id{k:02d}", params=scene.identities[k], frames=frames,
            train_idx=list(range(n_frames - n_test)),
            test_idx=list(range(n_frames - n_test, n_frames))))
    return Dataset(scene=scene, identities=identities, resolution=resolution,
                   t_near=t_near, t_far=t_far, seed=seed, gt_samples=s["gt_samples"])


def render_gt_frame(scene: SceneSpec, identity_index: int, e: np.ndarray,
                    pose: CameraPose, t_near: float, t_far: float, samples: int,
                    seed: int, frame_id: int) -> np.ndarray:
    return render_image(lambda X, dirs: analytic_field(scene, identity_index, e, X), pose,
                        t_near=t_near, t_far=t_far, n_coarse=samples, n_fine=0,
                        background=scene.background, seed=seed, frame_index=frame_id,
                        support=support_half_extent(scene, identity_index, e))


# ---------------------------------------------------------------------------
# on-disk layout: one directory per identity with meta.json + PPM frames

def _pose_to_json(p: CameraPose):
    return {"R": p.R.reshape(-1).tolist(), "t": p.t.tolist(), "focal": p.focal,
            "cx": p.cx, "cy": p.cy, "width": p.width, "height": p.height}


def _pose_from_json(j, name: str) -> CameraPose:
    """The pose in j; ConfigError or UsageError naming name when an entry is
    malformed or R (nine numbers, row-major) is not a rotation."""
    R = np.array(check_numbers(f"{name}.R", j["R"], 9), dtype=np.float64).reshape(3, 3)
    pose = CameraPose(R=R,
                      t=np.array(check_numbers(f"{name}.t", j["t"], 3), dtype=np.float64),
                      focal=check_number(f"{name}.focal", j["focal"], "> 0"),
                      cx=check_number(f"{name}.cx", j["cx"]),
                      cy=check_number(f"{name}.cy", j["cy"]),
                      width=check_number(f"{name}.width", j["width"], "> 0", integer=True),
                      height=check_number(f"{name}.height", j["height"], "> 0", integer=True))
    try:
        return pose.validate()
    except UsageError as exc:
        raise UsageError(f"{name}: {exc}") from None


def save_dataset(ds: Dataset, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    m = ds.scene.modes
    for idn in ds.identities:
        idir = out / idn.name
        idir.mkdir(exist_ok=True)
        meta = {
            "name": idn.name,
            "resolution": ds.resolution,
            "t_near": ds.t_near,
            "t_far": ds.t_far,
            "seed": ds.seed,
            "gt_samples": ds.gt_samples,
            "background": ds.scene.background.tolist(),
            "bounds": ds.scene.bounds,
            "modes": {"centers": m.centers.tolist(), "widths": m.widths.tolist(),
                      "directions": m.directions.tolist(),
                      "amplitudes": m.amplitudes.tolist(), "tints": m.tints.tolist()},
            "identity": {"semi_axes": idn.params.semi_axes.tolist(),
                         "base_color": idn.params.base_color.tolist(),
                         "density_scale": idn.params.density_scale},
            "split": {"train": idn.train_idx, "test": idn.test_idx},
            "frames": [{"index": fr.index, "pose": _pose_to_json(fr.pose),
                        "e": fr.e.tolist(), "box": list(fr.box)} for fr in idn.frames],
        }
        (idir / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
        for fr in idn.frames:
            if fr.image is not None:
                ppm.write_ppm(idir / f"frame_{fr.index:04d}.ppm", fr.image)


_SCENE_KEYS = ("modes", "background", "bounds", "resolution", "t_near", "t_far", "seed",
               "gt_samples")


def _matrix(name: str, val, n: int) -> np.ndarray:
    """val as an (n, 3) array: n lists of three finite numbers; else ConfigError naming name."""
    if not isinstance(val, list) or len(val) != n:
        raise ConfigError(f"{name} must be a list of {n} rows of 3 finite numbers, got {val!r}")
    return np.array([check_numbers(f"{name}[{i}]", row, 3) for i, row in enumerate(val)])


def _modes_from_json(mm) -> ModeBank:
    """The mode bank in mm; ConfigError naming the key when centers is not a
    non-empty list of d rows of three finite numbers, directions or tints not d
    such rows, widths not d finite numbers > 0 or amplitudes not d finite numbers."""
    centers = mm["centers"]
    if not isinstance(centers, list) or not centers:
        raise ConfigError(f"modes.centers must be a non-empty list of rows of 3 finite "
                          f"numbers, got {centers!r}")
    d = len(centers)
    return ModeBank(centers=_matrix("modes.centers", centers, d),
                    widths=np.array(check_numbers("modes.widths", mm["widths"], d, "> 0")),
                    directions=_matrix("modes.directions", mm["directions"], d),
                    amplitudes=np.array(check_numbers("modes.amplitudes", mm["amplitudes"], d)),
                    tints=_matrix("modes.tints", mm["tints"], d))


def load_dataset(in_dir) -> Dataset:
    """Read a saved dataset. ConfigError names the file when a meta.json is not
    JSON or lacks a key, when its scene-wide keys (_SCENE_KEYS) differ from the
    first identity's, when its mode bank does not pass _modes_from_json or its
    background is not three finite numbers, when its identity block is not three
    finite semi_axes > 0, three finite base_color numbers and a finite
    density_scale >= 0, when a frame pose's R is not a rotation, its t not three
    finite numbers, its focal not finite and > 0, its cx or cy not finite or its
    width or height not a positive integer, when a frame's e is not one finite
    number per mode, when a frame box is not four integers with
    0 <= r0 < r1 <= height and 0 <= c0 < c1 <= width, when a split entry is not
    a frame index or the test split is empty, or when a frame it lists has no
    PPM or one whose size is not its pose's."""
    root = Path(in_dir)
    idirs = sorted(p for p in root.iterdir() if p.is_dir() and (p / "meta.json").exists())
    if not idirs:
        raise ConfigError(f"no identity directories under {root}")
    identities, first_path, first = [], None, None
    for idir in idirs:
        meta_path = idir / "meta.json"
        try:
            meta = json.loads(meta_path.read_text())
            modes = _modes_from_json(meta["modes"])
            background = np.array(check_numbers("background", meta["background"], 3))
            ij = meta["identity"]
            idp = IdentityParams(
                semi_axes=np.array(check_numbers("identity.semi_axes", ij["semi_axes"], 3, "> 0")),
                base_color=np.array(check_numbers("identity.base_color", ij["base_color"], 3)),
                density_scale=check_number("identity.density_scale", ij["density_scale"], ">= 0"))
            frames = [Frame(index=fj["index"],
                            pose=_pose_from_json(fj["pose"], f"frame {fj['index']} pose"),
                            e=np.array(check_numbers(f"frame {fj['index']} e", fj["e"],
                                                     modes.d)),
                            image=None, box=tuple(fj["box"])) for fj in meta["frames"]]
            for fr in frames:
                b, pose = fr.box, fr.pose
                if not (len(b) == 4 and all(type(x) is int for x in b)
                        and 0 <= b[0] < b[1] <= pose.height and 0 <= b[2] < b[3] <= pose.width):
                    raise ValueError(f"frame {fr.index} box {list(b)} is not four integers "
                                     f"with 0 <= r0 < r1 <= {pose.height} and "
                                     f"0 <= c0 < c1 <= {pose.width}")
            img_paths = [idir / f"frame_{fr.index:04d}.ppm" for fr in frames]
            idn = IdentityData(name=meta["name"], params=idp, frames=frames,
                               train_idx=list(meta["split"]["train"]),
                               test_idx=list(meta["split"]["test"]))
            shared = {k: meta[k] for k in _SCENE_KEYS}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad dataset metadata {meta_path} "
                              f"({type(exc).__name__}: {exc})") from None
        if first is None:
            first_path, first, scene_modes, scene_bg = meta_path, shared, modes, background
        differ = [k for k in _SCENE_KEYS if shared[k] != first[k]]
        if differ:
            raise ConfigError(f"bad dataset metadata {meta_path} ({differ[0]} differs from "
                              f"{first_path})")
        for part, idx in (("train", idn.train_idx), ("test", idn.test_idx)):
            bad = [j for j in idx if type(j) is not int or not 0 <= j < len(frames)]
            if bad:
                raise ConfigError(f"bad dataset metadata {meta_path} (split.{part} entry "
                                  f"{bad[0]!r} is not a frame index in [0, {len(frames)}))")
        if not idn.test_idx:
            raise ConfigError(f"bad dataset metadata {meta_path} (split.test is empty)")
        for fr, img_path in zip(frames, img_paths):
            if not img_path.exists():
                raise ConfigError(f"missing frame image {img_path} (listed in {meta_path})")
            fr.image = ppm.read_ppm(img_path)
            if fr.image.shape != (fr.pose.height, fr.pose.width, 3):
                raise ConfigError(f"frame image {img_path} is {fr.image.shape[1]}x"
                                  f"{fr.image.shape[0]}, its pose in {meta_path} is "
                                  f"{fr.pose.width}x{fr.pose.height}")
        identities.append(idn)
    scene = SceneSpec(modes=scene_modes, identities=[idn.params for idn in identities],
                      background=scene_bg, bounds=first["bounds"])
    return Dataset(scene=scene, identities=identities,
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
