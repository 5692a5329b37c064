import json
import math
import pickle
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minerf import config
from minerf import synthscene as sc
from minerf import ppm
from minerf import renderer as rd
from minerf.errors import ConfigError

BG = [0.08, 0.10, 0.14]


def _dataset(*sets):
    return sc.dataset_from_config(config.load_config(sets=sets, env={}))


def _tiny(seed=0, *sets):
    return _dataset("scene.n_identities=2", "scene.n_frames=10", "scene.resolution=16",
                    "scene.gt_samples=64", f"seed={seed}", *sets)


def test_analytic_field_center_and_far():
    rng = np.random.default_rng(0)
    spec = sc.sample_scene(1, 8, rng, BG, deform_budget=0.5, tint_strength=0.35)
    idp = spec.identities[0]
    rgb, sigma = sc.analytic_field(spec, 0, np.zeros(8), np.zeros((1, 3)))
    assert sigma[0] == pytest.approx(idp.density_scale)
    assert np.allclose(rgb[0], idp.base_color, atol=1e-12)
    _, far = sc.analytic_field(spec, 0, np.zeros(8), np.array([[0.99, 0.99, 0.99]]))
    assert far[0] == 0.0


def test_analytic_field_continuous_in_expression():
    rng = np.random.default_rng(1)
    spec = sc.sample_scene(1, 8, rng, BG, deform_budget=0.5, tint_strength=0.35)
    X = rng.uniform(-0.5, 0.5, (64, 3))
    e = rng.uniform(-1, 1, 8)
    base_rgb, base_sig = sc.analytic_field(spec, 0, e, X)
    for eps in (1e-3, 1e-4, 1e-5):
        rgb, sig = sc.analytic_field(spec, 0, e + eps, X)
        # Lipschitz-style bound: change scales with eps
        assert np.max(np.abs(sig - base_sig)) < 200 * eps
        assert np.max(np.abs(rgb - base_rgb)) < 50 * eps


def test_deformed_support_stays_in_bounds():
    rng = np.random.default_rng(2)
    spec = sc.sample_scene(4, 8, rng, BG, deform_budget=0.5, tint_strength=0.35)
    margin = sc.deformation_margin(spec)
    for idp in spec.identities.values():
        assert np.max(idp.semi_axes) + margin < 1.0
    # worst-case expression: densities vanish outside the bound
    shell = np.array([[0.99, 0.0, 0.0], [0.0, -0.99, 0.0], [0.7, 0.7, 0.0]])
    for sgn in (-1.0, 1.0):
        _, sig = sc.analytic_field(spec, 0, sgn * np.ones(8), shell)
        assert np.all(sig == 0.0)


def test_dataset_deterministic():
    a = _tiny(seed=3)
    b = _tiny(seed=3)
    for ia, ib in zip(a.identities, b.identities):
        for fa, fb in zip(ia.frames, ib.frames):
            assert np.array_equal(fa.image, fb.image)
            assert np.array_equal(fa.e, fb.e)


def test_identity_dependence_with_shared_expressions():
    ds = _tiny(4, "scene.share_expressions=true")
    a, b = ds.identities
    assert np.array_equal(a.frames[0].e, b.frames[0].e)
    diff = np.linalg.norm(a.frames[0].image - b.frames[0].image)
    assert diff > 0.0


def test_gt_frame_self_consistency():
    ds = _tiny(seed=5)
    fr = ds.identities[1].frames[3]
    again = sc.render_gt_frame(ds.scene, 1, fr.e, fr.pose, ds.t_near, ds.t_far,
                               ds.gt_samples, ds.seed, ds.frame_id("id01", 3))
    assert np.array_equal(fr.image, ppm.from_u8(ppm.to_u8(again)))
    assert np.array_equal(fr.image, ds.gt_image("id01", fr.e, 3))


def test_gt_quadrature_convergence():
    rng = np.random.default_rng(6)
    spec = sc.sample_scene(1, 8, rng, BG, deform_budget=0.5, tint_strength=0.35)
    pose = sc.orbit_pose(0, 10, 2.8, 0.35, 16, focal_factor=1.2)
    e = rng.uniform(-1, 1, 8)
    imgs = [sc.render_gt_frame(spec, 0, e, pose, 1.6, 4.0, n, 0, 0)
            for n in (256, 512)]
    assert np.max(np.abs(imgs[0] - imgs[1])) < 2e-3


def test_expressions_only_act_through_modes_and_tint():
    rng = np.random.default_rng(7)
    spec = sc.sample_scene(1, 8, rng, BG, deform_budget=0.0, tint_strength=0.0)
    X = rng.uniform(-0.5, 0.5, (32, 3))
    r0, s0 = sc.analytic_field(spec, 0, np.zeros(8), X)
    r1, s1 = sc.analytic_field(spec, 0, rng.uniform(-1, 1, 8), X)
    assert np.array_equal(r0, r1) and np.array_equal(s0, s1)


def test_split_last_ten_percent():
    ds = _tiny(seed=8)
    for idn in ds.identities:
        n = len(idn.frames)
        assert idn.test_idx == [n - 1]
        assert sorted(idn.train_idx + idn.test_idx) == list(range(n))
        assert not set(idn.train_idx) & set(idn.test_idx)
    ds60 = _dataset("scene.n_identities=1", "scene.n_frames=60", "scene.resolution=8",
                    "scene.gt_samples=8", "seed=0")
    assert ds60.identities[0].test_idx == list(range(54, 60))


def test_expression_trajectories_bounded_and_smooth():
    rng = np.random.default_rng(9)
    traj = sc.smooth_trajectory(200, 8, rng, smoothness=0.85)
    assert np.all(np.abs(traj) <= 1.0)
    jumps = np.abs(np.diff(traj, axis=0)).max()
    assert jumps < 0.35  # low-pass: no frame-to-frame snapping


def test_save_load_roundtrip(tmp_path):
    ds = _tiny(seed=10)
    sc.save_dataset(ds, tmp_path)
    back = sc.load_dataset(tmp_path)
    assert back.identity_names() == ds.identity_names()
    assert back.t_near == ds.t_near and back.t_far == ds.t_far
    for ia, ib in zip(ds.identities, back.identities):
        assert ia.train_idx == ib.train_idx and ia.test_idx == ib.test_idx
        for fa, fb in zip(ia.frames, ib.frames):
            assert np.array_equal(fa.e, fb.e)
            assert fa.box == fb.box
            assert np.array_equal(fa.pose.R, fb.pose.R)
            # the in-memory frames are already the 8-bit images the PPMs hold
            assert np.array_equal(fa.image, fb.image)
    m0, m1 = ds.scene.modes, back.scene.modes
    assert np.array_equal(m0.centers, m1.centers)
    assert np.array_equal(m0.tints, m1.tints)


def test_checksum_stable(tmp_path):
    ds = _tiny(seed=11)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sc.save_dataset(ds, d1)
    sc.save_dataset(_tiny(seed=11), d2)
    assert sc.dataset_checksum(d1) == sc.dataset_checksum(d2)


def test_counts_validated():
    with pytest.raises(ConfigError, match="scene.n_identities"):
        config.load_config(sets=["scene.n_identities=0"], env={})


def test_projected_box_contains_object():
    ds = _tiny(seed=12)
    bg = ppm.from_u8(ppm.to_u8(ds.scene.background))
    for idn in ds.identities:
        for fr in idn.frames:
            r0, r1, c0, c1 = fr.box
            outside = np.ones((16, 16), dtype=bool)
            outside[r0:r1, c0:c1] = False
            # every pixel that is not the 8-bit background lies inside the box
            assert np.all(fr.image[outside] == bg)


def _edit_meta(root, name, edit):
    path = root / name / "meta.json"
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))
    return path


def test_load_rejects_expression_of_wrong_length(tmp_path):
    sc.save_dataset(_tiny(seed=13), tmp_path)

    def cut(meta):
        meta["frames"][3]["e"] = meta["frames"][3]["e"][:4]
    path = _edit_meta(tmp_path, "id00", cut)
    with pytest.raises(ConfigError, match="frame 3 e must be a list of 8 finite numbers") as exc:
        sc.load_dataset(tmp_path)
    assert str(path) in str(exc.value)


SCENE_EDITS = {
    "modes": lambda m: m["modes"].update(widths=[5.0] * len(m["modes"]["widths"])),
    "background": lambda m: m.update(background=[0.5, 0.5, 0.5]),
    "resolution": lambda m: m.update(resolution=17),
    "t_near": lambda m: m.update(t_near=0.5),
    "t_far": lambda m: m.update(t_far=99.0),
    "seed": lambda m: m.update(seed=7),
    "gt_samples": lambda m: m.update(gt_samples=65),
}


@pytest.mark.parametrize("key", SCENE_EDITS)
def test_load_rejects_scene_keys_that_differ_between_identities(tmp_path, key):
    sc.save_dataset(_tiny(seed=14), tmp_path)
    path = _edit_meta(tmp_path, "id00", SCENE_EDITS[key])
    with pytest.raises(ConfigError, match=f"{key} differs") as exc:
        sc.load_dataset(tmp_path)
    assert str(path) in str(exc.value) and str(tmp_path / "id01" / "meta.json") in str(exc.value)


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _scene_with(e_scale, density_scale=None, seed=15):
    rng = np.random.default_rng(seed)
    spec = sc.sample_scene(1, 8, rng, BG, deform_budget=0.5, tint_strength=0.35)
    if density_scale is not None:
        idp = spec.identities[0]
        spec = sc.SceneSpec(modes=spec.modes, background=spec.background, identities={
            0: sc.IdentityParams(idp.semi_axes, idp.base_color, density_scale)})
    e = rng.uniform(-1.0, 1.0, 8)
    return spec, e_scale * e / np.max(np.abs(e))


@pytest.mark.parametrize("e_scale, density_scale", [(0.0, None), (1.0, None), (1.7, None),
                                                    (1.0, 0.0)])
def test_analytic_field_equals_the_dense_kernel_on_the_support_box(e_scale, density_scale):
    spec, e = _scene_with(e_scale, density_scale)
    h = sc.support_half_extent(spec, 0, e)
    unslacked = h / (1.0 + 1e-6)
    # the 26 face, edge and corner directions of the box, just inside and just
    # outside it and its unslacked core, then random points around it
    signs = np.array([s for s in np.ndindex(3, 3, 3) if s != (1, 1, 1)], float) - 1.0
    X = np.concatenate([signs * box * f for box in (h, unslacked)
                        for f in (1.0 - 1e-9, 1.0 + 1e-9)]
                       + [np.random.default_rng(16).uniform(-1.3, 1.3, (4000, 3)) * h])
    rgb, sigma = sc.analytic_field(spec, 0, e, X)
    dense_rgb, dense_sigma = sc._analytic_kernel(spec, 0, e, X)
    inside = np.all(np.abs(X) <= h, axis=1)
    assert 0 < inside.sum() < len(X)
    assert np.array_equal(_bits(sigma), _bits(dense_sigma))  # +0.0 outside, sign bit too
    assert np.array_equal(_bits(rgb[inside]), _bits(dense_rgb[inside]))
    assert not np.any(rgb[~inside]) and not np.any(np.signbit(dense_sigma[~inside]))
    if density_scale is None and e_scale == 0.0:
        # the unslacked box is tight: density just inside its face centers
        faces = np.flatnonzero(np.abs(signs).sum(axis=1) == 1)
        assert np.all(dense_sigma[faces] == 0.0) and np.all(dense_sigma[2 * 26 + faces] > 0.0)


def _look_at(eye, target, res):
    """A pose whose pixel (res // 2, res // 2) looks from eye straight at target."""
    z = (eye - target) / np.linalg.norm(eye - target)
    x = np.cross([0.0, 1.0, 0.0], z)
    x /= np.linalg.norm(x)
    return rd.CameraPose(R=np.column_stack([x, np.cross(z, x), z]), t=eye, focal=1.2 * res,
                         cx=res // 2 + 0.5, cy=res // 2 + 0.5, width=res, height=res)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("res", [8, 17, 32])
def test_culled_ground_truth_equals_the_dense_render_on_grazing_rays(seed, res):
    ds = _dataset("scene.n_identities=2", "scene.n_frames=2", f"scene.resolution={res}",
                  "scene.gt_samples=64", f"seed={seed}")
    rng = np.random.default_rng(seed)
    hit_share = []
    for k in range(2):
        for e_scale in (0.0, 1.0, 1.7):
            e = rng.uniform(-1.0, 1.0, 8)
            e = e_scale * e / np.max(np.abs(e))
            h = sc.support_half_extent(ds.scene, k, e)
            eye = 2.8 * rng.normal(size=3)
            eye *= 2.8 / np.linalg.norm(eye)
            # centre rays through a corner, an edge, a face of the box, and away from it
            targets = [h * rng.choice([-1.0, 1.0], 3) * (1.0 + rng.choice([-1e-9, 1e-9])),
                       h * [1.0, -1.0, 0.3], h * [0.2, 1.0 + 1e-12, -0.5], 2.0 * eye]
            for f, target in enumerate(targets):
                pose = _look_at(eye, np.asarray(target), res)
                kw = dict(t_near=ds.t_near, t_far=ds.t_far, n_coarse=ds.gt_samples,
                          background=ds.scene.background, seed=ds.seed, frame_index=f)
                img, depth = rd.render_image(lambda X, d: sc.analytic_field(ds.scene, k, e, X),
                                             pose, support=h, return_depth=True, **kw)
                dense, dense_depth = rd.render_image(
                    lambda X, d: sc._analytic_kernel(ds.scene, k, e, X), pose,
                    return_depth=True, **kw)
                gt = sc.render_gt_frame(ds.scene, k, e, pose, ds.t_near, ds.t_far,
                                        ds.gt_samples, ds.seed, f)
                assert np.array_equal(_bits(gt), _bits(dense))
                assert np.array_equal(_bits(img), _bits(dense))
                assert np.array_equal(_bits(depth), _bits(dense_depth))
                dirs = rd.pixel_dirs(pose, *np.divmod(np.arange(res * res), res))
                hit_share.append(rd._crosses_box(eye, dirs, h, ds.t_near, ds.t_far).mean())
    assert min(hit_share) == 0.0 and 0.0 < max(hit_share) < 1.0


@pytest.mark.parametrize("res", [8, 17, 32])
def test_render_image_support_is_exact_for_a_density_that_fills_the_box(res):
    """render_image's ray culling alone, on a field whose density reaches the box's core."""
    core = np.array([0.6, 0.45, 0.5])
    h = core * (1.0 + 1e-6)

    def field(X, dirs):
        sigma = np.where(np.all(np.abs(X) <= core, axis=1), 8.0, 0.0)
        return np.clip(0.5 + 0.4 * X, 0.0, 1.0), sigma

    rng = np.random.default_rng(res)
    for f in range(6):
        eye = rng.normal(size=3)
        eye *= 2.0 / np.linalg.norm(eye)
        target = core * rng.choice([-1.0, 1.0], 3) * (1.0 + rng.choice([-1e-9, 1e-9]))
        pose = _look_at(eye, target, res)
        # a segment that starts and ends inside the box for some rays
        kw = dict(t_near=1.5, t_far=2.3, n_coarse=32, background=np.array(BG),
                  seed=f, frame_index=f)
        img, depth = rd.render_image(field, pose, support=h, return_depth=True, **kw)
        dense, dense_depth = rd.render_image(field, pose, return_depth=True, **kw)
        assert np.array_equal(_bits(img), _bits(dense))
        assert np.array_equal(_bits(depth), _bits(dense_depth))


def _leaf_paths(tree, prefix=""):
    """Dotted leaf paths of a meta.json or of a _META table; "frames[]" stands for every frame."""
    if isinstance(tree, dict):
        return {p for key, sub in tree.items() for p in _leaf_paths(sub, f"{prefix}{key}.")}
    if isinstance(tree, list) and tree and isinstance(tree[0], dict):
        return {p for sub in tree for p in _leaf_paths(sub, prefix[:-1] + "[].")}
    return {prefix[:-1]}


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("small_data")
    sc.save_dataset(_dataset("scene.n_identities=2", "scene.n_frames=4", "scene.resolution=8",
                             "scene.gt_samples=8", "seed=17"), root)
    return root


def test_load_ignores_keys_outside_the_table(small_data, tmp_path):
    # datasets from older versions carry a scene-bounds key that nothing reads
    data = tmp_path / "data"
    shutil.copytree(small_data, data)
    for name in ("id00", "id01"):
        _edit_meta(data, name, lambda m: m.update(bounds=1.0))
    assert pickle.dumps(sc.load_dataset(data)) == pickle.dumps(sc.load_dataset(small_data))


def test_save_writes_exactly_the_leaves_load_checks(small_data):
    for name in ("id00", "id01"):
        meta = json.loads((small_data / name / "meta.json").read_text())
        assert _leaf_paths(meta) == _leaf_paths(sc._META)


META_LEAVES = sorted(_leaf_paths(sc._META))


def _row(path):
    """The _META row of a leaf path."""
    row = sc._META
    for key in path.split("."):
        row = row[key.removesuffix("[]")]
        row = row[0] if isinstance(row, list) else row
    return row


def _damages(row):
    """The damages that break a leaf with this _META row."""
    if row is str:
        return ["drop", "number"]
    shape, rule, integer = row
    return (["drop", "nan", "string"] + ["length"] * (bool(shape) and shape[-1] is not None)
            + ["range"] * (rule is not None) + ["float"] * integer)


DAMAGES = [(path, kind) for path in META_LEAVES for kind in _damages(_row(path))]


@pytest.mark.parametrize("path, kind", DAMAGES, ids=[f"{p}-{k}" for p, k in DAMAGES])
@settings(derandomize=True, max_examples=4, deadline=None)
@given(data=st.data())
def test_load_names_the_file_and_leaf_of_every_damaged_leaf(small_data, path, kind, data):
    row = _row(path)
    meta_path = small_data / data.draw(st.sampled_from(["id00", "id01"])) / "meta.json"
    pristine = meta_path.read_text()
    meta = json.loads(pristine)
    *parents, key = path.split(".")
    parent, needle = meta, path
    if parents and parents[0] == "frames[]":
        i = data.draw(st.integers(0, len(meta["frames"]) - 1))
        parent, needle = meta["frames"][i], f"frame {i} " + path.removeprefix("frames[].")
        parents = parents[1:]
    for p in parents:
        parent = parent[p]
    if kind == "drop":
        del parent[key]
    elif kind == "number":
        parent[key] = 7
    else:
        shape, rule, integer = row
        # descend to one number; "length" stops one level short and cuts that list
        for _ in shape[:-1] if kind == "length" else shape:
            parent, key = parent[key], data.draw(st.integers(0, len(parent[key]) - 1))
        damaged = {"nan": lambda v: math.nan, "string": lambda v: "x",
                   "length": lambda v: v[:-1], "float": float,
                   "range": lambda v: {"> 0": 0, ">= 0": -1}[rule]}[kind]
        parent[key] = damaged(parent[key])
    meta_path.write_text(json.dumps(meta))
    try:
        with pytest.raises(ConfigError) as exc:
            sc.load_dataset(small_data)
    finally:
        meta_path.write_text(pristine)
    assert str(meta_path) in str(exc.value) and needle in str(exc.value), (kind, str(exc.value))
