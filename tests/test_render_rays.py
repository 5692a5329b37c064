"""renderer.render_rays against the per-ray loops it replaced.

The references below are the ground-truth/eval render and the training
batch loss as they were written before render_rays: one numpy Philox
generator per pixel, a per-ray stratify and resample loop, and each caller
placing its own sample points. The pipeline, with its batched draws, must
reproduce them bit for bit.
"""

import numpy as np
import pytest

from minerf import autodiff as ad
from minerf import conditioning as cond_mod
from minerf import config as cfg_mod
from minerf import ppm
from minerf import renderer as rd
from minerf import synthscene as sc
from minerf import trainer as tr
from minerf.errors import NumericError, UsageError
from minerf.field import forward_encoded, positional_encode

SETS = ["scene.n_identities=2", "scene.n_frames=4", "scene.resolution=8",
        "scene.gt_samples=24", "render.n_coarse=6", "render.n_fine=7",
        "field.layers=2", "field.hidden=16", "field.Lx=3", "field.Lv=1",
        "field.color_layers=1", "field.color_hidden=8",
        "train.rays_per_step=12", "train.steps=1", "train.eval_every=0"]


PIXEL_TAG = 0x706978  # last word of the renderer's per-pixel Philox counter


def _pixel_generator(key, step, frame, pixel):
    return np.random.Generator(np.random.Philox(
        key=key, counter=np.array([step, frame, pixel, PIXEL_TAG], dtype=np.uint64)))


def _stratified_ref(t_near, t_far, n, rng):
    width = (t_far - t_near) / n
    base = t_near + width * np.arange(n)
    return base + width * rng.random(n)


def _resample_ref(coarse_t, weights, n_fine, rng, lo, hi):
    total = weights.sum()
    if total == 0.0:
        return np.sort(np.concatenate([coarse_t, _stratified_ref(lo, hi, n_fine, rng)]))
    edges = np.empty(coarse_t.size + 1)
    edges[0] = lo
    edges[-1] = hi
    edges[1:-1] = 0.5 * (coarse_t[:-1] + coarse_t[1:])
    cdf = np.cumsum(weights) / total
    u = rng.random(n_fine)
    k = np.minimum(np.searchsorted(cdf, u, side="right"), weights.size - 1)
    cdf_lo = np.where(k > 0, cdf[k - 1], 0.0)
    frac = (u - cdf_lo) / (cdf[k] - cdf_lo)
    fine = np.clip(edges[k] + frac * (edges[k + 1] - edges[k]), lo, hi)
    return np.sort(np.concatenate([coarse_t, fine]))


class _Fixed:
    """Stands in for a pixel generator whose next draws are the uniforms u."""

    def __init__(self, u):
        self.u = u

    def random(self, n):
        assert n == len(self.u)
        return self.u


def test_batched_resample_matches_per_ray_reference():
    rng = np.random.default_rng(11)
    R, S, n, lo, hi = 40, 6, 9, 2.0, 6.0
    coarse = np.sort(rng.uniform(lo, hi, (R, S)), axis=1)
    # zero-weight interior bins leave flat stretches in the cdf
    weights = rng.uniform(0.0, 1.0, (R, S)) * (rng.uniform(size=(R, S)) < 0.6)
    weights[::7] = 0.0  # all-zero rows among normal ones
    weights[3] = [1.0, 1.0, 0.0, 2.0, 0.0, 0.0]  # cdf 0.25, 0.5, 0.5, 1, 1, 1
    u = rng.uniform(size=(R, n))
    u[3, :4] = [0.0, 0.25, 0.5, 0.75]  # draws exactly on cdf entries
    got = rd.hierarchical_resample(coarse, weights, u, lo, hi)
    want = np.stack([_resample_ref(coarse[r], weights[r], n, _Fixed(u[r]), lo, hi)
                     for r in range(R)])
    assert np.array_equal(got, want)
    # side="right": a draw on a cdf entry starts the next bin with mass
    mid = 0.5 * (coarse[3, :-1] + coarse[3, 1:])
    assert mid[0] in got[3] and mid[2] in got[3]


def test_batched_resample_rejects_bad_weights():
    coarse, u = np.array([[0.2, 0.6], [0.3, 0.7]]), np.full((2, 3), 0.5)
    with pytest.raises(UsageError):
        rd.hierarchical_resample(coarse, np.array([[1.0, 1.0], [0.0, -1.0]]), u, 0.0, 1.0)
    with pytest.raises(NumericError):
        rd.hierarchical_resample(coarse, np.array([[1.0, 1.0], [np.nan, 1.0]]), u, 0.0, 1.0)


def _render_image_ref(field_fn, pose, *, t_near, t_far, n_coarse, n_fine, fine_field_fn,
                      background, seed, frame_index):
    """The per-pixel render loop; field functions take (X, V) and return arrays."""
    H, W = pose.height, pose.width
    npix = H * W
    key = rd.philox_key(seed)
    rows, cols = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    dirs = rd.pixel_dirs(pose, rows.reshape(-1), cols.reshape(-1))
    origin = np.asarray(pose.t, dtype=np.float64)
    rngs = [_pixel_generator(key, 0, frame_index, p) for p in range(npix)]
    tc = np.stack([_stratified_ref(t_near, t_far, n_coarse, g) for g in rngs])
    bg = np.broadcast_to(np.asarray(background, dtype=np.float64), (npix, 3))

    def eval_pass(fn, ts):
        S = ts.shape[1]
        X = origin[None, None, :] + ts[:, :, None] * dirs[:, None, :]
        rgb, sigma = fn(X.reshape(-1, 3), np.repeat(dirs, S, axis=0))
        return rgb.reshape(npix, S, 3), sigma.reshape(npix, S)

    rgb_c, sig_c = eval_pass(field_fn, tc)
    colors, _, w = rd.composite_batch(tc, sig_c, rgb_c, t_far, bg)
    ts = tc
    if n_fine > 0:
        ts = np.stack([_resample_ref(tc[p], w[p], n_fine, rngs[p], t_near, t_far)
                       for p in range(npix)])
        rgb_f, sig_f = eval_pass(fine_field_fn, ts)
        colors, _, w = rd.composite_batch(ts, sig_f, rgb_f, t_far, bg)
    return colors.reshape(H, W, 3), (w * ts).sum(axis=1).reshape(H, W), ts


def _batch_loss_ref(state, ds, frame, bound, id_name, lat_name, rngs_pixels, rows, cols):
    """The training loss with its own field pass and per-ray sampling loops."""
    cfg = state.cfg
    rc, tcfg, variant = cfg["render"], cfg["train"], cfg["conditioning"]["variant"]
    arch = state.arch()
    gt = frame.image[rows, cols]
    dirs = rd.pixel_dirs(frame.pose, rows, cols)
    origin = np.asarray(frame.pose.t, dtype=np.float64)
    t_near, t_far = ds.t_near, ds.t_far
    tc = np.stack([_stratified_ref(t_near, t_far, rc["n_coarse"], g) for g in rngs_pixels])
    params = {k: bound.get(k, v) for k, v in state.params.items()}
    i_var, l_var = params[id_name], params[lat_name]
    inside = cond_mod.latent_inside(variant)
    cond_var = cond_mod.variant_forward(variant, tr._group(params, "cond"), frame.e, i_var,
                                        l=l_var if inside else None)
    bg = np.broadcast_to(ds.scene.background, (rows.size, 3))
    enc_v_ray = positional_encode(dirs, arch.Lv)

    def field_pass(prefix, ts):
        R, S = ts.shape
        X = origin[None, None, :] + ts[:, :, None] * dirs[:, None, :]
        return forward_encoded(arch, tr._group(params, prefix), cond_var,
                               np.zeros(0) if inside else l_var,
                               positional_encode(X.reshape(-1, 3), arch.Lx),
                               np.repeat(enc_v_ray, S, axis=0))

    rgb_c, sig_c = field_pass("coarse", tc)
    pred_c, w = rd.composite_rays_tape(sig_c, rgb_c, tc, t_far, bg)
    merged = np.stack([_resample_ref(tc[r], w[r], rc["n_fine"], rngs_pixels[r], t_near, t_far)
                       for r in range(rows.size)])
    rgb_f, sig_f = field_pass("fine", merged)
    pred_f, _ = rd.composite_rays_tape(sig_f, rgb_f, merged, t_far, bg)
    r_c, r_f = ad.sub(pred_c, gt), ad.sub(pred_f, gt)
    resid = ad.sum_(ad.mul(r_c, r_c)) + ad.sum_(ad.mul(r_f, r_f))
    total = tr._code_penalty(resid, l_var, tcfg["lambda_latent"])
    total = tr._code_penalty(total, i_var, tcfg["lambda_identity"])
    return total, resid


@pytest.fixture(scope="module")
def setup():
    cfg = cfg_mod.load_config(sets=SETS)
    ds = sc.dataset_from_config(cfg)
    return cfg, ds, tr.init_state(cfg, ds)


def _all_pixels(pose):
    return np.divmod(np.arange(pose.height * pose.width), pose.width)


def _depth(passes, pose):
    _, ts, w = passes[-1]
    return (w * ts).sum(axis=1).reshape(pose.height, pose.width)


def test_ground_truth_render_matches_per_ray_loops(setup):
    _, ds, _ = setup
    scene, k, f = ds.scene, 1, 2
    frame = ds.identities[k].frames[f]
    fid = ds.frame_id("id01", f)

    def analytic(X, V):
        return sc.analytic_field(scene, k, frame.e, X)

    img, depth, ts = _render_image_ref(
        analytic, frame.pose, t_near=ds.t_near, t_far=ds.t_far, n_coarse=ds.gt_samples,
        n_fine=0, fine_field_fn=None, background=scene.background, seed=ds.seed,
        frame_index=fid)
    # the dataset's GT frame is render_gt_frame's 8-bit round trip
    assert np.array_equal(frame.image, ppm.from_u8(ppm.to_u8(img)))
    passes = rd.render_rays(frame.pose, *_all_pixels(frame.pose), key=rd.philox_key(ds.seed),
                            step=0, frame=fid, t_near=ds.t_near, t_far=ds.t_far,
                            n_coarse=ds.gt_samples, n_fine=0, coarse_fn=analytic, fine_fn=None,
                            background=scene.background)
    assert len(passes) == 1
    assert np.array_equal(passes[0][1], ts)
    assert np.array_equal(passes[0][0].reshape(img.shape), img)
    assert np.array_equal(_depth(passes, frame.pose), depth)


def test_model_render_matches_per_ray_loops(setup):
    cfg, ds, state = setup
    idn = ds.identities[0]
    frame = idn.frames[idn.test_idx[0]]
    fid = idn.test_idx[0]
    arch = state.arch()
    cond = cond_mod.variant_forward("M", tr._group(state.params, "cond"), frame.e,
                                    state.params["identity.id00"])
    lat = np.zeros(cfg["conditioning"]["d_latent"])
    # each ray's unit direction encoded once, as _batch_loss_ref does, not per sample
    enc_v_ray = positional_encode(rd.pixel_dirs(frame.pose, *_all_pixels(frame.pose)), arch.Lv)

    def np_field(prefix):
        w = tr._group(state.params, prefix)

        def field(X, V):
            enc_v = np.repeat(enc_v_ray, X.shape[0] // len(enc_v_ray), axis=0)
            return forward_encoded(arch, w, cond, lat, positional_encode(X, arch.Lx), enc_v)
        return field

    img, depth, ts = _render_image_ref(
        np_field("coarse"), frame.pose, t_near=ds.t_near, t_far=ds.t_far, n_coarse=6,
        n_fine=7, fine_field_fn=np_field("fine"), background=ds.scene.background,
        seed=cfg["seed"], frame_index=fid)
    got_img, got_depth = tr.render_model_frame(state, ds, "id00", frame.e, frame.pose,
                                               frame_id=fid, return_depth=True)
    assert np.array_equal(got_img, img)
    assert np.array_equal(got_depth, depth)

    def rays_field(prefix):
        fn = np_field(prefix)

        def field(X, dirs):
            return fn(X, np.repeat(dirs, X.shape[0] // len(dirs), axis=0))
        return field

    passes = rd.render_rays(frame.pose, *_all_pixels(frame.pose),
                            key=rd.philox_key(cfg["seed"]), step=0, frame=fid,
                            t_near=ds.t_near, t_far=ds.t_far, n_coarse=6, n_fine=7,
                            coarse_fn=rays_field("coarse"), fine_fn=rays_field("fine"),
                            background=ds.scene.background)
    assert [p[1].shape[1] for p in passes] == [6, 13]
    assert np.array_equal(passes[1][1], ts)
    assert np.array_equal(_depth(passes, frame.pose), depth)


def test_training_loss_and_gradients_match_per_ray_loops(setup, monkeypatch):
    _, ds, state = setup
    key = rd.philox_key(5)
    rng = rd.step_rng(key, 3)
    k, f = 1, ds.identities[1].train_idx[1]
    frame = ds.identities[k].frames[f]
    H = W = ds.resolution
    rows, cols = tr._sample_pixels(rng, frame.box, H, W, 9, 3)
    fid = ds.frame_id("id01", f)
    id_name, lat_name = "identity.id01", f"latent.id01.{f:04d}"
    names = sorted(n for n in state.params if n.startswith(("cond.", "coarse.", "fine.")))
    names += [id_name, lat_name]

    composite, seen_ts = rd.composite_rays_tape, []

    def recording(sigma, rgb, ts, *rest):
        seen_ts[-1].append(ts)
        return composite(sigma, rgb, ts, *rest)

    monkeypatch.setattr(rd, "composite_rays_tape", recording)
    results = []
    for build in (
            lambda b: tr._batch_loss(state, ds, frame, b, id_name, lat_name, key, 4, fid,
                                     rows, cols),
            lambda b: _batch_loss_ref(state, ds, frame, b, id_name, lat_name,
                                      [_pixel_generator(key, 4, fid, int(p))
                                       for p in rows * W + cols], rows, cols)):
        tape = ad.Tape()
        bound = {n: ad.leaf(tape, state.params[n]) for n in names}
        seen_ts.append([])
        total, resid = build(bound)
        results.append((total.value, resid.value, seen_ts[-1], len(tape),
                        ad.grad(tape, total, list(bound.values()))))
    (total, resid, ts, n_nodes, grads), (want_total, want_resid, want_ts, want_nodes,
                                         want_grads) = results
    assert np.array_equal(total, want_total) and np.array_equal(resid, want_resid)
    assert len(ts) == len(want_ts) == 2
    assert all(np.array_equal(a, b) for a, b in zip(ts, want_ts))
    assert n_nodes == want_nodes
    for name, g, want in zip(names, grads, want_grads):
        assert np.array_equal(g, want), name


@pytest.mark.parametrize("sets", [[], ["conditioning.variant=LatentInM", "conditioning.k=8"]])
def test_training_binding_renders_the_model_frame(setup, sets):
    """Training and rendering enter the field one way: the binding on a
    recording tape, with every parameter a leaf, reproduces render_model_frame."""
    cfg, ds, state = setup
    if sets:
        state = tr.init_state(cfg_mod.load_config(sets=SETS + sets), ds)
    k = 1
    idn = ds.identities[k]
    fidx = idn.test_idx[0]
    frame = idn.frames[fidx]
    fid = ds.frame_id(idn.name, fidx)
    tape = ad.Tape()
    params = {n: ad.leaf(tape, v) for n, v in state.params.items()}
    lat = ad.leaf(tape, np.zeros(state.cfg["conditioning"]["d_latent"]))
    coarse_fn, fine_fn = tr.model_fields(state, params, frame.e,
                                         params[f"identity.{idn.name}"], lat)
    passes = rd.render_rays(frame.pose, *_all_pixels(frame.pose),
                            key=rd.philox_key(state.cfg["seed"]), step=0, frame=fid,
                            t_near=ds.t_near, t_far=ds.t_far, n_coarse=6, n_fine=7,
                            coarse_fn=coarse_fn, fine_fn=fine_fn,
                            background=ds.scene.background)
    assert isinstance(passes[-1][0], ad.Var) and len(tape) > len(params)
    img, depth = tr.render_model_frame(state, ds, idn.name, frame.e, frame.pose,
                                       frame_id=fid, return_depth=True)
    assert np.array_equal(passes[-1][0].value.reshape(img.shape), img)
    assert np.array_equal(_depth(passes, frame.pose), depth)
