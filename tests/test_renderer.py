import tracemalloc

import numpy as np
import pytest

from minerf import autodiff as ad
from minerf import config, synthscene, trainer
from minerf import renderer as rd
from minerf.errors import NumericError, UsageError


def _pose(R=None, t=None, res=5):
    return rd.CameraPose(R=np.eye(3) if R is None else R,
                         t=np.zeros(3) if t is None else t,
                         focal=2.0 * res, cx=res / 2.0, cy=res / 2.0,
                         width=res, height=res).validate()


def test_principal_pixel_points_down_negative_z():
    assert np.allclose(rd.pixel_dirs(_pose(), [2], [2])[0], [0, 0, -1], atol=1e-12)


def test_translation_shifts_origin_not_direction():
    t = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(rd.pixel_dirs(_pose(), [1], [3]), rd.pixel_dirs(_pose(t=t), [1], [3]))
    points = []

    def field(X, dirs):
        points.append(X)
        return np.zeros((len(X), 3)), np.zeros(len(X))

    for pose in (_pose(), _pose(t=t)):
        rd.render_rays(pose, [1], [3], key=rd.philox_key(0), step=0, frame=0, t_near=1.0,
                       t_far=2.0, n_coarse=4, n_fine=0, coarse_fn=field, fine_fn=None,
                       background=np.zeros(3))
    assert np.allclose(points[1] - points[0], t, atol=1e-12)


def test_yaw_rotation_maps_axis():
    th = np.pi / 2
    R = np.array([[np.cos(th), 0, np.sin(th)], [0, 1, 0], [-np.sin(th), 0, np.cos(th)]])
    assert np.allclose(rd.pixel_dirs(_pose(R=R), [2], [2])[0], [-1, 0, 0], atol=1e-12)


def test_out_of_bounds_pixel_rejected():
    for rows, cols in (([5], [0]), ([0], [-1]), ([0, 1], [2, 5])):
        with pytest.raises(UsageError):
            rd.pixel_dirs(_pose(), rows, cols)


def test_bad_rotation_rejected():
    R = np.eye(3)
    R[0, 0] = 2.0
    with pytest.raises(UsageError):
        _pose(R=R)


def _mid(n):
    """One row of n uniforms all 0.5: bin midpoints."""
    return np.full((1, n), 0.5)


def test_stratified_centers():
    assert np.allclose(rd.stratified_t(0.0, 1.0, _mid(2)), [0.25, 0.75])
    assert np.allclose(rd.stratified_t(0.0, 1.0, _mid(1)), [0.5])


def test_stratified_jitter_stays_in_bins():
    rng = np.random.default_rng(0)
    n = 10
    edges = np.linspace(0.0, 1.0, n + 1)
    for _ in range(100):
        t = rd.stratified_t(0.0, 1.0, rng.random((1, n)))
        assert np.all(t >= edges[:-1]) and np.all(t < edges[1:])


def test_resample_concentrates_in_heavy_bin():
    rng = np.random.default_rng(1)
    coarse = np.array([0.25, 0.75])
    merged = rd.hierarchical_resample(coarse[None], np.array([[0.0, 1.0]]),
                                      rng.random((1, 64)), t_near=0.0, t_far=1.0)[0]
    fine = np.setdiff1d(merged, coarse)
    assert fine.size == 64
    assert np.all(fine >= 0.5)


def test_resample_frequencies_match_weights():
    rng = np.random.default_rng(2)
    coarse = np.array([0.25, 0.75])
    merged = rd.hierarchical_resample(coarse[None], np.array([[1.0, 3.0]]),
                                      rng.random((1, 20000)), t_near=0.0, t_far=1.0)[0]
    fine = np.setdiff1d(merged, coarse)
    frac = np.mean(fine >= 0.5)
    assert abs(frac - 0.75) < 0.02


def test_resample_uniform_weights_ks():
    rng = np.random.default_rng(3)
    n = 10000
    coarse = rd.stratified_t(0.0, 1.0, _mid(8))[0]
    merged = rd.hierarchical_resample(coarse[None], np.ones((1, 8)), rng.random((1, n)),
                                      0.0, 1.0)[0]
    fine = np.sort(np.setdiff1d(merged, coarse))
    # KS statistic against U(0,1)
    cdf = np.arange(1, fine.size + 1) / fine.size
    ks = np.max(np.abs(cdf - fine))
    assert ks < 0.05


def test_resample_zero_weights_falls_back_stratified():
    rng = np.random.default_rng(4)
    coarse = np.array([0.25, 0.75])
    merged = rd.hierarchical_resample(coarse[None], np.zeros((1, 2)), rng.random((1, 16)),
                                      0.0, 1.0)[0]
    fine = np.setdiff1d(merged, coarse)
    assert fine.size == 16
    edges = np.linspace(0.0, 1.0, 17)
    assert np.all(fine >= edges[:-1]) and np.all(fine < edges[1:])


def test_resample_rejects_bad_weights():
    rng = np.random.default_rng(5)
    with pytest.raises(UsageError):
        rd.hierarchical_resample(np.array([[0.5]]), np.array([[-1.0]]), rng.random((1, 4)),
                                 0.0, 1.0)
    with pytest.raises(NumericError):
        rd.hierarchical_resample(np.array([[0.5]]), np.array([[np.nan]]), rng.random((1, 4)),
                                 0.0, 1.0)


def _composite_one(t, sigma, rgb, bg, t_far=1.0):
    """One ray's color from composite_batch, called on a one-row batch."""
    return rd.composite_batch(np.asarray(t, float)[None, :], np.asarray(sigma, float)[None, :],
                              np.asarray(rgb, float)[None, :, :], t_far,
                              np.asarray(bg, float)[None, :])[0][0]


def test_composite_empty_density_returns_background():
    bg = np.array([0.3, 0.4, 0.5])
    out = _composite_one([0.2, 0.6], [0.0, 0.0], [[1, 0, 0], [0, 1, 0]], bg)
    assert np.allclose(out, bg, atol=1e-15)


def test_composite_opaque_first_sample():
    out = _composite_one([0.1, 0.5], [40.0 / 0.4, 1.0], [[0.8, 0.1, 0.2], [0, 0, 1]],
                         np.ones(3))
    assert np.max(np.abs(out - [0.8, 0.1, 0.2])) < 1e-12


def test_composite_homogeneous_matches_integral():
    n = 256
    sigma0 = 2.0
    c = np.array([0.6, 0.3, 0.9])
    t = rd.stratified_t(0.0, 1.0, _mid(n))[0]
    got = _composite_one(t, np.full(n, sigma0), np.tile(c, (n, 1)), np.zeros(3))
    want = c * (1.0 - np.exp(-sigma0))
    assert np.max(np.abs(got - want)) < 1e-3


def test_composite_quadrature_error_halves():
    sigma0, c = 2.0, np.ones(3)
    errs = {}
    for n in (64, 256):
        t = rd.stratified_t(0.0, 1.0, _mid(n))[0]
        errs[n] = np.max(np.abs(_composite_one(t, np.full(n, sigma0), np.tile(c, (n, 1)),
                                               np.zeros(3))
                                - c * (1.0 - np.exp(-sigma0))))
    assert errs[256] < 0.5 * errs[64]


def test_composite_partition_of_unity_and_monotone_T():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 32))
        t = np.sort(rng.uniform(0.01, 0.99, n))
        sigma = rng.uniform(0, 50, n)
        rgb = rng.uniform(0, 1, (n, 3))
        bg = rng.uniform(0, 1, 3)
        # the transmittances and weights the resampler and the composite VJP read
        (out,), (trans,), (w,) = rd.composite_batch(t[None, :], sigma[None, :], rgb[None],
                                                    1.0, bg[None, :])
        assert abs(trans[-1] + w.sum() - 1.0) < 1e-12
        assert np.all(np.diff(trans, prepend=1.0) <= 1e-15)
        assert np.all(out >= -1e-12) and np.all(out <= 1 + 1e-12)


def _exp_cumsum_composite(sigma, rgb, ts, t_far, bg):
    """Reference: compositing as a graph of primitives, T = exp(-cumsum(sigma delta))."""
    R, S = ts.shape
    deltas = np.concatenate([np.diff(ts, axis=1), t_far - ts[:, -1:]], axis=1)
    sd = ad.mul(ad.reshape(sigma, (R, S)), deltas)
    T = ad.exp(ad.mul(ad.matmul(sd, np.triu(np.ones((S, S)), k=1)), -1.0))
    w = ad.mul(T, ad.sub(np.ones((R, S)), ad.exp(ad.mul(sd, -1.0))))
    # row sums are products with np.ones(S), and colour ch is an (R, 1) column
    # times row ch of the identity, so the colours are a sum of three (R, 3)
    t_end = ad.exp(ad.mul(ad.matmul(sd, np.ones(S)), -1.0))
    cols = [ad.reshape(ad.matmul(rgb, np.eye(3)[ch]), (R, S)) for ch in range(3)]
    out = [ad.matmul(ad.reshape(ad.matmul(ad.mul(w, cols[ch]), np.ones(S))
                                + ad.mul(t_end, bg[:, ch]), (R, 1)), np.eye(3)[ch:ch + 1])
           for ch in range(3)]
    return out[0] + out[1] + out[2]


def _composite_cases():
    rng = np.random.default_rng(8)
    R, S = 5, 7
    ts = np.sort(rng.uniform(1.0, 2.5, (R, S)), axis=1)
    random = rng.uniform(0.0, 4.0, (R, S))
    opaque_first = random.copy()
    opaque_first[:, 0] = 40.0 / (ts[:, 1] - ts[:, 0])
    last_only = np.zeros((R, S))
    last_only[:, -1] = 0.8  # its delta runs to t_far = 3
    return {"random": (ts, random), "zero_density": (ts, np.zeros((R, S))),
            "opaque_first": (ts, opaque_first), "last_only": (ts, last_only)}


@pytest.mark.parametrize("case", sorted(_composite_cases()))
def test_composite_node_matches_exp_cumsum_graph(case):
    ts, sigma = _composite_cases()[case]
    R, S = ts.shape
    rng = np.random.default_rng(9)
    rgb = rng.uniform(0.0, 1.0, (R * S, 3))
    bg = rng.uniform(0.0, 1.0, (R, 3))
    probe = rng.standard_normal((R, 3))
    results = []
    for fn in (lambda s, c: rd.composite_rays_tape(s, c, ts, 3.0, bg)[0],
               lambda s, c: _exp_cumsum_composite(s, c, ts, 3.0, bg)):
        tape = ad.Tape()
        s, c = ad.leaf(tape, sigma.reshape(-1)), ad.leaf(tape, rgb)
        colors = fn(s, c)
        results.append((colors.value, ad.grad(tape, ad.sum_(ad.mul(colors, probe)), [s, c])))
    (got, got_g), (want, want_g) = results
    assert np.max(np.abs(got - want)) <= 1e-14
    # Relative to the largest gradient entry: behind an opaque first sample
    # every density gradient is ~e^-40, which cumprod rounds to exactly 0.
    scale = max(np.max(np.abs(b)) for b in want_g)
    for a, b in zip(got_g, want_g):
        assert np.max(np.abs(a - b)) <= 1e-12 * scale
    if case == "zero_density":
        assert np.array_equal(got, bg)


def test_composite_node_is_one_tape_node_and_passes_finite_differences():
    ts, sigma = _composite_cases()["random"]
    ts, sigma = ts[:2, :4], sigma[:2, :4]
    bg = np.full((2, 3), 0.3)
    tape = ad.Tape()
    s = ad.leaf(tape, sigma.reshape(-1))
    c = ad.leaf(tape, np.full((8, 3), 0.5))
    n = len(tape)
    colors, w = rd.composite_rays_tape(s, c, ts, 3.0, bg)
    assert len(tape) == n + 1
    assert np.array_equal(colors.value, rd.composite_batch(ts, sigma, c.value.reshape(2, 4, 3),
                                                           3.0, bg)[0])
    assert w.shape == (2, 4)

    def f(sv, cv):
        colors = rd.composite_rays_tape(sv, cv, ts, 3.0, bg)[0]
        return ad.sum_(ad.mul(colors, colors))

    rep = ad.finite_diff_check(f, [sigma.reshape(-1),
                                   np.random.default_rng(4).uniform(0, 1, (8, 3))])
    assert rep.passed, rep.max_rel_err


def _const_field(fn):
    """An array field X -> (rgb, sigma) as a render_rays field, which also takes dirs."""
    return lambda X, dirs: fn(X)


def test_render_zero_field_is_background():
    pose = _pose(t=np.array([0.0, 0.0, 2.0]), res=4)
    bg = np.array([0.2, 0.5, 0.7])
    img = rd.render_image(_const_field(lambda X: (np.zeros((X.shape[0], 3)),
                                                  np.zeros(X.shape[0]))),
                          pose, t_near=1.0, t_far=3.0, n_coarse=8,
                          background=bg, seed=0, frame_index=0)
    assert np.allclose(img, np.broadcast_to(bg, (4, 4, 3)), atol=1e-15)


def test_render_doubling_samples_converges():
    pose = _pose(t=np.array([0.0, 0.0, 2.0]), res=4)
    field = _const_field(lambda X: (np.tile([0.5, 0.2, 0.8], (X.shape[0], 1)),
                                    np.full(X.shape[0], 1.5)))
    imgs = {n: rd.render_image(field, pose, t_near=1.0, t_far=3.0, n_coarse=n,
                               background=np.zeros(3), seed=0, frame_index=0)
            for n in (256, 512)}
    assert np.max(np.abs(imgs[256] - imgs[512])) < 1e-3


def test_render_deterministic_per_seed():
    pose = _pose(t=np.array([0.0, 0.0, 2.0]), res=4)
    field = _const_field(lambda X: (np.tile([0.9, 0.4, 0.1], (X.shape[0], 1)),
                                    np.maximum(0.0, 1.0 - (X * X).sum(1) * 4.0) * 10.0))
    a = rd.render_image(field, pose, t_near=1.0, t_far=3.0, n_coarse=16, n_fine=16,
                        background=np.zeros(3), seed=7, frame_index=3)
    b = rd.render_image(field, pose, t_near=1.0, t_far=3.0, n_coarse=16, n_fine=16,
                        background=np.zeros(3), seed=7, frame_index=3)
    c = rd.render_image(field, pose, t_near=1.0, t_far=3.0, n_coarse=16, n_fine=16,
                        background=np.zeros(3), seed=8, frame_index=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.fixture(scope="module")
def toy_model():
    """A toy-default model at init (the 4x64 MLP, 16 + 32 samples): its scene,
    render_image keywords, field functions and support box."""
    cfg = config.materialize({"scene": {"n_identities": 1, "n_frames": 2, "resolution": 8}})
    ds = synthscene.dataset_from_config(cfg, render_images=False)
    state = trainer.init_state(cfg, ds)
    e = ds.identities[0].frames[0].e
    fields = trainer.model_fields(state, state.params, e, state.params["identity.id00"],
                                  np.zeros(cfg["conditioning"]["d_latent"]))
    kw = {"t_near": ds.t_near, "t_far": ds.t_far, "n_coarse": cfg["render"]["n_coarse"],
          "n_fine": cfg["render"]["n_fine"], "background": ds.scene.background}
    return ds, kw, fields, synthscene.support_half_extent(ds.scene, 0, e)


@pytest.mark.parametrize("res", [12, 20, 24, 32, 40, 48])
@pytest.mark.parametrize("culled", [False, True])
def test_chunked_render_image_matches_one_render_rays_call(toy_model, res, culled):
    # render_image splits its rays into near-equal chunks; every byte of colors and depth
    # must be what one render_rays call over all the frame's kept rays gives
    ds, kw, (coarse_fn, fine_fn), support = toy_model
    pose = synthscene.orbit_pose(0, 2, 2.8, 0.35, res, focal_factor=1.2)
    img, depth = rd.render_image(coarse_fn, pose, fine_field_fn=fine_fn, seed=3, frame_index=5,
                                 return_depth=True, support=support if culled else None, **kw)
    rows, cols = np.divmod(np.arange(res * res), res)
    want_img, want_depth = np.empty((res * res, 3)), np.zeros(res * res)
    hit = np.ones(res * res, dtype=bool)
    if culled:
        hit = rd._crosses_box(pose.t, rd.pixel_dirs(pose, rows, cols), support,
                              ds.t_near, ds.t_far)
        want_img[:] = ds.scene.background
    colors, ts, w = rd.render_rays(pose, rows[hit], cols[hit], key=rd.philox_key(3), step=0,
                                   frame=5, coarse_fn=coarse_fn, fine_fn=fine_fn, **kw)[-1]
    want_img[hit], want_depth[hit] = colors, (w * ts).sum(axis=1)
    assert img.reshape(-1, 3).tobytes() == want_img.tobytes()
    assert depth.reshape(-1).tobytes() == want_depth.tobytes()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_model_frame_peak_memory_does_not_grow_with_the_frame(toy_model):
    _, kw, (coarse_fn, fine_fn), _ = toy_model
    peaks = {res: _traced_peak(lambda: rd.render_image(
        coarse_fn, synthscene.orbit_pose(0, 2, 2.8, 0.35, res, focal_factor=1.2),
        fine_field_fn=fine_fn, seed=0, frame_index=0, return_depth=True, **kw))
        for res in (32, 96)}
    # 9x the pixels; a whole-frame render_rays call peaks about 9x higher
    assert peaks[96] < 1.3 * peaks[32], peaks
