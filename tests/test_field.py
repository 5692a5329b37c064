import warnings

import numpy as np
import pytest

from minerf import autodiff as ad
from minerf.field import (FieldArch, field_forward, field_forward_np,
                          forward_encoded, param_shapes, positional_encode)
from minerf.trainer import init_arrays


def test_encoding_at_zero():
    assert np.allclose(positional_encode(np.zeros((1, 1)), 2), [[0, 1, 0, 1]], atol=1e-15)


def test_encoding_at_one():
    out = positional_encode(np.ones((1, 1)), 1)
    assert np.allclose(out, [[np.sin(np.pi), -1.0]], atol=1e-12)
    assert abs(out[0, 0]) < 1e-12


def test_encoding_quarter_period():
    out = positional_encode(np.array([[0.5]]), 2)
    assert np.allclose(out, [[1.0, 0.0, 0.0, -1.0]], atol=1e-12)


def test_encoding_zero_frequencies_empty():
    assert positional_encode(np.zeros((4, 3)), 0).shape == (4, 0)


def test_encoding_injective_on_grid():
    # one component; the encoding has period 2, so the grid is half-open
    xs = np.arange(-1.0, 1.0, 2.0 ** -6)[:, None]
    enc = positional_encode(xs, 10)
    assert np.unique(enc, axis=0).shape[0] == xs.shape[0]


def _direct(p, L):
    """sin and cos of 2^j pi p for every octave j, as (n, dim, L, 2)."""
    ang = p[:, :, None] * (2.0 ** np.arange(L) * np.pi)
    return np.stack([np.sin(ang), np.cos(ang)], axis=-1)


@pytest.mark.parametrize("L", [2, 6, 10, 12])
def test_doubled_octaves_stay_within_1e_14_of_direct_sin_cos(L):
    p = np.random.default_rng(L).uniform(-1.0, 1.0, (200_000, 3))
    err = np.max(np.abs(positional_encode(p, L) - _direct(p, L).reshape(len(p), -1)))
    assert err <= 1e-14


def test_anchor_octaves_equal_numpy_sin_cos_bit_for_bit():
    p = np.random.default_rng(1).uniform(-1.0, 1.0, (5000, 3))
    enc = positional_encode(p, 8).reshape(len(p), 3, 8, 2)
    for j in (0, 6):
        ang = p * (2.0 ** j * np.pi)
        assert np.array_equal(enc[:, :, j, 0], np.sin(ang))
        assert np.array_equal(enc[:, :, j, 1], np.cos(ang))


def test_every_row_encodes_in_any_batch_as_it_encodes_alone():
    # field_forward encodes one row; the batched renderers encode it among many
    p = np.random.default_rng(2).uniform(-1.0, 1.0, (12_288, 3))
    alone = np.concatenate([positional_encode(p[i:i + 1], 8) for i in range(len(p))])
    for n in (1, 2047, 2048, 2049, 12_288):
        assert np.array_equal(positional_encode(p[:n], 8), alone[:n])


def _arch(**kw):
    kw.setdefault("layers", 3)
    kw.setdefault("hidden", 16)
    kw.setdefault("Lx", 2)
    kw.setdefault("Lv", 1)
    kw.setdefault("color_layers", 1)
    kw.setdefault("color_hidden", 8)
    kw.setdefault("d_cond", 4)
    kw.setdefault("d_latent", 3)
    return FieldArch(**kw)


def test_dead_network_outputs():
    arch = _arch()
    w = {k: np.zeros_like(v) for k, v in
         init_arrays(param_shapes(arch), np.random.default_rng(0)).items()}
    rgb, sigma = field_forward(arch, w, np.zeros(4), np.zeros(3),
                               np.array([0.1, 0.2, 0.3]), np.array([0.0, 0.0, -1.0]))
    assert np.allclose(rgb, 0.5, atol=1e-15)
    assert sigma == pytest.approx(np.log(2.0))


def test_sigma_view_independent():
    rng = np.random.default_rng(1)
    arch = _arch()
    w = init_arrays(param_shapes(arch), rng)
    cond = rng.standard_normal(4)
    lat = rng.standard_normal(3)
    x = rng.uniform(-1, 1, 3)
    v1 = np.array([0.0, 0.0, -1.0])
    v2 = np.array([1.0, 0.0, 0.0])
    _, s1 = field_forward(arch, w, cond, lat, x, v1)
    _, s2 = field_forward(arch, w, cond, lat, x, v2)
    assert s1 == s2


def test_output_ranges():
    rng = np.random.default_rng(2)
    arch = _arch()
    w = {k: 3.0 * v for k, v in init_arrays(param_shapes(arch), rng).items()}
    X = rng.uniform(-1, 1, (64, 3))
    V = rng.standard_normal((64, 3))
    rgb, sigma = field_forward_np(arch, w, rng.standard_normal(4),
                                  rng.standard_normal(3), X, V)
    assert np.all(rgb >= 0) and np.all(rgb <= 1)
    assert np.all(sigma >= 0)


def test_nonunit_view_warns_and_normalizes():
    rng = np.random.default_rng(3)
    arch = _arch()
    w = init_arrays(param_shapes(arch), rng)
    x = np.zeros(3)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        rgb1, s1 = field_forward(arch, w, np.zeros(4), np.zeros(3), x,
                                 np.array([0.0, 0.0, -2.0]))
        assert any("normaliz" in str(r.message) for r in rec)
    rgb2, s2 = field_forward(arch, w, np.zeros(4), np.zeros(3), x,
                             np.array([0.0, 0.0, -1.0]))
    assert np.array_equal(rgb1, rgb2) and s1 == s2


def test_tape_and_numpy_paths_agree():
    # same arithmetic on both paths; tolerance covers BLAS view-vs-copy ULPs
    rng = np.random.default_rng(4)
    for layers in (3, 8):  # 8 exercises the skip connection
        arch = _arch(layers=layers)
        w = init_arrays(param_shapes(arch), rng)
        cond = rng.standard_normal(4)
        lat = rng.standard_normal(3)
        X = rng.uniform(-1, 1, (17, 3))
        V = rng.standard_normal((17, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        rgb_np, sig_np = field_forward_np(arch, w, cond, lat, X, V)
        tape = ad.Tape()
        wv = {k: ad.leaf(tape, v) for k, v in w.items()}
        enc_x = positional_encode(X, arch.Lx)
        enc_v = positional_encode(V, arch.Lv)
        rgb_t, sig_t = forward_encoded(arch, wv, (ad.leaf(tape, cond),),
                                       ad.leaf(tape, lat), enc_x, enc_v)
        assert np.allclose(rgb_np, rgb_t.value, atol=1e-14, rtol=0)
        assert np.allclose(sig_np, sig_t.value, atol=1e-14, rtol=0)


def _mlp_reference(arch, w, cond, lat, X, V):
    """The field written the plain way: tiled vectors and concatenated inputs."""
    n = X.shape[0]
    x_in = np.concatenate([positional_encode(X, arch.Lx), np.tile(cond, (n, 1)),
                           np.tile(lat, (n, 1))], axis=1)
    h = x_in
    for j in range(arch.layers):
        if arch.layers >= 8 and j == 4:
            h = np.concatenate([h, x_in], axis=1)
        h = np.maximum(h @ w[f"W{j}"] + w[f"b{j}"], 0.0)
    sigma = np.logaddexp(0.0, h @ w["Wsig"] + w["bsig"])[:, 0]
    c = np.concatenate([h, positional_encode(V, arch.Lv)], axis=1)
    for j in range(arch.color_layers):
        c = np.maximum(c @ w[f"Wc{j}"] + w[f"bc{j}"], 0.0)
    return 1.0 / (1.0 + np.exp(-(c @ w["Wrgb"] + w["brgb"]))), sigma


@pytest.mark.parametrize("kw", [{"layers": 3}, {"layers": 8},
                                {"layers": 8, "color_layers": 0}, {"layers": 8, "Lv": 0},
                                {"layers": 3, "Lv": 0, "color_layers": 0}])
def test_forward_matches_concatenated_reference(kw):
    rng = np.random.default_rng(7)
    arch = _arch(**kw)
    w = init_arrays(param_shapes(arch), rng)
    cond, lat = rng.standard_normal(4), rng.standard_normal(3)
    X = rng.uniform(-1, 1, (23, 3))
    V = rng.standard_normal((23, 3))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    want = _mlp_reference(arch, w, cond, lat, X, V)
    tape = ad.Tape()
    rgb, sigma = forward_encoded(arch, {k: ad.leaf(tape, v) for k, v in w.items()},
                                 (ad.leaf(tape, cond),), ad.leaf(tape, lat),
                                 positional_encode(X, arch.Lx), positional_encode(V, arch.Lv))
    assert {node.op for node in tape.nodes} == {"leaf", "linear", "reshape", "softplus",
                                                "sigmoid"}
    for got in ((rgb.value, sigma.value), field_forward_np(arch, w, cond, lat, X, V)):
        for g, ref in zip(got, want):
            assert g.shape == ref.shape
            assert np.all(np.abs(g - ref) <= 1e-12 * np.abs(ref)), np.max(np.abs(g - ref))


def test_skip_connection_only_when_deep():
    assert not _arch(layers=4).has_skip
    assert _arch(layers=8).has_skip


def test_gradient_wrt_conditioning_through_pixel_loss():
    rng = np.random.default_rng(5)
    arch = _arch()
    w = init_arrays(param_shapes(arch), rng)
    X = rng.uniform(-1, 1, (6, 3))
    V = np.tile(np.array([0.0, 0.0, -1.0]), (6, 1))
    enc_x = positional_encode(X, arch.Lx)
    enc_v = positional_encode(V, arch.Lv)
    ts = np.linspace(0.2, 0.8, 6)[None, :]
    deltas = np.append(np.diff(ts[0]), 0.2)
    gt = rng.uniform(0, 1, 3)
    lat = rng.standard_normal(3)

    def f(cond):
        rgb, sigma = forward_encoded(arch, w, (cond,), lat, enc_x, enc_v)
        sd = ad.mul(sigma, deltas)
        T = ad.exp(ad.mul(ad.reshape(
            ad.matmul(ad.reshape(sd, (1, 6)), np.triu(np.ones((6, 6)), k=1)), (6,)), -1.0))
        alpha = ad.sub(np.ones(6), ad.exp(ad.mul(sd, -1.0)))
        wgt = ad.mul(T, alpha)
        loss = None
        for ch in range(3):
            pred = ad.sum_(ad.mul(wgt, ad.matmul(rgb, np.eye(3)[ch])))
            r = ad.sub(pred, gt[ch])
            term = ad.mul(r, r)
            loss = term if loss is None else loss + term
        return loss

    rep = ad.finite_diff_check(f, [rng.standard_normal(4)], step=1e-5, tol=1e-4)
    assert rep.passed, rep.max_rel_err


def test_field_forward_np_creates_no_tape(monkeypatch):
    tapes = []

    class SpyTape(ad.Tape):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tapes.append(self)

    monkeypatch.setattr(ad, "Tape", SpyTape)
    arch = _arch()
    w = init_arrays(param_shapes(arch), np.random.default_rng(6))
    rgb, sigma = field_forward_np(arch, w, np.zeros(4), np.zeros(3),
                                  np.zeros((5, 3)), np.tile([0.0, 0.0, -1.0], (5, 1)))
    assert type(rgb) is np.ndarray and rgb.shape == (5, 3)
    assert type(sigma) is np.ndarray and sigma.shape == (5,)
    assert not tapes
