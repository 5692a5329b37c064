"""Machine-checkable oracle suites behind the `verify` CLI subcommand.

Each suite returns {"suite", "passed", "checks": [{name, passed, max_err}]}.
The checks deliberately go through module attributes (cond.variant_forward,
not a from-import) so fault-injection tests can monkeypatch the code that runs
and watch the suite fail. The oracles are written here, apart from that code.
Every check draws from its own generator, seeded by its name (_row_rng), so
adding or dropping a check leaves every other check's draws as they were.
"""

from __future__ import annotations

import zlib

import numpy as np

from . import autodiff as ad
from . import conditioning as cond
from . import config
from . import renderer
from . import synthscene
from . import trainer
from .errors import ConfigError

SUITES = ("variants", "autodiff", "render", "props")


def _rng(seed=1234):
    return np.random.default_rng(seed)


def _row_rng(name):
    """A generator of its own for the check called name, seeded from a stable
    digest of the name: adding or dropping a check leaves every other
    check's draws as they were."""
    return _rng(zlib.crc32(name.encode()))


def _within(max_err, tol):
    return {"passed": bool(max_err < tol), "max_err": float(max_err), "tol": tol}


def _exact(differ):
    """A count of differing values, which passes only at 0."""
    return {"passed": differ == 0, "max_err": float(differ), "tol": 0.0}


def _check(name, max_err, tol):
    return {"name": name, **_within(max_err, tol)}


def _table_suite(suite, table, cases):
    """One check per row of table, name -> check(rng, cases) giving the check's
    passed, max_err and tol, each row from its own _row_rng(name)."""
    checks = [{"name": name, **check(_row_rng(name), cases)} for name, check in table.items()]
    return {"suite": suite, "passed": all(c["passed"] for c in checks), "checks": checks}


def _params(rng, variant, d, k, o, n_levels=1):
    """Standard normal arrays for a conditioning row, named and shaped by
    cond.param_shapes, in its draw order."""
    shapes = cond.param_shapes(variant, d, k, o, n_levels, d_latent=d)
    return {name: rng.standard_normal(shape) for name, shape in shapes.items()}


# ---------------------------------------------------------------------------
# each conditioning row's formula with its products written as index loops
# over numpy scalars (_mv, _had, _contract), apart from autodiff

def _mv(W, x):
    """W @ x: out[a] = sum_b W[a, b] x[b]."""
    out = np.zeros(W.shape[0])
    for a in range(W.shape[0]):
        for b in range(W.shape[1]):
            out[a] += W[a, b] * x[b]
    return out


def _had(x, y):
    """The elementwise product x * y."""
    return np.array([x[j] * y[j] for j in range(len(x))])


def _contract(W, e, i):
    """W x_2 e x_3 i: out[a] = sum_b (sum_c W[a, b, c] i[c]) e[b]."""
    return _mv(np.array([_mv(W_a, i) for W_a in W]), e)


def _m_loop(p, e, i, l):
    return _mv(p["C"], _had(_mv(p["U1"], e), _mv(p["U2"], i))) + _mv(p["W2"], e) + _mv(p["W3"], i)


def _h_levels(p):
    """H's per-level (U{n}_e, U{n}_i) pairs, n = 1, 2, ... in order."""
    n = sum(name.endswith("_e") for name in p)
    return [(p[f"U{m}_e"], p[f"U{m}_i"]) for m in range(1, n + 1)]


def _h_loop(p, e, i, l):
    (U_e, U_i), *rest = _h_levels(p)
    x = _mv(U_e, e) + _mv(U_i, i)
    for U_e, U_i in rest:
        x = x + _had(_mv(U_e, e) + _mv(U_i, i), x)
    return _mv(p["C"], x)


def _latent_in_m_loop(p, e, i, l):
    ue, ui, ul = _mv(p["U1"], e), _mv(p["U2"], i), _mv(p["U3"], l)
    inner = (_had(_had(ue, ui), ul) + _had(ue, ui) + _had(ue, ul) + _had(ui, ul)
             + ue + ui + ul)
    return _mv(p["C"], inner)


ORACLES = {
    "Baseline": lambda p, e, i, l: np.array([*e, *i]),
    "A1": lambda p, e, i, l: _mv(p["W2"], e) + _mv(p["W3"], i),
    "A2": lambda p, e, i, l: _had(e, i) + _mv(p["W2"], e) + _mv(p["W3"], i),
    "A3": lambda p, e, i, l: _mv(p["W1"], _had(e, i)) + _mv(p["W1"], e) + _mv(p["W1"], i),
    "A4": lambda p, e, i, l: _mv(p["W1"], _had(e, i)),
    "A5": lambda p, e, i, l: (_had(_mv(p["W2"], e), _mv(p["W3"], i))
                              + _mv(p["W2"], e) + _mv(p["W3"], i)),
    "A6": lambda p, e, i, l: _mv(p["W1"], _had(e, i)) + _mv(p["W2"], e) + _mv(p["W3"], i),
    "A7": lambda p, e, i, l: _contract(p["W_tensor"], e, i),
    "M": _m_loop,
    "H": _h_loop,
    "LearnableConcat": lambda p, e, i, l: np.array([*_mv(p["W2"], e), *_mv(p["W3"], i)]),
    "LatentInM": _latent_in_m_loop,
}


def suite_variants(cases: int = 50) -> dict:
    """One check per conditioning row: cond.variant_forward's parts, joined,
    against ORACLES on random shapes drawn through cond.param_shapes (H draws
    its level count too), each row from its own _row_rng."""
    checks = []
    for variant in cond.VARIANTS:
        rng, row = _row_rng(variant), cond._TABLE[variant]
        err = 0.0
        for _ in range(cases):
            d, k, o = (int(rng.integers(1, 7)) for _ in range(3))
            if row.square or row.latent:
                o = d
            if row.latent:
                k = d
            p = _params(rng, variant, d, k, o, int(rng.integers(1, 5)) if variant == "H" else 1)
            e, i, l = rng.standard_normal((3, d))
            got = np.concatenate(cond.variant_forward(variant, p, e, i, l))
            err = max(err, float(np.max(np.abs(got - ORACLES[variant](p, e, i, l)))))
        checks.append(_check(f"{variant}_vs_loop", err, 1e-10))
    return {"suite": "variants", "passed": all(c["passed"] for c in checks),
            "checks": checks}


# ---------------------------------------------------------------------------

def _dim(r, lo=2, hi=5):
    return int(r.integers(lo, hi))


def _matmul(r, shapes):
    sa, sb = shapes(_dim(r), _dim(r), _dim(r))
    return ad.matmul, [r.standard_normal(sa), r.standard_normal(sb)]


def _linear(r):
    """The fused layer node over a second matrix part or a vector part, without
    or with relu, drawn again while a pre-activation comes near relu's kink."""
    n, k1, k2, m = _dim(r), _dim(r), _dim(r), _dim(r)
    vector, relu = (bool(b) for b in r.integers(0, 2, 2))
    while True:
        A1, A2 = r.standard_normal((n, k1)), r.standard_normal(k2 if vector else (n, k2))
        W, b = r.standard_normal((k1 + k2, m)), r.standard_normal(m)
        if np.min(np.abs(ad.linear([A1, A2], W, b))) > 1e-2:
            return (lambda *v: ad.linear(v[:2], v[2], v[3], relu)), [A1, A2, W, b]


def _composite(r):
    """The compositing node, one sample per bin: no delta so small that its
    gradient drowns in the finite difference's rounding."""
    R, S = _dim(r, 1, 4), _dim(r, 1, 6)
    ts = 1.0 + (np.arange(S) + r.uniform(0.1, 0.9, (R, S))) * (2.0 / S)
    bg = r.uniform(0.0, 1.0, (R, 3))
    return ((lambda s, c: renderer.composite_rays_tape(s, c, ts, 3.5, bg)[0]),
            [r.uniform(0.2, 3.0, R * S), r.uniform(0.0, 1.0, (R * S, 3))])


def _fan_out(r):
    """Fan-out then fan-in, each adjoint written in place: add hands one adjoint
    to two relu layers of one input, each masks what it receives, and their
    input gradients sum into one slot; drawn again near relu's kink."""
    n, k, m = _dim(r), _dim(r), _dim(r)
    while True:
        P, Wu, bu, Wv, bv = (r.standard_normal(shape)
                             for shape in ((n, k), (k, m), m, (k, m), m))
        if min(np.min(np.abs(ad.linear([P], W, b))) for W, b in ((Wu, bu), (Wv, bv))) > 1e-2:
            return ((lambda P, Wu, bu, Wv, bv: ad.add(ad.linear([P], Wu, bu, True),
                                                      ad.linear([P], Wv, bv, True))),
                    [P, Wu, bu, Wv, bv])


# check name -> draw of (f, params) from a generator: f maps one operand per
# entry of params to an array output, which the suite weights and sums
FD_CHECKS = {
    "fd_exp": lambda r: (ad.exp, [r.standard_normal(_dim(r, 2, 6))]),
    "fd_sqrt": lambda r: (ad.sqrt, [r.uniform(0.5, 3.0, _dim(r, 2, 6))]),
    "fd_sigmoid": lambda r: (ad.sigmoid, [r.standard_normal(_dim(r, 2, 6))]),
    "fd_softplus": lambda r: (ad.softplus, [r.standard_normal(_dim(r, 2, 6))]),
    "fd_add": lambda r: (ad.add, list(r.standard_normal((2, _dim(r, 2, 6))))),
    "fd_sub": lambda r: (ad.sub, list(r.standard_normal((2, _dim(r, 2, 6))))),
    "fd_mul": lambda r: (ad.mul, list(r.standard_normal((2, _dim(r, 2, 6))))),
    # matmul's three operand ranks: matrix @ matrix, matrix @ vector, vector @ matrix
    "fd_matmul": lambda r: _matmul(r, lambda m, k, n: ((m, k), (k, n))),
    "fd_matmul_mat_vec": lambda r: _matmul(r, lambda m, k, n: ((m, k), (k,))),
    "fd_matmul_vec_mat": lambda r: _matmul(r, lambda m, k, n: ((k,), (k, n))),
    "fd_linear": _linear,
    "fd_sum": lambda r: (ad.sum_, [r.standard_normal(4)]),
    "fd_reshape": lambda r: ((lambda x: ad.reshape(x, (2, -1))), [r.standard_normal(4)]),
    "fd_composite": _composite,
    "fan_out_in_place": _fan_out,
}


def suite_autodiff(per_primitive: int = 50) -> dict:
    """Each FD_CHECKS row, per_primitive draws of sum(f(params) * w) for standard
    normal weights w against ad.finite_diff_check; then backward linearity and
    determinism. Each check draws from its own _row_rng."""
    checks = []
    for name, draw in FD_CHECKS.items():
        rng = _row_rng(name)
        worst = 0.0
        for _ in range(per_primitive):
            f, params = draw(rng)
            w = rng.standard_normal(np.shape(f(*params)))
            rep = ad.finite_diff_check(lambda *v: ad.sum_(ad.mul(f(*v), w)), params)
            worst = max(worst, rep.max_rel_err)
        checks.append(_check(name, worst, 1e-5))

    # backward linearity: grad of sum of independent subgraphs
    rng = _row_rng("backward_linearity")
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        t1 = ad.Tape()
        xv, yv = ad.leaf(t1, x), ad.leaf(t1, y)
        both = ad.grad(t1, ad.sum_(ad.mul(xv, xv)) + ad.sum_(ad.exp(yv)), [xv, yv])
        t2 = ad.Tape()
        xv2 = ad.leaf(t2, x)
        gx = ad.grad(t2, ad.sum_(ad.mul(xv2, xv2)), [xv2])[0]
        t3 = ad.Tape()
        yv3 = ad.leaf(t3, y)
        gy = ad.grad(t3, ad.sum_(ad.exp(yv3)), [yv3])[0]
        worst = max(worst, float(np.max(np.abs(both[0] - gx))),
                    float(np.max(np.abs(both[1] - gy))))
    checks.append(_check("backward_linearity", worst, 1e-15))

    # determinism: identical tapes produce bit-identical gradients
    x = _row_rng("determinism_bit_identical").standard_normal(6)
    outs = []
    for _ in range(2):
        t = ad.Tape()
        xv = ad.leaf(t, x)
        out = ad.sum_(ad.mul(ad.sigmoid(xv), ad.exp(ad.mul(xv, 0.3))))
        outs.append((float(out.value), ad.grad(t, out, [xv])[0]))
    same = outs[0][0] == outs[1][0] and np.array_equal(outs[0][1], outs[1][1])
    checks.append({"name": "determinism_bit_identical", **_exact(0 if same else 1)})

    return {"suite": "autodiff", "passed": all(c["passed"] for c in checks),
            "checks": checks}


# ---------------------------------------------------------------------------

def _partition_of_unity(rng, cases):
    """T_end + sum w = 1 on arbitrary sorted samples, from the compositor's own
    transmittances and weights (the arrays resampling and the VJP read)."""
    err = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 40))
        t = np.sort(rng.uniform(0.1, 3.9, n))
        sigma = rng.uniform(0.0, 30.0, n)
        colors = rng.uniform(0, 1, (n, 3))
        _, trans, w = renderer.composite_batch(t[None, :], sigma[None, :], colors[None],
                                               4.0, np.zeros((1, 3)))
        err = max(err, abs(trans[0, -1] + float(w.sum()) - 1.0))
    return _within(err, 1e-12)


def _homogeneous_errs():
    """A homogeneous medium's color error against its closed form at 64 and 256
    samples, placed at bin midpoints."""
    sigma0, color = 2.0, np.array([0.7, 0.2, 0.5])
    t_near, t_far = 1e-9, 1.0
    errs = {}
    for n in (64, 256):
        width = (t_far - t_near) / n
        t = t_near + width * np.arange(n) + 0.5 * width
        got = renderer.composite_batch(t[None, :], np.full((1, n), sigma0),
                                       np.tile(color, (1, n, 1)), t_far, np.zeros((1, 3)))[0][0]
        want = color * (1.0 - np.exp(-sigma0 * (t_far - t_near)))
        errs[n] = float(np.max(np.abs(got - want)))
    return errs


def _quadrature_halves(rng, cases):
    errs = _homogeneous_errs()
    return {"passed": bool(errs[256] < 0.5 * errs[64] + 1e-12),
            "max_err": errs[256] / max(errs[64], 1e-300), "tol": 0.5}


def _opaque_saturation(rng, cases):
    """An opaque first sample returns its color."""
    t = np.array([0.5, 0.7])
    got = renderer.composite_batch(t[None, :], np.array([[40.0 / 0.2, 0.0]]),
                                   np.array([[[0.9, 0.1, 0.3], [0.2, 0.2, 0.2]]]), 1.0,
                                   np.ones((1, 3)))[0][0]
    return _within(float(np.max(np.abs(got - [0.9, 0.1, 0.3]))), 1e-12)


def _transmittance_monotone(rng, cases):
    """Transmittance falls, from 1 before the first sample to T_end."""
    err = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 30))
        t = np.sort(rng.uniform(0.1, 3.9, n))
        sigma = rng.uniform(0.0, 5.0, n)
        trans = renderer.composite_batch(t[None, :], sigma[None, :], np.zeros((1, n, 3)),
                                         4.0, np.zeros((1, 3)))[1]
        err = max(err, float(np.max(np.diff(trans[0], prepend=1.0))))
    return _within(max(err, 0.0), 1e-15)


def _pixel_streams(rng, cases):
    """The batched pixel streams against numpy's own Philox generator, exactly:
    a numpy release that changed Philox buffering would change every dataset."""
    mismatches = 0
    for seed, step, frame, n in ((0, 0, 3, 1), (1, 5, 0, 7), (7, 2**64 - 2, 9, 13),
                                 (3, 12, 2**40, 48)):
        key, pixels = renderer.philox_key(seed), [0, 5, 1023]
        want = np.stack([np.random.Generator(np.random.Philox(key=key, counter=np.array(
            [step, frame, p, renderer._PIXEL_STREAM], dtype=np.uint64))).random(n)
            for p in pixels])
        mismatches += int(np.sum(renderer.pixel_rng(key, step, frame, pixels, n) != want))
    return _exact(mismatches)


def _support_culling(rng, cases):
    """render_gt_frame's float64 image and depth, culled to the support box's
    rays and samples, against the dense formula on every sample, exactly: they
    agree only where the BLAS products give a row the same bits whatever the
    other rows are, so a host where they do not fails here instead of writing
    datasets that differ."""
    spec = synthscene.sample_scene(1, 8, rng, [0.08, 0.10, 0.14], deform_budget=0.5,
                                   tint_strength=0.35)
    e = rng.uniform(-1.7, 1.7, 8)
    pose = synthscene.orbit_pose(1, 8, 2.8, 0.35, 24, focal_factor=1.2)
    kw = {"t_near": 1.4, "t_far": 4.2, "n_coarse": 64, "background": spec.background,
          "seed": 0, "frame_index": 0, "return_depth": True}
    culled = renderer.render_image(lambda X, dirs: synthscene.analytic_field(spec, 0, e, X),
                                   pose, support=synthscene.support_half_extent(spec, 0, e),
                                   **kw)
    dense = renderer.render_image(lambda X, dirs: synthscene._analytic_kernel(spec, 0, e, X),
                                  pose, **kw)
    return _exact(sum(int(np.sum(c.view(np.uint64) != d.view(np.uint64)))
                      for c, d in zip(culled, dense)))


def _chunked_model_frame(rng, cases):
    """A model frame through render_image's ray chunks against one render_rays
    call over every pixel, colors and depth exactly: 40x40 = 1600 rays split
    unevenly into 6 chunks, so a host whose BLAS gives a row other bits at
    another row count fails here instead of rendering frames that depend on
    the chunking."""
    cfg = config.materialize({})
    state = trainer.TrainState(cfg=cfg, params=trainer.model_params(cfg, rng))
    cc = cfg["conditioning"]
    coarse_fn, fine_fn = trainer.model_fields(state, state.params,
                                              rng.uniform(-1.7, 1.7, cc["d"]),
                                              rng.standard_normal(cc["d"]),
                                              np.zeros(cc["d_latent"]))
    pose = synthscene.orbit_pose(1, 8, 2.8, 0.35, 40, focal_factor=1.2)
    kw = {"t_near": 1.4, "t_far": 4.2, "n_coarse": cfg["render"]["n_coarse"],
          "n_fine": cfg["render"]["n_fine"], "background": np.array([0.08, 0.10, 0.14])}
    img, depth = renderer.render_image(coarse_fn, pose, fine_field_fn=fine_fn, seed=0,
                                       frame_index=0, return_depth=True, **kw)
    rows, cols = np.divmod(np.arange(40 * 40), 40)
    colors, ts, w = renderer.render_rays(pose, rows, cols, key=renderer.philox_key(0), step=0,
                                         frame=0, coarse_fn=coarse_fn, fine_fn=fine_fn,
                                         **kw)[-1]
    want = np.concatenate([colors, (w * ts).sum(axis=1)[:, None]], axis=1)
    got = np.concatenate([img.reshape(-1, 3), depth.reshape(-1, 1)], axis=1)
    return _exact(int(np.sum(got.view(np.uint64) != want.view(np.uint64))))


# check name -> check(rng, cases); rows without random draws ignore rng
RENDER_CHECKS = {
    "transmittance_partition_of_unity": _partition_of_unity,
    "homogeneous_closed_form_256": lambda rng, cases: _within(_homogeneous_errs()[256], 1e-3),
    "quadrature_error_halves_64_to_256": _quadrature_halves,
    "opaque_saturation": _opaque_saturation,
    "transmittance_monotone": _transmittance_monotone,
    "pixel_streams_match_numpy_philox": _pixel_streams,
    "support_culling_exact": _support_culling,
    "chunked_model_frame_exact": _chunked_model_frame,
}


def suite_render(cases: int = 100) -> dict:
    return _table_suite("render", RENDER_CHECKS, cases)


# ---------------------------------------------------------------------------

def m_full_tensor(p, e, i):
    """Proposition 1's dense side: W[a,b,c] = sum_j C[a,j] U1[j,b] U2[j,c], then
    W x_2 e x_3 i + W2 e + W3 i."""
    W = np.einsum("aj,jb,jc->abc", p["C"], p["U1"], p["U2"])
    return _contract(W, e, i) + _mv(p["W2"], e) + _mv(p["W3"], i)


def h_expand_oracle(p, e, i):
    """Symbolic distribution of H's recursion into monomials of (U e)/(U i) factors.

    Supported for N in {2, 3}: 6 terms for N=2, 18 for N=3 (the 8 degree-3
    triplets plus every lower-order term carried through).
    """
    levels = _h_levels(p)
    if len(levels) not in (2, 3):
        raise ConfigError(f"expansion oracle supports N in {{2, 3}}, got {len(levels)}")
    (U_e, U_i), *rest = levels
    monomials = [U_e @ e, U_i @ i]
    for U_e, U_i in rest:
        factors = (U_e @ e, U_i @ i)
        monomials = monomials + [f * m for f in factors for m in monomials]
    return p["C"] @ sum(monomials[1:], monomials[0])


def _triplet_expansion(p, e, i):
    """Independent 8-term oracle for the degree-3 multiplicative branch."""
    terms = []
    for a in (p["U2_e"] @ e, p["U2_i"] @ i):
        for b in (p["U1_e"] @ e, p["U1_i"] @ i):
            for c in (p["U3_e"] @ e, p["U3_i"] @ i):
                terms.append(p["C"] @ (a * b * c))
    return np.sum(terms, axis=0)


def _prop1(rng, cases):
    """Prop 1: the factored module equals the dense-tensor interaction."""
    err = 0.0
    for _ in range(cases):
        d, k, o = (int(rng.integers(1, 9)) for _ in range(3))
        p = _params(rng, "M", d, k, o)
        e, i = rng.standard_normal(d), rng.standard_normal(d)
        err = max(err, float(np.max(np.abs(cond.m_forward(p, e, i) - m_full_tensor(p, e, i)))))
    return _within(err, 1e-10)


def _prop2(rng, cases):
    """Prop 2: the N=2 recursion equals its six-term expansion."""
    err = 0.0
    for _ in range(cases):
        d, k, o = (int(rng.integers(1, 9)) for _ in range(3))
        p = _params(rng, "H", d, k, o, n_levels=2)
        e, i = rng.standard_normal(d), rng.standard_normal(d)
        err = max(err, float(np.max(np.abs(cond.h_forward(p, e, i) - h_expand_oracle(p, e, i)))))
    return _within(err, 1e-10)


def _prop3(rng, cases):
    """Prop 3 spot check: the degree-3 part of the N=3 recursion equals the
    8-triplet expansion. f(t) = h_forward(t e, t i) is a cubic in t, so its
    third difference over t = 0..3 is 6 times that part."""
    err = 0.0
    for _ in range(max(20, cases // 10)):
        d, k, o = (int(rng.integers(1, 7)) for _ in range(3))
        p = _params(rng, "H", d, k, o, n_levels=3)
        e, i = rng.standard_normal(d), rng.standard_normal(d)
        f = [cond.h_forward(p, t * e, t * i) for t in range(4)]
        got = (f[3] - 3 * f[2] + 3 * f[1] - f[0]) / 6
        err = max(err, float(np.max(np.abs(got - _triplet_expansion(p, e, i)))))
    return _within(err, 1e-10)


def _degree_linearity(rng, cases):
    """M's pure multiplicative branch is linear in e."""
    err = 0.0
    for _ in range(50):
        d, k = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        p = {"U1": rng.standard_normal((k, d)), "U2": rng.standard_normal((k, d)),
             "C": rng.standard_normal((d, k)), "W2": np.zeros((d, d)),
             "W3": np.zeros((d, d))}
        e, i = rng.standard_normal(d), rng.standard_normal(d)
        a = float(rng.standard_normal())
        lhs = cond.m_forward(p, a * e, i)
        rhs = a * cond.m_forward(p, e, i)
        err = max(err, float(np.max(np.abs(lhs - rhs))))
    return _within(err, 1e-12)


# check name -> check(rng, cases)
PROPS_CHECKS = {
    "prop1_factored_equals_full_tensor": _prop1,
    "prop2_recursion_equals_six_terms": _prop2,
    "prop3_multiplicative_branch_triplets": _prop3,
    "degree_linearity_in_e": _degree_linearity,
}


def suite_props(cases: int = 200) -> dict:
    return _table_suite("props", PROPS_CHECKS, cases)


def run_suites(names) -> dict:
    table = {"variants": suite_variants, "autodiff": suite_autodiff,
             "render": suite_render, "props": suite_props}
    results = [table[n]() for n in names]
    return {"passed": all(r["passed"] for r in results), "suites": results}
