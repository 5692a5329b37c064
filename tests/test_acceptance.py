"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-based criteria
(5-7) build real models and dominate the runtime (about 20 minutes on one
core); everything else finishes in seconds.
"""

import itertools
import os
import tempfile
import time

import numpy as np
import pytest

from minerf import autodiff as ad
from minerf import config as cfg_mod
from minerf import metrics as mt
from minerf import renderer as rd
from minerf import synthscene as sc
from minerf import trainer as tr
from minerf import verify
from minerf.renderer import philox_key, step_rng

TOY_TRAIN_STEPS = 2000          # <= 3000 allowed; converges well above 25 dB
ORDERING_STEPS = 700
ORDERING_SEEDS = (0, 1, 2)

ORDERING_SETS = [
    "scene.n_identities=4", "scene.n_frames=40", "scene.resolution=16",
    "scene.gt_samples=128",
    "render.n_coarse=10", "render.n_fine=16",
    "field.layers=3", "field.hidden=48", "field.Lx=5", "field.Lv=2",
    "field.color_layers=1", "field.color_hidden=24",
    "train.rays_per_step=128", f"train.steps={ORDERING_STEPS}",
    "train.eval_every=0",
]


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _suite_err(report, name):
    return next(c for c in report["checks"] if c["name"] == name)["max_err"]


# ---------------------------------------------------------------------------
# criteria 1-2: proposition oracles

def test_criterion_1_proposition_1_oracle():
    t0 = time.time()
    rep = verify.suite_props(cases=200)
    dt = time.time() - t0
    err = _suite_err(rep, "prop1_factored_equals_full_tensor")
    ok = err < 1e-10 and dt < 5.0
    _report("criterion 1 (Prop 1 oracle, 200 cases)",
            ok, f"max |factored - full tensor| = {err:.3g} (tol 1e-10), {dt:.2f}s")


def test_criterion_2_proposition_2_and_3_oracles():
    rep = verify.suite_props(cases=200)
    e2 = _suite_err(rep, "prop2_recursion_equals_six_terms")
    e3 = _suite_err(rep, "prop3_multiplicative_branch_triplets")
    ok = e2 < 1e-10 and e3 < 1e-10
    _report("criterion 2 (Prop 2 / Prop 3 oracles)",
            ok, f"N=2 six-term err {e2:.3g}; N=3 triplet err {e3:.3g} (tol 1e-10)")


# ---------------------------------------------------------------------------
# criterion 3: autodiff against central finite differences

def _e2e_gradient_probe():
    """Full-pipeline loss gradient on a random 16-parameter subset vs central FD.

    Fine-sample placement is a stopped gradient, so the finite differences
    replay the first build's fine-pass t-values: the probe patches
    hierarchical_resample to return them again. The coarse t-values repeat
    on their own, as every build draws the same pixel streams.
    """
    with pytest.MonkeyPatch.context() as mp:
        merged = []
        resample = rd.hierarchical_resample

        def replay(*args):
            if not merged:
                merged.append(resample(*args))
            return merged[0]

        mp.setattr(rd, "hierarchical_resample", replay)
        return _e2e_gradient_error()


def _e2e_gradient_error():
    sets = ["scene.n_identities=1", "scene.n_frames=4", "scene.resolution=10",
            "scene.gt_samples=32", "render.n_coarse=5", "render.n_fine=6",
            "field.layers=2", "field.hidden=12", "field.Lx=2", "field.Lv=1",
            "field.color_layers=1", "field.color_hidden=8",
            "train.rays_per_step=4", "train.steps=1", "train.eval_every=0"]
    cfg = cfg_mod.load_config(sets=sets)
    ds = sc.dataset_from_config(cfg)
    state = tr.init_state(cfg, ds)
    key = philox_key(0)
    rng = step_rng(key, 0)
    idn = ds.identities[0]
    frame = idn.frames[0]
    H = W = ds.resolution
    rows, cols = tr._sample_pixels(rng, frame.box, H, W, 4, 0)

    def build(params):
        tape = ad.Tape()
        bound = {n: ad.leaf(tape, params[n]) for n in sorted(params)}
        total, _ = tr._batch_loss(
            state, ds, frame, bound, "identity.id00", "latent.id00.0000",
            key, 1, 0, rows, cols)
        return tape, bound, total

    params = {k: v.copy() for k, v in state.params.items()
              if k.startswith(("cond.", "coarse.", "fine."))
              or k in ("identity.id00", "latent.id00.0000")}
    tape, bound, total = build(params)
    names = sorted(params)
    grads = dict(zip(names, ad.grad(tape, total, [bound[n] for n in names])))

    picks = []  # (name, flat index)
    prng = np.random.default_rng(123)
    for _ in range(16):
        n = names[prng.integers(len(names))]
        picks.append((n, int(prng.integers(params[n].size))))

    h = 1e-5
    worst = 0.0
    for n, j in picks:
        flat = params[n].reshape(-1)
        orig = flat[j]
        flat[j] = orig + h
        fp = float(build(params)[2].value)
        flat[j] = orig - h
        fm = float(build(params)[2].value)
        flat[j] = orig
        numeric = (fp - fm) / (2 * h)
        analytic = grads[n].reshape(-1)[j]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def test_criterion_3_autodiff_finite_differences():
    t0 = time.time()
    rep = verify.suite_autodiff(per_primitive=50)
    prim_worst = max(c["max_err"] for c in rep["checks"] if c["name"].startswith("fd_"))
    e2e = _e2e_gradient_probe()
    dt = time.time() - t0
    ok = rep["passed"] and prim_worst < 1e-5 and e2e < 1e-3 and dt < 60.0
    _report("criterion 3 (autodiff FD checks)",
            ok, f"per-primitive worst {prim_worst:.3g} (tol 1e-5); "
                f"end-to-end 16-param probe {e2e:.3g} (tol 1e-3); {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: rendering quadrature

def test_criterion_4_quadrature():
    n = 256
    sigma0, c = 2.0, np.array([0.6, 0.3, 0.9])
    t = (np.arange(n) + 0.5) / n  # bin midpoints
    got = rd.composite_batch(t[None, :], np.full((1, n), sigma0), np.tile(c, (1, n, 1)), 1.0,
                             np.zeros((1, 3)))[0][0]
    quad_err = float(np.max(np.abs(got - c * (1.0 - np.exp(-sigma0)))))
    rng = np.random.default_rng(0)
    part_err = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 48))
        tt = np.sort(rng.uniform(0.01, 3.99, m))
        sig = rng.uniform(0, 40, m)
        deltas = np.append(np.diff(tt), 4.0 - tt[-1])
        alpha = 1.0 - np.exp(-sig * deltas)
        T = np.concatenate([[1.0], np.cumprod(1.0 - alpha)[:-1]])
        part_err = max(part_err,
                       abs(np.prod(1.0 - alpha) + float((T * alpha).sum()) - 1.0))
    ok = quad_err < 1e-3 and part_err < 1e-12
    _report("criterion 4 (quadrature)",
            ok, f"homogeneous-medium error {quad_err:.3g} at 256 samples "
                f"(tol 1e-3); partition-of-unity error {part_err:.3g} (tol 1e-12)")


# ---------------------------------------------------------------------------
# criteria 5 and 7: toy training, determinism, personalization

@pytest.fixture(scope="session")
def toy_run():
    cfg = cfg_mod.load_config(sets=[f"train.steps={TOY_TRAIN_STEPS}",
                                    "train.eval_every=500"])
    ds = sc.dataset_from_config(cfg)
    t0 = time.time()
    state, rows = tr.train(ds, cfg)
    train_seconds = time.time() - t0
    return cfg, ds, state, rows, train_seconds


@pytest.mark.slow
def test_criterion_5_toy_training(toy_run):
    cfg, ds, state, rows, train_seconds = toy_run
    psnr = mt.evaluate_images(state, ds)["mean_psnr"]
    head = float(np.median([r["loss_c"] for r in rows[:100]]))
    tail = float(np.median([r["loss_c"] for r in rows[-100:]]))

    det_cfg = cfg_mod.load_config(sets=["train.steps=25", "train.eval_every=0"])
    blobs = []
    for _ in range(2):
        s, _ = tr.train(ds, det_cfg)
        with tempfile.NamedTemporaryFile(delete=False) as f:
            path = f.name
        tr.save_checkpoint(path, s)
        with open(path, "rb") as f:
            blobs.append(f.read())
        os.unlink(path)
    deterministic = blobs[0] == blobs[1]

    ok = (psnr > 25.0 and train_seconds < 900.0 and deterministic
          and tail < head)
    _report("criterion 5 (toy training)",
            ok, f"held-out PSNR {psnr:.2f} dB (need > 25) after "
                f"{TOY_TRAIN_STEPS} steps in {train_seconds:.0f}s (< 900); "
                f"median loss {head:.2f} -> {tail:.2f}; "
                f"byte-identical determinism: {deterministic}")


@pytest.mark.slow
def test_criterion_7_personalization(toy_run):
    cfg, ds, state, _, _ = toy_run
    clip_cfg = cfg_mod.load_config(sets=["scene.n_identities=3", "scene.n_frames=11"])
    clip_all = sc.dataset_from_config(clip_cfg)
    clip = sc.Dataset(scene=clip_all.scene, identities=clip_all.identities[2:],
                      resolution=clip_all.resolution, t_near=clip_all.t_near,
                      t_far=clip_all.t_far, seed=clip_all.seed,
                      gt_samples=clip_all.gt_samples)
    assert clip.identities[0].name == "id02"
    assert len(clip.identities[0].train_idx) == 10

    def clip_psnr(st):
        idn = clip.identities[0]
        vals = []
        for fidx in idn.test_idx:
            fr = idn.frames[fidx]
            img = tr.render_model_frame(st, clip, "id02", fr.e, fr.pose,
                                        frame_id=clip.frame_id("id02", fidx))
            vals.append(mt.psnr(img, fr.image))
        return float(np.mean(vals))

    pre = tr.personalize(state, clip, "id02", steps=0)
    before = clip_psnr(pre)
    after_state = tr.personalize(state, clip, "id02", steps=400, lr=5e-4)
    after = clip_psnr(after_state)

    frozen = all(after_state.params[k].tobytes() == state.params[k].tobytes()
                 for k in state.params if k.startswith("cond."))
    untouched = all(np.array_equal(after_state.params[k], state.params[k])
                    for k in state.params if k.startswith(("identity.", "latent.")))
    ok = frozen and untouched and after > before
    _report("criterion 7 (personalization)",
            ok, f"module frozen byte-identical: {frozen}; other codes untouched: "
                f"{untouched}; unseen-identity PSNR {before:.2f} -> {after:.2f} dB "
                f"(10-frame clip, 400 steps)")


# ---------------------------------------------------------------------------
# criterion 6: expression-transfer ordering across module variants

def _ordering_run(variant, seed, sets=(), ds_cache={}):
    """Mean transfer PSNR of variant trained at seed under ORDERING_SETS, then
    sets (tools/margins.py's --set values; the gate passes none)."""
    sets = [*ORDERING_SETS, *sets, f"seed={seed}"]
    if tuple(sets) not in ds_cache:
        ds_cache[tuple(sets)] = sc.dataset_from_config(cfg_mod.load_config(sets=sets))
    ds = ds_cache[tuple(sets)]
    cfg = cfg_mod.load_config(sets=sets + [f"conditioning.variant={variant}"])
    state, _ = tr.train(ds, cfg)
    vals = [mt.transfer_eval(state, ds, s, t)
            for s, t in itertools.permutations(ds.identity_names(), 2)]
    return float(np.mean(vals))


@pytest.mark.slow
def test_criterion_6_transfer_ordering():
    wins_m_baseline = 0
    wins_m_a4 = 0
    lines = []
    for seed in ORDERING_SEEDS:
        scores = {v: _ordering_run(v, seed) for v in ("M", "Baseline", "A4")}
        wins_m_baseline += scores["M"] >= scores["Baseline"]
        wins_m_a4 += scores["A4"] < scores["M"]
        lines.append(f"seed {seed}: M {scores['M']:.2f}, "
                     f"Baseline {scores['Baseline']:.2f}, A4 {scores['A4']:.2f}")
    ok = wins_m_baseline >= 2 and wins_m_a4 >= 2
    _report("criterion 6 (transfer ordering)",
            ok, f"M >= Baseline on {wins_m_baseline}/3 seeds, "
                f"A4 < M on {wins_m_a4}/3 seeds; " + "; ".join(lines))


# ---------------------------------------------------------------------------
# criterion 8: metric oracles

def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 1, (16, 16, 3))
    b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)

    se = 0.0
    for r in range(16):
        for c in range(16):
            for ch in range(3):
                se += (a[r, c, ch] - b[r, c, ch]) ** 2
    mse = se / a.size
    psnr_err = abs(mt.psnr(a, b) - 10 * np.log10(1.0 / mse))

    ga, gb = mt.to_gray(a), mt.to_gray(b)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for r in range(16 - 7):
        for c in range(16 - 7):
            wa = ga[r:r + 8, c:c + 8].reshape(-1)
            wb = gb[r:r + 8, c:c + 8].reshape(-1)
            mu_a, mu_b = wa.mean(), wb.mean()
            va = ((wa - mu_a) ** 2).mean()
            vb = ((wb - mu_b) ** 2).mean()
            cov = ((wa - mu_a) * (wb - mu_b)).mean()
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    ssim_err = abs(mt.ssim(a, b, window=8) - float(np.mean(vals)))

    sv_err = 0.0
    for _ in range(5):
        W = rng.standard_normal((5, 5))
        sv = mt.singular_values(W)
        S = W.T @ W
        coeffs = [1.0]
        M = np.zeros_like(S)
        for k in range(1, 6):
            M = S @ M + coeffs[-1] * np.eye(5)
            coeffs.append(-np.trace(S @ M) / k)
        lam = np.sort(np.abs(np.roots(coeffs)))[::-1]
        sv_err = max(sv_err, float(np.max(np.abs(sv ** 2 - lam))))

    ok = psnr_err < 1e-8 and ssim_err < 1e-8 and sv_err < 1e-8
    _report("criterion 8 (metric oracles)",
            ok, f"PSNR loop err {psnr_err:.2g}; SSIM loop err {ssim_err:.2g}; "
                f"singular-value gram-eigen err {sv_err:.2g} (tol 1e-8)")


@pytest.mark.slow
def test_neutral_expression_renders_match_neutral_ground_truth(toy_run):
    # zeroed expression input for both model and analytic ground truth
    cfg, ds, state, _, _ = toy_run
    zero_e = np.zeros(ds.scene.modes.d)
    vals = []
    for idn in ds.identities:
        fidx = idn.test_idx[0]
        pose = idn.frames[fidx].pose
        img = tr.render_model_frame(state, ds, idn.name, zero_e, pose,
                                    frame_id=ds.frame_id(idn.name, fidx))
        gt = ds.gt_image(idn.name, zero_e, fidx)
        vals.append(mt.psnr(img, gt))
    worst = float(np.min(vals))
    _report("neutral-expression transfer (spec example)", worst > 25.0,
            f"min PSNR {worst:.2f} dB vs neutral ground truth (need > 25)")
