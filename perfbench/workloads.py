"""The three benchmark workloads: gen, train and eval.

Each workload sets up SETUPS times (set-up time is their median plus the
one-off import time), then runs whole rounds of the same operations until
the requested seconds have passed. Every round repeats the same computation
from the same inputs, so round outputs must hash identically; timings are
medians over rounds or over the operations inside them. Checks run after the
timed part, on the last round's outputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from minerf import cli, config, field, metrics, synthscene, trainer

import checks

SETUPS = 3

# gen: `minerf gen-data` at toy defaults (2 identities x 60 frames, 32x32, 256 samples)
GEN_SETS = []
# train: 3 identities x 10 frames (9 train + 1 held out each); id02 is the
# unseen identity for personalize. 64 GT samples keep three set-ups cheap.
TRAIN_SETS = ["scene.n_identities=3", "scene.n_frames=10", "scene.gt_samples=64",
              "train.steps=60", "train.eval_every=0"]
TRAIN_SEEN = 2
PERSONALIZE_ID = "id02"
PERSONALIZE_FRAMES = 5
PERSONALIZE_STEPS = 20
PERSONALIZE_LR = 5e-4
# eval: 2 identities x 10 frames and a base model trained briefly in set-up
EVAL_SETS = ["scene.n_frames=10", "scene.gt_samples=64", "train.steps=30",
             "train.eval_every=0"]
REFERENCE_PIXELS = 4

# the jittered 256-sample quadrature error is at most ~1.3e-3 today
QUADRATURE_TOL = 4e-3
# the pixel reference agrees to ~3e-16; this leaves room for reordered sums
PIXEL_TOL = 1e-10
# an untrained model scores ~9-12 dB held out; trained, 15-22 dB by seed
PSNR_FLOOR_DB = 13.0
PSNR_GAIN_DB = 3.0


def _config(seed, sets):
    return config.load_config(None, [f"seed={seed}"] + sets, env={})


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet_cli(argv):
    """Run a minerf subcommand in-process; returns its standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"minerf {argv[0]} exited with {code}")
    return buf.getvalue()


def _remove(path: Path):
    if path.exists():
        shutil.rmtree(path)


class Result:
    """Operation counts, digests, metrics and check outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.lines: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}

    def digest(self, name, value):
        """Record an output hash; every round and set-up must reproduce it."""
        old = self.digests.setdefault(name, value)
        if old != value:
            self.problems.append(f"{name} differs between repetitions: {old} vs {value}")

    def check(self, name, ok, detail=""):
        self.lines.append(f"check {name} {'ok' if ok else 'FAILED'} {detail}".rstrip())
        if not ok:
            self.problems.append(f"{name}: {detail}")


def _repeat(run, setup, round_fn, seconds):
    """SETUPS set-ups (one when tracing), then whole rounds for `seconds`.

    round_fn returns (timings, outputs); only the last round's outputs are
    kept, so peak memory does not grow with the number of rounds.
    """
    tracer = run["tracer"]
    setup_times, env = [], None
    for _ in range(1 if tracer else SETUPS):
        env = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        env = tracer.run_phase("setup", setup) if tracer else setup()
        setup_times.append(time.perf_counter() - t0)
    outs, last = [], None
    start = time.perf_counter()
    while not outs or time.perf_counter() - start < seconds:
        last = None
        timings, last = tracer.run_phase("timed", round_fn, env) if tracer else round_fn(env)
        outs.append(timings)
    return env, outs, last, statistics.median(setup_times)


# ---------------------------------------------------------------------------
# gen

def gen(run, res: Result):
    seed, tmp = run["seed"], run["tmp"]
    frame_times = []
    if not run["tracer"]:
        render_gt_frame = synthscene.render_gt_frame

        def timed_frame(*args, **kwargs):
            t0 = time.perf_counter()
            img = render_gt_frame(*args, **kwargs)
            frame_times.append(time.perf_counter() - t0)
            return img

        synthscene.render_gt_frame = timed_frame

    def setup():
        cfg = _config(seed, GEN_SETS)
        s = cfg["scene"]
        return {"out": tmp / "gen", "frames": s["n_identities"] * s["n_frames"],
                "pixels": s["resolution"] ** 2}

    def one_round(env):
        _remove(env["out"])
        t0 = time.perf_counter()
        text = _quiet_cli(["gen-data", "--out", str(env["out"]), "--set", f"seed={seed}"])
        wall = time.perf_counter() - t0
        checksum = text.split("checksum=")[1].split()[0]
        res.digest("dataset_sha256", checksum)
        return {"wall": wall}, {"checksum": checksum}

    env, outs, last, setup_s = _repeat(run, setup, one_round, run["seconds"])
    if not run["tracer"]:
        synthscene.render_gt_frame = render_gt_frame
    res.attempted = env["frames"] * len(outs)
    res.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")

    checked, missing, bad = checks.background_outside_boxes(env["out"])
    res.failed = missing * len(outs)
    res.check("frames_written", checked + missing == env["frames"] and not missing,
              f"{checked} of {env['frames']} frames readable")
    res.check("background_outside_support_box", not bad, ", ".join(bad[:3]))
    res.check("checksum_read_back", checks.sha256_tree(env["out"]) == last["checksum"])
    gen_psnr = _check_closed_form(res, env["out"])

    walls = [o["wall"] for o in outs]
    res.metrics["setup_s"] = (run["import_s"] + setup_s, "s")
    res.metrics["rays_per_s"] = (env["frames"] * env["pixels"] / statistics.median(walls),
                                 "rays/s")
    if frame_times:
        res.metrics["op_p50_s"] = (statistics.median(frame_times), "s")
    res.lines += [f"gen_frames_per_s {env['frames'] / statistics.median(walls)!r} frames/s",
                  f"neutral_frame_psnr_db {gen_psnr!r} dB",
                  f"round_wall_s {statistics.median(walls)!r} s"]


def _check_closed_form(res, data_dir):
    """Neutral-expression GT frames against the closed-form ellipsoid integral."""
    ds = synthscene.load_dataset(data_dir)
    errs, psnrs = [], []
    for k, idn in enumerate(ds.identities):
        meta = json.loads((Path(data_dir) / idn.name / "meta.json").read_text())
        pose = idn.frames[0].pose
        img = synthscene.render_gt_frame(ds.scene, k, np.zeros(ds.scene.modes.d), pose,
                                         ds.t_near, ds.t_far, ds.gt_samples, ds.seed,
                                         k * synthscene.GT_FRAME_STRIDE)
        ref = checks.ellipsoid_frame(meta, 0)
        errs.append(float(np.max(np.abs(img - ref))))
        psnrs.append(checks.psnr_db(img, ref))
    res.check("closed_form_neutral_frames", max(errs) <= QUADRATURE_TOL,
              f"max_abs_err={max(errs):.3g} tol={QUADRATURE_TOL}")
    return float(np.mean(psnrs))


# ---------------------------------------------------------------------------
# train

def _load_train_inputs(cfg, data_dir):
    """Generate the dataset, write it, checksum it and read it back."""
    _remove(data_dir)
    synthscene.save_dataset(synthscene.dataset_from_config(cfg), data_dir)
    checksum = synthscene.dataset_checksum(data_dir)
    ds = synthscene.load_dataset(data_dir)
    return ds, checksum


def train(run, res: Result):
    seed, tmp = run["seed"], run["tmp"]

    def setup():
        cfg = _config(seed, TRAIN_SETS)
        ds, checksum = _load_train_inputs(cfg, tmp / "train-data")
        res.digest("dataset_sha256", checksum)
        seen = dataclasses.replace(ds, identities=ds.identities[:TRAIN_SEEN])
        idn = ds.by_name(PERSONALIZE_ID)
        clip = dataclasses.replace(ds, identities=[dataclasses.replace(
            idn, train_idx=idn.train_idx[:PERSONALIZE_FRAMES])])
        return {"cfg": cfg, "seen": seen, "clip": clip, "ckpt": tmp / "train.ckpt"}

    def one_round(env):
        cfg, seen = env["cfg"], env["seen"]
        stamps = []
        t0 = time.perf_counter()
        state = trainer.init_state(cfg, seen)
        stamps.append(time.perf_counter())
        state, rows = trainer.train(seen, cfg, state,
                                    log_fn=lambda row: stamps.append(time.perf_counter()))
        t1 = time.perf_counter()
        tuned = trainer.personalize(state, env["clip"], PERSONALIZE_ID, PERSONALIZE_STEPS,
                                    lr=PERSONALIZE_LR)
        t2 = time.perf_counter()
        report = metrics.evaluate_images(state, seen)
        t3 = time.perf_counter()
        trainer.save_checkpoint(env["ckpt"], tuned)
        t4 = time.perf_counter()
        res.digest("checkpoint_sha256", _sha256(env["ckpt"].read_bytes()))
        res.digest("heldout_report_sha256", _sha256(json.dumps(report, sort_keys=True).encode()))
        failed = (sum(not np.isfinite(r["loss_c"]) for r in rows)
                  + sum(not np.isfinite(f["psnr"]) for f in report["frames"]))
        return ({"steps": np.diff(stamps), "train_s": t1 - t0, "personalize_s": t2 - t1,
                 "optimise_s": t2 - t0, "eval_s": t3 - t2, "round_s": t4 - t0,
                 "failed": failed},
                {"state": state, "tuned": tuned, "rows": rows, "report": report})

    env, outs, last, setup_s = _repeat(run, setup, one_round, run["seconds"])
    cfg = env["cfg"]
    rays = cfg["train"]["rays_per_step"]
    n_train, n_pers = cfg["train"]["steps"], PERSONALIZE_STEPS
    n_frames = len(last["report"]["frames"])
    res.attempted = (n_train + n_pers + n_frames) * len(outs)
    res.failed = sum(o["failed"] for o in outs)
    res.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")

    _check_train(res, env, last)

    def med(key):
        return statistics.median(o[key] for o in outs)

    res.metrics["setup_s"] = (run["import_s"] + setup_s, "s")
    res.metrics["rays_per_s"] = ((n_train + n_pers) * rays / med("optimise_s"), "rays/s")
    res.metrics["op_p50_s"] = (float(np.median(np.concatenate([o["steps"] for o in outs]))), "s")
    res.lines += [
        f"train_rays_per_s {n_train * rays / med('train_s')!r} rays/s",
        f"train_step_p50_s {res.metrics['op_p50_s'][0]!r} s",
        f"personalize_rays_per_s {n_pers * rays / med('personalize_s')!r} rays/s",
        f"heldout_psnr_db {last['report']['mean_psnr']!r} dB",
        f"heldout_frames_per_s {n_frames / med('eval_s')!r} frames/s",
        f"round_wall_s {med('round_s')!r} s",
    ]


def _check_train(res, env, last):
    cfg, seen = env["cfg"], env["seen"]
    untrained = metrics.evaluate_images(trainer.init_state(cfg, seen), seen)["mean_psnr"]
    psnr = last["report"]["mean_psnr"]
    res.check("heldout_psnr_floor", psnr >= PSNR_FLOOR_DB and psnr >= untrained + PSNR_GAIN_DB,
              f"psnr={psnr:.2f} untrained={untrained:.2f} floor={PSNR_FLOOR_DB}")
    losses = [r["loss_c"] for r in last["rows"]]
    q = len(losses) // 4
    first, final = float(np.median(losses[:q])), float(np.median(losses[-q:]))
    res.check("loss_falls", final < first, f"median loss_c {first:.4g} -> {final:.4g}")
    state, tuned = last["state"], last["tuned"]
    res.check("parameters_finite",
              all(np.all(np.isfinite(v)) for s in (state, tuned) for v in s.params.values()))
    frozen = [k for k in state.params if k.startswith(("cond.", "identity.", "latent."))]
    changed = [k for k in frozen if tuned.params[k].tobytes() != state.params[k].tobytes()]
    res.check("personalize_freezes_module_and_other_codes", not changed, ", ".join(changed[:3]))
    loaded = trainer.load_checkpoint(env["ckpt"])
    res.check("checkpoint_round_trip", loaded.params.keys() == tuned.params.keys() and all(
        loaded.params[k].tobytes() == v.tobytes() for k, v in tuned.params.items()))


# ---------------------------------------------------------------------------
# eval

def eval_(run, res: Result):
    seed, tmp = run["seed"], run["tmp"]

    def setup():
        cfg = _config(seed, EVAL_SETS)
        data_dir, ckpt = tmp / "eval-data", tmp / "eval.ckpt"
        ds, checksum = _load_train_inputs(cfg, data_dir)
        res.digest("dataset_sha256", checksum)
        base, _ = trainer.train(ds, cfg)
        trainer.save_checkpoint(ckpt, base)
        res.digest("checkpoint_sha256", _sha256(ckpt.read_bytes()))
        return {"ds": ds, "state": trainer.load_checkpoint(ckpt), "data": data_dir,
                "ckpt": ckpt, "out": tmp / "eval-out"}

    def one_round(env):
        ds, state = env["ds"], env["state"]
        frame_times, images = [], []
        t0 = time.perf_counter()
        for k, tgt in enumerate(ds.identities):
            for src in ds.identities:  # own expressions (render), then transfer
                for fidx in tgt.test_idx:
                    t = time.perf_counter()
                    img = trainer.render_model_frame(
                        state, ds, tgt.name, src.frames[fidx].e, tgt.frames[fidx].pose,
                        frame_id=k * synthscene.GT_FRAME_STRIDE + fidx)
                    frame_times.append(time.perf_counter() - t)
                    images.append((tgt.name, src.name, fidx, img))
        t1 = time.perf_counter()
        _quiet_cli(["eval", "--ckpt", str(env["ckpt"]), "--data", str(env["data"]),
                    "--out", str(env["out"])])
        t2 = time.perf_counter()
        summary = (env["out"] / "summary.json").read_bytes()
        frames_csv = (env["out"] / "frames.csv").read_text()
        res.digest("render_sha256", _sha256(b"".join(i[3].tobytes() for i in images)))
        res.digest("eval_summary_sha256", _sha256(summary + frames_csv.encode()))
        failed = sum(not np.all(np.isfinite(i[3])) for i in images)
        return ({"frame_times": frame_times, "render_s": t1 - t0, "eval_s": t2 - t1,
                 "failed": failed},
                {"images": images, "summary": json.loads(summary), "frames_csv": frames_csv})

    env, outs, last, setup_s = _repeat(run, setup, one_round, run["seconds"])
    ds = env["ds"]
    n_ids = len(ds.identities)
    n_test = sum(len(i.test_idx) for i in ds.identities)
    scored = n_test + n_ids * n_test  # evaluate_images frames + transfer-matrix frames
    res.attempted = (len(last["images"]) + scored) * len(outs)
    res.failed = sum(o["failed"] for o in outs)
    res.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")

    _check_eval(res, env, last)

    pixels = ds.resolution ** 2
    frame_times = [t for o in outs for t in o["frame_times"]]
    rendered = len(last["images"]) + n_ids * n_test  # render phase + minerf eval model frames
    res.metrics["setup_s"] = (run["import_s"] + setup_s, "s")
    res.metrics["rays_per_s"] = (rendered * pixels / statistics.median(
        o["render_s"] + o["eval_s"] for o in outs), "rays/s")
    res.metrics["op_p50_s"] = (statistics.median(frame_times), "s")
    res.lines += [
        f"render_frame_p50_s {res.metrics['op_p50_s'][0]!r} s",
        f"eval_frames_per_s {scored / statistics.median(o['eval_s'] for o in outs)!r} frames/s",
        f"base_heldout_psnr_db {last['summary']['mean_psnr']!r} dB",
        f"round_wall_s {statistics.median(o['render_s'] + o['eval_s'] for o in outs)!r} s",
    ]


def _check_eval(res, env, last):
    ds, state = env["ds"], env["state"]
    tgt_name, src_name, fidx, img = last["images"][0]
    tgt = ds.by_name(tgt_name)
    pose = tgt.frames[fidx].pose
    r0, r1, c0, c1 = tgt.frames[fidx].box
    rng = np.random.default_rng(0)
    pix = [((r0 + r1) // 2) * pose.width + (c0 + c1) // 2, 0]
    pix += [int(r) * pose.width + int(c) for r, c in zip(
        rng.integers(r0, r1, REFERENCE_PIXELS - 2), rng.integers(c0, c1, REFERENCE_PIXELS - 2))]
    worst = 0.0
    for p in pix:
        ref = checks.reference_pixel(
            field, state.arch(), state.params, state.cfg, ds.by_name(src_name).frames[fidx].e,
            tgt_name, pose, ds.t_near, ds.t_far, ds.scene.background,
            ds.identity_names().index(tgt_name) * synthscene.GT_FRAME_STRIDE + fidx, p)
        worst = max(worst, float(np.max(np.abs(ref - img.reshape(-1, 3)[p]))))
    res.check("pixels_match_reference", worst <= PIXEL_TOL,
              f"max_abs_err={worst:.3g} over {len(pix)} pixels tol={PIXEL_TOL}")
    summary = last["summary"]
    names = summary["identities"]
    per_id = {n: [] for n in names}
    for line in last["frames_csv"].splitlines()[1:]:
        name, _, psnr, _ = line.split(",")
        per_id[name].append(float(psnr))
    diag = [summary["transfer_psnr"][j][j] for j in range(len(names))]
    means = [float(np.mean(per_id[n])) for n in names]
    res.check("transfer_diagonal_is_heldout_psnr",
              all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(diag, means)),
              f"diagonal={diag} per_identity={means}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {"gen": gen, "train": train, "eval": eval_}
