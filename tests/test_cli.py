import json
import re
import shutil
import zlib

import numpy as np
import pytest

from minerf import cli, config, metrics, ppm, trainer, verify
from minerf import conditioning as cond
from minerf.errors import ConfigError, UsageError
from minerf.synthscene import GT_FRAME_STRIDE, load_dataset

TINY = {
    "scene": {"n_identities": 2, "n_frames": 6, "resolution": 10, "gt_samples": 32},
    "render": {"n_coarse": 5, "n_fine": 5},
    "field": {"layers": 2, "hidden": 16, "Lx": 2, "Lv": 1,
              "color_layers": 1, "color_hidden": 8},
    "train": {"steps": 4, "rays_per_step": 16, "eval_every": 0},
}


@pytest.fixture()
def tiny_cfg_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(TINY))
    return p


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"scene": {"nope": 1}}))
    with pytest.raises(ConfigError):
        config.load_config(p)


def test_config_materializes_defaults(tiny_cfg_file):
    cfg = config.load_config(tiny_cfg_file)
    assert cfg["train"]["lr0"] == 5e-4
    assert cfg["conditioning"]["variant"] == "M"
    assert cfg["scene"]["resolution"] == 10


def test_config_set_overrides(tiny_cfg_file):
    cfg = config.load_config(tiny_cfg_file, sets=["train.steps=9", "seed=3",
                                                  "field.Lx=0", "field.Lv=0"])
    assert cfg["train"]["steps"] == 9 and cfg["seed"] == 3
    assert cfg["field"]["Lx"] == cfg["field"]["Lv"] == 0


def test_config_env_seed_fallback(tiny_cfg_file):
    cfg = config.load_config(tiny_cfg_file, env={"MINERF_SEED": "42"})
    assert cfg["seed"] == 42
    cfg = config.load_config(tiny_cfg_file, sets=["seed=1"],
                             env={"MINERF_SEED": "42"})
    assert cfg["seed"] == 1


def test_gen_data_deterministic_checksum(tiny_cfg_file, tmp_path, capsys):
    outs = []
    for sub in ("d1", "d2"):
        rc = cli.main(["gen-data", "--config", str(tiny_cfg_file),
                       "--out", str(tmp_path / sub)])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    sums = [next(l for l in o.splitlines() if l.startswith("checksum=")) for o in outs]
    assert sums[0] == sums[1]
    assert (tmp_path / "d1" / "id00" / "meta.json").exists()
    assert (tmp_path / "d1" / "id01" / "frame_0003.ppm").exists()


def test_gen_data_refuses_a_non_empty_out_dir(tiny_cfg_file, tmp_path, capsys):
    # a second dataset written over a first would keep the first's extra identities
    out = tmp_path / "d"
    argv = ["gen-data", "--config", str(tiny_cfg_file), "--out", str(out)]
    assert cli.main(argv + ["--set", "scene.n_identities=3"]) == 0
    before = sorted(p.name for p in out.iterdir())
    capsys.readouterr()
    assert cli.main(argv) == 2
    _one_line_error(capsys, str(out), "not empty")
    assert sorted(p.name for p in out.iterdir()) == before == ["id00", "id01", "id02"]
    assert [i.name for i in load_dataset(out).identities] == before
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(empty)]) == 0


def test_gen_data_refuses_an_existing_file_before_rendering(tiny_cfg_file, tmp_path,
                                                             monkeypatch, capsys):
    def rendered(*a, **k):
        raise AssertionError("rendered before --out was checked")

    monkeypatch.setattr(cli, "dataset_from_config", rendered)
    out = tmp_path / "afile"
    out.write_text("x")
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(out)]) == 2
    _one_line_error(capsys, str(out), "not a directory")
    assert out.read_text() == "x"


@pytest.mark.parametrize("command, sub", [("gen-data", "afile/sub"), ("eval", "afile"),
                                          ("eval", "afile/sub"), ("render", "afile"),
                                          ("render", "afile/sub")])
def test_out_dir_under_a_file_exit_2_before_rendering(command, sub, tiny_cfg_file, tiny_data,
                                                       tiny_ckpt, tmp_path, monkeypatch,
                                                       capsys):
    # --out must name a directory or a path whose nearest existing ancestor is one
    def rendered(*a, **k):
        raise AssertionError("rendered before --out was checked")

    for mod, name in ((cli, "dataset_from_config"), (metrics, "evaluate_images"),
                      (metrics, "transfer_matrix"), (trainer, "render_model_frame")):
        monkeypatch.setattr(mod, name, rendered)
    (tmp_path / "afile").write_text("x")
    out = str(tmp_path / sub)
    argv = {"gen-data": ["gen-data", "--config", str(tiny_cfg_file)],
            "eval": ["eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_data)],
            "render": ["render", "--ckpt", str(tiny_ckpt), "--identity", "id00"]}[command]
    assert cli.main(argv + ["--out", out]) == 2
    _one_line_error(capsys, f"--out {out}", "not a directory")
    assert (tmp_path / "afile").read_text() == "x"


@pytest.mark.parametrize("exc, needle", [(MemoryError(), "MemoryError"),
                                         (MemoryError("Unable to allocate 9.5 GiB"), "9.5 GiB")])
def test_memory_error_exit_2_one_line(exc, needle, tiny_cfg_file, tmp_path, monkeypatch,
                                      capsys):
    def exhausted(*a, **k):
        raise exc

    monkeypatch.setattr(trainer, "train", exhausted)
    assert cli.main(["train", "--config", str(tiny_cfg_file),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, needle)
    assert not (tmp_path / "m.ckpt").exists()


def test_gen_data_invalid_config_exit_2(tiny_cfg_file, tmp_path, capsys):
    for bad in ("seed=-1", "scene.n_identities=0", "field.Lx=-1", "field.Lv=-2",
                "scene.background=[0.1,0.2]", "scene.background=[0.1,0.2,0.3,0.4]",
                "scene.background=[0.1,NaN,0.2]", 'scene.background=[0.1,"a",0.2]',
                "field.hidden=NaN", "scene.orbit_radius=NaN", "train.steps=Infinity",
                "train.eval_every=-1", "train.eval_frames=0", "train.beta2=1.5",
                "train.eps=-1", "train.divergence_factor=-1", "scene.orbit_radius=1" + "0" * 400,
                "scene.background=[1" + "0" * 400 + ",0.1,0.2]"):
        rc = cli.main(["gen-data", "--config", str(tiny_cfg_file),
                       "--set", bad, "--out", str(tmp_path / "x")])
        assert rc == 2, bad
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (bad, err)
        assert "Traceback" not in err


def test_camera_inside_scene_exit_2(tiny_cfg_file, tmp_path, capsys):
    rc = cli.main(["gen-data", "--config", str(tiny_cfg_file), "--set",
                   "scene.orbit_radius=0.5", "--out", str(tmp_path / "x")])
    assert rc == 2
    _one_line_error(capsys, "scene.orbit_radius")


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_negative_seed_exit_2(command, tiny_cfg_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "x"
    argv = [command, "--config", str(tiny_cfg_file), "--out", str(out)]
    assert cli.main(argv + ["--set", "seed=-1"]) == 2
    _one_line_error(capsys, "seed")
    monkeypatch.setenv("MINERF_SEED", "-1")
    assert cli.main(argv) == 2
    _one_line_error(capsys, "seed")
    assert not out.exists()


def test_train_render_transfer_roundtrip(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file),
                     "--out", str(data)]) == 0
    rc = cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                   "--out", str(ckpt), "--metrics", str(tmp_path / "m.csv")])
    assert rc == 0
    header = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert header == "step,loss_c,loss_l,loss_i,lr,test_psnr"
    capsys.readouterr()

    rdir = tmp_path / "render"
    assert cli.main(["render", "--ckpt", str(ckpt), "--data", str(data),
                     "--identity", "id00", "--frames", "0:2",
                     "--out", str(rdir)]) == 0
    img = ppm.read_ppm(rdir / "frame_0000.ppm")
    assert img.shape == (10, 10, 3)

    tdir = tmp_path / "transfer_same"
    assert cli.main(["transfer", "--ckpt", str(ckpt), "--data", str(data),
                     "--identity", "id00", "--expr-from", "id00",
                     "--frames", "0:2", "--out", str(tdir)]) == 0
    assert (tdir / "frame_0000.ppm").read_bytes() == \
        (rdir / "frame_0000.ppm").read_bytes()

    tdir2 = tmp_path / "transfer_other"
    assert cli.main(["transfer", "--ckpt", str(ckpt), "--data", str(data),
                     "--identity", "id00", "--expr-from", "id01",
                     "--frames", "0:2", "--out", str(tdir2)]) == 0

    assert cli.main(["render", "--ckpt", str(ckpt), "--data", str(data),
                     "--identity", "ghost", "--out", str(tmp_path / "g")]) == 2


@pytest.mark.parametrize("variant", ["M", "H"])
def test_train_without_data_equals_train_on_gen_data_output(variant, tiny_cfg_file, tiny_data,
                                                            tmp_path, capsys):
    """One ground truth: the frames train renders for itself are the 8-bit frames
    gen-data writes, so the checkpoint and the metrics CSV (in-run evals included)
    do not depend on --data."""
    blobs = []
    for tag, data in (("own", []), ("data", ["--data", str(tiny_data)])):
        ckpt, csv = tmp_path / f"{tag}.ckpt", tmp_path / f"{tag}.csv"
        assert cli.main(["train", "--config", str(tiny_cfg_file), *data,
                         "--set", f"conditioning.variant={variant}",
                         "--set", "train.eval_every=2",
                         "--out", str(ckpt), "--metrics", str(csv)]) == 0
        blobs.append((ckpt.read_bytes(), csv.read_bytes()))
    assert blobs[0][1].count(b"\n") == 1 + TINY["train"]["steps"]
    assert blobs[0] == blobs[1]


def test_render_without_data_uses_config_snapshot(tiny_cfg_file, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(tiny_cfg_file),
                     "--out", str(ckpt)]) == 0
    capsys.readouterr()
    rdir = tmp_path / "r1"
    assert cli.main(["render", "--ckpt", str(ckpt), "--identity", "id01",
                     "--frames", "1", "--out", str(rdir)]) == 0
    assert (rdir / "frame_0001.ppm").exists()


def test_train_zero_steps_checkpoint_equals_init(tiny_cfg_file, tmp_path, capsys):
    ckpt = tmp_path / "z.ckpt"
    rc = cli.main(["train", "--config", str(tiny_cfg_file),
                   "--set", "train.steps=0", "--out", str(ckpt)])
    assert rc == 0
    state = trainer.load_checkpoint(ckpt)
    cfg = config.load_config(tiny_cfg_file, sets=["train.steps=0"])
    from minerf.synthscene import dataset_from_config
    init = trainer.init_state(cfg, dataset_from_config(cfg, render_images=False))
    for k in init.params:
        assert np.array_equal(state.params[k], init.params[k])


def test_train_deterministic_flag_checkpoint_bytes(tiny_cfg_file, tmp_path, capsys):
    blobs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        assert cli.main(["train", "--config", str(tiny_cfg_file),
                         "--out", str(ckpt)]) == 0
        blobs.append(ckpt.read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_subcommand(tmp_path, capsys):
    rc = cli.main(["verify", "--suite", "all", "--json", str(tmp_path / "r.json")])
    assert rc == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["passed"] is True
    assert [r["suite"] for r in report["suites"]] == list(verify.SUITES)
    assert all(r["passed"] and all(c["passed"] for c in r["checks"])
               for r in report["suites"])
    variants = report["suites"][verify.SUITES.index("variants")]["checks"]
    assert [c["name"] for c in variants] == [f"{v}_vs_loop" for v in cond.VARIANTS]


@pytest.mark.parametrize("variant", cond.VARIANTS)
def test_verify_detects_injected_fault(variant, monkeypatch, capsys):
    row = cond._TABLE[variant]
    monkeypatch.setitem(cond._TABLE, variant, row._replace(
        forward=lambda *a: row.forward(*a) * (1 + 1e-6)))
    rc = cli.main(["verify", "--suite", "variants"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    failed = [c["name"] for c in report["suites"][0]["checks"] if not c["passed"]]
    assert failed == [f"{variant}_vs_loop"]


def test_props_suite_detects_sign_error(monkeypatch):
    for fn, caught in [("m_forward", {"prop1_factored_equals_full_tensor"}),
                       ("h_forward", {"prop2_recursion_equals_six_terms",
                                      "prop3_multiplicative_branch_triplets"})]:
        with monkeypatch.context() as m:
            real = getattr(cond, fn)
            m.setattr(cond, fn, lambda p, e, i, real=real: -real(p, e, i))
            report = verify.suite_props(cases=20)
        assert report["passed"] is False
        assert {c["name"] for c in report["checks"] if not c["passed"]} == caught, fn


def test_render_suite_detects_shifted_pixel_streams(monkeypatch):
    """A stream that skips one block, as a change in Philox buffering would."""
    import minerf.renderer as rd
    real = rd.pixel_rng

    def shifted(key, step, frame, pixels, n):
        return real(key, step + 1, frame, pixels, n)

    monkeypatch.setattr(rd, "pixel_rng", shifted)
    report = verify.suite_render(cases=5)
    assert not next(c for c in report["checks"]
                    if c["name"] == "pixel_streams_match_numpy_philox")["passed"]
    assert report["passed"] is False


def test_render_suite_detects_ground_truth_rows_that_depend_on_the_other_rows(monkeypatch):
    """A formula whose rows change with the row count, as a host's BLAS might."""
    import minerf.synthscene as sc
    report = verify.suite_render(cases=5)
    assert next(c for c in report["checks"] if c["name"] == "support_culling_exact")["passed"]
    real = sc._analytic_kernel

    def row_dependent(spec, k, e, X):
        rgb, sigma = real(spec, k, e, X)
        return rgb, sigma * (1.0 + 1e-18 * len(X))

    monkeypatch.setattr(sc, "_analytic_kernel", row_dependent)
    report = verify.suite_render(cases=5)
    check = next(c for c in report["checks"] if c["name"] == "support_culling_exact")
    assert not check["passed"] and check["max_err"] > 0
    assert report["passed"] is False


def test_render_suite_detects_model_rows_that_depend_on_the_other_rows(monkeypatch):
    """A field whose rows change with the row count makes chunked frames differ."""
    report = verify.suite_render(cases=5)
    assert next(c for c in report["checks"] if c["name"] == "chunked_model_frame_exact")["passed"]
    real = trainer.forward_encoded

    def row_dependent(arch, w, cond, lat, enc_x, enc_v):
        rgb, sigma = real(arch, w, cond, lat, enc_x, enc_v)
        return rgb * (1.0 + 1e-18 * len(enc_x)), sigma

    monkeypatch.setattr(trainer, "forward_encoded", row_dependent)
    report = verify.suite_render(cases=5)
    check = next(c for c in report["checks"] if c["name"] == "chunked_model_frame_exact")
    assert not check["passed"] and check["max_err"] > 0
    assert report["passed"] is False


@pytest.mark.parametrize("check,fault", [
    # trans[:, k] read as the transmittance before sample k, one sample late
    ("transmittance_partition_of_unity",
     lambda c, T, w: (c, np.concatenate([np.ones((len(T), 1)), T[:, :-1]], axis=1), w)),
    # a transmittance that grows where it should fall
    ("transmittance_monotone", lambda c, T, w: (c, 2.0 - T, w)),
])
def test_render_suite_reads_the_compositor_arrays(check, fault, monkeypatch):
    import minerf.renderer as rd
    real = rd.composite_batch
    monkeypatch.setattr(rd, "composite_batch", lambda *a: fault(*real(*a)))
    report = verify.suite_render(cases=5)
    assert not next(c for c in report["checks"] if c["name"] == check)["passed"]


def test_eval_and_inspect(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file),
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(ckpt)]) == 0
    capsys.readouterr()
    # SSIM needs its window; tiny frames are 10x10 with the default window 8
    edir = tmp_path / "eval"
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(edir)]) == 0
    summary = json.loads((edir / "summary.json").read_text())
    assert "mean_psnr" in summary and len(summary["transfer_psnr"]) == 2
    assert (edir / "frames.csv").read_text().startswith("identity,frame,psnr,ssim")

    # identity-initialized matrix has all singular values 1
    state = trainer.load_checkpoint(ckpt)
    state.params["cond.W2"] = np.eye(8)
    doctored = tmp_path / "doctored.ckpt"
    trainer.save_checkpoint(doctored, state)
    out_csv = tmp_path / "sv.csv"
    assert cli.main(["inspect", "--ckpt", str(doctored), "--matrix", "W2",
                     "--out", str(out_csv)]) == 0
    rows = out_csv.read_text().splitlines()[1:]
    sv = np.array([float(r.split(",")[1]) for r in rows])
    assert np.allclose(sv, 1.0, atol=1e-12)
    assert cli.main(["inspect", "--ckpt", str(doctored), "--matrix", "Qx"]) == 2


def test_eval_renders_each_heldout_frame_once(tiny_ckpt, tmp_path, monkeypatch, capsys):
    """The transfer diagonal reuses evaluate_images' scores: one model render per
    (identity, source frame) pair, and the same numbers transfer_eval gives."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    data, edir = tmp_path / "data", tmp_path / "eval"
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    calls = []
    render = trainer.render_model_frame

    def counted(*args, **kwargs):
        calls.append(kwargs["frame_id"])
        return render(*args, **kwargs)

    monkeypatch.setattr(trainer, "render_model_frame", counted)
    assert cli.main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(data),
                     "--out", str(edir)]) == 0
    ds = load_dataset(data)
    n_test = sum(len(i.test_idx) for i in ds.identities)
    assert len(calls) == len(ds.identities) * n_test
    monkeypatch.undo()
    state = trainer.load_checkpoint(tiny_ckpt)
    summary = json.loads((edir / "summary.json").read_text())
    for j, name in enumerate(summary["identities"]):
        assert summary["transfer_psnr"][j][j] == metrics.transfer_eval(state, ds, name, name)
    with pytest.raises(UsageError):  # a report that skipped held-out frames
        metrics.transfer_matrix(state, ds, {"frames": []})


def test_eval_scores_every_frame_against_8_bit_ground_truth(tiny_ckpt, tiny_data, tmp_path,
                                                            monkeypatch, capsys):
    """Diagonal and off-diagonal transfer entries alike compare the model with
    the 8-bit frames gen-data writes: every ground truth is a whole number of
    1/255 steps."""
    seen, psnr = [], metrics.psnr

    def recorded(pred, gt):
        seen.append(np.asarray(gt))
        return psnr(pred, gt)

    monkeypatch.setattr(metrics, "psnr", recorded)
    assert cli.main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_data),
                     "--out", str(tmp_path / "eval")]) == 0
    ds = load_dataset(tiny_data)
    n_ids, n_test = len(ds.identities), sum(len(i.test_idx) for i in ds.identities)
    assert len(seen) == n_test + (n_ids - 1) * n_test  # held-out frames, then off-diagonal
    for gt in seen:
        assert np.array_equal(gt * 255.0, np.rint(gt * 255.0))


def test_psnr_infinite_sentinel_survives_json():
    from minerf.metrics import psnr
    img = np.zeros((4, 4, 3))
    val = psnr(img, img)
    assert json.loads(json.dumps({"psnr": val}))["psnr"] == float("inf")


def test_train_divergence_exit_code_3(tiny_cfg_file, tmp_path, capsys):
    rc = cli.main(["train", "--config", str(tiny_cfg_file),
                   "--set", "train.steps=115",
                   "--set", "train.divergence_factor=1e-12",
                   "--out", str(tmp_path / "d.ckpt")])
    assert rc == 3


def test_personalize_cli(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "m.ckpt"
    out = tmp_path / "p.ckpt"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file),
                     "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(ckpt)]) == 0
    capsys.readouterr()
    rc = cli.main(["personalize", "--ckpt", str(ckpt), "--data", str(data),
                   "--identity", "id00", "--steps", "2", "--lr", "1e-4",
                   "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "psnr_before=" in printed and "psnr_after=" in printed
    a = trainer.load_checkpoint(ckpt)
    b = trainer.load_checkpoint(out)
    for k in a.params:
        if k.startswith("cond."):
            assert np.array_equal(a.params[k], b.params[k])


@pytest.mark.parametrize("flag,value", [("--steps", "-3"), ("--lr", "-1"), ("--lr", "0"),
                                        ("--lr", "nan")])
def test_personalize_bad_steps_or_lr_exit_2(flag, value, tiny_ckpt, tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "p.ckpt"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    args = {"--steps": "2", "--lr": "1e-4", flag: value}
    rc = cli.main(["personalize", "--ckpt", str(tiny_ckpt), "--data", str(data),
                   "--identity", "id00", "--steps", args["--steps"], "--lr", args["--lr"],
                   "--out", str(out)])
    assert rc == 2
    _one_line_error(capsys, flag[2:])
    assert not out.exists()


def _one_line_error(capsys, *needles):
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in err, err


def test_inspect_rejects_truncated_and_garbage_checkpoints(tiny_cfg_file, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--set", "train.steps=0",
                     "--out", str(ckpt)]) == 0
    blob = ckpt.read_bytes()
    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(blob[:blob.index(b"\n") + 101])
    garbage = tmp_path / "garbage.ckpt"
    garbage.write_bytes(bytes(range(256)) * 4)
    capsys.readouterr()
    for bad in (truncated, garbage):
        assert cli.main(["inspect", "--ckpt", str(bad), "--matrix", "W2"]) == 2
        _one_line_error(capsys, str(bad))


def test_train_rejects_incomplete_dataset(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(data)]) == 0
    meta = json.loads((data / "id00" / "meta.json").read_text())
    missing = data / "id00" / f"frame_{meta['split']['train'][0]:04d}.ppm"
    image = missing.read_bytes()
    missing.unlink()
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(missing))
    missing.write_bytes(image)

    meta_path = data / "id01" / "meta.json"
    meta_path.write_text(meta_path.read_text()[:50])
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(meta_path))
    del meta["t_far"]
    meta_path.write_text(json.dumps(meta))
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(meta_path), "t_far")


def test_train_rejects_short_expression_vector(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(data)]) == 0
    meta_path = data / "id00" / "meta.json"
    meta = json.loads(meta_path.read_text())
    for fr in meta["frames"]:
        fr["e"] = fr["e"][:4]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--set", "train.steps=1", "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(meta_path), "e must be a list of 8 finite numbers")


def test_eval_rejects_missing_test_frame(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--out", str(ckpt)]) == 0
    meta = json.loads((data / "id01" / "meta.json").read_text())
    missing = data / "id01" / f"frame_{meta['split']['test'][0]:04d}.ppm"
    missing.unlink()
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    _one_line_error(capsys, str(missing))


MISSING_PATH_ARGS = {
    "inspect_ckpt": ["inspect", "--ckpt", "{missing}", "--matrix", "W2"],
    "train_data": ["train", "--data", "{missing}", "--out", "{tmp}/m.ckpt"],
    "train_config": ["train", "--config", "{missing}", "--out", "{tmp}/m.ckpt"],
    "eval_ckpt": ["eval", "--ckpt", "{missing}", "--data", "{tmp}", "--out", "{tmp}/e"],
    "render_ckpt": ["render", "--ckpt", "{missing}", "--identity", "id00",
                    "--out", "{tmp}/r"],
}


@pytest.mark.parametrize("case", sorted(MISSING_PATH_ARGS))
def test_missing_input_path_exit_2(case, tmp_path, capsys):
    missing = str(tmp_path / "nope")
    argv = [a.format(missing=missing, tmp=tmp_path) for a in MISSING_PATH_ARGS[case]]
    assert cli.main(argv) == 2
    _one_line_error(capsys, missing)


BAD_OUT_ARGS = {
    "train_out": ["train", "--config", "{cfg}", "--out", "{out}/nope/m.ckpt"],
    "train_metrics": ["train", "--config", "{cfg}", "--out", "{out}/m.ckpt", "--metrics", "{out}"],
    "personalize_out": ["personalize", "--ckpt", "{out}/m.ckpt", "--data", "{out}",
                        "--identity", "id00", "--steps", "2", "--out", "{out}/nope/p.ckpt"],
    "inspect_out": ["inspect", "--ckpt", "{out}/m.ckpt", "--matrix", "W2", "--out", "{out}"],
    "verify_json": ["verify", "--json", "{out}/nope/r.json"],
}


@pytest.mark.parametrize("case", sorted(BAD_OUT_ARGS))
def test_bad_output_path_exit_2_before_any_work(case, tiny_cfg_file, tmp_path, monkeypatch,
                                                capsys):
    def ran(*a, **k):
        raise AssertionError("work ran before the output path was checked")

    for mod, name in ((trainer, "train"), (trainer, "personalize"),
                      (trainer, "load_checkpoint"), (verify, "run_suites")):
        monkeypatch.setattr(mod, name, ran)
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(out=out, cfg=tiny_cfg_file) for a in BAD_OUT_ARGS[case]]
    flag, bad = argv[-2:]
    assert cli.main(argv) == 2
    _one_line_error(capsys, f"{flag} {bad}")
    assert list(out.iterdir()) == []


def test_train_rejects_truncated_frame(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(data)]) == 0
    frame = data / "id00" / "frame_0000.ppm"
    frame.write_bytes(frame.read_bytes()[:40])
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(frame))


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny_data") / "data"
    cfg = data.parent / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    assert cli.main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    return data


def test_train_rejects_a_frame_of_another_size(tiny_data, tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    frame = data / "id00" / "frame_0000.ppm"
    ppm.write_ppm(frame, np.zeros((4, 4, 3)))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(frame), "4x4")


@pytest.mark.parametrize("box", [[5, 2, 0, 8], [0, 8], [0, 20, 0, 8], [0, 8, 0, 8.0]])
def test_train_rejects_a_bad_frame_box(box, tiny_data, tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    meta_path = data / "id00" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["frames"][0]["box"] = box
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(meta_path), "box")


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ckpt")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    ckpt = tmp / "model.ckpt"
    assert cli.main(["train", "--config", str(cfg), "--set", "train.steps=0",
                     "--out", str(ckpt)]) == 0
    return ckpt


@pytest.mark.parametrize("section, key, value, needle", [
    ("field", "Lx", 3, "payload"), ("render", "n_fine", -4, "render.n_fine"),
    ("scene", "resolution", -8, "scene.resolution")])
def test_edited_checkpoint_config_exit_2(section, key, value, needle, tiny_ckpt, tmp_path,
                                         capsys):
    header, payload = tiny_ckpt.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    meta["config"][section][key] = value
    edited = tmp_path / "edited.ckpt"
    edited.write_bytes(json.dumps(meta, sort_keys=True).encode() + b"\n" + payload)
    capsys.readouterr()
    rc = cli.main(["render", "--ckpt", str(edited), "--identity", "id00", "--frames", "0",
                   "--out", str(tmp_path / "r")])
    assert rc == 2
    _one_line_error(capsys, str(edited), needle)


def _header_with_d_expression(ckpt, fmt):
    """ckpt's header under format tag fmt, its config naming scene.d_expression as
    older configs did, and a crc32 its format would accept; the payload as is."""
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    meta = json.loads(header)
    meta["format"] = fmt
    meta["config"]["scene"]["d_expression"] = meta["config"]["conditioning"]["d"]
    meta["crc32"] = (zlib.crc32(payload) if fmt == "minerf-ckpt-v2"
                     else trainer._crc32(meta, payload))
    return json.dumps(meta, sort_keys=True).encode() + b"\n" + payload


@pytest.mark.parametrize("fmt, needle", [("minerf-ckpt-v2", "minerf-ckpt-v3"),
                                         ("minerf-ckpt-v3", "scene.d_expression")])
def test_checkpoint_naming_scene_d_expression_exit_2(fmt, needle, tiny_ckpt, tmp_path,
                                                     capsys):
    # a v2 file exits on its tag; a v3 header with the key exits on the key
    old = tmp_path / "old.ckpt"
    old.write_bytes(_header_with_d_expression(tiny_ckpt, fmt))
    capsys.readouterr()
    assert cli.main(["render", "--ckpt", str(old), "--identity", "id00", "--frames", "0",
                     "--out", str(tmp_path / "r")]) == 2
    _one_line_error(capsys, str(old), needle)
    assert not (tmp_path / "r").exists()


def test_checkpoint_personalized_latent_shape_checked(tiny_ckpt, tmp_path):
    state = trainer.load_checkpoint(tiny_ckpt)
    d_latent = state.cfg["conditioning"]["d_latent"]
    for n in (d_latent, 3):
        for store in (state.params, state.adam_m, state.adam_v):
            store["plat.id09.0000"] = np.zeros(n)
        state.adam_t["plat.id09.0000"] = 0
        path = tmp_path / f"p{n}.ckpt"
        trainer.save_checkpoint(path, state)
        if n == d_latent:
            assert trainer.load_checkpoint(path).params["plat.id09.0000"].shape == (n,)
        else:
            with pytest.raises(ConfigError, match=r"p3\.ckpt: \d+ payload bytes"):
                trainer.load_checkpoint(path)


def test_inspect_refuses_an_entry_at_another_arrays_offset(tiny_ckpt, tmp_path, capsys):
    # cond.W2's and cond.W3's payload bytes swapped: every count and size still agrees
    header, payload = tiny_ckpt.read_bytes().split(b"\n", 1)
    state = trainer.load_checkpoint(tiny_ckpt)
    rows, _ = trainer._layout({n: a.shape for n, a in state.params.items()})
    span = {n: (off, off + 8 * int(np.prod(shape))) for kind, n, shape, off in rows
            if kind == "param"}
    (a0, a1), (b0, b1) = span["cond.W2"], span["cond.W3"]
    assert a1 <= b0
    swapped = payload[:a0] + payload[b0:b1] + payload[a1:b0] + payload[a0:a1] + payload[b1:]
    assert len(swapped) == len(payload) and swapped != payload
    edited = tmp_path / "swapped.ckpt"
    edited.write_bytes(header + b"\n" + swapped)
    capsys.readouterr()
    assert cli.main(["inspect", "--ckpt", str(edited), "--matrix", "W2"]) == 2
    _one_line_error(capsys, str(edited), "CRC32")


def test_train_refuses_an_ssim_window_larger_than_the_frames(tiny_cfg_file, tmp_path,
                                                             monkeypatch, capsys):
    calls = []
    step = trainer._train_step
    monkeypatch.setattr(trainer, "_train_step", lambda *a: calls.append(a) or step(*a))
    ckpt = tmp_path / "m.ckpt"
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--set", "train.steps=3",
                     "--set", "train.eval_every=2", "--set", "eval.ssim_window=16",
                     "--out", str(ckpt)]) == 2
    _one_line_error(capsys, "eval.ssim_window=16", "10x10")
    assert calls == [] and not ckpt.exists()


def test_eval_refuses_an_ssim_window_larger_than_the_frames(tiny_cfg_file, tiny_data, tmp_path,
                                                            monkeypatch, capsys):
    # without evals, training never scores a frame, so the window is first checked by eval
    ckpt = tmp_path / "m.ckpt"
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--set", "train.steps=1",
                     "--set", "eval.ssim_window=16", "--out", str(ckpt)]) == 0
    renders = []
    monkeypatch.setattr(trainer, "render_model_frame", lambda *a, **k: renders.append(a))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(tiny_data),
                     "--out", str(tmp_path / "eval")]) == 2
    _one_line_error(capsys, "eval.ssim_window=16", "10x10")
    assert renders == []


@pytest.mark.parametrize("frames", ["abc", "99", "3:1", "-1", "0:99", "1,,2", "2:x"])
@pytest.mark.parametrize("command", ["render", "transfer"])
def test_bad_frames_exit_2(command, frames, tiny_ckpt, tmp_path, capsys):
    argv = [command, "--ckpt", str(tiny_ckpt), "--identity", "id00",
            f"--frames={frames}", "--out", str(tmp_path / "out")]
    if command == "transfer":
        argv += ["--expr-from", "id01"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    _one_line_error(capsys, repr(frames))
    assert not list((tmp_path / "out").glob("*.ppm"))


@pytest.fixture(scope="module")
def data_d4(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("d4") / "cfg.json"
    cfg.write_text(json.dumps(TINY))
    data = cfg.parent / "data"
    assert cli.main(["gen-data", "--config", str(cfg), "--set", "conditioning.d=4",
                     "--out", str(data)]) == 0
    return data


def test_conditioning_d_sizes_the_scene_and_the_model(data_d4, tmp_path):
    # one expression width: gen-data's mode bank and trajectories, and the model it trains
    meta = json.loads((data_d4 / "id00" / "meta.json").read_text())
    assert all(len(meta["modes"][k]) == 4 for k in meta["modes"])
    assert {len(fr["e"]) for fr in meta["frames"]} == {4}
    cfg = data_d4.parent / "cfg.json"
    ckpt = tmp_path / "m.ckpt"
    assert cli.main(["train", "--config", str(cfg), "--set", "conditioning.d=4",
                     "--data", str(data_d4), "--out", str(ckpt)]) == 0
    assert trainer.load_checkpoint(ckpt).params["identity.id00"].shape == (4,)


@pytest.mark.parametrize("how", ["file", "set"])
def test_scene_d_expression_is_an_unknown_key_exit_2(how, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "scene": {**TINY["scene"], "d_expression": 8}}
                              if how == "file" else TINY))
    extra = ["--set", "scene.d_expression=8"] if how == "set" else []
    capsys.readouterr()
    assert cli.main(["gen-data", "--config", str(cfg), *extra,
                     "--out", str(tmp_path / "data")]) == 2
    _one_line_error(capsys, "scene.d_expression")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["eval", "render", "personalize"])
def test_expression_dim_mismatch_exit_2(command, tiny_ckpt, data_d4, tmp_path, capsys):
    argv = [command, "--ckpt", str(tiny_ckpt), "--data", str(data_d4),
            "--out", str(tmp_path / "out")]
    if command != "eval":
        argv += ["--identity", "id00"]
    if command == "personalize":
        argv += ["--steps", "1"]
    capsys.readouterr()
    assert cli.main(argv) == 2
    _one_line_error(capsys, "conditioning.d=8", "expression dim 4")


def _set_split(meta_path, part, idx):
    meta = json.loads(meta_path.read_text())
    meta["split"][part] = idx
    meta_path.write_text(json.dumps(meta))


def test_out_of_range_split_indices_exit_2(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--set", "train.steps=0",
                     "--out", str(ckpt)]) == 0
    meta_path = data / "id00" / "meta.json"
    pristine = meta_path.read_text()
    capsys.readouterr()
    _set_split(meta_path, "test", [99])
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    _one_line_error(capsys, str(meta_path), "split.test", "99")
    for bad in ([17], [-1], [1.0], ["0"], [True]):
        meta_path.write_text(pristine)
        _set_split(meta_path, "train", bad)
        assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                         "--out", str(tmp_path / "m.ckpt")]) == 2
        _one_line_error(capsys, str(meta_path), "split.train")
    assert not (tmp_path / "eval").exists() and not (tmp_path / "m.ckpt").exists()


def test_empty_test_split_exit_2(tiny_cfg_file, tmp_path, capsys):
    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--set", "train.steps=0",
                     "--out", str(ckpt)]) == 0
    meta_path = data / "id00" / "meta.json"
    _set_split(meta_path, "test", [])
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    _one_line_error(capsys, str(meta_path), "split.test is empty")
    assert not (tmp_path / "eval" / "summary.json").exists()


def _edit(key, value):
    def edit(meta):
        block, name = key.split(".")
        target = meta["identity"] if block == "identity" else meta["frames"][0]["pose"]
        target[name] = value(target[name]) if callable(value) else value
    return edit


@pytest.mark.parametrize("edit, needle", [
    (_edit("identity.semi_axes", lambda v: v[:2]), "identity.semi_axes"),
    (_edit("identity.semi_axes", lambda v: [v[0], 0.0, v[2]]), "identity.semi_axes"),
    (_edit("identity.semi_axes", lambda v: [v[0], v[1], "x"]), "identity.semi_axes"),
    (_edit("identity.base_color", lambda v: [v[0], v[1], None]), "identity.base_color"),
    (_edit("identity.base_color", lambda v: v + [0.5]), "identity.base_color"),
    (_edit("identity.density_scale", "x"), "identity.density_scale"),
    (_edit("identity.density_scale", -1.0), "identity.density_scale"),
    (_edit("identity.density_scale", float("inf")), "identity.density_scale"),
    (_edit("pose.focal", "x"), "frame 0 pose.focal"),
    (_edit("pose.focal", 0.0), "frame 0 pose.focal"),
    (_edit("pose.t", lambda v: v[:2]), "frame 0 pose.t"),
    (_edit("pose.t", lambda v: [v[0], v[1], float("nan")]), "frame 0 pose.t"),
    (_edit("pose.cx", None), "frame 0 pose.cx"),
    (_edit("pose.cy", "x"), "frame 0 pose.cy"),
    (_edit("pose.R", lambda v: v[:8]), "frame 0 pose.R"),
    (_edit("pose.R", lambda v: [2.0 * x for x in v]), "not orthonormal"),
    (_edit("pose.R", lambda v: [-x for x in v]), "not a proper rotation"),
    (_edit("pose.R", lambda v: v[:8] + [float("nan")]), "frame 0 pose.R"),
    (_edit("pose.width", 0), "frame 0 pose.width"),
    (_edit("pose.height", 2.5), "frame 0 pose.height"),
])
def test_train_rejects_a_bad_identity_block_or_pose(edit, needle, tiny_data, tiny_cfg_file,
                                                    tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    meta_path = data / "id01" / "meta.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--set", "train.steps=1", "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(meta_path), needle)
    assert not (tmp_path / "m.ckpt").exists()


def test_eval_rejects_short_semi_axes(tiny_data, tiny_ckpt, tmp_path, capsys):
    # training never reads the identity block; eval renders cross-identity ground truth
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    meta_path = data / "id00" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["identity"]["semi_axes"] = meta["identity"]["semi_axes"][:2]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    _one_line_error(capsys, str(meta_path), "identity.semi_axes")


def _modes(key, value):
    def edit(meta):
        meta["modes"][key] = value(meta["modes"][key])
    return edit


def _nan_expression(meta):
    meta["frames"][2]["e"][5] = float("nan")


BAD_SCENE_LEAVES = {
    "widths_7": (_modes("widths", lambda v: v[:7]), "modes.widths"),
    "widths_0": (_modes("widths", lambda v: [0.0] * len(v)), "modes.widths must be > 0"),
    "widths_nan": (_modes("widths", lambda v: v[:-1] + [float("nan")]),
                   "modes.widths must be finite"),
    "centers_short_row": (_modes("centers", lambda v: v[:-1] + [v[-1][:2]]), "modes.centers[7]"),
    "centers_empty": (_modes("centers", lambda v: []), "modes.centers"),
    "directions_7": (_modes("directions", lambda v: v[:7]), "modes.directions"),
    "amplitudes_inf": (_modes("amplitudes", lambda v: v[:-1] + [float("inf")]),
                       "modes.amplitudes"),
    "tints_string": (_modes("tints", lambda v: v[:-1] + [[0.1, "x", 0.1]]), "modes.tints[7]"),
    "background_2": (lambda m: m.update(background=[0.1, 0.1]), "background"),
    "background_nan": (lambda m: m.update(background=[0.1, float("nan"), 0.1]), "background"),
    "e_nan": (_nan_expression, "frame 2 e must be finite"),
    # the scalars that ground-truth rendering reads back, and the frame and identity names
    "t_near_string": (lambda m: m.update(t_near="x"), "t_near"),
    "t_far_below_t_near": (lambda m: m.update(t_far=0.1), "t_far"),
    "gt_samples_0": (lambda m: m.update(gt_samples=0), "gt_samples"),
    "seed_negative": (lambda m: m.update(seed=-1), "seed"),
    "resolution_string": (lambda m: m.update(resolution="x"), "resolution"),
    "name_7": (lambda m: m.update(name=7), "name"),
    "index_duplicate": (lambda m: m["frames"][1].update(index=0), "frame 1 index"),
    "name_duplicate": (lambda m: m.update(name="id01"), "name"),
    # every held-out frame also listed for training
    "split_overlap": (lambda m: m["split"]["train"].extend(m["split"]["test"]),
                      "split.train and split.test share frame 5"),
}


@pytest.mark.parametrize("case", BAD_SCENE_LEAVES)
def test_train_and_eval_reject_a_bad_mode_bank_background_or_expression(
        case, tiny_data, tiny_cfg_file, tiny_ckpt, tmp_path, capsys):
    # both identities carry the same damage, so no "differs" check can catch it first
    edit, needle = BAD_SCENE_LEAVES[case]
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    for name in ("id00", "id01"):
        meta_path = data / name / "meta.json"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--set", "train.steps=1", "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(data / "id00" / "meta.json"), needle)
    assert cli.main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(data),
                     "--out", str(tmp_path / "eval")]) == 2
    _one_line_error(capsys, str(data / "id00" / "meta.json"), needle)
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "eval").exists()


# ---------------------------------------------------------------------------
# an identity's scene index is the k of its name id{k}

@pytest.fixture(scope="module")
def three_ids(tmp_path_factory):
    """gen-data with three identities, and a checkpoint trained on that data."""
    tmp = tmp_path_factory.mktemp("three_ids")
    cfg, data, ckpt = tmp / "cfg.json", tmp / "data", tmp / "model.ckpt"
    cfg.write_text(json.dumps(TINY))
    n3 = ["--set", "scene.n_identities=3"]
    assert cli.main(["gen-data", "--config", str(cfg), *n3, "--out", str(data)]) == 0
    assert cli.main(["train", "--config", str(cfg), *n3, "--data", str(data),
                     "--out", str(ckpt)]) == 0
    return data, ckpt


def _copy_identities(data, names, out):
    out.mkdir()
    for name in names:
        shutil.copytree(data / name, out / name)
    return out


def test_a_one_identity_copy_keeps_its_ground_truth_and_frame_ids(three_ids, tmp_path):
    data, _ = three_ids
    full = load_dataset(data)
    clip = load_dataset(_copy_identities(data, ["id02"], tmp_path / "clip"))
    assert list(clip.scene.identities) == [2]
    for fr in clip.by_name("id02").frames:
        assert clip.frame_id("id02", fr.index) == full.frame_id("id02", fr.index)
        assert np.array_equal(clip.gt_image("id02", fr.e, fr.index), fr.image)


def test_eval_of_a_two_identity_copy_scores_as_the_full_eval(three_ids, tmp_path, capsys):
    data, ckpt = three_ids
    part = _copy_identities(data, ["id00", "id02"], tmp_path / "part")
    matrices = []
    for d in (data, part):
        out = tmp_path / f"eval-{d.name}"
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(d),
                         "--out", str(out)]) == 0
        matrices.append(json.loads((out / "summary.json").read_text())["transfer_psnr"])
    full, sub = matrices
    assert sub == [[full[j][i] for i in (0, 2)] for j in (0, 2)]


def _rename_identity(data, old, new):
    """Move identity `old`'s directory and meta.json name to `new`; its meta.json path."""
    (data / old).rename(data / new)
    meta_path = data / new / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["name"] = new
    meta_path.write_text(json.dumps(meta))
    return meta_path


@pytest.mark.parametrize("name", ["id", "idx", "ID01", "id-1", "id+1", "id١", "face01"])
def test_a_name_that_is_not_id_and_a_decimal_index_exit_2(name, tiny_data, tiny_cfg_file,
                                                          tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    meta_path = _rename_identity(data, "id01", name)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--set", "train.steps=1", "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(meta_path), f"name {name!r}")
    assert not (tmp_path / "m.ckpt").exists()


def test_two_directories_with_one_scene_index_exit_2(tiny_data, tiny_cfg_file, tmp_path,
                                                     capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_data, data)
    shutil.copytree(data / "id01", data / "id01-copy")
    meta_path = _rename_identity(data, "id01-copy", "id1")
    capsys.readouterr()
    assert cli.main(["train", "--config", str(tiny_cfg_file), "--data", str(data),
                     "--set", "train.steps=1", "--out", str(tmp_path / "m.ckpt")]) == 2
    _one_line_error(capsys, str(meta_path), str(data / "id01" / "meta.json"), "scene index 1")
    assert not (tmp_path / "m.ckpt").exists()


def test_an_index_past_the_frame_word_exit_2(tiny_data, tiny_ckpt, tmp_path, capsys):
    # id{25 digits} * GT_FRAME_STRIDE does not fit the 64-bit frame word of the pixel streams
    name = "id" + "9" * 25
    clip = _copy_identities(tiny_data, ["id01"], tmp_path / "clip")
    _rename_identity(clip, "id01", name)
    capsys.readouterr()
    assert cli.main(["personalize", "--ckpt", str(tiny_ckpt), "--data", str(clip),
                     "--identity", name, "--steps", "1", "--out", str(tmp_path / "p.ckpt")]) == 2
    _one_line_error(capsys, str(clip / name / "meta.json"), "frame word")
    assert not (tmp_path / "p.ckpt").exists()


def test_the_largest_index_that_fits_the_frame_word_loads(tiny_data, tiny_ckpt, tmp_path):
    # its last frame id is the largest that fits 64 bits; one index more does not fit
    n_frames = TINY["scene"]["n_frames"]
    top = (2**64 - n_frames) // GT_FRAME_STRIDE
    clip = _copy_identities(tiny_data, ["id01"], tmp_path / "clip")
    name = f"id{top}"
    _rename_identity(clip, "id01", name)
    assert load_dataset(clip).frame_id(name, n_frames - 1) < 2**64
    assert cli.main(["personalize", "--ckpt", str(tiny_ckpt), "--data", str(clip),
                     "--identity", name, "--steps", "1", "--out", str(tmp_path / "p.ckpt")]) == 0
    meta_path = _rename_identity(clip, name, f"id{top + 1}")
    with pytest.raises(ConfigError, match=re.escape(str(meta_path))):
        load_dataset(clip)


def test_train_on_gen_data_of_101_identities_equals_train(tiny_cfg_file, tmp_path, capsys):
    # load_dataset orders identities by scene index, so id100 follows id99, not id10
    small = ["--set", "scene.n_identities=101", "--set", "scene.n_frames=2",
             "--set", "scene.resolution=6", "--set", "scene.gt_samples=8"]
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--config", str(tiny_cfg_file), *small,
                     "--out", str(data)]) == 0
    assert [idn.index for idn in load_dataset(data).identities] == list(range(101))
    blobs = []
    for tag, extra in (("own", []), ("data", ["--data", str(data)])):
        ckpt = tmp_path / f"{tag}.ckpt"
        assert cli.main(["train", "--config", str(tiny_cfg_file), *small, *extra,
                         "--out", str(ckpt)]) == 0
        blobs.append(ckpt.read_bytes())
    assert blobs[0] == blobs[1]
