import dataclasses
import gc
import hashlib
import json
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from minerf import conditioning as cond_mod
from minerf import config as cfg_mod
from minerf import synthscene as sc
from minerf import trainer as tr
from minerf.errors import ConfigError, DivergenceError, NumericError, UsageError
from minerf.renderer import philox_key, step_rng

TINY_SETS = [
    "scene.n_frames=8", "scene.resolution=12", "scene.gt_samples=48",
    "render.n_coarse=6", "render.n_fine=6",
    "field.hidden=24", "field.Lx=3", "field.Lv=1", "field.color_hidden=12",
    "field.layers=3", "field.color_layers=1",
    "train.rays_per_step=24", "train.steps=6", "train.eval_every=0",
]


def tiny_config(*extra):
    return cfg_mod.load_config(sets=TINY_SETS + list(extra))


@pytest.fixture(scope="module")
def tiny_ds():
    return sc.dataset_from_config(tiny_config())


@pytest.fixture(scope="module")
def unseen_clip():
    """id02 of the three-identity tiny scene: an identity tiny_ds does not hold."""
    full = sc.dataset_from_config(tiny_config("scene.n_identities=3"))
    return dataclasses.replace(full, identities=full.identities[2:])


def test_loss_examples():
    assert float(tr.loss([np.zeros((3, 3))], np.zeros((3, 3)), np.zeros(2),
                         np.zeros(2), 0.01, 1e-4)[0]) == 0.0
    pred = np.array([[0.1, 0.0, 0.0]])
    assert float(tr.loss([pred], np.zeros((1, 3)), None, None, 0.0, 0.0)[0]) \
        == pytest.approx(0.01)
    l = np.array([3.0, 4.0])
    got, _ = tr.loss([np.zeros((1, 3))], np.zeros((1, 3)), l, np.zeros(2), 0.01, 0.0)
    assert float(got) == pytest.approx(0.05)


def test_loss_sums_passes_and_returns_color_residual():
    coarse, fine = np.array([[0.1, 0.0, 0.0]]), np.array([[0.0, 0.2, 0.0]])
    total, resid = tr.loss([coarse, fine], np.zeros((1, 3)), np.array([3.0, 4.0]), None,
                           0.01, 0.0)
    assert float(resid) == pytest.approx(0.05)
    assert float(total) == pytest.approx(0.1)


def test_adam_zero_grad_is_noop():
    p = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    tr.adam_step(p, np.zeros(2), m, v, t=1, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    assert np.array_equal(p, [1.0, -2.0])


def test_adam_first_step_closed_form():
    for g0 in (0.5, -3.0, 1e-6):
        p = np.zeros(1)
        m, v = np.zeros(1), np.zeros(1)
        tr.adam_step(p, np.array([g0]), m, v, t=1, lr=0.01,
                      beta1=0.9, beta2=0.999, eps=1e-8)
        # bias-corrected first step: lr * g / (|g| + eps)
        want = -0.01 * g0 / (abs(g0) + 1e-8)
        assert p[0] == pytest.approx(want, rel=1e-12)
        if abs(g0) > 1e-3:
            assert p[0] == pytest.approx(-0.01 * np.sign(g0), rel=1e-4)


def test_adam_converges_on_quadratic():
    p = np.zeros(1)
    m, v = np.zeros(1), np.zeros(1)
    for t in range(1, 101):
        g = 2.0 * (p - 2.0)
        tr.adam_step(p, g, m, v, t=t, lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
    assert abs(p[0] - 2.0) < 0.1


def test_lr_schedule():
    assert tr.lr_schedule(0, 100, 5e-4, 5e-5) == 5e-4
    assert tr.lr_schedule(100, 100, 5e-4, 5e-5) == pytest.approx(5e-5)
    mid = tr.lr_schedule(50, 100, 5e-4, 5e-5)
    assert mid == pytest.approx(np.sqrt(5e-4 * 5e-5), rel=1e-12)
    assert mid == pytest.approx(1.5811e-4, rel=1e-3)
    with pytest.raises(UsageError):
        tr.lr_schedule(101, 100, 5e-4, 5e-5)


def test_train_continues_a_trained_state(tiny_ds):
    cfg = tiny_config("train.steps=2", "train.eval_every=1000")
    state, first = tr.train(tiny_ds, cfg)
    more, rows = tr.train(tiny_ds, cfg, state.copy())
    assert more.step == 4 and [r["step"] for r in rows] == [3, 4]
    # the schedule restarts, and the final eval is this call's last step
    assert [r["lr"] for r in rows] == [r["lr"] for r in first]
    assert [r["test_psnr"] == "" for r in rows] == [True, False]


def test_divergence_guard_counts_from_the_call_start(tiny_ds):
    cfg = tiny_config("train.steps=130", "train.divergence_factor=1e-12",
                      "train.rays_per_step=8")
    state = tr.init_state(cfg, tiny_ds)
    state.step = 1000
    with pytest.raises(DivergenceError) as exc:
        tr.train(tiny_ds, cfg, state)
    assert exc.value.diagnostics["step"] >= 1109


# sha256 over (name, shape, bytes) of model_params(cfg, default_rng(0)) at toy
# defaults and at field.layers=8 (LatentInM at conditioning.k=8): fresh models,
# and so every checkpoint, move if a name, shape, draw order or the init rule does
MODEL_PARAMS_SHA256 = {
    "Baseline": ("f906d8c54e390be2a87b863d16ef7c591166d6584537af4b892e0992eba89d68",
                 "2404d8f55f3ae92fc56602dc84d732547a7ea82657db4d633c3e4af440064360"),
    "A1": ("1474e2ad4aa1d431860e75317483d45f546b2cd0d47490f09c1376ad38ac79bd",
           "f6519ea44f1acfe96058da5c311cb216b94a6c4a90afa28ed761bd9225b646d5"),
    "A2": ("1474e2ad4aa1d431860e75317483d45f546b2cd0d47490f09c1376ad38ac79bd",
           "f6519ea44f1acfe96058da5c311cb216b94a6c4a90afa28ed761bd9225b646d5"),
    "A3": ("3f2f07e746547a234f089b2820e8ff867f8dbe6d0699572d8e08df88c11b1f11",
           "a7568909da52aebda9f525c7c2a9333852e1989ee5bcf13f45b4d3c46158d81a"),
    "A4": ("3f2f07e746547a234f089b2820e8ff867f8dbe6d0699572d8e08df88c11b1f11",
           "a7568909da52aebda9f525c7c2a9333852e1989ee5bcf13f45b4d3c46158d81a"),
    "A5": ("1474e2ad4aa1d431860e75317483d45f546b2cd0d47490f09c1376ad38ac79bd",
           "f6519ea44f1acfe96058da5c311cb216b94a6c4a90afa28ed761bd9225b646d5"),
    "A6": ("2dacbfb3113b5b9dbb82b492cc1150355d803b4763f1669ee42d9fc047fe5bf1",
           "93c89bef025dc01a0263338471f42f2bf3c357866989aa2efeb5daad33933273"),
    "A7": ("989e5d3a8cd2b91babc3fd153a1e7e2bcb35c6bea7aaa62c31dd511ae5bb9c1c",
           "c16744a7af342165d98f8e1e5ec240985da21dea0d1ea49ca5e81097d14f9df6"),
    "M": ("45c6e0a55b80a696a61e8089b084e3de8dae9d58ec44a8177ae0208a0c08da46",
          "ceea218e5f9e94fd4596ffe56ef4d3a80c252e70026e835caa8469b8e488bdb9"),
    "H": ("de683c899035efac6effa8aaa5e7e0a227ec4ee6ad67f4a354c5b5158266ad5a",
          "78bad9cef8a3ba1393306cbfd3810baa5b0d32df6342f030ff34967235286985"),
    "HigherOut_o256": ("45c6e0a55b80a696a61e8089b084e3de8dae9d58ec44a8177ae0208a0c08da46",
                       "ceea218e5f9e94fd4596ffe56ef4d3a80c252e70026e835caa8469b8e488bdb9"),
    "LearnableConcat": ("115c9352e0c8bfddbafc584ca490ca3765c25e5e15fa0e14114c9d33508ccf0e",
                        "8d4997978e5a6bf0d39ef16b1b67273d471549088e84dd0f5d49c95f87c8a06b"),
    "LatentInM": ("7a8d84a5504834e770365fa47dc92ada9e5e1ef424f1cf554af7abccc4c3e588",
                  "d92bd06c38b054feab645aa84ac70f37aacdaedb589db15518f45d6d8debc02f"),
}


@pytest.mark.parametrize("variant", cond_mod.VARIANTS)
def test_model_params_bytes_are_pinned(variant):
    for sets, want in zip(([], ["field.layers=8"]), MODEL_PARAMS_SHA256[variant]):
        k = ["conditioning.k=8"] if variant == "LatentInM" else []
        cfg = cfg_mod.load_config(sets=[f"conditioning.variant={variant}"] + k + sets, env={})
        h = hashlib.sha256()
        for name, arr in tr.model_params(cfg, np.random.default_rng(0)).items():
            h.update(name.encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        assert h.hexdigest() == want, sets


@pytest.mark.parametrize("variant", cond_mod.VARIANTS)
def test_checkpoint_roundtrip_bitexact(variant, tiny_ds, tmp_path):
    k = ["conditioning.k=8"] if variant == "LatentInM" else []
    cfg = tiny_config(f"conditioning.variant={variant}", *k)
    state = tr.init_state(cfg, tiny_ds)
    state.step = 17
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    tr.save_checkpoint(p1, state)
    back = tr.load_checkpoint(p1)
    assert back.step == 17
    assert back.cfg == state.cfg
    assert sorted(back.params) == sorted(state.params)
    for k in state.params:
        assert np.array_equal(back.params[k], state.params[k])
        assert np.array_equal(back.adam_m[k], state.adam_m[k])
    tr.save_checkpoint(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_steps_returns_initialization(tiny_ds):
    cfg = tiny_config("train.steps=0")
    init = tr.init_state(cfg, tiny_ds)
    state, rows = tr.train(tiny_ds, cfg)
    assert rows == []
    assert sorted(state.params) == sorted(init.params)
    for k in state.params:
        assert np.array_equal(state.params[k], init.params[k])


def test_training_deterministic_bitexact(tiny_ds, tmp_path):
    cfg = tiny_config("train.steps=8")
    blobs = []
    for tag in ("a", "b"):
        state, _ = tr.train(tiny_ds, cfg)
        path = tmp_path / f"{tag}.ckpt"
        tr.save_checkpoint(path, state)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_update_locality(tiny_ds):
    cfg = tiny_config("train.steps=1")
    init = tr.init_state(cfg, tiny_ds)
    before = {k: v.copy() for k, v in init.params.items()}
    state, _ = tr.train(tiny_ds, cfg, state=init)
    # exactly one identity code and one latent moved
    changed_codes = [k for k in before if k.startswith("identity.")
                     and not np.array_equal(before[k], state.params[k])]
    changed_lat = [k for k in before if k.startswith("latent.")
                   and not np.array_equal(before[k], state.params[k])]
    assert len(changed_codes) == 1
    assert len(changed_lat) == 1


def test_no_fine_pass_leaves_fine_network_untouched(tiny_ds):
    cfg = tiny_config("train.steps=1", "render.n_fine=0")
    init = tr.init_state(cfg, tiny_ds)
    before = init.copy()
    state, _ = tr.train(tiny_ds, cfg, state=init)
    fine = [k for k in before.params if k.startswith("fine.")]
    assert fine
    for store in ("params", "adam_m", "adam_v"):
        for k in fine:
            assert np.array_equal(getattr(state, store)[k], getattr(before, store)[k]), k
    assert not np.array_equal(state.params["coarse.W0"], before.params["coarse.W0"])


def test_loss_decreases(tiny_ds):
    cfg = tiny_config("train.steps=60", "train.rays_per_step=48")
    state, rows = tr.train(tiny_ds, cfg)
    first = np.median([r["loss_c"] for r in rows[:15]])
    last = np.median([r["loss_c"] for r in rows[-15:]])
    assert last < first


def test_toy_training_tape_size(monkeypatch):
    # the toy model and sample counts on a small scene: the tape's node count
    # depends on the architecture, the variant and the passes, not on the rays
    cfg = cfg_mod.load_config(sets=["scene.n_frames=2", "scene.resolution=12",
                                    "scene.gt_samples=32", "train.rays_per_step=24",
                                    "train.steps=1", "train.eval_every=0"])
    tapes = []
    grad = tr.ad.grad

    def recording_grad(tape, *args):
        tapes.append(Counter(node.op for node in tape.nodes))
        return grad(tape, *args)

    monkeypatch.setattr(tr.ad, "grad", recording_grad)
    tr.train(sc.dataset_from_config(cfg), cfg)
    (ops,) = tapes
    assert sum(ops.values()) == 88
    assert ops["linear"] == 16 and ops["matmul"] == 5 and ops["relu"] == 0
    assert ops["slice"] == 2 and ops["add"] == 7  # no weight matrix is sliced on the tape
    assert ops["const"] == 0  # arrays enter ops as parent -1, never as nodes
    assert ops["reshape"] == 0 and ops["matvec"] == 0


def test_training_tapes_die_with_their_step(tiny_ds, monkeypatch):
    # with the cycle collector off, a tape kept alive by a reference cycle
    # (tape -> node -> VJP closure -> Var -> tape) would outlive its step
    tapes = []
    grad = tr.ad.grad

    def recording_grad(tape, *args):
        tapes.append(weakref.ref(tape))
        return grad(tape, *args)

    monkeypatch.setattr(tr.ad, "grad", recording_grad)
    gc.collect()
    gc.disable()
    try:
        tr.train(tiny_ds, tiny_config("train.steps=3"))
        alive = sum(ref() is not None for ref in tapes)
    finally:
        gc.enable()
    assert len(tapes) == 3 and alive == 0


def test_nonfinite_loss_aborts(tiny_ds):
    cfg = tiny_config("train.steps=1")
    state = tr.init_state(cfg, tiny_ds)
    state.params["coarse.W0"][0, 0] = np.nan
    with pytest.raises(NumericError):
        tr.train(tiny_ds, cfg, state=state)


def test_divergence_guard_fires(tiny_ds):
    cfg = tiny_config("train.steps=130", "train.divergence_factor=1e-12",
                      "train.rays_per_step=8")
    with pytest.raises(DivergenceError) as exc:
        tr.train(tiny_ds, cfg)
    assert exc.value.diagnostics["step"] >= 109


def test_personalize_freeze_and_locality(tiny_ds, unseen_clip):
    cfg = tiny_config("train.steps=4")
    state, _ = tr.train(tiny_ds, cfg)

    noop = tr.personalize(state, unseen_clip, "id02", steps=0)
    for k in state.params:
        if not k.startswith("plat."):
            assert np.array_equal(noop.params[k], state.params[k]), k

    out = tr.personalize(state, unseen_clip, "id02", steps=3, lr=1e-3)
    for k in state.params:
        if k.startswith("cond."):
            assert out.params[k].tobytes() == state.params[k].tobytes()
    for k in state.params:
        if k.startswith(("identity.", "latent.")):
            assert np.array_equal(out.params[k], state.params[k]), k
    assert "identity.id02" in out.params
    assert not np.array_equal(out.params["coarse.W0"], state.params["coarse.W0"])


def test_frame_picks_follow_the_step_streams(tiny_ds, unseen_clip, monkeypatch):
    # the (identity, frame) and pixel-stream frame id each step trains on, against
    # the rule written out here; no training value enters the picks
    seen = []
    real = tr._batch_loss

    def recording(state, ds, frame, bound, id_name, lat_name, key, step, frame_id, *rest):
        seen.append((id_name, frame.index, frame_id))
        return real(state, ds, frame, bound, id_name, lat_name, key, step, frame_id, *rest)

    monkeypatch.setattr(tr, "_batch_loss", recording)
    cfg = tiny_config("train.steps=6")
    state, _ = tr.train(tiny_ds, cfg)
    pairs = [(k, f) for k, idn in enumerate(tiny_ds.identities) for f in idn.train_idx]
    key = philox_key(cfg["seed"])
    want = [pairs[step_rng(key, s).integers(len(pairs))] for s in range(6)]
    assert seen == [(f"identity.id{k:02d}", f, k * sc.GT_FRAME_STRIDE + f) for k, f in want]
    assert len({k for k, _ in want}) == 2

    seen.clear()
    train_idx = tiny_ds.by_name("id01").train_idx
    tr.personalize(state, tiny_ds, "id01", steps=4, lr=1e-3)
    key = philox_key(cfg["seed"] ^ 0x5045)
    want = [train_idx[step_rng(key, s).integers(len(train_idx))] for s in range(4)]
    assert seen == [("identity.id01", f, sc.GT_FRAME_STRIDE + f) for f in want]

    # a clip of one identity keeps its scene index, hence its pixel streams
    seen.clear()
    train_idx = unseen_clip.by_name("id02").train_idx
    tr.personalize(state, unseen_clip, "id02", steps=4, lr=1e-3)
    want = [train_idx[step_rng(key, s).integers(len(train_idx))] for s in range(4)]
    assert seen == [("identity.id02", f, 2 * sc.GT_FRAME_STRIDE + f) for f in want]


def test_personalize_writes_adam_state(tiny_ds, unseen_clip):
    cfg = tiny_config("train.steps=2")
    state, _ = tr.train(tiny_ds, cfg)
    n = 3
    out = tr.personalize(state, unseen_clip, "id02", steps=n, lr=1e-3)
    for k in out.params:
        if k.startswith(("coarse.", "fine.")) or k == "identity.id02":
            assert out.adam_t[k] == n, k
        if k.startswith("cond."):
            assert out.adam_t[k] == state.adam_t[k]
            assert out.adam_m[k].tobytes() == state.adam_m[k].tobytes()
            assert out.adam_v[k].tobytes() == state.adam_v[k].tobytes()
    assert sum(t for k, t in out.adam_t.items() if k.startswith("plat.")) == n


def _split_ckpt(path):
    head, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(head), payload


def _join_ckpt(header, payload):
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def _drop_key(path, key):
    header, payload = _split_ckpt(path)
    del header[key]
    return _join_ckpt(header, payload)


def _edit_header(edit):
    """A corruption that applies edit(header) and keeps the payload."""
    def corrupt(path):
        header, payload = _split_ckpt(path)
        edit(header)
        return _join_ckpt(header, payload)
    return corrupt


def _unknown(header):
    header["adam_t"]["junk.X"] = 0


CORRUPTIONS = {
    "truncated": lambda p: p.read_bytes()[:p.read_bytes().index(b"\n") + 101],
    "garbage": lambda p: bytes(range(256)) * 4,
    "bad_utf8": lambda p: b"\xff\xfe{}\n" + _split_ckpt(p)[1],
    "not_json": lambda p: b"{oops\n" + _split_ckpt(p)[1],
    "wrong_format": lambda p: p.read_bytes().replace(b"minerf-ckpt-v3", b"minerf-ckpt-v0", 1),
    # there is no v1 or v2 reader: such a file exits on its tag
    "v1_format": lambda p: p.read_bytes().replace(b"minerf-ckpt-v3", b"minerf-ckpt-v1", 1),
    "v2_format": lambda p: p.read_bytes().replace(b"minerf-ckpt-v3", b"minerf-ckpt-v2", 1),
    "unknown_name": _edit_header(_unknown),
    "trailing_payload_bytes": lambda p: p.read_bytes() + bytes(8),
    "string_step": _edit_header(lambda h: h.update(step="7")),
    "negative_step": _edit_header(lambda h: h.update(step=-5)),
    "negative_adam_count": _edit_header(lambda h: h["adam_t"].update({"cond.W2": -3})),
    "missing_adam_count": _edit_header(lambda h: h["adam_t"].pop("cond.W2")),
    # each would load and re-save to other bytes: the key dropped, 7.0 written as 7
    "unknown_header_key": _edit_header(lambda h: h.update(foo=1)),
    "stray_entries_key": _edit_header(lambda h: h.update(entries=[])),
    "stray_identities_key": _edit_header(lambda h: h.update(identities=["id00", "id01"])),
    "float_step": _edit_header(lambda h: h.update(step=7.0)),
    "float_adam_count": _edit_header(lambda h: h["adam_t"].update({"cond.W2": 0.0})),
    "missing_crc32": lambda p: _drop_key(p, "crc32"),
    "float_crc32": _edit_header(lambda h: h.update(crc32=float(h["crc32"]))),
    "crc32_off_by_one": _edit_header(lambda h: h.update(crc32=h["crc32"] ^ 1)),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_load_checkpoint_rejects_corruption(case, tiny_ds, tmp_path):
    path = tmp_path / "a.ckpt"
    tr.save_checkpoint(path, tr.init_state(tiny_config(), tiny_ds))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPTIONS[case](path))
    with pytest.raises(ConfigError, match=re.escape(str(bad))):
        tr.load_checkpoint(bad)


def test_trained_checkpoint_resaves_to_its_own_bytes(tiny_ds, unseen_clip, tmp_path):
    # a step, Adam counts above zero and personalization codes all survive the round
    # trip, the fresh identity.* and plat.* codes of an unseen identity among them
    state, _ = tr.train(tiny_ds, tiny_config("train.steps=2"))
    state = tr.personalize(state, tiny_ds, "id01", steps=1, lr=1e-3)
    state = tr.personalize(state, unseen_clip, "id02", steps=1, lr=1e-3)
    assert "identity.id02" in state.params and "plat.id02.0000" in state.params
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tr.save_checkpoint(a, state)
    tr.save_checkpoint(b, tr.load_checkpoint(a))
    assert a.read_bytes() == b.read_bytes()
    assert tr.load_checkpoint(b).step == 2


def test_every_payload_byte_flip_is_refused(tmp_path):
    # the smallest model: 1 identity, every width 1 or 2, so every byte is a fast load
    cfg = cfg_mod.load_config(sets=[
        "scene.n_identities=1", "scene.n_frames=2", "scene.resolution=4",
        "scene.gt_samples=4", "conditioning.d=1", "conditioning.k=1",
        "conditioning.o=1", "conditioning.d_latent=1", "field.layers=1", "field.hidden=2",
        "field.Lx=0", "field.Lv=0", "field.color_layers=0"])
    ds = sc.dataset_from_config(cfg, render_images=False)
    path = tmp_path / "a.ckpt"
    tr.save_checkpoint(path, tr.init_state(cfg, ds))
    blob = path.read_bytes()
    start = blob.index(b"\n") + 1
    assert 500 < start < 2000 and 500 < len(blob) - start < 2000
    bad = tmp_path / "bad.ckpt"

    def refused(edited, message):
        bad.write_bytes(edited)
        with pytest.raises(ConfigError, match=re.escape(message)):
            tr.load_checkpoint(bad)

    for pos in range(start, len(blob)):
        refused(blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:], f"{bad}: CRC32")
    # every header byte, by flips that keep it ASCII ("seed": 0 -> "seed": 1 among them)
    assert b'"seed": 0' in blob[:start]
    for pos in range(start):
        refused(blob[:pos] + bytes([blob[pos] ^ 0x01]) + blob[pos + 1:], str(bad))
    # a spelling that parses to the same header
    assert blob.count(b"1e-08") == 1
    refused(blob.replace(b"1e-08", b"1E-08"), f"{bad}: header line")


def test_personalize_needs_frames(tiny_ds):
    cfg = tiny_config("train.steps=0")
    state, _ = tr.train(tiny_ds, cfg)
    with pytest.raises(UsageError):
        tr.personalize(state, tiny_ds, "nobody", steps=1)
