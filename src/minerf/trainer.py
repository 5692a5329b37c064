"""Joint optimization of field, conditioning module, identity and latent codes.

Every step renders a ray batch from one randomly chosen (identity, frame)
pair through renderer.render_rays on a recording tape, and applies Adam to
the field weights, the conditioning parameters, that video's identity code,
and that frame's latent code. loss() is the summed squared ray color error
of every pass (no fine pass when render.n_fine = 0) plus unsquared 2-norm
regularizers on the two codes touched this step. _train_step is that step,
the one that train and personalize (cond.* frozen, fresh plat.* latents)
both run; they differ only in the frame pairs, latent prefix, trainable
names, key, step and lr they pass it.

One binding serves training and rendering: model_fields builds the field
functions render_rays takes, from leaf Vars on a recording tape for training
and from the stored arrays for render_model_frame, where every autodiff op
returns a plain array and nothing is recorded.

model_shapes names the model's arrays and shapes (the variant's row in
conditioning, then field.param_shapes); init_arrays draws them under one rule.
With the codes (shapes from _CODE_DIMS) they live in a flat name -> float64
dict; each step binds the needed ones as tape leaves and passes the rest as
arrays. _layout is the one statement of the checkpoint payload, whose shapes
follow from the header's config and Adam-count names; the header adds only
the format tag, the step and a CRC32 over the rest of the header and the
payload. Both passes
composite through composite_rays_tape, the compositor as one tape node.
Fine-sample positions are stopped gradients (resampling reads coarse weights
as plain values), the standard estimator.
"""

from __future__ import annotations

import copy
import json
import zlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import autodiff as ad
from . import conditioning as cond_mod
from . import metrics as metrics_mod
from .autodiff import Tape
from .config import check_leaf, check_number, materialize
from .errors import (ConfigError, DimensionError, DivergenceError, NumericError,
                     UsageError)
from .field import FieldArch, forward_encoded, param_shapes, positional_encode
# composite_rays_tape stays bound here: perfbench traces it as trainer.composite_rays_tape
from .renderer import (composite_rays_tape, philox_key, render_image,  # noqa: F401
                       render_rays, step_rng)
from .synthscene import Dataset

CKPT_FORMAT = "minerf-ckpt-v3"


# ---------------------------------------------------------------------------
# optimizer pieces

def lr_schedule(step: int, total: int, lr0: float, lr1: float) -> float:
    """Exponential decay from lr0 at step 0 to lr1 at step == total."""
    if not 0 <= step <= max(total, 1):
        raise UsageError(f"step {step} outside [0, {total}]")
    if total == 0:
        return lr0
    return lr0 * (lr1 / lr0) ** (step / total)


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, beta1: float, beta2: float, eps: float):
    """One bias-corrected Adam update, in place on (param, m, v). t counts from 1."""
    if not (param.shape == grad.shape == m.shape == v.shape):
        raise ConfigError("adam_step shape mismatch")
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    param -= lr * mhat / (np.sqrt(vhat) + eps)


def _code_penalty(total, code_var, lam: float):
    if code_var is None or lam == 0.0:
        return total
    return total + ad.mul(ad.sqrt(ad.sum_(ad.square(code_var))), lam)


def loss(preds, gt_colors, l, i, lam_l: float, lam_i: float):
    """(total, resid): resid sums ||pred - gt||^2 over rays and over preds
    (one per render pass, coarse first); total adds lam_l ||l||_2 + lam_i ||i||_2.

    preds, l and i may be Vars or arrays (Vars out unless all are arrays);
    code norms are unsquared 2-norms as written.
    """
    gt = np.asarray(gt_colors, dtype=np.float64)
    resid = None
    for pred in preds:
        if pred.shape != gt.shape:
            raise DimensionError(f"ray count mismatch: {pred.shape} vs {gt.shape}")
        term = ad.sum_(ad.square(ad.sub(pred, gt)))
        resid = term if resid is None else resid + term
    total = _code_penalty(resid, l, lam_l)
    total = _code_penalty(total, i, lam_i)
    return total, resid


# ---------------------------------------------------------------------------
# training state / checkpoints

@dataclass
class TrainState:
    cfg: dict
    params: dict
    adam_m: dict = dc_field(default_factory=dict)
    adam_v: dict = dc_field(default_factory=dict)
    adam_t: dict = dc_field(default_factory=dict)
    step: int = 0

    def arch(self) -> FieldArch:
        """The field section of the config plus the widths the variant feeds the field."""
        c, f = self.cfg["conditioning"], self.cfg["field"]
        d_cond = cond_mod.variant_output_dim(c["variant"], c["d"], c["o"])
        d_lat = 0 if cond_mod.latent_inside(c["variant"]) else c["d_latent"]
        return FieldArch(**f, d_cond=d_cond, d_latent=d_lat)

    def copy(self) -> "TrainState":
        return copy.deepcopy(self)


def _group(params: dict, prefix: str) -> dict:
    """The entries named prefix.*, keyed by the rest of the name."""
    p = prefix + "."
    return {k[len(p):]: v for k, v in params.items() if k.startswith(p)}


_CODE_DIMS = {"identity": "d", "latent": "d_latent", "plat": "d_latent"}


def _code_shape(cfg: dict, name: str) -> tuple:
    """(d,) for identity.*, (d_latent,) for latent.* and plat.*; ConfigError otherwise."""
    dim = _CODE_DIMS.get(name.split(".")[0])
    if dim is None:
        raise ConfigError(f"{name!r} is neither a model array nor a code")
    return (cfg["conditioning"][dim],)


def _add_code(params: dict, cfg: dict, name: str, tag: str):
    """Unless params has code `name`, draw it: 0.01 x normals from the seed's stream `tag`."""
    if name not in params:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=cfg["seed"], spawn_key=(2, zlib.crc32(tag.encode())))))
        params[name] = 0.01 * rng.standard_normal(_code_shape(cfg, name))


def check_expression_dim(cfg: dict, dataset: Dataset):
    """ConfigError unless the model's conditioning.d is the dataset's expression dim."""
    d = cfg["conditioning"]["d"]
    if d != dataset.scene.modes.d:
        raise ConfigError(f"conditioning.d={d} must match the dataset expression dim "
                          f"{dataset.scene.modes.d}")


def model_shapes(cfg: dict) -> dict:
    """The model's cond.*, coarse.* and fine.* arrays for cfg, name -> shape, in draw order."""
    arch = TrainState(cfg=cfg, params={}).arch()
    groups = {"cond": cond_mod.param_shapes(**cfg["conditioning"]),
              "coarse": param_shapes(arch), "fine": param_shapes(arch)}
    return {f"{g}.{name}": shape for g, shapes in groups.items() for name, shape in shapes.items()}


def init_arrays(shapes: dict, rng: np.random.Generator) -> dict:
    """Per name, in order: zeros for a vector, else Xavier-uniform draws from rng
    with a = sqrt(6 / (shape[0] + prod(shape[1:])))."""
    out = {}
    for name, s in shapes.items():
        a = np.sqrt(6.0 / (s[0] + int(np.prod(s[1:]))))
        out[name] = np.zeros(s) if len(s) == 1 else rng.uniform(-a, a, size=s)
    return out


def model_params(cfg: dict, rng: np.random.Generator) -> dict:
    """Fresh model arrays for cfg, drawn from rng in model_shapes order."""
    return init_arrays(model_shapes(cfg), rng)


def _reset_adam(state: TrainState, names):
    """Fresh Adam state for each name: zero moments and a zero step count."""
    for name in names:
        state.adam_m[name] = np.zeros_like(state.params[name])
        state.adam_v[name] = np.zeros_like(state.params[name])
        state.adam_t[name] = 0


def init_state(cfg: dict, dataset: Dataset) -> TrainState:
    check_expression_dim(cfg, dataset)
    prng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=cfg["seed"], spawn_key=(3,))))
    state = TrainState(cfg=cfg, params=model_params(cfg, prng))
    for idn in dataset.identities:
        _add_code(state.params, cfg, f"identity.{idn.name}", f"i/{idn.name}")
        for fidx in idn.train_idx:
            _add_code(state.params, cfg, f"latent.{idn.name}.{fidx:04d}", f"l/{idn.name}/{fidx}")
    _reset_adam(state, state.params)
    return state


def _layout(shapes: dict) -> tuple[list, int]:
    """The checkpoint payload: ((kind, name, shape, offset) rows, size in bytes)
    for arrays of these shapes. Kinds param, m, v, each over the sorted names;
    each array is packed as little-endian float64 at its row's byte offset."""
    rows, size = [], 0
    for kind in ("param", "m", "v"):
        for n in sorted(shapes):
            rows.append((kind, n, tuple(shapes[n]), size))
            size += 8 * int(np.prod(shapes[n]))
    return rows, size


def _header_line(header: dict) -> bytes:
    """header as the checkpoint writes it: sorted-key JSON and a newline."""
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"


def _crc32(header: dict, payload: bytes) -> int:
    """zlib.crc32 of _header_line(header without crc32), then the payload."""
    rest = {k: v for k, v in header.items() if k != "crc32"}
    return zlib.crc32(payload, zlib.crc32(_header_line(rest)))


def save_checkpoint(path, state: TrainState):
    """One JSON header line {format, step, config, adam_t, crc32}, then the
    payload: _layout of the params' shapes. crc32 is _crc32 of both."""
    rows, _ = _layout({n: a.shape for n, a in state.params.items()})
    stores = {"param": state.params, "m": state.adam_m, "v": state.adam_v}
    payload = b"".join(np.ascontiguousarray(stores[kind][n], dtype="<f8").tobytes()
                       for kind, n, _, _ in rows)
    header = {"format": CKPT_FORMAT, "step": state.step, "config": state.cfg,
              "adam_t": state.adam_t}
    header["crc32"] = _crc32(header, payload)
    with open(path, "wb") as f:
        f.write(_header_line(header))
        f.write(payload)


def load_checkpoint(path) -> TrainState:
    """Read a checkpoint; ConfigError naming the file unless its header has
    exactly save_checkpoint's keys, its config is valid, its step, Adam counts
    and crc32 are JSON integers >= 0, the Adam counts' names (model_shapes's
    and codes) give a _layout of the payload's size, the header line is
    _header_line of what it parses to (so the CRC, taken over that
    serialization, sees every header byte), and _crc32 of header and payload
    is crc32. No array is read before all of that holds."""
    with open(path, "rb") as f:
        first = f.readline()
        payload = f.read()
    try:
        header = json.loads(first.decode("utf-8"))
        if not isinstance(header, dict) or header.get("format") != CKPT_FORMAT:
            raise ValueError(f"no {CKPT_FORMAT} format tag")
        keys = {"format", "step", "config", "adam_t", "crc32"}
        if header.keys() != keys:
            raise ValueError(f"header keys {sorted(header)}, not {sorted(keys)}")
        state = TrainState(cfg=materialize(header["config"]), params={}, step=header["step"],
                           adam_t=dict(header["adam_t"]))
        check_leaf("step", state.step, (), ">= 0", True)
        check_leaf("crc32", header["crc32"], (), ">= 0", True)
        for n, t in state.adam_t.items():
            check_leaf(f"adam_t {n!r}", t, (), ">= 0", True)
        shapes = model_shapes(state.cfg)
        shapes.update({n: _code_shape(state.cfg, n) for n in state.adam_t if n not in shapes})
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"not a readable checkpoint: {path} "
                          f"({type(exc).__name__}: {exc})") from None
    missing = shapes.keys() - state.adam_t.keys()
    if missing:
        raise ConfigError(f"checkpoint {path}: array {min(missing)!r} has no Adam count")
    rows, size = _layout(shapes)
    if len(payload) != size:
        raise ConfigError(f"checkpoint {path}: {len(payload)} payload bytes, "
                          f"its layout has {size}")
    if first != _header_line(header):
        raise ConfigError(f"checkpoint {path}: header line is not the sorted-key JSON "
                          f"it parses to")
    crc = _crc32(header, payload)
    if crc != header["crc32"]:
        raise ConfigError(f"checkpoint {path}: CRC32 {crc} of header and payload is not "
                          f"the header's {header['crc32']}")
    stores = {"param": state.params, "m": state.adam_m, "v": state.adam_v}
    for kind, n, shape, offset in rows:
        stores[kind][n] = np.frombuffer(payload, dtype="<f8", count=int(np.prod(shape)),
                                        offset=offset).reshape(shape).copy()
    return state


# ---------------------------------------------------------------------------
# differentiable rendering of a ray batch

def _sample_pixels(rng, box, H, W, n_in, n_out):
    """n_in pixels uniform in the box, n_out uniform outside (with replacement)."""
    r0, r1, c0, c1 = box
    rows = rng.integers(r0, r1, size=n_in)
    cols = rng.integers(c0, c1, size=n_in)
    full_box = (r1 - r0) * (c1 - c0) >= H * W
    if full_box:
        out_rows = rng.integers(0, H, size=n_out)
        out_cols = rng.integers(0, W, size=n_out)
    else:
        out_rows = np.empty(0, dtype=np.int64)
        out_cols = np.empty(0, dtype=np.int64)
        while out_rows.size < n_out:
            rr = rng.integers(0, H, size=4 * (n_out - out_rows.size))
            cc = rng.integers(0, W, size=rr.size)
            keep = ~((rr >= r0) & (rr < r1) & (cc >= c0) & (cc < c1))
            out_rows = np.concatenate([out_rows, rr[keep]])[:n_out]
            out_cols = np.concatenate([out_cols, cc[keep]])[:n_out]
    return (np.concatenate([rows, out_rows]).astype(np.int64),
            np.concatenate([cols, out_cols]).astype(np.int64))


def model_fields(state: TrainState, params: dict, e, code, latent):
    """(coarse_fn, fine_fn) for render_rays: the model under expression e.

    params, code and latent are arrays or Vars of one tape. The conditioning
    vector is computed once, the latent feeds the module or the field per
    latent_inside, and each ray's direction is encoded once for all its samples.
    """
    arch = state.arch()
    variant = state.cfg["conditioning"]["variant"]
    inside = cond_mod.latent_inside(variant)
    cond = cond_mod.variant_forward(variant, _group(params, "cond"), e, code,
                                    l=latent if inside else None)
    lat_field = None if inside else latent

    def field_fn(prefix):
        w = _group(params, prefix)

        def fn(X, dirs):
            enc_v = np.repeat(positional_encode(dirs, arch.Lv), X.shape[0] // len(dirs), axis=0)
            return forward_encoded(arch, w, cond, lat_field,
                                   positional_encode(X, arch.Lx), enc_v)
        return fn
    return field_fn("coarse"), field_fn("fine")


def _batch_loss(state: TrainState, ds: Dataset, frame, bound: dict, id_name: str,
                lat_name: str, key, step: int, frame_id: int, rows, cols):
    """Build the photoconsistency loss Var of every render pass for one ray batch.

    bound maps parameter names to leaf Vars of one tape; every other name is
    read from state.params as an array. render_rays draws from the pixel
    streams (key, step, frame_id, pixel); fine-sample placement is a stopped
    gradient, so the gradient is that of the loss on fixed sample positions.
    Returns (total, color residual).
    """
    rc, tr = state.cfg["render"], state.cfg["train"]
    params = {k: bound.get(k, v) for k, v in state.params.items()}
    i_var, l_var = params[id_name], params[lat_name]
    coarse_fn, fine_fn = model_fields(state, params, frame.e, i_var, l_var)
    passes = render_rays(frame.pose, rows, cols, key=key, step=step, frame=frame_id,
                         t_near=ds.t_near, t_far=ds.t_far, n_coarse=rc["n_coarse"],
                         n_fine=rc["n_fine"], coarse_fn=coarse_fn, fine_fn=fine_fn,
                         background=ds.scene.background)
    return loss([c for c, _, _ in passes], frame.image[rows, cols], l_var, i_var,
                tr["lambda_latent"], tr["lambda_identity"])


def _train_step(state: TrainState, dataset: Dataset, pairs: list, lat_prefix: str,
                trainable: list, key, step: int, lr: float) -> tuple[float, str, str]:
    """One Adam step; returns (color loss, identity code name, latent name).

    step_rng(key, step) draws the (identity name, frame) pair from pairs, then
    the pixels. `trainable`, the identity code and the frame's latent
    (lat_prefix.name.frame) are bound as tape leaves and updated in place in
    state; cond.* names outside `trainable` enter as arrays.
    """
    tr = state.cfg["train"]
    rng = step_rng(key, step)
    name, fidx = pairs[rng.integers(len(pairs))]
    frame = dataset.by_name(name).frames[fidx]
    H, W = frame.pose.height, frame.pose.width

    n_rays = tr["rays_per_step"]
    n_in = int(round(tr["in_box_fraction"] * n_rays))
    rows, cols = _sample_pixels(rng, frame.box, H, W, n_in, n_rays - n_in)

    tape = Tape()
    id_name, lat_name = f"identity.{name}", f"{lat_prefix}.{name}.{fidx:04d}"
    bound = {n: ad.leaf(tape, state.params[n]) for n in trainable + [id_name, lat_name]}
    # step + 1: the step-0 pixel stream is the ground-truth render stream
    total, resid = _batch_loss(state, dataset, frame, bound, id_name, lat_name, key,
                               step + 1, dataset.frame_id(name, fidx), rows, cols)
    loss_c = float(resid.value)
    if not np.isfinite(float(total.value)):
        raise NumericError(
            f"non-finite loss at step {step}: loss_c={loss_c}, identity={name}, "
            f"frame={fidx}")

    grads = ad.grad(tape, total, list(bound.values()))
    for n, g in zip(bound, grads):
        state.adam_t[n] += 1
        adam_step(state.params[n], g, state.adam_m[n], state.adam_v[n],
                  state.adam_t[n], lr, tr["beta1"], tr["beta2"], tr["eps"])
    return loss_c, id_name, lat_name


def train(dataset: Dataset, cfg: dict, state: TrainState | None = None,
          log_fn=None) -> tuple[TrainState, list]:
    """Run cfg['train']['steps'] optimization steps; returns (state, metric rows).

    Rows carry step, loss_c, loss_l, loss_i, lr, test_psnr (blank between
    evals). Raises DivergenceError when loss_c exceeds divergence_factor times
    its step-100 value; ConfigError before step one if an eval will run and
    metrics.check_ssim_window refuses. A given state continues from its step:
    the lr schedule, the guard's window and the final eval count from there,
    while the pixel and step streams stay keyed on the absolute state.step.
    """
    if not dataset.identities or not any(idn.train_idx for idn in dataset.identities):
        raise ConfigError("empty dataset")
    if state is None:
        state = init_state(cfg, dataset)
    tr = cfg["train"]
    if tr["eval_every"] and tr["steps"]:
        metrics_mod.check_ssim_window(state.cfg["eval"]["ssim_window"], dataset,
                                      tr["eval_frames"])
    key = philox_key(cfg["seed"])
    rows = []
    # Divergence guard: the per-frame loss is noisy (frames differ in
    # difficulty), so both the step-100 baseline and the current level are
    # medians over a small window rather than single samples.
    guard = None
    baseline_window: list = []
    recent: list = []
    pairs = [(idn.name, f) for idn in dataset.identities for f in idn.train_idx]
    trainable = ([k for k in state.params if k.startswith("cond.")]
                 + [k for k in state.params if k.startswith(("coarse.", "fine."))])
    for s in range(tr["steps"]):
        lr = lr_schedule(s, tr["steps"], tr["lr0"], tr["lr1"])
        loss_c, id_name, lat_name = _train_step(state, dataset, pairs, "latent", trainable,
                                                key, state.step, lr)
        l_norm = float(np.linalg.norm(state.params[lat_name]))
        i_norm = float(np.linalg.norm(state.params[id_name]))
        recent.append(loss_c)
        del recent[:-5]
        if 90 <= s < 110:
            baseline_window.append(loss_c)
            if s == 109:
                guard = float(np.median(baseline_window))
        if guard is not None and float(np.median(recent)) > tr["divergence_factor"] * guard:
            raise DivergenceError(
                f"median loss_c {np.median(recent):.4g} exceeded "
                f"{tr['divergence_factor']}x the step-100 level {guard:.4g} "
                f"at step {state.step}",
                diagnostics={"step": state.step, "loss_c": loss_c,
                             "baseline": guard, "lr": lr})
        state.step += 1
        test_psnr = ""
        if tr["eval_every"] and (state.step % tr["eval_every"] == 0
                                 or s + 1 == tr["steps"]):
            test_psnr = metrics_mod.evaluate_images(
                state, dataset, max_frames=tr["eval_frames"])["mean_psnr"]
        row = {"step": state.step, "loss_c": loss_c, "loss_l": l_norm,
               "loss_i": i_norm, "lr": lr, "test_psnr": test_psnr}
        rows.append(row)
        if log_fn:
            log_fn(row)
    return state, rows


# ---------------------------------------------------------------------------
# model rendering / evaluation / personalization

def render_model_frame(state: TrainState, dataset: Dataset, identity_name: str,
                       e: np.ndarray, pose, *, frame_id: int,
                       return_depth: bool = False) -> np.ndarray:
    """Render one frame from the trained model (fine pass over coarse proposals)
    under the zero latent code."""
    code = state.params.get(f"identity.{identity_name}")
    if code is None:
        raise UsageError(f"identity {identity_name!r} not in checkpoint")
    lat = np.zeros(state.cfg["conditioning"]["d_latent"])
    coarse_fn, fine_fn = model_fields(state, state.params, e, code, lat)
    rc = state.cfg["render"]
    return render_image(coarse_fn, pose, t_near=dataset.t_near, t_far=dataset.t_far,
                        n_coarse=rc["n_coarse"], n_fine=rc["n_fine"], fine_field_fn=fine_fn,
                        background=dataset.scene.background, seed=state.cfg["seed"],
                        frame_index=frame_id, return_depth=return_depth)


def personalize(state: TrainState, clip: Dataset, identity_name: str, steps: int,
                lr: float = 1e-5) -> TrainState:
    """Fine-tune for one identity with the conditioning module frozen.

    Seen identities reuse their code; an unseen identity gets a fresh code.
    Field weights, the target identity code, and fresh per-frame latents for
    the clip update with fresh Adam state; every other identity's code and
    every other frame's latent are untouched, and cond.* stays bit-identical.
    """
    steps = check_number("personalize steps", steps, ">= 0", integer=True)
    check_number("personalize lr", lr, "> 0")
    check_expression_dim(state.cfg, clip)
    clip_idn = clip.by_name(identity_name)
    if not clip_idn.train_idx:
        raise UsageError("personalization clip has no training frames")
    out = state.copy()
    id_key = f"identity.{identity_name}"
    _add_code(out.params, out.cfg, id_key, f"p/{identity_name}")
    lat_keys = [f"plat.{identity_name}.{fidx:04d}" for fidx in clip_idn.train_idx]
    for fidx, k in zip(clip_idn.train_idx, lat_keys):
        _add_code(out.params, out.cfg, k, f"pl/{identity_name}/{fidx}")
    field_names = [k for k in out.params if k.startswith(("coarse.", "fine."))]
    _reset_adam(out, field_names + [id_key] + lat_keys)

    key = philox_key(out.cfg["seed"] ^ 0x5045)
    pairs = [(identity_name, f) for f in clip_idn.train_idx]
    for step in range(steps):
        _train_step(out, clip, pairs, "plat", field_names, key, step, lr)
    return out
