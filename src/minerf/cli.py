"""Command-line entry point.

Exit codes: 0 ok, 2 config/usage error, unreadable path or out of memory,
3 numeric divergence, 4 verification failure. All subcommands are
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import metrics, ppm, trainer, verify
from .config import load_config
from .errors import ConfigError, DivergenceError, NumericError, UsageError
from .synthscene import dataset_from_config, dataset_checksum, load_dataset, save_dataset


def _parse_frames(expr, n_frames):
    """--frames as indices: every frame, an a:b range or a comma list, all in [0, n_frames)."""
    if expr is None:
        return list(range(n_frames))
    try:
        if ":" in expr:
            a, b = expr.split(":", 1)
            frames = list(range(int(a or 0), int(b or n_frames)))
        else:
            frames = [int(x) for x in expr.split(",")]
    except ValueError:
        frames = []
    if not frames or min(frames) < 0 or max(frames) >= n_frames:
        raise UsageError(f"--frames {expr!r}: want a:b with a < b or a comma list, "
                         f"within frames 0..{n_frames - 1}")
    return frames


def _check_out_file(flag, path):
    """Refuse an output file path before any work: it must not be a directory,
    and its directory must exist."""
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise UsageError(f"{flag} {path} must be a file in an existing directory")


def _check_out_dir(flag, path):
    """Refuse an output directory path before any work: its nearest existing
    ancestor, the path itself if it exists, must be a directory."""
    p = Path(path)
    while not p.exists() and p != p.parent:
        p = p.parent
    if not p.is_dir():
        raise UsageError(f"{flag} {path}: {p} is not a directory")


def _write_csv(path, keys, rows):
    """A header row of keys, then each row's values under those keys."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(keys)
        w.writerows([r[k] for k in keys] for r in rows)


def cmd_gen_data(args):
    _check_out_dir("--out", args.out)
    cfg = load_config(args.config, args.set)
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()):
        raise UsageError(f"--out {out} is not empty; gen-data writes into a new or empty "
                         "directory")
    ds = dataset_from_config(cfg)
    save_dataset(ds, args.out)
    n = sum(len(i.frames) for i in ds.identities)
    print(f"identities={len(ds.identities)} frames={n}")
    print(f"checksum={dataset_checksum(args.out)}")
    return 0


def cmd_train(args):
    _check_out_file("--out", args.out)
    _check_out_file("--metrics", args.metrics)
    cfg = load_config(args.config, args.set)
    ds = load_dataset(args.data) if args.data else dataset_from_config(cfg)
    state, rows = trainer.train(ds, cfg)
    trainer.save_checkpoint(args.out, state)
    if args.metrics:
        _write_csv(args.metrics, ["step", "loss_c", "loss_l", "loss_i", "lr", "test_psnr"], rows)
    final = [r["test_psnr"] for r in rows if r["test_psnr"] != ""]
    if final:
        print(f"final_test_psnr={final[-1]:.3f}")
    print(f"checkpoint={args.out} steps={state.step}")
    return 0


def _load_state_and_scene(ckpt_path, data=None):
    state = trainer.load_checkpoint(ckpt_path)
    if data:
        ds = load_dataset(data)
    else:
        # the config snapshot regenerates poses/expressions without GT images
        ds = dataset_from_config(state.cfg, render_images=False)
    trainer.check_expression_dim(state.cfg, ds)
    return state, ds


def cmd_render(args, expr_from=None):
    _check_out_dir("--out", args.out)
    state, ds = _load_state_and_scene(args.ckpt, args.data)
    tgt, src = ds.by_name(args.identity), ds.by_name(expr_from or args.identity)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frames = _parse_frames(args.frames, min(len(tgt.frames), len(src.frames)))
    want_depth = getattr(args, "depth", False)
    for fidx in frames:
        pose = tgt.frames[fidx].pose
        e = src.frames[fidx].e
        img = trainer.render_model_frame(state, ds, args.identity, e, pose,
                                         frame_id=ds.frame_id(args.identity, fidx),
                                         return_depth=want_depth)
        if want_depth:
            img, depth = img
            ppm.write_pgm16(out / f"depth_{fidx:04d}.pgm", depth, max_val=ds.t_far)
        ppm.write_ppm(out / f"frame_{fidx:04d}.ppm", img)
    print(f"wrote {len(frames)} frames to {out}")
    return 0


def cmd_transfer(args):
    return cmd_render(args, expr_from=args.expr_from)


def cmd_personalize(args):
    _check_out_file("--out", args.out)
    state = trainer.load_checkpoint(args.ckpt)
    clip = load_dataset(args.data)
    # first, so bad --steps/--lr fail before any rendering
    new_state = trainer.personalize(state, clip, args.identity, args.steps, lr=args.lr)
    # steps=0 only gives an unseen identity its fresh code, so it can render
    start = trainer.personalize(state, clip, args.identity, steps=0)
    before = metrics.transfer_eval(start, clip, args.identity, args.identity)
    after = metrics.transfer_eval(new_state, clip, args.identity, args.identity)
    trainer.save_checkpoint(args.out, new_state)
    print(f"psnr_before={before:.3f} psnr_after={after:.3f}")
    return 0


def cmd_verify(args):
    _check_out_file("--json", args.json)
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    report = verify.run_suites(names)
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.json:
        Path(args.json).write_text(text)
    print(text)
    return 0 if report["passed"] else 4


def cmd_eval(args):
    _check_out_dir("--out", args.out)
    state, ds = _load_state_and_scene(args.ckpt, args.data)
    report = metrics.evaluate_images(state, ds)
    names = ds.identity_names()
    tm = metrics.transfer_matrix(state, ds, report)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "frames.csv", ["identity", "frame", "psnr", "ssim"], report["frames"])
    summary = {"variant": report["variant"], "mean_psnr": report["mean_psnr"],
               "mean_ssim": report["mean_ssim"], "identities": names,
               "transfer_psnr": tm.tolist()}
    (out / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(json.dumps({"mean_psnr": report["mean_psnr"],
                      "mean_ssim": report["mean_ssim"]}))
    return 0


def cmd_inspect(args):
    _check_out_file("--out", args.out)
    state = trainer.load_checkpoint(args.ckpt)
    key = f"cond.{args.matrix}"
    if key not in state.params:
        have = sorted(k[len("cond."):] for k in state.params if k.startswith("cond."))
        raise UsageError(f"no conditioning matrix {args.matrix!r}; have {have}")
    M = state.params[key]
    if M.ndim != 2:
        raise UsageError(f"{args.matrix} is not a matrix (shape {M.shape})")
    sv = metrics.singular_values(M)
    lines = "\n".join(f"{j},{float(v)!r}" for j, v in enumerate(sv))
    if args.out:
        Path(args.out).write_text("index,singular_value\n" + lines + "\n")
    print(lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="minerf",
                                description="multi-identity radiance field toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--set", action="append", default=[],
                        metavar="KEY.PATH=VALUE")

    sp = sub.add_parser("gen-data", help="generate a synthetic dataset")
    common(sp)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen_data)

    sp = sub.add_parser("train", help="train a model")
    common(sp)
    sp.add_argument("--data", default=None, help="dataset dir (default: regenerate)")
    sp.add_argument("--out", required=True, help="checkpoint path")
    sp.add_argument("--metrics", default=None, help="metrics CSV path")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("render", help="render frames for an identity")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", default=None)
    sp.add_argument("--identity", required=True)
    sp.add_argument("--frames", default=None, help="a:b range or comma list")
    sp.add_argument("--depth", action="store_true", help="also write 16-bit PGM depth")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("transfer", help="render an identity under another's expressions")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", default=None)
    sp.add_argument("--identity", required=True)
    sp.add_argument("--expr-from", required=True)
    sp.add_argument("--frames", default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_transfer)

    sp = sub.add_parser("personalize", help="fine-tune one identity, module frozen")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--identity", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--lr", type=float, default=1e-5)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_personalize)

    sp = sub.add_parser("verify", help="run oracle/property suites")
    sp.add_argument("--suite", default="all",
                    choices=list(verify.SUITES) + ["all"])
    sp.add_argument("--json", default=None, help="write the report here too")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("eval", help="held-out metrics and transfer matrix")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True, help="dataset dir with ground-truth frames")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("inspect", help="singular values of a conditioning matrix")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--matrix", required=True, help="e.g. W2")
    sp.add_argument("--out", default=None, help="CSV path")
    sp.set_defaults(fn=cmd_inspect)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, UsageError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2
    except (DivergenceError, NumericError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        diag = getattr(e, "diagnostics", None)
        if diag:
            print(json.dumps(diag, default=str), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
