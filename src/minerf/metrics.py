"""Image quality metrics, expression-transfer evaluation, and singular values.

Every ground truth scored here, on and off the transfer matrix's diagonal, is
an 8-bit frame of Dataset.gt_image, the pixels gen-data writes.

SSIM deviates from the common 11x11 Gaussian window: a uniform 8x8 window at
stride 1 keeps the reference loop trivial. Singular values come from a
hand-rolled one-sided Jacobi sweep (not a library SVD) so they can be checked
against an independent eigenvalue oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError, UsageError

LUMA = np.array([0.299, 0.587, 0.114])


def psnr(a: np.ndarray, b: np.ndarray, max_val: float = 1.0) -> float:
    """10 log10(max^2 / MSE) in dB; +inf for identical images."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise UsageError(f"psnr shapes differ: {a.shape} vs {b.shape}")
    mse = np.mean((a - b) ** 2)
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(max_val * max_val / mse))


def to_gray(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3:
        return img @ LUMA
    return img


def ssim(a: np.ndarray, b: np.ndarray, window: int, max_val: float = 1.0) -> float:
    """Mean windowed SSIM over a uniform window x window kernel at stride 1."""
    ga, gb = to_gray(a), to_gray(b)
    if ga.shape != gb.shape:
        raise UsageError(f"ssim shapes differ: {ga.shape} vs {gb.shape}")
    H, W = ga.shape
    if H < window or W < window:
        raise UsageError(f"image {ga.shape} smaller than the {window}x{window} window")
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    wa = np.lib.stride_tricks.sliding_window_view(ga, (window, window))
    wb = np.lib.stride_tricks.sliding_window_view(gb, (window, window))
    mu_a = wa.mean(axis=(2, 3))
    mu_b = wb.mean(axis=(2, 3))
    var_a = (wa * wa).mean(axis=(2, 3)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(2, 3)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(2, 3)) - mu_a * mu_b
    s = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
         / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(s.mean())


def singular_values(W: np.ndarray, tol: float = 1e-10, max_sweeps: int = 60) -> np.ndarray:
    """Singular values by one-sided Jacobi column orthogonalization, descending.

    Sweeps rotate column pairs until every pair satisfies
    |<ci, cj>| <= tol * ||ci|| ||cj||; the values are the column norms.
    """
    W = np.asarray(W, dtype=np.float64)
    if not np.all(np.isfinite(W)):
        raise NumericError("matrix has non-finite entries")
    m, n = W.shape
    A = W.T.copy() if m < n else W.copy()  # work tall: more rows than columns
    ncols = A.shape[1]
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(ncols - 1):
            for q in range(p + 1, ncols):
                apq = A[:, p] @ A[:, q]
                app = A[:, p] @ A[:, p]
                aqq = A[:, q] @ A[:, q]
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= tol * denom:
                    continue
                off = max(off, abs(apq) / denom)
                theta = 0.5 * np.arctan2(2.0 * apq, app - aqq)
                c, s = np.cos(theta), np.sin(theta)
                cp = A[:, p].copy()
                A[:, p] = c * cp + s * A[:, q]
                A[:, q] = -s * cp + c * A[:, q]
        if off == 0.0:
            break
    return np.sort(np.linalg.norm(A, axis=0))[::-1].copy()


def _renders(state, dataset, source_name: str, target_name: str, frame_indices):
    """(frame, model render, ground truth) of `target` under `source`'s expressions.

    Ground truth is the dataset image when source == target and it is present,
    else Dataset.gt_image of the target under the source's expressions (the
    same 8-bit frame at the target's own expressions).
    """
    from . import trainer  # local import; trainer imports metrics

    src, tgt = dataset.by_name(source_name), dataset.by_name(target_name)
    for fidx in frame_indices:
        e, frame = src.frames[fidx].e, tgt.frames[fidx]
        pred = trainer.render_model_frame(state, dataset, target_name, e, frame.pose,
                                          frame_id=dataset.frame_id(target_name, fidx))
        gt = (frame.image if source_name == target_name and frame.image is not None
              else dataset.gt_image(target_name, e, fidx))
        yield fidx, pred, gt


def transfer_eval(state, dataset, source_name: str, target_name: str) -> float:
    """Mean PSNR of `target` driven by `source`'s expressions, on the source's
    held-out frames; source == target gives evaluate_images' PSNRs."""
    picks = dataset.by_name(source_name).test_idx
    return float(np.mean([psnr(pred, gt) for _, pred, gt
                          in _renders(state, dataset, source_name, target_name, picks)]))


def transfer_matrix(state, dataset, heldout: dict) -> np.ndarray:
    """M[j, i]: transfer_eval of target i driven by source j's expressions.

    heldout is evaluate_images' report on every held-out frame. It scored the
    same renders as transfer_eval(S, S), so each diagonal entry is the mean of
    its identity's PSNRs there, and only the off-diagonal pairs are rendered.
    """
    names = dataset.identity_names()
    M = np.zeros((len(names), len(names)))
    for j, src in enumerate(names):
        own = [r["psnr"] for r in heldout["frames"] if r["identity"] == src]
        n_test = len(dataset.by_name(src).test_idx)
        if len(own) != n_test:
            raise UsageError(f"held-out report scores {len(own)} of {src}'s "
                             f"{n_test} held-out frames")
        for i, tgt in enumerate(names):
            M[j, i] = (float(np.mean(own)) if i == j
                       else transfer_eval(state, dataset, src, tgt))
    return M


def check_ssim_window(window: int, dataset, max_frames: int | None = None):
    """ConfigError unless the window fits each frame evaluate_images(max_frames) scores."""
    poses = [idn.frames[f].pose for idn in dataset.identities for f in idn.test_idx[:max_frames]]
    for p in poses:
        if min(p.height, p.width) < window:
            raise ConfigError(f"eval.ssim_window={window} exceeds the {p.width}x{p.height} frames")


def evaluate_images(state, dataset, max_frames: int | None = None) -> dict:
    """Per-frame PSNR/SSIM on each identity's first max_frames held-out frames
    (all by default), plus means and variant label; zero latent codes."""
    check_ssim_window(state.cfg["eval"]["ssim_window"], dataset, max_frames)
    per_frame = []
    for idn in dataset.identities:
        for fidx, img, gt in _renders(state, dataset, idn.name, idn.name,
                                      idn.test_idx[:max_frames]):
            per_frame.append({"identity": idn.name, "frame": fidx, "psnr": psnr(img, gt),
                              "ssim": ssim(img, gt, state.cfg["eval"]["ssim_window"])})
    finite = [r["psnr"] for r in per_frame if np.isfinite(r["psnr"])]
    return {
        "variant": state.cfg["conditioning"]["variant"],
        "frames": per_frame,
        "mean_psnr": float(np.mean(finite)) if finite else float("inf"),
        "mean_ssim": float(np.mean([r["ssim"] for r in per_frame])),
    }
