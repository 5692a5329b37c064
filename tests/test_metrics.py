import numpy as np
import pytest

from minerf import metrics as mt
from minerf.errors import UsageError


def test_psnr_identical_is_infinite():
    img = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
    assert mt.psnr(img, img) == float("inf")


def test_psnr_known_values():
    a = np.zeros((4, 4))
    assert mt.psnr(a, a + 1.0) == pytest.approx(0.0)
    assert mt.psnr(a, a + 0.1) == pytest.approx(20.0)


def test_psnr_symmetry():
    rng = np.random.default_rng(1)
    a, b = rng.uniform(0, 1, (6, 6, 3)), rng.uniform(0, 1, (6, 6, 3))
    assert mt.psnr(a, b) == mt.psnr(b, a)


def test_ssim_identical_is_one():
    img = np.random.default_rng(2).uniform(0, 1, (16, 16, 3))
    assert mt.ssim(img, img, window=8) == pytest.approx(1.0)


def test_ssim_constant_images_degenerate_formula():
    mu_a, mu_b = 0.3, 0.6
    a = np.full((12, 12), mu_a)
    b = np.full((12, 12), mu_b)
    c1 = 0.01 ** 2
    want = (2 * mu_a * mu_b + c1) / (mu_a ** 2 + mu_b ** 2 + c1)
    assert mt.ssim(a, b, window=8) == pytest.approx(want, abs=1e-12)


def test_ssim_matches_reference_window_loop():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 1, (32, 32, 3))
    b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
    got = mt.ssim(a, b, window=8)

    ga, gb = mt.to_gray(a), mt.to_gray(b)
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    vals = []
    for r in range(32 - 7):
        for c in range(32 - 7):
            wa = ga[r:r + 8, c:c + 8].reshape(-1)
            wb = gb[r:r + 8, c:c + 8].reshape(-1)
            mu_a, mu_b = wa.mean(), wb.mean()
            va = ((wa - mu_a) ** 2).mean()
            vb = ((wb - mu_b) ** 2).mean()
            cov = ((wa - mu_a) * (wb - mu_b)).mean()
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    assert abs(got - np.mean(vals)) < 1e-8


def test_ssim_small_image_rejected():
    with pytest.raises(UsageError):
        mt.ssim(np.zeros((4, 4)), np.zeros((4, 4)), window=8)


def test_singular_values_diagonal():
    assert np.allclose(mt.singular_values(np.diag([3.0, -2.0])), [3.0, 2.0],
                       atol=1e-12)


def test_singular_values_rank_one():
    u = np.array([2.0, 0.0, 0.0])
    v = np.array([0.0, 3.0, 0.0, 0.0])
    sv = mt.singular_values(np.outer(u, v))
    assert sv[0] == pytest.approx(6.0, abs=1e-10)
    assert np.all(np.abs(sv[1:]) < 1e-10)


def _charpoly_eigenvalues(S):
    """Faddeev-LeVerrier characteristic polynomial + roots; independent oracle."""
    n = S.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(S)
    for k in range(1, n + 1):
        M = S @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(S @ M) / k)
    roots = np.roots(coeffs)
    return np.sort(np.abs(roots))[::-1]


def test_singular_values_match_gram_eigen_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        W = rng.standard_normal((5, 5))
        sv = mt.singular_values(W)
        lam = _charpoly_eigenvalues(W.T @ W)
        assert np.max(np.abs(sv ** 2 - lam)) < 1e-8


def test_singular_values_invariances():
    rng = np.random.default_rng(5)
    W = rng.standard_normal((4, 6))
    sv = mt.singular_values(W)
    assert sv.shape == (4,)
    perm_rows = W[rng.permutation(4)]
    perm_cols = W[:, rng.permutation(6)]
    assert np.allclose(mt.singular_values(perm_rows), sv, atol=1e-9)
    assert np.allclose(mt.singular_values(perm_cols), sv, atol=1e-9)
    assert np.allclose(mt.singular_values(W.T), sv, atol=1e-9)


def test_singular_values_descending_nonnegative():
    rng = np.random.default_rng(6)
    sv = mt.singular_values(rng.standard_normal((7, 3)))
    assert np.all(sv >= 0)
    assert np.all(np.diff(sv) <= 0)
