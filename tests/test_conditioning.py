import numpy as np
import pytest

from minerf import autodiff as ad
from minerf import conditioning as cond
from minerf import verify
from minerf.errors import ConfigError
from minerf.trainer import init_arrays


def _m(rng, d, k, o=None):
    o = d if o is None else o
    return {"U1": rng.standard_normal((k, d)), "U2": rng.standard_normal((k, d)),
            "C": rng.standard_normal((o, k)), "W2": rng.standard_normal((o, d)),
            "W3": rng.standard_normal((o, d))}


def test_m_forward_identity_params_is_hadamard():
    d = 3
    p = {"U1": np.eye(d), "U2": np.eye(d), "C": np.eye(d),
         "W2": np.zeros((d, d)), "W3": np.zeros((d, d))}
    e = np.array([1.0, 2.0, -1.0])
    i = np.array([0.5, 3.0, 2.0])
    assert np.allclose(cond.m_forward(p, e, i), e * i, atol=1e-15)


def test_m_forward_pure_linear():
    d = 3
    p = {"U1": np.zeros((d, d)), "U2": np.zeros((d, d)), "C": np.eye(d),
         "W2": np.eye(d), "W3": np.eye(d)}
    e = np.array([1.0, 2.0, -1.0])
    i = np.array([0.5, 3.0, 2.0])
    assert np.allclose(cond.m_forward(p, e, i), e + i, atol=1e-15)


def test_m_forward_matches_full_tensor_oracle():
    rng = np.random.default_rng(0)
    p = _m(rng, d=4, k=2)
    e, i = rng.standard_normal(4), rng.standard_normal(4)
    got = cond.m_forward(p, e, i)
    want = verify.m_full_tensor(p, e, i)
    assert np.max(np.abs(got - want)) < 1e-10


def _h(rng, d, k, o, n):
    # every U{m}_e drawn first, then every U{m}_i, then C
    p = {f"U{m}_e": rng.standard_normal((k, d)) for m in range(1, n + 1)}
    p.update({f"U{m}_i": rng.standard_normal((k, d)) for m in range(1, n + 1)})
    p["C"] = rng.standard_normal((o, k))
    return p


def _h_zero(d, n, C):
    return {**{f"U{m}_{s}": np.zeros((d, d)) for s in "ei" for m in range(1, n + 1)},
            "C": C}


def test_h_forward_base_case():
    rng = np.random.default_rng(1)
    p = _h(rng, d=3, k=4, o=2, n=1)
    e, i = rng.standard_normal(3), rng.standard_normal(3)
    want = p["C"] @ (p["U1_e"] @ e + p["U1_i"] @ i)
    assert np.allclose(cond.h_forward(p, e, i), want, atol=1e-14)


def test_h_forward_zero_params():
    p = _h_zero(3, 2, np.ones((3, 3)))
    out = cond.h_forward(p, np.ones(3), np.ones(3))
    assert np.array_equal(out, np.zeros(3))


def test_h_forward_n2_matches_six_term_expansion():
    rng = np.random.default_rng(2)
    p = _h(rng, d=3, k=3, o=3, n=2)
    e, i = rng.standard_normal(3), rng.standard_normal(3)
    # the six terms, written out
    u1e, u1i = p["U1_e"] @ e, p["U1_i"] @ i
    u2e, u2i = p["U2_e"] @ e, p["U2_i"] @ i
    C = p["C"]
    want = (C @ (u2e * u1e) + C @ (u2e * u1i) + C @ (u2i * u1e)
            + C @ (u2i * u1i) + C @ u1e + C @ u1i)
    assert np.max(np.abs(cond.h_forward(p, e, i) - want)) < 1e-10
    assert np.max(np.abs(verify.h_expand_oracle(p, e, i) - want)) < 1e-12


def test_h_expand_oracle_trivials():
    p = _h_zero(2, 2, np.ones((2, 2)))
    assert np.array_equal(verify.h_expand_oracle(p, np.ones(2), np.ones(2)),
                          np.zeros(2))
    rng = np.random.default_rng(3)
    p = _h(rng, d=2, k=2, o=2, n=2)
    p["U2_e"][:] = 0.0
    p["U2_i"][:] = 0.0
    e, i = rng.standard_normal(2), rng.standard_normal(2)
    want = p["C"] @ (p["U1_e"] @ e + p["U1_i"] @ i)  # multiplicative factor vanishes
    assert np.allclose(verify.h_expand_oracle(p, e, i), want, atol=1e-14)


def test_h_expand_oracle_rejects_large_n():
    rng = np.random.default_rng(4)
    p = _h(rng, d=2, k=2, o=2, n=4)
    with pytest.raises(ConfigError):
        verify.h_expand_oracle(p, np.ones(2), np.ones(2))


def test_h_n3_multiplicative_branch_matches_triplets():
    rng = np.random.default_rng(5)
    p = _h(rng, d=3, k=3, o=3, n=3)
    e, i = rng.standard_normal(3), rng.standard_normal(3)
    terms = np.zeros(3)
    for a in (p["U2_e"] @ e, p["U2_i"] @ i):
        for b in (p["U1_e"] @ e, p["U1_i"] @ i):
            for c in (p["U3_e"] @ e, p["U3_i"] @ i):
                terms = terms + p["C"] @ (a * b * c)
    # h_forward(t e, t i) is a cubic in t: its third difference is 6x the degree-3 part
    f = [cond.h_forward(p, t * e, t * i) for t in range(4)]
    got = (f[3] - 3 * f[2] + 3 * f[1] - f[0]) / 6
    assert np.max(np.abs(got - terms)) < 1e-10


def test_h_expand_oracle_full_n3_matches_recursion():
    rng = np.random.default_rng(6)
    for _ in range(25):
        p = _h(rng, d=3, k=2, o=4, n=3)
        e, i = rng.standard_normal(3), rng.standard_normal(3)
        assert np.max(np.abs(cond.h_forward(p, e, i)
                             - verify.h_expand_oracle(p, e, i))) < 1e-10


def test_variant_baseline_concat():
    out = cond.variant_value("Baseline", {}, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.array_equal(out, [1, 2, 3, 4])


def test_variant_a4_identity_matrix():
    e = np.array([1.0, 2.0, -1.0])
    i = np.array([0.5, 3.0, 2.0])
    out = cond.variant_value("A4", {"W1": np.eye(3)}, e, i)
    assert np.allclose(out, e * i, atol=1e-15)


def test_variant_latent_in_m_counts_terms():
    d = 3
    params = {"U1": np.eye(d), "U2": np.eye(d), "U3": np.eye(d), "C": np.eye(d)}
    one = np.ones(d)
    out = cond.variant_value("LatentInM", params, one, one, one)
    assert np.allclose(out, 7.0 * one, atol=1e-14)


def test_variant_a7_matches_mode_contract():
    rng = np.random.default_rng(7)
    d = 4
    Wt = rng.standard_normal((d, d, d))
    e, i = rng.standard_normal(d), rng.standard_normal(d)
    got = cond.variant_value("A7", {"W_tensor": Wt}, e, i)
    want = verify.ORACLES["A7"]({"W_tensor": Wt}, e, i, None)
    assert np.max(np.abs(got - want)) < 1e-12


def test_variant_a3_shares_one_matrix():
    rng = np.random.default_rng(8)
    d = 3
    W1 = rng.standard_normal((d, d))
    e, i = rng.standard_normal(d), rng.standard_normal(d)
    got = cond.variant_value("A3", {"W1": W1}, e, i)
    assert np.allclose(got, W1 @ (e * i) + W1 @ e + W1 @ i, atol=1e-14)


def test_variant_formulas_match_directly():
    rng = np.random.default_rng(9)
    d = 4
    e, i = rng.standard_normal(d), rng.standard_normal(d)
    W1, W2, W3 = (rng.standard_normal((d, d)) for _ in range(3))
    cases = {
        "A1": ({"W2": W2, "W3": W3}, W2 @ e + W3 @ i),
        "A2": ({"W2": W2, "W3": W3}, e * i + W2 @ e + W3 @ i),
        "A5": ({"W2": W2, "W3": W3}, (W2 @ e) * (W3 @ i) + W2 @ e + W3 @ i),
        "A6": ({"W1": W1, "W2": W2, "W3": W3}, W1 @ (e * i) + W2 @ e + W3 @ i),
        "LearnableConcat": ({"W2": W2, "W3": W3}, np.concatenate([W2 @ e, W3 @ i])),
    }
    for variant, (params, want) in cases.items():
        got = cond.variant_value(variant, params, e, i)
        assert np.max(np.abs(got - want)) < 1e-12, variant


def test_degree_property_multiplicative_branch_linear_in_e():
    rng = np.random.default_rng(10)
    d, k = 5, 3
    p = {"U1": rng.standard_normal((k, d)), "U2": rng.standard_normal((k, d)),
         "C": rng.standard_normal((d, k)), "W2": np.zeros((d, d)),
         "W3": np.zeros((d, d))}
    e, i = rng.standard_normal(d), rng.standard_normal(d)
    alpha = 1.7
    lhs = cond.m_forward(p, alpha * e, i)
    rhs = alpha * cond.m_forward(p, e, i)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def _weighted_sum(parts, seed):
    """sum(concatenate(parts) * seed), each part weighted by its own slice of seed."""
    ends = np.cumsum([q.shape[0] for q in parts])
    total = None
    for q, end in zip(parts, ends):
        term = ad.sum_(ad.mul(q, seed[end - q.shape[0]:end]))
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("variant", cond.VARIANTS)
def test_all_variant_gradients_pass_finite_differences(variant):
    rng = np.random.default_rng(11)
    d = 4
    k = d if variant == "LatentInM" else 3
    o = 6 if variant in ("M", "H", "HigherOut_o256") else d
    params = init_arrays(cond.param_shapes(variant, d, k, o, d_latent=d, n_levels=2), rng)
    names = sorted(params)
    e = rng.standard_normal(d)
    i0 = rng.standard_normal(d)
    l0 = rng.standard_normal(d)
    seed = rng.standard_normal(cond.variant_output_dim(variant, d, o))

    def f(i_var, *param_vars):
        p = dict(zip(names, param_vars))
        return _weighted_sum(cond.variant_forward(variant, p, e, i_var, l=l0), seed)

    rep = ad.finite_diff_check(f, [i0] + [params[n] for n in names],
                               step=1e-5, tol=1e-4)
    assert rep.passed, (variant, rep.max_rel_err)


class _Reads(dict):
    """A parameter mapping that records the names a formula reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


@pytest.mark.parametrize("n_levels", [1, 3])
@pytest.mark.parametrize("variant", cond.VARIANTS)
def test_each_row_declares_what_its_formula_reads(variant, n_levels):
    rng = np.random.default_rng(12)
    d = 4
    k = d if variant == "LatentInM" else 3
    o = 6 if variant in ("M", "H", "HigherOut_o256") else d
    shapes = cond.param_shapes(variant, d, k, o, n_levels=n_levels, d_latent=d)
    params = _Reads(init_arrays(shapes, rng))
    e, i, l = rng.standard_normal((3, d))
    parts = cond.variant_forward(variant, params, e, i, l)
    assert params.read == set(shapes)
    assert all(q.ndim == 1 for q in parts)
    assert sum(q.shape[0] for q in parts) == cond.variant_output_dim(variant, d, o)


def test_verify_has_an_oracle_for_every_row():
    assert set(verify.ORACLES) == set(cond.VARIANTS)


def test_variant_dim_rules():
    with pytest.raises(ConfigError):
        cond.check_variant_dims("A2", d=4, k=2, o=6, d_latent=4)
    with pytest.raises(ConfigError):
        cond.check_variant_dims("LatentInM", d=4, k=2, o=4, d_latent=4)
    with pytest.raises(ConfigError):
        cond.check_variant_dims("LatentInM", d=4, k=4, o=4, d_latent=8)
    with pytest.raises(ConfigError):
        cond.check_variant_dims("NotAVariant", d=4, k=4, o=4, d_latent=4)
    cond.check_variant_dims("M", d=4, k=2, o=9, d_latent=4)  # M may widen o


def test_every_reader_of_the_table_refuses_an_unknown_variant_with_the_choices():
    one = np.ones(4)
    for call in (lambda: cond.latent_inside("NotAVariant"),
                 lambda: cond.check_variant_dims("NotAVariant", d=4, k=4, o=4, d_latent=4),
                 lambda: cond.param_shapes("NotAVariant", 4, 4, 4, n_levels=1, d_latent=4),
                 lambda: cond.variant_output_dim("NotAVariant", 4, 4),
                 lambda: cond.variant_forward("NotAVariant", {}, one, one)):
        with pytest.raises(ConfigError, match=r"unknown variant 'NotAVariant' \(choose from"):
            call()
