import inspect
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from minerf import autodiff as ad
from minerf import conditioning as cond
from minerf import renderer, verify
from minerf.errors import UsageError


def test_relu_forward_backward():
    # linear's relu: x @ I + 0 passes x through, and the derivative at 0 is 0
    t = ad.Tape()
    x = ad.leaf(t, np.array([[-1.0, 0.0, 2.0]]))
    y = ad.linear([x], np.eye(3), np.zeros(3), relu=True)
    assert np.array_equal(y.value, [[0.0, 0.0, 2.0]])
    g = ad.grad(t, ad.sum_(y), [x])[0]
    assert np.array_equal(g, [[0.0, 0.0, 1.0]])


def test_sigmoid_at_zero():
    t = ad.Tape()
    x = ad.leaf(t, np.zeros(()))
    y = ad.sigmoid(x)
    assert y.value == 0.5
    assert ad.grad(t, y, [x])[0] == pytest.approx(0.25)


def test_stable_sigmoid_keeps_the_bits_of_the_split_formula():
    """The branch-free form against 1 / (1 + exp(-x)) on x >= 0 and
    exp(x) / (1 + exp(x)) below, written with boolean masks."""
    def split(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ev = np.exp(x[~pos])
        out[~pos] = ev / (1.0 + ev)
        return out

    tiny = np.finfo(np.float64).tiny
    edges = np.array([0.0, np.inf, 745.0, 800.0, 5e-324, tiny / 2, tiny, 1.0, 36.0, 710.0])
    x = np.concatenate([edges, -edges, np.random.default_rng(11).standard_normal(10**6) * 30.0])
    with np.errstate(over="ignore", under="ignore"):
        got, want = ad._stable_sigmoid(x), split(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_matvec_gradient_transpose_rule():
    rng = np.random.default_rng(0)
    W = rng.standard_normal((3, 2))
    x = rng.standard_normal(2)
    seed = rng.standard_normal(3)
    t = ad.Tape()
    xv = ad.leaf(t, x)
    out = ad.sum_(ad.mul(ad.matmul(W, xv), seed))
    gx = ad.grad(t, out, [xv])[0]
    assert np.allclose(gx, W.T @ seed, atol=1e-12)
    rep = ad.finite_diff_check(lambda v: ad.sum_(ad.mul(ad.matmul(W, v), seed)), [x])
    assert rep.passed


def test_matmul_vector_operands_transpose_rule():
    rng = np.random.default_rng(4)
    A, x, y = rng.standard_normal((3, 2)), rng.standard_normal(2), rng.standard_normal(3)
    seed_mv, seed_vm = rng.standard_normal(3), rng.standard_normal(2)
    t = ad.Tape()
    Av, xv, yv = ad.leaf(t, A), ad.leaf(t, x), ad.leaf(t, y)
    mv = ad.matmul(Av, xv)  # matrix @ vector
    vm = ad.matmul(yv, Av)  # vector @ matrix
    assert mv.shape == (3,) and vm.shape == (2,)
    gA_mv, gx = ad.grad(t, ad.sum_(ad.mul(mv, seed_mv)), [Av, xv])
    assert np.array_equal(gA_mv, np.outer(seed_mv, x))
    assert np.allclose(gx, A.T @ seed_mv, atol=1e-12)
    gA_vm, gy = ad.grad(t, ad.sum_(ad.mul(vm, seed_vm)), [Av, yv])
    assert np.array_equal(gA_vm, np.outer(y, seed_vm))
    assert np.allclose(gy, A @ seed_vm, atol=1e-12)


def test_matmul_rejects_vector_vector_and_higher_rank():
    t = ad.Tape()
    v = ad.leaf(t, np.ones(3))
    for A, B in ((v, np.ones(3)), (np.ones((2, 3, 3)), v), (v, np.ones((3, 3, 2))),
                 (ad.leaf(t, np.ones((2, 3))), np.ones((2, 3))), (np.ones(()), v)):
        with pytest.raises(UsageError):
            ad.matmul(A, B)


def test_linear_matches_the_numpy_layer_bit_for_bit():
    # forward in the order A1 @ W1, + A2 @ W2, + b, relu; backward through the mask
    rng = np.random.default_rng(3)
    A1, A2 = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    W1, W2, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), rng.standard_normal(4)
    seed = rng.standard_normal((5, 4))
    z = A1 @ W1 + A2 @ W2 + b
    for relu in (False, True):
        t = ad.Tape()
        leaves = [ad.leaf(t, x) for x in (A1, A2, np.vstack([W1, W2]), b)]
        y = ad.linear(leaves[:2], leaves[2], leaves[3], relu)
        g = seed * (z > 0) if relu else seed
        assert y.value.tobytes() == (np.maximum(z, 0.0) if relu else z).tobytes()
        got = ad.grad(t, ad.sum_(ad.mul(y, seed)), leaves)
        want = [g @ W1.T, g @ W2.T, np.vstack([A1.T @ g, A2.T @ g]), g.sum(axis=0)]
        assert all(a.tobytes() == w.tobytes() for a, w in zip(got, want))


def test_linear_rejects_parts_that_do_not_fit_the_weights():
    rng = np.random.default_rng(3)
    A1, A2 = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    W, b = rng.standard_normal((5, 4)), rng.standard_normal(4)
    for parts in ([A1, A2], [A1, A2[0]], [np.zeros((5, 0)), A1, A2[0, :0], A2[0]]):
        assert ad.linear(parts, W, b).shape == (5, 4)  # widths that add up to W's rows
    t = ad.Tape()
    for parts, Wp, bias in (
            ([A1], W, b), ([A1, A2], W[:4], b), ([A1, A2, A2], W, b),  # W rows != widths
            ([A1, A2], W, np.ones(3)), ([A1, A2], W, np.ones((1, 4))),  # bias != W's columns
            ([A1[0], A2], W, b), ([], W, b),  # the first part must be a matrix
            ([A1, A2[:3]], W, b), ([A1[:4], A2], W, b),  # matrix parts of unequal rows
            ([A1, A2[None]], W, b), ([A1, A2], W[None], b)):  # other ranks
        with pytest.raises(UsageError):
            ad.linear([ad.leaf(t, P) for P in parts], Wp, ad.leaf(t, bias))


def _composed_layer(parts, W, bias, relu):
    """The layer as separate nodes: a row-selecting matmul per row block of W,
    a matmul and an add per vector part folded into the bias, then one fused
    node summing the matrix products in order into the first one's buffer,
    adding the bias and applying relu in place."""
    parts = parts[:1] + [p for p in parts[1:] if p.shape[-1]]
    mats, Ws, off = [], [], 0
    for p in parts:
        Wp = ad.matmul(np.eye(W.shape[0])[off:off + p.shape[-1]], W) if len(parts) > 1 else W
        off += p.shape[-1]
        if len(p.shape) == 2:
            mats.append(p)
            Ws.append(Wp)
        else:
            bias = ad.add(bias, ad.matmul(p, Wp))
    Avs, Wvs, bv = [ad.value(A) for A in mats], [ad.value(Wp) for Wp in Ws], ad.value(bias)
    out = Avs[0] @ Wvs[0]
    for A, Wp in zip(Avs[1:], Wvs[1:]):
        out += A @ Wp
    out += bv
    if relu:
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        if relu:
            g = g * (out > 0.0)
        return (*(g @ Wp.T for Wp in Wvs), *(A.T @ g for A in Avs), g.sum(axis=0))

    return ad._node("fused", out, (*mats, *Ws, bias), vjp)


def test_linear_matches_the_sliced_composition_bit_for_bit():
    # one node over the whole W gives the value and every gradient of the
    # row-selecting, matmul and add nodes it replaces, byte for byte; the one
    # exception is the sign of an exact zero in W's gradient, which the
    # composition loses when it sums its row blocks' zero-padded adjoints
    # (-0.0 + 0.0 is +0.0)
    rng = np.random.default_rng(8)
    n, m = 6, 5
    M1, M2 = rng.standard_normal((n, 4)), rng.standard_normal((n, 3))
    v1, v2 = rng.standard_normal(2), rng.standard_normal(3)
    cases = [[M1], [M1, M2], [M1, v1], [M1, v1, v2], [M1, M2, v1], [M1, v1, M2],
             [np.zeros((n, 0)), v1, v2],  # a zero-width first part, as with Lx = 0
             [M1, np.zeros((n, 0))]]  # a zero-width later part, as with Lv = 0
    for parts in cases:
        W = rng.standard_normal((sum(p.shape[-1] for p in parts), m))
        b, seed = rng.standard_normal(m), rng.standard_normal((n, m))
        for relu in (False, True):
            got = []
            for layer in (ad.linear, _composed_layer):
                t = ad.Tape()
                leaves = [ad.leaf(t, x) for x in (*parts, W, b)]
                y = layer(leaves[:-2], leaves[-2], leaves[-1], relu)
                grads = ad.grad(t, ad.sum_(ad.mul(y, seed)), leaves)
                grads[-2] = grads[-2] + 0.0
                got.append([y.value.tobytes()] + [gr.tobytes() for gr in grads])
            assert got[0] == got[1], (len(parts), relu)


def test_every_tape_primitive_has_a_verify_fd_check():
    # both ways: every op has a row, and every row names an op, one of its
    # operand forms (matmul_mat_vec) or a public ad function (sub)
    src = Path(ad.__file__).read_text() + Path(renderer.__file__).read_text()
    ops = set(re.findall(r'_node\("(\w+)"', src))
    assert "matmul" in ops and "composite" in ops
    checks = {c["name"] for c in verify.suite_autodiff(per_primitive=1)["checks"]}
    rows = {name[3:] for name in checks if name.startswith("fd_")}
    missing = sorted(ops - rows)
    assert not missing, missing
    public = {name for name in vars(ad) if not name.startswith("_")}
    stray = sorted(row for row in rows
                   if row not in ops | public and row.split("_")[0] not in ops)
    assert not stray, stray


@pytest.mark.parametrize("dropped", ["fd_exp", "fd_linear"])
def test_dropping_an_fd_check_leaves_every_other_checks_draws_unchanged(monkeypatch, dropped):
    rows = dict(verify.FD_CHECKS)

    def run(names):
        drawn = {}

        def record(name):
            def draw(r):
                f, params = rows[name](r)
                drawn.setdefault(name, []).append([np.array(p) for p in params])
                return f, params
            return draw

        monkeypatch.setattr(verify, "FD_CHECKS", {n: record(n) for n in names})
        errs = {c["name"]: c["max_err"] for c in verify.suite_autodiff(per_primitive=3)["checks"]}
        return drawn, errs

    all_drawn, all_errs = run(rows)
    drawn, errs = run([n for n in rows if n != dropped])
    assert dropped not in errs and set(errs) == set(all_errs) - {dropped}
    for name in drawn:
        assert all(np.array_equal(a, b) for d, e in zip(drawn[name], all_drawn[name])
                   for a, b in zip(d, e)), name
    assert errs == {n: e for n, e in all_errs.items() if n != dropped}


def test_grad_of_scalar_leaf_is_one():
    t = ad.Tape()
    w = ad.leaf(t, np.asarray(3.5))
    assert ad.grad(t, w, [w])[0] == 1.0


def test_grad_quadratic_form():
    t = ad.Tape()
    w = ad.leaf(t, np.array([1.0, 2.0, 3.0]))
    out = ad.sum_(ad.mul(w, w))
    assert np.array_equal(ad.grad(t, out, [w])[0], [2.0, 4.0, 6.0])


def test_grad_of_a_non_leaf_wrt():
    # grad differentiates with respect to leaves: an intermediate node or the
    # output in wrt is refused, alone or next to a leaf
    t = ad.Tape()
    x = ad.leaf(t, np.array([1.0, -2.0, 0.5]))
    y = ad.mul(x, 3.0)
    out = ad.sum_(ad.mul(y, y))
    for wrt in ([y], [x, y], [out], [out, x]):
        with pytest.raises(UsageError):
            ad.grad(t, out, wrt)
    assert np.array_equal(ad.grad(t, out, [x])[0], 18.0 * x.value)


def test_add_of_a_var_to_itself_gives_twice_the_adjoint():
    # add hands its second Var operand a copy, so its two gradients never alias
    t = ad.Tape()
    x = ad.leaf(t, np.array([1.0, -2.0, 0.5]))
    y = ad.add(x, x)
    g = np.array([0.25, -3.0, 7.0])
    ga, gb = t.nodes[y.idx].vjp(g)
    assert ga is g and np.array_equal(gb, g) and not np.may_share_memory(ga, gb)
    assert ad.grad(t, ad.sum_(ad.mul(y, g)), [x])[0].tobytes() == (2.0 * g).tobytes()


def test_no_two_arrays_a_vjp_returns_share_memory():
    # the ownership rule each VJP keeps, on every verify FD_CHECKS row
    for name, draw in verify.FD_CHECKS.items():
        rng = np.random.default_rng(0)
        f, params = draw(rng)
        t = ad.Tape()
        f(*[ad.leaf(t, p) for p in params])
        for node, value in zip(t.nodes, t.values):
            if node.parents:
                out = [g for g in node.vjp(rng.standard_normal(np.shape(value))) if g is not None]
                assert not any(np.may_share_memory(g, h) for i, g in enumerate(out)
                               for h in out[i + 1:] + t.values), (name, node.op)


def _fan_out(rng, n=6, k=3, m=4):
    """L = sum((u + v) * s) for relu layers u, v of one input P: add hands one
    adjoint to both layers, and each masks the adjoint it receives."""
    t = ad.Tape()
    P, Wu, bu, Wv, bv = (ad.leaf(t, rng.standard_normal(shape))
                         for shape in ((n, k), (k, m), (m,), (k, m), (m,)))
    s = rng.standard_normal((n, m))
    u = ad.linear([P], Wu, bu, relu=True)
    v = ad.linear([P], Wv, bv, relu=True)
    uv = ad.add(u, v)
    return t, ad.sum_(ad.mul(uv, s)), s, (P, Wu, bu, Wv, bv, u, v, uv)


def test_fan_out_gradients_equal_their_closed_forms():
    # without a copy on fan-out, v's in-place mask would reach u's adjoint too
    t, out, s, (P, Wu, bu, Wv, bv, u, v, _) = _fan_out(np.random.default_rng(5))
    gu, gv = s * (u.value > 0.0), s * (v.value > 0.0)
    assert not np.array_equal(gu, gv)
    grads = ad.grad(t, out, [P, Wu, bu, Wv, bv])
    closed = [gv @ Wv.value.T + gu @ Wu.value.T,
              P.value.T @ gu, gu.sum(axis=0), P.value.T @ gv, gv.sum(axis=0)]
    for g, c in zip(grads, closed):
        assert g.tobytes() == c.tobytes()


def test_grad_twice_is_byte_identical_and_leaves_the_tape_as_it_was():
    t, out, _, nodes = _fan_out(np.random.default_rng(7))
    leaves = nodes[:5]
    before = [v.copy() for v in t.values]
    first = ad.grad(t, out, leaves)
    second = ad.grad(t, out, leaves)
    assert [g.tobytes() for g in first] == [g.tobytes() for g in second]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, t.values))
    # one owner per gradient: none shares memory with another or with the tape
    for i, g in enumerate(first):
        assert not any(np.may_share_memory(g, h) for h in first[i + 1:] + second)
        assert not any(np.may_share_memory(g, v) for v in t.values)


def _grad_peak(depth, n=4096, m=16):
    """tracemalloc's peak over ad.grad through depth equal relu layers (n, m)."""
    rng = np.random.default_rng(2)
    t = ad.Tape()
    W, b = ad.leaf(t, rng.standard_normal((m, m)) / 4.0), ad.leaf(t, np.full(m, 0.1))
    h = rng.standard_normal((n, m))
    for _ in range(depth):
        h = ad.linear([h], W, b, relu=True)
    out = ad.sum_(h)
    tracemalloc.start()
    try:
        ad.grad(t, out, [W, b])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grad_peak_memory_does_not_grow_with_the_tape():
    # each layer's adjoint is dropped once its VJP has run: doubling the depth adds
    # at most a few adjoints' worth, where keeping them all would add 16
    adjoint = 4096 * 16 * 8
    assert _grad_peak(32) - _grad_peak(16) <= 3 * adjoint


def test_grad_peak_holds_about_two_adjoints():
    # each VJP masks and sums fan-in into the adjoint it owns: the sweep's peak
    # is the adjoint being consumed and the one its VJP returns, where copying
    # each mask made it three
    assert _grad_peak(16) <= 2.25 * (4096 * 16 * 8)


def test_grad_full_interaction_module_vs_finite_differences():
    rng = np.random.default_rng(1)
    d, k = 4, 2
    arrays = [rng.standard_normal((k, d)), rng.standard_normal((k, d)),
              rng.standard_normal((d, k)), rng.standard_normal((d, d)),
              rng.standard_normal((d, d)), rng.standard_normal(d),
              rng.standard_normal(d)]

    def f(U1, U2, C, W2, W3, e, i):
        out = cond.m_forward({"U1": U1, "U2": U2, "C": C, "W2": W2, "W3": W3}, e, i)
        return ad.mul(ad.sum_(ad.mul(out, out)), 1 / d)

    rep = ad.finite_diff_check(f, arrays, step=1e-5, tol=1e-5)
    assert rep.passed, rep.max_rel_err


def test_finite_diff_trivials():
    rep = ad.finite_diff_check(lambda w: ad.mul(w, w), [np.asarray(3.0)])
    assert rep.passed
    a = np.random.default_rng(2).standard_normal(5)
    rep = ad.finite_diff_check(lambda w: ad.sum_(ad.mul(w, a)),
                               [np.arange(5.0)])
    assert rep.max_rel_err < 1e-9  # linear: exact to rounding


def test_finite_diff_composited_pixel():
    # one ray, 8 samples, loss through the alpha compositing chain
    rng = np.random.default_rng(3)
    ts = np.sort(rng.uniform(0.1, 0.9, 8))
    deltas = np.append(np.diff(ts), 1.0 - ts[-1])
    gt = rng.uniform(0, 1, 3)

    def f(sig_raw, rgb_raw):
        sigma = ad.softplus(sig_raw)
        rgb = ad.sigmoid(rgb_raw)
        sd = ad.mul(sigma, deltas)
        cum = ad.matmul(ad.reshape(sd, (1, 8)), np.triu(np.ones((8, 8)), k=1))
        T = ad.exp(ad.mul(ad.reshape(cum, (8,)), -1.0))
        alpha = ad.sub(np.ones(8), ad.exp(ad.mul(sd, -1.0)))
        w = ad.mul(T, alpha)
        t_end = ad.exp(ad.mul(ad.sum_(sd), -1.0))
        acc = []
        for ch in range(3):
            pred = ad.sum_(ad.mul(w, ad.matmul(rgb, np.eye(3)[ch]))) + ad.mul(t_end, 0.5)
            r = ad.sub(pred, gt[ch])
            acc.append(ad.mul(r, r))
        return acc[0] + acc[1] + acc[2]

    rep = ad.finite_diff_check(f, [rng.standard_normal(8),
                                   rng.standard_normal((8, 3))], step=1e-5, tol=1e-4)
    assert rep.passed, rep.max_rel_err


def test_fanout_accumulates():
    t = ad.Tape()
    x = ad.leaf(t, np.asarray(2.0))
    y = ad.mul(x, x) + ad.mul(x, 3.0)  # x^2 + 3x
    assert ad.grad(t, y, [x])[0] == pytest.approx(7.0)


def test_backward_determinism_bit_identical():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(6)
    runs = []
    for _ in range(2):
        t = ad.Tape()
        xv = ad.leaf(t, x)
        out = ad.sum_(ad.mul(ad.sigmoid(xv), ad.exp(ad.mul(xv, 0.3))))
        runs.append((out.value.tobytes(), ad.grad(t, out, [xv])[0].tobytes()))
    assert runs[0] == runs[1]


def test_cross_tape_mixing_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = ad.leaf(t1, np.ones(2))
    b = ad.leaf(t2, np.ones(2))
    with pytest.raises(UsageError):
        ad.add(a, b)


def test_grad_requires_scalar_output():
    t = ad.Tape()
    x = ad.leaf(t, np.ones(3))
    with pytest.raises(UsageError):
        ad.grad(t, ad.mul(x, x), [x])


def test_constants_receive_no_gradient_paths():
    # an array operand is parent -1: no node, and its gradient is never formed
    t = ad.Tape()
    x = ad.leaf(t, np.full(3, 2.0))
    y = ad.mul(np.ones(3), x)
    out = ad.sum_(y)
    assert t.nodes[y.idx].parents == (-1, x.idx)
    assert t.nodes[y.idx].vjp(np.ones(3))[0] is None
    assert np.array_equal(ad.grad(t, out, [x])[0], np.ones(3))


def test_tape_topological_by_construction():
    t = ad.Tape()
    x = ad.leaf(t, np.ones(3))
    y = ad.exp(ad.mul(x, 2.0))
    out = ad.sum_(y)
    for idx, node in enumerate(t.nodes):
        assert all(p < idx for p in node.parents)
    assert out.idx == len(t.nodes) - 1


def test_no_grad_ops_return_arrays_and_record_nothing():
    t = ad.Tape()
    x = np.array([[-1.0, 2.0]])
    y = ad.sum_(ad.linear([ad.mul(x, 3.0)], np.eye(2), np.zeros(2), relu=True))
    assert not isinstance(y, ad.Var) and float(y) == 6.0
    assert len(t.nodes) == 0 and not t.values
    with pytest.raises(UsageError):
        ad.grad(t, y, [])


def test_array_operands_give_numpy_values_and_array_plus_var_dispatches():
    rng = np.random.default_rng(6)
    A, B = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    x, c = rng.standard_normal(3), rng.standard_normal(3)
    pairs = [(ad.add(x, c), x + c), (ad.sub(x, c), x + -c), (ad.mul(x, 2.0), x * 2.0),
             (ad.exp(x), np.exp(x)), (ad.sqrt(np.abs(x)), np.sqrt(np.abs(x))),
             (ad.matmul(A, B), A @ B), (ad.matmul(x, A), x @ A),
             (ad.linear([A], B, np.ones(2), relu=True), np.maximum(A @ B + np.ones(2), 0.0)),
             (ad.reshape(A, (4, 3)), A.reshape(4, 3))]
    for got, want in pairs:
        assert type(got) is np.ndarray and got.tobytes() == want.tobytes()
    t = ad.Tape()
    with pytest.raises(UsageError):
        ad.grad(t, ad.sum_(x), [])
    # array + Var defers to Var.__radd__: the same value and gradient that a
    # second leaf in the array's place gives for the leaf
    v = ad.leaf(t, x)
    y = c + v
    assert isinstance(y, ad.Var) and t.nodes[y.idx].parents == (-1, v.idx)
    t2 = ad.Tape()
    c2, v2 = ad.leaf(t2, c), ad.leaf(t2, x)
    y2 = c2 + v2
    assert y.value.tobytes() == y2.value.tobytes()
    g = ad.grad(t, ad.sum_(ad.mul(y, y)), [v])[0]
    assert g.tobytes() == ad.grad(t2, ad.sum_(ad.mul(y2, y2)), [v2])[0].tobytes()
    s = np.float64(2.0) + ad.sum_(v)  # numpy scalar + Var, as in the loss
    assert isinstance(s, ad.Var) and float(s.value) == 2.0 + x.sum()
    with pytest.raises(UsageError):
        v + v2
    with pytest.raises(UsageError):
        ad.linear([ad.leaf(t, A)], B, ad.leaf(t2, np.ones(2)))
    with pytest.raises(UsageError):
        ad.grad(t, ad.sum_(v2), [v])


def test_a_var_cannot_be_indexed():
    # a column is a reshape of a one-column matrix, or a matmul by a basis vector
    t = ad.Tape()
    with pytest.raises(TypeError):
        ad.leaf(t, np.ones((2, 1)))[:, 0]


def test_operands_take_only_the_forms_the_model_runs():
    # add takes one shape; mul one shape, or a constant scalar array against
    # a Var of any shape; sum_ sums every entry; nothing concatenates
    t = ad.Tape()
    x, s = ad.leaf(t, np.array([1.0, -2.0, 3.0])), ad.leaf(t, np.asarray(2.0))
    for bad in (lambda: ad.add(x, s), lambda: ad.add(np.ones(3), s),
                lambda: ad.add(x, np.ones(2)), lambda: ad.sub(x, 1.0),
                lambda: ad.mul(s, np.ones(3)), lambda: ad.mul(np.ones(3), s),
                lambda: ad.mul(x, np.ones(2)), lambda: ad.mul(x, s)):
        with pytest.raises(UsageError):
            bad()
    n = len(t)
    y = ad.mul(np.asarray(-1.5), x)
    gx, gs = ad.grad(t, ad.sum_(ad.mul(y, y)) + ad.mul(s, s), [x, s])
    assert len(t) == n + 5 and np.array_equal(gx, 4.5 * x.value) and gs == 4.0
    assert list(inspect.signature(ad.sum_).parameters) == ["a"]
    assert not hasattr(ad, "concat")


def test_finite_diff_check_builds_one_tape(monkeypatch):
    # the finite differences evaluate f on the arrays themselves, with no tape
    made = []

    class CountedTape(ad.Tape):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(ad, "Tape", CountedTape)
    rep = ad.finite_diff_check(lambda x, y: ad.sum_(ad.mul(ad.exp(x), ad.add(x, y))),
                               [np.array([0.1, -0.4, 0.7]), np.array([2.0, 0.5, -1.0])])
    assert rep.passed and len(made) == 1


def test_finite_diff_floor_scales_with_largest_gradient():
    # |f| ~ 100 puts ~1e-9 of rounding into each numeric entry; the 1e-6
    # entry is correct, so only the largest-entry floor keeps it from failing
    w = np.array([1.0, 1e-6])
    rep = ad.finite_diff_check(lambda x: ad.add(ad.sum_(ad.mul(x, w)), 100.0),
                               [np.array([0.3, 0.7])])
    assert rep.passed, rep
    assert 0.0 < rep.max_abs_err < 1e-8


def test_finite_diff_catches_a_slightly_wrong_vjp():
    def off_by_1e4(x):  # identity forward, backward scaled by 1.0001
        return ad._node("off", ad.value(x), (x,), lambda g: (1.0001 * g,))

    w = np.array([1.0, 1e-6, -2.0])
    rep = ad.finite_diff_check(lambda x: ad.sum_(ad.mul(off_by_1e4(x), w)),
                               [np.array([0.3, 0.7, 0.1])])
    assert not rep.passed
    assert rep.max_rel_err == pytest.approx(1e-4, rel=1e-3)
