"""Tape-based reverse-mode automatic differentiation over float64 numpy arrays.

A Tape records primitive operations in creation order; node inputs always
reference earlier nodes, so the backward pass is a single reverse sweep with
ordered (deterministic) gradient accumulation. Values are scalars (shape ()),
vectors, matrices, or higher-rank arrays. Parameters live outside the tape
and are re-registered as leaves every step; a tape is built, differentiated,
and dropped.

An op records a node only when an operand is a Var, so every Var descends
from a leaf() and needs a gradient. Raw arrays mixed into ops stay arrays
(parent -1 on the node, no gradient), and an op on arrays alone returns its
plain numpy value: evaluating without gradients is calling the same
primitives on arrays, with no tape at all.

The primitives: add and mul, the one elementwise product (sub and negation
multiply by -1.0, a constant factor is a mul by a scalar and a square is
mul(x, x), all exact in IEEE arithmetic); sqrt, exp, sigmoid and softplus;
matmul and the fused layer linear; sum_ over every entry, and reshape, a
view. A Var cannot be indexed: a one-column matrix reshapes to its column,
and a matmul by a basis vector picks any other column. Nor is it
concatenated: linear takes a layer's inputs as parts. The renderer adds the
compositing node, composite_rays_tape.

Operands take the forms the model runs, so no VJP reduces an adjoint to an
operand's shape: add takes one shape, and mul one shape or a constant
scalar (an array, never a Var) against a Var of any shape. Any other pair
raises UsageError.

A tape holds what its reverse sweep reads: each node's forward value and the
arrays its vector-Jacobian closure captures. Closures capture arrays, never
Vars, so a dropped tape is freed at once rather than by the cycle collector.
linear fuses a network layer (products, bias and relu) into one node over
the layer's whole weight matrix: each input part reads its row block as a
numpy view, and the node keeps a single output array, also relu's mask.

grad drops each node's adjoint once that node's VJP has run, keeping only
those of the wrt nodes, so the sweep holds the adjoints that still await a
consumer rather than one per node (Griewank & Walther, "Evaluating
Derivatives", 2008). Freed memory stays in the process (_keep_freed_heap),
so peak RSS is the largest transient: a step's tape plus its live adjoints.

Every adjoint has one owner. A VJP owns the adjoint it receives and may
overwrite it (linear masks relu in place); each array it returns is new or
a view of that adjoint, never a tape value or a read-only broadcast. grad
keeps the rule: it copies an output that shares memory with one the same
VJP already returned (add's g, g), hands a wrt node's VJP a copy so the
gradient it returns stays intact, and sums fan-in into the adjoint it holds.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, UsageError


def _keep_freed_heap() -> None:
    """Keep freed array memory in the process for reuse (glibc only).

    Every training step allocates and frees tens of MB of same-sized float64
    arrays for its tape. glibc's default thresholds move with the allocation
    history and can hand those pages back to the OS at the end of each step,
    so the next step faults them in again: on the toy model a personalize
    step then ran ~30% slower. A fixed trim threshold and the largest mmap
    threshold make every step reuse the same pages, at ~5% more peak memory.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's maximum on 64-bit


_keep_freed_heap()


class _Node:
    __slots__ = ("op", "parents", "vjp")

    def __init__(self, op: str, parents: tuple, vjp):
        self.op = op
        self.parents = parents
        self.vjp = vjp


class Tape:
    """Append-only record of primitive ops plus their forward values."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.values: list[np.ndarray] = []

    def __len__(self):
        return len(self.nodes)


class Var:
    """A forward value plus its tape node; every Var descends from a leaf."""

    __slots__ = ("tape", "idx", "value")
    __array_ufunc__ = None  # array + Var defers to Var.__radd__

    def __init__(self, tape: Tape, idx: int, value: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.value = value

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def _f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def value(x) -> np.ndarray:
    """The array behind an operand: a Var's forward value, or x as float64."""
    return x.value if isinstance(x, Var) else _f64(x)


def leaf(tape: Tape, value) -> Var:
    """Register a differentiable input array as a tape leaf."""
    value = _f64(value)
    tape.nodes.append(_Node("leaf", (), None))
    tape.values.append(value)
    return Var(tape, len(tape.nodes) - 1, value)


def _node(op: str, val, operands: Sequence, vjp):
    """val as a node of op on its operands' tape, or val itself when no operand is a Var.

    The node's parents are the operands' indices, -1 for an array; vjp maps
    the output adjoint to one gradient per operand (None for any it skips).
    """
    tape = None
    for x in operands:
        if isinstance(x, Var):
            if tape is None:
                tape = x.tape
            elif x.tape is not tape:
                raise UsageError("cannot mix variables from different tapes")
    if tape is None:
        return val
    tape.nodes.append(_Node(op, tuple(x.idx if isinstance(x, Var) else -1 for x in operands),
                            vjp))
    tape.values.append(val)
    return Var(tape, len(tape.nodes) - 1, val)


# ---------------------------------------------------------------------------
# elementwise primitives

def add(a, b):
    """a + b for operands of one shape."""
    av, bv = value(a), value(b)
    if av.shape != bv.shape:
        raise UsageError(f"add: shapes {av.shape} vs {bv.shape}")
    na, nb = isinstance(a, Var), isinstance(b, Var)
    return _node("add", av + bv, (a, b), lambda g: (g if na else None, g if nb else None))


def sub(a, b):
    return add(a, mul(b, -1.0) if isinstance(b, Var) else -_f64(b))


def mul(a, b):
    """Elementwise (Hadamard) product of operands of one shape, or of an
    operand and a constant scalar: an array of shape (), never a Var. Either
    way each operand's gradient has the output's shape, with no reduction."""
    av, bv = value(a), value(b)
    na, nb = isinstance(a, Var), isinstance(b, Var)
    if av.shape != bv.shape and not ((av.shape == () and not na) or (bv.shape == () and not nb)):
        raise UsageError(f"mul: shapes {av.shape} vs {bv.shape}")
    return _node("mul", av * bv, (a, b), lambda g: (g * bv if na else None,
                                                    g * av if nb else None))


def sqrt(a):
    out = np.sqrt(value(a))
    return _node("sqrt", out, (a,), lambda g: (g / (2.0 * out),))


def exp(a):
    out = np.exp(value(a))
    return _node("exp", out, (a,), lambda g: (g * out,))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ev = np.exp(x[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(a):
    out = _stable_sigmoid(value(a))
    return _node("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a):
    av = value(a)
    out = np.maximum(av, 0.0) + np.log1p(np.exp(-np.abs(av)))
    return _node("softplus", out, (a,), lambda g: (g * _stable_sigmoid(av),))


# ---------------------------------------------------------------------------
# linear algebra

def matmul(A, B):
    """A @ B as numpy's @ for matrix @ matrix, matrix @ vector and vector @ matrix."""
    Av, Bv = value(A), value(B)
    if Av.ndim not in (1, 2) or Bv.ndim not in (1, 2) or Av.ndim + Bv.ndim == 2 \
            or Av.shape[-1] != Bv.shape[0]:
        raise UsageError(f"matmul: {Av.shape} @ {Bv.shape}")
    nA, nB = isinstance(A, Var), isinstance(B, Var)

    def vjp(g):
        gA = gB = None
        if nA:
            gA = np.outer(g, Bv) if Bv.ndim == 1 else g @ Bv.T
        if nB:
            gB = np.outer(Av, g) if Av.ndim == 1 else Av.T @ g
        return gA, gB

    return _node("matmul", Av @ Bv, (A, B), vjp)


def linear(parts: Sequence, W, bias, relu: bool = False):
    """[parts[0] | parts[1] | ...] @ W + bias, then max(., 0) if relu: one node.

    Part j takes the next parts[j].shape[-1] rows of W, as a numpy view. The
    first part is a matrix (n, k0), possibly zero-width, and fixes n; later
    parts are matrices (n, kj) or vectors (kj,) shared by every row, and
    zero-width ones are skipped. bias is (m,) for W (sum kj, m). Vector parts
    fold into the bias in order as bias + v @ W_j, matrix products are summed
    in order into the first one's buffer, then the bias is added and relu
    applied in place. The VJP reads the operands and the output only (out > 0
    is relu's mask, with derivative 0 at 0), so a layer keeps one (n, m)
    array on the tape.
    """
    Pvs, Wv, bv = [value(p) for p in parts], value(W), value(bias)
    if not Pvs or Pvs[0].ndim != 2 or Wv.ndim != 2 or bv.shape != Wv.shape[1:] \
            or any(P.ndim not in (1, 2) or P.shape[:-1] not in ((), Pvs[0].shape[:1])
                   for P in Pvs[1:]) or sum(P.shape[-1] for P in Pvs) != Wv.shape[0]:
        raise UsageError(f"linear: {[P.shape for P in Pvs]} @ {Wv.shape} + {bv.shape}")
    # arrays, not Vars, in the closure: a Var refers to its tape, and a
    # tape -> node -> closure -> Var -> tape cycle outlives the step
    keep = [0] + [j for j in range(1, len(Pvs)) if Pvs[j].shape[-1]]
    parts, Pvs = [parts[j] for j in keep], [Pvs[j] for j in keep]
    ends = np.cumsum([P.shape[-1] for P in Pvs])
    Wjs = [Wv[e - P.shape[-1]:e] for P, e in zip(Pvs, ends)]
    nPs, nW, nb = [isinstance(p, Var) for p in parts], isinstance(W, Var), isinstance(bias, Var)
    out = Pvs[0] @ Wjs[0]
    for P, Wj in zip(Pvs[1:], Wjs[1:]):
        if P.ndim == 1:
            bv = bv + P @ Wj
        else:
            out += P @ Wj
    out += bv
    if relu:
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        if relu:
            np.multiply(g, out > 0.0, out=g)
        gs = g.sum(axis=0)
        gW = np.concatenate([P.T @ g if P.ndim == 2 else np.outer(P, gs)
                             for P in Pvs]) if nW else None
        return (*((g if P.ndim == 2 else gs) @ Wj.T if n else None
                  for P, Wj, n in zip(Pvs, Wjs, nPs)), gW, gs if nb else None)

    return _node("linear", out, (*parts, W, bias), vjp)


# ---------------------------------------------------------------------------
# reductions and shape ops

def sum_(a):
    """The sum of every entry of a, a scalar."""
    av = value(a)
    return _node("sum", av.sum(), (a,), lambda g: (np.full(av.shape, g),))


def reshape(a, shape):
    av = value(a)

    def vjp(g):
        return (g.reshape(av.shape),)

    return _node("reshape", av.reshape(shape), (a,), vjp)


# ---------------------------------------------------------------------------
# backward

def grad(tape: Tape, output: Var, wrt: Sequence[Var]) -> list[np.ndarray]:
    """d(output)/d(w) for each w in wrt; output must be a scalar Var of tape.

    Fan-out accumulates by addition, in strictly reverse creation order;
    array operands (parent -1) receive nothing. A node's adjoint is dropped
    once its VJP has run, unless the node is in wrt, so the sweep holds the
    adjoints of the nodes between it and their consumers rather than one per
    node. The tape itself is left as it was: it can be differentiated again.

    Each adjoint has one owner, so the sweep writes in place: a VJP may
    overwrite the adjoint it is handed and returns new arrays or views of
    it; an output sharing memory with an earlier output of the same VJP is
    copied, a wrt node's VJP gets a copy of its adjoint, and fan-in adds
    into the parent's adjoint (adj += pg, the same sum as adj + pg). The
    gradients of distinct wrt nodes share no memory with each other or
    with the tape.
    """
    if not isinstance(output, Var) or output.tape is not tape:
        raise UsageError("grad output must be a Var of this tape")
    if output.value.shape != ():
        raise UsageError(f"grad output must be scalar, got shape {output.value.shape}")
    if any(w.tape is not tape for w in wrt):
        raise UsageError("wrt variable from a different tape")
    keep = {w.idx for w in wrt}
    adj: list = [None] * len(tape.nodes)
    adj[output.idx] = np.ones(())
    for idx in range(output.idx, -1, -1):
        g = adj[idx]
        if g is None:
            continue
        node = tape.nodes[idx]
        if not node.parents:
            continue
        if idx in keep:
            g = g.copy()
        else:
            adj[idx] = None
        handed: list = []
        for pidx, pg in zip(node.parents, node.vjp(g)):
            if pg is None or pidx < 0:
                continue
            if any(np.may_share_memory(pg, h) for h in handed):
                pg = pg.copy()
            handed.append(pg)
            if adj[pidx] is None:
                adj[pidx] = pg
            else:
                adj[pidx] += pg
    return [np.zeros_like(w.value) if adj[w.idx] is None
            else np.asarray(adj[w.idx], dtype=np.float64) for w in wrt]


# ---------------------------------------------------------------------------
# gradient checking

@dataclass
class FiniteDiffReport:
    max_rel_err: float
    max_abs_err: float
    passed: bool


def value_of(f: Callable, params: Sequence[np.ndarray]) -> float:
    """Evaluate f on a fresh tape and return the scalar forward value."""
    tape = Tape()
    out = f(*[leaf(tape, p) for p in params])
    v = float(out.value)
    if not np.isfinite(v):
        raise NumericError("non-finite function value")
    return v


def finite_diff_check(f: Callable, params: Sequence[np.ndarray], step: float = 1e-5,
                      tol: float = 1e-5) -> FiniteDiffReport:
    """Compare tape gradients of f against central finite differences.

    f maps leaf Vars (one per entry of params) to a scalar Var and must be a
    pure function of its inputs. Relative error divides by max(|analytic|,
    |numeric|, 1e-3 g, 1e-8), g the largest |analytic| entry: rounding f puts
    ~eps |f| / step = 2.2e-11 |f| into each numeric entry, which reads
    2.2e-8 |f| / g against 1e-3 g (under tol for |f| < 450 g) but would fail
    a correct entry far below g. Errors above tol * 1e-3 g still fail.
    """
    if step <= 0:
        raise UsageError("step must be positive")
    params = [np.array(p, dtype=np.float64) for p in params]
    tape = Tape()
    vs = [leaf(tape, p) for p in params]
    out = f(*vs)
    if not np.isfinite(out.value):
        raise NumericError("non-finite function value")
    analytic = grad(tape, out, vs)
    floor = max(1e-3 * max(float(np.max(np.abs(a), initial=0.0)) for a in analytic), 1e-8)

    max_rel = max_abs = 0.0
    for pi, p in enumerate(params):
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            fp = value_of(f, params)
            flat[j] = orig - step
            fm = value_of(f, params)
            flat[j] = orig
            numeric = (fp - fm) / (2.0 * step)
            a = analytic[pi].reshape(-1)[j]
            err = abs(a - numeric)
            max_abs = max(max_abs, err)
            max_rel = max(max_rel, err / max(abs(a), abs(numeric), floor))
    return FiniteDiffReport(max_rel_err=max_rel, max_abs_err=max_abs, passed=max_rel < tol)
