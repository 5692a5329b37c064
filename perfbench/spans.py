"""Span tracer that times minerf's public functions from outside the package.

`Tracer.install()` replaces each function listed in TRACED with a wrapper in
every minerf module namespace that binds it: trainer imports pixel_rng,
stratified_t, hierarchical_resample, render_image, positional_encode,
forward_encoded and field_forward_np by name, synthscene imports render_image,
metrics imports render_gt_frame and cli imports the dataset functions, so
patching only the defining module would miss those calls.

Spans (name, start, end, parent, phase) are kept in flat arrays in memory and
written out once, when the run ends. A span's self time is its duration minus
the time covered by its child spans; calls are strictly nested because every
workload is a single thread.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

TRACED = {
    "renderer": ("pixel_rng", "stratified_t", "hierarchical_resample",
                 "composite_batch", "render_image"),
    "synthscene": ("analytic_field", "render_gt_frame", "save_dataset", "load_dataset",
                   "dataset_checksum"),
    "ppm": ("write_ppm", "read_ppm"),
    "field": ("positional_encode", "forward_encoded", "field_forward_np"),
    "conditioning": ("variant_forward", "variant_value"),
    "autodiff": ("grad",),
    "trainer": ("train", "personalize", "composite_rays_tape", "adam_step",
                "render_model_frame", "save_checkpoint", "load_checkpoint"),
    "metrics": ("psnr", "ssim", "transfer_eval", "evaluate_images", "transfer_matrix"),
}

# every op name autodiff.Tape records today; anything else lands in "other"
TAPE_OPS = ("leaf", "const", "add", "mul", "neg", "scale", "square", "sqrt", "exp",
            "sin", "cos", "relu", "sigmoid", "softplus", "matvec", "matmul", "sum",
            "mean", "concat", "slice", "reshape", "tile_rows")

# per-layer metrics: busy time as a share of one set-up plus one timed round
INCLUSIVE_PCT = (
    "renderer.pixel_rng", "renderer.stratified_t", "renderer.hierarchical_resample",
    "renderer.composite_batch", "synthscene.save_dataset", "synthscene.dataset_checksum",
    "synthscene.load_dataset", "ppm.write_ppm", "ppm.read_ppm", "field.positional_encode",
    "field.forward_encoded", "conditioning.variant_forward", "conditioning.variant_value",
    "autodiff.grad", "trainer.train", "trainer.personalize", "trainer.composite_rays_tape",
    "trainer.adam_step", "trainer.save_checkpoint", "trainer.load_checkpoint",
    "metrics.psnr", "metrics.ssim")
SELF_PCT = ("renderer.render_image", "synthscene.analytic_field", "field.field_forward_np",
            "trainer.render_model_frame", "metrics.transfer_eval")
# work counts per set-up plus round: (metric name, unit)
COUNTS = (
    ("renderer.pixel_rng.calls", "count"),
    ("renderer.stratified_t.calls", "count"),
    ("renderer.hierarchical_resample.calls", "count"),
    ("renderer.composite_batch.samples", "count"),
    ("synthscene.analytic_field.points", "count"),
    ("ppm.write_ppm.calls", "count"),
    ("ppm.write_ppm.bytes", "B"),
    ("field.positional_encode.points", "count"),
    ("field.forward_encoded.points", "count"),
    ("field.field_forward_np.points", "count"),
    ("autodiff.grad.calls", "count"),
    ("trainer.composite_rays_tape.calls", "count"),
    ("trainer.adam_step.calls", "count"),
    ("trainer.save_checkpoint.bytes", "B"),
)


def mlp_flops_per_point(arch) -> int:
    """Forward multiply-add FLOPs of the field MLP's per-point matmuls.

    The conditioning and latent blocks of the first layer are folded into a
    bias once per call, so only the encoded-point block counts per point.
    """
    h, ch = arch.hidden, arch.color_hidden
    macs = (arch.d_in if arch.has_skip else arch.d_enc_x) * h
    for j in range(1, arch.layers):
        macs += (h + (arch.d_in if arch.has_skip and j == 4 else 0)) * h
    macs += h  # density head
    if arch.color_layers:
        macs += arch.d_in_color * ch + (arch.color_layers - 1) * ch * ch + ch * 3
    else:
        macs += arch.d_in_color * 3
    return 2 * macs


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return shape[0] if len(shape) == 2 else 1


class Tracer:
    """Records spans of wrapped calls while `phase` is "setup" or "timed"."""

    PHASES = ("setup", "timed")

    def __init__(self):
        self.phase = None  # None: wrappers pass straight through
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_phase = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts = {p: Counter() for p in self.PHASES}
        self.tape_peak = None  # (nodes, bytes, Counter of ops) of the largest tape
        self.phase_wall = {p: 0.0 for p in self.PHASES}
        self.phase_reps = {p: 0 for p in self.PHASES}

    # -- wrapping -----------------------------------------------------------

    def install(self):
        import minerf.cli  # noqa: F401  (imports every minerf module)

        modules = [m for n, m in sys.modules.items()
                   if n == "minerf" or n.startswith("minerf.")]
        hooks = self._hooks()
        for modname, fnames in TRACED.items():
            mod = sys.modules[f"minerf.{modname}"]
            for fname in fnames:
                qual = f"{modname}.{fname}"
                orig = getattr(mod, fname)
                wrapped = self._wrap(qual, orig, *hooks.get(qual, (None, None)))
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapped)

    def _hooks(self):
        def count_key(key, fn):
            def hook(tr, args, kwargs, out):
                tr.counts[tr.phase][key] += fn(args, kwargs, out)
            return hook

        def field_hook(points_key, x_index, x_name):
            def hook(tr, args, kwargs, out):
                n = _rows(_arg(args, kwargs, x_index, x_name))
                tr.counts[tr.phase][points_key] += n
                tr.counts[tr.phase]["field.mlp_flop"] += n * mlp_flops_per_point(
                    _arg(args, kwargs, 0, "arch"))
            return hook

        def file_size(i, name):
            return lambda a, k, out: os.path.getsize(_arg(a, k, i, name))

        return {
            "renderer.composite_batch": (None, count_key(
                "renderer.composite_batch.samples", lambda a, k, o: _arg(a, k, 0, "ts").size)),
            "synthscene.analytic_field": (None, count_key(
                "synthscene.analytic_field.points", lambda a, k, o: _rows(_arg(a, k, 3, "X")))),
            "ppm.write_ppm": (None, count_key("ppm.write_ppm.bytes", file_size(0, "path"))),
            "field.positional_encode": (None, count_key(
                "field.positional_encode.points", lambda a, k, o: _rows(_arg(a, k, 0, "p")))),
            "field.forward_encoded": (None, field_hook("field.forward_encoded.points", 4, "enc_x")),
            "field.field_forward_np": (None, field_hook("field.field_forward_np.points", 4, "X")),
            "autodiff.grad": (self._read_tape, None),
            "trainer.save_checkpoint": (None, count_key(
                "trainer.save_checkpoint.bytes", file_size(0, "path"))),
        }

    def _read_tape(self, args, kwargs):
        tape = _arg(args, kwargs, 0, "tape")
        roots = {}
        for v in tape.values:
            base = v
            while getattr(base, "base", None) is not None:
                base = base.base
            roots[id(base)] = base.nbytes  # views share their base's buffer
        nodes = len(tape.nodes)
        if self.tape_peak is None or nodes > self.tape_peak[0]:
            ops = Counter(n.op if n.op in TAPE_OPS else "other" for n in tape.nodes)
            self.tape_peak = (nodes, sum(roots.values()), ops)

    def _wrap(self, qual, fn, before, after):
        if qual not in self._name_ids:
            self._name_ids[qual] = len(self.names)
            self.names.append(qual)
        nid = self._name_ids[qual]
        calls_key = f"{qual}.calls"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_phase.append(0 if phase == "setup" else 1)
            self.span_end.append(0.0)
            stack.append(idx)
            self.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                stack.pop()
            self.counts[phase][calls_key] += 1
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    # -- phases -------------------------------------------------------------

    def run_phase(self, phase, fn, *args):
        """Run fn(*args) with spans tagged `phase`; its wall time is the share base."""
        self.phase = phase
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.phase_wall[phase] += time.perf_counter() - t0
            self.phase_reps[phase] += 1
            self.phase = None

    # -- results ------------------------------------------------------------

    def _per_name_times(self):
        """{phase: {name: (inclusive_s, self_s)}} over all recorded spans."""
        child = defaultdict(float)
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {p: defaultdict(lambda: [0.0, 0.0]) for p in self.PHASES}
        for i in range(n):
            acc = out[self.PHASES[self.span_phase[i]]][self.names[self.span_name[i]]]
            acc[0] += dur[i]
            acc[1] += dur[i] - child[i]
        return out

    def _per_round(self, per_phase):
        """One set-up plus one timed round: each phase's total over its repetitions."""
        return sum(per_phase[p] / self.phase_reps[p] for p in self.PHASES
                   if self.phase_reps[p])

    def layer_metrics(self) -> dict:
        times = self._per_name_times()
        wall = self._per_round(self.phase_wall)

        def count(key):
            return self._per_round({p: self.counts[p][key] for p in self.PHASES})

        def seconds(qual, which):
            return self._per_round({p: times[p][qual][which] if qual in times[p] else 0.0
                                    for p in self.PHASES})

        m = {}
        for name, unit in COUNTS:
            n = count(name)
            m[name] = (int(n) if n == int(n) else n, unit)
        for qual in INCLUSIVE_PCT:
            m[f"{qual}.pct"] = (100.0 * seconds(qual, 0) / wall, "%")
        for qual in SELF_PCT:
            m[f"{qual}.self_pct"] = (100.0 * seconds(qual, 1) / wall, "%")
        gflop = count("field.mlp_flop") / 1e9
        mlp_s = seconds("field.forward_encoded", 0) + seconds("field.field_forward_np", 0)
        m["field.mlp_gflop"] = (gflop, "GFLOP")
        m["field.mlp_gflop_per_s"] = (gflop / mlp_s if mlp_s else 0.0, "GFLOP/s")
        nodes, nbytes, ops = self.tape_peak or (0, 0, Counter())
        m["autodiff.tape_nodes"] = (nodes, "count")
        m["autodiff.tape_mb"] = (nbytes / 2**20, "MB")
        for op in TAPE_OPS + ("other",):
            m[f"autodiff.nodes.{op}"] = (ops[op], "count")
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write(self, path):
        """Write every span as parallel arrays; times are perf_counter seconds."""
        with open(path, "w") as f:
            json.dump({"names": self.names, "phases": list(self.PHASES),
                       "name": self.span_name.tolist(), "parent": self.span_parent.tolist(),
                       "phase": self.span_phase.tolist(), "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, f)
