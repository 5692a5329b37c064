#!/usr/bin/env python3
"""minerf benchmark: `gen`, `train` and `eval` workloads, one process each.

Usage, from the repository root:

    python3 perfbench/run.py --workload gen --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1          # all three, one process each

A run prints each metric as `name value unit`, the output checks and
digests, and, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics untraced (`--trace 0`), the
per-layer metrics traced (`--trace 1`). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("gen", "train", "eval")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int:
    """Two BLAS threads, or fewer when the process may use fewer cores."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES, default=None,
                   help="one workload (default: all three, each in its own process)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_digest() -> str:
    """Hash of the program and benchmark sources, so digests of another commit never mix."""
    h = hashlib.sha256()
    for sub in (os.path.join(ROOT, "src", "minerf"), HERE):
        for name in sorted(os.listdir(sub)):
            if name.endswith(".py"):
                with open(os.path.join(sub, name), "rb") as f:
                    h.update(name.encode() + f.read())
    return h.hexdigest()[:16]


def compare_digests(workload, seed, digests) -> list[str]:
    """Check output digests against earlier runs of this source with the same seed."""
    store = os.path.join(OUT, "digests")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{source_digest()}-{workload}-{seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            earlier = json.load(f)
        return [f"{k} differs from an earlier run: {earlier[k]} vs {v}"
                for k, v in digests.items() if earlier.get(k, v) != v]
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(digests, f, sort_keys=True)
    os.replace(tmp, path)
    return []


def run_one(args) -> int:
    for var in BLAS_ENV:  # read once, when numpy loads OpenBLAS
        os.environ[var] = str(blas_threads())
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    src = os.path.join(ROOT, "src", "minerf")
    try:
        import minerf.cli  # noqa: F401
        if os.path.dirname(os.path.abspath(minerf.__file__)) != src:
            raise ImportError(f"found minerf at {minerf.__file__} instead")
    except ImportError as e:
        print(f"error: cannot import minerf from {src}: {e}", file=sys.stderr)
        return 2
    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    tmp = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp)
    res = workloads.Result()
    try:
        workloads.WORKLOADS[args.workload](
            {"seed": args.seed, "seconds": args.seconds, "tracer": tracer,
             "tmp": Path(tmp), "import_s": import_s}, res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res.problems += compare_digests(args.workload, args.seed, res.digests)

    print(f"workload {args.workload} seed {args.seed} blas_threads {blas_threads()}")
    for line in res.lines:
        print(line)
    for k, v in sorted(res.digests.items()):
        print(f"digest {k} {v}")
    if tracer:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        metrics = tracer.layer_metrics()
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}
    for k, m in metrics.items():
        print(f"{k} {m['value']!r} {m['unit']}")
    for p in res.problems:
        print(f"problem: {p}")
    print(json.dumps({"correct": not res.problems, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        for line in lines[:-1]:
            print(line)
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        for k, m in last["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
