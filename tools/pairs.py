#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised in one layout.

Usage, from the repository root:

    python3 tools/pairs.py --parent REV --pairs N [--workload W] --out BENCH_<name>.json

The parent side is the committed tree of REV, unpacked with `git archive`
(local git, no network); the change side is a copy of the working tree's
files, tracked and untracked but not ignored. Each side sits in its own
temporary directory and runs its own, unmodified
`perfbench/run.py --seed 1 [--workload W]`. Pair i runs the parent first
when i is even, the change first when it is odd.

The output holds, for each end-to-end metric that BENCHMARK.json names, both
sides' medians, quartiles and runs in pair order, and the pairs the change
won (ties count for neither side); each check's passing runs per side; each
digest's values per side, and whether they are equal across runs and sides;
every run's exit code, correctness, operation counts and wall time; both
commits; and the machine. It rules on nothing: the bounds stay
BENCHMARK.json's and the claim stays the reader's.

--precompile also runs each side once more in every pair, from a second
copy whose `src/` and `perfbench/` modules were compiled in advance into
their own `__pycache__`, and adds a `precompiled` block: the same summary
over those runs, and each workload's change-minus-parent `peak_rss_mb`
median without and with the precompiled modules. Benchmark runs write no
bytecode, so every plain run compiles every module of the repository; the
block shows whether the peak follows that compilation or the code that
runs. (A PYTHONPYCACHEPREFIX would not do: it moves the bytecode lookup of
numpy and the standard library too, so they would be compiled from source
in every run.) The plain runs alone are the claim's runs, since the
benchmark itself is run plainly.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_run(stdout: str, workload: str | None) -> dict:
    """One run.py output as {correct, attempted, failed, metrics, checks, digests, blas_threads}.

    Metric, check and digest names are prefixed with their workload: run.py
    prints a `workload W ...` line before each workload's checks and
    digests, and prefixes its merged metrics itself when it runs all three.
    """
    lines = stdout.strip().splitlines()
    last = json.loads(lines[-1])
    run = {"correct": bool(last["correct"]), "attempted": int(last["attempted"]),
           "failed": int(last["failed"]), "checks": {}, "digests": {},
           "blas_threads": None,
           "metrics": {(f"{workload}.{k}" if workload else k): float(m["value"])
                       for k, m in last["metrics"].items()}}
    current = workload
    for line in lines[:-1]:
        word = line.split()
        if len(word) >= 6 and word[0] == "workload" and word[4] == "blas_threads":
            current, run["blas_threads"] = word[1], int(word[5])
        elif len(word) >= 3 and word[0] == "check":
            run["checks"][f"{current}.{word[1]}"] = word[2] == "ok"
        elif len(word) == 3 and word[0] == "digest":
            run["digests"][f"{current}.{word[1]}"] = word[2]
    return run


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def _side_summary(runs: list) -> dict:
    present = [x for x in runs if x is not None]
    if not present:
        return {"median": None, "q1": None, "q3": None, "runs_in_pair_order": runs}
    q1, med, q3 = quartiles(present)
    return {"median": med, "q1": q1, "q3": q3, "runs_in_pair_order": runs}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """End-to-end, check and digest summaries of runs {"parent": [...], "change": [...]}.

    Each side's list holds one parsed run (or None for a run that produced
    no result) per pair, in pair order. metrics are BENCHMARK.json's
    end_to_end entries; `better` says which way a change wins a pair.
    """
    out = {"end_to_end": {}, "checks": {}, "digests": {}}
    names = sorted({k for side in SIDES for r in runs[side] if r for k in r["metrics"]})
    better = {m["name"]: m["better"] for m in metrics}
    for key in names:
        workload, _, metric = key.rpartition(".")
        if metric not in better:
            continue
        vals = {side: [r["metrics"].get(key) if r else None for r in runs[side]]
                for side in SIDES}
        sign = 1.0 if better[metric] == "higher" else -1.0
        wins = sum(1 for p, c in zip(vals["parent"], vals["change"])
                   if p is not None and c is not None and sign * (c - p) > 0)
        entry = {side: _side_summary(vals[side]) for side in SIDES}
        entry["change_wins"] = wins
        entry["pairs_compared"] = sum(1 for p, c in zip(vals["parent"], vals["change"])
                                      if p is not None and c is not None)
        out["end_to_end"].setdefault(workload, {})[metric] = entry
    for key in sorted({k for side in SIDES for r in runs[side] if r for k in r["checks"]}):
        out["checks"][key] = {f"{side}_ok": sum(1 for r in runs[side] if r and r["checks"].get(key))
                              for side in SIDES}
        out["checks"][key]["runs_per_side"] = len(runs["parent"])
    for key in sorted({k for side in SIDES for r in runs[side] if r for k in r["digests"]}):
        seen = {side: sorted({r["digests"][key] for r in runs[side] if r and key in r["digests"]})
                for side in SIDES}
        out["digests"][key] = {**seen,
                               "equal_across_runs": all(len(seen[s]) == 1 for s in SIDES),
                               "equal_across_sides": len(seen["parent"]) == 1
                               and seen["parent"] == seen["change"]}
    return out


def peak_rss_steps(plain: dict, precompiled: dict) -> dict:
    """Each workload's change-minus-parent peak_rss_mb median, plain and precompiled."""
    steps = {}
    for workload in plain["end_to_end"]:
        peaks = {mode: s["end_to_end"].get(workload, {}).get("peak_rss_mb")
                 for mode, s in (("plain", plain), ("precompiled", precompiled))}
        steps[workload] = {mode: m["change"]["median"] - m["parent"]["median"]
                           for mode, m in peaks.items()
                           if m and None not in (m["change"]["median"], m["parent"]["median"])}
    return steps


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def _unpack_commit(rev: str, dest: str) -> None:
    """The committed files of rev in dest, from `git archive`."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev], check=True,
                         stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        if hasattr(tarfile, "data_filter"):
            tf.extractall(dest, filter="data")
        else:
            tf.extractall(dest)


def _copy_working_tree(dest: str) -> dict:
    """The working tree's tracked and untracked, not ignored, files in dest.

    Returns the commit they sit on and whether they differ from it, read
    when they are copied: the tree may change while the pairs run.
    """
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))
    return {"commit": _git("rev-parse", "HEAD").strip(),
            "working_tree_differs": bool(_git("status", "--porcelain").strip()),
            "benchmarked": "a copy of the working tree's tracked and untracked files"}


def _env() -> dict:
    """This process's environment without a PYTHONPYCACHEPREFIX, which would
    move where every module's bytecode is read and written."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}


def _precompiled_copy(root: str, dest: str) -> None:
    """root's files in dest, with src/ and perfbench/ compiled into __pycache__."""
    shutil.copytree(root, dest)
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(dest, "src"), os.path.join(dest, "perfbench")],
                   check=True, env=_env(), stdout=subprocess.DEVNULL)


def _run(root: str, workload: str | None) -> tuple[dict, dict | None]:
    """One run.py in root: (its record, its parsed output or None)."""
    cmd = [sys.executable, "perfbench/run.py", "--seed", "1"]
    if workload:
        cmd += ["--workload", workload]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    record = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - t0, 3)}
    parsed = None
    if proc.returncode == 0:
        try:
            parsed = parse_run(proc.stdout, workload)
        except (ValueError, KeyError, IndexError) as e:
            record["error"] = f"unreadable output: {e}"
    else:
        tail = proc.stderr.strip().splitlines()
        record["error"] = tail[-1] if tail else "no output"
    if parsed:
        record.update({k: parsed[k] for k in ("correct", "attempted", "failed")})
    return record, parsed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--workload", choices=("gen", "train", "eval"), default=None,
                   help="one workload (default: all three)")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--precompile", action="store_true",
                   help="also run each side with its modules compiled in advance")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir) or os.path.isdir(args.out):
        p.error(f"--out {args.out}: not a file in an existing directory")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}").strip()
    except subprocess.CalledProcessError:
        print(f"error: --parent {args.parent} names no commit", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    modes = ("plain", "precompiled") if args.precompile else ("plain",)
    tmp = tempfile.mkdtemp(prefix="pairs-")
    try:
        roots = {(mode, side): os.path.join(tmp, mode, side) for mode in modes for side in SIDES}
        _unpack_commit(parent, roots["plain", "parent"])
        change = _copy_working_tree(roots["plain", "change"])
        if args.precompile:
            for side in SIDES:
                _precompiled_copy(roots["plain", side], roots["precompiled", side])
        records = []
        parsed = {mode: {side: [] for side in SIDES} for mode in modes}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for mode in modes:
                for side in order:
                    rec, run = _run(roots[mode, side], args.workload)
                    records.append({"pair": i, "side": side, "mode": mode, **rec})
                    parsed[mode][side].append(run)
                    print(f"pair {i} {mode} {side}: exit {rec['exit']} "
                          f"correct {rec.get('correct')} {rec['wall_s']} s", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = summarize(parsed["plain"], metrics)
    threads = sorted({r["blas_threads"] for m in modes for s in SIDES
                      for r in parsed[m][s] if r and r["blas_threads"] is not None})
    report = {
        "command": "python3 perfbench/run.py --seed 1"
                   + (f" --workload {args.workload}" if args.workload else ""),
        "pairs": args.pairs,
        "order": "alternating; the parent runs first in even pairs (0, 2, ...)",
        "parent": {"rev": args.parent, "commit": parent},
        "change": change,
        "machine": {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
                    "blas_threads": threads, "python": platform.python_version()},
        "runs": records,
        "failed_operations": {side: sum(r.get("failed", 0) for r in records
                                        if r["side"] == side) for side in SIDES},
        "all_correct": {side: all(r.get("correct") is True for r in records
                                  if r["side"] == side) for side in SIDES},
        **plain,
    }
    if args.precompile:
        pre = summarize(parsed["precompiled"], metrics)
        report["precompiled"] = {**pre, "peak_rss_mb_change_minus_parent":
                                 peak_rss_steps(plain, pre)}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
