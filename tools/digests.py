#!/usr/bin/env python3
"""Every output file of a fixed tiny run, digested on a parent commit and on the working tree.

Usage, from the repository root:

    python3 tools/digests.py --parent REV [--out FILE]

The parent side is the committed tree of REV and the change side a copy of
the working tree, made as tools/pairs.py makes them. In each side's copy the
copy's own CLI runs as subprocesses (`python -m minerf.cli` with that copy's
`src/` first on PYTHONPATH), on the TINY config of tests/test_cli.py at seed 0
with train.steps=8 and train.eval_every=4:

- gen-data;
- an 8-step train of every conditioning._TABLE row, with its metrics CSV
  (LatentInM with conditioning.k=8);
- a 3-step personalize of id01, then render --depth, transfer, eval and
  inspect, each from the M checkpoint.

It prints and writes each file's sha256 per side, whether the two sides are
equal, and each command's exit code per side. A checkpoint's digest covers
its header, CRC32 included. It rules on nothing: the change states which
bytes it expected to change.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

from pairs import ROOT, SIDES, _copy_working_tree, _env, _git, _unpack_commit

SETS = ["seed=0", "train.steps=8", "train.eval_every=4"]
ROW_SETS = {"LatentInM": ["conditioning.k=8"]}


def tiny_config() -> dict:
    """The TINY dict of the working tree's tests/test_cli.py, read without importing it."""
    with open(os.path.join(ROOT, "tests", "test_cli.py")) as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TINY"]:
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py defines no TINY")


def commands(variants) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) in run order; paths are relative to the side's output dir."""
    sets = [a for s in SETS for a in ("--set", s)]
    cmds = [("gen-data", ["gen-data", "--config", "cfg.json", *sets, "--out", "data"])]
    for v in variants:
        row = [a for s in [f"conditioning.variant={v}", *ROW_SETS.get(v, [])]
               for a in ("--set", s)]
        cmds.append((f"train {v}", ["train", "--config", "cfg.json", *sets, *row, "--data", "data",
                                    "--out", f"train-{v}.ckpt", "--metrics", f"train-{v}.csv"]))
    ckpt = ["--ckpt", "train-M.ckpt"]
    cmds += [("personalize", ["personalize", *ckpt, "--data", "data", "--identity", "id01",
                              "--steps", "3", "--out", "personalize-id01.ckpt"]),
             ("render", ["render", *ckpt, "--data", "data", "--identity", "id00",
                         "--frames", "0:2", "--depth", "--out", "render"]),
             ("transfer", ["transfer", *ckpt, "--data", "data", "--identity", "id00",
                           "--expr-from", "id01", "--frames", "0:2", "--out", "transfer"]),
             ("eval", ["eval", *ckpt, "--data", "data", "--out", "eval"]),
             ("inspect", ["inspect", *ckpt, "--matrix", "W2", "--out", "inspect-W2.csv"])]
    return cmds


def _variants(root: str) -> list[str]:
    """The conditioning rows of the code in root, in table order."""
    out = subprocess.run([sys.executable, "-c", "from minerf.conditioning import VARIANTS; "
                          "print(' '.join(VARIANTS))"], cwd=root, env=_side_env(root),
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    return out.split()


def _side_env(root: str) -> dict:
    return {**_env(), "PYTHONPATH": os.path.join(root, "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def sha256_tree(top: str) -> dict[str, str]:
    """Relative path -> sha256 of every file under top, the config file left out."""
    digests = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, top).replace(os.sep, "/")
            if rel != "cfg.json":
                with open(path, "rb") as f:
                    digests[rel] = hashlib.sha256(f.read()).hexdigest()
    return digests


def run_side(root: str, work: str, cfg: dict, cmds) -> tuple[dict, dict]:
    """Run cmds with root's CLI in the empty dir work: ({name: exit code}, file digests)."""
    with open(os.path.join(work, "cfg.json"), "w") as f:
        json.dump(cfg, f)
    exits = {}
    for name, argv in cmds:
        proc = subprocess.run([sys.executable, "-m", "minerf.cli", *argv], cwd=work,
                              env=_side_env(root), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        exits[name] = proc.returncode
        tail = proc.stderr.strip().splitlines()
        print(f"{os.path.basename(root)} {name}: exit {proc.returncode}"
              + (f" ({tail[-1]})" if proc.returncode and tail else ""), file=sys.stderr)
    return exits, sha256_tree(work)


def summarize(digests: dict, exits: dict) -> dict:
    """Per-file and per-command comparison of {"parent": ..., "change": ...} sides.

    digests maps each side to {path: sha256}; exits maps each side to
    {command: exit code}. A file missing on a side has digest None there.
    """
    files = {}
    for path in sorted(set(digests["parent"]) | set(digests["change"])):
        p, c = digests["parent"].get(path), digests["change"].get(path)
        files[path] = {"parent": p, "change": c, "equal": p is not None and p == c}
    cmds = {name: {side: exits[side].get(name) for side in SIDES}
            for name in dict.fromkeys([*exits["parent"], *exits["change"]])}
    return {"files": files, "commands": cmds,
            "equal": sum(f["equal"] for f in files.values()),
            "differ": [p for p, f in files.items() if not f["equal"]],
            "failed_commands": [n for n, e in cmds.items() if any(e[s] != 0 for s in SIDES)]}


def report_lines(summary: dict) -> list[str]:
    """The summary as text: counts, then each differing file and each failed command."""
    lines = [f"{summary['equal']} of {len(summary['files'])} files equal, "
             f"{len(summary['differ'])} differ"]
    for path in summary["differ"]:
        f = summary["files"][path]
        where = ("only on the change side" if f["parent"] is None
                 else "only on the parent side" if f["change"] is None else "differs")
        lines.append(f"  {path}: {where}")
    for name in summary["failed_commands"]:
        e = summary["commands"][name]
        lines.append(f"  command {name}: exit parent {e['parent']}, change {e['change']}")
    return lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="commit to compare against")
    p.add_argument("--out", default=None, help="JSON file to write")
    args = p.parse_args(argv)
    if args.out is not None:
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
    cfg = tiny_config()
    tmp = tempfile.mkdtemp(prefix="digests-")
    try:
        roots = {side: os.path.join(tmp, "src", side) for side in SIDES}
        _unpack_commit(parent, roots["parent"])
        change = _copy_working_tree(roots["change"])
        cmds = commands(_variants(roots["change"]))
        exits, digests = {}, {}
        for side in SIDES:
            work = os.path.join(tmp, "out", side)
            os.makedirs(work)
            exits[side], digests[side] = run_side(roots[side], work, cfg, cmds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary = summarize(digests, exits)
    print("\n".join(report_lines(summary)))
    if args.out:
        report = {"parent": {"rev": args.parent, "commit": parent}, "change": change,
                  "config": cfg, "argv": dict(cmds), **summary}
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
