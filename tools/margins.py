#!/usr/bin/env python3
"""Acceptance criterion 6's transfer scores over many seeds, with their margins.

Usage, from the repository root:

    python3 tools/margins.py --seeds 0-10 [--variants M,Baseline,A4,H] \\
        [--set KEY=VALUE ...] --out FILE

For each seed and variant it runs the criterion's own recipe,
`_ordering_run` of tests/test_acceptance.py under its ORDERING_SETS, with
any --set values appended, so the sweep and the gate cannot drift apart.
--seeds takes ranges and lists (`0-10`, `0,3,5-7`).

It writes the per-seed scores, the margin of M over each other variant per
seed with its mean and sample standard deviation, how many seeds each of
the criterion's two orderings holds on, how many triples of the seeds pass
the criterion's two-of-three rule, the commit and the wall time. It rules on
nothing: the gate's seeds, sets and rule stay in tests/test_acceptance.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_acceptance import ORDERING_SETS, _ordering_run  # noqa: E402

ORDERINGS = {"M >= Baseline": lambda s: s["M"] >= s["Baseline"],
             "A4 < M": lambda s: s["A4"] < s["M"]}


def parse_seeds(text: str) -> list[int]:
    """'0-10' or '0,3,5-7' as a sorted list of distinct seeds."""
    seeds = set()
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        if not lo.isdigit() or (sep and not hi.isdigit()):
            raise ValueError(f"not a seed or seed range: {part!r}")
        seeds.update(range(int(lo), int(hi if sep else lo) + 1))
    if not seeds:
        raise ValueError("no seeds")
    return sorted(seeds)


def summarize(scores: dict[int, dict[str, float]]) -> dict:
    """Margins, ordering counts and passing triples of {seed: {variant: score}}.

    A margin is M's score minus another variant's, for each variant besides M.
    The orderings and the triples need M, Baseline and A4; without them they
    are left out. A triple passes when each ordering holds on two of its
    three seeds, criterion 6's rule.
    """
    seeds = sorted(scores)
    variants = list(scores[seeds[0]])
    out: dict = {"margins": {}}
    if "M" in variants:
        for v in variants:
            if v == "M":
                continue
            per_seed = [scores[s]["M"] - scores[s][v] for s in seeds]
            out["margins"][f"M - {v}"] = {
                "per_seed": per_seed, "mean": statistics.fmean(per_seed),
                "sd": statistics.stdev(per_seed) if len(per_seed) > 1 else None}
    if {"M", "Baseline", "A4"} <= set(variants):
        holds = {name: {s: bool(rule(scores[s])) for s in seeds}
                 for name, rule in ORDERINGS.items()}
        out["orderings"] = {name: {"seeds": [s for s in seeds if h[s]], "count": sum(h.values()),
                                   "of": len(seeds)} for name, h in holds.items()}
        triples = list(itertools.combinations(seeds, 3))
        passing = [t for t in triples if all(sum(h[s] for s in t) >= 2 for h in holds.values())]
        out["passing_triples"] = {"count": len(passing), "of": len(triples)}
    return out


def table_lines(scores: dict[int, dict[str, float]]) -> list[str]:
    """The per-seed scores as a markdown table, two decimals."""
    variants = list(scores[min(scores)])
    lines = ["| seed | " + " | ".join(variants) + " |", "|---" * (len(variants) + 1) + "|"]
    for s in sorted(scores):
        lines.append(f"| {s} | " + " | ".join(f"{scores[s][v]:.2f}" for v in variants) + " |")
    return lines


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="seeds, e.g. 0-10 or 0,3,5-7")
    p.add_argument("--variants", default="M,Baseline,A4,H",
                   help="comma-separated conditioning variants (default: M,Baseline,A4,H)")
    p.add_argument("--set", dest="sets", action="append", default=[], metavar="KEY=VALUE",
                   help="config value appended to ORDERING_SETS (repeatable)")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    try:
        args.seeds = parse_seeds(args.seeds)
    except ValueError as e:
        p.error(f"--seeds: {e}")
    args.variants = [v for v in args.variants.split(",") if v]
    if not args.variants or len(set(args.variants)) != len(args.variants):
        p.error("--variants: give distinct variants")
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir) or os.path.isdir(args.out):
        p.error(f"--out {args.out}: not a file in an existing directory")
    return args


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    scores: dict[int, dict[str, float]] = {}
    run_wall = {}
    for seed in args.seeds:
        scores[seed] = {}
        for v in args.variants:
            t0 = time.perf_counter()
            scores[seed][v] = _ordering_run(v, seed, args.sets)
            run_wall[f"{seed} {v}"] = round(time.perf_counter() - t0, 2)
            print(f"seed {seed} {v}: {scores[seed][v]:.4f} dB ({run_wall[f'{seed} {v}']} s)",
                  file=sys.stderr)
    print("\n".join(table_lines(scores)))
    report = {
        "command": "python3 tools/margins.py " + " ".join(argv if argv is not None
                                                          else sys.argv[1:]),
        "seeds": args.seeds, "variants": args.variants,
        "sets": ORDERING_SETS + args.sets,
        "commit": _git("rev-parse", "HEAD"),
        "working_tree_differs": bool(_git("status", "--porcelain")),
        "scores": {str(s): scores[s] for s in args.seeds},
        **summarize(scores),
        "wall_s": round(time.perf_counter() - t_start, 1),
        "run_wall_s": run_wall,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
