"""Compare perfbench's end-to-end metrics between two checkouts, in pairs.

    python3 tools/ab.py PARENT CHANGE --workload wide_server --seed 1 --pairs 10 --seconds 40

PARENT and CHANGE are checkout roots. Each pair runs
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` once from
each root, in a fresh process; even pairs run PARENT first and odd pairs
CHANGE first, so a drift of the host's speed falls on both sides alike. For
each metric of PARENT's BENCHMARK.json it prints each side's median and
quartiles, the change's median against the parent's, how many pairs the
change won (was better in, by the metric's direction), and whether the
change meets "better in at least 9 of 10 pairs, with a median gap larger
than the parent's interquartile range". The last line is one JSON object
with every run's values. Standard library only.

peak_rss_mb depends on the length of the directory a checkout runs from, so
give both checkouts directory names of the same length.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's result line for one run from root: correct, attempted,
    failed and metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab: {' '.join(cmd)} in {root} exited with {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile) of values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list, change: list, lower_is_better: bool) -> dict:
    """Paired comparison of one metric: parent[i] and change[i] are pair i's
    values."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    gap = pm - cm if lower_is_better else cm - pm  # > 0: the change is better
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "rel": (cm - pm) / pm if pm else float("nan"), "wins": wins,
            "holds": wins >= 0.9 * len(parent) and gap > p3 - p1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(roots["parent"])) != len(str(roots["change"])):
        print("ab: the checkouts' paths differ in length, which moves peak_rss_mb",
              file=sys.stderr)
    metrics = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(roots[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"pair {i} {side:<6} correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {json.dumps(values)}", file=sys.stderr, flush=True)

    n = args.pairs
    print(f"{args.workload} seed {args.seed}: {n} pairs, --seconds {args.seconds:g}")
    print(f"{'metric':<14} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28} "
          f"{'change':>8} {'wins':>6}  9/10 and gap > parent IQR")
    for m in metrics:
        name = m["name"]
        c = compare([r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]],
                    m["better"] == "lower")
        sides = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*c[side]) for side in ("parent", "change")]
        print(f"{name:<14} {sides[0]:>28} {sides[1]:>28} {c['rel']:>+8.1%} "
              f"{c['wins']:>3}/{n:<2}  {'holds' if c['holds'] else 'does not hold'}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    correct = {side: all(r["correct"] for r in rs) for side, rs in runs.items()}
    print(f"correct {correct}  failed operations {failed}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "correct": correct,
                      "failed": failed,
                      "values": {side: [{k: v["value"] for k, v in r["metrics"].items()}
                                        for r in rs] for side, rs in runs.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
