"""fairdpfed benchmark: one workload, one seed, one fresh child process.

    python3 perfbench/run.py --workload cross_device_lr --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The child process (child.py) imports
fairdpfed from ``src/``, generates the workload's config from the seed, runs
the workload's CLI command in-process over and over for ``--seconds``, and
checks every operation's artifacts against reference.json. This script
prints each metric by name with its unit, then, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` (operations whose exit code
was not 0 or whose outputs did not match) and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones from a traced run. Run files, results and the trace's
spans go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# the whole benchmark, child included, must end within this many seconds
DEADLINE_S = 175.0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fairdpfed" / "cli.py").is_file():
        print(f"perfbench: no src/fairdpfed under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / "_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(root), "--work", str(work)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, cwd=root,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        print("perfbench: run did not finish in time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: child exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed} (variant {result['variant']})  "
          f"trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in wanted:
        value = result["values"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<40} {value:>14.6g} {m['unit']:<10} "
              f"n={result['samples'][m['name']]}")
    for name in sorted(set(result["values"]) - set(metrics)):
        print(f"  {name:<40} {result['values'][name]:>14.6g} (not bounded) "
              f"n={result['samples'][name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  error_rate {failed}/{attempted} operations "
          f"(exit code != 0 or outputs differ from reference)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
