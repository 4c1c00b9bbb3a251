"""Output check: compare a run's artifacts with outputs recorded from the program.

For every round the check compares the sampled client ids and the test
accuracy exactly, and S_used and the test loss within REL_TOL; it also
compares A_Fed and A_Cen from summary.json exactly. Fields added to the
records later are ignored, and so is epsilon, whose accounting is expected to
change.

Record the references (every workload, every seed variant) with

    python3 perfbench/reference.py --record

from the repository root. Only re-record when a change is meant to alter the
simulator's outputs, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import workloads

REL_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def _ids_digest(ids) -> str:
    return hashlib.sha256(",".join(str(int(i)) for i in ids).encode()).hexdigest()[:16]


def summarize(run_dir) -> dict:
    """The checked outputs of one run directory."""
    run_dir = Path(run_dir)
    rounds = []
    with open(run_dir / "rounds.jsonl") as fh:
        for line in fh:
            rec = json.loads(line)
            rounds.append([
                _ids_digest(rec["sampled_clients"]),
                rec["S_used"],
                rec["eval"]["accuracy"],
                rec["eval"]["loss"],
            ])
    summary = json.loads((run_dir / "summary.json").read_text())
    return {"rounds": rounds, "A_Fed": summary["A_Fed"], "A_Cen": summary["A_Cen"]}


def compare(got: dict, want: dict, where: str = "") -> list:
    """Mismatches between two summaries, as readable strings."""
    problems = []
    if len(got["rounds"]) != len(want["rounds"]):
        return [f"{where}: {len(got['rounds'])} rounds, expected {len(want['rounds'])}"]
    for t, (g, w) in enumerate(zip(got["rounds"], want["rounds"])):
        ids, S, acc, loss = g
        if ids != w[0]:
            problems.append(f"{where} round {t}: sampled_clients differ")
        if acc != w[2]:
            problems.append(f"{where} round {t}: accuracy {acc!r} != {w[2]!r}")
        for label, a, b in (("S_used", S, w[1]), ("loss", loss, w[3])):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
                problems.append(f"{where} round {t}: {label} {a!r} != {b!r}")
    for key in ("A_Fed", "A_Cen"):
        if got[key] != want[key]:
            problems.append(f"{where}: {key} {got[key]!r} != {want[key]!r}")
    return problems


def check_outputs(name: str, seed: int, out_dir, reference: dict) -> list:
    """Mismatches between one operation's artifacts and the reference."""
    want = reference[name][str(workloads.variant(seed))]
    problems = []
    for run_dir, expected in zip(workloads.run_dirs(name, out_dir), want):
        try:
            got = summarize(run_dir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{run_dir.name}: unreadable artifacts ({exc!r})")
            continue
        problems += compare(got, expected, run_dir.name)
    if name == "m_sweep" and not (Path(out_dir) / "comparison.csv").is_file():
        problems.append("sweep wrote no comparison.csv")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def record(root: Path) -> dict:
    workloads.import_program(root)
    from fairdpfed import cli

    scratch = Path(__file__).with_name("_out") / "record"
    reference = {}
    for name in workloads.WORKLOADS:
        reference[name] = {}
        for v in range(workloads.N_VARIANTS):
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            cfg = workloads.write_config(name, v, scratch / "config.json")
            rc = cli.main(workloads.cli_args(name, cfg, scratch / "out"))
            if rc != 0:
                raise RuntimeError(f"{name} variant {v}: exit code {rc}")
            reference[name][str(v)] = [
                summarize(d) for d in workloads.run_dirs(name, scratch / "out")
            ]
            print(f"recorded {name} variant {v}", file=sys.stderr)
    shutil.rmtree(scratch, ignore_errors=True)
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", required=True,
                        help="run every workload variant and rewrite reference.json")
    parser.parse_args(argv)
    reference = record(Path.cwd())
    REFERENCE_PATH.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
