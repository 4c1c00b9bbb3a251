"""One benchmark run of one workload, in a fresh process (started by run.py).

Each operation is one fairdpfed CLI command run in-process through
``fairdpfed.cli.main`` on the generated config, and every operation's
artifacts are checked against the recorded reference outputs. Operations
repeat until the run's time is up; before each one, the scenario set-up
(``harness.build_scenario``) is timed on its own SETUP_REPEATS times.

Untraced operations carry a single timer around ``federation.run_round``.
With tracing on, untraced and traced operations alternate: the traced ones
give the per-layer numbers, the untraced ones the base for the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import tracing
import workloads

SETUP_REPEATS = 3


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    for level in ("LEVEL2", "LEVEL3"):
        try:  # glibc answers from cpuid, without reading files
            out = subprocess.run(["getconf", f"{level}_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        caches[f"L{level[-1]}_bytes"] = int(out) if out.isdigit() else "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "caches": caches,
        "machine": platform.machine(),
    }


@contextlib.contextmanager
def round_timer(federation, samples: list):
    """Append the wall seconds of every federation.run_round call to samples."""
    original = federation.run_round

    @functools.wraps(original)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - t0)

    federation.run_round = timed
    try:
        yield
    finally:
        federation.run_round = original


def clipped_frac(name: str, out_dir) -> float:
    """Share of client updates any threshold clipped, over the whole operation."""
    clipped = total = 0
    for run_dir in workloads.run_dirs(name, out_dir):
        with open(run_dir / "rounds.jsonl") as fh:
            for line in fh:
                for c in json.loads(line)["per_client"]:
                    total += 1
                    clipped += c["clipped_by"] != "none"
    return clipped / total


class Run:
    def __init__(self, args, work: Path):
        from fairdpfed import cli, federation, harness

        self.cli, self.federation, self.harness = cli, federation, harness
        self.name, self.seed = args.workload, args.seed
        self.reference = reference.load_reference()
        self.config_path = workloads.write_config(self.name, self.seed, work / "config.json")
        self.config = harness.parse_config(self.config_path)
        self.out_dir = work / "out"
        self.tracer = tracing.Tracer()
        self.ops = []
        self.setup_s = []
        self.round_s = []

    def time_setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.harness.build_scenario(self.config)
            self.setup_s.append(time.perf_counter() - t0)

    def operation(self, traced: bool = False, warmup: bool = False) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        argv = workloads.cli_args(self.name, self.config_path, self.out_dir)
        op = {"traced": traced, "warmup": warmup, "run_s": None, "problems": []}
        rounds = []
        self.tracer.run_id = len(self.ops)
        try:
            with self.tracer if traced else round_timer(self.federation, rounds):
                t0 = time.perf_counter()
                rc = self.cli.main(argv)
                op["run_s"] = time.perf_counter() - t0
            if rc != 0:
                op["problems"].append(f"exit code {rc}")
            else:
                op["problems"] += reference.check_outputs(
                    self.name, self.seed, self.out_dir, self.reference)
                op["clipped_frac"] = clipped_frac(self.name, self.out_dir)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc()
            op["problems"].append(f"raised {exc!r}")
        for problem in op["problems"]:
            print(f"operation {len(self.ops)}: {problem}", file=sys.stderr)
        if not warmup and not traced:
            self.round_s += rounds
        self.ops.append(op)

    def measure(self, seconds: float, traced: bool) -> None:
        # the first operation pays one-time costs (imports, first touches of
        # large buffers) that later operations do not: checked, not timed
        self.time_setup()
        self.setup_s.clear()
        self.operation(warmup=True)
        start = time.perf_counter()
        i = 0
        while True:
            self.time_setup()
            self.operation(traced=traced and i % 2 == 1)
            i += 1
            elapsed = time.perf_counter() - start
            # stop before an operation that would end past the deadline
            if elapsed * (i + 1) / i > seconds and (i >= 2 or not traced):
                break

    def timed_run_s(self, traced: bool) -> list:
        return [op["run_s"] for op in self.ops
                if not op["warmup"] and op["traced"] == traced and not op["problems"]]

    def end_to_end(self) -> tuple:
        rounds_ms = [s * 1000.0 for s in self.round_s]
        values = {
            "setup_s": statistics.median(self.setup_s),
            "run_s": statistics.median(self.timed_run_s(False)),
            "round_ms_p50": statistics.median(rounds_ms),
            "round_ms_p90": statistics.quantiles(rounds_ms, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {
            "setup_s": len(self.setup_s),
            "run_s": len(self.timed_run_s(False)),
            "round_ms_p50": len(rounds_ms),
            "round_ms_p90": len(rounds_ms),
            "peak_rss_mb": 1,
        }
        return values, samples

    def per_layer(self) -> tuple:
        traced_ids = [i for i, op in enumerate(self.ops) if op["traced"] and not op["problems"]]
        values = tracing.layer_medians(self.tracer.per_run(), traced_ids)
        values["models.rows_trained"] = statistics.median(
            self.tracer.rows_trained.get(i, 0) for i in traced_ids)
        values["clipping.clipped_frac"] = statistics.median(
            self.ops[i]["clipped_frac"] for i in traced_ids)
        values["federation.update_bytes"] = (
            self.config.fed.m_t * self.config.model_spec.param_dim * 8)
        values["trace.overhead_s"] = (statistics.median(self.timed_run_s(True))
                                      - statistics.median(self.timed_run_s(False)))
        return values, {name: len(traced_ids) for name in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True, help="checkout holding src/fairdpfed")
    parser.add_argument("--work", required=True, help="directory for configs, artifacts, results")
    args = parser.parse_args(argv)

    workloads.import_program(args.root)
    work = Path(args.work)
    run = Run(args, work)
    run.measure(args.seconds, traced=bool(args.trace))
    values, samples = run.per_layer() if args.trace else run.end_to_end()
    if args.trace:
        run.tracer.write(work / "spans.jsonl.gz")
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.variant(args.seed),
        "trace": args.trace,
        "environment": environment(),
        "attempted": len(run.ops),
        "failed": sum(1 for op in run.ops if op["problems"]),
        "problems": [p for op in run.ops for p in op["problems"]],
        "values": values,
        "samples": samples,
        "raw": {
            "run_s": [op["run_s"] for op in run.ops],
            "traced": [op["traced"] for op in run.ops],
            "setup_s": run.setup_s,
            "round_s": run.round_s,
        },
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
