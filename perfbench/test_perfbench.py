"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
from pathlib import Path

import pytest

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
workloads.import_program(ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_is_deterministic_in_seed(name, tmp_path):
    a = workloads.write_config(name, 7, tmp_path / "a.json").read_bytes()
    b = workloads.write_config(name, 7, tmp_path / "b.json").read_bytes()
    other = workloads.write_config(name, 8, tmp_path / "c.json").read_bytes()
    assert a == b
    assert a != other
    assert workloads.config_for(name, 7) == workloads.config_for(name, 7 + workloads.N_VARIANTS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_variant_has_a_reference(name):
    ref = reference.load_reference()[name]
    assert sorted(ref, key=int) == [str(v) for v in range(workloads.N_VARIANTS)]


def test_output_check_rejects_one_perturbed_accuracy(tmp_path):
    from fairdpfed import cli

    name, seed = "cross_device_lr", 3
    config = workloads.write_config(name, seed, tmp_path / "config.json")
    out = tmp_path / "out"
    assert cli.main(workloads.cli_args(name, config, out)) == 0
    ref = reference.load_reference()
    assert reference.check_outputs(name, seed, out, ref) == []

    bad = tmp_path / "bad"
    shutil.copytree(out, bad)
    lines = (bad / "rounds.jsonl").read_text().splitlines()
    rec = json.loads(lines[5])
    rec["eval"]["accuracy"] += 1e-12
    lines[5] = json.dumps(rec, sort_keys=True)
    (bad / "rounds.jsonl").write_text("\n".join(lines) + "\n")
    problems = reference.check_outputs(name, seed, bad, ref)
    assert len(problems) == 1 and "round 5: accuracy" in problems[0]


def _attribute_snapshot():
    snap = {}
    for name in tracing.MODULES:
        mod = importlib.import_module(f"fairdpfed.{name}")
        snap[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == mod.__name__:
                snap[f"{name}.{attr}"] = dict(vars(value))
    snap["fairdpfed"] = dict(vars(importlib.import_module("fairdpfed")))
    return snap


def _named_bindings():
    """The bindings the program's callers actually use, by name."""
    from fairdpfed import cli, clipping, federation, harness, models, numeric

    return {
        "federation.dual_clip": federation.dual_clip,
        "federation.l2_norm": federation.l2_norm,
        "clipping.l2_norm": clipping.l2_norm,
        "harness.run_training": harness.run_training,
        "harness.generate": harness.generate,
        "cli.run_experiment": cli.run_experiment,
        "LabeledBatch.take": models.LabeledBatch.take,
        "RngStream.generator": numeric.RngStream.generator,
    }


def test_tracer_patches_every_binding_and_restores_them():
    from fairdpfed import clipping, federation, numeric

    before = _attribute_snapshot()
    originals = _named_bindings()
    with tracing.Tracer():
        patched = _named_bindings()
        assert all(patched[k] is not originals[k] for k in originals)
        assert federation.l2_norm is clipping.l2_norm is numeric.l2_norm
    assert _attribute_snapshot() == before


def test_self_time_excludes_direct_children():
    t = tracing.Tracer()
    t.spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["inner", 5.0, 6.0, 0, 0],
    ]
    run = t.per_run()[0]
    assert run["outer"] == {"calls": 1, "self_s": 6.0, "total_s": 10.0}
    assert run["inner"] == {"calls": 2, "self_s": 3.0, "total_s": 4.0}
    assert run["leaf"]["self_s"] == 1.0
