"""The presets' rounds.jsonl, pinned by sha256.

A change that is meant to keep the simulator's outputs (a refactor, a
speed-up) must leave these bytes alone. The hashes are re-recorded only by a
change that is meant to alter outputs, and it says so in CHANGES.md, the same
rule as for perfbench/reference.json. A different BLAS build (or numpy
version) may legitimately change the last bits of a float and so every hash
here: on such a machine, check the outputs against a capture taken with the
parent commit instead.
"""

import hashlib

import pytest

from fairdpfed.harness import preset_config, run_experiment

ROUNDS_SHA256 = {
    "fedavg_clean": "d8cd9922bfdcb6072d6d3e689d7b8303b9a0c1423ef0d04c51593032669fc592",
    "dp_only": "5c93fc6672980de421ed5c9a545782459de283f75ddf9a23550a174ad70329e2",
    "fair_dp": "fbc611f83f49702568745363604a0fb35610d225581864260bf4217c154f1e75",
    "biased_attack": "000437b91765dc42050f9d3a598f7978e1568900ae21440b5557d9eceef749f1",
}


@pytest.mark.parametrize("runs", [1, 4])
@pytest.mark.parametrize("preset", sorted(ROUNDS_SHA256))
def test_preset_rounds_bytes_pinned(tmp_path, preset, runs):
    """Every run of a preset in one process writes the pinned bytes: no state
    (a reused generator, a cache) carries from one run into the next."""
    for k in range(runs):
        run_experiment(preset_config(preset), tmp_path / str(k))
        digest = hashlib.sha256((tmp_path / str(k) / "rounds.jsonl").read_bytes()).hexdigest()
        assert digest == ROUNDS_SHA256[preset]
