"""The presets' rounds.jsonl, config.echo and baseline weights, pinned by sha256.

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

from fairdpfed.harness import build_scenario, centralized_baseline, preset_config, run_experiment

ROUNDS_SHA256 = {
    "fedavg_clean": "d8cd9922bfdcb6072d6d3e689d7b8303b9a0c1423ef0d04c51593032669fc592",
    "dp_only": "5c93fc6672980de421ed5c9a545782459de283f75ddf9a23550a174ad70329e2",
    "fair_dp": "fbc611f83f49702568745363604a0fb35610d225581864260bf4217c154f1e75",
    "biased_attack": "000437b91765dc42050f9d3a598f7978e1568900ae21440b5557d9eceef749f1",
}

ECHO_SHA256 = {
    "fedavg_clean": "64003f6010ccd43fea6f795b925f35501a68c30611e1dead1face649d83faa1e",
    "dp_only": "cee9bfe27ed141021ef387dfb76a394d299de028aa08ac2262a6252df975a3b9",
    "fair_dp": "dfdeb64fc6fe05240ccb76c6d556076e5f7dcd349deee67da8ae5932a00ba5ff",
    "biased_attack": "a13a197558bd4fdbc856cb4c091c52ec1fb322127950a889685c9c3a20096b3c",
}

# centralized_baseline's final weights; A_Cen is too coarse to show a changed bit
BASELINE_SHA256 = {
    "fedavg_clean": "41a1948e5cca09b65805528eab7adb47e7f89b7cf730f048eeb4a2569e9e69be",
    "dp_only": "41a1948e5cca09b65805528eab7adb47e7f89b7cf730f048eeb4a2569e9e69be",
    "fair_dp": "41a1948e5cca09b65805528eab7adb47e7f89b7cf730f048eeb4a2569e9e69be",
    "biased_attack": "148e739ea4f04b4053f19405f4ca81f9244cdbe22d264a79a66250983f0efd5d",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("runs", [1, 4])
@pytest.mark.parametrize("preset", sorted(ROUNDS_SHA256))
def test_preset_rounds_bytes_pinned(tmp_path, preset, runs):
    """Every run of a preset in one process writes the pinned bytes: no state
    (a reused generator, a cache) carries from one run into the next, and the
    config serializes back out the same way."""
    for k in range(runs):
        run_experiment(preset_config(preset), tmp_path / str(k))
        assert _sha256(tmp_path / str(k) / "rounds.jsonl") == ROUNDS_SHA256[preset]
        assert _sha256(tmp_path / str(k) / "config.echo") == ECHO_SHA256[preset]


@pytest.mark.parametrize("preset", sorted(BASELINE_SHA256))
def test_preset_baseline_weights_pinned(preset):
    cfg = preset_config(preset)
    w, _ = centralized_baseline(cfg, *build_scenario(cfg)[:2])
    assert hashlib.sha256(w.tobytes()).hexdigest() == BASELINE_SHA256[preset]
