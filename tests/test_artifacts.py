"""The presets' rounds.jsonl, config.echo and baseline weights, pinned by sha256.

A change that is meant to keep the simulator's outputs (a refactor, a
speed-up) must leave these bytes alone. The hashes are re-recorded only by a
change that is meant to alter outputs, and it says so in CHANGES.md, the same
rule as for perfbench/reference.json. A different BLAS build (or numpy
version) may legitimately change the last bits of a float and so every hash
here: on such a machine, check the outputs against a capture taken with the
parent commit instead.
"""

import copy
import hashlib

import pytest

from fairdpfed.harness import (
    PRESETS,
    build_scenario,
    centralized_baseline,
    config_from_dict,
    preset_config,
    run_experiment,
)

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


def _baseline_sha256(cfg) -> str:
    w, _ = centralized_baseline(cfg, *build_scenario(cfg)[:2])
    return hashlib.sha256(w.tobytes()).hexdigest()


@pytest.mark.parametrize("preset", sorted(BASELINE_SHA256))
def test_preset_baseline_weights_pinned(preset):
    assert _baseline_sha256(preset_config(preset)) == BASELINE_SHA256[preset]


def _head_config(model: dict, n_classes: int, n_examples: int) -> dict:
    """Two epochs a round for three rounds, in minibatches of 48 rows that do
    not divide the training set, so every epoch ends on a short minibatch."""
    return {
        "data": {"n_examples": n_examples, "n_features": 6, "n_classes": n_classes},
        "model": model,
        "federation": {"K": 4, "T": 3, "epochs": 2, "lr": 0.1, "batch_size": 48, "seed": 3},
    }


# the heads the presets do not train: 400 and 320 training rows
@pytest.mark.parametrize("raw, sha256", [
    (_head_config({"kind": "mlp_1hidden", "hidden_units": 8}, 2, 500),
     "76a11b6397d4507f0e217ce960c4eaaa653b017fd7fea139abe560d4ce2b87f7"),
    (_head_config({"kind": "logistic_regression"}, 3, 400),
     "8208f37b8bb17b99763a755d0b3050f3c4d41956bdb95de33c02ba611e213d53"),
], ids=["mlp", "softmax"])
def test_config_baseline_weights_pinned(raw, sha256):
    assert _baseline_sha256(config_from_dict(raw)) == sha256


def _label_flip_config() -> dict:
    """biased_attack with three label-flipping clients and half of the clients
    sampled per round: flipped labels live in the shared pool of shards, and
    the sampled set changes every round."""
    raw = copy.deepcopy(PRESETS["biased_attack"])
    raw["bias"] = {"biased_client_ids": [0, 1, 2], "mode": "label_flip",
                   "flip_prob": 0.8, "target_group": 0}
    raw["federation"]["q"] = 0.5
    return raw


def _many_short_shards_config() -> dict:
    """The cross_device_lr benchmark workload at seed 1: 100 Dirichlet(0.5)
    shards of 2 to 881 rows, so most clients end on a short minibatch."""
    return {
        "data": {"n_examples": 20000, "n_features": 20},
        "model": {"kind": "logistic_regression"},
        "partition": {"kind": "dirichlet_label_skew", "alpha": 0.5},
        "federation": {
            "K": 100, "q": 1.0, "T": 20, "epochs": 1, "lr": 0.1, "batch_size": 32,
            "S_policy": "median_adaptive", "M": 0.2, "sigma": 0.5,
            "delta_dp": 1e-5, "seed": 1,
        },
        "bias": {"biased_client_ids": [5, 6, 8, 12, 17, 27, 31, 33, 35, 36, 43, 47, 50,
                                       53, 86, 88, 90, 92, 94, 95],
                 "mode": "update_scale", "factor": 25.0},
        "output": {},
    }


def _wide_resampled_config() -> dict:
    """An MLP of 3,329 parameters (19 clients a block) over 60 IID clients of
    13 or 14 rows, half of them sampled per round, in minibatches of 4: each
    round's full steps are blocks of rows 0-18 and 19-29 of the update
    matrix, and its 1- and 2-row last minibatches gathered blocks, so the
    blocks' keys recur across rounds while the sampled spans change."""
    return {
        "data": {"n_examples": 1000, "n_features": 50},
        "model": {"kind": "mlp_1hidden", "hidden_units": 64},
        "federation": {"K": 60, "q": 0.5, "T": 4, "epochs": 1, "lr": 0.1, "batch_size": 4,
                       "seed": 5},
    }


def _many_block_config() -> dict:
    """An MLP of 8,193 parameters (7 clients a block) over 64 IID clients of
    12 or 13 rows, half of them sampled per round, each in one minibatch as in
    the wide_server benchmark workload: the server norms, clips and averages
    the sampled updates 7 rows at a time, and each round rebinds the plan to
    the new sample's spans. Median-adaptive S falls below M = 0.08 in the last
    round, so both thresholds bind, and six clients scale their updates."""
    return {
        "data": {"n_examples": 1000, "n_features": 30},
        "model": {"kind": "mlp_1hidden", "hidden_units": 256},
        "federation": {"K": 64, "q": 0.5, "T": 3, "S_policy": "median_adaptive",
                       "M": 0.08, "sigma": 0.01, "seed": 2},
        "bias": {"biased_client_ids": [0, 5, 9, 20, 33, 47], "mode": "update_scale",
                 "factor": 25.0},
    }


@pytest.mark.parametrize("raw, sha256", [
    (_label_flip_config(), "ff889aaf8bfcbf276088e649104cb8447b413f8f52dc5ed8be073f860030ef01"),
    (_many_short_shards_config(),
     "1a0837dc5381e5bf06dad236672196ed6853505ab2b526f44f4ff0ab2fd17c14"),
    (_wide_resampled_config(),
     "1447e21b8db631ec97086b9f04fe4e70ad9d3826aa7870bac259d364d00ac0db"),
    (_many_block_config(), "15b65b2fd313828ec4fdf322fa6e03341d2123af6d2f7215bc05cb518a080189"),
], ids=["label_flip", "many_short_shards", "wide_resampled", "many_block"])
def test_config_rounds_bytes_pinned(tmp_path, raw, sha256):
    run_experiment(config_from_dict(raw), tmp_path)
    assert _sha256(tmp_path / "rounds.jsonl") == sha256
