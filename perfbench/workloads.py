"""Benchmark workloads: each turns a workload seed into one fairdpfed config.

The program only ever sees the generated config file. Structural sizes are
fixed per workload; the seed picks the data, the partition, the client
sampling and, in cross_device_lr and m_sweep, which clients attack.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

# Seeds are folded onto a pool of variants whose outputs were recorded as
# references (reference.json), so every run can be checked exactly. Seed 31
# is held out: it was not used while the benchmark was tuned, and a change
# that claims a gain should confirm the claim on it (see README.md).
N_VARIANTS = 32


def variant(seed: int) -> int:
    return seed % N_VARIANTS


def _attackers(seed: int, K: int, n: int) -> list:
    return sorted(random.Random(f"attackers-{seed}").sample(range(K), n))


def cross_device_lr(seed: int) -> dict:
    return {
        "data": {"n_examples": 20000, "n_features": 20},
        "model": {"kind": "logistic_regression"},
        "partition": {"kind": "dirichlet_label_skew", "alpha": 0.5},
        "federation": {
            "K": 100, "q": 1.0, "T": 20, "epochs": 1, "lr": 0.1, "batch_size": 32,
            "S_policy": "median_adaptive", "M": 0.2, "sigma": 0.5,
            "delta_dp": 1e-5, "seed": seed,
        },
        "bias": {"biased_client_ids": _attackers(seed, 100, 20),
                 "mode": "update_scale", "factor": 25.0},
        "output": {},
    }


def wide_server(seed: int) -> dict:
    return {
        "data": {"n_examples": 16000, "n_features": 100, "n_classes": 10},
        "model": {"kind": "mlp_1hidden", "hidden_units": 256},
        "partition": {"kind": "iid"},
        "federation": {
            "K": 1000, "q": 0.5, "T": 10, "epochs": 1, "lr": 1.0, "batch_size": 32,
            "S_policy": "median_adaptive", "M": 1.0, "sigma": 0.002,
            "delta_dp": 1e-5, "seed": seed,
        },
        "bias": {"biased_client_ids": list(range(0, 1000, 5)),
                 "mode": "update_scale", "factor": 25.0},
        "output": {},
    }


def m_sweep(seed: int) -> dict:
    return {
        "data": {"n_examples": 5000, "n_features": 20, "class_separation": 2.0},
        "model": {"kind": "mlp_1hidden", "hidden_units": 16},
        "partition": {"kind": "dirichlet_label_skew", "alpha": 0.3},
        "federation": {
            "K": 50, "q": 1.0, "T": 15, "epochs": 1, "lr": 0.1, "batch_size": 32,
            "S_policy": "fixed", "S_fixed": 1e9, "M": "inf", "sigma": 0.0,
            "delta_dp": 1e-5, "seed": seed,
        },
        "bias": {"biased_client_ids": _attackers(seed, 50, 10),
                 "mode": "update_scale", "factor": 25.0},
        "output": {"emit_csv": True},
    }


SWEEP_VALUES = "0.05,0.1,0.2,inf"

WORKLOADS = {
    "cross_device_lr": cross_device_lr,
    "wide_server": wide_server,
    "m_sweep": m_sweep,
}


def config_for(name: str, seed: int) -> dict:
    return WORKLOADS[name](variant(seed))


def cli_args(name: str, config_path, out_dir) -> list:
    """The fairdpfed command line one benchmark operation runs."""
    base = ["--quiet", "--out", str(out_dir)]
    if name == "m_sweep":
        return base + ["sweep", str(config_path), "--param", "M",
                       "--values", SWEEP_VALUES]
    return base + ["run", str(config_path)]


def run_dirs(name: str, out_dir) -> list:
    """Run directories one operation leaves behind, in a fixed order."""
    out = Path(out_dir)
    if name == "m_sweep":
        return [out / f"M={v}" for v in SWEEP_VALUES.split(",")]
    return [out]


def write_config(name: str, seed: int, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(config_for(name, seed), indent=2, sort_keys=True) + "\n")
    return path


def import_program(root):
    """Import fairdpfed from the checkout's src/ and return its package."""
    src = Path(root).resolve() / "src"
    if not (src / "fairdpfed" / "cli.py").is_file():
        raise FileNotFoundError(f"no fairdpfed sources under {src}")
    sys.path.insert(0, str(src))
    import fairdpfed

    if Path(fairdpfed.__file__).resolve().parent != src / "fairdpfed":
        raise ImportError(f"fairdpfed imported from {fairdpfed.__file__}, not {src}")
    return fairdpfed
