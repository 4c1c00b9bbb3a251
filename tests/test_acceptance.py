"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from helpers_fed import fedavg_reference, scenario_config

from fairdpfed import models
from fairdpfed.clipping import clip_by_norm, dual_clip
from fairdpfed.federation import ServerState, run_round, run_training
from fairdpfed.harness import build_scenario, preset_config, run_experiment
from fairdpfed.models import LabeledBatch, ModelSpec
from fairdpfed.numeric import RngStream
from fairdpfed.privacy import PrivacyLedger, add_noise, epsilon_per_round


@contextmanager
def criterion(name):
    try:
        yield
    except AssertionError:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS")


def test_ac1_dual_clip_identity():
    with criterion("AC-1 dual-clip identity"):
        g = np.random.default_rng(1001)
        for _ in range(10_000):
            dim = int(g.integers(1, 17))
            delta = g.normal(scale=g.uniform(0.1, 5.0), size=dim)
            S = float(g.uniform(0.01, 10.0))
            M = float(g.uniform(0.01, 10.0))
            dual, _ = dual_clip(delta, S, M)
            single, _ = clip_by_norm(delta, min(S, M))
            assert np.all(np.abs(dual - single) <= 1e-12)
            assert np.linalg.norm(dual) <= min(S, M) + 1e-9


def test_ac2_gradient_correctness():
    with criterion("AC-2 gradient vs finite differences"):
        from test_models import fd_gradient, random_batch

        kinds = [
            ModelSpec(kind="logistic_regression", n_features=5, n_classes=3),
            ModelSpec(kind="mlp_1hidden", n_features=5, n_classes=2, hidden_units=4),
        ]
        for spec in kinds:
            for i in range(100):
                w = models.init_params(spec, RngStream(i).child("w")) * 20
                batch = random_batch(spec, n=12, seed=i)
                g_an = models.gradient(spec, w, batch)
                g_fd = fd_gradient(spec, w, batch, h=1e-6)
                rel = np.linalg.norm(g_an - g_fd) / max(np.linalg.norm(g_fd), 1e-8)
                assert rel < 1e-5


def test_ac3_fedavg_reduction():
    with criterion("AC-3 reduction to plain FedAvg"):
        config = scenario_config(T=20, K=8, q=1.0, n_examples=600, sigma=0.0,
                                 S_policy="fixed", S_fixed=1e9, M=1e9)
        _, test, shards = build_scenario(config)
        spec = config.model_spec
        reference = fedavg_reference(config.fed, spec, shards)
        root = RngStream(config.fed.seed)
        state = ServerState(
            round=0,
            w_global=models.init_params(spec, root.child("init")),
            ledger=PrivacyLedger(delta_dp=config.fed.delta_dp),
        )
        for t in range(config.fed.T):
            state, _ = run_round(state, shards, config.fed, spec, test, root)
            assert np.all(np.abs(state.w_global - reference[t]) <= 1e-12)


def test_ac4_noise_calibration():
    with criterion("AC-4 noise calibration"):
        n = 10**6
        base = np.zeros(n)
        noisy = add_noise(base, S=2.0, sigma=1.0, rng=RngStream(77).child("noise"))
        diff = noisy - base
        std = diff.std()
        assert 1.98 <= std <= 2.02
        assert abs(diff.mean()) <= 4 * std / math.sqrt(n)
        silent = add_noise(base, S=2.0, sigma=0.0, rng=RngStream(77).child("noise"))
        assert np.array_equal(silent, base)


def test_ac5_delta_accuracy_loss():
    with criterion("AC-5 federated vs centralized accuracy gap"):
        config = scenario_config(
            seed=0, K=10, q=1.0, T=50, epochs=1, lr=0.1, batch_size=32,
            n_examples=2000, n_features=20, class_separation=5.0,
            sigma=0.0, S_policy="fixed", S_fixed=1e9, M=1e9,
            partition={"kind": "iid"},
        )
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            summary = run_experiment(config, tmp)
        assert summary.delta_acc < 0.05


AC6_BIAS = {"biased_client_ids": [0, 1], "mode": "update_scale", "factor": 25.0}
AC6_PART = {"kind": "dirichlet_label_skew", "alpha": 0.1}
AC6_SEEDS = range(5)


def _ac6_run(seed, M, S_policy="fixed"):
    cfg = scenario_config(
        seed=seed, K=10, q=1.0, T=15, n_examples=800, class_separation=2.0,
        bias=AC6_BIAS, partition=AC6_PART, sigma=0.0,
        S_policy=S_policy, S_fixed=1e9, M=M,
    )
    _, test, shards = build_scenario(cfg)
    _, records, _ = run_training(cfg.fed, cfg.model_spec, shards, test)
    return records


def _clip_fraction(record_lists, biased):
    total = hit = 0
    for records in record_lists:
        for rec in records:
            for c in rec.per_client:
                if c["biased"] == biased:
                    total += 1
                    hit += c["clipped_by"] in ("bias_bound", "dp_bound")
    return hit / total


def test_ac6_bias_mitigation():
    with criterion("AC-6 bias mitigation via M"):
        unclipped = {s: _ac6_run(s, math.inf) for s in AC6_SEEDS}
        acc_inf = np.mean([unclipped[s][-1].eval.accuracy for s in AC6_SEEDS])
        # per-seed clean-update norm scale from the unclipped run's first round
        scales = {
            s: float(np.median([
                c["update_norm_pre"]
                for c in unclipped[s][0].per_client if not c["biased"]
            ]))
            for s in AC6_SEEDS
        }
        swept = {}
        for mult in (0.5, 1.0, 2.0):
            runs = [_ac6_run(s, mult * scales[s]) for s in AC6_SEEDS]
            swept[mult] = (np.mean([r[-1].eval.accuracy for r in runs]), runs)
        best_mult = max(swept, key=lambda m: swept[m][0])
        best_acc, best_runs = swept[best_mult]
        margin = best_acc - acc_inf
        print(f"  M=inf acc {acc_inf:.4f}, best M={best_mult}x acc {best_acc:.4f}, "
              f"margin {margin:+.4f}")
        assert best_acc > acc_inf  # direction is the acceptance bar
        assert _clip_fraction(best_runs, biased=True) >= 0.90
        assert _clip_fraction(best_runs, biased=False) <= 0.30


def test_ac7_accountant_closed_form():
    with criterion("AC-7 accountant closed form"):
        eps = epsilon_per_round(sigma=2.0, delta_dp=1e-5, m_t=1)
        assert abs(eps - 2.4223) <= 0.0005
        assert epsilon_per_round(2.0, 1e-5, 2) == pytest.approx(eps / 2, rel=1e-12)
        ledger = PrivacyLedger(delta_dp=1e-5)
        T = 9
        for t in range(T):
            ledger.record(t, 1.0, 2.0, eps)
        assert ledger.eps_total_basic == T * eps


def test_ac8_determinism(tmp_path):
    with criterion("AC-8 byte-identical reruns"):
        cfg = preset_config("fair_dp")
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        run_experiment(cfg, tmp_path / "c")
        a = (tmp_path / "a" / "rounds.jsonl").read_bytes()
        b = (tmp_path / "b" / "rounds.jsonl").read_bytes()
        c = (tmp_path / "c" / "rounds.jsonl").read_bytes()
        assert a == b == c


def test_ac9_adaptive_s_robustness():
    with criterion("AC-9 adaptive S tracks clean-client median"):
        for seed in AC6_SEEDS:
            records = _ac6_run(seed, math.inf, S_policy="median_adaptive")
            for rec in records:
                clean = [c["update_norm_pre"] for c in rec.per_client if not c["biased"]]
                clean_median = float(np.median(clean))
                assert 0.5 * clean_median <= rec.S_used <= 2.0 * clean_median
