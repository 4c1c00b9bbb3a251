import dataclasses
import json
import math

import numpy as np
import pytest

from helpers_fed import fedavg_reference, scenario_config
from test_models import finish_order

from fairdpfed import models
from fairdpfed.clipping import dual_clip
from fairdpfed.datagen import BiasTag
from fairdpfed.federation import (
    FedConfig,
    ServerState,
    SimulationError,
    adaptive_S,
    aggregate_round,
    apply_update_bias,
    run_round,
    run_training,
    sample_clients,
)
from fairdpfed.harness import build_scenario
from fairdpfed.numeric import RngStream, l2_norm
from fairdpfed.privacy import PrivacyLedger


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(10, 1.0, RngStream(0).child("s")) == list(range(10))

    def test_partial_size_and_range(self):
        ids = sample_clients(10, 0.3, RngStream(1).child("s"))
        assert len(ids) == 3 and len(set(ids)) == 3
        assert all(0 <= i < 10 for i in ids)
        assert ids == sorted(ids)

    def test_deterministic(self):
        a = sample_clients(20, 0.4, RngStream(2).child("s", 5))
        b = sample_clients(20, 0.4, RngStream(2).child("s", 5))
        assert a == b


class TestAdaptiveS:
    def test_two_equal(self):
        assert adaptive_S([2.0, 2.0]) == 2.0

    def test_even_count_averages_the_middle_two(self):
        assert adaptive_S([1.0, 3.0]) == 2.0

    def test_robust_to_outlier(self):
        assert adaptive_S([1.0, 5.0, 100.0]) == 5.0

    def test_zero_floor(self):
        assert adaptive_S([0.0, 0.0, 0.0]) == 1e-12


class TestApplyUpdateBias:
    def test_clean_identity(self):
        d = np.array([0.1, -0.2])
        apply_update_bias(d, BiasTag())
        assert np.array_equal(d, [0.1, -0.2])

    def test_scale(self):
        d = np.array([0.1, 0.0])
        apply_update_bias(d, BiasTag(mode="update_scale", factor=25.0))
        assert np.array_equal(d, [2.5, 0.0])

    def test_norm_scales_exactly(self):
        d = np.random.default_rng(0).normal(size=9)
        before = np.linalg.norm(d)
        apply_update_bias(d, BiasTag(mode="update_scale", factor=3.0))
        assert np.linalg.norm(d) == pytest.approx(3 * before)


def aggregate(deltas, config):
    """aggregate_round on the matrix of deltas, given its rows' norms as
    run_round gives them."""
    D = np.array(deltas, dtype=np.float64)
    return aggregate_round(D, config, [l2_norm(row) for row in D])


class TestAggregateRound:
    def test_single_clean_client_passthrough(self):
        cfg = FedConfig(K=1, S_policy="fixed", S_fixed=1e9, M=1e9, sigma=0.0)
        avg, S, reports = aggregate([np.array([0.1, -0.2])], cfg)
        assert np.array_equal(avg, [0.1, -0.2])
        assert reports[0].clipped_by == "none"

    def test_two_clients_clipped_to_unit_norm(self):
        cfg = FedConfig(K=2, S_policy="fixed", S_fixed=1e9, M=1.0, sigma=0.0)
        avg, S, reports = aggregate(
            [np.array([2.0, 0.0]), np.array([0.0, 2.0])], cfg
        )
        assert np.allclose(avg, [0.5, 0.5])
        assert all(r.clipped_by == "bias_bound" for r in reports)

    def test_median_adaptive_uses_round_norms(self):
        cfg = FedConfig(K=3, S_policy="median_adaptive", sigma=0.0)
        deltas = [np.array([1.0, 0.0]), np.array([0.0, 5.0]), np.array([100.0, 0.0])]
        _, S, _ = aggregate(deltas, cfg)
        assert S == 5.0

    def test_order_independent_within_tolerance(self):
        g = np.random.default_rng(3)
        deltas = [g.normal(size=30) for _ in range(8)]
        cfg = FedConfig(K=8, S_policy="median_adaptive", sigma=0.0)
        a, _, _ = aggregate(deltas, cfg)
        b, _, _ = aggregate(deltas[::-1], cfg)
        assert np.all(np.abs(a - b) <= 1e-12)


def per_update_aggregate(deltas, config):
    """The per-update server path: one dual_clip copy per update, then a sum
    over the list of clipped copies."""
    norms = [l2_norm(d) for d in deltas]
    S = adaptive_S(norms) if config.S_policy == "median_adaptive" else config.S_fixed
    clipped, reports = zip(*(dual_clip(d, S, config.M) for d in deltas))
    return np.sum(list(clipped), axis=0) / len(deltas), S, list(reports)


class TestAggregateMatrix:
    @pytest.mark.parametrize("S_policy", ["median_adaptive", "fixed"])
    def test_matches_per_update_path_bit_for_bit(self, S_policy):
        g = np.random.default_rng(11)
        scales = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0, 100.0]
        deltas = [s * g.normal(size=37) / math.sqrt(37) for s in scales]
        branches = set()
        for M in (10.0, 0.3):  # M above S (S binds), then below it (M binds)
            cfg = FedConfig(K=len(deltas), S_policy=S_policy, S_fixed=3.0, M=M)
            ref_avg, ref_S, ref_reports = per_update_aggregate(deltas, cfg)
            avg, S, reports = aggregate(deltas, cfg)
            assert np.array_equal(avg, ref_avg)
            assert S == ref_S
            assert reports == ref_reports
            branches |= {r.clipped_by for r in reports}
        assert branches == {"none", "dp_bound", "bias_bound"}

    def test_large_matrix_matches_in_place_clip_and_sum_and_is_left_unchanged(self):
        """Rows clipped into one vector and added to a running total give the
        bytes of clipping the matrix in place and summing it, at a size where
        numpy's reduction could block or buffer."""
        g = np.random.default_rng(13)
        m, P = 600, 30_000
        D = g.standard_normal((m, P))
        D *= g.choice([1e-3, 1.0, 1e3], size=(m, 1))  # unclipped and clipped rows
        D[:, 0] = -0.0  # the sign of a zero sum shows where the total starts
        norms = [l2_norm(row) for row in D]
        before = D.copy()
        cfg = FedConfig(K=m, S_policy="median_adaptive", M=1e4)
        avg, S, reports = aggregate_round(D, cfg, norms)
        assert D.tobytes() == before.tobytes()
        ref_reports = [dual_clip(row, S, cfg.M, norm=n, out=row)[1]
                       for row, n in zip(before, norms)]  # in place
        assert avg.tobytes() == (before.sum(axis=0) / m).tobytes()
        assert reports == ref_reports
        assert {r.clipped_by for r in reports} == {"none", "dp_bound"}


class TestUpdateBuffer:
    @staticmethod
    def config():
        base = scenario_config(
            K=6, T=3, q=0.5, n_examples=300, sigma=0.5, S_policy="median_adaptive",
            M=0.5, bias={"biased_client_ids": [0, 3], "mode": "update_scale",
                         "factor": 25.0},
        )
        return dataclasses.replace(base, model_kind="mlp_1hidden", hidden_units=8)

    @staticmethod
    def run_rounds(config, shards=None):
        train, test, built = build_scenario(config)
        shards = shards or built
        spec = config.model_spec
        root = RngStream(config.fed.seed)
        state = ServerState(round=0, w_global=models.init_params(spec, root.child("init")),
                            ledger=PrivacyLedger(delta_dp=config.fed.delta_dp))
        snapshots = []
        for _ in range(config.fed.T):
            state, rec = run_round(state, shards, config.fed, spec, test, root)
            snapshots.append((state.w_global, state.w_global.copy(), rec,
                              json.dumps(rec.to_dict(), sort_keys=True), state.updates))
        return state, snapshots

    def test_one_buffer_and_later_rounds_leave_earlier_results_alone(self):
        config = self.config()
        state, snapshots = self.run_rounds(config)
        for w, w_then, rec, doc_then, buffer in snapshots:
            assert np.array_equal(w, w_then)
            assert json.dumps(rec.to_dict(), sort_keys=True) == doc_then
            assert buffer is state.updates
        assert state.updates.shape == (config.fed.m_t, config.model_spec.param_dim)

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_nonfinite_error_names_first_sampled_client(self, epochs):
        """Rows are finished in the order the groups run, short last
        minibatches by row count: here the first sampled bad client's last
        minibatch has 5 rows and the second's 3, so it finishes later. The
        error still names it."""
        base = self.config()
        config = dataclasses.replace(
            base, fed=dataclasses.replace(base.fed, epochs=epochs),
            partition=dataclasses.replace(base.partition, kind="dirichlet_label_skew",
                                          alpha=0.3))
        _, _, shards = build_scenario(config)
        sampled = sample_clients(config.fed.K, config.fed.q,
                                 RngStream(config.fed.seed).child("sample", 0))
        bs = config.fed.batch_size
        sizes = [len(shards[cid].batch) for cid in sampled]
        order = finish_order(sizes, bs)
        assert order.index(0) > order.index(1)
        for cid in sampled[:2]:
            shards[cid].batch.features[0, 0] = np.nan  # a row of the pool
        with np.errstate(all="ignore"):
            with pytest.raises(SimulationError,
                               match=f"client {sampled[0]} in round 0$"):
                self.run_rounds(config, shards=shards)


class TestRunRound:
    def make_state(self, cfg):
        config = scenario_config(K=4, T=1, n_examples=200, **cfg)
        train, test, shards = build_scenario(config)
        spec = config.model_spec
        root = RngStream(config.fed.seed)
        w0 = models.init_params(spec, root.child("init"))
        state = ServerState(round=0, w_global=w0,
                            ledger=PrivacyLedger(delta_dp=config.fed.delta_dp))
        return config, spec, shards, test, root, state

    def test_record_structure(self):
        config, spec, shards, test, root, state = self.make_state({})
        state, rec = run_round(state, shards, config.fed, spec, test, root)
        assert rec.round == 0
        assert rec.sampled_clients == [0, 1, 2, 3]
        assert len(rec.per_client) == 4
        assert rec.S_used > 0
        assert state.round == 1

    def test_postclip_norm_bound(self):
        config, spec, shards, test, root, state = self.make_state(
            {"S_policy": "median_adaptive", "M": 0.5}
        )
        _, rec = run_round(state, shards, config.fed, spec, test, root)
        for c in rec.per_client:
            post = c["update_norm_pre"] * c["clip_factor"]
            assert post <= min(rec.S_used, rec.M_used) + 1e-9

    def test_nonfinite_update_aborts_with_context(self):
        config, spec, shards, test, root, state = self.make_state({})
        shards[2].batch.features[0, 0] = np.nan  # a row of the pool
        with np.errstate(all="ignore"):
            with pytest.raises(SimulationError, match="client 2 in round 0"):
                run_round(state, shards, config.fed, spec, test, root)


class TestRunTraining:
    def test_single_round_single_record(self):
        config = scenario_config(T=1, K=5, n_examples=200)
        train, test, shards = build_scenario(config)
        w, records, ledger = run_training(config.fed, config.model_spec, shards, test)
        assert len(records) == 1 and len(ledger.rounds) == 1

    def test_bitwise_deterministic(self):
        config = scenario_config(T=5, K=6, n_examples=300, sigma=0.5,
                                 S_policy="median_adaptive")
        train, test, shards = build_scenario(config)
        w1, r1, _ = run_training(config.fed, config.model_spec, shards, test)
        w2, r2, _ = run_training(config.fed, config.model_spec, shards, test)
        assert np.array_equal(w1, w2)
        assert [rec.to_dict() for rec in r1] == [rec.to_dict() for rec in r2]

    def test_matches_fedavg_reference_with_defenses_off(self):
        config = scenario_config(T=6, K=5, n_examples=300, sigma=0.0,
                                 S_policy="fixed", S_fixed=1e9, M=1e9)
        train, test, shards = build_scenario(config)
        spec = config.model_spec
        ref = fedavg_reference(config.fed, spec, shards)
        root = RngStream(config.fed.seed)
        state = ServerState(round=0,
                            w_global=models.init_params(spec, root.child("init")),
                            ledger=PrivacyLedger(delta_dp=config.fed.delta_dp))
        for t in range(config.fed.T):
            state, _ = run_round(state, shards, config.fed, spec, test, root)
            assert np.all(np.abs(state.w_global - ref[t]) <= 1e-12)

    def test_inert_M_is_bitwise_noop(self):
        base = scenario_config(T=5, K=6, n_examples=300, S_policy="median_adaptive",
                               M="inf")
        huge = scenario_config(T=5, K=6, n_examples=300, S_policy="median_adaptive",
                               M=1e9)
        train, test, shards = build_scenario(base)
        w_inf, r_inf, _ = run_training(base.fed, base.model_spec, shards, test)
        w_huge, r_huge, _ = run_training(huge.fed, huge.model_spec, shards, test)
        assert np.array_equal(w_inf, w_huge)
        for a, b in zip(r_inf, r_huge):
            assert a.per_client == b.per_client and a.S_used == b.S_used

    def test_telemetry_covers_aggregation_symbols(self):
        config = scenario_config(T=2, K=4, n_examples=200, sigma=0.5,
                                 S_policy="median_adaptive")
        train, test, shards = build_scenario(config)
        _, records, _ = run_training(config.fed, config.model_spec, shards, test)
        doc = records[0].to_dict()
        for key in ("round", "sampled_clients", "per_client", "S_used", "M_used",
                    "noise_std", "eps_round", "eval"):
            assert key in doc
        assert doc["noise_std"] == pytest.approx(0.5 * doc["S_used"])

    @pytest.mark.slow
    def test_accuracy_degrades_with_noise(self):
        sigmas = [0.0, 0.5, 1.0, 2.0]
        means = []
        for sigma in sigmas:
            finals = []
            for seed in range(5):
                config = scenario_config(seed=seed, T=10, K=10, n_examples=600,
                                         sigma=sigma, S_policy="median_adaptive")
                train, test, shards = build_scenario(config)
                _, records, _ = run_training(config.fed, config.model_spec, shards, test)
                finals.append(records[-1].eval.accuracy)
            means.append(np.mean(finals))
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))
