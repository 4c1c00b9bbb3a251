import dataclasses
import json
import math
import weakref

import numpy as np
import pytest

from helpers_fed import fedavg_reference, scenario_config
from test_models import finish_order

from fairdpfed import federation, models
from fairdpfed.clipping import dual_clip
from fairdpfed.datagen import BiasTag
from fairdpfed.federation import (
    FedConfig,
    ServerState,
    SimulationError,
    adaptive_S,
    aggregate_round,
    run_round,
    run_training,
    sample_clients,
    sample_size,
    update_factors,
)
from fairdpfed.harness import build_scenario
from fairdpfed.numeric import RngStream, l2_norm
from fairdpfed.privacy import PrivacyLedger, epsilon_per_round


def drawn_sample(K, q, rng):
    """sample_clients' draw, made whatever the sample's size."""
    ids = rng.generator().choice(K, size=sample_size(K, q), replace=False)
    return sorted(int(i) for i in ids)


class TestClientIdBound:
    """A client id is one 32-bit word of its substream's key."""

    def test_K_below_2_to_the_32(self):
        assert FedConfig(K=2**32 - 1).K == 2**32 - 1
        with pytest.raises(ValueError, match=r"^K must be < 2\*\*32"):
            FedConfig(K=2**32)


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(10, 1.0, RngStream(0).child("s")) == list(range(10))

    @pytest.mark.parametrize("K", [1, 2, 7, 100, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 31])
    def test_everyone_sampled_equals_the_draw(self, K, seed):
        rng = RngStream(seed).child("sample", 3)
        assert sample_clients(K, 1.0, rng) == drawn_sample(K, 1.0, rng) == list(range(K))

    def test_partial_sample_is_the_draw(self):
        rng = RngStream(5).child("sample", 2)
        assert sample_clients(40, 0.3, rng) == drawn_sample(40, 0.3, rng)

    def test_partial_size_and_range(self):
        ids = sample_clients(10, 0.3, RngStream(1).child("s"))
        assert len(ids) == 3 and len(set(ids)) == 3
        assert all(0 <= i < 10 for i in ids)
        assert ids == sorted(ids)

    def test_deterministic(self):
        a = sample_clients(20, 0.4, RngStream(2).child("s", 5))
        b = sample_clients(20, 0.4, RngStream(2).child("s", 5))
        assert a == b

    # q * K in floats lands just above the integer the decimal q gives, e.g.
    # 0.07 * 100 == 7.000000000000001, whose ceiling would be 8
    @pytest.mark.parametrize("K, q, m", [
        (100, 0.07, 7), (100, 0.14, 14), (100, 0.28, 28), (100, 0.55, 55),
        (100, 0.56, 56), (50, 0.14, 7), (50, 0.28, 14), (50, 0.56, 28)])
    def test_size_is_the_ceiling_of_the_decimal_q(self, K, q, m):
        assert math.ceil(q * K) == m + 1
        config = scenario_config(K=K, q=q, T=1, n_examples=2 * K, sigma=0.5)
        assert config.fed.m_t == m
        assert len(sample_clients(K, q, RngStream(3).child("sample", 0))) == m
        train, test, shards = build_scenario(config)
        _, (record,), _ = run_training(config.fed, config.model_spec, shards, test)
        assert len(record.sampled_clients) == len(record.per_client) == m
        assert record.eps_round == epsilon_per_round(0.5, 1e-5, m)


class TestAdaptiveS:
    def test_two_equal(self):
        assert adaptive_S([2.0, 2.0]) == 2.0

    def test_even_count_averages_the_middle_two(self):
        assert adaptive_S([1.0, 3.0]) == 2.0

    def test_robust_to_outlier(self):
        assert adaptive_S([1.0, 5.0, 100.0]) == 5.0

    def test_zero_floor(self):
        assert adaptive_S([0.0, 0.0, 0.0]) == 1e-12


class TestUpdateFactors:
    def test_clean_identity(self):
        d = np.array([0.1, -0.2])
        d *= update_factors([BiasTag()])[0]
        assert np.array_equal(d, [0.1, -0.2])

    def test_scale(self):
        d = np.array([[0.1, 0.0], [0.1, 0.0]])
        d *= update_factors([BiasTag(mode="update_scale", factor=25.0), BiasTag()])[:, None]
        assert np.array_equal(d, [[2.5, 0.0], [0.1, 0.0]])

    def test_norm_scales_exactly(self):
        d = np.random.default_rng(0).normal(size=9)
        before = np.linalg.norm(d)
        d *= update_factors([BiasTag(mode="update_scale", factor=3.0)])[0]
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


def set_row_budget(monkeypatch, rows, P):
    """Make models.block_rows(P), aggregate_round's rows per block, rows
    (None keeps the default)."""
    if rows:
        monkeypatch.setattr(models, "GROUP_BYTES", rows * 8 * P)
        assert models.block_rows(P) == rows


# blocks of 7 rows leave a partial last block in every matrix below
BUDGETS = pytest.mark.parametrize("rows", [None, 7], ids=["one_block", "blocks_of_7"])


class TestAggregateMatrix:
    @pytest.mark.parametrize("S_policy", ["median_adaptive", "fixed"])
    @BUDGETS
    def test_matches_per_update_path_bit_for_bit(self, monkeypatch, S_policy, rows):
        g = np.random.default_rng(11)
        scales = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0, 100.0]
        deltas = [s * g.normal(size=37) / math.sqrt(37) for s in scales]
        set_row_budget(monkeypatch, rows, 37)
        calls = []  # one dual_clip per block: one in all when the budget holds every row

        def counted(D, *args, **kwargs):
            calls.append(len(D))
            return dual_clip(D, *args, **kwargs)

        monkeypatch.setattr(federation, "dual_clip", counted)
        branches = set()
        for M in (10.0, 0.3):  # M above S (S binds), then below it (M binds)
            cfg = FedConfig(K=len(deltas), S_policy=S_policy, S_fixed=3.0, M=M)
            ref_avg, ref_S, ref_reports = per_update_aggregate(deltas, cfg)
            calls.clear()
            avg, S, reports = aggregate(deltas, cfg)
            assert calls == ([7, 2] if rows else [9])
            assert np.array_equal(avg, ref_avg)
            assert S == ref_S
            assert reports == ref_reports
            branches |= {r.clipped_by for r in reports}
        assert branches == {"none", "dp_bound", "bias_bound"}

    @BUDGETS
    def test_large_matrix_matches_in_place_clip_and_sum_and_is_left_unchanged(self, monkeypatch,
                                                                              rows):
        """Rows clipped and summed a block at a time onto a running total give
        the bytes of clipping the matrix in place and summing it, at a size
        where numpy's reduction could block or buffer."""
        g = np.random.default_rng(13)
        m, P = 600, 30_000
        set_row_budget(monkeypatch, rows, P)
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


def rowwise_dual_clip_aggregate(D, config, norms):
    """The server loop aggregate_round replaced: dual_clip on every row into
    one reused vector, each row added to a running total."""
    S = adaptive_S(norms) if config.S_policy == "median_adaptive" else config.S_fixed
    total = np.zeros(D.shape[1])
    clipped = np.empty_like(total)
    reports = []
    for row, norm in zip(D, norms):
        row, report = dual_clip(row, S, config.M, norm=norm, out=clipped)
        total += row
        reports.append(report)
    return total / len(D), S, reports


class TestLeanAggregate:
    @pytest.mark.parametrize("P", [21, 353, 28_426])
    @BUDGETS
    def test_matches_rowwise_dual_clip_bit_for_bit_and_leaves_D_alone(self, monkeypatch, P,
                                                                      rows):
        set_row_budget(monkeypatch, rows, P)
        g = np.random.default_rng(P)
        D = g.standard_normal((12, P)) / math.sqrt(P)  # norms near 1
        D *= np.array([0.1, 0.5, 0.9, 1.0, 1.5, 2.5, 4.0, 0.2, 3.0, 0.7, 8.0, 1.2])[:, None]
        D[3] = 0.0
        D[3, 0] = 1.0  # norm exactly 1: on the threshold of every config with S or M = 1
        norms = [l2_norm(row) for row in D]
        before = D.tobytes()
        branches = set()
        for S_policy, S_fixed, M in [("fixed", 1.0, 2.0), ("fixed", 2.0, 1.0),
                                     ("fixed", 1.0, 1.0), ("median_adaptive", 1.0, 2.0),
                                     ("median_adaptive", 1.0, 0.6), ("fixed", 1.0, math.inf)]:
            cfg = FedConfig(K=len(D), S_policy=S_policy, S_fixed=S_fixed, M=M)
            avg, S, reports = aggregate_round(D, cfg, norms)
            ref_avg, ref_S, ref_reports = rowwise_dual_clip_aggregate(D, cfg, norms)
            assert avg.tobytes() == ref_avg.tobytes()
            assert S == ref_S and reports == ref_reports
            assert D.tobytes() == before
            branches |= {r.clipped_by for r in reports}
        assert branches == {"none", "dp_bound", "bias_bound"}


    @BUDGETS
    def test_zero_column_sums_from_positive_zero(self, monkeypatch, rows):
        """The total starts at 0.0, so a column of -0.0 sums to 0.0, in one
        block or in several."""
        set_row_budget(monkeypatch, rows, 10)
        D = np.random.default_rng(2).standard_normal((9, 10))
        D[:, 4] = -0.0
        norms = [l2_norm(row) for row in D]
        cfg = FedConfig(K=len(D), S_policy="median_adaptive", M=2.0)
        avg, S, reports = aggregate_round(D, cfg, norms)
        ref_avg, _, ref_reports = rowwise_dual_clip_aggregate(D, cfg, norms)
        assert avg.tobytes() == ref_avg.tobytes() and reports == ref_reports
        assert math.copysign(1.0, avg[4]) == 1.0


class TestRunOwnsItsBuffers:
    def test_nothing_a_run_binds_outlives_it(self, monkeypatch):
        """The update matrix, and the plan's views of it, live as long as
        the run: a cache that kept them would keep their memory too."""
        refs = []
        original = federation.run_round

        def spy(state, *args):
            state, record = original(state, *args)
            refs.append(weakref.ref(state.updates))
            return state, record

        monkeypatch.setattr(federation, "run_round", spy)
        config = scenario_config(T=2, K=5, n_examples=200)
        _, test, shards = build_scenario(config)
        result = run_training(config.fed, config.model_spec, shards, test)
        assert len(refs) == config.fed.T
        del result
        assert all(ref() is None for ref in refs)


class TestRunKeepsItsCallLists:
    def test_resampled_round_emits_lists_only_for_new_keys(self, monkeypatch):
        """Half of 60 clients sampled per round: the plan, its buffers and its
        call lists stay the run's, and a round emits a list only for a block
        key (subgroups, contiguous rows of the update matrix or None) that no
        earlier round of the run had."""
        emitted = []

        gradients = models._gradients

        def counted(*args):
            emitted.append(args)
            return gradients(*args)

        monkeypatch.setattr(models, "_gradients", counted)
        base = scenario_config(K=60, q=0.5, T=4, n_examples=1000, n_features=50, batch_size=4)
        config = dataclasses.replace(base, model_kind="mlp_1hidden", hidden_units=64)
        _, test, shards = build_scenario(config)
        fed, spec = config.fed, config.model_spec
        root = RngStream(fed.seed)
        state = ServerState(round=0, w_global=models.init_params(spec, root.child("init")),
                            ledger=PrivacyLedger(delta_dp=fed.delta_dp))
        seen, blocks, new_per_round, bound = set(), 0, [], []
        for t in range(fed.T):
            sampled = sample_clients(fed.K, fed.q, root.child("sample", t))
            spans = [(shards[c].start, shards[c].stop) for c in sampled]
            keys = [(tuple(subgroups), (rows.start, rows.stop) if isinstance(rows, slice) else None)
                    for rows, subgroups, *_ in models.schedule(spec, spans, fed.batch_size)[2]]
            new = set(keys) - seen
            seen |= new
            blocks += len(keys)
            before = len(emitted)
            state, _ = run_round(state, shards, fed, spec, test, root)
            assert len(emitted) - before == len(new)
            new_per_round.append(len(new))
            bound.append((state.plan, state.plan.X, state.plan.G, state.plan.work[0]))
        assert all(all(a is b for a, b in zip(now, bound[0])) for now in bound)
        assert len(state.plan.lists) == len(seen) < blocks
        assert new_per_round[0] > 0 and sum(new_per_round[1:]) > 0


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
