import csv
import dataclasses
import io
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from helpers_fed import BAD_VALUES, per_client_sgd, scenario_config

from fairdpfed import harness, models
from fairdpfed.federation import run_training
from fairdpfed.harness import (
    _SECTION_KEYS,
    PRESETS,
    ConfigError,
    RunSummary,
    build_scenario,
    centralized_baseline,
    compare_runs,
    config_from_dict,
    config_to_dict,
    load_summary,
    parse_config,
    preset_config,
    run_experiment,
    run_experiments,
)
from fairdpfed.numeric import RngStream


MINIMAL = {"federation": {"K": 4}}


def write_config(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestParseConfig:
    def test_minimal_gets_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL))
        assert cfg.fed.K == 4
        assert cfg.fed.q == 1.0
        assert cfg.data.n_examples == 2000
        assert cfg.partition.kind == "iid"
        assert cfg.bias.mode == "clean"
        assert cfg.emit_csv is False

    def test_q_zero_rejected_with_message(self, tmp_path):
        raw = {"federation": {"K": 4, "q": 0.0}}
        with pytest.raises(ConfigError, match=r"q must be in \(0,1\]"):
            parse_config(write_config(tmp_path, raw))

    def test_unknown_key_rejected_with_path(self, tmp_path):
        raw = {"federation": {"K": 4, "learning_rate": 0.1}}
        with pytest.raises(ConfigError, match="federation.learning_rate"):
            parse_config(write_config(tmp_path, raw))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="plotting"):
            parse_config(write_config(tmp_path, {"federation": {"K": 2}, "plotting": {}}))

    def test_missing_K_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="federation.K"):
            parse_config(write_config(tmp_path, {"federation": {}}))

    def test_biased_ids_validated(self, tmp_path):
        raw = {
            "federation": {"K": 4},
            "bias": {"biased_client_ids": [7], "mode": "update_scale"},
        }
        with pytest.raises(ConfigError, match="client 7"):
            parse_config(write_config(tmp_path, raw))

    def test_inf_M_parses(self, tmp_path):
        raw = {"federation": {"K": 4, "M": "inf"}}
        cfg = parse_config(write_config(tmp_path, raw))
        assert math.isinf(cfg.fed.M)

    def test_round_trip(self, tmp_path):
        raw = {
            "data": {"n_examples": 500, "n_features": 6, "class_separation": 3.0},
            "model": {"kind": "mlp_1hidden", "hidden_units": 4},
            "partition": {"kind": "dirichlet_label_skew", "alpha": 0.3},
            "federation": {"K": 5, "q": 0.6, "T": 3, "sigma": 0.7, "M": "inf",
                           "seed": 11},
            "bias": {"biased_client_ids": [1], "mode": "update_scale", "factor": 9.0},
            "output": {"emit_csv": True},
        }
        cfg = parse_config(write_config(tmp_path, raw))
        echoed = config_to_dict(cfg)
        assert config_from_dict(echoed) == cfg

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_rejected(self, tmp_path, case):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, BAD_VALUES[case]))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("K = 4")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(path)


class TestPresets:
    @pytest.mark.parametrize("name", ["fedavg_clean", "dp_only", "fair_dp",
                                      "biased_attack"])
    def test_presets_parse(self, name):
        cfg = preset_config(name)
        assert cfg.fed.K == 10

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_echo_sections_match_schema(self, name):
        doc = config_to_dict(preset_config(name))
        assert set(doc) == set(_SECTION_KEYS)
        for section, body in doc.items():
            assert set(body) == _SECTION_KEYS[section]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("nope")

    def test_biased_attack_has_biased_minority(self):
        cfg = preset_config("biased_attack")
        assert len(cfg.bias.biased_client_ids) / cfg.fed.K == pytest.approx(0.2)


# the data, model, partition and client count of each benchmark workload
BENCHMARK_SHAPED = {
    "cross_device_lr": {"data": {"n_examples": 20000, "n_features": 20},
                        "partition": {"kind": "dirichlet_label_skew", "alpha": 0.5},
                        "federation": {"K": 100, "seed": 1},
                        "bias": {"biased_client_ids": [3, 40], "mode": "update_scale"}},
    "wide_server": {"data": {"n_examples": 16000, "n_features": 100, "n_classes": 10},
                    "model": {"kind": "mlp_1hidden", "hidden_units": 256},
                    "federation": {"K": 1000, "q": 0.5, "seed": 1},
                    "bias": {"biased_client_ids": [0, 5], "mode": "update_scale"}},
    "m_sweep": {"data": {"n_examples": 5000, "n_features": 20, "class_separation": 2.0},
                "model": {"kind": "mlp_1hidden", "hidden_units": 16},
                "partition": {"kind": "dirichlet_label_skew", "alpha": 0.3},
                "federation": {"K": 50, "seed": 1},
                "bias": {"biased_client_ids": [7], "mode": "update_scale"}},
}


class TestBuildScenarioMemory:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_SHAPED))
    def test_peak_below_two_and_a_half_feature_matrices(self, name):
        """The in-place build peaks near two copies of the feature matrix:
        the drawn matrix and its two splits, before it is dropped. The
        out-of-place formula peaked above three."""
        cfg = config_from_dict(BENCHMARK_SHAPED[name])
        build_scenario(cfg)  # loads the modules numpy imports on first use
        tracemalloc.start()
        try:
            build_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * cfg.data.n_examples * cfg.data.n_features * 8


class TestCentralizedBaseline:
    def test_matches_single_client_federation(self):
        cfg = scenario_config(K=1, T=5, n_examples=300, sigma=0.0,
                              S_policy="fixed", S_fixed=1e9, M=1e9)
        _, test, shards = build_scenario(cfg)
        w_fed, _, _ = run_training(cfg.fed, cfg.model_spec, shards, test)
        w_cen, cen_eval = centralized_baseline(cfg, *build_scenario(cfg)[:2])
        # the federation's model is w + (W - w), not W: a rounding apart
        # (5.6e-17 here)
        assert np.all(np.abs(w_fed - w_cen) <= 1e-15)
        assert cen_eval.accuracy == models.evaluate(cfg.model_spec, w_fed, test).accuracy

    @pytest.mark.parametrize("model", [{}, {"model_kind": "mlp_1hidden", "hidden_units": 5}],
                             ids=["lr", "mlp"])
    def test_equals_chained_per_client_loop(self, model):
        """T rounds of the plain per-client loop as client 0 of each round's
        stream, from the init model, on 240 rows in minibatches of 32."""
        cfg = dataclasses.replace(scenario_config(K=3, T=4, n_examples=300, epochs=2),
                                  **model)
        train, test, _ = build_scenario(cfg)
        assert len(train) % cfg.fed.batch_size != 0
        spec, root = cfg.model_spec, RngStream(cfg.fed.seed)
        w = models.init_params(spec, root.child("init"))
        for t in range(cfg.fed.T):
            w = per_client_sgd(spec, w, train, cfg.fed.epochs, cfg.fed.lr, cfg.fed.batch_size,
                               root.child("round", t).child("client", 0))
        w_cen, _ = centralized_baseline(cfg, train, test)
        assert np.array_equal(w_cen, w)

    def test_one_call_list_per_block_key(self, monkeypatch):
        """240 rows in minibatches of 32, T=4, epochs=2: 64 steps of one
        plan, which emits two call lists (full steps and the 16-row tail),
        shared by every step of their key."""
        plans, emitted = [], []

        class Spy(models.Plan):
            def __init__(self, *args):
                super().__init__(*args)
                plans.append(self)

        gradients = models._gradients

        def counted(*args):
            emitted.append(args)
            return gradients(*args)

        monkeypatch.setattr(models, "Plan", Spy)
        monkeypatch.setattr(models, "_gradients", counted)
        cfg = scenario_config(K=3, T=4, n_examples=300, epochs=2)
        centralized_baseline(cfg, *build_scenario(cfg)[:2])
        [plan] = plans
        assert len(emitted) == len(plan.lists) == 2
        assert len(plan.steps) == 8
        full = plan.lists[((1, 32),), (0, 1)][-1]
        tail = plan.lists[((1, 16),), (0, 1)][-1]
        assert all(step[-1] is full for step in plan.steps[:7]) and plan.steps[7][-1] is tail

    def test_separable_data_high_accuracy(self):
        cfg = scenario_config(K=4, T=30, n_examples=1000, class_separation=10.0)
        _, cen_eval = centralized_baseline(cfg, *build_scenario(cfg)[:2])
        assert cen_eval.accuracy > 0.95

    def test_deterministic(self):
        cfg = scenario_config(K=3, T=3, n_examples=200)
        w1, _ = centralized_baseline(cfg, *build_scenario(cfg)[:2])
        w2, _ = centralized_baseline(cfg, *build_scenario(cfg)[:2])
        assert np.array_equal(w1, w2)

    def test_baseline_ignores_bias_injection(self):
        clean = scenario_config(K=5, T=3, n_examples=300)
        biased = scenario_config(
            K=5, T=3, n_examples=300,
            bias={"biased_client_ids": [0, 1], "mode": "label_flip",
                  "flip_prob": 1.0, "target_group": 0},
        )
        w_clean, _ = centralized_baseline(clean, *build_scenario(clean)[:2])
        w_biased, _ = centralized_baseline(biased, *build_scenario(biased)[:2])
        assert np.array_equal(w_clean, w_biased)


class TestRunExperiment:
    def test_artifact_set(self, tmp_path):
        cfg = scenario_config(K=4, T=2, n_examples=200)
        run_experiment(cfg, tmp_path / "run")
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert names == ["config.echo", "rounds.jsonl", "summary.json", "timings.json"]

    def test_csv_emitted_when_asked(self, tmp_path):
        cfg = dataclasses.replace(scenario_config(K=4, T=2, n_examples=200),
                                  emit_csv=True)
        run_experiment(cfg, tmp_path / "run")
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert names == ["config.echo", "rounds.csv", "rounds.jsonl", "summary.json",
                         "timings.json"]

    def test_summary_consistent_with_files(self, tmp_path):
        cfg = scenario_config(K=4, T=3, n_examples=200)
        summary = run_experiment(cfg, tmp_path / "run")
        doc = json.loads((tmp_path / "run" / "summary.json").read_text())
        rounds = [json.loads(line)
                  for line in (tmp_path / "run" / "rounds.jsonl").read_text().splitlines()]
        assert len(rounds) == 3
        assert doc["A_Fed"] == rounds[-1]["eval"]["accuracy"]
        assert abs(doc["delta_acc"] - abs(doc["A_Fed"] - doc["A_Cen"])) <= 1e-12
        assert summary.delta_acc == doc["delta_acc"]

    def test_rerun_byte_identical(self, tmp_path):
        cfg = scenario_config(K=4, T=3, n_examples=200, sigma=0.5,
                              S_policy="median_adaptive")
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for name in ("rounds.jsonl", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_timings_cover_every_phase(self, tmp_path):
        run_experiment(scenario_config(K=4, T=2, n_examples=200), tmp_path / "run")
        timings = json.loads((tmp_path / "run" / "timings.json").read_text())
        phases = ["scenario_s", "federation_s", "baseline_s", "write_s"]
        assert list(timings) == phases + ["total_s"]
        assert all(timings[p] >= 0 for p in phases)
        assert timings["total_s"] == sum(timings[p] for p in phases)

    def test_sweep_timings_null_for_reused_phases(self, tmp_path):
        cfg = scenario_config(K=4, T=2, n_examples=200)
        configs = [(name, dataclasses.replace(cfg, fed=dataclasses.replace(cfg.fed, M=m)))
                   for name, m in (("first", 0.5), ("second", 1.0))]
        run_experiments([(tmp_path / name, c) for name, c in configs])
        first, second = (json.loads((tmp_path / name / "timings.json").read_text())
                         for name, _ in configs)
        assert first["scenario_s"] >= 0 and first["baseline_s"] >= 0
        assert second["scenario_s"] is None and second["baseline_s"] is None
        assert second["total_s"] == second["federation_s"] + second["write_s"]

    def test_no_timestamps_in_round_records(self, tmp_path):
        cfg = scenario_config(K=4, T=2, n_examples=200)
        run_experiment(cfg, tmp_path / "run")
        text = (tmp_path / "run" / "rounds.jsonl").read_text()
        for banned in ("time", "date", "host"):
            assert banned not in text

    def test_bias_clipping_improves_accuracy(self, tmp_path):
        bias = {"biased_client_ids": [0, 1], "mode": "update_scale", "factor": 25.0}
        part = {"kind": "dirichlet_label_skew", "alpha": 0.1}
        common = dict(K=10, T=15, n_examples=800, bias=bias, partition=part,
                      class_separation=2.0)
        open_run = run_experiment(
            scenario_config(M="inf", **common), tmp_path / "open"
        )
        clipped_run = run_experiment(
            scenario_config(M=0.1, **common), tmp_path / "clipped"
        )
        assert clipped_run.A_Fed > open_run.A_Fed

    def test_load_summary(self, tmp_path):
        cfg = scenario_config(K=4, T=2, n_examples=200)
        summary = run_experiment(cfg, tmp_path / "run")
        loaded = load_summary(tmp_path / "run")
        assert loaded == RunSummary(**{
            k: getattr(summary, k) for k in RunSummary.__dataclass_fields__
        })


# one key changed between two runs -> (build_scenario, centralized_baseline) calls
REUSE_CASES = {
    "M": ({"M": 0.5}, 1, 1),
    "K": ({"K": 5}, 2, 1),
    "lr": ({"lr": 0.05}, 1, 2),
    "seed": ({"seed": 1}, 2, 2),
    "bias": ({"bias": {"biased_client_ids": [0], "mode": "update_scale", "factor": 25.0}},
             2, 1),
}


class TestRunExperiments:
    @staticmethod
    def count_calls(monkeypatch) -> dict:
        calls = {"build_scenario": 0, "centralized_baseline": 0}
        for name in calls:
            original = getattr(harness, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(harness, name, counted)
        return calls

    @pytest.mark.parametrize("change, scenarios, baselines", REUSE_CASES.values(),
                             ids=REUSE_CASES)
    def test_reuse_follows_the_inputs_read(self, tmp_path, monkeypatch, change,
                                           scenarios, baselines):
        """A run rebuilds the scenario, or retrains the baseline, only when an
        input that function reads differs from the previous run's; the reused
        phase reads null in timings.json, and every run writes the bytes the
        same config writes when run alone."""
        common = dict(K=4, T=2, n_examples=200, S_policy="median_adaptive", sigma=0.5)
        runs = [(tmp_path / "first", scenario_config(**common)),
                (tmp_path / "second", scenario_config(**common | change))]
        calls = self.count_calls(monkeypatch)
        run_experiments(runs)
        assert calls == {"build_scenario": scenarios, "centralized_baseline": baselines}
        monkeypatch.undo()
        first, second = (json.loads((out / "timings.json").read_text()) for out, _ in runs)
        assert None not in first.values()
        assert [phase for phase, s in second.items() if s is None] == (
            ["scenario_s"] * (scenarios == 1) + ["baseline_s"] * (baselines == 1))
        for out, cfg in runs:
            run_experiment(cfg, tmp_path / "alone")
            for name in ("rounds.jsonl", "summary.json"):
                assert (out / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()

    def test_keeps_only_the_previous_scenario(self, tmp_path, monkeypatch):
        """While a run with other scenario inputs trains, nothing refers to the
        training set, or the shards' pool, that an earlier run built."""
        built, alive_in_training = [], []
        build, train = harness.build_scenario, harness.run_training

        def build_spy(cfg):
            scenario = build(cfg)
            pools = (scenario[0].features, scenario[2][0].pool.features)
            built.append([weakref.ref(features) for features in pools])
            return scenario

        def train_spy(*args):
            alive_in_training.append([any(ref() is not None for ref in refs) for refs in built])
            return train(*args)

        monkeypatch.setattr(harness, "build_scenario", build_spy)
        monkeypatch.setattr(harness, "run_training", train_spy)
        base = scenario_config(K=4, T=2, n_examples=200)
        run_experiments([(tmp_path / str(seed), dataclasses.replace(
            base, fed=dataclasses.replace(base.fed, seed=seed))) for seed in range(3)])
        assert alive_in_training == [[True], [False, True], [False, False, True]]


class TestCompareRuns:
    def make_summary(self, a_fed=0.9):
        return RunSummary(A_Fed=a_fed, A_Cen=0.92, delta_acc=abs(a_fed - 0.92),
                          per_group_gap=0.03, eps_total_nominal=1.5)

    def test_identical_runs_zero_delta(self):
        text, csv_text = compare_runs([("a", self.make_summary()),
                                       ("b", self.make_summary())])
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert float(rows[0]["A_Fed"]) == float(rows[1]["A_Fed"])

    def test_column_order(self):
        text, csv_text = compare_runs([("a", self.make_summary()),
                                       ("b", self.make_summary(0.8))])
        header = csv_text.splitlines()[0]
        assert header == "run,A_Fed,A_Cen,delta_acc,per_group_gap,eps_total_nominal"
        assert text.splitlines()[0].split()[:2] == ["run", "A_Fed"]

    def test_csv_reparses_to_same_table(self):
        pairs = [("a", self.make_summary()), ("b", self.make_summary(0.8))]
        _, csv_text = compare_runs(pairs)
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        for row, (name, s) in zip(rows, pairs):
            assert row["run"] == name
            assert float(row["A_Fed"]) == s.A_Fed
            assert float(row["eps_total_nominal"]) == s.eps_total_nominal
