import csv
import io
import json
import math

import numpy as np
import pytest

from helpers_fed import BAD_VALUES, scenario_config

from fairdpfed import models
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
)


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


class TestCentralizedBaseline:
    def test_matches_single_client_federation(self):
        cfg = scenario_config(K=1, T=5, n_examples=300, sigma=0.0,
                              S_policy="fixed", S_fixed=1e9, M=1e9)
        _, test, shards = build_scenario(cfg)
        w_fed, _, _ = run_training(cfg.fed, cfg.model_spec, shards, test)
        w_cen, cen_eval = centralized_baseline(cfg, *build_scenario(cfg)[:2])
        assert np.all(np.abs(w_fed - w_cen) <= 1e-9)
        assert cen_eval.accuracy == models.evaluate(cfg.model_spec, w_fed, test).accuracy

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
        assert names == ["config.echo", "rounds.jsonl", "summary.json"]

    def test_csv_emitted_when_asked(self, tmp_path):
        import dataclasses
        cfg = dataclasses.replace(scenario_config(K=4, T=2, n_examples=200),
                                  emit_csv=True)
        run_experiment(cfg, tmp_path / "run")
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert names == ["config.echo", "rounds.csv", "rounds.jsonl", "summary.json"]

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
        assert (tmp_path / "a" / "rounds.jsonl").read_bytes() == \
            (tmp_path / "b" / "rounds.jsonl").read_bytes()

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


class TestCompareRuns:
    def make_summary(self, a_fed=0.9):
        return RunSummary(A_Fed=a_fed, A_Cen=0.92, delta_acc=abs(a_fed - 0.92),
                          per_group_gap=0.03, eps_total_nominal=1.5, wall_ms=10)

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
