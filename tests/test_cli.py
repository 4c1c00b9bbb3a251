import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers_fed import BAD_VALUES, bad_section

from fairdpfed import cli, harness
from fairdpfed.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli_process(*args):
    """Run ``python -W error -m fairdpfed.cli *args`` in a new process with src
    on PYTHONPATH, under -X importtime. Returns (exit code, stderr without the
    import-time lines, whether numpy.ma was imported)."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "importtime", "-m", "fairdpfed.cli", *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300,
    )
    lines = proc.stderr.splitlines(keepends=True)
    imported = [line.rsplit("|", 1)[-1].strip() for line in lines
                if line.startswith("import time:")]
    err = "".join(line for line in lines if not line.startswith("import time:"))
    return proc.returncode, err, "numpy.ma" in imported


def write_config(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


SMALL = {
    "data": {"n_examples": 200, "n_features": 5},
    "federation": {"K": 4, "T": 2},
}


class TestRun:
    def test_run_config_file(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "run"), "run", write_config(tmp_path, SMALL)])
        assert rc == 0
        assert (tmp_path / "run" / "summary.json").exists()
        assert "A_Fed" in capsys.readouterr().out

    def test_run_preset(self, tmp_path):
        rc = main(["--quiet", "--out", str(tmp_path / "run"), "run", "fedavg_clean"])
        assert rc == 0
        assert (tmp_path / "run" / "rounds.jsonl").exists()

    def test_seed_override_changes_results(self, tmp_path):
        main(["--quiet", "--out", str(tmp_path / "a"), "run", write_config(tmp_path, SMALL)])
        main(["--quiet", "--out", str(tmp_path / "b"), "--seed", "99",
              "run", write_config(tmp_path, SMALL)])
        a = (tmp_path / "a" / "rounds.jsonl").read_bytes()
        b = (tmp_path / "b" / "rounds.jsonl").read_bytes()
        assert a != b

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = {"federation": {"K": 4, "q": 0.0}}
        rc = main(["--quiet", "run", write_config(tmp_path, bad)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_value_exit_code(self, tmp_path, capsys, case):
        rc = main(["--quiet", "run", write_config(tmp_path, BAD_VALUES[case])])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.match(rf"config error: {bad_section(case)}[:.]", err)
        assert "Traceback" not in err

    def test_negative_seed_override_exit_code(self, tmp_path, capsys):
        rc = main(["--quiet", "--seed", "-1", "run", write_config(tmp_path, SMALL)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "M", "--values", "1,2"]],
                             ids=["run", "sweep"])
    def test_model_too_large_to_allocate_exit_code(self, tmp_path, capsys, command):
        """numpy refuses a 160 TiB parameter vector at once, touching no memory."""
        raw = {"federation": {"K": 5}, "model": {"kind": "mlp_1hidden", "hidden_units": 10**12}}
        rc = main(["--quiet", "--out", str(tmp_path / "run"), command[0],
                   write_config(tmp_path, raw)] + command[1:])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: a float64 array of shape (22000000000001,) "
                              "needs 163,912.77 GiB")
        assert "model.hidden_units" in err and "P = 22,000,000,000,001" in err

    def test_too_large_update_matrix_names_its_keys(self):
        cfg = harness.config_from_dict({"federation": {"K": 5},
                                        "model": {"kind": "mlp_1hidden", "hidden_units": 10}})
        keys = cli._size_keys(cfg, (5, cfg.model_spec.param_dim))
        assert keys == ("m_t = 5 sampled clients (federation.K, federation.q) and "
                        "P = 221 parameters (data.n_features, data.n_classes, "
                        "model.hidden_units)")

    def test_too_large_data_array_names_every_key_of_its_sizes(self, tmp_path, capsys):
        """The (n_classes, n_features) class directions: 2 is m_t, n_classes
        and n_groups alike, so all three are named."""
        raw = {"data": {"n_features": 10**14}, "federation": {"K": 2, "T": 1}}
        rc = main(["--quiet", "--out", str(tmp_path / "run"), "run",
                   write_config(tmp_path, raw)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: a float64 array of shape (2, 100000000000000) needs "
            "1,490,116.12 GiB, which could not be allocated; its size is set by "
            "m_t = 2 sampled clients (federation.K, federation.q), 2 classes "
            "(data.n_classes) or 2 groups (data.n_groups) and 100,000,000,000,000 "
            "features (data.n_features)\n")

    def test_infeasible_dirichlet_split_exit_code(self, tmp_path, capsys):
        raw = {"data": {"n_examples": 300, "n_features": 5},
               "partition": {"kind": "dirichlet_label_skew", "alpha": 0.1},
               "federation": {"K": 50, "T": 1}}
        rc = main(["--quiet", "--out", str(tmp_path / "run"), "run",
                   write_config(tmp_path, raw)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert "partition.alpha" in err and "federation.K" in err

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["--quiet", "run", str(tmp_path / "absent.json")])
        assert rc in (2, 4)

    @pytest.mark.parametrize("lr, rc, message", [
        (1e9, 0, ""),  # logits overflow exp: probabilities saturate to 0 or 1
        (1e300, 3, "simulation abort: non-finite update from client 0 in round 0\n"),
    ])
    def test_runaway_weights_warn_nothing(self, tmp_path, capsys, lr, rc, message):
        """Under the error filter a numpy overflow warning would be a traceback."""
        raw = {"data": {"n_examples": 120, "n_features": 4},
               "partition": {"kind": "dirichlet_label_skew", "alpha": 1.0},
               "federation": {"K": 4, "T": 2, "sigma": 0.5, "M": 0.5, "seed": 1, "lr": lr},
               "bias": {"biased_client_ids": [0], "mode": "update_scale", "factor": 5.0}}
        assert main(["--quiet", "--out", str(tmp_path / "run"), "run",
                     write_config(tmp_path, raw)]) == rc
        assert capsys.readouterr().err == message


class TestProcess:
    """End-to-end runs in their own process, where every warning is an error."""

    def test_run_imports_no_numpy_ma(self, tmp_path):
        rc, err, numpy_ma = run_cli_process("--quiet", "--out", str(tmp_path / "run"),
                                            "run", "fair_dp")
        assert (rc, err) == (0, "")
        assert not numpy_ma

    @pytest.mark.parametrize("key, bound", [("S_fixed", "dp_bound"), ("M", "bias_bound")])
    def test_subnormal_threshold_clips_every_update_to_zero(self, tmp_path, key, bound):
        raw = {"federation": {"K": 2, "T": 1, "S_policy": "fixed", key: 1e-320}}
        rc, err, _ = run_cli_process("--quiet", "--out", str(tmp_path / "run"),
                                     "run", write_config(tmp_path, raw))
        assert (rc, err) == (0, "")
        rounds = (tmp_path / "run" / "rounds.jsonl").read_text().splitlines()
        clients = [c for line in rounds for c in json.loads(line)["per_client"]]
        assert len(clients) == 2
        assert all(c["clip_factor"] == 0.0 and c["clipped_by"] == bound for c in clients)


FULL_SUMMARY = {"A_Fed": 0.9, "A_Cen": 0.9, "delta_acc": 0.0, "per_group_gap": 0.0,
                "eps_total_nominal": 1.0}


class TestCompare:
    def test_compare_two_runs(self, tmp_path, capsys):
        main(["--quiet", "--out", str(tmp_path / "a"), "run", write_config(tmp_path, SMALL)])
        main(["--quiet", "--out", str(tmp_path / "b"), "--seed", "7",
              "run", write_config(tmp_path, SMALL)])
        rc = main(["--out", str(tmp_path / "cmp"), "compare",
                   str(tmp_path / "a"), str(tmp_path / "b")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "A_Fed" in out
        assert (tmp_path / "cmp" / "comparison.csv").exists()

    def test_compare_one_run(self, tmp_path, capsys):
        main(["--quiet", "--out", str(tmp_path / "a"), "run", write_config(tmp_path, SMALL)])
        rc = main(["--out", str(tmp_path / "cmp"), "compare", str(tmp_path / "a")])
        assert rc == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert len((tmp_path / "cmp" / "comparison.csv").read_text().splitlines()) == 2

    def test_noiseless_summary_is_strict_json(self, tmp_path, capsys):
        """fedavg_clean adds no noise, so its ε is infinite: written "inf",
        which compare reads back as inf."""
        assert main(["--quiet", "--out", str(tmp_path / "a"), "run", "fedavg_clean"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads((tmp_path / "a" / "summary.json").read_text(), parse_constant=reject)
        assert doc["eps_total_nominal"] == "inf"
        assert main(["--out", str(tmp_path / "cmp"), "compare", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[-1] == "inf"
        csv_row = (tmp_path / "cmp" / "comparison.csv").read_text().splitlines()[1]
        assert csv_row.endswith(",inf")

    @pytest.mark.parametrize("summary, message", [
        ("{not json", "not valid JSON"),
        ('{"A_Fed": 0.9}', "missing key A_Cen"),
        (json.dumps(dict(FULL_SUMMARY, A_Fed="x")), "A_Fed must be a number"),
        (json.dumps(dict(FULL_SUMMARY, A_Fed=True)), "A_Fed must be a number"),
        (json.dumps(dict(FULL_SUMMARY, eps_total_nominal="-inf")),
         "eps_total_nominal must be a number"),
    ])
    def test_malformed_summary_exit_code(self, tmp_path, capsys, summary, message):
        main(["--quiet", "--out", str(tmp_path / "a"), "run", write_config(tmp_path, SMALL)])
        (tmp_path / "a" / "summary.json").write_text(summary)
        rc = main(["--quiet", "compare", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert str(tmp_path / "a" / "summary.json") in err and message in err


# files json cannot read, each raising something other than JSONDecodeError
UNREADABLE_JSON = {
    "not_utf8": b'{"federation": {"K": "\xff"}}',
    "int_of_5000_digits": b'{"federation": {"K": ' + b"1" * 5000 + b"}}",
    "nested_200000_deep": b"[" * 200_000,
}


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("case", sorted(UNREADABLE_JSON))
def test_unreadable_json_exit_code(tmp_path, capsys, command, case):
    path = tmp_path / "a" / ("cfg.json" if command == "run" else "summary.json")
    path.parent.mkdir()
    path.write_bytes(UNREADABLE_JSON[case])
    rc = main(["--quiet", command, str(path if command == "run" else path.parent)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and "Traceback" not in err
    assert f"{path}: not valid JSON" in err


class TestSweep:
    def test_sweep_M(self, tmp_path, capsys):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL),
                   "--param", "M", "--values", "0.5,1,inf"])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert dirs == ["M=0.5", "M=1", "M=inf", "comparison.csv"]

    def test_sweep_one_value(self, tmp_path):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL),
                   "--param", "M", "--values", "0.5"])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert dirs == ["M=0.5", "comparison.csv"]

    def test_sweep_bad_param(self, tmp_path):
        rc = main(["--quiet", "sweep", write_config(tmp_path, SMALL),
                   "--param", "banana", "--values", "1,2"])
        assert rc == 2

    def test_sweep_bad_value_rejected_before_any_run(self, tmp_path, capsys):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL),
                   "--param", "sigma", "--values", "0.5,-1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_non_integer_count_rejected_before_any_run(self, tmp_path, capsys):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL),
                   "--param", "T", "--values", "2,2.5"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("param, values, scenarios, baselines", [
        ("M", "0.5,1,inf", 1, 1),
        ("sigma", "0,0.5", 1, 1),
        ("T", "1,2", 1, 2),
        ("K", "3,4", 2, 1),
        ("seed", "0,5", 2, 2),
    ])
    def test_sweep_builds_scenario_and_baseline_once_unless_swept(
            self, tmp_path, monkeypatch, param, values, scenarios, baselines):
        calls = {"build_scenario": 0, "centralized_baseline": 0}
        for name in calls:
            original = getattr(harness, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        config = write_config(tmp_path, SMALL)
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"), "sweep", config,
                   "--param", param, "--values", values])
        assert rc == 0
        assert calls == {"build_scenario": scenarios, "centralized_baseline": baselines}
        monkeypatch.undo()
        for value in values.split(","):
            raw = json.loads(json.dumps(SMALL))
            raw["federation"][param] = value if value == "inf" else json.loads(value)
            single = tmp_path / f"single-{value}"
            assert main(["--quiet", "--out", str(single), "run",
                         write_config(tmp_path, raw)]) == 0
            swept = tmp_path / "sweep" / f"{param}={value}"
            for artifact in ("rounds.jsonl", "config.echo"):
                assert (swept / artifact).read_bytes() == (single / artifact).read_bytes()
            assert (json.loads((swept / "summary.json").read_text())["A_Cen"]
                    == json.loads((single / "summary.json").read_text())["A_Cen"])

    def test_sweep_string_values(self, tmp_path):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL),
                   "--param", "S_policy", "--values", "fixed,median_adaptive"])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert dirs == ["S_policy=fixed", "S_policy=median_adaptive", "comparison.csv"]


    @pytest.mark.parametrize("param, values, dirs", [
        ("S_policy", "fixed, median_adaptive", ["S_policy=fixed", "S_policy=median_adaptive"]),
        ("M", " 0.1 , 0.2", ["M=0.1", "M=0.2"]),
    ], ids=["strings", "numbers"])
    def test_sweep_strips_spaces_around_values(self, tmp_path, param, values, dirs):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL), "--param", param, "--values", values])
        assert rc == 0
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == dirs + ["comparison.csv"]
        rows = (tmp_path / "sweep" / "comparison.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == dirs

    @pytest.mark.parametrize("values", ["0.2,0.2", "0.2, 0.2", "1,1.0"])
    def test_sweep_repeated_value_rejected_before_any_run(self, tmp_path, capsys, values):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL), "--param", "M", "--values", values])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "twice" in err
        assert not (tmp_path / "sweep").exists()

def test_help_keeps_the_synopsis_lines(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  fairdpfed [--out DIR] [--quiet] compare <run-dir> [<run-dir> ...]" in lines
    assert "            --param KEY --values a,b,c" in lines
