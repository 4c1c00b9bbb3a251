import json
import re

import pytest

from helpers_fed import BAD_VALUES, bad_section

from fairdpfed import harness
from fairdpfed.cli import main


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

    @pytest.mark.parametrize("summary, message", [
        ("{not json", "not valid JSON"),
        ('{"A_Fed": 0.9}', "missing key A_Cen"),
    ])
    def test_malformed_summary_exit_code(self, tmp_path, capsys, summary, message):
        main(["--quiet", "--out", str(tmp_path / "a"), "run", write_config(tmp_path, SMALL)])
        (tmp_path / "a" / "summary.json").write_text(summary)
        rc = main(["--quiet", "compare", str(tmp_path / "a")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "Traceback" not in err
        assert str(tmp_path / "a" / "summary.json") in err and message in err


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


def test_help_keeps_the_synopsis_lines(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  fairdpfed [--out DIR] [--quiet] compare <run-dir> [<run-dir> ...]" in lines
    assert "            --param KEY --values a,b,c" in lines
