import json

import pytest

from helpers_fed import BAD_VALUES

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
        assert err.startswith("config error:") and "Traceback" not in err

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


class TestSweep:
    def test_sweep_M(self, tmp_path, capsys):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL),
                   "--param", "M", "--values", "0.5,1,inf"])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert dirs == ["M=0.5", "M=1", "M=inf", "comparison.csv"]

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

    def test_sweep_string_values(self, tmp_path):
        rc = main(["--quiet", "--out", str(tmp_path / "sweep"),
                   "sweep", write_config(tmp_path, SMALL),
                   "--param", "S_policy", "--values", "fixed,median_adaptive"])
        assert rc == 0
        dirs = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert dirs == ["S_policy=fixed", "S_policy=median_adaptive", "comparison.csv"]
