import json
from pathlib import Path

import pytest

from rlsol import checks
from rlsol.cli import DEFAULT_CONFIG, main, parse_config
from rlsol.errors import ConfigError

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = Path(__file__).parent.parent / "src" / "rlsol" / "data" / "report_schema.json"


def _small_config(tmp_path, **overrides) -> Path:
    values = {
        "input_dim": 8,
        "regime_blocks": 10,
        "holdout_size": 32,
        "n_seeds": 3,
    }
    values.update(overrides)
    path = tmp_path / "small.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestConfig:
    def test_default_config_parses(self):
        cfg = parse_config(DEFAULT_CONFIG)
        assert cfg["input_dim"] == 16
        assert cfg["n_seeds"] == 50
        assert cfg["noise_sigma"] == 0.05

    def test_defaults_match_shipped_scenario(self, tmp_path):
        empty = tmp_path / "empty.cfg"
        empty.write_text("")
        defaults = parse_config(empty)
        shipped = parse_config(DEFAULT_CONFIG)
        assert defaults == shipped
        assert {k: type(v) for k, v in defaults.items()} == {
            k: type(v) for k, v in shipped.items()
        }

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("input_dim = 4\nlerning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="lerning_rate"):
            parse_config(path)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("input_dim = four\n")
        with pytest.raises(ConfigError, match="input_dim"):
            parse_config(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("# comment\n\ninput_dim = 4  # inline\n")
        assert parse_config(path)["input_dim"] == 4


class TestExitCodes:
    def test_verify_green(self, verify_run):
        code, out = verify_run
        assert code == 0
        lines = out.splitlines()
        names = [name for name, _ in checks.CHECKS]
        assert len(lines) == len(names) + 1
        for line, name in zip(lines, names):
            assert line.split() == name.split() + ["pass"]
        assert lines[-1] == f"{len(names)}/{len(names)} checks passed"

    def test_verify_failure_exit_1(self, monkeypatch, capsys):
        # stand-ins keep this fast; one of them fails
        stubs = [(name, lambda: True) for name, _ in checks.CHECKS]
        stubs[2] = (stubs[2][0], lambda: False)
        monkeypatch.setattr(checks, "CHECKS", stubs)
        assert main(["verify"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split() == stubs[2][0].split() + ["FAIL"]
        assert sum("FAIL" in line for line in lines) == 1
        assert lines[-1] == f"{len(stubs) - 1}/{len(stubs)} checks passed"

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus_key = 1\n")
        code = main(["bench", "run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing.cfg"
        code = main(["bench", "run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(path) in err

    def test_unknown_learner_exit_2(self, tmp_path, capsys):
        cfg = _small_config(tmp_path, learners="rls_precond,emax")
        code = main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "emax" in capsys.readouterr().err

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["bench", "run", "--bogus"]) == 2

    def test_demo_exit_0(self, capsys):
        assert main(["demo", "rls"]) == 0
        assert "ground truth" in capsys.readouterr().out


class TestDeterminism:
    def test_bench_outputs_byte_identical(self, tmp_path, capsys):
        cfg = _small_config(tmp_path)
        for name in ("a", "b"):
            assert main(
                ["bench", "run", "--config", str(cfg), "--out", str(tmp_path / name)]
            ) == 0
        for fname in ("report.csv", "report.json"):
            first = (tmp_path / "a" / fname).read_bytes()
            second = (tmp_path / "b" / fname).read_bytes()
            assert first == second

    def test_demo_output_stable(self, capsys):
        main(["demo", "rls"])
        first = capsys.readouterr().out
        main(["demo", "rls"])
        assert capsys.readouterr().out == first


class TestReports:
    def test_json_validates_against_schema(self, tmp_path, capsys):
        cfg = _small_config(tmp_path)
        assert main(
            ["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o"),
             "--format", "json"]
        ) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(report, schema)

    def test_csv_column_set(self, tmp_path, capsys):
        cfg = _small_config(tmp_path)
        main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o"),
              "--format", "csv"])
        header = (tmp_path / "o" / "report.csv").read_text().splitlines()[0]
        assert header == (
            "seed,learner,step,adaptation_error,retention_error_regime1,"
            "retention_error_regime2,forgetting_gap,wall_ms"
        )

    def test_seeds_override(self, tmp_path, capsys):
        cfg = _small_config(tmp_path)
        main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o"),
              "--seeds", "2", "--format", "json"])
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["metadata"]["n_seeds"] == 2
