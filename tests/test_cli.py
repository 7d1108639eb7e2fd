import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from rlsol import bench, checks
from rlsol.cli import _CONFIG_TYPES, DEFAULT_CONFIG, _params_from_config, main, parse_config
from rlsol.errors import ConfigError

jsonschema = pytest.importorskip("jsonschema")

REPO = Path(__file__).parent.parent
SCHEMA_PATH = REPO / "src" / "rlsol" / "data" / "report_schema.json"
OVERFLOW_CONFIG = REPO / "perfbench" / "repro" / "precond_overflow.cfg"


def _strict_json(text: str):
    """json.loads that rejects the non-standard Infinity/NaN tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


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

    def test_every_key_has_a_shipped_default(self):
        assert set(parse_config(DEFAULT_CONFIG)) == set(_CONFIG_TYPES)

    # the library's own defaults repeat the shipped file's; they must agree
    def test_library_defaults_match_shipped_file(self):
        shipped = parse_config(DEFAULT_CONFIG)
        assert _params_from_config(shipped) == bench.BenchParams()
        for default in (
            inspect.signature(bench.build_scenario).parameters["holdout_size"].default,
            next(f for f in fields(bench.DriftScenario) if f.name == "holdout_size").default,
        ):
            assert default == shipped["holdout_size"]

    def test_repeated_key_named_with_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("input_dim = 4\n# comment\ninput_dim = 8\n")
        with pytest.raises(ConfigError, match=r"twice.cfg:3: key 'input_dim' already set on line 1"):
            parse_config(path)

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        path = _small_config(tmp_path)
        path.write_text(path.read_text() + "n_seeds = 2\n")
        out = tmp_path / "out"
        assert main(["bench", "run", "--config", str(path), "--out", str(out)]) == 2
        assert "'n_seeds' already set on line 4" in capsys.readouterr().err
        assert not out.exists()

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

    # these settings are checked inside the run, after the output directory
    # is made; a rejected run removes the directories it made
    def test_unknown_learner_exit_2(self, tmp_path, capsys):
        cfg = _small_config(tmp_path, learners="rls_precond,emax")
        code = main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o" / "run")])
        assert code == 2
        assert "emax" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_zero_seeds_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o" / "run"
        code = main(["bench", "run", "--config", str(_small_config(tmp_path)), "--seeds", "0",
                     "--out", str(out)])
        assert code == 2
        assert "n_seeds must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # every setting is checked before the first update (the RLS learners run
    # first, so a bad mbsgd setting must not wait for them), and a
    # ConfigError is never recorded as a learner failure
    @pytest.mark.parametrize(
        "learners, key, value",
        [
            ("rls_precond,exact_rls", "rls_lr", 0),
            ("plain_bgd,exact_rls", "lr_bgd", -1),
            ("plain_bgd,exact_rls", "iterations", 0),
            ("ema,exact_rls", "weight_decay", -0.1),
            ("mbsgd,exact_rls", "batch_size", 0),
            ("exact_rls,mbsgd", "batch_size", 0),
            ("exact_rls,rls_precond", "window", 0),
            ("exact_rls,plain_bgd", "holdout_size", 0),
            ("exact_rls,plain_bgd", "holdout_size", -1),
            ("exact_rls,plain_bgd", "seed", -1),
        ],
    )
    def test_bad_learner_setting_exit_2(self, tmp_path, capsys, monkeypatch, learners, key, value):
        def advance(*args):
            pytest.fail("the precision advanced before every setting was checked")

        monkeypatch.setattr(bench, "advance_precisions", advance)
        cfg = _small_config(tmp_path, learners=learners, **{key: value})
        code = main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o" / "run")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # the regimes are built from the dimensions, so they are checked first
    @pytest.mark.parametrize("key", ["input_dim", "output_dim"])
    def test_zero_dimension_exit_2(self, tmp_path, capsys, key):
        cfg = _small_config(tmp_path, **{key: 0})
        code = main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{key} must be at least 1, got 0" in capsys.readouterr().err

    # NaN passes every `<` or `<=` range check, so a non-finite setting needs
    # its own rule; without one it reached the learners and was recorded as
    # their failure
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "learners, key",
        [
            ("rls_precond,exact_rls", "rls_lr"),
            ("plain_bgd,exact_rls", "rls_delta"),
            ("plain_bgd,exact_rls", "lr_bgd"),
            ("mbsgd,exact_rls", "lr_mbsgd"),
            ("ema,exact_rls", "ema_inner_lr"),
            ("rls_precond,exact_rls", "weight_decay"),
            ("plain_bgd,exact_rls", "window_delta"),
            ("plain_bgd,exact_rls", "noise_sigma"),
        ],
    )
    def test_non_finite_setting_exit_2(self, tmp_path, capsys, learners, key, value):
        cfg = _small_config(tmp_path, learners=learners, **{key: value})
        code = main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"got {value}" in err

    # a finite noise_sigma so large that a holdout overflows is a bad
    # setting too, and numpy's overflow warning does not reach stderr
    def test_overflowing_noise_exit_2(self, tmp_path):
        cfg = _small_config(tmp_path, noise_sigma="1e308")
        script = "import sys; from rlsol.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o")]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        run = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)
        assert run.returncode == 2
        assert "noise_sigma 1e+308 gives non-finite holdout rows in regime 1" in run.stderr
        assert "Warning" not in run.stderr

    def test_duplicate_learner_exit_2(self, tmp_path, capsys):
        # report.json keys its summaries by learner name, so a duplicate
        # would silently write one summary for two runs
        cfg = _small_config(tmp_path, learners="plain_bgd, exact_rls,plain_bgd")
        code = main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "'plain_bgd'" in err
        assert not (tmp_path / "o").exists()

    # compare_retention raises ConfigError, not an error that exits 1 as if
    # a check had failed
    @pytest.mark.parametrize("learners", ["rls_precond", ""], ids=["one", "none"])
    def test_too_few_learners_exit_2(self, tmp_path, capsys, learners):
        cfg = _small_config(tmp_path, learners=learners)
        code = main(["bench", "run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "at least two learners" in err
        assert not (tmp_path / "o").exists()

    # the output directory used to be made only after every seed had run,
    # and a path it could not make ended the run in a traceback
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
    def test_unusable_out_exit_2(self, tmp_path, capsys, monkeypatch, below):
        def compare_retention(*args):
            pytest.fail("the run started before its output directory was made")

        monkeypatch.setattr(bench, "compare_retention", compare_retention)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / below if below else taken
        code = main(["bench", "run", "--config", str(_small_config(tmp_path)), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert str(out) in err

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

    @pytest.mark.filterwarnings("error")
    def test_failed_learner_counted(self, tmp_path, capsys):
        # at this forgetting factor exact_rls's precision recursion degenerates;
        # the run still exits 0, and the failed learner's non-finite errors
        # are written as null
        cfg = _small_config(tmp_path, rls_beta="1e-200", learners="exact_rls,plain_bgd")
        assert main(
            ["bench", "run", "--config", str(cfg), "--seeds", "2",
             "--out", str(tmp_path / "o"), "--format", "json"]
        ) == 0
        report = _strict_json((tmp_path / "o" / "report.json").read_text())
        jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))
        failed = report["summaries"]["exact_rls"]
        assert (failed["n_failed"], failed["n_diverged"]) == (2, 0)
        assert failed["mean_final_retention_regime1"] is None
        assert "n_failed" not in report["summaries"]["plain_bgd"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_learner_counted_as_diverged(self, tmp_path, capsys):
        # rls_precond overflows at p = 512 on this config: a divergence, not a
        # failure; its infinite errors are written as null
        assert main(
            ["bench", "run", "--config", str(OVERFLOW_CONFIG), "--seeds", "2",
             "--out", str(tmp_path / "o"), "--format", "json"]
        ) == 0
        report = _strict_json((tmp_path / "o" / "report.json").read_text())
        jsonschema.validate(report, json.loads(SCHEMA_PATH.read_text()))
        diverged = report["summaries"]["rls_precond"]
        assert diverged["n_diverged"] == 2 and "n_failed" not in diverged
        assert diverged["mean_final_retention_regime1"] is None

    def test_timing_per_learner(self, tmp_path, capsys):
        cfg = _small_config(
            tmp_path, learners="plain_bgd,mbsgd,ema:0.3,rls_precond,exact_rls", n_seeds=2
        )
        for name, flags in (("plain", []), ("timed", ["--timing"])):
            assert main(
                ["bench", "run", "--config", str(cfg), "--out", str(tmp_path / name),
                 "--format", "csv", *flags]
            ) == 0
        plain = (tmp_path / "plain" / "report.csv").read_text().splitlines()
        timed = (tmp_path / "timed" / "report.csv").read_text().splitlines()
        assert plain[0] == timed[0] and timed[0].endswith(",wall_ms")
        assert len(plain) == len(timed)
        walls = {}
        for row, timed_row in zip(plain[1:], timed[1:]):
            *columns, wall = row.split(",")
            *timed_columns, timed_wall = timed_row.split(",")
            assert timed_columns == columns
            assert float(wall) == 0.0
            walls.setdefault(tuple(columns[:2]), set()).add(float(timed_wall))
        # one positive time per (seed, learner)
        assert len(walls) == 2 * 5
        for times in walls.values():
            assert len(times) == 1 and min(times) > 0.0

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
