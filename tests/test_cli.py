"""CLI subcommands, config parsing, and exit codes."""

import json
import re
from pathlib import Path
from dataclasses import MISSING, fields

import numpy as np
import pytest

from dpnewsvendor import data as datamod
from dpnewsvendor import evaluation, optimizer
from dpnewsvendor.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PRIVACY,
    EXIT_USAGE,
    main,
    parse_config,
)
from dpnewsvendor.errors import MaxIterExceeded
from dpnewsvendor.model import Problem

SMOKE_CONFIG = """\
[problem]
tau = 0.5

[data]
dist = normal
n = 100

[hyper]
T = 5
B = 2

[privacy]
mu = nonprivate, 0.5

[replication]
reps = 1
base_seed = 3
eval_n = 5000
"""


class TestConfig:
    def test_parse_defaults(self):
        cfg = parse_config(SMOKE_CONFIG)
        [cell] = cfg.cells
        assert cell.problem == Problem.from_quantile(0.5)
        assert cell.n == 100
        assert cell.mu_grid == (None, 0.5)
        assert cell.n_steps == 5
        assert cfg.reps == 1

    def test_readme_config_block_parses(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
        cfg = parse_config(block)
        grid = [(c.error_dist.label, c.problem.tau, c.n) for c in cfg.cells]
        assert grid == [
            (dist, tau, n)
            for dist in ("normal", "t3", "mixture")
            for tau in (0.25, 0.5, 0.75)
            for n in (100, 200, 400)
        ]
        defaults = evaluation.ReplicationConfig(
            problem=Problem.from_quantile(0.5),
            error_dist=datamod.ErrorDist.normal(),
            n=400,
            theta_star=datamod.DEFAULT_THETA_STAR,
            covariance=datamod.ar1_covariance(4, 0.5),
        )
        for cell in cfg.cells:
            assert cell.theta_star == datamod.DEFAULT_THETA_STAR
            np.testing.assert_array_equal(cell.covariance, defaults.covariance)
            for f in fields(evaluation.ReplicationConfig):
                if f.name in ("problem", "error_dist", "n", "theta_star", "covariance"):
                    continue
                expected = 1 if f.name == "base_seed" else getattr(defaults, f.name)
                assert getattr(cell, f.name) == expected, f.name
        assert cfg.reps == 300

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="warmup"):
            parse_config("[problem]\ntau = 0.5\n\n[hyper]\nwarmup = 3\n")

    def test_unknown_kernel_lists_valid_kernels(self):
        with pytest.raises(ValueError, match="unknown kernel 'triangular'; valid kernels"):
            parse_config("[hyper]\nkernel = triangular\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="plotting"):
            parse_config(SMOKE_CONFIG + "\n[plotting]\nstyle = dark\n")

    def test_output_section_rejected(self):
        # output paths are the --rows and --aggregates flags only
        with pytest.raises(ValueError, match=r"unknown config section \[output\]"):
            parse_config(SMOKE_CONFIG + "\n[output]\nrows = rows.csv\n")

    def test_tau_and_costs_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            parse_config("[problem]\ntau = 0.5\nb = 50\nh = 30\n")

    @pytest.mark.parametrize("costs", ["b = 50\n", "h = 30\n"], ids=["b", "h"])
    def test_cost_without_partner_rejected(self, costs):
        with pytest.raises(ValueError, match="must be given together"):
            parse_config("[problem]\n" + costs)


class TestSimulate:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        code = main(["simulate", "--n", "50", "--dist", "normal", "--seed", "1",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "demand,z1,z2,z3,z4"
        assert len(lines) == 51
        assert "n=50" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--n", "30", "--dist", "t3", "--seed", "9", "--out", str(a)])
        main(["simulate", "--n", "30", "--dist", "t3", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_dist_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--n", "10", "--dist", "t9", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2
        assert "normal" in capsys.readouterr().err  # usage lists valid choices


def _not_called(*args, **kwargs):
    raise AssertionError("called before the check that should stop it")


@pytest.fixture()
def synth_csv(tmp_path):
    path = tmp_path / "train.csv"
    assert main(["simulate", "--n", "200", "--seed", "4", "--out", str(path)]) == EXIT_OK
    return path


class TestFit:
    def test_private_fit_writes_certificate(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.5",
            "--T", "10", "--B", "2", "--seed", "7", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["certificate"]["sigma"] == 13
        assert payload["certificate"]["T"] == 10
        assert payload["certificate"]["epsilon"] == 0.5
        assert len(payload["beta"]) == 5
        assert list(payload) == ["beta", "certificate", "resolved"]
        assert payload["resolved"]["mode"] == "raw_covariates"
        assert payload["resolved"]["bandwidth"] > 0
        assert "0.5-GDP" in capsys.readouterr().out

    def test_costs_give_certificate_tau_bar(self, synth_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", str(synth_csv), "--b", "50", "--h", "30",
            "--mu", "0.5", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["certificate"]["tau_bar"] == 0.625

    def test_nonprivate_fit(self, synth_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--nonprivate",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert list(payload) == ["beta", "certificate", "resolved"]
        assert payload["certificate"] is None
        resolved = payload["resolved"]
        assert resolved["mode"] == "nonprivate"
        # the ERM reads no step, noise or seed setting, so none is written
        for key in ("eta0", "max_step", "seed", "T", "B", "sigma", "mu"):
            assert resolved[key] is None, key
        beta = np.asarray(payload["beta"])
        assert np.linalg.norm(beta - (1.5, 1.0, -2.5, -1.5, 3.0)) < 1.0

    def test_mu_zero_exits_2(self, synth_csv, tmp_path, capsys):
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0",
            "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_USAGE
        assert "mu" in capsys.readouterr().err

    def test_infinite_mu_exits_2(self, synth_csv, tmp_path, capsys):
        # it would calibrate sigma = 0: a release with no noise
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "inf",
            "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_USAGE
        assert "mu must be finite and > 0, got inf" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_insufficient_sigma_exits_4(self, synth_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "fit", _not_called)
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.5",
            "--sigma", "1.0", "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_PRIVACY
        assert "calibration bound" in capsys.readouterr().err

    def test_nan_sigma_exits_4_before_reading(self, synth_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(datamod, "load_csv", _not_called)
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.5",
            "--sigma", "nan", "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_PRIVACY

    @pytest.mark.parametrize("sigma", [[], ["--sigma", "50"]])
    def test_infinite_clip_radius_exits_2(self, synth_csv, tmp_path, capsys, monkeypatch, sigma):
        # rejected before any fitting work
        monkeypatch.setattr(optimizer, "fit", None)
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.5",
            "--B", "inf", *sigma, "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_USAGE
        assert "clip_radius must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "privacy", [["--nonprivate"], ["--mu", "0.5"]], ids=["nonprivate", "private"]
    )
    @pytest.mark.parametrize(
        "flag, message",
        [
            (["--eta0", "inf"], "step_size must be finite and > 0, got inf"),
            (["--eta0", "0"], "step_size must be finite and > 0, got 0.0"),
            (["--max-step", "nan"], "max_step_size must be finite and >= 1, got nan"),
            (["--max-step", "inf"], "max_step_size must be finite and >= 1, got inf"),
            (["--bandwidth", "inf"], "bandwidth must be finite and > 0, got inf"),
            (["--bandwidth", "0"], "bandwidth must be finite and > 0, got 0.0"),
        ],
        ids=["eta0-inf", "eta0-0", "max_step-nan", "max_step-inf", "bandwidth-inf",
             "bandwidth-0"],
    )
    def test_bad_fit_setting_exits_2(self, synth_csv, tmp_path, capsys, privacy, flag, message):
        # both fits read their settings from one HyperParams, built before either runs
        out = tmp_path / "f.json"
        code = main(["fit", "--input", str(synth_csv), "--tau", "0.5", *privacy, *flag,
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_sigma_exits_4(self, synth_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(datamod, "load_csv", _not_called)
        out = tmp_path / "f.json"
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.5",
            "--sigma", "inf", "--eta0", "1", "--out", str(out),
        ])
        assert code == EXIT_PRIVACY
        assert "sigma must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--mu", "0.5"], ["--sigma", "20"]])
    def test_nonprivate_with_privacy_flag_exits_2(self, synth_csv, tmp_path, capsys, flag):
        out = tmp_path / "f.json"
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--nonprivate", *flag,
            "--out", str(out),
        ])
        assert code == EXIT_USAGE
        assert "not both" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_flag_is_gone(self, synth_csv, tmp_path):
        # the CLI never whitens: X'X/n of the private rows is outside the certificate
        with pytest.raises(SystemExit) as info:
            main([
                "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.5",
                "--mode", "known_sigma_matrix", "--out", str(tmp_path / "f.json"),
            ])
        assert info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("sigma", [[], ["--sigma", "20.5"]])
    def test_certificate_matches_privacy_command(self, synth_csv, tmp_path, capsys, sigma):
        out = tmp_path / "fit.json"
        settings = ["--mu", "0.7", "--T", "6", "--B", "3", "--tau", "0.8", *sigma]
        code = main(["fit", "--input", str(synth_csv), "--eta0", "1", *settings,
                     "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        assert main(["privacy", *settings]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text())["certificate"] == printed

    def test_missing_input_exits_3(self, tmp_path):
        code = main([
            "fit", "--input", str(tmp_path / "nope.csv"), "--tau", "0.5",
            "--nonprivate", "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_IO

    def test_deterministic_given_seed(self, synth_csv, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main([
                "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.9",
                "--seed", "11", "--out", str(out),
            ])
            outs.append(out.read_text())
        assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["fit", "evaluate", "privacy"])
def test_tau_and_cost_flags_conflict_exits_2(command, synth_csv, tmp_path, capsys):
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps({"beta": [0.0] * 5}))
    argv = {
        "fit": ["fit", "--input", str(synth_csv), "--mu", "0.5",
                "--out", str(tmp_path / "out.json")],
        "evaluate": ["evaluate", "--fit", str(fit_path), "--test", str(synth_csv)],
        "privacy": ["privacy", "--mu", "0.5"],
    }[command]
    code = main(argv + ["--tau", "0.5", "--b", "50", "--h", "30"])
    assert code == EXIT_USAGE
    assert "not both" in capsys.readouterr().err


class TestEvaluate:
    @pytest.mark.parametrize(
        "payload",
        [{"certificate": None}, [[1.0, 2.0]], {"beta": [[1.0, 2.0]]}, {"beta": "abc"},
         {"beta": [1.0, float("nan"), 0.0, 0.0, 0.0]}],
        ids=["no-beta", "list", "2d-beta", "text-beta", "nan-beta"],
    )
    def test_bad_fit_file_exits_2(self, synth_csv, tmp_path, capsys, payload):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(payload))
        code = main(["evaluate", "--fit", str(fit_path), "--test", str(synth_csv),
                     "--tau", "0.5"])
        assert code == EXIT_USAGE
        assert str(fit_path) in capsys.readouterr().err

    def test_missing_cost_flags_exit_2_before_any_file_is_read(self, tmp_path, capsys):
        # neither the fit file nor the test CSV exists: reading either would exit 3
        code = main(["evaluate", "--fit", str(tmp_path / "f.json"),
                     "--test", str(tmp_path / "missing.csv")])
        assert code == EXIT_USAGE
        assert "either --tau or both --b and --h are required" in capsys.readouterr().err

    @pytest.mark.parametrize("costs", [["inf", "1"], ["1e308", "1e308"]], ids=["inf", "overflow"])
    def test_non_finite_total_cost_exits_2(self, synth_csv, tmp_path, capsys, costs):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps({"beta": [0.0] * 5}))
        code = main(["evaluate", "--fit", str(fit_path), "--test", str(synth_csv),
                     "--b", costs[0], "--h", costs[1]])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert "b + h must be finite and > 0, got inf" in captured.err
        assert captured.out == ""

    def test_oos_cost(self, synth_csv, tmp_path, capsys):
        fit_path = tmp_path / "fit.json"
        main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--nonprivate",
            "--out", str(fit_path),
        ])
        test_path = tmp_path / "test.csv"
        main(["simulate", "--n", "80", "--seed", "5", "--out", str(test_path)])
        capsys.readouterr()
        code = main([
            "evaluate", "--fit", str(fit_path), "--test", str(test_path),
            "--tau", "0.5",
        ])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["n_test"] == 80
        assert 0 < out["oos_cost"] < 2.0


class TestPrivacyCmd:
    def test_prints_certificate(self, capsys):
        code = main(["privacy", "--mu", "0.5", "--T", "10", "--B", "2",
                     "--tau", "0.5"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "mu": 0.5,
            "sigma": 13,
            "T": 10,
            "B": 2.0,
            "tau_bar": 0.5,
            "epsilon": 0.5,
            "delta": payload["delta"],
        }
        assert 0 < payload["delta"] < 1

    def test_insufficient_sigma_exits_4(self):
        code = main(["privacy", "--mu", "0.5", "--T", "10", "--B", "2",
                     "--tau", "0.5", "--sigma", "2.0"])
        assert code == EXIT_PRIVACY

    def test_nan_sigma_exits_4(self):
        code = main(["privacy", "--mu", "0.5", "--tau", "0.5", "--sigma", "nan"])
        assert code == EXIT_PRIVACY

    def test_infinite_sigma_exits_4(self, capsys):
        code = main(["privacy", "--mu", "0.5", "--tau", "0.5", "--sigma", "inf"])
        assert code == EXIT_PRIVACY
        captured = capsys.readouterr()
        assert "sigma must be finite, got inf" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "mu, message", [("0", "mu must be > 0"), ("inf", "mu must be finite and > 0, got inf")]
    )
    def test_unusable_mu_exits_2(self, capsys, mu, message):
        code = main(["privacy", "--mu", mu, "--tau", "0.5"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_infinite_clip_radius_exits_2(self, capsys):
        code = main(["privacy", "--mu", "0.5", "--B", "inf", "--tau", "0.5"])
        assert code == EXIT_USAGE
        assert "clip_radius must be finite" in capsys.readouterr().err


class TestBench:
    def test_smoke_run(self, tmp_path, capsys):
        cfg = tmp_path / "bench.ini"
        cfg.write_text(SMOKE_CONFIG)
        rows = tmp_path / "rows.csv"
        agg = tmp_path / "agg.csv"
        code = main([
            "bench", "--config", str(cfg), "--rows", str(rows),
            "--aggregates", str(agg),
        ])
        assert code == EXIT_OK
        header = rows.read_text().splitlines()[0]
        assert header == "rep_id,n,mu_label,tau,dist_label,l2_error,sigma_error,regret,oos_cost"
        assert agg.exists()

    def test_default_output_paths(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench.ini").write_text(SMOKE_CONFIG)
        assert main(["bench", "--config", "bench.ini"]) == EXIT_OK
        assert (tmp_path / "rows.csv").exists() and (tmp_path / "aggregates.csv").exists()

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "nope.ini")]) == EXIT_IO

    @pytest.mark.parametrize("output", ["--rows", "--aggregates"])
    def test_unwritable_output_exits_3_before_any_sweep(self, tmp_path, monkeypatch, output):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a sweep ran before the outputs were opened")

        monkeypatch.setattr(evaluation, "sweep", no_sweep)
        cfg = tmp_path / "bench.ini"
        cfg.write_text(SMOKE_CONFIG)
        outputs = {"--rows": str(tmp_path / "rows.csv"), "--aggregates": str(tmp_path / "a.csv")}
        outputs[output] = str(tmp_path / "nodir" / "out.csv")
        argv = ["bench", "--config", str(cfg), *(arg for pair in outputs.items() for arg in pair)]
        assert main(argv) == EXIT_IO

    EARLIER = [b"earlier,0\r\n", b"earlier,1\r\n"]

    @classmethod
    def _earlier_outputs(cls, tmp_path) -> dict:
        outputs = {"--rows": tmp_path / "rows.csv", "--aggregates": tmp_path / "agg.csv"}
        for path, content in zip(outputs.values(), cls.EARLIER):
            path.write_bytes(content)
        return outputs

    @staticmethod
    def _argv(cfg, outputs) -> list:
        return ["bench", "--config", str(cfg), *(str(a) for pair in outputs.items() for a in pair)]

    @pytest.mark.parametrize("reps", [0, -2])
    def test_bad_reps_exits_2_and_keeps_earlier_outputs(self, tmp_path, capsys, reps):
        outputs = self._earlier_outputs(tmp_path)
        cfg = tmp_path / "bench.ini"
        cfg.write_text(SMOKE_CONFIG.replace("reps = 1", f"reps = {reps}"))
        assert main(self._argv(cfg, outputs)) == EXIT_USAGE
        assert f"replication.reps must be >= 1, got {reps}" in capsys.readouterr().err
        assert [path.read_bytes() for path in outputs.values()] == self.EARLIER

    def test_a_run_that_fails_keeps_earlier_outputs(self, tmp_path, capsys, monkeypatch):
        def stuck(*args, **kwargs):
            raise MaxIterExceeded("stuck")

        monkeypatch.setattr(optimizer, "smoothed_erm", stuck)
        outputs = self._earlier_outputs(tmp_path)
        cfg = tmp_path / "bench.ini"
        cfg.write_text(SMOKE_CONFIG)
        assert main(self._argv(cfg, outputs)) == EXIT_USAGE
        assert "replication 1 failed" in capsys.readouterr().err
        assert [path.read_bytes() for path in outputs.values()] == self.EARLIER

    def test_jobs_key_exits_2(self, tmp_path, capsys):
        # the run's size alone sets its lanes, so no key does
        cfg = tmp_path / "bench.ini"
        cfg.write_text(SMOKE_CONFIG + "jobs = 2\n")
        assert main(["bench", "--config", str(cfg)]) == EXIT_USAGE
        assert "unknown config key 'jobs'" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[problem]\ntau = 0.5\n[plotting]\nx = 1\n")
        assert main(["bench", "--config", str(cfg)]) == EXIT_USAGE

    def test_cost_without_partner_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[problem]\nb = 50\n")
        assert main(["bench", "--config", str(cfg)]) == EXIT_USAGE
        assert "must be given together" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "bench.ini"
        cfg.write_text(SMOKE_CONFIG)
        outs = []
        for tag in ("1", "2"):
            rows = tmp_path / f"rows{tag}.csv"
            main(["bench", "--config", str(cfg), "--rows", str(rows),
                  "--aggregates", str(tmp_path / f"agg{tag}.csv")])
            outs.append(rows.read_bytes())
        assert outs[0] == outs[1]

    def test_one_sweep_per_group_writes_the_per_cell_csvs(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "bench.ini"
        cfg.write_text(
            "[problem]\ntau = 0.5\n[data]\ndist = normal, t3\nn = 60, 120\n"
            "[hyper]\nT = 5\n[privacy]\nmu = nonprivate, 0.5\n"
            "[replication]\nreps = 2\nbase_seed = 3\neval_n = 2000\n"
        )
        cells = parse_config(cfg.read_text()).cells
        separate = evaluation.ReplicationReport(
            rows=sum((evaluation.run_replications(cell, 2).rows for cell in cells), ())
        )
        evaluation.write_rows_csv(separate, tmp_path / "rows-separate.csv")
        evaluation.write_aggregates_csv(separate, tmp_path / "agg-separate.csv")

        draws = []
        stream = evaluation._synthetic_stream
        monkeypatch.setattr(
            evaluation,
            "_synthetic_stream",
            lambda spec, *args: draws.append(spec) or stream(spec, *args),
        )
        capsys.readouterr()
        code = main(["bench", "--config", str(cfg), "--rows", str(tmp_path / "rows.csv"),
                     "--aggregates", str(tmp_path / "agg.csv")])
        assert code == EXIT_OK
        assert [spec.error_dist.label for spec in draws] == ["normal", "t3"]  # one per group
        for name in ("rows", "agg"):
            written = (tmp_path / f"{name}.csv").read_bytes()
            assert written == (tmp_path / f"{name}-separate.csv").read_bytes(), name
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:-1]] == [
            f"cell dist={dist} tau=0.5 n={n}" for dist in ("normal", "t3") for n in (60, 120)
        ]
        assert all(": 4 rows (" in line for line in lines[:-1])

    def test_every_cell_key_reaches_replication_config(self, tmp_path, monkeypatch):
        seen = []

        def capture(cell, ns, R):
            seen.append((cell, ns, R))
            return evaluation.ReplicationReport(rows=())

        monkeypatch.setattr(evaluation, "sweep", capture)
        cfg = tmp_path / "bench.ini"
        cfg.write_text(
            "[problem]\ntau = 0.7\n[data]\ndist = t3\nn = 123\n"
            "[hyper]\nT = 7\nB = 3\nkernel = logistic\nbandwidth = 0.2\n"
            "eta0 = 0.5\nmax_step = 2\nmode = raw_covariates\n"
            "[privacy]\nmu = 0.9, nonprivate\n"
            "[replication]\nreps = 4\nbase_seed = 5\neval_n = 777\n"
        )
        code = main(["bench", "--config", str(cfg), "--rows", str(tmp_path / "r.csv"),
                     "--aggregates", str(tmp_path / "a.csv")])
        assert code == EXIT_OK
        [(cell, ns, reps)] = seen
        assert (ns, reps) == ([123], 4)
        expected = {
            "problem": Problem.from_quantile(0.7),
            "error_dist": datamod.ErrorDist.student_t(3.0),
            "n": 123,
            "theta_star": datamod.DEFAULT_THETA_STAR,
            "mu_grid": (0.9, None),
            "n_steps": 7,
            "clip_radius": 3.0,
            "kernel": "logistic",
            "bandwidth": 0.2,
            "step_size": 0.5,
            "max_step_size": 2.0,
            "mode": "raw_covariates",
            "eval_n": 777,
            "base_seed": 5,
        }
        for f in fields(evaluation.ReplicationConfig):
            if f.name == "covariance":
                np.testing.assert_array_equal(cell.covariance, datamod.ar1_covariance(4, 0.5))
                continue
            assert getattr(cell, f.name) == expected[f.name], f.name
            assert f.default is MISSING or expected[f.name] != f.default, f.name

    @pytest.mark.parametrize(
        "section, setting, message",
        [
            ("data", "dist = normal, t9",
             "unknown distribution name 't9'; valid: normal, t3, mixture"),
            ("hyper", "mode = whitened",
             "mode must be one of ('known_sigma_matrix', 'raw_covariates'), got 'whitened'"),
            ("privacy", "mu = nonprivate, 0", "mu must be > 0, got 0.0"),
            ("privacy", "mu = inf", "mu must be finite and > 0, got inf"),
            ("replication", "eval_n = 0", "eval_n must be >= 1, got 0"),
            ("replication", "base_seed = -1", "base_seed must be >= 0, got -1"),
            ("data", "n =", "config key data.n lists no values"),
            ("problem", "tau =", "config key problem.tau lists no values"),
            ("data", "dist =", "config key data.dist lists no values"),
            ("privacy", "mu = ,", "config key privacy.mu lists no values"),
            ("data", "n = 1", "n must be >= 2, got 1"),
            ("data", "n = 0\n[hyper]\nbandwidth = 0.5", "n must be >= 1, got 0"),
            ("data", "n = -5\n[hyper]\nbandwidth = 0.5", "n must be >= 1, got -5"),
            ("hyper", "max_step = 0.5", "max_step_size must be finite and >= 1, got 0.5"),
            ("hyper", "bandwidth = 0", "bandwidth must be finite and > 0, got 0.0"),
            ("hyper", "B = 0.5\n[privacy]\nmu = nonprivate", "clip_radius must be >= 1, got 0.5"),
            ("hyper", "eta0 = inf", "step_size must be finite and > 0, got inf"),
            ("privacy", "mu = 0.5, 0.5", "config key privacy.mu names the value 0.5 twice"),
            ("privacy", "mu = nonprivate, 0.9, nonprivate",
             "config key privacy.mu names the value nonprivate twice"),
            ("privacy", "mu = 0.5, 0.5000001",
             "mu_grid levels must have distinct labels, got ['mu=0.5', 'mu=0.5']"),
            ("problem", "tau = 0.5, 5e-1", "config key problem.tau names the value 5e-1 twice"),
            ("data", "n = 400, 400", "config key data.n names the value 400 twice"),
            ("problem", "tau = 0.5, 0.5", "config key problem.tau names the value 0.5 twice"),
            ("data", "dist = t3, normal, t3", "config key data.dist names the value t3 twice"),
        ],
        ids=["dist", "mode", "mu", "mu-inf", "eval_n", "base_seed",
             "empty-n", "empty-tau", "empty-dist", "empty-mu",
             "n", "n-0-bandwidth", "n-negative-bandwidth",
             "max_step", "bandwidth", "B-nonprivate", "eta0-inf",
             "repeated-mu", "repeated-nonprivate", "mu-labels-alike", "tau-spelled-twice",
             "repeated-n", "repeated-tau", "repeated-dist"],
    )
    def test_bad_cell_setting_exits_2(self, tmp_path, capsys, section, setting, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{setting}\n")
        assert main(["bench", "--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert message in err
        assert "replication" not in err  # refused before any replication runs
