"""CLI subcommands, config round-trips, and exit codes."""

import json

import numpy as np
import pytest

from dpnewsvendor import optimizer
from dpnewsvendor.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PRIVACY,
    EXIT_USAGE,
    ExperimentConfig,
    main,
    parse_config,
    serialize_config,
)

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

[output]
rows = rows.csv
aggregates = agg.csv
"""


class TestConfig:
    def test_parse_defaults(self):
        cfg = parse_config(SMOKE_CONFIG)
        assert cfg.taus == (0.5,)
        assert cfg.ns == (100,)
        assert cfg.mu_grid == (None, 0.5)
        assert cfg.n_steps == 5
        assert cfg.reps == 1

    def test_roundtrip_identity(self):
        cfg = parse_config(SMOKE_CONFIG)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_roundtrip_with_costs_and_lists(self):
        cfg = ExperimentConfig(
            taus=None,
            b=50.0,
            h=30.0,
            dists=("normal", "t3"),
            ns=(100, 200),
            bandwidth=0.123,
            eta0=1.5,
            mu_grid=(0.9, None),
            reps=7,
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="warmup"):
            parse_config("[problem]\ntau = 0.5\n\n[hyper]\nwarmup = 3\n")

    def test_unknown_kernel_lists_valid_kernels(self):
        with pytest.raises(ValueError, match="unknown kernel 'triangular'; valid kernels"):
            parse_config("[hyper]\nkernel = triangular\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="plotting"):
            parse_config(SMOKE_CONFIG + "\n[plotting]\nstyle = dark\n")

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


def _no_fit(*args, **kwargs):
    raise AssertionError("the fit ran")


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
        assert payload["resolved"]["mode"] == "nonprivate"
        beta = np.asarray(payload["beta"])
        assert np.linalg.norm(beta - (1.5, 1.0, -2.5, -1.5, 3.0)) < 1.0

    def test_mu_zero_exits_2(self, synth_csv, tmp_path, capsys):
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0",
            "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_USAGE
        assert "mu" in capsys.readouterr().err

    def test_insufficient_sigma_exits_4(self, synth_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimizer, "fit", _no_fit)
        code = main([
            "fit", "--input", str(synth_csv), "--tau", "0.5", "--mu", "0.5",
            "--sigma", "1.0", "--out", str(tmp_path / "f.json"),
        ])
        assert code == EXIT_PRIVACY
        assert "calibration bound" in capsys.readouterr().err

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
        [{"certificate": None}, [[1.0, 2.0]], {"beta": [[1.0, 2.0]]}, {"beta": "abc"}],
        ids=["no-beta", "list", "2d-beta", "text-beta"],
    )
    def test_bad_fit_file_exits_2(self, synth_csv, tmp_path, capsys, payload):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(payload))
        code = main(["evaluate", "--fit", str(fit_path), "--test", str(synth_csv),
                     "--tau", "0.5"])
        assert code == EXIT_USAGE
        assert str(fit_path) in capsys.readouterr().err

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
                     "--tau-bar", "0.5"])
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
                     "--tau-bar", "0.5", "--sigma", "2.0"])
        assert code == EXIT_PRIVACY

    def test_infinite_clip_radius_exits_2(self, capsys):
        code = main(["privacy", "--mu", "0.5", "--B", "inf", "--tau-bar", "0.5"])
        assert code == EXIT_USAGE
        assert "clip_radius must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--tau", "0.9"], ["--b", "50"], ["--h", "30"]])
    def test_tau_bar_with_cost_flag_exits_2(self, flag, capsys):
        code = main(["privacy", "--mu", "0.5", "--tau-bar", "0.5", *flag])
        assert code == EXIT_USAGE
        assert "not both" in capsys.readouterr().err


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

    def test_missing_config_exits_3(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "nope.ini")]) == EXIT_IO

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
