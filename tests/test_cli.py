import dataclasses

import numpy as np
import pytest

from sphloss import cli, config
from sphloss.trainer import TrainConfig


def run(argv):
    return cli.main(argv)


FAST_TRAIN = [
    "--set", "synth_D=5", "--set", "synth_input_dim=4", "--set", "synth_N=1000",
    "--set", "hidden_dims=8", "--set", "max_epochs=3", "--set", "batch_size=100",
    "--set", "initial_lr=0.05",
]


class TestGradcheck:
    def test_all_losses_pass(self, tmp_path, capsys):
        out = tmp_path / "grad.csv"
        rc = run(["gradcheck", "--dims", "2,10", "--trials", "5",
                  "--output", str(out)])
        assert rc == 0
        assert "gradcheck OK" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "loss,D,trial,max_rel_err"
        assert len(lines) == 1 + 6 * 2 * 5  # losses x dims x trials
        errs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(errs) < 1e-5

    def test_single_loss(self, tmp_path):
        out = tmp_path / "grad.csv"
        rc = run(["gradcheck", "--loss", "log_taylor", "--dims", "10",
                  "--trials", "3", "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_unknown_loss_is_usage_error(self, capsys):
        rc = run(["gradcheck", "--loss", "mystery"])
        assert rc == 2
        assert "unknown loss" in capsys.readouterr().err

    def test_broken_gradient_fails(self, tmp_path, monkeypatch, capsys):
        real = cli._loss_grad_fns

        def broken(name, eps, xi):
            loss_fn, grad_fn = real(name, eps, xi)
            return loss_fn, lambda o, c: grad_fn(o, c) * 1.01
        monkeypatch.setattr(cli, "_loss_grad_fns", broken)
        rc = run(["gradcheck", "--loss", "mse", "--dims", "5", "--trials", "2",
                  "--output", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "worst offender" in capsys.readouterr().err


class TestBoundEval:
    def test_fixed_xi_report(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        rc = run(["bound-eval", "--samples", "50", "--output", str(out)])
        assert rc == 0
        assert "mean_gap" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "true_loss,bound,gap"
        assert len(lines) == 51
        gaps = [float(line.split(",")[2]) for line in lines[1:]]
        assert min(gaps) >= -1e-9

    def test_optimized_tighter_on_average(self, tmp_path):
        def mean_gap(mode):
            out = tmp_path / f"{mode}.csv"
            run(["bound-eval", "--samples", "50", "--xi-mode", mode,
                 "--output", str(out)])
            lines = out.read_text().strip().splitlines()[1:]
            return np.mean([float(line.split(",")[2]) for line in lines])

        assert mean_gap("optimized") <= mean_gap("fixed") + 1e-12

    def test_train_probe_reports(self, capsys):
        rc = run(["bound-eval", "--train-probe"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bound-training probe" in out
        assert "negll improvement" in out


class TestTrain:
    def test_synthetic_run_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = run(["train", "--out-dir", str(out_dir), *FAST_TRAIN])
        assert rc == 0
        assert (out_dir / "effective_config.txt").exists()
        assert (out_dir / "epochs_seed0.csv").exists()
        assert (out_dir / "run_seed0.txt").exists()
        record = (out_dir / "run_seed0.txt").read_text()
        assert "test_error=" in record and "diverged=False" in record
        stdout = capsys.readouterr().out
        assert "loss function" in stdout and "negll" in stdout

    def test_effective_config_round_trips(self, tmp_path):
        out_dir = tmp_path / "run"
        rc = run(["train", "--out-dir", str(out_dir), *FAST_TRAIN,
                  "--set", "loss_kind=log_taylor"])
        assert rc == 0
        cfg = config.load_config(str(out_dir / "effective_config.txt"))
        assert cfg["loss_kind"] == "log_taylor"
        assert cfg["synth_D"] == 5
        assert cfg["hidden_dims"] == (8,)

    def test_config_file_plus_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "# small experiment\n"
            "loss_kind = mse\n"
            "synth_D = 5\nsynth_input_dim = 4\nsynth_N = 800\n"
            "hidden_dims = 8\nmax_epochs = 2\nbatch_size = 100\n"
            "initial_lr = 0.01\n"
        )
        out_dir = tmp_path / "run"
        rc = run(["train", "--config", str(cfg_path), "--out-dir", str(out_dir),
                  "--set", "max_epochs=3"])
        assert rc == 0
        cfg = config.load_config(str(out_dir / "effective_config.txt"))
        assert cfg["loss_kind"] == "mse"
        assert cfg["max_epochs"] == 3  # override wins

    def test_multi_seed_aggregate(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = run(["train", "--out-dir", str(out_dir), "--seeds", "2", *FAST_TRAIN])
        assert rc == 0
        assert (out_dir / "epochs_seed0.csv").exists()
        assert (out_dir / "epochs_seed1.csv").exists()
        stdout = capsys.readouterr().out
        assert "seed=0:" in stdout and "seed=1:" in stdout

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergent_lr_exits_1(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        rc = run(["train", "--out-dir", str(out_dir), *FAST_TRAIN,
                  "--set", "loss_kind=mse", "--set", "initial_lr=10000"])
        assert rc == 1
        assert "ABORT" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        rc = run(["train", "--out-dir", str(tmp_path / "x"),
                  "--set", "learning_rate=0.1"])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("settings", [
        ["--set", "loss_kind=bogus"],
        ["--set", "output_layer=factored"],  # with the default log_softmax
    ])
    def test_invalid_train_config_exits_2_before_io(self, tmp_path, capsys, settings):
        out_dir = tmp_path / "x"
        rc = run(["train", "--out-dir", str(out_dir), *FAST_TRAIN, *settings])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (out_dir / "effective_config.txt").exists()

    def test_malformed_set_exits_2(self, tmp_path, capsys):
        rc = run(["train", "--out-dir", str(tmp_path / "x"), "--set", "oops"])
        assert rc == 2

    def test_missing_mnist_files_exit_1(self, tmp_path, capsys):
        rc = run(["train", "--out-dir", str(tmp_path / "x"),
                  "--set", "dataset=mnist",
                  "--set", f"mnist_train_images={tmp_path}/absent1",
                  "--set", f"mnist_train_labels={tmp_path}/absent2",
                  "--set", f"mnist_test_images={tmp_path}/absent3",
                  "--set", f"mnist_test_labels={tmp_path}/absent4"])
        assert rc == 1
        assert "not found" in capsys.readouterr().err

    def test_factored_output_layer_runs(self, tmp_path):
        out_dir = tmp_path / "run"
        rc = run(["train", "--out-dir", str(out_dir), *FAST_TRAIN,
                  "--set", "loss_kind=log_taylor", "--set", "output_layer=factored"])
        assert rc == 0


class TestBench:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--D-list", "200,400", "--d", "16", "--steps", "10",
                  "--output", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "impl,D,d,step_us_p50,step_us_p90,steps"
        assert len(lines) == 5  # 2 impls x 2 sizes


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--trials", "0", "--dims", "2"],
    ["gradcheck", "--dims", "abc"],
    ["gradcheck", "--dims", "1"],
    ["gradcheck", "--dims", "2,1.5"],
    ["bound-eval", "--samples", "0"],
    ["bound-eval", "--dims", "10,1"],
    ["bench", "--steps", "0"],
    ["bench", "--D-list", "100,0"],
    ["bench", "--d", "0"],
    ["train", "--seeds", "0"],
])
def test_bad_count_or_size_is_usage_error_before_io(tmp_path, capsys, argv):
    out = tmp_path / "out"
    dest = ["--out-dir", str(out)] if argv[0] == "train" else ["--output", str(out)]
    with pytest.raises(SystemExit) as exc:
        run([*argv, *dest])
    assert exc.value.code == 2
    assert "expected an integer" in capsys.readouterr().err
    assert not out.exists()


class TestConfigModule:
    def test_defaults_complete(self):
        cfg = config.default_config()
        assert set(cfg) == set(config.KNOWN_KEYS)

    def test_training_defaults_match_train_config(self):
        expected = dataclasses.asdict(TrainConfig())
        cfg = config.default_config()
        assert {k: cfg[k] for k in expected} == expected
        assert config.KNOWN_KEYS["prior_bias_init"][0]("yes") is True

    def test_dump_load_round_trip(self, tmp_path):
        cfg = config.default_config()
        config.apply_setting(cfg, "loss_kind", "log_spherical")
        config.apply_setting(cfg, "hidden_dims", "500,500")
        config.apply_setting(cfg, "prior_bias_init", "true")
        path = tmp_path / "c.cfg"
        path.write_text(config.dump_config(cfg))
        assert config.load_config(str(path)) == cfg

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("\n# a comment\nseed = 9  # trailing\n\n")
        assert config.load_config(str(path))["seed"] == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(config.ConfigError, match="unknown config key"):
            config.apply_setting(config.default_config(), "nope", "1")

    def test_bad_value_rejected(self):
        with pytest.raises(config.ConfigError, match="bad value"):
            config.apply_setting(config.default_config(), "seed", "many")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(config.ConfigError, match="key=value"):
            config.load_config(str(path))
