import dataclasses
import struct

import numpy as np
import pytest

from sphloss import cli, config, losses, trainer
from sphloss.trainer import TrainConfig, train


def run(argv):
    return cli.main(argv)


FAST_TRAIN = [
    "--set", "synth_D=5", "--set", "synth_input_dim=4", "--set", "synth_N=1000",
    "--set", "hidden_dims=8", "--set", "max_epochs=3", "--set", "batch_size=100",
    "--set", "initial_lr=0.05",
]


def mnist_settings(tmp_path):
    """--set arguments naming hand-made IDX files: 12 training and 4 test
    rows of 2x2 images."""
    rng = np.random.default_rng(0)
    args = []
    for split, n in (("train", 12), ("test", 4)):
        images, labels = tmp_path / f"{split}_images.idx", tmp_path / f"{split}_labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, n, 2, 2)
                           + rng.integers(0, 256, size=n * 4, dtype=np.uint8).tobytes())
        labels.write_bytes(struct.pack(">II", 0x801, n)
                           + rng.integers(0, 10, size=n, dtype=np.uint8).tobytes())
        args += ["--set", f"mnist_{split}_images={images}",
                 "--set", f"mnist_{split}_labels={labels}"]
    return ["--set", "dataset=mnist", *args]


class TestGradcheck:
    def test_all_losses_pass(self, tmp_path, capsys):
        out = tmp_path / "grad.csv"
        rc = run(["gradcheck", "--dims", "2,10", "--trials", "5",
                  "--output", str(out)])
        assert rc == 0
        assert "gradcheck OK" in capsys.readouterr().out
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "loss,D,trial,max_rel_err"
        assert len(lines) == 1 + 7 * 2 * 5  # losses x dims x trials
        assert {line.split(",")[0] for line in lines[1:]} == set(losses.LOSSES)
        errs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(errs) < 1e-5

    def test_single_loss(self, tmp_path):
        out = tmp_path / "grad.csv"
        rc = run(["gradcheck", "--loss", "log_taylor", "--dims", "10",
                  "--trials", "3", "--output", str(out)])
        assert rc == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_unknown_loss_is_usage_error(self, capsys):
        # gradcheck takes the LOSSES names, as train does: no bare spherical_bound
        for name in ("mystery", "spherical_bound"):
            rc = run(["gradcheck", "--loss", name])
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
        ["--set", "loss_kind=log_spherical", "--set", "eps=0"],
        ["--set", "loss_kind=spherical_bound_fixed", "--set", "xi=nan"],
        ["--set", "hidden_dims=0"],
        ["--set", "synth_D=1"],
        ["--set", "dataset=foo"],
        ["--set", "prior_bias_init=ture"],
        ["--set", "split=bogus"],
        # 1005 of the 1000 synthetic rows
        ["--set", "split=random", "--set", "train_n=900", "--set", "valid_n=100",
         "--set", "test_n=5"],
        ["--set", "seed=-1"],
        ["--set", "initial_lr=inf"],
    ])
    def test_invalid_train_config_exits_2_before_io(self, tmp_path, capsys, settings):
        out_dir = tmp_path / "x"
        rc = run(["train", "--out-dir", str(out_dir), *FAST_TRAIN, *settings])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("split,sizes", [
        (["--set", "split=random", "--set", "train_n=5", "--set", "valid_n=5",
          "--set", "test_n=5"], (5, 5, 5)),
        ([], (700, 150, 150)),  # the default official split: 70/15/15
    ], ids=["random", "official"])
    def test_synthetic_split_sizes(self, tmp_path, monkeypatch, split, sizes):
        seen = []

        def spy(spec, cfg, splits, **kwargs):
            seen.append(tuple(len(y) for _, y in splits))
            return train(spec, cfg, splits, **kwargs)

        monkeypatch.setattr(trainer, "train", spy)
        rc = run(["train", "--out-dir", str(tmp_path / "x"), "--set", "synth_N=1000",
                  *split, "--set", "hidden_dims=8", "--set", "max_epochs=2"])
        assert rc == 0
        assert seen == [sizes]

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

    @pytest.mark.parametrize("settings", [
        ["--set", "split=random", "--set", "train_n=10", "--set", "valid_n=5",
         "--set", "test_n=5"],  # 20 rows asked of 16
        ["--set", "split=official", "--set", "valid_n=13"],  # 12 training rows
    ])
    def test_oversized_mnist_split_exits_2_before_io(self, tmp_path, capsys, settings):
        out_dir = tmp_path / "x"
        rc = run(["train", "--out-dir", str(out_dir), *mnist_settings(tmp_path), *settings])
        assert rc == 2
        assert "split" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_fitting_mnist_split_trains(self, tmp_path):
        out_dir = tmp_path / "x"
        rc = run(["train", "--out-dir", str(out_dir), *mnist_settings(tmp_path),
                  "--set", "split=random", "--set", "train_n=8", "--set", "valid_n=4",
                  "--set", "test_n=4", "--set", "hidden_dims=4", "--set", "max_epochs=1",
                  "--set", "batch_size=4"])
        assert rc == 0
        assert (out_dir / "run_seed0.txt").exists()

    def test_malformed_mnist_file_exits_1(self, tmp_path, capsys):
        settings = mnist_settings(tmp_path)
        (tmp_path / "test_images.idx").write_bytes(b"\x00\x00\x08\x03")  # no sizes
        rc = run(["train", "--out-dir", str(tmp_path / "x"), *settings])
        assert rc == 1
        assert "truncated header" in capsys.readouterr().err

    def test_factored_output_layer_runs(self, tmp_path):
        out_dir = tmp_path / "run"
        rc = run(["train", "--out-dir", str(out_dir), *FAST_TRAIN,
                  "--set", "loss_kind=log_taylor", "--set", "output_layer=factored"])
        assert rc == 0


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--trials", "0", "--dims", "2"],
    ["gradcheck", "--dims", "abc"],
    ["gradcheck", "--dims", "1"],
    ["gradcheck", "--dims", "2,1.5"],
    ["bound-eval", "--samples", "0"],
    ["bound-eval", "--dims", "10,1"],
    ["gradcheck", "--seed", "-1"],
    ["bound-eval", "--seed", "-1"],
    pytest.param(["train", "--seeds", "0"], id="argv9"),
])
def test_bad_count_or_size_is_usage_error_before_io(tmp_path, capsys, argv):
    out = tmp_path / "out"
    dest = ["--out-dir", str(out)] if argv[0] == "train" else ["--output", str(out)]
    with pytest.raises(SystemExit) as exc:
        run([*argv, *dest])
    assert exc.value.code == 2
    assert "expected an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gradcheck", "--loss", "log_spherical", "--eps", "0"],
    ["gradcheck", "--loss", "log_spherical", "--eps", "inf"],
    ["gradcheck", "--loss", "spherical_bound_fixed", "--xi", "nan"],
    ["bound-eval", "--xi", "nan"],
    ["bound-eval", "--xi=-inf"],
])
def test_bad_eps_or_xi_is_usage_error_before_io(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--output", str(out)])
    assert exc.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err
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
        with pytest.raises(config.ConfigError, match="bad value"):
            config.apply_setting(config.default_config(), "prior_bias_init", "ture")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just words\n")
        with pytest.raises(config.ConfigError, match="key=value"):
            config.load_config(str(path))
