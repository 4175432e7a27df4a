"""Command-line interface.

Three subcommands: gradcheck (finite-difference verification of every
loss), bound-eval (upper-bound validity/tightness report and the
bound-training probe) and train (single or multi-seed training runs).
Exit codes: 0 success, 1 assertion/quality failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import statistics
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import config, data, losses, trainer

# largest relative error a gradient check accepts
GRADCHECK_TOL = 1e-5


def _loss_grad_fns(name: str, eps: float, xi: float):
    """(batch_loss_fn, analytic_grad_fn) pair for gradcheck.

    ``batch_loss_fn(O, y)`` gives the losses of the rows of O through the
    loss-only batch path; ``analytic_grad_fn(o, c)`` is the gradient of
    ``losses.loss_grad``.
    """
    return (partial(losses.batch_loss, name, eps=eps, xi=xi),
            lambda o, c: losses.loss_grad(name, o, c, eps=eps, xi=xi).grad_o)


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale


def gradcheck_trials(name: str, D: int, trials: int, seed: int,
                     eps: float, xi: float):
    """Yield (trial, err) rows; samples avoid |o_i| < 1e-3, where the
    central difference would straddle the kink of a loss of |o|."""
    loss_fn, grad_fn = _loss_grad_fns(name, eps, xi)
    rng = np.random.default_rng(seed)
    for t in range(trials):
        while True:
            o = rng.uniform(-3.0, 3.0, size=D)
            if np.abs(o).min() >= 1e-3:
                break
        c = int(rng.integers(D))
        analytic = grad_fn(o, c)
        numeric = losses.finite_diff_grad(loss_fn, o, c)
        yield t, max_rel_err(analytic, numeric)


def cmd_gradcheck(args) -> int:
    if args.loss != "all" and args.loss not in losses.LOSSES:
        print(f"error: unknown loss {args.loss!r}; choose from "
              f"{', '.join(losses.LOSSES)} or 'all'", file=sys.stderr)
        return 2
    names = tuple(losses.LOSSES) if args.loss == "all" else (args.loss,)
    rows = []
    worst = ("", 0, -1.0)
    ok = True
    for name in names:
        for D in args.dims:
            for t, err in gradcheck_trials(name, D, args.trials, args.seed,
                                           args.eps, args.xi):
                rows.append((name, D, t, err))
                if err > worst[2]:
                    worst = (name, D, err)
                ok = ok and err < GRADCHECK_TOL
    out = _open_out(args.output)
    w = csv.writer(out)
    w.writerow(["loss", "D", "trial", "max_rel_err"])
    w.writerows(rows)
    _close_out(out)
    if not ok:
        print(f"FAIL: worst offender loss={worst[0]} D={worst[1]} "
              f"max_rel_err={worst[2]:.3e} (tolerance {GRADCHECK_TOL:g})", file=sys.stderr)
        return 1
    print(f"gradcheck OK: {len(rows)} trials, worst max_rel_err={worst[2]:.3e}")
    return 0


def cmd_bound_eval(args) -> int:
    kind = "spherical_bound_" + args.xi_mode  # fixed | optimized
    if args.train_probe:
        return _bound_train_probe(args, kind)
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(args.samples):
        D = args.dims[int(rng.integers(len(args.dims)))]
        O = rng.uniform(-3.0, 3.0, size=(1, D))
        y = [int(rng.integers(D))]
        value = float(losses.batch_loss(kind, O, y, xi=args.xi)[0])
        true_loss = float(losses.batch_negll(kind, O, y)[0])
        rows.append((true_loss, value, value - true_loss))
    out = _open_out(args.output)
    w = csv.writer(out)
    w.writerow(["true_loss", "bound", "gap"])
    w.writerows(rows)
    _close_out(out)
    gaps = [gap for _, _, gap in rows]
    mean_gap = statistics.fmean(gaps)
    print(f"samples={args.samples} xi_mode={args.xi_mode} mean_gap={mean_gap:.6f} "
          f"min_gap={min(gaps):.3e}")
    if min(gaps) < -1e-9:
        print("FAIL: bound fell below the true loss", file=sys.stderr)
        return 1
    return 0


def _bound_train_probe(args, kind: str) -> int:
    """Train a linear softmax model by minimizing the bound ``kind``; report
    whether the true negative log-likelihood improved.  Report-only (exit 0)."""
    ds = data.synthetic_categorical(D=100, input_dim=20, N=6000,
                                    zipf_exponent=1.0, seed=args.seed,
                                    separation=2.0)
    splits = tuple((s.features, s.labels) for s in
                   data.random_split(ds, data.SplitSpec(4000, 1000, 1000, seed=args.seed)))
    spec = trainer.MLPSpec(input_dim=20, hidden_dims=(), output_dim=100)
    cfg = trainer.TrainConfig(loss_kind=kind, initial_lr=0.01, max_epochs=15,
                              xi=args.xi, seed=args.seed, prior_bias_init=True,
                              batch_size=200)
    (_, ytr), _, (Xte, yte) = splits
    model0 = trainer.init_model(spec, cfg, ytr, np.random.default_rng(cfg.seed))
    negll0, err0, _, bound0 = trainer.evaluate(lambda X: model0.forward(X)[0],
                                               Xte, yte, kind, xi=cfg.xi)
    m = trainer.train(spec, cfg, splits)
    print("bound-training probe (minimizing the upper bound on -log softmax):")
    print(f"  initial: negll={negll0:.4f} bound={bound0:.4f} error={err0:.4f}")
    print(f"  final:   negll={m.test_negll:.4f} bound={m.test_loss:.4f} "
          f"error={m.test_error:.4f}")
    delta = negll0 - m.test_negll
    print(f"  negll improvement: {delta:+.4f} nats "
          f"(bound went down by {bound0 - m.test_loss:+.4f})")
    if delta < 0.05:
        print("  finding: minimizing the bound did not meaningfully improve the "
              "true negative log-likelihood over the prior-matched init")
    return 0


def cmd_train(args) -> int:
    cfg_dict = config.load_config(args.config) if args.config else config.default_config()
    for setting in args.set or []:
        if "=" not in setting:
            print(f"error: --set expects key=value, got {setting!r}", file=sys.stderr)
            return 2
        k, v = setting.split("=", 1)
        config.apply_setting(cfg_dict, k.strip(), v.strip())
    # usage errors (exit 2) and missing dataset files (exit 1) surface
    # before the output directory is written
    try:
        tc = trainer.TrainConfig(**{f.name: cfg_dict[f.name]
                                    for f in dataclasses.fields(trainer.TrainConfig)})
    except ValueError as e:
        raise config.ConfigError(str(e)) from None
    try:
        splits_np, D, input_dim = _load_splits(cfg_dict)
    except FileNotFoundError as e:
        print(f"error: dataset file not found: {e.filename}. Provide MNIST IDX "
              f"paths via mnist_* config keys or use dataset=synthetic.",
              file=sys.stderr)
        return 1
    try:
        spec = trainer.MLPSpec(input_dim=input_dim,
                               hidden_dims=tuple(cfg_dict["hidden_dims"]),
                               output_dim=D)
    except ValueError as e:
        raise config.ConfigError(str(e)) from None

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "effective_config.txt").write_text(config.dump_config(cfg_dict))

    seeds = [tc.seed + i for i in range(args.seeds)]
    results = []
    for seed in seeds:
        csv_path = out_dir / f"epochs_seed{seed}.csv"
        m = trainer.train(spec, dataclasses.replace(tc, seed=seed), splits_np,
                          csv_path=str(csv_path))
        (out_dir / f"run_seed{seed}.txt").write_text(
            trainer.format_run_record(m) + "\n")
        if m.diverged:
            print(f"ABORT seed={seed}: {m.diagnostic}", file=sys.stderr)
            return 1
        print(f"seed={seed}: test_negll={m.test_negll:.4f} "
              f"test_error={m.test_error:.4%} epochs={m.epochs_run}")
        results.append(m)

    neglls = [m.test_negll for m in results]
    errors = [m.test_error for m in results]
    epochs = [m.epochs_run for m in results]
    print()
    print(f"{'loss function':<24} | {'loss':<22} | {'error rate':<18} | epochs")
    print(_table_row(cfg_dict["loss_kind"], neglls, errors, epochs))
    return 0


def _table_row(kind: str, neglls, errors, epochs) -> str:
    label = "mse" if kind == "mse" else "negll"
    def sd(xs):
        return statistics.stdev(xs) if len(xs) > 1 else 0.0
    return (f"{kind:<24} | {label}: {statistics.fmean(neglls):.4f} ({sd(neglls):.4f})"
            f"{'':<2} | {statistics.fmean(errors):.3%} ({sd(errors):.3%}) | "
            f"{statistics.fmean(epochs):.0f} ({sd(epochs):.0f})")


def _load_splits(cfg):
    """Returns (((Xtr,ytr),(Xva,yva),(Xte,yte)), D, input_dim).

    ``split=random`` takes train_n, valid_n and test_n rows of all the
    dataset's rows.  ``split=official`` takes 70/15/15 of a synthetic task,
    and valid_n rows of the MNIST training file with its own test file.
    """
    test = None
    if cfg["dataset"] == "synthetic":
        # built from config keys alone, so any failure is a usage error
        try:
            pool = data.synthetic_categorical(
                D=cfg["synth_D"], input_dim=cfg["synth_input_dim"], N=cfg["synth_N"],
                zipf_exponent=cfg["synth_zipf"], seed=cfg["synth_seed"],
                separation=cfg["synth_separation"],
            )
        except ValueError as e:
            raise config.ConfigError(f"synthetic dataset: {e}") from None
        n = len(pool)
        official = (int(0.7 * n), int(0.15 * n), n - int(0.7 * n) - int(0.15 * n))
    elif cfg["dataset"] == "mnist":
        pool = data.load_mnist(cfg["mnist_train_images"], cfg["mnist_train_labels"])
        test = data.load_mnist(cfg["mnist_test_images"], cfg["mnist_test_labels"])
        official = (len(pool) - cfg["valid_n"], cfg["valid_n"], 0)
    else:
        raise config.ConfigError(f"unknown dataset {cfg['dataset']!r}")
    if cfg["split"] == "official":
        sizes = official
    else:
        sizes = (cfg["train_n"], cfg["valid_n"], cfg["test_n"])
        if test is not None:
            pool, test = data.concat(pool, test), None
    # the sizes come from config keys alone, so a bad one is a usage error
    try:
        parts = data.random_split(pool, data.SplitSpec(*sizes, seed=cfg["split_seed"]))
    except ValueError as e:
        raise config.ConfigError(f"{cfg['dataset']} {cfg['split']} split: {e}") from None
    if test is not None:
        parts = (*parts[:2], test)
    splits = tuple((p.features, p.labels) for p in parts)
    return splits, parts[0].D, parts[0].features.shape[1]


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout
    return open(path, "w", newline="")


def _close_out(f):
    if f is not sys.stdout:
        f.close()


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``, so that a bad count or size
    is a usage error (exit 2) before any output is written."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return parse


def _finite_float(positive: bool = False):
    """argparse type: a finite float, > 0 when ``positive``, so that a bad
    eps or xi is a usage error (exit 2) before any output is written."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not math.isfinite(value) or (positive and not value > 0):
            raise argparse.ArgumentTypeError(
                f"expected a finite number{' > 0' if positive else ''}, got {text}")
        return value
    return parse


def _int_list_at_least(minimum: int):
    """argparse type: comma-separated integers, each >= ``minimum``."""
    parse = _int_at_least(minimum)
    return lambda text: [parse(x) for x in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphloss")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    g.add_argument("--loss", default="all")
    g.add_argument("--dims", type=_int_list_at_least(2), default="2,10,1000")
    g.add_argument("--trials", type=_int_at_least(1), default=100)
    g.add_argument("--seed", type=_int_at_least(0), default=0)
    g.add_argument("--eps", type=_finite_float(positive=True), default=losses.DEFAULT_EPS)
    g.add_argument("--xi", type=_finite_float(), default=1.0)
    g.add_argument("--output", default="-")
    g.set_defaults(fn=cmd_gradcheck)

    b = sub.add_parser("bound-eval", help="bound validity/tightness report")
    b.add_argument("--samples", type=_int_at_least(1), default=1000)
    b.add_argument("--dims", type=_int_list_at_least(2), default="2,10,100")
    b.add_argument("--xi-mode", choices=("fixed", "optimized"), default="fixed")
    b.add_argument("--xi", type=_finite_float(), default=1.0)
    b.add_argument("--seed", type=_int_at_least(0), default=0)
    b.add_argument("--train-probe", action="store_true")
    b.add_argument("--output", default="-")
    b.set_defaults(fn=cmd_bound_eval)

    t = sub.add_parser("train", help="training runs")
    t.add_argument("--config", default=None)
    t.add_argument("--seeds", type=_int_at_least(1), default=1)
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    t.add_argument("--out-dir", default="sphloss_out")
    t.set_defaults(fn=cmd_train)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except config.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
