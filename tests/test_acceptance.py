"""Acceptance suite: one test per shipping criterion, each printing a single
PASS line with its measured numbers (run with ``pytest -s`` to see them).
Criterion 4 needs the MNIST IDX files; point SPHLOSS_MNIST_DIR at a directory
containing the four official files to enable it.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from sphloss import bound, cli, data, fast_output, losses, trainer

from conftest import max_rel_err


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    variants = [
        ("log_softmax", None),
        ("log_softmax_abs", None),
        ("mse", None),
        ("log_spherical", 1e-4),
        ("log_spherical", 0.0198),
        ("log_spherical", 1.0),
        ("log_taylor", None),
        ("spherical_bound_fixed", None),
        ("spherical_bound_optimized", None),
    ]
    assert {name for name, _ in variants} == set(losses.LOSSES)
    worst = 0.0
    n_trials = 0
    for name, eps in variants:
        for D in (2, 10, 1000):
            for _, err in cli.gradcheck_trials(
                name, D, trials=100, seed=0,
                eps=(eps if eps is not None else losses.DEFAULT_EPS), xi=1.0,
            ):
                worst = max(worst, err)
                n_trials += 1
                assert err < 1e-5, f"{name} eps={eps} D={D}: rel err {err:.3e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1: PASS - gradient suite, {n_trials} trials, "
          f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_bound_validity_tightness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_gap = math.inf
    worst_spec_vs_gen = 0.0
    for _ in range(1000):
        D = int(rng.choice([2, 10, 100]))
        o = rng.uniform(-5.0, 5.0, size=D)
        c = int(rng.integers(D))
        xi = float(rng.uniform(-4.0, 4.0))

        fixed = losses.loss_grad("spherical_bound_fixed", o, c, xi=xi)
        gap = fixed.loss - losses.loss_grad("log_softmax", o, c).loss
        assert gap >= -1e-9
        worst_gap = min(worst_gap, gap)

        opt = losses.loss_grad("spherical_bound_optimized", o, c)
        assert opt.loss <= fixed.loss + 1e-8

        alpha = bound.optimal_alpha(float(o.sum()), D, xi)
        gen = bound.bouchard_lse_bound_general(o, alpha, np.full(D, xi)) - o[c]
        err = max_rel_err([fixed.loss], [gen])
        worst_spec_vs_gen = max(worst_spec_vs_gen, err)
        assert err < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 2: PASS - 1000 draws, min gap {worst_gap:.2e}, "
          f"specialized-vs-general worst rel err {worst_spec_vs_gen:.2e}, "
          f"{elapsed:.1f}s")


def _p50_step_s(D, d, steps):
    """Median seconds of one forward_stats + sgd_step on the factored and
    on the dense layer, both started from the same W0 ~ N(0, 0.01^2)."""
    rng = np.random.default_rng(0)
    W0 = rng.normal(scale=0.01, size=(D, d))
    hs = rng.normal(size=(steps, d))
    cs = rng.integers(0, D, size=steps)
    parts = rng.uniform(-0.5, 0.5, size=(steps, 3))
    p50 = []
    for make in (fast_output.FactoredOutputLayer, fast_output.DenseOutputLayer):
        layer = make(W0)
        times = np.empty(steps)
        for i in range(steps):
            p = fast_output.StepPartials(a=parts[i, 0], bq=parts[i, 1], g=parts[i, 2],
                                         c=int(cs[i]), h=hs[i])
            t0 = time.perf_counter()
            layer.forward_stats(hs[i], int(cs[i]))
            layer.sgd_step(p, lr=0.01)
            times[i] = time.perf_counter() - t0
        p50.append(float(np.percentile(times, 50)))
    return p50


def test_criterion_3_fast_output_exactness_and_scaling():
    rng = np.random.default_rng(0)

    def lockstep(steps, D, d):
        W0 = rng.normal(scale=0.05, size=(D, d))
        fac = fast_output.FactoredOutputLayer(W0)
        den = fast_output.DenseOutputLayer(W0)
        for _ in range(steps):
            p = fast_output.StepPartials(
                a=float(rng.uniform(-0.5, 0.5)), bq=float(rng.uniform(-0.5, 0.5)),
                g=float(rng.uniform(-0.5, 0.5)), c=int(rng.integers(D)),
                h=rng.normal(size=d),
            )
            fac.sgd_step(p, lr=0.01)
            den.sgd_step(p, lr=0.01)
        num = np.linalg.norm(fac.materialize().W - den.W)
        return num / max(np.linalg.norm(den.W), 1e-12)

    err_200 = lockstep(200, 5000, 32)
    assert err_200 < 1e-6
    err_10k = lockstep(10_000, 500, 32)
    assert err_10k < 1e-5

    counts = {}
    for D in (1_000, 100_000):
        step_rng = np.random.default_rng(1)
        layer = fast_output.FactoredOutputLayer.zeros(D, 32)
        for _ in range(100):
            p = fast_output.StepPartials(
                a=float(step_rng.uniform(-0.5, 0.5)),
                bq=float(step_rng.uniform(-0.5, 0.5)),
                g=float(step_rng.uniform(-0.5, 0.5)),
                c=int(step_rng.integers(1_000)),  # classes valid at both sizes
                h=step_rng.normal(size=32),
            )
            layer.forward_stats(p.h, p.c)
            layer.sgd_step(p, lr=0.01)
        counts[D] = layer.op_count
    assert counts[1_000] == counts[100_000]

    t = {}
    for D in (1_000, 10_000, 100_000):
        t["factored", D], t["dense", D] = _p50_step_s(D, d=128, steps=200)
    fac_ratio = t[("factored", 100_000)] / t[("factored", 1_000)]
    den_ratio = t[("dense", 100_000)] / t[("dense", 1_000)]
    assert fac_ratio < 2.0
    assert den_ratio > 20.0
    print(f"\nACCEPTANCE 3: PASS - lockstep err 200@D=5000 {err_200:.2e}, "
          f"1e4 steps {err_10k:.2e}; op-count D-independent "
          f"({counts[1_000]} ops); wall-clock growth D=1e3->1e5: "
          f"factored {fac_ratio:.2f}x, dense {den_ratio:.1f}x")


MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def test_criterion_4_mnist_desk_scale():
    mnist_dir = os.environ.get("SPHLOSS_MNIST_DIR")
    if not mnist_dir:
        pytest.skip(
            "MNIST IDX files are not available in this environment (no dataset "
            "on disk, no network); set SPHLOSS_MNIST_DIR to a directory with "
            "the four official IDX files to run this criterion"
        )
    paths = {k: os.path.join(mnist_dir, v) for k, v in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        pytest.skip(f"missing MNIST files: {missing}")

    train = data.load_mnist(paths["train_images"], paths["train_labels"])
    test = data.load_mnist(paths["test_images"], paths["test_labels"])
    tr, va = data.random_split(
        train, data.SplitSpec(50_000, 10_000, 0, seed=0))[:2]
    splits = ((tr.features, tr.labels), (va.features, va.labels),
              (test.features, test.labels))
    spec = trainer.MLPSpec(784, (500, 500), 10)

    results = {}
    for kind in ("log_softmax", "log_taylor"):
        runs = []
        for seed in range(5):
            cfg = trainer.TrainConfig(loss_kind=kind, initial_lr=0.1,
                                      max_epochs=50, seed=seed)
            m = trainer.train(spec, cfg, splits)
            assert not m.diverged
            assert m.test_error < 0.025, (
                f"{kind} seed {seed}: test error {m.test_error:.4%}")
            runs.append(m)
        results[kind] = runs

    print(f"\n{'loss function':<24} | {'negll':<18} | {'error rate':<18} | epochs")
    for kind, runs in results.items():
        neglls = [m.test_negll for m in runs]
        errors = [m.test_error for m in runs]
        epochs = [m.epochs_run for m in runs]
        print(f"{kind:<24} | {statistics.fmean(neglls):.4f} "
              f"({statistics.stdev(neglls):.4f}) | "
              f"{statistics.fmean(errors):.3%} ({statistics.stdev(errors):.3%}) | "
              f"{statistics.fmean(epochs):.0f}")
    mean_taylor = statistics.fmean(m.test_negll for m in results["log_taylor"])
    mean_soft = statistics.fmean(m.test_negll for m in results["log_softmax"])
    ordering = "holds" if mean_taylor <= mean_soft else "DOES NOT hold"
    print(f"soft check (report only): taylor negll {mean_taylor:.4f} vs "
          f"softmax {mean_soft:.4f} -> expected ordering {ordering}")
    print("ACCEPTANCE 4: PASS - all 10 runs under 2.5% test error")


def test_criterion_5_prior_init_entropy():
    D = 10
    p = data.zipf_frequencies(D, 1.0)
    entropy = float(-(p * np.log(p)).sum())
    # an exactly frequency-matched label stream
    counts = np.round(p * 100_000).astype(int)
    counts[0] += 100_000 - counts.sum()
    y = np.repeat(np.arange(D), counts)
    p_stream = counts / counts.sum()
    entropy_stream = float(-(p_stream * np.log(np.maximum(p, 1e-300))).sum())

    reports = []
    for kind, eps, tol in (
        ("log_softmax", None, 1e-3),
        ("log_taylor", None, 1e-3),
        ("log_spherical", 1e-4, D * 1e-4),
    ):
        b = trainer.output_init(D, p, kind)
        O = np.tile(b, (len(y), 1))
        kwargs = {"eps": eps} if eps is not None else {}
        negll = float(losses.batch_negll(kind, O, y, **kwargs).mean())
        assert abs(negll - entropy_stream) <= tol, (
            f"{kind}: negll {negll:.6f} vs entropy {entropy_stream:.6f}")
        reports.append(f"{kind}={negll:.5f}")
    print(f"\nACCEPTANCE 5: PASS - prior entropy {entropy:.5f} nats; "
          f"untrained negll {' '.join(reports)} (spherical residual bound "
          f"{D * 1e-4:.0e})")


def test_criterion_6_bound_training_probe(capsys):
    rc = cli.main(["bound-eval", "--train-probe"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "initial:" in out and "final:" in out
    assert "negll improvement" in out
    with capsys.disabled():
        print("\n" + out.rstrip())
        print("ACCEPTANCE 6: PASS - probe report emitted (non-failing by "
              "design; numbers above)")


def test_criterion_7_invariance_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # softmax translation invariance
    for _ in range(200):
        o = rng.uniform(-5, 5, size=int(rng.choice([2, 10, 50])))
        t = float(rng.uniform(-10, 10))
        np.testing.assert_allclose(losses.softmax(o + t), losses.softmax(o),
                                   atol=1e-12)

    # spherical softmax (eps=0): scale invariance and evenness
    eps0 = losses.QuadraticNormalizerParams(0.0, 0.0, 1.0, unchecked=True)
    for _ in range(200):
        o = rng.uniform(-5, 5, size=10)
        if np.all(o == 0):
            continue
        k = float(rng.uniform(0.1, 10))
        base = losses.quadratic_normalizer(o, eps0)
        np.testing.assert_allclose(
            losses.quadratic_normalizer(k * o, eps0), base, atol=1e-12)
        np.testing.assert_allclose(
            losses.quadratic_normalizer(-o, eps0), base, atol=1e-12)

    # Taylor softmax is NOT even: witness
    o = np.array([1.0, 0.0])
    assert not np.allclose(losses.taylor_softmax(o), losses.taylor_softmax(-o))

    # Taylor numerator 1 + x + x^2/2 >= 0.5 everywhere
    x = rng.uniform(-1e6, 1e6, size=1_000_000)
    num = 1.0 + x + 0.5 * x * x
    assert num.min() >= 0.5
    x_near = rng.uniform(-3, 3, size=1_000_000)
    num_near = 1.0 + x_near + 0.5 * x_near * x_near
    assert num_near.min() >= 0.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 7: PASS - invariance suite (translation, scale, "
          f"evenness, Taylor witness, numerator >= 0.5 over 2e6 scalars), "
          f"{elapsed:.1f}s")
