import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphloss import cli, data, losses, trainer
from sphloss.fast_output import BLOCK_ROWS, FactoredOutputLayer, StepPartials
from sphloss.losses import batch_loss_grad, batch_scores
from sphloss.trainer import (
    MLP,
    MLPSpec,
    RunMetrics,
    TrainConfig,
    evaluate,
    he_init,
    init_model,
    nesterov_step,
    output_init,
    train,
)

from conftest import max_rel_err

ALL_LOSSES = [
    "log_softmax",
    "log_softmax_abs",
    "mse",
    "log_spherical",
    "log_taylor",
    "spherical_bound_fixed",
    "spherical_bound_optimized",
]


class TestHeInit:
    def test_fan_in_2_std(self):
        rng = np.random.default_rng(0)
        w = he_init(2, 100_000, rng)
        assert abs(w.std() - 1.0) < 0.02
        assert abs(w.mean()) < 0.02

    def test_fan_in_800_std(self):
        rng = np.random.default_rng(1)
        w = he_init(800, 100_000, rng)
        assert abs(w.std() - 0.05) < 0.001

    def test_seeded_reproducibility(self):
        a = he_init(10, (5, 10), np.random.default_rng(42))
        b = he_init(10, (5, 10), np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_rejects_bad_fan_in(self):
        with pytest.raises(ValueError):
            he_init(0, 4, np.random.default_rng(0))


class TestOutputInit:
    def test_weights_are_zero(self):
        # a fresh MLP's output weights are zero outside the bias column, for
        # both output layers
        y = np.array([0, 0, 1, 2, 3, 3, 3, 3])
        for layer in ("dense", "factored"):
            cfg = TrainConfig(loss_kind="log_taylor", output_layer=layer,
                              prior_bias_init=True)
            out = init_model(MLPSpec(3, (7,), 4), cfg, y, np.random.default_rng(0)).out
            W = out.W if layer == "dense" else out.materialize().W
            assert np.array_equal(W[:, :-1], np.zeros((4, 7)))
            np.testing.assert_array_equal(
                W[:, -1], output_init(4, np.bincount(y) / len(y), "log_taylor"))

    @pytest.mark.parametrize("prior", [False, True])
    def test_factored_caches_in_closed_form(self, prior):
        # the factored [0 | b] layer is built with no product: its caches are
        # W'W and W'1 of the weights it represents (exactly zero without the
        # bias), and 50 steps from it match a layer built from the explicit W
        D, d, m = 300, 8, 10
        rng = np.random.default_rng(24)
        y = rng.integers(0, D, size=400)  # some classes absent: floored priors
        cfg = TrainConfig(loss_kind="log_taylor", output_layer="factored",
                          prior_bias_init=prior)
        fac = init_model(MLPSpec(5, (d - 1,), D), cfg, y, rng).out
        W = fac.materialize().W
        if prior:
            assert np.any(W[:, -1])
            assert max_rel_err(fac.gram, W.T @ W) <= 1e-15
            assert max_rel_err(fac.colsum, W.sum(axis=0)) <= 1e-15
        else:
            assert not np.any(fac.gram) and not np.any(fac.colsum)
        ref = FactoredOutputLayer(W)
        for _ in range(50):
            a, bq, g = rng.uniform(-0.5, 0.5, size=(3, m))
            h = np.hstack([np.maximum(rng.normal(size=(m, d - 1)), 0.0), np.ones((m, 1))])
            p = StepPartials(a=a, bq=bq, g=g, c=rng.integers(0, D, size=m), h=h)
            fac.sgd_step(p, 0.05)
            ref.sgd_step(p, 0.05)
        for got, want in ((fac.materialize().W, ref.materialize().W),
                          (fac.gram, ref.gram), (fac.colsum, ref.colsum)):
            assert max_rel_err(got, want) <= 1e-12

    def test_uniform_softmax(self):
        D = 8
        b = output_init(D, None, "log_softmax")
        np.testing.assert_allclose(b, math.log(1.0 / D))

    def test_uniform_taylor_gives_uniform_output(self):
        D = 6
        b = output_init(D, None, "log_taylor")
        num = 1.0 + b + 0.5 * b * b
        np.testing.assert_allclose(num / num.sum(), 1.0 / D, atol=1e-12)

    @pytest.mark.parametrize("kind,mapping", [
        ("log_softmax", lambda p: np.log(p)),
        ("spherical_bound_fixed", lambda p: np.log(p)),
        ("mse", lambda p: p),
        ("log_spherical", lambda p: np.sqrt(p)),
    ])
    def test_mappings(self, kind, mapping):
        p = np.array([0.5, 0.3, 0.2])
        b = output_init(3, p, kind)
        np.testing.assert_allclose(b, mapping(p))

    def test_abs_biases_strictly_positive(self):
        p = np.array([0.6, 0.3, 0.1])
        b = output_init(3, p, "log_softmax_abs")
        assert np.all(b > 0)
        # positive biases: the abs-softmax equals softmax of b, which must
        # reproduce the prior
        soft = np.exp(b) / np.exp(b).sum()
        np.testing.assert_allclose(soft, p, atol=1e-12)

    def test_taylor_reproduces_prior(self):
        p = np.array([0.5, 0.25, 0.15, 0.1])
        b = output_init(4, p, "log_taylor")
        num = 1.0 + b + 0.5 * b * b
        np.testing.assert_allclose(num / num.sum(), p, atol=1e-12)

    def test_taylor_min_frequency_classes_finite(self):
        # 2*beta*p - 1 used to round to -1.1e-16 at the minimum frequency
        c = np.array([12, 24, 17, 12, 44])
        p = c / c.sum()
        b = output_init(5, p, "log_taylor")
        assert np.all(np.isfinite(b))
        assert b[0] == b[3] == -1.0
        num = 1.0 + b + 0.5 * b * b
        np.testing.assert_allclose(num / num.sum(), p, atol=1e-12)

    def test_zero_frequency_floored(self):
        p = np.array([0.7, 0.3, 0.0])
        b = output_init(3, p, "log_softmax", n_examples=100)
        assert np.all(np.isfinite(b))
        with pytest.raises(ValueError):
            output_init(3, p, "log_softmax")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            output_init(3, None, "mystery")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_frequency_rejected(self, bad):
        # a NaN gave three NaN biases, and an inf a RuntimeWarning
        with pytest.raises(ValueError, match="finite"):
            output_init(3, [0.5, bad, 0.5], "log_softmax")

    def test_prior_entropy_softmax(self):
        # prior-initialized model scored on a frequency-matched stream
        p = np.array([0.75, 0.25])
        entropy = -(p * np.log(p)).sum()
        assert entropy == pytest.approx(0.5623, abs=1e-4)
        b = output_init(2, p, "log_softmax")
        y = np.repeat([0, 1], [75, 25])
        O = np.tile(b, (100, 1))
        losses_b, _ = batch_loss_grad("log_softmax", O, y)
        assert losses_b.mean() == pytest.approx(entropy, abs=1e-12)


class TestForwardBackward:
    def test_zero_input_zero_logits(self):
        spec = MLPSpec(4, (6,), 3)
        model = MLP(spec, np.random.default_rng(0))
        O, _ = model.forward(np.zeros((5, 4)))
        assert np.array_equal(O, np.zeros((5, 3)))

    def test_single_linear_layer(self):
        spec = MLPSpec(3, (), 4)
        rng = np.random.default_rng(1)
        model = MLP(spec, rng)
        W = model.out.W
        W[:, :-1] = rng.normal(size=(4, 3))
        W[:, -1] = rng.normal(size=4)  # the bias column
        X = rng.normal(size=(6, 3))
        O, hs = model.forward(X)
        np.testing.assert_allclose(O, X @ W[:, :-1].T + W[:, -1])
        dO = rng.normal(size=(6, 4))
        grads = model.backward(hs, dO)
        assert len(grads) == 1
        np.testing.assert_allclose(grads[0][:, :-1], dO.T @ X)
        np.testing.assert_allclose(grads[0][:, -1], dO.sum(axis=0))

    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_end_to_end_gradient(self, loss_kind):
        rng = np.random.default_rng(2)
        spec = MLPSpec(2, (4,), 3)
        model = MLP(spec, rng)
        # random output weights: several losses are stationary at W=0
        model.out.W[:, :-1] = rng.normal(scale=0.7, size=(3, 4))
        model.out.W[:, -1] = rng.normal(scale=0.3, size=3)
        X = rng.normal(size=(8, 2))
        y = rng.integers(0, 3, size=8)

        def mean_loss():
            O, _ = model.forward(X)
            losses_b, _ = batch_loss_grad(loss_kind, O, y)
            return float(losses_b.mean())

        O, hs = model.forward(X)
        _, grad_O = batch_loss_grad(loss_kind, O, y)
        analytic = model.backward(hs, grad_O / 8)

        eps = 1e-6
        for p, g in zip([*model.params(), model.out.W], analytic):
            flat = p.reshape(-1)
            fd = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = mean_loss()
                flat[i] = orig - eps
                dn = mean_loss()
                flat[i] = orig
                fd[i] = (up - dn) / (2 * eps)
            assert max_rel_err(g.reshape(-1), fd) < 1e-4


class TestNesterov:
    def test_mu_zero_is_sgd(self):
        p = np.array([1.0, -2.0])
        v = np.zeros(2)
        g = np.array([0.5, 0.25])
        nesterov_step(p, v, g, lr=0.1, mu=0.0)
        np.testing.assert_allclose(p, [1.0 - 0.05, -2.0 - 0.025])

    def test_two_step_unroll(self):
        # hand unroll of v <- mu*v - lr*g; p <- p + mu*v - lr*g
        lr, mu, g0 = 0.1, 0.9, 2.0
        p = np.array([0.0])
        v = np.array([0.0])
        g = np.array([g0])
        nesterov_step(p, v, g, lr, mu)
        nesterov_step(p, v, g, lr, mu)
        expected = -lr * g0 * (2.0 + 2.0 * mu + mu * mu)
        assert p[0] == pytest.approx(expected, rel=1e-14)

    def test_quadratic_bowl_momentum_faster(self):
        def iterations(mu):
            p = np.array([10.0])
            v = np.zeros(1)
            for it in range(1, 10_000):
                nesterov_step(p, v, 2.0 * p, lr=0.01, mu=mu)
                if abs(p[0]) < 1e-6:
                    return it
            return 10_000

        assert iterations(0.9) < iterations(0.0)


class TestTrainBatchDense:
    @staticmethod
    def whole_array_step(model, Xb, yb, cfg, lr, vels):
        """The reference step: MLP.backward and nesterov_step on the whole
        arrays, with the D x (d + 1) output gradient."""
        O, hs = model.forward(Xb)
        losses_b, grad_O = batch_loss_grad(cfg.loss_kind, O, yb, eps=cfg.eps, xi=cfg.xi)
        grads = model.backward(hs, grad_O / Xb.shape[0])
        for p, v, g in zip([*model.params(), model.out.W], vels, grads):
            nesterov_step(p, v, g, lr, cfg.momentum)
        return float(losses_b.mean())

    @pytest.mark.parametrize("D", [3, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 5 * BLOCK_ROWS // 2])
    @pytest.mark.parametrize("kind", ["log_taylor", "log_softmax", "spherical_bound_optimized"])
    def test_lockstep_with_whole_array_step(self, kind, D):
        cfg = TrainConfig(loss_kind=kind, momentum=0.9)
        models = []
        for _ in range(2):
            rng = np.random.default_rng(D)
            model = MLP(MLPSpec(6, (5,), D), rng)
            model.out.W[...] = rng.normal(scale=0.3, size=model.out.W.shape)
            models.append(model)
        ref_vels = [np.zeros_like(p) for p in [*models[0].params(), models[0].out.W]]
        vels = [np.zeros_like(p) for p in models[1].params()]
        rng = np.random.default_rng(1)
        for _ in range(5):
            Xb, yb = rng.normal(size=(20, 6)), rng.integers(0, D, size=20)
            want = self.whole_array_step(models[0], Xb, yb, cfg, 0.05, ref_vels)
            got = trainer._train_batch(models[1], Xb, yb, cfg, 0.05, vels)
            assert got == want
            for a, b in zip([*models[0].params(), models[0].out.W, *ref_vels],
                            [*models[1].params(), models[1].out.W, *vels,
                             models[1].out.velocity]):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_peak_memory_of_one_step(self, kind):
        # logits included, one step holds at most 2.5 (m, D) float arrays:
        # no D x (d + 1) gradient or temporary
        m, D = 100, 20_000
        rng = np.random.default_rng(7)
        model = MLP(MLPSpec(64, (128,), D), rng)
        model.out.W[...] = rng.normal(scale=0.01, size=model.out.W.shape)
        vels = [np.zeros_like(p) for p in model.params()]
        Xb, yb = rng.normal(size=(m, 64)), rng.integers(0, D, size=m)
        cfg = TrainConfig(loss_kind=kind)
        tracemalloc.start()
        try:
            trainer._train_batch(model, Xb, yb, cfg, 0.01, vels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * m * D * 8


class TestEvaluate:
    def test_top10_error_zero_for_small_D(self):
        rng = np.random.default_rng(3)
        O = rng.normal(size=(50, 10))
        y = rng.integers(0, 10, size=50)
        _, _, top10, _ = evaluate(lambda X: O, np.zeros((50, 1)), y, "log_softmax")
        assert top10 == 0.0

    def test_perfect_predictor(self):
        y = np.arange(5)
        O = np.eye(5) * 50.0
        negll, err, _, _ = evaluate(lambda X: O, np.zeros((5, 1)), y, "log_softmax")
        assert err == 0.0
        assert negll < 1e-12

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty split"):
            evaluate(lambda X: np.zeros((len(X), 5)), np.zeros((0, 1)),
                     np.zeros(0, dtype=np.int64), "log_softmax")

    def test_argmax_divergence_witness(self):
        # spherical scoring ranks by o^2, so a dominant negative coordinate
        # wins even though softmax would pick the largest o
        o = np.array([[-3.0, 1.0, 2.0]])
        assert batch_scores("log_softmax", o).argmax() == 2
        assert batch_scores("log_spherical", o).argmax() == 0

    def test_mse_negll_is_mse(self):
        O = np.array([[0.8, 0.1], [0.2, 0.7]])
        y = np.array([0, 1])
        negll, _, _, own = evaluate(lambda X: O, np.zeros((2, 1)), y, "mse")
        expected = np.mean([(0.8 - 1) ** 2 + 0.1**2, 0.2**2 + (0.7 - 1) ** 2])
        assert negll == pytest.approx(expected, rel=1e-12)
        assert own == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def rows_of(O):
        """A predictor over row indices X = [[i], ...] into the logits O."""
        return lambda X: O[X[:, 0].astype(np.intp)]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_rank_matches_stable_argsort(self, data):
        # logits on a quarter grid in [-2.5, 2.5]: exact ties with the
        # target below and above c, negative logits for the |O| keys and
        # both sides of -1 for log_taylor, all scored without rounding
        kind = data.draw(st.sampled_from(ALL_LOSSES))
        D = data.draw(st.integers(2, 24))
        n = data.draw(st.integers(1, 8))
        O = np.array(data.draw(st.lists(st.integers(-10, 10), min_size=n * D,
                                        max_size=n * D))).reshape(n, D) / 4.0
        y = np.array(data.draw(st.lists(st.integers(0, D - 1), min_size=n, max_size=n)))
        _, err, top10, _ = evaluate(self.rows_of(O), np.arange(n)[:, None], y, kind)
        order = np.argsort(-batch_scores(kind, O), axis=1, kind="stable")
        rank = np.flatnonzero(order == y[:, None]) % D
        assert err == np.count_nonzero(rank > 0) / n
        assert top10 == np.count_nonzero(rank >= min(10, D)) / n

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_nan_target_is_an_error(self, kind):
        O = np.array([[np.nan, 1.0, 2.0], [0.0, 3.0, 1.0]])
        _, err, top10, _ = evaluate(lambda X: O, np.zeros((2, 1)), np.array([0, 1]), kind)
        assert (err, top10) == (0.5, 0.5)

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_predictor_array_is_read_only(self, kind):
        # a predictor may hand back an array it keeps
        rng = np.random.default_rng(4)
        O = rng.normal(size=(30, 25)) - 1.0
        kept = O.copy()
        y = rng.integers(0, 25, size=30)
        first = evaluate(lambda X: O, np.zeros((30, 1)), y, kind)
        assert evaluate(lambda X: O, np.zeros((30, 1)), y, kind) == first
        np.testing.assert_array_equal(O, kept)

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_blocks_and_groups_bounded_by_elements(self, kind, monkeypatch):
        rng = np.random.default_rng(5)
        n, D = 103, 40
        O = rng.normal(size=(n, D))
        O[:, ::3] = O[:, :1]  # ties with the target in many rows
        y = rng.integers(0, D, size=n)
        X = np.arange(n)[:, None]
        whole = evaluate(self.rows_of(O), X, y, kind)
        budget = 7 * D + 5
        monkeypatch.setattr(trainer, "EVAL_BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(losses, "GROUP_ELEMENTS", 2 * D + 1)
        calls = []
        predictor = self.rows_of(O)
        blocked = evaluate(lambda X: calls.append(len(X)) or predictor(X), X, y, kind)
        assert max(calls) <= budget // D and sum(calls) == n
        assert blocked[1:3] == whole[1:3]
        for b, w in zip(blocked[::3], whole[::3]):
            assert b == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_LOSSES)
    def test_peak_memory_of_one_block(self, kind):
        # logits included, one evaluate holds at most 2.5 (n, D) float arrays
        n, D = 200, 20_000
        rng = np.random.default_rng(6)
        W = rng.normal(size=(4, D))
        X = rng.normal(size=(n, 4))
        y = rng.integers(0, D, size=n)
        tracemalloc.start()
        try:
            evaluate(lambda X: X @ W, X, y, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * D * 8


# verified working (lr, prior_bias_init) settings per loss on the toy task;
# the even losses (abs, spherical) need the prior bias to escape the o = 0
# saddle, and taylor avoids the prior mapping's o = -1 parking spot
TOY_PLAN = {
    "log_softmax": (0.05, False),
    "log_softmax_abs": (0.1, True),
    "mse": (0.01, False),
    "log_spherical": (0.1, True),
    "log_taylor": (0.05, False),
    "spherical_bound_fixed": (0.05, False),
    "spherical_bound_optimized": (0.05, False),
}


class TestTrain:
    @pytest.mark.parametrize("loss_kind", ALL_LOSSES)
    def test_toy_reaches_zero_error(self, toy_binary, loss_kind):
        lr, prior = TOY_PLAN[loss_kind]
        cfg = TrainConfig(loss_kind=loss_kind, initial_lr=lr, max_epochs=20,
                          seed=0, prior_bias_init=prior)
        spec = MLPSpec(2, (16,), 2)
        metrics = train(spec, cfg, toy_binary, error_target=0.0)
        (Xtr, ytr), _, _ = toy_binary
        _, train_err, _, _ = evaluate(metrics.model, Xtr, ytr, loss_kind)
        assert train_err == 0.0
        assert not metrics.diverged

    def test_seeded_determinism(self, toy_binary):
        cfg = TrainConfig(loss_kind="log_softmax", initial_lr=0.05, max_epochs=5,
                          seed=7)
        spec = MLPSpec(2, (8,), 2)
        m1 = train(spec, cfg, toy_binary)
        m2 = train(spec, cfg, toy_binary)
        assert m1.test_loss == m2.test_loss
        assert m1.test_error == m2.test_error
        assert [r.train_loss for r in m1.epochs] == [r.train_loss for r in m2.epochs]

    def test_monotone_lr_and_exact_halving(self, toy_binary):
        cfg = TrainConfig(loss_kind="log_softmax", initial_lr=0.2, max_epochs=60,
                          patience=2, seed=1)
        spec = MLPSpec(2, (8,), 2)
        metrics = train(spec, cfg, toy_binary)
        lrs = [r.lr for r in metrics.epochs]
        for prev, cur in zip(lrs, lrs[1:]):
            assert cur <= prev
            assert cur == prev or cur == pytest.approx(prev * 0.5, rel=1e-12)

    def test_early_stop_restores_best_epoch(self, toy_binary):
        cfg = TrainConfig(loss_kind="log_softmax", initial_lr=0.1, max_epochs=15,
                          seed=2)
        spec = MLPSpec(2, (8,), 2)
        metrics = train(spec, cfg, toy_binary)
        assert 1 <= metrics.best_epoch <= metrics.epochs_run
        # the reported test metrics must re-evaluate from the returned model
        _, _, (Xte, yte) = toy_binary
        negll, err, top10, own = evaluate(metrics.model, Xte, yte, "log_softmax")
        assert metrics.test_error == err
        assert metrics.test_loss == pytest.approx(own, rel=1e-12)
        assert metrics.test_negll == pytest.approx(negll, rel=1e-12)

    def test_factored_early_stop_restores_best_epoch(self, toy_binary):
        cfg = TrainConfig(loss_kind="log_taylor", initial_lr=0.1, max_epochs=15,
                          seed=3, output_layer="factored")
        metrics = train(MLPSpec(2, (8,), 2), cfg, toy_binary)
        assert 1 <= metrics.best_epoch < metrics.epochs_run
        _, (Xva, yva), (Xte, yte) = toy_binary
        # the returned predictor is at the best epoch's state ...
        best = metrics.epochs[metrics.best_epoch - 1]
        _, valid_err, _, valid_loss = evaluate(metrics.model, Xva, yva, "log_taylor")
        assert (valid_err, valid_loss) == (best.valid_error, best.valid_loss)
        assert valid_loss != metrics.epochs[-1].valid_loss
        # ... and re-evaluates to the reported test metrics
        negll, err, top10, own = evaluate(metrics.model, Xte, yte, "log_taylor")
        assert (metrics.test_negll, metrics.test_error, metrics.top10_error,
                metrics.test_loss) == (negll, err, top10, own)

    def test_factored_run_never_materializes(self, toy_binary, monkeypatch):
        def refuse(self):
            raise AssertionError("materialize called during training")
        monkeypatch.setattr(FactoredOutputLayer, "materialize", refuse)
        cfg = TrainConfig(loss_kind="log_taylor", initial_lr=0.1, max_epochs=15,
                          seed=3, output_layer="factored")
        metrics = train(MLPSpec(2, (8,), 2), cfg, toy_binary)
        assert not metrics.diverged and metrics.epochs_run == 15
        assert math.isfinite(metrics.test_negll)

    def test_factored_run_evaluates_through_forward(self, toy_binary, monkeypatch):
        # MLP.forward is the one predictor: every validation and test row of
        # a factored run goes through it
        rows = []
        forward = MLP.forward

        def counting(self, X):
            rows.append(len(X))
            return forward(self, X)
        monkeypatch.setattr(MLP, "forward", counting)
        cfg = TrainConfig(loss_kind="log_taylor", initial_lr=0.1, max_epochs=3,
                          seed=3, output_layer="factored")
        metrics = train(MLPSpec(2, (8,), 2), cfg, toy_binary)
        _, (Xva, _), (Xte, _) = toy_binary
        assert sum(rows) == metrics.epochs_run * len(Xva) + len(Xte)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_abort(self, toy_binary):
        # MSE with an absurd step size grows without bound and overflows
        cfg = TrainConfig(loss_kind="mse", initial_lr=1e4, max_epochs=10,
                          seed=3)
        spec = MLPSpec(2, (8,), 2)
        metrics = train(spec, cfg, toy_binary)
        assert metrics.diverged
        assert metrics.diagnostic != ""

    def test_epoch_csv(self, toy_binary, tmp_path):
        cfg = TrainConfig(loss_kind="log_softmax", initial_lr=0.05, max_epochs=3,
                          seed=4)
        out = tmp_path / "epochs.csv"
        metrics = train(MLPSpec(2, (8,), 2), cfg, toy_binary, csv_path=str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,train_loss,valid_loss,valid_error"
        assert len(lines) == 1 + metrics.epochs_run

    def test_rejects_factored_with_nonspherical(self):
        with pytest.raises(ValueError):
            TrainConfig(loss_kind="log_softmax", output_layer="factored")

    @pytest.mark.parametrize("loss_kind", ["log_taylor", "spherical_bound_fixed"])
    def test_factored_layer_trains(self, toy_binary, loss_kind):
        lr, prior = TOY_PLAN[loss_kind]
        cfg = TrainConfig(loss_kind=loss_kind, initial_lr=lr, max_epochs=20,
                          seed=0, prior_bias_init=prior, output_layer="factored")
        metrics = train(MLPSpec(2, (16,), 2), cfg, toy_binary, error_target=0.0)
        assert not metrics.diverged
        (Xtr, ytr), _, _ = toy_binary
        _, train_err, _, _ = evaluate(metrics.model, Xtr, ytr, loss_kind)
        assert train_err <= 0.01

    @pytest.mark.parametrize("loss_kind", sorted(k for k, r in losses.LOSSES.items()
                                                 if r.entry is not None))
    def test_factored_follows_dense_without_momentum(self, loss_kind):
        assert_factored_follows_dense(loss_kind)

    def test_new_kind_is_one_record(self, monkeypatch, tmp_path):
        # adding a loss kind takes one LOSSES record: here twice the mse
        # entry, which both output layers then train, gradcheck checks and
        # loss_grad scores, and a renamed log_softmax_abs, whose record, not
        # its name, gives its gradient the sign of O
        def twice_mse(*args):
            return tuple(2.0 * x for x in losses.LOSSES["mse"].entry(*args))
        monkeypatch.setitem(losses.LOSSES, "twice_mse", dataclasses.replace(
            losses.LOSSES["mse"], entry=twice_mse))
        assert_factored_follows_dense("twice_mse")
        o = np.array([0.5, -1.0, 2.0])
        r, ref = losses.loss_grad("twice_mse", o, 1), losses.loss_grad("mse", o, 1)
        assert r.loss == 2.0 * ref.loss
        np.testing.assert_array_equal(r.grad_o, 2.0 * ref.grad_o)
        assert r.partials == tuple(2.0 * x for x in ref.partials)
        assert cli.main(["gradcheck", "--loss", "twice_mse", "--dims", "2,10",
                         "--trials", "3", "--output", str(tmp_path / "g.csv")]) == 0
        monkeypatch.setitem(losses.LOSSES, "abs_copy",
                            dataclasses.replace(losses.LOSSES["log_softmax_abs"]))
        O, y = np.array([[0.5, -1.0, 2.0], [-3.0, 0.25, -0.5]]), np.array([1, 0])
        for got, want in zip(losses.batch_loss_grad("abs_copy", O, y),
                             losses.batch_loss_grad("log_softmax_abs", O, y)):
            np.testing.assert_array_equal(got, want)


def assert_factored_follows_dense(loss_kind):
    # with momentum 0 both output layers take the plain minibatch SGD
    # step, so the runs agree up to rounding; Zipf classes repeat
    # within each batch of 50, and the prior biases move log_spherical
    # off its zero-gradient point o = 0
    ds = data.synthetic_categorical(D=30, input_dim=6, N=500, seed=1,
                                    separation=2.0)
    splits = tuple((s.features, s.labels) for s in
                   data.random_split(ds, data.SplitSpec(300, 100, 100, seed=1)))
    runs = {}
    for layer in ("dense", "factored"):
        cfg = TrainConfig(loss_kind=loss_kind, initial_lr=0.05, momentum=0.0,
                          batch_size=50, max_epochs=4, seed=2,
                          prior_bias_init=True, output_layer=layer)
        runs[layer] = train(MLPSpec(6, (12,), 30), cfg, splits)
    den, fac = runs["dense"], runs["factored"]
    assert not den.diverged and len(fac.epochs) == len(den.epochs) == 4
    for rf, rd in zip(fac.epochs, den.epochs):
        assert (rf.epoch, rf.lr, rf.valid_error) == (rd.epoch, rd.lr, rd.valid_error)
        assert rf.train_loss == pytest.approx(rd.train_loss, rel=1e-8)
        assert rf.valid_loss == pytest.approx(rd.valid_loss, rel=1e-8)
    for key in ("test_loss", "test_error", "test_negll", "top10_error"):
        assert getattr(fac, key) == pytest.approx(getattr(den, key), rel=1e-8), key
