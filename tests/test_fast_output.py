import numpy as np
import pytest

from sphloss.fast_output import (
    DenseOutputLayer,
    FactoredOutputLayer,
    StepPartials,
    bench,
)
from sphloss.losses import batch_loss_grad


def random_partials(rng, D, d):
    return StepPartials(
        a=float(rng.uniform(-0.5, 0.5)),
        bq=float(rng.uniform(-0.5, 0.5)),
        g=float(rng.uniform(-0.5, 0.5)),
        c=int(rng.integers(D)),
        h=rng.normal(size=d),
    )


def rel_fro(A, B):
    denom = max(np.linalg.norm(B), 1e-12)
    return np.linalg.norm(A - B) / denom


class TestForwardStats:
    def test_zero_layer(self):
        layer = FactoredOutputLayer.zeros(100, 8)
        st = layer.forward_stats(np.ones(8) * 3.0, 7)
        assert (st.s, st.q, st.o_c) == (0.0, 0.0, 0.0)

    def test_matches_dense_fresh(self):
        rng = np.random.default_rng(0)
        W0 = rng.normal(size=(500, 16))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(50):
            h = rng.normal(size=16)
            c = int(rng.integers(500))
            a, b = fac.forward_stats(h, c), den.forward_stats(h, c)
            assert a.s == pytest.approx(b.s, rel=1e-10, abs=1e-10)
            assert a.q == pytest.approx(b.q, rel=1e-10)
            assert a.o_c == pytest.approx(b.o_c, rel=1e-10, abs=1e-10)

    def test_matches_dense_after_200_steps(self):
        rng = np.random.default_rng(1)
        W0 = rng.normal(scale=0.1, size=(500, 16))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(200):
            p = random_partials(rng, 500, 16)
            fac.sgd_step(p, lr=0.01)
            den.sgd_step(p, lr=0.01)
        for _ in range(20):
            h = rng.normal(size=16)
            c = int(rng.integers(500))
            a, b = fac.forward_stats(h, c), den.forward_stats(h, c)
            assert a.s == pytest.approx(b.s, rel=1e-6, abs=1e-8)
            assert a.q == pytest.approx(b.q, rel=1e-6)
            assert a.o_c == pytest.approx(b.o_c, rel=1e-6, abs=1e-8)

    def test_dimension_mismatch(self):
        layer = FactoredOutputLayer.zeros(10, 4)
        with pytest.raises(ValueError):
            layer.forward_stats(np.zeros(5), 0)


class TestSgdStep:
    def test_zero_gradient_is_noop(self):
        rng = np.random.default_rng(2)
        W0 = rng.normal(size=(50, 6))
        layer = FactoredOutputLayer(W0)
        Q0, v0 = layer.gram.copy(), layer.colsum.copy()
        layer.sgd_step(StepPartials(a=0.0, bq=0.0, g=0.0, c=3, h=rng.normal(size=6)),
                       lr=0.1)
        assert np.array_equal(layer.gram, Q0)
        assert np.array_equal(layer.colsum, v0)
        assert np.array_equal(layer.materialize().W, W0)

    def test_single_step_from_zero_closed_form(self):
        # from W=0 the Whh' term vanishes, leaving a rank-two update
        D, d, lr = 40, 5, 0.05
        rng = np.random.default_rng(3)
        h = rng.normal(size=d)
        a, bq, g, c = 0.3, -0.2, -1.1, 7
        layer = FactoredOutputLayer.zeros(D, d)
        layer.sgd_step(StepPartials(a=a, bq=bq, g=g, c=c, h=h), lr=lr)
        expected = -lr * a * np.ones((D, 1)) @ h[None, :]
        expected[c] -= lr * g * h
        assert rel_fro(layer.materialize().W, expected) < 1e-12

    def test_lockstep_200_steps_D5000(self):
        rng = np.random.default_rng(4)
        D, d = 5000, 32
        W0 = rng.normal(scale=0.05, size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(200):
            p = random_partials(rng, D, d)
            fac.sgd_step(p, lr=0.01)
            den.sgd_step(p, lr=0.01)
        assert rel_fro(fac.materialize().W, den.W) < 1e-6

    def test_backward_h_matches_dense(self):
        rng = np.random.default_rng(5)
        D, d = 300, 12
        W0 = rng.normal(size=(D, d))
        fac = FactoredOutputLayer(W0)
        for _ in range(20):
            p = random_partials(rng, D, d)
            grad_o = p.a * np.ones(D) + 2.0 * p.bq * (W0 @ p.h)
            grad_o[p.c] += p.g
            np.testing.assert_allclose(fac.backward_h(p), W0.T @ grad_o,
                                       rtol=1e-10, atol=1e-10)

    def test_singular_mixer_update_falls_back(self):
        # choose bq so that I - 2*lr*bq*hh' is exactly singular
        rng = np.random.default_rng(6)
        D, d, lr = 30, 4, 0.1
        W0 = rng.normal(size=(D, d))
        h = rng.normal(size=d)
        bq = 1.0 / (2.0 * lr * float(h @ h))
        p = StepPartials(a=0.2, bq=bq, g=-0.5, c=2, h=h)
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        fac.sgd_step(p, lr=lr)
        den.sgd_step(p, lr=lr)
        assert rel_fro(fac.materialize().W, den.W) < 1e-10
        assert fac.rebase_count == 1


class TestRowAndMaterialize:
    def test_zero_init_row(self):
        layer = FactoredOutputLayer.zeros(20, 3)
        assert np.array_equal(layer.row(5), np.zeros(3))

    def test_materialize_roundtrip(self):
        rng = np.random.default_rng(7)
        W0 = rng.normal(size=(60, 9))
        assert np.array_equal(FactoredOutputLayer(W0).materialize().W, W0)

    def test_row_matches_dense_lockstep(self):
        rng = np.random.default_rng(8)
        D, d = 200, 10
        W0 = rng.normal(scale=0.1, size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(100):
            p = random_partials(rng, D, d)
            fac.sgd_step(p, lr=0.02)
            den.sgd_step(p, lr=0.02)
        for c in rng.integers(0, D, size=20):
            np.testing.assert_allclose(fac.row(int(c)), den.row(int(c)),
                                       rtol=1e-6, atol=1e-9)

    def test_untouched_rows_share_only_global_terms(self):
        # steps that always target class 0: other rows must still track the
        # dense oracle (they move through the mixer and offset terms only)
        rng = np.random.default_rng(9)
        D, d = 50, 6
        W0 = rng.normal(size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(30):
            p = StepPartials(a=0.1, bq=0.05, g=-0.4, c=0, h=rng.normal(size=d))
            fac.sgd_step(p, lr=0.05)
            den.sgd_step(p, lr=0.05)
        assert set(fac.corrections) == {0}
        for c in range(1, 5):
            np.testing.assert_allclose(fac.row(c), den.row(c), rtol=1e-8)

    def test_row_out_of_range(self):
        layer = FactoredOutputLayer.zeros(10, 4)
        with pytest.raises(ValueError):
            layer.row(10)


class TestRebase:
    def test_idempotent(self):
        rng = np.random.default_rng(10)
        layer = FactoredOutputLayer(rng.normal(size=(40, 7)))
        for _ in range(25):
            layer.sgd_step(random_partials(rng, 40, 7), lr=0.02)
        W1 = layer.materialize().W
        layer.rebase()
        W2 = layer.materialize().W
        layer.rebase()
        W3 = layer.materialize().W
        assert rel_fro(W2, W1) < 1e-10
        assert np.array_equal(W3, W2)

    def test_forward_stats_unchanged(self):
        rng = np.random.default_rng(11)
        layer = FactoredOutputLayer(rng.normal(size=(80, 8)))
        for _ in range(40):
            layer.sgd_step(random_partials(rng, 80, 8), lr=0.02)
        h = rng.normal(size=8)
        before = layer.forward_stats(h, 3)
        layer.rebase()
        after = layer.forward_stats(h, 3)
        assert after.s == pytest.approx(before.s, rel=1e-10, abs=1e-12)
        assert after.q == pytest.approx(before.q, rel=1e-10)
        assert after.o_c == pytest.approx(before.o_c, rel=1e-10, abs=1e-12)

    def test_cache_coherence_after_rebase(self):
        rng = np.random.default_rng(12)
        layer = FactoredOutputLayer(rng.normal(size=(120, 10)))
        for _ in range(60):
            layer.sgd_step(random_partials(rng, 120, 10), lr=0.03)
        layer.rebase()
        W = layer.materialize().W
        assert rel_fro(layer.gram, W.T @ W) < 1e-10
        assert rel_fro(layer.colsum, W.sum(axis=0)) < 1e-10

    def test_correction_budget_triggers_rebase(self):
        rng = np.random.default_rng(13)
        D, d = 40, 5
        layer = FactoredOutputLayer(rng.normal(size=(D, d)))
        for c in range(D):
            layer.sgd_step(
                StepPartials(a=0.0, bq=0.0, g=-0.1, c=c, h=rng.normal(size=d)),
                lr=0.05,
            )
        assert layer.rebase_count > 0
        assert len(layer.corrections) <= D / 4

    def test_long_run_with_rebases(self):
        rng = np.random.default_rng(14)
        D, d = 500, 16
        W0 = rng.normal(scale=0.05, size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(10_000):
            h = rng.normal(size=d)
            h *= min(1.0, 10.0 / max(np.linalg.norm(h), 1e-12))
            p = StepPartials(
                a=float(rng.uniform(-0.5, 0.5)),
                bq=float(rng.uniform(-0.5, 0.5)),
                g=float(rng.uniform(-0.5, 0.5)),
                c=int(rng.integers(D)),
                h=h,
            )
            fac.sgd_step(p, lr=0.01)
            den.sgd_step(p, lr=0.01)
        assert fac.rebase_count > 0
        assert rel_fro(fac.materialize().W, den.W) < 1e-5


class TestComplexity:
    def test_op_count_independent_of_D(self):
        # same step sequence at two vocabulary sizes: counters must agree
        counts = {}
        for D in (1_000, 100_000):
            rng = np.random.default_rng(15)
            layer = FactoredOutputLayer.zeros(D, 16)
            for _ in range(50):
                p = random_partials(rng, 1_000, 16)  # classes < min(D)
                layer.forward_stats(p.h, p.c)
                layer.sgd_step(p, lr=0.01)
            counts[D] = layer.op_count
        assert counts[1_000] == counts[100_000]

    def test_op_count_scales_like_d_squared(self):
        per_step = {}
        for d in (8, 32):
            rng = np.random.default_rng(16)
            layer = FactoredOutputLayer.zeros(200, d)
            for _ in range(50):
                p = random_partials(rng, 200, d)
                layer.forward_stats(p.h, p.c)
                layer.sgd_step(p, lr=0.01)
            per_step[d] = layer.op_count / 50
        # quadrupling d should multiply the quadratic part by ~16
        ratio = per_step[32] / per_step[8]
        assert 8.0 < ratio < 20.0


class TestLossEquivalence:
    @pytest.mark.parametrize("loss_kind", ["mse", "log_spherical", "log_taylor"])
    def test_trajectory_matches_dense(self, loss_kind):
        from sphloss.losses import SPHERICAL_LOSSES, LossParams
        from sphloss.trainer import TrainConfig

        cfg = TrainConfig(loss_kind=loss_kind, output_layer="factored")
        entry = SPHERICAL_LOSSES[loss_kind]
        params = LossParams(eps=cfg.eps, xi=cfg.xi)
        rng = np.random.default_rng(17)
        D, d, lr = 50, 8, 0.05
        W0 = rng.normal(scale=0.1, size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(500):
            h = rng.normal(size=d)
            c = int(rng.integers(D))
            st = fac.forward_stats(h, c)
            value, a, bq, g = entry(
                np.array([st.s]), np.array([st.q]), np.array([st.o_c]), D, params
            )
            fac_loss = float(value[0])

            o_dense = den.W @ h
            losses, grads = batch_loss_grad(
                loss_kind, o_dense[None, :], np.array([c]), eps=cfg.eps, xi=cfg.xi
            )
            assert fac_loss == pytest.approx(float(losses[0]), rel=1e-4, abs=1e-8)

            fac.sgd_step(
                StepPartials(a=float(a[0]), bq=float(bq[0]), g=float(g[0]), c=c, h=h),
                lr=lr,
            )
            den.W -= lr * grads[0][:, None] * h[None, :]
        assert rel_fro(fac.materialize().W, den.W) < 1e-6


class TestBench:
    def test_rows_and_keys(self):
        rows = bench(D_list=(200, 400), d=16, steps=10, seed=0)
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"impl", "D", "d", "step_us_p50", "step_us_p90", "steps"}
            assert row["step_us_p50"] > 0

    def test_unknown_impl(self):
        with pytest.raises(ValueError):
            bench(impls=("mystery",), D_list=(100,), d=8, steps=5)
