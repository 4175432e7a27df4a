import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def random_batch(rng, D, d, m):
    """m examples whose classes repeat and whose every fifth partial row is
    all zero."""
    a, bq, g = rng.uniform(-0.5, 0.5, size=(3, m)) * (np.arange(m) % 5 != 4)
    return StepPartials(
        a=a, bq=bq, g=g,
        c=rng.choice(rng.integers(D, size=max(1, m // 2)), size=m),
        h=rng.normal(size=(m, d)),
    )


def cond_estimate(layer):
    return np.linalg.norm(layer.mixer) * np.linalg.norm(layer.mixer_inv)


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

    @pytest.mark.parametrize("m", [1, 7, 40])
    def test_batch_lockstep_with_dense(self, m):
        rng = np.random.default_rng(20 + m)
        D, d, lr = 300, 12, 0.01
        W0 = rng.normal(scale=0.1, size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(50):
            p = random_batch(rng, D, d, m)
            got, want = fac.forward_stats(p.h, p.c), den.forward_stats(p.h, p.c)
            for field in ("s", "q", "o_c"):
                assert getattr(got, field).shape == (m,)
                np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                           rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(fac.backward_h(p), den.backward_h(p),
                                       rtol=1e-10, atol=1e-12)
            fac.sgd_step(p, lr=lr)
            den.sgd_step(p, lr=lr)
        W = fac.materialize().W
        assert rel_fro(W, den.W) < 1e-10
        assert rel_fro(fac.gram, W.T @ W) < 1e-10
        assert rel_fro(fac.colsum, W.sum(axis=0)) < 1e-10

    def test_singular_batch_mixer_update_falls_back(self):
        # rows 0 and 1 share h with 2*lr*bq*h'h = 1/2 each, and row 2 is
        # orthogonal to h, so K = I - B HH' is exactly singular
        rng = np.random.default_rng(21)
        D, d, lr = 30, 4, 0.25
        W0 = rng.normal(size=(D, d))
        H = np.array([[2.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
        p = StepPartials(a=np.array([0.2, -0.1, 0.3]), bq=np.array([0.25, 0.25, 0.4]),
                         g=np.array([-0.5, 0.7, 0.1]), c=np.array([2, 2, 5]), h=H)
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        fac.sgd_step(p, lr=lr)
        den.sgd_step(p, lr=lr)
        W = fac.materialize().W
        assert fac.rebase_count == 1
        assert rel_fro(W, den.W) < 1e-12
        assert rel_fro(fac.gram, W.T @ W) < 1e-12
        assert rel_fro(fac.colsum, W.sum(axis=0)) < 1e-12

    def test_batch_class_out_of_range(self):
        layer = FactoredOutputLayer.zeros(10, 4)
        H = np.zeros((2, 4))
        for c in ([0, 10], [-1, 0], [0, 1.7]):
            p = StepPartials(a=np.zeros(2), bq=np.zeros(2), g=np.zeros(2), c=np.array(c), h=H)
            for call in (lambda: layer.forward_stats(H, np.array(c)),
                         lambda: layer.backward_h(p), lambda: layer.sgd_step(p, 0.1)):
                with pytest.raises(ValueError):
                    call()
        with pytest.raises(ValueError):
            layer.forward_stats(H, np.array([0]))  # one class for two rows


STEP = st.integers(1, 8).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, 3), min_size=m, max_size=m),  # classes repeat
    st.lists(st.booleans(), min_size=m, max_size=m),  # all-zero partial rows
    st.integers(0, 2**32 - 1),  # seed for h and the partials
))


class TestBatchProperties:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.one_of(st.just("rebase"), STEP), min_size=1, max_size=15),
           lr=st.sampled_from([0.01, 0.1, 0.3]))
    def test_random_steps_and_rebases_match_dense(self, ops, lr):
        # at lr 0.3 some steps nearly flip the mixer along h; the factored
        # form is exact to about eps times the mixer's condition estimate,
        # the largest of which the tolerance is scaled by
        D, d = 10, 5
        W0 = np.random.default_rng(0).normal(size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        errs, cond = [0.0], cond_estimate(fac)
        for op in ops:
            if op == "rebase":
                fac.rebase()
                continue
            c, zero, seed = op
            rng = np.random.default_rng(seed)
            a, bq, g = rng.uniform(-1.0, 1.0, size=(3, len(c))) * ~np.array(zero)
            p = StepPartials(a=a, bq=bq, g=g, c=np.array(c), h=rng.normal(size=(len(c), d)))
            errs.append(rel_fro(fac.backward_h(p), den.backward_h(p)))
            fac.sgd_step(p, lr=lr)
            den.sgd_step(p, lr=lr)
            cond = max(cond, cond_estimate(fac))
        W = fac.materialize().W
        errs += [rel_fro(W, den.W), rel_fro(fac.gram, W.T @ W),
                 rel_fro(fac.colsum, W.sum(axis=0))]
        assert max(errs) < 1e-14 * cond


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
        assert np.array_equal(fac.core[1:], W0[1:])
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

    def test_long_run_with_rebases(self):
        rng = np.random.default_rng(14)
        D, d = 500, 16
        W0 = rng.normal(scale=0.05, size=(D, d))
        # at the default threshold this run never rebases (the mixer's
        # condition estimate ends near 6e5); at 100 it rebases 6 times
        fac = FactoredOutputLayer(W0, cond_threshold=100.0)
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
        # same step sequence at two vocabulary sizes: counters must agree,
        # for single examples and for batches of 8
        for m in (None, 8):
            counts = {}
            for D in (1_000, 100_000):
                rng = np.random.default_rng(15)
                layer = FactoredOutputLayer.zeros(D, 16)
                for _ in range(50):
                    # classes < min(D)
                    p = (random_partials(rng, 1_000, 16) if m is None
                         else random_batch(rng, 1_000, 16, m))
                    layer.forward_stats(p.h, p.c)
                    layer.sgd_step(p, lr=0.01)
                counts[D] = layer.op_count
            assert counts[1_000] == counts[100_000] > 0

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
