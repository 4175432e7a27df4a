import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphloss import data
from sphloss.fast_output import (
    BLOCK_ROWS,
    DenseOutputLayer,
    FactoredOutputLayer,
    StepPartials,
)
from sphloss.losses import LOSSES, LossParams, _dense_grad, batch_loss_grad


def random_partials(rng, D, d):
    return StepPartials(
        a=float(rng.uniform(-0.5, 0.5)),
        bq=float(rng.uniform(-0.5, 0.5)),
        g=float(rng.uniform(-0.5, 0.5)),
        c=int(rng.integers(D)),
        h=rng.normal(size=d),
    )


def random_batch(rng, D, d, m, classes=None):
    """m examples whose classes repeat, drawn from ``classes`` classes (m/2
    when None), and whose every fifth partial row is all zero."""
    a, bq, g = rng.uniform(-0.5, 0.5, size=(3, m)) * (np.arange(m) % 5 != 4)
    return StepPartials(
        a=a, bq=bq, g=g,
        c=rng.choice(rng.integers(D, size=classes or max(1, m // 2)), size=m),
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

    def test_counts_q_clamps(self):
        layer = FactoredOutputLayer(np.random.default_rng(18).normal(size=(20, 4)))
        H = np.eye(4)[:3]
        layer.forward_stats(H, np.arange(3))
        assert layer.q_clamps == 0
        layer.gram[0, 0] = -1.0  # q of the first row only goes below zero
        st = layer.forward_stats(H, np.arange(3))
        assert layer.q_clamps == 1 and st.q[0] == 0.0


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

    @pytest.mark.parametrize("D", [3, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 5 * BLOCK_ROWS // 2])
    @pytest.mark.parametrize("m", [1, 7])
    def test_dense_step_is_the_whole_array_step(self, D, m):
        # the reference forms the whole D x d gradient dO'H that the step
        # applies, dO being the loss's dense gradient at the pre-step W
        rng = np.random.default_rng(D + m)
        W0 = rng.normal(size=(D, 9))
        p = random_batch(rng, D, 9, m)
        W = W0 - 0.1 * (_dense_grad(p.h @ W0.T, p.c, p.a, p.bq, p.g).T @ p.h)
        den = DenseOutputLayer(W0)
        den.sgd_step(p, lr=0.1)
        assert den.W.tobytes() == W.tobytes()

    # the row update sums a repeated class's terms: every row of one class,
    # and m > D, where most rows repeat a class
    @pytest.mark.parametrize("m, D, classes", [
        pytest.param(1, 300, None, id="1"), pytest.param(7, 300, None, id="7"),
        pytest.param(40, 300, None, id="40"), pytest.param(40, 300, 1, id="40-one-class"),
        pytest.param(80, 50, None, id="80-above-D")])
    def test_batch_lockstep_with_dense(self, m, D, classes):
        rng = np.random.default_rng(20 + m)
        d, lr = 12, 0.01
        W0 = rng.normal(scale=0.1, size=(D, d))
        fac = FactoredOutputLayer(W0)
        den = DenseOutputLayer(W0)
        for _ in range(50):
            p = random_batch(rng, D, d, m, classes)
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

    @pytest.mark.parametrize("factored", [False, True])
    def test_empty_batch(self, factored):
        # m = 0: empty statistics and dL/dh, and a step that changes nothing
        W0 = np.random.default_rng(23).normal(size=(30, 5))
        layer = FactoredOutputLayer(W0) if factored else DenseOutputLayer(W0)
        H, c = np.zeros((0, 5)), np.zeros(0, dtype=np.int64)
        st = layer.forward_stats(H, c)
        assert st.s.shape == st.q.shape == st.o_c.shape == (0,)
        p = StepPartials(a=np.zeros(0), bq=np.zeros(0), g=np.zeros(0), c=c, h=H)
        assert layer.backward_h(p).shape == (0, 5)
        before = layer.snapshot()
        layer.sgd_step(p, lr=0.1)
        after = layer.snapshot()
        if factored:
            assert all(np.array_equal(before[k], after[k]) for k in before)
            assert (layer.fold_count, layer.rebase_count) == (0, 0)
        else:
            assert np.array_equal(before, after)

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

    @pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
    @pytest.mark.parametrize("field", ["a", "bq", "g"])
    def test_partials_must_match_rows(self, factored, field):
        layer = (FactoredOutputLayer if factored else DenseOutputLayer).zeros(10, 4)
        H, c = np.ones((2, 4)), np.array([0, 1])
        partials = {"a": np.zeros(2), "bq": np.zeros(2), "g": np.zeros(2), field: np.zeros(3)}
        p = StepPartials(c=c, h=H, **partials)
        layer.forward_stats(H, c)
        for call in (lambda: layer.backward_h(p), lambda: layer.sgd_step(p, 0.1)):
            with pytest.raises(ValueError, match="must match h's rows"):
                call()


def states_equal(a, b):
    """Bitwise equality of two layers' states: snapshots, and the dense
    layer's velocity."""
    if isinstance(a, DenseOutputLayer):
        return a.W.tobytes() == b.W.tobytes() and a.velocity.tobytes() == b.velocity.tobytes()
    sa, sb = a.snapshot(), b.snapshot()
    return all(sa[k].tobytes() == sb[k].tobytes() for k in sa)


class TestTrainStep:
    def test_factored_is_its_explicit_sequence(self):
        # forward_stats -> the loss entry -> backward_h / m -> sgd_step at
        # lr / m, over steps whose classes repeat
        rng = np.random.default_rng(30)
        D, d, m, lr, params = 200, 9, 12, 0.05, LossParams()
        W0 = rng.normal(scale=0.1, size=(D, d))
        got, want = FactoredOutputLayer(W0), FactoredOutputLayer(W0)
        for _ in range(5):
            H = rng.normal(size=(m, d))
            y = rng.choice(rng.integers(0, D, size=4), size=m)
            losses_got, dH = got.train_step(H, y, "log_taylor", params, lr, 0.9)
            st = want.forward_stats(H, y)
            losses_want, a, bq, g = LOSSES["log_taylor"].entry(st.s, st.q, st.o_c, D, params)
            p = StepPartials(a=a, bq=bq, g=g, c=y, h=H)
            dH_want = want.backward_h(p) / m
            want.sgd_step(p, lr / m)
            assert losses_got.tobytes() == losses_want.tobytes()
            assert dH.tobytes() == dH_want.tobytes()
            assert states_equal(got, want)

    @pytest.mark.parametrize("factored", [False, True])
    def test_without_backward(self, factored):
        # no dL/dH, and the layer's state bitwise that of a step with it
        rng = np.random.default_rng(31)
        D, d, m = 50, 6, 8
        W0 = rng.normal(scale=0.1, size=(D, d))
        cls = FactoredOutputLayer if factored else DenseOutputLayer
        with_dh, without = cls(W0), cls(W0)
        for _ in range(3):
            H, y = rng.normal(size=(m, d)), rng.integers(0, D, size=m)
            step = (H, y, "log_taylor", LossParams(), 0.05, 0.9)
            losses_with, dH = with_dh.train_step(*step)
            losses_without, none = without.train_step(*step, backward=False)
            assert dH.shape == (m, d) and none is None
            assert losses_with.tobytes() == losses_without.tobytes()
            assert states_equal(with_dh, without)

    @pytest.mark.parametrize("factored", [False, True], ids=["dense", "factored"])
    def test_empty_batch(self, factored):
        # m = 0: the losses and dL/dH are empty and the state is unchanged
        W0 = np.random.default_rng(32).normal(scale=0.1, size=(20, 5))
        cls = FactoredOutputLayer if factored else DenseOutputLayer
        layer, fresh = cls(W0), cls(W0)
        step_losses, dH = layer.train_step(np.zeros((0, 5)), np.zeros(0, dtype=np.int64),
                                           "log_taylor", LossParams(), 0.05, 0.9)
        assert step_losses.shape == (0,) and dH.shape == (0, 5)
        assert states_equal(layer, fresh)


def steps(max_m):
    """Steps of 1 to ``max_m`` rows."""
    return st.integers(1, max_m).flatmap(lambda m: st.tuples(
        st.lists(st.integers(0, 3), min_size=m, max_size=m),  # classes repeat
        st.lists(st.booleans(), min_size=m, max_size=m),  # all-zero partial rows
        st.integers(0, 2**32 - 1),  # seed for h and the partials
    ))


class TestBatchProperties:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.one_of(st.just("rebase"), steps(8)), min_size=1, max_size=15),
           lr=st.sampled_from([0.01, 0.1, 0.3]))
    def test_random_steps_and_rebases_match_dense(self, ops, lr):
        # at lr 0.3 some steps nearly flip the mixer along h; the factored
        # form is exact to about eps times the mixer's condition estimate,
        # the largest of which the tolerance is scaled by
        self.check(ops, lr, D=10, d=5, h_scale=1.0)

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(st.one_of(st.just("rebase"), steps(1), steps(5)), min_size=1, max_size=25),
           lr=st.sampled_from([0.01, 0.1, 0.3]))
    def test_blocks_of_steps_and_rebases_match_dense(self, ops, lr):
        # at d = 32 the pending block holds 4 rows: single examples and
        # batches of up to 3 join it, batches of 4 or 5 are blocks of their
        # own.  |h| near 1 keeps 2*lr*bq*|h|^2 below about 0.3, so that most
        # blocks defer their steps
        self.check(ops, lr, D=40, d=32, h_scale=32 ** -0.5)

    def check(self, ops, lr, D, d, h_scale):
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
            p = StepPartials(a=a, bq=bq, g=g, c=np.array(c),
                             h=h_scale * rng.normal(size=(len(c), d)))
            errs.append(rel_fro(fac.backward_h(p), den.backward_h(p)))
            fac.sgd_step(p, lr=lr)
            den.sgd_step(p, lr=lr)
            cond = max(cond, cond_estimate(fac))
        W = fac.materialize().W
        errs += [rel_fro(W, den.W), rel_fro(fac.gram, W.T @ W),
                 rel_fro(fac.colsum, W.sum(axis=0))]
        assert max(errs) < 1e-14 * cond


class TestRowAndMaterialize:
    @pytest.mark.parametrize("layer", [DenseOutputLayer, FactoredOutputLayer])
    @pytest.mark.parametrize("W", [np.full((3, 2), np.nan), np.array([[0.0, np.inf]]),
                                   np.zeros(3)], ids=["nan", "inf", "1-D"])
    def test_rejects_bad_weights(self, layer, W):
        with pytest.raises(ValueError, match="finite"):
            layer(W)

    @pytest.mark.parametrize("layer", [DenseOutputLayer, FactoredOutputLayer])
    @pytest.mark.parametrize("bias", [np.zeros(4), np.array([0.0, np.nan, 0.0])],
                             ids=["length", "nan"])
    def test_rejects_bad_bias(self, layer, bias):
        with pytest.raises(ValueError, match="bias must be 3 finite reals"):
            layer.zeros(3, 2, bias)

    def test_zero_init_row(self):
        layer = FactoredOutputLayer.zeros(20, 3)
        assert np.array_equal(layer.materialize().W[5], np.zeros(3))

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
        W = fac.materialize().W
        for c in rng.integers(0, D, size=20):
            np.testing.assert_allclose(W[c], den.W[c], rtol=1e-6, atol=1e-9)

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
        W = fac.materialize().W
        for c in range(1, 5):
            np.testing.assert_allclose(W[c], den.W[c], rtol=1e-8)


class TestLogitsAndSnapshot:
    def test_logits_match_materialized_weights(self):
        # after batches whose classes repeat, after a rebase and after the
        # singular-K fallback (rows 0 and 1 share h with 2*lr*bq*h'h = 1/2)
        rng = np.random.default_rng(30)
        D, d, lr = 200, 6, 0.05
        fac = FactoredOutputLayer(rng.normal(scale=0.1, size=(D, d)))
        X = rng.normal(size=(25, d))

        def assert_logits_exact():
            W, ops = fac.materialize().W, fac.op_count
            assert rel_fro(fac.logits(X), X @ W.T) < 1e-12
            assert fac.op_count == ops  # evaluation is not counted

        for _ in range(10):
            fac.sgd_step(random_batch(rng, D, d, 8), lr=lr)
        assert fac.rebase_count == 0 and not np.array_equal(fac.mixer, np.eye(d))
        assert_logits_exact()
        fac.rebase()
        assert_logits_exact()
        fac.sgd_step(random_batch(rng, D, d, 8), lr=lr)
        h = np.zeros(d)
        h[0] = 2.0
        fac.sgd_step(StepPartials(a=np.array([0.2, -0.1]), bq=np.full(2, 1.0 / (16.0 * lr)),
                                  g=np.array([-0.5, 0.7]), c=np.array([3, 3]),
                                  h=np.stack([h, h])), lr=lr)
        assert fac.rebase_count == 2
        assert_logits_exact()
        with pytest.raises(ValueError):
            fac.logits(X[:, :-1])

    @pytest.mark.parametrize("layer", [DenseOutputLayer, FactoredOutputLayer])
    @pytest.mark.parametrize("shape", [(6,), (4, 5), (4, 7), (2, 3, 6)],
                             ids=["1-D", "narrow", "wide", "3-D"])
    def test_logits_reject_rows_of_another_shape(self, layer, shape):
        # a (d,) h used to give a (D,) vector from the dense layer
        fac = layer.zeros(10, 6)
        with pytest.raises(ValueError, match=r"H must have shape \(n, 6\)"):
            fac.logits(np.ones(shape))
        assert fac.logits(np.ones((3, 6))).shape == (3, 10)

    def test_snapshot_survives_steps_and_restores_exactly(self):
        rng = np.random.default_rng(31)
        D, d = 100, 5
        fac = FactoredOutputLayer(rng.normal(scale=0.1, size=(D, d)))
        for _ in range(5):
            fac.sgd_step(random_batch(rng, D, d, 6), lr=0.05)
        snap = fac.snapshot()
        kept = {k: v.copy() for k, v in snap.items()}
        W, gram, colsum = fac.materialize().W, fac.gram.copy(), fac.colsum.copy()
        for _ in range(5):
            fac.sgd_step(random_batch(rng, D, d, 6), lr=0.05)
        fac.rebase()
        assert not np.array_equal(fac.materialize().W, W)
        assert all(np.array_equal(snap[k], kept[k]) for k in kept)
        fac.restore(snap)
        assert np.array_equal(fac.materialize().W, W)
        assert np.array_equal(fac.gram, gram) and np.array_equal(fac.colsum, colsum)


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
        # at a threshold of 1e8 this run never rebases (the mixer's
        # condition estimate ends near 6e5), at the default 1e5 it rebases
        # once, and at 100 it rebases 6 times.
        # Random h never collapses a single direction of the mixer, so each
        # crossing finds no direction to fold and takes the full rebase
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
        assert fac.rebase_count > 0 and fac.fold_count == 0
        assert rel_fro(fac.materialize().W, den.W) < 1e-5

    def test_records_the_drift_it_replaces(self):
        rng = np.random.default_rng(13)
        layer = FactoredOutputLayer(rng.normal(size=(300, 8)))
        for _ in range(30):
            layer.sgd_step(random_partials(rng, 300, 8), lr=0.02)
        E = rng.normal(size=(8, 8))
        layer.gram += 1e-7 * (E + E.T)
        layer.colsum += 1e-6 * rng.normal(size=8)
        W = layer.materialize().W
        want = (rel_fro(layer.gram, W.T @ W), rel_fro(layer.colsum, W.sum(axis=0)))
        assert layer.last_drift is None
        layer.rebase()
        assert layer.last_drift == pytest.approx(want, rel=1e-9)
        assert want[0] > 1e-9 and want[1] > 1e-8
        assert rel_fro(layer.gram, W.T @ W) < 1e-15


def assert_caches_exact(fac):
    """No fold is pending and the caches are the represented matrix's own
    W'W and W'1, as a rebase leaves them."""
    assert not fac._pending
    W = fac.materialize().W
    assert rel_fro(fac.gram, W.T @ W) < 1e-15
    assert rel_fro(fac.colsum, W.sum(axis=0)) < 1e-15


def collapse(fac, rng, means, lr=0.1):
    """ReLU-like steps around the rows of ``means`` in turn until the mixer's
    condition estimate passes 1e8.  Each step has 2*lr*bq*h'h = 0.9, so it
    shrinks the mixer about tenfold along its h; the rows share one mean
    direction when ``means`` has one row.  a and g are small: the offset
    and the rows they move hold 1/sigma_min-sized terms, whose rounding is
    the representation's own error, about eps * cond * lr * |a|.  Each
    step is flushed as it is taken, so that the loop reads the mixer it
    left and stops at the step that crosses."""
    t = 0
    while cond_estimate(fac) <= 1e8:
        h = np.maximum(means[t % len(means)] + 0.05 * rng.normal(size=fac.d), 0.0)
        a, g = rng.uniform(-1e-4, 1e-4, size=2)
        fac.sgd_step(StepPartials(a=a, bq=0.45 / (lr * (h @ h)), g=g,
                                  c=int(rng.integers(fac.D)), h=h), lr=lr)
        fac._flush()
        t += 1


class TestFold:
    D, d = 2000, 16

    @pytest.mark.parametrize("threshold", [np.nan, -1.0])
    def test_rejects_a_nan_or_negative_threshold(self, threshold):
        # a NaN threshold switched off every fold and rebase without a word
        with pytest.raises(ValueError, match="cond_threshold must be >= 0"):
            FactoredOutputLayer(np.zeros((5, 3)), cond_threshold=threshold)

    def test_threshold_is_refused_before_the_weights_are_read(self, monkeypatch):
        # at 1e5 x 128 the copy of W and its Gram product took 216 ms
        # before a NaN threshold was refused
        def reset(self, *args):
            raise AssertionError("_reset ran before the threshold was checked")

        monkeypatch.setattr(FactoredOutputLayer, "_reset", reset)
        with pytest.raises(ValueError, match="cond_threshold must be >= 0"):
            FactoredOutputLayer(np.zeros((5, 3)), cond_threshold=np.nan)

    def test_zero_and_infinite_thresholds_are_kept(self):
        rng = np.random.default_rng(44)
        never = FactoredOutputLayer(rng.normal(size=(50, 4)), cond_threshold=np.inf)
        always = FactoredOutputLayer(rng.normal(size=(50, 4)), cond_threshold=0.0)
        p = random_batch(rng, 50, 4, 2)
        never.sgd_step(p, 0.1)
        always.sgd_step(p, 0.1)
        assert (never.fold_count, never.rebase_count) == (0, 0)
        assert always.fold_count + always.rebase_count == 1

    def layer(self, seed):
        # cond_threshold inf: the layer never folds or rebases on its own
        rng = np.random.default_rng(seed)
        return FactoredOutputLayer(rng.normal(size=(self.D, self.d)),
                                   cond_threshold=np.inf), rng

    def test_fold_is_exact(self):
        fac, rng = self.layer(40)
        collapse(fac, rng, rng.uniform(0.5, 1.5, size=(1, self.d)))
        sig = np.linalg.svd(fac.mixer, compute_uv=False)
        assert 1 <= np.count_nonzero(sig < 1e-2 * sig[0]) <= 2
        W, gram, colsum = fac.materialize().W, fac.gram.copy(), fac.colsum.copy()
        fac.cond_threshold = 1e8
        fac._fold()
        assert (fac.fold_count, fac.rebase_count) == (1, 0)
        assert cond_estimate(fac) < fac.cond_threshold
        assert rel_fro(fac.materialize().W, W) < 1e-12
        assert np.array_equal(fac.gram, gram) and np.array_equal(fac.colsum, colsum)
        np.testing.assert_allclose(fac.mixer @ fac.mixer_inv, np.eye(self.d), atol=1e-10)
        # the drift is measured at the rebase that applies the fold
        fac.snapshot()
        assert (fac.fold_count, fac.rebase_count) == (1, 1)
        assert_caches_exact(fac)
        assert rel_fro(fac.materialize().W, W) < 1e-12
        assert max(fac.last_drift) < 1e-10

    def test_two_collapsed_directions_fold_together(self):
        # k = 2 = d/8 collapsed directions: the fold's multi-column update
        fac, rng = self.layer(43)
        means = np.kron(np.eye(2), np.ones(5))  # disjoint supports
        collapse(fac, rng, np.hstack([means, np.zeros((2, self.d - 10))]))
        sig = np.linalg.svd(fac.mixer, compute_uv=False)
        assert np.count_nonzero(sig < 1e-2 * sig[0]) == 2
        W, gram, colsum = fac.materialize().W, fac.gram.copy(), fac.colsum.copy()
        fac._fold()
        assert (fac.fold_count, fac.rebase_count) == (1, 0)
        assert rel_fro(fac.materialize().W, W) < 1e-12
        assert np.array_equal(fac.gram, gram)
        assert rel_fro(fac.colsum, colsum) < 1e-12

    def test_three_collapsed_directions_take_the_rebase(self):
        # k = 3 > d/8 = 2 collapsed directions: the full rebase
        fac, rng = self.layer(41)
        means = np.kron(np.eye(3), np.ones(5))  # disjoint supports
        collapse(fac, rng, np.hstack([means, np.zeros((3, self.d - 15))]))
        sig = np.linalg.svd(fac.mixer, compute_uv=False)
        assert np.count_nonzero(sig < 1e-2 * sig[0]) == 3
        W = fac.materialize().W
        fac._fold()
        assert (fac.fold_count, fac.rebase_count) == (0, 1)
        assert np.array_equal(fac.mixer, np.eye(self.d))
        assert rel_fro(fac.materialize().W, W) < 1e-10

    @pytest.mark.parametrize("cache", ["gram", "colsum"])
    def test_drift_is_measured_and_mended(self, cache):
        # a fold keeps the drifted cache; the rebase that applies it
        # records the drift and replaces the cache with the represented
        # matrix's own W'W or W'1, not the pre-fold cache, which differs
        # from it by rounding noise
        fac, rng = self.layer(42)
        collapse(fac, rng, rng.uniform(0.5, 1.5, size=(1, self.d)))
        exact = getattr(fac, cache).copy()
        E = rng.normal(size=exact.shape)
        E = E + E.T if cache == "gram" else E
        setattr(fac, cache, exact + E * (1e-8 * np.linalg.norm(exact) / np.linalg.norm(E)))
        drifted = getattr(fac, cache).copy()
        fac._fold()
        assert (fac.fold_count, fac.rebase_count) == (1, 0)
        assert np.array_equal(getattr(fac, cache), drifted)
        fac.snapshot()
        assert (fac.fold_count, fac.rebase_count) == (1, 1)
        assert_caches_exact(fac)
        drift = fac.last_drift[0 if cache == "gram" else 1]
        assert drift == pytest.approx(1e-8, rel=0.01)

    def test_lockstep_across_folds(self):
        # rectified inputs share a mean direction, so the mixer collapses
        # along one direction: folds, against the dense layer with fixed-xi
        # bound partials.  The fold that takes the pending rank above the
        # cap, d/8 = 4, rebases in the step that folded, and two folds
        # follow it (7 folds, 1 rebase).  At the default threshold this
        # stream takes 9 folds and 1 rebase; at 1e8 the layer ends 7.8e-9
        # from the dense one, 1e6 keeps it near 5e-11
        D, d, steps, lr = 5000, 32, 2000, 0.03
        ds = data.synthetic_categorical(D=D, input_dim=d, N=steps, zipf_exponent=1.0,
                                        seed=0, separation=2.0)
        H, y = np.maximum(ds.features, 0.0), ds.labels
        W0 = np.random.default_rng(0).normal(scale=0.1, size=(D, d))
        fac, den = FactoredOutputLayer(W0, cond_threshold=1e6), DenseOutputLayer(W0)
        entry, params = LOSSES["spherical_bound_fixed"].entry, LossParams(xi=1.0)
        escalated = 0
        for h, c in zip(H, y):
            folds, rebases = fac.fold_count, fac.rebase_count
            for layer in (fac, den):
                st = layer.forward_stats(h[None], np.array([c]))
                _, a, bq, g = entry(st.s, st.q, st.o_c, D, params)
                layer.sgd_step(StepPartials(a=a, bq=bq, g=g, c=np.array([c]), h=h[None]), lr)
            escalated += fac.fold_count > folds and fac.rebase_count > rebases
        W = fac.materialize().W
        assert fac.fold_count >= 3 and escalated >= 1
        assert rel_fro(W, den.W) < 1e-8
        assert rel_fro(fac.gram, W.T @ W) < 1e-9
        assert rel_fro(fac.colsum, W.sum(axis=0)) < 1e-9


def stream_drift(D, d, steps, seed):
    """The largest Gram drift against ``materialize``, every 500 steps and
    at the end, of a closed-loop stream of rectified inputs at the default
    threshold, with fixed-xi bound partials, lr 0.01 and W0 of scale 0.01:
    perfbench's layer-stream with 10 held-out rows per split."""
    ds = data.synthetic_categorical(D=D, input_dim=d, N=steps + 20, zipf_exponent=1.0,
                                    seed=seed, separation=2.0)
    train = data.random_split(ds, data.SplitSpec(steps, 10, 10, seed=seed))[0]
    H, y = np.maximum(train.features, 0.0), train.labels
    fac = FactoredOutputLayer(np.random.default_rng(seed).normal(scale=0.01, size=(D, d)))
    entry, params = LOSSES["spherical_bound_fixed"].entry, LossParams(xi=1.0)
    drift = 0.0
    for i, (h, c) in enumerate(zip(H, y), 1):
        st = fac.forward_stats(h[None], np.array([c]))
        _, a, bq, g = entry(st.s, st.q, st.o_c, D, params)
        fac.sgd_step(StepPartials(a=a, bq=bq, g=g, c=np.array([c]), h=h[None]), 0.01)
        if i % 500 == 0 or i == steps:
            W = fac.materialize().W
            drift = max(drift, rel_fro(fac.gram, W.T @ W))
    return fac, drift


class TestDeferredFolds:
    # a fold records its factor; a step brings the rows it reads up to date,
    # and a rebase (pending rank above the cap, logits, snapshot) the rest
    D, d, lr = 2000, 16, 0.05

    def pending_pair(self, seed, d=None, first=None):
        """A factored layer with two folds pending, rows of block 0 at tags
        0, 1 and 2 (the folds each has taken), and the dense layer it equals.
        The first fold is of the mean directions ``first`` (the second's one
        random mean when None); the layer is D x ``d`` (the class's d when
        None)."""
        d = d or self.d
        rng = np.random.default_rng(seed)
        fac = FactoredOutputLayer(rng.normal(size=(self.D, d)), cond_threshold=np.inf)
        mean = rng.uniform(0.5, 1.5, size=(1, d))
        collapse(fac, rng, mean if first is None else first)
        fac._fold()
        fac.sgd_step(random_batch(rng, 40, d, 4), self.lr)  # rows < 40 take tag 1
        collapse(fac, rng, mean)
        fac._fold()
        den = DenseOutputLayer(fac.materialize().W)
        self.step(fac, den, random_batch(rng, 20, d, 3))  # rows < 20 take tag 2
        assert (fac.fold_count, fac.rebase_count, fac._pending) == (2, 0, 2)
        assert set(fac._tag[:40]) == {0, 1, 2}
        return fac, den, rng

    def step(self, fac, den, p):
        assert rel_fro(fac.backward_h(p), den.backward_h(p)) < 1e-8
        fac.sgd_step(p, self.lr)
        den.sgd_step(p, self.lr)

    def assert_lockstep(self, fac, den):
        W = fac.materialize().W
        assert rel_fro(W, den.W) < 1e-8
        assert rel_fro(fac.gram, W.T @ W) < 1e-9
        assert rel_fro(fac.colsum, W.sum(axis=0)) < 1e-9

    def step_at_every_tag(self, fac, den, rng):
        """One step, in lockstep, on 9 rows with repeated classes, whose
        rows of core are at tags 0, 1 and 2; it brings them to tag 2."""
        by_tag = [int(np.flatnonzero(fac._tag[:40] == t)[0]) for t in (0, 1, 2)]
        c = np.array(by_tag * 3)
        self.step(fac, den, StepPartials(*rng.uniform(-0.5, 0.5, size=(3, 9)), c=c,
                                         h=np.maximum(rng.normal(size=(9, fac.d)), 0.0)))
        assert set(fac._tag[c]) == {2}
        self.assert_lockstep(fac, den)

    def test_repeated_classes_at_different_tags_in_one_block(self):
        fac, den, rng = self.pending_pair(80)
        self.step_at_every_tag(fac, den, rng)
        fac.rebase()
        assert fac.rebase_count == 1
        assert_caches_exact(fac)
        self.assert_lockstep(fac, den)

    def test_rows_behind_a_two_direction_fold(self):
        # a fold of 2 directions, then one of 1: the fold mask gives rows at
        # tags 0, 1 and 2 the 3, 1 and 0 pending columns they lack
        d = 32  # the pending rank cap, d/8 = 4, holds all 3
        means = np.hstack([np.kron(np.eye(2), np.ones(5)), np.zeros((2, d - 10))])
        fac, den, rng = self.pending_pair(89, d, means)
        assert fac._fold_mask.sum(axis=1).tolist() == [3, 1, 0]
        self.step_at_every_tag(fac, den, rng)

    def test_across_logits(self):
        fac, den, rng = self.pending_pair(81)
        X = rng.normal(size=(7, self.d))
        assert rel_fro(fac.logits(X), X @ den.W.T) < 1e-8
        assert fac.rebase_count == 1
        assert_caches_exact(fac)
        for _ in range(5):
            self.step(fac, den, random_batch(rng, self.D, self.d, 4))
        self.assert_lockstep(fac, den)

    def test_across_snapshot_and_restore(self):
        fac, den, rng = self.pending_pair(82)
        snaps = fac.snapshot(), den.snapshot()
        assert fac.rebase_count == 1
        assert_caches_exact(fac)
        kept = fac.materialize().W
        for _ in range(5):
            self.step(fac, den, random_batch(rng, self.D, self.d, 4))
        collapse(fac, rng, rng.uniform(0.5, 1.5, size=(1, self.d)))
        fac._fold()
        assert fac._pending == 1
        fac.restore(snaps[0])
        den.restore(snaps[1])
        assert not fac._pending and not np.any(fac._tag)
        assert np.array_equal(fac.materialize().W, kept)
        for _ in range(5):
            self.step(fac, den, random_batch(rng, self.D, self.d, 4))
        self.assert_lockstep(fac, den)

    @pytest.mark.parametrize("seed", [83, 84, 85])
    def test_fold_flush_and_materialize_keep_the_matrix(self, seed):
        # the pending folds are flushed, applied to all of core, by a
        # rebase: the cap's, when a third fold takes the pending rank above
        # d/8 = 2, or an explicit one, each from a fresh pair
        for cap in (True, False):
            fac, _, rng = self.pending_pair(seed)
            if cap:
                collapse(fac, rng, rng.uniform(0.5, 1.5, size=(1, self.d)))
            W, gram, colsum = fac.materialize().W, fac.gram.copy(), fac.colsum.copy()
            if cap:
                fac._fold()
                assert fac.fold_count == 3
            else:
                fac.rebase()
            assert fac.rebase_count == 1
            assert rel_fro(fac.materialize().W, W) < 1e-12
            # the caches it replaced differ from W'W and W'1 by their drift
            assert_caches_exact(fac)
            drift = rel_fro(fac.gram, gram), rel_fro(fac.colsum, colsum)
            assert fac.last_drift == pytest.approx(drift, rel=1e-9)
            assert max(drift) < 1e-10

    def test_empty_batch_with_folds_pending(self):
        fac, den, _ = self.pending_pair(87)
        H, c = np.zeros((0, self.d)), np.zeros(0, dtype=np.int64)
        assert fac.forward_stats(H, c).s.shape == (0,)
        fac.sgd_step(StepPartials(a=np.zeros(0), bq=np.zeros(0), g=np.zeros(0), c=c, h=H), 0.1)
        assert fac._pending == 2
        self.assert_lockstep(fac, den)

    def test_read_stats_rebases_then_reads_forward_stats(self):
        # with folds pending read_stats rebases first, as logits does; then
        # it reads forward_stats' (s, q, o_c) and writes nothing, not even
        # over the step context that forward_stats started
        fac, den, rng = self.pending_pair(88)
        by_tag = [int(np.flatnonzero(fac._tag[:40] == t)[0]) for t in (0, 1, 2)]
        H, c = rng.normal(size=(9, self.d)), np.array(by_tag * 3)
        for g, w in zip(fac.read_stats(H, c), den.forward_stats(H, c)):
            assert rel_fro(g, w) < 1e-8
        assert (fac._pending, fac.rebase_count) == (0, 1)
        fac.forward_stats(rng.normal(size=(4, self.d)), np.arange(4))
        names = ("core", "mixer", "mixer_inv", "offset", "gram", "colsum", "_tag")
        kept = {name: getattr(fac, name).copy() for name in names}
        counts, ctx = (fac.op_count, fac.q_clamps, fac.rebase_count), fac._ctx
        got = fac.read_stats(H, c)
        assert all(np.array_equal(getattr(fac, name), kept[name]) for name in names)
        assert (fac.op_count, fac.q_clamps, fac.rebase_count) == counts
        assert fac._ctx is ctx
        for g, w in zip(got, fac.forward_stats(H, c)):
            np.testing.assert_array_equal(g, w)

    def test_materialize_writes_no_state(self):
        fac, _, _ = self.pending_pair(86)
        names = ("core", "mixer", "mixer_inv", "offset", "gram", "colsum",
                 "_tag", "_fold_U", "_fold_C", "_fold_mask")
        kept = {name: getattr(fac, name).copy() for name in names}
        fac.materialize()
        assert all(np.array_equal(getattr(fac, name), kept[name]) for name in names)
        assert (fac._pending, fac.rebase_count) == (2, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_long_stream_stays_within_the_exactness_gate(self, seed):
        # at a threshold of 1e8 the drift grows unchecked until the first
        # crossing, after step 2000: 2.5e-9, 2.7e-9 and 1.1e-8 at step 2000
        # on seeds 1-3, against the benchmark's 1e-9.  At 1e5 it stays near
        # 1e-11, with 2-3 folds
        fac, drift = stream_drift(500, 16, 4000, seed)
        assert fac.fold_count > 0
        assert drift <= 1e-9


def assert_matches(fac, den, tol=1e-10):
    """The factored layer's matrix and caches against the dense layer's."""
    W = fac.materialize().W
    assert rel_fro(W, den.W) < tol
    assert rel_fro(fac.gram, W.T @ W) < tol
    assert rel_fro(fac.colsum, W.sum(axis=0)) < tol


class TestPendingBlock:
    # single examples at d = 32 and 64 join a pending block of d/8 rows,
    # which forward_stats and backward_h read through corrections until it
    # is flushed: when full, by a reader of the matrix, or by a fold
    D, lr = 300, 0.05

    @pytest.mark.parametrize("d, cap", [(4, 1), (15, 1), (16, 2), (128, 16), (129, 16)])
    def test_cap(self, d, cap):
        # below d = 16 every step is applied as it is taken, so a step at
        # threshold 0 rebases within its own sgd_step
        assert FactoredOutputLayer.zeros(5, d).block_cap == cap

    def pair(self, d, seed):
        rng = np.random.default_rng(seed)
        W0 = rng.normal(scale=0.1, size=(self.D, d))
        return FactoredOutputLayer(W0), DenseOutputLayer(W0), rng

    def partials(self, rng, d, c=None, zero=False):
        """One example whose |h| is near 1, so that 2*lr*bq*|h|^2 stays
        near or below 0.05 and a block holds all its d/8 steps."""
        a, bq, g = (0.0, 0.0, 0.0) if zero else rng.uniform(-0.5, 0.5, size=3)
        return StepPartials(a=a, bq=bq, g=g, c=int(rng.integers(self.D)) if c is None else c,
                            h=rng.normal(size=d) / np.sqrt(d))

    def step(self, fac, den, p, tol=1e-10):
        """(s, q, o_c) and dL/dh against the dense layer's, then the step."""
        for got, want in zip(fac.forward_stats(p.h, p.c), den.forward_stats(p.h, p.c)):
            assert got == pytest.approx(want, rel=tol, abs=1e-12)
        assert rel_fro(fac.backward_h(p), den.backward_h(p)) < tol
        fac.sgd_step(p, self.lr)
        den.sgd_step(p, self.lr)

    @pytest.mark.parametrize("d", [32, 64])
    def test_stream_across_flushes(self, d):
        # three full blocks and two steps of a fourth; the second block
        # repeats one class and has all-zero partial rows
        fac, den, rng = self.pair(d, 90 + d)
        k = fac.block_cap
        for i in range(3 * k + 2):
            second = k <= i < 2 * k
            self.step(fac, den, self.partials(rng, d, c=7 if second and i % 2 else None,
                                               zero=second and i % 3 == 0))
            assert fac._t == (i + 1) % k
        assert (fac.fold_count, fac.rebase_count) == (0, 0)
        assert_matches(fac, den)
        assert fac._t == 0

    @pytest.mark.parametrize("reader", ["logits", "read_stats", "snapshot", "materialize",
                                        "rebase", "fold"])
    @pytest.mark.parametrize("d", [32, 64])
    def test_a_reader_mid_block_flushes_it(self, d, reader):
        fac, den, rng = self.pair(d, 100 + d)
        tol = 1e-10
        if reader == "fold":
            # a collapsed direction for the fold to move; the collapsed
            # mixer's representation is exact to about 1e-8 (TestFold)
            fac.cond_threshold, tol = np.inf, 1e-8
            collapse(fac, rng, rng.uniform(0.5, 1.5, size=(1, d)))
            den = DenseOutputLayer(fac.materialize().W)
        k = fac.block_cap
        for _ in range(k + k // 2):
            self.step(fac, den, self.partials(rng, d), tol)
        assert fac._t == k // 2
        X, c = rng.normal(size=(5, d)), rng.integers(self.D, size=5)
        if reader == "logits":
            assert rel_fro(fac.logits(X), den.logits(X)) < tol
        elif reader == "read_stats":
            for got, want in zip(fac.read_stats(X, c), den.forward_stats(X, c)):
                assert rel_fro(got, want) < tol
        elif reader == "snapshot":
            snaps = fac.snapshot(), den.snapshot()
            for _ in range(k // 2 + 1):
                self.step(fac, den, self.partials(rng, d))
            assert fac._t == k // 2 + 1
            fac.restore(snaps[0])
            den.restore(snaps[1])
        elif reader == "materialize":
            assert rel_fro(fac.materialize().W, den.W) < tol
        elif reader == "rebase":
            fac.rebase()
            assert fac.rebase_count == 1
        else:
            fac._fold()
            assert (fac.fold_count, fac.rebase_count) == (1, 0)
        assert fac._t == 0
        for _ in range(k + 1):
            self.step(fac, den, self.partials(rng, d), tol)
        assert_matches(fac, den, tol)

    @pytest.mark.parametrize("d", [32, 64])
    def test_singular_factor_takes_the_dense_fallback(self, d):
        # 2*lr*bq*|h|^2 = 1 makes I - 2*lr*bq*hh' singular, and with it
        # the mixer update of the block it joins: the factor ends the block,
        # whose flush applies it to the represented matrix, a rebase
        fac, den, rng = self.pair(d, 110 + d)
        for _ in range(2):
            self.step(fac, den, self.partials(rng, d))
        p = self.partials(rng, d)
        p = p._replace(bq=1.0 / (2.0 * self.lr * float(p.h @ p.h)))
        assert fac._t == 2
        self.step(fac, den, p)
        assert fac._t == 0 and fac.rebase_count == 1
        for _ in range(fac.block_cap + 1):
            self.step(fac, den, self.partials(rng, d))
        assert_matches(fac, den)

    def test_rebase_whose_flush_rebased_runs_once(self):
        # at threshold 0 the flush of the pending step finds no collapsed
        # direction to fold and rebases; rebase() then has nothing left
        rng = np.random.default_rng(121)
        fac = FactoredOutputLayer(rng.normal(size=(self.D, 32)), cond_threshold=0.0)
        den = DenseOutputLayer(fac.materialize().W)
        self.step(fac, den, self.partials(rng, 32))
        assert fac._t == 1
        fac.rebase()
        assert (fac.fold_count, fac.rebase_count) == (0, 1)
        assert_matches(fac, den)

    def test_a_batch_that_does_not_fit_flushes_the_block_first(self):
        # two single examples, then a batch of 3 beside them in a block of
        # 4, then one of 4, which is a block of its own
        fac, den, rng = self.pair(32, 120)
        for _ in range(2):
            self.step(fac, den, self.partials(rng, 32))
        for m, pending in ((3, 3), (4, 0)):
            p = random_batch(rng, self.D, 32, m)
            p = p._replace(h=p.h / np.sqrt(32))
            self.step(fac, den, p)
            assert fac._t == pending
        assert_matches(fac, den)


def backward_ops(layer, p):
    """dL/dh from ``layer`` and the op_count that its backward_h added."""
    ops = layer.op_count
    return layer.backward_h(p), layer.op_count - ops


class TestStepContext:
    # forward_stats starts a step: backward_h and sgd_step reuse its rows
    # and H Q only for the same (h, c) at the same layer state.  Reused,
    # they cost backward_h 5d ops per row; recomputed, O(d^2)
    D, d, m, lr = 400, 12, 3, 0.05

    def pair(self, seed):
        rng = np.random.default_rng(seed)
        W0 = rng.normal(scale=0.1, size=(self.D, self.d))
        fac, den = FactoredOutputLayer(W0), DenseOutputLayer(W0)
        for _ in range(5):  # a mixer and an offset away from I and 0
            p = random_batch(rng, self.D, self.d, 4)
            fac.sgd_step(p, self.lr)
            den.sgd_step(p, self.lr)
        return fac, den, random_batch(rng, self.D, self.d, self.m)

    def assert_gram_exact(self, fac, den):
        assert rel_fro(fac.materialize().W, den.W) < 1e-12
        assert rel_fro(fac.gram, den.W.T @ den.W) < 1e-12
        assert rel_fro(fac.colsum, den.W.sum(axis=0)) < 1e-12

    def test_reused_within_a_step(self):
        fac, den, p = self.pair(70)
        fac.forward_stats(p.h, p.c)
        dh, ops = backward_ops(fac, p)
        assert ops == self.m * 5 * self.d
        assert rel_fro(dh, den.backward_h(p)) < 1e-12
        fac.sgd_step(p, self.lr)
        den.sgd_step(p, self.lr)
        self.assert_gram_exact(fac, den)

    def test_backward_after_the_step_reads_the_new_state(self):
        fac, den, p = self.pair(71)
        for layer in (fac, den):
            layer.forward_stats(p.h, p.c)
            layer.sgd_step(p, self.lr)
        dh, ops = backward_ops(fac, p)
        assert ops > self.m * 5 * self.d
        assert rel_fro(dh, den.backward_h(p)) < 1e-12

    def test_step_after_restore_applies_to_the_restored_state(self):
        fac, den, p = self.pair(72)
        snap = fac.snapshot()
        fac.sgd_step(random_batch(np.random.default_rng(0), self.D, self.d, 4), self.lr)
        fac.forward_stats(p.h, p.c)
        fac.restore(snap)
        fac.sgd_step(p, self.lr)
        den.sgd_step(p, self.lr)
        self.assert_gram_exact(fac, den)

    @pytest.mark.parametrize("maintenance", ["fold", "rebase"])
    def test_backward_after_a_fold_or_rebase_recomputes(self, maintenance):
        rng = np.random.default_rng(73)
        fac = FactoredOutputLayer(rng.normal(size=(2000, 16)), cond_threshold=np.inf)
        collapse(fac, rng, rng.uniform(0.5, 1.5, size=(1, 16)))
        den = DenseOutputLayer(fac.materialize().W)
        p = random_batch(rng, 2000, 16, self.m)
        fac.forward_stats(p.h, p.c)
        if maintenance == "fold":
            fac._fold()
        else:
            fac.rebase()
        assert (fac.fold_count, fac.rebase_count) == ((1, 0) if maintenance == "fold" else (0, 1))
        dh, ops = backward_ops(fac, p)
        assert ops > self.m * 5 * 16
        assert rel_fro(dh, den.backward_h(p)) < 1e-12

    @pytest.mark.parametrize("edited", ["h", "c"])
    def test_inputs_edited_in_place_are_seen(self, edited):
        fac, den, p = self.pair(74)
        fac.forward_stats(p.h, p.c)
        if edited == "h":
            p.h[1] *= 2.0
        else:
            p.c[1] = (p.c[1] + 1) % self.D
        dh, ops = backward_ops(fac, p)
        assert ops > self.m * 5 * self.d
        assert rel_fro(dh, den.backward_h(p)) < 1e-12
        fac.sgd_step(p, self.lr)
        den.sgd_step(p, self.lr)
        self.assert_gram_exact(fac, den)

    def test_partials_of_another_length_raise_after_forward_stats(self):
        # one example; TestSgdStep::test_partials_must_match_rows has batches
        fac, _, p = self.pair(75)
        h, c = p.h[0], int(p.c[0])
        q = StepPartials(a=np.zeros(2), bq=0.0, g=0.0, c=c, h=h)
        for call in (lambda: fac.backward_h(q), lambda: fac.sgd_step(q, self.lr)):
            fac.forward_stats(h, c)
            with pytest.raises(ValueError, match="must match h's rows"):
                call()

    @pytest.mark.parametrize("label", [400, -1, 2**64 - 1, 1.5], ids=["D", "-1", "wraps", "1.5"])
    def test_bad_label_in_new_partials_raises(self, label):
        # forward_stats validated other labels: the new ones are validated
        fac, _, p = self.pair(76)
        fac.forward_stats(p.h, p.c)
        c = np.array([p.c[0], label, p.c[2]], dtype=np.uint64 if label == 2**64 - 1 else None)
        bad = StepPartials(a=p.a, bq=p.bq, g=p.g, c=c, h=p.h)
        for call in (lambda: fac.backward_h(bad), lambda: fac.sgd_step(bad, self.lr)):
            with pytest.raises(ValueError, match="class"):
                call()

    @pytest.mark.parametrize("kind", ["int32", "python int"])
    def test_equal_labels_of_another_type_reuse_the_context(self, kind):
        # the reused step is bitwise the step computed afresh
        reused, _, p = self.pair(77)
        fresh, _, _ = self.pair(77)
        if kind == "int32":
            labels = p.c.astype(np.int32)
        else:
            p = StepPartials(a=p.a[0], bq=p.bq[0], g=p.g[0], c=np.int64(p.c[0]), h=p.h[0])
            labels = int(p.c)
        q = StepPartials(a=p.a, bq=p.bq, g=p.g, c=labels, h=p.h)
        reused.forward_stats(p.h, p.c)
        dh, ops = backward_ops(reused, q)
        assert ops == np.size(p.c) * 5 * self.d
        reused.sgd_step(q, self.lr)
        dh_fresh, ops_fresh = backward_ops(fresh, p)
        assert ops_fresh > ops
        fresh.sgd_step(p, self.lr)
        assert dh.tobytes() == dh_fresh.tobytes()
        assert states_equal(reused, fresh)


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
        from sphloss.losses import LOSSES, LossParams
        from sphloss.trainer import TrainConfig

        cfg = TrainConfig(loss_kind=loss_kind, output_layer="factored")
        entry = LOSSES[loss_kind].entry
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

