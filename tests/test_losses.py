import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphloss import losses
from sphloss.losses import (
    LossGrad,
    QuadraticNormalizerParams,
    batch_loss,
    finite_diff_grad,
    grad_from_partials,
    loss_grad,
    quadratic_normalizer,
    softmax,
    spherical_softmax,
    summary_stats,
    taylor_softmax,
)

from conftest import max_rel_err

finite_vecs = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=30
)


class TestSummaryStats:
    def test_zero_vector(self):
        st_ = summary_stats([0.0, 0.0, 0.0], 0)
        assert (st_.s, st_.q, st_.o_c) == (0.0, 0.0, 0.0)

    def test_hand_values(self):
        st_ = summary_stats([1.0, 2.0, 3.0], 2)
        assert (st_.s, st_.q, st_.o_c) == (6.0, 14.0, 3.0)
        st_ = summary_stats([-1.0, 1.0], 0)
        assert (st_.s, st_.q, st_.o_c) == (0.0, 2.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            summary_stats([1.0, np.nan], 0)
        with pytest.raises(ValueError):
            summary_stats([1.0, np.inf], 0)

    def test_rejects_a_2d_vector(self):
        with pytest.raises(ValueError, match="1-D pre-activation vector"):
            summary_stats([[1.0, 2.0]], 0)

    def test_rejects_fewer_than_2_classes(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            summary_stats([1.0], 0)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            summary_stats([1.0, 2.0], 2)
        for fn in (summary_stats, partial(loss_grad, "log_softmax"),
                   partial(loss_grad, "log_taylor")):
            with pytest.raises(ValueError):  # not truncated to class 1
                fn([0.0, 0.0, 0.0], 1.7)

    @given(finite_vecs, st.integers(min_value=0, max_value=29))
    def test_invariants(self, vals, ci):
        o = np.array(vals)
        c = ci % len(o)
        st_ = summary_stats(o, c)
        D = len(o)
        assert st_.q >= 0
        assert st_.q >= st_.o_c ** 2 - 1e-9 * max(st_.q, 1)
        assert st_.s ** 2 <= D * st_.q + 1e-9 * max(D * st_.q, 1)


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0.0] * 4), 0.25, atol=1e-15)

    def test_hand_value(self):
        np.testing.assert_allclose(softmax([math.log(2), 0.0]), [2 / 3, 1 / 3],
                                   atol=1e-15)

    def test_no_overflow(self):
        p = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-300)

    @given(finite_vecs, st.floats(min_value=-100, max_value=100, allow_nan=False))
    def test_translation_invariance(self, vals, t):
        o = np.array(vals)
        np.testing.assert_allclose(softmax(o + t), softmax(o), atol=1e-12)

    @given(finite_vecs)
    def test_normalization(self, vals):
        p = softmax(np.array(vals))
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12


class TestLogSoftmaxLoss:
    def test_uniform(self):
        r = loss_grad("log_softmax", np.zeros(10), 3)
        assert abs(r.loss - math.log(10)) < 1e-12
        assert r.partials is None

    def test_hand_value(self):
        r = loss_grad("log_softmax", [math.log(2), 0.0], 0)
        assert abs(r.loss - math.log(1.5)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            o = rng.uniform(-3, 3, size=10)
            c = int(rng.integers(10))
            fd = finite_diff_grad(partial(batch_loss, "log_softmax"), o, c)
            assert max_rel_err(loss_grad("log_softmax", o, c).grad_o, fd) < 1e-6


class TestLogSoftmaxAbsLoss:
    def test_abs_symmetry(self):
        r = loss_grad("log_softmax_abs", [-1.0, 1.0], 0)
        assert abs(r.loss - math.log(2)) < 1e-12

    def test_evenness(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            o = rng.uniform(-3, 3, size=7)
            c = int(rng.integers(7))
            assert loss_grad("log_softmax_abs", o, c).loss == pytest.approx(
                loss_grad("log_softmax_abs", -o, c).loss, abs=1e-14
            )

    def test_gradient_away_from_kinks(self):
        rng = np.random.default_rng(2)
        done = 0
        while done < 10:
            o = rng.uniform(-3, 3, size=10)
            if np.abs(o).min() < 1e-3:
                continue
            c = int(rng.integers(10))
            fd = finite_diff_grad(partial(batch_loss, "log_softmax_abs"), o, c)
            assert max_rel_err(loss_grad("log_softmax_abs", o, c).grad_o, fd) < 1e-6
            done += 1


class TestMseLoss:
    def test_perfect_prediction(self):
        o = np.zeros(5)
        o[2] = 1.0
        assert loss_grad("mse", o, 2).loss == 0.0

    def test_zero_vector(self):
        assert loss_grad("mse", np.zeros(5), 1).loss == 1.0

    def test_hand_value(self):
        assert loss_grad("mse", [0.5, 0.5], 0).loss == pytest.approx(0.5, abs=1e-15)

    def test_family_form_matches_squared_error(self):
        # q - 2*o_c + 1 is ||o - e_c||^2
        rng = np.random.default_rng(3)
        o = rng.uniform(-2, 2, size=6)
        c = 4
        direct = float(np.sum((o - np.eye(6)[c]) ** 2))
        assert loss_grad("mse", o, c).loss == pytest.approx(direct, rel=1e-14)

    def test_gradient_exact(self):
        rng = np.random.default_rng(4)
        o = rng.uniform(-3, 3, size=8)
        c = 2
        fd = finite_diff_grad(partial(batch_loss, "mse"), o, c)
        expected = 2 * o - 2 * np.eye(8)[c]
        assert max_rel_err(fd, expected) < 1e-9
        assert max_rel_err(loss_grad("mse", o, c).grad_o, expected) < 1e-15


class TestQuadraticNormalizer:
    def test_specializes_to_taylor(self):
        rng = np.random.default_rng(5)
        o = rng.uniform(-3, 3, size=9)
        p = QuadraticNormalizerParams(1.0, 1.0, 0.5)
        num = 1.0 + o + o * o / 2.0
        np.testing.assert_allclose(quadratic_normalizer(o, p), num / num.sum(),
                                   atol=1e-15)

    def test_specializes_to_spherical(self):
        rng = np.random.default_rng(6)
        o = rng.uniform(-3, 3, size=9)
        eps = 0.01
        p = QuadraticNormalizerParams(eps, 0.0, 1.0)
        num = o * o + eps
        np.testing.assert_allclose(quadratic_normalizer(o, p), num / num.sum(),
                                   atol=1e-15)

    def test_hand_value(self):
        p = QuadraticNormalizerParams(1.0, 0.0, 1.0)
        np.testing.assert_allclose(quadratic_normalizer([1.0, -1.0], p), [0.5, 0.5])

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            QuadraticNormalizerParams(0.0, 0.0, 1.0)  # semi-definite
        with pytest.raises(ValueError):
            QuadraticNormalizerParams(1.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            QuadraticNormalizerParams(1.0, 3.0, 1.0)  # negative discriminant test
        with pytest.raises(ValueError, match="finite"):
            QuadraticNormalizerParams(math.inf, 0.0, 1.0)  # a3 > 0 and 4*a1*a3 - a2^2 = inf

    def test_infinite_a3_rejected_through_normalizer(self):
        with pytest.raises(ValueError, match="finite"):
            quadratic_normalizer([1.0, 2.0], QuadraticNormalizerParams(1.0, 0.0, math.inf))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda: loss_grad("log_spherical", [1.0, 2.0, 3.0], 1, eps=math.inf),
                     id="loss_grad"),
        pytest.param(lambda: losses.batch_loss_grad("log_spherical", np.ones((2, 3)), [0, 1],
                                                    eps=math.inf), id="batch_loss_grad"),
        pytest.param(lambda: losses.batch_negll("log_spherical", np.ones((2, 3)), [0, 1],
                                                eps=math.inf), id="batch_negll"),
        pytest.param(lambda: spherical_softmax([1.0, 2.0], math.inf), id="spherical_softmax"),
    ])
    def test_infinite_eps_rejected(self, call):
        with pytest.raises(ValueError, match="finite"):
            call()

    def test_unchecked_path(self):
        p = QuadraticNormalizerParams(0.0, 0.0, 1.0, unchecked=True)
        np.testing.assert_allclose(quadratic_normalizer([3.0, 4.0], p),
                                   [9 / 25, 16 / 25])

    @pytest.mark.parametrize("coeffs", [(math.nan, 0.0, 1.0), (0.0, math.nan, 1.0),
                                        (0.0, 0.0, math.inf), (-math.inf, 0.0, 1.0)])
    def test_unchecked_still_requires_finite(self, coeffs):
        # unchecked skips strict positivity only
        with pytest.raises(ValueError, match="finite"):
            QuadraticNormalizerParams(*coeffs, unchecked=True)


# the spherical softmax at eps = 0: semi-definite, so only unchecked
SPHERICAL_EPS0 = QuadraticNormalizerParams(0.0, 0.0, 1.0, unchecked=True)


class TestSphericalSoftmax:
    def test_uniform_at_zero(self):
        np.testing.assert_allclose(spherical_softmax(np.zeros(4), 0.5), 0.25)

    def test_hand_value_eps_zero(self):
        np.testing.assert_allclose(quadratic_normalizer([3.0, 4.0], SPHERICAL_EPS0),
                                   [0.36, 0.64])

    def test_scale_invariance_eps_zero(self):
        rng = np.random.default_rng(7)
        for lam in (2.0, -3.5, 0.1):
            o = rng.uniform(-3, 3, size=6)
            np.testing.assert_allclose(
                quadratic_normalizer(lam * o, SPHERICAL_EPS0),
                quadratic_normalizer(o, SPHERICAL_EPS0),
                atol=1e-12,
            )

    def test_evenness_exact(self):
        rng = np.random.default_rng(8)
        o = rng.uniform(-3, 3, size=6)
        np.testing.assert_array_equal(spherical_softmax(-o, 0.1),
                                      spherical_softmax(o, 0.1))

    def test_entry_lower_bound(self):
        rng = np.random.default_rng(9)
        o = rng.uniform(-3, 3, size=6)
        eps = 0.05
        q = float(o @ o)
        assert np.all(spherical_softmax(o, eps) >= eps / (q + 6 * eps))

    def test_eps_zero_rejections(self):
        with pytest.raises(ValueError):
            spherical_softmax([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            quadratic_normalizer([0.0, 0.0], SPHERICAL_EPS0)


class TestLogSphericalSoftmaxLoss:
    def test_uniform(self):
        r = loss_grad("log_spherical", np.zeros(10), 0, eps=0.3)
        assert abs(r.loss - math.log(10)) < 1e-12

    def test_hand_value_small_eps(self):
        r = loss_grad("log_spherical", [3.0, 4.0], 1, eps=1e-12)
        assert r.loss == pytest.approx(-math.log(16 / 25), rel=1e-9)

    @pytest.mark.parametrize("eps", [1e-4, 0.0198, 1.0])
    def test_gradient(self, eps):
        rng = np.random.default_rng(10)
        for _ in range(10):
            o = rng.uniform(-3, 3, size=10)
            c = int(rng.integers(10))
            fd = finite_diff_grad(partial(batch_loss, "log_spherical", eps=eps), o, c)
            r = loss_grad("log_spherical", o, c, eps=eps)
            assert max_rel_err(r.grad_o, fd) < 1e-6


class TestTaylorSoftmax:
    def test_uniform_at_zero(self):
        np.testing.assert_allclose(taylor_softmax(np.zeros(2)), [0.5, 0.5])

    def test_hand_value(self):
        np.testing.assert_allclose(taylor_softmax([1.0, 0.0]), [5 / 7, 2 / 7],
                                   atol=1e-15)

    def test_asymmetry_witness(self):
        o = np.array([-1.0, 1.0])
        p = taylor_softmax(o)
        np.testing.assert_allclose(p, [1 / 6, 5 / 6], atol=1e-15)
        # unlike the spherical softmax, flipping signs changes the output
        assert not np.allclose(taylor_softmax(-o), p)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_numerator_lower_bound(self, x):
        assert 1.0 + x + 0.5 * x * x >= 0.5

    def test_agrees_with_softmax_near_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            o = rng.uniform(-1e-3, 1e-3, size=12)
            assert np.abs(taylor_softmax(o) - softmax(o)).max() <= 1e-6


class TestLogTaylorSoftmaxLoss:
    def test_uniform(self):
        r = loss_grad("log_taylor", np.zeros(10), 5)
        assert abs(r.loss - math.log(10)) < 1e-12

    def test_hand_value(self):
        r = loss_grad("log_taylor", [1.0, 0.0], 0)
        assert r.loss == pytest.approx(-math.log(5 / 7), rel=1e-14)

    @pytest.mark.parametrize("D", [2, 10, 1000])
    def test_gradient(self, D):
        rng = np.random.default_rng(12)
        trials = 20 if D < 1000 else 5
        for _ in range(trials):
            o = rng.uniform(-3, 3, size=D)
            c = int(rng.integers(D))
            fd = finite_diff_grad(partial(batch_loss, "log_taylor"), o, c)
            assert max_rel_err(loss_grad("log_taylor", o, c).grad_o, fd) < 1e-6


class TestGradFromPartials:
    def test_mse_at_optimum(self):
        o = np.eye(5)[2]
        np.testing.assert_array_equal(grad_from_partials((0.0, 1.0, -2.0), o, 2),
                                      np.zeros(5))

    def test_s_only(self):
        np.testing.assert_array_equal(grad_from_partials((1.0, 0.0, 0.0),
                                                         [3.0, -1.0, 2.0], 1),
                                      np.ones(3))

    @pytest.mark.parametrize("kind", ["mse", "log_spherical", "log_taylor"])
    def test_matches_dense_gradient(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(30):
            o = rng.uniform(-3, 3, size=12)
            c = int(rng.integers(12))
            r = loss_grad(kind, o, c, eps=0.0198)
            rebuilt = grad_from_partials(r.partials, o, c)
            assert max_rel_err(rebuilt, r.grad_o) < 1e-12


class TestBatchForms:
    @pytest.mark.parametrize("kind", losses.LOSSES)
    def test_loss_only_path_matches_loss_grad(self, kind):
        rng = np.random.default_rng(18)
        O = rng.uniform(-3, 3, size=(7, 11))
        y = rng.integers(0, 11, size=7)
        expected, _ = losses.batch_loss_grad(kind, O, y, eps=0.05, xi=0.7)
        np.testing.assert_array_equal(losses.batch_loss(kind, O, y, eps=0.05, xi=0.7),
                                      expected)

    @pytest.mark.parametrize("kind", losses.LOSSES)
    def test_batch_rows_match_per_example(self, kind):
        rng = np.random.default_rng(19)
        O = rng.uniform(-3, 3, size=(9, 13))
        y = rng.integers(0, 13, size=9)
        losses_b, grad_b = losses.batch_loss_grad(kind, O, y, eps=0.05)
        entry = losses.LOSSES[kind].entry
        if entry is not None:
            # q summed as the batch form sums it: the optimized bound's xi
            # search turns a last-bit change of q into ~1e-9 in its partials
            _, *partials_b = entry(O.sum(axis=1), np.einsum("ij,ij->i", O, O),
                                   O[np.arange(9), y], 13, losses.LossParams(eps=0.05))
        for i in range(9):
            r = loss_grad(kind, O[i], int(y[i]), eps=0.05)
            assert losses_b[i] == pytest.approx(r.loss, rel=1e-12)
            assert max_rel_err(grad_b[i], r.grad_o) < 1e-12
            if entry is None:
                assert r.partials is None
            else:
                np.testing.assert_allclose(r.partials, [x[i] for x in partials_b],
                                           rtol=1e-12)

    def test_registry_is_the_spherical_family(self):
        spherical = {k for k, r in losses.LOSSES.items() if r.entry is not None}
        assert spherical == set(losses.LOSSES) - {"log_softmax", "log_softmax_abs"}

    @pytest.mark.parametrize("kind", ["log_softmax", "log_taylor"])
    @pytest.mark.parametrize("O,y", [
        (np.zeros((2, 3)), np.array([0])),  # fewer labels than rows
        (np.zeros(3), np.array([0])),  # one row as a vector
        (np.zeros((2, 3)), np.zeros((2, 1), dtype=np.int64)),  # labels as a column
    ], ids=["rows", "O-1-D", "y-2-D"])
    def test_mismatched_rows_rejected(self, kind, O, y):
        for form in (losses.batch_loss, losses.batch_loss_grad, losses.batch_negll):
            with pytest.raises(ValueError, match=r"O must be \(n, D\) and y \(n,\)"):
                form(kind, O, y)

    def test_unknown_kind_rejected(self):
        O, y = np.zeros((2, 3)), np.array([0, 1])
        with pytest.raises(ValueError):
            losses.batch_loss("mystery", O, y)
        with pytest.raises(ValueError):
            losses.batch_loss_grad("mystery", O, y)
        with pytest.raises(ValueError):
            losses.batch_scores("mystery", O)
        with pytest.raises(ValueError):
            losses.batch_negll("mystery", O, y)

    @pytest.mark.parametrize("kind", ["log_softmax", "log_softmax_abs"])
    def test_baseline_loss_is_logsumexp_minus_target(self, kind):
        # the baseline is the softmax of its key, O or |O|, row by row; the
        # gradient of |O| carries sign(O)
        rng = np.random.default_rng(15)
        O = rng.normal(scale=5.0, size=(40, 300))
        y = rng.integers(0, 300, size=40)
        key, sign = (np.abs(O), np.sign(O)) if kind == "log_softmax_abs" else (O, 1.0)
        P = np.array([softmax(k) for k in key])
        ref = -np.log(P[np.arange(40), y])
        loss_b, grad_b = losses.batch_loss_grad(kind, O, y)
        assert max_rel_err(losses.batch_loss(kind, O, y), ref) <= 1e-12
        assert max_rel_err(loss_b, ref) <= 1e-12
        assert max_rel_err(grad_b, (P - np.eye(300)[y]) * sign) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_key_ranks_like_predicted_probabilities(self, data):
        # logits on a quarter grid in [-2.5, 2.5]: exact ties, negative
        # logits for the |O| keys and both sides of -1 for log_taylor, each
        # row ranked by a stable sort against its reference normalizer
        kind = data.draw(st.sampled_from(list(losses.LOSSES)))
        D = data.draw(st.integers(2, 24))
        n = data.draw(st.integers(1, 8))
        O = np.array(data.draw(st.lists(st.integers(-10, 10), min_size=n * D,
                                        max_size=n * D))).reshape(n, D) / 4.0
        kept = O.copy()
        rec = losses.LOSSES[kind]
        key = rec.key(O)
        np.testing.assert_array_equal(rec.key(O, out=np.empty_like(O)), key)
        np.testing.assert_array_equal(O, kept)
        probs = {
            "log_softmax_abs": lambda o: softmax(np.abs(o)),
            "mse": lambda o: o,
            "log_spherical": lambda o: spherical_softmax(o, losses.DEFAULT_EPS),
            "log_taylor": taylor_softmax,
        }.get(kind, softmax)  # the log_softmax and both bounds' softmax
        P = np.array([probs(o) for o in O])
        np.testing.assert_array_equal(np.argsort(-key, axis=1, kind="stable"),
                                      np.argsort(-P, axis=1, kind="stable"))

    @pytest.mark.parametrize("kind", losses.LOSSES)
    def test_scores_of_prior_bias_rank_like_prior(self, kind):
        # each record's scores and prior-bias map belong to one normalizer
        p = np.array([5.0, 30.0, 1.0, 20.0, 14.0, 25.0, 3.0]) / 98.0
        b = losses.LOSSES[kind].prior_bias(p)
        scores = losses.batch_scores(kind, b[None])[0]
        np.testing.assert_array_equal(np.argsort(scores), np.argsort(p))

    @pytest.mark.parametrize("kind", losses.LOSSES)
    @pytest.mark.parametrize("label", [-1, 3, 1.7])
    def test_label_out_of_range_rejected(self, kind, label):
        # -1 would otherwise index the last class, 3 raise IndexError and
        # 1.7 be truncated to class 1
        O, y = np.array([[0.0, 1.0, 5.0]]), np.array([label])
        for fn in (losses.batch_loss, losses.batch_loss_grad):
            with pytest.raises(ValueError):
                fn(kind, O, y)
        with pytest.raises(ValueError):
            losses.batch_negll(kind, O, y)

    @pytest.mark.parametrize("y", [
        np.array([-1], dtype=np.int8), np.array([np.iinfo(np.int64).min]),
        np.array([2**63], dtype=np.uint64), np.array([3, 0], dtype=np.uint8),
        np.array(3), np.array([True]), np.array([0.5]), np.array([np.nan]),
    ])
    def test_labels_rejected_at_either_end_of_the_range(self, y):
        with pytest.raises(ValueError):
            losses._as_labels(y, 3)

    @pytest.mark.parametrize("y", [np.array([2, 0], dtype=np.uint8), np.array(2),
                                   np.array([2.0, 0.0]), np.array([], dtype=np.int64)])
    def test_integer_valued_labels_accepted_as_int64(self, y):
        out = losses._as_labels(y, 3)
        assert out.dtype == np.int64 and np.array_equal(out, y)


def whole_log_softmax(O, y, abs_key):
    """A baseline's loss over the whole (n, D) array at once:
    logsumexp(Z) - Z_y with Z = O or |O|."""
    Z = np.abs(O) if abs_key else O
    E = Z - Z.max(axis=1, keepdims=True)
    return np.log(np.exp(E).sum(axis=1)) - E[np.arange(len(y)), y]


def whole_log_softmax_grad(O, y, abs_key):
    """Its gradient over the whole array at once: softmax(Z) - e_y, times
    sign(O) with 0 at O = 0 when Z = |O|."""
    Z = np.abs(O) if abs_key else O
    E = np.exp(Z - Z.max(axis=1, keepdims=True))
    G = E / E.sum(axis=1, keepdims=True)
    G[np.arange(len(y)), y] -= 1.0
    if abs_key:
        G = np.where(O < 0, -G, G)
        G = np.where(O == 0, G * 0.0, G)
    return G


# the kinds whose negll is a baseline's log-softmax, and whether its key is |O|
LOG_SOFTMAX_NEGLL = [("log_softmax", False), ("log_softmax_abs", True),
                     ("spherical_bound_fixed", False), ("spherical_bound_optimized", False)]


def group_edge_cases():
    for D in (2, 2**16 - 1, 2**16 + 1, 10**5):
        g = max(1, losses.GROUP_ELEMENTS // D)
        for n in sorted({1, g - 1, g, g + 1} - {0}):
            yield D, n


class TestGroupedLogSoftmax:
    """A baseline's rows go a group at a time through one cache-sized
    scratch, or into the rows of the returned gradient, with the whole
    array's results."""

    @pytest.mark.parametrize("D, n", list(group_edge_cases()))
    def test_bitwise_equal_to_whole_array(self, D, n):
        rng = np.random.default_rng(D + n)
        O = rng.normal(scale=4.0, size=(n, D))
        O[:, ::5] = 0.0  # on the kink of |O|
        y = rng.integers(0, D, size=n)
        for kind, abs_key in LOG_SOFTMAX_NEGLL:
            expected = whole_log_softmax(O, y, abs_key)
            assert np.array_equal(losses.batch_negll(kind, O, y), expected)
            if losses.LOSSES[kind].entry is None:
                assert np.array_equal(losses.batch_loss(kind, O, y), expected)
                got, grad = losses.batch_loss_grad(kind, O, y)
                assert got.tobytes() == expected.tobytes()
                assert grad.tobytes() == whole_log_softmax_grad(O, y, abs_key).tobytes()

    @pytest.mark.parametrize("kind, abs_key", LOG_SOFTMAX_NEGLL)
    def test_nonfinite_rows_as_whole_array(self, kind, abs_key, monkeypatch):
        # rows with NaN, +inf and -inf logits, split over groups of two rows:
        # the same values and the same RuntimeWarnings
        monkeypatch.setattr(losses, "GROUP_ELEMENTS", 14)
        O = np.random.default_rng(20).normal(size=(9, 7))
        O[1, 3] = np.nan
        O[2, 0] = np.inf
        O[4, 2] = -np.inf
        O[5] = -np.inf
        O[6, [1, 6]] = np.inf, -np.inf
        O[8, 5] = np.nan
        y = np.array([0, 1, 0, 2, 2, 3, 1, 4, 5])

        def run(fn):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                out = fn()
            return out, {(w.category, str(w.message)) for w in seen}

        got, got_warnings = run(lambda: losses.batch_negll(kind, O, y))
        expected, expected_warnings = run(lambda: whole_log_softmax(O, y, abs_key))
        np.testing.assert_array_equal(got, expected)
        assert got_warnings == expected_warnings
        assert (RuntimeWarning, "invalid value encountered in subtract") in got_warnings
        if losses.LOSSES[kind].entry is None:
            (got, grad), got_warnings = run(lambda: losses.batch_loss_grad(kind, O, y))
            want = lambda: (whole_log_softmax(O, y, abs_key), whole_log_softmax_grad(O, y, abs_key))
            (expected, expected_grad), expected_warnings = run(want)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(grad, expected_grad)
            assert got_warnings == expected_warnings

    @pytest.mark.parametrize("kind", [k for k, _ in LOG_SOFTMAX_NEGLL])
    def test_peak_memory_is_one_group(self, kind):
        # the group's scratch, not an (n, D) temporary
        n, D = 200, 20_000
        rng = np.random.default_rng(21)
        O = rng.normal(size=(n, D))
        y = rng.integers(0, D, size=n)
        tracemalloc.start()
        try:
            losses.batch_negll(kind, O, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * n * D * 8


class TestFiniteDiffGrad:
    def test_exact_on_quadratic(self):
        rng = np.random.default_rng(14)
        o = rng.uniform(-3, 3, size=8)
        fd = finite_diff_grad(lambda O, y: np.einsum("ij,ij->i", O, O), o, 0)
        assert np.abs(fd - 2 * o).max() < 1e-8 * max(np.abs(o).max(), 1)

    def test_log_softmax_oracle(self):
        rng = np.random.default_rng(15)
        o = rng.uniform(-3, 3, size=10)
        fd = finite_diff_grad(partial(batch_loss, "log_softmax"), o, 4)
        assert max_rel_err(fd, loss_grad("log_softmax", o, 4).grad_o) < 1e-6

    def test_mse_oracle(self):
        rng = np.random.default_rng(16)
        o = rng.uniform(-3, 3, size=10)
        fd = finite_diff_grad(partial(batch_loss, "mse"), o, 3)
        assert np.abs(fd - (2 * o - 2 * np.eye(10)[3])).max() < 1e-9

    def test_scores_in_bounded_blocks(self):
        # D spans several blocks; every call stays within the bound and the
        # blocks together give the closed-form MSE gradient 2(o - e_c)
        D, c = 1000, 3
        assert 2 * D * D > losses.FD_BLOCK_ELEMENTS
        o = np.random.default_rng(18).uniform(-3, 3, size=D)
        sizes = []

        def spy(O, y):
            sizes.append(O.size)
            return batch_loss("mse", O, y)

        fd = finite_diff_grad(spy, o, c)
        assert len(sizes) >= 2 and max(sizes) <= losses.FD_BLOCK_ELEMENTS
        expected = 2 * o
        expected[c] -= 2
        assert np.abs(fd - expected).max() < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda O, y: np.zeros(len(O)), [1.0, 2.0], 0, step=0.0)


@pytest.mark.parametrize(
    "normalizer",
    [
        softmax,
        taylor_softmax,
        lambda o: spherical_softmax(o, 0.01),
        lambda o: quadratic_normalizer(o, QuadraticNormalizerParams(2.0, 1.0, 1.0)),
    ],
    ids=["softmax", "taylor", "spherical", "quadratic"],
)
def test_all_normalizers_normalize(normalizer):
    rng = np.random.default_rng(17)
    for _ in range(50):
        o = rng.uniform(-30, 30, size=int(rng.integers(2, 40)))
        p = normalizer(o)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12
