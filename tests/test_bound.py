import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphloss import bound
from sphloss.bound import (
    bouchard_lse_bound_general,
    bound_from_stats,
    golden_section_minimize,
    lambda_xi,
    optimal_alpha,
    optimize_xi,
)
from sphloss.losses import (
    LossParams,
    SphericalStats,
    batch_loss,
    finite_diff_grad,
    loss_grad,
    summary_stats,
)

from conftest import max_rel_err


class TestLambdaXi:
    def test_limit_at_zero(self):
        assert lambda_xi(0.0) == 0.125

    def test_hand_value(self):
        expected = 0.5 * (1.0 / (1.0 + math.exp(-1.0)) - 0.5)
        assert lambda_xi(1.0) == pytest.approx(expected, rel=1e-14)
        assert lambda_xi(1.0) == pytest.approx(0.1155293, abs=1e-7)

    def test_even(self):
        rng = np.random.default_rng(0)
        xs = rng.uniform(-20, 20, size=100)
        for xi in xs:
            assert lambda_xi(xi) == lambda_xi(-xi)
        np.testing.assert_array_equal(lambda_xi(xs), lambda_xi(-xs))
        assert lambda_xi(xs).tolist() == [lambda_xi(x) for x in xs]

    def test_continuous_across_zero(self):
        assert abs(lambda_xi(1e-5) - 0.125) < 1e-9

    def test_positive_decreasing(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = [lambda_xi(x) for x in xs]
        assert lambda_xi(xs).tolist() == vals
        assert all(v > 0 for v in vals)
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lambda_xi(float("nan"))
        with pytest.raises(ValueError):
            lambda_xi(np.array([1.0, np.inf]))


class TestGeneralBound:
    def test_hand_value(self):
        val = bouchard_lse_bound_general([0.0, 0.0], 0.0, [0.0, 0.0])
        assert val == pytest.approx(2 * math.log(2), rel=1e-14)
        assert val >= math.log(2)

    def test_validity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            D = int(rng.choice([2, 10, 100]))
            o = rng.uniform(-5, 5, size=D)
            alpha = float(rng.uniform(-3, 3))
            xis = rng.uniform(-4, 4, size=D)
            assert bouchard_lse_bound_general(o, alpha, xis) >= np.logaddexp.reduce(o) - 1e-9

    @pytest.mark.parametrize("xis", [[0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 1.0],
                             ids=["short", "long", "2-D", "scalar"])
    def test_rejects_wrong_xis_shape(self, xis):
        with pytest.raises(ValueError, match="one entry per coordinate"):
            bouchard_lse_bound_general([1.0, 2.0], 0.0, xis)


def fixed(o, c, xi):
    return loss_grad("spherical_bound_fixed", o, c, xi=xi)


def optimized(o, c):
    return loss_grad("spherical_bound_optimized", o, c)


class TestSphericalBoundLoss:
    def test_hand_value_zero_vector(self):
        r = fixed(np.zeros(2), 0, 0.0)
        true_loss = loss_grad("log_softmax", np.zeros(2), 0).loss
        assert r.loss == pytest.approx(2 * math.log(2), rel=1e-14)
        assert true_loss == pytest.approx(math.log(2), rel=1e-14)
        assert r.loss - true_loss == pytest.approx(math.log(2), rel=1e-12)

    def test_matches_general_bound_at_optimal_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            D = int(rng.choice([2, 5, 20, 100]))
            o = rng.uniform(-4, 4, size=D)
            c = int(rng.integers(D))
            xi = float(rng.uniform(-3, 3))
            spec = fixed(o, c, xi).loss
            alpha = optimal_alpha(float(o.sum()), D, xi)
            gen = bouchard_lse_bound_general(o, alpha, np.full(D, xi)) - o[c]
            assert max_rel_err([spec], [gen]) < 1e-9

    def test_optimal_alpha_is_minimizer(self):
        # numerically minimize the shared-xi general bound over alpha and
        # compare with the closed-form candidate
        rng = np.random.default_rng(3)
        for _ in range(20):
            D = int(rng.choice([3, 10, 50]))
            o = rng.uniform(-4, 4, size=D)
            xi = float(rng.uniform(-2, 2))
            xis = np.full(D, xi)

            def f(alpha):
                return bouchard_lse_bound_general(o, alpha, xis)

            a_star = golden_section_minimize(f, -50.0, 50.0, tol=1e-10)
            assert a_star == pytest.approx(optimal_alpha(float(o.sum()), D, xi),
                                           abs=1e-6)

    def test_validity_against_log_softmax(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            D = int(rng.choice([2, 10, 100]))
            o = rng.uniform(-5, 5, size=D)
            c = int(rng.integers(D))
            xi = float(rng.uniform(-4, 4))
            r = fixed(o, c, xi)
            assert r.loss - loss_grad("log_softmax", o, c).loss >= -1e-9

    def test_fixed_xi_gradient(self):
        rng = np.random.default_rng(5)
        for xi in (0.0, 0.5, 2.0):
            for _ in range(10):
                o = rng.uniform(-3, 3, size=10)
                c = int(rng.integers(10))
                fd = finite_diff_grad(
                    partial(batch_loss, "spherical_bound_fixed", xi=xi), o, c
                )
                assert max_rel_err(fixed(o, c, xi).grad_o, fd) < 1e-6

    def test_spherical_family_membership(self):
        # permuting non-target coordinates cannot change the loss
        o = np.array([0.3, -1.2, 2.0, 0.7, -0.4])
        c = 2
        perm = np.array([4, 1, 2, 0, 3])  # fixes c
        a = fixed(o, c, 1.3).loss
        b = fixed(o[perm], c, 1.3).loss
        assert a == b

    def test_even_in_xi(self):
        rng = np.random.default_rng(6)
        o = rng.uniform(-3, 3, size=8)
        for xi in rng.uniform(0.01, 5, size=20):
            a = fixed(o, 1, float(xi)).loss
            b = fixed(o, 1, float(-xi)).loss
            assert a == pytest.approx(b, rel=1e-12)

    def test_partials_reconstruct_dense_gradient(self):
        from sphloss.losses import grad_from_partials

        rng = np.random.default_rng(7)
        o = rng.uniform(-3, 3, size=12)
        r = fixed(o, 4, 0.8)
        np.testing.assert_allclose(grad_from_partials(r.partials, o, 4), r.grad_o,
                                   atol=1e-14)


class TestOptimizeXi:
    def test_no_worse_than_zero(self):
        stats = summary_stats(np.zeros(6), 0)
        xi_star = optimize_xi(stats, 6)
        assert bound_from_stats(0, 0, 0, 6, xi_star) <= bound_from_stats(0, 0, 0, 6, 0.0) + 1e-12

    def test_beats_grid(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0, 10, 50)
        for _ in range(200):
            D = int(rng.choice([2, 10, 100]))
            o = rng.uniform(-5, 5, size=D)
            c = int(rng.integers(D))
            stats = summary_stats(o, c)
            xi_star = optimize_xi(stats, D)
            best = bound_from_stats(stats.s, stats.q, stats.o_c, D, xi_star)
            for xi in grid:
                assert best <= bound_from_stats(stats.s, stats.q, stats.o_c, D, xi) + 1e-8

    def test_optimized_bound_still_valid(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            D = int(rng.choice([2, 10, 100]))
            o = rng.uniform(-5, 5, size=D)
            c = int(rng.integers(D))
            r = optimized(o, c)
            assert r.loss >= loss_grad("log_softmax", o, c).loss - 1e-9

    def test_tightness_ordering(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            D = int(rng.choice([2, 10, 100]))
            o = rng.uniform(-5, 5, size=D)
            c = int(rng.integers(D))
            opt = optimized(o, c).loss
            for xi in (0.5, 1.0, 2.0):
                assert opt <= fixed(o, c, xi).loss + 1e-8

    def test_bracket_holds_minimizer_at_large_D(self):
        # zero logits, as from a zero-initialized output layer: xi* = ln(D - 1)
        D = 100_000
        xi_star = optimize_xi(SphericalStats(s=0.0, q=0.0, o_c=0.0), D)
        assert xi_star > 11.5
        grid = np.linspace(0.0, 30.0, 3001)
        best = bound_from_stats(0.0, 0.0, 0.0, D, xi_star)
        assert np.all(best <= bound_from_stats(0.0, 0.0, 0.0, D, grid))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 10, 2000, 100_000, 1_000_000]),
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
        st.one_of(st.just(0.0), st.floats(-6.0, 20.0).map(lambda e: 10.0 ** e)),
    )
    def test_search_beats_grid(self, D, s, Q):
        # Q up to 1e20 also covers brackets that stop shrinking at float
        # resolution before their width reaches the tolerance
        q = Q + s * s / D
        xi_star = optimize_xi(SphericalStats(s=s, q=q, o_c=0.0), D)
        grid = bound_from_stats(s, q, 0.0, D,
                                np.linspace(0.0, math.log(4 * D) + math.sqrt(q), 200))
        best = bound_from_stats(s, q, 0.0, D, xi_star)
        assert np.all(best <= grid + 1e-9 * np.abs(grid))

    def test_rejects_small_D(self):
        with pytest.raises(ValueError):
            optimize_xi(summary_stats(np.zeros(2), 0), 1)

    def test_one_class_values(self):
        # D = 1 is outside the bracket's proof (ln(D - 1) = -inf); its values
        # are those of the search on [0, ln 4 + sqrt(q)] to an absolute 1e-10
        got = batch_loss("spherical_bound_optimized", [[0.5], [2.0]], [0, 0])
        assert got.tolist() == [0.09678942336714136, 0.029393221754761445]

    @pytest.mark.parametrize("s, q", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf)])
    def test_rejects_nonfinite_stats(self, s, q):
        with pytest.raises(ValueError):
            optimize_xi(SphericalStats(s=s, q=q, o_c=0.0), 10)


def _h_mp(mp, xi, Q, D):
    """h(xi) = xi^2 (1 - r^2 / tanh^2(xi/2)) - Q/D in mpmath, with its
    xi -> 0 limit -4 r^2 - Q/D."""
    r = mp.mpf(D - 2) / D
    if xi == 0:
        return -4 * r * r - Q / D
    return xi * xi - (r * xi / mp.tanh(xi / 2)) ** 2 - Q / D


class TestXiBracket:
    """``_xi_bracket``'s [lo, hi] holds the root of h, whose sign is that of
    d(bound)/d(xi) (see ``_minimize_xi``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3, 10, 2000, 100_000, 1_000_000]),
        st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
        st.one_of(st.just(0.0), st.floats(-6.0, 20.0).map(lambda e: 10.0 ** e)),
    )
    def test_holds_the_root(self, D, s, Q):
        mp = pytest.importorskip("mpmath")
        q = Q + s * s / D
        Q = q - s * s / D  # as the search computes it
        lo, hi, _ = bound._xi_bracket(np.array([q]), np.array([Q]), D)
        assert 0.0 <= lo < hi[0]
        with mp.workdps(50):
            assert _h_mp(mp, mp.mpf(lo), mp.mpf(Q), D) <= 0
            assert _h_mp(mp, mp.mpf(float(hi[0])), mp.mpf(Q), D) >= 0

    def test_two_classes_start_at_zero(self):
        # D = 2, Q = 0: r = 0, so h = xi^2 and xi* = 0, the bracket's lower
        # end; the bound is flat there at float resolution (about 1e-4 wide)
        lo, hi, _ = bound._xi_bracket(np.zeros(1), np.zeros(1), 2)
        assert lo == 0.0 and hi[0] == math.log(8.0)
        xi = bound._minimize_xi(np.zeros(1), np.zeros(1), 2)[0]
        assert 0.0 <= xi < 1e-3
        assert bound_from_stats(0.0, 0.0, 0.0, 2, xi) == bound_from_stats(0.0, 0.0, 0.0, 2, 0.0)

    # Largest relative distance of the search's xi from the 50-digit root of
    # h, over the rows of `test_accuracy_against_the_root` at both scales,
    # measured at e33e0b8 with the former search: [0, ln(4D) + sqrt(q)] to
    # an absolute 1e-10.  The bound's flatness at float resolution, not the
    # stop, sets these.
    FORMER_REL_ERR = {2000: 5.44e-7, 20_000: 1.45e-6, 100_000: 2.78e-6}

    @pytest.mark.parametrize("D", sorted(FORMER_REL_ERR))
    def test_accuracy_against_the_root(self, D):
        mp = pytest.importorskip("mpmath")
        worst = 0.0
        for scale in (1.0, 0.1):
            o = scale * np.random.default_rng(0).standard_normal((24, D))
            s, q = o.sum(axis=1), np.einsum("ij,ij->i", o, o)
            Q = q - s * s / D
            xis = bound._minimize_xi(s, q, D)
            lo, his, _ = bound._xi_bracket(q, Q, D)
            with mp.workdps(50):
                for xi, Qi, hi in zip(xis, Q, his):
                    root = mp.findroot(lambda x: _h_mp(mp, x, mp.mpf(Qi), D),
                                       (mp.mpf(lo), mp.mpf(hi)), solver="anderson")
                    worst = max(worst, float(abs(mp.mpf(xi) / root - 1)))
        assert worst <= 1.5 * self.FORMER_REL_ERR[D]


def frozen_golden_section(f, a, b, tol=1e-10):
    """Reference golden-section search: each iteration updates only the
    elements still live, through masks, so a stopped element's bracket
    stays frozen, and the result is the final brackets' midpoints."""
    G = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    a, b = np.minimum(a, b), np.maximum(a, b)
    c, d = b - G * (b - a), a + G * (b - a)
    fc, fd = f(c), f(d)
    width = b - a
    live = width > tol
    while live.any():
        left = live & (fc < fd)
        right = live & ~left
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        x = np.where(left, b - G * (b - a), a + G * (b - a))
        fx = f(x)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        live &= (b - a > tol) & (b - a < width)
        width = b - a
    mid = 0.5 * (a + b)
    return float(mid) if mid.ndim == 0 else mid


class TestSearchBitwise:
    """``_minimize_xi`` and ``golden_section_minimize`` return exactly the
    reference search's points on ``bound_from_stats``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 10, 2000, 100_000, 1_000_000]),
        st.lists(st.tuples(
            st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
            st.one_of(st.just(0.0), st.floats(-6.0, 20.0).map(lambda e: 10.0 ** e)),
        ), min_size=1, max_size=40),
    )
    @example(2, [(0.0, 0.0), (0.5, 0.0), (1.0, 1e20), (0.0, 1e-6)])
    def test_batch(self, D, rows):
        # rows with Q = 0 next to rows with Q up to 1e20 stop on different
        # iterations, some at float resolution; D = 2 with Q = 0 has its
        # minimizer at xi = 0, in lambda's series branch
        s, Q = np.array(rows).T
        q = Q + s * s / D
        expected = frozen_golden_section(lambda xi: bound_from_stats(s, q, 0.0, D, xi),
                                         *bound._xi_bracket(q, q - s * s / D, D))
        assert np.array_equal(bound._minimize_xi(s, q, D), expected)

    def test_series_branch_is_reached(self, monkeypatch):
        # D = 2, Q = 0 evaluates the bound below xi = 1e-4
        seen, lam = [], bound._lambda
        monkeypatch.setattr(bound, "_lambda", lambda x: seen.append(np.min(x)) or lam(x))
        bound._minimize_xi(np.zeros(1), np.zeros(1), 2)
        assert min(seen) < 1e-4

    @pytest.mark.parametrize("lo, hi", [(-2.0, 5.0), (5.0, -2.0)])
    def test_scalar(self, lo, hi):
        def f(xi):
            return bound_from_stats(0.3, 4.0, 0.0, 10, xi)

        xi = golden_section_minimize(f, lo, hi)
        assert type(xi) is float
        assert xi == frozen_golden_section(f, lo, hi) == golden_section_minimize(f, -2.0, 5.0)


class TestBatchForms:
    def test_optimized_xi_falls_back_on_nonfinite_stats(self):
        s = np.array([0.5, np.nan, 1.0, 0.0, -3.0, 40.0, 1e-8])
        q = np.array([2.0, 1.0, np.inf, 0.0, 9.5, 1e4, 1e-12])
        xis, lams, fallback = bound.select_xis(s, q, 10, xi=3.0, optimize=True)
        assert fallback.tolist() == [False, True, True, False, False, False, False]
        assert xis[1] == xis[2] == 1.0
        assert lams.tobytes() == lambda_xi(xis).tobytes()
        for i in (0, 3, 4, 5, 6):
            assert xis[i] == optimize_xi(SphericalStats(s=s[i], q=q[i], o_c=0.0), 10)
        a, bq, g = bound.batch_bound_partials(s, q, 10, optimize=True)
        assert bq[1] == bq[2] == lambda_xi(1.0)

    @pytest.mark.parametrize("xi", [0.0, 1e-5, 1.0, -2.5])
    def test_fixed_xi_partials_are_the_per_row_form(self, xi):
        # both kinds: a fixed xi's lambda is taken once per call, an
        # optimized row's once from its xi; the entry's value is
        # bound_from_stats at the row's xi and its partials are
        # batch_bound_partials', byte for byte, the NaN-s and infinite-q
        # rows (the search's fallback) included
        rng = np.random.default_rng(12)
        for n, optimize in itertools.product((1, 7), (False, True)):
            s, q, o_c = rng.normal(size=n), rng.uniform(0, 5, size=n), rng.normal(size=n)
            if n > 1:
                s[1], q[2] = np.nan, np.inf
            value, *ref = bound.spherical_bound_entry(s, q, o_c, 50, LossParams(xi=xi),
                                                      optimize)
            got = bound.batch_bound_partials(s, q, 50, xi=xi, optimize=optimize)
            assert all(x.tobytes() == r.tobytes() for x, r in zip(got, ref))
            xis = bound.select_xis(s, q, 50, xi=xi, optimize=optimize)[0]
            for i in range(n):
                row = np.float64(bound_from_stats(s[i], q[i], o_c[i], 50, xis[i]))
                assert value[i:i + 1].tobytes() == row.tobytes()

    def test_fixed_xi_rejects_nonfinite_and_its_cache_is_bounded(self):
        s, q = np.ones(3), np.ones(3)
        for xi in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="xi must be finite"):
                bound.batch_bound_partials(s, q, 10, xi=xi)
        for xi in np.linspace(0.0, 3.0, 300):
            bound.batch_bound_partials(s, q, 10, xi=xi)
        info = bound._fixed_lambda.cache_info()
        assert info.currsize <= info.maxsize < 300

    def test_batch_matches_per_example(self):
        rng = np.random.default_rng(11)
        O = rng.uniform(-3, 3, size=(6, 9))
        y = rng.integers(0, 9, size=6)
        for optimize in (False, True):
            losses_b, grads_b = bound.batch_bound_loss_grad(O, y, xi=1.2,
                                                            optimize=optimize)
            kind = "spherical_bound_optimized" if optimize else "spherical_bound_fixed"
            for i in range(6):
                r = loss_grad(kind, O[i], int(y[i]), xi=1.2)
                assert losses_b[i] == pytest.approx(r.loss, rel=1e-10)
                np.testing.assert_allclose(grads_b[i], r.grad_o, atol=1e-10)
