"""Variational quadratic upper bound on log-sum-exp and the derived
upper-bound loss on the negative log-softmax.

The general bound (free alpha, one xi_k per coordinate) is kept as an O(D)
reference used for cross-validation only.  The trainable loss uses a shared
xi and the alpha that makes the bound tightest, which collapses the bound to
a function of (s, q, o_c) only, i.e. a member of the spherical family.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .losses import LossParams, SphericalStats, _as_logits, batch_loss_grad

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _lambda(x):
    """lambda(x) for an array of finite x >= 0, without checks."""
    xc = np.maximum(x, 1e-4)
    lam = np.tanh(0.5 * xc) / (4.0 * xc)
    small = x < 1e-4
    if small.any():
        lam = np.where(small, 0.125 - x * x / 192.0, lam)
    return lam


def lambda_xi(xi):
    """lambda(xi) = (sigmoid(xi) - 1/2) / (2*xi) = tanh(xi/2) / (4*xi), with
    the xi -> 0 limit 1/8.

    Elementwise over an array; a float gives a float.  Even, positive,
    decreasing in |xi|.  The second-order series 1/8 - xi^2/192 is used for
    |xi| < 1e-4, where the closed form approaches 0/0.
    """
    x = np.abs(np.asarray(xi, dtype=np.float64))  # |.| keeps evenness exact
    if not np.isfinite(x).all():
        raise ValueError("xi must be finite")
    lam = _lambda(x)
    return float(lam) if lam.ndim == 0 else lam


@functools.lru_cache(maxsize=64)
def _fixed_lambda(xi: float) -> float:
    """lambda_xi(xi) for one fixed xi, remembered: a fixed-xi loss asks for
    the same xi on every step.  Bitwise the elementwise form's value; a
    non-finite xi raises, and is not cached."""
    return lambda_xi(xi)


def bouchard_lse_bound_general(o, alpha: float, xis) -> float:
    """O(D) reference upper bound on logsumexp(o), free alpha and per-k xi."""
    o = _as_logits(o)
    xis = np.asarray(xis, dtype=np.float64)
    if xis.shape != o.shape:
        raise ValueError("xis must have one entry per coordinate of o")
    t = o - alpha
    terms = (t - xis) / 2.0 + lambda_xi(xis) * (t * t - xis * xis) + np.logaddexp(0.0, xis)
    return float(alpha + terms.sum())


def optimal_alpha(s: float, D: int, xi: float) -> float:
    """alpha minimizing the shared-xi general bound: s/D + (D-2)/(4*D*lambda)."""
    return s / D + (D - 2.0) / (4.0 * D * lambda_xi(xi))


def _bound_at(s_D, Q, D: int, xi, lam):
    """The bound's one closed form, at o_c = 0: from s_D = s/D,
    Q = q - s^2/D and lam = lambda(xi); elementwise over arrays."""
    return (
        -((D - 2.0) ** 2) / (16.0 * D * lam)
        - 0.5 * D * xi
        - D * lam * xi * xi
        + D * np.logaddexp(0.0, xi)
        + s_D
        + Q * lam
    )


def bound_from_stats(s: float, q: float, o_c: float, D: int, xi: float) -> float:
    """The shared-xi, optimal-alpha upper bound on -log softmax(o)_c,
    evaluated from the spherical statistics alone; elementwise over arrays."""
    return _bound_at(s / D, q - s * s / D, D, xi, lambda_xi(xi)) - o_c


def golden_section_minimize(f, a, b, tol: float = 1e-10):
    """Golden-section search for the minimizer of a unimodal f on [a, b].

    Elementwise: ``a``, ``b`` and ``tol`` may be arrays, and ``f`` maps an
    array of points to an array of values.  Each element stops once its own
    bracket is no wider than its ``tol``, or no longer shrinks at float
    resolution, so its result does not depend on the other elements.
    Floats give a float.

    Every element steps on every iteration: an element's result is the
    midpoint of its bracket on the iteration it stops, and the steps it
    takes after that are not read.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    a, b = np.minimum(a, b), np.maximum(a, b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    width = b - a
    live = width > tol
    mid = 0.5 * (a + b)
    while live.any():
        left = fc < fd  # the minimizer is in [a, d], else in [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _GOLDEN * (b - a)
        x = np.where(left, b - step, a + step)
        fx = f(x)
        # left: (c, d) <- (x, c); right: (c, d) <- (d, x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        w = b - a
        stop = live & ~((w > tol) & (w < width))
        if stop.any():
            mid = np.where(stop, 0.5 * (a + b), mid)
            live = live & ~stop
        width = w
    return float(mid) if mid.ndim == 0 else mid


# Each row's xi search stops once its bracket is no wider than this share of
# the bracket's upper end; see ``_minimize_xi``.
_XI_RTOL = 1e-8


def _xi_bracket(q, Q, D: int):
    """(lo, hi, tol) of each row's xi search, from its q and Q = q - s^2/D:
    the bracket ``_minimize_xi`` proves, and the width at which it stops."""
    if D < 2:  # r < 0, outside the proof: [0, ln(4D) + sqrt(q)] to 1e-10
        return 0.0, np.log(4.0 * D) + np.sqrt(np.maximum(q, 0.0)), 1e-10
    hi = np.maximum(math.log(4.0 * D), np.sqrt(np.maximum(Q, 0.0)))
    # one ulp down, so that a rounded-up log cannot cut off a root at ln(D-1)
    return math.nextafter(math.log(D - 1.0), 0.0), hi, _XI_RTOL * hi


def _minimize_xi(s, q, D: int):
    """The xi >= 0 minimizing the bound, for each element of the (n,)
    arrays s and q: one elementwise golden-section search.

    The bound is even in xi and linear in o_c, so its minimizer depends on
    (s, q) alone and can be taken >= 0.  At the optimal alpha,

        d(bound)/d(xi) = lambda'(xi) * [Q + (D-2)^2 / (16 D lambda^2) - D xi^2]

    with Q = q - s^2/D >= 0.  Since lambda' < 0 and 4 xi lambda = tanh(xi/2),
    its sign is that of h(xi) = xi^2 (1 - r^2 / tanh^2(xi/2)) - Q/D, with
    r = (D-2)/D.  h is negative while tanh(xi/2) < r and increasing after,
    so it changes sign once: the bound is unimodal in xi and golden section
    needs no restarts.

    The bracket, for D >= 2 (so r >= 0):
    - lo = ln(D - 1).  tanh(xi/2) = r exactly at xi = ln(D - 1), and
      tanh(xi/2) < r below it, so there h < 0.  For D = 2, lo = 0.
    - hi = max(ln(4D), sqrt(Q)).  For xi >= ln(4D), tanh^2(xi/2) - r^2
      >= 1/D, and 1 - r^2/tanh^2 >= tanh^2 - r^2 since tanh^2 <= 1, so
      h >= (xi^2 - Q)/D, which is >= 0 once also xi >= sqrt(Q).
    For D = 1 (r = -1), h < 0 for every xi > 0 and the bound has no
    minimizer; the search runs on [0, ln(4D) + sqrt(q)] to an absolute
    1e-10 and ends at its upper end.

    The stop: each row stops once its bracket is no wider than
    ``_XI_RTOL`` = 1e-8 times its hi, or no longer shrinks at float
    resolution.  Near its minimizer the bound is flat at float resolution,
    so the xi returned is only as close to the root of h as that flatness
    allows, and a narrower stop only resolves rounding.  On 24 rows of
    normal logits at scales 1 and 0.1 (tests/test_bound.py), the largest
    relative distance from the root computed to 50 digits was 5.4e-7 at
    D = 2000, 1.5e-6 at D = 2e4 and 3.8e-6 at D = 1e5, and it stayed the
    same to two digits for shares from 1e-10 to 1e-7.  A search on
    [0, ln(4D) + sqrt(q)] to an absolute 1e-10 read 5.4e-7, 1.5e-6 and
    2.8e-6, and took 55-57 bound evaluations per search on a seed-1
    train-bound call, where this one takes 37-40.  lambda(xi), the partial
    dL/dq, moves at first order in xi, so a last-bit change in q can move
    the optimized bound's partials by about that much.
    """
    s_D, Q = s / D, q - s * s / D
    return golden_section_minimize(lambda xi: _bound_at(s_D, Q, D, xi, _lambda(xi)),
                                   *_xi_bracket(q, Q, D))


def optimize_xi(stats: SphericalStats, D: int) -> float:
    """Per-example xi minimizing the bound for fixed (s, q, o_c): the n = 1
    case of the batch search."""
    if D < 2:
        raise ValueError("D must be >= 2")
    if not (math.isfinite(stats.s) and math.isfinite(stats.q)):
        raise ValueError("s and q must be finite")
    return float(_minimize_xi(np.array([stats.s]), np.array([stats.q]), D)[0])


# ---------------------------------------------------------------------------
# Batch forms: the loss's registry entry and its partials-only form.
# ---------------------------------------------------------------------------


def select_xis(s: np.ndarray, q: np.ndarray, D: int, *, xi: float, optimize: bool):
    """The xi of each row: ``xi`` itself, or the row's bound minimizer.

    One search runs over the rows with finite (s, q).  The other rows, and
    the rows whose bound is non-finite at the found xi, fall back to xi = 1.
    Returns (xis, lambda(xis), fallback mask).
    """
    n = s.shape[0]
    if not optimize:
        return (np.full(n, float(xi)), np.full(n, _fixed_lambda(float(xi))),
                np.zeros(n, dtype=bool))
    ok = np.isfinite(s) & np.isfinite(q)
    xis = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the mask
        xis[ok] = _minimize_xi(s[ok], q[ok], D)
        lams = _lambda(xis)
        ok &= np.isfinite(_bound_at(s / D, q - s * s / D, D, xis, lams))
    xis[~ok], lams[~ok] = 1.0, _fixed_lambda(1.0)
    return xis, lams, ~ok


def _bound_partials(s, lams, D: int):
    return 1.0 / D - 2.0 * s * lams / D, lams, np.full(s.shape[0], -1.0)


def spherical_bound_entry(s, q, o_c, D: int, p: LossParams, optimize: bool = False):
    """Registry entry of the bound loss: (value, a, bq, g) over (n,) arrays,
    with partials (1/D - 2*s*lambda/D, lambda, -1) and lambda = lambda(xi).

    With ``optimize``, each row's xi* is treated as a constant during
    differentiation (envelope argument: the inner optimum makes
    d(bound)/d(xi) vanish)."""
    xis, lams, _ = select_xis(s, q, D, xi=p.xi, optimize=optimize)
    return (_bound_at(s / D, q - s * s / D, D, xis, lams) - o_c, *_bound_partials(s, lams, D))


def batch_bound_partials(s, q, D: int, *, xi: float = 1.0, optimize: bool = False):
    """(dL/ds, dL/dq, dL/do_c) arrays for the bound loss over a batch,
    without its value: bitwise the entry's partials, lambda taken through
    ``select_xis`` for both kinds."""
    s = np.asarray(s, dtype=np.float64)
    _, lams, _ = select_xis(s, np.asarray(q, dtype=np.float64), D, xi=xi, optimize=optimize)
    return _bound_partials(s, lams, D)


def batch_bound_loss_grad(O, y, *, xi: float = 1.0, optimize: bool = False):
    """Per-example bound losses and dense gradients for a batch."""
    kind = "spherical_bound_optimized" if optimize else "spherical_bound_fixed"
    return batch_loss_grad(kind, O, y, xi=xi)
