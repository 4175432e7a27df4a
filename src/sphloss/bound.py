"""Variational quadratic upper bound on log-sum-exp and the derived
upper-bound loss on the negative log-softmax.

The general bound (free alpha, one xi_k per coordinate) is kept as an O(D)
reference used for cross-validation only.  The trainable loss uses a shared
xi and the alpha that makes the bound tightest, which collapses the bound to
a function of (s, q, o_c) only, i.e. a member of the spherical family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .losses import (
    LossParams,
    SphericalStats,
    _as_logits,
    _example_loss_grad,
    batch_loss_grad,
    log_softmax_loss,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    xc = np.maximum(x, 1e-4)
    lam = np.where(x < 1e-4, 0.125 - x * x / 192.0, np.tanh(0.5 * xc) / (4.0 * xc))
    return float(lam) if lam.ndim == 0 else lam


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


def bound_from_stats(s: float, q: float, o_c: float, D: int, xi: float) -> float:
    """The shared-xi, optimal-alpha upper bound on -log softmax(o)_c,
    evaluated from the spherical statistics alone; elementwise over arrays."""
    lam = lambda_xi(xi)
    return (
        -((D - 2.0) ** 2) / (16.0 * D * lam)
        - 0.5 * D * xi
        - D * lam * xi * xi
        + D * np.logaddexp(0.0, xi)
        + s / D
        + (q - s * s / D) * lam
        - o_c
    )


@dataclass(frozen=True)
class BoundValue:
    bound: float
    true_loss: Optional[float] = None
    gap: Optional[float] = None


@dataclass(frozen=True)
class XiParam:
    xi: float = 1.0
    mode: str = "fixed"  # "fixed" | "per_example_optimized"

    def __post_init__(self):
        if self.mode not in ("fixed", "per_example_optimized"):
            raise ValueError(f"unknown xi mode {self.mode!r}")
        if not math.isfinite(self.xi):
            raise ValueError("xi must be finite")


@dataclass(frozen=True)
class BoundLoss:
    """Result of :func:`spherical_bound_loss`."""

    loss: float
    grad_o: np.ndarray
    partials: Tuple[float, float, float]
    bound: BoundValue
    xi_used: float
    xi_fallback: bool = False


def golden_section_minimize(f, a, b, tol: float = 1e-10):
    """Golden-section search for the minimizer of a unimodal f on [a, b].

    Elementwise: ``a`` and ``b`` may be arrays, and ``f`` maps an array of
    points to an array of values.  Each element stops once its own bracket
    is no wider than ``tol``, or no longer shrinks at float resolution, so
    its result does not depend on the other elements.  Floats give a float.
    """
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    a, b = np.minimum(a, b), np.maximum(a, b)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    width = b - a
    live = width > tol
    while live.any():
        left = live & (fc < fd)  # the minimizer is in [a, d]
        right = live & ~left
        b = np.where(left, d, b)
        a = np.where(right, c, a)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = f(x)
        # left: (c, d) <- (x, c); right: (c, d) <- (d, x)
        c, d = np.where(right, d, c), np.where(left, c, d)
        fc, fd = np.where(right, fd, fc), np.where(left, fc, fd)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        live &= (b - a > tol) & (b - a < width)
        width = b - a
    mid = 0.5 * (a + b)
    return float(mid) if mid.ndim == 0 else mid


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
    needs no restarts.  For xi >= ln(4D), tanh^2(xi/2) - r^2 >= 1/D, so
    h >= 0 once also xi >= sqrt(Q); the bracket [0, ln(4D) + sqrt(q)] thus
    holds the minimizer.
    """
    hi = np.log(4.0 * D) + np.sqrt(np.maximum(q, 0.0))
    return golden_section_minimize(
        lambda xi: bound_from_stats(s, q, 0.0, D, xi), np.zeros_like(hi), hi
    )


def optimize_xi(stats: SphericalStats, D: int) -> float:
    """Per-example xi minimizing the bound for fixed (s, q, o_c): the n = 1
    case of the batch search."""
    if D < 2:
        raise ValueError("D must be >= 2")
    return float(_minimize_xi(np.array([stats.s]), np.array([stats.q]), D)[0])


def spherical_bound_loss(o, c: int, xi: XiParam = XiParam()) -> BoundLoss:
    """Upper-bound loss on -log softmax(o)_c, usable as a training loss.

    Partials are (1/D - 2*s*lambda/D, lambda, -1); in optimized mode xi* is
    treated as a constant during differentiation (envelope argument: the
    inner optimum makes d(bound)/d(xi) vanish).
    """
    o = _as_logits(o)
    xis, fallback = select_xis(
        np.array([o.sum()]), np.array([o @ o]), o.shape[0],
        xi=xi.xi, optimize=xi.mode == "per_example_optimized",
    )
    xi_used = float(xis[0])
    res = _example_loss_grad("spherical_bound_fixed", o, c, LossParams(xi=xi_used))
    true_loss = log_softmax_loss(o, c).loss
    return BoundLoss(
        loss=res.loss,
        grad_o=res.grad_o,
        partials=res.partials,
        bound=BoundValue(bound=res.loss, true_loss=true_loss, gap=res.loss - true_loss),
        xi_used=xi_used,
        xi_fallback=bool(fallback[0]),
    )


# ---------------------------------------------------------------------------
# Batch forms: the loss's registry entry and its partials-only form.
# ---------------------------------------------------------------------------


def select_xis(s: np.ndarray, q: np.ndarray, D: int, *, xi: float, optimize: bool):
    """The xi of each row: ``xi`` itself, or the row's bound minimizer.

    One search runs over the rows with finite (s, q).  The other rows, and
    the rows whose bound is non-finite at the found xi, fall back to xi = 1.
    Returns (xis, fallback mask).
    """
    n = s.shape[0]
    if not optimize:
        return np.full(n, float(xi)), np.zeros(n, dtype=bool)
    ok = np.isfinite(s) & np.isfinite(q)
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the mask
        found = _minimize_xi(s[ok], q[ok], D)
        good = np.isfinite(bound_from_stats(s[ok], q[ok], 0.0, D, found))
    xis = np.ones(n)
    xis[ok] = np.where(good, found, 1.0)
    ok[ok] = good
    return xis, ~ok


def _bound_partials(s, xis, D: int):
    lams = lambda_xi(xis)
    return 1.0 / D - 2.0 * s * lams / D, lams, np.full(s.shape[0], -1.0)


def spherical_bound_entry(s, q, o_c, D: int, p: LossParams, optimize: bool = False):
    """Registry entry of the bound loss: (value, a, bq, g) over (n,) arrays,
    with bq = lambda(xi)."""
    xis, _ = select_xis(s, q, D, xi=p.xi, optimize=optimize)
    a, lams, g = _bound_partials(s, xis, D)
    return bound_from_stats(s, q, o_c, D, xis), a, lams, g


def batch_bound_partials(s, q, D: int, *, xi: float = 1.0, optimize: bool = False):
    """(dL/ds, dL/dq, dL/do_c) arrays for the bound loss over a batch,
    without its value."""
    s = np.asarray(s, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    xis, _ = select_xis(s, q, D, xi=xi, optimize=optimize)
    return _bound_partials(s, xis, D)


def batch_bound_loss_grad(O, y, *, xi: float = 1.0, optimize: bool = False):
    """Per-example bound losses and dense gradients for a batch."""
    kind = "spherical_bound_optimized" if optimize else "spherical_bound_fixed"
    return batch_loss_grad(kind, O, y, xi=xi)
