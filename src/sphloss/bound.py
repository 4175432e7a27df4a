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
    _check_target,
    _spherical_loss_grad,
    batch_loss_grad,
    log_softmax_loss,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def lambda_xi(xi: float) -> float:
    """lambda(xi) = (sigmoid(xi) - 1/2) / (2*xi), with the xi -> 0 limit 1/8.

    Even, positive, decreasing in |xi|.  Near zero the closed form loses
    precision to cancellation, so the second-order series 1/8 - xi^2/192
    is used for |xi| < 1e-4.
    """
    xi = float(xi)
    if not math.isfinite(xi):
        raise ValueError("xi must be finite")
    x = abs(xi)  # even by definition; |.| keeps evenness exact in floats
    if x < 1e-4:
        return 0.125 - x * x / 192.0
    sig = 1.0 / (1.0 + math.exp(-x))
    return (sig - 0.5) / (2.0 * x)


def log1pexp(x: float) -> float:
    """log(1 + e^x) without overflow."""
    return float(np.logaddexp(0.0, x))


def bouchard_lse_bound_general(o, alpha: float, xis) -> float:
    """O(D) reference upper bound on logsumexp(o), free alpha and per-k xi."""
    o = _as_logits(o)
    xis = np.asarray(xis, dtype=np.float64)
    if xis.shape != o.shape:
        raise ValueError("xis must have one entry per coordinate of o")
    lam = np.array([lambda_xi(x) for x in xis])
    t = o - alpha
    terms = (t - xis) / 2.0 + lam * (t * t - xis * xis) + np.logaddexp(0.0, xis)
    return float(alpha + terms.sum())


def optimal_alpha(s: float, D: int, xi: float) -> float:
    """alpha minimizing the shared-xi general bound: s/D + (D-2)/(4*D*lambda)."""
    return s / D + (D - 2.0) / (4.0 * D * lambda_xi(xi))


def _bound_value(s, q, o_c, D: int, xi, lam, l1pe_xi):
    """The shared-xi, optimal-alpha bound on -log softmax(o)_c, given
    lam = lambda(xi) and l1pe_xi = log(1 + e^xi); floats or (n,) arrays."""
    return (
        -((D - 2.0) ** 2) / (16.0 * D * lam)
        - 0.5 * D * xi
        - D * lam * xi * xi
        + D * l1pe_xi
        + s / D
        + (q - s * s / D) * lam
        - o_c
    )


def bound_from_stats(s: float, q: float, o_c: float, D: int, xi: float) -> float:
    """The shared-xi, optimal-alpha upper bound on -log softmax(o)_c,
    evaluated from the spherical statistics alone."""
    return _bound_value(s, q, o_c, D, xi, lambda_xi(xi), log1pexp(xi))


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


def golden_section_minimize(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Golden-section search for the minimizer of a unimodal f on [a, b]."""
    if b < a:
        a, b = b, a
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_xi(stats: SphericalStats, D: int) -> float:
    """Per-example xi minimizing the bound for fixed (s, q, o_c).

    The bound is even in xi, so the search is restricted to xi >= 0 on
    [0, 10 + sqrt(q)].  If the golden-section result is beaten by any of a
    coarse multi-start grid (non-unimodal behavior), the grid winner's
    local refinement is used instead.
    """
    if D < 2:
        raise ValueError("D must be >= 2")
    s, q, o_c = stats.s, stats.q, stats.o_c

    def f(xi: float) -> float:  # bound_from_stats, one call shallower
        return _bound_value(s, q, o_c, D, xi, lambda_xi(xi), log1pexp(xi))

    xi_max = 10.0 + math.sqrt(max(q, 0.0))
    xi_star = golden_section_minimize(f, 0.0, xi_max, tol=1e-10)
    best_xi, best_val = xi_star, f(xi_star)
    for start in (0.0, 1.0, 4.0, xi_max):
        v = f(start)
        if v < best_val - 1e-12:
            lo = max(0.0, start - xi_max / 4.0)
            hi = min(xi_max, start + xi_max / 4.0)
            cand = golden_section_minimize(f, lo, hi, tol=1e-10)
            if f(cand) < best_val:
                best_xi, best_val = cand, f(cand)
    return float(best_xi)


def spherical_bound_loss(o, c: int, xi: XiParam = XiParam()) -> BoundLoss:
    """Upper-bound loss on -log softmax(o)_c, usable as a training loss.

    Partials are (1/D - 2*s*lambda/D, lambda, -1); in optimized mode xi* is
    treated as a constant during differentiation (envelope argument: the
    inner optimum makes d(bound)/d(xi) vanish).
    """
    o = _as_logits(o)
    c = _check_target(o, c)
    xis, fallback = select_xis(
        np.array([o.sum()]), np.array([o @ o]), o.shape[0],
        xi=xi.xi, optimize=xi.mode == "per_example_optimized",
    )
    xi_used = float(xis[0])
    res = _spherical_loss_grad(spherical_bound_entry, o, c, LossParams(xi=xi_used))
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

    The bound's xi-optimum does not depend on o_c (o_c enters linearly), so
    the search needs only (s, q).  A row whose search fails or gives a
    non-finite bound falls back to xi = 1.  Returns (xis, fallback mask).
    """
    n = s.shape[0]
    fallback = np.zeros(n, dtype=bool)
    if not optimize:
        return np.full(n, float(xi)), fallback
    xis = np.empty(n)
    for i, (si, qi) in enumerate(zip(s.tolist(), q.tolist())):
        try:
            x = optimize_xi(SphericalStats(s=si, q=qi, o_c=0.0), D)
            if not math.isfinite(bound_from_stats(si, qi, 0.0, D, x)):
                raise FloatingPointError("non-finite bound at optimized xi")
        except (FloatingPointError, ValueError, OverflowError):
            x, fallback[i] = 1.0, True
        xis[i] = x
    return xis, fallback


def _bound_partials(s, xis, D: int):
    lams = np.array([lambda_xi(x) for x in xis])
    return 1.0 / D - 2.0 * s * lams / D, lams, np.full(s.shape[0], -1.0)


def spherical_bound_entry(s, q, o_c, D: int, p: LossParams, optimize: bool = False):
    """Registry entry of the bound loss: (value, a, bq, g) over (n,) arrays,
    with bq = lambda(xi)."""
    xis, _ = select_xis(s, q, D, xi=p.xi, optimize=optimize)
    a, lams, g = _bound_partials(s, xis, D)
    return _bound_value(s, q, o_c, D, xis, lams, np.logaddexp(0.0, xis)), a, lams, g


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
