"""Normalizing functions and classification losses built on (s, q, o_c).

Every loss here returns both its value and an exact analytic gradient with
respect to the pre-activations o.  The losses that depend on o only through
the summary statistics s = sum(o), q = ||o||^2 and the target coordinate o_c
form the spherical family: each is defined once, as an entry of
``SPHERICAL_LOSSES`` that maps (s, q, o_c, D) to the loss value and the
partial derivatives (dL/ds, dL/dq, dL/do_c).  Those partials are what make
output-size-independent weight updates possible (see ``sphloss.fast_output``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import numpy as np

# Library default for the spherical softmax stabilizer. Same order of
# magnitude as a carefully tuned value on a real task (~0.02); callers that
# care should tune it.
DEFAULT_EPS = 1e-2

Partials = Tuple[float, float, float]


@dataclass(frozen=True)
class SphericalStats:
    """Sufficient statistics of a pre-activation vector for spherical losses."""

    s: float
    q: float
    o_c: float
    y_c: float = 1.0


@dataclass(frozen=True)
class LossGrad:
    """A loss value with its dense gradient and, when the loss belongs to
    the spherical family, the (dL/ds, dL/dq, dL/do_c) partials."""

    loss: float
    grad_o: np.ndarray
    partials: Optional[Partials] = None


@dataclass(frozen=True)
class QuadraticNormalizerParams:
    """Coefficients of the per-coordinate polynomial a1 + a2*x + a3*x^2.

    The polynomial must be strictly positive, i.e. a3 > 0 and
    4*a1*a3 - a2^2 > 0.  Semi-definite parameter sets (such as the pure
    spherical softmax a1=a2=0) are only reachable through
    ``unchecked=True``.
    """

    a1: float
    a2: float
    a3: float
    unchecked: bool = False

    def __post_init__(self):
        if self.unchecked:
            return
        if not (self.a3 > 0 and 4.0 * self.a1 * self.a3 - self.a2 ** 2 > 0):
            raise ValueError(
                "polynomial a1 + a2*x + a3*x^2 is not strictly positive: "
                f"a1={self.a1}, a2={self.a2}, a3={self.a3}"
            )


def _as_logits(o) -> np.ndarray:
    o = np.asarray(o, dtype=np.float64)
    if o.ndim != 1:
        raise ValueError(f"expected a 1-D pre-activation vector, got shape {o.shape}")
    if o.shape[0] < 2:
        raise ValueError("need at least 2 classes")
    if not np.all(np.isfinite(o)):
        raise ValueError("pre-activations must be finite")
    return o


def _check_target(o: np.ndarray, c: int) -> int:
    c = int(c)
    if not 0 <= c < o.shape[0]:
        raise ValueError(f"target index {c} out of range for {o.shape[0]} classes")
    return c


def summary_stats(o, c: int, y_c: float = 1.0) -> SphericalStats:
    """Compute (s, q, o_c) for a pre-activation vector and target index."""
    o = _as_logits(o)
    c = _check_target(o, c)
    return SphericalStats(s=float(o.sum()), q=float(o @ o), o_c=float(o[c]), y_c=y_c)


def softmax(o) -> np.ndarray:
    """Max-shifted softmax."""
    o = _as_logits(o)
    z = o - o.max()
    e = np.exp(z)
    return e / e.sum()


def logsumexp(o: np.ndarray) -> float:
    m = o.max()
    return float(m + np.log(np.exp(o - m).sum()))


def log_softmax_loss(o, c: int) -> LossGrad:
    """Categorical cross-entropy baseline: -log softmax(o)_c.

    Not a member of the spherical family, so no partials are returned.
    """
    return _baseline_loss_grad("log_softmax", o, c)


def log_softmax_abs_loss(o, c: int) -> LossGrad:
    """log-softmax applied to |o|; subgradient 0 is used at o_i = 0."""
    return _baseline_loss_grad("log_softmax_abs", o, c)


def _baseline_loss_grad(kind: str, o, c: int) -> LossGrad:
    """The n = 1 case of a log-softmax baseline's batch form."""
    o = _as_logits(o)
    c = _check_target(o, c)
    losses, grad = batch_loss_grad(kind, o[None], np.array([c]))
    return LossGrad(loss=float(losses[0]), grad_o=grad[0])


def mse_loss(o, c: int, y_c: float = 1.0) -> LossGrad:
    """Squared error against the one-hot (scaled by y_c) target.

    In family form: q - 2*o_c*y_c + y_c^2, with partials (0, 1, -2*y_c).
    """
    return _spherical_loss_grad(_mse, o, c, LossParams(y_c=y_c))


def quadratic_normalizer(o, p: QuadraticNormalizerParams) -> np.ndarray:
    """Normalizer with per-coordinate numerator a1 + a2*o_k + a3*o_k^2."""
    o = _as_logits(o)
    num = p.a1 + p.a2 * o + p.a3 * o * o
    den = num.sum()
    if den <= 0 or np.any(num < 0):
        raise ValueError("quadratic normalizer produced non-positive numerators")
    return num / den


def spherical_softmax(o, eps: float = DEFAULT_EPS) -> np.ndarray:
    """(o_k^2 + eps) / sum_i (o_i^2 + eps) with eps > 0."""
    if not eps > 0:
        raise ValueError("eps must be > 0; use spherical_softmax_unchecked for eps=0")
    return spherical_softmax_unchecked(o, eps)


def spherical_softmax_unchecked(o, eps: float) -> np.ndarray:
    """Same as :func:`spherical_softmax` but admits eps = 0 (q > 0 required).

    Exists so the eps=0 scale-invariance and evenness properties can be
    exercised; 0/0 at o = 0 is still rejected.
    """
    o = _as_logits(o)
    num = o * o + eps
    den = num.sum()
    if den == 0.0:
        raise ValueError("eps=0 with a zero vector is undefined (0/0)")
    return num / den


def log_spherical_softmax_loss(o, c: int, eps: float = DEFAULT_EPS) -> LossGrad:
    """-log spherical_softmax(o)_c with exact gradient.

    dL/do_c = 2*o_c/(q + D*eps) - 2*o_c/(o_c^2 + eps)
    dL/do_k = 2*o_k/(q + D*eps)   for k != c
    """
    return _spherical_loss_grad(_log_spherical, o, c, LossParams(eps=eps))


def taylor_softmax(o) -> np.ndarray:
    """Normalizer from the second-order expansion of exp around zero.

    Numerators 1 + o_k + o_k^2/2 are bounded below by 0.5, so no
    stabilizer is needed.
    """
    o = _as_logits(o)
    num = 1.0 + o + 0.5 * o * o
    return num / num.sum()


def log_taylor_softmax_loss(o, c: int) -> LossGrad:
    """-log taylor_softmax(o)_c with exact gradient.

    With Z = D + s + q/2:
    dL/do_c = (1+o_c)/Z - (1+o_c)/(1+o_c+o_c^2/2)
    dL/do_k = (1+o_k)/Z   for k != c
    """
    return _spherical_loss_grad(_log_taylor, o, c, LossParams())


def grad_from_partials(partials: Partials, o, c: int) -> np.ndarray:
    """Reconstruct the dense gradient (dL/ds)*1 + 2*(dL/dq)*o + (dL/do_c)*e_c."""
    o = _as_logits(o)
    c = _check_target(o, c)
    a, bq, g = partials
    grad = np.full_like(o, a) + 2.0 * bq * o
    grad[c] += g
    return grad


def finite_diff_grad(
    loss_fn: Callable[[np.ndarray], float], o, c: int, step: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient oracle: (L(o+h*e_i) - L(o-h*e_i)) / 2h.

    ``loss_fn`` maps a pre-activation vector to a scalar; ``c`` is passed
    for interface symmetry with the losses but the closure may ignore it.
    """
    if not step > 0:
        raise ValueError("step must be > 0")
    o = _as_logits(o)
    grad = np.empty_like(o)
    for i in range(o.shape[0]):
        op = o.copy()
        om = o.copy()
        op[i] += step
        om[i] -= step
        grad[i] = (loss_fn(op) - loss_fn(om)) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# The spherical family.  Each member is defined once, as an entry
# (s, q, o_c, D, params) -> (value, a, bq, g) over (n,) arrays, where
# a = dL/ds, bq = dL/dq and g = dL/do_c.  The per-example losses above, the
# batch forms below and the factored trainer all derive from these entries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossParams:
    """Loss hyperparameters; each entry reads only its own."""

    eps: float = DEFAULT_EPS  # log_spherical stabilizer
    xi: float = 1.0  # bound variational parameter (start value when optimized)
    y_c: float = 1.0  # mse target value


def _mse(s, q, o_c, D, p: LossParams):
    n = q.shape[0]
    value = q - 2.0 * o_c * p.y_c + p.y_c ** 2
    return value, np.zeros(n), np.ones(n), np.full(n, -2.0 * p.y_c)


def _log_spherical(s, q, o_c, D, p: LossParams):
    if not p.eps > 0:
        raise ValueError("eps must be > 0")
    den = q + D * p.eps
    num_c = o_c * o_c + p.eps
    value = np.log(den) - np.log(num_c)
    return value, np.zeros(q.shape[0]), 1.0 / den, -2.0 * o_c / num_c


def _log_taylor(s, q, o_c, D, p: LossParams):
    Z = D + s + 0.5 * q
    num_c = 1.0 + o_c + 0.5 * o_c * o_c
    # target-coordinate split: the (1+o_c)/Z part lives in the s/q partials
    return np.log(Z) - np.log(num_c), 1.0 / Z, 0.5 / Z, -(1.0 + o_c) / num_c


def _spherical_bound(s, q, o_c, D, p: LossParams, optimize: bool = False):
    from . import bound  # bound builds on this module

    return bound.spherical_bound_entry(s, q, o_c, D, p, optimize=optimize)


SPHERICAL_LOSSES = {
    "mse": _mse,
    "log_spherical": _log_spherical,
    "log_taylor": _log_taylor,
    "spherical_bound_fixed": _spherical_bound,
    "spherical_bound_optimized": partial(_spherical_bound, optimize=True),
}

_BASELINES = ("log_softmax", "log_softmax_abs")
LOSS_KINDS = (*_BASELINES, *SPHERICAL_LOSSES)


def _spherical_loss_grad(entry, o, c: int, params: LossParams) -> LossGrad:
    """The n = 1 case of a registry entry, with its dense gradient."""
    o = _as_logits(o)
    c = _check_target(o, c)
    value, *partials = entry(
        np.array([o.sum()]), np.array([o @ o]), o[c:c + 1], o.shape[0], params
    )
    partials = tuple(float(x[0]) for x in partials)
    return LossGrad(
        loss=float(value[0]), grad_o=grad_from_partials(partials, o, c), partials=partials
    )


# ---------------------------------------------------------------------------
# Vectorized batch forms used by the trainer, over an (n, D) matrix of
# pre-activations.
# ---------------------------------------------------------------------------


def batch_log_softmax(O: np.ndarray) -> np.ndarray:
    Z = O - O.max(axis=1, keepdims=True)
    return Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))


def _batch(kind: str, O, y, eps: float, xi: float, with_grad: bool):
    """(losses (n,), dense gradient (n, D) or None): the one body of the
    batch forms."""
    O = np.asarray(O, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if O.ndim != 2 or y.ndim != 1 or O.shape[0] != y.shape[0]:
        raise ValueError("O must be (n, D) and y (n,)")
    rows = np.arange(O.shape[0])
    if kind in SPHERICAL_LOSSES:
        # the registry entry on the rows' (s, q, o_c)
        losses, a, bq, g = SPHERICAL_LOSSES[kind](
            O.sum(axis=1), np.einsum("ij,ij->i", O, O), O[rows, y], O.shape[1],
            LossParams(eps=eps, xi=xi),
        )
        if not with_grad:
            return losses, None
        grad = O * (2.0 * bq)[:, None]
        grad += a[:, None]
        grad[rows, y] += g
        return losses, grad
    if kind not in _BASELINES:
        raise ValueError(f"unknown loss kind: {kind!r}")
    # log_softmax_abs is the log-softmax of |O|, with subgradient 0 at O = 0
    logp = batch_log_softmax(np.abs(O) if kind == "log_softmax_abs" else O)
    losses = -logp[rows, y]
    if not with_grad:
        return losses, None
    grad = np.exp(logp)
    grad[rows, y] -= 1.0
    if kind == "log_softmax_abs":
        grad *= np.sign(O)
    return losses, grad


def batch_loss_grad(kind: str, O, y, *, eps: float = DEFAULT_EPS, xi: float = 1.0):
    """Per-example losses and the dense gradient matrix for a batch.

    Returns (losses (n,), grad (n, D)).  A spherical loss's gradient is
    a*1 + 2*bq*o + g*e_c from its registry entry.
    """
    return _batch(kind, O, y, eps, xi, with_grad=True)


def batch_loss(kind: str, O, y, *, eps: float = DEFAULT_EPS, xi: float = 1.0) -> np.ndarray:
    """Per-example losses for a batch, without forming the (n, D) gradient."""
    return _batch(kind, O, y, eps, xi, with_grad=False)[0]


def batch_scores(kind: str, O, *, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Monotone class scores used for argmax / top-k evaluation."""
    O = np.asarray(O, dtype=np.float64)
    if kind in ("log_softmax", "mse", "spherical_bound_fixed", "spherical_bound_optimized"):
        return O
    if kind == "log_softmax_abs":
        return np.abs(O)
    if kind == "log_spherical":
        return O * O
    if kind == "log_taylor":
        return 1.0 + O + 0.5 * O * O
    raise ValueError(f"unknown loss kind: {kind!r}")


# kinds whose negll is another kind's loss: the bounds model a softmax output
NEGLL_KIND = {
    "spherical_bound_fixed": "log_softmax",
    "spherical_bound_optimized": "log_softmax",
}


def batch_negll(kind: str, O, y, *, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-example negative log-likelihood under the loss's own normalizer.

    This is the loss itself, except that MSE reports the squared error (its
    "loss" column convention) and the bound losses report the true
    log-softmax negll (``NEGLL_KIND``).
    """
    return batch_loss(NEGLL_KIND.get(kind, kind), O, y, eps=eps)
