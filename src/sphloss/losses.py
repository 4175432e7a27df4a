"""Normalizing functions and classification losses built on (s, q, o_c).

Every loss here returns both its value and an exact analytic gradient with
respect to the pre-activations o.  The losses that depend on o only through
the summary statistics s = sum(o), q = ||o||^2 and the target coordinate o_c
form the spherical family: each is defined once, as an entry that maps
(s, q, o_c, D) to the loss value and the partial derivatives (dL/ds, dL/dq,
dL/do_c).  Those partials are what make output-size-independent weight
updates possible (see ``sphloss.fast_output``).  ``LOSSES`` holds one
record per loss kind: its entry (None for the log-softmax baselines), its
prior-bias map, the kind it reports as negll and its rank key, which
orders the classes as the predicted probabilities do.
``loss_grad`` (one example) and the batch forms name a loss by its key.
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


@dataclass(frozen=True)
class LossGrad:
    """A loss value with its dense gradient and, when the loss belongs to
    the spherical family, the (dL/ds, dL/dq, dL/do_c) partials."""

    loss: float
    grad_o: np.ndarray
    partials: Optional[Partials] = None


@dataclass(frozen=True)
class LossParams:
    """Loss hyperparameters; each entry reads only its own."""

    eps: float = DEFAULT_EPS  # log_spherical stabilizer
    xi: float = 1.0  # bound variational parameter; the optimized bound ignores it


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


def _as_labels(y, D: int) -> np.ndarray:
    """``y`` as int64, or ValueError unless every label is an integer in
    [0, D); a float label such as 1.7 is rejected, not truncated."""
    y = np.asarray(y)
    if y.dtype.kind in "iu":
        # a negative label wraps to 2^64 - |y| as uint64, so one reduction
        # checks both ends of the range
        in_range = y.size == 0 or int(y.astype(np.uint64).max()) < D
    elif y.dtype.kind == "f" and np.all(np.isfinite(y) & (y == np.floor(y))):
        in_range = not np.any((y < 0) | (y >= D))
    else:
        raise ValueError("class labels must be integers")
    if not in_range:
        raise ValueError(f"class index out of range for {D} classes")
    return y.astype(np.int64)


def _row_stats(O: np.ndarray, y: np.ndarray):
    """(s, q, o_c) of each row of O with target y, as (n,) arrays."""
    return O.sum(axis=1), np.einsum("ij,ij->i", O, O), O[np.arange(len(y)), y]


def _dense_grad(O: np.ndarray, y: np.ndarray, a, bq, g) -> np.ndarray:
    """a*1 + 2*bq*o + g*e_c for each row o of O with target c = y, (n, D)."""
    grad = O * (2.0 * bq)[:, None]
    grad += a[:, None]
    grad[np.arange(len(y)), y] += g
    return grad


def summary_stats(o, c: int) -> SphericalStats:
    """Compute (s, q, o_c) for a pre-activation vector and target index."""
    o = _as_logits(o)
    stats = _row_stats(o[None], _as_labels([c], o.shape[0]))
    return SphericalStats(*(float(x[0]) for x in stats))


def softmax(o) -> np.ndarray:
    """Max-shifted softmax."""
    o = _as_logits(o)
    z = o - o.max()
    e = np.exp(z)
    return e / e.sum()


def logsumexp(o: np.ndarray) -> float:
    m = o.max()
    return float(m + np.log(np.exp(o - m).sum()))


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


def taylor_softmax(o) -> np.ndarray:
    """Normalizer from the second-order expansion of exp around zero.

    Numerators 1 + o_k + o_k^2/2 are bounded below by 0.5, so no
    stabilizer is needed.
    """
    o = _as_logits(o)
    num = 1.0 + o + 0.5 * o * o
    return num / num.sum()


def grad_from_partials(partials: Partials, o, c: int) -> np.ndarray:
    """Reconstruct the dense gradient (dL/ds)*1 + 2*(dL/dq)*o + (dL/do_c)*e_c."""
    o = _as_logits(o)
    return _dense_grad(o[None], _as_labels([c], o.shape[0]),
                       *np.asarray(partials, dtype=np.float64)[:, None])[0]


# most elements finite_diff_grad scores in one call (one pair of rows at least)
FD_BLOCK_ELEMENTS = 1 << 20


def finite_diff_grad(
    loss_fn: Callable[[np.ndarray, np.ndarray], np.ndarray], o, c: int,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient oracle: (L(o+h*e_i) - L(o-h*e_i)) / 2h.

    ``loss_fn(O, y)`` maps a matrix of pre-activation rows and their labels
    to the rows' losses, as ``batch_loss`` does; the 2D perturbed copies of
    ``o``, each labelled ``c``, are scored in blocks of at most
    ``FD_BLOCK_ELEMENTS`` elements, so memory stays bounded in D.
    """
    if not step > 0:
        raise ValueError("step must be > 0")
    o = _as_logits(o)
    D = o.shape[0]
    k = max(1, FD_BLOCK_ELEMENTS // (2 * D))  # coordinates per block
    grad = np.empty(D)
    for lo in range(0, D, k):
        E = step * np.eye(min(k, D - lo), D, lo)  # rows step*e_i, i = lo, lo+1, ...
        L = np.asarray(loss_fn(np.concatenate([o + E, o - E]), np.full(2 * len(E), c)))
        grad[lo:lo + len(E)] = (L[:len(E)] - L[len(E):]) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# The spherical family.  Each member is defined once, as an entry
# (s, q, o_c, D, params) -> (value, a, bq, g) over (n,) arrays, where
# a = dL/ds, bq = dL/dq and g = dL/do_c.  The per-example and batch forms
# below and the factored trainer all derive from these entries.
# ---------------------------------------------------------------------------


def _mse(s, q, o_c, D, p: LossParams):
    """Squared error against the one-hot target, ||o - e_c||^2 =
    q - 2*o_c + 1, with partials (0, 1, -2)."""
    n = q.shape[0]
    return q - 2.0 * o_c + 1.0, np.zeros(n), np.ones(n), np.full(n, -2.0)


def _log_spherical(s, q, o_c, D, p: LossParams):
    """-log spherical_softmax(o)_c = log(q + D*eps) - log(o_c^2 + eps):

    dL/do_c = 2*o_c/(q + D*eps) - 2*o_c/(o_c^2 + eps)
    dL/do_k = 2*o_k/(q + D*eps)   for k != c
    """
    if not p.eps > 0:
        raise ValueError("eps must be > 0")
    den = q + D * p.eps
    num_c = o_c * o_c + p.eps
    value = np.log(den) - np.log(num_c)
    return value, np.zeros(q.shape[0]), 1.0 / den, -2.0 * o_c / num_c


def _log_taylor(s, q, o_c, D, p: LossParams):
    """-log taylor_softmax(o)_c = log Z - log(1 + o_c + o_c^2/2) with
    Z = D + s + q/2:

    dL/do_c = (1+o_c)/Z - (1+o_c)/(1+o_c+o_c^2/2)
    dL/do_k = (1+o_k)/Z   for k != c
    """
    Z = D + s + 0.5 * q
    num_c = 1.0 + o_c + 0.5 * o_c * o_c
    # target-coordinate split: the (1+o_c)/Z part lives in the s/q partials
    return np.log(Z) - np.log(num_c), 1.0 / Z, 0.5 / Z, -(1.0 + o_c) / num_c


def _spherical_bound(s, q, o_c, D, p: LossParams, optimize: bool = False):
    from . import bound  # bound builds on this module

    return bound.spherical_bound_entry(s, q, o_c, D, p, optimize=optimize)


@dataclass(frozen=True)
class LossKind:
    """Everything the library knows about one loss kind."""

    # the spherical-family entry; None for a log-softmax baseline, whose
    # loss is the log-softmax of its key
    entry: Optional[Callable]
    # class frequencies p -> output biases whose predicted distribution is p
    prior_bias: Callable[[np.ndarray], np.ndarray]
    # the kind whose loss is reported as negll; None: the kind's own loss
    negll: Optional[str] = None
    # the key is |O + rank_shift|, or O itself when None
    rank_shift: Optional[float] = None

    def key(self, O: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The rank key of logits O: it orders each row's classes as the
        predicted probabilities do, ties included.  O itself when
        ``rank_shift`` is None, else |O + rank_shift| in ``out`` or in one
        fresh array; O is only read."""
        if self.rank_shift is None:
            return O
        K = np.add(O, self.rank_shift, out=out)
        return np.abs(K, out=K)


LOSSES = {
    "log_softmax": LossKind(None, np.log),
    # strictly positive biases: |b| = b matches the softmax rule up to
    # translation, and no coordinate sits on the |.| kink at zero
    "log_softmax_abs": LossKind(
        None, lambda p: np.log(p) - np.log(p.min()) + 1.0, rank_shift=0.0),
    "mse": LossKind(_mse, np.copy),
    # the eps term leaves a residual <= D*eps
    "log_spherical": LossKind(_log_spherical, np.sqrt, rank_shift=0.0),
    # b = -1 + sqrt(2*beta*p - 1) with beta = 1/(2*min p), the smallest beta
    # with all radicands >= 0, computed as p/min p - 1 so the minimum's
    # radicand is exactly 0.  This parks the min-frequency class at the
    # zero-gradient point o = -1, so it suits evaluation of an untrained
    # prior model better than training.  Its numerators 1 + O + O^2/2 =
    # ((1 + O)^2 + 1)/2 rank as |1 + O| does.
    "log_taylor": LossKind(_log_taylor, lambda p: -1.0 + np.sqrt(p / p.min() - 1.0),
                           rank_shift=1.0),
    # the bounds model a softmax output: its key, biases and negll
    "spherical_bound_fixed": LossKind(_spherical_bound, np.log, negll="log_softmax"),
    "spherical_bound_optimized": LossKind(
        partial(_spherical_bound, optimize=True), np.log, negll="log_softmax"),
}

def loss_record(kind: str) -> LossKind:
    """The ``LOSSES`` record of ``kind``; ValueError for an unknown kind."""
    try:
        return LOSSES[kind]
    except KeyError:
        raise ValueError(f"unknown loss kind: {kind!r}") from None


def loss_grad(kind: str, o, c: int, *, eps: float = DEFAULT_EPS,
              xi: float = 1.0) -> LossGrad:
    """The loss of one pre-activation vector ``o`` with target ``c``: the
    n = 1 row of ``kind``'s batch form, with its dense gradient and, for a
    spherical kind, its partials."""
    losses, grad, partials = _batch(kind, _as_logits(o)[None], [c],
                                    LossParams(eps=eps, xi=xi), with_grad=True)
    if partials is not None:
        partials = tuple(float(x[0]) for x in partials)
    return LossGrad(loss=float(losses[0]), grad_o=grad[0], partials=partials)


# ---------------------------------------------------------------------------
# Vectorized batch forms used by the trainer, over an (n, D) matrix of
# pre-activations.
# ---------------------------------------------------------------------------


# most logits one row group holds (one row at least): a pass over a group's
# scratch (half a MiB) stays in a core's cache, where a whole block's would
# not; the baselines and trainer._target_rank take their rows in groups
GROUP_ELEMENTS = 1 << 16


def _log_softmax(rec: LossKind, O: np.ndarray, y: np.ndarray, E: np.ndarray):
    """A baseline's loss logsumexp(Z) - Z_y for each row of O with target
    y, where Z is the record's key (O or |O|).  E, an array of O's shape,
    takes the key and is left holding exp(Z - max Z).  Returns (losses,
    the row sums of E)."""
    Z = rec.key(O, out=E)
    np.subtract(Z, Z.max(axis=1, keepdims=True), out=E)
    losses = -E[np.arange(len(y)), y]
    S = np.exp(E, out=E).sum(axis=1)
    losses += np.log(S)
    return losses, S


def _batch(kind: str, O, y, params: LossParams, with_grad: bool):
    """(losses (n,), dense gradient (n, D) or None, partials (a, bq, g) or
    None): the one body of the batch and per-example forms."""
    rec = loss_record(kind)
    O = np.asarray(O, dtype=np.float64)
    y = np.asarray(y)
    if O.ndim != 2 or y.ndim != 1 or O.shape[0] != y.shape[0]:
        raise ValueError("O must be (n, D) and y (n,)")
    y = _as_labels(y, O.shape[1])
    if rec.entry is not None:
        # the registry entry on the rows' (s, q, o_c)
        losses, *partials = rec.entry(*_row_stats(O, y), O.shape[1], params)
        return losses, _dense_grad(O, y, *partials) if with_grad else None, partials
    # a baseline's losses, one row group at a time: through one scratch, or
    # into the rows of the returned gradient
    n, D = O.shape
    g = max(1, GROUP_ELEMENTS // D)
    buf = np.empty((n if with_grad else min(g, n), D))
    losses = np.empty(n)
    for lo in range(0, n, g):
        Og, yg = O[lo:lo + g], y[lo:lo + g]
        E = buf[lo:lo + g] if with_grad else buf[:len(yg)]
        losses[lo:lo + g], S = _log_softmax(rec, Og, yg, E)
        if with_grad:
            np.divide(E, S[:, None], out=E)  # softmax(Z) - e_y
            E[np.arange(len(yg)), yg] -= 1.0
            if rec.rank_shift is not None:
                # times sign(O + shift) through boolean masks, not a third
                # float array; with the baselines' shift of 0 the compares
                # are exact, and log_softmax_abs takes the subgradient 0 at
                # O = 0
                np.negative(E, out=E, where=Og < -rec.rank_shift)
                np.multiply(E, 0.0, out=E, where=Og == -rec.rank_shift)
    return losses, buf if with_grad else None, None


def batch_loss_grad(kind: str, O, y, *, eps: float = DEFAULT_EPS, xi: float = 1.0):
    """Per-example losses and the dense gradient matrix for a batch.

    Returns (losses (n,), grad (n, D)).  A spherical loss's gradient is
    a*1 + 2*bq*o + g*e_c from its registry entry.
    """
    return _batch(kind, O, y, LossParams(eps=eps, xi=xi), with_grad=True)[:2]


def batch_loss(kind: str, O, y, *, eps: float = DEFAULT_EPS, xi: float = 1.0) -> np.ndarray:
    """Per-example losses for a batch, without forming the (n, D) gradient."""
    return _batch(kind, O, y, LossParams(eps=eps, xi=xi), with_grad=False)[0]


def batch_scores(kind: str, O) -> np.ndarray:
    """The rank key of logits O (``LossKind.key``): it orders each row's
    classes as the predicted probabilities do."""
    return loss_record(kind).key(np.asarray(O, dtype=np.float64))


def batch_negll(kind: str, O, y, *, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-example negative log-likelihood under the loss's own normalizer.

    This is the loss itself, except that MSE reports the squared error (its
    "loss" column convention) and the bound losses report the true
    log-softmax negll (their record's ``negll``).
    """
    return batch_loss(loss_record(kind).negll or kind, O, y, eps=eps)
