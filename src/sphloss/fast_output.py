"""Output layers over D classes for spherical losses.

``FactoredOutputLayer`` never materializes the D x d weight matrix during
training.  A spherical loss's gradient over the pre-activations of example
i is a_i*1 + 2*bq_i*o_i + g_i*e_{c_i}, so the SGD step of W over a
minibatch whose hidden vectors are the rows of H (m x d),

    W <- W - lr * sum_i (a_i 1h_i' + 2*bq_i W h_i h_i' + g_i e_{c_i} h_i'),

is a rank-structured update that is absorbed into an implicit
representation in O(m*d^2 + m^2*d) arithmetic, independent of D.  A single
example is the m = 1 case.

Representation:  W = (core + 1 u') @ A
with cached Gram matrix Q = W'W and column sums v = W'1 maintained by exact
recurrences.  The W h h' terms go into the mixer, A <- A(I - H'BH) with
B = diag(2*lr*bq).  The 1h' and e_c h' terms go into the offset u and into
rows of ``core``, in pre-mixer coordinates, which the maintained inverse of
A gives; that inverse is updated by the Woodbury identity through the
m x m matrix K = I - B H H'.  A rebase folds u and A into ``core``.

Evaluation reads the same representation: ``logits`` gives H W' as
(H A') core' + (H A' u) 1', and ``snapshot``/``restore`` copy and reinstate
the arrays that define the layer, so training keeps its best state without
forming W.  ``materialize`` builds W for tests and export only.

``DenseOutputLayer`` is the naive O(D*d) layer: both the reference the
factored layer is tested against in lockstep and the dense trainer's
output layer, with the same ``logits``, ``snapshot`` and ``restore``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import SphericalStats, _as_labels


@dataclass(frozen=True)
class StepPartials:
    """Spherical-loss partials a = dL/ds, bq = dL/dq, g = dL/do_c with the
    target classes c and hidden vectors h: (m,) arrays and an (m, d) h for
    a minibatch, or scalars and a (d,) h for one example."""

    a: float | np.ndarray
    bq: float | np.ndarray
    g: float | np.ndarray
    c: int | np.ndarray
    h: np.ndarray


def _as_batch(h, c, D: int, d: int):
    """(H (m, d), c (m,), one): a (d,) h with a scalar c is the m = 1 batch."""
    H = np.asarray(h, dtype=np.float64)
    one = H.ndim == 1
    if one:
        H = H[None, :]
    if H.ndim != 2 or H.shape[1] != d:
        raise ValueError(f"h must have shape ({d},) or (m, {d}), got {np.shape(h)}")
    c = np.asarray(c)
    if c.shape != (() if one else (H.shape[0],)):
        raise ValueError(f"c must match h's {H.shape[0]} rows, got shape {c.shape}")
    return H, _as_labels(c, D).reshape(-1), one


def _as_partials(p: StepPartials, D: int, d: int):
    """(H, c, a, bq, g, one) of ``p``, each partial an (m,) array."""
    H, c, one = _as_batch(p.h, p.c, D, d)
    a, bq, g = (np.asarray(x, dtype=np.float64).reshape(-1) for x in (p.a, p.bq, p.g))
    if not a.shape == bq.shape == g.shape == c.shape:
        raise ValueError("a, bq and g must match h's rows")
    return H, c, a, bq, g, one


def _stats(s, q, o_c, one: bool) -> SphericalStats:
    if one:
        return SphericalStats(s=float(s[0]), q=float(q[0]), o_c=float(o_c[0]))
    return SphericalStats(s=s, q=q, o_c=o_c)


def _as_weights(W, copy: bool) -> np.ndarray:
    """W as a finite (D, d) float64 matrix: a copy, or W itself when the
    caller hands it over (``copy=False``)."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or not np.all(np.isfinite(W)):
        raise ValueError("W must be a finite (D, d) matrix")
    return W.copy() if copy else W


def _dense_sgd_step(W: np.ndarray, H, c, a, bq, g, lr: float):
    """W <- W - lr*sum_i(a_i 1h_i' + 2*bq_i Wh_ih_i' + g_i e_{c_i}h_i') in
    place, O(D*d*m)."""
    WH = W @ H.T  # simultaneous update: every term uses the pre-step W
    W -= lr * (a @ H)
    W -= WH @ ((2.0 * lr * bq)[:, None] * H)
    np.add.at(W, c, -(lr * g)[:, None] * H)


class DenseOutputLayer:
    """Naive dense output layer; every update touches all D*d weights."""

    def __init__(self, W: np.ndarray, *, copy: bool = True):
        self.W = _as_weights(W, copy)

    def forward_stats(self, h: np.ndarray, c) -> SphericalStats:
        H, c, one = _as_batch(h, c, *self.W.shape)
        O = H @ self.W.T
        return _stats(O.sum(axis=1), np.einsum("ij,ij->i", O, O),
                      O[np.arange(len(c)), c], one)

    def backward_h(self, p: StepPartials) -> np.ndarray:
        """dL/dh = W'(a*1 + 2*bq*Wh + g*e_c) for each row of h."""
        H, c, a, bq, g, one = _as_partials(p, *self.W.shape)
        grad_o = (2.0 * bq)[:, None] * (H @ self.W.T) + a[:, None]
        grad_o[np.arange(len(c)), c] += g
        out = grad_o @ self.W
        return out[0] if one else out

    def sgd_step(self, p: StepPartials, lr: float):
        _dense_sgd_step(self.W, *_as_partials(p, *self.W.shape)[:5], lr)

    def row(self, c: int) -> np.ndarray:
        return self.W[c].copy()

    def logits(self, H: np.ndarray) -> np.ndarray:
        """O = H W' for the rows of H, (n, D)."""
        return H @ self.W.T

    def snapshot(self) -> np.ndarray:
        """A copy of W."""
        return self.W.copy()

    def restore(self, snapshot: np.ndarray):
        """Return to the state of ``snapshot``, taking ownership of it."""
        self.W = snapshot


class FactoredOutputLayer:
    """Implicit D x d output weight matrix with exact spherical-loss
    minibatch SGD updates in O(m*d^2) and loss statistics in O(d^2) per
    example.

    ``op_count`` counts the arithmetic done by ``forward_stats``,
    ``backward_h`` and ``sgd_step`` (array element operations); it
    deliberately excludes rebases, which are amortized O(D*d^2) maintenance.
    """

    def __init__(self, W0: np.ndarray, *, cond_threshold: float = 1e8,
                 copy: bool = True):
        W0 = _as_weights(W0, copy)
        self.D, self.d = W0.shape
        self._reset(W0)
        self.cond_threshold = float(cond_threshold)
        self.op_count = 0
        self.rebase_count = 0

    @classmethod
    def zeros(cls, D: int, d: int, **kw) -> "FactoredOutputLayer":
        return cls(np.zeros((D, d)), copy=False, **kw)

    def row(self, c: int) -> np.ndarray:
        """Row c of the represented matrix, in O(d^2)."""
        if not 0 <= c < self.D:
            raise ValueError(f"class index {c} out of range")
        return self._rows(np.array([c]))[0]

    def _rows(self, c: np.ndarray) -> np.ndarray:
        """Rows c of the represented matrix, (m, d)."""
        self.op_count += len(c) * (self.d * self.d + self.d)
        return (self.core[c] + self.offset) @ self.mixer

    def forward_stats(self, h: np.ndarray, c) -> SphericalStats:
        """(s, q, o_c) of o = Wh for each row of h, from the caches, never
        forming o."""
        H, c, one = _as_batch(h, c, self.D, self.d)
        s = H @ self.colsum
        q = np.einsum("ij,ij->i", H @ self.gram, H)
        o_c = np.einsum("ij,ij->i", self._rows(c), H)
        self.op_count += len(c) * (self.d * self.d + 4 * self.d)
        return _stats(s, np.maximum(q, 0.0), o_c, one)

    def backward_h(self, p: StepPartials) -> np.ndarray:
        """dL/dh = W'(a*1 + 2*bq*Wh + g*e_c) for each row of h, in O(d^2)
        per row."""
        H, c, a, bq, g, one = _as_partials(p, self.D, self.d)
        out = (np.outer(a, self.colsum) + (2.0 * bq)[:, None] * (H @ self.gram)
               + g[:, None] * self._rows(c))
        self.op_count += len(c) * (self.d * self.d + 5 * self.d)
        return out[0] if one else out

    def sgd_step(self, p: StepPartials, lr: float):
        """Apply W <- W - lr*sum_i(a_i 1h_i' + 2*bq_i Wh_ih_i' + g_i e_{c_i}h_i')
        implicitly, as one update.

        Matches DenseOutputLayer.sgd_step (simultaneous update) exactly in
        exact arithmetic, repeated classes included.
        """
        H, c, a, bq, g, _ = _as_partials(p, self.D, self.d)
        (m, d), D = H.shape, self.D
        beta = 2.0 * lr * bq
        BH = beta[:, None] * H
        # (I - H'BH)^-1 = I + H' K^-1 BH; det K = det(I - H'BH)
        K = np.eye(m) - BH @ H.T
        try:
            K_inv = np.linalg.inv(K)
        except np.linalg.LinAlgError:
            K_inv = None
        if K_inv is None or not np.abs(K_inv).max() < 1e12:
            # the mixer update I - H'BH is (numerically) singular: apply this
            # one step to the represented matrix and make that the core, a
            # rebase with the step folded in
            W = (self.core + self.offset) @ self.mixer
            _dense_sgd_step(W, H, c, a, bq, g, lr)
            self._reset(W)
            self.rebase_count += 1
            return

        # --- cache recurrences (use pre-step quantities) ---------------
        # W_new = W M - Z H with M = I - H'BH and Z = lr(1a' + E_c diag g)
        Q, v = self.gram, self.colsum
        T = Q @ H.T
        WZ = lr * (np.outer(v, a) + self._rows(c).T * g)
        P = WZ - H.T @ (BH @ WZ)  # M W'Z
        ZZ = lr * lr * (D * np.outer(a, a) + np.outer(a, g) + np.outer(g, a)
                        + np.outer(g, g) * (c[:, None] == c[None, :]))
        C = np.outer(beta, beta) * (H @ T) + ZZ
        XH = (T * beta + P - 0.5 * (H.T @ C)) @ H
        self.gram = Q - XH - XH.T
        self.colsum = v - H.T @ (BH @ v + lr * (D * a + g))

        # --- representation update --------------------------------------
        self.mixer = self.mixer - (self.mixer @ H.T) @ BH
        self.mixer_inv = self.mixer_inv + H.T @ (K_inv @ (BH @ self.mixer_inv))
        G = H @ self.mixer_inv  # the step's rows in new pre-mixer coordinates
        self.offset = self.offset - lr * (a @ G)
        np.add.at(self.core, c, -(lr * g)[:, None] * G)
        self.op_count += m * (7 * d * d + 6 * m * d + 10 * d) + 4 * d * d

        if np.linalg.norm(self.mixer) * np.linalg.norm(self.mixer_inv) > self.cond_threshold:
            self.rebase()

    def rebase(self):
        """Fold the mixer and the offset back into the core.

        The represented matrix is unchanged; the caches are recomputed at
        full precision.  O(D*d^2).
        """
        self._reset((self.core + self.offset) @ self.mixer)
        self.rebase_count += 1

    def _reset(self, W: np.ndarray):
        """Represent W as the core itself, with the caches computed from it
        at full precision; takes ownership of W.  O(D*d^2)."""
        self.core = W
        self.mixer = np.eye(self.d)
        self.mixer_inv = np.eye(self.d)
        self.offset = np.zeros(self.d)
        self.gram = W.T @ W
        self.colsum = W.sum(axis=0)

    # the arrays that define the layer: the representation and its caches
    _STATE = ("core", "mixer", "mixer_inv", "offset", "gram", "colsum")

    def logits(self, H: np.ndarray) -> np.ndarray:
        """O = H W' for the rows of H, (n, D), as (H A') core' + (H A' u) 1':
        O(n*d^2 + n*d*D) with no D x d temporary.  Evaluation, so not
        counted in ``op_count``."""
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[1] != self.d:
            raise ValueError(f"H must have shape (n, {self.d}), got {H.shape}")
        G = H @ self.mixer.T
        O = G @ self.core.T
        O += (G @ self.offset)[:, None]
        return O

    def snapshot(self) -> dict:
        """Copies of the arrays that define the layer; O(D*d), no product."""
        return {name: getattr(self, name).copy() for name in self._STATE}

    def restore(self, snapshot: dict):
        """Return to the state of ``snapshot``, taking ownership of its
        arrays: a snapshot is restored at most once."""
        for name in self._STATE:
            setattr(self, name, snapshot[name])

    def materialize(self) -> DenseOutputLayer:
        """Dense copy of the represented matrix; for tests and export only."""
        return DenseOutputLayer((self.core + self.offset) @ self.mixer, copy=False)

