"""Output layers over D classes for spherical losses.

``FactoredOutputLayer`` never materializes the D x d weight matrix during
training: because a spherical loss's gradient over the pre-activations is
a*1 + 2*bq*o + g*e_c, the SGD update of W is a rank-structured matrix
(a*1h' + 2*bq*Whh' + g*e_c h') that can be absorbed into an implicit
representation in O(d^2) arithmetic per example, independent of D.

Representation:  W = (core + 1 u' + sum_c e_c r_c') @ A
with cached Gram matrix Q = W'W and column sums v = W'1 maintained by exact
O(d^2) recurrences.  The row offsets u and r_c live in pre-mixer
coordinates so that the mixer update A <- A(I - 2*lr*bq*hh') never has to
touch them (keeping the step cost independent of how many rows have been
corrected); converting a new correction into those coordinates uses the
maintained inverse of A.

``DenseOutputLayer`` is the naive O(D*d) reference the factored layer is
tested against in lockstep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .losses import SphericalStats


@dataclass(frozen=True)
class StepPartials:
    """One example's spherical-loss partials: a = dL/ds, bq = dL/dq,
    g = dL/do_c, with its target class and hidden vector."""

    a: float
    bq: float
    g: float
    c: int
    h: np.ndarray


def _dense_sgd_step(W: np.ndarray, h: np.ndarray, p: StepPartials, lr: float):
    """W <- W - lr*(a*1h' + 2*bq*Whh' + g*e_c h') in place, O(D*d)."""
    Wh = W @ h
    # simultaneous update: all three terms use the pre-step W
    W -= lr * p.a * h[None, :]
    W -= (2.0 * lr * p.bq) * np.outer(Wh, h)
    W[p.c] -= lr * p.g * h


class DenseOutputLayer:
    """Naive dense output layer; every update touches all D*d weights."""

    def __init__(self, W: np.ndarray):
        W = np.asarray(W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError("W must be a (D, d) matrix")
        if not np.all(np.isfinite(W)):
            raise ValueError("W must be finite")
        self.W = W.copy()

    @property
    def shape(self):
        return self.W.shape

    def forward_stats(self, h: np.ndarray, c: int) -> SphericalStats:
        h = self._check_h(h)
        o = self.W @ h
        return SphericalStats(s=float(o.sum()), q=float(o @ o), o_c=float(o[c]))

    def sgd_step(self, p: StepPartials, lr: float):
        _dense_sgd_step(self.W, self._check_h(p.h), p, lr)

    def row(self, c: int) -> np.ndarray:
        return self.W[c].copy()

    def _check_h(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.W.shape[1],):
            raise ValueError(f"h must have shape ({self.W.shape[1]},), got {h.shape}")
        return h


class FactoredOutputLayer:
    """Implicit D x d output weight matrix with O(d^2)-per-example exact
    spherical-loss SGD updates and O(d^2) loss statistics.

    ``op_count`` counts the arithmetic done by ``forward_stats`` and
    ``sgd_step`` (array element operations); it deliberately excludes
    rebases, which are amortized O(D*d^2) maintenance.
    """

    def __init__(
        self,
        W0: np.ndarray,
        *,
        cond_threshold: float = 1e8,
        corrections_frac: float = 0.25,
    ):
        W0 = np.asarray(W0, dtype=np.float64)
        if W0.ndim != 2:
            raise ValueError("W0 must be a (D, d) matrix")
        if not np.all(np.isfinite(W0)):
            raise ValueError("W0 must be finite")
        self.D, self.d = W0.shape
        self.core = W0.copy()
        self.mixer = np.eye(self.d)
        self.mixer_inv = np.eye(self.d)
        self.offset = np.zeros(self.d)
        self.corrections: Dict[int, np.ndarray] = {}
        self.gram = W0.T @ W0
        self.colsum = W0.sum(axis=0)
        self.cond_threshold = float(cond_threshold)
        self.corrections_frac = float(corrections_frac)
        self.op_count = 0
        self.rebase_count = 0

    @classmethod
    def zeros(cls, D: int, d: int, **kw) -> "FactoredOutputLayer":
        return cls(np.zeros((D, d)), **kw)

    @property
    def shape(self):
        return (self.D, self.d)

    def row(self, c: int) -> np.ndarray:
        """Row c of the represented matrix, in O(d^2)."""
        if not 0 <= c < self.D:
            raise ValueError(f"class index {c} out of range")
        inner = self.core[c] + self.offset
        r = self.corrections.get(c)
        if r is not None:
            inner = inner + r
        self.op_count += self.d * self.d + 2 * self.d
        return inner @ self.mixer

    def forward_stats(self, h: np.ndarray, c: int) -> SphericalStats:
        """(s, q, o_c) of o = Wh from the caches, never forming o."""
        h = self._check_h(h)
        s = float(self.colsum @ h)
        qh = self.gram @ h
        q = float(h @ qh)
        o_c = float(self.row(c) @ h)
        self.op_count += self.d * self.d + 3 * self.d
        return SphericalStats(s=s, q=max(q, 0.0), o_c=o_c)

    def backward_h(self, p: StepPartials) -> np.ndarray:
        """dL/dh = W' (a*1 + 2*bq*Wh + g*e_c) in O(d^2)."""
        h = self._check_h(p.h)
        out = p.a * self.colsum + 2.0 * p.bq * (self.gram @ h) + p.g * self.row(p.c)
        self.op_count += self.d * self.d + 4 * self.d
        return out

    def sgd_step(self, p: StepPartials, lr: float):
        """Apply W <- W - lr*(a*1h' + 2*bq*Whh' + g*e_c h') implicitly.

        Matches DenseOutputLayer.sgd_step (simultaneous update) exactly in
        exact arithmetic.
        """
        h = self._check_h(p.h)
        a, bq, g, c = float(p.a), float(p.bq), float(p.g), int(p.c)
        if not 0 <= c < self.D:
            raise ValueError(f"class index {c} out of range")
        if a == 0.0 and bq == 0.0 and g == 0.0:
            return

        d, D = self.d, self.D
        beta = 2.0 * lr * bq
        hh = float(h @ h)
        denom = 1.0 - beta * hh
        if abs(denom) < 1e-12:
            # the mixer update I - beta*hh' is (numerically) singular: fold
            # the representation into the core and apply this one step there
            self.rebase()
            _dense_sgd_step(self.core, h, p, lr)
            self.gram = self.core.T @ self.core
            self.colsum = self.core.sum(axis=0)
            return

        # --- cache recurrences (use pre-step quantities) ---------------
        w_c = self.row(c)
        v = self.colsum
        Q = self.gram
        t = Q @ h
        hQh = float(h @ t)
        # M Q M with M = I - beta*hh'
        Qn = Q - beta * (np.outer(t, h) + np.outer(h, t)) + (beta * beta * hQh) * np.outer(h, h)
        wz = (lr * a) * v + (lr * g) * w_c      # W'z, z = lr*a*1 + lr*g*e_c
        Mwz = wz - beta * float(h @ wz) * h
        ztz = lr * lr * (a * a * D + 2.0 * a * g + g * g)
        Qn -= np.outer(Mwz, h) + np.outer(h, Mwz)
        Qn += ztz * np.outer(h, h)
        self.gram = Qn
        self.colsum = v - beta * float(h @ v) * h - lr * (a * D + g) * h
        self.op_count += 7 * d * d + 8 * d

        # --- representation update --------------------------------------
        if beta != 0.0:
            Ah = self.mixer @ h
            self.mixer = self.mixer - beta * np.outer(Ah, h)
            hAinv = h @ self.mixer_inv
            self.mixer_inv = self.mixer_inv + (beta / denom) * np.outer(h, hAinv)
            self.op_count += 4 * d * d
        if a != 0.0 or g != 0.0:
            ht = h @ self.mixer_inv  # A_new^{-T} h
            self.op_count += d * d
            if a != 0.0:
                self.offset = self.offset - (lr * a) * ht
                self.op_count += 2 * d
            if g != 0.0:
                r = self.corrections.get(c)
                if r is None:
                    self.corrections[c] = -(lr * g) * ht
                else:
                    self.corrections[c] = r - (lr * g) * ht
                self.op_count += 2 * d

        if self._needs_rebase():
            self.rebase()

    def _needs_rebase(self) -> bool:
        cond_est = float(
            np.linalg.norm(self.mixer) * np.linalg.norm(self.mixer_inv)
        )
        self.op_count += 2 * self.d * self.d
        if cond_est > self.cond_threshold:
            return True
        return len(self.corrections) > max(1.0, self.corrections_frac * self.D)

    def rebase(self):
        """Fold mixer, offset and row corrections back into the core.

        The represented matrix is unchanged; the caches are recomputed at
        full precision.  O(D*d^2).
        """
        inner = self.core + self.offset[None, :]
        for c, r in self.corrections.items():
            inner[c] += r
        self.core = inner @ self.mixer
        self.mixer = np.eye(self.d)
        self.mixer_inv = np.eye(self.d)
        self.offset = np.zeros(self.d)
        self.corrections = {}
        self.gram = self.core.T @ self.core
        self.colsum = self.core.sum(axis=0)
        self.rebase_count += 1

    def materialize(self) -> DenseOutputLayer:
        """Dense copy of the represented matrix; for tests and export only."""
        inner = self.core + self.offset[None, :]
        for c, r in self.corrections.items():
            inner[c] = inner[c] + r
        return DenseOutputLayer(inner @ self.mixer)

    def _check_h(self, h) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        if h.shape != (self.d,):
            raise ValueError(f"h must have shape ({self.d},), got {h.shape}")
        return h


def bench(
    impls=("factored", "dense"),
    D_list=(1_000, 10_000, 100_000),
    d: int = 128,
    steps: int = 200,
    seed: int = 0,
) -> List[dict]:
    """Median/percentile per-step latency of each layer implementation.

    Returns rows with keys impl, D, d, step_us_p50, step_us_p90, steps.
    """
    rows = []
    for D in D_list:
        rng = np.random.default_rng(seed)
        W0 = rng.normal(scale=0.01, size=(D, d))
        hs = rng.normal(size=(steps, d))
        cs = rng.integers(0, D, size=steps)
        parts = rng.uniform(-0.5, 0.5, size=(steps, 3))
        for impl in impls:
            if impl == "factored":
                layer = FactoredOutputLayer(W0)
            elif impl == "dense":
                layer = DenseOutputLayer(W0)
            else:
                raise ValueError(f"unknown layer impl {impl!r}")
            times = np.empty(steps)
            for i in range(steps):
                p = StepPartials(
                    a=parts[i, 0], bq=parts[i, 1], g=parts[i, 2], c=int(cs[i]), h=hs[i]
                )
                t0 = time.perf_counter()
                layer.forward_stats(hs[i], int(cs[i]))
                layer.sgd_step(p, lr=0.01)
                times[i] = time.perf_counter() - t0
            rows.append(
                {
                    "impl": impl,
                    "D": D,
                    "d": d,
                    "step_us_p50": float(np.percentile(times, 50) * 1e6),
                    "step_us_p90": float(np.percentile(times, 90) * 1e6),
                    "steps": steps,
                }
            )
    return rows
