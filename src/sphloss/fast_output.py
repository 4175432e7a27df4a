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
m x m matrix K = I - B H H'.  A layer whose weights are zero but for a
last column b, the MLP's zero-initialized output layer, starts with
Q = (b.b) e e' and v = (sum b) e for e the last coordinate: no product and
no pass over core.

A training step is three calls on the same (h, c): ``forward_stats``
starts it and always computes afresh the rows R = (core[c] + u)A and H Q;
``backward_h`` and ``sgd_step`` reuse them while the bytes of (h, c) are
unchanged and no step, fold, rebase or restore came between, and compute
them again otherwise.  ``sgd_step`` forms H H' once, for K and for the
step's rows in the new pre-mixer coordinates, and updates Q, v, A and its
inverse in place: every d x d correction is one BLAS product of inner
dimension m (2m for the Gram matrix at small m).

When the mixer's condition estimate crosses ``cond_threshold``, a few of
its singular directions have collapsed (the rectified inputs share a mean
direction).  A fold moves just those k directions out of the mixer, in
O(d^3): it updates the mixer, its inverse and the offset, and records its
factor M = I + U_k R, by which every row of ``core`` is to be multiplied,
instead of rewriting the D rows.  Each row carries the number of recorded
factors it has taken; a step brings the rows it reads up to date first,
through a cached product of the factors, in two small products.  A flush
applies the pending factors to the rest of ``core`` in one O(D*d*r) pass,
r being their summed rank, which also measures how far Q and v have drifted
from W.  It runs when r passes ``FOLD_MAX_RANK * d`` and before ``logits``
and ``snapshot``.  W, Q and v are unchanged by a fold or a flush in exact
arithmetic.  A full rebase, (core + 1u')A as the new core with the caches
recomputed in O(D*d^2), runs only when the fold does not apply or the
flush finds the Gram drift above ``DRIFT_TOL``.

Evaluation reads the same representation: ``logits`` gives H W' as
(H A') core' + (H A' u) 1', and ``snapshot``/``restore`` copy and reinstate
the arrays that define the layer, so training keeps its best state without
forming W.  ``materialize`` builds W for tests and export only, composing
the pending factors into its product without writing ``core``.

``DenseOutputLayer`` is the naive O(D*d) layer: both the reference the
factored layer is tested against in lockstep and the dense trainer's
output layer, with the same ``logits``, ``snapshot`` and ``restore``.
Each takes the trainer's step on a batch's mean loss, ``train_step``: a
Nesterov step of W for the dense layer, the plain SGD step above for the
factored one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .losses import SphericalStats, _as_labels, _dense_grad, _row_stats

# rows per block in the passes over core: 512 x 128 doubles is 512 KiB
BLOCK_ROWS = 512
# a singular value of the mixer below FOLD_CUT * sigma_max has collapsed: at
# each threshold crossing of a D = 5000, d = 128 stream of rectified inputs
# one singular value was near 9e-8 and the rest above 0.4
FOLD_CUT = 1e-2
# more than FOLD_MAX_RANK * d collapsed directions take a full rebase, and a
# pending rank above it takes a flush, so one flush applies at most twice
# that: its 2*D*d*r multiply-adds are at most half of the rebase's D*d^2;
# with d < 8 every crossing rebases.  The pass is bound by OpenBLAS's narrow
# products, not by memory: at D = 1e5, d = 128 (2 vCPUs, one BLAS thread) a
# one-direction pass took 45-54 ms against the rebase's 137-182 ms; its
# (512, 128) @ (128, 5) products took 20.6 ms in total and its rank-1
# updates 11.6 ms, where a plain read-and-write pass over core took 11.4 ms
FOLD_MAX_RANK = 1 / 8
# drift that a flush measures above this takes a full rebase (Gram) or the
# exact column sums: 10x under the benchmark's 1e-9 exactness gate.  The Gram
# estimate was 0.6-1.9x the drift that the rebase after it measured, on
# D = 5000 and D = 1e5 streams of rectified inputs
DRIFT_TOL = 1e-10


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


@dataclass(frozen=True)
class _StepContext:
    """What forward_stats computed for one (H, c) at one layer state."""

    key: tuple  # the bytes of H and c, so that an in-place edit shows
    R: np.ndarray  # rows c of the represented matrix
    HQ: np.ndarray  # H @ gram


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


def _bias_weights(D: int, d: int, bias) -> np.ndarray:
    """A fresh D x d zero matrix with ``bias`` in its last column; with no
    bias its zero pages are left unwritten."""
    W = np.zeros((D, d))
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (D,) or not np.all(np.isfinite(bias)):
            raise ValueError(f"bias must be {D} finite reals")
        W[:, -1] = bias
    return W


def _rel_diff(x: np.ndarray, ref: np.ndarray) -> float:
    """||x - ref|| / ||ref||, or ||x - ref|| when ref is zero."""
    diff, scale = np.linalg.norm(x - ref), np.linalg.norm(ref)
    return float(diff / scale if scale > 0 else diff)


def _blocked_products(dO: np.ndarray, H: np.ndarray):
    """(rows, dO[:, rows]' H) over slices of BLOCK_ROWS rows, the last of up
    to BLOCK_ROWS + 1, that cover range(D), each in one reused buffer: the
    D x d product dO'H is never formed, and the blocks are bitwise its rows
    (numpy would take a one-row tail as a matrix-vector product, whose sums
    round otherwise).  ``np.dot`` hands an inner dimension of 1 to BLAS
    where ``@`` does not."""
    D = dO.shape[1]
    buf = np.empty((min(BLOCK_ROWS + 1, D), H.shape[1]))
    lo = 0
    for hi in [*range(BLOCK_ROWS, D - 1, BLOCK_ROWS), D]:
        yield slice(lo, hi), np.dot(dO[:, lo:hi].T, H, out=buf[:hi - lo])
        lo = hi


def nesterov_step(params: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
                  lr: float, mu: float):
    """In-place Nesterov update: v <- mu*v - lr*g; p <- p + mu*v - lr*g."""
    velocity *= mu
    velocity -= lr * grad
    params += mu * velocity
    params -= lr * grad


def _dense_sgd_step(W: np.ndarray, H, c, a, bq, g, lr: float):
    """W <- W - lr*dO'H in place, O(D*d*m), dO being the dense gradient of
    the rows of H W' at the pre-step W (a simultaneous update)."""
    dO = _dense_grad(H @ W.T, c, a, bq, g)
    for rows, G in _blocked_products(dO, H):
        G *= lr
        W[rows] -= G


class DenseOutputLayer:
    """Naive dense output layer; every update touches all D*d weights."""

    def __init__(self, W: np.ndarray, *, copy: bool = True):
        self.W = _as_weights(W, copy)
        # train_step's Nesterov velocity of W: zero pages, left unwritten
        # (so not resident) until the first step
        self.velocity = np.zeros(self.W.shape)

    @classmethod
    def zeros(cls, D: int, d: int, bias=None) -> "DenseOutputLayer":
        """The layer whose D x d weights are zero but for a last column
        ``bias`` (zero when None)."""
        return cls(_bias_weights(D, d, bias), copy=False)

    def forward_stats(self, h: np.ndarray, c) -> SphericalStats:
        H, c, one = _as_batch(h, c, *self.W.shape)
        return _stats(*_row_stats(H @ self.W.T, c), one)

    def backward_h(self, p: StepPartials) -> np.ndarray:
        """dL/dh = W'(a*1 + 2*bq*Wh + g*e_c) for each row of h."""
        H, c, a, bq, g, one = _as_partials(p, *self.W.shape)
        out = _dense_grad(H @ self.W.T, c, a, bq, g) @ self.W
        return out[0] if one else out

    def sgd_step(self, p: StepPartials, lr: float):
        _dense_sgd_step(self.W, *_as_partials(p, *self.W.shape)[:5], lr)

    def train_step(self, H: np.ndarray, y: np.ndarray, kind: str, params: losses.LossParams,
                   lr: float, mu: float, backward: bool = True):
        """A Nesterov step of W on the mean loss of the rows of H (m, d) with
        targets y, at the cost of its three (m x D x d) products: bitwise
        ``nesterov_step`` on the whole gradient dO'H, dO being the mean
        loss's gradient over the logits.  Returns (the rows' losses, dL/dH =
        dO W at the pre-step W, or None without ``backward``)."""
        # O lives through the update: the step's freed (m, D) arrays then
        # leave heap room for evaluate's logits
        O = self.logits(H)
        step_losses, dO = losses.batch_loss_grad(kind, O, y, eps=params.eps, xi=params.xi)
        dO /= len(y)
        dH = dO @ self.W if backward else None
        for rows, G in _blocked_products(dO, H):
            nesterov_step(self.W[rows], self.velocity[rows], G, lr, mu)
        return step_losses, dH

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
    deliberately excludes folds, flushes, rebases and bringing a step's
    rows up to date with the pending folds, which are amortized
    maintenance.  The rows and H Q of a step are counted each time they
    are computed: once per step when ``forward_stats`` starts it; the
    step's m x m inverse counts as m^3.
    ``fold_count``, ``flush_count`` and ``rebase_count`` count folds,
    flushes and full rebases, ``q_clamps`` the rows whose cached q fell
    below zero and was clamped, and ``last_drift`` is the (Gram,
    column-sum) relative drift of the caches from the represented matrix
    as the last flush or rebase measured it, a flush's Gram part through a
    probe (None before either).
    """

    def __init__(self, W0: np.ndarray, *, cond_threshold: float = 1e5,
                 copy: bool = True, _caches=None):
        # _caches: the (W0'W0, W0'1) of a W0 whose caches its builder knows
        # in closed form (``zeros``), which skips their O(D*d^2) product
        # and the pass over W0
        W0 = _as_weights(W0, copy) if _caches is None else W0
        self.D, self.d = W0.shape
        self._reset(W0, _caches)
        self._buf = np.empty((self.d, self.d))  # the step's d x d product
        self.cond_threshold = float(cond_threshold)
        self.op_count = 0
        self.rebase_count = 0
        self.fold_count = 0
        self.flush_count = 0
        self.q_clamps = 0
        self.last_drift = None

    @classmethod
    def zeros(cls, D: int, d: int, bias=None) -> "FactoredOutputLayer":
        """The layer whose D x d weights are zero but for a last column
        ``bias`` (zero when None), with its caches in closed form, in
        O(D + d^2): with e the last coordinate, W'W = (b.b) e e' and
        W'1 = (sum b) e; no product, and with no bias no pass over core."""
        W = _bias_weights(D, d, bias)
        gram, colsum = np.zeros((d, d)), np.zeros(d)
        if bias is not None:
            b = W[:, -1]
            gram[-1, -1], colsum[-1] = np.dot(b, b), b.sum()
        return cls(W, copy=False, _caches=(gram, colsum))

    def _step_terms(self, H: np.ndarray, c: np.ndarray):
        """The rows R = (core[c] + u)A and H Q of a step, (m, d) each, the
        rows of core brought up to date with the pending folds first."""
        self.op_count += len(c) * (2 * self.d * self.d + self.d)
        X = self.core[c]
        if self._pending and len(c):
            tags = self._tag[c]
            if tags.min() < self._pending:  # rows that are current take zeros
                X = self._with_pending(X, tags)
                self.core[c] = X
                self._tag[c] = self._pending
        return (X + self.offset) @ self.mixer, H @ self.gram

    def _with_pending(self, X: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Rows X of core, which have taken ``tags`` folds each, times the
        factors they lack: X S_t, S_t = I + U_t C_t being the product of the
        factors after the t-th.  U_t C_t is U C with the columns of U (and
        rows of C) of the first t folds left out, so masking X U does it."""
        XU = np.dot(X, self._fold_U)
        XU *= self._fold_of > tags[:, None]
        return X + np.dot(XU, self._fold_C)

    def _as_step(self, p: StepPartials):
        """(H, c, a, bq, g, one, R, HQ) of ``p``: R and HQ are the ones
        forward_stats computed when p has its (h, c) and no step, fold,
        rebase or restore came between, else computed afresh."""
        H, c, a, bq, g, one = _as_partials(p, self.D, self.d)
        ctx = self._ctx
        if ctx is not None and ctx.key == (H.tobytes(), c.tobytes()):
            return H, c, a, bq, g, one, ctx.R, ctx.HQ
        return H, c, a, bq, g, one, *self._step_terms(H, c)

    def forward_stats(self, h: np.ndarray, c) -> SphericalStats:
        """(s, q, o_c) of o = Wh for each row of h, from the caches, never
        forming o.  Always computed afresh; starts the step that
        ``backward_h`` and ``sgd_step`` on the same (h, c) continue."""
        H, c, one = _as_batch(h, c, self.D, self.d)
        R, HQ = self._step_terms(H, c)
        self._ctx = _StepContext((H.tobytes(), c.tobytes()), R, HQ)
        s = H @ self.colsum
        q = np.einsum("ij,ij->i", HQ, H)
        o_c = np.einsum("ij,ij->i", R, H)
        self.op_count += len(c) * 4 * self.d
        self.q_clamps += int(np.count_nonzero(q < 0.0))
        return _stats(s, np.maximum(q, 0.0), o_c, one)

    def backward_h(self, p: StepPartials) -> np.ndarray:
        """dL/dh = W'(a*1 + 2*bq*Wh + g*e_c) for each row of h, in O(d^2)
        per row, or O(d) when forward_stats started the step."""
        H, c, a, bq, g, one, R, HQ = self._as_step(p)
        out = a[:, None] * self.colsum
        out += (2.0 * bq)[:, None] * HQ
        out += g[:, None] * R
        self.op_count += len(c) * 5 * self.d
        return out[0] if one else out

    def sgd_step(self, p: StepPartials, lr: float):
        """Apply W <- W - lr*sum_i(a_i 1h_i' + 2*bq_i Wh_ih_i' + g_i e_{c_i}h_i')
        implicitly, as one update; an empty batch is a no-op.

        Matches DenseOutputLayer.sgd_step (simultaneous update) exactly in
        exact arithmetic, repeated classes included.  One path for every m:
        H H' is formed once and gives both K and the step's rows in the new
        pre-mixer coordinates, H A^-1 + (H H') K^-1 (B H A^-1), so five
        products of the step have a d x d output and the rest are of size
        m^2 d.  The caches and the mixer and its inverse are updated in
        place through one reused d x d buffer; every product goes through
        ``np.dot``, which hands an inner dimension of 1 to BLAS where ``@``
        does not.  Rows of ``core`` take one product that sums a repeated
        class's terms.
        """
        H, c, a, bq, g, _, R, HQ = self._as_step(p)
        self._ctx = None
        (m, d), D = H.shape, self.D
        if not m:
            return
        beta = 2.0 * lr * bq
        HH = np.dot(H, H.T)
        # (I - H'BH)^-1 = I + H' K^-1 BH; det K = det(I - H'BH)
        K = np.eye(m) - beta[:, None] * HH
        try:
            K_inv = np.linalg.inv(K)
        except np.linalg.LinAlgError:
            K_inv = None
        if K_inv is None or not np.abs(K_inv).max() < 1e12:
            # the mixer update I - H'BH is (numerically) singular: apply this
            # one step to the represented matrix and make that the core, a
            # rebase with the step folded in
            W = self._weights(out=self.core)
            _dense_sgd_step(W, H, c, a, bq, g, lr)
            self._reset(W)
            self.rebase_count += 1
            return

        # --- cache recurrences (use pre-step quantities) ---------------
        # W_new = W M - Z H with M = I - H'BH and Z = 1a' + E_c diag g, lr
        # folded into a and g; E_c'E_c = same, same[i, j] being c_i = c_j.
        # Then Q_new = Q - XH - (XH)' with X' = BHQ + Z'W - N'H, where
        # N = B H W'Z + (B HQH'B + Z'Z)/2 = B H U' + Z'Z/2, U = Z'W + BHQ/2
        Q, v, buf = self.gram, self.colsum, self._buf
        la, lg = lr * a, lr * g
        same = c[:, None] == c
        BHQ = beta[:, None] * HQ
        ZW = la[:, None] * v + lg[:, None] * R  # Z'W
        U = ZW + 0.5 * BHQ
        N = np.dot(H, U.T)
        N *= beta[:, None]
        N += 0.5 * (la[:, None] * (D * la + lg) + lg[:, None] * np.where(same, la + lg, la))
        Xt = U + 0.5 * BHQ - np.dot(N.T, H)  # X'
        # for small m as one product [X | H'][H ; X'], which doubles the
        # multiply-adds but skips the strided pass over (XH)' (17 against
        # 29 us at m = 1, d = 129; 85 against 46 at m = 48)
        if 16 * m <= d:
            Q -= np.dot(np.vstack([Xt, H]).T, np.vstack([H, Xt]), out=buf)
        else:
            Q -= np.dot(Xt.T, H, out=buf)
            Q -= buf.T
        v -= np.dot(H.T, beta * np.dot(H, v) + D * la + lg)

        # --- representation update --------------------------------------
        # A <- A - (A H')(B H) and A^-1 <- A^-1 + H' T, T = K^-1 B H A^-1
        self.mixer -= np.dot(np.dot(self.mixer, H.T), beta[:, None] * H, out=buf)
        Y = np.dot(H, self.mixer_inv)
        T = np.dot(K_inv, beta[:, None] * Y)
        self.mixer_inv += np.dot(H.T, T, out=buf)
        G = Y + np.dot(HH, T)  # H A^-1 with the new A^-1
        self.offset -= la @ G
        # each row of c takes its class's summed terms, so the rows of a
        # repeated class are written with the same value
        self.core[c] -= np.dot(same * lg, G)
        self.op_count += m * (5 * d * d + 6 * m * d + m * m + 12 * d) + 6 * d * d

        A, A_inv = self.mixer, self.mixer_inv
        if np.sqrt(np.vdot(A, A) * np.vdot(A_inv, A_inv)) > self.cond_threshold:
            self._fold()

    def train_step(self, H: np.ndarray, y: np.ndarray, kind: str, params: losses.LossParams,
                   lr: float, mu: float, backward: bool = True):
        """The exact plain SGD step on the mean loss of the rows of H (m, d)
        with targets y, through ``forward_stats``, the loss's entry,
        ``backward_h`` and ``sgd_step``; returns what the dense layer's
        does.  ``mu`` is not applied: exact momentum is not implemented."""
        m = len(y)
        st = self.forward_stats(H, y)
        step_losses, a, bq, g = losses.loss_record(kind).entry(st.s, st.q, st.o_c, self.D, params)
        p = StepPartials(a=a, bq=bq, g=g, c=y, h=H)
        dH = self.backward_h(p) / m if backward else None
        self.sgd_step(p, lr / m)
        return step_losses, dH

    def _fold(self):
        """Move the mixer's collapsed singular directions out of it, or
        rebase when none or more than FOLD_MAX_RANK * d have collapsed.

        With A = U S V' and U_k, S_k the k directions whose singular value
        is below FOLD_CUT * sigma_max, M = I + U_k R with R = (S_k - I) U_k'
        gives W = (core M + 1 (M u)') (M^-1 A), so the fold sets u <- M u
        and A <- M^-1 A = A + U_k (I - S_k) V_k', whose inverse comes from
        the same SVD with S_k set to 1, and records M as pending on every
        row of core.  W, Q and v are unchanged in exact arithmetic, so the
        caches are kept.  The pending factors are kept as one U C: U holds
        each factor's U_k and C its R times the factors after it, so that
        the product of all of them is I + U C.  A pending rank above
        FOLD_MAX_RANK * d takes a flush.  O(d^3), or O(D*d*r) with the flush.
        """
        self._ctx = None
        U, sig, Vt = np.linalg.svd(self.mixer)
        cut = sig < FOLD_CUT * sig[0]
        k = int(np.count_nonzero(cut))
        if not 0 < k <= FOLD_MAX_RANK * self.d:
            self.rebase()
            return
        Uk, Sk = U[:, cut], sig[cut]
        R = (Sk - 1.0)[:, None] * Uk.T  # core M = core + (core U_k) R
        self.offset = self.offset + (self.offset @ Uk) @ R
        self.mixer = self.mixer + (Uk * (1.0 - Sk)) @ Vt[cut]
        sig[cut] = 1.0
        self.mixer_inv = (Vt.T / sig) @ U.T
        C = self._fold_C
        self._pending += 1
        self._fold_U = np.hstack([self._fold_U, Uk])
        self._fold_C = np.vstack([C + (C @ Uk) @ R, R])
        self._fold_of = np.append(self._fold_of, np.full(k, self._pending))
        self.fold_count += 1
        if self._fold_of.size > FOLD_MAX_RANK * self.d:
            self._flush()

    def _flush(self):
        """Apply the pending folds to the rows of core that lack them, in one
        pass that also measures the caches' drift; a no-op with none pending.

        Each block of core is read once for its fold and probe columns,
        core [U | AX], with the columns of the folds a row has taken zeroed,
        and once more, updated, for core'core AX and core'1 as
        core' [core S AX | 1], where (core S) AX = core AX + (core U)(C AX).
        The Gram drift is estimated as ||Q X - W'W X|| / ||W'W X|| through
        the fixed probe X.  Gram drift above DRIFT_TOL takes a full rebase;
        column sums that far off are replaced by the exact ones.  O(D*d*r).
        """
        if not self._pending:
            return
        self._ctx = None
        U, C, of, tag, D = self._fold_U, self._fold_C, self._fold_of, self._tag, self.D
        r = len(of)
        X = np.random.default_rng(0).standard_normal((self.d, 4))
        A, u = self.mixer, self.offset
        AX = A @ X
        cols, CAX = np.hstack([U, AX]), C @ AX
        buf = np.empty((BLOCK_ROWS, self.d))
        probe = np.ones((BLOCK_ROWS, 5))  # a block's [core S AX | 1]
        acc = np.zeros((self.d, 5))
        for lo in range(0, D, BLOCK_ROWS):
            blk = self.core[lo:lo + BLOCK_ROWS]
            n = len(blk)
            Y = np.dot(blk, cols)
            CU = Y[:, :r]
            CU *= of > tag[lo:lo + n, None]
            np.add(Y[:, r:], np.dot(CU, CAX), out=probe[:n, :4])
            blk += np.dot(CU, C, out=buf[:n])
            acc += np.dot(blk.T, probe[:n])
        self._no_pending()
        CCAX, sum_core = acc[:, :4], acc[:, 4]  # core'core AX and core'1
        # W = (core + 1u')A, so W'1 = A'(core'1 + D u) and, with WX = core AX
        # + 1 u'AX, W'WX = A'(core'core AX + core'1 u'AX + u 1'WX)
        uAX = u @ AX
        WWX = A.T @ (CCAX + np.outer(sum_core, uAX) + np.outer(u, sum_core @ AX + D * uAX))
        colsum = A.T @ (sum_core + D * u)
        self.last_drift = (_rel_diff(self.gram @ X, WWX), _rel_diff(self.colsum, colsum))
        self.flush_count += 1
        if self.last_drift[0] > DRIFT_TOL:
            self.rebase()
        elif self.last_drift[1] > DRIFT_TOL:
            self.colsum = colsum  # the column sums a rebase would give

    def rebase(self):
        """Make (core + 1u')A the core, in place, with an identity mixer and
        a zero offset.

        The represented matrix is unchanged; the caches are recomputed at
        full precision, and ``last_drift`` records how far the ones they
        replace had drifted.  O(D*d^2).
        """
        gram, colsum = self.gram, self.colsum
        self._reset(self._weights(out=self.core))
        self.last_drift = (_rel_diff(gram, self.gram), _rel_diff(colsum, self.colsum))
        self.rebase_count += 1

    def _weights(self, out: np.ndarray) -> np.ndarray:
        """W = (core S + 1u')A written into ``out`` one block of rows at a
        time, so no other D x d array is formed; ``out`` may be ``core``.
        S = I + U C is the product of the pending folds, which rows that
        have taken none lack, so they take core (S A) + 1 (u'A); the rows
        that have taken some are computed on their own.  Writes no state."""
        A, fixed = self.mixer, np.flatnonzero(self._tag)
        SA = A + self._fold_U @ (self._fold_C @ A)
        uA = self.offset @ A
        W_fixed = (self._with_pending(self.core[fixed], self._tag[fixed]) + self.offset) @ A
        for lo in range(0, self.D, BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            np.matmul(self.core[rows], SA, out=out[rows])
            out[rows] += uA
        out[fixed] = W_fixed
        return out

    def _reset(self, W: np.ndarray, caches=None):
        """Represent W as the core itself, with the caches (W'W, W'1) given
        or computed from it at full precision; takes ownership of W.
        O(D*d^2), or O(d^2) with the caches given."""
        self._ctx = None
        self.core = W
        self.mixer = np.eye(self.d)
        self.mixer_inv = np.eye(self.d)
        self.offset = np.zeros(self.d)
        self.gram, self.colsum = (W.T @ W, W.sum(axis=0)) if caches is None else caches
        self._no_pending()

    def _no_pending(self):
        """No fold pending: every row of core is up to date."""
        self._pending = 0  # folds recorded since the last flush
        self._tag = np.zeros(self.D, dtype=np.int32)  # the folds each row has taken
        # the pending factors' product I + U C, and the fold of each column of U
        self._fold_U, self._fold_C = np.empty((self.d, 0)), np.empty((0, self.d))
        self._fold_of = np.empty(0, dtype=int)

    # the arrays that define the layer: the representation and its caches
    _STATE = ("core", "mixer", "mixer_inv", "offset", "gram", "colsum")

    def logits(self, H: np.ndarray) -> np.ndarray:
        """O = H W' for the rows of H, (n, D), as (H A') core' + (H A' u) 1':
        O(n*d^2 + n*d*D) with no D x d temporary, after a flush of the
        pending folds.  Evaluation, so not counted in ``op_count``."""
        H = np.asarray(H, dtype=np.float64)
        if H.ndim != 2 or H.shape[1] != self.d:
            raise ValueError(f"H must have shape (n, {self.d}), got {H.shape}")
        self._flush()
        G = H @ self.mixer.T
        O = G @ self.core.T
        O += (G @ self.offset)[:, None]
        return O

    def snapshot(self) -> dict:
        """Copies of the arrays that define the layer, after a flush of the
        pending folds; O(D*d), no product when none are pending."""
        self._flush()
        return {name: getattr(self, name).copy() for name in self._STATE}

    def restore(self, snapshot: dict):
        """Return to the state of ``snapshot``, taking ownership of its
        arrays: a snapshot is restored at most once."""
        self._ctx = None
        for name in self._STATE:
            setattr(self, name, snapshot[name])
        self._no_pending()

    def materialize(self) -> DenseOutputLayer:
        """Dense copy of the represented matrix; for tests and export only."""
        return DenseOutputLayer(self._weights(out=np.empty((self.D, self.d))), copy=False)

