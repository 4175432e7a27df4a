"""Output layers over D classes for spherical losses.

``FactoredOutputLayer`` never materializes the D x d weight matrix during
training.  A spherical loss's gradient over the pre-activations of example
i is a_i*1 + 2*bq_i*o_i + g_i*e_{c_i}, so the SGD step of W over a
minibatch whose hidden vectors are the rows of H (m x d),

    W <- W - lr * sum_i (a_i 1h_i' + 2*bq_i W h_i h_i' + g_i e_{c_i} h_i'),

is a rank-structured update that is absorbed into an implicit
representation in O(m*d^2 + m^2*d + m^3) arithmetic, which is O(m*d^2)
while m <= d, independent of D.  A single example is the m = 1 case.

Representation:  W = (C + 1 u') @ A,  C = b p' + Delta
with cached Gram matrix Q = W'W and column sums v = W'1 maintained by exact
recurrences.  The core C is kept by a row store as the rows that training
wrote: b holds the D biases given at construction, p is one shared
d-vector, and Delta is row-sparse, a (T, d) array of the written rows,
grown by doubling, with a D-length slot index.  A row never written is
b_k p; its first write gives it a slot, which holds the whole row (b is
zero on the written rows).  The MLP's zero-initialized output layer, zero
but for a last column b, is b with p = e, the last coordinate, and no row
written; a general W0 is Delta = W0 with b = 0 and T = D.  The
W h h' terms go into the mixer, A <- A(I - H'BH) with B = diag(2*lr*bq).
The 1h' and e_c h' terms go into the offset u and into rows of C, in
pre-mixer coordinates, which the maintained inverse of A gives; that
inverse is updated by the Woodbury identity through the m x m matrix
K = I - H H'B.  The caches of a layer from ``zeros`` are Q = (b.b) e e' and
v = (sum b) e, from the store's closed form for the rows never written.

A training step is three calls on the same (h, c): ``forward_stats``
starts it, validates (h, c) and always computes afresh the rows
R = (C[c] + u)A and H Q; ``backward_h`` and ``sgd_step`` reuse the
validated labels, R and H Q while (h, c) keep their shapes, bytes and
label values and no step, fold, rebase or restore came between, and
validate only the partials; otherwise they validate and compute all
again.

Steps are delayed over a pending block of at most max(1, d // BLOCK_DIV)
rows, ``block_cap`` (16 at d = 128, 1 below d = 16).  A block of steps
with rows H_b takes W0, the matrix at its start, to W0 - P T H_b, P being
the steps' gradient columns at W0 and T a t x t triangular matrix, as in
the compact WY form of a product of Householder factors.  ``sgd_step``
appends a step's rows in O(m*k*d + m^2*d) for k = ``block_cap``, and
``forward_stats`` and ``backward_h`` read W through corrections to the
block-start rows and caches, O(k*d) per row.  The block is flushed,
applied to the representation as one update whose every d x d correction
is one BLAS product of inner dimension t (2t for the Gram matrix at small
t), in O(t*d^2 + t^2*d + t^3), when it is full, when a step's rows do not
fit beside it, when its steps may have shrunk W below ``BLOCK_SHRINK``
along some direction, and before every reader of the represented matrix:
``logits``, ``read_stats``, ``snapshot``, ``materialize`` and ``rebase``;
``restore`` drops it.  A step of ``block_cap`` rows or more is a block of
its own, T = I, applied at once.  At d = 128 an m = 1 step thus pays its
corrections and its entry, and one sixteenth of an O(16*d^2) flush, in
place of three d x d rank-one updates, a 1 x 1 inverse and a condition
estimate.

When the mixer's condition estimate crosses ``cond_threshold``, a few of
its singular directions have collapsed (the rectified inputs share a mean
direction).  A fold moves just those k directions out of the mixer, in
O(d^3): it updates the mixer, its inverse, the offset and p, and records
its factor M = I + U_k R, by which every written row is to be multiplied,
instead of rewriting them.  Each written row carries the number of
recorded factors it has taken; a step brings the rows it reads up to date
first, through a cached product of the factors, in two small products.
W, Q and v are unchanged by a fold in exact arithmetic.  A rebase sets
p <- p A, Delta <- Delta S A and u <- u A with A = I, S being the product
of the pending factors, in O(T*d^2): the one pass that applies them to
the rest of Delta.  It keeps the offset rather than spreading it into
every row, recomputes the caches from the written rows and the 2 x 2
Gram matrix of (p, u) over the rest, in O(T*d^2 + D), and records how far
Q and v had drifted from W.  It runs when the fold does not apply, when
the factors' summed rank passes ``FOLD_MAX_RANK * d``, and before
``logits`` and ``snapshot`` with folds pending.

Evaluation reads the same representation: ``logits`` gives H W' with
G = H A' as G Delta' + G u for the T written rows, one product over them,
and b_k (G p) + G u for the others, the value each had in the product
over all D rows, in O(n*d^2 + n*T*d + n*D); ``read_stats`` gives a
spherical loss's (s, q, o_c) by ``forward_stats``' body in O(d^2) per
row, counting and starting nothing, both after a flush and, with folds
pending, a rebase.
``snapshot``/``restore`` keep and reinstate the layer's state, so
training keeps its best state without forming or copying W.  A snapshot
copies the d-sized arrays and opens an undo journal of Delta: until the
next snapshot or restore, a write to a written row, a step's update or a
stale row's refresh, first saves the row's snapshot-time value once, and
a row written for the first time takes a new slot, which ``restore``
drops; the snapshot costs O(d^2 + T) and the journal one d-row per
distinct row written.  A rebase, or the singular-update fallback, with
the journal open rewrites all of Delta: it writes into a fresh array, and
the old Delta, its saved rows written back, becomes the journal's one
full copy.  ``restore`` writes the saved rows back, or takes the full
copy, in O(rows written * d + d^2), and refuses a snapshot superseded by
a later one or already restored.  ``materialize`` builds W for tests and
export only, after a flush, composing the pending factors into its
product without writing the store.

``DenseOutputLayer`` is the naive O(D*d) layer: both the reference the
factored layer is tested against in lockstep and the dense trainer's
output layer, with the same ``logits``, ``snapshot`` and ``restore``.
Each takes the trainer's step on a batch's mean loss, ``train_step``: a
Nesterov step of W for the dense layer, the plain SGD step above for the
factored one.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import losses
from .losses import SphericalStats, _as_labels, _dense_grad, _row_stats

# rows per block in the passes over W and Delta: 512 x 128 doubles is 512 KiB
BLOCK_ROWS = 512
# a singular value of the mixer below FOLD_CUT * sigma_max has collapsed: at
# each threshold crossing of a D = 5000, d = 128 stream of rectified inputs
# one singular value was near 9e-8 and the rest above 0.4
FOLD_CUT = 1e-2
# more than FOLD_MAX_RANK * d collapsed directions take a full rebase, as
# does a pending rank above it: the cap bounds the rank of the pending
# product I + U C between rebases, at twice the cap, and with it the cost
# of a stale row's update and of each fold's refresh of C; with d < 8 every
# crossing rebases
FOLD_MAX_RANK = 1 / 8
# the pending block of delayed steps holds at most max(1, d // BLOCK_DIV)
# rows: 16 at d = 128, and 1 below d = 16, where every step is applied as
# it is taken; a step of at least that many rows is a block of its own
BLOCK_DIV = 8
# a block ends early once its steps' mixer factors I - 2*lr*bq*hh' may
# shrink W along some direction below BLOCK_SHRINK, by the product of
# min(1, |1 - 2*lr*bq*|h|^2|) over its rows: a later row's terms at the
# block's start would cancel to that degree
BLOCK_SHRINK = 1 / 16
# the mixer's condition estimate above which a step folds or rebases
COND_THRESHOLD = 1e5


class StepPartials(NamedTuple):
    """Spherical-loss partials a = dL/ds, bq = dL/dq, g = dL/do_c with the
    target classes c and hidden vectors h: (m,) arrays and an (m, d) h for
    a minibatch, or scalars and a (d,) h for one example."""

    a: float | np.ndarray
    bq: float | np.ndarray
    g: float | np.ndarray
    c: int | np.ndarray
    h: np.ndarray


class _Journal:
    """A factored layer's open snapshot: copies of its d-sized arrays and of
    the row store's p, the store's slot count T, and the undo journal of
    Delta since.  Each slot below T is saved once, before its first write,
    and marked in ``saved``; a slot from T on is new since, and ``restore``
    drops it.  Once all of Delta is rewritten, ``full`` is the
    snapshot-time Delta and no row is saved."""

    def __init__(self, small: dict, p: np.ndarray, T: int):
        self.small, self.p, self.T = small, p, T
        self.saved = np.zeros(T, dtype=bool)
        self.rows, self.vals = [], []
        self.full = None

    def save(self, delta: np.ndarray, s: np.ndarray):
        """Save the slots s of ``delta`` not yet saved, before they are
        written; new slots and the -1 of a row never written are not."""
        if self.full is None:
            s = s[(s >= 0) & (s < self.T)]
            new = s[~self.saved[s]]
            if len(new):
                new = np.unique(new)
                self.saved[new] = True
                self.rows.append(new)
                self.vals.append(delta[new])

    def undo(self, delta: np.ndarray) -> np.ndarray:
        """``delta`` with its saved rows written back, in place."""
        for rows, vals in zip(self.rows, self.vals):
            delta[rows] = vals
        return delta

    def take_full(self, delta: np.ndarray):
        """Keep ``delta``, which is about to be replaced, with its saved
        rows written back, as the full copy."""
        self.full = self.undo(delta)
        self.saved, self.rows, self.vals = None, [], []


class _StepContext(NamedTuple):
    """What a step validated and computed for one (h, c) at one layer
    state, before it reads the partials."""

    key: tuple | None  # _step_key of (h, c) as given
    c: np.ndarray  # the validated labels, (m,) int64, the layer's own copy
    R: np.ndarray  # rows c of the represented matrix W
    HQ: np.ndarray  # H W'W
    v: np.ndarray  # W'1
    R0: np.ndarray  # R at the pending block's start, (C[c] + u)A
    HQ0: np.ndarray  # H @ gram, HQ at the block's start
    ZW: np.ndarray | None  # H [H~; PW]', with a block pending


def _step_key(h: np.ndarray, c: np.ndarray):
    """(h, c) by shape and bytes, so that an in-place edit shows; an integer
    c by its int64 value, so that an equal c of another integer type
    matches.  None, which matches nothing, for a c of another kind."""
    if c.dtype.kind not in "iu":
        return None
    return h.shape, c.shape, h.tobytes(), c.astype(np.int64, copy=False).tobytes()


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


def _as_partials(p: StepPartials, c: np.ndarray):
    """(a, bq, g) of ``p`` as (m,) arrays, m being the rows of the validated
    labels c."""
    a, bq, g = (np.asarray(x, dtype=np.float64).reshape(-1) for x in (p.a, p.bq, p.g))
    if not a.shape == bq.shape == g.shape == c.shape:
        raise ValueError("a, bq and g must match h's rows")
    return a, bq, g


@functools.lru_cache(maxsize=4)
def _identity(m: int) -> np.ndarray:
    """The m x m identity, read-only: a step's m repeats from step to step."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _as_rows(H, d: int) -> np.ndarray:
    """H as an (n, d) float64 matrix of rows, or ValueError."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != d:
        raise ValueError(f"H must have shape (n, {d}), got {H.shape}")
    return H


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


def _as_bias(D: int, bias) -> np.ndarray:
    """``bias`` as a fresh array of D finite reals, or ValueError."""
    b = np.array(bias, dtype=np.float64)
    if b.shape != (D,) or not np.all(np.isfinite(b)):
        raise ValueError(f"bias must be {D} finite reals")
    return b


def _bias_weights(D: int, d: int, bias) -> np.ndarray:
    """A fresh D x d zero matrix with ``bias`` in its last column; with no
    bias its zero pages are left unwritten."""
    W = np.zeros((D, d))
    if bias is not None:
        W[:, -1] = _as_bias(D, bias)
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
        self._open = None  # the open snapshot, if any

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
        H, c, one = _as_batch(p.h, p.c, *self.W.shape)
        a, bq, g = _as_partials(p, c)
        out = _dense_grad(H @ self.W.T, c, a, bq, g) @ self.W
        return out[0] if one else out

    def sgd_step(self, p: StepPartials, lr: float):
        H, c, _ = _as_batch(p.h, p.c, *self.W.shape)
        _dense_sgd_step(self.W, H, c, *_as_partials(p, c), lr)

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
        return _as_rows(H, self.W.shape[1]) @ self.W.T

    def snapshot(self) -> np.ndarray:
        """A copy of W, the layer's open snapshot until the next snapshot or
        restore."""
        self._open = self.W.copy()
        return self._open

    def restore(self, snapshot: np.ndarray):
        """Return to the state of ``snapshot``, the layer's last, taking
        ownership of it: a snapshot is restored at most once.  ValueError
        for a snapshot superseded by a later one or already restored, which
        later steps may have written, as on the factored layer."""
        if snapshot is not self._open:
            raise ValueError("not the layer's open snapshot: superseded or already restored")
        self._open = None
        self.W = snapshot


class _RowStore:
    """The core C of a factored layer, kept as the rows that training
    wrote: C = b p' + Delta, with b zero on the written rows.

    ``b`` holds the D biases and ``p`` is a shared d-vector, the last
    coordinate e at construction: a row never written is b_k p.
    ``delta[:T]`` holds the T written rows whole, one slot each; ``slot``
    maps a class to its slot, -1 for a row never written, and ``written``
    a slot to its class.  ``delta`` has one spare row past its slots, which
    the slot -1 reads, and doubles when its slots are full.  S, the
    product I + U C of the pending folds' factors, is deferred on the
    written rows: ``tag`` counts the folds each slot has taken, and
    ``rows`` brings the rows it reads up to date; p takes each fold at
    once.  ``journal`` is the layer's open snapshot, if any."""

    def __init__(self, b: np.ndarray, delta: np.ndarray, T: int):
        """b, and the slots of ``delta``, whose first T rows are those of
        the classes 0 to T - 1 and whose last row is zero."""
        (self.D,), self.d = b.shape, delta.shape[1]
        self.b, self.delta, self.T = b, delta, T
        self.p = np.zeros(self.d)
        self.p[-1] = 1.0
        self.written = np.arange(len(delta) - 1)
        self.slot = np.full(self.D, -1, dtype=np.intp)
        self.slot[:T] = self.written[:T]
        self.journal = None
        self._no_pending()

    @classmethod
    def dense(cls, W: np.ndarray) -> "_RowStore":
        """The store of a general (D, d) matrix W: every row written, T = D."""
        D, d = W.shape
        return cls(np.zeros(D), np.concatenate([W, np.zeros((1, d))]), D)

    @classmethod
    def biased(cls, D: int, d: int, bias) -> "_RowStore":
        """The store of the D x d matrix zero but for a last column ``bias``
        (zero when None): b = bias and no row written."""
        b = np.zeros(D) if bias is None else _as_bias(D, bias)
        return cls(b, np.zeros((1, d)), 0)

    def _no_pending(self):
        """No fold pending: every written row is up to date."""
        self.pending = 0  # folds recorded since the last rebase
        self.tag = np.zeros(len(self.delta), dtype=np.int32)
        # the pending factors' product I + U C; row t of the fold mask is 1 at
        # the columns of U that folds after the t-th recorded, else 0
        self.fold_U, self.fold_C = np.empty((self.d, 0)), np.empty((0, self.d))
        self.fold_mask = np.empty((1, 0))

    def rows(self, c: np.ndarray) -> np.ndarray:
        """Rows c of the core, a new (m, d) array: the written ones are
        brought up to date with the pending folds first, which writes them
        (saved to the journal first), and a row never written is b_c p."""
        s = self.slot[c]
        X = self.delta[s]  # a copy; a row never written reads the spare row
        if self.pending and len(c):
            tags = self.tag[s]
            if tags.min() < self.pending:  # rows that are current take zeros
                if self.journal is not None:
                    self.journal.save(self.delta, s)
                self.delta[s] = self._with_pending(X, tags)
                self.tag[s] = self.pending
        if self.T < self.D:
            never = s < 0
            X[never] = self.b[c[never], None] * self.p
        return X

    def write(self, c: np.ndarray, values: np.ndarray):
        """Rows c of the core, brought up to date, take ``values`` (m, d),
        the rows of a repeated class one value.  A row written for the
        first time takes a new slot; the others are saved to the journal
        first."""
        s = self.slot[c]
        if self.T < self.D and s.min() < 0:
            s = self._new_slots(np.unique(c[s < 0]), c)
        if self.journal is not None:
            self.journal.save(self.delta, s)
        self.delta[s] = values

    def _new_slots(self, new: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Slots from T on for the classes ``new``, at the pending folds'
        tag, after doubling ``delta`` when they do not fit; returns the
        slots of c."""
        T, n = self.T, len(new)
        if T + n >= len(self.delta):
            cap = max(2 * (len(self.delta) - 1), T + n)
            delta, tag = np.zeros((cap + 1, self.d)), np.full(cap + 1, self.pending, np.int32)
            written = np.empty(cap, dtype=np.intp)
            delta[:T], tag[:T], written[:T] = self.delta[:T], self.tag[:T], self.written[:T]
            self.delta, self.tag, self.written = delta, tag, written
        self.written[T:T + n] = new
        self.slot[new] = np.arange(T, T + n)
        self.tag[T:T + n] = self.pending
        self.T = T + n
        return self.slot[c]

    def _with_pending(self, X: np.ndarray, tags: np.ndarray) -> np.ndarray:
        """Written rows X, which have taken ``tags`` folds each, times the
        factors they lack, in place: X S_t, S_t = I + U_t C_t being the
        product of the factors after the t-th.  U_t C_t is U C with the
        columns of U (and rows of C) of the first t folds left out, so
        masking X U by row t of the fold mask does it."""
        XU = np.dot(X, self.fold_U)
        XU *= self.fold_mask[tags]
        X += np.dot(XU, self.fold_C)
        return X

    def fold(self, Uk: np.ndarray, R: np.ndarray) -> int:
        """Record a fold's factor M = I + U_k R, pending on every written
        row, and apply it to p at once; returns the pending rank.  The
        pending factors are kept as one U C: U holds each factor's U_k and
        C its R times the factors after it, so that the product of all of
        them is I + U C."""
        self.p = self.p + (self.p @ Uk) @ R
        C = self.fold_C
        self.pending += 1
        self.fold_U = np.hstack([self.fold_U, Uk])
        self.fold_C = np.vstack([C + (C @ Uk) @ R, R])
        # the new columns come after every earlier fold; no column after this one
        mask = self.fold_mask
        self.fold_mask = np.vstack([np.hstack([mask, np.ones((self.pending, Uk.shape[1]))]),
                                    np.zeros(self.fold_U.shape[1])])
        return self.fold_U.shape[1]

    def _times_SA(self, A: np.ndarray):
        """(slots, X S A) over the written rows X, S being the product of
        the pending folds: blocks of BLOCK_ROWS slots by S A, in one reused
        buffer, and last the rows that have taken some fold, on their own,
        computed before the first block is yielded.  O(T*d^2)."""
        T = self.T
        SA = A + self.fold_U @ (self.fold_C @ A)
        fixed = np.flatnonzero(self.tag[:T])
        fixed_SA = self._with_pending(self.delta[fixed], self.tag[fixed]) @ A
        buf = np.empty((min(BLOCK_ROWS, T), self.d))
        for lo in range(0, T, BLOCK_ROWS):
            rows = slice(lo, min(lo + BLOCK_ROWS, T))
            yield rows, np.matmul(self.delta[rows], SA, out=buf[:rows.stop - lo])
        yield fixed, fixed_SA

    def rebase(self, A: np.ndarray):
        """Written rows X <- X S A and p <- p A, leaving no fold pending, in
        O(T*d^2).  While the journal saves rows, the new rows go into a
        fresh array, and the old one, its saved rows written back, becomes
        the journal's full copy."""
        delta, j = self.delta, self.journal
        out = delta if j is None or j.full is not None else np.zeros_like(delta)
        for rows, XSA in self._times_SA(A):
            out[rows] = XSA
        if out is not delta:
            j.take_full(delta)
        self.delta, self.p = out, self.p @ A
        self._no_pending()

    def caches(self, u: np.ndarray):
        """(W'W, W'1) of W = C + 1u', the mixer being I and no fold pending,
        at full precision, in O(T*d^2 + D): the written rows in one (T, d)
        array, the rest, b_k p + u, through the 2 x 2 Gram matrix of (p, u)
        weighted by the sums of their b_k^2, b_k and 1."""
        W = self.delta[:self.T] + u
        gram, colsum = W.T @ W, W.sum(axis=0)
        if self.T < self.D:
            b = self.b[self.slot < 0]
            V = np.stack([self.p, u])
            M = np.array([[np.dot(b, b), b.sum()], [b.sum(), len(b)]])
            gram += V.T @ M @ V
            colsum += M[1] @ V
        return gram, colsum

    def weights(self, out: np.ndarray, u: np.ndarray, A: np.ndarray) -> np.ndarray:
        """W = (C S + 1u')A written into ``out``, (D, d), with no other D x d
        array: with a row never written, every row takes b_k (p A) + u A
        first; then the written rows X take X S A + u A.  Writes no state."""
        uA = u @ A
        if self.T < self.D:
            np.multiply(self.b[:, None], self.p @ A, out=out)
            out += uA
        for rows, XSA in self._times_SA(A):
            XSA += uA
            out[self.written[rows]] = XSA
        return out

    def logits(self, G: np.ndarray, u: np.ndarray) -> np.ndarray:
        """H W' for G = H A', (n, D), with no fold pending: G X' + G u for
        the T written rows X, through one product over them, and
        b_k (G p) + G u for the rest.  Every row never written has its
        logit by the same float expression, so two such rows with equal b
        tie exactly, the target's among them."""
        alpha, beta = G @ self.p, G @ u
        O = np.multiply.outer(alpha, self.b)
        O[:, self.written[:self.T]] = G @ self.delta[:self.T].T
        O += beta[:, None]
        return O

    def snapshot(self, small: dict) -> _Journal:
        """Open a journal that keeps ``small``, p and T, replacing an
        earlier one; no fold may be pending."""
        self.journal = _Journal(small, self.p.copy(), self.T)
        return self.journal

    def restore(self, j: _Journal) -> dict:
        """Back to the open journal ``j``'s state: its saved rows written
        back into Delta, or its full copy taken, the slots new since
        dropped, p and T taken over and no fold pending.  Returns the
        journal's ``small``.  ValueError for any other journal."""
        if self.journal is None or j is not self.journal:
            raise ValueError("not the layer's open snapshot: superseded or already restored")
        self.journal = None
        self.delta = j.undo(self.delta) if j.full is None else j.full
        self.slot[self.written[j.T:self.T]] = -1
        self.T, self.p = j.T, j.p
        self._no_pending()
        return j.small


class FactoredOutputLayer:
    """Implicit D x d output weight matrix with exact spherical-loss
    minibatch SGD updates in O(m*d^2 + m^2*d + m^3), O(m*d^2) while
    m <= d, and loss statistics in O(d^2) per example.

    ``op_count`` counts the arithmetic done by ``forward_stats``,
    ``backward_h`` and ``sgd_step`` (array element operations); it
    deliberately excludes folds, rebases and bringing a step's
    rows up to date with the pending folds, which are amortized
    maintenance.  It covers the rows and H Q of a step each time they are
    computed, once per step when ``forward_stats`` starts it; with a block
    pending, their corrections, O(k*d) per row over the block's k =
    ``block_cap`` slots; a step's terms and its entry into the block; and
    a block's flush, once per block, whose t x t inverse counts as t^3.
    ``block_cap`` is the most rows the pending block holds,
    ``fold_count`` and ``rebase_count`` count folds and rebases,
    ``q_clamps`` the rows whose cached q fell below zero and was clamped,
    and ``last_drift`` is the (Gram, column-sum) relative drift of the
    caches from the represented matrix as the last rebase measured it
    (None before one).
    """

    def __init__(self, W0: np.ndarray, *, cond_threshold: float = COND_THRESHOLD):
        # ||A|| ||A^-1|| is at least 1, so any threshold below 1 folds at
        # every step; NaN, which would switch folds off, is refused before
        # W0 is copied and its caches formed
        self.cond_threshold = float(cond_threshold)
        if not self.cond_threshold >= 0.0:
            raise ValueError(f"cond_threshold must be >= 0, got {cond_threshold}")
        W0 = _as_weights(W0, copy=False)
        self._start(_RowStore.dense(W0), (W0.T @ W0, W0.sum(axis=0)))

    @classmethod
    def zeros(cls, D: int, d: int, bias=None) -> "FactoredOutputLayer":
        """The layer whose D x d weights are zero but for a last column
        ``bias`` (zero when None): b = bias, p = e, the last coordinate,
        and no row written, in O(D + d^2), with the caches
        W'W = (b.b) e e' and W'1 = (sum b) e of the store's closed form."""
        layer = cls.__new__(cls)
        layer.cond_threshold = COND_THRESHOLD
        layer._start(_RowStore.biased(D, d, bias))
        return layer

    def _start(self, rows: _RowStore, caches=None):
        """Take the row store ``rows`` with an identity mixer, a zero
        offset, an empty block, and the caches given or the store's."""
        self._rows = rows
        self.D, self.d = rows.D, rows.d
        self.block_cap = cap = max(1, self.d // BLOCK_DIV)
        # the pending block's slots, zero but for its t rows (see _append):
        # L = [X^; H~; PW], B H_b, P'P, (la, lg, sigma) and the classes
        self._t = 0
        self._L = np.zeros((3 * cap, self.d))
        self._Xh, self._Ht, self._PW = self._L[:cap], self._L[cap:2 * cap], self._L[2 * cap:]
        self._BH = np.zeros((cap, self.d))
        self._PP = np.zeros((cap, cap))
        self._coef = np.zeros((3, cap))
        self._la, self._lg, self._sigma = self._coef
        self._cb = np.zeros(cap, dtype=np.int64)
        self._reset(np.zeros(self.d), caches)
        self._buf = np.empty((self.d, self.d))  # the flush's d x d product
        self.op_count = 0
        self.rebase_count = 0
        self.fold_count = 0
        self.q_clamps = 0
        self.last_drift = None

    def _context(self, key, H: np.ndarray, c: np.ndarray) -> _StepContext:
        """The context of a step on validated (H, c).  The rows of the core,
        brought up to date with the pending folds first, give the rows
        R0 = (C[c] + u)A and H Q at the block's start, (m, d) each,
        which the caller counts in ``op_count``: (2 d^2 + d) per row.  With
        a block pending, W = W0 - P T H_b (see ``_append``) gives the rows
        of the represented matrix from them, H~ = T H_b and o = W h:
        W[c] = R0 - Pc H~, with Pc = rows c of P, and
        W'o = H Q - (H H~')(PW - P'P H~) - (H PW')H~, with PW = P'W0, and
        W'1 = v - H~'P'1; these corrections count themselves, O(k d) per
        row."""
        X = self._rows.rows(c)
        R0, HQ0 = np.dot(X + self.offset, self.mixer), np.dot(H, self.gram)
        if not self._t:
            return _StepContext(key, c, R0, HQ0, self.colsum, R0, HQ0, None)
        L, k = self._L, self.block_cap
        ZW = np.dot(H, L[k:].T)  # [H H~' | H PW']
        # P[c_i, j] = beta_j r_i.h_j + la_j + lg_j [c_i = c_j], r_i = R0[i]
        Pc = np.dot(R0, self._BH.T)
        Pc += self._la
        Pc += (c[:, None] == self._cb) * self._lg
        self.op_count += len(c) * (6 * k * self.d + 3 * k + 2 * self.d) + k * self.d
        return _StepContext(key, c, R0 - np.dot(Pc, self._Ht), HQ0 - np.dot(ZW, L[:2 * k]),
                            self.colsum - np.dot(self._sigma, self._Ht), R0, HQ0, ZW)

    def _as_step(self, p: StepPartials):
        """(H, context, a, bq, g, one) of ``p``.  When p has the (h, c)
        that forward_stats validated, equal in shape, bytes and label
        values, and no step, fold, rebase or restore came between, the
        context forward_stats computed is reused and only the partials are
        validated; otherwise all are validated and computed afresh."""
        h, c = np.asarray(p.h, dtype=np.float64), np.asarray(p.c)
        ctx, key = self._ctx, _step_key(h, c)
        if ctx is not None and key is not None and key == ctx.key:
            one = h.ndim == 1
            H = h[None, :] if one else h
        else:
            H, c, one = _as_batch(h, c, self.D, self.d)
            ctx = self._context(None, H, c)
            self.op_count += len(c) * (2 * self.d * self.d + self.d)
        return H, ctx, *_as_partials(p, ctx.c), one

    def forward_stats(self, h: np.ndarray, c) -> SphericalStats:
        """(s, q, o_c) of o = Wh for each row of h, from the caches, never
        forming o.  Always validated and computed afresh; starts the step
        that ``backward_h`` and ``sgd_step`` on the same (h, c) continue."""
        h, c = np.asarray(h, dtype=np.float64), np.asarray(c)
        key = _step_key(h, c)
        H, c, one = _as_batch(h, c, self.D, self.d)
        self._ctx = ctx = self._context(key, H, c)
        s, q, o_c = self._moments(H, ctx)
        self.op_count += len(c) * (2 * self.d * self.d + 5 * self.d)  # ctx and moments
        self.q_clamps += np.count_nonzero(q < 0.0)
        return _stats(s, np.maximum(q, 0.0), o_c, one)

    def read_stats(self, h: np.ndarray, c) -> SphericalStats:
        """``forward_stats``' (s, q, o_c), by its body, after a flush of
        the pending block and a rebase when folds are pending, as
        ``logits``; otherwise it writes no layer state: no ``op_count``,
        ``q_clamps``, step context, rows or tags.  For evaluation."""
        H, c, one = _as_batch(h, c, self.D, self.d)
        self._flush()
        if self._rows.pending:
            self.rebase()
        s, q, o_c = self._moments(H, self._context(None, H, c))
        return _stats(s, np.maximum(q, 0.0), o_c, one)

    def _moments(self, H: np.ndarray, ctx: _StepContext):
        """(s, q, o_c) of the rows of H from ``ctx``, q unclamped."""
        return (np.dot(H, ctx.v), np.einsum("ij,ij->i", ctx.HQ, H),
                np.einsum("ij,ij->i", ctx.R, H))

    def backward_h(self, p: StepPartials) -> np.ndarray:
        """dL/dh = W'(a*1 + 2*bq*Wh + g*e_c) for each row of h, in O(d^2)
        per row, or O(d) when forward_stats started the step."""
        H, ctx, a, bq, g, one = self._as_step(p)
        out = a[:, None] * ctx.v
        out += (2.0 * bq)[:, None] * ctx.HQ
        out += g[:, None] * ctx.R
        self.op_count += len(a) * 5 * self.d
        return out[0] if one else out

    def sgd_step(self, p: StepPartials, lr: float):
        """Apply W <- W - lr*sum_i(a_i 1h_i' + 2*bq_i Wh_ih_i' + g_i e_{c_i}h_i')
        implicitly, as one update; an empty batch is a no-op.

        Matches DenseOutputLayer.sgd_step (simultaneous update) exactly in
        exact arithmetic, repeated classes included.  A step of fewer than
        ``block_cap`` rows joins the pending block, which is flushed first
        when they do not fit beside its rows, and afterwards when it is
        full or may have shrunk W below ``BLOCK_SHRINK`` along some
        direction; a step of ``block_cap`` rows or more is a block of its
        own, applied at once.
        """
        H, ctx, a, bq, g, _ = self._as_step(p)
        self._ctx = None
        m, d, t = len(ctx.c), self.d, self._t
        if not m:
            return
        if t and t + m > self.block_cap:
            self._flush()
            ctx = self._context(None, H, ctx.c)
            self.op_count += m * (2 * d * d + d)
        # the step's columns of P = W0 H'B + 1la' + E_c diag(lg), B =
        # diag(2*lr*bq) and E_c the classes' one-hot columns, at the block's
        # start W0: its update of W0 is P H.  Its rows B H, P'W0 and P'1
        B, la, lg = (2.0 * lr * bq)[:, None], lr * a, lr * g
        BH = B * H
        PW = B * ctx.HQ0
        PW += la[:, None] * self.colsum
        PW += lg[:, None] * ctx.R0
        sigma = np.dot(BH, self.colsum) + self.D * la + lg
        self.op_count += m * 8 * d
        if m >= self.block_cap:  # a block of its own, H~ = H
            rows = (BH, PW, la, lg, sigma, ctx.c)
            self._apply(H, *rows, self._gram_rows(ctx, BH, la, lg, rows))
        else:
            self._append(H, ctx, BH, PW, la, lg, sigma)

    def _gram_rows(self, ctx: _StepContext, BH, la, lg, rows) -> np.ndarray:
        """p_i.p_j for a step's columns i of P and the columns j of ``rows``
        = (B H, P'W0, la, lg, sigma, c) of a block, (m, n):
        beta_i h_i.PW_j + lg_i r_i.(beta_j h_j) + la_i sigma_j
        + lg_i (la_j + lg_j [c_i = c_j]), r_i being R0[i].  O(m*n*d)."""
        BH_j, PW_j, la_j, lg_j, sigma_j, c_j = rows
        G = np.dot(BH, PW_j.T)
        G += np.dot(lg[:, None] * ctx.R0, BH_j.T)
        G += la[:, None] * sigma_j
        G += lg[:, None] * (la_j + (ctx.c[:, None] == c_j) * lg_j)
        self.op_count += len(la) * (len(la_j) * (2 * self.d + 8) + self.d)
        return G

    def _append(self, H, ctx: _StepContext, BH, PW, la, lg, sigma):
        """Add a step's rows to the pending block, and flush it when full
        or when it may have shrunk W below ``BLOCK_SHRINK``.

        A block of t rows H_b, from one or more steps, takes W0, the
        matrix at its start, to W0 - P T H_b.  P's columns are those of
        the steps at W0, and T = (I + N)^-1 with N[i, j] = beta_j h_i.h_j
        when row i is of an earlier step than row j, else 0: a step's
        update at the matrix the earlier ones left.  The block keeps
        H~ = T H_b, B H_b, P'W0, P'P, la, lg, P'1 and the classes, and for
        the contexts X^ = P'W0 - P'P H~.  A step's
        rows H give T the columns -T N_new, so the old rows of H~ take
        -(H~ H') B H.  O(m*k*d + k^2*d) for k = ``block_cap``."""
        t, m, k = self._t, len(la), self.block_cap
        new, PP, Ht = slice(t, t + m), self._PP, self._Ht
        self._BH[new] = BH
        self._PW[new] = PW
        self._coef[:, new] = la, lg, sigma
        self._cb[new] = ctx.c
        G = self._gram_rows(ctx, BH, la, lg, (self._BH, self._PW, *self._coef, self._cb))
        PP[new] = G
        PP[:, new] = G.T
        if t:
            Ht[:t] -= np.dot(ctx.ZW[:, :t].T, BH)
        Ht[new] = H
        self._t = t + m
        # I - beta hh' shrinks W along h by |1 - beta h.h| where below 1
        for x in np.einsum("ij,ij->i", BH, H).tolist():
            self._shrink *= min(1.0, abs(1.0 - x))
        self.op_count += m * (t * self.d + 2 * self.d) + k * (k * self.d + self.d)
        if self._t == k or self._shrink < BLOCK_SHRINK:
            self._flush()
            return
        np.subtract(self._PW, np.dot(PP, Ht), out=self._Xh)

    def _flush(self):
        """Apply the pending block, if any, with H~ on the right."""
        t = self._t
        if t:
            rows = (self._BH[:t], self._PW[:t], *self._coef[:, :t], self._cb[:t])
            self._apply(self._Ht[:t], *rows, self._PP[:t, :t])

    def _apply(self, Hr, BH, PW, la, lg, sigma, c, PP):
        """W <- W - P Hr in place of the representation, then drop the
        pending block and check the mixer's condition.  P's t columns are
        W Hl'B + 1la' + E_c diag(lg) at the present W, given by the rows
        B Hl, PW = P'W, la, lg, sigma = P'1, c and P'P, and Hr is H~ for a
        block, Hl for a step of its own.

        The W Hl'B Hr term goes into the mixer, A <- A(I - Hl'BHr), and
        its inverse by the Woodbury identity through the t x t matrix
        K = I - Hr Hl'B.  The 1la' and E_c diag(lg) terms, times Hr, go
        into the offset and into rows c of the core in pre-mixer
        coordinates, Hr times the new inverse, K^-1 Hr A^-1; a repeated
        class's row takes its summed terms.  Q takes Q - X'Hr - Hr'X with
        X = PW - P'P Hr / 2, and v takes v - Hr'sigma.  Five products are
        of size t*d^2 (2t*d^2 for the Gram matrix at small t), three of
        them into one reused d x d buffer, and the rest of size t^2*d:
        O(t*d^2 + t^2*d + t^3).
        """
        m, d = Hr.shape
        HH = np.dot(Hr, BH.T)
        # (I - Hl'BHr)^-1 = I + Hl'B K^-1 Hr; det K = det(I - Hl'BHr)
        K = _identity(m) - HH
        try:
            K_inv = np.linalg.inv(K)
        except np.linalg.LinAlgError:
            K_inv = None
        rows = self._rows
        if K_inv is None or not np.abs(K_inv).max() < 1e12:
            # the mixer update is (numerically) singular: W <- W(I - Hl'BHr)
            # - 1(la Hr) - E_c diag(lg) Hr as a rebase onto the mixer
            # A(I - Hl'BHr), after which the offset and rows c take the rest
            A = self.mixer - np.dot(np.dot(self.mixer, BH.T), Hr)
            rows.rebase(A)
            rows.write(c, rows.rows(c) - np.dot((c[:, None] == c) * lg, Hr))
            self._reset(self.offset @ A - np.dot(la, Hr))
            self.rebase_count += 1
            return

        Q, buf = self.gram, self._buf
        X = np.dot(PP, Hr)
        X *= -0.5
        X += PW
        # for small t as one product [X | Hr'][Hr ; X], which doubles the
        # multiply-adds but skips the strided pass over (X'Hr)' (17 against
        # 29 us at t = 1, d = 129; 29 against 42 at t = 16, d = 128; 84
        # against 65 at t = 48); its inner dimension is at least 2, and
        # ``np.matmul`` calls BLAS with less overhead than ``np.dot`` (8
        # against 9 us at t = 1, d = 128)
        if 5 * m <= d:
            XHX = np.concatenate([X, Hr, X])
            Q -= np.matmul(XHX[:2 * m].T, XHX[m:], out=buf)
        else:
            Q -= np.dot(X.T, Hr, out=buf)
            Q -= buf.T
        self.colsum -= np.dot(sigma, Hr)
        # A <- A - (A Hl'B) Hr and A^-1 <- A^-1 + Hl'B G, G = K^-1 Hr A^-1
        self.mixer -= np.dot(np.dot(self.mixer, BH.T), Hr, out=buf)
        G = np.dot(K_inv, np.dot(Hr, self.mixer_inv))
        self.mixer_inv += np.dot(BH.T, G, out=buf)
        self.offset -= np.dot(la, G)
        # each row of c takes its class's summed terms, so the rows of a
        # repeated class are written with the same value
        rows.write(c, rows.rows(c) - np.dot((c[:, None] == c) * lg, G))
        self.op_count += m * (5 * d * d + 3 * m * d + m * m + 6 * d) + 6 * d * d
        self._drop_block()

        # the condition estimate ||A|| ||A^-1|| against the threshold, squared
        A, A_inv, t = self.mixer, self.mixer_inv, self.cond_threshold
        if np.vdot(A, A) * np.vdot(A_inv, A_inv) > t * t:
            self._fold()

    def _drop_block(self):
        """No step pending: the block's slots back to zero."""
        self._ctx = None
        self._shrink = 1.0  # a lower bound on the block's shrinking of W
        if self._t:
            self._t = 0
            for slots in (self._L, self._BH, self._PP, self._coef):
                slots.fill(0.0)

    def train_step(self, H: np.ndarray, y: np.ndarray, kind: str, params: losses.LossParams,
                   lr: float, mu: float, backward: bool = True):
        """The exact plain SGD step on the mean loss of the rows of H (m, d)
        with targets y, through ``forward_stats``, the loss's entry,
        ``backward_h`` and ``sgd_step``; returns what the dense layer's
        does.  ``mu`` is not applied: exact momentum is not implemented.
        An empty batch returns empty arrays and leaves the state as it was."""
        m = max(len(y), 1)  # lr / m stays finite where sgd_step is a no-op
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
        gives W = (C M + 1 (M u)') (M^-1 A), so the fold sets u <- M u
        and A <- M^-1 A = A + U_k (I - S_k) V_k', whose inverse comes from
        the same SVD with S_k set to 1, and records M with the row store,
        which applies it to p at once and defers it on every written row.
        W, Q and v are unchanged in exact arithmetic, so the caches are
        kept.  A pending rank above FOLD_MAX_RANK * d takes a rebase.  A
        pending block is flushed first.  O(d^3), or O(T*d^2 + D) with the
        rebase.
        """
        self._flush()
        self._ctx = None
        U, sig, Vt = np.linalg.svd(self.mixer)
        cut = sig < FOLD_CUT * sig[0]
        k = int(np.count_nonzero(cut))
        if not 0 < k <= FOLD_MAX_RANK * self.d:
            self.rebase()
            return
        Uk, Sk = U[:, cut], sig[cut]
        R = (Sk - 1.0)[:, None] * Uk.T  # C M = C + (C U_k) R
        self.offset = self.offset + (self.offset @ Uk) @ R
        self.mixer = self.mixer + (Uk * (1.0 - Sk)) @ Vt[cut]
        sig[cut] = 1.0
        self.mixer_inv = (Vt.T / sig) @ U.T
        self.fold_count += 1
        if self._rows.fold(Uk, R) > FOLD_MAX_RANK * self.d:
            self.rebase()

    def rebase(self):
        """Flush the pending block, then make the mixer the identity: the
        row store takes p <- p A and Delta <- Delta S A, S being the
        product of the pending folds, and the offset u <- u A.

        The represented matrix is unchanged; the caches are recomputed at
        full precision, and ``last_drift`` records how far the ones they
        replace had drifted.  O(T*d^2 + D), run once: a flush that rebased,
        through a fold or the singular-update fallback, is the rebase.
        """
        rebases = self.rebase_count
        self._flush()
        if self.rebase_count > rebases:
            return
        gram, colsum = self.gram, self.colsum
        self._rows.rebase(self.mixer)
        self._reset(self.offset @ self.mixer)
        self.last_drift = (_rel_diff(gram, self.gram), _rel_diff(colsum, self.colsum))
        self.rebase_count += 1

    def _reset(self, offset: np.ndarray, caches=None):
        """An identity mixer and the offset ``offset`` over the row store as
        it stands, no block pending, and the caches (W'W, W'1) given or
        the store's, at full precision, in O(T*d^2 + D)."""
        self._drop_block()
        self.mixer = np.eye(self.d)
        self.mixer_inv = np.eye(self.d)
        self.offset = offset
        self.gram, self.colsum = self._rows.caches(offset) if caches is None else caches

    # the layer's d-sized arrays: its mixer, offset and caches
    _STATE = ("mixer", "mixer_inv", "offset", "gram", "colsum")

    def logits(self, H: np.ndarray) -> np.ndarray:
        """O = H W' for the rows of H, (n, D), after a flush of the pending
        block and a rebase when folds are pending.  With G = H A', the T
        written rows take G Delta' + G u, one product over them, and every
        other row b_k (G p) + G u, the value its logit had in the product
        over all D rows, so an untouched row's logit keeps its bits:
        O(n*d^2 + n*T*d + n*D), with no D x d array.  Evaluation, so not
        counted in ``op_count``."""
        H = _as_rows(H, self.d)
        self._flush()
        if self._rows.pending:
            self.rebase()
        return self._rows.logits(H @ self.mixer.T, self.offset)

    def snapshot(self) -> _Journal:
        """The layer's state, for ``restore``, after a flush of the pending
        block and a rebase when folds are pending: copies of the d-sized
        arrays and of p, and an undo journal of the row store that
        replaces the one of an earlier snapshot.  O(d^2 + T), or
        O(T*d^2 + D) with the rebase.

        Until the next snapshot or restore, every write to a written row
        first saves the row's present value once, and a row written for
        the first time takes a new slot.  A rebase or the singular-update
        fallback with the journal open writes the new Delta into a fresh
        array and keeps the old one, its saved rows written back, as one
        full copy: the only case that copies Delta."""
        self._flush()
        if self._rows.pending:
            self.rebase()
        return self._rows.snapshot({name: getattr(self, name).copy() for name in self._STATE})

    def restore(self, snapshot: _Journal):
        """Return to the state of ``snapshot``, the layer's last, which is
        restored at most once: its saved rows are written back, or its
        full copy taken, the rows first written since are dropped, and its
        d-sized arrays are taken over, in O(rows written * d + d^2).  The
        pending block and the pending folds are dropped.  ValueError for a
        snapshot superseded by a later one or already restored, whose
        state is gone."""
        small = self._rows.restore(snapshot)
        self._drop_block()
        for name, x in small.items():
            setattr(self, name, x)

    def materialize(self) -> DenseOutputLayer:
        """Dense copy of the represented matrix, after a flush of the pending
        block; for tests and export only."""
        self._flush()
        W = self._rows.weights(np.empty((self.D, self.d)), self.offset, self.mixer)
        return DenseOutputLayer(W, copy=False)
