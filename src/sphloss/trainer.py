"""From-scratch rectifier MLP training harness.

Protocol: He-initialized hidden layers, zero-initialized output weights
(optionally with prior-frequency bias init), minibatch SGD with Nesterov
momentum, learning-rate halving on a validation-patience counter, early
stopping, and best-validation-epoch restoration before test evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import losses
from .fast_output import DenseOutputLayer, FactoredOutputLayer, nesterov_step

OUTPUT_LAYERS = {"dense": DenseOutputLayer, "factored": FactoredOutputLayer}


@dataclass(frozen=True)
class MLPSpec:
    input_dim: int
    hidden_dims: Tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(d < 1 for d in dims):
            raise ValueError("all dimensions must be >= 1")


@dataclass
class TrainConfig:
    loss_kind: str = "log_softmax"
    initial_lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 200
    patience: int = 5
    lr_decay_factor: float = 0.5
    max_epochs: int = 50
    seed: int = 0
    eps: float = losses.DEFAULT_EPS
    xi: float = 1.0
    output_layer: str = "dense"  # "dense" | "factored"
    prior_bias_init: bool = False

    def __post_init__(self):
        kind = losses.loss_record(self.loss_kind)
        if not 0.0 < self.initial_lr < math.inf:
            raise ValueError("initial_lr must be finite and > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, patience and max_epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise ValueError("lr_decay_factor must be in (0, 1)")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be finite and > 0")
        if not math.isfinite(self.xi):
            raise ValueError("xi must be finite")
        if self.output_layer not in OUTPUT_LAYERS:
            raise ValueError(f"unknown output layer {self.output_layer!r}")
        if self.output_layer == "factored" and kind.entry is None:
            raise ValueError(
                "the factored output layer requires a spherical-family loss"
            )


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    valid_loss: float
    valid_error: float


@dataclass
class RunMetrics:
    """Per-epoch records and test metrics of one training run.

    ``model`` is the trained ``MLP`` at its best-validation state, for
    either output layer: ``evaluate(model, ...)`` on the test split
    reproduces the test metrics bitwise.
    """

    epochs: List[EpochRecord] = field(default_factory=list)
    test_loss: float = math.nan
    test_error: float = math.nan
    test_negll: float = math.nan
    top10_error: float = math.nan
    epochs_run: int = 0
    best_epoch: int = -1
    diverged: bool = False
    diagnostic: str = ""
    model: Optional[MLP] = field(default=None, repr=False)


def he_init(fan_in: int, size, rng: np.random.Generator) -> np.ndarray:
    """Gaussian init with std sqrt(2/fan_in), for rectifier layers."""
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=size)


def output_init(
    D: int,
    class_freqs: Optional[np.ndarray],
    loss_kind: str,
    n_examples: Optional[int] = None,
) -> np.ndarray:
    """The output bias that, with zero output weights, makes the initial
    predicted distribution match ``class_freqs`` (uniform when None), by
    the loss kind's ``prior_bias`` map in ``losses.LOSSES``.
    """
    prior_bias = losses.loss_record(loss_kind).prior_bias
    if class_freqs is None:
        p = np.full(D, 1.0 / D)
    else:
        p = np.asarray(class_freqs, dtype=np.float64).copy()
        if p.shape != (D,) or not np.all(np.isfinite(p) & (p >= 0)):
            raise ValueError("class_freqs must be D finite nonnegative reals")
        if np.any(p == 0):
            if n_examples is None:
                raise ValueError("zero-frequency class needs n_examples to floor")
            p[p == 0] = 1.0 / (10.0 * n_examples)
        p = p / p.sum()
    return prior_bias(p)


def _with_bias(h: np.ndarray) -> np.ndarray:
    """Rows of h with the constant-1 feature into which the output layer
    folds its bias."""
    return np.concatenate([h, np.ones((h.shape[0], 1))], axis=1)


class MLP:
    """Rectifier MLP, trained manually, that owns its output layer ``out``:
    ``OUTPUT_LAYERS[output_layer]`` over [h, 1], whose weights start at zero
    with ``bias`` (zero when None) in their last column.  ``Ws`` and ``bs``
    are the hidden layers'."""

    def __init__(self, spec: MLPSpec, rng: np.random.Generator,
                 output_layer: str = "dense", bias: Optional[np.ndarray] = None):
        dims = (spec.input_dim, *spec.hidden_dims)
        self.Ws: List[np.ndarray] = []
        self.bs: List[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.Ws.append(he_init(fan_in, (fan_out, fan_in), rng))
            self.bs.append(np.zeros(fan_out))
        # the layer builds its own [0 | bias]: no copy (one freed at once
        # raises glibc's mmap threshold, and the dense trainer's peak RSS
        # with it) and, factored, the caches in closed form
        self.out = OUTPUT_LAYERS[output_layer].zeros(spec.output_dim, dims[-1] + 1, bias)

    def params(self) -> List[np.ndarray]:
        """The hidden layers' parameters; ``out`` holds the output layer's."""
        return [*self.Ws, *self.bs]

    def hidden(self, X: np.ndarray) -> List[np.ndarray]:
        """Activations of the input and of every hidden layer, input first."""
        hs = [np.asarray(X, dtype=np.float64)]
        for W, b in zip(self.Ws, self.bs):
            hs.append(np.maximum(hs[-1] @ W.T + b, 0.0))
        return hs

    def forward(self, X: np.ndarray) -> np.ndarray:
        """The logits of the rows of X."""
        return self.out.logits(_with_bias(self.hidden(X)[-1]))

    def backward(self, hs: List[np.ndarray], dO: np.ndarray) -> List[np.ndarray]:
        """Gradients given d(mean loss)/d(logits) through a dense output
        layer, aligned with [*params(), out.W]; dh is sliced from dO W, as
        the trainer slices it from ``DenseOutputLayer.train_step``."""
        grads = self.backward_hidden_from_dh(hs, (dO @ self.out.W)[:, :-1]) if self.Ws else []
        return [*grads, dO.T @ _with_bias(hs[-1])]

    def backward_hidden_from_dh(self, hs: List[np.ndarray], dh: np.ndarray):
        """Hidden-layer gradients given d(mean loss)/d(last hidden), aligned
        with params()."""
        dWs = [None] * len(self.Ws)
        dbs = [None] * len(self.bs)
        for i in range(len(self.Ws) - 1, -1, -1):
            dz = dh * (hs[i + 1] > 0.0)
            dWs[i] = dz.T @ hs[i]
            dbs[i] = dz.sum(axis=0)
            if i > 0:
                dh = dz @ self.Ws[i]
        return [*dWs, *dbs]


def init_model(spec: MLPSpec, cfg: TrainConfig, ytr: np.ndarray,
               rng: np.random.Generator) -> MLP:
    """The MLP ``train`` starts from: with ``cfg.prior_bias_init``, its
    output bias matches the class frequencies of the training labels."""
    bias = None
    if cfg.prior_bias_init:
        freqs = np.bincount(ytr, minlength=spec.output_dim) / len(ytr)
        bias = output_init(spec.output_dim, freqs, cfg.loss_kind, n_examples=len(ytr))
    return MLP(spec, rng, cfg.output_layer, bias)


# most logits evaluate scores in one block (one row at least): bounds its
# (rows, D) arrays in D
EVAL_BLOCK_ELEMENTS = 1 << 22
# row groups of at most this many rows (on a larger split, D of at least
# losses.GROUP_ELEMENTS / 64 = 1024 classes) are ranked one row at a time
RANK_ROW_GROUP = 64


def _target_rank(O: np.ndarray, y: np.ndarray, rec: losses.LossKind,
                 buf: np.ndarray) -> np.ndarray:
    """Per row of logits ``O`` with target ``c = y``, the target's rank by
    ``rec.key``: r = #{k : key_k > key_c} + #{k < c : key_k = key_c}, its
    position in a stable sort by descending key, where the strict count is
    below min(10, D); from there on the ties are not counted, so r is a
    lower bound.  D when the target's key is NaN.  ``O`` is only read.  The
    rows are keyed in groups the size of ``buf``, a (g, D) scratch array.
    A group of at most ``RANK_ROW_GROUP`` rows is counted one row at a time,
    the ties over the prefix ``K[i, :c]``: a 1-D ``np.count_nonzero`` of a
    long row is several times faster than ``sum(axis=1)`` over the group's
    bools.  A larger group, of short rows, is counted in one vectorized
    pass, where the loop's per-row interpreter cost would dominate.
    """
    y = np.asarray(y, dtype=np.intp)
    n, D = O.shape
    g = buf.shape[0]
    top = min(10, D)
    r = np.empty(n, dtype=np.intp)
    for lo in range(0, n, g):
        Og, yg = O[lo:lo + g], y[lo:lo + g]
        m = len(yg)
        K = rec.key(Og, out=buf[:m])
        key_c = K[np.arange(m), yg]
        above = K > key_c[:, None]
        rg = r[lo:lo + m]
        # ties below c matter only where the strict count is under top-10
        if g <= RANK_ROW_GROUP:
            for i, c in enumerate(yg):
                ri = np.count_nonzero(above[i])
                if ri < top:
                    ri += np.count_nonzero(K[i, :c] == key_c[i])
                rg[i] = ri
        else:
            rg[:] = above.sum(axis=1)
            tied = np.flatnonzero(rg < top)
            if tied.size:
                below_c = np.arange(D) < yg[tied, None]
                rg[tied] += ((K[tied] == key_c[tied, None]) & below_c).sum(axis=1)
        rg[np.isnan(key_c)] = D  # NaN compares false: rank a NaN target last
    return r


def evaluate(model, X: np.ndarray, y: np.ndarray, loss_kind: str,
             eps: float = losses.DEFAULT_EPS, xi: float = 1.0):
    """(negll, error_rate, top10_error, own_loss) over a split.

    ``model`` is an ``MLP`` or a predictor X -> logits; it is read, never
    written, but for the rebase that a factored layer's ``logits`` takes
    with folds pending.  Its logits (``MLP.forward``) are formed once on
    zero rows, to learn D, and then on blocks of at most
    ``EVAL_BLOCK_ELEMENTS``.  They give the rank, and the log-softmax
    negll of the bound kinds.  For an ``MLP`` whose ``out`` is a
    ``FactoredOutputLayer`` and a kind with a spherical ``entry``, the own
    loss (and the negll, where the kind reports its own loss) is the entry
    on the block's (s, q, o_c), which ``read_stats`` reads from the layer's
    caches for the block's [h, 1] rows; otherwise it is ``batch_loss`` on
    the logits.  Every row's logits still come from ``MLP.forward``, so
    the hidden layers of such a block are computed twice, O(rows * d^2)
    against the logits' O(rows * d * D).
    ``own_loss`` is the training loss evaluated on the split; negll is the
    likelihood-based metric (MSE for the mse loss, by convention).
    A row is an error when its target's ``_target_rank`` is above 0 and a
    top-10 error when it is at least min(10, D): a class whose score ties
    the target's counts as above it when its index is lower, the rule by
    which ``argmax`` picks the first of tied maxima, for top-10 as well.
    An empty split is a ValueError.
    """
    rec = losses.loss_record(loss_kind)
    n = X.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty split")
    predict, cached = model, None
    if isinstance(model, MLP):
        predict = model.forward
        if isinstance(model.out, FactoredOutputLayer) and rec.entry is not None:
            cached = model.out
    D = predict(X[:0]).shape[1]
    params = losses.LossParams(eps=eps, xi=xi)
    rows = max(1, EVAL_BLOCK_ELEMENTS // D)
    # the key's scratch, one row group, allocated once for every block
    buf = np.empty((min(max(1, losses.GROUP_ELEMENTS // D), n), D))
    negll_sum = 0.0
    loss_sum = 0.0
    err = 0
    top10_err = 0
    for lo in range(0, n, rows):
        Xb, yb = X[lo:lo + rows], y[lo:lo + rows]
        O = predict(Xb)
        if cached is None:
            own = losses.batch_loss(loss_kind, O, yb, eps=eps, xi=xi)
        else:
            st = cached.read_stats(_with_bias(model.hidden(Xb)[-1]), yb)
            own = rec.entry(*st, D, params)[0]
        loss_sum += own.sum()
        negll = own if rec.negll is None else losses.batch_negll(loss_kind, O, yb, eps=eps)
        negll_sum += negll.sum()
        r = _target_rank(O, yb, rec, buf)
        err += int(np.count_nonzero(r > 0))
        top10_err += int(np.count_nonzero(r >= min(10, D)))
    return negll_sum / n, err / n, top10_err / n, loss_sum / n


def _train_batch(model: MLP, Xb, yb, cfg: TrainConfig, lr: float, vels):
    """One step on the batch's mean loss, returned: the output layer takes
    its own ``train_step``, then the hidden layers a Nesterov step (with
    velocities ``vels``) on the dL/d[h, 1] it returns."""
    hs = model.hidden(Xb)
    step_losses, dH = model.out.train_step(
        _with_bias(hs[-1]), yb, cfg.loss_kind, losses.LossParams(eps=cfg.eps, xi=cfg.xi),
        lr, cfg.momentum, backward=bool(model.Ws))
    if model.Ws:
        grads = model.backward_hidden_from_dh(hs, dH[:, :-1])
        for p, v, g in zip(model.params(), vels, grads):
            nesterov_step(p, v, g, lr, cfg.momentum)
    return float(step_losses.mean())


def train(spec: MLPSpec, cfg: TrainConfig, splits) -> RunMetrics:
    """Train on (train, valid, test) splits of (X, y) pairs.

    LR halves whenever validation error fails to improve for ``patience``
    consecutive epochs; training stops after 10 halvings (lr below
    initial/2^10) or at ``max_epochs``.  Test metrics come from the
    best-validation parameters.  No file is written: the CLI writes a
    run's files from the returned ``RunMetrics``.

    Both output layers are evaluated through the MLP and keep their best
    state as the hidden parameters plus the output layer's ``snapshot``, so
    a factored run never forms its D x d output weights.
    """
    (Xtr, ytr), (Xva, yva), (Xte, yte) = splits
    rng = np.random.default_rng(cfg.seed)
    model = init_model(spec, cfg, ytr, rng)
    vels = [np.zeros_like(p) for p in model.params()]

    metrics = RunMetrics()
    best_err = math.inf
    best_state = None
    bad_epochs = 0
    lr = cfg.initial_lr
    lr_floor = cfg.initial_lr * cfg.lr_decay_factor ** 10
    n = len(ytr)

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        loss_acc, nb = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            Xb, yb = Xtr[idx], ytr[idx]
            bl = _train_batch(model, Xb, yb, cfg, lr, vels)
            if not math.isfinite(bl):
                metrics.diverged = True
                metrics.diagnostic = (
                    f"non-finite training loss at epoch {epoch}, batch {nb}"
                )
                metrics.epochs_run = epoch
                return metrics
            loss_acc += bl
            nb += 1

        _, valid_error, _, valid_loss = evaluate(
            model, Xva, yva, cfg.loss_kind, eps=cfg.eps, xi=cfg.xi
        )
        rec = EpochRecord(epoch=epoch, lr=lr, train_loss=loss_acc / max(nb, 1),
                          valid_loss=valid_loss, valid_error=valid_error)
        metrics.epochs.append(rec)
        metrics.epochs_run = epoch

        if valid_error < best_err - 1e-12:
            best_err = valid_error
            best_state = ([p.copy() for p in model.params()], model.out.snapshot())
            metrics.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                lr *= cfg.lr_decay_factor
                bad_epochs = 0
        if lr < lr_floor:
            break

    if best_state is not None:
        params, out_state = best_state
        for p, s in zip(model.params(), params):
            p[...] = s
        model.out.restore(out_state)
    test_negll, test_error, top10_error, test_loss = evaluate(
        model, Xte, yte, cfg.loss_kind, eps=cfg.eps, xi=cfg.xi
    )
    metrics.test_negll = test_negll
    metrics.test_error = test_error
    metrics.top10_error = top10_error
    metrics.test_loss = test_loss
    metrics.model = model
    return metrics


def format_run_record(metrics: RunMetrics) -> str:
    """Flat text record of the final metrics, one key=value per line."""
    items = [
        ("test_loss", metrics.test_loss),
        ("test_error", metrics.test_error),
        ("test_negll", metrics.test_negll),
        ("top10_error", metrics.top10_error),
        ("epochs_run", metrics.epochs_run),
        ("best_epoch", metrics.best_epoch),
        ("diverged", metrics.diverged),
    ]
    return "\n".join(f"{k}={v}" for k, v in items)
