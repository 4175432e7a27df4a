"""From-scratch rectifier MLP training harness.

Protocol: He-initialized hidden layers, zero-initialized output weights
(optionally with prior-frequency bias init), minibatch SGD with Nesterov
momentum, learning-rate halving on a validation-patience counter, early
stopping, and best-validation-epoch restoration before test evaluation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import losses
from .fast_output import FactoredOutputLayer, StepPartials


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
        if not self.initial_lr > 0:
            raise ValueError("initial_lr must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1 or self.patience < 1 or self.max_epochs < 1:
            raise ValueError("batch_size, patience and max_epochs must be >= 1")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise ValueError("lr_decay_factor must be in (0, 1)")
        if self.output_layer not in ("dense", "factored"):
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
    epochs: List[EpochRecord] = field(default_factory=list)
    test_loss: float = math.nan
    test_error: float = math.nan
    test_negll: float = math.nan
    top10_error: float = math.nan
    epochs_run: int = 0
    best_epoch: int = -1
    diverged: bool = False
    diagnostic: str = ""
    model: Optional["MLP"] = field(default=None, repr=False)


def he_init(fan_in: int, size, rng: np.random.Generator) -> np.ndarray:
    """Gaussian init with std sqrt(2/fan_in), for rectifier layers."""
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=size)


def output_init(
    D: int,
    d: int,
    class_freqs: Optional[np.ndarray],
    loss_kind: str,
    n_examples: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero output weights plus a bias making the initial predicted
    distribution match ``class_freqs`` (uniform when None), by the loss
    kind's ``prior_bias`` map in ``losses.LOSSES``.
    """
    prior_bias = losses.loss_record(loss_kind).prior_bias
    W = np.zeros((D, d))
    if class_freqs is None:
        p = np.full(D, 1.0 / D)
    else:
        p = np.asarray(class_freqs, dtype=np.float64).copy()
        if p.shape != (D,) or np.any(p < 0):
            raise ValueError("class_freqs must be D nonnegative reals")
        if np.any(p == 0):
            if n_examples is None:
                raise ValueError("zero-frequency class needs n_examples to floor")
            p[p == 0] = 1.0 / (10.0 * n_examples)
        p = p / p.sum()
    return W, prior_bias(p)


def nesterov_step(params: np.ndarray, velocity: np.ndarray, grad: np.ndarray,
                  lr: float, mu: float):
    """In-place Nesterov update: v <- mu*v - lr*g; p <- p + mu*v - lr*g."""
    velocity *= mu
    velocity -= lr * grad
    params += mu * velocity
    params -= lr * grad


class MLP:
    """Rectifier MLP with a dense linear output layer, trained manually."""

    def __init__(self, spec: MLPSpec, rng: np.random.Generator,
                 class_freqs: Optional[np.ndarray] = None,
                 loss_kind: str = "log_softmax",
                 prior_bias_init: bool = False,
                 n_examples: Optional[int] = None):
        self.spec = spec
        dims = (spec.input_dim, *spec.hidden_dims)
        self.Ws: List[np.ndarray] = []
        self.bs: List[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.Ws.append(he_init(fan_in, (fan_out, fan_in), rng))
            self.bs.append(np.zeros(fan_out))
        if prior_bias_init:
            W_out, b_out = output_init(
                spec.output_dim, dims[-1], class_freqs, loss_kind,
                n_examples=n_examples,
            )
        else:
            W_out = np.zeros((spec.output_dim, dims[-1]))
            b_out = np.zeros(spec.output_dim)
        self.Ws.append(W_out)
        self.bs.append(b_out)

    def params(self) -> List[np.ndarray]:
        return [*self.Ws, *self.bs]

    def get_state(self) -> List[np.ndarray]:
        return [p.copy() for p in self.params()]

    def set_state(self, state: Sequence[np.ndarray]):
        for p, s in zip(self.params(), state):
            p[...] = s

    def hidden(self, X: np.ndarray) -> List[np.ndarray]:
        """Activations of the input and of every hidden layer, input first."""
        hs = [np.asarray(X, dtype=np.float64)]
        for W, b in zip(self.Ws[:-1], self.bs[:-1]):
            hs.append(np.maximum(hs[-1] @ W.T + b, 0.0))
        return hs

    def forward(self, X: np.ndarray):
        """Returns (logits, hidden activations including the input)."""
        hs = self.hidden(X)
        return hs[-1] @ self.Ws[-1].T + self.bs[-1], hs

    def backward(self, hs: List[np.ndarray], dO: np.ndarray):
        """Parameter gradients given d(mean loss)/d(logits).

        Returns (dWs, dbs) aligned with self.Ws / self.bs.
        """
        dWs, dbs = [], []
        if self.Ws[:-1]:
            dWs, dbs = self.backward_hidden_from_dh(hs, dO @ self.Ws[-1])
        return [*dWs, dO.T @ hs[-1]], [*dbs, dO.sum(axis=0)]

    def backward_hidden_from_dh(self, hs: List[np.ndarray], dh: np.ndarray):
        """Hidden-layer gradients given d(mean loss)/d(last hidden)."""
        dWs = [None] * (len(self.Ws) - 1)
        dbs = [None] * (len(self.bs) - 1)
        for i in range(len(self.Ws) - 2, -1, -1):
            dz = dh * (hs[i + 1] > 0.0)
            dWs[i] = dz.T @ hs[i]
            dbs[i] = dz.sum(axis=0)
            if i > 0:
                dh = dz @ self.Ws[i]
        return dWs, dbs


def evaluate(model, X: np.ndarray, y: np.ndarray, loss_kind: str,
             eps: float = losses.DEFAULT_EPS, xi: float = 1.0,
             chunk: int = 8192):
    """(negll, error_rate, top10_error, own_loss) over a split.

    ``own_loss`` is the training loss evaluated on the split; negll is the
    likelihood-based metric (MSE for the mse loss, by convention).
    """
    n = X.shape[0]
    own_negll = losses.loss_record(loss_kind).negll is None
    negll_sum = 0.0
    loss_sum = 0.0
    err = 0
    top10_err = 0
    for lo in range(0, n, chunk):
        Xb, yb = X[lo:lo + chunk], y[lo:lo + chunk]
        if isinstance(model, MLP):
            O, _ = model.forward(Xb)
        else:
            O = model(Xb)
        own = losses.batch_loss(loss_kind, O, yb, eps=eps, xi=xi)
        loss_sum += own.sum()
        negll = own if own_negll else losses.batch_negll(loss_kind, O, yb, eps=eps)
        negll_sum += negll.sum()
        scores = losses.batch_scores(loss_kind, O)
        err += int((scores.argmax(axis=1) != yb).sum())
        k = min(10, scores.shape[1])
        topk = np.argpartition(-scores, k - 1, axis=1)[:, :k]
        top10_err += int((topk != yb[:, None]).all(axis=1).sum())
    return negll_sum / n, err / n, top10_err / n, loss_sum / n


def _train_batch_dense(model: MLP, Xb, yb, cfg: TrainConfig, lr: float, vels):
    O, hs = model.forward(Xb)
    losses_b, grad_O = losses.batch_loss_grad(
        cfg.loss_kind, O, yb, eps=cfg.eps, xi=cfg.xi
    )
    dWs, dbs = model.backward(hs, grad_O / Xb.shape[0])
    for p, v, g in zip(model.params(), vels, [*dWs, *dbs]):
        nesterov_step(p, v, g, lr, cfg.momentum)
    return float(losses_b.mean())


def _train_batch_factored(model: MLP, layer: FactoredOutputLayer, Xb, yb,
                          cfg: TrainConfig, lr: float, vels):
    """Hidden layers: batch Nesterov step.  Output layer: one exact plain
    SGD step on the batch's mean loss."""
    hs = model.hidden(Xb)
    m, d = hs[-1].shape
    # bias folded into the layer as a constant-1 appended feature
    H = np.concatenate([hs[-1], np.ones((m, 1))], axis=1)
    st = layer.forward_stats(H, yb)
    loss, a, bq, g = losses.loss_record(cfg.loss_kind).entry(
        st.s, st.q, st.o_c, layer.D, losses.LossParams(eps=cfg.eps, xi=cfg.xi)
    )
    step = StepPartials(a=a, bq=bq, g=g, c=yb, h=H)

    # hidden gradient uses the pre-update output weights (batch semantics)
    if model.Ws[:-1]:
        dWs, dbs = model.backward_hidden_from_dh(hs, layer.backward_h(step)[:, :d] / m)
        hidden_params = [*model.Ws[:-1], *model.bs[:-1]]
        for p, v, gr in zip(hidden_params, vels, [*dWs, *dbs]):
            nesterov_step(p, v, gr, lr, cfg.momentum)

    layer.sgd_step(step, lr / m)
    return float(loss.mean())


def train(spec: MLPSpec, cfg: TrainConfig, splits, csv_path: Optional[str] = None,
          error_target: Optional[float] = None) -> RunMetrics:
    """Train on (train, valid, test) splits of (X, y) pairs.

    LR halves whenever validation error fails to improve for ``patience``
    consecutive epochs; training stops after 10 halvings (lr below
    initial/2^10), at ``max_epochs``, or once ``error_target`` is reached
    on validation.  Test metrics come from the best-validation parameters.
    """
    (Xtr, ytr), (Xva, yva), (Xte, yte) = splits
    rng = np.random.default_rng(cfg.seed)
    freqs = np.bincount(ytr, minlength=spec.output_dim) / len(ytr)
    model = MLP(spec, rng, class_freqs=freqs, loss_kind=cfg.loss_kind,
                prior_bias_init=cfg.prior_bias_init, n_examples=len(ytr))

    factored_layer = None
    if cfg.output_layer == "factored":
        d = spec.hidden_dims[-1] if spec.hidden_dims else spec.input_dim
        W0 = np.concatenate(
            [model.Ws[-1], model.bs[-1][:, None]], axis=1
        )
        factored_layer = FactoredOutputLayer(W0)
        vels = [np.zeros_like(p) for p in [*model.Ws[:-1], *model.bs[:-1]]]
    else:
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
            if factored_layer is not None:
                bl = _train_batch_factored(model, factored_layer, Xb, yb, cfg, lr, vels)
            else:
                bl = _train_batch_dense(model, Xb, yb, cfg, lr, vels)
            if not math.isfinite(bl):
                metrics.diverged = True
                metrics.diagnostic = (
                    f"non-finite training loss at epoch {epoch}, batch {nb}"
                )
                metrics.epochs_run = epoch
                return metrics
            loss_acc += bl
            nb += 1

        if factored_layer is not None:
            _sync_factored(model, factored_layer)
        _, valid_error, _, valid_loss = evaluate(
            model, Xva, yva, cfg.loss_kind, eps=cfg.eps, xi=cfg.xi
        )
        rec = EpochRecord(epoch=epoch, lr=lr, train_loss=loss_acc / max(nb, 1),
                          valid_loss=valid_loss, valid_error=valid_error)
        metrics.epochs.append(rec)
        metrics.epochs_run = epoch

        if valid_error < best_err - 1e-12:
            best_err = valid_error
            best_state = model.get_state()
            metrics.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                lr *= cfg.lr_decay_factor
                bad_epochs = 0
        if lr < lr_floor:
            break
        if error_target is not None and best_err <= error_target:
            break

    if best_state is not None:
        model.set_state(best_state)
    test_negll, test_error, top10_error, test_loss = evaluate(
        model, Xte, yte, cfg.loss_kind, eps=cfg.eps, xi=cfg.xi
    )
    metrics.test_negll = test_negll
    metrics.test_error = test_error
    metrics.top10_error = top10_error
    metrics.test_loss = test_loss

    if csv_path is not None:
        write_epoch_csv(csv_path, metrics)
    metrics.model = model
    return metrics


def _sync_factored(model: MLP, layer: FactoredOutputLayer):
    """Copy the factored layer's represented weights back into the MLP so
    the shared evaluation path can run (O(D*d^2), once per epoch)."""
    dense = layer.materialize()
    model.Ws[-1][...] = dense.W[:, :-1]
    model.bs[-1][...] = dense.W[:, -1]


def write_epoch_csv(path: str, metrics: RunMetrics):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "lr", "train_loss", "valid_loss", "valid_error"])
        for r in metrics.epochs:
            w.writerow([r.epoch, r.lr, r.train_loss, r.valid_loss, r.valid_error])


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
