"""Spherical-family classification losses, an output-size-independent
exact output-layer updater, and a small MLP training harness."""

from .losses import (
    DEFAULT_EPS,
    LossGrad,
    QuadraticNormalizerParams,
    SphericalStats,
    finite_diff_grad,
    grad_from_partials,
    log_softmax_abs_loss,
    log_softmax_loss,
    log_spherical_softmax_loss,
    log_taylor_softmax_loss,
    mse_loss,
    quadratic_normalizer,
    softmax,
    spherical_softmax,
    summary_stats,
    taylor_softmax,
)
from .bound import (
    XiParam,
    bouchard_lse_bound_general,
    lambda_xi,
    optimize_xi,
    spherical_bound_loss,
)
from .fast_output import DenseOutputLayer, FactoredOutputLayer, StepPartials
from .trainer import MLP, MLPSpec, RunMetrics, TrainConfig, evaluate, train
from .data import Dataset, SplitSpec, load_mnist, random_split, synthetic_categorical

__version__ = "0.1.0"
