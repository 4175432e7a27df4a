"""Spherical-family classification losses, an output-size-independent
exact output-layer updater, and a small MLP training harness."""

from .losses import (
    DEFAULT_EPS,
    LOSSES,
    LossGrad,
    QuadraticNormalizerParams,
    SphericalStats,
    finite_diff_grad,
    grad_from_partials,
    loss_grad,
    quadratic_normalizer,
    softmax,
    spherical_softmax,
    summary_stats,
    taylor_softmax,
)
from .bound import bouchard_lse_bound_general, lambda_xi, optimize_xi
from .fast_output import DenseOutputLayer, FactoredOutputLayer, StepPartials
from .trainer import MLP, MLPSpec, RunMetrics, TrainConfig, evaluate, train
from .data import Dataset, SplitSpec, load_mnist, random_split, synthetic_categorical

__version__ = "0.1.0"
