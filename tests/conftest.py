import numpy as np
import pytest

from sphloss.cli import max_rel_err  # noqa: F401  (gradcheck's error measure)


@pytest.fixture(scope="session")
def toy_binary():
    """Linearly separable, class-imbalanced 2-D binary task."""
    rng = np.random.default_rng(0)
    n = 900
    X = rng.normal(size=(n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > -0.55).astype(np.int64)
    X[y == 1] += 1.2
    X[y == 0] -= 1.2
    return (
        (X[:600], y[:600]),
        (X[600:750], y[600:750]),
        (X[750:], y[750:]),
    )
