"""Checks on the model families that only the tests use."""

import numpy as np

from rareclass.data import Dataset
from rareclass.models import ModelError, ModelSpec, _check_trainable, linear


def gradient_check(spec: ModelSpec, data: Dataset, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central finite
    differences at a seeded random parameter point.

    For the hinge loss, rows within 10*epsilon of the margin at the base
    point are excluded from both sides of the comparison.
    """
    if spec.family not in ("logistic", "linear_svm"):
        raise ModelError("gradient check supports logistic and linear_svm only")
    _check_trainable(data)
    X = data.features.values
    y = data.labels.astype(np.float64)
    sw = np.ones(len(y))
    rng = np.random.default_rng(spec.seed)
    params = rng.normal(0, 0.5, size=X.shape[1] + 1)

    if spec.family == "logistic":
        def loss_grad(p):
            return linear.logistic_loss_grad(p, X, y, sw, spec.hyperparams["l2"])
    else:
        t = np.where(y == 1, 1.0, -1.0)
        z = X @ params[:-1] + params[-1]
        include = np.abs(1.0 - t * z) > 10 * epsilon

        def loss_grad(p):
            return linear.hinge_loss_grad(p, X, t, sw, spec.hyperparams["c"], include=include)

    _, grad = loss_grad(params)
    worst = 0.0
    for i in range(len(params)):
        e = np.zeros_like(params)
        e[i] = epsilon
        lp, _ = loss_grad(params + e)
        lm, _ = loss_grad(params - e)
        fd = (lp - lm) / (2 * epsilon)
        denom = max(abs(fd), abs(grad[i]), 1e-8)
        worst = max(worst, abs(fd - grad[i]) / denom)
    return worst
