"""Checks on the model families that only the tests use."""

import dataclasses

import numpy as np

from rareclass.data import Dataset
from rareclass.models import ModelError, ModelSpec, TrainedModel, _check_trainable, linear
from rareclass.models.trees import Tree


def _array_bytes(a) -> bytes:
    a = np.asarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def tree_bytes(t: Tree) -> bytes:
    """A tree's six arrays, gains included, as dtype, shape and raw bytes."""
    return b"".join(_array_bytes(getattr(t, f.name)) for f in dataclasses.fields(t))


def model_bytes(m: TrainedModel) -> bytes:
    """A model as one byte string: its spec, column ids and loss trace, and
    each state entry's arrays and trees as dtype, shape and raw bytes.  Two
    fits are the same model exactly when their byte strings are equal."""
    parts = [repr(m.spec).encode(), _array_bytes(m.column_ids),
             _array_bytes(np.array(m.loss_trace, dtype=np.float64))]
    for key, value in m.state.items():
        items = value if isinstance(value, list) else [value]
        parts.append(f"{key}[{len(items)}]".encode())
        parts += [tree_bytes(v) if isinstance(v, Tree) else _array_bytes(v) for v in items]
    return b"".join(parts)


def linear_objective(spec: ModelSpec, X, y, sw):
    """The objective a linear family's fit minimizes, as `linear` builds it."""
    if spec.family == "logistic":
        return linear.logistic_objective(X, y, sw, spec.hyperparams["l2"])
    if spec.family == "linear_svm":
        return linear.svm_objective(X, y, sw, spec.hyperparams["c"])
    raise ModelError("gradient check supports logistic and linear_svm only")


def gradient_check(spec: ModelSpec, data: Dataset, epsilon: float = 1e-5) -> float:
    """Max relative error of the analytic gradient against central finite
    differences of the loss, and of the analytic Hessian against central
    differences of the gradient, at a seeded random parameter point."""
    X = data.features.values
    y = data.labels.astype(np.float64)
    objective = linear_objective(spec, X, y, np.ones(len(y)))
    _check_trainable(data)
    rng = np.random.default_rng(spec.seed)
    params = rng.normal(0, 0.5, size=X.shape[1] + 1)
    grad, hess = objective(params)[1]()
    worst = 0.0
    for i in range(len(params)):
        e = np.zeros_like(params)
        e[i] = epsilon
        (lp, dp), (lm, dm) = objective(params + e), objective(params - e)
        fd = np.concatenate([[lp - lm], dp()[0] - dm()[0]]) / (2 * epsilon)
        exact = np.concatenate([[grad[i]], hess[:, i]])
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(exact)), 1e-8)
        worst = max(worst, float((np.abs(fd - exact) / denom).max()))
    return worst
