"""Linear learners: L2-regularized logistic regression by full-batch
gradient descent and a linear SVM by hinge-loss subgradient descent."""

from __future__ import annotations

import numpy as np


class TrainingDiverged(RuntimeError):
    def __init__(self, message, loss_trace):
        super().__init__(message)
        self.loss_trace = loss_trace

    def __reduce__(self):           # pickle both arguments, e.g. out of a worker
        return type(self), (self.args[0], self.loss_trace)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_loss(z: np.ndarray, y: np.ndarray, sw: np.ndarray) -> float:
    # numerically stable -[y log p + (1-y) log(1-p)]
    per = np.logaddexp(0.0, z) - y * z
    return float((sw * per).sum() / sw.sum())


def logistic_loss_grad(params: np.ndarray, X: np.ndarray, y: np.ndarray,
                       sw: np.ndarray, l2: float):
    """Weighted log-loss + (l2/2)||w||^2 (bias unpenalized); params = [w, b]."""
    w, b = params[:-1], params[-1]
    z = X @ w + b
    loss = log_loss(z, y, sw) + 0.5 * l2 * float(w @ w)
    p = sigmoid(z)
    resid = sw * (p - y) / sw.sum()
    grad = np.concatenate([X.T @ resid + l2 * w, [resid.sum()]])
    return loss, grad


def _descend(loss_grad, n_params: int, lr: float, epochs: int, name: str):
    """Full-batch (sub)gradient descent from zero; returns (w, b, loss trace).
    Overflow goes unwarned: a non-finite loss raises TrainingDiverged."""
    params = np.zeros(n_params)
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            loss, grad = loss_grad(params)
            trace.append(loss)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"{name} training diverged", trace)
            params = params - lr * grad
        trace.append(loss_grad(params)[0])
    return params[:-1], float(params[-1]), trace


def train_logistic(X, y, sw, lr: float, epochs: int, l2: float):
    return _descend(lambda p: logistic_loss_grad(p, X, y, sw, l2),
                    X.shape[1] + 1, lr, epochs, "logistic")


def hinge_loss_grad(params: np.ndarray, X: np.ndarray, t: np.ndarray,
                    sw: np.ndarray, c: float):
    """0.5||w||^2 + C * mean_w(hinge); t in {-1, +1}; params = [w, b]."""
    w, b = params[:-1], params[-1]
    z = X @ w + b
    margin = 1.0 - t * z
    active = margin > 0
    wsum = sw.sum()
    loss = 0.5 * float(w @ w) + c * float((sw[active] * margin[active]).sum()) / wsum
    coef = np.zeros(len(t))
    coef[active] = -c * sw[active] * t[active] / wsum
    grad = np.concatenate([w + X.T @ coef, [coef.sum()]])
    return loss, grad


def train_linear_svm(X, y, sw, c: float, lr: float, epochs: int):
    t = np.where(y == 1, 1.0, -1.0)
    return _descend(lambda p: hinge_loss_grad(p, X, t, sw, c),
                    X.shape[1] + 1, lr, epochs, "linear SVM")
