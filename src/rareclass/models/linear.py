"""Linear learners solved by damped Newton from zero: L2-regularized
logistic regression, and the L2-loss (squared-hinge) linear SVM of
LIBLINEAR, after Keerthi & DeCoste (JMLR 2005).  Each objective is over
params = [w, b] with the bias unpenalized, so a shift of the columns moves
only the bias, and neither has a step size to tune."""

from __future__ import annotations

import numpy as np

GRAD_TOL, MAX_STEPS = 1e-8, 100     # stop at max |gradient| <= GRAD_TOL or MAX_STEPS
ARMIJO, MIN_STEP = 1e-4, 2.0 ** -40  # sufficient decrease; the shortest step tried


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


def _objective(X, penalty: float, data_term):
    """An objective over params = [w, b]: data_term(z) at the margins
    z = [X, 1] @ params, plus (penalty/2)||w||^2.  data_term gives its value
    and its first and second derivative in each z; the objective gives the
    loss, and a function giving the gradient and Hessian in params, which
    the line search never calls."""
    A = np.hstack([X, np.ones((len(X), 1))])
    pen = np.full(A.shape[1], penalty)
    pen[-1] = 0.0                           # the bias is not penalized

    def objective(params):
        value, d1, d2 = data_term(A @ params)

        def derivatives():
            return A.T @ d1 + pen * params, (A.T * d2) @ A + np.diag(pen)
        return value + 0.5 * float(pen @ params ** 2), derivatives
    return objective


def logistic_objective(X, y, sw, l2: float):
    """Weighted mean log-loss + (l2/2)||w||^2."""
    share = sw / sw.sum()

    def data_term(z):
        p = sigmoid(z)
        return log_loss(z, y, sw), share * (p - y), share * p * (1 - p)
    return _objective(X, l2, data_term)


def svm_objective(X, y, sw, c: float):
    """0.5||w||^2 + C * sum_i sw_i max(0, 1 - t_i z_i)^2 with t = +/-1.  The
    squared hinge is once differentiable; its second derivative is the
    generalized one, 2C sw_i on the rows inside the margin and 0 outside."""
    t = np.where(y == 1, 1.0, -1.0)

    def data_term(z):
        slack = np.maximum(1.0 - t * z, 0.0)
        return c * float(sw @ slack ** 2), -2 * c * sw * t * slack, 2 * c * sw * (slack > 0)
    return _objective(X, 1.0, data_term)


def _newton(objective, n_params: int, name: str):
    """Damped Newton from zero with an Armijo backtracking search on the
    loss; returns (w, b, loss trace), one loss per iterate.  It stops at
    max |gradient| <= GRAD_TOL, after MAX_STEPS, or when no step lowers the
    loss.  Overflow goes unwarned: a non-finite loss, gradient or Hessian
    raises TrainingDiverged."""
    params = np.zeros(n_params)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, derivatives = objective(params)
        trace = [loss]
        for _ in range(MAX_STEPS):
            grad, hess = derivatives()
            if not (np.isfinite(loss) and np.isfinite(grad).all() and np.isfinite(hess).all()):
                raise TrainingDiverged(f"{name} training diverged", trace)
            if np.abs(grad).max() <= GRAD_TOL:
                break
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:       # singular: the least-norm step
                step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            slope, t = float(grad @ step), 1.0
            while True:
                new_loss, new_derivatives = objective(params + t * step)
                if new_loss < loss and new_loss <= loss + ARMIJO * t * slope:
                    break
                t /= 2
                if t < MIN_STEP:                # no step lowers the loss
                    return params[:-1], float(params[-1]), trace
            params, loss, derivatives = params + t * step, new_loss, new_derivatives
            trace.append(loss)
    return params[:-1], float(params[-1]), trace


def train_logistic(X, y, sw, l2: float):
    return _newton(logistic_objective(X, y, sw, l2), X.shape[1] + 1, "logistic")


def train_linear_svm(X, y, sw, c: float):
    return _newton(svm_objective(X, y, sw, c), X.shape[1] + 1, "linear SVM")
