"""Gradient functions for the supported ML tasks (Table 3 of the paper).

    ML task              g(w, x_i, y_i)
    -------------------  -------------------------------------------
    Linear regression    2 (w.x_i - y_i) x_i
    Logistic regression  (-1 / (1 + exp(y_i w.x_i))) y_i x_i
    SVM (hinge)          -y_i x_i   if y_i w.x_i < 1, else 0

All implementations are vectorised over a *batch* of data units and return
the **mean** gradient over the batch, matching MLlib's semantics (gradient
sum divided by the mini-batch size) so that the same step size behaves
comparably across BGD, MGD and SGD -- the paper deliberately uses MLlib's
hard-coded step size everywhere (Section 8.1).

Dense ``ndarray`` and ``scipy.sparse`` CSR inputs are both supported; an
optional L2 regularizer can wrap any task gradient.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from repro.errors import PlanError


class CsrRows:
    """Rows of a CSR matrix as flat ``(data, cols, row_ids)`` arrays.

    Stands in for scipy's ``X[rows]`` where the gradients read a batch
    (``.shape``, ``@ w``, ``.T @ coef``) without building it.  A product
    is one ``np.bincount`` over the entries in stored order, the order
    scipy's ``csr_matvec``/``csc_matvec`` sum in, so it is bit-identical.
    """

    def __init__(self, data, cols, row_ids, shape):
        self.data, self.cols, self.row_ids, self.shape = \
            data, cols, row_ids, shape

    @property
    def T(self):
        return CsrRows(self.data, self.row_ids, self.cols, self.shape[::-1])

    def __matmul__(self, w):
        return np.asarray(np.bincount(  # an empty batch counts ints
            self.row_ids, self.data * w[self.cols], self.shape[0]), float)


def take_rows(X, rows):
    """``X[rows]``; a :class:`CsrRows` when ``X`` is CSR."""
    if getattr(X, "format", None) != "csr":
        return X[rows]
    if isinstance(rows, slice):
        rows = np.arange(*rows.indices(X.shape[0]))
    starts = X.indptr[rows]
    lengths = X.indptr[rows + 1] - starts
    row_ids = np.repeat(np.arange(len(rows)), lengths)
    at = np.arange(len(row_ids)) + np.repeat(
        starts - np.cumsum(lengths) + lengths, lengths)
    return CsrRows(X.data[at], X.indices[at], row_ids,
                   (len(rows), X.shape[1]))


def _margins(w, X):
    """X @ w as a flat ndarray for dense or sparse X."""
    out = X @ w
    return np.asarray(out).ravel()


def _weighted_feature_sum(X, coef):
    """sum_i coef_i * x_i as a flat ndarray (works for CSR)."""
    out = X.T @ coef
    return np.asarray(out).ravel()


class Gradient:
    """Interface of a task gradient: mean gradient, mean loss, prediction."""

    name = "base"
    task = "base"

    def gradient(self, w, X, y):  # pragma: no cover - interface
        raise NotImplementedError

    def loss(self, w, X, y):  # pragma: no cover - interface
        raise NotImplementedError

    def predict(self, w, X):  # pragma: no cover - interface
        raise NotImplementedError


class LinearRegressionGradient(Gradient):
    """Squared loss: f_i(w) = (w.x_i - y_i)^2, g = 2 (w.x_i - y_i) x_i."""

    name = "squared"
    task = "linreg"

    def gradient(self, w, X, y):
        residual = _margins(w, X) - y
        return 2.0 * _weighted_feature_sum(X, residual) / X.shape[0]

    def loss(self, w, X, y):
        residual = _margins(w, X) - y
        return float(np.mean(residual ** 2))

    def predict(self, w, X):
        return _margins(w, X)


class LogisticGradient(Gradient):
    """Logistic loss with labels in {-1, +1}.

    f_i(w) = log(1 + exp(-y_i w.x_i)); the Table 3 form
    g = (-1 / (1 + exp(y_i w.x_i))) y_i x_i is computed with the stable
    sigmoid ``expit(-m) = 1 / (1 + exp(m))``.
    """

    name = "logistic"
    task = "logreg"

    def gradient(self, w, X, y):
        m = y * _margins(w, X)
        coef = -y * expit(-m)
        return _weighted_feature_sum(X, coef) / X.shape[0]

    def loss(self, w, X, y):
        m = y * _margins(w, X)
        # log(1 + exp(-m)) computed stably for both signs of m.
        return float(np.mean(np.logaddexp(0.0, -m)))

    def predict(self, w, X):
        return np.where(_margins(w, X) >= 0.0, 1.0, -1.0)


class HingeGradient(Gradient):
    """SVM hinge loss with labels in {-1, +1}.

    f_i(w) = max(0, 1 - y_i w.x_i); subgradient -y_i x_i on margin
    violations, 0 otherwise (Table 3).
    """

    name = "hinge"
    task = "svm"

    def gradient(self, w, X, y):
        m = y * _margins(w, X)
        coef = np.where(m < 1.0, -y, 0.0)
        return _weighted_feature_sum(X, coef) / X.shape[0]

    def loss(self, w, X, y):
        m = y * _margins(w, X)
        return float(np.mean(np.maximum(0.0, 1.0 - m)))

    def predict(self, w, X):
        return np.where(_margins(w, X) >= 0.0, 1.0, -1.0)


class L2Regularized(Gradient):
    """Wrap a task gradient with an L2 regularizer R(w) = lam/2 ||w||^2."""

    def __init__(self, base, lam):
        if lam < 0:
            raise PlanError("regularization strength must be >= 0")
        self.base = base
        self.lam = float(lam)
        self.name = f"{base.name}+l2({lam:g})"
        self.task = base.task

    def gradient(self, w, X, y):
        return self.base.gradient(w, X, y) + self.lam * w

    def loss(self, w, X, y):
        return self.base.loss(w, X, y) + 0.5 * self.lam * float(w @ w)

    def predict(self, w, X):
        return self.base.predict(w, X)


#: Task name -> gradient class, as the declarative language resolves them.
TASK_GRADIENTS = {
    "linreg": LinearRegressionGradient,
    "logreg": LogisticGradient,
    "svm": HingeGradient,
}

#: Gradient-function name -> class (Appendix A: e.g. ``hinge()``).
NAMED_GRADIENTS = {
    "squared": LinearRegressionGradient,
    "logistic": LogisticGradient,
    "hinge": HingeGradient,
}


def task_gradient(task, l2=0.0) -> Gradient:
    """Gradient for an ML task name ('linreg' | 'logreg' | 'svm')."""
    aliases = {
        "classification": "logreg",
        "regression": "linreg",
        "linear_regression": "linreg",
        "logistic_regression": "logreg",
    }
    key = aliases.get(task, task)
    if key not in TASK_GRADIENTS:
        raise PlanError(
            f"unknown task {task!r}; expected one of "
            f"{sorted(TASK_GRADIENTS) + sorted(aliases)}"
        )
    grad = TASK_GRADIENTS[key]()
    if l2 > 0:
        return L2Regularized(grad, l2)
    return grad


def named_gradient(name, l2=0.0) -> Gradient:
    """Gradient by function name ('hinge' | 'logistic' | 'squared')."""
    if name not in NAMED_GRADIENTS:
        raise PlanError(
            f"unknown gradient function {name!r}; expected one of "
            f"{sorted(NAMED_GRADIENTS)}"
        )
    grad = NAMED_GRADIENTS[name]()
    if l2 > 0:
        return L2Regularized(grad, l2)
    return grad
