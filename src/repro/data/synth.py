"""Synthetic dataset generators.

The paper evaluates on LIBSVM datasets (adult, covtype, yearpred, rcv1,
higgs) plus dense synthetic SVM datasets up to 160 GB (Table 2).  The real
files are not redistributable here, so ``repro.data.datasets`` builds
*shape-equivalent* synthetic stand-ins with these generators.  The knobs
that matter for reproducing the paper's behaviour are:

``separability``
    Margin scale of the true linear concept.  Controls how quickly
    stochastic gradients vanish (an SGD step on a correctly-classified
    hinge point is exactly zero), which drives the per-dataset iteration
    counts in Table 4.
``label_noise``
    Fraction of flipped labels; makes a task genuinely non-separable
    (covtype-like), favouring batch GD at tight tolerances.
``row_order``
    ``"shuffled"`` (iid row layout) or ``"sorted"`` (rows ordered by label,
    as proxies for rcv1's skew).  Partition-local sampling is biased under
    ``"sorted"`` layouts, reproducing the rcv1 accuracy anomaly of
    Section 8.5.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.errors import DataFormatError


def _true_weights(d, rng):
    """A unit-norm ground-truth weight vector."""
    w = rng.normal(0.0, 1.0, size=d)
    norm = np.linalg.norm(w)
    if norm == 0:
        w[0] = 1.0
        norm = 1.0
    return w / norm


def _sparse_normal(n, d, density, scale, rng):
    """An ``n x d`` CSR matrix: ``density`` of its cells, drawn without
    replacement, hold ``N(0, scale)`` values.  Up to 2^24 cells (all but
    rcv1) ``scipy.sparse.random`` draws them: goldens pin its bits
    (ARCHITECTURE.md, "Known gaps")."""
    if n * d <= 2 ** 24:
        return sp.random(
            n, d, density=density, format="csr",
            random_state=np.random.RandomState(int(rng.integers(2**31))),
            data_rvs=lambda size: rng.normal(0.0, scale, size=size),
        )
    # scipy permutes every cell: 2.5 GB of indices for rcv1's 320 M.
    cells = rng.choice(n * d, size=int(round(density * n * d)),
                       replace=False)
    values = rng.normal(0.0, scale, size=cells.size)
    return sp.csr_matrix((values, (cells // d, cells % d)), shape=(n, d))


def _apply_row_order(X, y, row_order, rng):
    if row_order == "shuffled":
        perm = rng.permutation(y.shape[0])
    elif row_order == "sorted":
        # Stable sort by label groups all -1 rows before all +1 rows,
        # the worst case for partition-local sampling.
        perm = np.argsort(y, kind="stable")
    else:
        raise DataFormatError(f"unknown row_order {row_order!r}")
    return X[perm], y[perm]


def _set_margins(X, w_star, targets):
    """Shift each row along w* so that ``row . w_star == targets[row]``.

    For sparse rows the shift is confined to the row's active coordinates
    (preserving the sparsity pattern); rows whose active coordinates carry
    no w* mass keep their natural margin.
    """
    if sp.issparse(X):
        X = X.tocsr()
        current = np.asarray(X @ w_star).ravel()
        pattern = X.copy()
        pattern.data = np.ones_like(pattern.data)
        wsq = np.asarray(pattern @ (w_star ** 2)).ravel()
        ok = wsq > 1e-12
        coefs = np.zeros_like(current)
        coefs[ok] = (targets[ok] - current[ok]) / wsq[ok]
        per_entry = np.repeat(coefs, np.diff(X.indptr))
        X.data = X.data + per_entry * w_star[X.indices]
        return X
    current = X @ w_star
    coefs = (targets - current) / float(w_star @ w_star)
    return X + np.outer(coefs, w_star)


def make_classification(
    n,
    d,
    density=1.0,
    separability=1.0,
    hard_fraction=0.3,
    label_noise=0.0,
    sparse=False,
    row_order="shuffled",
    feature_scale=1.0,
    noise_scale=1.0,
    rng=None,
):
    """Binary classification data with labels in {-1, +1}.

    The margin distribution is a *mixture*, mimicking how real datasets
    behave under gradient descent:

    * a ``1 - hard_fraction`` mass of **easy** points whose signed margin
      ``y (x . w*)`` is placed around ``separability`` (these saturate the
      logistic/hinge gradients once training matures -- they are what
      lets SGD's weight-delta drop below a tolerance), and
    * a ``hard_fraction`` mass of **hard** points with signed margins
      ``~ N(0, 0.35)`` straddling the boundary (these keep the mean
      gradient alive and set how many iterations batch methods need).

    ``label_noise`` additionally flips that fraction of labels, and
    ``feature_scale`` multiplies all feature values; with the paper's
    fixed beta/sqrt(i) step size these are the knobs that control the
    iterations-to-tolerance behaviour (real LIBSVM datasets have equally
    arbitrary natural scales and hardness mixes).  Returns
    ``(X, y, w_star)``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if n < 1 or d < 1:
        raise DataFormatError("need n >= 1 and d >= 1")
    if not 0 < density <= 1.0:
        raise DataFormatError("density must be in (0, 1]")
    if not 0 <= label_noise < 0.5:
        raise DataFormatError("label_noise must be in [0, 0.5)")
    if not 0 <= hard_fraction <= 1.0:
        raise DataFormatError("hard_fraction must be in [0, 1]")

    w_star = _true_weights(d, rng)
    if sparse:
        X = _sparse_normal(n, d, density, noise_scale, rng)
    else:
        X = rng.normal(0.0, noise_scale, size=(n, d))

    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    hard = rng.random(n) < hard_fraction
    signed_margin = np.empty(n)
    n_hard = int(hard.sum())
    signed_margin[hard] = rng.normal(0.0, 0.35, size=n_hard)
    # Easy margins are *bounded* (uniform band): with the logistic loss
    # the per-point gradient then saturates smoothly but never vanishes,
    # which is what makes real LogR datasets need hundreds of SGD
    # iterations, while the hinge loss zeroes out exactly on this band,
    # which is why the paper's SVM datasets stop SGD within a few draws.
    signed_margin[~hard] = separability * rng.uniform(
        1.0, 1.5, size=n - n_hard
    )
    X = _set_margins(X, w_star, y * signed_margin)

    if label_noise > 0:
        flip = rng.random(n) < label_noise
        y[flip] = -y[flip]

    if feature_scale != 1.0:
        X = X * feature_scale

    X, y = _apply_row_order(X, y, row_order, rng)
    return X, y, w_star


def make_regression(
    n,
    d,
    density=1.0,
    noise=0.1,
    sparse=False,
    row_order="shuffled",
    feature_scale=1.0,
    rng=None,
):
    """Linear regression data ``y = X w* + noise``; returns (X, y, w_star).

    ``feature_scale`` multiplies X (and therefore y); see
    :func:`make_classification` for why the scale knob exists.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    if n < 1 or d < 1:
        raise DataFormatError("need n >= 1 and d >= 1")

    w_star = _true_weights(d, rng)
    if sparse:
        X = _sparse_normal(n, d, density, 1.0, rng)
        signal = np.asarray(X @ w_star).ravel()
    else:
        X = rng.normal(0.0, 1.0, size=(n, d))
        signal = X @ w_star

    y = signal + rng.normal(0.0, noise * max(np.std(signal), 1e-12), size=n)
    if feature_scale != 1.0:
        X = X * feature_scale
        y = y * feature_scale
    if row_order == "sorted":
        perm = np.argsort(y, kind="stable")
        X, y = X[perm], y[perm]
    elif row_order == "shuffled":
        perm = rng.permutation(n)
        X, y = X[perm], y[perm]
    else:
        raise DataFormatError(f"unknown row_order {row_order!r}")
    return X, y, w_star
