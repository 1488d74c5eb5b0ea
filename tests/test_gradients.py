"""Unit tests for the Table 3 gradient functions.

Every gradient is checked against numerical differentiation of its loss,
for dense and sparse inputs -- the invariant that makes everything else
trustworthy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.errors import PlanError
from repro.gd import base as gd_base
from repro.gd import registry as gd_registry
from repro.gd.gradients import (
    CsrRows,
    HingeGradient,
    L2Regularized,
    LinearRegressionGradient,
    LogisticGradient,
    named_gradient,
    take_rows,
    task_gradient,
)

RNG = np.random.default_rng(0)


def numerical_gradient(gradient, w, X, y, h=1e-6):
    grad = np.zeros_like(w)
    for j in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        grad[j] = (gradient.loss(wp, X, y) - gradient.loss(wm, X, y)) / (2 * h)
    return grad


def _data(n=40, d=6, seed=1, labels="sign"):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if labels == "sign":
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        y = rng.normal(size=n)
    return X, y


class TestLinearRegression:
    def test_gradient_matches_numerical(self):
        X, y = _data(labels="real")
        g = LinearRegressionGradient()
        w = RNG.normal(size=X.shape[1])
        np.testing.assert_allclose(
            g.gradient(w, X, y), numerical_gradient(g, w, X, y), atol=1e-4
        )

    def test_zero_residual_zero_gradient(self):
        X, _ = _data(labels="real")
        w = RNG.normal(size=X.shape[1])
        y = X @ w
        g = LinearRegressionGradient()
        np.testing.assert_allclose(g.gradient(w, X, y), 0.0, atol=1e-12)

    def test_predict_is_linear(self):
        X, _ = _data(labels="real")
        w = RNG.normal(size=X.shape[1])
        g = LinearRegressionGradient()
        np.testing.assert_allclose(g.predict(w, X), X @ w)

    def test_loss_is_mse(self):
        X, y = _data(labels="real")
        w = np.zeros(X.shape[1])
        g = LinearRegressionGradient()
        assert g.loss(w, X, y) == pytest.approx(np.mean(y ** 2))


class TestLogistic:
    def test_gradient_matches_numerical(self):
        X, y = _data()
        g = LogisticGradient()
        w = RNG.normal(size=X.shape[1]) * 0.5
        np.testing.assert_allclose(
            g.gradient(w, X, y), numerical_gradient(g, w, X, y), atol=1e-4
        )

    def test_gradient_stable_for_large_margins(self):
        X, y = _data()
        w = RNG.normal(size=X.shape[1]) * 1000
        g = LogisticGradient()
        grad = g.gradient(w, X, y)
        assert np.all(np.isfinite(grad))
        assert np.isfinite(g.loss(w, X, y))

    def test_loss_at_zero_is_log2(self):
        X, y = _data()
        g = LogisticGradient()
        assert g.loss(np.zeros(X.shape[1]), X, y) == pytest.approx(np.log(2))

    def test_predict_signs(self):
        X, _ = _data()
        w = RNG.normal(size=X.shape[1])
        g = LogisticGradient()
        pred = g.predict(w, X)
        assert set(np.unique(pred)) <= {-1.0, 1.0}
        np.testing.assert_array_equal(pred, np.where(X @ w >= 0, 1.0, -1.0))


class TestHinge:
    def test_gradient_matches_numerical_away_from_kink(self):
        X, y = _data()
        g = HingeGradient()
        w = RNG.normal(size=X.shape[1]) * 0.5
        margins = y * (X @ w)
        if np.any(np.abs(margins - 1.0) < 1e-4):
            pytest.skip("sampled a kink point")
        np.testing.assert_allclose(
            g.gradient(w, X, y), numerical_gradient(g, w, X, y), atol=1e-4
        )

    def test_zero_gradient_when_margins_satisfied(self):
        X, _ = _data()
        w = RNG.normal(size=X.shape[1])
        y = np.sign(X @ w)
        big_w = w * 1000  # all margins >> 1
        g = HingeGradient()
        np.testing.assert_allclose(g.gradient(big_w, X, y), 0.0)
        assert g.loss(big_w, X, y) == 0.0

    def test_violators_contribute(self):
        X, _ = _data()
        w = RNG.normal(size=X.shape[1])
        y = -np.sign(X @ w)  # everything misclassified
        g = HingeGradient()
        assert np.abs(g.gradient(w, X, y)).sum() > 0

    def test_table3_form_single_point(self):
        g = HingeGradient()
        x = np.array([[1.0, 2.0]])
        w = np.array([0.1, 0.1])
        y = np.array([1.0])
        # margin 0.3 < 1 -> gradient -y*x
        np.testing.assert_allclose(g.gradient(w, x, y), -x[0])
        # margin > 1 -> zero
        w_big = np.array([10.0, 10.0])
        np.testing.assert_allclose(g.gradient(w_big, x, y), 0.0)


class TestL2Regularized:
    def test_gradient_adds_lam_w(self):
        X, y = _data()
        base = LogisticGradient()
        reg = L2Regularized(base, lam=0.5)
        w = RNG.normal(size=X.shape[1])
        np.testing.assert_allclose(
            reg.gradient(w, X, y), base.gradient(w, X, y) + 0.5 * w
        )

    def test_loss_adds_ridge_term(self):
        X, y = _data()
        base = LogisticGradient()
        reg = L2Regularized(base, lam=0.5)
        w = RNG.normal(size=X.shape[1])
        assert reg.loss(w, X, y) == pytest.approx(
            base.loss(w, X, y) + 0.25 * float(w @ w)
        )

    def test_matches_numerical(self):
        X, y = _data()
        reg = L2Regularized(LogisticGradient(), lam=0.1)
        w = RNG.normal(size=X.shape[1]) * 0.3
        np.testing.assert_allclose(
            reg.gradient(w, X, y), numerical_gradient(reg, w, X, y),
            atol=1e-4,
        )

    def test_negative_lambda_rejected(self):
        with pytest.raises(PlanError):
            L2Regularized(LogisticGradient(), lam=-1)


class TestSparseInputs:
    @pytest.mark.parametrize("gradient_cls", [
        LinearRegressionGradient, LogisticGradient, HingeGradient,
    ])
    def test_sparse_matches_dense(self, gradient_cls):
        X, y = _data(n=60, d=20, seed=3)
        X[np.abs(X) < 0.8] = 0.0
        Xs = sp.csr_matrix(X)
        g = gradient_cls()
        w = RNG.normal(size=20)
        np.testing.assert_allclose(
            g.gradient(w, Xs, y), g.gradient(w, X, y), atol=1e-12
        )
        assert g.loss(w, Xs, y) == pytest.approx(g.loss(w, X, y))
        np.testing.assert_allclose(g.predict(w, Xs), g.predict(w, X))


class TestFactories:
    def test_task_gradient_aliases(self):
        assert task_gradient("classification").task == "logreg"
        assert task_gradient("regression").task == "linreg"
        assert task_gradient("svm").task == "svm"

    def test_task_gradient_with_l2(self):
        g = task_gradient("logreg", l2=0.1)
        assert isinstance(g, L2Regularized)

    def test_unknown_task(self):
        with pytest.raises(PlanError):
            task_gradient("clustering")

    def test_named_gradient(self):
        assert isinstance(named_gradient("hinge"), HingeGradient)
        assert isinstance(named_gradient("logistic"), LogisticGradient)
        with pytest.raises(PlanError):
            named_gradient("huber")


class TestGradientLinearity:
    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_linreg_gradient_batch_mean_property(self, scale):
        """Mean gradient over a batch equals mean of per-point gradients."""
        X, y = _data(n=16, d=4, seed=9, labels="real")
        X = X * scale
        g = LinearRegressionGradient()
        w = np.linspace(-1, 1, 4)
        per_point = np.mean(
            [g.gradient(w, X[i:i + 1], y[i:i + 1]) for i in range(16)],
            axis=0,
        )
        np.testing.assert_allclose(g.gradient(w, X, y), per_point, atol=1e-9)


@st.composite
def csr_batches(draw):
    """A CSR matrix built from raw arrays -- column indices in any
    order, explicit zeros, empty rows -- plus a batch of 1..n row ids
    (duplicates allowed), labels and a weight vector."""
    n = draw(st.integers(min_value=1, max_value=12))
    d = draw(st.integers(min_value=1, max_value=8))
    values = st.just(0.0) | st.floats(min_value=-4.0, max_value=4.0)
    data, indices, indptr = [], [], [0]
    for _ in range(n):
        cols = draw(st.permutations(range(d)))
        cols = cols[:draw(st.integers(min_value=0, max_value=d))]
        indices += cols
        data += [draw(values) for _ in cols]
        indptr.append(len(indices))
    X = sp.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int32),
         np.array(indptr, dtype=np.int32)), shape=(n, d),
    )
    size = draw(st.integers(min_value=1, max_value=n))
    rows = np.array(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                  min_size=size, max_size=size)))
    labels = st.sampled_from([-1.0, 1.0])
    y = np.array(draw(st.lists(labels, min_size=n, max_size=n)))
    w = np.array(draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                               min_size=d, max_size=d)))
    return X, rows, y, w


GRADIENTS = (LogisticGradient(), HingeGradient(), LinearRegressionGradient(),
             L2Regularized(LogisticGradient(), 0.1),
             L2Regularized(HingeGradient(), 0.5))


def same_bits(a, b):
    a, b = np.asarray(a).ravel(), np.asarray(b).ravel()
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestCsrRows:
    """The row gather gives the bits scipy's ``X[rows]`` gives, for
    every product the gradients take."""

    @given(batch=csr_batches())
    @settings(max_examples=200, deadline=None)
    def test_products_and_gradients_match_scipy_bit_for_bit(self, batch):
        X, rows, y, w = batch
        scipy_rows, gathered = X[rows], take_rows(X, rows)
        assert isinstance(gathered, CsrRows)
        assert gathered.shape == scipy_rows.shape
        assert gathered.T.shape == scipy_rows.T.shape
        assert same_bits(gathered @ w, scipy_rows @ w)
        coef = np.linspace(-2.0, 3.0, len(rows))
        assert same_bits(gathered.T @ coef, scipy_rows.T @ coef)
        for gradient in GRADIENTS:
            assert same_bits(gradient.gradient(w, gathered, y[rows]),
                             gradient.gradient(w, scipy_rows, y[rows]))

    @given(batch=csr_batches())
    @settings(max_examples=50, deadline=None)
    def test_row_slices_match_scipy_bit_for_bit(self, batch):
        X, rows, y, w = batch
        j = int(rows[0])
        for batch_rows in (slice(j, j + 1), slice(None)):
            for gradient in GRADIENTS:
                assert same_bits(
                    gradient.gradient(w, take_rows(X, batch_rows),
                                      y[batch_rows]),
                    gradient.gradient(w, X[batch_rows], y[batch_rows]),
                )

    def test_dense_rows_are_plain_indexing(self):
        X, _ = _data(n=10, d=3)
        rows = np.array([4, 1, 4])
        np.testing.assert_array_equal(take_rows(X, rows), X[rows])

    @pytest.mark.parametrize("algorithm", ["sgd", "mgd", "svrg"])
    def test_trial_loop_equals_scipy_indexing(self, algorithm, monkeypatch):
        X, y = _data(n=80, d=10, seed=5)
        X[np.abs(X) < 0.9] = 0.0
        X = sp.csr_matrix(X)

        def run():
            return gd_registry.run(
                algorithm, X, y, LogisticGradient(), batch_size=8,
                max_iter=120, tolerance=0.0, rng=np.random.default_rng(2),
            )

        ours = run()
        monkeypatch.setattr(gd_base, "take_rows", lambda X, rows: X[rows])
        theirs = run()
        assert ours.weights.tobytes() == theirs.weights.tobytes()
        assert ours.deltas.tobytes() == theirs.deltas.tobytes()
        assert ours.state.to_dict() == theirs.state.to_dict()
