"""Tests for OLS / VIF / stepwise regression (repro.timeseries.regression)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries.regression import (
    fit_dependent_models,
    fit_ols,
    stepwise_eliminate,
    variance_inflation_factors,
)


class TestOls:
    def test_recovers_exact_linear_model(self, rng):
        x = rng.normal(size=(100, 2))
        y = 3.0 + 2.0 * x[:, 0] - 1.5 * x[:, 1]
        fit = fit_ols(y, x)
        assert fit.intercept == pytest.approx(3.0, abs=1e-8)
        assert fit.coefficients == pytest.approx([2.0, -1.5], abs=1e-8)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.residual_std == pytest.approx(0.0, abs=1e-6)

    def test_noisy_fit_reasonable(self, rng):
        x = rng.normal(size=(500, 1))
        y = 1.0 + 0.5 * x[:, 0] + rng.normal(0, 0.1, size=500)
        fit = fit_ols(y, x)
        assert fit.coefficients[0] == pytest.approx(0.5, abs=0.05)
        assert 0.8 < fit.r2 <= 1.0

    def test_residuals_orthogonal_to_regressors(self, rng):
        x = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        fit = fit_ols(y, x)
        residuals = y - fit.predict(x)
        # Normal equations: residuals orthogonal to every column + intercept.
        assert residuals.mean() == pytest.approx(0.0, abs=1e-10)
        for k in range(3):
            assert np.dot(residuals, x[:, k]) == pytest.approx(0.0, abs=1e-8)

    def test_constant_target_r2_one(self):
        x = np.random.default_rng(0).normal(size=(20, 1))
        fit = fit_ols(np.full(20, 5.0), x)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.predict(x) == pytest.approx(np.full(20, 5.0), abs=1e-9)

    def test_rank_deficient_design_does_not_crash(self, rng):
        col = rng.normal(size=50)
        x = np.column_stack([col, col])  # perfectly collinear
        y = 2.0 * col
        fit = fit_ols(y, x)
        assert fit.predict(x) == pytest.approx(y, abs=1e-8)

    def test_1d_regressor_accepted(self, rng):
        x = rng.normal(size=30)
        fit = fit_ols(2 * x, x)
        assert fit.coefficients.shape == (1,)

    def test_predict_shape_mismatch_rejected(self, rng):
        fit = fit_ols(rng.normal(size=10), rng.normal(size=(10, 2)))
        with pytest.raises(ValueError):
            fit.predict(np.ones((5, 3)))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            fit_ols(np.ones(5), rng.normal(size=(6, 1)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(5, 40), st.integers(1, 3))
    def test_r2_at_most_one(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        x = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        assert fit_ols(y, x).r2 <= 1.0 + 1e-12


class TestVif:
    def test_independent_columns_low_vif(self, rng):
        x = rng.normal(size=(400, 3))
        vifs = variance_inflation_factors(x)
        assert np.all(vifs < 1.2)

    def test_collinear_column_high_vif(self, rng):
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        c = a + b + rng.normal(0, 0.01, size=200)
        vifs = variance_inflation_factors(np.column_stack([a, b, c]))
        assert vifs.max() > 100.0

    def test_perfect_collinearity_infinite(self, rng):
        a = rng.normal(size=50)
        vifs = variance_inflation_factors(np.column_stack([a, 2 * a]))
        assert np.isinf(vifs).all()

    def test_single_column_vif_one(self, rng):
        assert variance_inflation_factors(rng.normal(size=(20, 1))) == pytest.approx([1.0])

    def test_vifs_at_least_one(self, rng):
        x = rng.normal(size=(60, 4))
        assert np.all(variance_inflation_factors(x) >= 1.0 - 1e-9)


class TestStepwise:
    def test_removes_redundant_column(self, rng):
        a = rng.normal(size=300)
        b = rng.normal(size=300)
        c = 0.5 * a - 0.7 * b + rng.normal(0, 0.01, size=300)
        kept, removed = stepwise_eliminate(np.column_stack([a, b, c]))
        assert len(kept) == 2
        assert len(removed) == 1

    def test_keeps_independent_columns(self, rng):
        x = rng.normal(size=(300, 4))
        kept, removed = stepwise_eliminate(x)
        assert kept == [0, 1, 2, 3]
        assert removed == []

    def test_min_keep_respected(self, rng):
        # Perfectly collinear columns all rate VIF inf; elimination still
        # stops at one kept column.
        a = rng.normal(size=100)
        x = np.column_stack([a, 2 * a, 3 * a])
        kept, removed = stepwise_eliminate(x)
        assert len(kept) == 1
        assert sorted(kept + removed) == [0, 1, 2]

    def test_partition_is_complete(self, rng):
        x = rng.normal(size=(100, 5))
        x[:, 4] = x[:, 0] + x[:, 1]
        kept, removed = stepwise_eliminate(x)
        assert sorted(kept + removed) == [0, 1, 2, 3, 4]

    def test_threshold_must_exceed_one(self, rng):
        with pytest.raises(ValueError):
            stepwise_eliminate(rng.normal(size=(10, 2)), vif_threshold=0.5)


class TestDependentModels:
    def test_one_model_per_dependent(self, rng):
        sig = rng.normal(size=(50, 2))
        dep = np.column_stack([sig @ [1.0, 2.0], sig @ [0.5, -1.0], sig @ [3.0, 0.0]])
        fits = fit_dependent_models(sig, dep)
        assert len(fits) == 3
        for k, fit in enumerate(fits):
            assert fit.predict(sig) == pytest.approx(dep[:, k], abs=1e-8)

    def test_sample_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            fit_dependent_models(rng.normal(size=(10, 2)), rng.normal(size=(11, 2)))
