"""Randomized equivalence tests for the vectorized spatial-search engine.

Every vectorized kernel (Gram-based VIFs, downdated stepwise elimination,
multi-RHS OLS, matmul silhouettes, the batched DTW wavefront) must make the
*same decisions* as its definitional oracle — the ``_*_reference``
implementations (``tests/timeseries/spatial_oracle.py`` for DTW and
silhouettes) and per-column ``fit_ols`` — with identical kept/removed
columns, identical best cuts, bitwise-equal DTW distances, and numeric
outputs agreeing to tight tolerances.  These tests drive both over
randomized and adversarial inputs (constant series, rank-deficient
designs, singleton clusters, tied scores) and compare them directly; the
end-to-end search decisions are pinned to the values the reference search
produced.
"""

import numpy as np
import pytest

from repro.timeseries import regression as reg
from repro.timeseries.clustering import HierarchicalClustering
from repro.timeseries.correlation import pairwise_correlation_matrix
from repro.timeseries import dtw
from repro.timeseries.dtw import _dtw_batch, dtw_distance_matrix
from repro.timeseries.regression import (
    fit_dependent_models,
    fit_ols,
    fit_ols_multi,
    stepwise_eliminate,
    variance_inflation_factors,
)
from repro.timeseries.silhouette import (
    best_silhouette_cut,
    mean_silhouettes_for_cuts,
    silhouette_values,
)
from tests.timeseries.spatial_oracle import (
    _dtw_batch_reference,
    _silhouette_values_reference,
)


def _random_design(rng, n, k, constant_cols=(), duplicate_of=None):
    """A (n, k) design with optional constant and duplicated columns."""
    x = rng.normal(size=(n, k))
    for col in constant_cols:
        x[:, col] = rng.normal()
    if duplicate_of is not None:
        src, dst = duplicate_of
        x[:, dst] = x[:, src]
    return x


def _random_distances(rng, n):
    """A symmetric non-negative distance matrix with a zero diagonal."""
    d = np.abs(rng.normal(size=(n, n)))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return d


class TestVifEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", [(30, 2), (50, 5), (120, 10), (12, 8)])
    def test_random_designs(self, seed, shape):
        rng = np.random.default_rng(seed)
        x = _random_design(rng, *shape)
        ref = reg._vif_reference(x)
        vec = variance_inflation_factors(x)
        assert np.allclose(ref, vec, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_column_is_inf_on_both_paths(self, seed):
        rng = np.random.default_rng(seed)
        x = _random_design(rng, 40, 5, constant_cols=(2,))
        ref = reg._vif_reference(x)
        vec = variance_inflation_factors(x)
        assert np.isinf(ref[2]) and np.isinf(vec[2])
        finite = np.isfinite(ref)
        assert np.array_equal(finite, np.isfinite(vec))
        assert np.allclose(ref[finite], vec[finite], rtol=1e-6, atol=1e-8)

    def test_collinear_pair_matches_reference_decision(self):
        # A duplicated column makes the Gram matrix singular; the vectorized
        # path must fall back to (and agree with) the reference.
        rng = np.random.default_rng(7)
        x = _random_design(rng, 40, 4, duplicate_of=(0, 3))
        ref = reg._vif_reference(x)
        vec = variance_inflation_factors(x)
        big = ref > 1e6
        assert np.array_equal(big, vec > 1e6)
        assert np.allclose(ref[~big], vec[~big], rtol=1e-4, atol=1e-6)

    def test_fewer_than_two_columns(self):
        assert np.array_equal(variance_inflation_factors(np.ones((10, 1))), [1.0])


class TestStepwiseEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_correlated_designs(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(80, 3))
        # Mix base columns so several VIFs land above the threshold.
        mix = rng.normal(size=(3, 7))
        x = base @ mix + 0.05 * rng.normal(size=(80, 7))
        ref = reg._stepwise_reference(x, vif_threshold=4.0)
        vec = stepwise_eliminate(x, vif_threshold=4.0)
        assert vec == ref

    @pytest.mark.parametrize("seed", range(4))
    def test_constant_and_rank_deficient_columns(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = _random_design(rng, 50, 6, constant_cols=(1,), duplicate_of=(0, 4))
        ref = reg._stepwise_reference(x, vif_threshold=4.0)
        vec = stepwise_eliminate(x, vif_threshold=4.0)
        assert vec == ref

    def test_shared_corr_matches_unshared(self):
        rng = np.random.default_rng(42)
        base = rng.normal(size=(70, 3))
        x = base @ rng.normal(size=(3, 6)) + 0.1 * rng.normal(size=(70, 6))
        corr = pairwise_correlation_matrix(x.T)
        assert stepwise_eliminate(x, corr=corr) == stepwise_eliminate(x)

    def test_partition_and_order_invariants(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(90, 4))
        x = base @ rng.normal(size=(4, 9)) + 0.02 * rng.normal(size=(90, 9))
        kept, removed = stepwise_eliminate(x)
        assert sorted(kept + removed) == list(range(9))


class TestMultiRhsOls:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_targets", [1, 3, 7])
    def test_matches_per_column_loop(self, seed, n_targets):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(60, 4))
        y = rng.normal(size=(60, n_targets))
        multi = fit_ols_multi(y, x)
        singles = [fit_ols(y[:, k], x) for k in range(n_targets)]
        for m, s in zip(multi, singles):
            assert np.allclose(m.coefficients, s.coefficients, rtol=1e-8, atol=1e-10)
            assert m.intercept == pytest.approx(s.intercept, rel=1e-8, abs=1e-10)
            assert m.r2 == pytest.approx(s.r2, rel=1e-8, abs=1e-10)
            assert m.residual_std == pytest.approx(s.residual_std, rel=1e-8, abs=1e-10)

    def test_constant_target_r2_one_both_paths(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3))
        y = np.column_stack([np.full(40, 2.5), rng.normal(size=40)])
        fits = fit_ols_multi(y, x)
        assert fits[0].r2 == 1.0
        assert fit_ols(y[:, 0], x).r2 == 1.0

    def test_rank_deficient_design(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(50, 3))
        x = np.column_stack([x, x[:, 0]])  # duplicated regressor
        y = rng.normal(size=(50, 2))
        multi = fit_ols_multi(y, x)
        singles = [fit_ols(y[:, k], x) for k in range(2)]
        for m, s in zip(multi, singles):
            # lstsq minimum-norm solutions agree; so do the fits.
            assert np.allclose(m.coefficients, s.coefficients, rtol=1e-6, atol=1e-8)
            assert m.r2 == pytest.approx(s.r2, rel=1e-8, abs=1e-8)

    def test_empty_targets(self):
        assert fit_ols_multi(np.empty((20, 0)), np.ones((20, 2))) == []

    def test_1d_target_accepted(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        (m,) = fit_ols_multi(y, x)
        s = fit_ols(y, x)
        assert np.allclose(m.coefficients, s.coefficients, rtol=1e-8, atol=1e-10)

    def test_gate_off_is_per_column_loop(self):
        """The spatial model's entry point agrees with per-column fit_ols."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(25, 3))
        y = rng.normal(size=(25, 2))
        multi = fit_dependent_models(x, y)
        singles = [fit_ols(y[:, k], x) for k in range(2)]
        for m, s in zip(multi, singles):
            assert np.allclose(m.coefficients, s.coefficients, rtol=1e-8, atol=1e-10)
            assert m.intercept == pytest.approx(s.intercept, rel=1e-8, abs=1e-10)
            assert m.residual_std == pytest.approx(s.residual_std, rel=1e-8, abs=1e-10)


class TestSilhouetteEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_labelings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        d = _random_distances(rng, n)
        k = int(rng.integers(2, n))
        labels = rng.integers(0, k, size=n)
        ref = _silhouette_values_reference(d, labels)
        vec = silhouette_values(d, labels)
        assert np.allclose(ref, vec, rtol=1e-9, atol=1e-12)

    def test_singleton_clusters_are_zero(self):
        rng = np.random.default_rng(0)
        d = _random_distances(rng, 6)
        labels = np.array([0, 1, 2, 3, 4, 5])  # all singletons
        assert np.array_equal(silhouette_values(d, labels), np.zeros(6))
        assert np.array_equal(_silhouette_values_reference(d, labels), np.zeros(6))

    def test_single_cluster_is_zero(self):
        rng = np.random.default_rng(0)
        d = _random_distances(rng, 5)
        labels = np.zeros(5, dtype=int)
        assert np.array_equal(silhouette_values(d, labels), np.zeros(5))

    def test_zero_distances(self):
        d = np.zeros((4, 4))
        labels = [0, 0, 1, 1]
        ref = _silhouette_values_reference(d, np.asarray(labels))
        vec = silhouette_values(d, labels)
        assert np.array_equal(ref, vec)

    def test_noncontiguous_labels(self):
        rng = np.random.default_rng(4)
        d = _random_distances(rng, 8)
        labels = np.array([10, 10, 3, 3, 7, 7, 3, 10])
        ref = _silhouette_values_reference(d, labels)
        vec = silhouette_values(d, labels)
        assert np.allclose(ref, vec, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_cut_sweep_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 25))
        d = _random_distances(rng, n)
        cuts = HierarchicalClustering(d).cuts(range(2, max(3, n // 2 + 1)))
        sweep = mean_silhouettes_for_cuts(d, cuts)
        for k, labels in cuts.items():
            expected = float(
                _silhouette_values_reference(d, np.asarray(labels)).mean()
            )
            assert sweep[k] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_non_nested_labelings_supported(self):
        # Arbitrary labelings (not from one merge tree) must still score
        # correctly through the direct-matmul branch.
        rng = np.random.default_rng(17)
        d = _random_distances(rng, 10)
        labelings = {
            2: [0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
            3: [0, 1, 2, 0, 1, 2, 0, 1, 2, 0],  # not a refinement partner
        }
        sweep = mean_silhouettes_for_cuts(d, labelings)
        for k, labels in labelings.items():
            expected = float(
                _silhouette_values_reference(d, np.asarray(labels)).mean()
            )
            assert sweep[k] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_best_cut_tie_prefers_fewer_clusters(self):
        # Two perfectly separated pairs: k=2 scores 1.0; so does the
        # degenerate k tie — fewer clusters must win on both paths.
        d = np.array(
            [
                [0.0, 1.0, 9.0, 9.0],
                [1.0, 0.0, 9.0, 9.0],
                [9.0, 9.0, 0.0, 1.0],
                [9.0, 9.0, 1.0, 0.0],
            ]
        )
        cuts = HierarchicalClustering(d).cuts([2, 3])
        score, k, labels = best_silhouette_cut(d, cuts)
        assert k == 2
        assert score == pytest.approx(silhouette_values(d, cuts[2]).mean())

    def test_best_cluster_count_tie(self):
        d = np.zeros((4, 4))  # every labeling scores 0.0 -> tie
        labelings = {4: [0, 1, 2, 3], 2: [0, 0, 1, 1], 3: [0, 1, 2, 0]}
        assert best_silhouette_cut(d, labelings)[1] == 2

    def test_gate_off_matches_gate_on(self):
        """The best cut equals the one the per-item reference loop picks."""
        rng = np.random.default_rng(23)
        d = _random_distances(rng, 12)
        cuts = HierarchicalClustering(d).cuts(range(2, 7))
        score, k, labels = best_silhouette_cut(d, cuts)
        reference = {
            c: float(_silhouette_values_reference(d, np.asarray(cuts[c])).mean())
            for c in cuts
        }
        best_k = min(cuts, key=lambda c: (-reference[c], c))
        assert k == best_k and labels == list(cuts[best_k])
        assert score == pytest.approx(reference[best_k], rel=1e-9, abs=1e-12)


class TestDtwBatchEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("window", [None, 0, 3, 12])
    def test_bitwise_identical(self, seed, window):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(20, 40))
        q = rng.normal(size=(20, 40))
        assert np.array_equal(
            _dtw_batch(p, q, window), _dtw_batch_reference(p, q, window)
        )

    def test_distance_matrix_gate_equivalence(self, monkeypatch):
        """The pairwise matrix is bitwise the one the reference wavefront builds."""
        rng = np.random.default_rng(6)
        series = rng.normal(size=(9, 50))
        fast = dtw_distance_matrix(series, window=5, zscore=True)
        monkeypatch.setattr(dtw, "_dtw_batch", _dtw_batch_reference)
        reference = dtw_distance_matrix(series, window=5, zscore=True)
        assert np.array_equal(fast, reference)


class TestSearchGateEquivalence:
    """End-to-end search decisions, pinned to the reference search's output."""

    #: (signature, dependent, initial-signature indices, cluster labels) the
    #: per-column reference search produced on ``_search_data()``.
    PINNED = {
        "cbc": (
            (2, 3, 6),
            (0, 1, 4, 5, 7, 8, 9),
            (1, 2, 3, 4, 5, 6),
            (0, 1, 3, 4, 5, 2, 0, 2, 1, 0),
        ),
        "dtw": (
            (1, 6, 7),
            (0, 2, 3, 4, 5, 8, 9),
            (1, 4, 6, 7),
            (0, 1, 2, 2, 3, 2, 0, 2, 1, 0),
        ),
    }

    @staticmethod
    def _search_data():
        rng = np.random.default_rng(31)
        base = rng.normal(size=(3, 96))
        mix = rng.normal(size=(10, 3))
        return mix @ base + 0.2 * rng.normal(size=(10, 96))

    @pytest.mark.parametrize("method_name", ["cbc", "dtw"])
    def test_full_search_identical_decisions(self, method_name):
        from repro.prediction.spatial.signatures import (
            ClusteringMethod,
            SignatureSearchConfig,
            search_signature_set,
        )

        data = self._search_data()
        cfg = SignatureSearchConfig(method=ClusteringMethod(method_name))
        model = search_signature_set(data, cfg)
        assert (
            model.signature_indices,
            model.dependent_indices,
            model.initial_signature_indices,
            model.cluster_labels,
        ) == self.PINNED[method_name]
        regressors = data[list(model.signature_indices)].T
        for idx in model.dependent_indices:
            oracle = fit_ols(data[idx], regressors)
            assert np.allclose(
                model.models[idx].coefficients,
                oracle.coefficients,
                rtol=1e-8,
                atol=1e-10,
            )

    def test_reconstruct_gate_equivalence(self):
        """reconstruct's single matmul == OlsFit.predict per dependent."""
        from repro.prediction.spatial.signatures import search_signature_set

        rng = np.random.default_rng(13)
        base = rng.normal(size=(2, 80))
        data = rng.normal(size=(6, 2)) @ base + 0.1 * rng.normal(size=(6, 80))
        model = search_signature_set(data)
        sig = data[list(model.signature_indices)]
        out = model.reconstruct(sig)
        assert model.dependent_indices  # the matmul path really ran
        for idx in model.dependent_indices:
            assert np.allclose(
                out[idx], model.models[idx].predict(sig.T), rtol=1e-9, atol=1e-12
            )
        # Signature rows pass through verbatim.
        assert np.array_equal(out[list(model.signature_indices)], sig)
