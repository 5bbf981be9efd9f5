import numpy as np
import pytest
from hypothesis import given, settings

import heic
from heic.errors import ValidationError
from heic.spectral import SortedSpectrum
from oracles import cluster_scan_bruteforce, sorted_spectra


class TestScanSpectrum:
    def test_synthetic_flattened_spectrum(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        spec = SortedSpectrum.from_values(sp.flattened())  # 16 values
        scan = heic.scan_spectrum(spec, range(1, 7))
        assert scan.chosen == 3
        assert scan.scores[2] == pytest.approx(0.25, abs=1e-10)
        assert scan.scores[4] == pytest.approx(0.0625, abs=1e-10)

    def test_all_equal_spectrum(self):
        spec = SortedSpectrum.from_values(np.full(12, 0.4))
        scan = heic.scan_spectrum(spec, range(1, 6))
        assert scan.chosen == 1
        assert not scan.scores.any()

    def test_scores_match_individual_cluster_searches(self):
        rng = np.random.default_rng(51)
        spec = SortedSpectrum.from_values(rng.uniform(-1.0, 1.0, size=20))
        scan = heic.scan_spectrum(spec, range(1, 9))
        for d, score in zip(scan.candidates, scan.scores):
            assert score == heic.find_cluster(spec, d).gap

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=sorted_spectra())
    def test_matches_bruteforce_with_ties(self, values):
        candidates = range(1, values.size - 1)
        scan = heic.scan_spectrum(SortedSpectrum.from_values(values), candidates)
        expected = [cluster_scan_bruteforce(values, d)[1] for d in candidates]
        assert scan.scores.tolist() == expected
        assert scan.chosen == candidates[expected.index(max(expected))]

    def test_validation(self):
        spec = SortedSpectrum.from_values(np.linspace(1.0, 0.0, 6))
        with pytest.raises(ValidationError):
            heic.scan_spectrum(spec, [])
        with pytest.raises(ValidationError):
            heic.scan_spectrum(spec, [0])
        with pytest.raises(ValidationError):
            heic.scan_spectrum(spec, [5])


class TestEstimateDimension:
    def _adjacency(self, n=260, seed=61):
        sample = heic.sample_uniform_sphere(n, 3, seed)
        theta = heic.probability_matrix(
            sample, heic.GraphModel(link=heic.threshold(0.0), sparsity=1.0, n=n)
        )
        return heic.sample_adjacency(theta, seed + 1)

    def test_recovers_three_on_moderate_graph(self):
        scan = heic.estimate_dimension(self._adjacency(), d_max=8)
        assert scan.chosen == 3

    def test_single_decomposition_shared_by_candidates(self, count_calls):
        counts = count_calls(heic.estimate_dimension, self._adjacency(n=80), d_max=10)
        assert counts == {"validate": 1, "eigh": 0, "eigvalsh": 1, "dsytrd": 0}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        adjacency = self._adjacency(n=40)
        adjacency[3, 7] = adjacency[7, 3] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            heic.estimate_dimension(adjacency, d_max=5)

    def test_deterministic(self):
        adj = self._adjacency(n=120)
        a = heic.estimate_dimension(adj, d_max=6)
        b = heic.estimate_dimension(adj, d_max=6)
        assert a.chosen == b.chosen
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_dmax_validated(self):
        with pytest.raises(ValidationError):
            heic.estimate_dimension(np.zeros((10, 10)), d_max=0)
