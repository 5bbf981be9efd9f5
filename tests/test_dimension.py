import numpy as np
import pytest
from hypothesis import given, settings

import heic
from heic.errors import ValidationError
from heic.model import SYMMETRY_TILE
from oracles import cluster_scan_bruteforce, diagonal_spectrum, sorted_spectra
from test_estimator import RejectsBadAdjacency


class TestScanSpectrum:
    def test_synthetic_flattened_spectrum(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        spec = diagonal_spectrum(sp.flattened())  # 16 values
        scan = heic.scan_spectrum(spec, range(1, 7))
        assert scan.chosen == 3
        assert scan.scores[2] == pytest.approx(0.25, abs=1e-10)
        assert scan.scores[4] == pytest.approx(0.0625, abs=1e-10)

    def test_all_equal_spectrum(self):
        spec = diagonal_spectrum(np.full(12, 0.4))
        scan = heic.scan_spectrum(spec, range(1, 6))
        assert scan.chosen == 1
        assert not scan.scores.any()

    def test_margin_over_runner_up(self):
        # Scores of d = 1 .. 6: 0, 0, 0.25 (the -0.25 block), 0, 0.0625 (the
        # zero block), 0; every step is exact in binary.
        spec = diagonal_spectrum([0.5] + [0.0625] * 7 + [0.0] * 5 + [-0.25] * 3)
        scan = heic.scan_spectrum(spec, range(1, 7))
        assert scan.scores.tolist() == [0.0, 0.0, 0.25, 0.0, 0.0625, 0.0]
        assert (scan.chosen, scan.margin) == (3, 4.0)
        assert heic.scan_spectrum(spec, [3, 4]).margin == np.inf
        assert heic.scan_spectrum(spec, [3]).margin == np.inf
        assert heic.scan_spectrum(diagonal_spectrum(np.full(12, 0.4)), range(1, 6)).margin == 1.0

    def test_scores_match_individual_cluster_searches(self):
        rng = np.random.default_rng(51)
        spec = diagonal_spectrum(rng.uniform(-1.0, 1.0, size=20))
        scan = heic.scan_spectrum(spec, range(1, 9))
        for d, score in zip(scan.candidates, scan.scores):
            assert score == heic.find_cluster(spec, d).gap

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=sorted_spectra())
    def test_matches_bruteforce_with_ties(self, values):
        candidates = range(1, values.size - 1)
        scan = heic.scan_spectrum(diagonal_spectrum(values), candidates)
        expected = [cluster_scan_bruteforce(values, d)[1] for d in candidates]
        assert scan.scores.tolist() == expected
        assert scan.chosen == candidates[expected.index(max(expected))]

    def test_validation(self):
        spec = diagonal_spectrum(np.linspace(1.0, 0.0, 6))
        with pytest.raises(ValidationError):
            heic.scan_spectrum(spec, [])
        with pytest.raises(ValidationError):
            heic.scan_spectrum(spec, [0])
        with pytest.raises(ValidationError):
            heic.scan_spectrum(spec, [5])


class TestEstimateDimension(RejectsBadAdjacency):
    @staticmethod
    def command(adjacency):
        return heic.estimate_dimension(adjacency, d_max=5)

    @staticmethod
    def sized_command(adjacency, size):
        return heic.estimate_dimension(adjacency, d_max=size)

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
        assert counts == {"validate": 1, "eigh": 0, "eigvalsh": 0, "dsytrd": 1, "arpack": 0, "dpotrf": 0}

    def test_one_reduction_from_min_n(self):
        # The reduction runs at every n (there is no longer a size below
        # which numpy's eigvalsh runs instead), with eigvalsh's bits.
        adjacency = self._adjacency(n=80)
        values = np.linalg.eigvalsh(adjacency / 80)[::-1]
        expected = [heic.window_gaps(values, d).max() for d in range(1, 11)]
        assert heic.estimate_dimension(adjacency, d_max=10).scores.tolist() == expected

    def test_reduction_holds_one_n_by_n_array(self, traced_peak):
        # A/n, reduced in place, plus O(n) workspace; a second n x n float64
        # array would reach 2.  The bound is in float64 bytes: the adjacency is uint8.
        n = 3 * SYMMETRY_TILE + 17
        adjacency = self._adjacency(n=n)
        assert traced_peak(heic.estimate_dimension, adjacency) < 1.5 * 8 * n * n

    def test_deterministic(self):
        adj = self._adjacency(n=120)
        a = heic.estimate_dimension(adj, d_max=6)
        b = heic.estimate_dimension(adj, d_max=6)
        assert a.chosen == b.chosen
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_dmax_validated(self):
        with pytest.raises(ValidationError):
            heic.estimate_dimension(np.zeros((10, 10)), d_max=0)
