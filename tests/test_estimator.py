import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heic
from heic import spectral
from heic.errors import ValidationError
from heic.spectral import SortedSpectrum, symmetric_eigvals
from oracles import cluster_scan_bruteforce, eigh_projector, sorted_spectra


def _spectrum(values):
    return SortedSpectrum.from_values(np.asarray(values, dtype=float))


WORKED = [1.0, 0.5, 0.48, 0.46, 0.10]


def _seeded_graph(n, seed, link=heic.threshold(0.0)):
    """Seeded d=3, rho=1 adjacency, drawn as the studies draw replicate 0."""
    latent_seed, adjacency_seed = heic.replicate_seeds(seed, n, 0)
    sample = heic.sample_uniform_sphere(n, 3, latent_seed)
    theta = heic.probability_matrix(sample, heic.GraphModel(link=link, sparsity=1.0, n=n))
    return heic.sample_adjacency(theta, adjacency_seed)


class TestGaps:
    def test_left_gap_values(self):
        # A window ending at the last position is scored by its left step alone.
        values = np.array([1.0, 0.5, 0.48])
        assert heic.window_gaps(values, 2)[0] == pytest.approx(0.5)
        assert heic.window_gaps(values, 1)[1] == pytest.approx(0.02)

    def test_right_is_shifted_left(self):
        # The right step of window i is the left step of window i + d.
        values = np.array(WORKED)
        steps = np.abs(np.diff(values))
        for d in (1, 2):
            gaps = heic.window_gaps(values, d)
            for i in range(1, values.size - d):
                assert gaps[i - 1] == min(steps[i - 1], steps[i + d - 1])

    def test_equal_neighbors_give_zero(self):
        np.testing.assert_array_equal(heic.window_gaps(np.array([0.7, 0.3, 0.3]), 1), [0.0, 0.0])

    def test_index_ranges(self):
        spec = _spectrum([1.0, 0.5, 0.48])
        with pytest.raises(ValidationError):
            heic.find_cluster(spec, 0)
        with pytest.raises(ValidationError):
            heic.find_cluster(spec, 2)
        with pytest.raises(ValidationError):
            heic.heic(np.zeros((3, 3)), 2)
        with pytest.raises(ValidationError):
            heic.heic(np.zeros((5, 5)), 0)


class TestClusterGap:
    def test_interior_window(self):
        assert heic.window_gaps(np.array(WORKED), 3)[0] == pytest.approx(0.36)

    def test_window_straddling_a_tight_pair(self):
        assert heic.window_gaps(np.array(WORKED), 3)[1] == pytest.approx(0.02)

    def test_tail_window_uses_left_only(self):
        assert heic.window_gaps(np.array(WORKED), 1)[3] == pytest.approx(0.36)

    def test_top_position_excluded(self):
        # One score per start 1 .. n-d: position 0 never opens a window, even
        # when it is the best separated value.
        values = np.array([1.0, 0.1, 0.09, 0.08, 0.07])
        assert heic.window_gaps(values, 3).size == 2
        assert heic.find_cluster(_spectrum(values), 1).start >= 1

    def test_matches_bruteforce_min_distance(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(4, 13))
            values = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
            d = int(rng.integers(1, n - 1))
            gaps = heic.window_gaps(values, d)
            for i in range(1, n - d + 1):
                inside = values[i : i + d]
                outside = np.concatenate([values[:i], values[i + d :]])
                expected = min(abs(x - y) for x in inside for y in outside)
                assert gaps[i - 1] == pytest.approx(expected, abs=0.0)


class TestFindCluster:
    def test_worked_example(self):
        spec = _spectrum(WORKED)
        cluster = heic.find_cluster(spec, 3)
        assert cluster.indices == (1, 2, 3)
        assert cluster.gap == pytest.approx(0.36)
        assert cluster.diameter == pytest.approx(0.04)
        np.testing.assert_array_equal(cluster.values, [0.5, 0.48, 0.46])

    def test_exact_flattened_threshold_spectrum(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        spec = _spectrum(sp.flattened())
        cluster = heic.find_cluster(spec, 3)
        assert cluster.start == 13
        np.testing.assert_allclose(spec.values[list(cluster.indices)], -0.25, atol=1e-10)
        assert cluster.gap == pytest.approx(0.25, abs=1e-10)

    def test_all_equal_ties_break_to_first(self):
        cluster = heic.find_cluster(_spectrum([0.2] * 8), 3)
        assert cluster.start == 1
        assert cluster.gap == 0.0

    def test_matches_exhaustive_window_search(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(5, 13))
            values = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
            d = int(rng.integers(1, n - 2))
            cluster = heic.find_cluster(_spectrum(values), d)
            start_bf, gap_bf = cluster_scan_bruteforce(values, d)
            assert (cluster.start, cluster.gap) == (start_bf, gap_bf)

    def test_gap_formula_from_raw_difference_arrays(self):
        # The achieved score equals the max of min(left(i), left(i+d)) with a
        # bare left(n-d) tail term, computed independently from the arrays.
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(6, 14))
            values = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
            d = int(rng.integers(1, n - 3))
            left = np.abs(np.diff(values))  # left[i-1] = |values[i] - values[i-1]|
            interior = [
                min(left[i - 1], left[i + d - 1]) for i in range(1, n - d)
            ]
            expected = max(interior + [left[n - d - 1]])
            cluster = heic.find_cluster(_spectrum(values), d)
            assert cluster.gap == expected

    def test_scale_equivariance(self):
        rng = np.random.default_rng(37)
        values = np.sort(rng.uniform(-1.0, 1.0, size=11))[::-1]
        base = heic.find_cluster(_spectrum(values), 3)
        for c in (2.0, 0.5):  # powers of two scale without rounding
            scaled = heic.find_cluster(_spectrum(c * values), 3)
            assert scaled.indices == base.indices
            assert scaled.gap == c * base.gap
        scaled = heic.find_cluster(_spectrum(3.0 * values), 3)
        assert scaled.indices == base.indices
        assert scaled.gap == pytest.approx(3.0 * base.gap, rel=1e-12)

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=sorted_spectra(), data=st.data())
    def test_matches_bruteforce_with_ties(self, values, data):
        d = data.draw(st.integers(1, values.size - 2), label="d")
        cluster = heic.find_cluster(_spectrum(values), d)
        assert (cluster.start, cluster.gap) == cluster_scan_bruteforce(values, d)
        np.testing.assert_array_equal(cluster.values, values[cluster.start : cluster.start + d])

    def test_too_small_spectrum_rejected(self):
        with pytest.raises(ValidationError):
            heic.find_cluster(_spectrum([1.0, 0.5, 0.3]), 2)


class TestGramEstimate:
    def test_trace_one(self):
        spec = heic.symmetric_eig(np.diag([5.0, 3.0, 2.0, 1.0, 0.5]))
        cluster = heic.find_cluster(spec, 2)
        est = heic.gram_estimate(spec, cluster)
        assert np.trace(est.matrix) == pytest.approx(1.0, abs=1e-9)
        assert est.vectors.shape == (5, 2)
        np.testing.assert_allclose(est.vectors.T @ est.vectors, np.eye(2), atol=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((10, 10))
        m = (m + m.T) / 2.0
        spec = heic.symmetric_eig(m)
        cluster = heic.find_cluster(spec, 3)
        est = heic.gram_estimate(spec, cluster)
        v = spec.vectors[:, list(cluster.indices)]
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = (v @ q) @ (v @ q).T / 3.0
        assert np.abs(rotated - est.matrix).max() < 1e-12

    def test_projector_spectrum(self):
        rng = np.random.default_rng(43)
        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2.0
        spec = heic.symmetric_eig(m)
        est = heic.gram_estimate(spec, heic.find_cluster(spec, 4))
        eigs = np.linalg.eigvalsh(est.matrix)
        assert eigs.min() >= -1e-12
        np.testing.assert_allclose(np.sort(eigs)[-4:], 0.25, atol=1e-9)
        assert np.abs(eigs[:-4]).max() < 1e-9

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(47)
        for n in (6, 64, 301):
            m = rng.standard_normal((n, n))
            spec = heic.symmetric_eig(m + m.T)
            for d in (1, 3, 4):
                g = heic.gram_estimate(spec, heic.find_cluster(spec, d)).matrix
                assert np.array_equal(g, g.T), (n, d)

    def test_needs_eigenvectors(self):
        spec = symmetric_eigvals(np.diag([5.0, 3.0, 2.0, 1.0, 0.5]))
        with pytest.raises(ValidationError, match="without eigenvectors"):
            heic.gram_estimate(spec, heic.find_cluster(spec, 2))

    def test_pilot_error_gate(self, sims_threshold_1500):
        # 10 seeded runs; the Frobenius error stays below the pilot constant
        errs = [s.fro_err for s in sims_threshold_1500[:10]]
        assert sum(e <= 0.12 for e in errs) >= 9


class TestHeicPipeline:
    def test_threshold_cluster_location(self, sims_threshold_1500):
        hits = sum(abs(s.cluster_mean - (-0.25)) <= 0.05 for s in sims_threshold_1500)
        assert hits >= 18

    def test_affine_cluster_location(self):
        n = 1500
        latent_seed, adjacency_seed = heic.replicate_seeds(55, n, 0)
        sample = heic.sample_uniform_sphere(n, 3, latent_seed)
        theta = heic.probability_matrix(
            sample, heic.GraphModel(link=heic.affine(0.5, 0.5), sparsity=1.0, n=n)
        )
        adjacency = heic.sample_adjacency(theta, adjacency_seed)
        estimate, _ = heic.heic(adjacency, 3)
        mean = estimate.cluster.values.mean()
        assert mean == pytest.approx(1.0 / 6.0, abs=0.05)

    def test_validates_once_and_solves_once(self, count_calls):
        counts = count_calls(heic.heic, np.ones((12, 12)) - np.eye(12), 3)
        assert counts == {"validate": 1, "eigh": 1, "eigvalsh": 0, "dsytrd": 0}

    @pytest.mark.parametrize("min_n, solver", [(13, "eigh"), (12, "dsytrd")])
    def test_partial_solve_from_min_n(self, count_calls, monkeypatch, min_n, solver):
        monkeypatch.setattr(spectral, "PARTIAL_SOLVE_MIN_N", min_n)
        counts = count_calls(heic.heic, np.ones((12, 12)) - np.eye(12), 3)
        assert counts == {"validate": 1, "eigh": 0, "eigvalsh": 0, "dsytrd": 0, solver: 1}

    def test_gap_matches_dimension_scan_bitwise(self, partial_solve):
        # From PARTIAL_SOLVE_MIN_N on, heic and the dimension scan share one
        # reduction, dsytrd + dsterf, which is also the arithmetic of numpy's
        # eigvalsh, so heic reports the candidate's score exactly.
        for n in (60, 200):
            for seed in range(20):
                adjacency = _seeded_graph(n, seed)
                _, diag = heic.heic(adjacency, 3)
                assert diag.gap == heic.estimate_dimension(adjacency).scores[2]
                values = np.linalg.eigvalsh(adjacency / n)[::-1]
                assert diag.gap == heic.window_gaps(values, 3).max()

    @pytest.mark.parametrize("link", [heic.threshold(0.0), heic.affine(0.5, 0.5)])
    def test_matches_full_eigh_reference(self, partial_solve, link):
        for n, seed in ((60, 1), (150, 2), (400, 3), (800, 4)):
            adjacency = _seeded_graph(n, seed, link)
            estimate, diag = heic.heic(adjacency, 3)
            start, projector = eigh_projector(adjacency, 3)
            assert diag.cluster_start == start
            assert np.linalg.norm(estimate.matrix - projector) <= 1e-8
            assert np.array_equal(estimate.matrix, estimate.matrix.T)

    @pytest.mark.parametrize("min_n", [0, spectral.PARTIAL_SOLVE_MIN_N], ids=["partial", "eigh"])
    @pytest.mark.parametrize("edges", [0.0, 1.0], ids=["empty", "complete"])
    def test_degenerate_window_is_orthonormal(self, monkeypatch, min_n, edges):
        # Every window of the empty graph, and every window of K_200 that
        # skips its top eigenvalue, lies inside one eigenvalue of
        # multiplicity n - 1 or n: the d eigenvectors are a tied basis.
        monkeypatch.setattr(spectral, "PARTIAL_SOLVE_MIN_N", min_n)
        n, d = 200, 3
        adjacency = np.full((n, n), edges) - edges * np.eye(n)
        estimate, _ = heic.heic(adjacency, d)
        assert np.trace(estimate.matrix) == pytest.approx(1.0, abs=1e-12)
        # d G = V V^T is the orthogonal projector onto d orthonormal columns.
        projector = d * estimate.matrix
        assert np.abs(projector @ projector - projector).max() <= 1e-12

    @pytest.mark.parametrize("min_n", [0, spectral.PARTIAL_SOLVE_MIN_N], ids=["partial", "eigh"])
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3),
        plane=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def test_projector_ignores_window_basis(self, min_n, signs, plane, angle):
        # Sign flips and a rotation within the window change V but not V V^T.
        rotation = np.eye(3)
        i, j = plane
        c, s = math.cos(angle), math.sin(angle)
        rotation[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
        q = np.diag(signs) @ rotation
        adjacency = _seeded_graph(120, 7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral, "PARTIAL_SOLVE_MIN_N", min_n)
            reference, ref_diag = heic.heic(adjacency, 3)
            solved = spectral.Tridiagonal if min_n == 0 else spectral.SortedSpectrum
            window_vectors = solved.window_vectors
            mp.setattr(
                solved, "window_vectors", lambda self, start, stop: window_vectors(self, start, stop) @ q
            )
            estimate, diag = heic.heic(adjacency, 3)
        assert diag == ref_diag
        np.testing.assert_allclose(estimate.matrix, reference.matrix, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        adjacency = np.ones((12, 12)) - np.eye(12)
        adjacency[3, 7] = adjacency[7, 3] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            heic.heic(adjacency, 3)

    def test_rejects_non_binary_before_solving(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)
        with pytest.raises(ValidationError, match="0 or 1"):
            heic.heic(np.full((12, 12), 0.5), 3)

    def test_rejects_self_loop(self):
        adjacency = np.ones((12, 12)) - np.eye(12)
        adjacency[5, 5] = 1.0
        with pytest.raises(ValidationError, match="diagonal"):
            heic.heic(adjacency, 3)

    def test_empty_graph_flagged_degenerate(self):
        estimate, diag = heic.heic(np.zeros((8, 8)), 3)
        assert diag.degenerate
        assert diag.gap == 0.0
        assert diag.edge_density == 0.0
        assert np.trace(estimate.matrix) == pytest.approx(1.0, abs=1e-9)

    def test_latent_positions_up_to_rotation(self, sims_threshold_1000, sims_threshold_2000):
        # X^T X / n -> I / d, so sqrt(n/d) V aligns with X after an orthogonal
        # Procrustes rotation, and the relative error shrinks as n grows.
        errs_1000 = [s.position_err for s in sims_threshold_1000]
        errs_2000 = [s.position_err for s in sims_threshold_2000]
        assert max(errs_1000 + errs_2000) < 0.1
        assert np.median(errs_2000) < np.median(errs_1000)

    @pytest.mark.parametrize("min_n", [0, spectral.PARTIAL_SOLVE_MIN_N], ids=["partial", "eigh"])
    def test_result_holds_no_n_by_n_array(self, monkeypatch, min_n):
        # The estimate keeps the n x d window basis V; the n x n projector is
        # built only when estimate.matrix is read.
        monkeypatch.setattr(spectral, "PARTIAL_SOLVE_MIN_N", min_n)
        n, d = 600, 3
        adjacency = _seeded_graph(n, 5)
        heic.heic(adjacency, d)  # imports what the call imports before tracing
        tracemalloc.start()
        try:
            estimate, _ = heic.heic(adjacency, d)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert estimate.vectors.shape == (n, d)
        assert held < 0.05 * 8 * n * n

    def test_top_eigenvalue_exclusion(self, sims_threshold_1000):
        for s in sims_threshold_1000:
            assert s.cluster_start >= 1
            assert abs(s.top_eigenvalue - 0.5) <= 0.05


class TestEventECheck:
    def test_exact_flattened_spectrum_passes(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        spec = SortedSpectrum.from_values(sp.flattened())
        cluster = heic.find_cluster(spec, 3)
        report = heic.event_e_check(spec, cluster, gap_analytic=0.25, rho=1.0)
        assert report.ok
        assert report.threshold == pytest.approx(0.125)

    def test_flat_spectrum_fails(self):
        spec = SortedSpectrum.from_values(np.full(10, 0.3))
        cluster = heic.find_cluster(spec, 3)
        assert not heic.event_e_check(spec, cluster, gap_analytic=0.25, rho=1.0).ok

    def test_simulated_pass_rate(self, sims_threshold_2000):
        assert sum(s.event_ok for s in sims_threshold_2000) >= 18

    def test_requires_positive_gap(self):
        spec = SortedSpectrum.from_values(np.linspace(1.0, 0.0, 8))
        cluster = heic.find_cluster(spec, 2)
        with pytest.raises(ValidationError):
            heic.event_e_check(spec, cluster, gap_analytic=0.0, rho=1.0)


class TestNoiseBound:
    def test_zero_matrix_reduces_to_log_term(self):
        n, alpha = 50, 0.05
        assert heic.noise_bound(np.zeros((n, n)), alpha) == pytest.approx(
            math.sqrt(math.log(n / alpha)) / n
        )

    def test_certain_edges_also_reduce(self):
        n, alpha = 40, 0.1
        theta = np.ones((n, n)) - np.eye(n)
        assert heic.noise_bound(theta, alpha) == pytest.approx(
            math.sqrt(math.log(n / alpha)) / n
        )

    def test_half_probabilities(self):
        n, alpha = 1000, 0.05
        theta = np.full((n, n), 0.5)
        np.fill_diagonal(theta, 0.0)
        d0 = 0.25 * (n - 1)
        expected = 3.0 * math.sqrt(2.0 * d0) / n + math.sqrt(math.log(n / alpha)) / n
        assert heic.noise_bound(theta, alpha) == pytest.approx(expected, rel=1e-12)

    def test_alpha_validated(self):
        with pytest.raises(ValidationError):
            heic.noise_bound(np.zeros((4, 4)), 1.5)
