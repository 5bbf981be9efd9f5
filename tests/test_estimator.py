import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import heic
from heic import estimator, spectral
from heic.errors import ValidationError
from oracles import (
    cluster_scan_bruteforce,
    diagonal_spectrum,
    eigh_projector,
    sorted_spectra,
    window_certificate_bruteforce,
)


WORKED = [1.0, 0.5, 0.48, 0.46, 0.10]


def _seeded_graph(n, seed, link=heic.threshold(0.0), rho=1.0):
    """Seeded d=3 adjacency, rho=1 by default, drawn as the studies draw replicate 0."""
    latent_seed, adjacency_seed = heic.replicate_seeds(seed, n, 0)
    sample = heic.sample_uniform_sphere(n, 3, latent_seed)
    theta = heic.probability_matrix(sample, heic.GraphModel(link=link, sparsity=rho, n=n))
    return heic.sample_adjacency(theta, adjacency_seed)


# The tridiagonal route keeps the id it had as the only partial solve.
ROUTES = [
    pytest.param("tridiagonal", id="partial"),
    pytest.param("certified", id="certified"),
]


def force_route(mp, route):
    """Make heic() take route whatever the graph's density; "certified"
    falls back to "tridiagonal" when it fails."""
    mp.setattr(estimator, "CERTIFIED_MIN_DENSITY", 0.0 if route == "certified" else math.inf)


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
        spec = diagonal_spectrum([1.0, 0.5, 0.48])
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
        assert heic.find_cluster(diagonal_spectrum(values), 1).start >= 1

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
        spec = diagonal_spectrum(WORKED)
        cluster = heic.find_cluster(spec, 3)
        assert cluster.indices == (1, 2, 3)
        assert cluster.gap == pytest.approx(0.36)
        assert cluster.diameter == pytest.approx(0.04)
        np.testing.assert_array_equal(cluster.values, [0.5, 0.48, 0.46])

    def test_exact_flattened_threshold_spectrum(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        spec = diagonal_spectrum(sp.flattened())
        cluster = heic.find_cluster(spec, 3)
        assert cluster.start == 13
        np.testing.assert_allclose(spec.values[list(cluster.indices)], -0.25, atol=1e-10)
        assert cluster.gap == pytest.approx(0.25, abs=1e-10)

    def test_all_equal_ties_break_to_first(self):
        cluster = heic.find_cluster(diagonal_spectrum([0.2] * 8), 3)
        assert cluster.start == 1
        assert cluster.gap == 0.0

    def test_matches_exhaustive_window_search(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n = int(rng.integers(5, 13))
            values = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
            d = int(rng.integers(1, n - 2))
            cluster = heic.find_cluster(diagonal_spectrum(values), d)
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
            cluster = heic.find_cluster(diagonal_spectrum(values), d)
            assert cluster.gap == expected

    def test_scale_equivariance(self):
        rng = np.random.default_rng(37)
        values = np.sort(rng.uniform(-1.0, 1.0, size=11))[::-1]
        base = heic.find_cluster(diagonal_spectrum(values), 3)
        for c in (2.0, 0.5):  # powers of two scale without rounding
            scaled = heic.find_cluster(diagonal_spectrum(c * values), 3)
            assert scaled.indices == base.indices
            assert scaled.gap == c * base.gap
        scaled = heic.find_cluster(diagonal_spectrum(3.0 * values), 3)
        assert scaled.indices == base.indices
        assert scaled.gap == pytest.approx(3.0 * base.gap, rel=1e-12)

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=sorted_spectra(), data=st.data())
    def test_matches_bruteforce_with_ties(self, values, data):
        d = data.draw(st.integers(1, values.size - 2), label="d")
        cluster = heic.find_cluster(diagonal_spectrum(values), d)
        assert (cluster.start, cluster.gap) == cluster_scan_bruteforce(values, d)
        np.testing.assert_array_equal(cluster.values, values[cluster.start : cluster.start + d])

    def test_too_small_spectrum_rejected(self):
        with pytest.raises(ValidationError):
            heic.find_cluster(diagonal_spectrum([1.0, 0.5, 0.3]), 2)


class TestCertifyWindow:
    """The window rule on spectra known only at their ends, against the full scan."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(values=sorted_spectra(min_size=4, max_size=9), data=st.data())
    def test_never_certifies_a_wrong_window(self, values, data):
        n = values.size
        d = data.draw(st.integers(1, n - 2), label="d")
        t = data.draw(st.integers(0, n - 1), label="t")
        b = data.draw(st.integers(0, n - 1 - t), label="b")
        middle = values[t : n - b]
        widen = st.sampled_from([0.0, 0.125])
        lower = middle.min() - data.draw(widen, label="below")
        upper = middle.max() + data.draw(widen, label="above")
        top, bottom = values[:t], values[n - b :]
        certified = estimator.certify_window(top, bottom, lower, upper, n, d, 0.0)
        if certified is not None:
            start, gap, margin = certified
            assert (start, gap) == cluster_scan_bruteforce(values, d)
            assert (start, gap) == window_certificate_bruteforce(top, bottom, lower, upper, n, d)
            assert margin > 0.0

    def test_certifies_the_harmonic_window(self):
        # The flattened threshold(0) spectrum on S^2, levels 0 .. 3: 0.5,
        # then 0.0625 seven times, zeros, and -0.25 three times at the
        # bottom.  Knowing the top two and the bottom four, with the middle
        # in [0, 0.0625], proves the bottom window, by 0.25 - 0.0625 over
        # the middle's range.
        values = diagonal_spectrum(heic.analytic_spectrum(heic.threshold(0.0), 3, 3).flattened()).values
        n = values.size
        top, bottom = values[:2], values[n - 4 :]
        start, gap, margin = estimator.certify_window(top, bottom, 0.0, 0.0625, n, 3, 1e-12)
        assert (start, gap) == cluster_scan_bruteforce(values, 3) == (n - 3, values[n - 4] - values[n - 3])
        assert margin == pytest.approx(0.25 - 0.0625, abs=1e-9)

    def test_slack_can_spoil_the_proof(self):
        # Window 1 wins by 0.45 against 0.05.  The other windows each touch
        # the middle value -0.05, so a slack of 0.14 lifts their bounds to
        # 0.19, and leaves a margin of 0.26 < 2 * 0.14.
        values = np.array([1.0, 0.5, 0.45, 0.0, -0.05, -0.1])
        top, bottom = values[:4], values[5:]
        start, gap, margin = estimator.certify_window(top, bottom, -0.05, -0.05, 6, 2, 0.0)
        assert (start, gap, margin) == (1, 0.45, pytest.approx(0.4))
        assert estimator.certify_window(top, bottom, -0.05, -0.05, 6, 2, 0.13) is not None
        assert estimator.certify_window(top, bottom, -0.05, -0.05, 6, 2, 0.14) is None

    def test_declines_without_an_exact_window(self):
        # Only the top is known, and every window touches the middle.
        assert estimator.certify_window([1.0], [], -0.1, 0.1, 6, 2, 0.0) is None


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

    def test_pilot_error_gate(self, sims_threshold_1500):
        # 10 seeded runs; the Frobenius error stays below the pilot constant
        errs = [s.fro_err for s in sims_threshold_1500[:10]]
        assert sum(e <= 0.12 for e in errs) >= 9


def _bad_graph(fault: str) -> np.ndarray:
    """K_12 as uint8 with one fault."""
    adjacency = np.ones((12, 12), dtype=np.uint8) - np.eye(12, dtype=np.uint8)
    if fault == "value 2":
        adjacency[3, 7] = adjacency[7, 3] = 2
    elif fault == "asymmetric":
        adjacency[3, 7] = 0
    elif fault == "self-loop":
        adjacency[5, 5] = 1
    elif fault == "non-square":
        adjacency = adjacency[:, :11]
    elif fault == "one node":
        adjacency = np.zeros((1, 1), dtype=np.uint8)
    return adjacency


_FAULT_MESSAGES = {
    "value 2": "adjacency entries must be 0 or 1",
    "asymmetric": "adjacency is not symmetric",
    "self-loop": "adjacency has a nonzero diagonal (self-loop)",
    "non-square": "adjacency must be non-empty and square, got shape (12, 11)",
    "one node": "adjacency needs at least 2 nodes",
}
# A bool entry cannot hold 2.
_FAULTS_BY_DTYPE = [
    pytest.param(fault, dtype, id=f"{fault}-{np.dtype(dtype).name}")
    for fault in _FAULT_MESSAGES
    for dtype in (np.float64, np.uint8, np.bool_)
    if not (fault == "value 2" and dtype is np.bool_)
]


class RejectsBadAdjacency:
    """Boundary tests shared by the test classes of both graph commands.

    heic and estimate_dimension validate through model.require_adjacency, so
    they reject the same inputs with the same messages, before any solve.
    A subclass sets ``command`` to a call of its graph command.
    """

    @staticmethod
    def command(adjacency):
        raise NotImplementedError

    @staticmethod
    def sized_command(adjacency, size):
        """The command with its window size (d or d_max) set to size."""
        raise NotImplementedError

    @pytest.mark.parametrize("size", [3.0, 2.5, True, np.float64(3.0), "3"], ids=repr)
    def test_rejects_non_integer_size_before_solving(self, monkeypatch, size):
        monkeypatch.setattr(spectral, "tridiagonalize", None)
        with pytest.raises(ValidationError, match="must be an integer, got"):
            self.sized_command(np.ones((12, 12)) - np.eye(12), size)

    def test_accepts_numpy_integer_size(self):
        graph = np.ones((12, 12)) - np.eye(12)
        assert repr(self.sized_command(graph, np.int64(3))) == repr(self.sized_command(graph, 3))

    @pytest.mark.parametrize("fault, dtype", _FAULTS_BY_DTYPE)
    def test_same_message_on_every_dtype(self, monkeypatch, fault, dtype):
        # uint8 and bool are checked in place, float64 through
        # require_symmetric; a fault reads the same either way.
        monkeypatch.setattr(spectral, "tridiagonalize", None)
        with pytest.raises(ValidationError) as info:
            self.command(_bad_graph(fault).astype(dtype))
        assert str(info.value) == _FAULT_MESSAGES[fault]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        adjacency = np.ones((12, 12)) - np.eye(12)
        adjacency[3, 7] = adjacency[7, 3] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            self.command(adjacency)

    def test_rejects_non_binary_before_solving(self, monkeypatch):
        monkeypatch.setattr(spectral, "tridiagonalize", None)
        with pytest.raises(ValidationError, match="0 or 1"):
            self.command(np.full((12, 12), 0.5))

    def test_rejects_self_loop(self):
        adjacency = np.ones((12, 12)) - np.eye(12)
        adjacency[5, 5] = 1.0
        with pytest.raises(ValidationError, match="diagonal"):
            self.command(adjacency)


class TestHeicPipeline(RejectsBadAdjacency):
    @staticmethod
    def command(adjacency):
        return heic.heic(adjacency, 3)

    @staticmethod
    def sized_command(adjacency, size):
        return heic.heic(adjacency, size)

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
        # K_12 is dense enough for the certified route, but too small for
        # ARPACK's Krylov basis, so the route declines before it runs.
        counts = count_calls(heic.heic, np.ones((12, 12)) - np.eye(12), 3)
        assert counts == {"validate": 1, "eigh": 0, "eigvalsh": 0, "dsytrd": 1, "arpack": 0, "dpotrf": 0}

    @pytest.mark.parametrize("min_n, solver", [(12, "dsytrd")])
    def test_partial_solve_from_min_n(self, count_calls, min_n, solver):
        # No size falls back to numpy's full eigh: every complete graph from
        # the smallest window heic accepts, d + 2 nodes, up to K_min_n is too
        # small for ARPACK and takes exactly one tridiagonal reduction.
        zero = dict.fromkeys(("eigh", "eigvalsh", "dsytrd", "arpack", "dpotrf"), 0)
        for n in range(5, min_n + 1):
            counts = count_calls(heic.heic, np.ones((n, n)) - np.eye(n), 3)
            assert counts == {"validate": 1, **zero, solver: 1}

    def test_gap_matches_dimension_scan_bitwise(self, partial_solve):
        # heic and the dimension scan share one reduction, dsytrd + dsterf,
        # which is also the arithmetic of numpy's eigvalsh, so heic reports
        # the candidate's score exactly.
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

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("edges", [0.0, 1.0], ids=["empty", "complete"])
    def test_degenerate_window_is_orthonormal(self, monkeypatch, route, edges):
        # Every window of the empty graph, and every window of K_200 that
        # skips its top eigenvalue, lies inside one eigenvalue of
        # multiplicity n - 1 or n: the d eigenvectors are a tied basis.  No
        # window's gap is positive, so the certified route falls back.
        force_route(monkeypatch, route)
        n, d = 200, 3
        adjacency = np.full((n, n), edges) - edges * np.eye(n)
        estimate, diag = heic.heic(adjacency, d)
        assert diag.solver == "tridiagonal"
        assert np.trace(estimate.matrix) == pytest.approx(1.0, abs=1e-12)
        # d G = V V^T is the orthogonal projector onto d orthonormal columns.
        projector = d * estimate.matrix
        assert np.abs(projector @ projector - projector).max() <= 1e-12

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=3, max_size=3),
        plane=st.sampled_from([(0, 1), (0, 2), (1, 2)]),
        angle=st.floats(0.0, 2.0 * math.pi),
    )
    def test_projector_ignores_window_basis(self, route, signs, plane, angle):
        # Sign flips and a rotation within the window change V but not V V^T.
        rotation = np.eye(3)
        i, j = plane
        c, s = math.cos(angle), math.sin(angle)
        rotation[[i, i, j, j], [i, j, i, j]] = c, -s, s, c
        q = np.diag(signs) @ rotation
        adjacency = _seeded_graph(120, 7)
        with pytest.MonkeyPatch.context() as mp:
            force_route(mp, route)
            reference, ref_diag = heic.heic(adjacency, 3)
            assert ref_diag.solver == route
            solved = {
                "tridiagonal": spectral.Tridiagonal,
                "certified": spectral.ExtremePairs,
            }[route]
            window_vectors = solved.window_vectors
            mp.setattr(
                solved, "window_vectors", lambda self, start, stop: window_vectors(self, start, stop) @ q
            )
            estimate, diag = heic.heic(adjacency, 3)
        assert diag == ref_diag
        np.testing.assert_allclose(estimate.matrix, reference.matrix, rtol=0.0, atol=1e-15)

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

    @pytest.mark.parametrize("route", ROUTES)
    def test_result_holds_no_n_by_n_array(self, monkeypatch, route):
        # The estimate keeps the n x d window basis V; the n x n projector is
        # built only when estimate.matrix is read.
        force_route(monkeypatch, route)
        n, d = 600, 3
        adjacency = _seeded_graph(n, 5)
        assert heic.heic(adjacency, d)[1].solver == route  # and imports what the call imports
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

    @pytest.mark.parametrize("route", ROUTES)
    def test_margin_over_runner_up(self, monkeypatch, route):
        # The full routes report the best gap minus the runner-up's; the
        # certified route subtracts bounds, which are at least the gaps.
        n = 300
        adjacency = _seeded_graph(n, 4)
        force_route(monkeypatch, route)
        _, diag = heic.heic(adjacency, 3)
        assert diag.solver == route
        gaps = np.sort(heic.window_gaps(np.linalg.eigvalsh(adjacency / n)[::-1], 3))
        if route == "certified":
            assert 0.0 < diag.margin <= gaps[-1] - gaps[-2] + 1e-12
        else:
            assert diag.margin == pytest.approx(gaps[-1] - gaps[-2], abs=1e-12)

    def test_acceptance_fixtures_certify(self, sims_threshold_1500, sims_threshold_2000):
        assert {s.solver for s in sims_threshold_1500 + sims_threshold_2000} == {"certified"}

    @pytest.mark.parametrize("n, seeds", [(1500, (0, 1)), (2000, (100, 101))])
    def test_certified_matches_reduction_on_acceptance_graphs(self, certified_solve, n, seeds):
        # The graphs of sims_threshold_1500 and sims_threshold_2000.
        for seed in seeds:
            adjacency = _seeded_graph(n, seed)
            estimate, diag = heic.heic(adjacency, 3)
            with pytest.MonkeyPatch.context() as mp:
                force_route(mp, "tridiagonal")
                reference, ref_diag = heic.heic(adjacency, 3)
            assert (diag.solver, ref_diag.solver) == ("certified", "tridiagonal")
            assert diag.cluster_start == ref_diag.cluster_start == n - 3
            assert np.linalg.norm(estimate.matrix - reference.matrix) <= 1e-8
            assert abs(diag.gap - heic.estimate_dimension(adjacency).scores[2]) <= 1e-12
            assert diag.top_eigenvalue == pytest.approx(ref_diag.top_eigenvalue, abs=1e-12)
            assert diag.diameter == pytest.approx(ref_diag.diameter, abs=1e-12)

    def test_missed_extreme_pair_fails_the_inertia_count(self, monkeypatch, count_calls, certified_solve):
        # The name predates the Cholesky proof.  An eigsh that misses the
        # smallest eigenpair.  Every pair it returns is a true one, with a
        # tiny residual, and with d=2 the window rule proves the wrong
        # window: the two lowest pairs it sees, separated by 0.2 from the
        # next.  Only the second factorization, at the bottom shift, sees
        # the miss.
        n = 1000
        adjacency = _seeded_graph(n, 6)
        certified, _ = heic.heic(adjacency, 2)
        real = scipy.sparse.linalg.eigsh

        def missing_bottom(a, k, **kwargs):
            values, vectors = real(a, k + 1, **kwargs)
            keep = np.argsort(values)[1:]
            return values[keep], vectors[:, keep]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", missing_bottom)
        counts = count_calls(heic.heic, adjacency, 2)
        assert (counts["arpack"], counts["dpotrf"], counts["dsytrd"]) == (1, 2, 1)
        estimate, diag = heic.heic(adjacency, 2)
        start, projector = eigh_projector(adjacency, 2)
        assert (diag.solver, diag.cluster_start) == ("tridiagonal", start)
        assert np.linalg.norm(estimate.matrix - projector) <= 1e-8
        assert np.linalg.norm(certified.matrix - projector) <= 1e-8

    def test_missed_top_pair_fails_the_first_factorization(self, monkeypatch, count_calls, certified_solve):
        # An eigsh that misses the largest eigenpair and returns the next
        # one from the top instead.  Every pair is a true one, and the
        # window rule proves the right window, but would report the second
        # largest eigenvalue as the top one.  The first factorization, at
        # the top shift, sees the miss.
        n = 1000
        adjacency = _seeded_graph(n, 6)
        real = scipy.sparse.linalg.eigsh

        def missing_top(a, k, **kwargs):
            # which="BE" takes one more from the top when k + 2 is odd.
            values, vectors = real(a, k + 2, **kwargs)
            order = np.argsort(values)[::-1]
            keep = np.concatenate([order[1 : k - k // 2 + 1], order[len(order) - k // 2 :]])
            return values[keep], vectors[:, keep]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", missing_top)
        counts = count_calls(heic.heic, adjacency, 3)
        assert (counts["arpack"], counts["dpotrf"], counts["dsytrd"]) == (1, 1, 1)
        estimate, diag = heic.heic(adjacency, 3)
        start, projector = eigh_projector(adjacency, 3)
        assert (diag.solver, diag.cluster_start) == ("tridiagonal", start)
        assert np.linalg.norm(estimate.matrix - projector) <= 1e-8
        assert diag.top_eigenvalue == pytest.approx(np.linalg.eigvalsh(adjacency / n)[-1], abs=1e-12)

    def test_certified_route_solves_once(self, count_calls, certified_solve):
        counts = count_calls(heic.heic, _seeded_graph(300, 4), 3)
        assert counts == {"validate": 1, "eigh": 0, "eigvalsh": 0, "dsytrd": 0, "arpack": 1, "dpotrf": 2}

    def test_sparse_graph_never_calls_arpack(self, count_calls):
        n = 1200
        adjacency = _seeded_graph(n, 3, rho=8 * math.log(n) / n)
        counts = count_calls(heic.heic, adjacency, 3)
        assert (counts["arpack"], counts["dpotrf"], counts["dsytrd"]) == (0, 0, 1)


class TestEventECheck:
    def test_exact_flattened_spectrum_passes(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        spec = diagonal_spectrum(sp.flattened())
        cluster = heic.find_cluster(spec, 3)
        report = heic.event_e_check(spec, cluster, gap_analytic=0.25, rho=1.0)
        assert report.ok
        assert report.threshold == pytest.approx(0.125)

    def test_flat_spectrum_fails(self):
        spec = diagonal_spectrum(np.full(10, 0.3))
        cluster = heic.find_cluster(spec, 3)
        assert not heic.event_e_check(spec, cluster, gap_analytic=0.25, rho=1.0).ok

    def test_simulated_pass_rate(self, sims_threshold_2000):
        assert sum(s.event_ok for s in sims_threshold_2000) >= 18

    @pytest.mark.parametrize(
        "rho, gap", [(-1.0, 0.25), (0.0, 0.25), (2.0, 0.25), (math.nan, 0.25), (1.0, 0.0), (1.0, math.nan)]
    )
    def test_heic_rejects_bad_scalars_before_solving(self, monkeypatch, rho, gap):
        monkeypatch.setattr(spectral, "tridiagonalize", None)
        with pytest.raises(ValidationError, match="^(rho must lie|analytic gap must be positive)"):
            heic.heic(np.ones((12, 12)) - np.eye(12), 3, rho=rho, analytic_gap=gap)

    @pytest.mark.parametrize(
        "rho, gap, message",
        [
            (7.0, None, "rho must lie"),
            (0.5, None, "rho and analytic_gap must be given together"),
            (None, -1.0, "analytic gap must be positive"),
            (None, 0.25, "rho and analytic_gap must be given together"),
        ],
    )
    def test_heic_rejects_lone_scalar_before_solving(self, monkeypatch, rho, gap, message):
        monkeypatch.setattr(spectral, "tridiagonalize", None)
        with pytest.raises(ValidationError, match=f"^{message}"):
            heic.heic(np.ones((12, 12)) - np.eye(12), 3, rho=rho, analytic_gap=gap)

    def test_requires_positive_gap(self):
        spec = diagonal_spectrum(np.linspace(1.0, 0.0, 8))
        cluster = heic.find_cluster(spec, 2)
        cycle = np.roll(np.eye(8), 1, axis=1) + np.roll(np.eye(8), -1, axis=1)
        nan = float("nan")
        for gap, rho in ((0.0, 1.0), (nan, 1.0), (0.25, -1.0), (0.25, 0.0), (0.25, 1.5), (0.25, nan)):
            with pytest.raises(ValidationError):
                heic.event_e_check(spec, cluster, gap_analytic=gap, rho=rho)
            with pytest.raises(ValidationError):
                heic.heic(cycle, 2, rho=rho, analytic_gap=gap)


class TestAdjacencyDtypes:
    """A uint8 (as sampled), bool or float64 copy of one graph: the same A/n, the same bits out."""

    @pytest.fixture(params=["partial", "certified"])
    def solver(self, request):
        request.getfixturevalue(f"{request.param}_solve")
        return request.param

    # The solver fixture patches the routing once for all examples.
    @settings(
        max_examples=20,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(12, 160),
        d=st.sampled_from([2, 3, 4]),
        link=st.sampled_from([heic.threshold(0.0), heic.affine(0.5, 0.5)]),
        rho=st.sampled_from([1.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_outputs_bitwise_equal(self, solver, n, d, link, rho, seed):
        sample = heic.sample_uniform_sphere(n, d, seed)
        theta = heic.probability_matrix(sample, heic.GraphModel(link=link, sparsity=rho, n=n))
        graph = heic.sample_adjacency(theta, seed)
        outputs = []
        for dtype in (np.uint8, np.bool_, np.float64):
            adjacency = graph.astype(dtype)
            estimate, diag = heic.heic(adjacency, d)
            scan = heic.estimate_dimension(adjacency, d_max=min(8, n - 2))
            outputs.append(
                (
                    estimate.vectors.tobytes(),
                    estimate.cluster.values.tobytes(),
                    diag,
                    scan.scores.tobytes(),
                    scan.chosen,
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["heic", "heic-reduction", "estimate_dimension"])
    def test_uint8_graph_holds_one_float64_array(self, traced_peak, monkeypatch, command):
        # At n=1200 heic() takes the certified route, and estimate_dimension
        # the in-place tridiagonal reduction, as heic() does when forced onto
        # it.  Above the uint8 graph the caller holds, each makes A/n (8 n^2
        # bytes) and O(n) workspace: the n x d window basis is 0.3% of 8 n^2,
        # ARPACK's basis with the Ritz vectors it extracts (2 x 29 vectors)
        # 4.8%.
        n = 1200
        adjacency = _seeded_graph(n, 9)
        assert adjacency.dtype == np.uint8
        if command == "heic-reduction":
            monkeypatch.setattr(estimator, "CERTIFIED_MIN_DENSITY", math.inf)

        def run(a):
            return heic.estimate_dimension(a) if command == "estimate_dimension" else heic.heic(a, 3)[1].solver

        routed = run(adjacency)  # and imports what the call imports before tracing
        if command != "estimate_dimension":
            assert routed == ("certified" if command == "heic" else "tridiagonal")
        assert traced_peak(run, adjacency) < 1.1 * 8 * n * n
