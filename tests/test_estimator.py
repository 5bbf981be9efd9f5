import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import heic
from heic import estimator, spectral
from heic.errors import EigenSolverError, ValidationError
from oracles import (
    cluster_scan_bruteforce,
    diagonal_spectrum,
    eigh_projector,
    eigh_spectrum,
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
    """Make heic() take route whatever the graph's density and size;
    "certified" falls back to "tridiagonal" when it fails."""
    mp.setattr(estimator, "CERTIFIED_MIN_DENSITY", 0.0 if route == "certified" else math.inf)
    if route == "two-stage":
        mp.setattr(spectral, "TWO_STAGE_MIN_N", 1)


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


def _known_ends(top, bottom, n):
    """A spectrum as ExtremePairs.values gives it: top, NaN for each unknown middle value, bottom."""
    return np.concatenate([top, np.full(n - len(top) - len(bottom), np.nan), bottom])


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
        certified = estimator.certify_window(_known_ends(top, bottom, n), lower, upper, d, 0.0)
        if certified is not None:
            # find_cluster's record on the full spectrum, bit for bit, but
            # for the margin: every bound is at least its window's gap, so
            # the certificate never claims more than the full scan's margin
            # over its runner-up.  An exact gap needs only the steps at the
            # window's ends, so a window may hold unknown (NaN) values here;
            # heic()'s never does, as ARPACK's few pairs leave a middle far
            # wider than a window.
            full = heic.find_cluster(diagonal_spectrum(values), d)
            assert certified == dataclasses.replace(full, margin=certified.margin)
            known = ~np.isnan(certified.values)
            assert certified.values[known].tobytes() == full.values[known].tobytes()
            if known.all():
                assert certified.diameter == full.diameter
            assert 0.0 < certified.margin <= full.margin
            assert (certified.start, certified.gap) == cluster_scan_bruteforce(values, d)
            assert (certified.start, certified.gap) == window_certificate_bruteforce(
                top, bottom, lower, upper, n, d
            )

    def test_certifies_the_harmonic_window(self):
        # The flattened threshold(0) spectrum on S^2, levels 0 .. 3: 0.5,
        # then 0.0625 seven times, zeros, and -0.25 three times at the
        # bottom.  Knowing the top two and the bottom four, with the middle
        # in [0, 0.0625], proves the bottom window, by 0.25 - 0.0625 over
        # the middle's range.
        values = diagonal_spectrum(heic.analytic_spectrum(heic.threshold(0.0), 3, 3).flattened()).values
        n = values.size
        cluster = estimator.certify_window(_known_ends(values[:2], values[n - 4 :], n), 0.0, 0.0625, 3, 1e-12)
        assert (cluster.start, cluster.gap) == cluster_scan_bruteforce(values, 3)
        assert (cluster.start, cluster.gap) == (n - 3, values[n - 4] - values[n - 3])
        assert cluster.margin == pytest.approx(0.25 - 0.0625, abs=1e-9)

    def test_slack_can_spoil_the_proof(self):
        # Window 1 wins by 0.45 against 0.05.  The other windows each touch
        # the middle value -0.05, so a slack of 0.14 lifts their bounds to
        # 0.19, and leaves a margin of 0.26 < 2 * 0.14.
        known = np.array([1.0, 0.5, 0.45, 0.0, np.nan, -0.1])
        cluster = estimator.certify_window(known, -0.05, -0.05, 2, 0.0)
        assert (cluster.start, cluster.gap, cluster.margin) == (1, 0.45, pytest.approx(0.4))
        assert estimator.certify_window(known, -0.05, -0.05, 2, 0.13) is not None
        assert estimator.certify_window(known, -0.05, -0.05, 2, 0.14) is None

    def test_declines_without_an_exact_window(self):
        # Only the top is known, and every window touches the middle.
        assert estimator.certify_window(_known_ends([1.0], [], 6), -0.1, 0.1, 2, 0.0) is None


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
        v = eigh_spectrum(m).vectors[:, list(cluster.indices)]
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
        assert counts == {
            "validate": 1, "eigh": 0, "eigvalsh": 0, "dsytrd": 1, "dsytrd_2stage": 0, "arpack": 0,
            "dpotrf": 0, "copy": 1,
        }

    @pytest.mark.parametrize("min_n, solver", [(12, "dsytrd")])
    def test_partial_solve_from_min_n(self, count_calls, min_n, solver):
        # No size falls back to numpy's full eigh: every complete graph from
        # the smallest window heic accepts, d + 2 nodes, up to K_min_n is too
        # small for ARPACK and takes exactly one tridiagonal reduction.
        zero = dict.fromkeys(("eigh", "eigvalsh", "dsytrd", "dsytrd_2stage", "arpack", "dpotrf"), 0)
        for n in range(5, min_n + 1):
            counts = count_calls(heic.heic, np.ones((n, n)) - np.eye(n), 3)
            assert counts == {"validate": 1, **zero, "copy": 1, solver: 1}

    def test_reduction_route_takes_two_stage_from_min_n(
        self, count_calls, monkeypatch, partial_solve, two_stage
    ):
        # From spectral.TWO_STAGE_MIN_N the reduction route reduces once, by
        # the two stages; a failed certificate adds one dsytrd on A/n.
        counts = count_calls(heic.heic, _seeded_graph(60, 1), 3)
        assert (counts["dsytrd"], counts["dsytrd_2stage"]) == (0, 1)
        monkeypatch.setattr(spectral, "_BAND_BOUND", 0.0)
        counts = count_calls(heic.heic, _seeded_graph(60, 1), 3)
        assert (counts["dsytrd"], counts["dsytrd_2stage"]) == (1, 1)

    def test_writes_a_over_n_back_only_after_an_overwrite(self, count_calls):
        # heic() makes A/n once and writes it back only after a route that
        # overwrote it fails, a refused proof or a failed band certificate,
        # never after an ARPACK that declined having only read it.  Each
        # fallback then gives the bits of the route it falls back to; a
        # failed band certificate, dsytrd's vectors for the window it placed.
        adjacency = _seeded_graph(300, 4)
        real = spectral.extreme_pairs

        def refused_at(end):
            # The true pairs with one end's shift moved to 0, inside the
            # bulk, so that end's factorization breaks down.
            def claim(work, k):
                pairs = real(work, k)
                s_hi, s_lo = pairs.shifts
                return dataclasses.replace(pairs, shifts=(0.0, s_lo) if end == "top" else (s_hi, 0.0))

            return claim

        def run(solver, copies, *patches):
            with pytest.MonkeyPatch.context() as mp:
                for target, name, value in patches:
                    mp.setattr(target, name, value)
                counts = count_calls(heic.heic, adjacency, 3)
                estimate, diag = heic.heic(adjacency, 3)
            assert (diag.solver, counts["copy"]) == (solver, copies)
            return counts, (estimate.vectors.tobytes(), diag)

        certified = (estimator, "CERTIFIED_MIN_DENSITY", 0.0)
        reduction = (estimator, "CERTIFIED_MIN_DENSITY", math.inf)
        two_stage = (spectral, "TWO_STAGE_MIN_N", 1)
        run("certified", 1, certified)
        _, reference = run("tridiagonal", 1, reduction)
        run("two-stage", 1, reduction, two_stage)
        counts, failed_band = run("tridiagonal", 2, reduction, two_stage, (spectral, "_BAND_BOUND", 0.0))
        assert (counts["dsytrd_2stage"], counts["dsytrd"]) == (1, 1)
        assert failed_band[0] == reference[0]
        assert failed_band[1].cluster_start == reference[1].cluster_start
        for end, factorizations in (("top", 1), ("bottom", 2)):
            patch = (estimator, "extreme_pairs", refused_at(end))
            counts, refused = run("tridiagonal", 2, certified, patch)
            assert (counts["arpack"], counts["dpotrf"], counts["dsytrd"]) == (1, factorizations, 1)
            assert refused == reference
        counts, declined = run("tridiagonal", 1, certified, (spectral, "_matvec_budget", lambda n: 10))
        assert (counts["arpack"], counts["dpotrf"], counts["dsytrd"]) == (1, 0, 1)
        assert declined == reference

    def test_gap_matches_dimension_scan_bitwise(self, monkeypatch, count_calls, partial_solve):
        # heic and the dimension scan share one reduction and dsterf at
        # every n, so heic reports the candidate's score exactly.  Below
        # spectral.TWO_STAGE_MIN_N that is dsytrd, the arithmetic of numpy's
        # eigvalsh too; from it on, the two stages.  A failed band
        # certificate keeps the two-stage window and takes only its
        # vectors from dsytrd, on A/n written back.
        for min_n, bound in ((spectral.TWO_STAGE_MIN_N, None), (1, None), (1, 0.0)):
            monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", min_n)
            if bound is not None:
                monkeypatch.setattr(spectral, "_BAND_BOUND", bound)
            for n in (60, 200):
                for seed in range(20):
                    adjacency = _seeded_graph(n, seed)
                    estimate, diag = heic.heic(adjacency, 3)
                    assert diag.gap == heic.estimate_dimension(adjacency).scores[2]
                    assert diag.solver == ("two-stage" if (min_n, bound) == (1, None) else "tridiagonal")
                    if min_n > n:
                        values = np.linalg.eigvalsh(adjacency / n)[::-1]
                        assert diag.gap == heic.window_gaps(values, 3).max()
                    if bound is not None:
                        start = heic.find_cluster(spectral.reduce(adjacency / n), 3).start
                        assert diag.cluster_start == start
                        vectors = spectral.tridiagonalize(adjacency / n).window_vectors(start, start + 3)
                        assert estimate.vectors.tobytes() == vectors.tobytes()
                        counts = count_calls(heic.heic, adjacency, 3)
                        assert (counts["dsytrd_2stage"], counts["dsytrd"], counts["copy"]) == (1, 1, 2)
                        # The dsytrd fallback takes the two-stage values: one dsterf, not two.
                        real, dsterf = spectral._tridiagonal_values, []
                        with pytest.MonkeyPatch.context() as mp:
                            mp.setattr(spectral, "_tridiagonal_values", lambda *a: dsterf.append(1) or real(*a))
                            heic.heic(adjacency, 3)
                        assert len(dsterf) == 1

    @pytest.mark.parametrize("route", ["tridiagonal", "two-stage"])
    def test_reduction_route_places_the_window_by_find_cluster(self, monkeypatch, partial_solve, route):
        # On both reduction routes heic() makes one call of find_cluster on
        # spectral.reduce's values, and reports that record bit for bit.
        if route == "two-stage":
            monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", 1)
        real = estimator.find_cluster
        for n, seed in ((60, 1), (200, 2), (300, 4)):
            adjacency = _seeded_graph(n, seed)
            expected = real(spectral.reduce(adjacency / n), 3)
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(estimator, "find_cluster", lambda spec, d: calls.append(d) or real(spec, d))
                estimate, diag = heic.heic(adjacency, 3)
            assert calls == [3]
            assert diag.solver == route
            reported = (diag.cluster_start, diag.gap, diag.margin, diag.diameter)
            assert reported == (expected.start, expected.gap, expected.margin, expected.diameter)
            assert estimate.cluster == expected
            assert estimate.cluster.values.tobytes() == expected.values.tobytes()

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

    @pytest.mark.parametrize("route", [*ROUTES, "two-stage"])
    def test_margin_over_runner_up(self, monkeypatch, route):
        # The full routes report the best gap minus the runner-up's; the
        # certified route subtracts bounds, which are at least the gaps.
        # Every route reports Python scalars.
        n = 300
        adjacency = _seeded_graph(n, 4)
        force_route(monkeypatch, route)
        _, diag = heic.heic(adjacency, 3)
        assert diag.solver == route
        assert type(diag.degenerate) is bool and not diag.degenerate
        for name in ("edge_density", "gap", "diameter", "top_eigenvalue", "margin"):
            assert type(getattr(diag, name)) is float
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
        assert counts == {
            "validate": 1, "eigh": 0, "eigvalsh": 0, "dsytrd": 0, "dsytrd_2stage": 0, "arpack": 1,
            "dpotrf": 2, "copy": 1,
        }

    def test_sparse_graph_never_calls_arpack(self, count_calls):
        n = 1200
        adjacency = _seeded_graph(n, 3, rho=8 * math.log(n) / n)
        counts = count_calls(heic.heic, adjacency, 3)
        assert (counts["arpack"], counts["dpotrf"], counts["dsytrd"]) == (0, 0, 1)


def _cliques(sizes, isolated=0):
    """Disjoint cliques of the given sizes, in node order, then isolated nodes."""
    n = sum(sizes) + isolated
    adjacency = np.zeros((n, n), dtype=np.uint8)
    first = 0
    for size in sizes:
        adjacency[first : first + size, first : first + size] = 1
        first += size
    np.fill_diagonal(adjacency, 0)
    return adjacency


# Each window lies inside a long run of equal eigenvalues (45 copies of
# -1/60, 50 of -1/60), where dstebz's index-selected bisection fails; the
# vectors then come from dstemr on the same tridiagonal.
RUNS_OF_EQUAL_EIGENVALUES = [
    pytest.param(_cliques([3, 7, 4, 3, 2, 5, 4, 2, 3, 7, 5, 4, 9], isolated=2), None, 15, id="cliques-isolated"),
    pytest.param(_cliques([6] * 10), "two-stage", 10, id="ten-K6-two-stage"),
]


class TestWindowInsideARunOfEqualEigenvalues:
    @pytest.mark.parametrize("adjacency, route, start", RUNS_OF_EQUAL_EIGENVALUES)
    def test_flagged_degenerate_with_true_eigenvectors(self, monkeypatch, adjacency, route, start):
        if route is not None:
            force_route(monkeypatch, route)
        n = adjacency.shape[0]
        estimate, diag = heic.heic(adjacency, 1)
        assert (diag.solver, diag.cluster_start, diag.degenerate) == ("tridiagonal", start, True)
        v = estimate.vectors
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.abs(adjacency / n @ v - v * estimate.cluster.values).max() <= 1e-15


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


class TestTwoStageRoute:
    """heic()'s reduction route from spectral.TWO_STAGE_MIN_N: window vectors from the band, certified."""

    @settings(
        max_examples=40,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n=st.integers(5, 300),
        link=st.sampled_from([heic.threshold(0.0), heic.affine(0.5, 0.5)]),
        rho=st.sampled_from([1.0, 0.3]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_full_eigh_reference(self, partial_solve, two_stage, n, link, rho, seed):
        # n <= kd + 1 = 33 makes B the whole matrix, with no reflectors.
        adjacency = _seeded_graph(n, seed, link, rho)
        estimate, diag = heic.heic(adjacency, 3)
        assume(diag.margin > 1e-12)  # else two windows tie, and rounding picks one
        start, projector = eigh_projector(adjacency, 3)
        assert diag.cluster_start == start
        assert np.linalg.norm(estimate.matrix - projector) <= 1e-10
        assert np.abs(estimate.vectors.T @ estimate.vectors - np.eye(3)).max() <= 1e-12

    @pytest.mark.parametrize(
        "edges, n",
        [(0.0, 200), (1.0, 200), (1.0, 5), (1.0, 50)],
        ids=["empty", "complete", "complete-5", "complete-50"],
    )
    def test_degenerate_graph_falls_back(self, monkeypatch, partial_solve, edges, n):
        # Every window of the empty graph has gap 0, and every window of K_n
        # a gap of rounding alone: no certificate.  The window is the one
        # the two-stage values place, with dsytrd's vectors for it.  K_n's
        # rounding leaves a gap above 0 but within the spectrum's rounding
        # slack, so both graphs are flagged.
        adjacency = np.full((n, n), edges) - edges * np.eye(n)
        parent, parent_diag = heic.heic(adjacency, 3)
        monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", 1)
        estimate, diag = heic.heic(adjacency, 3)
        solved = spectral.reduce(adjacency / n)
        cluster = heic.find_cluster(solved, 3)
        gaps = np.sort(heic.window_gaps(solved.values, 3))
        assert diag == dataclasses.replace(
            parent_diag,
            gap=cluster.gap,
            diameter=cluster.diameter,
            cluster_start=cluster.start,
            top_eigenvalue=float(solved.values[0]),
            margin=gaps[-1] - gaps[-2],
        )
        assert diag.degenerate and diag.solver == "tridiagonal"
        start = cluster.start
        vectors = spectral.tridiagonalize(adjacency / n).window_vectors(start, start + 3)
        assert estimate.vectors.tobytes() == vectors.tobytes()
        if edges == 0.0:
            assert diag == parent_diag
            assert estimate.vectors.tobytes() == parent.vectors.tobytes()

    def test_failed_certificate_gives_dsytrd_bits(self, monkeypatch, partial_solve):
        # dsytrd's vectors for the window, which the two-stage values place
        # and score.
        adjacency = _seeded_graph(300, 6, rho=0.3)
        parent, parent_diag = heic.heic(adjacency, 3)
        monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", 1)
        _, two_stage_diag = heic.heic(adjacency, 3)
        monkeypatch.setattr(spectral, "_BAND_BOUND", 0.0)
        estimate, diag = heic.heic(adjacency, 3)
        assert diag == dataclasses.replace(two_stage_diag, solver="tridiagonal")
        assert diag.cluster_start == parent_diag.cluster_start
        assert estimate.vectors.tobytes() == parent.vectors.tobytes()

    def test_gram_estimate_refuses_an_uncertified_window(self, two_stage):
        # Every window of K_50 has a gap of rounding alone, so the band
        # certificate fails and there are no vectors to estimate from.
        solved = spectral.reduce((np.ones((50, 50)) - np.eye(50)) / 50)
        cluster = heic.find_cluster(solved, 3)
        with pytest.raises(EigenSolverError, match="band certificate failed for the window"):
            heic.gram_estimate(solved, cluster)


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
