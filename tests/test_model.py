import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heic
from heic.errors import ValidationError
from heic.model import SYMMETRY_TILE, require_adjacency, require_symmetric
from oracles import builtin_links, funck_hecke_eigenvalue, require_symmetric_whole


class TestSampleUniformSphere:
    def test_rows_are_unit(self):
        sample = heic.sample_uniform_sphere(4, 3, seed=7)
        norms = np.linalg.norm(sample.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_coordinate_means_vanish(self):
        # Monte-Carlo: per-coordinate mean has sd ~ (1/sqrt(3))/sqrt(1e5) ~ 0.002
        sample = heic.sample_uniform_sphere(100_000, 3, seed=1)
        assert np.abs(sample.points.mean(axis=0)).max() < 0.02

    def test_coordinate_second_moment(self):
        sample = heic.sample_uniform_sphere(100_000, 3, seed=1)
        second = (sample.points**2).mean(axis=0)
        np.testing.assert_allclose(second, 1.0 / 3.0, atol=0.02)

    def test_deterministic_bit_for_bit(self):
        a = heic.sample_uniform_sphere(50, 4, seed=99)
        b = heic.sample_uniform_sphere(50, 4, seed=99)
        assert np.array_equal(a.points, b.points)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            heic.sample_uniform_sphere(0, 3, seed=1)
        with pytest.raises(ValidationError):
            heic.sample_uniform_sphere(5, 1, seed=1)

    def test_nan_rows_rejected(self):
        points = heic.sample_uniform_sphere(4, 3, seed=7).points.copy()
        points[2] = np.nan
        with pytest.raises(ValidationError, match="unit vectors"):
            heic.LatentSample(dim=3, points=points, seed=7)


class TestGramPopulation:
    def test_standard_basis(self):
        sample = heic.LatentSample(dim=3, points=np.eye(3), seed=0)
        np.testing.assert_allclose(heic.gram_population(sample), np.eye(3) / 3.0, atol=1e-15)

    def test_repeated_point(self):
        p = np.array([0.6, 0.8])
        sample = heic.LatentSample(dim=2, points=np.vstack([p, p]), seed=0)
        np.testing.assert_allclose(heic.gram_population(sample), np.full((2, 2), 0.5), atol=1e-12)

    def test_psd_and_diagonal(self):
        sample = heic.sample_uniform_sphere(40, 3, seed=3)
        g = heic.gram_population(sample)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-10
        np.testing.assert_allclose(np.diag(g), 1.0 / 40.0, atol=1e-12)
        assert np.abs(g).max() <= 1.0 / 40.0 + 1e-12

    def test_inner_products_exactly_symmetric(self):
        # inner_products relies on numpy computing x @ x.T as a symmetric rank-k update
        for n in (2, 7, 64, 301, 1001):
            for d in (2, 3, 8, 15):
                t = heic.inner_products(heic.sample_uniform_sphere(n, d, seed=n + d))
                assert np.array_equal(t, t.T), (n, d)


class TestProbabilityMatrix:
    def test_constant_link(self):
        sample = heic.sample_uniform_sphere(3, 3, seed=5)
        model = heic.GraphModel(link=heic.affine(1.0, 0.0), sparsity=0.5, n=3)
        theta = heic.probability_matrix(sample, model)
        assert np.all(np.diag(theta) == 0.0)
        off = theta[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 0.5, atol=1e-15)

    def test_threshold_on_antipodes(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        sample = heic.LatentSample(dim=3, points=pts, seed=0)
        model = heic.GraphModel(link=heic.threshold(0.0), sparsity=0.7, n=2)
        theta = heic.probability_matrix(sample, model)
        assert theta[0, 1] == pytest.approx(0.7)

    def test_affine_on_orthogonal_points(self):
        pts = np.eye(3)[:2]
        sample = heic.LatentSample(dim=3, points=pts, seed=0)
        model = heic.GraphModel(link=heic.affine(0.5, 0.5), sparsity=0.9, n=2)
        theta = heic.probability_matrix(sample, model)
        assert theta[0, 1] == pytest.approx(0.45)

    def test_mismatched_n_rejected(self):
        sample = heic.sample_uniform_sphere(4, 3, seed=5)
        model = heic.GraphModel(link=heic.threshold(0.0), sparsity=1.0, n=5)
        with pytest.raises(ValidationError):
            heic.probability_matrix(sample, model)

    def test_permutation_equivariance(self):
        sample = heic.sample_uniform_sphere(12, 3, seed=21)
        model = heic.GraphModel(link=heic.affine(0.5, 0.5), sparsity=0.8, n=12)
        theta = heic.probability_matrix(sample, model)
        rng = np.random.default_rng(0)
        perm = rng.permutation(12)
        permuted = heic.LatentSample(dim=3, points=sample.points[perm], seed=sample.seed)
        theta_perm = heic.probability_matrix(permuted, model)
        # matmul kernels may reassociate sums per block, so equality is up to
        # one ulp rather than bitwise
        np.testing.assert_allclose(theta_perm, theta[np.ix_(perm, perm)], atol=1e-15, rtol=0.0)


class TestSampleAdjacency:
    def test_zero_theta(self):
        assert not heic.sample_adjacency(np.zeros((4, 4)), seed=1).any()

    def test_certain_edges(self):
        theta = np.ones((5, 5)) - np.eye(5)
        adj = heic.sample_adjacency(theta, seed=1)
        assert np.array_equal(adj, theta)

    def test_edge_rate_concentrates(self):
        n = 2000
        theta = np.full((n, n), 0.3)
        np.fill_diagonal(theta, 0.0)
        adj = heic.sample_adjacency(theta, seed=7)
        assert heic.edge_density(adj) == pytest.approx(0.3, abs=0.01)

    def test_symmetric_zero_diagonal(self):
        theta = np.full((6, 6), 0.5)
        np.fill_diagonal(theta, 0.0)
        adj = heic.sample_adjacency(theta, seed=3)
        assert np.array_equal(adj, adj.T)
        assert not np.diag(adj).any()
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_rejects_non_probabilities(self):
        with pytest.raises(ValidationError):
            heic.sample_adjacency(np.full((3, 3), 1.5), seed=1)

    def test_slack_entries_match_clipped_copy(self):
        # Entries within PROB_SLACK outside [0, 1] flip the coins as their clipped values do.
        rng = np.random.default_rng(4)
        theta = rng.random((40, 40))
        theta[rng.random((40, 40)) < 0.2] = -1e-12
        theta[rng.random((40, 40)) < 0.2] = 1.0 + 1e-12
        theta = np.triu(theta, k=1)
        theta += theta.T
        assert theta.min() == -1e-12 and theta.max() == 1.0 + 1e-12
        clipped = np.clip(theta, 0.0, 1.0)
        for seed in range(3):
            adj = heic.sample_adjacency(theta, seed=seed)
            assert adj.tobytes() == heic.sample_adjacency(clipped, seed=seed).tobytes()

    def test_holds_two_n_by_n_float64_arrays(self, traced_peak):
        # The upper triangle and the symmetric result; the uniforms are freed first.
        theta = np.full((500, 500), 0.5)
        np.fill_diagonal(theta, 0.0)
        assert traced_peak(heic.sample_adjacency, theta, 1) < 2.5 * theta.nbytes

    def test_two_step_determinism(self):
        def build():
            sample = heic.sample_uniform_sphere(60, 3, seed=11)
            model = heic.GraphModel(link=heic.threshold(0.0), sparsity=0.6, n=60)
            return heic.sample_adjacency(heic.probability_matrix(sample, model), seed=12)

        assert np.array_equal(build(), build())


class TestEdgeDensity:
    def test_complete_graph(self):
        adj = np.ones((4, 4)) - np.eye(4)
        assert heic.edge_density(adj) == 1.0

    def test_empty_graph(self):
        assert heic.edge_density(np.zeros((5, 5))) == 0.0

    def test_single_edge(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        assert heic.edge_density(adj) == pytest.approx(1.0 / 3.0)

    def test_rejects_tiny(self):
        with pytest.raises(ValidationError):
            heic.edge_density(np.zeros((1, 1)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="non-empty"):
            heic.edge_density(np.zeros((0, 0)))


TILE = SYMMETRY_TILE
# Around one, two and three tiles: exact multiples and partial last tiles.
SIZES = (1, 2, 37, TILE, TILE + 1, 2 * TILE, 2 * TILE + 37, 3 * TILE - 1)


def _tile_range(n, k):
    return k * TILE, min(n, (k + 1) * TILE)


@st.composite
def perturbed_symmetric(draw, region):
    """(matrix, tol): an exactly symmetric dyadic matrix with one entry changed.

    region says where: inside a tile on the diagonal, in a tile off it, in
    the last partial tile, or ("non-finite") a NaN, inf or -inf anywhere.
    The change is a multiple of the bound tol * max(1, max|a_ij|), so it
    lands below, on and above it; mirrored, it keeps the matrix symmetric.
    """
    sizes = {
        "diagonal": SIZES,
        "off-diagonal": [n for n in SIZES if n > TILE],
        "last-partial": [n for n in SIZES if n % TILE],
        "non-finite": SIZES,
    }[region]
    n = draw(st.sampled_from(sizes))
    tiles = -(-n // TILE)
    scale = draw(st.sampled_from([2.0**-12, 1.0, 2.0**12]))
    tol = draw(st.sampled_from([1e-10, 1e-8, 2.0**-20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(-4, 5, size=(n, n)) * (scale / 4)
    m = m + m.T
    if region == "diagonal":
        lo, hi = _tile_range(n, draw(st.integers(0, tiles - 1)))
        rows = cols = st.integers(lo, hi - 1)
    elif region == "off-diagonal":
        a, b = draw(st.lists(st.integers(0, tiles - 1), min_size=2, max_size=2, unique=True))
        (row_lo, row_hi), (col_lo, col_hi) = _tile_range(n, a), _tile_range(n, b)
        rows, cols = st.integers(row_lo, row_hi - 1), st.integers(col_lo, col_hi - 1)
    elif region == "last-partial":
        rows = cols = st.integers(n - n % TILE, n - 1)
    else:
        rows = cols = st.integers(0, n - 1)
    i, j = draw(rows), draw(cols)
    if region == "non-finite":
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        bound = tol * max(1.0, float(np.abs(m).max()))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        factor = draw(st.sampled_from([0.5, 1.0, 2.0, 1e12]))
        value = m[i, j] + sign * factor * bound
    m[i, j] = value
    if draw(st.booleans()):
        m[j, i] = value
    return m, tol


def _outcome(check, m, tol):
    try:
        return check(m, "matrix", tol)
    except ValidationError as exc:
        return str(exc)


class TestRequireSymmetric:
    @pytest.mark.parametrize("region", ["diagonal", "off-diagonal", "last-partial", "non-finite"])
    @settings(max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_whole_matrix_check(self, region, data):
        m, tol = data.draw(perturbed_symmetric(region))
        expected = _outcome(require_symmetric_whole, m, tol)
        got = _outcome(require_symmetric, m, tol)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got is m

    def test_no_n_by_n_float64_temporary(self, traced_peak):
        n = 3 * TILE + 17
        upper = np.triu(np.random.default_rng(4).random((n, n)) < 0.5, k=1)
        adjacency = (upper | upper.T).astype(float)
        for check in (require_symmetric, require_adjacency):
            # One n x n float64 temporary alone would reach the input's size.
            assert traced_peak(check, adjacency) < adjacency.nbytes, check.__name__


class TestModelLevelProperties:
    def test_edge_density_tracks_mean_connectivity(self):
        # lambda_0 = 1/2 for both standing links; n=1000, rho=1, tolerance 0.05.
        n = 1000
        for link in builtin_links().values():
            sample = heic.sample_uniform_sphere(n, 3, seed=31)
            theta = heic.probability_matrix(sample, heic.GraphModel(link=link, sparsity=1.0, n=n))
            adj = heic.sample_adjacency(theta, seed=32)
            lam0, _ = funck_hecke_eigenvalue(link, 3, 0)
            assert heic.edge_density(adj) == pytest.approx(lam0, abs=0.05)

    def test_row_sums_concentrate(self):
        # The mean connectivity profile is constant over the sphere, so rows
        # of theta concentrate around a common value.
        n = 2000
        for link in builtin_links().values():
            sample = heic.sample_uniform_sphere(n, 3, seed=41)
            theta = heic.probability_matrix(sample, heic.GraphModel(link=link, sparsity=1.0, n=n))
            rows = theta.sum(axis=1)
            assert rows.std() / rows.mean() < 0.1
