import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heic
from heic.errors import ValidationError
from heic import model as heic_model
from heic.experiments import ExperimentConfig, _simulate_graph
from heic.model import SYMMETRY_TILE, require_adjacency, require_symmetric, row_gram, sample_model_adjacency
from oracles import builtin_links, funck_hecke_eigenvalue, gram_numpy, require_symmetric_whole


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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            heic.sample_uniform_sphere(3, 3, seed=-1)

    def test_nan_rows_rejected(self):
        points = heic.sample_uniform_sphere(4, 3, seed=7).points.copy()
        points[2] = np.nan
        with pytest.raises(ValidationError, match="unit vectors"):
            heic.LatentSample(points)


class TestGramPopulation:
    def test_standard_basis(self):
        sample = heic.LatentSample(np.eye(3))
        np.testing.assert_allclose(heic.gram_population(sample), np.eye(3) / 3.0, atol=1e-15)

    def test_repeated_point(self):
        p = np.array([0.6, 0.8])
        sample = heic.LatentSample(np.vstack([p, p]))
        np.testing.assert_allclose(heic.gram_population(sample), np.full((2, 2), 0.5), atol=1e-12)

    def test_psd_and_diagonal(self):
        sample = heic.sample_uniform_sphere(40, 3, seed=3)
        g = heic.gram_population(sample)
        assert np.array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-10
        np.testing.assert_allclose(np.diag(g), 1.0 / 40.0, atol=1e-12)
        assert np.abs(g).max() <= 1.0 / 40.0 + 1e-12

    def test_inner_products_exactly_symmetric(self):
        # inner_products mirrors the triangle its symmetric rank-k update writes
        for n in (2, 7, 64, 301, 1001):
            for d in (2, 3, 8, 15):
                t = heic.inner_products(heic.sample_uniform_sphere(n, d, seed=n + d))
                assert np.array_equal(t, t.T), (n, d)

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        n=st.one_of(st.integers(1, 400), st.sampled_from([1000, 2000, 3000])),
        d=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inner_products_are_numpys_bitwise(self, n, d, seed):
        # scipy's dsyrk with its triangle mirrored gives numpy's x @ x.T,
        # also at sizes where both BLAS libraries run threaded.
        sample = heic.sample_uniform_sphere(n, d, seed)
        expected = np.clip(gram_numpy(sample.points), -1.0, 1.0)
        assert heic.inner_products(sample).tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        rows=st.integers(2, 15),
        cols=st.one_of(st.integers(1, 400), st.sampled_from([1200, 3000])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_wide_row_gram_is_numpys_bitwise(self, rows, cols, seed):
        # The shape of V^T V for n x k Ritz vectors V, k >= 7, as the
        # certified route's orthogonality check forms it.  (numpy takes the
        # product of a single row as a dot, whose bits can differ.)
        a = np.random.default_rng(seed).standard_normal((rows, cols))
        assert row_gram(a).tobytes() == gram_numpy(a).tobytes()


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
        sample = heic.LatentSample(pts)
        model = heic.GraphModel(link=heic.threshold(0.0), sparsity=0.7, n=2)
        theta = heic.probability_matrix(sample, model)
        assert theta[0, 1] == pytest.approx(0.7)

    def test_affine_on_orthogonal_points(self):
        pts = np.eye(3)[:2]
        sample = heic.LatentSample(pts)
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
        permuted = heic.LatentSample(sample.points[perm])
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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            heic.sample_adjacency(np.zeros((3, 3)), seed=-1)

    def test_slack_entries_match_clipped_copy(self):
        # Entries within RANGE_SLACK outside [0, 1] flip the coins as their clipped values do.
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

    def test_holds_no_n_by_n_float64_array(self, traced_peak):
        # The uint8 result (1/8 of theta's bytes) and one block of rows: about
        # 2 MB of uniforms, 18% of theta at n=1200, with its bool masks.
        n = 1200
        theta = np.full((n, n), 0.5)
        np.fill_diagonal(theta, 0.0)
        assert traced_peak(heic.sample_adjacency, theta, 1) < 0.5 * theta.nbytes

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        n=st.one_of(st.integers(2, 40), st.sampled_from([7, 90, 257, 300])),
        d=st.sampled_from([2, 3, 4, 5, 8]),
        link=st.sampled_from([heic.threshold(0.0), heic.affine(0.5, 0.5)]),
        rho=st.sampled_from([1.0, 0.1]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_blocked_coins_equal_dense_coins(self, n, d, link, rho, seed, data):
        # Both samplers, in blocks of any row count, flip the coins of one
        # (n, n) draw compared with the whole Theta.  The points come from
        # sample_uniform_sphere: hand-built ones can put an inner product
        # exactly on a threshold, where a last-bit difference between the
        # block product and inner_products' rank-k update flips a coin.
        sample = heic.sample_uniform_sphere(n, d, seed)
        model = heic.GraphModel(link=link, sparsity=rho, n=n)
        theta = heic.probability_matrix(sample, model)
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < theta, 1)
        dense = (upper | upper.T).astype(np.uint8)
        rows = data.draw(st.integers(1, n), label="rows per block")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(heic_model, "SAMPLE_BLOCK_BYTES", 8 * n * rows)
            blocked = heic.sample_adjacency(theta, seed)
            model_blocked = sample_model_adjacency(sample, model, seed)
        assert blocked.dtype == model_blocked.dtype == np.uint8
        assert blocked.tobytes() == dense.tobytes()
        assert model_blocked.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("link", [heic.threshold(0.0), heic.affine(0.5, 0.5)], ids=["threshold", "affine"])
    def test_model_sampler_matches_whole_theta(self, link):
        # At n=1300, with the default blocks of 201 rows, about a thousand
        # block inner products differ from inner_products' in the last bit
        # (OpenBLAS's dgemm against its dsyrk); no coin may differ.
        n = 1300
        sample = heic.sample_uniform_sphere(n, 3, seed=n)
        model = heic.GraphModel(link=link, sparsity=0.5, n=n)
        expected = heic.sample_adjacency(heic.probability_matrix(sample, model), 8)
        assert sample_model_adjacency(sample, model, 8).tobytes() == expected.tobytes()

    def test_sampled_graphs_unchanged(self):
        # sha256 digests of graphs the test suite and the benchmark sample,
        # recorded when the samplers' products ran on numpy's BLAS: moving
        # them to scipy's changed no coin.  The whole-Theta sampler draws the
        # first two seeds of each Monte-Carlo fixture in conftest.py.  The
        # studies' row-blocked sampler draws two replicates of each grid
        # size of the acceptance studies (with Theta itself for the
        # noiseless convergence study), and of the studies workload's first
        # two rounds at benchmark seed 1.
        threshold, affine = heic.threshold(0.0), heic.affine(0.5, 0.5)

        def fixtures():
            for n, seeds in ((1000, (200, 201)), (1500, (0, 1)), (2000, (100, 101))):
                for base in seeds:
                    latent, coins = heic.replicate_seeds(base, n, 0)
                    sample = heic.sample_uniform_sphere(n, 3, latent)
                    theta = heic.probability_matrix(sample, heic.GraphModel(threshold, 1.0, n))
                    yield heic.sample_adjacency(theta, coins)

        def studies(specs):
            for link, seed, grid, observed in specs:
                cfg = ExperimentConfig(link=link, d=3, n_grid=grid, replicates=2, seed=seed)
                for n in grid:
                    for r in range(2):
                        yield _simulate_graph(cfg, n, r, observed)[1]

        grid = (200, 500, 1000, 2000)
        acceptance = [
            (threshold, 20240901, grid, True),
            (threshold, 777, (1000,), True),
            (affine, 2024, grid, True),
            (affine, 2024, grid, False),
        ]
        # The studies workload's round seeds (perfbench/run.py, study_configs).
        rounds = [int(np.random.SeedSequence((1, r)).generate_state(1)[0]) for r in range(2)]
        workload = [
            spec
            for seed in rounds
            for spec in (
                (threshold, seed, (200, 500, 1000), True),
                (affine, seed, (500,), True),
                (affine, seed, (200, 500, 1000), False),
            )
        ]
        expected = {
            "fixtures": "41f06072a684708e9360d8b81fe7bc0c69bc211a69d388b10ea7f8ed922930da",
            "acceptance": "68f92a3cc412a186822ec909ca0d23fd8e4d245fe0a9bd6752883429b20e5fa2",
            "studies-small": "cc84c9441e3691a0b8414ef7107ee746e4a6316754c4f4d56ca764e7af826032",
        }
        graphs = {"fixtures": fixtures(), "acceptance": studies(acceptance), "studies-small": studies(workload)}
        for name, arrays in graphs.items():
            digest = hashlib.sha256()
            for a in arrays:
                digest.update(a.tobytes())
            assert digest.hexdigest() == expected[name], name

    def test_model_sampler_rejects_mismatched_n(self):
        sample = heic.sample_uniform_sphere(4, 3, seed=5)
        model = heic.GraphModel(link=heic.threshold(0.0), sparsity=1.0, n=5)
        with pytest.raises(ValidationError, match="does not match"):
            sample_model_adjacency(sample, model, 1)

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

    def test_overflowing_difference_is_asymmetry(self):
        # 1e308 - (-1e308) overflows to inf, which is an asymmetry of
        # finite entries, not a non-finite entry.
        m = np.zeros((3, 3))
        m[0, 2], m[2, 0] = 1e308, -1e308
        with pytest.raises(ValidationError, match="^matrix is not symmetric$"):
            require_symmetric(m, "matrix")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_pair_is_non_finite(self, bad):
        # An inf on both sides of the diagonal differs by NaN, not by zero.
        m = np.eye(400)
        m[3, 350] = m[350, 3] = bad
        with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
            require_symmetric(m, "matrix")

    def test_no_n_by_n_float64_temporary(self, traced_peak):
        n = 3 * TILE + 17
        upper = np.triu(np.random.default_rng(4).random((n, n)) < 0.5, k=1)
        adjacency = (upper | upper.T).astype(float)
        for check in (require_symmetric, require_adjacency):
            # One n x n float64 temporary alone would reach the input's size.
            assert traced_peak(check, adjacency) < adjacency.nbytes, check.__name__

    def test_float_adjacency_checked_in_tiles(self, traced_peak):
        # The 0/1 test and the count of ones ride on the symmetry check's
        # tiles, so no n x n bool temporary (n^2 bytes, 12.5%) is made.
        n = 1200
        upper = np.triu(np.random.default_rng(5).random((n, n)) < 0.5, k=1)
        adjacency = (upper | upper.T).astype(float)
        checked, density = require_adjacency(adjacency)
        assert checked is adjacency
        assert density == np.count_nonzero(upper) / (n * (n - 1) / 2)
        assert traced_peak(require_adjacency, adjacency) < 0.05 * 8 * n * n
        # A stray within the symmetry bound, in an off-diagonal tile or in
        # its mirror, is not 0 or 1.
        for i, j in ((3, n - 5), (n - 5, 3)):
            stray = adjacency.copy()
            stray[i, j] += 1e-12
            with pytest.raises(ValidationError, match="^adjacency entries must be 0 or 1$"):
                require_adjacency(stray)

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
    def test_integer_adjacency_checked_in_place(self, traced_peak, dtype):
        # No copy and no n x n temporary: the tiles' equality masks are the
        # largest allocation, far below the input's own n^2 bytes.
        n = 3 * TILE + 17
        upper = np.triu(np.random.default_rng(4).random((n, n)) < 0.5, k=1)
        adjacency = (upper | upper.T).astype(dtype)
        checked, density = require_adjacency(adjacency)
        assert checked is adjacency
        assert density == np.count_nonzero(upper) / (n * (n - 1) / 2)
        assert traced_peak(require_adjacency, adjacency) < adjacency.nbytes / 4


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
