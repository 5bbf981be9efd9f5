import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import heic
from heic.errors import EigenSolverError, ValidationError
from heic.spectral import symmetric_eigvals, tridiagonalize
from oracles import delta2_bruteforce, grid_values


class TestSymmetricEig:
    def test_identity(self):
        spec = heic.symmetric_eig(np.eye(5))
        np.testing.assert_allclose(spec.values, 1.0)

    def test_diagonal(self):
        spec = heic.symmetric_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(spec.values, [3.0, 1.0])
        # eigenvectors are the coordinate axes up to sign
        np.testing.assert_allclose(np.abs(spec.vectors), np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        spec = heic.symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.values, [3.0, 1.0], atol=1e-12)

    def test_sorted_descending_reverses_eigh(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((9, 9))
        m = (m + m.T) / 2.0
        spec = heic.symmetric_eig(m)
        assert np.all(np.diff(spec.values) <= 0.0)
        raw_values, raw_vectors = np.linalg.eigh(m)
        np.testing.assert_array_equal(spec.values, raw_values[::-1])
        np.testing.assert_array_equal(spec.vectors, raw_vectors[:, ::-1])
        np.testing.assert_array_equal(symmetric_eigvals(m).values, np.linalg.eigvalsh(m)[::-1])
        assert symmetric_eigvals(m).vectors is None

    def test_invariants_on_random_matrix(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((30, 30))
        m = (m + m.T) / 2.0
        spec = heic.symmetric_eig(m)
        gram = spec.vectors.T @ spec.vectors
        assert np.abs(gram - np.eye(30)).max() < 1e-8
        recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        assert np.linalg.norm(recon - m) <= 1e-7 * np.linalg.norm(m)

    def test_trace_and_frobenius_identities(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((25, 25))
        m = (m + m.T) / 2.0
        spec = heic.symmetric_eig(m)
        n = m.shape[0]
        assert abs(spec.values.sum() - np.trace(m)) <= 1e-8 * n
        assert abs((spec.values**2).sum() - (m * m).sum()) <= 1e-8 * n

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            heic.symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4)
        m[1, 2] = m[2, 1] = bad
        for solve in (heic.symmetric_eig, symmetric_eigvals):
            with pytest.raises(ValidationError, match="non-finite"):
                solve(m)

    def test_from_values(self):
        spec = heic.SortedSpectrum.from_values([0.1, 0.7, -0.3])
        np.testing.assert_array_equal(spec.values, [0.7, 0.1, -0.3])
        recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        np.testing.assert_allclose(recon, np.diag([0.1, 0.7, -0.3]), atol=1e-15)


def _symmetric(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return (m + m.T) / 2.0


class TestTridiagonalize:
    @pytest.mark.parametrize("n", [1, 2, 17, 64, 300])
    def test_values_match_eigvalsh_bitwise(self, n):
        upper = np.triu(np.random.default_rng(n).random((n, n)) < 0.3, k=1) / n
        for m in (upper + upper.T, _symmetric(n, n)):
            expected = np.linalg.eigvalsh(m)[::-1]
            np.testing.assert_array_equal(tridiagonalize(m.copy()).values, expected)

    def test_reduces_in_place(self):
        m = _symmetric(50, 3)
        assert np.shares_memory(tridiagonalize(m).reflectors, m)

    @pytest.mark.parametrize("start, stop", [(0, 1), (1, 4), (20, 27), (37, 40)])
    def test_window_vectors_match_eigh(self, start, stop):
        m = _symmetric(40, 5)
        v = tridiagonalize(m.copy()).window_vectors(start, stop)
        values, vectors = np.linalg.eigh(m)
        reference = vectors[:, ::-1][:, start:stop]
        assert v.shape == (40, stop - start)
        np.testing.assert_allclose(v @ v.T, reference @ reference.T, atol=1e-12)
        np.testing.assert_allclose(m @ v, v * values[::-1][start:stop], atol=1e-12)

    @pytest.mark.parametrize("edges", [0.0, 1.0], ids=["empty", "complete"])
    @pytest.mark.parametrize("start", [1, 197])
    def test_tied_window_vectors_orthonormal(self, edges, start):
        n = 200
        m = (np.full((n, n), edges) - edges * np.eye(n)) / n
        tri = tridiagonalize(m.copy())
        v = tri.window_vectors(start, start + 3)
        assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-12
        assert np.abs(m @ v - v * tri.values[start : start + 3]).max() <= 1e-12

    @pytest.mark.parametrize("solver", ["eigvalsh_tridiagonal", "eigh_tridiagonal"])
    def test_solver_failure_is_eigen_solver_error(self, monkeypatch, partial_solve, solver):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(scipy.linalg, solver, no_convergence)
        with pytest.raises(EigenSolverError, match="failed to converge"):
            heic.heic(np.ones((12, 12)) - np.eye(12), 3)

    def test_import_heic_leaves_scipy_unloaded(self):
        # scipy's import alone costs about 0.3 s; the solver imports it on first use.
        src = str(Path(heic.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, heic; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestNormalizeAdjacency:
    def test_complete_graph(self):
        adj = np.ones((4, 4)) - np.eye(4)
        t = heic.normalize_adjacency(adj)
        assert t[0, 1] == 0.25
        assert t[0, 0] == 0.0

    def test_zero_matrix(self):
        assert not heic.normalize_adjacency(np.zeros((3, 3))).any()

    def test_eigenvalues_scale_linearly(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        m = (m + m.T) / 2.0
        scaled = heic.symmetric_eig(heic.normalize_adjacency(m)).values
        raw = heic.symmetric_eig(m).values
        np.testing.assert_allclose(scaled, raw / 8.0, rtol=1e-12, atol=1e-15)


class TestDelta2:
    def test_identical_sequences(self):
        assert heic.delta_2([0.4, -0.1, 0.2], [0.4, -0.1, 0.2]) == 0.0

    def test_single_against_empty(self):
        assert heic.delta_2([1.0], []) == 1.0

    def test_mixed_signs_with_padding(self):
        assert heic.delta_2([0.5, -0.25], [0.5]) == pytest.approx(0.25)
        # both entries must match padding zeros, not each other
        assert heic.delta_2([1.0], [-1.0]) == pytest.approx(np.sqrt(2.0))

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(120):
            a = rng.uniform(-1.0, 1.0, size=rng.integers(0, 5))
            b = rng.uniform(-1.0, 1.0, size=rng.integers(0, 5))
            assert heic.delta_2(a, b) == pytest.approx(delta2_bruteforce(a, b), abs=1e-12)

    @settings(max_examples=300, deadline=None, database=None)
    @given(a=st.lists(grid_values(), max_size=4), b=st.lists(grid_values(), max_size=4))
    def test_matches_bruteforce_on_grid(self, a, b):
        # ties, zeros and empty sequences all occur on the grid
        assert heic.delta_2(a, b) == pytest.approx(delta2_bruteforce(a, b), abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            seqs = [rng.uniform(-1.0, 1.0, size=rng.integers(0, 6)) for _ in range(3)]
            a, b, c = seqs
            assert heic.delta_2(a, b) == pytest.approx(heic.delta_2(b, a), abs=1e-12)
            assert heic.delta_2(a, c) <= heic.delta_2(a, b) + heic.delta_2(b, c) + 1e-12
