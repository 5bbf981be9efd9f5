import ctypes
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heic
from heic.errors import EigenSolverError, ValidationError
from heic import spectral
from heic.spectral import (
    ExtremePairs,
    _definite,
    _factor_slack,
    _symmetrized,
    extreme_pairs,
    reduce,
    tridiagonalize,
)
from oracles import delta2_bruteforce, delta2_numpy, diagonal_spectrum, eigh_spectrum, grid_values


class TestSymmetricEig:
    def test_identity(self):
        spec = heic.symmetric_eig(np.eye(5))
        np.testing.assert_allclose(spec.values, 1.0)

    def test_diagonal(self):
        spec = heic.symmetric_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(spec.values, [3.0, 1.0])
        # eigenvectors are the coordinate axes up to sign
        np.testing.assert_allclose(np.abs(spec.window_vectors(0, 2)), np.eye(2), atol=1e-12)

    def test_two_by_two(self):
        spec = heic.symmetric_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.values, [3.0, 1.0], atol=1e-12)

    def test_sorted_descending_reverses_eigh(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((9, 9))
        m = (m + m.T) / 2.0
        spec = heic.symmetric_eig(m)
        assert np.all(np.diff(spec.values) <= 0.0)
        np.testing.assert_array_equal(spec.values, np.linalg.eigvalsh(m)[::-1])
        v, reference = spec.window_vectors(2, 5), eigh_spectrum(m).window_vectors(2, 5)
        np.testing.assert_allclose(v @ v.T, reference @ reference.T, atol=1e-12)

    def test_invariants_on_random_matrix(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((30, 30))
        m = (m + m.T) / 2.0
        spec = heic.symmetric_eig(m)
        vectors = spec.window_vectors(0, 30)
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(30)).max() < 1e-8
        recon = vectors @ np.diag(spec.values) @ vectors.T
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
        with pytest.raises(ValidationError, match="non-finite"):
            heic.symmetric_eig(m)

    def test_symmetrized_halves_in_place(self, traced_peak):
        # Halving is exact, so s *= 0.5 gives (m + m.T) / 2 bit for bit, and
        # the sum is the only n x n array allocated.
        m = _symmetric(300, 21)
        m[4, 250] += 1e-9
        np.testing.assert_array_equal(_symmetrized(m), (m + m.T) / 2.0)
        assert traced_peak(_symmetrized, m) < 1.5 * m.nbytes

    def test_eigvals_from_min_n_are_eigvalsh_bitwise(self, count_calls):
        m = _symmetric(40, 9)
        assert count_calls(heic.symmetric_eig, m)["dsytrd"] == 1
        np.testing.assert_array_equal(heic.symmetric_eig(m).values, np.linalg.eigvalsh(m)[::-1])

    @pytest.mark.parametrize("min_n, solver", [(None, "tridiagonal"), (1, "two-stage")])
    def test_is_the_reduction(self, monkeypatch, count_calls, min_n, solver):
        # symmetric_eig is reduce of the symmetrized copy: the same route and
        # values bit for bit, from one reduction and no numpy eigensolver.
        if min_n is not None:
            monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", min_n)
        m = _symmetric(60, 14)
        spec = heic.symmetric_eig(m)
        assert spec.solver == solver
        np.testing.assert_array_equal(spec.values, reduce(_symmetrized(m)).values)
        counts = count_calls(heic.symmetric_eig, m)
        assert (counts["eigh"], counts["eigvalsh"], counts["dsytrd"] + counts["dsytrd_2stage"]) == (0, 0, 1)

    @pytest.mark.parametrize("min_n, solver", [(None, "tridiagonal"), (1, "two-stage")])
    @pytest.mark.parametrize("start, stop", [(1, 4), (20, 27), (57, 60)])
    def test_window_vectors_match_eigh(self, monkeypatch, min_n, solver, start, stop):
        if min_n is not None:
            monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", min_n)
        m = _symmetric(60, 15)
        spec = heic.symmetric_eig(m)
        assert spec.solver == solver
        v, reference = spec.window_vectors(start, stop), eigh_spectrum(m).window_vectors(start, stop)
        assert np.linalg.norm(v @ v.T - reference @ reference.T) <= 1e-8

    def test_from_values(self):
        # diagonal_spectrum, the test oracle for a spectrum with given values,
        # has the values symmetric_eig finds for diag(values).
        values = [0.1, 0.7, -0.3]
        spec = diagonal_spectrum(values)
        np.testing.assert_array_equal(spec.values, [0.7, 0.1, -0.3])
        np.testing.assert_array_equal(spec.values, heic.symmetric_eig(np.diag(values)).values)
        recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        np.testing.assert_allclose(recon, np.diag(values), atol=1e-15)


def _symmetric(n, seed):
    m = np.random.default_rng(seed).standard_normal((n, n))
    return (m + m.T) / 2.0


def test_library_needs_no_numpy_eigensolver(monkeypatch, tmp_path):
    # Every eigensolve in the library is a reduction (or ARPACK and its
    # proof): with numpy's eigh and eigvalsh made to raise when a heic
    # module calls them, symmetric_eig, heic() on each route, the dimension
    # scan, the three studies and the eig command all still run, and no
    # study replicate fails.  numpy's own callers, such as the Golub-Welsch
    # nodes of np.polynomial.legendre.leggauss in the quadrature, still
    # reach the real solvers.
    from heic import cli, estimator
    from heic.experiments import ExperimentConfig, RhoRule

    def refusing(real):
        def solver(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"].startswith("heic"):
                raise AssertionError("numpy eigensolver called by the library")
            return real(*args, **kwargs)

        return solver

    monkeypatch.setattr(np.linalg, "eigh", refusing(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", refusing(np.linalg.eigvalsh))
    heic.symmetric_eig(_symmetric(40, 2))
    latent_seed, adjacency_seed = heic.replicate_seeds(7, 300, 0)
    sample = heic.sample_uniform_sphere(300, 3, latent_seed)
    model = heic.GraphModel(link=heic.threshold(0.0), sparsity=1.0, n=300)
    adjacency = heic.sample_adjacency(heic.probability_matrix(sample, model), adjacency_seed)
    routes = [
        ("certified", []),
        ("tridiagonal", [(estimator, "CERTIFIED_MIN_DENSITY", np.inf)]),
        ("two-stage", [(estimator, "CERTIFIED_MIN_DENSITY", np.inf), (spectral, "TWO_STAGE_MIN_N", 1)]),
        ("tridiagonal", [(estimator, "CERTIFIED_MIN_DENSITY", np.inf), (spectral, "TWO_STAGE_MIN_N", 1),
                         (spectral, "_BAND_BOUND", 0.0)]),
    ]
    for solver, patches in routes:
        with pytest.MonkeyPatch.context() as mp:
            for target, name, value in patches:
                mp.setattr(target, name, value)
            assert heic.heic(adjacency, 3)[1].solver == solver
    heic.estimate_dimension(adjacency)
    cfg = ExperimentConfig(
        link=heic.affine(0.5, 0.5), d=3, rho=RhoRule("constant", 1.0), n_grid=(60,), replicates=1, seed=3
    )
    assert all(r.error is None for r in heic.run_mse_study(cfg))
    assert not any(heic.run_dimension_study(cfg).errors)
    for matrix in ("observed", "noiseless"):
        assert all(r.error is None for r in heic.run_spectrum_convergence(cfg, matrix=matrix))
    m_csv = tmp_path / "m.csv"
    m_csv.write_text("2,1\n1,2\n")
    assert cli.cli_main(["eig", "--input", str(m_csv), "--out", str(tmp_path / "eig.csv")]) == 0


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
        # scipy.linalg costs about 0.3 s and 27 MB of RSS, scipy.sparse.linalg
        # 0.5 s and 3.7 MB more; the solvers import them on first use, so
        # neither ``import heic`` nor the analytic spectrum, which is all a
        # set-up needs, loads any scipy module.  The two-stage reduction is
        # bound through scipy's LAPACK library on its first call, not before.
        code = (
            "import sys, heic\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "heic.analytic_spectrum(heic.threshold(0.0), 3, 20)\n"
            "print(loaded())\n"
        )
        assert _run_python(code).split() == ["[]", "[]"]


def _two_stage_case(kind, n, seed):
    """A symmetric matrix of order n: the zero matrix, K_n / n, A/n of a random graph, or Gaussian."""
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "complete":
        return (np.ones((n, n)) - np.eye(n)) / n
    if kind == "graph":
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < 0.3, k=1) / n
        return upper + upper.T
    return _symmetric(n, seed)


class TestTwoStage:
    # Both LAPACK reductions are backward stable: each computes the
    # eigenvalues of A + E with ||E||_2 a small multiple of n eps ||A||_F, so
    # by Weyl's theorem so does each sorted eigenvalue.  Against 40-digit
    # eigenvalues (mpmath), each solver's error was at most 1.3 n eps ||A||_F
    # on 3000 Gaussian matrices of order 2 to 11, where the multiple is
    # largest, so the two spectra differ entrywise by less than
    # 4 n eps ||A||_F.  The zero matrix must come out exactly zero.
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["zero", "complete", "graph", "gaussian"]),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**16),
    )
    @example(kind="zero", n=1, seed=0)
    @example(kind="zero", n=300, seed=0)
    @example(kind="complete", n=1, seed=0)
    @example(kind="complete", n=300, seed=0)
    @example(kind="graph", n=300, seed=0)
    def test_values_match_eigvalsh(self, kind, n, seed):
        m = _two_stage_case(kind, n, seed)
        expected = np.linalg.eigvalsh(m)[::-1]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "TWO_STAGE_MIN_N", 1)
            patch.setattr(spectral, "tridiagonalize", None)  # no fallback to dsytrd
            values = reduce(m.copy()).values
        bound = 4.0 * n * np.finfo(float).eps * np.linalg.norm(m)
        assert values.shape == (n,)
        assert np.all(np.diff(values) <= 0.0)
        assert np.abs(values - expected).max() <= bound

    @pytest.mark.parametrize("n", [1, 2, 17, 300])
    def test_takes_two_stage_from_min_n(self, count_calls, monkeypatch, n):
        m = _symmetric(n, n)
        monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", n)
        counts = count_calls(reduce, m.copy())
        assert (counts["dsytrd"], counts["dsytrd_2stage"]) == (0, 1)
        monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", n + 1)
        counts = count_calls(reduce, m.copy())
        assert (counts["dsytrd"], counts["dsytrd_2stage"]) == (1, 0)

    def test_missing_routine_falls_back_to_dsytrd(self, count_calls, monkeypatch, two_stage, partial_solve):
        # Where LAPACK lacks either stage or the block-size query, dsytrd
        # serves every caller: reduce gives tridiagonalize's Tridiagonal,
        # bit for bit, and heic() takes the tridiagonal route.
        library = ctypes.CDLL
        m = _symmetric(120, 4)
        upper = np.triu(np.random.default_rng(4).random((120, 120)) < 0.3, k=1)
        for missing in ("dsytrd_sy2sb", "dsytrd_sb2st", "ilaenv2stage"):

            class Without:
                def __init__(self, path):
                    self.library = library(path)

                def __getattr__(self, name):
                    if missing in name:
                        raise AttributeError(name)
                    return getattr(self.library, name)

            monkeypatch.setattr(ctypes, "CDLL", Without)
            spectral._two_stage_routines.cache_clear()
            try:
                assert spectral._two_stage_routines() is None
                counts = count_calls(reduce, m.copy())
                assert (counts["dsytrd"], counts["dsytrd_2stage"]) == (1, 0)
                reduced, expected = reduce(m.copy()), tridiagonalize(m.copy())
                assert isinstance(reduced, spectral.Tridiagonal)
                for field in dataclasses.fields(expected):
                    np.testing.assert_array_equal(getattr(reduced, field.name), getattr(expected, field.name))
                np.testing.assert_array_equal(reduced.values, np.linalg.eigvalsh(m)[::-1])
                counts = count_calls(heic.heic, upper | upper.T, 3)
                assert (counts["dsytrd"], counts["dsytrd_2stage"]) == (1, 0)
            finally:
                spectral._two_stage_routines.cache_clear()

    def test_eigvals_command_takes_two_stage(self, count_calls, two_stage):
        m = _symmetric(50, 2)
        assert count_calls(heic.symmetric_eig, m)["dsytrd_2stage"] == 1
        values = heic.symmetric_eig(m).values
        np.testing.assert_allclose(values, np.linalg.eigvalsh(m)[::-1], rtol=0, atol=1e-13)

    def test_rejects_an_array_lapack_cannot_overwrite(self, two_stage):
        m = _symmetric(10, 1)
        read_only = m.copy()
        read_only.flags.writeable = False
        for bad in (np.asfortranarray(m), m.astype(np.float32), m[::2, ::2], m[:, :5].copy(), read_only):
            for reduction in (spectral._dsytrd_2stage, reduce):
                with pytest.raises(ValueError, match="square, writeable C-contiguous float64"):
                    reduction(bad)

    @pytest.mark.parametrize("n", [1, 2, 33, 34, 300])
    def test_band_is_an_orthogonal_reduction(self, n):
        # B = Q^T A Q: B's eigenvalues are T's, and Q carries B's
        # eigenvectors to A's.  At n <= kd + 1 (kd = 32 here) B is A.
        m = _symmetric(n, n)
        reflectors = m.copy()
        diagonal, offdiagonal, band, tau = spectral._dsytrd_2stage(reflectors)
        kd = band.shape[0] - 1
        full = np.zeros((n, n))
        for k in range(kd + 1):
            full[np.arange(k, n), np.arange(n - k)] = band[k, : n - k]
        full += np.tril(full, -1).T
        expected = np.linalg.eigvalsh(m)[::-1]
        bound = 4.0 * n * np.finfo(float).eps * np.linalg.norm(m)
        assert np.abs(np.linalg.eigvalsh(full)[::-1] - expected).max() <= bound
        assert np.abs(spectral._tridiagonal_values(diagonal, offdiagonal) - expected).max() <= bound
        _, vectors = np.linalg.eigh(full)
        q_vectors = spectral._back_transform(reflectors.T, tau, kd, vectors)
        np.testing.assert_allclose(m @ q_vectors, q_vectors * np.linalg.eigvalsh(full), atol=1e-12)


def _run_python(code: str) -> str:
    """Standard output of code run by a fresh interpreter that imports heic from this tree."""
    src = str(Path(heic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


# Run in a fresh interpreter: the threads that exist right after numpy is
# imported are its OpenBLAS workers (scipy's LAPACK starts its own pool
# later).  Their CPU ticks are summed over the graph commands and one
# replicate of each study, with eigenvalue-only solves through both
# reductions and heic() through each of its routes; a worker that is never
# woken stays asleep and gains none.
# The pause at the end outlasts a woken worker's spin.
_NUMPY_POOL_TICKS = """
import os, sys, time
import numpy as np

main = str(os.getpid())
workers = [t for t in os.listdir("/proc/self/task") if t != main]
if not workers:
    print("none")
    sys.exit()


def ticks():
    total = 0
    for tid in workers:
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total


import heic
from heic.experiments import ExperimentConfig

graph = heic.model.sample_model_adjacency(
    heic.sample_uniform_sphere(1200, 3, 1), heic.GraphModel(heic.threshold(0.0), 1.0, 1200), 2
)
config = lambda link, **kw: ExperimentConfig.from_dict(
    {"link": link, "d": 3, "seed": 5, "replicates": 1, "n_grid": [400], "k_max": 300, **kw}
)
time.sleep(0.3)  # past any spin of the workers' start-up
before = ticks()
heic.estimate_dimension(graph)
assert heic.heic(graph, 3)[1].solver == "certified"
heic.run_mse_study(config("threshold:0"))
heic.run_dimension_study(config("affine:0.5,0.5"))
for matrix in ("observed", "noiseless"):
    heic.run_spectrum_convergence(config("affine:0.5,0.5"), matrix=matrix)
heic.spectral.TWO_STAGE_MIN_N = 1  # again through LAPACK's two-stage reduction
heic.estimate_dimension(graph)
heic.estimator.CERTIFIED_MIN_DENSITY = float("inf")  # and heic()'s route through it
assert heic.heic(graph, 3)[1].solver == "two-stage"
heic.run_dimension_study(config("affine:0.5,0.5"))
heic.run_spectrum_convergence(config("affine:0.5,0.5"))
time.sleep(0.3)
print(ticks() - before)
"""


class TestOneThreadPool:
    def test_numpy_pool_stays_idle(self):
        # Every threaded BLAS or LAPACK call of the graph commands and the
        # studies runs on scipy's pool, so numpy's workers never wake.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc to read thread times from")
        ticks = _run_python(_NUMPY_POOL_TICKS).strip()
        if ticks == "none":
            pytest.skip("numpy's BLAS started no worker thread")
        assert int(ticks) == 0


def _separated_ends(n, seed):
    """A symmetric matrix with eigenvalues 5 .. 1 and -1 .. -5 outside a bulk in [-0.5, 0.5]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ends = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    values = np.concatenate([ends, rng.uniform(-0.5, 0.5, n - 10), -ends])
    m = (q * values) @ q.T
    return (m + m.T) / 2.0


class TestExtremePairs:
    @pytest.mark.parametrize("seed", range(3))
    def test_inertia_count_matches_eigvalsh(self, seed):
        # The name predates the Cholesky proof.  Deflating the eigenpairs
        # beyond a shift s leaves s I - A + U U^T (top) or A - s I + U U^T
        # (bottom) positive definite, and one pair fewer does not: the
        # factorization agrees with eigvalsh of the matrix it factors.
        m = _symmetric(150, seed)
        values, vectors = np.linalg.eigh(m)
        values, vectors = values[::-1], vectors[:, ::-1]
        for s in (0.5 * (values[5] + values[6]), 0.0, 0.5 * (values[-4] + values[-3])):
            above = np.count_nonzero(values > s)
            for sign, count in ((-1.0, above), (1.0, 150 - above)):
                for deflated in (count - 1, count):
                    rows = slice(0, deflated) if sign < 0 else slice(150 - deflated, 150)
                    u = vectors[:, rows] * np.sqrt(2.0 * sign * (s - values[rows]))
                    b = sign * (m - s * np.eye(150)) + u @ u.T
                    proved = _definite(m.copy(), s, sign, values[rows], vectors[:, rows])
                    assert proved == (deflated == count) == (np.linalg.eigvalsh(b)[0] > 0)

    def test_claim_holds_and_is_confirmed(self):
        m = _separated_ends(200, 4)
        values = np.linalg.eigvalsh(m)[::-1]
        work = m.copy()
        pairs = extreme_pairs(work, 9)
        assert np.array_equal(work, m)  # extreme_pairs only reads
        t, b = pairs.top.size, pairs.bottom.size
        assert pairs.slack < 1e-10
        np.testing.assert_allclose(pairs.top, values[:t], rtol=0.0, atol=pairs.slack)
        np.testing.assert_allclose(pairs.bottom, values[200 - b :], rtol=0.0, atol=pairs.slack)
        assert np.count_nonzero(values > pairs.upper) == t
        assert np.count_nonzero(values < pairs.lower) == b
        v = pairs.window_vectors(1, 3)
        np.testing.assert_allclose(m @ v, v * values[1:3], atol=1e-10)
        assert pairs.confirm(work)

    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
    def test_definite_uses_one_triangle(self, upper):
        # Each proof reads the diagonal and one triangle of work and writes
        # nothing in the other, which confirm() proves the bottom end on.
        m = _separated_ends(120, 6)
        values, vectors = np.linalg.eigh(m)
        values, vectors = values[::-1], vectors[:, ::-1]
        s = 0.5 * (values[4] + values[5])
        other = np.tril_indices(120, -1) if upper else np.triu_indices(120, 1)
        for deflated in (4, 5):
            work = m.copy()
            work[other] = np.nan
            proved = _definite(work, s, -1.0, values[:deflated], vectors[:, :deflated], upper=upper)
            assert proved == (deflated == 5)
            assert np.isnan(work[other]).all()

    def test_false_claim_is_refused_and_work_rebuilt(self):
        # One top value fewer than the shift has above it: the first count
        # disagrees.  heic() writes A back into work after a refusal
        # (test_estimator.py, test_writes_a_over_n_back_only_after_an_overwrite).
        m = _separated_ends(200, 5)
        work = m.copy()
        pairs = extreme_pairs(work, 9)
        short = dataclasses.replace(pairs, top=pairs.top[:-1], top_vectors=pairs.top_vectors[:, :-1])
        assert not short.confirm(work)

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        n=st.integers(16, 60),
        seed=st.integers(0, 2**32 - 1),
        planted=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        dropped=st.tuples(st.sampled_from([0, 0, 1, 3]), st.sampled_from([0, 0, 1, 3])),
        noise=st.sampled_from([0.0, 1e-9, 1e-3, 0.3]),
        shifts=st.tuples(st.floats(-0.7, 0.95), st.floats(-0.95, 0.7)),
        in_gaps=st.booleans(),
    )
    def test_confirm_never_proves_a_false_claim(self, n, seed, planted, dropped, noise, shifts, in_gaps):
        # p eigenvalues planted in [1, 2] and q in [-2, -1] around a bulk in
        # [-0.5, 0.5].  The claim keeps t of the top pairs and b of the
        # bottom ones, their vectors perturbed by noise; a proof may succeed
        # only when A has at most t eigenvalues above upper and at most b
        # below lower.
        rng = np.random.default_rng(seed)
        (p, q), (drop_top, drop_bottom) = planted, dropped
        q_basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ends = (rng.uniform(1.0, 2.0, p), rng.uniform(-2.0, -1.0, q))
        values = np.concatenate([ends[0], rng.uniform(-0.5, 0.5, n - p - q), ends[1]])
        a = (q_basis * values) @ q_basis.T
        a = (a + a.T) / 2.0
        exact, basis = np.linalg.eigh(a)
        s_hi, s_lo = (0.75, -0.75) if in_gaps else shifts

        def claimed(rows):
            v = basis[:, rows] + noise * rng.standard_normal((n, len(rows)))
            return exact[rows][::-1], (v / np.linalg.norm(v, axis=0))[:, ::-1]

        t, b = max(1, p - drop_top), max(1, q - drop_bottom)
        top, top_vectors = claimed(np.sort(rng.choice(np.arange(n - p, n), t, replace=False)))
        bottom, bottom_vectors = claimed(np.sort(rng.choice(np.arange(q), b, replace=False)))
        eta = _factor_slack(a, float(np.abs(exact).max()), t + b)
        pairs = ExtremePairs(
            top=top,
            bottom=bottom,
            top_vectors=top_vectors,
            bottom_vectors=bottom_vectors,
            upper=s_hi + eta,
            lower=s_lo - eta,
            slack=0.0,
            shifts=(s_hi, s_lo),
        )
        work = a.copy()
        proved = pairs.confirm(work)
        if proved:
            assert np.count_nonzero(exact > pairs.upper) <= t
            assert np.count_nonzero(exact < pairs.lower) <= b
        if in_gaps and noise <= 1e-9 and (t, b) == (p, q):
            assert proved

    def test_declines_small_or_over_budget(self, monkeypatch):
        assert extreme_pairs(_separated_ends(99, 6), 9) is None  # 25 basis vectors > 99 / 4
        monkeypatch.setattr(spectral, "_matvec_budget", lambda n: 10)
        assert extreme_pairs(_separated_ends(200, 6), 9) is None


class TestRouteInterface:
    # heic() reads the same four things of whichever route it holds.
    @pytest.mark.parametrize("route", ["tridiagonal", "two-stage", "certified"])
    def test_values_slack_and_window_vectors(self, monkeypatch, route):
        n, d = 300, 3
        latent_seed, adjacency_seed = heic.replicate_seeds(4, n, 0)
        sample = heic.sample_uniform_sphere(n, d, latent_seed)
        model = heic.GraphModel(link=heic.threshold(0.0), sparsity=1.0, n=n)
        work = heic.sample_adjacency(heic.probability_matrix(sample, model), adjacency_seed) / n
        expected = np.linalg.eigvalsh(work)[::-1]
        if route == "certified":
            solved = extreme_pairs(work, 2 * d + 5)
            assert solved.confirm(work.copy())
            middle = np.arange(solved.top.size, n - solved.bottom.size)
        else:
            monkeypatch.setattr(spectral, "TWO_STAGE_MIN_N", 1)
            solved = tridiagonalize(work.copy()) if route == "tridiagonal" else reduce(work.copy())
            middle = np.arange(0)
        assert solved.solver == route
        values = solved.values
        known = ~np.isnan(values)
        assert values.shape == (n,)
        np.testing.assert_array_equal(np.flatnonzero(~known), middle)
        assert np.all(np.diff(values[known]) <= 0.0)
        assert solved.slack >= 0.0
        # The top eigenvalue comes first, and every known value is within slack.
        assert np.abs(values[known] - expected[known]).max() <= solved.slack + 1e-15
        # The degree-1 cluster is the bottom window, which every route knows.
        vectors = solved.window_vectors(n - d, n)
        assert vectors.shape == (n, d)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(d), atol=1e-10)
        ritz = vectors.T @ work @ vectors
        assert np.linalg.norm(work @ vectors - vectors @ ritz) <= 1e-8


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

    @settings(max_examples=30, deadline=None, database=None)
    @given(
        sizes=st.tuples(st.integers(0, 50_000), st.integers(0, 50_000)),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_numpys_norm_bitwise(self, sizes, scale, seed):
        # scipy's ddot gives numpy's norm, also on the ~92,000 padded
        # entries of a k_max=300 convergence study, where both BLAS
        # libraries split the sum across threads.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(sizes[0]) * scale
        b = rng.standard_normal(sizes[1])
        assert heic.delta_2(a, b) == delta2_numpy(a, b)

    @pytest.mark.parametrize(
        "a,b",
        [
            ([np.nan], [0.5]),
            ([0.5, -0.25], [0.1, np.nan]),
            ([np.nan, 1.0], [-np.nan, 0.0]),
            ([np.nan], []),
            ([], [0.0, np.nan, -0.0]),
        ],
    )
    def test_nan_in_either_argument_gives_nan(self, a, b):
        assert np.isnan(heic.delta_2(a, b)) and np.isnan(delta2_numpy(a, b))

    @pytest.mark.parametrize(
        "a,b",
        [
            ([], []),
            ([0.0], []),
            ([], [-0.0, -0.0]),
            ([0.0, 0.0], [0.0, 0.0, 0.0]),
            ([-0.0], [0.0]),
            ([0.0, -0.0], [-0.0, 0.0]),
            ([-0.0, 0.0, 0.3], [0.0, -0.0, -0.2]),
            ([0.0, -0.5, -0.0], [-0.0, 0.25]),
        ],
    )
    def test_zeros_and_empty_inputs_bitwise(self, a, b):
        got = heic.delta_2(a, b)
        assert np.float64(got).tobytes() == np.float64(delta2_numpy(a, b)).tobytes()
        if not any(a) and not any(b):
            assert np.float64(got).tobytes() == np.float64(0.0).tobytes()
