import dataclasses
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
from heic import spectral
from heic.spectral import (
    ExtremePairs,
    _definite,
    _factor_slack,
    _symmetrized,
    extreme_pairs,
    symmetric_eigvals,
    tridiagonalize,
)
from oracles import delta2_bruteforce, delta2_numpy, diagonal_spectrum, grid_values


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
        np.testing.assert_array_equal(symmetric_eigvals(m), np.linalg.eigvalsh(m)[::-1])

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

    def test_symmetrized_halves_in_place(self, traced_peak):
        # Halving is exact, so s *= 0.5 gives (m + m.T) / 2 bit for bit, and
        # the sum is the only n x n array allocated.
        m = _symmetric(300, 21)
        m[4, 250] += 1e-9
        np.testing.assert_array_equal(_symmetrized(m), (m + m.T) / 2.0)
        assert traced_peak(_symmetrized, m) < 1.5 * m.nbytes

    def test_eigvals_from_min_n_are_eigvalsh_bitwise(self, count_calls):
        m = _symmetric(40, 9)
        assert count_calls(symmetric_eigvals, m)["dsytrd"] == 1
        np.testing.assert_array_equal(symmetric_eigvals(m), np.linalg.eigvalsh(m)[::-1])

    def test_from_values(self):
        # diagonal_spectrum, the test oracle for a spectrum with given values,
        # is the decomposition symmetric_eig makes of diag(values).
        values = [0.1, 0.7, -0.3]
        spec = diagonal_spectrum(values)
        np.testing.assert_array_equal(spec.values, [0.7, 0.1, -0.3])
        np.testing.assert_array_equal(spec.values, heic.symmetric_eig(np.diag(values)).values)
        recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        np.testing.assert_allclose(recon, np.diag(values), atol=1e-15)


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
        # scipy.linalg costs about 0.3 s and 27 MB of RSS, scipy.sparse.linalg
        # 0.5 s and 3.7 MB more; the solvers import them on first use, so
        # neither ``import heic`` nor the analytic spectrum, which is all a
        # set-up needs, loads any scipy module.
        code = (
            "import sys, heic\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "heic.analytic_spectrum(heic.threshold(0.0), 3, 20)\n"
            "print(loaded())\n"
        )
        assert _run_python(code).split() == ["[]", "[]"]


def _run_python(code: str) -> str:
    """Standard output of code run by a fresh interpreter that imports heic from this tree."""
    src = str(Path(heic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


# Run in a fresh interpreter: the threads that exist right after numpy is
# imported are its OpenBLAS workers (scipy's LAPACK starts its own pool
# later).  Their CPU ticks are summed over the graph commands and one
# replicate of each study; a worker that is never woken stays asleep and
# gains none.  The pause at the end outlasts a woken worker's spin.
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
        assert pairs.confirm(work, lambda: np.copyto(work, m))

    def test_false_claim_is_refused_and_work_rebuilt(self):
        # One top value fewer than the shift has above it: the first count disagrees.
        m = _separated_ends(200, 5)
        work = m.copy()
        pairs = extreme_pairs(work, 9)
        short = dataclasses.replace(pairs, top=pairs.top[:-1], top_vectors=pairs.top_vectors[:, :-1])
        assert not short.confirm(work, lambda: np.copyto(work, m))
        assert np.array_equal(work, m)

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
        # below lower, and a refusal leaves A in work.
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
        proved = pairs.confirm(work, lambda: np.copyto(work, a))
        if proved:
            assert np.count_nonzero(exact > pairs.upper) <= t
            assert np.count_nonzero(exact < pairs.lower) <= b
        else:
            assert np.array_equal(work, a)
        if in_gaps and noise <= 1e-9 and (t, b) == (p, q):
            assert proved

    def test_declines_small_or_over_budget(self, monkeypatch):
        assert extreme_pairs(_separated_ends(99, 6), 9) is None  # 25 basis vectors > 99 / 4
        monkeypatch.setattr(spectral, "_matvec_budget", lambda n: 10)
        assert extreme_pairs(_separated_ends(200, 6), 9) is None


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
