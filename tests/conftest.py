"""Shared fixtures: the heavy Monte-Carlo simulations are run once per session."""

from __future__ import annotations

import math
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.linalg import lapack, orthogonal_procrustes

import heic
from heic.experiments import ExperimentConfig, RhoRule


@dataclass(frozen=True)
class SimSummary:
    """Scalars extracted from one simulated estimation run (matrices dropped)."""

    fro_err: float
    position_err: float
    cluster_mean: float
    top_eigenvalue: float
    gap: float
    diameter: float
    cluster_start: int
    event_ok: bool
    edge_density: float
    solver: str
    n: int


def _simulate_summaries(link, d, n, rho, seeds, analytic_gap) -> list[SimSummary]:
    out = []
    for base in seeds:
        latent_seed, adjacency_seed = heic.replicate_seeds(base, n, 0)
        sample = heic.sample_uniform_sphere(n, d, latent_seed)
        theta = heic.probability_matrix(sample, heic.GraphModel(link=link, sparsity=rho, n=n))
        adjacency = heic.sample_adjacency(theta, adjacency_seed)
        estimate, diag = heic.heic(adjacency, d, rho=rho, analytic_gap=analytic_gap)
        # sqrt(n/d) V estimates the latent positions X up to an orthogonal transform.
        positions = math.sqrt(n / d) * estimate.vectors
        rotation, _ = orthogonal_procrustes(positions, sample.points)
        out.append(
            SimSummary(
                fro_err=float(np.linalg.norm(estimate.matrix - heic.gram_population(sample))),
                position_err=float(
                    np.linalg.norm(positions @ rotation - sample.points) / np.linalg.norm(sample.points)
                ),
                cluster_mean=float(estimate.cluster.values.mean()),
                top_eigenvalue=diag.top_eigenvalue,
                gap=diag.gap,
                diameter=diag.diameter,
                cluster_start=diag.cluster_start,
                event_ok=diag.event_e.ok,
                edge_density=diag.edge_density,
                solver=diag.solver,
                n=n,
            )
        )
    return out


@pytest.fixture
def count_calls(monkeypatch):
    """Run one call; return its adjacency validation passes, eigh / eigvalsh calls,
    tridiagonal reductions (LAPACK dsytrd), ARPACK runs (scipy eigsh) and
    Cholesky factorizations (LAPACK dpotrf, one per end the certified route
    proves).

    A validation pass is a call of model.require_adjacency, whatever the
    adjacency's dtype: a uint8 or bool one never reaches require_symmetric.
    """
    counts = dict.fromkeys(("validate", "eigh", "eigvalsh", "dsytrd", "arpack", "dpotrf"), 0)

    def counting(key, real):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        return wrapper

    validate = counting("validate", heic.model.require_adjacency)
    for name, module in list(sys.modules.items()):
        if name.startswith("heic.") and hasattr(module, "require_adjacency"):
            monkeypatch.setattr(module, "require_adjacency", validate)
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(lapack, "dsytrd", counting("dsytrd", lapack.dsytrd))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting("arpack", scipy.sparse.linalg.eigsh))
    monkeypatch.setattr(lapack, "dpotrf", counting("dpotrf", lapack.dpotrf))

    def run(fn, *args, **kwargs):
        counts.update(dict.fromkeys(counts, 0))
        fn(*args, **kwargs)
        return dict(counts)

    return run


@pytest.fixture
def traced_peak():
    """Run one call; return the peak memory traced during it, in bytes.

    numpy reports its array buffers to tracemalloc, so an n x n float64
    temporary shows as 8 n^2 bytes; LAPACK's own workspace does not show.
    Import what the call imports before tracing it.
    """

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


@pytest.fixture
def partial_solve(monkeypatch):
    """heic() takes the partial tridiagonal solve at every density: never
    the certified route."""
    monkeypatch.setattr(heic.estimator, "CERTIFIED_MIN_DENSITY", math.inf)


@pytest.fixture
def certified_solve(monkeypatch):
    """heic() tries the certified route at every density, and falls back to
    the tridiagonal solve when it fails."""
    monkeypatch.setattr(heic.estimator, "CERTIFIED_MIN_DENSITY", 0.0)


THRESHOLD_GAP_K3 = 0.25  # separation of the level-1 eigenvalue in the k<=3 spectrum


@pytest.fixture(scope="session")
def threshold_link():
    return heic.threshold(0.0)


@pytest.fixture(scope="session")
def affine_link():
    return heic.affine(0.5, 0.5)


@pytest.fixture(scope="session")
def sims_threshold_1500(threshold_link):
    """20 seeded runs at n=1500, d=3, rho=1 with the hard-threshold link."""
    return _simulate_summaries(
        threshold_link, d=3, n=1500, rho=1.0, seeds=range(20), analytic_gap=THRESHOLD_GAP_K3
    )


@pytest.fixture(scope="session")
def sims_threshold_2000(threshold_link):
    """20 seeded runs at n=2000 for the cluster-quality check."""
    return _simulate_summaries(
        threshold_link, d=3, n=2000, rho=1.0, seeds=range(100, 120), analytic_gap=THRESHOLD_GAP_K3
    )


@pytest.fixture(scope="session")
def sims_threshold_1000(threshold_link):
    """20 seeded runs at n=1000 for the top-eigenvalue exclusion property."""
    return _simulate_summaries(
        threshold_link, d=3, n=1000, rho=1.0, seeds=range(200, 220), analytic_gap=THRESHOLD_GAP_K3
    )


@pytest.fixture(scope="session")
def mse_study_records(threshold_link):
    """The headline error study: n in {200, 500, 1000, 2000}, 20 replicates."""
    cfg = ExperimentConfig(
        link=threshold_link,
        d=3,
        rho=RhoRule("constant", 1.0),
        n_grid=(200, 500, 1000, 2000),
        replicates=20,
        seed=20240901,
    )
    return heic.run_mse_study(cfg)


@pytest.fixture(scope="session")
def dimension_study_result(threshold_link):
    """Dimension recovery: n=1000, d_max=15, 50 replicates."""
    cfg = ExperimentConfig(
        link=threshold_link,
        d=3,
        rho=RhoRule("constant", 1.0),
        n_grid=(1000,),
        replicates=50,
        seed=777,
        d_max=15,
    )
    return heic.run_dimension_study(cfg)


def _convergence_medians(link, matrix, k_max=300, seed=2024):
    cfg = ExperimentConfig(
        link=link,
        d=3,
        rho=RhoRule("constant", 1.0),
        n_grid=(200, 500, 1000, 2000),
        replicates=10,
        seed=seed,
        k_max=k_max,
    )
    records = heic.run_spectrum_convergence(cfg, matrix=matrix)
    return {
        n: float(np.median([r.delta2 for r in records if r.n == n])) for n in cfg.n_grid
    }, records


@pytest.fixture(scope="session")
def convergence_threshold(threshold_link):
    """Median matching distance per n for the threshold link (both modes agree)."""
    return _convergence_medians(threshold_link, "observed")


@pytest.fixture(scope="session")
def convergence_affine_noiseless(affine_link):
    return _convergence_medians(affine_link, "noiseless")


@pytest.fixture(scope="session")
def convergence_affine_observed(affine_link):
    return _convergence_medians(affine_link, "observed")
