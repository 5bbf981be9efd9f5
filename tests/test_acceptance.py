"""Acceptance gates, one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
complete.  The heavy simulation studies live in session fixtures
(conftest.py) and are shared with the unit suite.
"""

import json
import time

import numpy as np
import pytest

import heic
from heic import cli
from heic.spectral import SortedSpectrum
from oracles import cluster_scan_bruteforce, delta2_bruteforce

GRID = (200, 500, 1000, 2000)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_analytic_spectrum_exactness():
    start = time.perf_counter()
    thresh = heic.analytic_spectrum(heic.threshold(0.0), 3, 3).eigenvalues()
    affine = heic.analytic_spectrum(heic.affine(0.5, 0.5), 3, 6).eigenvalues()
    elapsed = time.perf_counter() - start
    err_t = np.abs(thresh - np.array([0.5, -0.25, 0.0, 0.0625])).max()
    want_a = np.array([0.5, 1.0 / 6.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    err_a = np.abs(affine - want_a).max()
    ok = err_t < 1e-8 and err_a < 1e-10 and elapsed < 1.0
    _report(1, ok, f"threshold err {err_t:.2e}, affine err {err_a:.2e}, {elapsed:.2f}s")


def test_criterion_2_addition_identity():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2)
    for d in (3, 4, 5):
        gamma = (d - 2) / 2.0
        c1 = float(heic.addition_constant(d, 1))
        for _ in range(200):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(d)
            y /= np.linalg.norm(y)
            t = float(np.clip(x @ y, -1.0, 1.0))
            lhs = float(np.sum(d * x * y))
            worst = max(
                worst,
                abs(lhs - d * t),
                abs(lhs - c1 * heic.gegenbauer(1, gamma, t)),
            )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    _report(2, ok, f"max residual {worst:.2e} over 600 pairs, {elapsed:.2f}s")


def test_criterion_3_cluster_on_exact_spectrum():
    flat = np.repeat([0.5, -0.25, 0.0, 0.0625], [1, 3, 5, 7])
    cluster = heic.find_cluster(SortedSpectrum.from_values(flat), 3)
    values = SortedSpectrum.from_values(flat).values[list(cluster.indices)]
    ok = bool(np.all(values == -0.25)) and cluster.gap == 0.25
    _report(3, ok, f"selected values {values.tolist()}, gap {cluster.gap!r}")


def test_criterion_4_bruteforce_equivalence():
    rng = np.random.default_rng(4)
    window_ok = True
    for _ in range(500):
        n = int(rng.integers(5, 13))
        values = np.sort(rng.uniform(-1.0, 1.0, size=n))[::-1]
        d = int(rng.integers(1, n - 2))
        cluster = heic.find_cluster(SortedSpectrum.from_values(values), d)
        if (cluster.start, cluster.gap) != cluster_scan_bruteforce(values, d):
            window_ok = False
            break
    delta_ok = True
    worst = 0.0
    for _ in range(500):
        a = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 7)))
        b = rng.uniform(-1.0, 1.0, size=int(rng.integers(0, 7)))
        diff = abs(heic.delta_2(a, b) - delta2_bruteforce(a, b))
        worst = max(worst, diff)
        if diff > 1e-12:
            delta_ok = False
            break
    _report(4, window_ok and delta_ok, f"500 window searches exact, matching residual {worst:.1e}")


def test_criterion_5_simulated_cluster_location(sims_threshold_1500):
    cluster_hits = sum(abs(s.cluster_mean + 0.25) <= 0.05 for s in sims_threshold_1500)
    top_hits = sum(abs(s.top_eigenvalue - 0.5) <= 0.05 for s in sims_threshold_1500)
    ok = cluster_hits >= 18 and top_hits >= 18
    _report(5, ok, f"cluster mean hits {cluster_hits}/20, top eigenvalue hits {top_hits}/20")


def test_criterion_6_mse_decay(mse_study_records):
    medians = {
        n: float(np.median([r.mse for r in mse_study_records if r.n == n])) for n in GRID
    }
    decreasing = all(medians[a] > medians[b] for a, b in zip(GRID, GRID[1:]))
    gate = medians[1000] <= 0.01
    ok = decreasing and gate
    detail = ", ".join(f"n={n}: {medians[n]:.2e}" for n in GRID)
    _report(6, ok, f"median entrywise error {detail}")


def test_criterion_7_dimension_recovery(dimension_study_result):
    rate = dimension_study_result.recovery_rate
    ok = rate >= 0.90
    _report(7, ok, f"recovered d=3 in {rate:.0%} of 50 replicates")


def test_criterion_8_spectrum_convergence(
    convergence_threshold, convergence_affine_noiseless, convergence_affine_observed
):
    med_thresh, _ = convergence_threshold
    med_aff, _ = convergence_affine_noiseless
    med_aff_obs, _ = convergence_affine_observed
    mono_thresh = all(med_thresh[a] > med_thresh[b] for a, b in zip(GRID, GRID[1:]))
    mono_aff = all(med_aff[a] > med_aff[b] for a, b in zip(GRID, GRID[1:]))
    gate_aff = med_aff[2000] <= 0.15
    # For the record: the sampled-adjacency spectrum of a smooth link carries
    # a non-vanishing Bernoulli noise floor, so its matching distance cannot
    # decrease; the kernel-matrix spectrum is the quantity that converges.
    print(
        "[acceptance] criterion  8 note: affine observed-matrix medians "
        + ", ".join(f"n={n}: {med_aff_obs[n]:.4f}" for n in GRID),
        flush=True,
    )
    ok = mono_thresh and mono_aff and gate_aff
    detail = (
        "threshold " + ", ".join(f"{med_thresh[n]:.4f}" for n in GRID)
        + " | affine (kernel) " + ", ".join(f"{med_aff[n]:.4f}" for n in GRID)
    )
    _report(8, ok, detail)


def test_criterion_9_error_rate_slope(mse_study_records):
    medians = [
        float(np.median([np.sqrt(r.mse) for r in mse_study_records if r.n == n])) for n in GRID
    ]
    slope = float(np.polyfit(np.log(GRID), np.log(medians), 1)[0])
    ok = slope < -0.15
    _report(9, ok, f"log-log slope of median Frobenius error {slope:.3f}")


def test_criterion_10_cli_byte_determinism(tmp_path):
    raw = {
        "link": {"kind": "threshold", "tau": 0.0},
        "d": 3,
        "rho": 1.0,
        "n_grid": [60, 90],
        "replicates": 2,
        "seed": 5,
        "out": None,
        "k_max": 10,
    }
    outputs = {}
    for command, grid in (("mse-study", [60, 90]), ("dim-study", [100]), ("convergence-study", [60, 90])):
        digests = []
        for attempt in range(2):
            cfg_path = tmp_path / f"{command}-{attempt}.json"
            out_path = tmp_path / f"{command}-{attempt}.csv"
            raw["n_grid"] = grid
            raw["out"] = str(out_path)
            cfg_path.write_text(json.dumps(raw))
            assert cli.cli_main([command, "--config", str(cfg_path)]) == 0
            digests.append(out_path.read_bytes())
        outputs[command] = digests[0] == digests[1]
    ok = all(outputs.values())
    _report(10, ok, f"byte-identical re-runs: {outputs}")
