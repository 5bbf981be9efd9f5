import json
import math

import numpy as np
import pytest
import scipy.linalg

import heic
from heic import experiments
from heic.errors import ValidationError
from heic.experiments import (
    ExperimentConfig,
    RhoRule,
    replicate_seeds,
    write_convergence_csv,
    write_dimension_csv,
    write_mse_csv,
)


def _config(**overrides):
    base = dict(
        link=heic.threshold(0.0),
        d=3,
        rho=RhoRule("constant", 1.0),
        n_grid=(60, 90),
        replicates=2,
        seed=314,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRhoRule:
    def test_constant(self):
        assert RhoRule("constant", 0.7).rho_for(100) == 0.7

    def test_log_rule_capped(self):
        rule = RhoRule("log", 5.0)
        assert rule.rho_for(10) == 1.0
        assert rule.rho_for(10_000) == pytest.approx(5.0 * math.log(10_000) / 10_000)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RhoRule("constant", 1.5)
        with pytest.raises(ValidationError):
            RhoRule("weird", 0.5)

    def test_nan_constant_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            RhoRule("log", math.nan)

    def test_from_spec(self):
        assert experiments.rho_rule_from_spec(0.4).kind == "constant"
        assert experiments.rho_rule_from_spec({"kind": "log", "c": 2.0}).value == 2.0

    @pytest.mark.parametrize("spec", [{"kind": "log"}, {"kind": "log", "value": 2.0}])
    def test_from_spec_needs_c(self, spec):
        with pytest.raises(ValidationError, match="missing 'c'"):
            experiments.rho_rule_from_spec(spec)


class TestExperimentConfig:
    def test_from_dict_roundtrip(self, tmp_path):
        raw = {
            "link": {"kind": "threshold", "tau": 0.0},
            "d": 3,
            "rho": 1.0,
            "n_grid": [60, 90],
            "replicates": 2,
            "seed": 9,
            "out": str(tmp_path / "x.csv"),
        }
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.n_grid == (60, 90)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        cfg2 = ExperimentConfig.from_json(path)
        assert cfg2.seed == 9 and cfg2.d == 3

    def test_missing_key_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict({"link": "threshold:0"})

    def test_grid_validated(self):
        with pytest.raises(ValidationError):
            _config(n_grid=())
        with pytest.raises(ValidationError):
            _config(n_grid=(4,), d=3)
        with pytest.raises(ValidationError, match=r"repeats \[60\]"):
            _config(n_grid=(60, 90, 60))

    def test_dimensions_validated(self):
        # the sampler needs the sphere S^(d-1) with d >= 2
        with pytest.raises(ValidationError, match="latent dimension"):
            _config(d=1)
        with pytest.raises(ValidationError, match="d_max"):
            _config(d_max=0)

    def test_unknown_key_rejected(self):
        raw = {"link": "threshold:0", "d": 3, "n_grid": [60], "replicates": 1, "seed": 1}
        assert ExperimentConfig.from_dict(raw).d == 3
        with pytest.raises(ValidationError, match="workers"):
            ExperimentConfig.from_dict({**raw, "workers": 2})

    @pytest.mark.parametrize(
        "key, value",
        [("d", "three"), ("d", 3.7), ("d", True), ("replicates", 2.0), ("n_grid", 60),
         ("n_grid", [60, "90"]), ("seed", -1), ("rho", {"kind": "log", "c": "8"})],
    )
    def test_bad_value_names_its_key(self, key, value):
        raw = {"link": "threshold:0", "d": 3, "n_grid": [60], "replicates": 1, "seed": 1}
        with pytest.raises(ValidationError, match=rf"(^|'){key}\b"):
            ExperimentConfig.from_dict({**raw, key: value})


class TestReplicateSeeds:
    def test_deterministic(self):
        assert replicate_seeds(5, 100, 3) == replicate_seeds(5, 100, 3)

    def test_rejects_negative_arguments(self):
        for args, name in (((-1, 10, 0), "base_seed"), ((5, -10, 0), "n"), ((5, 10, -1), "replicate")):
            with pytest.raises(ValidationError, match=f"^{name} must be >= 0"):
                replicate_seeds(*args)

    def test_streams_distinct(self):
        seen = set()
        for n in (100, 200):
            for rep in range(10):
                pair = replicate_seeds(5, n, rep)
                assert pair[0] != pair[1]
                seen.add(pair)
        assert len(seen) == 20


class TestMseStudy:
    def test_records_sorted_and_complete(self):
        for n_grid in ((60, 90), (90, 60)):
            records = heic.run_mse_study(_config(n_grid=n_grid))
            keys = [(r.n, r.replicate) for r in records]
            assert keys == [(60, 0), (60, 1), (90, 0), (90, 1)]
            assert all(r.error is None for r in records)
            assert all(r.mse >= 0.0 for r in records)

    def test_identical_matrices_give_zero_error(self):
        # the reported quantity is a mean squared entrywise difference
        g = np.full((4, 4), 0.1)
        diff = 4 * g - 4 * g
        assert float((diff * diff).sum()) / 16 == 0.0

    def test_mse_identity_against_independent_path(self):
        cfg = _config(n_grid=(70,), replicates=1)
        record = heic.run_mse_study(cfg)[0]
        latent_seed, adjacency_seed = replicate_seeds(cfg.seed, 70, 0)
        sample = heic.sample_uniform_sphere(70, 3, latent_seed)
        theta = heic.probability_matrix(
            sample, heic.GraphModel(link=cfg.link, sparsity=1.0, n=70)
        )
        adjacency = heic.sample_adjacency(theta, adjacency_seed)
        estimate, _ = heic.heic(adjacency, 3)
        fro = np.linalg.norm(70 * estimate.matrix - 70 * heic.gram_population(sample), "fro")
        assert record.mse == pytest.approx(fro**2 / 70**2, abs=1e-12)
        assert record.mse == pytest.approx(
            np.linalg.norm(estimate.matrix - heic.gram_population(sample), "fro") ** 2,
            abs=1e-12,
        )

    def test_failures_become_nan_rows(self, monkeypatch):
        real = experiments.heic

        def flaky(adjacency, d, **kwargs):
            if adjacency.shape[0] == 60:
                raise RuntimeError("synthetic failure")
            return real(adjacency, d, **kwargs)

        monkeypatch.setattr(experiments, "heic", flaky)
        records = heic.run_mse_study(_config())
        failed = [r for r in records if r.n == 60]
        healthy = [r for r in records if r.n == 90]
        assert all(math.isnan(r.mse) and r.error for r in failed)
        assert all(r.error == "RuntimeError: synthetic failure" for r in failed)
        assert all(r.error is None for r in healthy)

    def test_csv_written_deterministically(self, tmp_path):
        records = heic.run_mse_study(_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_mse_csv(records, a)
        write_mse_csv(records, b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "n,replicate,mse,gap,diameter,seconds"

    def test_timing_column_opt_in(self, tmp_path):
        records = heic.run_mse_study(_config(n_grid=(60,), replicates=1))
        plain, timed = tmp_path / "p.csv", tmp_path / "t.csv"
        write_mse_csv(records, plain)
        write_mse_csv(records, timed, timing=True)
        assert plain.read_text().splitlines()[1].endswith(",0")
        assert not timed.read_text().splitlines()[1].endswith(",0")

    def test_replicate_releases_graph_before_error(self, traced_peak):
        # The replicate holds one n x n float64 array, heic()'s working copy
        # of A/n, beside the uint8 graph (n^2 bytes): sampling runs in blocks
        # of rows and the error comes from d x d products.  At n=1200 heic()
        # takes the certified route, whose scipy imports conftest has made;
        # ARPACK's basis and Ritz vectors add 0.05 of 8 n^2 at its peak.
        n = 1200
        heic.run_mse_study(_config(n_grid=(60,), replicates=1))  # imports before tracing
        assert traced_peak(heic.run_mse_study, _config(n_grid=(n,), replicates=1)) < 1.2 * 8 * n * n


class TestDimensionStudy:
    def test_small_study_shape(self, tmp_path):
        cfg = _config(n_grid=(150,), replicates=3, d_max=6)
        result = heic.run_dimension_study(cfg)
        assert len(result.records) == 3 * 6
        assert len(result.chosen) == 3
        assert 0.0 <= result.recovery_rate <= 1.0
        path = tmp_path / "scores.csv"
        write_dimension_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "replicate,candidate_d,score"
        assert lines[-1].startswith("summary,3,")

    def test_single_replicate_reproducible_bytes(self, tmp_path):
        cfg = _config(n_grid=(100,), replicates=1, d_max=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dimension_csv(heic.run_dimension_study(cfg), a)
        write_dimension_csv(heic.run_dimension_study(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_true_dimension_outside_candidates_flagged(self):
        cfg = _config(d=7, n_grid=(120,), replicates=1, d_max=4)
        result = heic.run_dimension_study(cfg)
        assert result.chosen[0] in (1, 2, 3, 4)
        assert result.recovery_rate == 0.0

    def test_requires_single_grid_size(self):
        with pytest.raises(ValidationError):
            heic.run_dimension_study(_config(n_grid=(60, 90)))

    def test_rejects_d_max_too_large_before_running(self, monkeypatch):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiments, "sample_uniform_sphere", no_replicate)
        with pytest.raises(ValidationError, match="d_max"):
            heic.run_dimension_study(_config(n_grid=(30,), d_max=29))

    def test_failures_keep_their_errors(self, monkeypatch):
        def broken(adjacency, d_max):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(experiments, "estimate_dimension", broken)
        result = heic.run_dimension_study(_config(n_grid=(60,), replicates=2, d_max=4))
        assert result.errors == ["RuntimeError: synthetic failure"] * 2
        assert result.chosen == [None, None] and result.recovery_rate == 0.0
        assert [(r.replicate, r.candidate_d) for r in result.records] == [
            (r, d) for r in range(2) for d in range(1, 5)
        ]
        assert all(math.isnan(r.score) for r in result.records)


class TestConvergenceStudy:
    def test_reference_matches_itself(self):
        flat = heic.analytic_spectrum(heic.threshold(0.0), 3, 10).flattened()
        assert heic.delta_2(flat, flat) == 0.0

    def test_records_shape_and_csv(self, tmp_path):
        cfg = _config(k_max=10)
        records = heic.run_spectrum_convergence(cfg)
        assert [(r.n, r.replicate) for r in records] == [(60, 0), (60, 1), (90, 0), (90, 1)]
        assert all(r.delta2 >= 0.0 for r in records)
        path = tmp_path / "conv.csv"
        write_convergence_csv(records, path)
        assert path.read_text().splitlines()[0] == "n,replicate,delta2"

    def test_noiseless_mode_differs_for_smooth_links(self):
        cfg = _config(link=heic.affine(0.5, 0.5), n_grid=(150,), replicates=1, k_max=10)
        observed = heic.run_spectrum_convergence(cfg, matrix="observed")[0].delta2
        noiseless = heic.run_spectrum_convergence(cfg, matrix="noiseless")[0].delta2
        assert noiseless < observed

    def test_modes_coincide_for_threshold_at_full_density(self):
        cfg = _config(n_grid=(100,), replicates=1, k_max=10)
        observed = heic.run_spectrum_convergence(cfg, matrix="observed")[0].delta2
        noiseless = heic.run_spectrum_convergence(cfg, matrix="noiseless")[0].delta2
        assert observed == noiseless

    def test_solver_failure_is_eigen_solver_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", no_convergence)
        records = heic.run_spectrum_convergence(_config(n_grid=(60,), replicates=1, k_max=10))
        assert records[0].error.startswith("EigenSolverError: ")

    def test_matrix_mode_validated(self):
        with pytest.raises(ValidationError):
            heic.run_spectrum_convergence(_config(), matrix="fuzzy")


class TestStudyCsvWriters:
    """The study CSVs on hand-built records, byte for byte."""

    nan = math.nan
    MSE_RECORDS = [
        experiments.MseRecord(60, 0, 0.25, np.float64(0.1), -0.0, 1.5),
        experiments.MseRecord(60, 1, nan, nan, nan, nan, "RuntimeError: synthetic"),
    ]

    def test_mse_seconds_written_as_zero(self, tmp_path):
        path = tmp_path / "mse.csv"
        write_mse_csv(self.MSE_RECORDS, path)
        assert path.read_bytes() == (
            b"n,replicate,mse,gap,diameter,seconds\n"
            b"60,0,0.25,0.10000000000000001,-0,0\n"
            b"60,1,nan,nan,nan,0\n"
        )

    def test_mse_seconds_with_timing(self, tmp_path):
        path = tmp_path / "mse.csv"
        write_mse_csv(self.MSE_RECORDS, path, timing=True)
        assert path.read_bytes() == (
            b"n,replicate,mse,gap,diameter,seconds\n"
            b"60,0,0.25,0.10000000000000001,-0,1.5\n"
            b"60,1,nan,nan,nan,nan\n"
        )

    def test_dimension_rows_and_summary(self, tmp_path):
        records = [
            experiments.DimensionScoreRecord(0, 1, 5e-324),
            experiments.DimensionScoreRecord(0, 2, 0.125),
            experiments.DimensionScoreRecord(1, 1, self.nan),
            experiments.DimensionScoreRecord(1, 2, self.nan),
        ]
        result = experiments.DimensionStudyResult(
            records=records,
            chosen=[2, None],
            recovery_rate=0.5,
            true_d=2,
            errors=[None, "RuntimeError: synthetic"],
        )
        path = tmp_path / "dim.csv"
        write_dimension_csv(result, path)
        assert path.read_bytes() == (
            b"replicate,candidate_d,score\n"
            b"0,1,4.9406564584124654e-324\n"
            b"0,2,0.125\n"
            b"1,1,nan\n"
            b"1,2,nan\n"
            b"summary,2,0.5\n"
        )

    def test_convergence_rows(self, tmp_path):
        records = [
            experiments.ConvergenceRecord(60, 0, 1.0 / 3.0),
            experiments.ConvergenceRecord(90, 0, self.nan, "QuadratureError: synthetic"),
        ]
        path = tmp_path / "conv.csv"
        write_convergence_csv(records, path)
        assert path.read_bytes() == (
            b"n,replicate,delta2\n60,0,0.33333333333333331\n90,0,nan\n"
        )


class TestLatentCovarianceConcentration:
    def test_scaled_second_moment_near_identity(self):
        # E[x x^T] = Id/d on the sphere, so the d-scaled average concentrates
        # around the identity at the sub-gaussian rate.
        n, d = 2000, 3
        bound = 5.0 * math.sqrt(d / n)
        for seed in range(20):
            pts = heic.sample_uniform_sphere(n, d, seed=seed).points
            cov = d * (pts.T @ pts) / n
            assert np.linalg.norm(cov - np.eye(d), 2) <= bound
