import json

import numpy as np
import pytest

import heic
from heic import cli, experiments
from heic import io
from heic.errors import QuadratureError


def _sample_graph(tmp_path, n=80, seed=5):
    edges = tmp_path / "g.edges"
    code = cli.cli_main(
        [
            "sample",
            "--link", "threshold:0",
            "--d", "3",
            "--n", str(n),
            "--rho", "1.0",
            "--seed", str(seed),
            "--out", str(edges),
        ]
    )
    assert code == 0
    return edges


class TestSampleCommand:
    def test_writes_edge_list_and_matrices(self, tmp_path):
        edges = tmp_path / "g.edges"
        theta_csv = tmp_path / "theta.csv"
        gram_csv = tmp_path / "gram.csv"
        code = cli.cli_main(
            [
                "sample",
                "--link", "threshold:0",
                "--d", "3",
                "--n", "40",
                "--seed", "9",
                "--out", str(edges),
                "--theta-out", str(theta_csv),
                "--gram-out", str(gram_csv),
            ]
        )
        assert code == 0
        adj = io.read_edge_list(edges)
        assert adj.shape == (40, 40)
        theta = io.read_matrix_csv(theta_csv)
        # threshold at full density: the adjacency equals the probability matrix
        np.testing.assert_array_equal(adj, theta)
        gram = io.read_matrix_csv(gram_csv)
        np.testing.assert_allclose(np.diag(gram), 1.0 / 40.0, atol=1e-12)

    @pytest.mark.parametrize(
        "flag, value",
        [("--link", "threshold:abc"), ("--link", "threshold:nan"), ("--link", "affine:0.5,x"),
         ("--seed", "-1")],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, flag, value):
        argv = ["sample", "--link", "threshold:0", "--d", "3", "--n", "20", "--seed", "1"]
        argv[argv.index(flag) + 1] = value
        assert cli.cli_main([*argv, "--out", str(tmp_path / "g.edges")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_edge_list_matches_whole_theta_sampler(self, tmp_path, monkeypatch, seed):
        # Without --theta-out the command never builds Theta, yet it flips the
        # coins sample_adjacency flips on the whole probability matrix.
        n, rho = 300, 0.4
        latent_seed, adjacency_seed = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        sample = heic.sample_uniform_sphere(n, 3, int(latent_seed))
        theta = heic.probability_matrix(sample, heic.GraphModel(heic.affine(0.5, 0.5), rho, n))
        expected = tmp_path / "whole.edges"
        io.write_edge_list(expected, heic.sample_adjacency(theta, int(adjacency_seed)))
        monkeypatch.setattr(cli, "probability_matrix", None)
        edges = tmp_path / "g.edges"
        argv = ["sample", "--link", "affine:0.5,0.5", "--d", "3", "--n", str(n), "--rho", str(rho)]
        assert cli.cli_main([*argv, "--seed", str(seed), "--out", str(edges)]) == 0
        assert edges.read_bytes() == expected.read_bytes()

    def test_seed_reproducible(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        a = _sample_graph(first, seed=7)
        b = _sample_graph(second, seed=7)
        assert a.read_bytes() == b.read_bytes()


class TestEstimateCommand:
    def test_writes_gram_and_diagnostics(self, tmp_path):
        edges = _sample_graph(tmp_path)
        gram_csv = tmp_path / "ghat.csv"
        diag_csv = tmp_path / "diag.csv"
        code = cli.cli_main(
            [
                "estimate",
                "--input", str(edges),
                "--dim", "3",
                "--out-gram", str(gram_csv),
                "--out-diag", str(diag_csv),
            ]
        )
        assert code == 0
        gram = io.read_matrix_csv(gram_csv)
        assert gram.shape == (80, 80)
        assert np.trace(gram) == pytest.approx(1.0, abs=1e-9)
        header, row = diag_csv.read_text().splitlines()
        assert header == "gap,diameter,cluster_start,top_eigenvalue,edge_density,degenerate,solver,margin"
        values = row.split(",")
        assert len(values) == 8
        assert int(values[2]) >= 1
        # 80 nodes are too few for ARPACK's Krylov basis, so the certified
        # route declines; the reduction's margin is over the runner-up window.
        assert values[5:7] == ["False", "tridiagonal"]
        assert 0.0 < float(values[7]) <= float(values[0])

    def test_missing_input_is_validation_error(self, tmp_path):
        code = cli.cli_main(
            [
                "estimate",
                "--input", str(tmp_path / "nope.edges"),
                "--dim", "3",
                "--out-gram", str(tmp_path / "g.csv"),
            ]
        )
        assert code == 1

    def test_directory_input_is_one_error_line(self, tmp_path, capsys):
        out = str(tmp_path / "g.csv")
        code = cli.cli_main(["estimate", "--input", str(tmp_path), "--dim", "3", "--out-gram", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_duplicate_edge_is_validation_error(self, tmp_path, capsys):
        edges = tmp_path / "dup.edges"
        edges.write_text("n=3\n0 1\n0 1\n1 2\n")
        code = cli.cli_main(
            ["estimate", "--input", str(edges), "--dim", "1", "--out-gram", str(tmp_path / "g.csv")]
        )
        assert code == 1
        assert "duplicate edge" in capsys.readouterr().err


class TestDimensionCommand:
    def test_scores_csv_rows(self, tmp_path, capsys):
        edges = _sample_graph(tmp_path, n=120)
        out = tmp_path / "scores.csv"
        code = cli.cli_main(["dimension", "--input", str(edges), "--dmax", "15", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "candidate_d,score"
        assert len(lines) == 16
        assert "chosen dimension: 3" in capsys.readouterr().out


class TestSpectrumAndEigCommands:
    def test_spectrum_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = cli.cli_main(
            ["spectrum", "--link", "affine:0.5,0.5", "--d", "3", "--kmax", "4", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,eigenvalue,multiplicity,quad_err"
        assert len(lines) == 6
        level1 = lines[2].split(",")
        assert float(level1[1]) == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert int(level1[2]) == 3

    def test_eig_reads_dense_csv(self, tmp_path):
        m_csv = tmp_path / "m.csv"
        io.write_matrix_csv(m_csv, np.diag([3.0, 1.0, 2.0]))
        out = tmp_path / "eig.csv"
        assert cli.cli_main(["eig", "--input", str(m_csv), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [float(v) for _, v in rows] == [3.0, 2.0, 1.0]

    def test_eig_rejects_non_finite_csv(self, tmp_path, capsys):
        m_csv = tmp_path / "m.csv"
        m_csv.write_text("1,nan\nnan,1\n")
        assert cli.cli_main(["eig", "--input", str(m_csv), "--out", str(tmp_path / "eig.csv")]) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank"])
    def test_eig_empty_csv_is_one_error_line(self, tmp_path, capsys, text):
        m_csv = tmp_path / "m.csv"
        m_csv.write_text(text)
        assert cli.cli_main(["eig", "--input", str(m_csv), "--out", str(tmp_path / "eig.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestStudyCommands:
    def _write_config(self, tmp_path, **overrides):
        raw = {
            "link": {"kind": "threshold", "tau": 0.0},
            "d": 3,
            "rho": 1.0,
            "n_grid": [60, 90],
            "replicates": 2,
            "seed": 11,
            "out": str(tmp_path / "out.csv"),
        }
        raw.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return path, tmp_path / "out.csv"

    def test_mse_study_runs(self, tmp_path):
        cfg, out = self._write_config(tmp_path)
        assert cli.cli_main(["mse-study", "--config", str(cfg)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,replicate,mse,gap,diameter,seconds"
        assert len(lines) == 5

    def test_dim_study_runs(self, tmp_path, capsys):
        cfg, out = self._write_config(tmp_path, n_grid=[100], replicates=2, d_max=5)
        assert cli.cli_main(["dim-study", "--config", str(cfg)]) == 0
        assert "recovery rate:" in capsys.readouterr().out
        assert out.read_text().splitlines()[-1].startswith("summary,")

    def test_dim_study_warns_when_true_d_is_no_candidate(self, tmp_path, capsys):
        for d, warned in ((7, True), (3, False)):
            cfg, _ = self._write_config(tmp_path, d=d, n_grid=[120], replicates=1, d_max=4)
            assert cli.cli_main(["dim-study", "--config", str(cfg)]) == 0
            assert ("warning: true_d_outside_candidates" in capsys.readouterr().err) == warned

    def test_convergence_study_modes(self, tmp_path):
        cfg, out = self._write_config(tmp_path, n_grid=[80], replicates=1, k_max=10)
        assert cli.cli_main(["convergence-study", "--config", str(cfg)]) == 0
        observed = out.read_bytes()
        assert (
            cli.cli_main(["convergence-study", "--config", str(cfg), "--matrix", "noiseless"]) == 0
        )
        assert out.read_bytes() == observed  # threshold at rho=1: same matrix

    def test_bad_config_is_validation_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert cli.cli_main(["mse-study", "--config", str(path)]) == 1
        path.write_text(json.dumps({"link": "threshold:0"}))
        assert cli.cli_main(["mse-study", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("mse-study", {"d": 1}),
            ("mse-study", {"workers": 2}),
            ("dim-study", {"n_grid": [30], "d_max": 29}),
            ("mse-study", {"d": "three"}),
            ("mse-study", {"d": 3.7}),
            ("mse-study", {"n_grid": 60}),
            ("mse-study", {"seed": -1}),
            ("mse-study", {"link": {"kind": "affine", "a": "x", "b": 0.5}}),
            ("convergence-study", {"rho": {"kind": "log", "value": 8.0}}),
            ("convergence-study", {"n_grid": [60, 60]}),
        ],
    )
    def test_unrunnable_config_rejected_before_replicates(
        self, tmp_path, monkeypatch, command, overrides
    ):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiments, "sample_uniform_sphere", no_replicate)
        cfg, out = self._write_config(tmp_path, **overrides)
        assert cli.cli_main([command, "--config", str(cfg)]) == 1
        assert not out.exists()

    def test_config_not_an_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("5\n")
        assert cli.cli_main(["mse-study", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: experiment config must be a JSON object")

    def test_misspelt_link_key_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(experiments, "sample_uniform_sphere", no_replicate)
        cfg, out = self._write_config(tmp_path, link={"kind": "threshold", "taus": 0.5})
        assert cli.cli_main(["convergence-study", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: threshold link has unknown keys ['taus']\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mse-study", "dim-study", "convergence-study"])
    def test_every_replicate_failed_exits_two(self, tmp_path, monkeypatch, capsys, command):
        def broken(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(experiments, "sample_uniform_sphere", broken)
        cfg, out = self._write_config(tmp_path, n_grid=[60], d_max=5, k_max=10)
        assert cli.cli_main([command, "--config", str(cfg)]) == 2
        assert "all 2 replicates failed (RuntimeError)" in capsys.readouterr().err
        assert "nan" in out.read_text().splitlines()[1]

    def test_some_replicates_failed_exits_zero(self, tmp_path, monkeypatch):
        real = experiments.heic

        def flaky(adjacency, d, **kwargs):
            if adjacency.shape[0] == 60:
                raise RuntimeError("synthetic failure")
            return real(adjacency, d, **kwargs)

        monkeypatch.setattr(experiments, "heic", flaky)
        cfg, out = self._write_config(tmp_path)
        assert cli.cli_main(["mse-study", "--config", str(cfg)]) == 0
        mse = [row.split(",")[2] for row in out.read_text().splitlines()[1:]]
        assert [value == "nan" for value in mse] == [True, True, False, False]


class TestExitCodes:
    @pytest.mark.parametrize("command", [["estimate", "--dim", "3"], ["dimension"]])
    def test_oversized_graph_is_one_error_line(self, tmp_path, capsys, command):
        # The 10^7 x 10^7 float64 adjacency (728 TiB) exceeds any address space.
        edges = tmp_path / "huge.edges"
        edges.write_text("n=10000000\n0 1\n")
        out = ["--out-gram", str(tmp_path / "g.csv")] if command[0] == "estimate" else []
        assert cli.cli_main([*command, "--input", str(edges), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_command(self, capsys):
        assert cli.cli_main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.cli_main(["eig", "--bogus", "x"]) == 1

    def test_numeric_failure_maps_to_two(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureError("no convergence", best_estimate=0.1, error_estimate=1.0)

        monkeypatch.setattr(cli, "analytic_spectrum", explode)
        code = cli.cli_main(
            ["spectrum", "--link", "threshold:0", "--d", "3", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
