import numpy as np
import pytest

import heic
from heic import io
from heic.errors import ValidationError


def test_edge_list_roundtrip(tmp_path):
    sample = heic.sample_uniform_sphere(30, 3, seed=2)
    model = heic.GraphModel(link=heic.threshold(0.0), sparsity=1.0, n=30)
    adj = heic.sample_adjacency(heic.probability_matrix(sample, model), seed=3)
    path = tmp_path / "g.edges"
    io.write_edge_list(path, adj)
    assert path.read_text().splitlines()[0] == "n=30"
    np.testing.assert_array_equal(io.read_edge_list(path), adj)


def test_edge_list_header_required(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n")
    with pytest.raises(ValidationError):
        io.read_edge_list(path)


def test_edge_list_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("n=3\n1 5\n")
    with pytest.raises(ValidationError):
        io.read_edge_list(path)
    path.write_text("n=3\n2 1\n")
    with pytest.raises(ValidationError):
        io.read_edge_list(path)


def test_matrix_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((7, 7))
    path = tmp_path / "m.csv"
    io.write_matrix_csv(path, m)
    # 17 significant digits make float64 round-trip bit for bit
    np.testing.assert_array_equal(io.read_matrix_csv(path), m)


def test_matrix_csv_rejects_garbage(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ValidationError):
        io.read_matrix_csv(path)


def test_edge_list_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "dup.edges"
    path.write_text("n=3\n0 1\n0 1\n1 2\n")
    with pytest.raises(ValidationError, match=r"duplicate edge \(0, 1\)"):
        io.read_edge_list(path)


def test_edge_list_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.edges"
    for body in ("n=3\n0 1 2\n", "n=3\n0 1\n2\n", "n=3\n0 x\n", "n=3\n0.5 1\n"):
        path.write_text(body)
        with pytest.raises(ValidationError):
            io.read_edge_list(path)


def test_edge_list_without_edges(tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("n=4\n")
    np.testing.assert_array_equal(io.read_edge_list(path), np.zeros((4, 4)))
