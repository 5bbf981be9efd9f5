import math
from pathlib import Path

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
    read = io.read_edge_list(path)
    assert read.dtype == adj.dtype == np.uint8
    assert read.tobytes() == adj.tobytes()


def test_edge_list_header_required(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n")
    with pytest.raises(ValidationError):
        io.read_edge_list(path)


def test_edge_list_too_large_for_memory_rejected_after_header(tmp_path):
    # Refused before the n x n adjacency (931 GiB) is allocated.
    path = tmp_path / "big.edges"
    path.write_text("n=1000000\n0 1\n")
    with pytest.raises(ValidationError, match=r"big.edges: n=1000000 needs about 13000000000000 bytes of memory"):
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


def test_matrix_csv_bytes(tmp_path):
    m = np.array([[-0.0, 5e-324], [1e300, np.nan]])
    path = tmp_path / "m.csv"
    io.write_matrix_csv(path, m)
    expected = "".join(",".join(f"{x:.17g}" for x in row) + "\n" for row in m.tolist())
    assert path.read_bytes() == expected.encode()


def test_table_bytes(tmp_path):
    rows = [
        (0, np.int64(7), np.float64(0.1), "summary"),
        (-1, -0.0, 5e-324, math.nan),
    ]
    path = tmp_path / "t.csv"
    io.write_table(path, "a,b,c,d", rows)
    expected = "a,b,c,d\n0,7,0.10000000000000001,summary\n-1,-0,4.9406564584124654e-324,nan\n"
    assert path.read_bytes() == expected.encode()


def test_table_dash_goes_to_stdout(tmp_path, monkeypatch, capsys):
    # Every writer prints what it would write to a file, for "-" as a str
    # or as a Path (a study config's out), and makes no file "-".
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    io.write_table("-", "k,value", [(1, 0.5), (2, 1e300)])
    assert capsys.readouterr().out == "k,value\n1,0.5\n2,1.0000000000000001e+300\n"
    adj = np.zeros((4, 4), dtype=np.uint8)
    adj[[0, 1, 2, 3], [2, 3, 0, 1]] = 1
    writers = [
        (lambda path, rows: io.write_table(path, "k,value", rows), [(1, 0.5)]),
        (io.write_edge_list, adj),
        (io.write_matrix_csv, [[0.1, 1.0], [-0.0, 5e-324]]),
    ]
    for write, data in writers:
        write(tmp_path / "file", data)
        for dash in ("-", Path("-")):
            write(dash, data)
            assert capsys.readouterr().out.encode() == (tmp_path / "file").read_bytes()
    assert not list(cwd.iterdir())


@pytest.mark.parametrize("i, j, value, match", [(0, 1, 0.5, "0 or 1"), (2, 2, 1.0, "diagonal")])
def test_edge_list_write_rejects_non_graph(tmp_path, i, j, value, match):
    adj = np.zeros((3, 3))
    adj[i, j] = adj[j, i] = value
    with pytest.raises(ValidationError, match=match):
        io.write_edge_list(tmp_path / "g.edges", adj)


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


def test_edge_list_accepts_blank_space_around_the_list(tmp_path):
    path = tmp_path / "g.edges"
    for text in ("n=4\n\n  \n", "\n\n  n=4  \n", "  n=4\n0 1\n\n\t\n2 3 \n\n", "n=4 \r\n0\t1\r\n2   3\r\n"):
        path.write_text(text)
        expected = np.zeros((4, 4), dtype=np.uint8)
        if "0" in text:
            expected[[0, 1, 2, 3], [1, 0, 3, 2]] = 1
        np.testing.assert_array_equal(io.read_edge_list(path), expected)
    path.write_text("\n n=x \n0 1\n")
    with pytest.raises(ValidationError, match="bad node count 'n=x '"):
        io.read_edge_list(path)


def _complete_graph(n):
    return np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8)


def test_edge_list_write_holds_one_row_at_a_time(tmp_path, traced_peak):
    # The lines go out row by row: the writer never holds the whole list,
    # as text or as index arrays, so its peak stays below the n x n uint8
    # adjacency itself.
    n = 400
    adj = _complete_graph(n)
    path = tmp_path / "k.edges"
    io.write_edge_list(path, adj)
    lines = ["n=400", *(f"{i} {j}" for i in range(n) for j in range(i + 1, n))]
    assert path.read_text() == "\n".join(lines) + "\n"
    assert traced_peak(io.write_edge_list, path, adj) < adj.nbytes


def test_edge_list_read_streams_the_body(tmp_path, traced_peak):
    # The body is parsed from the open file: no copy of its text and no
    # string per line, only the int64 pairs (16 bytes an edge) and the
    # uint8 adjacency.
    n = 400
    path = tmp_path / "k.edges"
    io.write_edge_list(path, _complete_graph(n))
    io.read_edge_list(path)  # imports before tracing
    edges = n * (n - 1) // 2
    assert traced_peak(io.read_edge_list, path) < 20 * edges + n * n
