"""The CLI boundary under mutated input.

Character mutations of a 6-node edge list (dimension, estimate) and of a
3 x 3 CSV (eig), and key edits of the three study configs.  Every command
exits 0 or 1, and on 1 writes exactly one line, ``error: ...``, to stderr:
no traceback.  A study that exits 0 ran every replicate: none failed.
Graphs stay at n <= 50, except an n too large for any machine's memory,
which is refused before anything is allocated.
"""

import contextlib
import io
import json
import logging

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from heic import cli

EDGE_LIST = "n=6\n0 1\n0 2\n1 2\n2 3\n3 4\n3 5\n4 5\n"
MATRIX_CSV = "1,0.5,0\n0.5,2,0.25\n0,0.25,3\n"
STUDY_CONFIGS = {
    "mse-study": {"link": "threshold:0", "d": 3, "n_grid": [12, 30], "replicates": 2, "seed": 1},
    "dim-study": {"link": "threshold:0", "d": 3, "n_grid": [30], "replicates": 2, "seed": 1, "d_max": 5},
    "convergence-study": {"link": "affine:0.5,0.5", "d": 3, "n_grid": [20], "replicates": 1, "seed": 1, "k_max": 8},
}
# A header too large for memory is refused; any other graph keeps to MAX_N.
MAX_N, REFUSED_N = 50, 1_000_000

FUZZ = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _mutated(text: str, alphabet: str):
    """Up to 4 insertions, deletions or replacements of one character each."""
    edit = st.tuples(st.sampled_from("idr"), st.integers(0, len(text)), st.sampled_from(alphabet))

    def apply(edits):
        out = text
        for kind, at, char in edits:
            at = min(at, len(out))
            if kind == "i":
                out = out[:at] + char + out[at:]
            elif kind == "d":
                out = out[:at] + out[at + 1 :]
            else:
                out = out[:at] + char + out[at + 1 :]
        return out

    return st.lists(edit, max_size=4).map(apply)


class _Failures(logging.Handler):
    """The replicate failures a study logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _run(argv) -> tuple[int, str, list]:
    """cli_main(argv) in process; its exit code, stderr and failed replicates."""
    out, err, failures = io.StringIO(), io.StringIO(), _Failures()
    logger = logging.getLogger("heic.experiments")
    logger.addHandler(failures)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main([str(arg) for arg in argv])
    finally:
        logger.removeHandler(failures)
    return code, err.getvalue(), failures.messages


def _assert_clean_exit(code: int, err: str, failures: list) -> None:
    assert code in (0, 1), err
    assert not failures
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def _header_n(text: str):
    """The node count the edge-list reader would read off text's header, or None."""
    header = next((line for line in text.splitlines() if line.strip()), "").strip()
    try:
        return int(header[2:]) if header.startswith("n=") else None
    except ValueError:
        return None


@FUZZ
@given(
    text=_mutated(EDGE_LIST, "0123456789 \n\t=n-.x"),
    command=st.sampled_from(["dimension", "estimate"]),
    size=st.integers(-1, 7),
)
@example(text=f"n={REFUSED_N}\n0 1\n", command="dimension", size=5)
@example(text=f"n={REFUSED_N}\n0 1\n", command="estimate", size=3)
def test_edge_list_commands(tmp_path, text, command, size):
    n = _header_n(text)
    assume(n is None or n <= MAX_N or n >= REFUSED_N)
    graph = tmp_path / "g.edges"
    graph.write_text(text)
    if command == "dimension":
        argv = ["dimension", "--input", graph, "--dmax", size, "--out", tmp_path / "scores.csv"]
    else:
        argv = ["estimate", "--input", graph, "--dim", size, "--out-gram", tmp_path / "gram.csv"]
    _assert_clean_exit(*_run(argv))


@FUZZ
@given(text=_mutated(MATRIX_CSV, "0123456789 \n,.-+einaf"))
def test_eig(tmp_path, text):
    matrix = tmp_path / "m.csv"
    matrix.write_text(text)
    _assert_clean_exit(*_run(["eig", "--input", matrix, "--out", tmp_path / "values.csv"]))


_KEYS = ["link", "d", "n_grid", "replicates", "seed", "rho", "out", "d_max", "k_max", "workers"]
_VALUES = [
    -1, 0, 1, 2, 3, 5, 2.5, True, None, "x", [], [0], [5], [12, 20], [MAX_N], [20, 20], [20.5], ["20"],
    "threshold:0.3", "affine:0.5,0.5", "affine:2,2", "table", {"kind": "threshold", "tau": 0.5},
    {"kind": "affine", "a": 0.2}, {"kind": "log", "c": 2.0}, {"kind": "log"}, 0.5, 1.5, "-", ".",
    "missing/dir/out.csv",
]
_DELETE = object()


@FUZZ
@given(
    command=st.sampled_from(sorted(STUDY_CONFIGS)),
    edits=st.lists(st.tuples(st.sampled_from(_KEYS), st.sampled_from([*_VALUES, _DELETE])), max_size=3),
)
@example(command="mse-study", edits=[("n_grid", [REFUSED_N])])
@example(command="dim-study", edits=[("n_grid", [REFUSED_N])])
@example(command="convergence-study", edits=[("n_grid", [REFUSED_N])])
@example(command="mse-study", edits=[("n_grid", [30, REFUSED_N])])
def test_study_configs(tmp_path, monkeypatch, command, edits):
    monkeypatch.chdir(tmp_path)  # an edit may set a relative "out"
    out = tmp_path / "study.csv"
    out.unlink(missing_ok=True)
    raw = {**STUDY_CONFIGS[command], "out": str(out)}
    for key, value in edits:
        if value is _DELETE:
            raw.pop(key, None)
        else:
            raw[key] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    code, err, failures = _run([command, "--config", config])
    _assert_clean_exit(code, err, failures)
    if code == 1:
        assert not out.exists()
