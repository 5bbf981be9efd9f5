"""Every integer argument of the public API is checked by errors.require_integer.

A count, size, level or seed must be an int or a numpy integer, not a bool,
and at least its minimum; anything else raises ValidationError, whose
message starts with the argument's name.  A numpy integer gives the same
bits as the plain int.
"""

import dataclasses
import re
from functools import cache

import numpy as np
import pytest

import heic
from heic import cli, io
from heic.errors import ValidationError
from heic.experiments import ExperimentConfig, replicate_seeds, run_dimension_study, run_spectrum_convergence
from heic.harmonics import sphere_weight_total
from heic.model import sample_model_adjacency

N = 30


@cache
def _sample():
    return heic.sample_uniform_sphere(N, 3, 1)


@cache
def _adjacency():
    return sample_model_adjacency(_sample(), heic.GraphModel(heic.threshold(0.0), 1.0, N), 2)


@cache
def _spectrum():
    return heic.symmetric_eig(_adjacency() / N)


def _config(**overrides):
    """A small config built in Python."""
    raw = dict(link=heic.threshold(0.0), d=3, n_grid=(20,), replicates=1, seed=1, d_max=5, k_max=8)
    return ExperimentConfig(**{**raw, **overrides})


def _study(**overrides):
    """The convergence and dimension studies of _config(**overrides)."""
    cfg = _config(**overrides)
    return run_spectrum_convergence(cfg), run_dimension_study(cfg)


def _bits(obj):
    """obj with every array and float as its bytes, every integer as an int, recursively."""
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, _bits([getattr(obj, f.name) for f in dataclasses.fields(obj)])
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (list, tuple)):
        return tuple(_bits(item) for item in obj)
    if isinstance(obj, (float, np.floating)):
        return np.float64(obj).tobytes()
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return int(obj)
    return obj


# (call of the argument's value, the argument's name, its minimum, a valid value)
CASES = {
    "heic-d": (lambda v: heic.heic(_adjacency(), v), "cluster size", 1, 3),
    "find_cluster-d": (lambda v: heic.find_cluster(_spectrum(), v), "cluster size", 1, 3),
    "scan_spectrum-candidate": (lambda v: heic.scan_spectrum(_spectrum(), [2, v]), "cluster size", 1, 3),
    "estimate_dimension-d_max": (lambda v: heic.estimate_dimension(_adjacency(), v), "d_max", 1, 5),
    "harmonic_space_dim-d": (lambda v: heic.harmonic_space_dim(v, 2), "d", 3, 4),
    "harmonic_space_dim-k": (lambda v: heic.harmonic_space_dim(3, v), "k", 0, 3),
    "addition_constant-d": (lambda v: heic.addition_constant(v, 2), "d", 3, 4),
    "addition_constant-k": (lambda v: heic.addition_constant(3, v), "k", 0, 3),
    "sphere_weight_total-d": (lambda v: sphere_weight_total(v), "d", 3, 4),
    "gegenbauer-k": (lambda v: heic.gegenbauer(v, 0.5, np.linspace(-1.0, 1.0, 5)), "k", 0, 3),
    "funck_hecke_table-d": (lambda v: heic.funck_hecke_table(heic.threshold(0.0), v, 5), "d", 3, 4),
    "funck_hecke_table-k_max": (lambda v: heic.funck_hecke_table(heic.threshold(0.0), 3, v), "k_max", 0, 5),
    "analytic_spectrum-d": (lambda v: heic.analytic_spectrum(heic.threshold(0.0), v, 5), "d", 3, 4),
    "analytic_spectrum-k_max": (lambda v: heic.analytic_spectrum(heic.threshold(0.0), 3, v), "k_max", 1, 5),
    "GraphModel-n": (
        lambda v: sample_model_adjacency(_sample(), heic.GraphModel(heic.threshold(0.0), 0.5, v), 1),
        "n", 1, N,
    ),
    "sample_uniform_sphere-n": (lambda v: heic.sample_uniform_sphere(v, 3, 1), "n", 1, 10),
    "sample_uniform_sphere-d": (lambda v: heic.sample_uniform_sphere(10, v, 1), "d", 2, 3),
    "sample_uniform_sphere-seed": (lambda v: heic.sample_uniform_sphere(10, 3, v), "seed", 0, 1),
    "sample_adjacency-seed": (lambda v: heic.sample_adjacency(np.full((8, 8), 0.5), v), "seed", 0, 1),
    "sample_model_adjacency-seed": (
        lambda v: sample_model_adjacency(_sample(), heic.GraphModel(heic.threshold(0.0), 0.5, N), v),
        "seed", 0, 1,
    ),
    "replicate_seeds-base_seed": (lambda v: replicate_seeds(v, 50, 0), "base_seed", 0, 5),
    "replicate_seeds-n": (lambda v: replicate_seeds(5, v, 0), "n", 0, 50),
    "replicate_seeds-replicate": (lambda v: replicate_seeds(5, 50, v), "replicate", 0, 2),
    "ExperimentConfig-d": (lambda v: _study(d=v), "d (latent dimension of the sphere S^(d-1))", 2, 3),
    "ExperimentConfig-d_max": (lambda v: _study(d_max=v), "d_max", 1, 5),
    "ExperimentConfig-k_max": (lambda v: _study(k_max=v), "k_max", 1, 8),
    "ExperimentConfig-replicates": (lambda v: _study(replicates=v), "replicates", 1, 2),
    "ExperimentConfig-seed": (lambda v: _study(seed=v), "seed", 0, 1),
    "ExperimentConfig-n_grid": (lambda v: _study(n_grid=(v,)), "n_grid", 5, 20),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


@pytest.mark.parametrize("value", [2.5, True, False], ids=["float", "True", "False"])
def test_non_integer_rejected_by_name(case, value):
    call, name, _, _ = case
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be an integer, got {value!r}$"):
        call(value)


def test_below_minimum_rejected_by_name(case):
    call, name, minimum, _ = case
    with pytest.raises(ValidationError, match=f"^{re.escape(name)} must be >= {minimum}, got {minimum - 1}$"):
        call(minimum - 1)


def test_numpy_integer_gives_the_int_bits(case):
    call, _, _, valid = case
    assert _bits(call(np.int64(valid))) == _bits(call(valid))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: _config(d=3.5), "d (latent dimension"),
        (lambda: _config(n_grid=(50.0,)), "n_grid"),
        (lambda: _config(replicates=2.0), "replicates"),
        (lambda: _config(seed=1.5), "seed"),
        (lambda: _config(k_max=0), "k_max"),
        (lambda: replicate_seeds(1.5, 50, 0), "base_seed"),
        (lambda: heic.analytic_spectrum(heic.threshold(0.0), 3, 2.5), "k_max"),
        (lambda: heic.harmonic_space_dim(3, 1.5), "k"),
        (lambda: heic.gegenbauer(1.5, 0.5, 0.3), "k"),
        (lambda: heic.sample_uniform_sphere(10.5, 3, 1), "n"),
        (lambda: heic.sample_uniform_sphere(10, 3, 1.5), "seed"),
        (lambda: heic.GraphModel(heic.threshold(0.0), 0.5, 10.5), "n"),
    ],
    ids=[
        "config-d", "config-n_grid", "config-replicates", "config-seed", "config-k_max", "replicate_seeds",
        "analytic_spectrum", "harmonic_space_dim", "gegenbauer", "sphere-n", "sphere-seed", "GraphModel",
    ],
)
def test_formerly_run_or_type_error(call, name):
    # Each of these was once accepted (a config then wrote NaN rows or ran
    # a truncated seed, and one with k_max=0 failed only in the convergence
    # study) or raised a bare TypeError.
    with pytest.raises(ValidationError, match=f"^{re.escape(name)}"):
        call()


def test_edge_list_node_count_below_one_rejected(tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("n=0\n")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: node count must be >= 1, got 0$"):
        io.read_edge_list(path)


def test_cli_negative_seed_rejected_by_flag(tmp_path, capsys):
    argv = ["sample", "--link", "threshold:0", "--d", "3", "--n", "20", "--seed", "-1"]
    assert cli.cli_main([*argv, "--out", str(tmp_path / "g.edges")]) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
