"""A study config has one construction path, and every real argument one check.

ExperimentConfig parses its link, rho rule, n grid and output path itself,
so a config built in Python is checked as one read by from_dict is, and
the two agree on every value.  errors.require_real is the one check that
a real argument is a number: an int, a float or a numpy real, never a
bool or a string.  A link argument must be a LinkFunction.
"""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heic
from heic.errors import ValidationError, require_real
from heic.experiments import ExperimentConfig, RhoRule, run_mse_study, write_mse_csv
from heic.model import sample_model_adjacency

REQUIRED = {"link": "threshold:0", "d": 3, "n_grid": [20], "replicates": 1, "seed": 1}

# Valid and invalid values for each key of a config.
VALUES = {
    "link": ["threshold:0", "affine:0.5,0.5", {"kind": "threshold", "tau": 0.25}, heic.threshold(0.0),
             "bogus", {"kind": "threshold", "tau": True}, 3, None],
    "d": [3, 4, 1, 3.5, True, "3"],
    "n_grid": [[20], (20, 30), [], (20, 20), [4], [20.0], 20, "20", None],
    "replicates": [1, 2, 0, 1.0],
    "seed": [0, 5, -1, True],
    "rho": [0.5, 1, RhoRule("log", 2.0), {"kind": "log", "c": 2.0}, {"kind": "log"}, 1.5, True, "0.5"],
    "out": [None, "", "study.csv", Path("study.csv"), 5, ["study.csv"]],
    "d_max": [5, 0, 2.0],
    "k_max": [8, 0, np.int64(4)],
}

CONFIGS = st.fixed_dictionaries(
    {key: st.sampled_from(VALUES[key]) for key in REQUIRED},
    optional={key: st.sampled_from(values) for key, values in VALUES.items() if key not in REQUIRED},
)


def _outcome(build):
    """("error", message) on ValidationError, else ("config", the fields, the link by label)."""
    try:
        cfg = build()
    except ValidationError as exc:
        return "error", str(exc)
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    # LinkFunction equality compares the fn closures, which differ between parses.
    values["link"] = (cfg.link.label, cfg.link.discontinuities)
    return "config", values


class TestOnePath:
    @settings(max_examples=300, deadline=None, database=None)
    @given(raw=CONFIGS)
    def test_python_and_from_dict_agree(self, raw):
        assert _outcome(lambda: ExperimentConfig(**raw)) == _outcome(lambda: ExperimentConfig.from_dict(raw))

    def test_values_are_kept_parsed(self):
        cfg = ExperimentConfig(**{**REQUIRED, "rho": 0.5, "n_grid": [20, 30], "out": "study.csv"})
        assert isinstance(cfg.link, heic.LinkFunction) and cfg.link.label == "threshold(0)"
        assert cfg.rho == RhoRule("constant", 0.5)
        assert cfg.n_grid == (20, 30) and cfg.out == Path("study.csv")
        assert ExperimentConfig(**{**REQUIRED, "out": ""}).out is None

    @pytest.mark.parametrize("python", [{"rho": 0.5}, {"link": "threshold:0"}])
    def test_python_config_writes_the_json_config_csv(self, tmp_path, python):
        raw = {**REQUIRED, "rho": 0.5}
        built = {**raw, "link": heic.threshold(0.0), "rho": RhoRule("constant", 0.5), "n_grid": (20,), **python}
        records = run_mse_study(ExperimentConfig(**built))
        assert all(rec.error is None and math.isfinite(rec.mse) for rec in records)
        write_mse_csv(records, tmp_path / "python.csv")
        write_mse_csv(run_mse_study(ExperimentConfig.from_dict(raw)), tmp_path / "json.csv")
        assert (tmp_path / "python.csv").read_bytes() == (tmp_path / "json.csv").read_bytes()

    @pytest.mark.parametrize("key, value", [("n_grid", 20), ("out", 5)])
    def test_bad_container_names_its_key(self, key, value):
        with pytest.raises(ValidationError, match=f"^experiment config key '{key}' must be"):
            ExperimentConfig(**{**REQUIRED, key: value})


class TestRequireReal:
    @pytest.mark.parametrize("value", [2, 0.5, np.float32(0.5), np.int64(2), math.inf])
    def test_accepts_real_numbers(self, value):
        number = require_real(value, "x")
        assert type(number) is float and number == float(value)

    def test_nan_is_left_to_the_range_check(self):
        assert math.isnan(require_real(math.nan, "x"))

    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", None, [0.5], 1j])
    def test_refuses_what_is_no_number(self, value):
        with pytest.raises(ValidationError, match=f"^x must be a number, got {re.escape(repr(value))}$"):
            require_real(value, "x")


N = 30


def _adjacency():
    sample = heic.sample_uniform_sphere(N, 3, 1)
    return sample_model_adjacency(sample, heic.GraphModel(heic.threshold(0.0), 1.0, N), 2)


def _number_message(name, value):
    return f"^{re.escape(name)} must be a number, got {re.escape(repr(value))}$"


@pytest.mark.parametrize("value", [True, "0.5"])
class TestRealArguments:
    def test_sparsity(self, value):
        with pytest.raises(ValidationError, match=_number_message("sparsity", value)):
            heic.GraphModel(heic.threshold(0.0), value, 10)

    def test_heic_rho_and_gap(self, value):
        adjacency = _adjacency()
        with pytest.raises(ValidationError, match=_number_message("rho", value)):
            heic.heic(adjacency, 3, rho=value, analytic_gap=0.1)
        with pytest.raises(ValidationError, match=_number_message("analytic gap", value)):
            heic.heic(adjacency, 3, rho=1.0, analytic_gap=value)

    def test_event_e_check(self, value):
        spectrum = heic.symmetric_eig(_adjacency() / N)
        cluster = heic.find_cluster(spectrum, 3)
        with pytest.raises(ValidationError, match=_number_message("rho", value)):
            heic.event_e_check(spectrum, cluster, 0.1, value)
        with pytest.raises(ValidationError, match=_number_message("analytic gap", value)):
            heic.event_e_check(spectrum, cluster, value, 1.0)

    def test_gegenbauer_parameter(self, value):
        with pytest.raises(ValidationError, match=_number_message("Gegenbauer parameter", value)):
            heic.gegenbauer(2, value, 0.3)


@pytest.mark.parametrize(
    "spec, message",
    [({"kind": "threshold", "tau": True}, "threshold tau must be a number, got True"),
     ({"kind": "affine", "a": True, "b": False}, "affine a must be a number, got True"),
     ({"kind": "affine", "a": 0.5, "b": False}, "affine b must be a number, got False")],
)
def test_link_spec_refuses_bools(spec, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        heic.link_from_spec(spec)


@pytest.mark.parametrize(
    "call",
    [lambda link: heic.GraphModel(link, 0.5, 10), lambda link: heic.funck_hecke_table(link, 3, 5),
     lambda link: heic.analytic_spectrum(link, 3, 5)],
    ids=["GraphModel", "funck_hecke_table", "analytic_spectrum"],
)
def test_link_must_be_a_link_function(call):
    with pytest.raises(ValidationError, match="^link must be a LinkFunction, got 'threshold:0'$"):
        call("threshold:0")
