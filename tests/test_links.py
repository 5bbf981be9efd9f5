import re

import numpy as np
import pytest

import heic
from heic.errors import ValidationError


class TestThreshold:
    def test_indicator_semantics(self):
        link = heic.threshold(0.0)
        assert link(-1.0) == 1.0
        assert link(0.0) == 1.0  # boundary included
        assert link(0.5) == 0.0

    def test_vectorized(self):
        link = heic.threshold(0.25)
        t = np.array([-0.5, 0.25, 0.26, 1.0])
        np.testing.assert_array_equal(link(t), [1.0, 1.0, 0.0, 0.0])

    def test_declares_discontinuity(self):
        assert heic.threshold(0.3).discontinuities == (0.3,)
        assert heic.threshold(1.0).discontinuities == ()


class TestAffine:
    def test_half_affine(self):
        link = heic.affine(0.5, 0.5)
        assert link(-1.0) == 0.0
        assert link(0.0) == 0.5
        assert link(1.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            heic.affine(0.5, 0.8)
        with pytest.raises(ValidationError):
            heic.affine(-0.1, 0.0)

    def test_constant_is_valid(self):
        assert heic.affine(0.35, 0.0)(0.9) == 0.35


class TestTableAndCustom:
    def test_table_interpolates(self):
        link = heic.table([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        assert link(-0.5) == pytest.approx(0.5)
        assert link(0.0) == 0.0

    def test_table_rejects_bad_range(self):
        with pytest.raises(ValidationError):
            heic.table([-1.0, 1.0], [0.0, 1.5])

    def test_custom_probed_and_rejected(self):
        with pytest.raises(ValidationError):
            heic.custom(lambda t: 0.5 + t)  # leaves [0, 1] near t = 1

    def test_custom_accepted(self):
        link = heic.custom(lambda t: np.square(t), label="square")
        assert link(0.5) == pytest.approx(0.25)

    def test_evaluation_rejects_bad_custom_values(self):
        # Probing at 1024 points can miss a narrow spike; evaluation re-checks.
        spike = heic.LinkFunction(kind="custom", fn=lambda t: np.where(np.abs(t) < 1e-6, 2.0, 0.5))
        with pytest.raises(ValidationError):
            spike(0.0)

    def test_domain_validated(self):
        with pytest.raises(ValidationError):
            heic.threshold(0.0)(1.5)

    def test_nan_argument_rejected(self):
        # threshold(0) would map NaN to probability 0: NaN <= 0 is False.
        with pytest.raises(ValidationError, match="outside"):
            heic.threshold(0.0)(float("nan"))
        with pytest.raises(ValidationError, match="outside"):
            heic.threshold(0.0)(np.array([0.5, np.nan]))


class TestLinkSpecs:
    def test_shorthands(self):
        assert heic.link_from_spec("threshold:0.25").discontinuities == (0.25,)
        link = heic.link_from_spec("affine:0.5,0.5")
        assert link(1.0) == 1.0

    def test_dict_forms(self):
        assert heic.link_from_spec({"kind": "threshold", "tau": 0.0})(0.0) == 1.0
        assert heic.link_from_spec({"kind": "affine", "a": 0.5, "b": 0.5})(0.0) == 0.5
        t = heic.link_from_spec({"kind": "table", "t": [-1, 1], "values": [0, 1]})
        assert t(0.0) == pytest.approx(0.5)

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            heic.link_from_spec("mystery:1")
        with pytest.raises(ValidationError):
            heic.link_from_spec({"kind": "mystery"})

    @pytest.mark.parametrize(
        "spec, unknown",
        [
            ({"kind": "threshold", "taus": 0.5}, "['taus']"),
            ({"kind": "affine", "a": 0.5, "b": 0.5, "tau": 0.0}, "['tau']"),
            ({"kind": "table", "t": [-1, 1], "value": [0, 1], "values": [0, 1]}, "['value']"),
        ],
    )
    def test_dict_unknown_keys_rejected(self, spec, unknown):
        with pytest.raises(ValidationError, match=re.escape(f"unknown keys {unknown}")):
            heic.link_from_spec(spec)
