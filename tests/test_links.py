import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heic
from heic.errors import ValidationError
from heic.links import RANGE_SLACK
from heic.model import sample_model_adjacency


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
        with pytest.raises(ValidationError, match="strictly increasing"):
            heic.table([0.0, np.nan, 1.0], [0.5, 0.5, 0.5])

    def test_custom_probed_and_rejected(self):
        # Built links are probed through the evaluator, so one message form serves both.
        for bad in (np.nan, np.inf, -0.5, 1.5):
            with pytest.raises(ValidationError, match=re.escape("custom link leaves [0, 1]: range [")):
                heic.custom(lambda t: np.where(t > 0.9, bad, 0.5))
            with pytest.raises(ValidationError, match=re.escape("table[3] link leaves [0, 1]: range [")):
                heic.table([-1.0, 0.0, 1.0], [0.5, 0.5, bad])
        with pytest.raises(ValidationError, match=re.escape("custom link leaves [0, 1]")):
            heic.custom(lambda t: 0.5 + t)  # leaves [0, 1] near t = 1

    def test_custom_accepted(self):
        link = heic.custom(lambda t: np.square(t), label="square")
        assert link(0.5) == pytest.approx(0.25)

    def test_evaluation_rejects_bad_custom_values(self):
        # Probing at 1024 points can miss a narrow spike; evaluation re-checks.
        spike = heic.LinkFunction(fn=lambda t: np.where(np.abs(t) < 1e-6, 2.0, 0.5))
        with pytest.raises(ValidationError, match=re.escape("custom link leaves [0, 1]: range [2, 2]")):
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


# Arguments at and near the ends of [-1, 1], within RANGE_SLACK outside it,
# and anywhere between; the dusty link returns values within the slack
# outside [0, 1], which the evaluator clips.
_ARGUMENTS = st.one_of(
    st.sampled_from([-1.0, 1.0, -1.0 - RANGE_SLACK, 1.0 + RANGE_SLACK, 0.0, -0.0, 0.3]),
    st.floats(1.0, 1.0 + RANGE_SLACK),
    st.floats(-1.0 - RANGE_SLACK, -1.0),
    st.floats(-1.0 - RANGE_SLACK, 1.0 + RANGE_SLACK),
)
_LINKS = [
    heic.threshold(0.0),
    heic.threshold(0.3),
    heic.affine(0.5, 0.5),
    heic.affine(0.5, -0.5),
    heic.table([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]),
    heic.custom(lambda t: np.square(t), label="square"),
    heic.custom(lambda t: np.where(t > 0.0, 1.0 + RANGE_SLACK / 2, -RANGE_SLACK / 2), label="dusty"),
    heic.custom(lambda t: np.broadcast_to(0.25, np.shape(t)), label="read-only"),
]


class TestEvaluator:
    @settings(max_examples=200, deadline=None, database=None)
    @given(link=st.sampled_from(_LINKS), ts=st.lists(_ARGUMENTS, min_size=1, max_size=12))
    def test_evaluator_is_call_bitwise(self, link, ts):
        # The samplers' evaluator on clipped arguments, __call__, and the
        # formula clip(fn(clip(t, -1, 1)), 0, 1): the same bits, arrays and scalars.
        t = np.array(ts)
        clipped = np.clip(t, -1.0, 1.0)
        # fn may overwrite its argument, so it gets a copy of clipped.
        expected = np.clip(np.asarray(link.fn(clipped.copy()), dtype=float), 0.0, 1.0)
        assert link._evaluate(clipped.copy()).tobytes() == expected.tobytes()
        assert link(t).tobytes() == expected.tobytes()
        assert np.float64(link(t[0])).tobytes() == expected[:1].tobytes()

    @pytest.mark.parametrize(
        "link",
        [heic.threshold(0.0), heic.affine(0.5, 0.5), heic.affine(0.5, 0.5 + RANGE_SLACK / 2)],
        ids=["threshold", "affine", "dusty-affine"],
    )
    def test_builtin_links_evaluate_into_their_argument(self, link):
        # Theta in probability_matrix is then the inner products' one buffer;
        # the dusty affine link's values past 1 are clipped there too.
        buf = np.linspace(-1.0, 1.0, 9)
        assert link._evaluate(buf) is buf

    @pytest.mark.parametrize("link", _LINKS, ids=lambda link: link.label)
    def test_call_leaves_its_argument(self, link):
        # fn may overwrite what it is handed, so __call__ hands it a copy.
        for t in (np.linspace(-1.0 - RANGE_SLACK, 1.0, 9), np.array(0.3), np.array(1.0 + RANGE_SLACK)):
            before = t.copy()
            link(t)
            assert t.tobytes() == before.tobytes()

    def test_read_only_output_scaled_as_a_copy(self):
        # The samplers scale the evaluator's result in place.
        link = heic.custom(lambda t: np.broadcast_to(0.25, np.shape(t)), label="read-only")
        sample = heic.sample_uniform_sphere(40, 3, seed=2)
        model = heic.GraphModel(link=link, sparsity=0.5, n=40)
        theta = heic.probability_matrix(sample, model)
        assert np.array_equal(theta, 0.125 * (1.0 - np.eye(40)))
        assert sample_model_adjacency(sample, model, 3).tobytes() == heic.sample_adjacency(theta, 3).tobytes()

    def test_spike_rejected_on_the_sampler_path(self):
        # The probe's largest point, cos(pi / 2048), lies below the spike,
        # which the samplers and probability_matrix hit on the diagonal, where t = 1.
        spike = heic.custom(lambda t: np.where(t > 0.9999999, 2.0, 0.5), label="spike")
        sample = heic.sample_uniform_sphere(30, 3, seed=1)
        model = heic.GraphModel(link=spike, sparsity=1.0, n=30)
        with pytest.raises(ValidationError, match=re.escape("spike link leaves [0, 1]: range [0.5, 2]")):
            sample_model_adjacency(sample, model, 1)
        with pytest.raises(ValidationError, match=re.escape("spike link leaves [0, 1]: range [0.5, 2]")):
            heic.probability_matrix(sample, model)


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
