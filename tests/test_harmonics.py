import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special

import heic
from heic import harmonics
from heic.errors import QuadratureError, ValidationError
from heic.harmonics import AnalyticSpectrum, SpectrumLevel, funck_hecke_table, sphere_weight_total
from oracles import builtin_links, funck_hecke_eigenvalue, threshold_eigenvalue_exact


class TestHarmonicSpaceDim:
    @pytest.mark.parametrize(
        "d,k,expected", [(3, 0, 1), (3, 1, 3), (3, 2, 5), (4, 2, 9), (4, 0, 1), (4, 1, 4)]
    )
    def test_known_values(self, d, k, expected):
        assert heic.harmonic_space_dim(d, k) == expected

    def test_strictly_increasing_in_k(self):
        for d in (3, 4, 5):
            dims = [heic.harmonic_space_dim(d, k) for k in range(1, 12)]
            assert all(a < b for a, b in zip(dims, dims[1:]))

    def test_low_dimension_rejected(self):
        with pytest.raises(ValidationError):
            heic.harmonic_space_dim(2, 1)


class TestAdditionConstant:
    def test_known_values(self):
        assert heic.addition_constant(3, 1) == 3
        assert heic.addition_constant(4, 1) == 2
        assert heic.addition_constant(5, 2) == Fraction(7, 3)

    def test_level_one_identity(self):
        # 2 * gamma * c_1 = d, the scaling behind the Gram relation
        for d in range(3, 11):
            gamma = (d - 2) / 2.0
            assert 2.0 * gamma * float(heic.addition_constant(d, 1)) == pytest.approx(d)

    def test_low_dimension_rejected(self):
        with pytest.raises(ValidationError):
            heic.addition_constant(2, 1)


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert heic.gegenbauer(0, 0.7, 0.3) == 1.0

    def test_degree_one_anchor(self):
        assert heic.gegenbauer(1, 0.5, 0.4) == pytest.approx(0.4)

    def test_one_recurrence_step(self):
        # gamma = 1/2 gives the Legendre family: G_2 = (3 t^2 - 1) / 2
        t = np.linspace(-1.0, 1.0, 9)
        np.testing.assert_allclose(heic.gegenbauer(2, 0.5, t), (3.0 * t**2 - 1.0) / 2.0)
        assert heic.gegenbauer(2, 0.5, 1.0) == pytest.approx(1.0)

    def test_value_at_one_is_binomial(self):
        for gamma in (0.5, 1.0, 1.5, 2.5):
            for k in range(11):
                expected = scipy.special.binom(k + 2 * gamma - 1, k)
                assert heic.gegenbauer(k, gamma, 1.0) == pytest.approx(expected, abs=1e-9)

    def test_matches_scipy(self):
        t = np.linspace(-1.0, 1.0, 41)
        for gamma in (0.5, 1.0, 1.5, 3.5):
            for k in range(11):
                np.testing.assert_allclose(
                    heic.gegenbauer(k, gamma, t),
                    scipy.special.eval_gegenbauer(k, gamma, t),
                    rtol=1e-10,
                    atol=1e-12,
                )

    def test_nan_argument_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            heic.gegenbauer(2, 0.5, float("nan"))
        with pytest.raises(ValidationError, match="outside"):
            heic.gegenbauer(2, 0.5, np.array([0.1, np.nan]))

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            heic.gegenbauer(2, 0.0, 0.5)
        with pytest.raises(ValidationError):
            heic.gegenbauer(2, 0.5, 1.5)
        with pytest.raises(ValidationError):
            heic.gegenbauer(-1, 0.5, 0.5)


class TestFunckHeckeEigenvalue:
    def test_threshold_first_levels(self):
        link = heic.threshold(0.0)
        expected = [0.5, -0.25, 0.0, 0.0625]
        for k, want in enumerate(expected):
            lam, err = funck_hecke_eigenvalue(link, 3, k)
            assert lam == pytest.approx(want, abs=1e-10)
            assert err < 1e-10

    @pytest.mark.parametrize("k", [5, 9, 17, 33])
    def test_threshold_higher_levels_match_exact_integrals(self, k):
        lam, _ = funck_hecke_eigenvalue(heic.threshold(0.0), 3, k)
        assert lam == pytest.approx(threshold_eigenvalue_exact(k), abs=1e-12)

    def test_affine_levels(self):
        link = heic.affine(0.5, 0.5)
        lam0, _ = funck_hecke_eigenvalue(link, 3, 0)
        lam1, _ = funck_hecke_eigenvalue(link, 3, 1)
        assert lam0 == pytest.approx(0.5, abs=1e-12)
        assert lam1 == pytest.approx(1.0 / 6.0, abs=1e-12)
        for k in (2, 3, 4, 5):
            lam, _ = funck_hecke_eigenvalue(link, 3, k)
            assert abs(lam) < 1e-12  # degree-1 links are orthogonal to higher levels

    def test_mean_connectivity_closed_form(self):
        # Both standing links average to 1/2 under the symmetric weight, every d.
        for link in builtin_links().values():
            for d in (3, 4, 5):
                lam0, err = funck_hecke_eigenvalue(link, d, 0)
                assert lam0 == pytest.approx(0.5, abs=max(1e-9, 10 * err))

    def test_budget_exhaustion_raises_with_estimate(self):
        with pytest.raises(QuadratureError) as excinfo:
            funck_hecke_eigenvalue(heic.threshold(0.0), 3, 1, tol=1e-30, max_panels=8)
        assert math.isfinite(excinfo.value.best_estimate)

    def test_weight_totals(self):
        assert sphere_weight_total(3) == pytest.approx(2.0)
        assert sphere_weight_total(4) == pytest.approx(math.pi / 2.0)
        assert sphere_weight_total(5) == pytest.approx(4.0 / 3.0)


class TestFunckHeckeTable:
    def test_matches_per_level_path(self):
        for link in builtin_links().values():
            for d in (3, 4, 5):
                values, errs = funck_hecke_table(link, d, 12)
                for k in range(13):
                    lam, _ = funck_hecke_eigenvalue(link, d, k)
                    assert values[k] == pytest.approx(lam, abs=1e-9)
                assert errs.max() < 1e-10

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(harmonics, "QUAD_TOL", 1e-30)
        monkeypatch.setattr(harmonics, "QUAD_MAX_PANELS", 64)
        with pytest.raises(QuadratureError):
            funck_hecke_table(heic.threshold(0.0), 3, 5)


def _spectrum_from_values(eigs, d=3):
    levels = tuple(
        SpectrumLevel(k=k, eigenvalue=float(v), multiplicity=heic.harmonic_space_dim(d, k), quad_err=0.0)
        for k, v in enumerate(eigs)
    )
    return AnalyticSpectrum(d=d, levels=levels, k_max=len(eigs) - 1)


class TestAnalyticSpectrum:
    def test_threshold_levels(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        got = [(lv.k, lv.eigenvalue, lv.multiplicity) for lv in sp.levels]
        want = [(0, 0.5, 1), (1, -0.25, 3), (2, 0.0, 5), (3, 0.0625, 7)]
        for (k, lam, mult), (wk, wlam, wmult) in zip(got, want):
            assert k == wk and mult == wmult
            assert lam == pytest.approx(wlam, abs=1e-10)

    def test_affine_tail_vanishes(self):
        sp = heic.analytic_spectrum(heic.affine(0.5, 0.5), 3, 5)
        assert all(abs(lv.eigenvalue) < 1e-12 for lv in sp.levels[2:])

    def test_level_zero_dominates(self):
        for link in builtin_links().values():
            for d in (3, 4, 5):
                sp = heic.analytic_spectrum(link, d, 15)
                eigs = sp.eigenvalues()
                assert eigs[0] >= np.abs(eigs).max() - 1e-12

    def test_flattened_multiset(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        flat = sp.flattened()
        assert flat.size == 1 + 3 + 5 + 7
        assert np.count_nonzero(flat == flat[0]) == 1
        assert (flat == sp.levels[1].eigenvalue).sum() == 3

    def test_kmax_validated(self):
        with pytest.raises(ValidationError):
            heic.analytic_spectrum(heic.threshold(0.0), 3, 0)


class TestGap1Analytic:
    def test_threshold_truncated_at_three(self):
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 3)
        assert heic.gap1_analytic(sp) == pytest.approx(0.25, abs=1e-10)

    def test_threshold_full_tail(self):
        # Level 5 sits at -1/32, closer to -1/4 than level 3's 1/16.
        sp = heic.analytic_spectrum(heic.threshold(0.0), 3, 25)
        assert heic.gap1_analytic(sp) == pytest.approx(0.25 - 1.0 / 32.0, abs=1e-10)

    def test_affine(self):
        sp = heic.analytic_spectrum(heic.affine(0.5, 0.5), 3, 5)
        assert heic.gap1_analytic(sp) == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_zero_when_level_one_vanishes(self):
        assert heic.gap1_analytic(_spectrum_from_values([0.5, 0.0, 0.1, 0.2])) == 0.0

    def test_zero_when_level_one_collides(self):
        assert heic.gap1_analytic(_spectrum_from_values([0.5, 0.1, 0.3, 0.1])) == 0.0

    def test_positive_otherwise(self):
        assert heic.gap1_analytic(_spectrum_from_values([0.5, -0.2, 0.3, 0.1])) == pytest.approx(0.2)

    def test_even_link_gap_vanishes(self):
        # f(t) = |t| has no odd part, so the level-1 eigenvalue is zero.
        sp = heic.analytic_spectrum(heic.table([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]), 3, 4)
        assert heic.gap1_analytic(sp) <= 1e-12

    def test_needs_two_levels(self):
        with pytest.raises(ValidationError):
            heic.gap1_analytic(_spectrum_from_values([0.5, 0.1]))


class TestAdditionTheorem:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_level_one_identity_on_random_pairs(self, d):
        # With phi_j(x) = sqrt(d) x_j the level-1 sum collapses to d <x, y>,
        # which must equal c_1 * G_1(<x, y>).
        rng = np.random.default_rng(17)
        gamma = (d - 2) / 2.0
        c1 = float(heic.addition_constant(d, 1))
        for _ in range(200):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            y = rng.standard_normal(d)
            y /= np.linalg.norm(y)
            t = float(np.clip(x @ y, -1.0, 1.0))
            lhs = float(np.sum(d * x * y))
            assert lhs == pytest.approx(c1 * heic.gegenbauer(1, gamma, t), abs=1e-10)
            assert lhs == pytest.approx(d * t, abs=1e-10)


class TestOperatorActionMonteCarlo:
    def test_level_one_eigenfunction_reproduced(self):
        # Applying the kernel operator to phi(x) = sqrt(3) x_1 by Monte-Carlo
        # must reproduce lambda_1 * phi at test points within 3 standard errors.
        rng = np.random.default_rng(99)
        cloud = rng.standard_normal((100_000, 3))
        cloud /= np.linalg.norm(cloud, axis=1)[:, None]
        phi_cloud = math.sqrt(3.0) * cloud[:, 0]
        tests = rng.standard_normal((5, 3))
        tests /= np.linalg.norm(tests, axis=1)[:, None]
        for link in builtin_links().values():
            lam1, _ = funck_hecke_eigenvalue(link, 3, 1)
            for x in tests:
                samples = link(np.clip(cloud @ x, -1.0, 1.0)) * phi_cloud
                estimate = samples.mean()
                se = samples.std() / math.sqrt(samples.size)
                target = lam1 * math.sqrt(3.0) * x[0]
                assert abs(estimate - target) < 3.0 * se + 1e-12
