"""Series constructors and closed depth formulas for the four families."""

import pytest

from hilbertdepth.exactalg import IntPolynomial
from hilbertdepth.ideals import (
    DepthReport,
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
    closed_depth_max_power,
    closed_depth_veronese,
    depth_report,
    generated_hat_power_series,
    hat_power_series,
    max_power_series,
    series_for,
    veronese_series,
    veronese_series_alt,
)
from hilbertdepth.series import (
    canonicalize,
    coefficient,
    hilbert_depth,
    is_nonnegative,
    mul_power_one_minus_t,
)
from hilbertdepth.exactalg import binomial


class TestSpecValidation:
    def test_veronese_bounds(self):
        with pytest.raises(ValueError):
            Veronese(3, 0)
        with pytest.raises(ValueError):
            Veronese(3, 4)
        with pytest.raises(ValueError):
            Veronese(0, 1)

    def test_power_bounds(self):
        with pytest.raises(ValueError):
            MaxPower(3, 0)
        with pytest.raises(ValueError):
            HatPower(3, 4, 1)
        with pytest.raises(ValueError):
            GeneratedHatPower(3, 0, 1)

    def test_ambient_variables(self):
        assert Veronese(5, 2).ambient == 5
        assert MaxPower(5, 2).ambient == 5
        assert HatPower(5, 3, 2).ambient == 3
        assert GeneratedHatPower(5, 3, 2).ambient == 5


class TestVeroneseSeries:
    def test_hand_expansion(self):
        h = veronese_series(3, 2)
        assert h.numer == IntPolynomial((0, 0, 3, -2)) and h.den_pow == 3
        # enumeration: 7 of 10 degree-3 monomials have support >= 2
        assert coefficient(h, 3) == 7

    def test_principal_ideal(self):
        for n in range(1, 8):
            h = veronese_series(n, n)
            assert h.numer == IntPolynomial.monomial(1, n) and h.den_pow == n

    def test_whole_maximal_ideal(self):
        h = veronese_series(2, 1)
        assert h.numer == IntPolynomial((0, 2, -1)) and h.den_pow == 2
        # everything but the empty monomial: C(k+1, 1) + ... = k+1 in 2 vars
        assert [coefficient(h, k) for k in range(5)] == [0, 2, 3, 4, 5]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            veronese_series(3, 4)
        with pytest.raises(ValueError):
            veronese_series(3, 0)

    def test_alt_presentation_agrees(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                assert veronese_series(n, d) == veronese_series_alt(n, d)

    def test_alt_principal_single_term(self):
        h = veronese_series_alt(4, 4)
        assert h.numer == IntPolynomial.monomial(1, 4) and h.den_pow == 4


class TestMaxPowerSeries:
    def test_hand_expansion(self):
        h = max_power_series(3, 2)
        assert h.numer == IntPolynomial((0, 0, 6, -8, 3)) and h.den_pow == 3
        assert coefficient(h, 2) == 6  # C(4, 2)

    def test_power_one_is_whole_ideal(self):
        assert max_power_series(2, 1) == veronese_series(2, 1)

    def test_coefficients_are_truncated_free_module(self):
        for n in range(1, 6):
            for s in range(1, 5):
                h = max_power_series(n, s)
                for k in range(12):
                    want = binomial(n + k - 1, n - 1) if k >= s else 0
                    assert coefficient(h, k) == want

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            max_power_series(3, 0)


class TestHatPowerSeries:
    def test_hand_expansion(self):
        h = hat_power_series(3, 2, 2)
        assert h.numer == IntPolynomial((0, 0, 3, -2)) and h.den_pow == 2

    def test_no_cut_equals_max_power(self):
        for n in range(1, 8):
            for s in range(1, 4):
                assert hat_power_series(n, 1, s) == max_power_series(n, s)

    def test_single_variable(self):
        for n in range(1, 6):
            for s in range(1, 5):
                h = hat_power_series(n, n, s)
                assert h.numer == IntPolynomial.monomial(1, s) and h.den_pow == 1

    def test_family_coherence(self):
        for n in range(1, 31):
            for t in range(1, n + 1):
                for s in (1, 2, 3):
                    assert hat_power_series(n, t, s) == max_power_series(n - t + 1, s)


class TestGeneratedHatPowerSeries:
    def test_hand_expansion(self):
        h = generated_hat_power_series(3, 2, 2)
        assert h.numer == IntPolynomial((0, 0, 3, -2)) and h.den_pow == 3
        assert h == veronese_series(3, 2)

    def test_no_cut_equals_max_power(self):
        for n in range(1, 8):
            for s in range(1, 4):
                assert generated_hat_power_series(n, 1, s) == max_power_series(n, s)

    def test_matches_transformed_hat_series(self):
        for n in range(1, 12):
            for t in range(1, n + 1):
                for s in (1, 2, 3):
                    want = mul_power_one_minus_t(hat_power_series(n, t, s), -(t - 1))
                    assert generated_hat_power_series(n, t, s) == want

    def test_veronese_link_over_sweep(self):
        for n in range(1, 16):
            for d in range(1, n + 1):
                assert generated_hat_power_series(n, d, d) == veronese_series(n, d)


class TestClosedDepthFormulas:
    def test_veronese_instances(self):
        assert closed_depth_veronese(6, 2) == 3
        assert closed_depth_veronese(3, 2) == 2
        for n in range(1, 10):
            assert closed_depth_veronese(n, n) == n

    def test_max_power_instances(self):
        assert closed_depth_max_power(10, 3) == 3
        assert closed_depth_max_power(3, 2) == 1
        for n in range(1, 8):
            for s in range(n, n + 4):
                assert closed_depth_max_power(n, s) == 1

    def test_depth_formula_agreement_small_sweep(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                assert hilbert_depth(veronese_series(n, d)) == closed_depth_veronese(n, d)
            for s in range(1, n + 1):
                assert hilbert_depth(max_power_series(n, s)) == closed_depth_max_power(n, s)

    def test_all_families_nonnegative(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                assert is_nonnegative(veronese_series(n, d))
            for s in (1, 2, 3):
                assert is_nonnegative(max_power_series(n, s))
                for t in range(1, n + 1):
                    assert is_nonnegative(hat_power_series(n, t, s))
                    assert is_nonnegative(generated_hat_power_series(n, t, s))


class TestDepthReport:
    def test_report_veronese(self):
        rep = depth_report(Veronese(6, 2))
        assert rep.computed_depth == 3 and rep.closed_form_depth == 3 and rep.agree

    def test_report_all_families(self):
        for spec in (Veronese(5, 2), MaxPower(5, 3), HatPower(5, 2, 2),
                     GeneratedHatPower(5, 2, 2)):
            rep = depth_report(spec)
            assert rep.agree
            assert rep.series == series_for(spec)
            assert rep.closed_form_depth == spec.closed_depth()

    def test_generated_depth_shifts_hat_depth(self):
        for n in range(1, 10):
            for t in range(1, n + 1):
                for s in (1, 2):
                    hat = hilbert_depth(hat_power_series(n, t, s))
                    gen = hilbert_depth(generated_hat_power_series(n, t, s))
                    assert gen == hat + t - 1
                    assert GeneratedHatPower(n, t, s).closed_depth() == gen

    def test_inconsistent_report_rejected(self):
        h = canonicalize(IntPolynomial((1,)), 2)
        with pytest.raises(ValueError):
            DepthReport(Veronese(2, 1), h, 1, 2, agree=True)
