"""Canonical rational series: expansion, non-negativity, and depth."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hilbertdepth.exactalg import IntPolynomial, binomial, one_minus_t_power
from hilbertdepth.series import (
    RationalFunctionSeries,
    canonicalize,
    coefficient,
    eventual_polynomial,
    hilbert_depth,
    is_nonnegative,
    mul_power_one_minus_t,
)


def expand_by_prefix_sums(numer_coeffs, den_pow, upto):
    """Independent expansion oracle: den_pow-fold iterated prefix sums."""
    row = list(numer_coeffs) + [0] * max(0, upto + 1 - len(numer_coeffs))
    row = row[: upto + 1]
    for _ in range(den_pow):
        for i in range(1, len(row)):
            row[i] += row[i - 1]
    return row


def rfs(coeffs, den_pow):
    return canonicalize(IntPolynomial(coeffs), den_pow)


class TestCanonicalize:
    def test_single_removable_factor(self):
        h = rfs((1, -1), 2)  # (1-T)/(1-T)^2
        assert h.numer == IntPolynomial.one() and h.den_pow == 1

    def test_t_times_factor(self):
        h = rfs((0, 1, -1), 3)  # T(1-T)/(1-T)^3
        assert h.numer == IntPolynomial((0, 1)) and h.den_pow == 2

    def test_max_power_numerator(self):
        # 1 - (1+3T)(1-T)^3 = 6T^2 - 8T^3 + 3T^4; value 1 at T=1, no factor
        numer = IntPolynomial.one() - IntPolynomial((1, 3)) * one_minus_t_power(3)
        h = canonicalize(numer, 3)
        assert h.numer == IntPolynomial((0, 0, 6, -8, 3)) and h.den_pow == 3

    def test_zero_numerator(self):
        h = rfs((), 5)
        assert h.numer.is_zero() and h.den_pow == 0

    def test_surplus_factors_stay_in_numerator(self):
        h = rfs((1, -2, 1), 1)  # (1-T)^2/(1-T)
        assert h.numer == IntPolynomial((1, -1)) and h.den_pow == 0

    def test_rejects_negative_den_pow(self):
        with pytest.raises(ValueError):
            canonicalize(IntPolynomial.one(), -1)

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            RationalFunctionSeries(IntPolynomial((1, -1)), 2)
        with pytest.raises(ValueError):
            RationalFunctionSeries(IntPolynomial(), 3)

    @given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 6))
    def test_idempotent(self, coeffs, den_pow):
        h = rfs(coeffs, den_pow)
        again = canonicalize(h.numer, h.den_pow)
        assert again == h


class TestMulPowerOneMinusT:
    H = rfs((0, 0, 3, -2), 3)

    def test_positive_power(self):
        out = mul_power_one_minus_t(self.H, 2)
        assert out == rfs((0, 0, 3, -2), 1)

    def test_power_equal_to_den(self):
        out = mul_power_one_minus_t(self.H, 3)
        assert out.numer == IntPolynomial((0, 0, 3, -2)) and out.den_pow == 0

    def test_negative_power(self):
        out = mul_power_one_minus_t(self.H, -1)
        assert out == rfs((0, 0, 3, -2), 4)

    def test_beyond_den_folds_into_numerator(self):
        out = mul_power_one_minus_t(self.H, 4)
        assert out.den_pow == 0
        assert out.numer == IntPolynomial((0, 0, 3, -2)) * one_minus_t_power(1)

    def test_cancels_on_plain_polynomial(self):
        h = rfs((1, -1), 0)
        out = mul_power_one_minus_t(h, -1)
        assert out == rfs((1,), 0)


class TestCoefficient:
    def test_veronese_example(self):
        h = rfs((0, 0, 3, -2), 3)
        # enumeration: 7 of the 10 degree-3 monomials in 3 variables have
        # support >= 2; 12 of the 15 in degree 4
        assert coefficient(h, 3) == 7
        assert coefficient(h, 4) == 12

    def test_free_module_series(self):
        for n in range(1, 8):
            h = rfs((1,), n)
            for k in range(12):
                assert coefficient(h, k) == binomial(n + k - 1, k)

    def test_polynomial_series(self):
        h = rfs((5, 0, -1), 0)
        assert [coefficient(h, k) for k in range(4)] == [5, 0, -1, 0]

    def test_low_coefficients_vanish(self):
        # T^2/(1-T) expands to T^2 + T^3 + ...
        h = rfs((0, 0, 1), 1)
        assert [coefficient(h, k) for k in range(5)] == [0, 0, 1, 1, 1]

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            coefficient(rfs((1,), 1), -1)

    @given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 6))
    def test_matches_prefix_sum_expansion(self, coeffs, den_pow):
        h = rfs(coeffs, den_pow)
        want = expand_by_prefix_sums(h.numer.coefficients, h.den_pow, 50)
        assert [coefficient(h, k) for k in range(51)] == want

    @given(st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 5),
           st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 5))
    def test_addition_is_linear(self, c1, m1, c2, m2):
        h1, h2 = rfs(c1, m1), rfs(c2, m2)
        total = h1 + h2
        for k in range(25):
            assert coefficient(total, k) == coefficient(h1, k) + coefficient(h2, k)
            assert coefficient(h1 - h2, k) == coefficient(h1, k) - coefficient(h2, k)


class TestEventualPolynomial:
    def test_veronese_example(self):
        h = rfs((0, 0, 3, -2), 3)
        q = eventual_polynomial(h)
        # q(k) = (k-1)(k+4)/2
        assert q.threshold == 3
        assert q.coeffs == (Fraction(-2), Fraction(3, 2), Fraction(1, 2))
        assert q(4) == coefficient(h, 4) == 12
        assert q.leading_coefficient == Fraction(1, 2)  # numer(1) / 2!

    def test_geometric_series(self):
        q = eventual_polynomial(rfs((1,), 1))
        assert q.threshold == 0 and q.coeffs == (Fraction(1),)

    def test_principal_square(self):
        # T^2/(1-T)^2 has coefficients 0,0,1,2,3,... so q(k) = k-1
        q = eventual_polynomial(rfs((0, 0, 1), 2))
        assert q.threshold == 2
        assert q.coeffs == (Fraction(-1), Fraction(1))

    def test_polynomial_series_has_zero_eventual_form(self):
        q = eventual_polynomial(rfs((1, 2), 0))
        assert q.threshold == 2 and q.coeffs == () and q.degree == -1
        assert q(2) == q(7) == q.leading_coefficient == 0

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8), st.integers(1, 6))
    @example(coeffs=[1, -1], den_pow=1)  # (1-T)/(1-T) canonicalizes to den_pow 0
    def test_agrees_with_coefficient_beyond_threshold(self, coeffs, den_pow):
        h = rfs(coeffs, den_pow)
        if h.numer.is_zero():
            return
        q = eventual_polynomial(h)
        assert q.degree <= h.den_pow - 1
        for k in range(q.threshold, q.threshold + 21):
            assert q(k) == coefficient(h, k)


class TestIsNonnegative:
    def test_plain_polynomial_with_negative_coefficient(self):
        assert not is_nonnegative(rfs((0, 0, 3, -2), 0))

    def test_two_fold_prefix_sums(self):
        # (0,0,3,-2) summed twice: 0,0,3,4,5,6,... all >= 0
        assert is_nonnegative(rfs((0, 0, 3, -2), 2))

    def test_one_fold_prefix_sums(self):
        # partial sums 0,0,3,1,1,1,...
        assert is_nonnegative(rfs((0, 0, 3, -2), 1))

    def test_zero_series(self):
        assert is_nonnegative(rfs((), 0))

    def test_eventually_negative(self):
        # (1 - 3T)/(1-T): partial sums 1, -2, -2, ...
        assert not is_nonnegative(rfs((1, -3), 1))

    def test_negative_entry_beyond_numerator_degree(self):
        # coefficients follow (k-2)(k-7)/2 from the start: 7, 3, 0, -2, ...
        # so the first negative entry appears past the numerator degree 2
        assert not is_nonnegative(rfs((7, -18, 12), 3))

    def test_stabilizes_at_positive_constant(self):
        # partial sums 100, 99, 98, 98, 98, ...
        assert is_nonnegative(rfs((100, -1, -1), 1))

    def test_all_nonnegative_polynomial(self):
        assert is_nonnegative(rfs((0, 2, 5), 0))

    @given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 6),
           st.integers(1, 7))
    def test_monotone_in_r(self, coeffs, den_pow, r):
        # if (1-T)^r H is non-negative then so is (1-T)^(r-1) H
        h = rfs(coeffs, den_pow)
        if is_nonnegative(mul_power_one_minus_t(h, r)):
            assert is_nonnegative(mul_power_one_minus_t(h, r - 1))


class TestHilbertDepth:
    def test_free_module(self):
        for n in range(1, 9):
            assert hilbert_depth(rfs((1,), n)) == n

    def test_max_power_example(self):
        # r=1 leaves sums 6,4,5,6,...; r=2 hits -2
        assert hilbert_depth(rfs((0, 0, 6, -8, 3), 3)) == 1

    def test_veronese_example(self):
        # r=2 leaves 0,0,3,1,1,...; r=3 leaves the raw -2
        assert hilbert_depth(rfs((0, 0, 3, -2), 3)) == 2

    def test_polynomial_depth_zero(self):
        assert hilbert_depth(rfs((0, 1, 1), 0)) == 0

    def test_rejects_zero_series(self):
        with pytest.raises(ValueError):
            hilbert_depth(rfs((), 0))

    def test_rejects_negative_series(self):
        with pytest.raises(ValueError):
            hilbert_depth(rfs((1, -3), 1))


class TestEquals:
    def test_reflexive(self):
        h = rfs((0, 0, 3, -2), 3)
        assert h == h

    def test_distinct_denominators(self):
        assert rfs((1,), 1) != rfs((1,), 2)

    def test_canonical_forms_from_different_routes(self):
        direct = rfs((0, 0, 3, -2), 3)
        indirect = canonicalize(IntPolynomial((0, 0, 3, -2)) * one_minus_t_power(2), 5)
        assert direct == indirect
