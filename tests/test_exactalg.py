"""Binomial and integer-polynomial arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertdepth.exactalg import IntPolynomial, binomial
from reference import one_minus_t_power

polys = st.lists(st.integers(-9, 9), max_size=8).map(IntPolynomial)


class TestBinomial:
    def test_standard_value(self):
        assert binomial(5, 2) == 10

    @pytest.mark.parametrize("a", [-7, -1, 0, 3, 50])
    def test_empty_product(self, a):
        assert binomial(a, 0) == 1

    def test_negative_upper_argument(self):
        # direct falling-factorial expansion: (-3)/1! = -3
        assert binomial(-3, 1) == -3
        assert binomial(-3, 1) == (-1) ** 1 * binomial(3, 1)

    def test_above_diagonal_is_zero(self):
        assert binomial(4, 5) == 0
        assert binomial(0, 1) == 0

    def test_matches_math_comb_for_nonnegative(self):
        for a in range(0, 30):
            for b in range(0, 35):
                assert binomial(a, b) == math.comb(a, b)

    def test_large_values_exact(self):
        assert binomial(128, 64) == math.comb(128, 64)

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            binomial(3, -1)

    def test_pascal_recurrence_sweep(self):
        for a in range(-50, 51):
            for b in range(1, 51):
                assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)

    def test_sign_law(self):
        # C(-a, b) = (-1)^b C(a+b-1, b) for a >= 1
        for a in range(1, 40):
            for b in range(0, 40):
                assert binomial(-a, b) == (-1) ** b * binomial(a + b - 1, b)


class TestIntPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert IntPolynomial((1, 2, 0, 0)) == IntPolynomial((1, 2))
        assert IntPolynomial((0, 0)).is_zero()

    def test_zero_degree_sentinel(self):
        assert IntPolynomial().degree == -1
        assert IntPolynomial((0, 1)).degree == 1

    def test_product_hand_expansion(self):
        # (1+3T)(1-T)^3 = 1 - 6T^2 + 8T^3 - 3T^4
        p = IntPolynomial((1, 3)) * one_minus_t_power(3)
        assert p == IntPolynomial((1, 0, -6, 8, -3))

    def test_product_identity_and_annihilator(self):
        p = IntPolynomial((2, -1, 4))
        assert p * IntPolynomial((1,)) == p
        assert (p * IntPolynomial()).is_zero()

    def test_degree_adds_under_product(self):
        p = IntPolynomial((1, 1))
        q = IntPolynomial((0, 0, 5))
        assert (p * q).degree == p.degree + q.degree

    def test_eval_at_one(self):
        assert IntPolynomial((0, 0, 3, -2)).eval_at_one() == 1
        assert one_minus_t_power(3).eval_at_one() == 0
        assert IntPolynomial().eval_at_one() == 0

    def test_divide_one_minus_t(self):
        p = IntPolynomial((0, 1, -1))  # T(1-T)
        assert p.divide_one_minus_t() == IntPolynomial((0, 1))
        with pytest.raises(ValueError):
            IntPolynomial((1, 1)).divide_one_minus_t()

    def test_scalar_multiplication(self):
        assert 2 * IntPolynomial((1, -1)) == IntPolynomial((2, -2))

    def test_one_minus_t_power(self):
        # (1-T)^m divided by (1-T) m times is 1
        for m in range(8):
            power = one_minus_t_power(m)
            for _ in range(m):
                power = power.divide_one_minus_t()
            assert power == IntPolynomial((1,))

    @given(polys)
    def test_divide_one_minus_t_undoes_product(self, p):
        assert (p * one_minus_t_power(1)).divide_one_minus_t() == p

    @given(polys, polys)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polys, polys)
    def test_eval_at_one_is_ring_homomorphism(self, p, q):
        assert (p * q).eval_at_one() == p.eval_at_one() * q.eval_at_one()
        assert (p + q).eval_at_one() == p.eval_at_one() + q.eval_at_one()
