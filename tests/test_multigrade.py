"""Fine series, membership, and enumeration oracles."""

import pytest

from hilbertdepth.ideals import (
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
    series_for,
)
from hilbertdepth.multigrade import (
    MultiSeries,
    degree_compositions,
    fine_series_formula,
    fine_series_oracle,
    hilbert_function_oracle,
    membership,
)
from hilbertdepth.series import coefficient


def all_specs(n_max, s_max):
    specs = []
    for n in range(1, n_max + 1):
        specs.extend(Veronese(n, d) for d in range(1, n + 1))
        specs.extend(MaxPower(n, s) for s in range(1, s_max + 1))
        for t in range(1, n + 1):
            specs.extend(HatPower(n, t, s) for s in range(1, s_max + 1))
            specs.extend(GeneratedHatPower(n, t, s) for s in range(1, s_max + 1))
    return specs


class TestMembership:
    def test_veronese_support_count(self):
        assert membership(Veronese(3, 2), (1, 0, 2)) == 1
        assert membership(Veronese(3, 2), (0, 0, 5)) == 0

    def test_max_power_total_degree(self):
        assert membership(MaxPower(3, 2), (1, 0, 0)) == 0
        assert membership(MaxPower(3, 2), (1, 1, 0)) == 1

    def test_hat_power_lives_in_fewer_variables(self):
        assert membership(HatPower(3, 2, 2), (1, 1)) == 1
        with pytest.raises(ValueError):
            membership(HatPower(3, 2, 2), (1, 1, 0))

    def test_generated_hat_power_ignores_tail_variables(self):
        assert membership(GeneratedHatPower(3, 2, 2), (1, 1, 5)) == 1
        assert membership(GeneratedHatPower(3, 2, 2), (1, 0, 5)) == 0

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            membership(Veronese(3, 2), (1, 0))
        with pytest.raises(ValueError):
            membership(Veronese(3, 2), (1, 0, -1))


class TestDegreeCompositions:
    def test_counts(self):
        import math
        for total in range(6):
            for parts in range(1, 5):
                got = list(degree_compositions(total, parts))
                assert len(got) == math.comb(total + parts - 1, parts - 1)
                assert all(sum(a) == total for a in got)
                assert len(set(got)) == len(got)

    def test_lexicographic_order(self):
        got = list(degree_compositions(2, 2))
        assert got == sorted(got)


class TestHilbertFunctionOracle:
    def test_veronese_degree_three(self):
        # 10 degree-3 monomials in 3 variables minus the 3 pure cubes
        assert hilbert_function_oracle(Veronese(3, 2), 3) == 7

    def test_max_power_degree_two(self):
        # all C(4, 2) monomials of degree 2 qualify
        assert hilbert_function_oracle(MaxPower(3, 2), 2) == 6

    def test_veronese_degree_one_empty(self):
        assert hilbert_function_oracle(Veronese(3, 2), 1) == 0

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            hilbert_function_oracle(MaxPower(12, 1), 50)

    def test_matches_coarse_coefficients(self):
        for spec in all_specs(4, 3):
            h = series_for(spec)
            for k in range(9):
                assert hilbert_function_oracle(spec, k) == coefficient(h, k), (spec, k)


class TestMultiSeries:
    def test_index_round_trip(self):
        ms = MultiSeries.from_function(2, 2, lambda a: 10 * a[0] + a[1])
        for alpha in ms.exponents():
            assert ms.coefficient(alpha) == 10 * alpha[0] + alpha[1]

    def test_coarse_sums(self):
        ms = MultiSeries.from_function(2, 2, lambda a: 1)
        assert ms.coarse_sums(2) == [1, 2, 3]
        with pytest.raises(ValueError):
            ms.coarse_sums(5)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MultiSeries(2, 1, (1, 0, 0))


class TestFineSeries:
    def test_veronese_whole_maximal_ideal(self):
        ms = fine_series_formula(Veronese(2, 1), 2)
        for alpha in ms.exponents():
            assert ms.coefficient(alpha) == (0 if alpha == (0, 0) else 1)

    def test_veronese_box_one_corners(self):
        ms = fine_series_formula(Veronese(3, 2), 1)
        for alpha in ms.exponents():
            assert ms.coefficient(alpha) == (1 if sum(alpha) >= 2 else 0)

    def test_max_power_low_degrees_vanish(self):
        ms = fine_series_formula(MaxPower(2, 2), 2)
        for alpha in ms.exponents():
            assert ms.coefficient(alpha) == (0 if sum(alpha) < 2 else 1)

    def test_formula_matches_oracle_everywhere(self):
        for spec in all_specs(3, 3):
            for box in (0, 1, 2, 3):
                assert fine_series_formula(spec, box) == fine_series_oracle(spec, box), spec

    def test_generated_hat_is_hat_times_geometric_tail(self):
        spec = GeneratedHatPower(3, 2, 2)
        gen = fine_series_formula(spec, 2)
        hat = fine_series_formula(HatPower(3, 2, 2), 2)
        # appending any exponent of the last variable never changes membership
        for alpha in hat.exponents():
            for e in range(3):
                assert gen.coefficient(alpha + (e,)) == hat.coefficient(alpha)

    def test_guards(self):
        with pytest.raises(ValueError):
            fine_series_formula(MaxPower(6, 2), 2)
        with pytest.raises(ValueError):
            fine_series_oracle(MaxPower(3, 2), 7)

    def test_fine_coarse_consistency(self):
        # summing the box over a total degree k <= box reproduces the
        # enumerated Hilbert function and the closed-form coefficient
        for spec in all_specs(3, 2):
            for box in (1, 2, 3):
                ms = fine_series_oracle(spec, box)
                sums = ms.coarse_sums(box)
                h = series_for(spec)
                for k in range(box + 1):
                    assert sums[k] == hilbert_function_oracle(spec, k)
                    assert sums[k] == coefficient(h, k)
