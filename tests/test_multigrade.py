"""Fine series, membership, and enumeration oracles."""

import pytest

from hilbertdepth.ideals import (
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
)
from hilbertdepth.multigrade import (
    MultiSeries,
    degree_compositions,
    fine_series_formula,
    fine_series_oracle,
    hilbert_function_oracle,
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


def coefficients(ms):
    """The box's coefficients keyed by exponent vector."""
    return dict(zip(ms.exponents(), ms.coeffs))


class TestMembership:
    def test_veronese_support_count(self):
        assert Veronese(3, 2).member((1, 0, 2))
        assert not Veronese(3, 2).member((0, 0, 5))

    def test_max_power_total_degree(self):
        assert not MaxPower(3, 2).member((1, 0, 0))
        assert MaxPower(3, 2).member((1, 1, 0))

    def test_hat_power_lives_in_fewer_variables(self):
        assert HatPower(3, 2, 2).ambient == 2
        assert HatPower(3, 2, 2).member((1, 1))

    def test_generated_hat_power_ignores_tail_variables(self):
        assert GeneratedHatPower(3, 2, 2).member((1, 1, 5))
        assert not GeneratedHatPower(3, 2, 2).member((1, 0, 5))


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
            h = spec.series()
            for k in range(9):
                assert hilbert_function_oracle(spec, k) == coefficient(h, k), (spec, k)


class TestMultiSeries:
    def test_index_round_trip(self):
        # alpha sits at flat index sum_i alpha_i (box+1)^(num_vars-1-i), the
        # strides fine_series_formula addresses the box with
        ms = MultiSeries.from_function(3, 2, lambda a: 100 * a[0] + 10 * a[1] + a[2])
        for alpha in ms.exponents():
            assert ms.coeffs[9 * alpha[0] + 3 * alpha[1] + alpha[2]] == \
                100 * alpha[0] + 10 * alpha[1] + alpha[2]

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
        for alpha, c in coefficients(ms).items():
            assert c == (0 if alpha == (0, 0) else 1)

    def test_veronese_box_one_corners(self):
        ms = fine_series_formula(Veronese(3, 2), 1)
        for alpha, c in coefficients(ms).items():
            assert c == (1 if sum(alpha) >= 2 else 0)

    def test_max_power_low_degrees_vanish(self):
        ms = fine_series_formula(MaxPower(2, 2), 2)
        for alpha, c in coefficients(ms).items():
            assert c == (0 if sum(alpha) < 2 else 1)

    def test_formula_matches_oracle_everywhere(self):
        for spec in all_specs(3, 3):
            for box in (0, 1, 2, 3):
                assert fine_series_formula(spec, box) == fine_series_oracle(spec, box), spec

    def test_power_at_and_far_beyond_the_box_degree(self):
        # the box holds degrees up to span * box only; powers around and far
        # past that bound must match the oracle without walking up to s
        for box in (0, 1, 2):
            for cls, head, span in ((MaxPower, (3,), 3), (HatPower, (4, 2), 3),
                                    (GeneratedHatPower, (3, 2), 2)):
                for s in (span * box, span * box + 1, span * box + 2, 10**6, 10**30):
                    spec = cls(*head, max(s, 1))
                    assert fine_series_formula(spec, box) == fine_series_oracle(spec, box), spec

    def test_generated_hat_is_hat_times_geometric_tail(self):
        spec = GeneratedHatPower(3, 2, 2)
        gen = fine_series_formula(spec, 2)
        hat = fine_series_formula(HatPower(3, 2, 2), 2)
        gen, hat = coefficients(gen), coefficients(hat)
        # appending any exponent of the last variable never changes membership
        for alpha in hat:
            for e in range(3):
                assert gen[alpha + (e,)] == hat[alpha]

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
                h = spec.series()
                for k in range(box + 1):
                    assert sums[k] == hilbert_function_oracle(spec, k)
                    assert sums[k] == coefficient(h, k)
