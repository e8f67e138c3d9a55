"""Series constructors and closed depth formulas for the four families."""

from functools import cache
from itertools import dropwhile
from math import comb
from operator import not_

import pytest

from hilbertdepth.exactalg import IntPolynomial
from hilbertdepth.ideals import (
    DepthReport,
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
    depth_report,
)
from hilbertdepth.identities import _veronese_series
from hilbertdepth.series import (
    canonicalize,
    coefficient,
    hilbert_depth,
    is_nonnegative,
    mul_power_one_minus_t,
)
from hilbertdepth.exactalg import binomial
from reference import (
    one_minus_t_power,
    power_numerator,
    reference_nonnegative,
    t_power,
    veronese_alt_numerator,
    veronese_numerator,
)


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
        h = Veronese(3, 2).series()
        assert h.numer == IntPolynomial((0, 0, 3, -2)) and h.den_pow == 3
        # enumeration: 7 of 10 degree-3 monomials have support >= 2
        assert coefficient(h, 3) == 7

    def test_principal_ideal(self):
        for n in range(1, 8):
            h = Veronese(n, n).series()
            assert h.numer == t_power(n) and h.den_pow == n

    def test_whole_maximal_ideal(self):
        h = Veronese(2, 1).series()
        assert h.numer == IntPolynomial((0, 2, -1)) and h.den_pow == 2
        # everything but the empty monomial: C(k+1, 1) + ... = k+1 in 2 vars
        assert [coefficient(h, k) for k in range(5)] == [0, 2, 3, 4, 5]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Veronese(3, 4).series()
        with pytest.raises(ValueError):
            Veronese(3, 0).series()

    # the second presentation is the numerator that the identities module
    # carries along n; called with one carry in sweep order it takes the
    # carried path, and out of it, in reverse, the path summed from scratch
    def test_alt_presentation_agrees(self):
        pairs = [(n, d) for n in range(1, 13) for d in range(1, n + 1)]
        carry = {}
        for n, d in pairs[::-1] + pairs:
            assert Veronese(n, d).series() == _veronese_series(n, d, carry), (n, d)

    def test_alt_principal_single_term(self):
        h = _veronese_series(4, 4)
        assert h.numer == t_power(4) and h.den_pow == 4

    def test_alt_matches_product_route(self):
        # sum_{i=d-1..n-1} C(i,d-1) T^d (1-T)^(i-d+1), one product per term
        pairs = [(n, d) for n in range(1, 41) for d in range(1, n + 1)]
        numers = {}
        for n, d in pairs:
            numer = IntPolynomial()
            for i in range(d - 1, n):
                numer = numer + comb(i, d - 1) * (t_power(d) * one_minus_t_power(i - d + 1))
            numers[n, d] = numer
        carry = {}
        for n, d in pairs[::-1] + pairs:
            h = _veronese_series(n, d, carry)
            assert h.numer == numers[n, d] and h.den_pow == n, (n, d)


class TestMaxPowerSeries:
    def test_hand_expansion(self):
        h = MaxPower(3, 2).series()
        assert h.numer == IntPolynomial((0, 0, 6, -8, 3)) and h.den_pow == 3
        assert coefficient(h, 2) == 6  # C(4, 2)

    def test_power_one_is_whole_ideal(self):
        # the Veronese side from its closed-form terms, not the numerator kernel
        assert MaxPower(2, 1).series() == canonicalize(veronese_numerator(2, 1), 2)

    def test_coefficients_are_truncated_free_module(self):
        for n in range(1, 6):
            for s in range(1, 5):
                h = MaxPower(n, s).series()
                for k in range(12):
                    want = binomial(n + k - 1, n - 1) if k >= s else 0
                    assert coefficient(h, k) == want

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MaxPower(3, 0).series()

    @pytest.mark.parametrize("cls", [MaxPower, HatPower, GeneratedHatPower],
                             ids=lambda cls: cls.family)
    def test_closed_form_matches_product_route(self, cls):
        # the product route in span = n-t+1 variables, over the ambient ring:
        # 1 - (sum_{k<s} C(span+k-1,k) T^k) * (1-T)^span
        n_max, s_max = (60, 69) if cls is MaxPower else (24, 24)
        for n in range(1, n_max + 1):
            for t in range(1, 2 if cls is MaxPower else n + 1):
                span = n - t + 1
                ambient = span if cls is HatPower else n
                for s in range(1, s_max + 1):
                    spec = MaxPower(n, s) if cls is MaxPower else cls(n, t, s)
                    low = IntPolynomial(tuple(binomial(span + k - 1, k) for k in range(s)))
                    numer = IntPolynomial((1,)) + -1 * low * one_minus_t_power(span)
                    assert spec.series() == canonicalize(numer, ambient), spec


class TestNumeratorRecurrence:
    """Each numerator is built term by term from the one before it; every
    term must equal its closed-form product of binomials."""

    def test_every_spec_up_to_40(self):
        # every valid spec with n <= 40 whose other parameters are <= n + 1;
        # the power families share one numerator per (span, s)
        want = cache(power_numerator)
        for n in range(1, 41):
            for d in range(1, n + 1):
                assert Veronese(n, d).series().numer == veronese_numerator(n, d)
            for s in range(1, n + 2):
                assert MaxPower(n, s).series().numer == want(n, s)
                for t in range(1, n + 1):
                    assert HatPower(n, t, s).series().numer == want(n - t + 1, s)
                    assert GeneratedHatPower(n, t, s).series().numer == want(n - t + 1, s)

    # the two shallow depth-large scans and a numerator of 1200 terms
    @pytest.mark.parametrize("spec", [MaxPower(404, 397), GeneratedHatPower(404, 2, 398),
                                      MaxPower(1200, 1190)], ids=str)
    def test_large_specs(self, spec):
        h = spec.series()
        assert h.numer == power_numerator(spec.span, spec.s)
        assert h.den_pow == spec.ambient


class TestHatPowerSeries:
    def test_hand_expansion(self):
        h = HatPower(3, 2, 2).series()
        assert h.numer == IntPolynomial((0, 0, 3, -2)) and h.den_pow == 2

    def test_no_cut_equals_max_power(self):
        for n in range(1, 8):
            for s in range(1, 4):
                assert HatPower(n, 1, s).series() == canonicalize(power_numerator(n, s), n)

    def test_single_variable(self):
        for n in range(1, 6):
            for s in range(1, 5):
                h = HatPower(n, n, s).series()
                assert h.numer == t_power(s) and h.den_pow == 1

    def test_family_coherence(self):
        for n in range(1, 31):
            for t in range(1, n + 1):
                for s in (1, 2, 3):
                    span = n - t + 1
                    want = canonicalize(power_numerator(span, s), span)
                    assert HatPower(n, t, s).series() == want


class TestGeneratedHatPowerSeries:
    def test_hand_expansion(self):
        h = GeneratedHatPower(3, 2, 2).series()
        assert h.numer == IntPolynomial((0, 0, 3, -2)) and h.den_pow == 3
        assert h == canonicalize(veronese_alt_numerator(3, 2), 3)

    def test_no_cut_equals_max_power(self):
        for n in range(1, 8):
            for s in range(1, 4):
                want = canonicalize(power_numerator(n, s), n)
                assert GeneratedHatPower(n, 1, s).series() == want

    def test_matches_transformed_hat_series(self):
        for n in range(1, 12):
            for t in range(1, n + 1):
                for s in (1, 2, 3):
                    want = mul_power_one_minus_t(HatPower(n, t, s).series(), -(t - 1))
                    assert GeneratedHatPower(n, t, s).series() == want

    def test_veronese_link_over_sweep(self):
        # the Veronese side from the second presentation's terms, which share
        # no code with the numerator kernel that builds both family series
        for n in range(1, 16):
            for d in range(1, n + 1):
                want = canonicalize(veronese_alt_numerator(n, d), n)
                assert GeneratedHatPower(n, d, d).series() == want, (n, d)


def family_specs(n_max):
    """Every family spec with n <= n_max and s <= n + 2."""
    for n in range(1, n_max + 1):
        yield from (Veronese(n, d) for d in range(1, n + 1))
        for s in range(1, n + 3):
            yield MaxPower(n, s)
            for t in range(1, n + 1):
                yield HatPower(n, t, s)
                yield GeneratedHatPower(n, t, s)


@cache
def two_lowest_terms(numerator, *args):
    """Q_0, Q_1 and P(1) of the reference numerator P = T^v Q; Q_1 = 0 when
    Q has one term."""
    p = numerator(*args).coefficients
    q = list(dropwhile(not_, p)) + [0]
    return q[0], q[1], sum(p)


def two_term_depth(spec):
    """m - max(0, ceil(-Q_1/Q_0)) for the spec's series P/(1-T)^m."""
    if spec.family == "veronese":
        q0, q1, at_one = two_lowest_terms(veronese_numerator, spec.n, spec.d)
    else:
        q0, q1, at_one = two_lowest_terms(power_numerator, spec.span, spec.s)
    # P(1) = 1, so P/(1-T)^ambient is canonical and m is the ambient count
    assert at_one == 1, spec
    return spec.ambient - max(0, -(q1 // q0))


def taylor_shift(coefficients):
    """Coefficients of p(T+1), lowest degree first, by repeated synthetic
    division: O(deg^2) additions."""
    a = list(coefficients)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


class TestClosedDepthFormulas:
    def test_veronese_instances(self):
        assert Veronese(6, 2).closed_depth() == 3
        assert Veronese(3, 2).closed_depth() == 2
        for n in range(1, 10):
            assert Veronese(n, n).closed_depth() == n

    def test_max_power_instances(self):
        assert MaxPower(10, 3).closed_depth() == 3
        assert MaxPower(3, 2).closed_depth() == 1
        for n in range(1, 8):
            for s in range(n, n + 4):
                assert MaxPower(n, s).closed_depth() == 1

    def test_depth_formula_agreement_small_sweep(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                assert hilbert_depth(Veronese(n, d).series()) == Veronese(n, d).closed_depth()
            for s in range(1, n + 1):
                assert hilbert_depth(MaxPower(n, s).series()) == MaxPower(n, s).closed_depth()

    def test_two_term_law(self):
        # T^v Q / (1-T)^j has Q_1 + j Q_0 at T^(v+1), so no depth exceeds
        # m - ceil(-Q_1/Q_0); every family depth equals it.  Q comes from
        # the reference numerators alone, never from the library's kernel
        for spec in family_specs(40):
            assert two_term_depth(spec) == spec.closed_depth(), spec
        for spec in family_specs(20):
            assert two_term_depth(spec) == hilbert_depth(spec.series()), spec

    def test_bernstein_form(self):
        # P = T^v Q with Q = sum_{r=0..D} C(N, r) T^(D-r) (1-T)^r: Q's
        # reversal is sum_r C(N, r) (T-1)^r, so shifted by 1 it has the
        # coefficients C(N, r), N = span + s - 1, or n for Veronese.  These
        # are the entries of every family table of the depth scan at its
        # moving base, hence non-negative.  Q comes from the reference
        # numerators alone, never from the library's kernel
        numerators = [(power_numerator(span, s), span + s - 1)
                      for span in range(1, 41) for s in range(1, 43)]
        numerators += [(veronese_numerator(n, d), n)
                       for n in range(1, 41) for d in range(1, n + 1)]
        for p, big_n in numerators:
            q = list(dropwhile(not_, p.coefficients))
            assert taylor_shift(q[::-1]) == [comb(big_n, r) for r in range(len(q))], p

    @pytest.mark.parametrize("spec", [MaxPower(800, 3), Veronese(800, 2)])
    def test_deep_scan_at_scale(self, spec):
        # depths 200 and 268: one prefix-sum pass, not one pass per probe
        assert hilbert_depth(spec.series()) == spec.closed_depth()

    def test_all_families_nonnegative(self):
        for n in range(1, 9):
            for d in range(1, n + 1):
                assert is_nonnegative(Veronese(n, d).series())
            for s in (1, 2, 3):
                assert is_nonnegative(MaxPower(n, s).series())
                for t in range(1, n + 1):
                    assert is_nonnegative(HatPower(n, t, s).series())
                    assert is_nonnegative(GeneratedHatPower(n, t, s).series())


class TestDepthReport:
    def test_report_veronese(self):
        rep = depth_report(Veronese(6, 2))
        assert rep.computed_depth == 3 and rep.closed_form_depth == 3 and rep.agree

    def test_report_all_families(self):
        for spec in (Veronese(5, 2), MaxPower(5, 3), HatPower(5, 2, 2),
                     GeneratedHatPower(5, 2, 2)):
            rep = depth_report(spec)
            assert rep.agree
            assert rep.series == spec.series()
            assert rep.closed_form_depth == spec.closed_depth()

    def test_generated_depth_shifts_hat_depth(self):
        # the hat side by the definition of Hilbert depth, not by the scan;
        # the brute-force expansion behind it grows fast past n = 9
        for n in range(1, 10):
            for t in range(1, n + 1):
                for s in (1, 2):
                    h = HatPower(n, t, s).series()
                    hat = max(r for r in range(h.den_pow + 1)
                              if reference_nonnegative(mul_power_one_minus_t(h, r)))
                    gen = hilbert_depth(GeneratedHatPower(n, t, s).series())
                    assert gen == hat + t - 1
                    assert GeneratedHatPower(n, t, s).closed_depth() == gen

    def test_inconsistent_report_rejected(self):
        # agree is derived, so a report cannot state it apart from the depths
        h = canonicalize(IntPolynomial((1,)), 2)
        assert not DepthReport(Veronese(2, 1), h, 1, 2).agree
        assert DepthReport(Veronese(2, 1), h, 2, 2).agree
        with pytest.raises(TypeError):
            DepthReport(Veronese(2, 1), h, 1, 2, agree=True)
