"""Canonical rational series: expansion, non-negativity, and depth."""

from fractions import Fraction
from itertools import product
from math import comb, prod
from operator import add
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hilbertdepth import series, tails
from hilbertdepth.exactalg import IntPolynomial, binomial
from hilbertdepth.ideals import FAMILIES, GeneratedHatPower, HatPower, MaxPower, Veronese
from hilbertdepth.series import (
    RationalFunctionSeries,
    _search,
    _verdicts,
    canonicalize,
    coefficient,
    expansion,
    hilbert_depth,
    is_nonnegative,
    mul_power_one_minus_t,
)
import reference
from reference import (
    bisection_search,
    evaluate,
    eventual_polynomial,
    expand_by_prefix_sums,
    one_minus_t_power,
    reference_nonnegative,
    reference_verdicts,
)


def rfs(coeffs, den_pow):
    return canonicalize(IntPolynomial(coeffs), den_pow)


def times_power(h, r):
    """(1-T)^r H: past den_pow the numerator takes the surplus factors,
    which mul_power_one_minus_t refuses."""
    if r > h.den_pow:
        return canonicalize(h.numer * one_minus_t_power(r - h.den_pow), 0)
    return mul_power_one_minus_t(h, r)


def tail_series(prefix, a, b, e, shift):
    """H = sum c_k T^k with c_k = prefix[k] on the prefix and
    ((k-a)^2 + b) (k+shift)^e beyond it, as P/(1-T)^m with m = e + 3: past
    the prefix c_k is a polynomial of degree m - 1, so P = (1-T)^m H has
    degree < len(prefix) + m and is read off c_0 .. c_(len(prefix)+m-1)."""
    m = e + 3
    c = [prefix[k] if k < len(prefix) else ((k - a) ** 2 + b) * (k + shift) ** e
         for k in range(len(prefix) + m)]
    numer = [sum((-1) ** i * comb(m, i) * c[j - i] for i in range(min(j, m) + 1))
             for j in range(len(c))]
    return rfs(numer, m)


def plain_walk(diffs, steps=None):
    """The unbounded tail walk: advance the forward-difference table one k at
    a time until every entry is >= 0 (accept) or the first is < 0 (reject).
    Its cost grows with the distance to the last sign change.  With a step
    budget it returns None when the budget runs out undecided."""
    while not all(x >= 0 for x in diffs):
        if steps is not None:
            if steps == 0:
                return None
            steps -= 1
        for j in range(len(diffs) - 1):
            diffs[j] += diffs[j + 1]
        if diffs[0] < 0:
            return False
    return True


def difference_table(values):
    """Forward differences at 0 of the polynomial taking values[x] at x."""
    return [sum((-1) ** (i - x) * comb(i, x) * values[x] for x in range(i + 1))
            for i in range(len(values))]


class TestCanonicalize:
    def test_single_removable_factor(self):
        h = rfs((1, -1), 2)  # (1-T)/(1-T)^2
        assert h.numer == IntPolynomial((1,)) and h.den_pow == 1

    def test_t_times_factor(self):
        h = rfs((0, 1, -1), 3)  # T(1-T)/(1-T)^3
        assert h.numer == IntPolynomial((0, 1)) and h.den_pow == 2

    def test_max_power_numerator(self):
        # 1 - (1+3T)(1-T)^3 = 6T^2 - 8T^3 + 3T^4; value 1 at T=1, no factor
        numer = IntPolynomial((1,)) + -1 * IntPolynomial((1, 3)) * one_minus_t_power(3)
        h = canonicalize(numer, 3)
        assert h.numer == IntPolynomial((0, 0, 6, -8, 3)) and h.den_pow == 3

    def test_zero_numerator(self):
        h = rfs((), 5)
        assert h.numer.is_zero() and h.den_pow == 0

    def test_surplus_factors_stay_in_numerator(self):
        h = rfs((1, -2, 1), 1)  # (1-T)^2/(1-T)
        assert h.numer == IntPolynomial((1, -1)) and h.den_pow == 0

    def test_rejects_negative_den_pow(self):
        # the record's sign check, the zero numerator included
        for numer in (IntPolynomial((1,)), IntPolynomial()):
            with pytest.raises(ValueError, match="denominator power must be non-negative"):
                canonicalize(numer, -1)

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

    def test_beyond_den_is_refused(self):
        # past den_pow the product is a polynomial with a (1-T) factor; a
        # huge r is refused at once, without building (1-T)^r
        for h, r in ((self.H, 4), (self.H, 10**12), (rfs((1, -1), 0), 1), (rfs((), 0), 1)):
            with pytest.raises(ValueError, match="exceeds the denominator power"):
                mul_power_one_minus_t(h, r)

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

    def test_sweep_leaves_binomial_cache_alone(self):
        # one math.comb per term, so a long sweep caches nothing per degree
        h = MaxPower(7, 3).series()
        before = binomial.cache_info().currsize
        values = [coefficient(h, k) for k in range(3000)]
        assert binomial.cache_info().currsize == before
        assert values[2999] == comb(2999 + 6, 6)

    @given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 6))
    def test_matches_prefix_sum_expansion(self, coeffs, den_pow):
        h = rfs(coeffs, den_pow)
        want = expand_by_prefix_sums(h.numer.coefficients, h.den_pow, 50)
        assert [coefficient(h, k) for k in range(51)] == want


class TestExpansion:
    @given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 6),
           st.integers(0, 14))
    @example([], 3, 5)  # the zero series
    @example([1, 2, 3, 4], 0, 2)  # m = 0 and K < deg P
    @example([0, 0, 3, -2], 3, 1)  # K < deg P with m >= 1
    @example([0, 0, 3, -2], 3, 0)
    def test_matches_coefficient(self, coeffs, den_pow, upto):
        h = rfs(coeffs, den_pow)
        assert expansion(h, upto) == [coefficient(h, k) for k in range(upto + 1)]

    def test_every_family_spec(self):
        # every valid spec with n <= 12 whose other parameters are <= n + 1
        for cls in FAMILIES.values():
            for n in range(1, 13):
                for params in product(range(1, n + 2), repeat=len(cls.__slots__) - 1):
                    try:
                        spec = cls(n, *params)
                    except ValueError:
                        continue
                    h = spec.series()
                    for upto in (0, h.numer.degree // 2, h.numer.degree + 5):
                        want = [coefficient(h, k) for k in range(upto + 1)]
                        assert expansion(h, upto) == want, (spec, upto)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            expansion(rfs((1,), 1), -1)


class TestEventualPolynomial:
    """The eventual polynomial behind reference_nonnegative."""

    def test_veronese_example(self):
        h = rfs((0, 0, 3, -2), 3)
        threshold, q = eventual_polynomial(h)
        # q(k) = (k-1)(k+4)/2
        assert threshold == 3
        assert q == (Fraction(-2), Fraction(3, 2), Fraction(1, 2))
        assert evaluate(q, 4) == coefficient(h, 4) == 12
        assert q[-1] == Fraction(1, 2)  # numer(1) / 2!

    def test_geometric_series(self):
        assert eventual_polynomial(rfs((1,), 1)) == (0, (Fraction(1),))

    def test_principal_square(self):
        # T^2/(1-T)^2 has coefficients 0,0,1,2,3,... so q(k) = k-1
        assert eventual_polynomial(rfs((0, 0, 1), 2)) == (2, (Fraction(-1), Fraction(1)))

    def test_polynomial_series_has_zero_eventual_form(self):
        threshold, q = eventual_polynomial(rfs((1, 2), 0))
        assert threshold == 2 and q == ()
        assert evaluate(q, 2) == evaluate(q, 7) == 0

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8), st.integers(1, 6))
    @example(coeffs=[1, -1], den_pow=1)  # (1-T)/(1-T) canonicalizes to den_pow 0
    def test_agrees_with_coefficient_beyond_threshold(self, coeffs, den_pow):
        h = rfs(coeffs, den_pow)
        if h.numer.is_zero():
            return
        threshold, q = eventual_polynomial(h)
        assert len(q) <= h.den_pow
        for k in range(threshold, threshold + 21):
            assert evaluate(q, k) == coefficient(h, k)


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
        if is_nonnegative(times_power(h, r)):
            assert is_nonnegative(times_power(h, r - 1))

    @settings(max_examples=300)
    @given(st.lists(st.integers(-9, 9), max_size=8), st.integers(0, 6))
    @example(coeffs=[0, 7, -20, 17], den_pow=3)  # only c_3 = c_D is negative
    @example(coeffs=[3, 0, 1], den_pow=0)  # m = 0: the row alone decides
    @example(coeffs=[2, -1, 0, 5], den_pow=0)  # m = 0, negative row
    @example(coeffs=[2, -1], den_pow=1)  # m = 1: sums 2, 1, 1, ...; depth 0
    # j = 3 has the row 7, 3, 0 but its table fails (k = 3 gives -2);
    # j = 4 is the first non-negative step, so the depth is 0
    @example(coeffs=[7, -18, 12], den_pow=4)
    def test_matches_brute_force_reference(self, coeffs, den_pow):
        h = rfs(coeffs, den_pow)
        verdict = is_nonnegative(h)
        assert verdict == reference_nonnegative(h)
        if verdict and not h.numer.is_zero():
            assert hilbert_depth(h) == max(
                r for r in range(h.den_pow + 1)
                if reference_nonnegative(mul_power_one_minus_t(h, r)))

    # Ground truth by construction, independent of the search:
    # c_A = b (A+shift)^e is the only coefficient that can be negative.  The
    # tail has degree e + 2 <= 10, so from e = 1 on the closed-form levels
    # feed searched ones.  With b >= 0, c_A < c_(A-1): for b = +1,
    # c_A / c_(A-1) = (1 + 1/(A-1+shift))^e / 2 <= 1.01^8 / 2 < 1
    # (A >= 100, e <= 8), so (1-T)H has a negative coefficient and the
    # depth is 0.  A walk would need about A steps.
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
           st.integers(100, 10**30), st.sampled_from((-1, 0, 1)),
           st.integers(0, 8), st.integers(1, 50))
    @example(prefix=[3, 0, 7], a=10**6, b=1, e=2, shift=5)
    @example(prefix=[1], a=10**9, b=-1, e=1, shift=1)
    @example(prefix=[0, 9], a=10**30, b=0, e=0, shift=50)
    @example(prefix=[8] * 12, a=10**30, b=1, e=2, shift=17)
    @example(prefix=[2], a=10**30, b=1, e=8, shift=1)
    @example(prefix=[2], a=10**30, b=-1, e=8, shift=50)
    @example(prefix=[5, 5], a=100, b=0, e=8, shift=1)
    def test_minimum_far_out(self, prefix, a, b, e, shift):
        h = tail_series(prefix, a, b, e, shift)
        assert is_nonnegative(h) == (b >= 0)
        if b >= 0:
            assert hilbert_depth(h) == 0

    # Ground truth by construction: past the prefix,
    # c_k = ((k-a)^2 + b) (k+shift)^(e-2) has the sign of b at k = a, 1..64
    # steps past the numerator degree D, and is > 0 elsewhere.  A plain
    # walk decides almost all of these tails within 64 steps.  With b = -1
    # the row and P(1) pass, so the search rejects.  With shift = 10^6 the
    # slowly varying factor leaves the minimum at a, so the tail falls from
    # D to a, the table at D is no certificate, and for b >= 0,
    # c_a < c_(a-1) makes the depth 0.  D is len(prefix) + e unless the
    # prefix's last entry happens to equal the polynomial's value there, so
    # that the drawn prefix is not all free; such examples are left out.
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
           st.integers(10, 60), st.integers(1, 64), st.sampled_from((-1, 0, 1)),
           st.sampled_from((1, 10**6)))
    @example(prefix=[1], e=60, offset=64, b=1, shift=10**6)
    @example(prefix=[1], e=60, offset=64, b=-1, shift=1)
    @example(prefix=[5, 0], e=10, offset=1, b=0, shift=10**6)
    def test_minimum_near_numerator_degree(self, prefix, e, offset, b, shift):
        a = len(prefix) + e + offset
        h = tail_series(prefix, a, b, e - 2, shift)
        assume(h.numer.degree == len(prefix) + e)
        assert (h.den_pow - 1, a - h.numer.degree) == (e, offset)
        with mock.patch.object(series, "_search", wraps=series._search) as search:
            assert is_nonnegative(h) == (b >= 0)
        if b < 0 or shift > 1:
            assert search.call_count == 1
        if b >= 0 and shift > 1:
            assert hilbert_depth(h) == 0

    # Tables of q(x) = lead (x-a)^2 prod(x - r) + c with a up to 500: the
    # search must agree with the plain walk, from a table whose first
    # entry has either sign.
    @settings(max_examples=300)
    @given(st.integers(0, 500), st.lists(st.integers(0, 500), max_size=4),
           st.integers(1, 3), st.integers(-3, 3))
    @example(a=64, others=[], lead=1, c=-1)
    @example(a=65, others=[], lead=1, c=0)
    def test_search_matches_plain_walk(self, a, others, lead, c):
        e = 2 + len(others)
        table = difference_table(
            [lead * (x - a) ** 2 * prod(x - r for r in others) + c for x in range(e + 1)])
        want = table[0] >= 0 and plain_walk(table[:])
        assert _search(table) == want


def level_values(t, i, count):
    """f_i(0), ..., f_i(count - 1) for f_i(x) = Delta^i q(b + x), q's
    forward-difference table at b being t, by stepping the table."""
    diffs, values = t[i:], []
    for _ in range(count):
        values.append(diffs[0])
        for j in range(len(diffs) - 1):
            diffs[j] += diffs[j + 1]
    return values


def quadratic_edge_tables():
    """(table, verdict) pairs at the closed forms' edges, each verdict known
    by construction."""
    def table(q, e=2):
        return difference_table([q(x) for x in range(e + 1)])
    return [
        # f_1 = 2x - 6: t[1] divisible by t[2], f_0 flat on its minimum 3, 4
        ([12, -6, 2], True), ([11, -6, 2], False),
        # a double root at the minimum touches 0
        (table(lambda x: (x - 10**20) ** 2), True),
        # real minimum -1/4 between two integer roots: no negative value
        (table(lambda x: (x - 10**9) * (x - 10**9 - 1)), True),
        # square discriminant, integer roots 3 and 10; non-square, 5 +- 2^(1/2)
        (table(lambda x: (x - 3) * (x - 10)), False),
        (table(lambda x: 3 * (x - 3) * (x - 10) + 1), False),
        (table(lambda x: (x - 5) ** 2 - 2), False),
        # f_(e-2)(0) < 0: no falling change, only the rising one
        (table(lambda x: (x + 2) * (x - 3)), False),
        (table(lambda x: (x - 5) ** 2 * (x + 10), 3), True),
        (table(lambda x: (x - 5) ** 2 * (x + 10) - 1, 3), False),
        # A = 10^300, with linear factors below the quadratic levels
        *((table(lambda x, b=b, k=k: ((x - 10**300) ** 2 + b) * (x + 1) ** k, 2 + k), b >= 0)
          for b in (-1, 0, 1) for k in (0, 1, 3)),
    ]


def small_tables():
    """Difference tables of degree 1 to 5 with lower entries of at most 1000
    in absolute value and 1 <= t[e] <= 20."""
    return st.integers(1, 5).flatmap(lambda e: st.builds(
        lambda lower, top: [*lower, top],
        st.lists(st.integers(-1000, 1000), min_size=e, max_size=e), st.integers(1, 20)))


def small_table_reach(t):
    """A point from which every f_i of a small_tables() table is > 0: for
    x >= 2001 e and f_i of degree d <= e,
    C(x, l) / C(x, d) <= (d / (x - d + 1))^(d - l) < 2000^(l - d) for l < d,
    so its lower terms sum to less than 1000 / 1999 of its leading one."""
    return 2001 * (len(t) - 1)


def local_minimum_tables():
    """(table, verdict) pairs where q's least value is 0 or is taken at
    x = 0, each verdict known by construction."""
    def table(q, e):
        return difference_table([q(x) for x in range(e + 1)])
    return [
        # q touches 0 at its minima: 50; 7 and 20
        (table(lambda x: (x - 50) ** 2 * (x + 1) ** 2, 4), True),
        (table(lambda x: (x - 7) ** 2 * (x - 20) ** 2 * (x + 1), 5), True),
        (table(lambda x: (x - 7) ** 2 * (x - 20) ** 2 * (x + 1) - 1, 5), False),
        (table(lambda x: (x - 7) ** 2 * (x + 3), 3), True),
        # q's least value is q(0) = t[0], below its local minimum near 10
        (table(lambda x: x * ((x - 10) ** 2 + 1), 3), True),
        (table(lambda x: x * ((x - 10) ** 2 + 1) - 1, 3), False),
        (table(lambda x: x * ((x - 10) ** 2 + 1) * (x + 2) ** 2, 5), True),
    ]


class TestTailSearch:
    """The tail search: the sign changes of f_(e-1), ..., f_2, the rising
    ones of f_1, and f_0 at those, q's integer local minima."""

    # Random tables of degree 1 to 6 with entries of both signs: the plain
    # walk decides those it settles within 10^4 steps, and the search with
    # bisection on every level the rest.
    @settings(max_examples=200)
    @given(st.integers(1, 6).flatmap(lambda e: st.tuples(
        st.lists(st.integers(-10**40, 10**40), min_size=e, max_size=e),
        st.integers(1, 10**40))))
    @example(([-2, 3], 1))
    @example(([7, -18], 4))
    def test_random_tables_match_walk_or_bisection(self, drawn):
        t = [*drawn[0], drawn[1]]
        want = t[0] >= 0 and plain_walk(t[:], 10**4)
        if want is None:
            want = bisection_search(t)
        assert _search(t) == want

    @pytest.mark.parametrize("table, verdict", quadratic_edge_tables())
    def test_closed_form_edges(self, table, verdict):
        assert _search(table) == verdict

    # The closed form against the sign changes of f_(e-2) read off point by
    # point: every x >= 1 with f(x-1) and f(x) on opposite sides of 0, or
    # with rising only those with f(x-1) < 0.  With entries of at most 1000
    # in absolute value every change lies below 2100.
    @settings(max_examples=200)
    @given(st.integers(2, 4).flatmap(lambda e: st.tuples(
        st.lists(st.integers(-1000, 1000), min_size=e, max_size=e), st.integers(1, 20))))
    @example(([12, -6], 2))
    @example(([-6, -1], 2))
    @example(([3, -1, 0], 2))
    def test_top_changes_point_by_point(self, drawn):
        t = [*drawn[0], drawn[1]]
        signs = [v < 0 for v in level_values(t, len(t) - 3, 2100)]
        changes = [x for x in range(1, 2100) if signs[x - 1] != signs[x]]
        assert tails._top_changes(t, False) == changes
        assert tails._top_changes(t, True) == [x for x in changes if signs[x - 1]]

    # Far out: a quadratic level g(x) = b (x - p)(x - p') + c with |c| <= 10
    # is > 0 below p - 11 and < 0 from p + 11 to p' - 11, so its sign
    # changes lie within 11 of p and of p', read off there point by point.
    @given(st.integers(20, 10**300), st.integers(30, 10**300), st.integers(1, 5),
           st.integers(-10, 10), st.lists(st.integers(-10**40, 10**40), max_size=3))
    @example(p=10**300, gap=10**300, b=1, c=-1, lower=[])
    @example(p=10**30, gap=30, b=5, c=7, lower=[-1, 1])
    def test_top_changes_far_out(self, p, gap, b, c, lower):
        def g(x):
            return b * (x - p) * (x - p - gap) + c
        t = [*lower, g(0), g(1) - g(0), 2 * b]
        changes = [x for end in (p, p + gap) for x in range(end - 10, end + 12)
                   if (g(x - 1) < 0) != (g(x) < 0)]
        assert tails._top_changes(t, False) == changes
        assert tails._top_changes(t, True) == changes[-1:]

    # The linear level costs no evaluation, so e = 1 costs none (the verdict
    # is t[0] >= 0) and e = 2 at most one, of f_0 at f_1's rising change.
    # At e = 3 the quadratic level f_1 costs one at its minimum and one
    # fix-up for its rising change, and f_0 one there: at most three.
    @given(st.integers(1, 3).flatmap(lambda e: st.tuples(
        st.lists(st.integers(-10**40, 10**40), min_size=e, max_size=e),
        st.integers(1, 10**40))))
    @example(([12, -6], 2))
    @example(([10**18, -2 * 10**9], 1))
    @example(([1, 10**18, -2 * 10**9], 1))
    def test_closed_forms_evaluate_at_most_three_times(self, drawn):
        t = [*drawn[0], drawn[1]]
        with mock.patch.object(tails, "_negative", wraps=tails._negative) as negative:
            verdict = _search(t)
        assert negative.call_count <= (0, 1, 3)[len(t) - 2]
        assert verdict == bisection_search(t)

    # The verdict against q's values read off point by point up to where
    # every f_i is > 0, which holds every sign change.
    @given(small_tables())
    @example([0, -1, 1])
    @example([-1, 5, 1])
    @example([5, -6, 0, 1])
    def test_small_tables_point_by_point(self, t):
        assert _search(t) == (min(level_values(t, 0, small_table_reach(t) + 1)) >= 0)

    # q's least value is at 0, read as t[0], or where f_1 rises, so level 0
    # evaluates f_0 only there: at most once per rising change of f_1, and
    # never between (no bisection).  No level evaluates f_i(0) = t[i].
    @given(small_tables())
    @example([1, -30, 1, 1])
    @example([150, -1, -20, 0, 1])
    @example([0, 0, 3, -1, 1])
    @example([0, -1, 3, 1])
    def test_level_zero_evaluates_only_where_f1_rises(self, t):
        f1 = [v < 0 for v in level_values(t, 1, small_table_reach(t) + 1)]
        rising = {x for x in range(1, len(f1)) if f1[x - 1] and not f1[x]}
        with mock.patch.object(tails, "_negative", wraps=tails._negative) as negative:
            _search(t)
        assert 0 not in [c.args[2] for c in negative.call_args_list]
        level0 = [c.args[2] for c in negative.call_args_list if c.args[1] == 0]
        assert len(level0) == len(set(level0)) and set(level0) <= rising

    @pytest.mark.parametrize("table, verdict", local_minimum_tables())
    def test_local_minimum_edges(self, table, verdict):
        assert _search(table) == verdict == bisection_search(table)

    # ((x - 1000)^2 + b)(x + 1)^2 rises to a maximum near 500 and falls to
    # its minimum near 1000.  f_1's only rising change, near 1000, lies past
    # both of f_2's (near 210 and 788), in the unbounded last interval of
    # level 1.
    @pytest.mark.parametrize("b", (-1, 0, 1))
    def test_rising_change_past_last_f2_change(self, b):
        t = difference_table([((x - 1000) ** 2 + b) * (x + 1) ** 2 for x in range(5)])
        f1, f2 = ([v < 0 for v in level_values(t, i, 1100)] for i in (1, 2))
        rising = [x for x in range(1, 1100) if f1[x - 1] and not f1[x]]
        assert len(rising) == 1 and rising[0] > max(x for x in range(1, 1100) if f2[x - 1] != f2[x])
        assert _search(t) == (b >= 0)

    # (x - 10)^2 (x - 30)^2 + b has minima at 10 and 30 and a maximum at 20,
    # where f_1 falls.  f_1 is monotone between f_2's sign changes p < p'
    # around 20, so level 1 evaluates it at p and p' and nowhere between.
    @pytest.mark.parametrize("b", (-1, 0, 1))
    def test_falling_change_not_searched(self, b):
        t = difference_table([(x - 10) ** 2 * (x - 30) ** 2 + b for x in range(5)])
        f2 = [v < 0 for v in level_values(t, 2, 60)]
        p, p2 = [x for x in range(1, 60) if f2[x - 1] != f2[x]]
        with mock.patch.object(tails, "_negative", wraps=tails._negative) as negative:
            assert _search(t) == (b >= 0)
        level1 = [c.args[2] for c in negative.call_args_list if c.args[1] == 1]
        assert {p, p2} <= set(level1) and not [x for x in level1 if p < x < p2]


class TestScanCarry:
    """The scan carries the first possibly negative row index p from one j
    to the next; these cases move p, stop it, and start it late."""

    # rows of P / (1-T)^j for P = (1, -1, -1, -1, 3):
    #   j = 0: 1, -1, -1, -1, 3    first negative at 1
    #   j = 1: 1,  0, -1, -2, 1    at 2
    #   j = 2: 1,  1,  0, -2, -1   at 3
    #   j = 3: 1,  2,  2,  0, -1   at 4
    #   j = 4: 1,  3,  5,  5, 4    none, P(1) = 1, the tail passes
    MOVING = (1, -1, -1, -1, 3)

    def test_first_negative_index_moves_right(self):
        assert list(_verdicts(self.MOVING, 6)) == [False] * 4 + [True] * 3
        assert hilbert_depth(rfs(self.MOVING, 6)) == 2
        for j in range(7):
            assert reference_nonnegative(rfs(self.MOVING, j)) == (j >= 4)

    def test_first_equal_to_m_is_is_nonnegative(self):
        # each j judged alone, as the last step of a scan started at first = j
        for j in range(7):
            h = rfs(self.MOVING, j)
            assert list(_verdicts(self.MOVING, j, j)) == [is_nonnegative(h)] == [j >= 4]
        assert list(_verdicts(self.MOVING, 6, 2)) == [False, False, True, True, True]

    def test_row_nonnegative_but_tail_table_rejects(self):
        # rows 7,-18,12 / 7,-11,1 / 7,-4,-3 keep p at 1; at j = 3 the row
        # 7,3,0 passes but the tail (k-2)(k-7)/2 reaches -2 at k = 3
        assert list(_verdicts((7, -18, 12), 4)) == [False] * 4 + [True]
        assert not is_nonnegative(rfs((7, -18, 12), 3))
        assert hilbert_depth(rfs((7, -18, 12), 4)) == 0

    def test_row_nonnegative_but_eventually_negative(self):
        # at j = 2 the row 0,0,1,0 passes but P(1) = -1 < 0
        assert list(_verdicts((0, 0, 1, -2), 2)) == [False] * 3
        assert not is_nonnegative(rfs((0, 0, 1, -2), 2))
        with pytest.raises(ValueError):
            hilbert_depth(rfs((0, 0, 1, -2), 2))

    def test_zero_series(self):
        # the empty row: p starts at its length
        assert list(_verdicts((), 0)) == [True]
        # zero coefficients leave no first nonzero one to start the row at
        assert is_nonnegative(rfs((0, 0, 0), 0))

    # T^v P / (1-T)^j and P / (1-T)^j are non-negative together, so the
    # scan starts its row at P's first nonzero coefficient
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(any),
           st.integers(0, 6), st.integers(0, 6))
    @example(coeffs=[0, 7, -20, 17], v=3, m=3)
    @example(coeffs=[7, -18, 12], v=6, m=4)
    def test_leading_zeros_change_no_verdict(self, coeffs, v, m):
        h, shifted = rfs(coeffs, m), rfs([0] * v + coeffs, m)
        assert shifted.den_pow == h.den_pow
        assert (list(_verdicts(shifted.numer.coefficients, h.den_pow))
                == list(_verdicts(h.numer.coefficients, h.den_pow)))
        assert is_nonnegative(shifted) == is_nonnegative(h)
        if is_nonnegative(h):
            assert hilbert_depth(shifted) == hilbert_depth(h)


class TestMovingBase:
    """The scan holds only the coefficients below the base b = D - j + 1 and
    moves its table to base D at most once; it must give the verdicts of
    the full-row scan and hand the search the same tables, in the same
    order."""

    @staticmethod
    def traffic(scan, module, numer, m, first):
        tables = []

        def record(t):
            tables.append(list(t))
            return tails.search(t)

        with mock.patch.object(module, "_search", record):
            verdicts = list(scan(numer, m, first))
        return verdicts, tables

    @settings(max_examples=500)
    @given(st.integers(0, 3), st.lists(st.integers(-9, 9), min_size=1, max_size=8),
           st.integers(0, 10), st.integers(0, 12))
    # m > D + 1: b reaches 0, the table takes Pascal steps, then moves
    @example(v=0, coeffs=[1, -4, 5, 4], m=7, first=5)
    # the move at j = first, from b = 1, and a search at j = 4 and j = 5
    @example(v=2, coeffs=[3, -5, -2, 3, 4], m=5, first=4)
    # the move at j = 4 from b = 2 meets c_4(3) < 0, inside [b, D)
    @example(v=2, coeffs=[1, -1, -4, 5, -5, -1], m=8, first=2)
    # P(1) < 0: the row 1, 3, 0 passes at j = 1 and the move rejects
    @example(v=1, coeffs=[1, 2, -3, -4], m=5, first=1)
    # after the move the row stops below D: c_j(D) < 0 is the table's front,
    # and a step whose row passes must still reject without a search
    @example(v=0, coeffs=[3, -9, 7], m=8, first=0)
    def test_matches_full_row_scan(self, v, coeffs, m, first):
        numer = (0,) * v + tuple(coeffs)
        # canonical: m >= 1 implies P(1) != 0, which the search needs
        assume(m == 0 or sum(numer))
        assert (self.traffic(_verdicts, series, numer, m, first)
                == self.traffic(reference_verdicts, reference, numer, m, first))


class TestCertificateTraffic:
    """Every family table is accepted by Newton's certificate at the low
    base b = D - j + 1 or rejected by its row, so no family depth scan
    makes a Pascal step (at base 0, or after a move to base D) or reaches
    the search."""

    @staticmethod
    def scan(series_list):
        # every table addition is a Pascal step, at base 0 or after the move
        # to base D; the pops at the moving base make none
        with mock.patch.object(series, "_search", wraps=series._search) as search, \
                mock.patch.object(series, "add", wraps=add) as pascal:
            depths = [(hilbert_depth(h), h.den_pow) for h in series_list]
        assert search.call_count == 0 and pascal.call_count == 0
        # a depth below den_pow means the scan accepted a nonempty table
        assert any(depth < den_pow for depth, den_pow in depths)

    def test_every_family_spec_up_to_40(self):
        # HatPower(n, t, s) has MaxPower(n - t + 1, s)'s series and MaxPower
        # is GeneratedHatPower with t = 1, so Veronese and GeneratedHatPower
        # with n <= 40 and s <= n + 1 give every distinct family series
        self.scan([Veronese(n, d).series() for n in range(1, 41) for d in range(1, n + 1)]
                  + [GeneratedHatPower(n, t, s).series() for n in range(1, 41)
                     for t in range(1, n + 1) for s in range(1, n + 2)])

    def test_pascal_hook_is_live(self):
        # this scan moves its table to base D and searches there
        h = canonicalize(IntPolynomial((3, -9, 7)), 8)
        with mock.patch.object(series, "add", wraps=add) as pascal:
            assert hilbert_depth(h) == 1
        assert pascal.call_count > 0

    # the extreme shapes of the benchmark's depth-large scans: deep ones
    # with s = 3 or d = 3, and shallow ones with s within 8 of n
    def test_depth_large_shapes(self):
        self.scan([spec.series() for spec in (
            MaxPower(240, 3), Veronese(198, 3), Veronese(202, 3),
            HatPower(228, 18, 3), HatPower(232, 22, 3),
            GeneratedHatPower(198, 28, 3), GeneratedHatPower(202, 32, 3),
            MaxPower(396, 388), MaxPower(404, 404),
            GeneratedHatPower(396, 2, 386), GeneratedHatPower(404, 4, 400))])


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
