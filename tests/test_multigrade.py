"""Fine series, membership, and the ring oracle."""

import math
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertdepth.ideals import (
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
)
import hilbertdepth.multigrade as multigrade
from hilbertdepth.multigrade import (
    COMPOSITION_CHUNK,
    MultiSeries,
    degree_compositions,
    fine_series_formula,
    ring_oracle,
)
from hilbertdepth.series import coefficient

from reference import (
    coarse_sums,
    member_box,
    member_counts,
    power_fine_by_compositions,
    veronese_fine_by_subsets,
)

FAMILY_CLASSES = (Veronese, MaxPower, HatPower, GeneratedHatPower)


def all_specs(n_max, s_max):
    specs = []
    for n in range(1, n_max + 1):
        specs.extend(Veronese(n, d) for d in range(1, n + 1))
        specs.extend(MaxPower(n, s) for s in range(1, s_max + 1))
        for t in range(1, n + 1):
            specs.extend(HatPower(n, t, s) for s in range(1, s_max + 1))
            specs.extend(GeneratedHatPower(n, t, s) for s in range(1, s_max + 1))
    return specs


@st.composite
def specs_and_points(draw):
    """A spec of any family with n <= 6 and s <= 8, and an exponent vector
    of its ring with zeros, small and very large entries."""
    n = draw(st.integers(1, 6))
    cls = draw(st.sampled_from(FAMILY_CLASSES))
    if cls is Veronese:
        spec = Veronese(n, draw(st.integers(1, n)))
    elif cls is MaxPower:
        spec = MaxPower(n, draw(st.integers(1, 8)))
    else:
        spec = cls(n, draw(st.integers(1, n)), draw(st.integers(1, 8)))
    entries = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 10**30))
    return spec, tuple(draw(st.lists(entries, min_size=spec.ambient,
                                     max_size=spec.ambient)))


def rings_of(specs):
    """specs grouped by ring size, in order."""
    rings = {}
    for spec in specs:
        rings.setdefault(spec.ambient, []).append(spec)
    return rings.values()


def oracle_fine(spec, box):
    """spec's member values over the box, from a one-spec ring pass."""
    fines, _ = ring_oracle([spec], 0, box)
    return next(fines)


def oracle_counts(specs, k_max):
    """counts[k][i]: the degree-k monomials in the ideal of specs[i], k <=
    k_max, all but the origin counted outside the box [0, 0]^r."""
    _, degrees = ring_oracle(specs, k_max, 0)
    return [counts for _, counts in degrees]


def coefficients(ms):
    """The box's coefficients keyed by exponent vector."""
    return dict(zip(product(range(ms.box + 1), repeat=ms.num_vars), ms.coeffs))


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

    @given(specs_and_points())
    def test_rule_agrees_with_member(self, drawn):
        # the statistic member_rule names, read off the pass's columns
        spec, alpha = drawn
        column, bound = spec.member_rule()
        statistic = multigrade._statistics([alpha], spec.ambient)[column][0]
        assert (bound <= statistic) == spec.member(alpha)

    def test_rule_agrees_with_member_on_the_box(self):
        # every spec with n <= 5 and s <= 8 at each point of [0, 6]^r, by
        # the comparison the ring pass makes with each spec's column
        rings = {}
        for spec in all_specs(5, 8):
            rings.setdefault(spec.ambient, []).append(spec)
        for r, specs in rings.items():
            points = list(product(range(7), repeat=r))
            columns = multigrade._statistics(points, r)
            for spec in specs:
                column, bound = spec.member_rule()
                got = bytes(map(bound.__le__, columns[column]))
                assert got == bytes(map(spec.member, points)), spec


class TestDegreeCompositions:
    def test_counts(self):
        for total in range(6):
            for parts in range(1, 5):
                got = list(degree_compositions(total, parts))
                assert len(got) == math.comb(total + parts - 1, parts - 1)
                assert all(sum(a) == total for a in got)
                assert len(set(got)) == len(got)

    def test_lexicographic_order(self):
        got = list(degree_compositions(2, 2))
        assert got == sorted(got)

    def test_matches_sorted_brute_force(self):
        for total in range(9):
            for parts in range(1, 6):
                want = sorted(set(alpha for alpha in product(range(total + 1), repeat=parts)
                                  if sum(alpha) == total))
                assert list(degree_compositions(total, parts)) == want, (total, parts)

    @pytest.mark.parametrize("total, parts, name", [
        (2, 0, "parts"), (2, -1, "parts"), (-1, 1, "total"), (-1, 2, "total")])
    def test_rejects_bad_arguments(self, total, parts, name):
        # raised at the call, before any composition is asked for
        with pytest.raises(ValueError, match=name):
            degree_compositions(total, parts)


class TestHilbertFunctionOracle:
    """The coarse side of ring_oracle: member counts per degree."""

    def test_veronese_degree_three(self):
        # 10 degree-3 monomials in 3 variables minus the 3 pure cubes
        assert oracle_counts([Veronese(3, 2)], 3)[3] == [7]

    def test_max_power_degree_two(self):
        # all C(4, 2) monomials of degree 2 qualify
        assert oracle_counts([MaxPower(3, 2)], 2)[2] == [6]

    def test_veronese_degree_one_empty(self):
        assert oracle_counts([Veronese(3, 2)], 1)[1] == [0]

    def test_chunked_counts_match_plain_enumeration(self, statistics_points):
        # k = 20 in 5 variables is C(24, 4) = 10626 compositions, more than
        # two chunks; at box 0 the pass computes the statistics of each of
        # the C(25, 5) compositions of degree <= 20 once, for every spec
        specs = [Veronese(5, 3), MaxPower(5, 4), HatPower(6, 2, 3),
                 GeneratedHatPower(5, 2, 7), GeneratedHatPower(5, 4, 30)]
        compositions = list(degree_compositions(20, 5))
        assert len(compositions) == math.comb(24, 4) > 2 * COMPOSITION_CHUNK
        want = [sum(map(spec.member, compositions)) for spec in specs]
        # degrees alone: the compositions give every count
        _, degrees = ring_oracle(specs, 20, 0)
        assert dict(degrees)[20] == want
        assert len(statistics_points) == len(set(statistics_points)) == math.comb(25, 5)

    def test_counts_need_one_ring_size(self):
        with pytest.raises(ValueError, match="one number of variables"):
            ring_oracle([Veronese(3, 2), MaxPower(4, 2)], 2, 1)
        with pytest.raises(ValueError, match="one number of variables"):
            ring_oracle([], 2, 1)

    def test_matches_coarse_coefficients(self):
        for specs in rings_of(all_specs(4, 3)):
            counts = oracle_counts(specs, 8)
            for i, spec in enumerate(specs):
                h = spec.series()
                assert [row[i] for row in counts] == [coefficient(h, k) for k in range(9)], spec


class TestRingOracle:
    @pytest.mark.parametrize("k_max, box, name", [(-1, 0, "degree"), (0, -1, "box")])
    def test_rejects_bad_arguments(self, k_max, box, name):
        # raised at the call, before any point is tested
        with pytest.raises(ValueError, match=name):
            ring_oracle([Veronese(2, 1)], k_max, box)

    def test_sweep_guard_at_the_call(self, monkeypatch):
        # 4 specs in 1 variable, each testing degrees 0..9 and the 3 box
        # points: 52 tests
        specs = [MaxPower(1, s) for s in range(1, 5)]
        monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", 51)
        with pytest.raises(ValueError, match="52 membership tests"):
            ring_oracle(specs, 9, 2)
        monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", 52)
        _, degrees = ring_oracle(specs, 9, 2)
        assert list(degrees) == [(k, [int(k >= s) for s in range(1, 5)]) for k in range(10)]

    def test_sweep_count_bounds_each_degree(self, monkeypatch):
        # a spec's sweep count is at least the C(k_max + r - 1, r - 1)
        # compositions of degree k_max, so a limit one below that rejects it
        for r in range(1, 7):
            for k_max in range(61):
                compositions = math.comb(k_max + r - 1, r - 1)
                monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", compositions - 1)
                for box in range(7):
                    with pytest.raises(ValueError, match="membership tests"):
                        multigrade.check_sweep_guard([MaxPower(r, 1)], k_max, 1, box)

    def test_specs_may_be_an_iterator(self):
        specs = [Veronese(2, 1), MaxPower(2, 2), GeneratedHatPower(2, 2, 3)]
        fines, degrees = ring_oracle(specs, 5, 1)
        want = list(fines), list(degrees)
        fines, degrees = ring_oracle(iter(specs), 5, 1)
        assert (list(fines), list(degrees)) == want

    def test_each_stream_has_one_source(self, statistics_points):
        # degrees alone computes no box point, and fines alone only the
        # (box+1)^r box points
        specs = [Veronese(3, 2), MaxPower(3, 2), GeneratedHatPower(3, 2, 2)]
        _, degrees = ring_oracle(specs, 1, 2)
        assert [k for k, _ in degrees] == [0, 1, 2]
        assert sorted(statistics_points) == sorted(
            p for k in range(3) for p in degree_compositions(k, 3))
        statistics_points.clear()
        fines, _ = ring_oracle(specs, 6, 2)
        assert len(list(fines)) == len(specs)
        assert statistics_points == list(product(range(3), repeat=3))

    def test_matches_product_reference(self, statistics_points):
        # k_max at the box's edges: the box's origin alone, just below and
        # at the box's degree, past it, and past the box's reach r * box
        rings = {}
        for spec in all_specs(4, 3):
            rings.setdefault(spec.ambient, []).append(spec)
        for r, specs in rings.items():
            counts = {spec: member_counts(spec, max(r * 3 + 1, 3 + 2)) for spec in specs}
            for box in range(4):
                fine = {spec: MultiSeries(r, box, member_box(spec, box)) for spec in specs}
                points = list(product(range(box + 1), repeat=r))
                for k_max in sorted({0, box - 1, box, box + 2, r * box + 1} - {-1}):
                    top = max(k_max, box)
                    statistics_points.clear()
                    fines, degrees = ring_oracle(specs, k_max, box)
                    assert list(fines) == [fine[s] for s in specs], (r, box, k_max)
                    assert list(degrees) == [(k, [counts[s][k] for s in specs])
                                             for k in range(top + 1)], (r, box, k_max)
                    # the statistics of each box point and each composition
                    # of degree <= top, each once per ring
                    compositions = [p for p in product(range(top + 1), repeat=r)
                                    if sum(p) <= top]
                    assert len(compositions) == math.comb(top + r, r)
                    assert sorted(statistics_points) == sorted(points + compositions), (
                        r, box, k_max)


class TestMultiSeries:
    def test_index_round_trip(self):
        # alpha sits at flat index sum_i alpha_i (box+1)^(num_vars-1-i), the
        # strides fine_series_formula addresses the box with
        # (membership here ignores the last variable, so a transposed
        # layout would not pass)
        spec = GeneratedHatPower(3, 2, 2)
        ms = oracle_fine(spec, 2)
        for alpha in product(range(3), repeat=3):
            assert ms.coeffs[9 * alpha[0] + 3 * alpha[1] + alpha[2]] == spec.member(alpha)

    def test_coarse_sums(self):
        ms = MultiSeries(2, 2, (1,) * 9)
        assert coarse_sums(ms, 2) == [1, 2, 3]
        # distinct coefficients, so every point must land in its own degree
        points = list(product(range(3), repeat=3))
        ms = MultiSeries(3, 2, tuple(100 * a + 10 * b + c for a, b, c in points))
        want = [0] * 7
        for a, b, c in points:
            want[a + b + c] += 100 * a + 10 * b + c
        assert [coarse_sums(ms, k) for k in range(7)] == [want[:k + 1] for k in range(7)]

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

    def test_veronese_matches_subset_expansion(self):
        for n in range(1, 6):
            for d in range(1, n + 1):
                for box in range(5 if n <= 4 else 3):
                    got = fine_series_formula(Veronese(n, d), box).coeffs
                    assert got == veronese_fine_by_subsets(n, d, box), (n, d, box)

    def test_formula_never_consults_membership(self, monkeypatch):
        # the oracle decides through member_rule, so neither way of testing
        # membership may reach the formula
        def refuse(name):
            def method(self, *args):
                raise AssertionError(f"fine_series_formula called {name}")
            return method

        for cls in FAMILY_CLASSES:
            for name in ("member", "member_rule"):
                monkeypatch.setattr(cls, name, refuse(name))
        for spec in all_specs(4, 3):
            fine_series_formula(spec, 3)

    def test_formula_matches_oracle_everywhere(self):
        for specs in rings_of(all_specs(3, 3)):
            for box in (0, 1, 2, 3):
                fines, _ = ring_oracle(specs, 0, box)
                for spec, fine in zip(specs, fines, strict=True):
                    assert fine_series_formula(spec, box) == fine, (spec, box)

    def test_power_at_and_far_beyond_the_box_degree(self):
        # the box holds degrees up to span * box only; powers around and far
        # past that bound must match the oracle without walking up to s
        for box in (0, 1, 2):
            for cls, head, span in ((MaxPower, (3,), 3), (HatPower, (4, 2), 3),
                                    (GeneratedHatPower, (3, 2), 2)):
                for s in (span * box, span * box + 1, span * box + 2, 10**6, 10**30):
                    spec = cls(*head, max(s, 1))
                    assert fine_series_formula(spec, box) == oracle_fine(spec, box), spec

    @pytest.mark.parametrize("box", [3, 4])
    def test_formula_matches_oracle_in_five_variables(self, box):
        # the widest ring the oracle sweeps, at the boxes it is run at, with
        # every power up to two past the box's reach span * box
        specs = [Veronese(5, d) for d in range(1, 6)]
        for t in range(1, 6):
            span = 6 - t
            for s in range(1, span * box + 3):
                specs.append(GeneratedHatPower(5, t, s))
                specs.append(HatPower(4 + t, t, s))
                if t == 1:
                    specs.append(MaxPower(5, s))
        assert all(spec.ambient == 5 for spec in specs)
        fines, _ = ring_oracle(specs, 0, box)
        for spec, fine in zip(specs, fines, strict=True):
            assert fine_series_formula(spec, box) == fine, spec

    @pytest.mark.parametrize("box", [0, 1, 2, 6])
    def test_veronese_core_edges(self, box):
        # box 0 meets no Veronese piece, so every count is 0; at box 1 each
        # piece x_U K[...] is one run, the axes of U before the last all at
        # 1; at boxes 2 and 6 they take box values each, box^(d-1) runs,
        # up to the widest box check_fine_guard allows
        for n in range(1, 6):
            specs = [Veronese(n, d) for d in range(1, n + 1)]
            fines, _ = ring_oracle(specs, 0, box)
            for spec, fine in zip(specs, fines, strict=True):
                assert fine_series_formula(spec, box) == fine, spec

    def test_power_matches_composition_walk(self):
        for n in range(1, 5):
            for box in range(5):
                for t in range(1, n + 1):
                    span = n - t + 1
                    for s in range(1, span * box + 3):
                        specs = [HatPower(n, t, s), GeneratedHatPower(n, t, s)]
                        if t == 1:
                            specs.append(MaxPower(n, s))
                        for spec in specs:
                            got = fine_series_formula(spec, box).coeffs
                            assert got == power_fine_by_compositions(spec, box), (spec, box)

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
            fine_series_formula(MaxPower(3, 2), 7)

    def test_fine_coarse_consistency(self):
        # summing the box over a total degree k <= box reproduces the
        # Hilbert function enumerated outside the box [0, 0]^r and the
        # closed-form coefficient
        for specs in rings_of(all_specs(3, 2)):
            counts = oracle_counts(specs, 3)
            for box in (1, 2, 3):
                fines, _ = ring_oracle(specs, 0, box)
                for i, (spec, ms) in enumerate(zip(specs, fines, strict=True)):
                    sums = coarse_sums(ms, box)
                    h = spec.series()
                    for k in range(box + 1):
                        assert sums[k] == counts[k][i]
                        assert sums[k] == coefficient(h, k)
