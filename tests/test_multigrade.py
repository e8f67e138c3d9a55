"""Fine series, membership, the ring pass and the oracle sweep."""

import json
import math
import tracemalloc
from collections import Counter
from itertools import chain, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hilbertdepth.cli import main
from hilbertdepth.exactalg import IntPolynomial
from hilbertdepth.ideals import (
    FAMILIES,
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
)
import hilbertdepth.multigrade as multigrade
from hilbertdepth.multigrade import (
    COMPOSITION_CHUNK,
    MultiSeries,
    _degree_compositions,
    _ring_pass,
    fine_series_formula,
    oracle_sweep,
)
from hilbertdepth.series import _windows, canonicalize, coefficient, expansion

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
    fines, _ = _ring_pass([spec], box, box)
    return next(fines)


def oracle_counts(specs, k_max):
    """counts[k][i]: the degree-k monomials in the ideal of specs[i], k <=
    k_max, all but the origin counted outside the box [0, 0]^r."""
    _, degrees = _ring_pass(specs, k_max, 0)
    return list(degrees)


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
        # the comparison with the column the ring pass builds for the box
        rings = {}
        for spec in all_specs(5, 8):
            rings.setdefault(spec.ambient, []).append(spec)
        for r, specs in rings.items():
            points = list(product(range(7), repeat=r))
            columns = multigrade._box_statistics(r, 6)
            for spec in specs:
                column, bound = spec.member_rule()
                got = bytes(map(bound.__le__, columns[column]))
                assert got == bytes(map(spec.member, points)), spec

    @pytest.mark.parametrize("chunk", [COMPOSITION_CHUNK, 7])
    def test_box_columns_match_pointwise_statistics(self, monkeypatch, chunk):
        # every box the fine guard allows, joined chunk by chunk, against
        # the statistics of its listed points; chunks of 7 join every box
        # of more than 7 points across seams at odd offsets
        monkeypatch.setattr(multigrade, "COMPOSITION_CHUNK", chunk)
        for r in range(1, 6):
            for box in range(7):
                points = list(product(range(box + 1), repeat=r))
                assert multigrade._box_statistics(r, box) == list(
                    map(bytes, multigrade._statistics(points, r))), (r, box)


class TestDegreeCompositions:
    def test_counts(self):
        for total in range(6):
            for parts in range(1, 5):
                got = list(_degree_compositions(total, parts))
                assert len(got) == math.comb(total + parts - 1, parts - 1)
                assert all(sum(a) == total for a in got)
                assert len(set(got)) == len(got)

    def test_lexicographic_order(self):
        got = list(_degree_compositions(2, 2))
        assert got == sorted(got)

    def test_matches_sorted_brute_force(self):
        for total in range(9):
            for parts in range(1, 6):
                want = sorted(set(alpha for alpha in product(range(total + 1), repeat=parts)
                                  if sum(alpha) == total))
                assert list(_degree_compositions(total, parts)) == want, (total, parts)


class TestHilbertFunctionOracle:
    """The coarse side of _ring_pass: member counts per degree."""

    def test_veronese_degree_three(self):
        # 10 degree-3 monomials in 3 variables minus the 3 pure cubes
        assert oracle_counts([Veronese(3, 2)], 3)[3] == (7,)

    def test_max_power_degree_two(self):
        # all C(4, 2) monomials of degree 2 qualify
        assert oracle_counts([MaxPower(3, 2)], 2)[2] == (6,)

    def test_veronese_degree_one_empty(self):
        assert oracle_counts([Veronese(3, 2)], 1)[1] == (0,)

    def test_chunked_counts_match_plain_enumeration(self, statistics_points):
        # k = 20 in 5 variables is C(24, 4) = 10626 compositions, more than
        # two chunks; at box 0 the pass computes the statistics of each of
        # the C(25, 5) compositions of degree <= 20 once, for every spec
        specs = [Veronese(5, 3), MaxPower(5, 4), HatPower(6, 2, 3),
                 GeneratedHatPower(5, 2, 7), GeneratedHatPower(5, 4, 30)]
        compositions = list(_degree_compositions(20, 5))
        assert len(compositions) == math.comb(24, 4) > 2 * COMPOSITION_CHUNK
        want = tuple(sum(map(spec.member, compositions)) for spec in specs)
        # degrees alone: the compositions give every count
        _, degrees = _ring_pass(specs, 20, 0)
        assert list(degrees)[20] == want
        assert len(statistics_points) == len(set(statistics_points)) == math.comb(25, 5)

    def test_counts_need_one_ring_size(self, monkeypatch):
        # the pass reads the ring size off its first spec: oracle_sweep
        # hands it the specs of one size, each size once, every spec once
        rings, ring_pass = [], multigrade._ring_pass
        monkeypatch.setattr(multigrade, "_ring_pass",
                            lambda ring, top, box: rings.append(ring) or ring_pass(ring, top, box))
        assert all(r["passed"] for r in oracle_sweep(3, 2, 2, 1))
        assert [{spec.ambient for spec in ring} for ring in rings] == [{1}, {2}, {3}]
        assert Counter(chain.from_iterable(rings)) == Counter(all_specs(3, 2))

    def test_matches_coarse_coefficients(self):
        for specs in rings_of(all_specs(4, 3)):
            counts = oracle_counts(specs, 8)
            for i, spec in enumerate(specs):
                h = spec.series()
                assert [row[i] for row in counts] == [coefficient(h, k) for k in range(9)], spec


class TestRingOracle:
    def test_sweep_guard_at_the_call(self, monkeypatch, statistics_points):
        # oracle_sweep guards every ring at once, before the first pass;
        # the passes check nothing
        calls, guard = [], multigrade.check_sweep_guard

        def spy(weighted, k_max, box):
            calls.append(len(statistics_points))
            return guard(weighted, k_max, box)
        monkeypatch.setattr(multigrade, "check_sweep_guard", spy)
        assert all(r["passed"] for r in oracle_sweep(3, 9, 2, 2))
        assert calls == [0] and statistics_points

    def test_sweep_count_bounds_each_degree(self, monkeypatch):
        # a spec's sweep count is at least the C(k_max + r - 1, r - 1)
        # compositions of degree k_max, so a limit one below that rejects it
        for r in range(1, 7):
            for k_max in range(61):
                compositions = math.comb(k_max + r - 1, r - 1)
                monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", compositions - 1)
                for box in range(7):
                    with pytest.raises(ValueError, match="membership tests"):
                        multigrade.check_sweep_guard([(1, MaxPower(r, 1))], k_max, box)

    def test_each_stream_has_one_source(self, statistics_points):
        # degrees alone computes no box point, and fines alone only the
        # (box+1)^r box points
        specs = [Veronese(3, 2), MaxPower(3, 2), GeneratedHatPower(3, 2, 2)]
        _, degrees = _ring_pass(specs, 2, 2)
        assert len(list(degrees)) == 3
        assert sorted(statistics_points) == sorted(
            p for k in range(3) for p in _degree_compositions(k, 3))
        statistics_points.clear()
        fines, _ = _ring_pass(specs, 6, 2)
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
                fine = {spec: bytes(member_box(spec, box)) for spec in specs}
                points = list(product(range(box + 1), repeat=r))
                for k_max in sorted({0, box - 1, box, box + 2, r * box + 1} - {-1}):
                    top = max(k_max, box)
                    statistics_points.clear()
                    fines, degrees = _ring_pass(specs, top, box)
                    assert list(fines) == [fine[s] for s in specs], (r, box, k_max)
                    assert list(degrees) == [tuple(counts[s][k] for s in specs)
                                             for k in range(top + 1)], (r, box, k_max)
                    # the statistics of each box point and each composition
                    # of degree <= top, each once per ring
                    compositions = [p for p in product(range(top + 1), repeat=r)
                                    if sum(p) <= top]
                    assert len(compositions) == math.comb(top + r, r)
                    assert sorted(statistics_points) == sorted(points + compositions), (
                        r, box, k_max)


    def test_box_pass_holds_no_point(self):
        # the box-6 ring of five variables has 16,807 points, whose tuples
        # alone took about 1.6 MB; its six columns take about 100 KB
        specs = [spec for spec in all_specs(5, 4) if spec.ambient == 5]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fines, _ = _ring_pass(specs, 6, 6)
            assert sum(1 for _ in fines) == len(specs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("specs, top", [
        ([MaxPower(1, s) for s in (1, 255, 256, 257, 2999, 3000, 3001, 10**30)]
         + [Veronese(1, 1), HatPower(4, 4, 256), GeneratedHatPower(1, 1, 1024)], 3000),
        ([Veronese(2, 2), MaxPower(2, 256), HatPower(2, 1, 300), GeneratedHatPower(2, 1, 255),
          GeneratedHatPower(2, 2, 299), GeneratedHatPower(2, 2, 10**30)], 300),
    ])
    def test_counts_past_a_byte_match_reference(self, specs, top):
        # degrees, so statistics, and bounds that no byte holds, at and
        # around 256
        _, degrees = _ring_pass(specs, top, 0)
        counts = [member_counts(spec, top) for spec in specs]
        assert list(degrees) == [tuple(c[k] for c in counts) for k in range(top + 1)]


def windowed(series, top, width=COMPOSITION_CHUNK):
    """Each series' coefficients to degree top, joined from its windows of
    width degrees, and the windows' widths, which every series shares."""
    windows = [list(_windows(h, top, width)) for h in series]
    widths = [list(map(len, rows)) for rows in windows]
    assert all(w == widths[0] for w in widths)
    return [list(chain.from_iterable(rows)) for rows in windows], widths[0]


class TestCoefficientWindows:
    def test_windows_match_coefficient_at_every_degree(self):
        # a one-variable sweep at k_max 2500 crosses several window edges:
        # every window but the last is full, none runs past the top degree,
        # and each prefix-sum pass carries across the edges; the numerators
        # T^s start at, below and past an edge, and the rings of five
        # variables add den_pow up to 5
        top, edge = 2500, COMPOSITION_CHUNK
        specs = [spec for spec in all_specs(1, 3) if spec.ambient == 1]
        specs += [HatPower(3, 3, edge - 1), GeneratedHatPower(1, 1, edge), MaxPower(1, 2 * edge),
                  MaxPower(1, top + 1), MaxPower(5, 3), Veronese(5, 2),
                  GeneratedHatPower(4, 2, 2), HatPower(5, 2, 3)]
        series = [spec.series() for spec in specs]
        values, widths = windowed(series, top)
        assert top // edge >= 2
        assert widths == [edge] * (top // edge) + [top % edge + 1]
        for spec, h, got in zip(specs, series, values):
            assert got == [coefficient(h, k) for k in range(top + 1)], spec

    @pytest.mark.parametrize("top", [0, 1, COMPOSITION_CHUNK - 1, COMPOSITION_CHUNK])
    def test_windows_stop_at_the_top_degree(self, top):
        series = [MaxPower(3, 2).series(), Veronese(4, 2).series()]
        values, widths = windowed(series, top)
        assert widths == [min(top + 1, COMPOSITION_CHUNK)] + [1] * (top == COMPOSITION_CHUNK)
        assert values == [[coefficient(h, k) for k in range(top + 1)] for h in series]

    @pytest.mark.parametrize("width", [1, 2, 7, COMPOSITION_CHUNK])
    def test_expansion_is_the_joined_windows(self, width):
        # expansion takes the generator's one window; each numerator below
        # is longer than a window of width 7, and the first two than one of
        # COMPOSITION_CHUNK; the tops fall inside, at the end of and past
        # the numerator
        series = [MaxPower(600, 3).series(), MaxPower(1, 900).series(),
                  Veronese(30, 4).series(), HatPower(12, 4, 5).series(),
                  canonicalize(IntPolynomial([3, -7, 0, 5, -1, 2, 0, 4, -9, 1]), 0)]
        assert min(len(h.numer.coefficients) for h in series[:2]) > COMPOSITION_CHUNK
        for h in series:
            size = len(h.numer.coefficients)
            assert size > 7
            for top in (size // 2, size - 1, size + width + 3):
                values, widths = windowed([h], top, width)
                assert values == [expansion(h, top)], (h, top)
                assert widths == [width] * (top // width) + [top % width + 1], (h, top)


class TestOracleSweep:
    @pytest.mark.parametrize("n_max, k_max, s_max, box", [
        (3, 4, 1, 0),  # box 0: the fine check is the origin alone
        (3, 1, 2, 3),  # k_max < box: the counts run to degree box
        (2, 5, 3, 2),  # s_max > 1
    ])
    def test_rows_are_the_cli_results(self, capsys, n_max, k_max, s_max, box):
        code = main(["oracle", "--n-max", str(n_max), "--k-max", str(k_max),
                     "--s-max", str(s_max), "--box", str(box), "--format", "json"])
        assert code == 0
        rows = oracle_sweep(n_max, k_max, s_max, box)
        assert json.loads(capsys.readouterr().out)["results"] == rows
        counts = Counter(spec.family for spec in all_specs(n_max, s_max))
        assert [(r["check"], r["family"], r["specs"]) for r in rows] == [
            (check, family, count) for check in ("coarse", "fine")
            for family, count in counts.items()]

    @pytest.mark.parametrize("n_max, k_max, s_max", [
        (2, 10**12, 1), (2, 10, 10**12), (5, 10**12, 10**12)])
    def test_huge_sweeps_rejected_before_any_pass(self, statistics_points,
                                                  n_max, k_max, s_max):
        with pytest.raises(ValueError, match="membership tests"):
            oracle_sweep(n_max, k_max, s_max, 2)
        assert statistics_points == []

    def test_fine_guard_fires_first(self, statistics_points):
        # six variables exceed the fine guard, whatever the sweep's size
        with pytest.raises(ValueError, match="fine series limited to 5 variables"):
            oracle_sweep(6, 10**12, 1, 2)
        assert statistics_points == []

    def test_weighted_count_at_the_limit(self, monkeypatch, statistics_points):
        # every spec of the sweep, power copies included, tests each box
        # point and each composition of degree <= max(k_max, box)
        n_max, k_max, s_max, box = 3, 2, 3, 1
        tests = sum(math.comb(k_max + spec.ambient, k_max) + (box + 1) ** spec.ambient
                    for spec in all_specs(n_max, s_max))
        monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", tests - 1)
        with pytest.raises(ValueError, match=f"make {tests} membership tests"):
            oracle_sweep(n_max, k_max, s_max, box)
        assert statistics_points == []
        monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", tests)
        assert all(r["passed"] for r in oracle_sweep(n_max, k_max, s_max, box))
        assert statistics_points

    @pytest.mark.parametrize("n_max, k_max, s_max, box", [
        (0, 3, 1, 1), (-1, 3, 1, 1), (2, 3, 0, 1), (2, -1, 1, 1), (2, 3, 1, -1)])
    def test_rejects_bad_arguments(self, statistics_points, n_max, k_max, s_max, box):
        # n_max or s_max below 1 would otherwise sweep no spec and pass
        with pytest.raises(ValueError):
            oracle_sweep(n_max, k_max, s_max, box)
        assert statistics_points == []

    @pytest.mark.parametrize("n_max, k_max, s_max, box, name", [
        (True, 1, True, 0, "n_max"), (2, 1.0, 1, 0, "k_max"), (2, 1, 1.5, 0, "s_max"),
        (2, 1, 1, False, "box"), (2.0, 1, 1, 1, "n_max")])
    def test_rejects_flags_and_floats(self, statistics_points, n_max, k_max, s_max, box,
                                      name):
        # a flag or a float would run as a number: (True, 1, True, 0) was a
        # whole sweep of the one-variable ring
        with pytest.raises(TypeError, match=f"^oracle_sweep argument {name} must be an int"):
            oracle_sweep(n_max, k_max, s_max, box)
        assert statistics_points == []

    @pytest.mark.parametrize("degree, failed", [
        (3, {("coarse", "max-power")}),  # box < degree <= k_max
        (1, {("coarse", "max-power"), ("fine", "max-power")}),  # degree <= box
    ])
    def test_coefficient_fault_fails_its_rows(self, monkeypatch, degree, failed):
        # one wrong closed-form coefficient, of the max-power series alone
        marked = []
        series = MaxPower.series

        def marked_series(spec):
            marked.append(h := series(spec))
            return h

        def faulty(h, top, width):
            start = 0
            for values in windows(h, top, width):
                if any(h is m for m in marked) and start <= degree < start + len(values):
                    values[degree - start] += 1
                start += len(values)
                yield values
        windows = multigrade._windows
        monkeypatch.setattr(MaxPower, "series", marked_series)
        monkeypatch.setattr(multigrade, "_windows", faulty)
        rows = oracle_sweep(3, 4, 2, 2)
        assert {(r["check"], r["family"]) for r in rows if not r["passed"]} == failed

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_every_chunk_and_window_edge(self, monkeypatch, chunk):
        # chunks of compositions and windows of coefficients a few degrees
        # wide: degrees cut across chunks, and windows ending at every kind
        # of degree, must give the rows of the default width
        want = oracle_sweep(3, 12, 2, 2)
        assert all(r["passed"] for r in want)
        monkeypatch.setattr(multigrade, "COMPOSITION_CHUNK", chunk)
        assert oracle_sweep(3, 12, 2, 2) == want

    def test_statistics_and_bounds_past_a_byte(self, monkeypatch):
        # degrees to 300 and 3000, and powers to 300: the two-variable sweep
        # makes 55,008,024 membership tests, past the sweep guard, which is
        # lifted to that count here
        monkeypatch.setattr(multigrade, "MAX_MEMBER_TESTS", 55_008_024)
        for shape in ((2, 300, 300, 2), (1, 3000, 300, 0)):
            assert all(r["passed"] for r in oracle_sweep(*shape)), shape

    @pytest.mark.parametrize("extra, count, kind", [
        (lambda size: (0, size), 2, bytes),  # each point covered once more
        (lambda size: (size, 0), -1, tuple),  # once less
    ])
    def test_cover_fault_is_a_failed_fine_row(self, capsys, monkeypatch, extra, count, kind):
        # pieces that fail to partition give counts of 2 on the ideal, or of
        # -1 off it, which no byte holds: a FAIL row each, not an exception
        cover = multigrade._cover
        monkeypatch.setattr(multigrade, "_cover",
                            lambda runs, size: cover([*runs, extra(size)], size))
        coeffs = fine_series_formula(MaxPower(2, 1), 2).coeffs
        assert type(coeffs) is kind and count in coeffs
        code = main(["oracle", "--n-max", "3", "--k-max", "4", "--s-max", "2", "--box", "2"])
        heads = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert code == 1
        assert heads == [*(f"PASS coarse {family}" for family in FAMILIES),
                         *(f"FAIL fine {family}" for family in FAMILIES), "OVERALL FAIL"]

    def test_fine_formula_fault_fails_the_fine_row(self, monkeypatch):
        formula = multigrade.fine_series_formula

        def faulty(spec, box):
            ms = formula(spec, box)
            if not isinstance(spec, Veronese):
                return ms
            return MultiSeries(ms.num_vars, ms.box, bytes([1 - ms.coeffs[0]]) + ms.coeffs[1:])
        monkeypatch.setattr(multigrade, "fine_series_formula", faulty)
        rows = oracle_sweep(3, 4, 2, 2)
        assert {(r["check"], r["family"]) for r in rows if not r["passed"]} == {
            ("fine", "veronese")}


class TestMultiSeries:
    def test_index_round_trip(self):
        # alpha sits at flat index sum_i alpha_i (box+1)^(num_vars-1-i), the
        # strides fine_series_formula addresses the box with
        # (membership here ignores the last variable, so a transposed
        # layout would not pass)
        spec = GeneratedHatPower(3, 2, 2)
        fine = oracle_fine(spec, 2)
        for alpha in product(range(3), repeat=3):
            assert fine[9 * alpha[0] + 3 * alpha[1] + alpha[2]] == spec.member(alpha)

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
                    assert got == bytes(veronese_fine_by_subsets(n, d, box)), (n, d, box)

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
                fines, _ = _ring_pass(specs, box, box)
                for spec, fine in zip(specs, fines, strict=True):
                    assert fine_series_formula(spec, box).coeffs == fine, (spec, box)

    def test_power_at_and_far_beyond_the_box_degree(self):
        # the box holds degrees up to span * box only; powers around and far
        # past that bound must match the oracle without walking up to s
        for box in (0, 1, 2):
            for cls, head, span in ((MaxPower, (3,), 3), (HatPower, (4, 2), 3),
                                    (GeneratedHatPower, (3, 2), 2)):
                for s in (span * box, span * box + 1, span * box + 2, 10**6, 10**30):
                    spec = cls(*head, max(s, 1))
                    assert fine_series_formula(spec, box).coeffs == oracle_fine(spec, box), spec

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
        fines, _ = _ring_pass(specs, box, box)
        for spec, fine in zip(specs, fines, strict=True):
            assert fine_series_formula(spec, box).coeffs == fine, spec

    @pytest.mark.parametrize("box", [0, 1, 2, 6])
    def test_veronese_core_edges(self, box):
        # box 0 meets no Veronese piece, so every count is 0; at box 1 each
        # piece x_U K[...] is one run, the axes of U before the last all at
        # 1; at boxes 2 and 6 they take box values each, box^(d-1) runs,
        # up to the widest box check_fine_guard allows
        for n in range(1, 6):
            specs = [Veronese(n, d) for d in range(1, n + 1)]
            fines, _ = _ring_pass(specs, box, box)
            for spec, fine in zip(specs, fines, strict=True):
                assert fine_series_formula(spec, box).coeffs == fine, spec

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
                            assert got == bytes(power_fine_by_compositions(spec, box)), (
                                spec, box)

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
                fines, _ = _ring_pass(specs, box, box)
                for i, (spec, fine) in enumerate(zip(specs, fines, strict=True)):
                    sums = coarse_sums(MultiSeries(spec.ambient, box, fine), box)
                    h = spec.series()
                    for k in range(box + 1):
                        assert sums[k] == counts[k][i]
                        assert sums[k] == coefficient(h, k)
