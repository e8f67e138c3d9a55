"""Fine (multigraded) Hilbert series over truncated exponent boxes, plus the
brute-force membership oracle (oracle_sweep, one _ring_pass per ring size)
that ground-truths the closed forms.

A box bound b means every variable exponent runs 0..b.  Truncation is sound
for products because all exponents are non-negative: terms beyond the box
never influence terms inside it.  Fine/coarse consistency is only meaningful
for total degrees k <= b, where no composition of k escapes the box.

One pass per ring size serves both the coarse and the fine check.  Every spec
decides membership by comparing one statistic of the point with a bound
(spec.member_rule): the support size for Veronese, the sum of the first
span exponents for the power families.  So the pass computes the r + 1
statistics of each point once per ring, and decides every spec's points in
bulk, never one comparison at a time:

  * the box [0, box]^r: its columns are bytes, joined from the statistics
    of its points COMPOSITION_CHUNK at a time (every statistic there is at
    most r * box <= 30), and each spec's fine array is the column it reads
    translated through a 256-byte threshold table for its bound, compared
    with the formula's bytes by one memcmp;
  * the compositions of degree <= max(k_max, box), in chunks of
    COMPOSITION_CHUNK that run across degrees: each column some rule reads
    is sorted once per chunk by (degree, value), the chunk's cumulative
    histogram of that column per degree, and each spec's count of a degree
    is one lookup of its bound there, exact at any statistic size;
  * the closed forms: each spec's coefficients are read off its expansion
    in windows of at most COMPOSITION_CHUNK degrees, from the generator
    (series._windows) that gives expansion its one window, each window's
    prefix-sum passes started from the last window's carries.

So memory stays bounded by the box's r + 1 columns (at most 6 * 7^5 bytes)
and one fine array, one chunk's columns and one window per spec, whatever
k_max.

The fine formula counts, at each box point, the pieces of the family's
Stanley decomposition that cover it: one piece per minimal generator, each
a few contiguous runs of the lexicographic box, summed by one difference
array (see fine_series_formula).  The count is 1 on the ideal and 0 off it
because the pieces partition the ideal, a theorem about stable ideals and
not a restatement of membership, so the oracle stays an independent check.
The two guards bound a sweep's work before its first pass.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import (accumulate, chain, combinations, combinations_with_replacement,
                       compress, islice, product, repeat)
from operator import add, mul, ne, sub
from typing import Iterable, Iterator, Sequence

from .exactalg import Record, _require_ints
from .ideals import FAMILIES, IdealSpec, Veronese
from .series import _windows

__all__ = [
    "ExponentVector",
    "MultiSeries",
    "fine_series_formula",
    "oracle_sweep",
]

ExponentVector = tuple[int, ...]

MAX_FINE_VARS = 5
MAX_FINE_BOX = 6
# membership tests, one per spec and point, one oracle sweep may make
MAX_MEMBER_TESTS = 10**7
# points held at once by _ring_pass's degree counts and box columns, and
# degrees of each window of oracle_sweep's closed-form coefficients: a
# one-variable sweep then holds about 0.25 MB at once, whatever k_max
COMPOSITION_CHUNK = 512


class MultiSeries(Record):
    """Dense truncated multivariate series over the box [0, box]^num_vars.

    Coefficients are stored in lexicographic order of the exponent vector
    (last index fastest), as bytes, which makes equality one memcmp; only
    counts outside 0..255, which a member array or a partition never
    holds, take a tuple of ints.
    """

    __slots__ = ("num_vars", "box", "coeffs")

    def __post_init__(self) -> None:
        if self.num_vars < 1 or self.box < 0:
            raise ValueError("need num_vars >= 1 and box >= 0")
        if len(self.coeffs) != (self.box + 1) ** self.num_vars:
            raise ValueError("coefficient array does not fill the box")


def _degree_compositions(total: int, parts: int) -> Iterator[ExponentVector]:
    """All exponent vectors of the given total degree, lexicographically.

    Stars and bars: the partial sums of the first parts - 1 entries run over
    the non-decreasing sequences in 0..total, which combinations with
    replacement yields in lexicographic order, the order of the vectors.
    One part is the one vector (total,), without the pool of total + 1
    values that combinations_with_replacement would copy to draw nothing.
    """
    if parts == 1:
        return iter([(total,)])
    start, end = (0,), (total,)
    return (tuple(map(sub, sums + end, start + sums))
            for sums in combinations_with_replacement(range(total + 1), parts - 1))


def _ring_pass(ring: Sequence[IdealSpec], top: int, box: int
               ) -> tuple[Iterator[bytes], Iterator[tuple[int, ...]]]:
    """Fine arrays and member counts per degree of the specs of one ring,
    from the statistic columns of the box [0, box]^r and of each
    composition of degree <= top, computed once per ring.

    Returns (fines, degrees): fines yields each spec's member values over
    the box as bytes, from the box's columns alone, and degrees the tuple
    of the specs' counts of degree-k monomials in their ideals for
    k = 0..top, from the compositions alone.  Either may be drawn without
    the other; the points are decided in bulk as they are drawn.
    oracle_sweep has checked the arguments and the sweep guard.
    """
    vars_ = ring[0].ambient
    rules = [spec.member_rule() for spec in ring]

    def box_pass() -> Iterator[bytes]:
        columns = _box_statistics(vars_, box)
        for column, bound in rules:
            # maps each statistic v <= 255 to whether v >= bound
            below = min(bound, 256)
            yield columns[column].translate(bytes(below) + b"\1" * (256 - below))

    return box_pass(), _degree_counts(rules, vars_, top)


def _statistics(points: Sequence[ExponentVector], vars_: int) -> list[Sequence[int]]:
    """The statistic columns of points in vars_ variables, the columns
    member_rule names: column 0 holds each point's support size and column
    j >= 1 the sum of its first j exponents, so column vars_ is its degree."""
    support = list(map(vars_.__sub__, map(tuple.count, points, repeat(0))))
    # the head sums, adding one exponent column at a time
    heads = accumulate(zip(*points), lambda head, exponents: list(map(add, head, exponents)))
    return [support, *heads]


def _box_statistics(vars_: int, box: int) -> list[bytes]:
    """_statistics of the points of the box [0, box]^vars_, lexicographic
    (last index fastest), as bytes, COMPOSITION_CHUNK points at a time.
    Every value is at most vars_ * box, so it fits a byte whenever
    check_fine_guard passes.
    """
    points = product(range(box + 1), repeat=vars_)
    columns = [bytearray() for _ in range(vars_ + 1)]
    while chunk := list(islice(points, COMPOSITION_CHUNK)):
        for column, values in zip(columns, _statistics(chunk, vars_)):
            column.extend(values)
    return list(map(bytes, columns))


def _degree_counts(rules: Sequence[tuple[int, int]], vars_: int,
                   top: int) -> Iterator[tuple[int, ...]]:
    """Per degree k = 0..top, the compositions of degree k in vars_
    variables that each member rule accepts, one tuple of counts per degree.

    The compositions stream across degrees in chunks of COMPOSITION_CHUNK,
    so a ring with few compositions per degree, such as the one of one
    variable, still fills each chunk.  Each chunk's degree column cuts it
    into its degrees.  Each column some rule reads is keyed by
    degree * (top + 1) + value and sorted, once per chunk: a statistic is
    at most its point's degree, so each degree keeps its range of the chunk,
    its values sorted, the degree's cumulative histogram.  A rule's count of
    a degree is that range's end less the place of its bound there, one
    bisect, exact whatever the size of the statistics or the bound; rules
    that several specs share are counted once.  A degree cut by a chunk's
    end is summed across the two chunks.
    """
    stream = chain.from_iterable(map(_degree_compositions, range(top + 1), repeat(vars_)))
    bounds: dict[int, set[int]] = {}  # the bounds that rules set on each column
    for column, bound in rules:
        bounds.setdefault(column, set()).add(bound)
    held = None  # the degree last counted and its counts, still open
    while chunk := list(islice(stream, COMPOSITION_CHUNK)):
        columns = _statistics(chunk, vars_)
        degree = columns[vars_]
        starts = [0, *compress(range(1, len(chunk)), map(ne, degree, degree[1:]))]
        ends = [*starts[1:], len(chunk)]
        range_degrees = [degree[start] for start in starts]
        counts = {}
        for column, column_bounds in bounds.items():
            histogram = sorted(map(add, map(mul, degree, repeat(top + 1)), columns[column]))
            for bound in column_bounds:
                # each degree's values >= bound: its range's end less the
                # place of its key of the value bound
                keys = map(add, map(mul, range_degrees, repeat(top + 1)), repeat(bound))
                counts[column, bound] = list(map(sub, ends, map(
                    bisect_left, repeat(histogram), keys, starts, ends)))
        for k, row in zip(range_degrees, zip(*map(counts.__getitem__, rules))):
            if held is not None:
                if held[0] == k:
                    row = tuple(map(add, held[1], row))
                else:
                    yield held[1]
            held = k, row
    if held is not None:
        yield held[1]


def check_sweep_guard(weighted: Iterable[tuple[int, IdealSpec]], k_max: int, box: int) -> None:
    """Reject ring passes over the (copies, spec) pairs weighted, each spec
    counted copies times, of more than MAX_MEMBER_TESTS membership tests.
    A pass computes the statistic columns of each of the (box+1)^r box
    points and the C(max(k_max, box) + r, r) compositions of degree
    <= max(k_max, box) once per ring of r variables, and each spec decides
    each such point, in bulk: one membership test per spec and point is
    the measure of a pass's work.  A spec's count is at least the
    C(k_max + r - 1, r - 1) compositions of degree k_max alone, so the
    guard also bounds the compositions of any one degree the pass draws.
    """
    top = max(k_max, box)
    tests = sum(copies * (math.comb(top + spec.ambient, top) + (box + 1) ** spec.ambient)
                for copies, spec in weighted)
    if tests > MAX_MEMBER_TESTS:
        raise ValueError(f"the sweep would make {tests} membership tests, more than "
                         f"{MAX_MEMBER_TESTS}; lower --s-max, --k-max or --box")


def check_fine_guard(num_vars: int, box: int) -> None:
    """Reject fine-series work beyond MAX_FINE_VARS variables or box
    MAX_FINE_BOX; the messages name the oracle flag that sets each."""
    if num_vars > MAX_FINE_VARS:
        raise ValueError(f"fine series limited to {MAX_FINE_VARS} variables; lower --n-max")
    if box > MAX_FINE_BOX or box < 0:
        raise ValueError(f"box bound must lie in 0..{MAX_FINE_BOX}; set --box within it")


def fine_series_formula(spec: IdealSpec, box: int) -> MultiSeries:
    """Closed-form fine Hilbert series over the box [0, box]^ambient: the
    number of pieces of the family's Stanley decomposition covering each
    box point.  Both families are (squarefree) strongly stable ideals, so
    each has one piece per minimal generator:

      * m^s, the power families (Eliahou & Kervaire 1990): the pieces
        x^u K[x_j : j >= max u], over the generators u of degree s in the
        span axes, max u the last axis u uses; the axes past span are free
        in every piece.
      * Veronese (Aramova, Herzog & Hibi 1998): the pieces
        x_U K[x_i : i in U or i > max U], over the d-subsets U.

    Only the pieces of the in-box generators meet the box.  The power
    generators are found by carrying the (offset, degree) prefixes that the
    remaining span axes can still complete, axis by axis; so s > span * box
    gives no piece.  In the lexicographic box a piece is one contiguous run
    for each value of its free axes below max u: one run per power piece,
    box^(d-1) runs per Veronese piece.  One difference array over the runs
    and one accumulate give each point's cover count, which is 1 on the
    ideal and 0 off it, since the pieces partition the ideal.  Membership
    is never consulted, so comparing with _ring_pass's fine arrays also
    checks that partition.
    """
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    side = box + 1
    strides = [side ** (vars_ - 1 - i) for i in range(vars_)]
    runs = []  # (start, end) of each run of a piece in the box
    if isinstance(spec, Veronese):
        for *head, last in combinations(range(vars_), spec.d):
            # one run per value 1..box of each axis of U before the last
            heads = product(*(range(strides[i], side * strides[i], strides[i]) for i in head))
            runs += [(o + strides[last], o + side * strides[last]) for o in map(sum, heads)]
    else:
        s, span = spec.s, spec.span
        prefixes = [(0, 0)]
        for i, stride in enumerate(strides[:span]):
            # a prefix through axis i below degree low cannot reach s
            low = s - (span - 1 - i) * box
            runs += [(o + (s - c) * stride, o + side * stride)
                     for o, c in prefixes if s - c <= box]
            prefixes = [(o + a * stride, c + a) for o, c in prefixes
                        for a in range(max(0, low - c), min(side, s - c))]
    return MultiSeries(vars_, box, _cover(runs, side ** vars_))


def _cover(runs: Iterable[tuple[int, int]], size: int) -> bytes | tuple[int, ...]:
    """Each of size points' count of the runs [start, end) covering it, by
    one difference array and one accumulate: bytes, or a tuple of ints where
    a count leaves 0..255, as only pieces that fail to partition can give."""
    cover = [0] * (size + 1)
    for start, end in runs:
        cover[start] += 1
        cover[end] -= 1
    try:
        return bytes(accumulate(islice(cover, size)))
    except ValueError:  # a count below 0 or above 255
        return tuple(accumulate(islice(cover, size)))


def oracle_sweep(n_max: int, k_max: int, s_max: int, box: int) -> list[dict]:
    """Cross-check every spec with n <= n_max (each parameter after n over
    1..n, the power s over 1..s_max) against its closed forms: one row
    {check, family, specs, cases, passed} per check and family, coarse
    first.  A spec fails the coarse check if its count of some degree
    k <= k_max differs from coefficient(h, k) of its series h, and the fine
    check if its fine array differs from fine_series_formula or its count
    of some degree k <= box from coefficient(h, k), those coefficients read
    off h's expansion in windows (series._windows).  It makes
    k_max + 1 coarse and (box+1)^r + box + 1 fine cases.  The arguments
    (ints, not bools, then their ranges), the fine guard and the sweep
    guard are checked in that order before any pass.
    """
    def grid(s_top: int) -> dict[str, list[IdealSpec]]:
        return {family: [cls(n, *values) for n in range(1, n_max + 1)
                         for values in product(*(range(1, (s_top if name == "s" else n) + 1)
                                                 for name in cls.__slots__[1:]))]
                for family, cls in FAMILIES.items()}

    _require_ints("oracle_sweep argument", n_max=n_max, k_max=k_max, s_max=s_max, box=box)
    if n_max < 1 or s_max < 1 or k_max < 0:
        raise ValueError("need n_max >= 1, s_max >= 1 and k_max >= 0")
    # the fine work grows with the ring size: n_max variables bound every ring
    check_fine_guard(n_max, box)
    # a spec with a power s stands for its s_max copies, which share its
    # ring, so a large s_max is counted without building them
    check_sweep_guard(((s_max if "s" in FAMILIES[family].__slots__ else 1, spec)
                       for family, specs in grid(1).items() for spec in specs), k_max, box)
    specs = grid(s_max)
    top = max(k_max, box)
    # one pass per ring size, whatever the family: its fine arrays serve the
    # fine check, and its counts the coarse one and, to degree box, the fine
    rings: dict[int, list[IdealSpec]] = {}
    for spec in chain.from_iterable(specs.values()):
        rings.setdefault(spec.ambient, []).append(spec)
    coarse_failed, fine_failed = set(), set()
    for ring in rings.values():
        fines, degrees = _ring_pass(ring, top, box)
        fine_failed.update(spec for spec, fine in zip(ring, fines)
                           if fine_series_formula(spec, box).coeffs != fine)
        # each degree's closed-form coefficients, one window per spec at a
        # time; the rows first, so that their end draws no degree
        rows = chain.from_iterable(map(zip, *(_windows(spec.series(), top, COMPOSITION_CHUNK)
                                              for spec in ring)))
        for k, (row, counts) in enumerate(zip(rows, degrees)):
            if counts != row:
                failed = set(compress(ring, map(ne, counts, row)))
                if k <= k_max:
                    coarse_failed |= failed
                if k <= box:
                    fine_failed |= failed
    cases = {"coarse": lambda spec: k_max + 1,
             "fine": lambda spec: (box + 1) ** spec.ambient + box + 1}
    return [{"check": check, "family": family, "specs": len(family_specs),
             "cases": sum(map(cases[check], family_specs)),
             "passed": failed.isdisjoint(family_specs)}
            for check, failed in (("coarse", coarse_failed), ("fine", fine_failed))
            for family, family_specs in specs.items()]
