"""Fine (multigraded) Hilbert series over truncated exponent boxes, plus the
brute-force spec.member and enumeration oracles that ground-truth the closed
forms.

A box bound b means every variable exponent runs 0..b.  Truncation is sound
for products because all exponents are non-negative: terms outside the box
never influence terms inside it.  Fine/coarse consistency is only meaningful
for total degrees k <= b, where no composition of k escapes the box.

One pass per ring size serves both oracles (ring_oracle).  Every spec
decides membership by comparing one statistic of the point with a bound
(spec.member_rule): the support size for Veronese, the sum of the first
span exponents for the power families.  So the pass computes the r + 1
statistics of each point once per ring, as columns over the box [0, box]^r
and over each chunk of COMPOSITION_CHUNK compositions of degree <= k_max
outside the box, and each spec compares the one column it reads with its
bound: one comparison per spec and point, made in C.  The box's columns
give each spec's fine array and, through one histogram per column by
statistic and degree, its box share of every degree's count.  The chunks
outside the box run across degrees, their degree column telling the
degrees apart, so memory stays bounded by the box's columns, one chunk's
columns, one fine array and r * box + 1 sums per spec, whatever k_max.

The fine formula expands its closed form on the dense box array: the
Veronese numerator from its signed binomial at each point of the 2^n
corner, summed along every axis of the corner and read at each box point
through min(alpha, 1), and the power families by a per-axis walk over the
points of degree below s (see fine_series_formula).  It never consults
membership, so the oracle stays an independent check.  check_sweep_guard
bounds the membership tests, spec by point, of a whole oracle sweep before
it starts.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import (accumulate, chain, combinations_with_replacement, compress,
                       islice, product, repeat)
from operator import add, ne, sub
from typing import Iterable, Iterator, Sequence

from .exactalg import Record
from .ideals import IdealSpec, Veronese

__all__ = [
    "ExponentVector",
    "MultiSeries",
    "degree_compositions",
    "ring_oracle",
    "hilbert_function_oracle",
    "fine_series_formula",
    "fine_series_oracle",
]

ExponentVector = tuple[int, ...]

MAX_FINE_VARS = 5
MAX_FINE_BOX = 6
MAX_ENUMERATION = 10**7
# membership tests, one per spec and point, one oracle sweep may make
MAX_MEMBER_TESTS = 10**7
# compositions outside the box held at once by ring_oracle
COMPOSITION_CHUNK = 1024


class MultiSeries(Record):
    """Dense truncated multivariate series over the box [0, box]^num_vars.

    Coefficients are stored in lexicographic order of the exponent vector
    (last index fastest), which makes equality a tuple comparison.
    """

    __slots__ = ("num_vars", "box", "coeffs")

    def __post_init__(self) -> None:
        if self.num_vars < 1 or self.box < 0:
            raise ValueError("need num_vars >= 1 and box >= 0")
        if len(self.coeffs) != (self.box + 1) ** self.num_vars:
            raise ValueError("coefficient array does not fill the box")


def degree_compositions(total: int, parts: int) -> Iterator[ExponentVector]:
    """All exponent vectors of the given total degree, lexicographically.

    Stars and bars: the partial sums of the first parts - 1 entries run over
    the non-decreasing sequences in 0..total, which combinations with
    replacement yields in lexicographic order, the order of the vectors.
    One part is the one vector (total,), without the pool of total + 1
    values that combinations_with_replacement would copy to draw nothing.
    """
    if parts < 1:
        raise ValueError(f"parts must be at least 1, got {parts}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if parts == 1:
        return iter([(total,)])
    start, end = (0,), (total,)
    return (tuple(map(sub, sums + end, start + sums))
            for sums in combinations_with_replacement(range(total + 1), parts - 1))


def ring_oracle(specs: Sequence[IdealSpec], k_max: int, box: int
                ) -> tuple[Iterator[MultiSeries], Iterator[tuple[int, list[int]]]]:
    """Fine series and member counts per degree of specs of one ring size,
    from the statistic columns of each point of the box [0, box]^r and of
    each composition of degree <= k_max outside it, computed once per ring.

    Returns (fines, degrees).  fines yields each spec's member values over
    the box as a MultiSeries, spec by spec.  degrees yields (k, counts) for
    k = 0..max(k_max, box), counts[i] the number of degree-k monomials in
    the ideal of specs[i]: every composition of degree k <= box lies in the
    box.  Each degree up to r * box takes a share from the box, so degrees
    first draws whatever fines has not.  Every spec decides each point by
    one comparison of the column its member_rule names with its bound.
    Arguments and work guards are checked at the call; the points are
    tested as the results are drawn.
    """
    if k_max < 0:
        raise ValueError("degree must be non-negative")
    if box < 0:
        raise ValueError("box bound must be non-negative")
    sizes = {spec.ambient for spec in specs}
    if len(sizes) != 1:
        raise ValueError("specs must share one number of variables")
    vars_ = sizes.pop()
    check_enumeration_guard(vars_, k_max)
    check_sweep_guard(specs, k_max, 1, box)
    rules = [spec.member_rule() for spec in specs]
    top = max(k_max, box)
    reach = min(top, vars_ * box)
    shares = []  # each spec's box counts for the degrees 0..reach

    def box_pass() -> Iterator[MultiSeries]:
        columns = _statistics(list(product(range(box + 1), repeat=vars_)), vars_)
        tables = {column: _degree_shares(columns[column], columns[vars_], reach)
                  for column in {column for column, _ in rules}}
        for column, bound in rules:
            table = tables[column]
            shares.append(table[min(bound, len(table) - 1)])
            # bytes turns the comparisons into the ints 0 and 1
            yield MultiSeries(vars_, box, tuple(bytes(map(bound.__le__, columns[column]))))

    def degrees() -> Iterator[tuple[int, list[int]]]:
        for _ in fines:  # the box first, for its shares
            pass
        outside = _outside_counts(rules, vars_, box, range(box + 1, top + 1))
        for k in range(top + 1):
            if k <= box:
                yield k, [share[k] for share in shares]
            elif k <= reach:
                yield k, [c + share[k] for c, share in zip(next(outside), shares)]
            else:
                yield k, list(next(outside))

    fines = box_pass()
    return fines, degrees()


def _statistics(points: Sequence[ExponentVector], vars_: int) -> list[Sequence[int]]:
    """The statistic columns of points in vars_ variables, the columns
    member_rule names: column 0 holds each point's support size and column
    j >= 1 the sum of its first j exponents, so column vars_ is its degree."""
    support = list(map(vars_.__sub__, map(tuple.count, points, repeat(0))))
    # the head sums, adding one exponent column at a time
    heads = accumulate(zip(*points), lambda head, exponents: list(map(add, head, exponents)))
    return [support, *heads]


def _degree_shares(column: Sequence[int], degree: Sequence[int],
                   reach: int) -> list[list[int]]:
    """table[b][k]: the points of degree k <= reach whose statistic in
    column is at least b, for b = 0..max(column) + 1 (the last row all 0),
    from one histogram of the points by statistic and degree."""
    tally = Counter(zip(column, degree))
    table = [[0] * (reach + 1)]
    for value in range(max(column), -1, -1):
        table.append([c + tally[value, k] for k, c in enumerate(table[-1])])
    table.reverse()
    return table


def _outside_counts(rules: Sequence[tuple[int, int]], vars_: int, box: int,
                    degrees: range) -> Iterator[tuple[int, ...]]:
    """Per degree k in degrees, the compositions of degree k outside the
    box [0, box]^vars_ (all of them for box = -1) that each member rule
    accepts, one tuple of counts per degree.

    The compositions stream across degrees in chunks of COMPOSITION_CHUNK,
    so a ring with few compositions per degree, such as the one of one
    variable, still fills each chunk.  Each chunk's degree column cuts it
    into its degrees, and each rule counts its accepted points per degree;
    a degree cut by a chunk's end is summed across the two chunks.
    """
    stream = chain.from_iterable(map(degree_compositions, degrees, repeat(vars_)))
    held = None  # the counts of the degree the last chunk ended in
    while chunk := list(islice(stream, COMPOSITION_CHUNK)):
        # the box pass counts the points in the box
        chunk = list(compress(chunk, map(box.__lt__, map(max, chunk))))
        if not chunk:
            continue
        columns = _statistics(chunk, vars_)
        degree = columns[vars_]
        cuts = [0, *compress(range(1, len(chunk)), map(ne, degree, degree[1:])), len(chunk)]
        starts, ends = cuts[:-1], cuts[1:]
        rows = list(zip(*(map(bytes(map(bound.__le__, columns[column])).count,
                              repeat(1), starts, ends)
                          for column, bound in rules)))
        if held is not None:
            if held[0] == degree[0]:
                rows[0] = tuple(map(add, held[1], rows[0]))
            else:
                yield held[1]
        yield from rows[:-1]
        held = degree[-1], rows[-1]
    if held is not None:
        yield held[1]


def hilbert_function_oracle(spec: IdealSpec, k: int) -> int:
    """Count of degree-k monomials in the ideal, by direct enumeration.

    ring_oracle's stream outside the box for the one degree k: the whole
    pass at k_max = k would test every degree below k as well.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    check_enumeration_guard(spec.ambient, k)
    return next(_outside_counts([spec.member_rule()], spec.ambient, -1, range(k, k + 1)))[0]


def check_enumeration_guard(num_vars: int, k: int) -> None:
    """Reject enumerating more than MAX_ENUMERATION degree-k monomials."""
    if math.comb(k + num_vars - 1, num_vars - 1) > MAX_ENUMERATION:
        raise ValueError("degree too large to enumerate")


def _box_points(num_vars: int, k: int, box: int) -> int:
    """Points of [0, box]^num_vars of degree <= k, k >= 0: by inclusion-
    exclusion, the compositions of degree <= k less those with a chosen j
    parts above box, sum_j (-1)^j C(num_vars, j) C(k - j(box+1) + num_vars,
    num_vars)."""
    side = box + 1
    return sum((-1) ** j * math.comb(num_vars, j) * math.comb(k - j * side + num_vars, num_vars)
               for j in range(min(num_vars, k // side) + 1))


def check_sweep_guard(specs: Iterable[IdealSpec], k_max: int, s_max: int,
                      box: int) -> None:
    """Reject an oracle sweep of more than MAX_MEMBER_TESTS membership tests.

    ring_oracle computes the statistic columns of each point of the union
    of the C(k_max + r, r) compositions of degree at most k_max and the
    (box+1)^r box points once per ring of r variables (the box points of
    degree at most k_max are in both), and each spec of the ring tests
    each such point by one comparison of its column with its bound.  So a
    spec costs one test per point of the union.  A spec with a power s
    stands for its s_max copies, s = 1..s_max, so a large s_max is
    rejected without building them.
    """
    tests = sum((s_max if hasattr(spec, "s") else 1)
                * (math.comb(k_max + spec.ambient, k_max) + (box + 1) ** spec.ambient
                   - _box_points(spec.ambient, k_max, box))
                for spec in specs)
    if tests > MAX_MEMBER_TESTS:
        raise ValueError(f"the sweep would make {tests} membership tests, more than "
                         f"{MAX_MEMBER_TESTS}; lower --s-max, --k-max or --box")


def check_fine_guard(num_vars: int, box: int) -> None:
    """Reject fine-series work beyond MAX_FINE_VARS variables or box MAX_FINE_BOX."""
    if num_vars > MAX_FINE_VARS:
        raise ValueError(f"fine series limited to {MAX_FINE_VARS} variables")
    if box > MAX_FINE_BOX or box < 0:
        raise ValueError(f"box bound must lie in 0..{MAX_FINE_BOX}")


def fine_series_formula(spec: IdealSpec, box: int) -> MultiSeries:
    """Closed-form fine Hilbert series, expanded over the truncated box.

    Veronese: product of the truncated geometric series of every variable
    times sum over subsets S of >= d variables of T^S * prod_{j not in S}
    (1 - T_j).  Power families: the truncated geometric product over the
    first span = n-t+1 variables minus the monomials of total degree < s in
    them, times the truncated geometric product over the remaining ones.

    The Veronese numerator lives on the 2^n corner {0, 1}^n.  At the corner
    point with support U its coefficient is sum_{k=d..|U|} (-1)^(|U|-k)
    C(|U|,k), which telescopes to (-1)^(|U|-d) C(|U|-1, d-1) (0 below d), as
    the coarse numerator does.  The geometric factors are prefix sums along
    every axis of the corner, n * 2^n additions; past exponent 1 the
    numerator is 0, so a prefix sum repeats its value at 1 and each box
    point reads the corner at min(alpha, 1).  The power-family series is 1
    at every box point but those of degree < s in the span axes.  These are
    listed one span axis at a time (after i axes, list c holds the offsets
    of the in-box points of degree c, c < min(s, i*box + 1)), and each
    zeroes the contiguous block of the remaining axes under it: (box+1)^n to
    fill the box plus one slice per point zeroed.  Membership is never
    consulted, so fine_series_oracle stays an independent check.
    """
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    side = box + 1
    if isinstance(spec, Veronese):
        d = spec.d
        corner = [(-1) ** (u - d) * math.comb(u - 1, d - 1) if u >= d else 0
                  for u in map(sum, product(range(2), repeat=vars_))]
        for i in range(vars_):
            bit = 1 << i
            corner = [c + corner[j - bit] if j & bit else c for j, c in enumerate(corner)]
        reads = [min(a, 1) for a in range(side)]
        index = [0]
        for _ in range(vars_):
            index = [2 * j + r for j in index for r in reads]
        return MultiSeries(vars_, box, tuple(map(corner.__getitem__, index)))
    strides = [side ** (vars_ - 1 - i) for i in range(vars_)]
    span = spec.span
    levels = [[0]]
    for i, stride in enumerate(strides[:span], 1):
        # a degree above i * box has a part above box, outside the box
        reach = min(spec.s, i * box + 1)
        grown = [[] for _ in range(reach)]
        for c, offsets in enumerate(levels):
            for a in range(min(side, reach - c)):
                grown[c + a] += [o + a * stride for o in offsets]
        levels = grown
    block = strides[span - 1]
    zeros = [0] * block
    coeffs = [1] * side ** vars_
    for offsets in levels:
        for o in offsets:
            coeffs[o:o + block] = zeros
    return MultiSeries(vars_, box, tuple(coeffs))


def fine_series_oracle(spec: IdealSpec, box: int) -> MultiSeries:
    """Fine series by testing spec.member at every point of the box."""
    check_fine_guard(spec.ambient, box)
    fines, _ = ring_oracle([spec], 0, box)
    return next(fines)
