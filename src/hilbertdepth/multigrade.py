"""Fine (multigraded) Hilbert series over truncated exponent boxes, plus the
brute-force membership oracle (ring_oracle) that ground-truths the closed
forms.

A box bound b means every variable exponent runs 0..b.  Truncation is sound
for products because all exponents are non-negative: terms beyond the box
never influence terms inside it.  Fine/coarse consistency is only meaningful
for total degrees k <= b, where no composition of k escapes the box.

One pass per ring size serves both the coarse and the fine check.  Every spec
decides membership by comparing one statistic of the point with a bound
(spec.member_rule): the support size for Veronese, the sum of the first
span exponents for the power families.  So the pass computes the r + 1
statistics of each point once per ring, as columns over the box [0, box]^r
and over each chunk of COMPOSITION_CHUNK compositions of degree
<= max(k_max, box), and each spec compares the one column it reads with
its bound: one comparison per spec and point, made in C.  The box's
columns give each spec's fine array, and the compositions alone its count
of every degree.  The chunks run across degrees, their degree column
telling the degrees apart, so memory stays bounded by the box's columns,
one chunk's columns and one fine array, whatever k_max.

The fine formula counts, at each box point, the pieces of the family's
Stanley decomposition that cover it: one piece per minimal generator, each
a few contiguous runs of the lexicographic box, summed by one difference
array (see fine_series_formula).  The count is 1 on the ideal and 0 off it
because the pieces partition the ideal, a theorem about stable ideals and
not a restatement of membership, so the oracle stays an independent check.
check_sweep_guard bounds the membership tests, spec by point, of a whole
oracle sweep before it starts.
"""

from __future__ import annotations

import math
from itertools import (accumulate, chain, combinations, combinations_with_replacement,
                       compress, islice, product, repeat)
from operator import add, ne, sub
from typing import Iterable, Iterator, Sequence

from .exactalg import Record
from .ideals import IdealSpec, Veronese

__all__ = [
    "ExponentVector",
    "MultiSeries",
    "degree_compositions",
    "ring_oracle",
    "fine_series_formula",
]

ExponentVector = tuple[int, ...]

MAX_FINE_VARS = 5
MAX_FINE_BOX = 6
# membership tests, one per spec and point, one oracle sweep may make
MAX_MEMBER_TESTS = 10**7
# compositions held at once by ring_oracle's degree counts
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


def ring_oracle(specs: Iterable[IdealSpec], k_max: int, box: int
                ) -> tuple[Iterator[MultiSeries], Iterator[tuple[int, list[int]]]]:
    """Fine series and member counts per degree of specs of one ring size,
    from the statistic columns of each point of the box [0, box]^r and of
    each composition of degree <= max(k_max, box), computed once per ring.

    Returns (fines, degrees).  fines yields each spec's member values over
    the box as a MultiSeries, spec by spec, from the box's points alone.
    degrees yields (k, counts) for k = 0..max(k_max, box), counts[i] the
    number of degree-k monomials in the ideal of specs[i], from the
    compositions alone; either may be drawn without the other.  Every spec
    decides each point by one comparison of the column its member_rule
    names with its bound.  Arguments and work guards are checked at the
    call; the points are tested as the results are drawn.
    """
    if k_max < 0:
        raise ValueError("degree must be non-negative")
    if box < 0:
        raise ValueError("box bound must be non-negative")
    specs = list(specs)  # read by the size check, the guard and the rules
    sizes = {spec.ambient for spec in specs}
    if len(sizes) != 1:
        raise ValueError("specs must share one number of variables")
    vars_ = sizes.pop()
    check_sweep_guard(specs, k_max, 1, box)
    rules = [spec.member_rule() for spec in specs]

    def box_pass() -> Iterator[MultiSeries]:
        columns = _statistics(list(product(range(box + 1), repeat=vars_)), vars_)
        for column, bound in rules:
            # bytes turns the comparisons into the ints 0 and 1
            yield MultiSeries(vars_, box, tuple(bytes(map(bound.__le__, columns[column]))))

    degrees = _degree_counts(rules, vars_, max(k_max, box))
    return box_pass(), ((k, list(counts)) for k, counts in enumerate(degrees))


def _statistics(points: Sequence[ExponentVector], vars_: int) -> list[Sequence[int]]:
    """The statistic columns of points in vars_ variables, the columns
    member_rule names: column 0 holds each point's support size and column
    j >= 1 the sum of its first j exponents, so column vars_ is its degree."""
    support = list(map(vars_.__sub__, map(tuple.count, points, repeat(0))))
    # the head sums, adding one exponent column at a time
    heads = accumulate(zip(*points), lambda head, exponents: list(map(add, head, exponents)))
    return [support, *heads]


def _degree_counts(rules: Sequence[tuple[int, int]], vars_: int,
                   top: int) -> Iterator[tuple[int, ...]]:
    """Per degree k = 0..top, the compositions of degree k in vars_
    variables that each member rule accepts, one tuple of counts per degree.

    The compositions stream across degrees in chunks of COMPOSITION_CHUNK,
    so a ring with few compositions per degree, such as the one of one
    variable, still fills each chunk.  Each chunk's degree column cuts it
    into its degrees, and each rule counts its accepted points per degree;
    a degree cut by a chunk's end is summed across the two chunks.
    """
    stream = chain.from_iterable(map(degree_compositions, range(top + 1), repeat(vars_)))
    held = None  # the counts of the degree the last chunk ended in
    while chunk := list(islice(stream, COMPOSITION_CHUNK)):
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


def check_sweep_guard(specs: Iterable[IdealSpec], k_max: int, s_max: int,
                      box: int) -> None:
    """Reject an oracle sweep of more than MAX_MEMBER_TESTS membership tests.

    ring_oracle computes the statistic columns of each of the (box+1)^r
    box points and of each of the C(max(k_max, box) + r, r) compositions
    of degree at most max(k_max, box) once per ring of r variables, and
    each spec of the ring tests each such point by one comparison of its
    column with its bound.  So a spec costs one test per point of the two.
    A spec with a power s stands for its s_max copies, s = 1..s_max, so a
    large s_max is rejected without building them.  A spec's count is at
    least the C(k_max + r - 1, r - 1) compositions of degree k_max alone,
    so the guard also bounds the compositions of any one degree the pass
    draws.
    """
    top = max(k_max, box)
    tests = sum((s_max if hasattr(spec, "s") else 1)
                * (math.comb(top + spec.ambient, top) + (box + 1) ** spec.ambient)
                for spec in specs)
    if tests > MAX_MEMBER_TESTS:
        raise ValueError(f"the sweep would make {tests} membership tests, more than "
                         f"{MAX_MEMBER_TESTS}; lower --s-max, --k-max or --box")


def check_fine_guard(num_vars: int, box: int) -> None:
    """Reject fine-series work beyond MAX_FINE_VARS variables or box
    MAX_FINE_BOX; the messages name the oracle flag that sets each."""
    if num_vars > MAX_FINE_VARS:
        raise ValueError(f"fine series limited to {MAX_FINE_VARS} variables; "
                         "lower --n-max")
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
    is never consulted, so comparing with ring_oracle's fine arrays also
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
    cover = [0] * (side ** vars_ + 1)
    for start, end in runs:
        cover[start] += 1
        cover[end] -= 1
    return MultiSeries(vars_, box, tuple(accumulate(cover[:-1])))
