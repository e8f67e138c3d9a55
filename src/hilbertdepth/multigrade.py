"""Fine (multigraded) Hilbert series over truncated exponent boxes, plus the
brute-force spec.member and enumeration oracles that ground-truth the closed
forms.

A box bound b means every variable exponent runs 0..b.  Truncation is sound
for products because all exponents are non-negative: terms outside the box
never influence terms inside it.  Fine/coarse consistency is only meaningful
for total degrees k <= b, where no composition of k escapes the box.

The coarse oracle enumerates the degree-k compositions of a ring size once
and tests every spec of that size against the same stream, taken in chunks
of COMPOSITION_CHUNK, so memory stays bounded by one chunk.  The fine formula
multiplies its closed form out on the dense box array one axis at a time
(the Veronese sum over subsets by a recurrence over axes, see
fine_series_formula) and never consults membership, so the fine oracle,
which calls spec.member at every box point, stays an independent check.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, islice, product
from operator import add, sub
from typing import Iterator, Sequence

from .exactalg import Record
from .ideals import IdealSpec, Veronese

__all__ = [
    "ExponentVector",
    "MultiSeries",
    "degree_compositions",
    "hilbert_function_counts",
    "hilbert_function_oracle",
    "fine_series_formula",
    "fine_series_oracle",
]

ExponentVector = tuple[int, ...]

MAX_FINE_VARS = 5
MAX_FINE_BOX = 6
MAX_ENUMERATION = 10**7
# compositions held at once by the coarse oracle
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

    def coarse_sums(self, max_degree: int) -> list[int]:
        """Sum of coefficients over each total degree 0..max_degree.

        Complete only for degrees <= box, where the box holds every
        composition of the degree.  The axes are summed away from the last
        one: sums[k] holds, over the axes still left, the coefficient sums
        at degree k in the axes summed so far, and the entries at exponent
        a of the next axis (every side-th one, from a on) move to k + a.
        """
        if max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        if max_degree > self.num_vars * self.box:
            raise ValueError("degree beyond the box's reach")
        side = self.box + 1
        sums = [list(self.coeffs)]
        for left in reversed(range(self.num_vars)):
            merged = [[0] * side ** left for _ in range(max_degree + 1)]
            for k, row in enumerate(sums):
                for a in range(min(side, max_degree + 1 - k)):
                    merged[k + a] = list(map(add, merged[k + a], row[a::side]))
            sums = merged
        return [row[0] for row in sums]


def degree_compositions(total: int, parts: int) -> Iterator[ExponentVector]:
    """All exponent vectors of the given total degree, lexicographically.

    Stars and bars: the partial sums of the first parts - 1 entries run over
    the non-decreasing sequences in 0..total, which combinations with
    replacement yields in lexicographic order, the order of the vectors.
    """
    if parts < 1:
        raise ValueError(f"parts must be at least 1, got {parts}")
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    start, end = (0,), (total,)
    return (tuple(map(sub, sums + end, start + sums))
            for sums in combinations_with_replacement(range(total + 1), parts - 1))


def hilbert_function_counts(specs: Sequence[IdealSpec], k: int) -> list[int]:
    """Count of degree-k monomials in each ideal, by direct enumeration.

    The specs share one ring size, and one stream of its compositions
    serves them all: each chunk of the stream is counted for every spec in
    turn, so every spec still tests every composition once.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    sizes = {spec.ambient for spec in specs}
    if len(sizes) != 1:
        raise ValueError("specs must share one number of variables")
    vars_ = sizes.pop()
    check_enumeration_guard(vars_, k)
    counts = [0] * len(specs)
    stream = degree_compositions(k, vars_)
    while chunk := list(islice(stream, COMPOSITION_CHUNK)):
        counts = [c + sum(map(spec.member, chunk)) for c, spec in zip(counts, specs)]
    return counts


def hilbert_function_oracle(spec: IdealSpec, k: int) -> int:
    """Count of degree-k monomials in the ideal, by direct enumeration."""
    return hilbert_function_counts([spec], k)[0]


def check_enumeration_guard(num_vars: int, k: int) -> None:
    """Reject enumerating more than MAX_ENUMERATION degree-k monomials."""
    if math.comb(k + num_vars - 1, num_vars - 1) > MAX_ENUMERATION:
        raise ValueError("degree too large to enumerate")


def check_fine_guard(num_vars: int, box: int) -> None:
    """Reject fine-series work beyond MAX_FINE_VARS variables or box MAX_FINE_BOX."""
    if num_vars > MAX_FINE_VARS:
        raise ValueError(f"fine series limited to {MAX_FINE_VARS} variables")
    if box > MAX_FINE_BOX or box < 0:
        raise ValueError(f"box bound must lie in 0..{MAX_FINE_BOX}")


def _axis_rows(size: int, side: int, stride: int) -> list[tuple[slice, slice]]:
    """The (row r, row r-1) slice pairs of a flat box array of the given size
    along the axis with the given stride, r = 1..side-1 increasing.

    Row r is every index whose coordinate on that axis is r.  It is cut as
    one stride-long slice per block of side * stride indices, or as one
    extended slice per offset within the stride, whichever needs fewer, so
    no axis takes more than (side-1) * sqrt(size / side) slice operations.
    """
    period = side * stride
    if stride <= size // period:
        return [(slice(r * stride + t, size, period), slice((r - 1) * stride + t, size, period))
                for t in range(stride) for r in range(1, side)]
    return [(slice(lo, lo + stride), slice(lo - stride, lo))
            for block in range(0, size, period)
            for lo in range(block + stride, block + period, stride)]


def _prefix_sum(coeffs: list[int], rows: list[tuple[slice, slice]]) -> None:
    """Multiply a flat box array in place by the truncated 1 / (1 - T_i),
    where rows are axis i's (_axis_rows): prefix sums along that axis."""
    for row, prev in rows:
        coeffs[row] = map(add, coeffs[row], coeffs[prev])


def _difference(coeffs: list[int], rows: list[tuple[slice, slice]]) -> None:
    """Multiply a flat box array in place by (1 - T_j), where rows are axis
    j's (_axis_rows): backward differences along that axis."""
    for row, prev in reversed(rows):
        coeffs[row] = map(sub, coeffs[row], coeffs[prev])


def _add_shifted(coeffs: list[int], source: list[int],
                 rows: list[tuple[slice, slice]]) -> None:
    """Add T_j times a flat box array, truncated to the box, to coeffs in
    place, where rows are axis j's (_axis_rows)."""
    for row, prev in rows:
        coeffs[row] = map(add, coeffs[row], source[prev])


def fine_series_formula(spec: IdealSpec, box: int) -> MultiSeries:
    """Closed-form fine Hilbert series, expanded over the truncated box.

    Veronese: product of the truncated geometric series of every variable
    times sum over subsets S of >= d variables of T^S * prod_{j not in S}
    (1 - T_j).  Power families: the truncated geometric product over the
    first span = n-t+1 variables minus the monomials of total degree < s in
    them, times the truncated geometric product over the remaining ones.

    The expansion runs on the dense coefficient array: each geometric factor
    is a prefix sum along its axis and each (1 - T_j) a backward difference.
    The Veronese sum over subsets is multiplied out one axis at a time: after
    the first i axes, array c holds the terms of the subsets S of those axes
    with min(|S|, d) = c, and axis i sends array c to c * (1 - T_i) plus
    T_i * array c-1 (array d to itself plus T_i * array d-1, since
    (1 - T_i) + T_i = 1).  Array d after the last axis is the sum, in
    O(n * d * (box+1)^n) additions rather than a pass per subset.
    Membership is never consulted, so fine_series_oracle stays an
    independent check.
    """
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    side = box + 1
    size = side ** vars_
    strides = [side ** (vars_ - 1 - i) for i in range(vars_)]
    axes = [_axis_rows(size, side, stride) for stride in strides]
    coeffs = [0] * size
    if isinstance(spec, Veronese):
        d = spec.d
        terms = [coeffs] + [[0] * size for _ in range(d)]
        coeffs[0] = 1
        for rows in axes:
            # from the top down, so array c-1 still holds the previous axis
            for c in range(d, 0, -1):
                if c < d:
                    _difference(terms[c], rows)
                _add_shifted(terms[c], terms[c - 1], rows)
            _difference(terms[0], rows)
        coeffs = terms[d]
        for rows in axes:
            _prefix_sum(coeffs, rows)
        return MultiSeries(vars_, box, tuple(coeffs))
    span = spec.span
    coeffs[0] = 1
    for rows in axes[:span]:
        _prefix_sum(coeffs, rows)
    # a degree above span * box has a part above box, outside the box
    for k in range(min(spec.s, span * box + 1)):
        for alpha in degree_compositions(k, span):
            if max(alpha) <= box:
                coeffs[sum(a * stride for a, stride in zip(alpha, strides))] -= 1
    for rows in axes[span:]:
        _prefix_sum(coeffs, rows)
    return MultiSeries(vars_, box, tuple(coeffs))


def fine_series_oracle(spec: IdealSpec, box: int) -> MultiSeries:
    """Fine series by testing spec.member at every point of the box."""
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    points = product(range(box + 1), repeat=vars_)
    return MultiSeries(vars_, box, tuple(map(int, map(spec.member, points))))
