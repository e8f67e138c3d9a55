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
expands its closed form on the dense box array: the Veronese numerator from
its signed binomial at each point of the 2^n corner, summed along every
axis of the corner and read at each box point through min(alpha, 1), and
the power families by a per-axis walk over the points of degree below s
(see fine_series_formula).  It never consults membership, so the fine
oracle, which calls spec.member at every box point, stays an independent
check.  check_sweep_guard bounds the spec.member calls of a whole oracle
sweep before it starts.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement, islice, product
from operator import add, sub
from typing import Iterable, Iterator, Sequence

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
# spec.member calls one oracle sweep may make, over all its specs
MAX_MEMBER_TESTS = 10**7
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


def check_sweep_guard(specs: Iterable[IdealSpec], k_max: int, s_max: int,
                      box: int) -> None:
    """Reject an oracle sweep of more than MAX_MEMBER_TESTS spec.member calls.

    A spec in r variables tests each of the C(k_max + r, r) compositions of
    degree at most k_max and each of the (box+1)^r box points.  A spec with
    a power s stands for its s_max copies, s = 1..s_max, so a large s_max
    is rejected without building them.
    """
    tests = sum((s_max if hasattr(spec, "s") else 1)
                * (math.comb(k_max + spec.ambient, k_max) + (box + 1) ** spec.ambient)
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
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    points = product(range(box + 1), repeat=vars_)
    return MultiSeries(vars_, box, tuple(map(int, map(spec.member, points))))
