"""Fine (multigraded) Hilbert series over truncated exponent boxes, plus the
brute-force membership and enumeration oracles that ground-truth the closed
forms.

A box bound b means every variable exponent runs 0..b.  Truncation is sound
for products because all exponents are non-negative: terms outside the box
never influence terms inside it.  Fine/coarse consistency is only meaningful
for total degrees k <= b, where no composition of k escapes the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterator

from .ideals import IdealSpec, Veronese

__all__ = [
    "ExponentVector",
    "MultiSeries",
    "membership",
    "degree_compositions",
    "hilbert_function_oracle",
    "fine_series_formula",
    "fine_series_oracle",
]

ExponentVector = tuple[int, ...]

MAX_FINE_VARS = 5
MAX_FINE_BOX = 6
MAX_ENUMERATION = 10**7


@dataclass(frozen=True)
class MultiSeries:
    """Dense truncated multivariate series over the box [0, box]^num_vars.

    Coefficients are stored in lexicographic order of the exponent vector
    (last index fastest), which makes equality a tuple comparison.
    """

    num_vars: int
    box: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1 or self.box < 0:
            raise ValueError("need num_vars >= 1 and box >= 0")
        if len(self.coeffs) != (self.box + 1) ** self.num_vars:
            raise ValueError("coefficient array does not fill the box")

    @classmethod
    def from_function(
        cls, num_vars: int, box: int, fn: Callable[[ExponentVector], int]
    ) -> MultiSeries:
        side = box + 1
        return cls(num_vars, box,
                   tuple(fn(alpha) for alpha in product(range(side), repeat=num_vars)))

    def exponents(self) -> Iterator[ExponentVector]:
        return product(range(self.box + 1), repeat=self.num_vars)

    def index(self, alpha: ExponentVector) -> int:
        if len(alpha) != self.num_vars:
            raise ValueError("exponent vector length mismatch")
        idx = 0
        for a in alpha:
            if not 0 <= a <= self.box:
                raise ValueError("exponent outside the box")
            idx = idx * (self.box + 1) + a
        return idx

    def coefficient(self, alpha: ExponentVector) -> int:
        return self.coeffs[self.index(alpha)]

    def coarse_sums(self, max_degree: int) -> list[int]:
        """Sum of coefficients over each total degree 0..max_degree.

        Complete only for degrees <= box, where the box holds every
        composition of the degree.
        """
        if max_degree > self.num_vars * self.box:
            raise ValueError("degree beyond the box's reach")
        sums = [0] * (max_degree + 1)
        for alpha, c in zip(self.exponents(), self.coeffs):
            k = sum(alpha)
            if k <= max_degree:
                sums[k] += c
        return sums


def membership(spec: IdealSpec, alpha: ExponentVector) -> int:
    """1 iff the monomial with exponent vector alpha lies in the ideal.

    alpha must have the ideal's ambient length (n-t+1 for HatPower, n
    otherwise) and non-negative entries.
    """
    if len(alpha) != spec.ambient:
        raise ValueError(
            f"exponent vector has length {len(alpha)}, expected {spec.ambient}"
        )
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be non-negative")
    return 1 if spec.member(alpha) else 0


def degree_compositions(total: int, parts: int) -> Iterator[ExponentVector]:
    """All exponent vectors of the given total degree, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in degree_compositions(total - first, parts - 1):
            yield (first,) + rest


def hilbert_function_oracle(spec: IdealSpec, k: int) -> int:
    """Count of degree-k monomials in the ideal, by direct enumeration."""
    if k < 0:
        raise ValueError("degree must be non-negative")
    vars_ = spec.ambient
    if math.comb(k + vars_ - 1, vars_ - 1) > MAX_ENUMERATION:
        raise ValueError("degree too large to enumerate")
    return sum(membership(spec, alpha) for alpha in degree_compositions(k, vars_))


def check_fine_guard(num_vars: int, box: int) -> None:
    """Reject fine-series work beyond MAX_FINE_VARS variables or box MAX_FINE_BOX."""
    if num_vars > MAX_FINE_VARS:
        raise ValueError(f"fine series limited to {MAX_FINE_VARS} variables")
    if box > MAX_FINE_BOX or box < 0:
        raise ValueError(f"box bound must lie in 0..{MAX_FINE_BOX}")


def _prefix_sum(coeffs: list[int], side: int, stride: int) -> None:
    """Multiply a flat box array in place by the truncated 1 / (1 - T_i),
    where axis i has the given stride: prefix sums along that axis."""
    for idx in range(len(coeffs)):
        if idx // stride % side:
            coeffs[idx] += coeffs[idx - stride]


def _difference(coeffs: list[int], side: int, stride: int) -> None:
    """Multiply a flat box array in place by (1 - T_j), where axis j has the
    given stride: backward differences along that axis."""
    for idx in reversed(range(len(coeffs))):
        if idx // stride % side:
            coeffs[idx] -= coeffs[idx - stride]


def fine_series_formula(spec: IdealSpec, box: int) -> MultiSeries:
    """Closed-form fine Hilbert series, expanded over the truncated box.

    Veronese: product of the truncated geometric series of every variable
    times sum over subsets S of >= d variables of T^S * prod_{j not in S}
    (1 - T_j).  Power families: the truncated geometric product over the
    first span = n-t+1 variables minus the monomials of total degree < s in
    them, times the truncated geometric product over the remaining ones.

    The expansion runs on the dense coefficient array: each geometric factor
    is a prefix sum along its axis and each (1 - T_j) a backward difference.
    Membership is never consulted, so fine_series_oracle stays an
    independent check.
    """
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    side = box + 1
    strides = [side ** (vars_ - 1 - i) for i in range(vars_)]
    coeffs = [0] * side ** vars_
    if isinstance(spec, Veronese):
        # every T^S has S nonempty, so box 0 truncates the whole sum away
        for size in range(spec.d, vars_ + 1) if box else ():
            for subset in combinations(range(vars_), size):
                term = [0] * len(coeffs)
                term[sum(strides[i] for i in subset)] = 1
                for j in range(vars_):
                    if j not in subset:
                        _difference(term, side, strides[j])
                coeffs = [a + b for a, b in zip(coeffs, term)]
        for stride in strides:
            _prefix_sum(coeffs, side, stride)
        return MultiSeries(vars_, box, tuple(coeffs))
    span = spec.span
    coeffs[0] = 1
    for stride in strides[:span]:
        _prefix_sum(coeffs, side, stride)
    for k in range(spec.s):
        for alpha in degree_compositions(k, span):
            if max(alpha) <= box:
                coeffs[sum(a * stride for a, stride in zip(alpha, strides))] -= 1
    for stride in strides[span:]:
        _prefix_sum(coeffs, side, stride)
    return MultiSeries(vars_, box, tuple(coeffs))


def fine_series_oracle(spec: IdealSpec, box: int) -> MultiSeries:
    """Fine series by pointwise membership over the box."""
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    return MultiSeries.from_function(vars_, box, lambda alpha: membership(spec, alpha))
