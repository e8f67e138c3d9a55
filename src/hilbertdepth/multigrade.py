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


class _BoxPoly:
    """Multivariate polynomial truncated to the exponent box; internal."""

    __slots__ = ("num_vars", "box", "terms")

    def __init__(self, num_vars: int, box: int, terms: dict[ExponentVector, int] | None = None):
        self.num_vars = num_vars
        self.box = box
        self.terms = terms or {}

    @classmethod
    def constant(cls, num_vars: int, box: int, value: int) -> _BoxPoly:
        if value == 0:
            return cls(num_vars, box)
        return cls(num_vars, box, {(0,) * num_vars: value})

    @classmethod
    def monomial(cls, num_vars: int, box: int, alpha: ExponentVector, value: int = 1) -> _BoxPoly:
        if any(a > box for a in alpha):
            return cls(num_vars, box)
        return cls(num_vars, box, {tuple(alpha): value})

    @classmethod
    def geometric(cls, num_vars: int, box: int, var: int) -> _BoxPoly:
        """Truncation of 1 / (1 - T_var): sum of T_var^e for e = 0..box."""
        terms = {}
        for e in range(box + 1):
            alpha = [0] * num_vars
            alpha[var] = e
            terms[tuple(alpha)] = 1
        return cls(num_vars, box, terms)

    def __add__(self, other: _BoxPoly) -> _BoxPoly:
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            v = out.get(alpha, 0) + c
            if v:
                out[alpha] = v
            else:
                out.pop(alpha, None)
        return _BoxPoly(self.num_vars, self.box, out)

    def __sub__(self, other: _BoxPoly) -> _BoxPoly:
        return self + _BoxPoly(other.num_vars, other.box,
                               {a: -c for a, c in other.terms.items()})

    def __mul__(self, other: _BoxPoly) -> _BoxPoly:
        out: dict[ExponentVector, int] = {}
        box = self.box
        for a1, c1 in self.terms.items():
            for a2, c2 in other.terms.items():
                merged = tuple(x + y for x, y in zip(a1, a2))
                if any(x > box for x in merged):
                    continue
                v = out.get(merged, 0) + c1 * c2
                if v:
                    out[merged] = v
                else:
                    out.pop(merged, None)
        return _BoxPoly(self.num_vars, self.box, out)

    def to_multiseries(self) -> MultiSeries:
        return MultiSeries.from_function(
            self.num_vars, self.box, lambda alpha: self.terms.get(alpha, 0)
        )


def check_fine_guard(num_vars: int, box: int) -> None:
    """Reject fine-series work beyond MAX_FINE_VARS variables or box MAX_FINE_BOX."""
    if num_vars > MAX_FINE_VARS:
        raise ValueError(f"fine series limited to {MAX_FINE_VARS} variables")
    if box > MAX_FINE_BOX or box < 0:
        raise ValueError(f"box bound must lie in 0..{MAX_FINE_BOX}")


def _low_degree_part(num_vars: int, box: int, upto: int, used: int) -> _BoxPoly:
    """Sum of all monomials of total degree < upto in the first `used`
    variables."""
    acc = _BoxPoly(num_vars, box)
    pad = num_vars - used
    for k in range(upto):
        for alpha in degree_compositions(k, used):
            acc = acc + _BoxPoly.monomial(num_vars, box, alpha + (0,) * pad)
    return acc


def fine_series_formula(spec: IdealSpec, box: int) -> MultiSeries:
    """Closed-form fine Hilbert series, expanded over the truncated box.

    Veronese: product of the truncated geometric series of every variable
    times sum over subsets S of >= d variables of T^S * prod_{j not in S}
    (1 - T_j).  Power families: the truncated geometric product over the
    first span = n-t+1 variables minus the monomials of total degree < s in
    them, times the truncated geometric product over the remaining ones.
    """
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    if isinstance(spec, Veronese):
        n, d = spec.n, spec.d
        acc = _BoxPoly(n, box)
        for size in range(d, n + 1):
            for subset in combinations(range(n), size):
                term = _BoxPoly.constant(n, box, 1)
                for i in subset:
                    alpha = [0] * n
                    alpha[i] = 1
                    term = term * _BoxPoly.monomial(n, box, tuple(alpha))
                for j in range(n):
                    if j not in subset:
                        alpha = [0] * n
                        alpha[j] = 1
                        term = term * (_BoxPoly.constant(n, box, 1)
                                       - _BoxPoly.monomial(n, box, tuple(alpha)))
                acc = acc + term
        for i in range(n):
            acc = acc * _BoxPoly.geometric(n, box, i)
        return acc.to_multiseries()
    span = spec.span
    acc = _BoxPoly.constant(vars_, box, 1)
    for i in range(span):
        acc = acc * _BoxPoly.geometric(vars_, box, i)
    acc = acc - _low_degree_part(vars_, box, spec.s, span)
    for i in range(span, vars_):
        acc = acc * _BoxPoly.geometric(vars_, box, i)
    return acc.to_multiseries()


def fine_series_oracle(spec: IdealSpec, box: int) -> MultiSeries:
    """Fine series by pointwise membership over the box."""
    vars_ = spec.ambient
    check_fine_guard(vars_, box)
    return MultiSeries.from_function(vars_, box, lambda alpha: membership(spec, alpha))
