"""Canonical rational-series arithmetic: series of the form P(T) / (1 - T)^m
with integer numerator, and the exact decision procedures built on them.

The canonical form removes every (1 - T) factor shared between numerator and
denominator, so equality of series is a structural comparison.  On top of the
representation sit three decisions, all exact:

  * coefficient extraction via the convolution with the expansion of
    (1 - T)^(-m), whose k-th coefficient is C(m-1+k, m-1);
  * non-negativity of the entire (infinite) coefficient sequence, decided in
    finite time because the sequence agrees with a polynomial in k once k
    exceeds the numerator degree; the prefix-sum passes that expand the head
    also yield that polynomial's forward-difference table;
  * the largest r such that (1 - T)^r H still has non-negative coefficients,
    found by a linear scan of the same decision on the numerator, valid
    because multiplying a non-negative series by 1/(1 - T) takes prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import factorial

from .exactalg import IntPolynomial, binomial, one_minus_t_power

__all__ = [
    "RationalFunctionSeries",
    "EventualPolynomial",
    "canonicalize",
    "mul_power_one_minus_t",
    "coefficient",
    "eventual_polynomial",
    "is_nonnegative",
    "hilbert_depth",
]


@dataclass(frozen=True)
class RationalFunctionSeries:
    """H(T) = numer(T) / (1 - T)^den_pow in canonical form.

    Canonical means: either numer is zero (and den_pow is 0), or no
    (1 - T) factor of numer can be cancelled against the denominator,
    i.e. den_pow >= 1 implies numer(1) != 0.  Build instances through
    canonicalize(); direct construction validates the invariant.
    """

    numer: IntPolynomial
    den_pow: int

    def __post_init__(self) -> None:
        if self.den_pow < 0:
            raise ValueError("denominator power must be non-negative")
        if self.numer.is_zero():
            if self.den_pow != 0:
                raise ValueError("zero series must have denominator power 0")
        elif self.den_pow > 0 and self.numer.eval_at_one() == 0:
            raise ValueError("numerator has a removable (1 - T) factor")

    def __str__(self) -> str:
        if self.den_pow == 0:
            return str(self.numer)
        return f"({self.numer}) / (1-T)^{self.den_pow}"


@dataclass(frozen=True)
class EventualPolynomial:
    """Polynomial q with q(k) = coefficient(H, k) for every k >= threshold.

    coeffs are rational, lowest power of k first.  For H = P/(1-T)^m with
    m >= 1, threshold is deg P, the degree of q is m - 1 and its leading
    coefficient is P(1) / (m-1)!.  For a polynomial H (m = 0), q is the zero
    polynomial (coeffs empty, degree -1) and threshold is deg P + 1.
    """

    threshold: int
    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __call__(self, k: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * k + c
        return acc


def canonicalize(numer: IntPolynomial, den_pow: int) -> RationalFunctionSeries:
    """Canonical form of numer(T) / (1 - T)^den_pow.

    Cancels (1 - T) factors of the numerator against the denominator for
    as long as both allow; surplus factors beyond den_pow stay in the
    numerator, so the result never has a negative denominator power.
    """
    if den_pow < 0:
        raise ValueError("denominator power must be non-negative")
    if numer.is_zero():
        return RationalFunctionSeries(IntPolynomial(), 0)
    while den_pow > 0 and numer.eval_at_one() == 0:
        numer = numer.divide_one_minus_t()
        den_pow -= 1
    return RationalFunctionSeries(numer, den_pow)


def mul_power_one_minus_t(h: RationalFunctionSeries, r: int) -> RationalFunctionSeries:
    """Canonical form of (1 - T)^r * H; r may be negative (raises den_pow)."""
    new_pow = h.den_pow - r
    if new_pow >= 0:
        return canonicalize(h.numer, new_pow)
    return canonicalize(h.numer * one_minus_t_power(-new_pow), 0)


def coefficient(h: RationalFunctionSeries, k: int) -> int:
    """Exact k-th coefficient of the power-series expansion of H.

    For den_pow = m >= 1 this is the convolution
    sum_{j <= k} P_j * C(m-1+k-j, m-1); for m = 0 it is P_k itself.
    """
    if k < 0:
        raise ValueError("coefficient index must be non-negative")
    m = h.den_pow
    cs = h.numer.coefficients
    if m == 0:
        return cs[k] if k < len(cs) else 0
    total = 0
    for j in range(min(k, len(cs) - 1) + 1):
        pj = cs[j]
        if pj:
            total += pj * binomial(m - 1 + k - j, m - 1)
    return total


def eventual_polynomial(h: RationalFunctionSeries) -> EventualPolynomial:
    """Closed form of coefficient(H, k) as a polynomial in k, valid for
    k >= threshold.

    Expands sum_j P_j * C(k-j+m-1, m-1) symbolically: each binomial is the
    product (k-j+1)...(k-j+m-1) / (m-1)!.  For den_pow = 0 the expansion is
    finitely supported, so the form is the zero polynomial from deg P + 1
    on: the Hilbert polynomial of a module of finite length.
    """
    m = h.den_pow
    if m == 0:
        return EventualPolynomial(threshold=len(h.numer.coefficients), coeffs=())
    acc = IntPolynomial()
    for j, pj in enumerate(h.numer.coefficients):
        if pj == 0:
            continue
        prod = IntPolynomial.one()
        for i in range(1, m):
            prod = prod * IntPolynomial((i - j, 1))
        acc = acc + pj * prod
    denom = factorial(m - 1)
    coeffs = tuple(Fraction(c, denom) for c in acc.coefficients)
    return EventualPolynomial(threshold=h.numer.degree, coeffs=coeffs)


def _nonnegative(numer: tuple[int, ...], m: int) -> bool:
    """is_nonnegative for numer(T) / (1 - T)^m; numer nonzero when m >= 1."""
    row = list(numer) + [0] * (m - 1)
    diffs = []
    for _ in range(m):
        row = list(accumulate(row))
        diffs.insert(0, row.pop())  # q's forward differences at D, P(1) last
    if any(c < 0 for c in row) or diffs and min(diffs[0], diffs[-1]) < 0:
        return False
    e = m - 1
    while True:
        if all(x >= 0 for x in diffs):
            return True
        for j in range(e):
            diffs[j] += diffs[j + 1]
        if diffs[0] < 0:
            return False


def is_nonnegative(h: RationalFunctionSeries) -> bool:
    """True iff every power-series coefficient of H is >= 0, decided exactly.

    Procedure: m passes of prefix summing over P padded to D + m entries
    (D = numerator degree), each popping its row's last entry; with m = 0
    the row is P.  Beyond D the sequence agrees with a polynomial q of degree
    m-1 whose leading coefficient is numer(1)/(m-1)!.  The j-fold sums
    differenced once are the (j-1)-fold sums shifted by one, so the popped
    entries, reversed, are the forward-difference table of q at base D, from
    q(D) to numer(1).  Reject if q(D), numer(1) (eventually negative) or a
    remaining c_0..c_{D-1} is negative.  Otherwise walk the table: Newton's
    expansion q(k0 + x) = sum_j C(x, j) * (difference_j at k0) shows that
    once every difference is >= 0 at some k0 the whole tail is >= 0, and each
    difference is itself eventually non-negative because its leading term is
    positive, so the walk terminates.
    """
    return _nonnegative(h.numer.coefficients, h.den_pow)


def hilbert_depth(h: RationalFunctionSeries) -> int:
    """Largest r with (1 - T)^r * H having all coefficients >= 0.

    Requires H to be a nonzero non-negative series.  The scan runs r = 0
    upward and stops at the first failure, which is sound because
    non-negativity at r implies non-negativity at r - 1 (prefix sums of a
    non-negative sequence are non-negative).  It never exceeds den_pow:
    for r > den_pow the transform is a nonzero polynomial with a
    (1 - T) factor, whose coefficients sum to 0 and hence cannot all be
    non-negative.  For r <= den_pow the transform is the canonical
    numer / (1 - T)^(den_pow - r), since numer(1) != 0.
    """
    if h.numer.is_zero():
        raise ValueError("depth is undefined for the zero series")
    numer, m = h.numer.coefficients, h.den_pow
    if not _nonnegative(numer, m):
        raise ValueError("series has a negative coefficient; not a Hilbert series")
    r = 0
    while r < m and _nonnegative(numer, m - r - 1):
        r += 1
    return r
