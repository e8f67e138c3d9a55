"""The four monomial ideal families and their coarse Hilbert series.

In the polynomial ring K[x_1..x_n] (the field never enters any computation;
Hilbert functions here count monomials):

  * Veronese(n, d): the ideal generated by all squarefree monomials of
    degree d, i.e. x^a belongs iff at least d exponents are positive.
  * MaxPower(n, s): the s-th power of the ideal (x_1..x_n); x^a belongs
    iff the total degree is at least s.
  * HatPower(n, t, s): the s-th power of the maximal ideal of the subring
    in the first n-t+1 variables, regarded in that subring.
  * GeneratedHatPower(n, t, s): the ideal the previous one generates in
    the full ring; x^a belongs iff the first n-t+1 exponents sum to >= s.

The last three are one object: the s-th power of the maximal ideal in
span = n-t+1 variables (t = 1 for MaxPower).  Its series is the
Eagon-Northcott numerator of that power over (1-T)^span, shifted by
(1-T)^-(t-1) when the ideal is generated in the full ring.  Each spec
class carries its family's series, closed depth and membership test, the
latter both per point (member) and as a bound on one statistic of the
point (member_rule), and FAMILIES lists the classes by CLI name.

Every series is assembled as its exact numerator polynomial first and then
canonicalized; nothing is expanded coefficient-wise.  All four families
share one numerator recurrence (_power_series), that of m^s in span
variables: P_s = C(span+s-1, s) and

    P_(s+i) = P_(s+i-1) * -(s+i-1)(span-i) / (i(s+i)),

one multiply and one exact division per term, each quotient the next
closed-form term.  Veronese(n, d) has the numerator of m^d in n-d+1
variables, over (1-T)^n (span = n-d+1, s = d), which is the paper's link
between the families.  The second presentation of the Veronese series,
the independent check on this kernel, lives only in the identities module,
as the numerator that the prop-2.3, eq-chain and theorem-1.4 sweeps carry.

Every family numerator is T^v Q (v = s, which is d for Veronese) with Q in Bernstein form,
Q = sum_{r=0..D} C(N, r) T^(D-r) (1-T)^r with N = span + s - 1 (n for
Veronese), so Q's reversal shifted by 1 has the coefficients C(N, r).  The
depth scan's tables at its moving base are these binomials (see
series._verdicts), so no family table is ever negative, and the scan
rejects each step before the depth at P's index v + 1, whose coefficient
is Q_1 + j Q_0.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import Union

from .exactalg import IntPolynomial, Record, _require_ints
from .series import RationalFunctionSeries, canonicalize, hilbert_depth

__all__ = [
    "Veronese",
    "MaxPower",
    "HatPower",
    "GeneratedHatPower",
    "IdealSpec",
    "FAMILIES",
    "DepthReport",
    "depth_report",
]


class Veronese(Record):
    """Squarefree degree-d generators in n variables; requires 1 <= d <= n."""

    __slots__ = ("n", "d")
    family = "veronese"

    def __post_init__(self) -> None:
        _require_ints(f"{type(self).__qualname__} field", n=self.n, d=self.d)
        if self.n < 1:
            raise ValueError("variable count n must be >= 1")
        if not 1 <= self.d <= self.n:
            raise ValueError("generator degree d must satisfy 1 <= d <= n")

    @property
    def ambient(self) -> int:
        """Number of variables of the ring the ideal lives in."""
        return self.n

    def series(self) -> RationalFunctionSeries:
        """Coarse Hilbert series: the numerator of m^d in n-d+1 variables
        over (1-T)^n (see _power_series)."""
        return _power_series(self.n - self.d + 1, self.d, self.n)

    def closed_depth(self) -> int:
        """Closed-form depth d + floor((n-d) / (d+1)).

        verify theorem-1.3's ("substitution", n-d+1, d) point compares this
        floor spelling with the max-power formula at (n-d+1, d) shifted by
        d-1, that is d - 1 + ceil((n-d+1) / (d+1)), the paper's ceil
        spelling.  Acceptance criterion 2 checks the other two spellings,
        ceil and ratio, d + floor(C(n,d+1) / C(n,d)), for every n <= 40.
        """
        return self.d + (self.n - self.d) // (self.d + 1)

    def member(self, alpha: tuple[int, ...]) -> bool:
        return len(alpha) - alpha.count(0) >= self.d

    def member_rule(self) -> tuple[int, int]:
        """member as (column, bound): x^a belongs iff statistic `column` of
        a is at least bound, where statistic 0 is the support size and
        statistic j >= 1 the sum of the first j exponents.  Here the
        support size must reach d."""
        return 0, self.d


class _PowerFamily(Record):
    """The s-th power of the maximal ideal of the first span = n-t+1
    variables, in a ring of `ambient` variables."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _require_ints(f"{type(self).__qualname__} field", n=self.n, t=self.t, s=self.s)
        if self.n < 1:
            raise ValueError("variable count n must be >= 1")
        if not 1 <= self.t <= self.n:
            raise ValueError("cut parameter t must satisfy 1 <= t <= n")
        if self.s < 1:
            raise ValueError("power s must be >= 1")

    @property
    def span(self) -> int:
        return self.n - self.t + 1

    @property
    def ambient(self) -> int:
        """Number of variables of the ring the ideal lives in."""
        return self.n

    def series(self) -> RationalFunctionSeries:
        """Coarse Hilbert series (see _power_series)."""
        return _power_series(self.span, self.s, self.ambient)

    def closed_depth(self) -> int:
        """Closed-form depth ceil(span / (s+1)) of m^s in span variables,
        raised by exactly ambient - span by the extra variables."""
        return -(-self.span // (self.s + 1)) + self.ambient - self.span

    def member(self, alpha: tuple[int, ...]) -> bool:
        return sum(alpha[:self.span]) >= self.s

    def member_rule(self) -> tuple[int, int]:
        """member as (column, bound), as for Veronese: the sum of the first
        span exponents must reach s."""
        return self.span, self.s


class MaxPower(_PowerFamily):
    """s-th power of the maximal ideal in n variables; requires s >= 1."""

    __slots__ = ("n", "s")
    t = 1
    family = "max-power"


class HatPower(_PowerFamily):
    """s-th maximal-ideal power of the subring in the first n-t+1 variables."""

    __slots__ = ("n", "t", "s")
    family = "hat-power"

    @property
    def ambient(self) -> int:
        return self.span


class GeneratedHatPower(_PowerFamily):
    """Ideal of the full ring generated by the corresponding HatPower."""

    __slots__ = ("n", "t", "s")
    family = "generated-hat-power"


IdealSpec = Union[Veronese, MaxPower, HatPower, GeneratedHatPower]

FAMILIES: dict[str, type] = {
    cls.family: cls for cls in (Veronese, MaxPower, HatPower, GeneratedHatPower)
}


class DepthReport(Record):
    """Computed depth next to its closed-form prediction for one ideal."""

    __slots__ = ("spec", "series", "computed_depth", "closed_form_depth")

    @property
    def agree(self) -> bool:
        return self.computed_depth == self.closed_form_depth


def _power_series(span: int, s: int, ambient: int) -> RationalFunctionSeries:
    """Coarse Hilbert series of m^s in span variables, over (1-T)^ambient.

    In span variables, H = (1-T)^(-span) - sum_{k<s} C(span+k-1,k) T^k,
    assembled over the common denominator (1-T)^span.  The numerator is
    the alternating sum of the graded Betti numbers of the linear
    (Eagon-Northcott) resolution of m^s, whose i-th module has
    C(s+i-1, i) C(span+s-1, s+i) generators in degree s+i, so

        P_(s+i) = (-1)^i C(s+i-1, i) C(span+s-1, s+i)    for 0 <= i < span

    (and 0 below T^s).  Consecutive terms differ by one ratio, so the
    numerator is built from P_s = C(span+s-1, s) by

        P_(s+i) = P_(s+i-1) * -(s+i-1)(span-i) / (i(s+i))    for 0 < i < span,

    one multiply and one exact division per term, rather than from the
    product of an s-term polynomial with (1-T)^span or two binomials
    per term.  P(1) = 1, so the extra variables only raise the
    denominator power to ambient.

    This is also the Veronese(n, d) series, with span = n-d+1, s = d and
    ambient = n: the paper's link veronese(n, d) = (1-T)^-(d-1) *
    hat(n, d, d).  At i = j-d the term above is the Veronese closed form
    (-1)^(j-d) C(n, j) C(j-1, d-1), the telescoped T^j coefficient of
    sum_{k=d..n} C(n,k) T^k (1-T)^(n-k).
    """
    numer = IntPolynomial((0,) * s + tuple(accumulate(
        range(1, span),
        lambda p, i: p * -(s + i - 1) * (span - i) // (i * (s + i)),
        initial=comb(span + s - 1, s))))
    return canonicalize(numer, ambient)


def depth_report(spec: IdealSpec) -> DepthReport:
    """Compute the series, scan its depth, and compare with the closed form."""
    h = spec.series()
    return DepthReport(spec, h, hilbert_depth(h), spec.closed_depth())
