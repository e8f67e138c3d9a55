"""Mechanical verifiers for the library's identity catalog.

Each verifier recomputes both sides of an identity through independent
pipelines, as a lazy sequence of check points (label, lhs, rhs) whose sides
are integers or canonical series.  One driver compares the sides point by
point in lexicographic sweep order and returns a structured pass/fail
result carrying the first counterexample; a verifier that reads its sides
off a row builds that row once per call.  A series mismatch is
reported at the label extended by the first coefficient index where the
expansions differ.

Catalog tags and statements:

  lemma_2_2     C(i+d-1, i) = sum_{l=0..i} C(n, i-l) (-1)^l C(n-d-i+l, l)
                for 0 <= i <= n-d.
  prop_2_3      the two presentations of the squarefree-Veronese series are
                equal, and the numerator identity divided by T^d:
                sum_{k=0..n-d} C(n, k+d) T^k (1-T)^(n-k-d)
                  = sum_{i=0..n-d} C(i+d-1, d-1) (1-T)^i.
  lemma_4_1     C(n+k, k+d) = sum_{i=d-1..n-1} C(i, d-1) C(n-i+k-1, k).
  eq_chain      the three-step chain connecting the Veronese series to the
                generated hat-power series: a rational-function equality
                and two series identities checked coefficientwise up to
                k_max.
  theorem_1_4   veronese(n, d) = (1-T)^(-(d-1)) * hat(n, d, d) as series,
                and depth(veronese) = depth(hat) + d - 1.
  theorem_1_3   the closed depth formulas of both families hold over a
                sweep, and substituting (n+s-1, s) into the Veronese
                formula reproduces the max-power formula shifted by s-1.

Six check points repeat another point's comparison and are not
independent evidence.  eq_chain ("rational",) and theorem_1_4 ("series",)
compare veronese_series_alt(n, d) with the Eagon-Northcott numerator of
m^d in n-d+1 variables over (1-T)^n, built as GeneratedHatPower(n, d, d)
.series() and as HatPower(n, d, d).series() raised by
mul_power_one_minus_t.  That is the pair prop_2_3 ("series",) compares,
with the numerator built as Veronese(n, d).series(); no point compares
that numerator with itself.  eq_chain ("unshifted", k) are
lemma_4_1's points.  eq_chain ("shifted", k) for k >= d repeats
("unshifted", k-d), the same row entry against the same value, since
C(n-d+k, k) = C(n+(k-d), (k-d)+d).  prop_2_3 ("numerator",) reads its
right-hand side off the veronese_series_alt numerator that ("series",)
already compared; it stays a repeat because an independent right side,
sum_i C(i+d-1, d-1) (1-T)^i expanded anew, costs O(n) per coefficient.
theorem_1_4 ("depth",) scans one numerator twice: the depth scan judges
each step from the numerator alone, and ("series",) has just shown that
both sides share it, so the point fails only if hilbert_depth misreads
den_pow.  theorem_1_3 ("veronese", n, d) repeats a scan, though not a
comparison: whenever d <= n-d+1 it scans the numerator that
("max_power", n-d+1, d) scans, so of the three points
("max_power", n-d+1, d), ("veronese", n, d) and
("substitution", n-d+1, d), any two imply the third.
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Iterable, Iterator, Union

from .exactalg import IntPolynomial, Record, binomial
from .ideals import (
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
    veronese_series_alt,
)
from .series import (
    RationalFunctionSeries,
    canonicalize,
    coefficient,
    hilbert_depth,
    mul_power_one_minus_t,
)

__all__ = [
    "Counterexample",
    "VerificationResult",
    "verify_lemma_2_2",
    "verify_prop_2_3",
    "verify_lemma_4_1",
    "verify_eq_chain",
    "verify_theorem_1_4",
    "verify_theorem_1_3",
]

# (label, lhs, rhs): one comparison, its sides integers or canonical series
CheckPoint = tuple[tuple, Union[int, RationalFunctionSeries],
                   Union[int, RationalFunctionSeries]]


class Counterexample(Record):
    """First failing check point with the exact values of both sides."""

    __slots__ = ("params", "lhs", "rhs")


class VerificationResult(Record):
    """One verifier call's outcome; counterexample is None on a pass."""

    __slots__ = ("identity_id", "params", "counterexample")

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def _first_series_difference(
    lhs: RationalFunctionSeries, rhs: RationalFunctionSeries
) -> tuple[int, int, int]:
    """First k where the expansions differ; the forms are known unequal."""
    d1, d2 = max(lhs.numer.degree, 0), max(rhs.numer.degree, 0)
    limit = max(d1 + rhs.den_pow, d2 + lhs.den_pow) + 1
    for k in range(limit + 1):
        a, b = coefficient(lhs, k), coefficient(rhs, k)
        if a != b:
            return k, a, b
    raise AssertionError("canonical forms differ but expansions agree")


def _check(identity_id: str, params: str,
           points: Iterable[CheckPoint]) -> VerificationResult:
    """Compare both sides of each check point in order, stopping at the
    first that differ.

    A series mismatch is reported at point + (k,), k the first coefficient
    where the expansions differ, with those two coefficients as the values.
    """
    for point, lhs, rhs in points:
        if lhs != rhs:
            if isinstance(lhs, RationalFunctionSeries):
                k, lhs, rhs = _first_series_difference(lhs, rhs)
                point = point + (k,)
            return VerificationResult(identity_id, params,
                                      Counterexample(point, lhs, rhs))
    return VerificationResult(identity_id, params, None)


def _convolution_row(n: int, d: int, k_max: int) -> list[int]:
    """sum_{i=d-1..n-1} C(i, d-1) C(n-i+k-1, k) for k = 0..k_max.

    With p = n-i these are the T^k coefficients of
    sum_{p=1..n-d+1} C(n-p, d-1) / (1-T)^p; a prefix-sum pass over the row
    multiplies it by 1/(1-T).
    """
    row = [0] * (k_max + 1)
    for p in range(n - d + 1, 0, -1):
        row[0] += binomial(n - p, d - 1)
        row = list(accumulate(row))
    return row


def _one_minus_t_row(terms: list[int]) -> list[int]:
    """Coefficients of sum_{j=0..L} terms[j] T^j (1-T)^(L-j), L = len - 1.

    Horner's rule in (1-T): for j = 0..L, multiply the row by (1-T) with
    one pass of backward differences, then add terms[j] at index j.  At
    step j only entries 0..j can be nonzero, so the pass covers those.
    """
    row = [0] * len(terms)
    for j, term in enumerate(terms):
        row[1:j + 1] = map(sub, row[1:j + 1], row[:j])
        row[j] += term
    return row


def _convolution_points(n: int, d: int, row: list[int],
                        label: tuple) -> Iterator[CheckPoint]:
    """C(n+k, k+d) against row[k] = sum_{i=d-1..n-1} C(i, d-1) C(n-i+k-1, k)
    at points label + (k,) for every k of the row."""
    for k, convolution in enumerate(row):
        yield label + (k,), binomial(n + k, k + d), convolution


def _require_params(n: int, d: int, k_max: int = 0) -> None:
    """Reject d outside 1..n, as Veronese(n, d) does, and a negative window."""
    Veronese(n, d)
    if k_max < 0:
        raise ValueError("k_max must be non-negative")


def verify_lemma_2_2(n: int, d: int) -> VerificationResult:
    """Check the alternating binomial convolution for every i in 0..n-d.

    Check points are (i,).  The convolution of every i at once is the T^i
    coefficient of sum_{j=0..n-d} C(n, j) T^j (1-T)^(n-d-j), one row
    summed by Horner's rule in (1-T) (_one_minus_t_row).
    """
    _require_params(n, d)
    row = _one_minus_t_row([binomial(n, j) for j in range(n - d + 1)])
    points = (((i,), binomial(i + d - 1, i), convolution)
              for i, convolution in enumerate(row))
    return _check("lemma_2_2", f"n={n} d={d} i in 0..{n - d}", points)


def verify_prop_2_3(n: int, d: int) -> VerificationResult:
    """Check that the two series presentations agree, then the underlying
    numerator identity divided by T^d as a plain polynomial equality.

    Check points are ("series",) and ("numerator",).  The numerator's
    left-hand side sum_{k=0..n-d} C(n,k+d) T^k (1-T)^(n-k-d) is summed by
    Horner's rule in (1-T) on an integer list (_one_minus_t_row).  Its
    right-hand side is read off veronese_series_alt(n, d), whose numerator
    is that sum times T^d and stays whole because it is 1 at T = 1; so
    ("numerator",) reuses the second presentation of ("series",) rather
    than summing it again, which would cost O(n) per coefficient.
    """
    _require_params(n, d)

    def points() -> Iterator[CheckPoint]:
        alt = veronese_series_alt(n, d)
        yield ("series",), Veronese(n, d).series(), alt
        lhs = _one_minus_t_row([binomial(n, k + d) for k in range(n - d + 1)])
        rhs = IntPolynomial(alt.numer.coefficients[d:])
        yield ("numerator",), canonicalize(IntPolynomial(lhs), 0), canonicalize(rhs, 0)

    return _check("prop_2_3", f"n={n} d={d}", points())


def verify_lemma_4_1(n: int, d: int, k_max: int) -> VerificationResult:
    """Check C(n+k, k+d) against the convolution side for k = 0..k_max.

    Check points are (k,).  The convolution side of the whole window is one
    row, summed by Horner's rule in 1/(1-T):
    row[0] += C(n-p, d-1), then row = prefix sums of row, for p = n-d+1
    down to 1; row[k] = sum_{i=d-1..n-1} C(i, d-1) C(n-i+k-1, k).
    """
    _require_params(n, d, k_max)
    return _check("lemma_4_1", f"n={n} d={d} k in 0..{k_max}",
                  _convolution_points(n, d, _convolution_row(n, d, k_max), ()))


def verify_eq_chain(n: int, d: int, k_max: int) -> VerificationResult:
    """Check the three-step chain linking the two ideal families.

    Steps and check points:
      ("rational",)      veronese(n, d), as veronese_series_alt, equals
                         the generated hat-power series with t = s = d, as
                         canonical forms (so it also gives the numerator
                         identity, since both sides are canonical over
                         (1-T)^n); prop_2_3's and theorem_1_4's ("series",)
                         points compare the same pair through other calls;
      ("shifted", k)     sum_i C(i,d-1) C(n-i+k-d-1, k-d) = C(n-d+k, k)
                         for d <= k, checked for k = 0..k_max (both sides
                         vanish below d);
      ("unshifted", k)   sum_i C(i,d-1) C(n-i+k-1, k) = C(n+k, k+d) for
                         k = 0..k_max; these are lemma_4_1's points.

    Both coefficientwise steps read one convolution row, summed by
    Horner's rule in 1/(1-T) as in verify_lemma_4_1 (row[0] += C(n-p, d-1),
    then prefix sums, for p = n-d+1 down to 1): ("unshifted", k) compares
    row[k], and ("shifted", k) for k >= d compares row[k-d], since
    C(n-i+k-d-1, k-d) is the unshifted term at k-d.

    The two coefficientwise steps are infinite series identities; the
    finite check window is the executable witness, with the closed-form
    convolution identity covering all k.
    """
    _require_params(n, d, k_max)

    def points() -> Iterator[CheckPoint]:
        yield ("rational",), veronese_series_alt(n, d), GeneratedHatPower(n, d, d).series()
        row = _convolution_row(n, d, k_max)
        for k in range(k_max + 1):
            if k < d:
                yield ("shifted", k), 0, 0
            else:
                yield ("shifted", k), row[k - d], binomial(n - d + k, k)
        yield from _convolution_points(n, d, row, ("unshifted",))

    return _check("eq_chain", f"n={n} d={d} k in 0..{k_max}", points())


def verify_theorem_1_4(n: int, d: int) -> VerificationResult:
    """Check the series-level and depth-level links between the families.

    Check points: ("series",) for the canonical-form equality
    veronese(n, d) = (1-T)^(-(d-1)) * hat(n, d, d), and ("depth",) for
    depth(veronese) = depth(hat) + d - 1.  Both points read veronese
    from veronese_series_alt, which shares no code with the hat series.
    The hat series has numerator 1 at T = 1, and mul_power_one_minus_t
    only raises its denominator to (1-T)^n; GeneratedHatPower(n, d, d)
    .series() builds the same numerator over (1-T)^n, so the ("series",)
    comparison is eq_chain's ("rational",) one, made through other calls.
    """
    _require_params(n, d)

    def points() -> Iterator[CheckPoint]:
        veronese = veronese_series_alt(n, d)
        hat = HatPower(n, d, d).series()
        yield ("series",), veronese, mul_power_one_minus_t(hat, -(d - 1))
        yield ("depth",), hilbert_depth(veronese), hilbert_depth(hat) + d - 1

    return _check("theorem_1_4", f"n={n} d={d}", points())


def verify_theorem_1_3(n_max: int) -> VerificationResult:
    """Sweep the closed depth formulas of both families.

    Checks, in order, for 1 <= s (or d) <= n <= n_max:
      ("max_power", n, s)     scanned depth of the s-th maximal-ideal power
                              equals ceil(n / (s+1));
      ("veronese", n, d)      scanned depth of the squarefree family equals
                              its closed form;
      ("substitution", n, s)  the Veronese closed form at (n+s-1, s) equals
                              s - 1 + ceil(n / (s+1)).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pairs = [(n, s) for n in range(1, n_max + 1) for s in range(1, n + 1)]

    def points() -> Iterator[CheckPoint]:
        for n, s in pairs:
            spec = MaxPower(n, s)
            yield ("max_power", n, s), hilbert_depth(spec.series()), spec.closed_depth()
        for n, d in pairs:
            spec = Veronese(n, d)
            yield ("veronese", n, d), hilbert_depth(spec.series()), spec.closed_depth()
        for n, s in pairs:
            yield (("substitution", n, s), Veronese(n + s - 1, s).closed_depth(),
                   s - 1 + MaxPower(n, s).closed_depth())

    return _check("theorem_1_3", f"1 <= s,d <= n <= {n_max}", points())
