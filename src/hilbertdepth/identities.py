"""Mechanical verifiers for the library's identity catalog.

Each verifier recomputes both sides of an identity through independent
pipelines, as a lazy sequence of check points (label, lhs, rhs) whose sides
are integers or canonical series.  One driver compares the sides point by
point in lexicographic sweep order and returns a structured pass/fail
result carrying the first counterexample; work behind later points is
never done.  A series mismatch is reported at the label extended by the
first coefficient index where the expansions differ.  The `perturb` /
`perturb_at` keywords are a self-test seam: the driver adds the offset to
the right-hand side of the matching check point, which must turn the
result into a failure (the identities themselves are exact).

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

from .exactalg import IntPolynomial, binomial, one_minus_t_power
from .ideals import (
    closed_depth_max_power,
    closed_depth_veronese,
    generated_hat_power_series,
    hat_power_series,
    max_power_series,
    veronese_series,
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


@dataclass(frozen=True)
class Counterexample:
    """First failing check point with the exact values of both sides."""

    params: tuple
    lhs: int
    rhs: int


@dataclass(frozen=True)
class VerificationResult:
    identity_id: str
    params: str
    passed: bool
    counterexample: Optional[Counterexample]

    def __post_init__(self) -> None:
        if self.passed != (self.counterexample is None):
            raise ValueError("passed flag inconsistent with counterexample")


def _first_series_difference(
    lhs: RationalFunctionSeries, rhs: RationalFunctionSeries
) -> tuple[int, int, int]:
    """First k where the expansions differ; the forms are known unequal."""
    d1 = max(int(lhs.numer.degree) if not lhs.numer.is_zero() else 0, 0)
    d2 = max(int(rhs.numer.degree) if not rhs.numer.is_zero() else 0, 0)
    limit = max(d1 + rhs.den_pow, d2 + lhs.den_pow) + 1
    for k in range(limit + 1):
        a, b = coefficient(lhs, k), coefficient(rhs, k)
        if a != b:
            return k, a, b
    raise AssertionError("canonical forms differ but expansions agree")


def _check(identity_id: str, params: str, points: Iterable[CheckPoint],
           perturb: int, perturb_at: Optional[tuple]) -> VerificationResult:
    """Compare both sides of each check point in order, stopping at the
    first that differ.

    `perturb` is added to the right-hand side of every point equal to
    `perturb_at` (of every point when it is None).  A series mismatch is
    reported at point + (k,), k the first coefficient where the expansions
    differ, with those two coefficients as the values.
    """
    for point, lhs, rhs in points:
        if perturb and (perturb_at is None or perturb_at == point):
            if isinstance(rhs, RationalFunctionSeries):
                rhs = rhs + canonicalize(IntPolynomial((perturb,)), 0)
            else:
                rhs = rhs + perturb
        if lhs != rhs:
            if isinstance(lhs, RationalFunctionSeries):
                k, lhs, rhs = _first_series_difference(lhs, rhs)
                point = point + (k,)
            return VerificationResult(identity_id, params, False,
                                      Counterexample(point, lhs, rhs))
    return VerificationResult(identity_id, params, True, None)


def _convolution_points(n: int, d: int, k_max: int,
                        label: tuple) -> Iterator[CheckPoint]:
    """C(n+k, k+d) against sum_{i=d-1..n-1} C(i, d-1) C(n-i+k-1, k) at
    points label + (k,) for k = 0..k_max."""
    for k in range(k_max + 1):
        yield label + (k,), binomial(n + k, k + d), sum(
            binomial(i, d - 1) * binomial(n - i + k - 1, k)
            for i in range(d - 1, n)
        )


def verify_lemma_2_2(n: int, d: int, *, perturb: int = 0,
                     perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check the alternating binomial convolution for every i in 0..n-d.

    Check points are (i,).
    """
    points = (
        ((i,), binomial(i + d - 1, i),
         sum(binomial(n, i - l) * (-1) ** l * binomial(n - d - i + l, l)
             for l in range(i + 1)))
        for i in range(n - d + 1)
    )
    return _check("lemma_2_2", f"n={n} d={d} i in 0..{n - d}", points,
                  perturb, perturb_at)


def verify_prop_2_3(n: int, d: int, *, perturb: int = 0,
                    perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check that the two series presentations agree, then the underlying
    numerator identity divided by T^d as a plain polynomial equality.

    Check points are ("series",) and ("numerator",).
    """
    def points() -> Iterator[CheckPoint]:
        yield ("series",), veronese_series(n, d), veronese_series_alt(n, d)
        lhs = IntPolynomial()
        for k in range(n - d + 1):
            lhs = lhs + binomial(n, k + d) * (
                IntPolynomial.monomial(1, k) * one_minus_t_power(n - k - d)
            )
        rhs = IntPolynomial()
        for i in range(n - d + 1):
            rhs = rhs + binomial(i + d - 1, d - 1) * one_minus_t_power(i)
        yield ("numerator",), canonicalize(lhs, 0), canonicalize(rhs, 0)

    return _check("prop_2_3", f"n={n} d={d}", points(), perturb, perturb_at)


def verify_lemma_4_1(n: int, d: int, k_max: int, *, perturb: int = 0,
                     perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check C(n+k, k+d) against the convolution side for k = 0..k_max.

    Check points are (k,).
    """
    return _check("lemma_4_1", f"n={n} d={d} k in 0..{k_max}",
                  _convolution_points(n, d, k_max, ()), perturb, perturb_at)


def verify_eq_chain(n: int, d: int, k_max: int, *, perturb: int = 0,
                    perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check the three-step chain linking the two ideal families.

    Steps and check points:
      ("rational",)      veronese(n, d) equals the generated hat-power
                         series with t = s = d, as canonical forms (with
                         prop_2_3's series check this also gives the
                         numerator identity, since both sides are canonical
                         over (1-T)^n);
      ("shifted", k)     sum_i C(i,d-1) C(n-i+k-d-1, k-d) = C(n-d+k, k)
                         for d <= k, checked for k = 0..k_max (both sides
                         vanish below d);
      ("unshifted", k)   sum_i C(i,d-1) C(n-i+k-1, k) = C(n+k, k+d) for
                         k = 0..k_max.

    The two coefficientwise steps are infinite series identities; the
    finite check window is the executable witness, with the closed-form
    convolution identity covering all k.
    """
    def points() -> Iterator[CheckPoint]:
        yield ("rational",), veronese_series(n, d), generated_hat_power_series(n, d, d)
        for k in range(k_max + 1):
            if k < d:
                yield ("shifted", k), 0, 0
            else:
                yield ("shifted", k), sum(
                    binomial(i, d - 1) * binomial(n - i + k - d - 1, k - d)
                    for i in range(d - 1, n)
                ), binomial(n - d + k, k)
        yield from _convolution_points(n, d, k_max, ("unshifted",))

    return _check("eq_chain", f"n={n} d={d} k in 0..{k_max}", points(),
                  perturb, perturb_at)


def verify_theorem_1_4(n: int, d: int, *, perturb: int = 0,
                       perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check the series-level and depth-level links between the families.

    Check points: ("series",) for the canonical-form equality
    veronese(n, d) = (1-T)^(-(d-1)) * hat(n, d, d), and ("depth",) for
    depth(veronese) = depth(hat) + d - 1.
    """
    def points() -> Iterator[CheckPoint]:
        veronese = veronese_series(n, d)
        hat = hat_power_series(n, d, d)
        yield ("series",), veronese, mul_power_one_minus_t(hat, -(d - 1))
        yield ("depth",), hilbert_depth(veronese), hilbert_depth(hat) + d - 1

    return _check("theorem_1_4", f"n={n} d={d}", points(), perturb, perturb_at)


def verify_theorem_1_3(n_max: int, *, perturb: int = 0,
                       perturb_at: Optional[tuple] = None) -> VerificationResult:
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
            yield (("max_power", n, s), hilbert_depth(max_power_series(n, s)),
                   closed_depth_max_power(n, s))
        for n, d in pairs:
            yield (("veronese", n, d), hilbert_depth(veronese_series(n, d)),
                   closed_depth_veronese(n, d))
        for n, s in pairs:
            yield (("substitution", n, s), closed_depth_veronese(n + s - 1, s),
                   s - 1 + closed_depth_max_power(n, s))

    return _check("theorem_1_3", f"1 <= s,d <= n <= {n_max}", points(),
                  perturb, perturb_at)
