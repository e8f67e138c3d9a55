"""Mechanical verifiers for the library's identity catalog.

Each verifier recomputes both sides of an identity through independent
pipelines and returns a structured pass/fail result carrying the first
counterexample in lexicographic sweep order.  The `perturb` / `perturb_at`
keywords are a self-test seam: they add an offset to the right-hand side of
the matching check point, which must turn the result into a failure (the
identities themselves are exact).

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
from typing import Optional

from .exactalg import IntPolynomial, binomial, one_minus_t_power
from .ideals import (
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
    equals,
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


def _result(identity_id: str, params: str,
            ce: Optional[Counterexample] = None) -> VerificationResult:
    return VerificationResult(identity_id, params, ce is None, ce)


def _applies(perturb: int, perturb_at: Optional[tuple], point: tuple) -> int:
    if perturb and (perturb_at is None or perturb_at == point):
        return perturb
    return 0


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


def _first_poly_difference(lhs: IntPolynomial, rhs: IntPolynomial) -> tuple[int, int, int]:
    top = max(len(lhs.coefficients), len(rhs.coefficients))
    for j in range(top):
        a, b = lhs.coefficient(j), rhs.coefficient(j)
        if a != b:
            return j, a, b
    raise AssertionError("polynomials differ but coefficients agree")


def _perturbed_series(h: RationalFunctionSeries, offset: int) -> RationalFunctionSeries:
    if offset == 0:
        return h
    return h + canonicalize(IntPolynomial((offset,)), 0)


def verify_lemma_2_2(n: int, d: int, *, perturb: int = 0,
                     perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check the alternating binomial convolution for every i in 0..n-d.

    Check points are (i,).
    """
    params = f"n={n} d={d} i in 0..{n - d}"
    for i in range(n - d + 1):
        lhs = binomial(i + d - 1, i)
        rhs = sum(
            binomial(n, i - l) * (-1) ** l * binomial(n - d - i + l, l)
            for l in range(i + 1)
        )
        rhs += _applies(perturb, perturb_at, (i,))
        if lhs != rhs:
            return _result("lemma_2_2", params, Counterexample((i,), lhs, rhs))
    return _result("lemma_2_2", params)


def verify_prop_2_3(n: int, d: int, *, perturb: int = 0,
                    perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check that the two series presentations agree, then the underlying
    numerator identity divided by T^d as a plain polynomial equality.

    Check points are ("series",) and ("numerator",).
    """
    params = f"n={n} d={d}"
    lhs_series = veronese_series(n, d)
    rhs_series = _perturbed_series(
        veronese_series_alt(n, d), _applies(perturb, perturb_at, ("series",))
    )
    if not equals(lhs_series, rhs_series):
        k, a, b = _first_series_difference(lhs_series, rhs_series)
        return _result("prop_2_3", params, Counterexample(("series", k), a, b))

    lhs_poly = IntPolynomial()
    for k in range(n - d + 1):
        lhs_poly = lhs_poly + binomial(n, k + d) * (
            IntPolynomial.monomial(1, k) * one_minus_t_power(n - k - d)
        )
    rhs_poly = IntPolynomial()
    for i in range(n - d + 1):
        rhs_poly = rhs_poly + binomial(i + d - 1, d - 1) * one_minus_t_power(i)
    rhs_poly = rhs_poly + IntPolynomial((_applies(perturb, perturb_at, ("numerator",)),))
    if lhs_poly != rhs_poly:
        j, a, b = _first_poly_difference(lhs_poly, rhs_poly)
        return _result("prop_2_3", params, Counterexample(("numerator", j), a, b))
    return _result("prop_2_3", params)


def verify_lemma_4_1(n: int, d: int, k_max: int, *, perturb: int = 0,
                     perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check C(n+k, k+d) against the convolution side for k = 0..k_max.

    Check points are (k,).
    """
    params = f"n={n} d={d} k in 0..{k_max}"
    for k in range(k_max + 1):
        lhs = binomial(n + k, k + d)
        rhs = sum(
            binomial(i, d - 1) * binomial(n - i + k - 1, k)
            for i in range(d - 1, n)
        )
        rhs += _applies(perturb, perturb_at, (k,))
        if lhs != rhs:
            return _result("lemma_4_1", params, Counterexample((k,), lhs, rhs))
    return _result("lemma_4_1", params)


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
    params = f"n={n} d={d} k in 0..{k_max}"

    lhs_rat = veronese_series(n, d)
    rhs_rat = _perturbed_series(
        generated_hat_power_series(n, d, d),
        _applies(perturb, perturb_at, ("rational",)),
    )
    if not equals(lhs_rat, rhs_rat):
        k, a, b = _first_series_difference(lhs_rat, rhs_rat)
        return _result("eq_chain", params, Counterexample(("rational", k), a, b))

    for k in range(k_max + 1):
        if k < d:
            lhs = 0
            rhs = 0
        else:
            lhs = sum(
                binomial(i, d - 1) * binomial(n - i + k - d - 1, k - d)
                for i in range(d - 1, n)
            )
            rhs = binomial(n - d + k, k)
        rhs += _applies(perturb, perturb_at, ("shifted", k))
        if lhs != rhs:
            return _result("eq_chain", params, Counterexample(("shifted", k), lhs, rhs))

    for k in range(k_max + 1):
        lhs = sum(
            binomial(i, d - 1) * binomial(n - i + k - 1, k)
            for i in range(d - 1, n)
        )
        rhs = binomial(n + k, k + d)
        rhs += _applies(perturb, perturb_at, ("unshifted", k))
        if lhs != rhs:
            return _result("eq_chain", params, Counterexample(("unshifted", k), lhs, rhs))

    return _result("eq_chain", params)


def verify_theorem_1_4(n: int, d: int, *, perturb: int = 0,
                       perturb_at: Optional[tuple] = None) -> VerificationResult:
    """Check the series-level and depth-level links between the families.

    Check points: ("series",) for the canonical-form equality
    veronese(n, d) = (1-T)^(-(d-1)) * hat(n, d, d), and ("depth",) for
    depth(veronese) = depth(hat) + d - 1.
    """
    params = f"n={n} d={d}"
    lhs_series = veronese_series(n, d)
    hat = hat_power_series(n, d, d)
    rhs_series = _perturbed_series(
        mul_power_one_minus_t(hat, -(d - 1)),
        _applies(perturb, perturb_at, ("series",)),
    )
    if not equals(lhs_series, rhs_series):
        k, a, b = _first_series_difference(lhs_series, rhs_series)
        return _result("theorem_1_4", params, Counterexample(("series", k), a, b))

    lhs_depth = hilbert_depth(lhs_series)
    rhs_depth = hilbert_depth(hat) + d - 1
    rhs_depth += _applies(perturb, perturb_at, ("depth",))
    if lhs_depth != rhs_depth:
        return _result("theorem_1_4", params,
                       Counterexample(("depth",), lhs_depth, rhs_depth))
    return _result("theorem_1_4", params)


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
    params = f"1 <= s,d <= n <= {n_max}"
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            lhs = hilbert_depth(max_power_series(n, s))
            rhs = -(-n // (s + 1)) + _applies(perturb, perturb_at, ("max_power", n, s))
            if lhs != rhs:
                return _result("theorem_1_3", params,
                               Counterexample(("max_power", n, s), lhs, rhs))
    for n in range(1, n_max + 1):
        for d in range(1, n + 1):
            lhs = hilbert_depth(veronese_series(n, d))
            rhs = closed_depth_veronese(n, d) + _applies(perturb, perturb_at, ("veronese", n, d))
            if lhs != rhs:
                return _result("theorem_1_3", params,
                               Counterexample(("veronese", n, d), lhs, rhs))
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            lhs = closed_depth_veronese(n + s - 1, s)
            rhs = s - 1 + -(-n // (s + 1))
            rhs += _applies(perturb, perturb_at, ("substitution", n, s))
            if lhs != rhs:
                return _result("theorem_1_3", params,
                               Counterexample(("substitution", n, s), lhs, rhs))
    return _result("theorem_1_3", params)
