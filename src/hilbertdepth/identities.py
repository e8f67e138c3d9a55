"""Mechanical verifiers for the library's identity catalog.

Each verifier recomputes both sides of an identity through independent
pipelines, as a lazy sequence of check points (label, lhs, rhs) whose sides
are integers or canonical series.  One driver compares the sides point by
point in lexicographic sweep order and returns a structured pass/fail
result carrying the first counterexample.  A series mismatch is reported
at the label extended by the first coefficient index where the expansions
differ, read off one expansion of each side.

sweep is the one entry point of the `verify` command: given a catalog name
as the command line spells it, it picks the verifier, the window, the
pair order and the case count, runs the calls up to the first failure and
returns the command's result row.

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

The per-pair verifiers read their sums off four rows, which sweep's pair
order (n outer, d inner) carries from one (n, d) to the next:

  R(n, d) = sum_{i=d-1..n-1} C(i, d-1) / (1-T)^(n-i), whose T^k
            coefficient is lemma_4_1's sum, carried along n as
            R(n, d) = (R(n-1, d) + C(n-1, d-1)) / (1-T);
  B(n, d) = sum_{i=d-1..n-1} C(i, d-1) (1-T)^(i-d+1), the Veronese
            numerator of the second presentation over T^d (the carried
            numerator; no other module builds that presentation), carried
            along n as
            B(n, d) = B(n-1, d) + C(n-1, d-1) (1-T)^(n-d);
  L(n, d) = sum_{j=0..n-d} C(n, j) T^j (1-T)^(n-d-j), whose T^i
            coefficient is lemma_2_2's sum, and
  A(n, d) = sum_{k=0..n-d} C(n, k+d) T^k (1-T)^(n-k-d), prop_2_3's left
            side, both built for every d of one n by descending steps
            from d = n: L(n, d-1) = (1-T) L(n, d) + C(n, n-d+1) T^(n-d+1)
            and A(n, d-1) = T A(n, d) + C(n, d-1) (1-T)^(n-d+1).

Every step adds exactly one term of its own side's defining sum, that
term's binomial read from math.comb.  No step comes from a binomial
identity, such as Pascal's rule or one side's recurrence taken for the
other: that would turn a check into comparing a value with itself.

The sweep owns the carry: one plain dict per sweep call, passed to each
per-pair verifier, which keeps R and B under ("R", d) and ("B", d) and
the rows of L and A for the latest n only.  Only the call for (n, d)
while the carry holds (n-1, d) advances a row; every other call sums it
from the empty sum at n = d-1.  Before its step, R's carried row is cut
to the call's window, or extended to a wider one (sweep's default window
k <= n+10 grows by one per n) entry by entry by its defining sum.  A
verifier called without a carry starts from an empty one, so its rows
are summed from the base and its result depends on no other call; nor
does any result depend on the order of the calls that share a carry.
The binomials on the other side of each check are math.comb values.

Five check points repeat another point's comparison and are not
independent evidence.  eq_chain ("rational",) and theorem_1_4 ("series",)
compare the carried numerator, T^d B(n, d) over (1-T)^n, with the
Eagon-Northcott numerator of m^d in n-d+1 variables over (1-T)^n, built
as GeneratedHatPower(n, d, d).series() and as HatPower(n, d, d).series()
raised by mul_power_one_minus_t.  That is the pair prop_2_3 ("series",)
compares, with the numerator built as Veronese(n, d).series(); no point
compares that numerator with itself.  eq_chain ("unshifted", k) are
lemma_4_1's points.  eq_chain ("shifted", k) for k >= d repeats
("unshifted", k-d), the same row entry against the same value, since
C(n-d+k, k) = C(n+(k-d), (k-d)+d).  theorem_1_4 ("depth",) scans
one numerator twice: the depth scan judges each step from the numerator
alone, and ("series",) has just shown that both sides share it, so the
point fails only if hilbert_depth misreads den_pow.  theorem_1_3
("veronese", n, d) repeats a scan, though not a comparison: whenever
d <= n-d+1 it scans the numerator that ("max_power", n-d+1, d) scans, so
of the three points ("max_power", n-d+1, d), ("veronese", n, d) and
("substitution", n-d+1, d), any two imply the third.

prop_2_3 ("numerator",) is not among them: it is the only point that
reads A(n, d), which it compares with the carried numerator B that
("series",) compared with the kernel.  One wrong term of A fails that
point and no other in the catalog.  Its right side is read off the
("series",) point's series, because an independent one,
sum_i C(i+d-1, d-1) (1-T)^i expanded anew, costs O(n) per coefficient.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from math import comb
from operator import add, sub
from typing import Iterable, Iterator, Optional, Union

from .exactalg import IntPolynomial, Record, _require_ints
from .ideals import GeneratedHatPower, HatPower, MaxPower, Veronese
from .series import (
    RationalFunctionSeries,
    canonicalize,
    expansion,
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
    "sweep",
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
    for k, (a, b) in enumerate(zip(expansion(lhs, limit), expansion(rhs, limit))):
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


def _one_minus_t_term(c: int, e: int) -> list[int]:
    """Coefficients of c (1-T)^e, each from the one before by one ratio:
    c (-1)^(l+1) C(e, l+1) = -c (-1)^l C(e, l) (e-l) / (l+1)."""
    return list(accumulate(range(e), lambda x, l: -x * (e - l) // (l + 1),
                           initial=c))


def _convolution_row(n: int, d: int, k_max: int, carry: dict | None = None) -> list[int]:
    """R(n, d) for k = 0..k_max: row[k] = sum_{i=d-1..n-1} C(i, d-1)
    C(n-i+k-1, k), the T^k coefficient of sum_i C(i, d-1) / (1-T)^(n-i).

    Each step adds the term i = n-1 to entry 0 and then divides by (1-T)
    with one prefix-sum pass.  The carry's row R(n-1, d) is cut to the
    window, or extended to it entry by entry by its defining sum; without
    it the row is summed from R(d-1, d) = 0.  The row is shared with the
    carry, so callers only read it.
    """
    carry = {} if carry is None else carry
    m, row = carry.get(("R", d), (None, None))
    if m == n - 1:
        row = row[:k_max + 1] + [
            sum(comb(i, d - 1) * comb(m - i + k - 1, k) for i in range(d - 1, m))
            for k in range(len(row), k_max + 1)]
    else:
        m, row = d - 1, [0] * (k_max + 1)
    for i in range(m, n):
        row[0] += comb(i, d - 1)
        row = list(accumulate(row))
    carry["R", d] = n, row
    return row


def _veronese_numerator(n: int, d: int, carry: dict | None = None) -> list[int]:
    """B(n, d) = sum_{i=d-1..n-1} C(i, d-1) (1-T)^(i-d+1), lowest degree
    first: the Veronese(n, d) numerator over T^d, of degree n-d.

    Each step adds the term i = n-1; the carry's row B(n-1, d) gains that
    one term, and without it the row is summed from B(d-1, d) = 0.  The
    row is shared with the carry, so callers only read it.
    """
    carry = {} if carry is None else carry
    m, row = carry.get(("B", d), (None, None))
    if m != n - 1:
        m, row = d - 1, []
    for i in range(m, n):
        row = list(map(add, [*row, 0], _one_minus_t_term(comb(i, d - 1), i - d + 1)))
    carry["B", d] = n, row
    return row


def _veronese_series(n: int, d: int, carry: dict | None = None) -> RationalFunctionSeries:
    """Veronese(n, d)'s series in its second presentation, T^d B(n, d) over
    (1-T)^n, B stepped in the carry.  B is 1 at T = 1, so it stays whole."""
    return canonicalize(IntPolynomial([0] * d + _veronese_numerator(n, d, carry)), n)


def _lemma_2_2_rows(n: int) -> list[list[int]]:
    """L(n, d) = sum_{j=0..n-d} C(n, j) T^j (1-T)^(n-d-j) for d = 1..n, at
    index d-1: from L(n, n) = C(n, 0), each L(n, d-1) is (1-T) L(n, d), one
    pass of backward differences, plus the term C(n, n-d+1) T^(n-d+1)."""
    rows = [[comb(n, 0)]]
    for j in range(1, n):
        row = list(map(sub, [*rows[-1], 0], [0, *rows[-1]]))
        row[j] += comb(n, j)
        rows.append(row)
    return rows[::-1]


def _prop_2_3_rows(n: int) -> list[list[int]]:
    """A(n, d) = sum_{k=0..n-d} C(n, k+d) T^k (1-T)^(n-k-d) for d = 1..n,
    at index d-1: from A(n, n) = C(n, n), each A(n, d-1) is T A(n, d), a
    shift, plus the term C(n, d-1) (1-T)^(n-d+1)."""
    rows = [[comb(n, n)]]
    for d in range(n, 1, -1):
        rows.append(list(map(add, [0, *rows[-1]],
                             _one_minus_t_term(comb(n, d - 1), n - d + 1))))
    return rows[::-1]


def _latest_rows(builder: str, n: int, carry: dict | None = None) -> list[list[int]]:
    """The rows of n that the module's function named builder returns,
    kept in the carry for the latest n only; the builder is looked up when
    called, so a rebound one is the one run."""
    carry = {} if carry is None else carry
    if carry.get(builder, (None,))[0] != n:
        carry[builder] = n, globals()[builder](n)
    return carry[builder][1]


def _convolution_values(n: int, d: int, k_max: int) -> list[int]:
    """C(n+k, k+d) for k = 0..k_max."""
    return list(map(comb, range(n, n + k_max + 1), range(d, d + k_max + 1)))


def _require_params(n: int, d: int, k_max: int = 0) -> None:
    """Reject d outside 1..n, as Veronese(n, d) does, and a negative window."""
    Veronese(n, d)
    if k_max < 0:
        raise ValueError("k_max must be non-negative")


def verify_lemma_2_2(n: int, d: int, carry: dict | None = None) -> VerificationResult:
    """Check the alternating binomial convolution for every i in 0..n-d.

    Check points are (i,).  The convolution of every i at once is the T^i
    coefficient of the row L(n, d), built with the rows of every d of n
    and kept in the carry that sweep passes; a call without one builds
    them (see the module docstring).
    """
    _require_params(n, d)
    # zip(range(...)) yields the labels (i,)
    points = zip(zip(range(n - d + 1)), map(comb, range(d - 1, n), range(n - d + 1)),
                 _latest_rows("_lemma_2_2_rows", n, carry)[d - 1])
    return _check("lemma_2_2", f"n={n} d={d} i in 0..{n - d}", points)


def verify_prop_2_3(n: int, d: int, carry: dict | None = None) -> VerificationResult:
    """Check that the two series presentations agree, then the underlying
    numerator identity divided by T^d as a plain polynomial equality.

    Check points are ("series",) and ("numerator",).  The numerator's
    left-hand side is the row A(n, d), built with the rows of every d of n.
    Its right-hand side is the carried numerator B(n, d) that ("series",)
    compared, read off that series; summing it again would cost O(n) per
    coefficient.  Both rows live in the carry that sweep passes; a call
    without one builds them from the base (see the module docstring).
    """
    _require_params(n, d)

    def points() -> Iterator[CheckPoint]:
        alt = _veronese_series(n, d, carry)
        yield ("series",), Veronese(n, d).series(), alt
        lhs = IntPolynomial(_latest_rows("_prop_2_3_rows", n, carry)[d - 1])
        rhs = IntPolynomial(alt.numer.coefficients[d:])
        yield ("numerator",), canonicalize(lhs, 0), canonicalize(rhs, 0)

    return _check("prop_2_3", f"n={n} d={d}", points())


def verify_lemma_4_1(n: int, d: int, k_max: int, carry: dict | None = None) -> VerificationResult:
    """Check C(n+k, k+d) against the convolution side for k = 0..k_max.

    Check points are (k,).  The convolution side of the whole window is
    the row R(n, d), stepped in the carry that sweep passes; a call without
    one sums it from the base (see the module docstring).
    """
    _require_params(n, d, k_max)
    # zip(range(...)) yields the labels (k,)
    points = zip(zip(range(k_max + 1)), _convolution_values(n, d, k_max),
                 _convolution_row(n, d, k_max, carry))
    return _check("lemma_4_1", f"n={n} d={d} k in 0..{k_max}", points)


def verify_eq_chain(n: int, d: int, k_max: int, carry: dict | None = None) -> VerificationResult:
    """Check the three-step chain linking the two ideal families.

    Steps and check points:
      ("rational",)      veronese(n, d), as the carried numerator B(n, d),
                         equals the generated hat-power series with
                         t = s = d, as canonical forms (so it also gives the
                         numerator identity, since both sides are canonical
                         over (1-T)^n); prop_2_3's and theorem_1_4's
                         ("series",) points compare the same pair through
                         other calls;
      ("shifted", k)     sum_i C(i,d-1) C(n-i+k-d-1, k-d) = C(n-d+k, k)
                         for d <= k, checked for k = 0..k_max (both sides
                         vanish below d);
      ("unshifted", k)   sum_i C(i,d-1) C(n-i+k-1, k) = C(n+k, k+d) for
                         k = 0..k_max; these are lemma_4_1's points.

    Both coefficientwise steps read the carried convolution row R(n, d) and
    the binomials of verify_lemma_4_1: ("unshifted", k) compares row[k],
    and ("shifted", k) for k >= d compares row[k-d], since
    C(n-i+k-d-1, k-d) is the unshifted term at k-d, with the binomial
    C(n-d+k, k) = C(n+(k-d), (k-d)+d).  R and B are stepped in the carry
    that sweep passes; a call without one sums them from the base.

    The two coefficientwise steps are infinite series identities; the
    finite check window is the executable witness, with the closed-form
    convolution identity covering all k.
    """
    _require_params(n, d, k_max)

    rational = ("rational",), _veronese_series(n, d, carry), GeneratedHatPower(n, d, d).series()
    row = _convolution_row(n, d, k_max, carry)
    values = _convolution_values(n, d, k_max)
    # zip(repeat(step), range(...)) yields the labels (step, k); both
    # shifted sides are 0 below d
    points = chain([rational],
                   zip(zip(repeat("shifted"), range(k_max + 1)),
                       chain(repeat(0, d), row), chain(repeat(0, d), values)),
                   zip(zip(repeat("unshifted"), range(k_max + 1)), values, row))
    return _check("eq_chain", f"n={n} d={d} k in 0..{k_max}", points)


def verify_theorem_1_4(n: int, d: int, carry: dict | None = None) -> VerificationResult:
    """Check the series-level and depth-level links between the families.

    Check points: ("series",) for the canonical-form equality
    veronese(n, d) = (1-T)^(-(d-1)) * hat(n, d, d), and ("depth",) for
    depth(veronese) = depth(hat) + d - 1.  Both points read veronese
    from the carried numerator B(n, d), stepped in the carry that sweep
    passes (a call without one sums it from the base), which shares no
    code with the hat series.  The hat series has numerator 1 at T = 1, and
    mul_power_one_minus_t only raises its denominator to (1-T)^n;
    GeneratedHatPower(n, d, d).series() builds the same numerator over
    (1-T)^n, so the ("series",) comparison is eq_chain's ("rational",)
    one, made through other calls.
    """
    _require_params(n, d)

    def points() -> Iterator[CheckPoint]:
        veronese = _veronese_series(n, d, carry)
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
      ("substitution", n, s)  the Veronese closed form at (n+s-1, s), its
                              floor spelling s + floor((n-1) / (s+1)),
                              equals s - 1 + ceil(n / (s+1)), the
                              max-power formula shifted by s-1.

    The ratio and ceil spellings of the Veronese closed form are checked
    against the floor spelling by acceptance criterion 2, not here.
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


def sweep(identity: str, n_max: int, k_max: Optional[int] = None) -> dict:
    """Run one catalog identity, named as the command line spells it, over
    its sweep, and return the `verify` result row: identity (the tag),
    params (the scope), cases, passed, and counterexample (None on a pass,
    else the failing call's params as "at" and its point, lhs and rhs).

    Every identity but theorem-1.3 makes one call per pair
    1 <= d <= n <= n_max, n outer and d inner, and passes each call the
    carry, one dict made for this sweep, whose rows step in that order (see
    the module docstring); lemma-4.1 and eq-chain take the window
    k <= k_max, by default k <= n+10, and no other identity takes one.
    theorem-1.3 makes one call that checks each pair thrice, so it counts
    three cases a pair.  The sweep stops at the first failing call, and
    cases still counts every pair.  The verifier is looked up in this
    module when the sweep runs, so a rebound one is the one called.
    An unknown name, n_max < 1, a negative k_max, or a window for an
    identity that takes none is a ValueError, and an n_max or k_max that is
    not an int, or is a bool, a TypeError, before any call.
    """
    verify = {"lemma-2.2": verify_lemma_2_2, "prop-2.3": verify_prop_2_3,
              "lemma-4.1": verify_lemma_4_1, "eq-chain": verify_eq_chain,
              "theorem-1.4": verify_theorem_1_4, "theorem-1.3": verify_theorem_1_3}.get(identity)
    if verify is None:
        raise ValueError(f"unknown identity {identity!r}")
    _require_ints("sweep argument", n_max=n_max, k_max=0 if k_max is None else k_max)
    if n_max < 1 or k_max is not None and k_max < 0:
        raise ValueError("n_max must be >= 1 and k_max non-negative")
    windowed = identity in ("lemma-4.1", "eq-chain")
    if k_max is not None and not windowed:
        raise ValueError(f"{identity} does not take --k-max")
    cases = n_max * (n_max + 1) // 2
    if identity == "theorem-1.3":
        results = [verify(n_max)]
        scope, cases = results[0].params, 3 * cases
    else:
        carry = {}
        results = (verify(n, d, n + 10 if k_max is None else k_max, carry) if windowed else
                   verify(n, d, carry) for n in range(1, n_max + 1) for d in range(1, n + 1))
        scope = f"1 <= d <= n <= {n_max}" + ("" if k_max is None else f", k <= {k_max}")
    failed = next((res for res in results if not res.passed), None)
    ce = failed and failed.counterexample
    return {"identity": identity.replace("-", "_").replace(".", "_"), "params": scope,
            "cases": cases, "passed": failed is None, "counterexample": ce and {
                "at": failed.params, "point": list(ce.params), "lhs": ce.lhs, "rhs": ce.rhs}}
