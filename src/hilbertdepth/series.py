"""Canonical rational-series arithmetic: series of the form P(T) / (1 - T)^m
with integer numerator, and the exact decision procedures built on them.

The canonical form removes every (1 - T) factor shared between numerator and
denominator, so equality of series is a structural comparison.  On top of the
representation sit three decisions, all exact:

  * coefficient extraction via the convolution with the expansion of
    (1 - T)^(-m), whose k-th coefficient is C(m-1+k, m-1), and a whole
    prefix of the expansion by m prefix-sum passes, in windows that carry
    each pass across their edges (_windows, the one expansion loop: the
    oracle reads its windows too);
  * non-negativity of the entire (infinite) coefficient sequence, decided in
    finite time because the coefficient at k of P / (1 - T)^j agrees with
    a polynomial q_j in k from a base on: the tail is accepted at once if
    q_j's forward-difference table is non-negative (Newton's certificate),
    and otherwise the search of the tails module settles it from the
    polynomial's integer local minima, in time polynomial in the bit size
    of the numerator;
  * the largest r such that (1 - T)^r H still has non-negative coefficients,
    found by one pass of the same prefix sums over P / (1 - T)^j,
    j = 0, 1, ..., stopping at the first non-negative j, valid because
    multiplying a non-negative series by 1/(1 - T) takes prefix sums; for
    the same reason the first possibly negative index of the row only
    moves right from one j to the next, so the pass carries it and checks
    each row entry once.

One prefix-sum scan, _verdicts, serves both decisions; its docstring
describes the row, the table and their moves.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from math import comb
from operator import add
from typing import Iterator

from .exactalg import IntPolynomial, Record, _require_ints
# eager: perfbench's tail-walk times the first search, 2.5 ms, not 1.05, with this deferred
from .tails import search as _search

__all__ = [
    "RationalFunctionSeries",
    "canonicalize",
    "mul_power_one_minus_t",
    "coefficient",
    "expansion",
    "is_nonnegative",
    "hilbert_depth",
]


class RationalFunctionSeries(Record):
    """H(T) = numer(T) / (1 - T)^den_pow in canonical form.

    Canonical means: either numer is zero (and den_pow is 0), or no
    (1 - T) factor of numer can be cancelled against the denominator,
    i.e. den_pow >= 1 implies numer(1) != 0.  Build instances through
    canonicalize(); direct construction validates the invariant.
    """

    __slots__ = ("numer", "den_pow")

    def __post_init__(self) -> None:
        _require_ints("RationalFunctionSeries field", den_pow=self.den_pow)
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


def canonicalize(numer: IntPolynomial, den_pow: int) -> RationalFunctionSeries:
    """Canonical form of numer(T) / (1 - T)^den_pow.

    Cancels (1 - T) factors of the numerator against the denominator for
    as long as both allow; surplus factors beyond den_pow stay in the
    numerator, so the result never has a negative denominator power.  A
    den_pow that is not an int, or is a bool, is refused with the record's
    TypeError before any work, and a negative one by the record.
    """
    _require_ints("RationalFunctionSeries field", den_pow=den_pow)
    if numer.is_zero():
        den_pow = min(den_pow, 0)  # the zero series keeps no denominator
    while den_pow > 0 and numer.eval_at_one() == 0:
        numer = numer.divide_one_minus_t()
        den_pow -= 1
    return RationalFunctionSeries(numer, den_pow)


def mul_power_one_minus_t(h: RationalFunctionSeries, r: int) -> RationalFunctionSeries:
    """Canonical form of (1 - T)^r * H for r <= den_pow; r may be negative
    (raises den_pow).  Past den_pow the product would be a polynomial with a
    (1 - T) factor, which no caller needs: r > den_pow is a ValueError."""
    if r > h.den_pow:
        raise ValueError(f"power {r} exceeds the denominator power {h.den_pow}")
    return canonicalize(h.numer, h.den_pow - r)


def coefficient(h: RationalFunctionSeries, k: int) -> int:
    """Exact k-th coefficient of the power-series expansion of H.

    For den_pow = m >= 1 this is the convolution
    sum_{j <= k} P_j * C(m-1+k-j, m-1); for m = 0 it is P_k itself.  No
    binomial argument is negative, so each is one math.comb call, with
    nothing cached per degree.
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
            total += pj * comb(m - 1 + k - j, m - 1)
    return total


def expansion(h: RationalFunctionSeries, upto: int) -> list[int]:
    """[coefficient(H, k) for k in 0..upto]: the one window of _windows
    that holds them all."""
    if upto < 0:
        raise ValueError("coefficient index must be non-negative")
    return next(_windows(h, upto, upto + 1))


def _windows(h: RationalFunctionSeries, upto: int, width: int) -> Iterator[list[int]]:
    """[coefficient(H, k) for k in 0..upto] in windows of width degrees, the
    last one cut at upto.  Each window is the numerator cut or zero-padded
    to its degrees and summed by den_pow prefix-sum passes, each pass
    started from its carry, the value it reached at the last window's end;
    so only one window and den_pow carries are held."""
    cs = h.numer.coefficients
    carries = [0] * h.den_pow
    for start in range(0, upto + 1, width):
        stop = min(start + width, upto + 1)
        row = [*cs[start:stop], *repeat(0, stop - max(start, len(cs)))]
        for p, carry in enumerate(carries):
            row[0] += carry
            row = list(accumulate(row))
            carries[p] = row[-1]
        yield row


def _verdicts(numer: tuple[int, ...], m: int, first: int = 0) -> Iterator[bool]:
    """Yield whether numer(T) / (1 - T)^j is non-negative, for j = first..m.

    numer is nonzero when m >= 1.  The coefficient at k of P / (1 - T)^j
    is c_j(k) = sum_i P_i C(j-1+k-i, j-1), and once k reaches the base
    b = max(D - j + 1, 0) (D = deg P) every term is a polynomial in k, so
    c_j(k) = q_j(k) for the eventual polynomial q_j, of degree j - 1 with
    leading difference P(1).  Step j holds as its row the coefficients
    c_j(0..b-1) below the base of q_j's forward-difference table
    t_j[i] = Delta^i q_j(b), i < j.  One accumulate of the row gives
    c_(j+1)(0..b-1), and the table takes one of two rules:

      * at the moving base b = D - j + 1 >= 1, the row's last entry is
        q_(j+1)(b - 1), and since Delta q_(j+1)(k) = q_j(k + 1), step
        j + 1's table at base b - 1 is that entry, popped off the row and
        put in front of t_j; a step costs b additions, none in the table;
      * at a fixed base b, c_(j+1)(b) = c_(j+1)(b - 1) + q_j(b), with
        c(-1) = 0, so the table takes a Pascal step,
        t_(j+1) = [c_(j+1)(b - 1) + t_j[0], t_j[0] + t_j[1], ...,
        t_j[j-2] + t_j[j-1], P(1)].

    The base is fixed at 0 once the row is empty, and at D after the move.
    A step whose row passes is accepted when its table has no negative
    entry: Newton's certificate at b, which is one at every later base
    too.  The first time a passing row meets a negative table entry, the
    scan moves the table to base D, once and for good: D - b shifts
    t[i] += t[i + 1], whose front entries q_j(b..D-1) join the row, which
    then holds c_j(0..D-1), and the table's front is c_j(D).  From then on
    a step whose row, c_j(D) and P(1) pass is accepted if every table
    entry is >= 0 and otherwise decided by _search (tails.search).  The
    search thus sees exactly the tables at base D of a scan that carries
    the full row c_j(0..D) throughout, and no scan does more than that
    one's work plus the one move.  Rows and tables for j < first are
    carried but not judged.

    The scan also carries p, with c_j(k) >= 0 for k < p: prefix sums keep
    a non-negative head non-negative, so p only moves right, and stays
    valid past the end of a shrunk row; each entry is checked once over
    the whole scan, and a step whose row[p] is still negative rejects in
    O(1).

    If P = T^v Q with Q(0) != 0, the j-fold prefix sums of P are v zeros
    followed by those of Q, so T^v Q / (1 - T)^j and Q / (1 - T)^j are
    non-negative together.  The scan therefore runs on Q, from P's first
    nonzero coefficient: D, b and the tables are Q's, P(1) = Q(1), and no
    step sums the v zeros.

    Every family numerator (ideals) has the Bernstein form
    Q = sum_{r=0..D} C(N, r) T^(D-r) (1-T)^r, N = span + s - 1 (n for
    Veronese), so step j's table at the moving base is
    [C(N, j-1), ..., C(N, 0)]: never negative, which is why no family scan
    moves, takes a Pascal step or searches.  Its steps before the depth's
    reject at the row's index 1, P's index v + 1, where
    c_j(v + 1) = Q_1 + j Q_0 < 0, and the first j with Q_1 + j Q_0 >= 0
    finds a non-negative row.
    """
    v = next((i for i, c in enumerate(numer) if c), 0)
    row, table, total, p, low = list(numer[v:]), [], sum(numer), 0, True
    for j in range(m + 1):
        if j:
            row = list(accumulate(row))
            if low and row:
                table.insert(0, row.pop())
            else:
                table = [*map(add, [row[-1] if row else 0, *table], table), total]
        if j < first:
            continue
        while p < len(row) and row[p] >= 0:
            p += 1
        if low and p >= len(row) and table and min(table) < 0:
            low = False
            for _ in range(len(numer) - 1 - v - len(row)):
                row.append(table[0])
                table = [*map(add, table, table[1:]), total]
            while p < len(row) and row[p] >= 0:
                p += 1
        yield p >= len(row) and (low or total >= 0 and table[0] >= 0
                                 and (min(table) >= 0 or _search(table)))


def is_nonnegative(h: RationalFunctionSeries) -> bool:
    """True iff every power-series coefficient of H is >= 0, decided exactly.

    One step of the prefix-sum scan _verdicts judges it, the step
    j = den_pow, whose earlier steps only carry their rows and tables
    forward: the coefficients below the tail's base, and then the tail by
    Newton's certificate or by the search of tails.search, in time
    polynomial in the bit size of numer.
    """
    return next(_verdicts(h.numer.coefficients, h.den_pow, h.den_pow))


def hilbert_depth(h: RationalFunctionSeries) -> int:
    """Largest r with (1 - T)^r * H having all coefficients >= 0.

    Requires H to be a nonzero non-negative series.  For r <= den_pow the
    transform is the canonical numer / (1 - T)^(den_pow - r), since
    numer(1) != 0, so one prefix-sum scan over j = den_pow - r = 0, 1, ...
    judges every candidate, each step as is_nonnegative would, and stops at
    the first non-negative j*, giving r = den_pow - j*.  That is the largest
    r because non-negativity at j implies it at j + 1 (prefix sums of a
    non-negative sequence are non-negative).  The depth never exceeds
    den_pow: for r > den_pow the transform is a nonzero polynomial with a
    (1 - T) factor, whose coefficients sum to 0 and hence cannot all be
    non-negative.  If no j <= den_pow passes, H itself (j = den_pow) has a
    negative coefficient.

    The scan is described at _verdicts.
    """
    if h.numer.is_zero():
        raise ValueError("depth is undefined for the zero series")
    m = h.den_pow
    for j, nonnegative in enumerate(_verdicts(h.numer.coefficients, m)):
        if nonnegative:
            return m - j
    raise ValueError("series has a negative coefficient; not a Hilbert series")
