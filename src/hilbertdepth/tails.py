"""The tail decision of the depth scan: whether a polynomial q of degree e
is >= 0 at every integer from a base b on, read off its forward-difference
table t at b (t[i] = Delta^i q(b), t[e] > 0), in exact integers.

Let f_i(x) = Delta^i q(b + x) = sum_l C(x, l) * t[i + l], so that
f_i(0) = t[i], f_i(x + 1) - f_i(x) = f_(i+1)(x) and f_e = t[e] > 0.  A sign
change of f_i is an x >= 1 with f_i(x - 1) < 0 <= f_i(x) (rising) or the
reverse (falling).  f_0 falls exactly where f_1 < 0, so its least value on
x >= 0 is at 0 or at a rising change of f_1: q >= 0 from b on iff
t[0] >= 0 and f_0 >= 0 at each of those.  The search finds the sign changes
of f_(e-1), ..., f_2 in turn, each level from the one above it, then the
rising ones of f_1.  The top two levels are solved in closed form:

  * f_(e-1)(x) = t[e-1] + t[e] * x changes sign, rising, at
    x0 = -(t[e-1] // t[e]) when t[e-1] < 0;
  * f_(e-2) falls while f_(e-1) < 0 and rises after, so its integer minimum
    is at max(x0, 0).  If it is negative there, 2 f_(e-2)(x) =
    t[e] x^2 + (2 t[e-1] - t[e]) x + 2 t[e-2] has two real roots, read off
    math.isqrt of the discriminant to within 1 / (2 t[e]) each, so one
    evaluation fixes each integer sign change: the falling one (if
    t[e-2] >= 0) and the rising one.

Levels of degree >= 3 are searched: see search.
"""

from __future__ import annotations

from math import isqrt

__all__ = ["search"]


def _negative(t: list[int], i: int, x: int) -> bool:
    """Whether f_i(x) = sum_l C(x, l) * t[i + l] is < 0, in O(e) integer
    operations."""
    total, c = 0, 1
    for j in range(len(t) - i):
        total += c * t[i + j]
        c = c * (x - j) // (j + 1)
    return total < 0


def _first(t: list[int], i: int, lo: int, hi: int, side: bool) -> int:
    """The least x in (lo, hi] with f_i(x) on hi's side of 0, given as
    side = f_i(hi) < 0; f_i is monotone on [lo, hi] and its signs at lo and
    hi differ.  Binary search; it evaluates neither end."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _negative(t, i, mid) == side:
            hi = mid
        else:
            lo = mid
    return hi


def _top_changes(t: list[int], rising: bool) -> list[int]:
    """The sign changes of f_(e-2), e >= 2, or only its rising one if
    rising, in closed form (see the module docstring); at most 3
    evaluations, 2 if rising."""
    e = len(t) - 1
    a, b, i, c = t[e - 1], t[e], e - 2, t[e - 2]
    x0 = -(a // b)
    if not (_negative(t, i, x0) if x0 > 0 else c < 0):
        return []
    # The roots are (b - 2a -+ sqrt(disc)) / (2b), and
    # s <= sqrt(disc) < s + 1, so the rising change is ceil(root) or one
    # more, and the falling one floor(root) + 1 or one less; both are >= 1.
    s = isqrt((2 * a - b) ** 2 - 8 * b * c)
    up = max(-((2 * a - b - s) // (2 * b)), 1)
    rise = up + 1 if _negative(t, i, up) else up
    if rising or c < 0:
        return [rise]
    down = max((b - 2 * a - s) // (2 * b), 1)
    return [down if _negative(t, i, down) else down + 1, rise]


def search(t: list[int]) -> bool:
    """Whether q(b + x) >= 0 for every integer x >= 0, where t is q's
    forward-difference table at base b, e = len(t) - 1 >= 1 and t[e] > 0;
    a search of q's integer local minima.  It only reads t.

    f_1 has no sign change if e = 1, and its rising one is x0 if e = 2
    and comes from _top_changes if e = 3.  For e >= 4 the levels below
    _top_changes are searched.  Between consecutive sign changes p < p' of
    f_(i+1) (with 0 before the first), f_(i+1) keeps one sign on
    p .. p' - 1, so f_i is monotone on the closed interval [p, p'] and
    changes sign in (p, p'] at most once: binary search finds it when f_i's
    signs at p and p' differ, on level 1 only if f_1 rises there (its
    falling changes are q's local maxima).  Beyond the last sign change of
    f_(i+1), f_(i+1) keeps the sign it has for large x, which is >= 0 as its
    leading coefficient is t[e] / (e-i-1)! > 0; so f_i is non-decreasing
    there and changes sign at most once, rising.  If it is negative at the
    interval's start, exponential search (doubling the step) finds a point
    where it is >= 0, and binary search the change.  The doubling ends
    because every f_i is > 0 past R - b, where R is the Cauchy bound of q's
    roots (by the mean value theorem and Gauss-Lucas).  Level i thus has at
    most e - i sign changes, found with O(log R) evaluations each, of O(e)
    integer operations, after one evaluation at each interval end but 0,
    where f_i(0) = t[i]: O(e^3 log R) in all.
    """
    e = len(t) - 1
    if e > 2:
        changes = _top_changes(t, e == 3)
    else:
        changes = [-(t[1] // t[2])] if e == 2 and t[1] < 0 else []
    for i in range(e - 3, 0, -1):
        ends = [0, *changes]
        signs = [t[i] < 0, *(_negative(t, i, x) for x in changes)]
        changes = [_first(t, i, lo, hi, side)
                   for lo, hi, before, side in zip(ends, ends[1:], signs, signs[1:])
                   if before != side and (before or i > 1)]
        if signs[-1]:
            lo, step = ends[-1], 1
            while _negative(t, i, lo + step):
                step *= 2
            changes.append(_first(t, i, lo + step // 2, lo + step, False))
    return t[0] >= 0 and not any(_negative(t, 0, x) for x in changes)
