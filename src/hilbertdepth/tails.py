"""The tail decision of the depth scan: whether a polynomial q of degree e
is >= 0 at every integer from a base b on, read off its forward-difference
table t at b (t[i] = Delta^i q(b), t[e] > 0), in exact integers.

Let f_i(x) = Delta^i q(b + x) = sum_l C(x, l) * t[i + l], so that
f_i(x + 1) - f_i(x) = f_(i+1)(x) and f_e = t[e] > 0 is constant.  A sign
change of f_i is an x >= 1 with f_i(x - 1) < 0 <= f_i(x) or the reverse;
q >= 0 from b on iff f_0 has none, since f_0 is eventually positive.  The
search finds the sign changes of f_(e-1), f_(e-2), ..., f_0 in turn, each
level from the one above it.  The top two levels are solved in closed form:

  * f_(e-1)(x) = t[e-1] + t[e] * x changes sign, from negative, at
    x0 = -(t[e-1] // t[e]) when t[e-1] < 0;
  * f_(e-2) falls while f_(e-1) < 0 and rises after, so its integer minimum
    is at max(x0, 0).  If it is negative there, 2 f_(e-2)(x) =
    t[e] x^2 + (2 t[e-1] - t[e]) x + 2 t[e-2] has two real roots, read off
    math.isqrt of the discriminant to within 1 / (2 t[e]) each, so one
    evaluation fixes each integer sign change: the falling one (if
    f_(e-2)(0) >= 0) and the rising one.

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


def _top_changes(t: list[int]) -> list[int]:
    """The sign changes of f_(e-2), or of f_0 if e = 1, in closed form (see
    the module docstring); at most 3 evaluations."""
    e = len(t) - 1
    a, b = t[e - 1], t[e]
    x0 = -(a // b)
    if e == 1:
        return [x0] if a < 0 else []
    i, c = e - 2, t[e - 2]
    if not _negative(t, i, max(x0, 0)):
        return []
    # The roots are (b - 2a -+ sqrt(disc)) / (2b), and
    # s <= sqrt(disc) < s + 1, so the rising change is ceil(root) or one
    # more, and the falling one floor(root) + 1 or one less.
    s = isqrt((2 * a - b) ** 2 - 8 * b * c)
    up = -((2 * a - b - s) // (2 * b))
    rise = up + 1 if _negative(t, i, up) else up
    if c < 0:
        return [rise]
    down = (b - 2 * a - s) // (2 * b)
    return [down if _negative(t, i, down) else down + 1, rise]


def search(t: list[int]) -> bool:
    """Whether q(b + x) >= 0 for every integer x >= 0, where t is q's
    forward-difference table at base b, e = len(t) - 1 >= 1 and t[e] > 0;
    a sign-change search.  It only reads t.

    The top two levels come from _top_changes.  Below them, between
    consecutive sign changes p < p' of f_(i+1) (with 0 before the first),
    f_(i+1) keeps one sign on p .. p' - 1, so f_i is monotone on the closed
    interval [p, p'] and changes sign in (p, p'] at most once: binary search
    finds it when f_i's signs at p and p' differ.  Beyond the last sign
    change of f_(i+1), f_(i+1) keeps the sign it has for large x, which is
    >= 0 because its leading coefficient is t[e] / (e-i-1)! > 0; so f_i is
    non-decreasing there and changes sign at most once, from negative.  If
    it is negative at the interval's start, exponential search (doubling the
    step) finds a point where it is >= 0, and binary search the change.
    The doubling ends because f_i (i < e) also has a positive leading
    coefficient, and every f_i is > 0 past R - b, where R is the Cauchy
    bound of q's roots (by the mean value theorem and Gauss-Lucas).  Level
    i thus has at most e - i sign changes, found with O(log R) evaluations
    each, of O(e) integer operations, after one evaluation at each interval
    end: O(e^3 log R) in all.
    """
    changes = _top_changes(t)
    for i in range(len(t) - 4, -1, -1):
        ends = [0, *changes]
        signs = [_negative(t, i, x) for x in ends]
        changes = [_first(t, i, lo, hi, side)
                   for lo, hi, before, side in zip(ends, ends[1:], signs, signs[1:])
                   if before != side]
        if signs[-1]:
            lo, step = ends[-1], 1
            while _negative(t, i, lo + step):
                step *= 2
            changes.append(_first(t, i, lo + step // 2, lo + step, False))
    return not changes
