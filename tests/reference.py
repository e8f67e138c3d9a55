"""Reference algebra the tests compare the package against, built from
math.comb and Fraction rather than from the package's own routines.  The
one exception is reference_verdicts, the full-row depth scan, which hands
its tails to the package's tails.search so that a test can compare the
tables both scans hand it."""

from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, product
from math import ceil, comb, factorial
from operator import add, sub

from hilbertdepth.exactalg import IntPolynomial
from hilbertdepth.tails import search as _search


def one_minus_t_power(m):
    """(1-T)^m expanded by the binomial theorem."""
    return IntPolynomial((-1) ** k * comb(m, k) for k in range(m + 1))


def veronese_numerator(n, d):
    """Numerator of the Veronese(n, d) series over (1-T)^n, each term the
    closed-form product (-1)^(j-d) C(n, j) C(j-1, d-1) for d <= j <= n."""
    return IntPolynomial([0] * d + [(-1) ** (j - d) * comb(n, j) * comb(j - 1, d - 1)
                                    for j in range(d, n + 1)])


def power_numerator(span, s):
    """Eagon-Northcott numerator of the s-th power of the maximal ideal in
    span variables, each term the closed-form product
    (-1)^i C(s+i-1, i) C(span+s-1, s+i) at T^(s+i), 0 <= i < span."""
    return IntPolynomial([0] * s + [(-1) ** i * comb(s + i - 1, i) * comb(span + s - 1, s + i)
                                    for i in range(span)])


def convolution_sum(n, d, k):
    """sum_{i=d-1..n-1} C(i, d-1) C(n-i+k-1, k), term by term as Lemma 4.1
    states it."""
    return sum(comb(i, d - 1) * comb(n - i + k - 1, k) for i in range(d - 1, n))


def convolution_row(n, d, k_max):
    """convolution_sum(n, d, k) for k = 0..k_max, as one row summed for
    this (n, d) alone by Horner's rule in 1/(1-T): row[0] += C(n-p, d-1),
    then prefix sums of the row, for p = n-d+1 down to 1."""
    row = [0] * (k_max + 1)
    for p in range(n - d + 1, 0, -1):
        row[0] += comb(n - p, d - 1)
        row = list(accumulate(row))
    return row


def one_minus_t_row(terms):
    """Coefficients of sum_{j=0..L} terms[j] T^j (1-T)^(L-j), L = len - 1,
    by Horner's rule in (1-T): for j = 0..L, multiply the row by (1-T) with
    one pass of backward differences over entries 0..j, then add terms[j]
    at index j."""
    row = [0] * len(terms)
    for j, term in enumerate(terms):
        row[1:j + 1] = map(sub, row[1:j + 1], row[:j])
        row[j] += term
    return row


def veronese_fine_by_subsets(n, d, box):
    """Coefficients over the box [0, box]^n (lexicographic, last index
    fastest) of prod_i 1/(1-T_i) times sum over subsets S of >= d variables
    of T^S prod_{j not in S} (1-T_j), one subset at a time as the closed
    form states it."""
    points = list(product(range(box + 1), repeat=n))

    def step(alpha, i):
        return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]

    total = dict.fromkeys(points, 0)
    for size in range(d, n + 1):
        for subset in combinations(range(n), size):
            corner = tuple(int(i in subset) for i in range(n))
            term = {alpha: int(alpha == corner) for alpha in points}
            for j in set(range(n)) - set(subset):  # times (1 - T_j)
                term = {alpha: c - (term[step(alpha, j)] if alpha[j] else 0)
                        for alpha, c in term.items()}
            for alpha in points:
                total[alpha] += term[alpha]
    for i in range(n):  # times 1/(1 - T_i), in lexicographic order
        for alpha in points:
            if alpha[i]:
                total[alpha] += total[step(alpha, i)]
    return tuple(total[alpha] for alpha in points)


def power_fine_by_compositions(spec, box):
    """Coefficients over the box [0, box]^ambient (lexicographic, last index
    fastest) of the s-th power of the maximal ideal of the first span
    variables: the truncated geometric product over those variables minus
    every composition of degree < s in them that lies in the box, one
    composition at a time, times the truncated geometric product over the
    remaining variables."""
    n, span, s = spec.ambient, spec.span, spec.s
    points = list(product(range(box + 1), repeat=n))

    def step(alpha, i):
        return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]

    # the geometric product over the span variables is 1 on their box
    total = {alpha: int(not any(alpha[span:])) for alpha in points}
    # a degree above span * box has a part above box, outside the box
    for k in range(min(s, span * box + 1)):
        for cuts in combinations_with_replacement(range(k + 1), span - 1):
            alpha = tuple(b - a for a, b in zip((0,) + cuts, cuts + (k,)))
            if max(alpha) <= box:
                total[alpha + (0,) * (n - span)] -= 1
    for i in range(span, n):  # times 1/(1 - T_i), in lexicographic order
        for alpha in points:
            if alpha[i]:
                total[alpha] += total[step(alpha, i)]
    return tuple(total[alpha] for alpha in points)


def member_counts(spec, top):
    """counts[k], k = 0..top: the exponent vectors of degree k that
    spec.member accepts, over the product of the ranges 0..top."""
    counts = [0] * (top + 1)
    for alpha in product(range(top + 1), repeat=spec.ambient):
        k = sum(alpha)
        if k <= top and spec.member(alpha):
            counts[k] += 1
    return counts


def member_box(spec, box):
    """spec.member over the box [0, box]^ambient as 0 or 1, lexicographic
    (last index fastest)."""
    return tuple(int(spec.member(alpha))
                 for alpha in product(range(box + 1), repeat=spec.ambient))


def coarse_sums(ms, max_degree):
    """Sum of the coefficients of the MultiSeries ms over each total degree
    0..max_degree, point by point.  Complete only for degrees <= ms.box,
    where the box holds every composition of the degree."""
    sums = [0] * (ms.num_vars * ms.box + 1)
    points = product(range(ms.box + 1), repeat=ms.num_vars)
    for k, c in zip(map(sum, points), ms.coeffs):
        sums[k] += c
    return sums[:max_degree + 1]


def t_power(e):
    """T^e."""
    return IntPolynomial((0,) * e + (1,))


def eventual_polynomial(h):
    """(threshold, q) with q(k) = coefficient(h, k) for every k >= threshold,
    q's rational coefficients lowest power of k first.

    Expands sum_j P_j C(k-j+m-1, m-1) symbolically, each binomial the
    product (k-j+1)...(k-j+m-1) / (m-1)!.  For m = 0 the expansion is
    finitely supported: q is zero (no coefficients) from deg P + 1 on.
    """
    m, cs = h.den_pow, h.numer.coefficients
    if m == 0:
        return len(cs), ()
    q = [Fraction(0)] * m
    for j, pj in enumerate(cs):
        term = [Fraction(pj, factorial(m - 1))]
        for i in range(1, m):  # times (k - j + i)
            term = [a * (i - j) + b for a, b in zip([*term, 0], [0, *term])]
        q = [a + b for a, b in zip(q, term)]
    return len(cs) - 1, tuple(q)


def expand_by_prefix_sums(numer_coeffs, den_pow, upto):
    """Independent expansion oracle: den_pow-fold iterated prefix sums."""
    row = list(numer_coeffs) + [0] * max(0, upto + 1 - len(numer_coeffs))
    row = row[: upto + 1]
    for _ in range(den_pow):
        for i in range(1, len(row)):
            row[i] += row[i - 1]
    return row


def reference_nonnegative(h):
    """Brute-force decision, complete both ways: P(1) < 0 makes the tail
    negative; otherwise every real root of the eventual polynomial q lies
    below its Cauchy bound, past which q > 0, so expanding up to threshold
    plus that bound settles every coefficient."""
    threshold, q = eventual_polynomial(h)
    lead = q[-1] if q else 0
    if lead < 0:
        return False
    bound = 1 + max((abs(c / lead) for c in q[:-1]), default=0)
    upto = threshold + ceil(bound)
    return min(expand_by_prefix_sums(h.numer.coefficients, h.den_pow, upto)) >= 0


def evaluate(q, k):
    """q(k) by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(q):
        acc = acc * k + c
    return acc


def reference_verdicts(numer, m, first=0):
    """Whether numer(T) / (1 - T)^j is non-negative, for j = first..m, by
    the full-row scan: the row S_j[0..D] of j-fold prefix sums of P
    (D = deg P) and the eventual polynomial's forward-difference table at
    base D, both carried from j - 1 to j by one prefix-sum pass and one
    Pascal step, t_j = [S_j[D], t_(j-1)[0] + t_(j-1)[1], ..., P(1)].  The
    tail is accepted if that table is non-negative and otherwise decided by
    _search; p is the row's first possibly negative index."""
    v = next((i for i, c in enumerate(numer) if c), 0)
    row, table, total, p = list(numer[v:]), [], sum(numer), 0
    size = len(row)
    for j in range(m + 1):
        if j:
            row = list(accumulate(row))
            table = [row[-1], *map(add, table, table[1:]), total] if table else [row[-1]]
        if j >= first:
            while p < size and row[p] >= 0:
                p += 1
            yield (p == size and not (table and total < 0)
                   and (all(x >= 0 for x in table) or _search(table)))


def bisection_search(t):
    """Whether q(b + x) >= 0 for every integer x >= 0, from q's
    forward-difference table t at b (t[-1] > 0), by the sign-change cascade
    with binary and exponential search on every level, the top two as well:
    f_i(x) = sum_l C(x, l) t[i + l] is monotone between consecutive sign
    changes of f_(i+1), so each such interval, and the unbounded last one,
    holds at most one sign change of f_i.  q >= 0 iff f_0 has none."""
    e = len(t) - 1

    def negative(i, x):
        return sum(comb(x, l) * t[i + l] for l in range(min(x, e - i) + 1)) < 0

    def first(i, lo, hi):
        side = negative(i, hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if negative(i, mid) == side else (mid, hi)
        return hi

    changes = []
    for i in range(e - 1, -1, -1):
        ends = [0, *changes]
        changes = [first(i, lo, hi) for lo, hi in zip(ends, ends[1:])
                   if negative(i, lo) != negative(i, hi)]
        if negative(i, ends[-1]):
            step = 1
            while negative(i, ends[-1] + step):
                step *= 2
            changes.append(first(i, ends[-1] + step // 2, ends[-1] + step))
    return not changes


def alternating_sum(n, d, i):
    """sum_{l=0..i} C(n, i-l) (-1)^l C(n-d-i+l, l), term by term as Lemma 2.2
    states it."""
    return sum(comb(n, i - l) * (-1) ** l * comb(n - d - i + l, l) for l in range(i + 1))


def one_minus_t_sum(terms):
    """Coefficients of sum_j c_j T^(j+a) (1-T)^b for terms (c_j, a, b), each
    power of (1-T) expanded by the binomial theorem."""
    out = [0] * (max((a + b for _, a, b in terms), default=-1) + 1)
    for c, a, b in terms:
        for l in range(b + 1):
            out[a + l] += c * (-1) ** l * comb(b, l)
    return IntPolynomial(out)


def veronese_alt_numerator(n, d):
    """sum_{i=d-1..n-1} C(i, d-1) T^d (1-T)^(i-d+1), the numerator of the
    second presentation of the Veronese series."""
    return one_minus_t_sum([(comb(i, d - 1), d, i - d + 1) for i in range(d - 1, n)])


def prop_2_3_numerator(n, d):
    """sum_{k=0..n-d} C(n, k+d) T^k (1-T)^(n-k-d), the left-hand side of the
    Proposition 2.3 numerator identity divided by T^d."""
    return one_minus_t_sum([(comb(n, k + d), k, n - k - d) for k in range(n - d + 1)])
