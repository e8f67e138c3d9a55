"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (integer or structural equality; no tolerances).  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random

import pytest

from hilbertdepth.exactalg import IntPolynomial, binomial
from hilbertdepth.ideals import (
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
)
from hilbertdepth.identities import (
    _veronese_series,
    verify_eq_chain,
    verify_lemma_2_2,
    verify_lemma_4_1,
    verify_prop_2_3,
    verify_theorem_1_3,
    verify_theorem_1_4,
)
from hilbertdepth.multigrade import _ring_pass, fine_series_formula
from hilbertdepth.series import (
    canonicalize,
    coefficient,
    hilbert_depth,
    is_nonnegative,
    mul_power_one_minus_t,
)
from reference import (coarse_sums, evaluate, eventual_polynomial, one_minus_t_power,
                       veronese_alt_numerator)

N_SWEEP = 40
N_CHAIN = 40
ORACLE_N = 5
ORACLE_K = 12
FINE_VARS = 4
FINE_BOX = 3
PROBES = 10_000


def report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number} failed at {failures[:5]}"


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@pytest.fixture(scope="module")
def veronese_depths():
    return {
        (n, d): hilbert_depth(Veronese(n, d).series())
        for n in range(1, N_SWEEP + 1)
        for d in range(1, n + 1)
    }


def test_criterion_1_max_power_depth_formula():
    failures = []
    for n in range(1, N_SWEEP + 1):
        for s in range(1, n + 1):
            got = hilbert_depth(MaxPower(n, s).series())
            want = ceil_div(n, s + 1)
            if got != want:
                failures.append((n, s, got, want))
    report(1, "max-power depth formula, n <= 40", failures)


def test_criterion_2_veronese_depth_formula(veronese_depths):
    failures = []
    for n in range(1, N_SWEEP + 1):
        for d in range(1, n + 1):
            got = veronese_depths[(n, d)]
            ceil_form = d - 1 + ceil_div(n - d + 1, d + 1)
            floor_form = d + (n - d) // (d + 1)
            ratio_form = d + math.comb(n, d + 1) // math.comb(n, d)
            if not got == ceil_form == floor_form == ratio_form:
                failures.append((n, d, got, ceil_form, floor_form, ratio_form))
            if Veronese(n, d).closed_depth() != ceil_form:
                failures.append((n, d, "library closed form"))
    report(2, "Veronese depth formula and three spellings, n <= 40", failures)


def test_criterion_3_family_link(veronese_depths):
    failures = []
    for n in range(1, N_SWEEP + 1):
        for d in range(1, n + 1):
            # the second presentation's terms, since Veronese and HatPower
            # share one kernel
            hat = HatPower(n, d, d).series()
            veronese = canonicalize(veronese_alt_numerator(n, d), n)
            if veronese != mul_power_one_minus_t(hat, -(d - 1)):
                failures.append((n, d, "series"))
            # the closed form, since a second scan would repeat the first
            if veronese_depths[(n, d)] != HatPower(n, d, d).closed_depth() + d - 1:
                failures.append((n, d, "depth"))
    report(3, "series and depth link between the families, n <= 40", failures)


def test_criterion_4_two_presentations_agree():
    # the second presentation is the numerator the verify sweeps carry
    # along n: with one carry, in reverse it is summed from scratch for each
    # pair, and in sweep order carried from the one before
    failures, carry = [], {}
    pairs = [(n, d) for n in range(1, N_SWEEP + 1) for d in range(1, n + 1)]
    for n, d in pairs[::-1] + pairs:
        lhs = Veronese(n, d).series()
        rhs = _veronese_series(n, d, carry)
        if lhs.numer != rhs.numer or lhs.den_pow != rhs.den_pow:
            failures.append((n, d))
    report(4, "both Veronese presentations canonicalize identically, n <= 40", failures)


def test_criterion_5_binomial_identity_catalog():
    # in sweep order, each verifier with its own carry, as its sweep runs it
    failures, carries = [], ({}, {}, {})
    for n in range(1, N_SWEEP + 1):
        for d in range(1, n + 1):
            if not verify_lemma_2_2(n, d, carries[0]).passed:
                failures.append(("lemma_2_2", n, d))
    for n in range(1, N_CHAIN + 1):
        for d in range(1, n + 1):
            if not verify_lemma_4_1(n, d, n + 10, carries[1]).passed:
                failures.append(("lemma_4_1", n, d))
            if not verify_eq_chain(n, d, n + 10, carries[2]).passed:
                failures.append(("eq_chain", n, d))
    report(5, "binomial and series identity sweeps", failures)


def _oracle_specs():
    specs = []
    for n in range(1, ORACLE_N + 1):
        specs.extend(Veronese(n, d) for d in range(1, n + 1))
        specs.extend(MaxPower(n, s) for s in range(1, 7))
        for t in range(1, n + 1):
            specs.extend(HatPower(n, t, s) for s in range(1, 5))
            specs.extend(GeneratedHatPower(n, t, s) for s in range(1, 5))
    return specs


def _rings(specs):
    rings = {}
    for spec in specs:
        rings.setdefault(spec.ambient, []).append(spec)
    return rings.values()


def _enumerated_counts(ring, k_max):
    """counts[k][i]: the degree-k monomials in the ideal of ring[i], all but
    the origin counted from the compositions outside the box [0, 0]^r."""
    _, degrees = _ring_pass(ring, k_max, 0)
    return list(degrees)


def test_criterion_6_coarse_oracle_equivalence():
    failures = []
    for ring in _rings(_oracle_specs()):
        counts = _enumerated_counts(ring, ORACLE_K)
        for i, spec in enumerate(ring):
            h = spec.series()
            failures.extend((spec, k) for k in range(ORACLE_K + 1)
                            if counts[k][i] != coefficient(h, k))
    report(6, "enumeration equals closed-form coefficients, n <= 5, k <= 12", failures)


def test_criterion_7_fine_oracle_equivalence():
    failures = []
    specs = [s for s in _oracle_specs() if s.ambient <= FINE_VARS]
    for ring in _rings(specs):
        counts = _enumerated_counts(ring, FINE_BOX)
        for box in range(1, FINE_BOX + 1):
            fines, _ = _ring_pass(ring, box, box)
            for i, (spec, oracle) in enumerate(zip(ring, fines, strict=True)):
                formula = fine_series_formula(spec, box)
                if formula.coeffs != oracle:
                    failures.append((spec, box, "formula"))
                    continue
                sums = coarse_sums(formula, box)
                h = spec.series()
                for k in range(box + 1):
                    if sums[k] != counts[k][i]:
                        failures.append((spec, box, k, "oracle sum"))
                    if sums[k] != coefficient(h, k):
                        failures.append((spec, box, k, "coarse sum"))
    report(7, "fine formula equals pointwise membership and refines the "
              "coarse series", failures)


def _random_spec(rng: random.Random):
    family = rng.randrange(4)
    n = rng.randint(1, 10)
    if family == 0:
        return Veronese(n, rng.randint(1, n))
    if family == 1:
        return MaxPower(n, rng.randint(1, n + 2))
    t = rng.randint(1, n)
    s = rng.randint(1, n + 2)
    return HatPower(n, t, s) if family == 2 else GeneratedHatPower(n, t, s)


def test_criterion_8_property_suite(perturb):
    failures = []

    # non-negativity is monotone in r across randomized family probes
    rng = random.Random(96833)
    for _ in range(PROBES):
        h = _random_spec(rng).series()
        r = rng.randint(1, h.den_pow + 1)
        # at r = den_pow + 1 the numerator takes the surplus factor, which
        # mul_power_one_minus_t refuses
        raised = (canonicalize(h.numer * one_minus_t_power(r - h.den_pow), 0) if r > h.den_pow
                  else mul_power_one_minus_t(h, r))
        if is_nonnegative(raised):
            if not is_nonnegative(mul_power_one_minus_t(h, r - 1)):
                failures.append(("monotonicity", h, r))

    # canonicalize is idempotent on randomized inputs and family numerators
    for _ in range(500):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 8))]
        h = canonicalize(IntPolynomial(coeffs), rng.randint(0, 6))
        if canonicalize(h.numer, h.den_pow) != h:
            failures.append(("idempotence", coeffs))
    for n in range(1, 9):
        for d in range(1, n + 1):
            h = Veronese(n, d).series()
            if canonicalize(h.numer, h.den_pow) != h:
                failures.append(("idempotence", n, d))

    # the eventual polynomial reproduces coefficients on [D, D+20]
    for n in range(1, 9):
        specs = [Veronese(n, d) for d in range(1, n + 1)]
        specs += [MaxPower(n, s) for s in (1, 2, 3)]
        specs += [HatPower(n, t, 2) for t in range(1, n + 1)]
        specs += [GeneratedHatPower(n, t, 2) for t in range(1, n + 1)]
        for spec in specs:
            h = spec.series()
            if h.den_pow == 0:
                continue
            threshold, q = eventual_polynomial(h)
            for k in range(threshold, threshold + 21):
                if evaluate(q, k) != coefficient(h, k):
                    failures.append(("eventual", spec, k))

    # Pascal recurrence and the sign law for the generalized binomial
    for a in range(-50, 51):
        for b in range(1, 51):
            if binomial(a, b) != binomial(a - 1, b - 1) + binomial(a - 1, b):
                failures.append(("pascal", a, b))
    for a in range(1, 51):
        for b in range(0, 51):
            if binomial(-a, b) != (-1) ** b * binomial(a + b - 1, b):
                failures.append(("sign-law", a, b))

    # every verifier reports a counterexample under a deliberate break
    broken = []
    for verify, args, at in [
        (verify_lemma_2_2, (4, 2), (2,)),
        (verify_prop_2_3, (5, 2), None),
        (verify_lemma_4_1, (5, 2, 10), (3,)),
        (verify_eq_chain, (5, 2, 10), ("unshifted", 3)),
        (verify_theorem_1_4, (5, 2), ("depth",)),
        (verify_theorem_1_3, (5,), ("veronese", 4, 2)),
    ]:
        perturb(1, at=at)
        broken.append(verify(*args))
    for res in broken:
        if res.passed or res.counterexample is None:
            failures.append(("perturbation", res.identity_id))
    lemma_ce = broken[0].counterexample
    if (lemma_ce.params, lemma_ce.lhs, lemma_ce.rhs) != ((2,), 3, 4):
        failures.append(("perturbation-values", lemma_ce))

    report(8, "property suite (monotonicity, idempotence, eventual "
              "polynomial, binomial laws, perturbations)", failures)
