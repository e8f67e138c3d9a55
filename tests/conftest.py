"""Shared fixtures."""

import pytest

import hilbertdepth.identities as identities
import hilbertdepth.multigrade as multigrade
from hilbertdepth.series import RationalFunctionSeries, canonicalize
from reference import one_minus_t_power


def shifted(side, offset):
    """side + offset; a series side gains offset * (1-T)^m in its numerator."""
    if isinstance(side, RationalFunctionSeries):
        m = side.den_pow
        return canonicalize(side.numer + offset * one_minus_t_power(m), m)
    return side + offset


def perturbed_check(check, offset, at=None):
    """A wrapper of the verifiers' check driver that shifts the right-hand
    side of the check point equal to `at` (of every point when it is None)
    by `offset`.  The identities are exact, so a nonzero shift must turn
    the matching point into the reported counterexample."""
    def wrapped(identity_id, params, points):
        return check(identity_id, params, (
            (point, lhs, shifted(rhs, offset) if at is None or at == point else rhs)
            for point, lhs, rhs in points))
    return wrapped


@pytest.fixture
def perturb(monkeypatch):
    """perturb(offset, at=None): break every later verifier call of the test
    at check point `at`; a second call replaces the first."""
    check = identities._check

    def apply(offset, at=None):
        monkeypatch.setattr(identities, "_check", perturbed_check(check, offset, at))
    return apply


@pytest.fixture
def statistics_points(monkeypatch):
    """The list of every point whose statistic columns a later oracle pass
    of the test computes, in the order it computes them: each chunk of
    compositions or of box points handed to _statistics."""
    points = []
    statistics = multigrade._statistics

    def spy(chunk, vars_):
        points.extend(chunk)
        return statistics(chunk, vars_)
    monkeypatch.setattr(multigrade, "_statistics", spy)
    return points
