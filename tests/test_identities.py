"""Identity verifiers and their sweep: clean passes, determinism, and the
failure path."""

import json
import random
import re
from math import comb

import pytest

import hilbertdepth.ideals as ideals
import hilbertdepth.identities as identities
from conftest import shifted
from hilbertdepth.cli import main
from hilbertdepth.ideals import Veronese
from hilbertdepth.identities import (
    Counterexample,
    VerificationResult,
    sweep,
    verify_eq_chain,
    verify_lemma_2_2,
    verify_lemma_4_1,
    verify_prop_2_3,
    verify_theorem_1_3,
    verify_theorem_1_4,
)
from hilbertdepth.series import canonicalize, coefficient
from reference import (
    alternating_sum,
    convolution_row,
    convolution_sum,
    one_minus_t_power,
    one_minus_t_row,
    prop_2_3_numerator,
    t_power,
    veronese_alt_numerator,
)

# the catalog, named as the command line and sweep spell it
NAMES = ("lemma-2.2", "prop-2.3", "lemma-4.1", "eq-chain", "theorem-1.4", "theorem-1.3")
WINDOWED = ("lemma-4.1", "eq-chain")


@pytest.fixture
def checked_points(monkeypatch):
    """The check points of the latest verifier call, as a list: _check is
    wrapped to record them before it compares them."""
    seen = []
    check = identities._check

    def recording(identity_id, params, points):
        seen[:] = points
        return check(identity_id, params, seen)
    monkeypatch.setattr(identities, "_check", recording)
    return seen


class TestLemma22:
    def test_hand_instance(self):
        # (4, 2) at i = 2: lhs C(3,2) = 3, rhs 6 - 4 + 1 = 3
        assert verify_lemma_2_2(4, 2).passed

    def test_single_case_when_d_equals_n(self):
        res = verify_lemma_2_2(5, 5)
        assert res.passed and res.params.endswith("i in 0..0")

    def test_full_sweep(self):
        for n in range(1, 21):
            for d in range(1, n + 1):
                assert verify_lemma_2_2(n, d).passed

    def test_row_matches_term_by_term_sum(self, checked_points):
        for n in range(1, 25):
            for d in range(1, n + 1):
                assert verify_lemma_2_2(n, d).passed
                assert [point for point, _, _ in checked_points] == [
                    (i,) for i in range(n - d + 1)]
                for (i,), lhs, rhs in checked_points:
                    assert lhs == comb(i + d - 1, i)
                    assert rhs == alternating_sum(n, d, i) == comb(i + d - 1, i), (n, d, i)

    def test_perturbation_reports_counterexample(self, perturb):
        perturb(1, at=(2,))
        res = verify_lemma_2_2(4, 2)
        assert not res.passed
        assert res.counterexample == Counterexample((2,), 3, 4)

    def test_untargeted_perturbation_fails_at_first_point(self, perturb):
        perturb(1)
        res = verify_lemma_2_2(4, 2)
        assert res.counterexample.params == (0,)


class TestProp23:
    @pytest.mark.parametrize("n,d", [(3, 2), (5, 5), (8, 3)])
    def test_instances(self, n, d):
        assert verify_prop_2_3(n, d).passed

    def test_sweep(self):
        for n in range(1, 41):
            for d in range(1, n + 1):
                assert verify_prop_2_3(n, d).passed

    def test_horner_sums_match_binomial_expansion(self, checked_points):
        # the carried numerator gains one term of its sum per n, and the
        # numerator's left-hand side is built by descending steps in d
        for n in range(1, 30):
            for d in range(1, n + 1):
                assert verify_prop_2_3(n, d).passed
                (series, _, alt), (numerator, lhs, _) = checked_points
                assert (series, numerator) == (("series",), ("numerator",))
                assert alt == canonicalize(veronese_alt_numerator(n, d), n), (n, d)
                assert lhs == canonicalize(prop_2_3_numerator(n, d), 0), (n, d)

    def test_perturbed_series_check(self, perturb):
        perturb(1, at=("series",))
        res = verify_prop_2_3(3, 2)
        assert not res.passed
        assert res.counterexample.params[0] == "series"

    def test_perturbed_numerator_check(self, perturb):
        perturb(-2, at=("numerator",))
        res = verify_prop_2_3(3, 2)
        assert not res.passed
        assert res.counterexample == Counterexample(("numerator", 0), 3, 1)

    def test_series_counterexample_is_the_first_differing_coefficient(self, perturb):
        # both sides' expansions are read up to the first k where they
        # differ; the values reported there are coefficient's
        perturb(3, at=("series",))
        n, d = 8, 3
        ce = verify_prop_2_3(n, d).counterexample
        lhs = Veronese(n, d).series()
        rhs = shifted(canonicalize(veronese_alt_numerator(n, d), n), 3)
        k = ce.params[1]
        assert ce == Counterexample(("series", k), coefficient(lhs, k), coefficient(rhs, k))
        assert all(coefficient(lhs, j) == coefficient(rhs, j) for j in range(k))

    def test_first_difference_past_the_constant_term(self):
        # rhs = lhs + T^5, so the expansions first differ at k = 5
        lhs = Veronese(8, 3).series()
        rhs = canonicalize(lhs.numer + t_power(5) * one_minus_t_power(8), 8)
        c = coefficient(lhs, 5)
        assert identities._first_series_difference(lhs, rhs) == (5, c, c + 1)

    def test_numerator_point_alone_reads_a(self, monkeypatch):
        # A(n, d) is read by prop_2_3 ("numerator",) and by no other point,
        # so one wrong coefficient of A(n, 3) fails that point and nothing
        # else in the catalog
        rows = identities._prop_2_3_rows

        def wrong_rows(n):
            out = [list(row) for row in rows(n)]
            if n >= 4:
                out[2][1] += 1
            return out
        monkeypatch.setattr(identities, "_prop_2_3_rows", wrong_rows)
        results = {name: sweep(name, 6) for name in NAMES}
        # A(4, 3) = 4 - 3T = B(4, 3), and the wrong row reads 4 - 2T
        assert results.pop("prop-2.3")["counterexample"] == {
            "at": "n=4 d=3", "point": ["numerator", 1], "lhs": -2, "rhs": -3}
        assert all(row["passed"] for row in results.values())


class TestLemma41:
    def test_hand_instance(self):
        # (3, 2) at k = 1: lhs C(4,3) = 4, rhs 2 + 2 = 4
        assert verify_lemma_4_1(3, 2, 1).passed

    def test_k_zero_hockey_stick(self):
        for n in range(1, 15):
            for d in range(1, n + 1):
                assert verify_lemma_4_1(n, d, 0).passed

    def test_window(self):
        assert verify_lemma_4_1(5, 2, 10).passed

    def test_sweep(self):
        for n in range(1, 41):
            for d in range(1, n + 1):
                assert verify_lemma_4_1(n, d, n + 10).passed

    def test_row_matches_term_by_term_sums(self):
        for n in range(1, 25):
            for d in range(1, n + 1):
                row = identities._convolution_row(n, d, n + 10)
                assert row == [convolution_sum(n, d, k) for k in range(n + 11)]
                for k in range(d, n + 11):
                    assert row[k - d] == sum(
                        comb(i, d - 1) * comb(n - i + k - d - 1, k - d)
                        for i in range(d - 1, n))

    def test_perturbation(self, perturb):
        perturb(3, at=(7,))
        res = verify_lemma_4_1(5, 2, 10)
        assert not res.passed
        assert res.counterexample.params == (7,)
        assert res.counterexample.rhs - res.counterexample.lhs == 3


class TestEqChain:
    @pytest.mark.parametrize("n,d,k_max", [(3, 2, 10), (5, 5, 5), (6, 3, 15)])
    def test_instances(self, n, d, k_max):
        assert verify_eq_chain(n, d, k_max).passed

    def test_sweep(self):
        for n in range(1, 41):
            for d in range(1, n + 1):
                assert verify_eq_chain(n, d, n + 10).passed

    @pytest.mark.parametrize("point", [("rational",), ("shifted", 4), ("unshifted", 2)])
    def test_perturbation_per_step(self, perturb, point):
        perturb(1, at=point)
        res = verify_eq_chain(4, 2, 8)
        assert not res.passed
        assert res.counterexample.params[0] == point[0]

    def test_agrees_with_lemma_4_1_case_by_case(self, perturb):
        # the unshifted step and the convolution identity are the same
        # statement; a shared perturbation must produce the same values
        for n, d, k0 in [(4, 2, 3), (6, 3, 5)]:
            perturb(1, at=("unshifted", k0))
            broken_chain = verify_eq_chain(n, d, 10)
            perturb(1, at=(k0,))
            broken_lemma = verify_lemma_4_1(n, d, 10)
            assert broken_chain.counterexample.lhs == broken_lemma.counterexample.lhs
            assert broken_chain.counterexample.rhs == broken_lemma.counterexample.rhs


class TestTheorem14:
    def test_hand_instance(self):
        assert verify_theorem_1_4(3, 2).passed

    def test_trivial_when_d_is_one(self):
        for n in range(1, 10):
            assert verify_theorem_1_4(n, 1).passed

    def test_principal_case(self):
        for n in range(1, 10):
            assert verify_theorem_1_4(n, n).passed

    def test_perturbed_series(self, perturb):
        perturb(2, at=("series",))
        res = verify_theorem_1_4(3, 2)
        assert not res.passed and res.counterexample.params == ("series", 0)
        assert res.counterexample.rhs == 2

    def test_perturbed_depth(self, perturb):
        perturb(1, at=("depth",))
        res = verify_theorem_1_4(3, 2)
        assert not res.passed
        assert res.counterexample == Counterexample(("depth",), 2, 3)


class TestSharedKernelFault:
    """Veronese and the power families build their series with one kernel,
    so a fault in it must fail every series point: none may compare the
    kernel's output with itself."""

    @pytest.fixture
    def faulty_kernel(self, monkeypatch):
        # wrong but canonical: the denominator power is one too high
        kernel = ideals._power_series

        def raised(span, s, ambient):
            h = kernel(span, s, ambient)
            return canonicalize(h.numer, h.den_pow + 1)
        monkeypatch.setattr(ideals, "_power_series", raised)

    @pytest.mark.parametrize("verify, args, point", [
        (verify_prop_2_3, (6, 3), ("series", 4)),
        (verify_eq_chain, (6, 3, 8), ("rational", 4)),
        (verify_theorem_1_4, (6, 3), ("series", 4)),
    ])
    def test_every_series_point_fails(self, faulty_kernel, verify, args, point):
        assert verify(*args).counterexample.params == point


def _sweep(n_max):
    return [(n, d) for n in range(1, n_max + 1) for d in range(1, n + 1)]


def _clear_carries():
    identities._convolution_carry.clear()
    identities._numerator_carry.clear()
    identities._lemma_2_2_rows.cache_clear()
    identities._prop_2_3_rows.cache_clear()


class TestCarriedRows:
    """Every carried row equals its reference, summed for its (n, d) alone,
    whatever the order of the calls and the convolution window."""

    PAIRS = _sweep(40)

    @pytest.fixture(scope="class")
    def references(self):
        return {(n, d): {
            "convolution": {w: convolution_row(n, d, w) for w in (n + 10, 0, 57)},
            "numerator": list(veronese_alt_numerator(n, d).coefficients[d:]),
            "lemma_2_2": one_minus_t_row([comb(n, j) for j in range(n - d + 1)]),
            "prop_2_3": one_minus_t_row([comb(n, k + d) for k in range(n - d + 1)]),
        } for n, d in self.PAIRS}

    @pytest.mark.parametrize("order", ["sweep", "reverse", "shuffle"])
    @pytest.mark.parametrize("window", ["n+10", 0, 57, "mixed"])
    def test_rows_equal_references(self, references, order, window):
        pairs = list(self.PAIRS)
        rng = random.Random(34)
        if order == "reverse":
            pairs.reverse()
        elif order == "shuffle":
            rng.shuffle(pairs)
        for n, d in pairs:
            # "mixed" draws each call's window, so that a carried row is
            # extended by its defining sum or cut as well as stepped
            w = rng.choice([n + 10, 0, 57]) if window == "mixed" else window
            w = n + 10 if w == "n+10" else w
            want = references[n, d]
            assert identities._convolution_row(n, d, w) == want["convolution"][w], (n, d, w)
            assert identities._veronese_numerator(n, d) == want["numerator"], (n, d)
            assert identities._lemma_2_2_rows(n)[d - 1] == want["lemma_2_2"], (n, d)
            assert identities._prop_2_3_rows(n)[d - 1] == want["prop_2_3"], (n, d)

    def test_verdicts_do_not_depend_on_call_order(self):
        # every verifier, called in a shuffled order after a sweep, gives
        # the results it gives on its own
        pairs = _sweep(12)
        calls = [(verify, pair) for verify in (verify_lemma_2_2, verify_prop_2_3,
                                               verify_theorem_1_4) for pair in pairs]
        calls += [(verify, (*pair, k)) for verify in (verify_lemma_4_1, verify_eq_chain)
                  for pair in pairs for k in (pair[0] + 10, 3)]
        in_order = [verify(*args) for verify, args in calls]
        shuffled = list(range(len(calls)))
        random.Random(34).shuffle(shuffled)
        for i in shuffled:
            verify, args = calls[i]
            assert verify(*args) == in_order[i], (verify.__name__, args)


class TestOneWrongTerm:
    """One wrong binomial in one side's defining sum must fail the first
    pair in sweep order whose sum holds it, and no earlier pair.  Each carry
    step adds one term of its own side's sum, so none reads the term early
    or late; a step taken from a binomial identity (Pascal's rule for
    lemma_2_2's row, or the carried numerator's recurrence for prop_2_3's
    left side) would first read it at a later pair."""

    @pytest.fixture
    def wrong_binomial(self, monkeypatch):
        def apply(a, b):
            true = identities.comb
            monkeypatch.setattr(identities, "comb",
                                lambda x, y: true(x, y) + ((x, y) == (a, b)))
        _clear_carries()
        yield apply
        # rows summed with the wrong binomial must not outlive the test
        _clear_carries()

    @pytest.mark.parametrize("verify, term, first", [
        # C(12, 5) is a term of L(12, d) for d <= 7 and of A(12, d) for d <= 5
        (verify_lemma_2_2, (12, 5), (12, 1)),
        (verify_prop_2_3, (12, 5), (12, 1)),
        # C(9, 0) is a term of R(n, 1) and C(9, 2) of B(n, 3), for n >= 10
        (verify_lemma_4_1, (9, 0), (10, 1)),
        (verify_theorem_1_4, (9, 2), (10, 3)),
    ])
    def test_first_pair_holding_the_term_fails(self, wrong_binomial, verify, term, first):
        wrong_binomial(*term)
        window = (lambda n: (n + 10,)) if verify is verify_lemma_4_1 else (lambda n: ())
        failed = next(pair for pair in _sweep(14)
                      if not verify(*pair, *window(pair[0])).passed)
        assert failed == first


class TestTheorem13:
    def test_sweep(self):
        assert verify_theorem_1_3(10).passed

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            verify_theorem_1_3(0)

    @pytest.mark.parametrize("point", [("max_power", 3, 2), ("veronese", 6, 2),
                                       ("substitution", 4, 2)])
    def test_perturbation_per_branch(self, perturb, point):
        perturb(1, at=point)
        res = verify_theorem_1_3(6)
        assert not res.passed
        assert res.counterexample.params == point


def _verifier_name(identity):
    return "verify_" + identity.replace("-", "_").replace(".", "_")


class TestSweep:
    """identities.sweep is verify's one entry point: it picks the verifier,
    the window, the pair order and the case count."""

    @pytest.mark.parametrize("identity, k_max", [
        *((name, None) for name in NAMES),
        *((name, k) for name in WINDOWED for k in (0, 5))])
    def test_row_is_the_command_line_result(self, capsys, identity, k_max):
        window = [] if k_max is None else ["--k-max", str(k_max)]
        for n_max in range(1, 7):
            assert main(["verify", identity, "--n-max", str(n_max), *window,
                         "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert sweep(identity, n_max, k_max) == doc["results"][0], n_max

    @pytest.mark.parametrize("identity", NAMES[:-1])
    def test_stops_at_the_first_failure(self, monkeypatch, identity):
        # no call past the failing pair (2, 2), yet cases counts every pair;
        # a windowed verifier gets the default window k <= n+10
        name, calls = _verifier_name(identity), []
        verify = getattr(identities, name)

        def failing_at_2_2(n, d, *window):
            calls.append((n, d, *window))
            if (n, d) != (2, 2):
                return verify(n, d, *window)
            return VerificationResult("tag", "n=2 d=2", Counterexample(("x",), 1, 2))
        monkeypatch.setattr(identities, name, failing_at_2_2)
        row = sweep(identity, 4)
        windows = [(n + 10,) if identity in WINDOWED else () for n in (1, 2, 2)]
        assert calls == [(n, d, *w) for (n, d), w in zip([(1, 1), (2, 1), (2, 2)], windows)]
        assert (row["cases"], row["passed"]) == (10, False)
        assert row["counterexample"] == {"at": "n=2 d=2", "point": ["x"], "lhs": 1, "rhs": 2}

    @pytest.mark.parametrize("identity, n_max, k_max", [
        *((name, 0, None) for name in NAMES),
        *((name, 3, -1) for name in WINDOWED),
        ("lemma-9.9", 3, None), ("lemma_2_2", 3, None), ("verify_lemma_2_2", 3, None),
        *((name, 3, 5) for name in NAMES if name not in WINDOWED)])
    def test_rejects_before_any_call(self, monkeypatch, identity, n_max, k_max):
        # never a vacuous pass: every rejection comes before any verifier runs
        calls = []
        for name in NAMES:
            monkeypatch.setattr(identities, _verifier_name(name),
                                lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            sweep(identity, n_max, k_max)
        assert calls == []

    @pytest.mark.parametrize("identity, n_max, k_max, name", [
        ("lemma-2.2", True, None, "n_max"), ("prop-2.3", 3.0, None, "n_max"),
        ("theorem-1.3", False, None, "n_max"), ("lemma-4.1", 3, True, "k_max"),
        ("eq-chain", 3, 5.0, "k_max"), ("eq-chain", 2.5, 5, "n_max")])
    def test_rejects_flags_and_floats(self, monkeypatch, identity, n_max, k_max, name):
        # a flag or a float would run as a number, n_max = True as one pair
        # under params "1 <= d <= n <= True"
        calls = []
        for catalog_name in NAMES:
            monkeypatch.setattr(identities, _verifier_name(catalog_name),
                                lambda *args: calls.append(args))
        with pytest.raises(TypeError, match=f"^sweep argument {name} must be an int"):
            sweep(identity, n_max, k_max)
        assert calls == []

    def test_window_message_names_the_flag(self):
        with pytest.raises(ValueError, match=re.escape("prop-2.3 does not take --k-max")):
            sweep("prop-2.3", 3, 5)

    def test_theorem_1_3_counts_three_cases_a_pair(self):
        row = sweep("theorem-1.3", 5)
        assert row == {"identity": "theorem_1_3", "params": "1 <= s,d <= n <= 5",
                       "cases": 45, "passed": True, "counterexample": None}

    def test_pairs_run_in_the_order_the_carries_step(self, monkeypatch):
        # n outer and d inner: A's rows are built once per n, and B gains
        # one term per pair.  d outer would build A's rows 77 times, and n
        # descending would sum B from its base, 364 binomials
        _clear_carries()
        assert sweep("prop-2.3", 12)["passed"]
        assert identities._prop_2_3_rows.cache_info().misses == 12
        _clear_carries()
        calls = []
        true = identities.comb
        monkeypatch.setattr(identities, "comb", lambda a, b: calls.append((a, b)) or true(a, b))
        assert sweep("theorem-1.4", 12)["passed"]
        assert len(calls) == 78


class TestParameterValidation:
    @pytest.mark.parametrize("verify, args, message", [
        (verify_lemma_2_2, (3, 5), "generator degree d must satisfy 1 <= d <= n"),
        (verify_lemma_2_2, (0, 0), "variable count n must be >= 1"),
        (verify_prop_2_3, (3, 5), "generator degree d must satisfy 1 <= d <= n"),
        (verify_lemma_4_1, (2, 5, 3), "generator degree d must satisfy 1 <= d <= n"),
        (verify_lemma_4_1, (3, 2, -1), "k_max must be non-negative"),
        (verify_eq_chain, (3, 0, 4), "generator degree d must satisfy 1 <= d <= n"),
        (verify_eq_chain, (3, 2, -4), "k_max must be non-negative"),
        (verify_theorem_1_4, (0, 1), "variable count n must be >= 1"),
    ])
    def test_rejects_invalid_parameters(self, verify, args, message):
        # rejected before any check point, never reported as a vacuous pass
        with pytest.raises(ValueError, match=re.escape(message)):
            verify(*args)


class TestResultStructure:
    def test_passed_iff_no_counterexample(self):
        # passed is derived, so a result cannot state it apart from the data
        assert not VerificationResult("lemma_2_2", "n=2 d=1",
                                      Counterexample((0,), 1, 2)).passed
        assert VerificationResult("lemma_2_2", "n=2 d=1", None).passed
        with pytest.raises(TypeError):
            VerificationResult("lemma_2_2", "n=2 d=1", True, None)

    def test_deterministic_results(self, perturb):
        a = verify_theorem_1_4(5, 3)
        b = verify_theorem_1_4(5, 3)
        assert a == b
        perturb(1)
        a = verify_lemma_2_2(6, 2)
        b = verify_lemma_2_2(6, 2)
        assert a == b and not a.passed
