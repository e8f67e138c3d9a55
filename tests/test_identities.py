"""Identity verifiers: clean passes, determinism, and the failure path."""

import pytest

from hilbertdepth.identities import (
    Counterexample,
    VerificationResult,
    verify_eq_chain,
    verify_lemma_2_2,
    verify_lemma_4_1,
    verify_prop_2_3,
    verify_theorem_1_3,
    verify_theorem_1_4,
)


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

    def test_perturbation_reports_counterexample(self):
        res = verify_lemma_2_2(4, 2, perturb=1, perturb_at=(2,))
        assert not res.passed
        assert res.counterexample == Counterexample((2,), 3, 4)

    def test_untargeted_perturbation_fails_at_first_point(self):
        res = verify_lemma_2_2(4, 2, perturb=1)
        assert res.counterexample.params == (0,)


class TestProp23:
    @pytest.mark.parametrize("n,d", [(3, 2), (5, 5), (8, 3)])
    def test_instances(self, n, d):
        assert verify_prop_2_3(n, d).passed

    def test_sweep(self):
        for n in range(1, 16):
            for d in range(1, n + 1):
                assert verify_prop_2_3(n, d).passed

    def test_perturbed_series_check(self):
        res = verify_prop_2_3(3, 2, perturb=1, perturb_at=("series",))
        assert not res.passed
        assert res.counterexample.params[0] == "series"

    def test_perturbed_numerator_check(self):
        res = verify_prop_2_3(3, 2, perturb=-2, perturb_at=("numerator",))
        assert not res.passed
        assert res.counterexample == Counterexample(("numerator", 0), 3, 1)


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

    def test_perturbation(self):
        res = verify_lemma_4_1(5, 2, 10, perturb=3, perturb_at=(7,))
        assert not res.passed
        assert res.counterexample.params == (7,)
        assert res.counterexample.rhs - res.counterexample.lhs == 3


class TestEqChain:
    @pytest.mark.parametrize("n,d,k_max", [(3, 2, 10), (5, 5, 5), (6, 3, 15)])
    def test_instances(self, n, d, k_max):
        assert verify_eq_chain(n, d, k_max).passed

    def test_sweep(self):
        for n in range(1, 13):
            for d in range(1, n + 1):
                assert verify_eq_chain(n, d, n + 10).passed

    @pytest.mark.parametrize("point", [("rational",), ("shifted", 4), ("unshifted", 2)])
    def test_perturbation_per_step(self, point):
        res = verify_eq_chain(4, 2, 8, perturb=1, perturb_at=point)
        assert not res.passed
        assert res.counterexample.params[0] == point[0]

    def test_agrees_with_lemma_4_1_case_by_case(self):
        # the unshifted step and the convolution identity are the same
        # statement; a shared perturbation must produce the same values
        for n, d, k0 in [(4, 2, 3), (6, 3, 5)]:
            broken_chain = verify_eq_chain(n, d, 10, perturb=1,
                                           perturb_at=("unshifted", k0))
            broken_lemma = verify_lemma_4_1(n, d, 10, perturb=1, perturb_at=(k0,))
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

    def test_perturbed_series(self):
        res = verify_theorem_1_4(3, 2, perturb=2, perturb_at=("series",))
        assert not res.passed and res.counterexample.params == ("series", 0)
        assert res.counterexample.rhs == 2

    def test_perturbed_depth(self):
        res = verify_theorem_1_4(3, 2, perturb=1, perturb_at=("depth",))
        assert not res.passed
        assert res.counterexample == Counterexample(("depth",), 2, 3)


class TestTheorem13:
    def test_sweep(self):
        assert verify_theorem_1_3(10).passed

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            verify_theorem_1_3(0)

    @pytest.mark.parametrize("point", [("max_power", 3, 2), ("veronese", 6, 2),
                                       ("substitution", 4, 2)])
    def test_perturbation_per_branch(self, point):
        res = verify_theorem_1_3(6, perturb=1, perturb_at=point)
        assert not res.passed
        assert res.counterexample.params == point


class TestResultStructure:
    def test_passed_iff_no_counterexample(self):
        with pytest.raises(ValueError):
            VerificationResult("lemma_2_2", "n=2 d=1", True,
                               Counterexample((0,), 1, 2))
        with pytest.raises(ValueError):
            VerificationResult("lemma_2_2", "n=2 d=1", False, None)

    def test_deterministic_results(self):
        a = verify_theorem_1_4(5, 3)
        b = verify_theorem_1_4(5, 3)
        assert a == b
        a = verify_lemma_2_2(6, 2, perturb=1)
        b = verify_lemma_2_2(6, 2, perturb=1)
        assert a == b
