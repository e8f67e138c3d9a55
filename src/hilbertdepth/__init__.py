"""Exact Hilbert series and Hilbert depth computations for four families of
monomial ideals, with brute-force oracles and an identity verifier catalog.
"""

from .exactalg import IntPolynomial, binomial
from .ideals import (
    DepthReport,
    GeneratedHatPower,
    HatPower,
    IdealSpec,
    MaxPower,
    Veronese,
    closed_depth_max_power,
    closed_depth_veronese,
    depth_report,
    generated_hat_power_series,
    hat_power_series,
    max_power_series,
    series_for,
    veronese_series,
    veronese_series_alt,
)
from .identities import (
    Counterexample,
    VerificationResult,
    verify_eq_chain,
    verify_lemma_2_2,
    verify_lemma_4_1,
    verify_prop_2_3,
    verify_theorem_1_3,
    verify_theorem_1_4,
)
from .multigrade import (
    MultiSeries,
    fine_series_formula,
    fine_series_oracle,
    hilbert_function_oracle,
    membership,
)
from .series import (
    EventualPolynomial,
    RationalFunctionSeries,
    canonicalize,
    coefficient,
    eventual_polynomial,
    hilbert_depth,
    is_nonnegative,
    mul_power_one_minus_t,
)

__version__ = "0.1.0"
