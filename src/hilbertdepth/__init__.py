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
    depth_report,
)
from .series import (
    RationalFunctionSeries,
    canonicalize,
    coefficient,
    expansion,
    hilbert_depth,
    is_nonnegative,
    mul_power_one_minus_t,
)

__version__ = "0.1.0"

# The identity catalog and the oracles are cross-checks that the series and
# depth computations never call, so their modules are imported on first use
# of one of their names (PEP 562).
_LAZY = {
    **dict.fromkeys(("Counterexample", "VerificationResult", "verify_eq_chain",
                     "verify_lemma_2_2", "verify_lemma_4_1", "verify_prop_2_3",
                     "verify_theorem_1_3", "verify_theorem_1_4"), "identities"),
    **dict.fromkeys(("MultiSeries", "fine_series_formula"), "multigrade"),
}


def __getattr__(name: str):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
