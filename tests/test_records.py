"""The immutable record base shared by every value type of the package:
construction, validation, immutability, equality, hashing and repr."""

import pytest

from hilbertdepth.exactalg import IntPolynomial, Record
from hilbertdepth.ideals import (
    DepthReport,
    GeneratedHatPower,
    HatPower,
    MaxPower,
    Veronese,
    depth_report,
)
from hilbertdepth.identities import Counterexample, VerificationResult
from hilbertdepth.multigrade import MultiSeries
from hilbertdepth.series import RationalFunctionSeries, canonicalize

# class, field names in order, valid field values, derived (non-field) names
RECORDS = [
    (IntPolynomial, ("coefficients",), ((0, 1),), ("degree",)),
    (RationalFunctionSeries, ("numer", "den_pow"), (IntPolynomial((1, 2)), 2), ()),
    (Veronese, ("n", "d"), (6, 2), ("family", "ambient")),
    (MaxPower, ("n", "s"), (6, 2), ("t", "family", "span", "ambient")),
    (HatPower, ("n", "t", "s"), (6, 2, 3), ("family", "span", "ambient")),
    (GeneratedHatPower, ("n", "t", "s"), (6, 2, 3), ("family", "span", "ambient")),
    (DepthReport, ("spec", "series", "computed_depth", "closed_form_depth"),
     (Veronese(6, 2), Veronese(6, 2).series(), 3, 3), ("agree",)),
    (Counterexample, ("params", "lhs", "rhs"), ((1, 2), 3, 4), ()),
    (VerificationResult, ("identity_id", "params", "counterexample"),
     ("lemma_2_2", "n=3 d=2", None), ("passed",)),
    (MultiSeries, ("num_vars", "box", "coeffs"), (1, 1, (0, 1)), ()),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# arguments each validating class rejects with ValueError
INVALID = [
    (RationalFunctionSeries, (IntPolynomial((1, -1)), 1)),
    (RationalFunctionSeries, (IntPolynomial(), 2)),
    (RationalFunctionSeries, (IntPolynomial((1,)), -1)),
    (Veronese, (3, 4)),
    (Veronese, (0, 1)),
    (MaxPower, (3, 0)),
    (HatPower, (3, 4, 1)),
    (GeneratedHatPower, (0, 1, 1)),
    (MultiSeries, (2, 1, (1, 0, 0))),
    (MultiSeries, (0, 1, ())),
]


@pytest.mark.parametrize("cls, names, values, derived", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_is_a_record_with_these_fields(self, cls, names, values, derived):
        rec = cls(*values)
        assert isinstance(rec, Record)
        assert rec._asdict() == dict(zip(names, values))
        assert list(rec._asdict()) == list(names)

    def test_positional_and_keyword_construction_agree(self, cls, names, values, derived):
        by_keyword = cls(**dict(zip(names, values)))
        mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
        assert cls(*values) == by_keyword == mixed

    def test_missing_field_raises_type_error(self, cls, names, values, derived):
        if cls is IntPolynomial:  # its one field defaults to no coefficients
            assert cls() == cls(()) and cls().degree == -1
            return
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(**dict(zip(names[1:], values[1:])))

    def test_extra_field_raises_type_error(self, cls, names, values, derived):
        with pytest.raises(TypeError):
            cls(*values, values[-1])
        with pytest.raises(TypeError):
            cls(*values, bogus=1)
        with pytest.raises(TypeError):
            cls(*values, **{names[0]: values[0]})
        for name in derived:
            with pytest.raises(TypeError):
                cls(*values, **{name: getattr(cls(*values), name)})

    def test_fields_cannot_be_assigned(self, cls, names, values, derived):
        rec = cls(*values)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.bogus = 1
        assert rec == cls(*values)

    def test_equal_values_hash_equal(self, cls, names, values, derived):
        a, b = cls(*values), cls(**dict(zip(names, values)))
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr_names_every_field(self, cls, names, values, derived):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def call_id(cls, values):
    """The constructor call as a test id, a polynomial argument written by
    its coefficients alone to keep the id short."""
    args = (f"IntPolynomial({v.coefficients})" if isinstance(v, IntPolynomial) else repr(v)
            for v in values)
    return f"{cls.__name__}({', '.join(args)})"


@pytest.mark.parametrize("cls, values", INVALID,
                         ids=[call_id(cls, values) for cls, values in INVALID])
def test_invalid_values_raise_value_error(cls, values):
    with pytest.raises(ValueError):
        cls(*values)


# a field value that is not an int, or is a bool, and the field it sits in
NOT_INT = [
    (Veronese, (4, 2.5), "d"),
    (Veronese, (4.0, 2), "n"),
    (Veronese, (True, 1), "n"),
    (MaxPower, (3, True), "s"),
    (MaxPower, (3, 2.0), "s"),
    (HatPower, (5, 2.0, 1), "t"),
    (HatPower, (5, 2, False), "s"),
    (GeneratedHatPower, ("5", 1, 1), "n"),
    (RationalFunctionSeries, (IntPolynomial((1,)), 1.0), "den_pow"),
    (RationalFunctionSeries, (IntPolynomial((1,)), True), "den_pow"),
]


@pytest.mark.parametrize("cls, values, field", NOT_INT,
                         ids=[call_id(cls, values) for cls, values, _ in NOT_INT])
def test_non_int_field_raises_type_error(cls, values, field):
    with pytest.raises(TypeError) as info:
        cls(*values)
    bad = values[cls.__slots__.index(field)]
    assert str(info.value) == (f"{cls.__name__} field {field} must be an int, "
                               f"not {type(bad).__name__}")


def test_canonicalize_rejects_a_float_power():
    # once the (1-T) factor cancels, the power would be left as 0.0
    with pytest.raises(TypeError, match="field den_pow must be an int"):
        canonicalize(IntPolynomial([1, -1]), 1.0)


@pytest.mark.parametrize("den_pow", [2.5, 0.0, True, False])
def test_canonicalize_refuses_a_non_int_power_of_zero(den_pow):
    # the zero numerator cancels nothing, yet the power is refused before
    # any work, with the record's message
    with pytest.raises(TypeError) as info:
        canonicalize(IntPolynomial(), den_pow)
    assert str(info.value) == (f"RationalFunctionSeries field den_pow must be an int, "
                               f"not {type(den_pow).__name__}")


def test_equality_needs_the_same_class():
    assert Veronese(3, 2) != MaxPower(3, 2)
    assert HatPower(4, 2, 2) != GeneratedHatPower(4, 2, 2)
    assert Veronese(3, 2) != (3, 2)
    assert Counterexample((1,), 2, 3) != Counterexample((1,), 2, 4)


def test_polynomial_trims_trailing_zeros():
    # trimmed before the field is set, so equality and hash never see them
    assert IntPolynomial(coefficients=[1, 0, 2, 0]).coefficients == (1, 0, 2)
    assert IntPolynomial(coefficients=[0, 0]) == IntPolynomial()
    assert hash(IntPolynomial((5, 0))) == hash(IntPolynomial((5,)))


def test_dataclass_style_repr():
    assert repr(Veronese(6, 2)) == "Veronese(n=6, d=2)"
    assert repr(HatPower(5, 2, 3)) == "HatPower(n=5, t=2, s=3)"
    assert repr(canonicalize(IntPolynomial((0, 1)), 1)) == (
        "RationalFunctionSeries(numer=IntPolynomial(coefficients=(0, 1)), den_pow=1)")
    rep = depth_report(MaxPower(3, 1))
    assert repr(rep).startswith("DepthReport(spec=MaxPower(n=3, s=1), series=")

