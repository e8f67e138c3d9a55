"""Exact integer arithmetic: generalized binomial coefficients, dense
integer polynomials in one formal variable T, and the Record value base.

Python ints carry the arbitrary-precision load; values such as C(128, 64)
are exact.  IntPolynomial is a Record whose one field, coefficients, is
stored lowest degree first with trailing zeros trimmed, so polynomials are
immutable and compare, hash and print structurally like every record.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from operator import attrgetter
from typing import Iterable

__all__ = [
    "binomial",
    "IntPolynomial",
    "Record",
]


def _require_ints(owner: str, **values: object) -> None:
    """Raise TypeError naming the first of the keyword values that is not an
    int, or is a bool, as "<owner> <name> must be an int, not <type>", so
    that no float or flag computes: a record's fields, owner "<Class>
    field", and the arguments of canonicalize and of both sweeps."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{owner} {name} must be an int, not {type(value).__name__}")


class Record:
    """Immutable value whose fields are its class's __slots__; plain code, so
    importing it costs nothing.  __init__ takes every field, by position or
    keyword (else TypeError), then runs __post_init__, where _require_ints
    refuses a field that must be an int and is not.  Equality needs the
    same class; hash and repr Name(field=value, ...) follow the fields.
    Equality and hash read the class and the fields as one tuple, _key,
    one C call per record.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # the class leads, so a class without fields gets a getter too
        cls._key = attrgetter("__class__", *cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__qualname__} takes the fields {names}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable")

    __delattr__ = __setattr__  # deletion is refused the same way

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


@cache
def binomial(a: int, b: int) -> int:
    """Generalized binomial coefficient C(a, b) = a(a-1)...(a-b+1) / b!.

    The upper argument may be any integer; the lower must be >= 0.  For
    a >= 0 and b > a the value is 0, and C(a, 0) = 1 for every a.
    Negative upper arguments follow the falling-factorial definition,
    equivalently C(-a, b) = (-1)^b C(a+b-1, b) for a >= 1.
    """
    if b < 0:
        raise ValueError("lower binomial argument must be non-negative")
    if a >= 0:
        return math.comb(a, b)
    value = math.comb(b - a - 1, b)
    return -value if b % 2 else value


class IntPolynomial(Record):
    """Dense integer-coefficient polynomial in one formal variable T, its
    one field the coefficients lowest degree first.

    Its own __init__ trims trailing zeros and lets the field default to no
    coefficients: IntPolynomial() is the zero polynomial, of degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        cs = list(coefficients)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coefficients", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def eval_at_one(self) -> int:
        """Value at T = 1, i.e. the sum of all coefficients."""
        return sum(self.coefficients)

    def divide_one_minus_t(self) -> IntPolynomial:
        """Exact quotient by (1 - T); requires eval_at_one() == 0.

        With p = (1 - T) q the quotient coefficients are the running
        prefix sums of p's coefficients.
        """
        if self.is_zero():
            return self
        if self.eval_at_one() != 0:
            raise ValueError("polynomial is not divisible by (1 - T)")
        return IntPolynomial(accumulate(self.coefficients[:-1]))

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __mul__(self, other: IntPolynomial | int) -> IntPolynomial:
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coefficients))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exp, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if exp == 0:
                parts.append(str(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                term = f"{mag}T" if exp == 1 else f"{mag}T^{exp}"
                parts.append(f"{sign}{term}" if not parts else f"{'- ' if c < 0 else '+ '}{term}")
        # signs are already embedded in the terms after the first
        return " ".join(parts)

