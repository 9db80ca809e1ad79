"""Exact field arithmetic: prime fields GF(p) and arbitrary-precision rationals.

Field elements are plain Python values in canonical form: residues in
``range(p)`` (ints) for GF(p) and ``fractions.Fraction`` (always reduced, with
positive denominator) for Q.  The field object carries the arithmetic.  Using
unboxed values keeps the exhaustive-search kernels fast; cross-field mixing is
checked at the matrix/tensor level, where it can actually occur.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Iterator, Union

from .errors import BadParamsError, DivisionByZeroError, InfiniteFieldError, ResourceGuardError, shown

Elem = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin, exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Abstract base for exact fields."""

    def zero(self) -> Elem:
        raise NotImplementedError

    def one(self) -> Elem:
        raise NotImplementedError

    def normalize(self, x) -> Elem:
        raise NotImplementedError

    def add(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def sub(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def mul(self, a: Elem, b: Elem) -> Elem:
        raise NotImplementedError

    def neg(self, a: Elem) -> Elem:
        raise NotImplementedError

    def inv(self, a: Elem) -> Elem:
        raise NotImplementedError

    def div(self, a: Elem, b: Elem) -> Elem:
        if self.is_zero(b):
            raise DivisionByZeroError("division by zero field element")
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Elem) -> bool:
        raise NotImplementedError

    def size(self):
        """Number of elements; None is the infinite marker (rationals)."""
        raise NotImplementedError

    def elements(self) -> Iterator[Elem]:
        """Yield all field elements in canonical order."""
        raise NotImplementedError

    @property
    def tag(self) -> str:
        raise NotImplementedError


class PrimeField(Field):
    """GF(p) for prime p, elements stored as residues in range(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p < 2**31):
            raise BadParamsError(f"prime field modulus out of range: {shown(p)}")
        if not is_prime(p):
            raise BadParamsError(f"{p} is not prime")
        self.p = p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def normalize(self, x) -> int:
        return int(x) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DivisionByZeroError("inverse of zero in GF(%d)" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def size(self) -> int:
        return self.p

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    @property
    def tag(self) -> str:
        return f"gf:{self.p}"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("gf", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class RationalField(Field):
    """The rationals with arbitrary-precision Fraction values."""

    __slots__ = ()

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def normalize(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise DivisionByZeroError("inverse of zero in Q")
        return Fraction(1) / a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def size(self) -> None:
        return None

    def elements(self) -> Iterator[Fraction]:
        raise InfiniteFieldError("cannot enumerate the rationals")

    @property
    def tag(self) -> str:
        return "q"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("q")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def parse_field(tag: str) -> Field:
    """Parse a field tag: 'gf:<p>' or 'q'."""
    tag = tag.strip().lower()
    if tag == "q":
        return QQ
    if tag.startswith("gf:"):
        try:
            p = int(tag[3:])
        except ValueError as exc:
            raise BadParamsError(f"bad field tag {shown(tag)}") from exc
        return PrimeField(p)
    raise BadParamsError(f"bad field tag {shown(tag)} (expected 'gf:<p>' or 'q')")


def parse_value(field: Field, text: str) -> Elem:
    """Parse one scalar in file syntax: integer, or 'num/den' over Q."""
    text = text.strip()
    if isinstance(field, PrimeField):
        try:
            return field.normalize(int(text))
        except ValueError as exc:
            raise BadParamsError(f"bad GF value {shown(text)}") from exc
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise BadParamsError(f"bad rational value {shown(text)}") from exc


def format_value(value: Elem) -> str:
    """Serialize one scalar in file syntax.  A numerator or denominator of
    more digits than `int` converts (sys.get_int_max_str_digits(), 4,300 by
    default) is refused with ResourceGuardError: no parser could read it back."""
    try:
        return str(value)  # a Fraction prints as 'num/den', or as 'num' when den = 1
    except ValueError as exc:
        digits = sys.get_int_max_str_digits()
        raise ResourceGuardError(f"a value of more than {digits} digits cannot be written") from exc
