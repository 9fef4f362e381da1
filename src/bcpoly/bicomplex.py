"""Exact bicomplex and hyperbolic scalar arithmetic.

A bicomplex number carries two commuting imaginary units ``i`` and ``j``;
with ``k = i*j`` the idempotents ``e+ = (1 + k)/2`` and ``e- = (1 - k)/2``
split the algebra into two complex lines.  Every value here is stored by
its idempotent coordinates ``(alpha, beta)``, on which multiplication acts
componentwise.  The Cartesian pair ``(z1, z2)`` with ``Z = z1 + j*z2`` and
the unit-basis quadruple ``(1, i, j, k)`` are derived views:

    alpha = z1 - i*z2        z1 = (alpha + beta) / 2
    beta  = z1 + i*z2        z2 = i*(alpha - beta) / 2

All coefficients are Gaussian rationals (exact rational real and imaginary
parts), so every identity in this package is decided by exact equality.
The scalar operations run on the integer numerators and denominators of
the parts, one ``Fraction`` per part of the result, reduced once:

- a product of two Gaussian rationals, times an optional integer factor,
  is one numerator over the common denominator of the four parts;
- a sum or difference, division by an int or a ``Fraction``, the inverse,
  and the Cartesian views ``z1``, ``z2`` and ``from_cartesian`` (times i is
  a swap of parts) are each one numerator over a product of denominators;
- negation and conjugation negate a part.

Every printed number goes through one renderer, ``_number_text``, which
raises ``OutputLimitError`` for a number past Python's int-to-string digit
limit (``sys.get_int_max_str_digits()``); a ``repr`` shows such a number by
its bit length instead, so it never raises.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

__all__ = [
    "BicomplexError",
    "ArgumentError",
    "NullConeError",
    "OutputLimitError",
    "GaussianRational",
    "Hyperbolic",
    "Bicomplex",
    "DAGGER",
    "TILDE",
    "STAR",
    "CONJUGATION_KINDS",
    "ONE",
    "ZERO",
    "I",
    "J",
    "K",
    "E_PLUS",
    "E_MINUS",
]


class BicomplexError(Exception):
    """Base class for the domain errors raised by this package."""


class ArgumentError(BicomplexError, ValueError):
    """A public function called with an argument outside its domain, such
    as an unknown name or a negative count; a ``ValueError`` too."""


class NullConeError(BicomplexError, ZeroDivisionError):
    """Inversion of a zero divisor (a value with alpha*beta = 0)."""


class OutputLimitError(BicomplexError):
    """A number too long to print: more decimal digits than Python's
    int-to-string limit, ``sys.get_int_max_str_digits()``."""


RationalLike = Union[int, Fraction]

DAGGER = "dagger"  # negates the j-part: swaps idempotent coordinates
TILDE = "tilde"    # conjugates the complex coefficients: bar + swap
STAR = "star"      # both: bar on each idempotent coordinate
CONJUGATION_KINDS = (DAGGER, TILDE, STAR)


def _check_kind(kind: str) -> None:
    if kind not in CONJUGATION_KINDS:
        raise ArgumentError(f"unknown conjugation kind {kind!r}; expected one of {CONJUGATION_KINDS}")


def _number_text(num: int, den: int = 1) -> str:
    """The printed rational num/den (den > 0, in lowest terms): ``num`` when
    den is 1, else ``num/den``.  The one renderer of printed numbers."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past Python's int-to-string digit limit
        raise _output_limit_error() from None


def _output_limit_error() -> OutputLimitError:
    limit = sys.get_int_max_str_digits()
    return OutputLimitError(f"cannot print a number longer than the limit of {limit} digits")


def _int_repr(n: int) -> str:
    """``repr(n)``, or ``<b-bit int>`` (signed) past the digit limit."""
    try:
        return repr(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit int>"


def _fraction_repr(q: Fraction) -> str:
    """``repr(q)``, its parts through ``_int_repr``."""
    return f"Fraction({_int_repr(q.numerator)}, {_int_repr(q.denominator)})"


def _signed_unit_term(num: int, den: int, unit: str) -> str:
    """Render (num/den)*unit with num != 0, e.g. ``i``, ``-i``, ``3/2*k``."""
    if den == 1 and (num == 1 or num == -1):
        return unit if num == 1 else "-" + unit
    return f"{_number_text(num, den)}*{unit}"


def _rational_terms(parts, units) -> list[str]:
    """The printed terms of the nonzero rational ``parts``, each times its
    unit ("" for the real unit)."""
    terms = []
    for q, unit in zip(parts, units):
        num = q.numerator
        if num:
            den = q.denominator
            terms.append(_signed_unit_term(num, den, unit) if unit else _number_text(num, den))
    return terms


def _join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for term in terms[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def _in_lowest_terms(n: int, d: int) -> bool:
    """True when n/d is in lowest terms over a positive denominator, zero
    as 0/1: the check of every reader of printed numbers."""
    return d > 0 and gcd(n, d) == 1


def _ints_from_strings(num: str, den: str, path: str, part: str) -> tuple[int, int]:
    """The integers of the fraction num/den of two decimal strings
    (``-?[0-9]+``, ASCII digits only), in lowest terms over a positive
    denominator; errors name ``path + part``."""
    try:
        # on text of ASCII digits and minus signs, int() takes exactly
        # -?[0-9]+: the spaces, underscores, plus signs and other digits it
        # also takes are refused here
        digits = num + den
        if not (digits.isascii() and digits.replace("-", "").isdigit()):
            raise ValueError
        n, d = int(num), int(den)
    except (TypeError, ValueError, AttributeError):  # not two str, not decimal, or past the digit limit
        raise BicomplexError(f"{path}{part}: numerator/denominator must be decimal integer strings")
    if d <= 0:
        raise BicomplexError(f"{path}{part}: denominator must be positive")
    if not _in_lowest_terms(n, d):
        raise BicomplexError(f"{path}{part}: fraction {n}/{d} is not in lowest terms")
    return n, d


def _parts_from_json(data, path: str) -> tuple[int, int, int, int]:
    """The parts (re_num, re_den, im_num, im_den) of a coefficient's JSON
    form, four decimal strings; errors name ``path``."""
    if not isinstance(data, (list, tuple)) or len(data) != 4:
        raise BicomplexError(f"{path}: expected an array of 4 integer strings")
    return (*_ints_from_strings(data[0], data[1], path, "[0:2]"), *_ints_from_strings(data[2], data[3], path, "[2:4]"))


_FRACTION_ZERO = Fraction(0)


def _sum(p: Fraction, q: Fraction, sign: int = 1, k: int = 1) -> Fraction:
    """(p + sign*q)/k for a sign of 1 or -1 and a nonzero int k, as one
    numerator over the product of the denominators, reduced once by
    ``Fraction``."""
    pd, qd = p.denominator, q.denominator
    return Fraction(p.numerator * qd + sign * q.numerator * pd, pd * qd * k)


class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        out = _operand(value)
        if out is NotImplemented:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re.numerator and not self.im.numerator

    def is_real(self) -> bool:
        return self.im == 0

    def norm2(self) -> Fraction:
        """The squared modulus re^2 + im^2 (an exact rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        # 1/(a/b + c/d*i) = (a*b*d^2 - c*d*b^2*i) / (a^2*d^2 + c^2*b^2)
        re, im = self.re, self.im
        a, b, c, d = re.numerator, re.denominator, im.numerator, im.denominator
        ad, cb = a * d, c * b
        n = ad * ad + cb * cb
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(Fraction(ad * b * d, n), Fraction(-cb * b * d, n))

    # Each operator takes an int, a Fraction or a GaussianRational and leaves
    # any other operand type to that operand's reflected method.

    def __add__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        return GaussianRational(_sum(self.re, other.re), _sum(self.im, other.im))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        return GaussianRational(_sum(self.re, other.re, -1), _sum(self.im, other.im, -1))

    def __rsub__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        c, d = other.re, other.im
        return self._times(c.numerator, c.denominator, d.numerator, d.denominator, 1)

    __rmul__ = __mul__

    def _times(self, cn: int, cd: int, dn: int, dd: int, k: int) -> "GaussianRational":
        """k*(a + b*i)(c + d*i) for an int k and c = cn/cd, d = dn/dd in
        lowest terms, on the integer numerators and denominators of the four
        parts: each part of the product is one numerator over the common
        denominator ad*bd*cd*dd, reduced once by ``Fraction``."""
        a, b = self.re, self.im
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        den = ad * bd * cd * dd
        p, q = an * cn, bn * dn
        re = Fraction((p * bd * dd - q * ad * cd) * k, den) if p or q else _FRACTION_ZERO
        p, q = an * dn, bn * cn
        im = Fraction((p * bd * cd + q * ad * dd) * k, den) if p or q else _FRACTION_ZERO
        return GaussianRational(re, im)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):  # a rational p/q divides each part
            p, q = other.numerator, other.denominator
            if not p:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            re, im = self.re, self.im
            return GaussianRational(Fraction(re.numerator * q, re.denominator * p), Fraction(im.numerator * q, im.denominator * p))
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        return self * other.inverse()

    def __rtruediv__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # (p + q*i)^e over d^e, d the parts' common denominator, reduced once
        re, im = self.re, self.im
        d = lcm(re.denominator, im.denominator)
        x, y = _gaussian_power(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), exponent)
        den = d ** exponent
        return GaussianRational(Fraction(x, den), Fraction(y, den))

    def __eq__(self, other):
        if type(other) is GaussianRational:
            # parts are in lowest terms, so equal parts have equal integers
            a, b, c, d = self.re, self.im, other.re, other.im
            return (
                a.numerator == c.numerator and b.numerator == d.numerator
                and a.denominator == c.denominator and b.denominator == d.denominator
            )
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real value equals its real part, so it hashes like it
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return _join_terms(_rational_terms((self.re, self.im), ("", "i")))

    def __repr__(self):
        return f"GaussianRational({_fraction_repr(self.re)}, {_fraction_repr(self.im)})"

    def to_json(self) -> list[str]:
        """Four decimal strings: [re_num, re_den, im_num, im_den]."""
        re, im = self.re, self.im
        return [_number_text(re.numerator), _number_text(re.denominator),
                _number_text(im.numerator), _number_text(im.denominator)]

    @classmethod
    def from_json(cls, data, path: str = "coeff") -> "GaussianRational":
        re_num, re_den, im_num, im_den = _parts_from_json(data, path)
        return cls(Fraction(re_num, re_den), Fraction(im_num, im_den))


def _gaussian_power(p: int, q: int, exponent: int) -> tuple[int, int]:
    """(p + q*i)^exponent for ints p, q and exponent >= 0, by repeated squaring."""
    x, y = 1, 0
    while exponent:
        if exponent & 1:
            x, y = x * p - y * q, x * q + y * p
        exponent >>= 1
        if exponent:
            p, q = p * p - q * q, 2 * p * q
    return x, y


def _operand(value):
    """``value`` as a Gaussian rational when it is an int, a Fraction or one
    already; NotImplemented for any other type."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


GR_I = GaussianRational(0, 1)


@dataclass(frozen=True)
class Hyperbolic:
    """A hyperbolic number x_plus*e+ + x_minus*e- with rational coordinates.

    Equivalently x + y*k with x = (x_plus + x_minus)/2, y = (x_plus - x_minus)/2.
    """

    x_plus: Fraction
    x_minus: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x_plus", Fraction(self.x_plus))
        object.__setattr__(self, "x_minus", Fraction(self.x_minus))

    @classmethod
    def from_xy(cls, x: RationalLike, y: RationalLike) -> "Hyperbolic":
        x, y = Fraction(x), Fraction(y)
        return cls(x + y, x - y)

    @property
    def x(self) -> Fraction:
        return (self.x_plus + self.x_minus) / 2

    @property
    def y(self) -> Fraction:
        return (self.x_plus - self.x_minus) / 2

    def is_zero(self) -> bool:
        return self.x_plus == 0 and self.x_minus == 0

    def to_bicomplex(self) -> "Bicomplex":
        return Bicomplex(GaussianRational(self.x_plus), GaussianRational(self.x_minus))

    def __eq__(self, other):
        # compare as a bicomplex value, so that equality with Bicomplex,
        # GaussianRational, int and Fraction values is transitive
        try:
            other = Bicomplex.coerce(other)
        except TypeError:
            return NotImplemented
        return self.to_bicomplex() == other

    def __hash__(self):
        # a Bicomplex compares equal to it, so it hashes like one
        return hash(self.to_bicomplex())

    def __str__(self):
        return str(self.to_bicomplex())

    def __repr__(self):
        return f"Hyperbolic(x_plus={_fraction_repr(self.x_plus)}, x_minus={_fraction_repr(self.x_minus)})"


class Bicomplex:
    """A bicomplex number stored by its idempotent coordinates (alpha, beta)."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha=0, beta=0):
        self.alpha = alpha if type(alpha) is GaussianRational else GaussianRational.coerce(alpha)
        self.beta = beta if type(beta) is GaussianRational else GaussianRational.coerce(beta)

    @classmethod
    def from_cartesian(cls, z1, z2) -> "Bicomplex":
        # alpha = z1 - i*z2 and beta = z1 + i*z2, with i*z2 = -z2.im + z2.re*i
        z1 = GaussianRational.coerce(z1)
        z2 = GaussianRational.coerce(z2)
        a, b, c, d = z1.re, z1.im, z2.re, z2.im
        return cls(GaussianRational(_sum(a, d), _sum(b, c, -1)), GaussianRational(_sum(a, d, -1), _sum(b, c)))

    @classmethod
    def from_units(cls, a, b=0, c=0, d=0) -> "Bicomplex":
        """Build a + b*i + c*j + d*k from rational unit-basis coordinates."""
        return cls.from_cartesian(GaussianRational(a, b), GaussianRational(c, d))

    @property
    def z1(self) -> GaussianRational:
        """(alpha + beta)/2."""
        alpha, beta = self.alpha, self.beta
        return GaussianRational(_sum(alpha.re, beta.re, 1, 2), _sum(alpha.im, beta.im, 1, 2))

    @property
    def z2(self) -> GaussianRational:
        """i*(alpha - beta)/2, the i a swap of parts."""
        alpha, beta = self.alpha, self.beta
        return GaussianRational(_sum(beta.im, alpha.im, -1, 2), _sum(alpha.re, beta.re, -1, 2))

    def units(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        z1, z2 = self.z1, self.z2
        return (z1.re, z1.im, z2.re, z2.im)

    # ring operations: everything acts componentwise on (alpha, beta)

    def __add__(self, other):
        other = Bicomplex.coerce(other)
        return Bicomplex(self.alpha + other.alpha, self.beta + other.beta)

    __radd__ = __add__

    def __sub__(self, other):
        other = Bicomplex.coerce(other)
        return Bicomplex(self.alpha - other.alpha, self.beta - other.beta)

    def __rsub__(self, other):
        return Bicomplex.coerce(other) - self

    def __neg__(self):
        return Bicomplex(-self.alpha, -self.beta)

    def __mul__(self, other):
        other = Bicomplex.coerce(other)
        return Bicomplex(self.alpha * other.alpha, self.beta * other.beta)

    __rmul__ = __mul__

    def __truediv__(self, divisor):
        """Scalar division by a nonzero rational."""
        if not isinstance(divisor, (int, Fraction)):
            raise TypeError("bicomplex division is only defined by rational scalars")
        if divisor == 0:
            raise ZeroDivisionError("division of a bicomplex number by zero")
        return Bicomplex(self.alpha / divisor, self.beta / divisor)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.invert() ** (-exponent)
        return Bicomplex(self.alpha ** exponent, self.beta ** exponent)

    @classmethod
    def coerce(cls, value) -> "Bicomplex":
        if isinstance(value, Bicomplex):
            return value
        if isinstance(value, Hyperbolic):
            return value.to_bicomplex()
        if isinstance(value, (int, Fraction, GaussianRational)):
            g = GaussianRational.coerce(value)
            return cls(g, g)
        raise TypeError(f"cannot interpret {value!r} as a bicomplex number")

    def conjugate(self, kind: str) -> "Bicomplex":
        """One of the three conjugations: dagger swaps (alpha, beta), star bars
        both coordinates, tilde does both."""
        _check_kind(kind)
        if kind == DAGGER:
            return Bicomplex(self.beta, self.alpha)
        if kind == STAR:
            return Bicomplex(self.alpha.conjugate(), self.beta.conjugate())
        return Bicomplex(self.beta.conjugate(), self.alpha.conjugate())

    def det(self) -> GaussianRational:
        """z1^2 + z2^2, the determinant of the 2x2 matrix view; equals alpha*beta."""
        z1, z2 = self.z1, self.z2
        return z1 * z1 + z2 * z2

    def is_null_cone(self) -> bool:
        return self.alpha.is_zero() or self.beta.is_zero()

    def invert(self) -> "Bicomplex":
        if self.is_null_cone():
            raise NullConeError("value lies on the null cone (alpha*beta = 0) and is not invertible")
        return Bicomplex(self.alpha.inverse(), self.beta.inverse())

    def real_part(self) -> Fraction:
        """The classical real part (Z + Z^dagger + Z~ + Z^*)/4 = (Re alpha + Re beta)/2."""
        return (self.alpha.re + self.beta.re) / 2

    def hyperbolic_part(self) -> Hyperbolic:
        """The hyperbolic real part (Z + Z^*)/2, with coordinates (Re alpha, Re beta)."""
        return Hyperbolic(self.alpha.re, self.beta.re)

    def real_parts(self) -> tuple[Fraction, Hyperbolic]:
        return self.real_part(), self.hyperbolic_part()

    def is_real(self) -> bool:
        return self.alpha == self.beta and self.alpha.is_real()

    def is_hyperbolic(self) -> bool:
        return self.alpha.is_real() and self.beta.is_real()

    def is_idempotent(self) -> bool:
        return self.alpha * self.alpha == self.alpha and self.beta * self.beta == self.beta

    def predicates(self) -> dict[str, bool]:
        return {
            "is_real": self.is_real(),
            "is_hyperbolic": self.is_hyperbolic(),
            "is_null_cone": self.is_null_cone(),
            "is_idempotent": self.is_idempotent(),
        }

    def is_zero(self) -> bool:
        return self.alpha.is_zero() and self.beta.is_zero()

    def __eq__(self, other):
        if type(other) is not Bicomplex:
            try:
                other = Bicomplex.coerce(other)
            except TypeError:
                return NotImplemented
        return self.alpha == other.alpha and self.beta == other.beta

    def __hash__(self):
        # a value with alpha == beta equals the scalar alpha, so it hashes like it
        return hash(self.alpha) if self.alpha == self.beta else hash((self.alpha, self.beta))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return _join_terms(_rational_terms(self.units(), ("", "i", "j", "k")))

    def __repr__(self):
        return f"Bicomplex({self.alpha!r}, {self.beta!r})"

    def to_json(self) -> list[str]:
        """Eight decimal strings covering alpha then beta, each as 4-string rationals."""
        return self.alpha.to_json() + self.beta.to_json()

    @classmethod
    def from_json(cls, data, path: str = "bicomplex") -> "Bicomplex":
        if not isinstance(data, (list, tuple)) or len(data) != 8:
            raise BicomplexError(f"{path}: expected an array of 8 integer strings")
        alpha = GaussianRational.from_json(data[:4], f"{path}[0:4]")
        beta = GaussianRational.from_json(data[4:], f"{path}[4:8]")
        return cls(alpha, beta)


ZERO = Bicomplex(0, 0)
ONE = Bicomplex(1, 1)
I = Bicomplex(GR_I, GR_I)
J = Bicomplex(GaussianRational(0, -1), GR_I)
K = Bicomplex(1, -1)
E_PLUS = Bicomplex(1, 0)
E_MINUS = Bicomplex(0, 1)
