"""Sparse polynomial bicomplex-valued functions in the idempotent variables.

A function f maps the bicomplex plane to itself and is stored as the pair
(f_plus, f_minus) with f = f_plus*e+ + f_minus*e-.  Each component is a
sparse polynomial in the four variables

    index 0: alpha    index 1: conj(alpha)    index 2: beta    index 3: conj(beta)

with Gaussian-rational coefficients.  Conjugations, real parts, evaluation
and differentiation all act componentwise in this basis, which is what makes
every operator in :mod:`bcpoly.operators` diagonal.

Functions and operators share one pair type, ``_Pair``: the checked
constructor, type-exact equality and hash, the componentwise ring operations
and one conjugation rule (dagger swaps the components, star bars both, tilde
does both).  Each subclass adds only its scalars and its action.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, perm
from typing import Iterable, Optional

from .bicomplex import Bicomplex, BicomplexError, GaussianRational
from .bicomplex import DAGGER, STAR, TILDE, _check_kind

__all__ = ["Poly4", "BicomplexFunction", "EvalLimitError", "MAX_EVAL_BITS", "NVARS", "PAIR_ALPHA", "PAIR_BETA"]

NVARS = 4
Monomial = tuple[int, int, int, int]

PAIR_ALPHA = (0, 1)
PAIR_BETA = (2, 3)

_ZERO_MONO: Monomial = (0, 0, 0, 0)

# Evaluating a component raises each coordinate to the top exponent e of its
# variable, so its numbers reach about the sum over the four variables of e*b
# bits, b the longest numerator or denominator of the coordinate.  Past this
# many bits evaluation is refused before any power is built, which also bounds
# the power tables (e*e*b bits) and the final gcd.  At the limit one
# evaluation takes about 0.05 s; the benchmark needs at most 140 bits and the
# tests 105.
MAX_EVAL_BITS = 4096


class EvalLimitError(BicomplexError):
    """An evaluation whose numbers would exceed ``MAX_EVAL_BITS`` bits."""


def _as_monomial(key) -> Monomial:
    key = tuple(key)
    if len(key) != NVARS or any((not isinstance(e, int)) or e < 0 for e in key):
        raise ValueError(f"monomial key must be 4 nonnegative integers, got {key!r}")
    return key  # type: ignore[return-value]


# Integer kernels.  Multiply, power and evaluate run on an integer form: the
# numerators of the coefficients as Gaussian-integer pairs over one common
# positive denominator, ``({monomial: (re_num, im_num)}, den)``, the layout of
# FLINT's fmpq_poly.  Kernels never store a zero pair, and a key that
# cancels to zero and reappears moves to the end, so the terms of a result
# come in the order of the GaussianRational loops they replace.


def _integer_form(terms: dict) -> tuple[dict, int]:
    """Numerators over ``den``, the lcm of the coefficient denominators."""
    den = 1
    for c in terms.values():
        den = lcm(den, c.re.denominator, c.im.denominator)
    return {
        key: (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for key, c in terms.items()
    }, den


def _from_integer_form(nums: dict, den: int) -> dict:
    """The ``{monomial: GaussianRational}`` terms of an integer form."""
    return {key: GaussianRational(Fraction(re, den), Fraction(im, den)) for key, (re, im) in nums.items()}


def _mul_nums(a: dict, b: dict) -> dict:
    """Product of two numerator dicts (the denominators multiply)."""
    out: dict = {}
    get = out.get
    for (a0, a1, a2, a3), (ar, ai) in a.items():
        for (b0, b1, b2, b3), (br, bi) in b.items():
            key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            re = ar * br - ai * bi
            im = ar * bi + ai * br
            acc = get(key)
            if acc is not None:
                re += acc[0]
                im += acc[1]
                if not (re or im):
                    del out[key]
                    continue
            out[key] = (re, im)
    return out


def _pow_form(nums: dict, den: int, exponent: int, mul=_mul_nums) -> tuple[dict, int]:
    """An integer form raised to a nonnegative power by repeated squaring;
    ``mul`` multiplies two numerator dicts."""
    out: dict = {_ZERO_MONO: (1, 0)}
    out_den = 1
    while exponent:
        if exponent & 1:
            out = mul(out, nums)
            out_den *= den
        if exponent > 1:
            nums = mul(nums, nums)
            den *= den
        exponent >>= 1
    return out, out_den


def _power_table(value: GaussianRational, top: int) -> tuple[list, int]:
    """Gaussian integers ``value^e * d^(top - e)`` for e = 0..top, and d^top,
    with d the common denominator of ``value``: every entry is over d^top."""
    re, im = value.re, value.im
    d = lcm(re.denominator, im.denominator)
    p, q = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
    powers, d_powers = [(1, 0)], [1]
    for _ in range(top):
        x, y = powers[-1]
        powers.append((x * p - y * q, x * q + y * p))
        d_powers.append(d_powers[-1] * d)
    return [(x * d_powers[top - e], y * d_powers[top - e]) for e, (x, y) in enumerate(powers)], d_powers[top]


class Poly4:
    """A sparse polynomial in (alpha, conj alpha, beta, conj beta).

    Immutable by convention: no method mutates ``terms`` after construction,
    and no zero coefficient is ever stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        clean: dict[Monomial, GaussianRational] = {}
        if terms:
            for key, coeff in terms.items():
                coeff = GaussianRational.coerce(coeff)
                if not coeff.is_zero():
                    clean[_as_monomial(key)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict) -> "Poly4":
        # internal fast path: caller guarantees clean keys and no zeros
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "Poly4":
        return cls._raw({})

    @classmethod
    def constant(cls, coeff) -> "Poly4":
        coeff = GaussianRational.coerce(coeff)
        return cls._raw({} if coeff.is_zero() else {_ZERO_MONO: coeff})

    @classmethod
    def monomial(cls, key, coeff=1) -> "Poly4":
        coeff = GaussianRational.coerce(coeff)
        return cls._raw({} if coeff.is_zero() else {_as_monomial(key): coeff})

    @classmethod
    def variable(cls, index: int) -> "Poly4":
        key = [0, 0, 0, 0]
        key[index] = 1
        return cls.monomial(tuple(key))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly4):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Poly4") -> "Poly4":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            total = coeff if acc is None else acc + coeff
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
        return Poly4._raw(out)

    def __neg__(self) -> "Poly4":
        return Poly4._raw({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other: "Poly4") -> "Poly4":
        return self + (-other)

    def __mul__(self, other: "Poly4") -> "Poly4":
        a, a_den = _integer_form(self.terms)
        b, b_den = _integer_form(other.terms)
        return Poly4._raw(_from_integer_form(_mul_nums(a, b), a_den * b_den))

    def __pow__(self, exponent: int) -> "Poly4":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        return Poly4._raw(_from_integer_form(*_pow_form(*_integer_form(self.terms), exponent)))

    def scale(self, coeff) -> "Poly4":
        coeff = GaussianRational.coerce(coeff)
        if coeff.is_zero():
            return Poly4.zero()
        return Poly4._raw({key: c * coeff for key, c in self.terms.items()})

    def bar(self) -> "Poly4":
        """Pointwise complex conjugate: conjugate every coefficient and swap
        each variable with its conjugate partner (0<->1, 2<->3)."""
        return Poly4._raw(
            {(b, a, d, c): coeff.conjugate() for (a, b, c, d), coeff in self.terms.items()}
        )

    def is_bar_fixed(self) -> bool:
        """True when the polynomial is real-valued at every point."""
        for (a, b, c, d), coeff in self.terms.items():
            partner = self.terms.get((b, a, d, c))
            if partner is None or partner != coeff.conjugate():
                return False
        return True

    def derive(self, op: "Poly4") -> "Poly4":
        """The image under ``op``, read as a constant-coefficient polynomial
        in the derivatives d/d(var): each op term c*d^κ sends each term
        a*x^e with every e_i >= κ_i to a*c*∏perm(e_i, κ_i) * x^(e-κ).

        One pass over the (op term, term) pairs into one dict; a key that
        cancels is deleted, so the terms come in the order of summing the
        op terms' images one after another with ``+``.
        """
        out: dict[Monomial, GaussianRational] = {}
        get = out.get
        terms = self.terms.items()
        for (k0, k1, k2, k3), c in op.terms.items():
            for (e0, e1, e2, e3), coeff in terms:
                if e0 < k0 or e1 < k1 or e2 < k2 or e3 < k3:
                    continue
                key = (e0 - k0, e1 - k1, e2 - k2, e3 - k3)
                factor = perm(e0, k0) * perm(e1, k1) * perm(e2, k2) * perm(e3, k3)
                term = coeff * GaussianRational(c.re * factor, c.im * factor)
                acc = get(key)
                if acc is not None:
                    term = acc + term
                    if term.is_zero():
                        del out[key]
                        continue
                out[key] = term
        return Poly4._raw(out)

    def diff(self, var: int, times: int = 1) -> "Poly4":
        if times < 0:
            raise ValueError("cannot differentiate a negative number of times")
        if times == 0:
            return self
        kappa = [0, 0, 0, 0]
        kappa[var] = times
        return self.derive(Poly4.monomial(kappa))

    def substitute(self, values: tuple) -> GaussianRational:
        values = tuple(GaussianRational.coerce(v) for v in values)
        nums, den = _integer_form(self.terms)
        tops = [max((key[var] for key in nums), default=0) for var in range(NVARS)]
        bits = [
            max(n.bit_length() for n in (v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator))
            for v in values
        ]
        if sum(top * b for top, b in zip(tops, bits)) > MAX_EVAL_BITS:
            raise EvalLimitError(f"evaluation needs numbers of more than the limit of {MAX_EVAL_BITS} bits")
        tables = []
        for value, top in zip(values, tops):
            table, scale = _power_table(value, top)
            tables.append(table)
            den *= scale
        t0, t1, t2, t3 = tables
        total_re = total_im = 0
        for (e0, e1, e2, e3), (re, im) in nums.items():
            for x, y in (t0[e0], t1[e1], t2[e2], t3[e3]):
                re, im = re * x - im * y, re * y + im * x
            total_re += re
            total_im += im
        return GaussianRational(Fraction(total_re, den), Fraction(total_im, den))

    def degree(self, var: int) -> Optional[int]:
        """Max exponent of one variable; ``None`` for the zero polynomial."""
        if not self.terms:
            return None
        return max(key[var] for key in self.terms)

    def degrees(self) -> tuple[Optional[int], Optional[int], Optional[int], Optional[int]]:
        if not self.terms:
            return (None, None, None, None)
        return tuple(max(key[var] for key in self.terms) for var in range(NVARS))  # type: ignore

    def total_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(sum(key) for key in self.terms)

    def uses_only(self, variables: Iterable[int]) -> bool:
        allowed = set(variables)
        return all(
            all(e == 0 for var, e in enumerate(key) if var not in allowed)
            for key in self.terms
        )

    def group_by(self, positions: tuple[int, ...]) -> dict[tuple[int, ...], "Poly4"]:
        """Split into coefficient polynomials keyed by the exponents at
        ``positions`` (which are zeroed out in the returned values)."""
        groups: dict[tuple[int, ...], dict[Monomial, GaussianRational]] = {}
        for key, coeff in self.terms.items():
            index = tuple(key[p] for p in positions)
            residual = list(key)
            for p in positions:
                residual[p] = 0
            groups.setdefault(index, {})[tuple(residual)] = coeff
        return {index: Poly4._raw(terms) for index, terms in groups.items()}

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __repr__(self):
        return f"Poly4({dict(self.sorted_terms())!r})"


class _Pair:
    """A (plus, minus) pair of ``Poly4``; equality is type-exact, so a
    function never equals an operator with the same components."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Poly4, minus: Poly4):
        if not isinstance(plus, Poly4) or not isinstance(minus, Poly4):
            raise TypeError(f"{type(self).__name__} components must be Poly4 instances")
        self.plus = plus
        self.minus = minus

    def is_zero(self) -> bool:
        return self.plus.is_zero() and self.minus.is_zero()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self):
        return hash((self.plus, self.minus))

    def __add__(self, other):
        return type(self)(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        return type(self)(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self):
        return type(self)(-self.plus, -self.minus)

    def __pow__(self, exponent: int):
        return type(self)(self.plus ** exponent, self.minus ** exponent)

    def _mul(self, other):
        return type(self)(self.plus * other.plus, self.minus * other.minus)

    def _conj(self, kind: str):
        """Conjugation of a pair by the value kind: dagger swaps the
        components, star bars both, tilde does both."""
        if kind == DAGGER:
            return type(self)(self.minus, self.plus)
        if kind == STAR:
            return type(self)(self.plus.bar(), self.minus.bar())
        return type(self)(self.minus.bar(), self.plus.bar())

    def __repr__(self):
        return f"{type(self).__name__}({self.plus!r}, {self.minus!r})"


# component polynomials of the coordinate functions, as (plus, minus) pairs:
#   Z      -> (alpha, beta)            Z^dagger -> (beta, alpha)
#   Z^*    -> (conj a, conj b)         Z~       -> (conj b, conj a)
_COMPONENTS_Z = (Poly4.variable(0), Poly4.variable(2))
_COMPONENTS_ZD = (Poly4.variable(2), Poly4.variable(0))
_COMPONENTS_ZS = (Poly4.variable(1), Poly4.variable(3))
_COMPONENTS_ZT = (Poly4.variable(3), Poly4.variable(1))


class BicomplexFunction(_Pair):
    """A polynomial map of the bicomplex plane, stored componentwise."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "BicomplexFunction":
        return cls(Poly4.zero(), Poly4.zero())

    @classmethod
    def constant(cls, value) -> "BicomplexFunction":
        value = Bicomplex.coerce(value)
        return cls(Poly4.constant(value.alpha), Poly4.constant(value.beta))

    @classmethod
    def from_shared(cls, poly: Poly4) -> "BicomplexFunction":
        """The function whose both components are the same polynomial."""
        return cls(poly, poly)

    @classmethod
    def variable(cls) -> "BicomplexFunction":
        """The identity function Z."""
        return cls(*_COMPONENTS_Z)

    @classmethod
    def variable_dagger(cls) -> "BicomplexFunction":
        return cls(*_COMPONENTS_ZD)

    @classmethod
    def variable_star(cls) -> "BicomplexFunction":
        return cls(*_COMPONENTS_ZS)

    @classmethod
    def variable_tilde(cls) -> "BicomplexFunction":
        return cls(*_COMPONENTS_ZT)

    def __bool__(self):
        return not self.is_zero()

    def __mul__(self, other) -> "BicomplexFunction":
        if isinstance(other, BicomplexFunction):
            return self._mul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __truediv__(self, divisor):
        if not isinstance(divisor, (int, Fraction)):
            raise TypeError("function division is only defined by rational scalars")
        if divisor == 0:
            raise ZeroDivisionError("division of a function by zero")
        q = Fraction(1, 1) / divisor
        return BicomplexFunction(self.plus.scale(q), self.minus.scale(q))

    def scale(self, value) -> "BicomplexFunction":
        """Multiply by a bicomplex scalar: alpha-part on plus, beta-part on minus."""
        value = Bicomplex.coerce(value)
        return BicomplexFunction(self.plus.scale(value.alpha), self.minus.scale(value.beta))

    def conjugate(self, kind: str) -> "BicomplexFunction":
        """Pointwise conjugation of values: for every Z the conjugated function
        evaluates to ``conjugate(f(Z), kind)``."""
        _check_kind(kind)
        return self._conj(kind)

    def evaluate(self, point) -> Bicomplex:
        point = Bicomplex.coerce(point)
        values = (point.alpha, point.alpha.conjugate(), point.beta, point.beta.conjugate())
        return Bicomplex(self.plus.substitute(values), self.minus.substitute(values))

    def hyperbolic_part(self) -> "BicomplexFunction":
        """(f + f^*)/2 -- hyperbolic-valued, each component fixed by bar."""
        return (self + self.conjugate(STAR)) / 2

    def real_part(self) -> "BicomplexFunction":
        """(f + f^dagger + f~ + f^*)/4 -- real-valued, components equal."""
        total = self + self.conjugate(DAGGER) + self.conjugate(TILDE) + self.conjugate(STAR)
        return total / 4

    def real_parts(self) -> tuple["BicomplexFunction", "BicomplexFunction"]:
        return self.hyperbolic_part(), self.real_part()

    def is_hyperbolic_valued(self) -> bool:
        return self.plus.is_bar_fixed() and self.minus.is_bar_fixed()

    def is_real_valued(self) -> bool:
        return self.plus == self.minus and self.plus.is_bar_fixed()

    def is_constant(self) -> bool:
        return all(
            set(p.terms) <= {_ZERO_MONO} for p in (self.plus, self.minus)
        )

    def constant_value(self) -> Bicomplex:
        if not self.is_constant():
            raise ValueError("function is not constant")
        return Bicomplex(
            self.plus.terms.get(_ZERO_MONO, GaussianRational(0)),
            self.minus.terms.get(_ZERO_MONO, GaussianRational(0)),
        )

    def degrees(self) -> dict[str, tuple]:
        return {"plus": self.plus.degrees(), "minus": self.minus.degrees()}

    def total_degree(self) -> int:
        degs = [p.total_degree() for p in (self.plus, self.minus)]
        return max((d for d in degs if d is not None), default=0)
