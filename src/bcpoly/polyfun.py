"""Sparse polynomial bicomplex-valued functions in the idempotent variables.

A function f maps the bicomplex plane to itself and is stored as the pair
(f_plus, f_minus) with f = f_plus*e+ + f_minus*e-.  Each component is a
sparse polynomial in the four variables

    index 0: alpha    index 1: conj(alpha)    index 2: beta    index 3: conj(beta)

with Gaussian-rational coefficients.  Conjugations, real parts, evaluation
and differentiation all act componentwise in this basis, which is what makes
every operator in :mod:`bcpoly.operators` diagonal.

A coefficient is stored in one of two forms, and every read that is not
arithmetic reads the same one, its parts:

- ``terms``, ``{monomial: GaussianRational}``: what ``Poly4(dict)``, the
  constructors and the term loops (``+``, ``scale``, ``bar``, ``derive``,
  one-term products, ...) build, and what those loops read.
- parts, ``{monomial: (re_num, re_den, im_num, im_den)}`` in lowest terms:
  what the expression layer's readers (``parse`` and the JSON readers of
  functions and operators) build, and what products of several terms,
  powers and the real parts build through ``_poly_of_form``, the one way
  out of the integer form.  ``terms`` of such a polynomial is built on its
  first read and cached.  ``==``, ``hash``, ``is_bar_fixed``, the printers and
  ``_cached_form`` read parts, read off ``terms`` for any other polynomial.

Some maps are structural and do no coefficient arithmetic: a product with
a one-term factor of coefficient 1 only shifts keys and keeps the other
factor's coefficient objects, and ``bar`` only swaps keys and conjugates.
The two real parts and the power each have one integer kernel, which the
expression reader runs too.

Functions and operators share one pair type, ``_Pair``: the checked
constructor, type-exact equality and hash, the componentwise ring operations
and one conjugation rule (dagger swaps the components, star bars both, tilde
does both).  Each subclass adds only its scalars and its action.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm, perm
from typing import Iterable, Optional

from .bicomplex import ArgumentError, Bicomplex, BicomplexError, GaussianRational
from .bicomplex import DAGGER, STAR, TILDE, _check_kind, _gaussian_power, _int_repr

__all__ = ["Poly4", "BicomplexFunction", "EvalLimitError", "MAX_EVAL_BITS", "NVARS", "PAIR_ALPHA", "PAIR_BETA"]

NVARS = 4
Monomial = tuple[int, int, int, int]

PAIR_ALPHA = (0, 1)
PAIR_BETA = (2, 3)
_PAIRS = {"alpha": PAIR_ALPHA, "beta": PAIR_BETA}  # pair name -> (z, zbar) indices

_ZERO_MONO: Monomial = (0, 0, 0, 0)

# Evaluating a component raises each coordinate to the top exponent e of its
# variable, so its numbers reach about the sum over the four variables of e*b
# bits, b the longest numerator or denominator of the coordinate.  Past this
# many bits evaluation is refused before any power is built, which also bounds
# the power tables (e*e*b bits) and the final gcd.  At the limit one
# evaluation takes about 0.05 s; the benchmark needs at most 140 bits and the
# tests 105.
MAX_EVAL_BITS = 4096
_RESCALE_BITS = 1 << 14  # the unit of bits of a sum's rescale charge (see expr.MAX_TERM_PAIRS)


class EvalLimitError(BicomplexError):
    """An evaluation whose numbers would exceed ``MAX_EVAL_BITS`` bits."""


def _as_monomial(key) -> Monomial:
    key = tuple(key)
    if len(key) != NVARS or any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in key):
        raise ArgumentError(f"monomial key must be 4 nonnegative integers, got {key!r}")
    return key  # type: ignore[return-value]


def _var_index(value, name: str) -> int:
    """The argument ``name``, checked to be a variable index, an int in
    0..3 and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < NVARS:
        raise ArgumentError(f"{name}: expected a variable index 0..3, got {value!r}")
    return value


# Integer kernels.  Multiply, power, evaluate, sums and the real parts run
# on an integer form: the numerators of the coefficients as Gaussian-integer
# pairs over one common positive denominator, ``({monomial: (re_num,
# im_num)}, den)``, the layout of FLINT's fmpq_poly.  Kernels never store a
# zero pair, and a key that cancels to zero and reappears moves to the end,
# so the terms of a result come in the order of the loops they replace.
# The form is a working form, not storage: ``_cached_form`` is the one way
# in, and caches it on the polynomial, ``_poly_of_form`` the one way out.
# The expression reader runs the same kernels and charges their work
# through ``charge``.  Its sums, the hyperbolic part (f + f^*)/2 (each
# component's bar added into it) and the real part (the same on the sum of
# the components, ``_real_form``) add on ``_add_into``, whose rescales
# ``_rescale_charge`` charges.
#
# ``_pow_form`` is the one power of an integer form, for ``Poly4.__pow__``
# and the reader alike.  A one-term form takes the Gaussian-integer power
# that ``GaussianRational.__pow__`` takes too.  ``_multinomial_form`` takes
# a form with pairwise disjoint supports, as a power of a linear form in Z
# and its conjugates has in each component: no two of its products collide,
# so it builds each term once, from per-term power tables and binomials.
# It takes such powers from the cube on, where it timed faster than
# square-and-multiply for 2 to 5 terms and coefficients of 8 to 2000 bits;
# at squares it did not.  Any other form is squared and multiplied.


def _poly_of_form(nums: dict, den: int) -> "Poly4":
    """The polynomial of an integer form, stored as parts, with the form
    cached on it."""
    parts = {}
    for key, (re, im) in nums.items():
        g, h = gcd(re, den), gcd(im, den)
        parts[key] = (re // g, den // g, im // h, den // h)
    poly = _PartsPoly4(parts)
    poly._form = (nums, den)
    return poly


def _cached_form(poly: "Poly4") -> tuple[dict, int]:
    """The integer form of ``poly``, built on first use and cached on it:
    the numerators over ``den``, the lcm of the coefficient denominators."""
    try:
        return poly._form
    except AttributeError:
        parts = poly._coeff_parts()
    den = 1
    for _, re_den, _, im_den in parts.values():
        den = lcm(den, re_den, im_den)
    poly._form = {key: (re * (den // re_den), im * (den // im_den)) for key, (re, re_den, im, im_den) in parts.items()}, den
    return poly._form


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


def _no_charge(pairs: int) -> None:
    """The charge of work that no budget bounds: the library's, outside the
    expression reader."""


def _pow_form(nums: dict, den: int, exponent: int, charge) -> tuple[dict, int]:
    """An integer form to a nonnegative power, ``charge`` paying the term
    pairs it multiplies.  One term c*x^k is c^e*x^(e*k), by its numerator's
    Gaussian-integer power, and multiplies none.  From the cube on, two or
    more terms with pairwise disjoint supports go to ``_multinomial_form``,
    charged before any work the pairs square-and-multiply would multiply.
    Anything else is squared and multiplied from the first square it needs
    (``nums`` itself for 1), each multiply charged its pairs."""
    if len(nums) == 1:
        [((k0, k1, k2, k3), (re, im))] = nums.items()
        e = exponent
        return {(k0 * e, k1 * e, k2 * e, k3 * e): _gaussian_power(re, im, e)}, den ** e
    if exponent > 2 and len(nums) > 1 and all(column.count(0) >= len(nums) - 1 for column in zip(*nums)):
        charge(_pow_pairs(len(nums), exponent))
        return _multinomial_form(nums, den, exponent)
    if not exponent:
        return {_ZERO_MONO: (1, 0)}, 1
    out = None
    while exponent:
        if exponent & 1:
            if out is None:
                out, out_den = nums, den
            else:
                charge(len(out) * len(nums))
                out, out_den = _mul_nums(out, nums), out_den * den
        if exponent > 1:
            charge(len(nums) ** 2)
            nums = _mul_nums(nums, nums)
            den *= den
        exponent >>= 1
    return out, out_den


def _pow_pairs(n_terms: int, exponent: int) -> int:
    """The term pairs square-and-multiply multiplies to raise a form of
    ``n_terms`` terms with pairwise disjoint supports: its k-th power has
    C(k + n_terms - 1, n_terms - 1) terms, one per way to split k among the
    terms, and no two products collide."""
    r = n_terms - 1
    pairs, out, square = 0, 0, 1
    while exponent:
        if exponent & 1:
            if out:
                pairs += comb(out + r, r) * comb(square + r, r)
            out += square
        if exponent > 1:
            pairs += comb(square + r, r) ** 2
            square *= 2
        exponent >>= 1
    return pairs


def _multinomial_form(nums: dict, den: int, exponent: int) -> tuple[dict, int]:
    """An integer form of two or more terms with pairwise disjoint supports,
    raised to a nonnegative power by the multinomial theorem.

    The power of c_1*x^k_1 + ... + c_t*x^k_t is the sum, over the ways to
    split the exponent n as j_1 + ... + j_t, of the products over i of
    C(r_i, j_i) * (c_i*x^k_i)^j_i, where r_i = n - j_1 - ... - j_(i-1) is
    what the terms before i leave.  The products are built term by term as
    partials ``(*key, re, im, r)``, each from its parent and one entry of
    the term's power table; a partial that leaves nothing is a finished
    term, and the last term takes what is left.  Disjoint supports make
    every product a distinct monomial, nonzero, so each is stored once.
    """
    out: dict = {}
    partials = [(0, 0, 0, 0, 1, 0, exponent)]
    last = len(nums) - 1
    for index, ((k0, k1, k2, k3), (re, im)) in enumerate(nums.items()):
        powers = [(0, 0, 0, 0, 1, 0)]
        x, y = 1, 0
        for e in range(1, exponent + 1):
            x, y = x * re - y * im, x * im + y * re
            powers.append((k0 * e, k1 * e, k2 * e, k3 * e, x, y))
        if index == last:
            break
        grown = []
        append = grown.append
        for partial in partials:
            append(partial)  # this term to the power 0
            a0, a1, a2, a3, x, y, rem = partial
            c = 1
            for e in range(1, rem):
                c = c * (rem - e + 1) // e
                p0, p1, p2, p3, u, v = powers[e]
                append((a0 + p0, a1 + p1, a2 + p2, a3 + p3, c * (x * u - y * v), c * (x * v + y * u), rem - e))
            p0, p1, p2, p3, u, v = powers[rem]
            out[a0 + p0, a1 + p1, a2 + p2, a3 + p3] = (x * u - y * v, x * v + y * u)
        partials = grown
    for a0, a1, a2, a3, x, y, rem in partials:  # the last term takes what is left
        p0, p1, p2, p3, u, v = powers[rem]
        out[a0 + p0, a1 + p1, a2 + p2, a3 + p3] = (x * u - y * v, x * v + y * u)
    return out, den ** exponent


def _bar_form(nums: dict, den: int) -> tuple[dict, int]:
    """The form of bar(p) for the form of p."""
    return {(b, a, d, c): (re, -im) for (a, b, c, d), (re, im) in nums.items()}, den


def _rescale_charge(n_terms: int, den: int, term_den: int, charge) -> int:
    """The common denominator of a sum of ``n_terms`` over ``den`` and a
    term over ``term_den``; a new one charges the rescale ``n_terms // 2``
    pairs, and as much again per whole ``_RESCALE_BITS`` bits of it per
    30-bit digit of the factor (an int multiply costs the digit product)."""
    common = lcm(den, term_den)
    if common != den:
        bits = common.bit_length()
        factor_digits = (bits - den.bit_length() + 30) // 30  # factor < 2^(bits - den bits + 1)
        charge(n_terms // 2 * (1 + bits * factor_digits // _RESCALE_BITS))
    return common


def _add_into(acc: dict, acc_den: int, nums: dict, den: int, sign: int, charge) -> int:
    """Add ``sign * nums/den`` to ``acc/acc_den`` in place and return the
    new common denominator, whose rescale ``_rescale_charge`` charges."""
    common = _rescale_charge(len(acc), acc_den, den, charge)
    if common != acc_den:
        factor = common // acc_den
        for key, (re, im) in acc.items():
            acc[key] = (re * factor, im * factor)
    factor = sign * (common // den)
    for key, (re, im) in nums.items():
        re *= factor
        im *= factor
        old = acc.get(key)
        if old is not None:
            re += old[0]
            im += old[1]
            if not (re or im):
                del acc[key]
                continue
        acc[key] = (re, im)
    return common


def _hyperbolic_form(nums: dict, den: int, n: int) -> tuple[dict, int]:
    """The form of (p + bar(p))/n for the form of p, in lowest terms: the
    bar added into a copy of ``nums``, so the terms and their order are
    those of ``p + p.bar()``."""
    out = dict(nums)
    _add_into(out, den, *_bar_form(nums, den), 1, _no_charge)  # one denominator: no rescale
    g = gcd(den * n, *chain.from_iterable(out.values()))
    if g > 1:
        out = {key: (re // g, im // g) for key, (re, im) in out.items()}
    return out, den * n // g


def _real_form(plus: tuple, minus: tuple, charge) -> tuple[dict, int]:
    """The form of (s + bar(s))/4, s the sum of the forms ``plus`` and
    ``minus`` taken in a fresh dict; ``charge`` pays its rescale."""
    nums = dict(plus[0])
    return _hyperbolic_form(nums, _add_into(nums, plus[1], *minus, 1, charge), 4)


def _powers(value: GaussianRational, top: int) -> tuple[list, list]:
    """Gaussian integers ``value^e * d^e`` for e = 0..top, and the powers
    d^e, with d the common denominator of ``value``."""
    re, im = value.re, value.im
    d = lcm(re.denominator, im.denominator)
    p, q = re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)
    powers, d_powers = [(1, 0)], [1]
    for _ in range(top):
        x, y = powers[-1]
        powers.append((x * p - y * q, x * q + y * p))
        d_powers.append(d_powers[-1] * d)
    return powers, d_powers


def _tops(nums: dict) -> list[int]:
    """The top exponent of each variable in a numerator dict (0 when empty)."""
    return [max(column) for column in zip(*nums)] if nums else [0] * NVARS


def _bits(value: GaussianRational) -> int:
    """The longest numerator or denominator of the parts of ``value``, in bits."""
    re, im = value.re, value.im
    return max(re.numerator.bit_length(), re.denominator.bit_length(), im.numerator.bit_length(), im.denominator.bit_length())


def _check_eval_bits(tops, bits) -> None:
    """Refuse an evaluation whose numbers would pass ``MAX_EVAL_BITS``."""
    if sum(top * b for top, b in zip(tops, bits)) > MAX_EVAL_BITS:
        raise EvalLimitError(f"evaluation needs numbers of more than the limit of {MAX_EVAL_BITS} bits")


def _evaluate_form(nums: dict, den: int, tops, coordinates) -> GaussianRational:
    """The value of the integer form ``(nums, den)``, whose top exponents are
    ``tops``, at the point whose four coordinates are ``(powers, d_powers,
    sign)``: the ``_powers`` of a value, and -1 for its conjugate.  Each
    variable's table is scaled to that variable's top, and the sum over the
    terms c*x^e of c * (t0[e0]*t1[e1]) * (t2[e2]*t3[e3]) memoises the two
    pair products by exponent pair."""
    tables = []
    for (powers, d_powers, sign), top in zip(coordinates, tops):
        tables.append([(x * d_powers[top - e], sign * y * d_powers[top - e]) for e, (x, y) in enumerate(powers[:top + 1])])
        den *= d_powers[top]
    t0, t1, t2, t3 = tables
    low: dict = {}
    high: dict = {}
    total_re = total_im = 0
    for (e0, e1, e2, e3), (re, im) in nums.items():
        a = low.get((e0, e1))
        if a is None:
            (x, y), (u, v) = t0[e0], t1[e1]
            a = low[e0, e1] = (x * u - y * v, x * v + y * u)
        b = high.get((e2, e3))
        if b is None:
            (x, y), (u, v) = t2[e2], t3[e3]
            b = high[e2, e3] = (x * u - y * v, x * v + y * u)
        (x, y), (u, v) = a, b
        x, y = x * u - y * v, x * v + y * u
        total_re += re * x - im * y
        total_im += re * y + im * x
    return GaussianRational(Fraction(total_re, den), Fraction(total_im, den))


def _is_unit(c: GaussianRational) -> bool:
    """True when ``c`` is exactly 1, parts ``(1, 1, 0, 1)``."""
    re = c.re
    return re.numerator == 1 and re.denominator == 1 and not c.im.numerator


def _shifted(terms: dict, single: dict) -> dict:
    """``terms`` times the one term c*x^k of ``single``: each key shifted by
    k, each coefficient times c; for c = 1 the coefficients themselves."""
    ((k0, k1, k2, k3), c), = single.items()
    if _is_unit(c):
        return {(e0 + k0, e1 + k1, e2 + k2, e3 + k3): coeff for (e0, e1, e2, e3), coeff in terms.items()}
    return {(e0 + k0, e1 + k1, e2 + k2, e3 + k3): coeff._times(c, 1) for (e0, e1, e2, e3), coeff in terms.items()}


class Poly4:
    """A sparse polynomial in (alpha, conj alpha, beta, conj beta).

    Immutable by convention: no method mutates ``terms`` after construction,
    and no zero coefficient is ever stored.
    """

    __slots__ = ("terms", "_form")  # _form: the integer form, set on first use

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
        key[_var_index(index, "index")] = 1
        return cls.monomial(tuple(key))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return len(self) > 0

    def __len__(self):
        """The number of terms, read without building any."""
        return len(self.terms)

    def __eq__(self, other):
        # parts are canonical, so they are equal exactly when the terms are,
        # and a polynomial compares and hashes alike whichever way it was built
        if not isinstance(other, Poly4):
            return NotImplemented
        return len(self) == len(other) and self._coeff_parts() == other._coeff_parts()

    def __hash__(self):
        return hash(frozenset(self._coeff_parts().items()))

    def _coeff_parts(self) -> dict:
        """The coefficients as ``{monomial: (re_num, re_den, im_num,
        im_den)}``, each part in lowest terms over a positive denominator."""
        return {key: (c.re.numerator, c.re.denominator, c.im.numerator, c.im.denominator) for key, c in self.terms.items()}

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
        # a one-term factor c*x^k shifts the other factor's keys by k: the
        # shifted keys are distinct and no product of nonzero coefficients
        # is zero, so terms and order are the integer kernel's
        if len(self) == 1:
            return Poly4._raw(_shifted(other.terms, self.terms))
        if len(other) == 1:
            return Poly4._raw(_shifted(self.terms, other.terms))
        a, a_den = _cached_form(self)
        b, b_den = _cached_form(other)
        return _poly_of_form(_mul_nums(a, b), a_den * b_den)

    def __pow__(self, exponent: int) -> "Poly4":
        if not isinstance(exponent, int) or exponent < 0:
            raise ArgumentError("polynomial exponent must be a nonnegative integer")
        return _poly_of_form(*_pow_form(*_cached_form(self), exponent, _no_charge))

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
        """True when the polynomial is real-valued at every point: each
        coefficient's partner, at the monomial with each variable swapped
        with its conjugate, is its conjugate."""
        parts = self._coeff_parts()
        for (a, b, c, d), (re, re_den, im, im_den) in parts.items():
            if parts.get((b, a, d, c)) != (re, re_den, -im, im_den):
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
                term = coeff._times(c, factor)
                acc = get(key)
                if acc is not None:
                    term = acc + term
                    if term.is_zero():
                        del out[key]
                        continue
                out[key] = term
        return Poly4._raw(out)

    def diff(self, var: int, times: int = 1) -> "Poly4":
        var = _var_index(var, "var")
        if not isinstance(times, int) or isinstance(times, bool) or times < 0:
            raise ArgumentError(f"times: expected a nonnegative integer, got {times!r}")
        if times == 0:
            return self
        kappa = [0, 0, 0, 0]
        kappa[var] = times
        return self.derive(Poly4.monomial(kappa))

    def substitute(self, values: tuple) -> GaussianRational:
        values = tuple(GaussianRational.coerce(v) for v in values)
        nums, den = _cached_form(self)
        tops = _tops(nums)
        _check_eval_bits(tops, [_bits(v) for v in values])
        coordinates = [(*_powers(value, top), 1) for value, top in zip(values, tops)]
        return _evaluate_form(nums, den, tops, coordinates)

    def degree(self, var: int) -> Optional[int]:
        """Max exponent of one variable; ``None`` for the zero polynomial."""
        var = _var_index(var, "var")
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
        positions = [_var_index(p, "positions") for p in positions]
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
        # ``repr`` of the terms dict, each exponent through ``_int_repr``
        terms = ", ".join(f"({', '.join(map(_int_repr, key))}): {coeff!r}" for key, coeff in self.sorted_terms())
        return f"Poly4({{{terms}}})"


class _PartsPoly4(Poly4):
    """A polynomial whose coefficients are stored as their parts
    (``Poly4._coeff_parts``): what the expression layer's readers and the
    integer kernels build.  ``terms`` is built from the parts on first read
    and then cached; a subclass only for storage, so polynomials built from
    ``terms`` have no lazy read on their path."""

    __slots__ = ("_parts",)

    def __init__(self, parts: dict):
        self._parts = parts

    def __getattr__(self, name):
        # reached only for an unset slot: ``terms`` until its first read
        if name != "terms":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        terms = self.terms = {
            key: GaussianRational(Fraction(re, re_den), Fraction(im, im_den))
            for key, (re, re_den, im, im_den) in self._parts.items()
        }
        return terms

    def _coeff_parts(self) -> dict:
        return self._parts

    def is_zero(self) -> bool:
        return not self._parts

    def __len__(self):
        return len(self._parts)


class _Pair:
    """A (plus, minus) pair of ``Poly4``; equality, ``+`` and ``-`` are
    type-exact, so a function never equals, or adds to, an operator with the
    same components."""

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
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
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
        """The identity function Z, with components (alpha, beta)."""
        return cls(Poly4.variable(0), Poly4.variable(2))

    @classmethod
    def variable_dagger(cls) -> "BicomplexFunction":
        return cls.variable()._conj(DAGGER)

    @classmethod
    def variable_star(cls) -> "BicomplexFunction":
        return cls.variable()._conj(STAR)

    @classmethod
    def variable_tilde(cls) -> "BicomplexFunction":
        return cls.variable()._conj(TILDE)

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
        return BicomplexFunction(*(Poly4._raw({key: c / divisor for key, c in p.terms.items()}) for p in (self.plus, self.minus)))

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
        """The value at ``point``: each component at (alpha, conj alpha,
        beta, conj beta), from one table of powers per coordinate shared by
        both components, the conjugate's by negating imaginary parts."""
        point = Bicomplex.coerce(point)
        alpha, beta = point.alpha, point.beta
        forms = [_cached_form(self.plus), _cached_form(self.minus)]
        tops = [_tops(nums) for nums, _ in forms]
        bits = (_bits(alpha),) * 2 + (_bits(beta),) * 2
        for top in tops:
            _check_eval_bits(top, bits)
        alpha_powers = _powers(alpha, max(max(top[0], top[1]) for top in tops))
        beta_powers = _powers(beta, max(max(top[2], top[3]) for top in tops))
        coordinates = ((*alpha_powers, 1), (*alpha_powers, -1), (*beta_powers, 1), (*beta_powers, -1))
        return Bicomplex(*(_evaluate_form(nums, den, top, coordinates) for (nums, den), top in zip(forms, tops)))

    def hyperbolic_part(self) -> "BicomplexFunction":
        """(f + f^*)/2 -- hyperbolic-valued, each component fixed by bar.
        Built in one pass per component on its integer form, with the terms
        and order of the sum."""
        return BicomplexFunction(*(_poly_of_form(*_hyperbolic_form(*_cached_form(p), 2)) for p in (self.plus, self.minus)))

    def real_part(self) -> "BicomplexFunction":
        """(f + f^dagger + f~ + f^*)/4 -- real-valued, components equal: each
        is (s + bar(s))/4 for s = f_plus + f_minus."""
        real = _real_form(_cached_form(self.plus), _cached_form(self.minus), _no_charge)
        return BicomplexFunction.from_shared(_poly_of_form(*real))

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
            raise ArgumentError("function is not constant")
        return Bicomplex(
            self.plus.terms.get(_ZERO_MONO, GaussianRational(0)),
            self.minus.terms.get(_ZERO_MONO, GaussianRational(0)),
        )

    def degrees(self) -> dict[str, tuple]:
        return {"plus": self.plus.degrees(), "minus": self.minus.degrees()}

    def total_degree(self) -> int:
        degs = [p.total_degree() for p in (self.plus, self.minus)]
        return max((d for d in degs if d is not None), default=0)
