"""Constant-coefficient bicomplex differential operators.

An operator is a pair (T_plus, T_minus) of polynomials in the four partial
derivative symbols

    index 0: d/d alpha    index 1: d/d conj(alpha)
    index 2: d/d beta     index 3: d/d conj(beta)

acting componentwise on a function: (T f)_plus = T_plus f_plus and
(T f)_minus = T_minus f_minus.  Only constant coefficients are representable,
which keeps composition commutative and every identity exact.

The four first-order operators diagonalize as

    d/dZ        = (d_alpha,  d_beta)      d/dZ^*   = (d_alpha~, d_beta~)
    d/dZ^dagger = (d_beta,   d_alpha)     d/dZ~    = (d_beta~,  d_alpha~)

(~ marking the conjugate-variable derivative), and the six second-order
Laplacians are their pairwise products; the seventh is the sum of the first
and the sixth.

An operator is the same (plus, minus) pair type as a function
(:mod:`bcpoly.polyfun`), so both share the componentwise ring operations and
one conjugation rule: star_op, dagger_op and tilde_op act on the components
as star, dagger and tilde act on a function's.
"""

from __future__ import annotations

from fractions import Fraction

from .bicomplex import DAGGER, STAR, TILDE, ArgumentError, GaussianRational
from .polyfun import BicomplexFunction, Poly4, _Pair

__all__ = [
    "Operator",
    "wirtinger",
    "laplacian",
    "WIRTINGER_KINDS",
    "STAR_OP",
    "DAGGER_OP",
    "TILDE_OP",
    "OP_CONJUGATION_KINDS",
]

STAR_OP = "star_op"
DAGGER_OP = "dagger_op"
TILDE_OP = "tilde_op"
OP_CONJUGATION_KINDS = (STAR_OP, DAGGER_OP, TILDE_OP)
# an operator conjugation acts on the components as the value conjugation
_VALUE_KIND = {STAR_OP: STAR, DAGGER_OP: DAGGER, TILDE_OP: TILDE}

WIRTINGER_KINDS = ("Z", "Zstar", "Zdagger", "Ztilde")


class Operator(_Pair):
    """A pair of derivative polynomials applied componentwise."""

    __slots__ = ()

    @classmethod
    def scalar(cls, plus_coeff, minus_coeff) -> "Operator":
        return cls(Poly4.constant(plus_coeff), Poly4.constant(minus_coeff))

    @classmethod
    def identity(cls) -> "Operator":
        return cls.scalar(1, 1)

    @classmethod
    def k_multiplication(cls) -> "Operator":
        """Multiplication by k = ij: keeps the plus component, negates the minus."""
        return cls.scalar(1, -1)

    @classmethod
    def from_j_parts(cls, part1: Poly4, part2: Poly4) -> "Operator":
        """Build T = A1 + j*A2 from its complex-operator parts."""
        i = GaussianRational(0, 1)
        return cls(part1 - part2.scale(i), part1 + part2.scale(i))

    def j_parts(self) -> tuple[Poly4, Poly4]:
        """The (A1, A2) pair with T = A1 + j*A2."""
        half = Fraction(1, 2)
        part1 = (self.plus + self.minus).scale(half)
        part2 = (self.plus - self.minus).scale(GaussianRational(0, Fraction(1, 2)))
        return part1, part2

    def __mul__(self, other: "Operator") -> "Operator":
        """Composition; commutative because all coefficients are constant."""
        if not isinstance(other, Operator):
            return NotImplemented
        return self._mul(other)

    def scale(self, coeff) -> "Operator":
        coeff = GaussianRational.coerce(coeff)
        return Operator(self.plus.scale(coeff), self.minus.scale(coeff))

    def conjugate(self, kind: str) -> "Operator":
        """Operational conjugation, by the pair rule of the value kind it
        names: dagger swaps the components, star bars them (conjugating
        coefficients and swapping each derivative with its conjugate
        partner), tilde does both."""
        if kind not in OP_CONJUGATION_KINDS:
            raise ArgumentError(f"unknown operator conjugation {kind!r}; expected one of {OP_CONJUGATION_KINDS}")
        return self._conj(_VALUE_KIND[kind])

    def apply(self, fn: BicomplexFunction) -> BicomplexFunction:
        """Componentwise action: (T f)_plus = T_plus f_plus, likewise minus."""
        return BicomplexFunction(
            fn.plus.derive(self.plus),
            fn.minus.derive(self.minus),
        )


_D_ALPHA = Poly4.variable(0)
_D_ALPHA_BAR = Poly4.variable(1)
_D_BETA = Poly4.variable(2)
_D_BETA_BAR = Poly4.variable(3)

_WIRTINGER = {
    "Z": Operator(_D_ALPHA, _D_BETA),
    "Zstar": Operator(_D_ALPHA_BAR, _D_BETA_BAR),
    "Zdagger": Operator(_D_BETA, _D_ALPHA),
    "Ztilde": Operator(_D_BETA_BAR, _D_ALPHA_BAR),
}


def wirtinger(kind: str) -> Operator:
    """The first-order operator for one of the four coordinate directions."""
    try:
        return _WIRTINGER[kind]
    except KeyError:
        raise ArgumentError(f"unknown Wirtinger kind {kind!r}; expected one of {WIRTINGER_KINDS}") from None


_LAPLACIANS = {
    1: _WIRTINGER["Z"] * _WIRTINGER["Zstar"],
    2: _WIRTINGER["Z"] * _WIRTINGER["Zdagger"],
    3: _WIRTINGER["Z"] * _WIRTINGER["Ztilde"],
    4: _WIRTINGER["Zstar"] * _WIRTINGER["Zdagger"],
    5: _WIRTINGER["Zstar"] * _WIRTINGER["Ztilde"],
    6: _WIRTINGER["Zdagger"] * _WIRTINGER["Ztilde"],
}
_LAPLACIANS[7] = _LAPLACIANS[1] + _LAPLACIANS[6]


def laplacian(index: int) -> Operator:
    """One of the seven second-order operators; index 1 is the privileged
    bicomplex Laplacian (d_alpha d_alpha~, d_beta d_beta~)."""
    if index not in _LAPLACIANS:
        raise ArgumentError(f"Laplacian index must be 1..7, got {index!r}")
    return _LAPLACIANS[index]
