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
"""

from __future__ import annotations

from fractions import Fraction

from .bicomplex import GaussianRational
from .polyfun import BicomplexFunction, Poly4

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

WIRTINGER_KINDS = ("Z", "Zstar", "Zdagger", "Ztilde")


class Operator:
    """A pair of derivative polynomials applied componentwise."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Poly4, minus: Poly4):
        if not isinstance(plus, Poly4) or not isinstance(minus, Poly4):
            raise TypeError("operator components must be Poly4 instances")
        self.plus = plus
        self.minus = minus

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

    def is_zero(self) -> bool:
        return self.plus.is_zero() and self.minus.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self):
        return hash((self.plus, self.minus))

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other: "Operator") -> "Operator":
        return Operator(self.plus - other.plus, self.minus - other.minus)

    def __neg__(self) -> "Operator":
        return Operator(-self.plus, -self.minus)

    def __mul__(self, other: "Operator") -> "Operator":
        """Composition; commutative because all coefficients are constant."""
        if not isinstance(other, Operator):
            return NotImplemented
        return Operator(self.plus * other.plus, self.minus * other.minus)

    def __pow__(self, exponent: int) -> "Operator":
        return Operator(self.plus ** exponent, self.minus ** exponent)

    def scale(self, coeff) -> "Operator":
        coeff = GaussianRational.coerce(coeff)
        return Operator(self.plus.scale(coeff), self.minus.scale(coeff))

    def conjugate(self, kind: str) -> "Operator":
        """Operational conjugation: dagger swaps the components, star bars
        them (conjugating coefficients and swapping each derivative with its
        conjugate partner), tilde does both."""
        if kind not in OP_CONJUGATION_KINDS:
            raise ValueError(f"unknown operator conjugation {kind!r}; expected one of {OP_CONJUGATION_KINDS}")
        if kind == DAGGER_OP:
            return Operator(self.minus, self.plus)
        if kind == STAR_OP:
            return Operator(self.plus.bar(), self.minus.bar())
        return Operator(self.minus.bar(), self.plus.bar())

    def apply(self, fn: BicomplexFunction) -> BicomplexFunction:
        """Componentwise action: (T f)_plus = T_plus f_plus, likewise minus."""
        return BicomplexFunction(
            fn.plus.derive(self.plus),
            fn.minus.derive(self.minus),
        )

    def __repr__(self):
        return f"Operator({self.plus!r}, {self.minus!r})"


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
        raise ValueError(f"unknown Wirtinger kind {kind!r}; expected one of {WIRTINGER_KINDS}") from None


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
        raise ValueError(f"Laplacian index must be 1..7, got {index!r}")
    return _LAPLACIANS[index]
