"""Constructive expansions and real-part inversions.

Every routine here produces data that reconstructs its input by exact
polynomial identity:

* conjugate-basis expansion in powers of the three conjugate coordinates,
  with componentwise-holomorphic coefficients;
* expansion in powers of the full conjugate coordinate alone, for functions
  whose components live on their own variable pair;
* the layered harmonic decomposition (complex, one variable pair at a time,
  and its bicomplex lift weighted by powers of Z*Z^*);
* inversion of the real part of a single-pair polynomial into a polyanalytic
  one, and the two hyperbolic-real-part inversions built on it;
* the two-index kernel decomposition of a hyperbolic-valued function into
  coefficient functions times powers of the dagger/tilde coordinates.

Normalizations are chosen once and frozen: harmonic layers assign the
monomial ``z^p zbar^q`` to layer ``min(p, q)``, and real-part inversion never
emits a monomial whose conjugate exponent exceeds the plain one.  Both rules
make every decomposition of a polynomial unique without solving any linear
system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Optional

from .bicomplex import ArgumentError, BicomplexError
from .classify import annihilation_order, class_membership, pair_polyharmonic_order
from .operators import laplacian, wirtinger
from .polyfun import _PAIRS, PAIR_ALPHA, PAIR_BETA, BicomplexFunction, Poly4

__all__ = [
    "NotInClass",
    "NotRealValued",
    "NotHyperbolicValued",
    "MixedPairError",
    "PreconditionViolation",
    "ConjugateExpansion",
    "AlmansiDecomposition",
    "MainDecomposition",
    "expand_conjugate_basis",
    "expand_zstar",
    "almansi_complex",
    "almansi_bicomplex",
    "repart_to_polyanalytic",
    "rehyp_to_holomorphic",
    "rehyp_to_polyholomorphic_A1",
    "main_decomposition",
]


class NotInClass(BicomplexError):
    """Input is outside the class the expansion is defined on."""


class NotRealValued(BicomplexError):
    """Coefficient symmetry for a real-valued polynomial fails."""


class NotHyperbolicValued(BicomplexError):
    """A component of the input is not fixed by pointwise conjugation."""


class MixedPairError(BicomplexError):
    """A single-pair operation received a polynomial mixing variable pairs."""


class PreconditionViolation(BicomplexError):
    """A kernel or harmonicity precondition failed; names the first failure."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class ConjugateExpansion:
    """f = sum over (l1, l2, l3) of Z*^l1 Z~^l2 Zdagger^l3 times a
    componentwise-holomorphic coefficient function."""

    coeffs: dict[tuple[int, int, int], BicomplexFunction]

    def reconstruct(self) -> BicomplexFunction:
        bases = (BicomplexFunction.variable_star(), BicomplexFunction.variable_tilde(), BicomplexFunction.variable_dagger())
        return _power_sum(self.coeffs, bases)


def _power_sum(coeffs: dict, bases: tuple):
    """The sum over ``coeffs`` of each coefficient times the product of the
    ``bases`` (functions, or polynomials) raised to the exponents of its
    index: the reconstruction of every expansion here.  Each base has one
    term in each component, so each product only shifts keys."""
    total = type(bases[0]).zero()
    for index, coeff in coeffs.items():
        for base, exponent in zip(bases, index):
            coeff = base ** exponent * coeff
        total = total + coeff
    return total


def _merge_groups(plus_groups: dict, minus_groups: dict) -> dict:
    """Coefficient functions from plus and minus ``Poly4.group_by`` dicts."""
    return {
        index: BicomplexFunction(
            plus_groups.get(index, Poly4.zero()),
            minus_groups.get(index, Poly4.zero()),
        )
        for index in set(plus_groups) | set(minus_groups)
    }


def expand_conjugate_basis(fn: BicomplexFunction) -> ConjugateExpansion:
    """Extract the coefficient of each conjugate-power basis monomial.

    In components: the plus part groups by (conj-alpha, conj-beta, beta)
    exponents leaving a polynomial in alpha, the minus part symmetrically by
    (conj-beta, conj-alpha, alpha) leaving one in beta.
    """
    return ConjugateExpansion(_merge_groups(fn.plus.group_by((1, 3, 2)), fn.minus.group_by((3, 1, 0))))


def expand_zstar(fn: BicomplexFunction) -> list[BicomplexFunction]:
    """Write f as sum of Z*^t g_t with componentwise-holomorphic g_t.

    Requires each component to depend only on its own variable pair; the list
    has length max of the two exact conjugate orders, with the top entry
    nonzero.
    """
    member = class_membership(fn)
    if member.a1_orders is None:
        raise NotInClass(
            "conjugate-power expansion needs each component on its own variable pair "
            "(plus on alpha/conj-alpha, minus on beta/conj-beta)"
        )
    layers = _merge_groups(fn.plus.group_by((1,)), fn.minus.group_by((3,)))
    return [layers.get((t,), BicomplexFunction.zero()) for t in range(member.zstar_order or 0)]


@dataclass(frozen=True)
class AlmansiDecomposition:
    """Layers h_0 .. h_{m-1} with input = sum of |.|^{2t} h_t.

    ``pair`` is "alpha" or "beta" for the single-pair (complex) case, where
    parts are Poly4 layers and the weight is (z zbar)^t; it is ``None`` for
    the bicomplex case, where parts are functions and the weight is (Z Z^*)^t.
    """

    parts: tuple
    pair: Optional[str] = None

    @property
    def order(self) -> int:
        return len(self.parts)

    def reconstruct(self):
        if self.pair is not None:
            z, zbar = _PAIRS[self.pair]
            weight = Poly4.variable(z) * Poly4.variable(zbar)
        else:
            weight = BicomplexFunction.variable() * BicomplexFunction.variable_star()
        return _power_sum({(t,): part for t, part in enumerate(self.parts)}, (weight,))


def _pair_indices(poly: Poly4, pair: str) -> tuple[int, int]:
    """The (z, zbar) indices of the named pair, which ``poly`` must use alone."""
    if pair not in _PAIRS:
        raise ArgumentError(f"pair must be 'alpha' or 'beta', got {pair!r}")
    if not poly.uses_only(_PAIRS[pair]):
        raise MixedPairError(f"polynomial must use only the {pair} variable pair")
    return _PAIRS[pair]


def _almansi_layers(poly: Poly4, pair: tuple[int, int]) -> list[Poly4]:
    """Assign each monomial to layer min(p, q) in the pair's exponents,
    keeping the residual (a pure power of z or zbar times the parameters)."""
    order = pair_polyharmonic_order(poly, pair)
    z, zbar = pair
    layers: list[dict] = [dict() for _ in range(order)]
    for key, coeff in poly.terms.items():
        p, q = key[z], key[zbar]
        t = min(p, q)
        residual = list(key)
        residual[z] = p - t
        residual[zbar] = q - t
        layers[t][tuple(residual)] = coeff  # distinct keys stay distinct
    return [Poly4(layer) for layer in layers]


def almansi_complex(poly: Poly4, pair: str = "alpha") -> AlmansiDecomposition:
    """Layered harmonic decomposition of a polynomial in one variable pair."""
    indices = _pair_indices(poly, pair)
    return AlmansiDecomposition(tuple(_almansi_layers(poly, indices)), pair=pair)


def almansi_bicomplex(fn: BicomplexFunction) -> AlmansiDecomposition:
    """Bicomplex layered decomposition: F = sum of (Z Z^*)^t H_t with every
    H_t annihilated by the bicomplex Laplacian.

    Works componentwise, each component in its own pair with the other pair
    riding along as parameters, so the order under the bicomplex Laplacian
    is the longer of the two layer lists; the shorter is padded with zeros.
    """
    parts = zip_longest(
        _almansi_layers(fn.plus, PAIR_ALPHA),
        _almansi_layers(fn.minus, PAIR_BETA),
        fillvalue=Poly4.zero(),
    )
    return AlmansiDecomposition(tuple(BicomplexFunction(p, m) for p, m in parts), pair=None)


def repart_to_polyanalytic(poly: Poly4, pair: str = "alpha") -> Poly4:
    """Invert the real part on one variable pair.

    For real-valued u = sum c_pq z^p zbar^q (so c_qp = conj(c_pq)) return
    f = sum over p > q of 2 c_pq z^p zbar^q, plus the diagonal kept with
    weight one; then Re f = u exactly and the conjugate-exponent order of f
    equals the layer count of u.  No output monomial has q > p.
    """
    indices = _pair_indices(poly, pair)
    # the other pair's exponents are zero, so bar-fixed is the symmetry
    if not poly.is_bar_fixed():
        raise NotRealValued(
            "coefficient symmetry c[q,p] = conj(c[p,q]) fails; the input is not real-valued"
        )
    z, zbar = indices
    out: dict = {}
    for key, coeff in poly.terms.items():
        p, q = key[z], key[zbar]
        if p > q:
            out[key] = coeff * 2
        elif p == q:
            out[key] = coeff
    return Poly4(out)


def _invert_pair(fn: BicomplexFunction) -> BicomplexFunction:
    """Invert the real part of each component on its own variable pair."""
    return BicomplexFunction(
        repart_to_polyanalytic(fn.plus, "alpha"),
        repart_to_polyanalytic(fn.minus, "beta"),
    )


def _require_kernel(fn: BicomplexFunction, name: str, op, power: int = 1) -> None:
    if annihilation_order(fn, op) > power:
        raise PreconditionViolation(name, f"precondition failed: {name} does not annihilate the input")


def rehyp_to_holomorphic(fn: BicomplexFunction) -> BicomplexFunction:
    """Produce the componentwise-holomorphic function whose hyperbolic real
    part is the given one.

    Preconditions: hyperbolic-valued, annihilated by the bicomplex Laplacian
    and by both the dagger- and tilde-direction derivatives.  The output is
    normalized to zero hyperbolic-imaginary part at the origin (its constant
    coefficients are real).
    """
    if not fn.is_hyperbolic_valued():
        raise NotHyperbolicValued("input must be hyperbolic-valued (components fixed by bar)")
    _require_kernel(fn, "d1-harmonic", laplacian(1))
    _require_kernel(fn, "dZdagger-kernel", wirtinger("Zdagger"))
    _require_kernel(fn, "dZtilde-kernel", wirtinger("Ztilde"))
    return _invert_pair(fn)


def rehyp_to_polyholomorphic_A1(fn: BicomplexFunction) -> tuple[BicomplexFunction, tuple[int, int]]:
    """Invert the hyperbolic real part within the first-kind class.

    Preconditions: hyperbolic-valued and annihilated by the dagger- and
    tilde-direction derivatives (each component on its own pair).  Returns
    the inverted function together with its exact componentwise conjugate
    orders (r, s); their max is the layer count of the input.
    """
    if not fn.is_hyperbolic_valued():
        raise NotHyperbolicValued("input must be hyperbolic-valued (components fixed by bar)")
    _require_kernel(fn, "dZdagger-kernel", wirtinger("Zdagger"))
    _require_kernel(fn, "dZtilde-kernel", wirtinger("Ztilde"))
    inverted = _invert_pair(fn)
    orders = (
        pair_polyharmonic_order(fn.plus, PAIR_ALPHA),
        pair_polyharmonic_order(fn.minus, PAIR_BETA),
    )
    return inverted, orders


# the bases of the two-index kernel decomposition
_DAGGER_TILDE = (BicomplexFunction.variable_dagger(), BicomplexFunction.variable_tilde())


@dataclass(frozen=True)
class MainDecomposition:
    """Two-index kernel decomposition of a hyperbolic-valued function.

    ``coeffs`` maps (l1, l2) to the coefficient function G with plus part in
    (alpha, conj alpha) and minus part in (beta, conj beta), satisfying
    F = sum G_(l1,l2) * Zdagger^l1 * Ztilde^l2.  ``inverted`` carries the
    refined form (each coefficient replaced by a first-kind function whose
    hyperbolic real part it is) and is present only when every coefficient is
    real-valued; otherwise ``non_real`` lists the offending components.
    """

    bound_dagger: int
    bound_tilde: int
    coeffs: dict[tuple[int, int], BicomplexFunction]
    inverted: Optional[dict[tuple[int, int], BicomplexFunction]]
    non_real: tuple[tuple[str, int, int], ...] = field(default_factory=tuple)

    def reconstruct(self) -> BicomplexFunction:
        return _power_sum(self.coeffs, _DAGGER_TILDE)

    def reconstruct_from_inverted(self) -> BicomplexFunction:
        if self.inverted is None:
            raise NotRealValued(
                "no refined form: some coefficient functions are not real-valued"
            )
        rehyps = {index: fn.hyperbolic_part() for index, fn in self.inverted.items()}
        return _power_sum(rehyps, _DAGGER_TILDE)


def main_decomposition(fn: BicomplexFunction, bound_dagger: int, bound_tilde: int) -> MainDecomposition:
    """Decompose a hyperbolic-valued F with dagger^n- and tilde^k-kernel
    bounds into coefficient functions times dagger/tilde coordinate powers.

    The coefficients are extracted by matching powers: the plus component in
    (beta, conj beta), the minus component in (alpha, conj alpha).  When all
    extracted coefficients are real-valued the refined inverted form is
    produced as well; a hyperbolic-valued input only forces the cross
    symmetry pairing (l1, l2) with (l2, l1), so non-real coefficients are
    possible and reported instead of guessed around.
    """
    if bound_dagger < 1 or bound_tilde < 1:
        raise ArgumentError("kernel bounds must be at least 1")
    if not fn.is_hyperbolic_valued():
        raise NotHyperbolicValued("input must be hyperbolic-valued (components fixed by bar)")
    _require_kernel(fn, f"dZdagger^{bound_dagger}-kernel", wirtinger("Zdagger"), bound_dagger)
    _require_kernel(fn, f"dZtilde^{bound_tilde}-kernel", wirtinger("Ztilde"), bound_tilde)

    coeffs = _merge_groups(fn.plus.group_by((2, 3)), fn.minus.group_by((0, 1)))

    non_real: list[tuple[str, int, int]] = []
    for (l1, l2), coeff in coeffs.items():
        if not coeff.plus.is_bar_fixed():
            non_real.append(("plus", l1, l2))
        if not coeff.minus.is_bar_fixed():
            non_real.append(("minus", l1, l2))
    non_real.sort()

    inverted = None
    if not non_real:
        inverted = {index: _invert_pair(coeff) for index, coeff in coeffs.items()}
    return MainDecomposition(
        bound_dagger=bound_dagger,
        bound_tilde=bound_tilde,
        coeffs=coeffs,
        inverted=inverted,
        non_real=tuple(non_real),
    )
