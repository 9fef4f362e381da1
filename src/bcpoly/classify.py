"""Exact-order classification of polynomial bicomplex functions.

:func:`annihilation_order` decides every order below: in closed form when
each operator component is one derivative monomial d^κ (the Wirtinger
operators, d1-d6, their powers), by iteration otherwise (d7, sums):

* the annihilation signature (m, n, k): minimal powers with
  ``d/dZ*^m f = d/dZ~^n f = d/dZ^dagger^k f = 0``;
* the polyharmonic order of f with respect to any of the Laplacians;
* membership in the structured classes: componentwise-holomorphic functions,
  the first-kind class (each component polyanalytic in its own variable
  pair), and the conjugate-power class it spans.

:func:`polyharmonic_order` and :func:`signature_by_iteration` iterate; they
are the independent oracle for the closed form.

The zero function is assigned order 0 and signature (0, 0, 0) so that every
operation stays total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bicomplex import BicomplexError
from .operators import Operator, laplacian, wirtinger
from .polyfun import NVARS, BicomplexFunction, Poly4

__all__ = [
    "NotNilpotent",
    "Signature",
    "ClassMembership",
    "annihilation_order",
    "polyharmonic_order",
    "pair_polyharmonic_order",
    "signature_by_degrees",
    "signature_by_iteration",
    "class_membership",
    "laplacian_orders",
    "classification_report",
]


_SIGNATURE_KINDS = ("Zstar", "Ztilde", "Zdagger")


class NotNilpotent(BicomplexError):
    """Raised when iterated application never reaches zero within the cap."""


@dataclass(frozen=True)
class Signature:
    """Minimal annihilation triple under (d/dZ*, d/dZ~, d/dZ^dagger)."""

    m: int
    n: int
    k: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.k)


@dataclass(frozen=True)
class ClassMembership:
    """Structured class flags for one function.

    ``a1_orders`` is the (m, n) pair of exact componentwise polyanalytic
    orders when each component depends only on its own variable pair, else
    ``None``; ``zstar_order`` is their max (the conjugate-power order).
    """

    is_bc_holomorphic: bool
    a1_orders: Optional[tuple[int, int]]
    zstar_order: Optional[int]


def polyharmonic_order(fn: BicomplexFunction, op: Operator) -> int:
    """Smallest p >= 0 with op^p fn = 0 (0 only for the zero function).

    Iteration stops after total degree + 2 applications, which guards
    against non-degree-lowering operators; every Laplacian strictly lowers
    a degree functional, so that many always suffice.
    """
    cap = fn.total_degree() + 2
    count = 0
    current = fn
    while not current.is_zero():
        if count >= cap:
            raise NotNilpotent(f"operator did not annihilate the function within {cap} applications")
        current = op.apply(current)
        count += 1
    return count


def _order_under(poly: Poly4, kappa: tuple[int, ...]) -> int:
    """Smallest p >= 0 with (d^κ)^p poly = 0: 0 for the zero polynomial,
    else 1 + max over terms of min over κ_i > 0 of floor(e_i / κ_i)."""
    if not poly.terms:
        return 0
    return 1 + max(min(e // c for e, c in zip(key, kappa) if c) for key in poly.terms)


def annihilation_order(fn: BicomplexFunction, op: Operator) -> int:
    """Smallest p >= 0 with op^p fn = 0: ``(op ** p).apply(fn).is_zero()``
    exactly when p >= this order.  Operators that are not single derivative
    monomials go to :func:`polyharmonic_order`, which may raise
    :class:`NotNilpotent`."""
    # the closed form needs each component to be one monomial c*d^κ, κ != 0
    kappas = [key for part in (op.plus, op.minus) if len(part) == 1 for key in part.terms if any(key)]
    if len(kappas) != 2:
        return polyharmonic_order(fn, op)
    return max(_order_under(fn.plus, kappas[0]), _order_under(fn.minus, kappas[1]))


def pair_polyharmonic_order(poly: Poly4, pair: tuple[int, int]) -> int:
    """Order of one component under its own-pair Laplacian d_z d_zbar,
    treating the other two variables as coefficient parameters."""
    return _order_under(poly, tuple(int(var in pair) for var in range(NVARS)))


def signature_by_degrees(fn: BicomplexFunction) -> Signature:
    """Signature read off the componentwise conjugate-variable degrees."""
    return Signature(*(annihilation_order(fn, wirtinger(kind)) for kind in _SIGNATURE_KINDS))


def signature_by_iteration(fn: BicomplexFunction) -> Signature:
    """Independent route: brute-force iteration of the three operators."""
    return Signature(*(polyharmonic_order(fn, wirtinger(kind)) for kind in _SIGNATURE_KINDS))


def class_membership(fn: BicomplexFunction) -> ClassMembership:
    holo = fn.plus.uses_only((0,)) and fn.minus.uses_only((2,))
    a1: Optional[tuple[int, int]] = None
    zstar: Optional[int] = None
    if fn.plus.uses_only((0, 1)) and fn.minus.uses_only((2, 3)):
        # per-component orders under d/dZ* = (d/d conj alpha, d/d conj beta)
        a1 = (_order_under(fn.plus, (0, 1, 0, 0)), _order_under(fn.minus, (0, 0, 0, 1)))
        zstar = max(a1)
    return ClassMembership(holo, a1, zstar)


def laplacian_orders(fn: BicomplexFunction) -> dict[str, int]:
    return {f"d{i}": annihilation_order(fn, laplacian(i)) for i in range(1, 8)}


def classification_report(fn: BicomplexFunction) -> dict:
    """JSON-ready report combining signature, class flags, and orders."""
    sig = signature_by_degrees(fn)
    member = class_membership(fn)
    return {
        "signature": list(sig.as_tuple()),
        "bc_holomorphic": member.is_bc_holomorphic,
        "a1": list(member.a1_orders) if member.a1_orders is not None else None,
        "zstar_order": member.zstar_order,
        "orders": laplacian_orders(fn),
    }
