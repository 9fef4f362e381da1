"""Seeded random generators for the verification harness and tests.

All draws come from one ``random.Random`` stream per sampler, so a given
seed reproduces the exact same inputs; ``tests/golden/sampler.json`` pins
that stream.  An integer in [lo, hi] is drawn on raw bits, as
``random.Random`` draws below n = hi - lo + 1: ``getrandbits(k)`` with k the
bit length of n, drawn again while it is at least n, plus lo.  That
consumes the same bits and gives the same value as ``randint(lo, hi)`` and
``choice(range(lo, hi + 1))``, at less cost.  Class-constrained generators build
membership in by construction (never by rejection); the exact-order
generators additionally plant anchor monomials at the extreme exponents so
the advertised orders hold deterministically, not just generically.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bicomplex import ArgumentError, Bicomplex, GaussianRational
from .operators import Operator
from .polyfun import _PAIRS, BicomplexFunction, Poly4

__all__ = ["Sampler"]

Box = tuple[int, int, int, int]


class Sampler:
    """Deterministic source of random exact-arithmetic objects."""

    def __init__(self, seed: int, max_degree: int = 4, coeff_bound: int = 9):
        if max_degree < 0 or coeff_bound < 1:
            raise ArgumentError("max_degree must be >= 0 and coeff_bound >= 1")
        self.rng = random.Random(seed)
        self._getrandbits = self.rng.getrandbits  # bound once, for _int
        self.max_degree = max_degree
        self.coeff_bound = coeff_bound
        # drawn fractions by (numerator, denominator), filled as they are
        # drawn: at most (2b+1)*b entries, never more than the draws made
        self._fractions: dict[tuple[int, int], Fraction] = {}

    def _int(self, lo: int, hi: int) -> int:
        n = hi - lo + 1
        k = n.bit_length()
        getrandbits = self._getrandbits
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    # ------------------------------------------------------------- scalars

    def fraction(self, nonzero: bool = False) -> Fraction:
        draw, bound = self._int, self.coeff_bound
        while True:
            n, d = draw(-bound, bound), draw(1, bound)
            q = self._fractions.get((n, d))
            if q is None:
                q = self._fractions[n, d] = Fraction(n, d)
            if not nonzero or n:
                return q

    def gaussian(self, nonzero: bool = False) -> GaussianRational:
        while True:
            g = GaussianRational(self.fraction(), self.fraction())
            if not nonzero or not g.is_zero():
                return g

    def gaussian_with_real_part(self) -> GaussianRational:
        return GaussianRational(self.fraction(nonzero=True), self.fraction())

    def bicomplex(self, invertible: bool = False) -> Bicomplex:
        while True:
            value = Bicomplex(self.gaussian(), self.gaussian())
            if not invertible or not value.is_null_cone():
                return value

    # ---------------------------------------------------------- polynomials

    def _box(self, box: Box | None) -> Box:
        if box is None:
            d = self.max_degree
            return (d, d, d, d)
        return box

    def monomial_key(self, box: Box | None = None) -> tuple[int, int, int, int]:
        draw = self._int
        b0, b1, b2, b3 = self._box(box)
        return (draw(0, b0), draw(0, b1), draw(0, b2), draw(0, b3))

    def poly(self, box: Box | None = None, terms: int | None = None) -> Poly4:
        if terms is None:
            terms = self._int(1, 4)
        out: dict = {}
        for _ in range(terms):
            out[self.monomial_key(box)] = self.gaussian(nonzero=True)
        return Poly4._raw(out)

    def bar_fixed_poly(self, box: Box | None = None) -> Poly4:
        """A real-valued polynomial: p + bar(p) for a random p."""
        half = self.poly(box)
        return half + half.bar()

    def function(self) -> BicomplexFunction:
        return BicomplexFunction(self.poly(), self.poly())

    def operator(self) -> Operator:
        box, terms = (2, 2, 2, 2), self._int(1, 3)
        return Operator(self.poly(box, terms), self.poly(box, terms))

    # --------------------------------------------------- constrained classes

    def _pair_box(self, pair: str) -> Box:
        """The degree box of ``pair``'s two variables, 0 in the others."""
        d = self.max_degree
        return tuple(d if var in _PAIRS[pair] else 0 for var in range(4))  # type: ignore[return-value]

    def pair_poly(self, pair: str) -> Poly4:
        return self.poly(self._pair_box(pair))

    def real_valued_pair_poly(self, pair: str) -> Poly4:
        return self.bar_fixed_poly(self._pair_box(pair))

    def holomorphic_poly(self, pair: str, real_constant: bool = False) -> Poly4:
        """Polynomial in alpha only (pair 'alpha') or beta only (pair 'beta')."""
        var = _PAIRS[pair][0]
        out: dict = {}
        for _ in range(self._int(1, 4)):
            key = [0, 0, 0, 0]
            key[var] = self._int(0, self.max_degree)
            out[tuple(key)] = self.gaussian(nonzero=True)
        if real_constant:
            zero = (0, 0, 0, 0)
            if zero in out:
                out[zero] = GaussianRational(self.fraction())
                if out[zero].is_zero():
                    del out[zero]
        return Poly4._raw(out)

    def bc_holomorphic(self, real_constants: bool = False) -> BicomplexFunction:
        return BicomplexFunction(
            self.holomorphic_poly("alpha", real_constants),
            self.holomorphic_poly("beta", real_constants),
        )

    def hyperbolic_valued_function(self) -> BicomplexFunction:
        return BicomplexFunction(self.bar_fixed_poly(), self.bar_fixed_poly())

    def real_valued_function(self) -> BicomplexFunction:
        return BicomplexFunction.from_shared(self.bar_fixed_poly())

    def _anchored_pair_component(self, var: int, conj_var: int, order: int, normalized: bool) -> Poly4:
        """Polynomial on one pair with exact conjugate-variable order
        ``order`` (anchor at conj exponent order-1, plain exponent strictly
        larger), optionally with no monomial whose conjugate exponent exceeds
        the plain one and a real diagonal."""
        if order == 0:
            return Poly4.zero()
        top = max(self.max_degree, order)
        out: dict = {}
        for _ in range(self._int(1, 4)):
            key = [0, 0, 0, 0]
            key[conj_var] = self._int(0, order - 1)
            low = key[conj_var] if normalized else 0
            key[var] = self._int(low, top)
            coeff = self.gaussian(nonzero=True)
            if normalized and key[var] == key[conj_var]:
                coeff = GaussianRational(self.fraction(nonzero=True))
            out[tuple(key)] = coeff
        anchor = [0, 0, 0, 0]
        anchor[var] = top
        anchor[conj_var] = order - 1
        out[tuple(anchor)] = self.gaussian_with_real_part()
        return Poly4._raw(out)

    def a1_function(self, m: int, n: int, normalized: bool = False) -> BicomplexFunction:
        """First-kind function with exact componentwise conjugate orders (m, n).

        With ``normalized`` the components carry no monomial whose conjugate
        exponent exceeds the plain one and real diagonal coefficients, which
        makes them fixed points of the real-part inversion round trip.
        """
        return BicomplexFunction(
            self._anchored_pair_component(0, 1, m, normalized),
            self._anchored_pair_component(2, 3, n, normalized),
        )

    def a2_function(self, m: int, n: int, k: int) -> BicomplexFunction:
        """Function with exact annihilation signature (m, n, k), anchored.

        Plus component: conj-alpha degree exactly m-1, beta degree exactly
        k-1, conj-beta degree exactly n-1, alpha degree reaching past m-1.
        Minus component symmetric under the dagger swap of roles.
        """
        if min(m, n, k) < 1:
            raise ArgumentError("signature components must be >= 1")
        top = max(self.max_degree, m)
        plus: dict = {}
        minus: dict = {}
        for _ in range(self._int(1, 4)):
            plus[(self._int(0, top), self._int(0, m - 1),
                  self._int(0, k - 1), self._int(0, n - 1))] = self.gaussian(nonzero=True)
            minus[(self._int(0, k - 1), self._int(0, n - 1),
                   self._int(0, top), self._int(0, m - 1))] = self.gaussian(nonzero=True)
        # anchors: exact orders for the signature, the pair Laplacians, and
        # the dagger conjugate, all survive because their exponents exceed
        # the random boxes in at least one slot or are planted last
        plus[(top, m - 1, 0, 0)] = self.gaussian_with_real_part()
        plus[(0, 0, k - 1, n - 1)] = self.gaussian_with_real_part()
        minus[(0, 0, top, m - 1)] = self.gaussian_with_real_part()
        minus[(k - 1, n - 1, 0, 0)] = self.gaussian_with_real_part()
        return BicomplexFunction(Poly4._raw(plus), Poly4._raw(minus))

    def hyperbolic_imaginary_function(self, box_plus: Box, box_minus: Box) -> BicomplexFunction:
        """A function whose hyperbolic real part vanishes identically."""
        real = BicomplexFunction(self.bar_fixed_poly(box_plus), self.bar_fixed_poly(box_minus))
        return real.scale(GaussianRational(0, 1))

    def kernel_box_function(
        self, bound_dagger: int, bound_tilde: int, real_coeffs: bool
    ) -> tuple[BicomplexFunction, list[tuple[str, int, int]]]:
        """Hyperbolic-valued F inside the dagger^n / tilde^k kernel box.

        Hyperbolic-valuedness pairs the (l1, l2) coefficient with the bar of
        the (l2, l1) one, which confines the support to the square
        min(n, k) box.  With ``real_coeffs`` every coefficient is
        real-valued; otherwise at least one off-diagonal pair is made
        non-real (requires min(n, k) >= 2) and the offending component
        indices are returned.
        """
        side = min(bound_dagger, bound_tilde)
        if not real_coeffs and side < 2:
            raise ArgumentError("non-real coefficients need min(bounds) >= 2")
        plus_coeffs: dict[tuple[int, int], Poly4] = {}
        minus_coeffs: dict[tuple[int, int], Poly4] = {}
        forced = None
        if not real_coeffs:
            candidates = [(l1, l2) for l1 in range(side) for l2 in range(l1 + 1, side)]
            forced = self.rng.choice(candidates)
        for l1 in range(side):
            plus_coeffs[(l1, l1)] = self.real_valued_pair_poly("alpha")
            minus_coeffs[(l1, l1)] = self.real_valued_pair_poly("beta")
            for l2 in range(l1 + 1, side):
                make_non_real = not real_coeffs and ((l1, l2) == forced or self.rng.random() < 0.5)
                if make_non_real:
                    a = self._non_bar_fixed_pair_poly("alpha")
                    b = self._non_bar_fixed_pair_poly("beta")
                else:
                    a = self.real_valued_pair_poly("alpha")
                    b = self.real_valued_pair_poly("beta")
                plus_coeffs[(l1, l2)], plus_coeffs[(l2, l1)] = a, a.bar()
                minus_coeffs[(l1, l2)], minus_coeffs[(l2, l1)] = b, b.bar()
        # each group is shifted by its own (l1, l2), so the groups' keys are
        # disjoint and their sum is their terms one after another
        plus: dict = {}
        minus: dict = {}
        for (l1, l2), coeff in plus_coeffs.items():
            plus.update(((a, b, c + l1, d + l2), g) for (a, b, c, d), g in coeff.terms.items())
        for (l1, l2), coeff in minus_coeffs.items():
            minus.update(((a + l1, b + l2, c, d), g) for (a, b, c, d), g in coeff.terms.items())
        fn = BicomplexFunction(Poly4._raw(plus), Poly4._raw(minus))
        non_real: list[tuple[str, int, int]] = []
        for (l1, l2) in sorted(plus_coeffs):
            if not plus_coeffs[(l1, l2)].is_bar_fixed():
                non_real.append(("plus", l1, l2))
            if not minus_coeffs[(l1, l2)].is_bar_fixed():
                non_real.append(("minus", l1, l2))
        return fn, sorted(non_real)

    def _non_bar_fixed_pair_poly(self, pair: str) -> Poly4:
        """A pair polynomial that is definitely not real-valued."""
        z, zbar = _PAIRS[pair]
        while True:
            poly = self.pair_poly(pair)
            key = [0, 0, 0, 0]
            key[z] = self._int(0, self.max_degree)
            key[zbar] = self._int(0, self.max_degree)
            bump = dict(poly.terms)
            bump[tuple(key)] = self.gaussian(nonzero=True)
            candidate = Poly4._raw(bump)
            if not candidate.is_bar_fixed() and not candidate.is_zero():
                return candidate
