"""The integer kernels of ``Poly4`` and the expression lowering against the
GaussianRational reference loops of ``reference_poly``."""

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given

from bcpoly import GaussianRational, format_function, parse
from bcpoly.polyfun import BicomplexFunction, Poly4

from reference_poly import ref_mul, ref_pow, ref_substitute
from strategies import gaussians, monomials

# few distinct coefficients and low degrees, so that products collide on
# keys and cancel to zero, some mid-sum and then come back
_CANCELLING = st.sampled_from(
    [GaussianRational(1), GaussianRational(-1), GaussianRational(Fraction(1, 2)),
     GaussianRational(Fraction(-1, 2)), GaussianRational(0, Fraction(1, 3)), GaussianRational(0, Fraction(-1, 3))]
)


def cancelling_polys():
    return st.dictionaries(monomials(1), _CANCELLING, max_size=6).map(Poly4)


def mixed_polys():
    return st.dictionaries(monomials(3), gaussians(), max_size=5).map(Poly4)


def same(p: Poly4, q: Poly4) -> bool:
    """Equal terms in the same order."""
    return list(p.terms.items()) == list(q.terms.items())


@given(st.one_of(cancelling_polys(), mixed_polys()), st.one_of(cancelling_polys(), mixed_polys()))
def test_mul_matches_reference(p, q):
    assert same(p * q, ref_mul(p, q))


@given(cancelling_polys(), cancelling_polys())
def test_mul_with_cancellation_to_zero(p, q):
    product = (p + q) * (p - q)
    assert same(product, ref_mul(p + q, p - q))
    assert product == p * p - q * q
    assert (p * (q - q)).is_zero()


@given(st.one_of(cancelling_polys(), mixed_polys()), st.integers(0, 5))
def test_pow_matches_reference(p, n):
    assert same(p ** n, ref_pow(p, n))


@given(mixed_polys(), st.tuples(gaussians(), gaussians(), gaussians(), gaussians()))
def test_substitute_matches_reference(p, values):
    assert p.substitute(values) == ref_substitute(p, values)


def test_round_trip_above_a_thousand_terms():
    rng = random.Random(7)

    def poly():
        return Poly4({
            (a, b, c, d): GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)), Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
            for a in range(6) for b in range(6) for c in range(6) for d in range(6)
        })

    f = BicomplexFunction(poly(), poly())
    assert min(len(f.plus.terms), len(f.minus.terms)) > 1001
    assert parse(format_function(f), raw=True) == f
