from fractions import Fraction

import pytest
from hypothesis import given

from bcpoly import Bicomplex, EvalLimitError, GaussianRational, E_PLUS, I, J, ONE
from bcpoly.polyfun import MAX_EVAL_BITS, BicomplexFunction, Poly4

from strategies import bicomplexes, conjugation_kinds, functions


Z = BicomplexFunction.variable
ZS = BicomplexFunction.variable_star
ZD = BicomplexFunction.variable_dagger
ZT = BicomplexFunction.variable_tilde

ALPHA = Poly4.variable(0)
ALPHA_BAR = Poly4.variable(1)
BETA = Poly4.variable(2)
BETA_BAR = Poly4.variable(3)


def cross_term() -> BicomplexFunction:
    shared = (ALPHA + ALPHA_BAR) * (BETA + BETA_BAR)
    return BicomplexFunction.from_shared(shared)


def realizer() -> BicomplexFunction:
    return BicomplexFunction(
        (ALPHA_BAR * (BETA + BETA_BAR)).scale(2),
        (BETA_BAR * (ALPHA + ALPHA_BAR)).scale(2),
    )


def test_star_times_dagger_components():
    product = ZS() * ZD()
    assert product.plus == ALPHA_BAR * BETA
    assert product.minus == BETA_BAR * ALPHA


def test_multiplicative_identity():
    f = realizer()
    assert f * BicomplexFunction.constant(1) == f


def test_z_times_zstar_components():
    product = Z() * ZS()
    assert product.plus == ALPHA * ALPHA_BAR
    assert product.minus == BETA * BETA_BAR


def test_conjugate_of_identity_is_coordinate_functions():
    assert Z().conjugate("star") == ZS()
    assert Z().conjugate("dagger") == ZD()
    assert Z().conjugate("tilde") == ZT()


def test_dagger_involution_and_real_fixed_point():
    f = realizer()
    assert f.conjugate("dagger").conjugate("dagger") == f
    cross = cross_term()
    assert cross.conjugate("star") == cross


def test_evaluate_square_at_one_plus_j():
    point = ONE + J
    assert (Z() ** 2).evaluate(point) == 2 * J


def test_evaluation_work_is_bounded():
    point = ONE + J  # alpha = 1 - i and beta = 1 + i: one bit each
    top = MAX_EVAL_BITS  # each component of Z^e raises one coordinate to e
    assert (Z() ** top).evaluate(point) == point ** top
    with pytest.raises(EvalLimitError, match="limit of"):
        (Z() ** (top + 1)).evaluate(point)


def test_evaluate_at_zero_gives_constant_terms():
    f = realizer() + BicomplexFunction.constant(Bicomplex(GaussianRational(2, 1), GaussianRational(0, 3)))
    assert f.evaluate(Bicomplex(0, 0)) == Bicomplex(GaussianRational(2, 1), GaussianRational(0, 3))


def test_cross_term_vanishes_at_e_plus():
    assert cross_term().evaluate(E_PLUS) == Bicomplex(0, 0)


def test_hyperbolic_part_of_identity():
    part = Z().hyperbolic_part()
    assert part.plus == (ALPHA + ALPHA_BAR).scale(Fraction(1, 2))
    assert part.minus == (BETA + BETA_BAR).scale(Fraction(1, 2))


def test_real_part_of_realizer_is_cross_term():
    assert realizer().real_part() == cross_term()


def test_hyperbolic_part_of_imaginary_constant_vanishes():
    f = BicomplexFunction.constant(I).scale(Bicomplex.coerce(Fraction(7, 3)))
    assert f.hyperbolic_part().is_zero()


def test_degrees_examples():
    assert cross_term().plus.degrees() == (1, 1, 1, 1)
    assert BicomplexFunction.constant(5).plus.degrees() == (0, 0, 0, 0)
    zs_cubed = ZS() ** 3
    assert zs_cubed.plus.degrees() == (0, 3, 0, 0)
    assert BicomplexFunction.zero().plus.degrees() == (None, None, None, None)


def test_scalar_multiplication_splits_components():
    f = cross_term()
    scaled = f.scale(E_PLUS)
    assert scaled.plus == f.plus
    assert scaled.minus.is_zero()


@given(functions(), bicomplexes(), conjugation_kinds())
def test_pointwise_conjugation_consistency(f, z, kind):
    assert f.conjugate(kind).evaluate(z) == f.evaluate(z).conjugate(kind)


@given(functions(), bicomplexes())
def test_hyperbolic_valued_iff_bar_fixed(f, z):
    hyp = f.hyperbolic_part()
    assert hyp.is_hyperbolic_valued()
    assert hyp.evaluate(z).is_hyperbolic()


@given(functions())
def test_real_parts_projection_properties(f):
    hyp = f.hyperbolic_part()
    assert hyp.hyperbolic_part() == hyp
    assert f.real_part().is_real_valued()


@given(functions(), functions(), bicomplexes())
def test_product_evaluates_pointwise(f, g, z):
    assert (f * g).evaluate(z) == f.evaluate(z) * g.evaluate(z)


def test_zero_coefficients_never_stored():
    p = Poly4({(1, 0, 0, 0): GaussianRational(1)}) + Poly4({(1, 0, 0, 0): GaussianRational(-1)})
    assert p.is_zero() and p.terms == {}


@given(functions())
def test_conjugation_follows_the_pair_rule(f):
    assert f.conjugate("dagger") == BicomplexFunction(f.minus, f.plus)
    assert f.conjugate("star") == BicomplexFunction(f.plus.bar(), f.minus.bar())
    assert f.conjugate("tilde") == BicomplexFunction(f.minus.bar(), f.plus.bar())
