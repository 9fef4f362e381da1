from fractions import Fraction

import pytest
from hypothesis import given

from bcpoly import GaussianRational, Hyperbolic, Operator, laplacian, parse, wirtinger
from bcpoly.operators import WIRTINGER_KINDS
from bcpoly.polyfun import BicomplexFunction, Poly4

from strategies import functions, polys

from test_polyfun import ALPHA, ALPHA_BAR, BETA, BETA_BAR, cross_term


def operators():
    import hypothesis.strategies as st

    return st.builds(Operator, polys(max_degree=2), polys(max_degree=2))


def test_wirtinger_component_table():
    assert wirtinger("Z") == Operator(Poly4.variable(0), Poly4.variable(2))
    assert wirtinger("Zstar") == Operator(Poly4.variable(1), Poly4.variable(3))
    assert wirtinger("Zdagger") == Operator(Poly4.variable(2), Poly4.variable(0))
    assert wirtinger("Ztilde") == Operator(Poly4.variable(3), Poly4.variable(1))
    with pytest.raises(ValueError):
        wirtinger("bogus")


def test_star_derivative_of_cross_term():
    image = wirtinger("Zstar").apply(cross_term())
    assert image.plus == BETA + BETA_BAR
    assert image.minus == ALPHA + ALPHA_BAR


def test_holomorphic_kernel_conditions():
    cubed = BicomplexFunction.variable() ** 3
    for kind in ("Zstar", "Zdagger", "Ztilde"):
        assert wirtinger(kind).apply(cubed).is_zero()


def test_power_rule():
    z = BicomplexFunction.variable()
    d = wirtinger("Z")
    for n in range(1, 6):
        assert d.apply(z ** n) == (z ** (n - 1)).scale(n)


def test_operational_conjugates_of_z_derivative():
    d = wirtinger("Z")
    assert d.conjugate("star_op") == wirtinger("Zstar")
    assert d.conjugate("dagger_op") == wirtinger("Zdagger")
    assert d.conjugate("tilde_op") == wirtinger("Ztilde")


def test_laplacian_table_matches_compositions():
    w = {kind: wirtinger(kind) for kind in ("Z", "Zstar", "Zdagger", "Ztilde")}
    assert laplacian(1) == w["Z"] * w["Zstar"]
    assert laplacian(2) == w["Z"] * w["Zdagger"]
    assert laplacian(3) == w["Z"] * w["Ztilde"]
    assert laplacian(4) == w["Zstar"] * w["Zdagger"]
    assert laplacian(5) == w["Zstar"] * w["Ztilde"]
    assert laplacian(6) == w["Zdagger"] * w["Ztilde"]
    assert laplacian(7) == laplacian(1) + laplacian(6)
    # the second Laplacian acts identically on both components
    assert laplacian(2).plus == laplacian(2).minus
    with pytest.raises(ValueError):
        laplacian(8)


def test_cross_term_laplacian_values():
    cross = cross_term()
    assert laplacian(1).apply(cross).is_zero()
    assert laplacian(5).apply(cross) == BicomplexFunction.constant(1)
    assert laplacian(7).apply(BicomplexFunction.constant(9)).is_zero()


def test_identity_and_k_multiplication_action():
    f = cross_term() + BicomplexFunction.variable() ** 2
    assert Operator.identity().apply(f) == f
    sigma = Operator.k_multiplication()
    assert sigma.apply(f) == BicomplexFunction(f.plus, -f.minus)
    assert sigma * sigma == Operator.identity()


def test_reduction_identity_dagger_fixed_example():
    f = cross_term() + BicomplexFunction.variable_star() ** 2
    lhs = laplacian(6).apply(f)
    rhs = laplacian(1).apply(f.conjugate("dagger")).conjugate("dagger")
    assert lhs == rhs


def test_j_parts_round_trip():
    op = laplacian(3) + wirtinger("Z").scale(2)
    part1, part2 = op.j_parts()
    assert Operator.from_j_parts(part1, part2) == op


@given(operators())
def test_op_conjugation_involutions_and_rotations(op):
    c = op.conjugate
    for kind in ("star_op", "dagger_op", "tilde_op"):
        assert c(kind).conjugate(kind) == op
    assert c("star_op").conjugate("dagger_op") == c("tilde_op")
    assert c("dagger_op").conjugate("star_op") == c("tilde_op")
    assert c("star_op").conjugate("tilde_op") == c("dagger_op")
    assert c("tilde_op").conjugate("star_op") == c("dagger_op")
    assert c("dagger_op").conjugate("tilde_op") == c("star_op")
    assert c("tilde_op").conjugate("dagger_op") == c("star_op")


@given(operators(), operators())
def test_composition_commutes(a, b):
    assert a * b == b * a


@given(functions())
def test_reduction_identities_random(f):
    assert laplacian(6).apply(f) == laplacian(1).apply(f.conjugate("dagger")).conjugate("dagger")
    assert laplacian(5).apply(f) == laplacian(2).apply(f.conjugate("star")).conjugate("star")
    assert laplacian(4).apply(f) == laplacian(3).apply(f.conjugate("star")).conjugate("star")
    assert laplacian(7).apply(f) == laplacian(1).apply(f) + laplacian(6).apply(f)


@given(functions(), functions())
def test_leibniz_rule(f, g):
    d = wirtinger("Z")
    assert d.apply(f * g) == d.apply(f) * g + f * d.apply(g)


@given(functions())
def test_wirtinger_operators_commute_in_action(f):
    kinds = ("Z", "Zstar", "Zdagger", "Ztilde")
    for a in kinds:
        for b in kinds:
            da, db = wirtinger(a), wirtinger(b)
            assert da.apply(db.apply(f)) == db.apply(da.apply(f))


# ---- the (plus, minus) pair contract shared with BicomplexFunction

def test_operator_never_equals_a_function_with_the_same_components():
    plus, minus = Poly4.variable(0), Poly4.variable(3).scale(2)
    op, fn = Operator(plus, minus), BicomplexFunction(plus, minus)
    assert op != fn and fn != op
    assert not op == fn and not fn == op
    copies = (Operator(Poly4.variable(0), minus.scale(1)), BicomplexFunction(plus, minus + Poly4.zero()))
    for pair, copy in zip((op, fn), copies):
        assert pair is not copy
        assert pair == copy and hash(pair) == hash(copy)


def test_operator_times_function_is_a_type_error():
    with pytest.raises(TypeError):
        wirtinger("Z") * BicomplexFunction.variable()
    with pytest.raises(TypeError):
        BicomplexFunction.variable() * wirtinger("Z")


@pytest.mark.parametrize("combine", [lambda x, y: x + y, lambda x, y: x - y], ids=["add", "sub"])
def test_function_and_operator_do_not_add_or_subtract(combine):
    fn, op = BicomplexFunction.variable(), wirtinger("Z")
    for left, right in ((fn, op), (op, fn)):
        with pytest.raises(TypeError):
            combine(left, right)


def test_unknown_conjugation_kind_names_each_vocabulary():
    with pytest.raises(ValueError, match="unknown operator conjugation 'star'"):
        wirtinger("Z").conjugate("star")
    with pytest.raises(ValueError, match="unknown conjugation kind 'star_op'"):
        BicomplexFunction.variable().conjugate("star_op")


def test_components_must_be_poly4():
    for cls in (Operator, BicomplexFunction):
        with pytest.raises(TypeError):
            cls(Poly4.zero(), 1)
        with pytest.raises(TypeError):
            cls({}, Poly4.zero())


def test_repr_names_the_class():
    assert repr(Operator(Poly4.zero(), Poly4.constant(2))) == (
        "Operator(Poly4({}), Poly4({(0, 0, 0, 0): GaussianRational(Fraction(2, 1), Fraction(0, 1))}))"
    )
    assert repr(BicomplexFunction(Poly4.variable(1), Poly4.zero())) == (
        "BicomplexFunction(Poly4({(0, 1, 0, 0): GaussianRational(Fraction(1, 1), Fraction(0, 1))}), Poly4({}))"
    )


def test_repr_past_the_digit_limit_shows_bit_lengths():
    one = "GaussianRational(Fraction(1, 1), Fraction(0, 1))"
    big = "GaussianRational(Fraction(<20001-bit int>, 1), Fraction(0, 1))"
    assert repr(parse("2^20000")) == f"BicomplexFunction(Poly4({{(0, 0, 0, 0): {big}}}), Poly4({{(0, 0, 0, 0): {big}}}))"
    assert repr(GaussianRational(Fraction(1, 10 ** 5000), -(2 ** 20000))) == (
        "GaussianRational(Fraction(1, <16610-bit int>), Fraction(-<20001-bit int>, 1))"
    )
    assert repr(Hyperbolic(2 ** 20000, Fraction(-1, 3))) == "Hyperbolic(x_plus=Fraction(<20001-bit int>, 1), x_minus=Fraction(-1, 3))"
    assert repr(Poly4.monomial((10 ** 5000, 0, 2, 0))) == f"Poly4({{(<16610-bit int>, 0, 2, 0): {one}}})"


def test_zero_operator_is_truthy_and_zero_function_is_not():
    assert bool(Operator.scalar(0, 0)) is True
    assert Operator.scalar(0, 0).is_zero()
    assert bool(BicomplexFunction.zero()) is False


@given(operators())
def test_op_conjugation_follows_the_pair_rule(op):
    assert op.conjugate("dagger_op") == Operator(op.minus, op.plus)
    assert op.conjugate("star_op") == Operator(op.plus.bar(), op.minus.bar())
    assert op.conjugate("tilde_op") == Operator(op.minus.bar(), op.plus.bar())


# stored as terms, built before any test's counting starts
_F = BicomplexFunction(
    Poly4({(3, 2, 1, 0): GaussianRational(Fraction(1, 2), 3), (2, 3, 0, 1): 2, (0, 1, 2, 3): GaussianRational(0, -1)}),
    Poly4({(1, 1, 3, 2): Fraction(-2, 3), (3, 0, 2, 2): GaussianRational(1, 1)}),
)


def test_operator_powers_are_applied_from_their_parts(gaussian_rationals_built):
    # a power is stored as parts; applying it builds what applying the same
    # operator stored as terms builds (the image's coefficients) and no
    # term of its own, and nothing at all when the image is zero
    cases = [(wirtinger(kind), n) for kind in WIRTINGER_KINDS for n in (2, 3)]
    cases += [(laplacian(1), n) for n in (1, 2)]
    for op, n in cases:
        power, as_terms = op ** n, op ** n
        as_terms = Operator(Poly4(as_terms.plus.terms), Poly4(as_terms.minus.terms))
        start = len(gaussian_rationals_built)
        image = power.apply(_F)
        by_power = len(gaussian_rationals_built) - start
        start = len(gaussian_rationals_built)
        assert as_terms.apply(_F) == image and not image.is_zero()
        assert by_power == len(gaussian_rationals_built) - start > 0
    start = len(gaussian_rationals_built)
    assert (wirtinger("Zstar") ** 4).apply(_F).is_zero() and (laplacian(1) ** 4).apply(_F).is_zero()
    assert len(gaussian_rationals_built) == start
