import pytest
from hypothesis import given

from bcpoly import Operator, laplacian, wirtinger
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


def test_zero_operator_is_truthy_and_zero_function_is_not():
    assert bool(Operator.scalar(0, 0)) is True
    assert Operator.scalar(0, 0).is_zero()
    assert bool(BicomplexFunction.zero()) is False


@given(operators())
def test_op_conjugation_follows_the_pair_rule(op):
    assert op.conjugate("dagger_op") == Operator(op.minus, op.plus)
    assert op.conjugate("star_op") == Operator(op.plus.bar(), op.minus.bar())
    assert op.conjugate("tilde_op") == Operator(op.minus.bar(), op.plus.bar())
