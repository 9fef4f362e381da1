from fractions import Fraction

import pytest
from hypothesis import given

from bcpoly import (
    Bicomplex,
    E_MINUS,
    E_PLUS,
    GaussianRational,
    Hyperbolic,
    I,
    J,
    K,
    NullConeError,
    ONE,
)

from strategies import bicomplexes, gaussians


def cartesian_mul(z: Bicomplex, w: Bicomplex) -> Bicomplex:
    """Independent oracle: multiply via (z1 + j z2)(w1 + j w2) with j^2 = -1."""
    return Bicomplex.from_cartesian(
        z.z1 * w.z1 - z.z2 * w.z2,
        z.z1 * w.z2 + z.z2 * w.z1,
    )


def test_idempotent_table():
    assert E_PLUS * E_PLUS == E_PLUS
    assert E_MINUS * E_MINUS == E_MINUS
    assert E_PLUS * E_MINUS == Bicomplex(0, 0)
    assert E_PLUS + E_MINUS == ONE
    assert E_PLUS - E_MINUS == I * J == K


def test_one_plus_j_squared_two_routes():
    z = ONE + J
    assert z.alpha == GaussianRational(1, -1)
    assert z.beta == GaussianRational(1, 1)
    via_idempotent = z * z
    via_cartesian = cartesian_mul(z, z)
    assert via_idempotent == via_cartesian == 2 * J
    assert str(via_idempotent) == "2*j"


@given(bicomplexes(), bicomplexes())
def test_product_matches_cartesian_oracle(z, w):
    assert z * w == cartesian_mul(z, w)


def test_invert_null_cone_rejected():
    one_plus_ij = ONE + I * J
    assert one_plus_ij == 2 * E_PLUS
    with pytest.raises(NullConeError):
        one_plus_ij.invert()


def test_invert_identity_and_diagonal():
    assert ONE.invert() == ONE
    z = 2 * E_PLUS + 4 * E_MINUS
    inv = z.invert()
    assert inv == Bicomplex(Fraction(1, 2), Fraction(1, 4))
    assert inv * z == ONE


def test_division_by_zero_rational_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / 0


def test_real_parts_of_unit_quadruple():
    z = Bicomplex.from_units(1, 2, 3, 4)
    # alpha = z1 - i z2 and beta = z1 + i z2 give (5 - i, -3 + 5i)
    assert z.alpha == GaussianRational(5, -1)
    assert z.beta == GaussianRational(-3, 5)
    hyp = z.hyperbolic_part()
    assert hyp == Hyperbolic(5, -3)
    # cross-check against Re(z1) + Im(z2) k
    assert hyp == Hyperbolic.from_xy(z.z1.re, z.z2.im)
    assert str(hyp) == "1 + 4*k"
    assert z.real_part() == 1


def test_real_parts_of_i_and_hyperbolic_fixed_point():
    assert I.real_part() == 0
    assert I.hyperbolic_part().is_zero()
    h = Hyperbolic.from_xy(Fraction(3, 2), -2)
    z = h.to_bicomplex()
    assert z.hyperbolic_part() == h
    assert z == z.conjugate("star")


def test_predicates_examples():
    three = Bicomplex.coerce(3)
    assert three.predicates() == {
        "is_real": True,
        "is_hyperbolic": True,
        "is_null_cone": False,
        "is_idempotent": False,
    }
    assert E_PLUS.predicates() == {
        "is_real": False,
        "is_hyperbolic": True,
        "is_null_cone": True,
        "is_idempotent": True,
    }
    assert J.conjugate("star") == -J
    assert J.predicates() == {
        "is_real": False,
        "is_hyperbolic": False,
        "is_null_cone": False,
        "is_idempotent": False,
    }


def test_conjugation_examples():
    z = Bicomplex(GaussianRational(2, 3), GaussianRational(-1, 5))
    assert z.conjugate("dagger") == Bicomplex(z.beta, z.alpha)
    assert z.conjugate("star").conjugate("star") == z
    assert z.conjugate("dagger").conjugate("tilde") == z.conjugate("star")


@given(bicomplexes())
def test_conjugation_rotation_table(z):
    c = z.conjugate
    assert c("tilde").conjugate("dagger") == c("star")
    assert c("tilde").conjugate("star") == c("dagger")
    assert c("dagger").conjugate("star") == c("tilde")
    for kind in ("dagger", "tilde", "star"):
        assert c(kind).conjugate(kind) == z


@given(bicomplexes(), bicomplexes(), bicomplexes())
def test_ring_axioms(z, w, v):
    assert (z + w) + v == z + (w + v)
    assert z * w == w * z
    assert (z * w) * v == z * (w * v)
    assert z * (w + v) == z * w + z * v


@given(bicomplexes())
def test_det_and_real_part_identities(z):
    assert z.det() == z.alpha * z.beta
    assert z.hyperbolic_part().to_bicomplex() == (z + z.conjugate("star")) / 2
    assert z.real_part() == (z.alpha.re + z.beta.re) / 2


@given(bicomplexes())
def test_cartesian_round_trip(z):
    assert Bicomplex.from_cartesian(z.z1, z.z2) == z
    assert Bicomplex.from_units(*z.units()) == z


@given(bicomplexes())
def test_json_round_trip(z):
    data = z.to_json()
    assert all(isinstance(part, str) for part in data) and len(data) == 8
    assert Bicomplex.from_json(data) == z


@given(gaussians())
def test_gaussian_inverse(g):
    if not g.is_zero():
        assert g * g.inverse() == GaussianRational(1)


def test_equal_values_hash_equal():
    assert len({1, Fraction(1), GaussianRational(1), Bicomplex(1, 1)}) == 1
    assert len({Bicomplex(1, 1), Hyperbolic(1, 1)}) == 1
    assert len({Bicomplex(2, -3), Hyperbolic(2, -3)}) == 1


def test_hyperbolic_equality_is_transitive():
    assert Hyperbolic(1, 1) == 1 and 1 == Hyperbolic(1, 1)
    assert Hyperbolic(1, 1) == Fraction(1) == GaussianRational(1) == Bicomplex(1, 1)
    assert Hyperbolic(1, 1) != 2 and Hyperbolic(1, 2) != 1
    assert Hyperbolic(2, -3) == Bicomplex(2, -3) and Hyperbolic(2, -3) == Hyperbolic.from_xy(Fraction(-1, 2), Fraction(5, 2))
    assert Hyperbolic(1, 1) != "1"
    assert len({Hyperbolic(1, 1), Bicomplex(1, 1), GaussianRational(1), Fraction(1), 1}) == 1


@given(gaussians())
def test_hash_agrees_with_equality(g):
    assert hash(Bicomplex(g, g)) == hash(g)
    if g.is_real():
        assert hash(g) == hash(g.re)
        assert hash(Hyperbolic(g.re, g.re)) == hash(g)
