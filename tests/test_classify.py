import pytest
from hypothesis import given

from bcpoly import (
    GaussianRational,
    NotNilpotent,
    Operator,
    Sampler,
    Signature,
    annihilation_order,
    class_membership,
    classification_report,
    laplacian,
    polyharmonic_order,
    signature_by_degrees,
    signature_by_iteration,
    wirtinger,
)
from bcpoly.operators import WIRTINGER_KINDS
from bcpoly.polyfun import BicomplexFunction, Poly4

from strategies import functions

from test_polyfun import ALPHA_BAR, BETA_BAR, cross_term, realizer


def test_cross_term_is_harmonic_of_order_one():
    assert polyharmonic_order(cross_term(), laplacian(1)) == 1


def test_diagonal_square_has_order_three():
    # frozen from the hand iteration: d1 (a*ac)^2 = 4*a*ac, then 4, then 0
    f = (BicomplexFunction.variable() * BicomplexFunction.variable_star()) ** 2
    d1 = laplacian(1)
    step1 = d1.apply(f)
    assert step1.plus == Poly4({(1, 1, 0, 0): GaussianRational(4)})
    step2 = d1.apply(step1)
    assert step2.plus == Poly4.constant(4)
    assert d1.apply(step2).is_zero()
    assert polyharmonic_order(f, d1) == 3


def test_zero_function_has_order_zero():
    assert polyharmonic_order(BicomplexFunction.zero(), laplacian(1)) == 0


def test_identity_operator_is_not_nilpotent():
    with pytest.raises(NotNilpotent):
        polyharmonic_order(cross_term(), Operator.identity())
    with pytest.raises(NotNilpotent):
        annihilation_order(cross_term(), Operator.identity())


# d1-d6 and the Wirtinger operators take the closed form, d7 the iteration
ORDER_OPERATORS = [
    op ** power
    for op in [laplacian(i) for i in range(1, 8)] + [wirtinger(kind) for kind in WIRTINGER_KINDS]
    for power in (1, 2, 3)
]


@given(functions())
def test_annihilation_order_matches_iteration(f):
    for op in ORDER_OPERATORS:
        assert annihilation_order(f, op) == polyharmonic_order(f, op)


def test_signature_examples():
    assert signature_by_degrees(cross_term()) == Signature(2, 2, 2)
    assert signature_by_degrees(BicomplexFunction.variable() ** 5) == Signature(1, 1, 1)
    assert signature_by_degrees(realizer()) == Signature(2, 2, 2)
    assert signature_by_degrees(BicomplexFunction.zero()) == Signature(0, 0, 0)


def test_membership_examples():
    squared = BicomplexFunction.variable() ** 2
    report = class_membership(squared)
    assert report.is_bc_holomorphic
    assert report.a1_orders == (1, 1)
    assert report.zstar_order == 1

    mixed = BicomplexFunction(ALPHA_BAR ** 2, BETA_BAR)
    report = class_membership(mixed)
    assert not report.is_bc_holomorphic
    assert report.a1_orders == (3, 2)
    assert report.zstar_order == 3

    report = class_membership(cross_term())
    assert report.a1_orders is None and report.zstar_order is None


def test_laplacian_orders_report_shape():
    report = classification_report(cross_term())
    assert report["signature"] == [2, 2, 2]
    assert report["bc_holomorphic"] is False
    assert report["a1"] is None and report["zstar_order"] is None
    assert set(report["orders"]) == {f"d{i}" for i in range(1, 8)}
    assert report["orders"]["d1"] == 1


@given(functions())
def test_signature_oracle_equivalence(f):
    assert signature_by_degrees(f) == signature_by_iteration(f)


@given(functions())
def test_signature_exactness(f):
    sig = signature_by_degrees(f)
    if f.is_zero():
        assert sig == Signature(0, 0, 0)
        return
    pairs = (("Zstar", sig.m), ("Ztilde", sig.n), ("Zdagger", sig.k))
    for kind, order in pairs:
        op = wirtinger(kind)
        assert (op ** order).apply(f).is_zero()
        if order >= 1:
            assert not (op ** (order - 1)).apply(f).is_zero()


def test_seeded_oracle_equivalence_bulk():
    sampler = Sampler(2024)
    for _ in range(300):
        f = sampler.function()
        assert signature_by_degrees(f) == signature_by_iteration(f)


def test_anchored_signature_generator_is_exact():
    sampler = Sampler(5)
    for _ in range(60):
        m, n, k = (sampler.rng.randint(1, 3) for _ in range(3))
        f = sampler.a2_function(m, n, k)
        assert signature_by_degrees(f) == Signature(m, n, k)
        assert signature_by_iteration(f) == Signature(m, n, k)


def test_first_kind_reword_of_kernel_class():
    sampler = Sampler(11)
    for _ in range(200):
        f = sampler.function() if sampler.rng.random() < 0.5 else sampler.a1_function(
            sampler.rng.randint(0, 3), sampler.rng.randint(1, 3)
        )
        sig = signature_by_degrees(f)
        member = class_membership(f)
        for level in (1, 2, 3, 4):
            lhs = sig.n <= 1 and sig.k <= 1 and sig.m <= level
            rhs = member.zstar_order is not None and member.zstar_order <= level
            assert lhs == rhs
