from bcpoly import Sampler, Signature, signature_by_degrees
from bcpoly.classify import pair_polyharmonic_order
from bcpoly.polyfun import PAIR_ALPHA, PAIR_BETA


def test_same_seed_reproduces_the_stream():
    a, b = Sampler(7), Sampler(7)
    for _ in range(20):
        assert a.function() == b.function()
        assert a.bicomplex() == b.bicomplex()
    assert Sampler(7).function() != Sampler(8).function()


def test_coefficients_respect_the_bound():
    s = Sampler(3, coeff_bound=5)
    for _ in range(50):
        g = s.gaussian()
        for q in (g.re, g.im):
            assert abs(q.numerator) <= 5 * 5 and 1 <= q.denominator <= 5


def test_monomials_respect_the_box():
    s = Sampler(9, max_degree=3)
    for _ in range(50):
        p = s.poly(box=(3, 2, 1, 0))
        for (a, b, c, d) in p.terms:
            assert a <= 3 and b <= 2 and c <= 1 and d == 0


def test_holomorphic_generator_components():
    s = Sampler(21)
    for _ in range(30):
        f = s.bc_holomorphic()
        assert f.plus.uses_only((0,)) and f.minus.uses_only((2,))


def test_hyperbolic_generator_is_bar_fixed():
    s = Sampler(33)
    for _ in range(30):
        assert s.hyperbolic_valued_function().is_hyperbolic_valued()
        assert s.real_valued_function().is_real_valued()


def test_a1_generator_orders_are_exact():
    s = Sampler(45)
    for _ in range(30):
        m, n = s.rng.randint(0, 4), s.rng.randint(1, 4)
        f = s.a1_function(m, n)
        assert pair_polyharmonic_order(f.plus, PAIR_ALPHA) == m
        assert pair_polyharmonic_order(f.minus, PAIR_BETA) == n


def test_a1_normalized_generator_has_no_conjugate_dominant_monomials():
    s = Sampler(57)
    for _ in range(30):
        f = s.a1_function(s.rng.randint(1, 4), s.rng.randint(1, 4), normalized=True)
        for (a, b, c, d), coeff in f.plus.terms.items():
            assert a >= b
            if a == b:
                assert coeff.is_real()
        for (a, b, c, d), coeff in f.minus.terms.items():
            assert c >= d
            if c == d:
                assert coeff.is_real()


def test_a2_generator_signature_is_exact():
    s = Sampler(69)
    for _ in range(30):
        m, n, k = (s.rng.randint(1, 3) for _ in range(3))
        assert signature_by_degrees(s.a2_function(m, n, k)) == Signature(m, n, k)


def test_hyperbolic_imaginary_generator_kills_hyperbolic_part():
    s = Sampler(81)
    for _ in range(30):
        f = s.hyperbolic_imaginary_function((2, 2, 1, 1), (1, 1, 2, 2))
        assert f.hyperbolic_part().is_zero()


def test_kernel_box_generator_realness_bookkeeping():
    s = Sampler(93)
    for _ in range(20):
        fn, non_real = s.kernel_box_function(2, 2, real_coeffs=True)
        assert fn.is_hyperbolic_valued() and non_real == []
        fn, non_real = s.kernel_box_function(3, 2, real_coeffs=False)
        assert fn.is_hyperbolic_valued() and non_real
