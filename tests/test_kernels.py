"""The Gaussian-rational product, the kernels and term loops of ``Poly4``
and ``BicomplexFunction.evaluate`` against the reference routines of
``reference_poly``, and the expression reader on a large round trip."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from bcpoly import Bicomplex, GaussianRational, format_function, format_poly, function_from_json, function_to_json, parse
from bcpoly import decompose, polyfun
from bcpoly.operators import WIRTINGER_KINDS, laplacian, wirtinger
from bcpoly.polyfun import MAX_EVAL_BITS, BicomplexFunction, EvalLimitError, Poly4

from reference_poly import ref_add, ref_apply, ref_bar, ref_diff, ref_gr_mul, ref_group_by, ref_hyperbolic_part
from reference_poly import ref_is_bar_fixed, ref_mul, ref_pow, ref_power_sum, ref_real_part, ref_scale, ref_substitute
from reference_poly import ref_unit_shift
from strategies import fractions_small, functions, gaussians, monomials


def big_fractions():
    """A denominator of 256 to 4096 bits over a numerator of up to as many."""
    return st.integers(256, 4096).flatmap(
        lambda bits: st.builds(Fraction, st.integers(-(1 << bits), 1 << bits), st.integers(1 << (bits - 1), 1 << bits))
    )


def gaussian_products():
    """Operand pairs with zero, small and large parts, an int or Fraction on
    either side, and pairs whose product has a real or imaginary part that
    cancels to zero."""
    parts = st.one_of(st.just(Fraction(0)), fractions_small(), big_fractions())
    gaussian = st.builds(GaussianRational, parts, parts)
    scalar = st.one_of(st.integers(-(10 ** 30), 10 ** 30), fractions_small(), big_fractions())
    return st.one_of(
        st.tuples(gaussian, gaussian),
        st.tuples(gaussian, scalar),
        st.tuples(scalar, gaussian),
        gaussian.map(lambda g: (g, g.conjugate())),
        gaussian.map(lambda g: (g, GaussianRational(g.im, g.re))),
    )


@given(gaussian_products(), st.integers(min_value=1, max_value=10 ** 6))
def test_gaussian_product_matches_reference(pair, k):
    x, y = pair
    product, expected = x * y, ref_gr_mul(x, y)
    assert (product.re, product.im) == (expected.re, expected.im)
    assert type(product.re) is Fraction and type(product.im) is Fraction
    if product.im == 0:
        assert hash(product) == hash(product.re)
    # times a falling-factorial factor k, as Poly4.derive multiplies
    scaled = GaussianRational.coerce(x)._times(GaussianRational.coerce(y), k)
    assert (scaled.re, scaled.im) == (expected.re * k, expected.im * k)
    assert type(scaled.re) is Fraction and type(scaled.im) is Fraction


def nonzero_rationals():
    """Nonzero ints, small fractions and fractions of 256 to 4096 bits."""
    return st.one_of(st.integers(-(10 ** 30), 10 ** 30), fractions_small(), big_fractions()).filter(bool)


@given(gaussian_products(), nonzero_rationals())
def test_gaussian_division_by_a_rational_matches_the_inverse_product(pair, divisor):
    x = GaussianRational.coerce(pair[0])
    quotient, expected = x / divisor, ref_gr_mul(x, GaussianRational(divisor).inverse())
    assert (quotient.re, quotient.im) == (expected.re, expected.im)
    assert type(quotient.re) is Fraction and type(quotient.im) is Fraction
    for zero in (0, Fraction(0), GaussianRational(0)):
        with pytest.raises(ZeroDivisionError, match="inverse of zero Gaussian rational"):
            x / zero


@given(functions(), nonzero_rationals())
def test_function_division_by_a_rational_is_the_scale_by_its_inverse(f, divisor):
    assert f / divisor == f.scale(Fraction(1, divisor))
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="division of a function by zero"):
            f / zero
    for other in (GaussianRational(2), 2.0):
        with pytest.raises(TypeError, match="only defined by rational scalars"):
            f / other


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


# one-term factors whose coefficient is 1, and ones whose coefficient is
# another unit or a half
_SHIFT_COEFFS = [GaussianRational(1), GaussianRational(-1), GaussianRational(Fraction(1, 2)), GaussianRational(0, 1)]


def one_term_polys():
    """One term, its coefficient 1, -1, 1/2 or i, or with parts small or
    with denominators of 256 to 4096 bits, so the integer product also
    meets long parts."""
    parts = st.one_of(st.just(Fraction(0)), fractions_small(), big_fractions())
    coeff = st.sampled_from(_SHIFT_COEFFS) | st.builds(GaussianRational, parts, parts).filter(lambda g: not g.is_zero())
    return st.builds(lambda key, c: Poly4({key: c}), monomials(3), coeff)


@given(one_term_polys(), st.one_of(st.just(Poly4.zero()), cancelling_polys(), mixed_polys(), one_term_polys()))
def test_one_term_factor_matches_reference_in_either_order(p, q):
    assert same(p * q, ref_mul(p, q))
    assert same(q * p, ref_mul(q, p))


@given(one_term_polys(), st.integers(0, 5))
def test_one_term_power_matches_reference(p, n):
    assert same(p ** n, ref_pow(p, n))


@given(mixed_polys(), st.tuples(gaussians(), gaussians(), gaussians(), gaussians()))
def test_substitute_matches_reference(p, values):
    assert p.substitute(values) == ref_substitute(p, values)


def test_substitute_with_denominators_and_high_exponents():
    rng = random.Random(3)

    def coeff():
        return GaussianRational(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    p = Poly4({tuple(rng.randint(0, 24) for _ in range(4)): coeff() for _ in range(12)})
    assert max(p.degrees()) >= 20
    a, b = GaussianRational(Fraction(1, 3), Fraction(2, 5)), GaussianRational(Fraction(3, 7), Fraction(5, 11))
    values = (a, a.conjugate(), b, b.conjugate())
    assert p.substitute(values) == ref_substitute(p, values)


def _refused_per_component(p: Poly4, values) -> bool:
    """The evaluation bound, applied to one component: the top exponent of
    each variable times the longest number of its value, summed."""
    tops = [max((key[var] for key in p.terms), default=0) for var in range(4)]
    bits = [max(n.bit_length() for n in (v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)) for v in values]
    return sum(top * b for top, b in zip(tops, bits)) > MAX_EVAL_BITS


def eval_polys():
    return st.one_of(st.just(Poly4.zero()), one_term_polys(), cancelling_polys(), mixed_polys())


def eval_coordinates():
    """Zero, small or 256- to 4096-bit parts."""
    parts = st.one_of(st.just(Fraction(0)), fractions_small(), big_fractions())
    return st.builds(GaussianRational, parts, parts)


@settings(deadline=None)
@given(eval_polys(), eval_polys(), eval_coordinates(), eval_coordinates())
def test_evaluate_matches_reference_per_component(plus, minus, alpha, beta):
    f = BicomplexFunction(plus, minus)
    values = (alpha, alpha.conjugate(), beta, beta.conjugate())
    if _refused_per_component(plus, values) or _refused_per_component(minus, values):
        with pytest.raises(EvalLimitError):
            f.evaluate(Bicomplex(alpha, beta))
        return
    value = f.evaluate(Bicomplex(alpha, beta))
    assert value.alpha == ref_substitute(plus, values)
    assert value.beta == ref_substitute(minus, values)
    # the form that evaluation cached leaves the polynomials as they were
    assert f == BicomplexFunction(plus, minus) and f.evaluate(Bicomplex(alpha, beta)) == value


def test_evaluation_bound_is_per_component():
    # alpha^3 on one side and beta^3 on the other each stay within the
    # bound; together they would not
    alpha = GaussianRational(Fraction(1, 3 ** 700), 1)
    beta = GaussianRational(5 ** 500, Fraction(1, 7))
    assert 3 * alpha.re.denominator.bit_length() <= MAX_EVAL_BITS < 3 * (alpha.re.denominator.bit_length() + beta.re.numerator.bit_length())
    f = BicomplexFunction(Poly4({(3, 0, 0, 0): 1}), Poly4({(0, 0, 0, 3): 1}))
    assert f.evaluate(Bicomplex(alpha, beta)) == Bicomplex(alpha ** 3, beta.conjugate() ** 3)
    with pytest.raises(EvalLimitError):
        BicomplexFunction(Poly4({(3, 0, 0, 3): 1}), Poly4.zero()).evaluate(Bicomplex(alpha, beta))


def test_evaluate_sums_each_component_over_its_own_denominator(monkeypatch):
    # Z^12 uses alpha on one side and beta on the other: each component's
    # sum stays over its own powers of the coordinates' denominators, as in
    # Poly4.substitute, not over the top exponents of both components
    f = parse("Z^12")
    point = Bicomplex(GaussianRational(Fraction(2, 3), Fraction(-5, 7)), GaussianRational(Fraction(11, 13), Fraction(1, 17)))
    values = (point.alpha, point.alpha.conjugate(), point.beta, point.beta.conjugate())
    denominators = []

    def recording_fraction(*args):
        denominators.append(args[1:])
        return Fraction(*args)

    monkeypatch.setattr(polyfun, "Fraction", recording_fraction)
    value = f.evaluate(point)
    separate = Bicomplex(f.plus.substitute(values), f.minus.substitute(values))
    assert value == separate
    assert denominators == [(21 ** 12,)] * 2 + [(221 ** 12,)] * 2 + [(21 ** 12,)] * 2 + [(221 ** 12,)] * 2


def test_evaluate_reuses_the_form_of_the_reader():
    # the reader's form may keep a denominator that the coefficients no
    # longer need; the value is the same
    f = parse("(2*Z + 2*star(Z))/4 + dag(Z)^3/6")
    point = Bicomplex(GaussianRational(Fraction(1, 3), 2), GaussianRational(-1, Fraction(5, 7)))
    values = (point.alpha, point.alpha.conjugate(), point.beta, point.beta.conjugate())
    assert f.evaluate(point) == Bicomplex(ref_substitute(f.plus, values), ref_substitute(f.minus, values))


# the operator components in use: d1-d7, and the Wirtinger operators with
# their squares and cubes
_NAMED_OPERATORS = [laplacian(i) for i in range(1, 8)] + [wirtinger(kind) ** p for kind in WIRTINGER_KINDS for p in (1, 2, 3)]
_NAMED_COMPONENTS = [part for op in _NAMED_OPERATORS for part in (op.plus, op.minus)]


def operator_polys():
    """Named components, random multi-term operators with complex
    coefficients, and low-order ones whose images cancel."""
    return st.one_of(
        st.sampled_from(_NAMED_COMPONENTS),
        st.dictionaries(monomials(2), gaussians(), min_size=1, max_size=4).map(Poly4),
        st.dictionaries(monomials(1), _CANCELLING, min_size=1, max_size=4).map(Poly4),
    )


@given(operator_polys(), st.one_of(cancelling_polys(), mixed_polys()))
def test_derive_matches_reference(op, p):
    assert same(p.derive(op), ref_apply(op, p))


def test_derive_key_that_cancels_and_comes_back_moves_to_the_end():
    # d_a maps a -> 1 and a^2 -> 2a; -d_b maps b -> -1, cancelling the
    # constant; d_ac maps ac -> 1, which brings it back after 2a
    op = Poly4({(1, 0, 0, 0): 1, (0, 0, 1, 0): -1, (0, 1, 0, 0): 1})
    p = Poly4({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1, (0, 1, 0, 0): 1, (2, 0, 0, 0): 1})
    image = p.derive(op)
    assert list(image.terms) == [(1, 0, 0, 0), (0, 0, 0, 0)]
    assert same(image, ref_apply(op, p))


@given(st.one_of(cancelling_polys(), mixed_polys()), st.integers(0, 3), st.integers(0, 4))
def test_diff_matches_reference(p, var, times):
    assert same(p.diff(var, times), ref_diff(p, var, times))


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


def test_multinomial_kernel_takes_every_power_from_its_start_on():
    # the reader takes the kernel where its steps are fewer than the pairs of
    # square-and-multiply, from _MULTINOMIAL_FROM[t] on; past a few dozen the
    # top squaring alone, C(n/4 + t - 1, t - 1)^2 pairs, outgrows the steps
    for t, start in polyfun._MULTINOMIAL_FROM.items():
        for n in range(1000):
            assert (polyfun._pow_pairs(t, n) > polyfun._multinomial_steps(t, n)) == (n >= start)


# each route builds the polynomial it is given: as is, through the printed
# text (the canonical kernel, and the reader), through JSON, and as a power
# through the integer kernel
_ROUTES = [
    lambda p: p,
    lambda p: parse(format_poly(p) + " | 0", raw=True).plus,
    lambda p: parse(format_poly(p) + " + 0 | 0", raw=True).plus,
    lambda p: function_from_json(function_to_json(BicomplexFunction(p, Poly4.zero()))).plus,
    lambda p: p ** 1,
]


def routed(polys):
    """Polynomials of ``polys``, each built by one of ``_ROUTES``."""
    return st.tuples(polys, st.sampled_from(_ROUTES)).map(lambda pr: pr[1](pr[0]))


def term_polys():
    return routed(st.one_of(st.just(Poly4.zero()), one_term_polys(), cancelling_polys(), mixed_polys()))


@given(term_polys(), term_polys())
def test_add_matches_reference(p, q):
    assert same(p + q, ref_add(p, q))
    assert same(p - q, ref_add(p, ref_scale(q, -1)))


@given(term_polys(), st.one_of(st.just(GaussianRational(0)), gaussians(), st.integers(-3, 3), fractions_small()))
def test_scale_matches_reference(p, value):
    assert same(p.scale(value), ref_scale(p, value))


@given(term_polys())
def test_bar_matches_reference(p):
    assert same(p.bar(), ref_bar(p))


@given(term_polys(), st.sampled_from([(0,), (1, 0), (0, 1), (2, 3), (0, 1, 2, 3), ()]))
def test_group_by_matches_reference(p, positions):
    groups, expected = p.group_by(positions), ref_group_by(p, positions)
    assert list(groups) == list(expected)
    assert all(same(groups[index], expected[index]) for index in expected)


def _partner(key):
    a, b, c, d = key
    return (b, a, d, c)


def bar_fixed_polys():
    """Real-valued polynomials: p + bar(p)."""
    return st.one_of(cancelling_polys(), mixed_polys()).map(lambda p: p + p.bar())


_SAME_SIGN, _OTHER_DENOMINATOR, _MISSING, _SELF = range(4)


@st.composite
def near_bar_fixed_polys(draw):
    """A real-valued polynomial with one coefficient pair broken: the
    partner keeps the imaginary sign, has another denominator in one part,
    or is missing; or a monomial that is its own partner gets a nonzero
    imaginary part."""
    terms = dict(draw(bar_fixed_polys()).terms)
    kind = draw(st.sampled_from([_SAME_SIGN, _OTHER_DENOMINATOR, _MISSING, _SELF]))
    re = draw(fractions_small())
    im = draw(fractions_small().filter(bool))
    if kind == _SELF:
        a, c = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        terms[a, a, c, c] = GaussianRational(re, im)
        return Poly4(terms)
    key = draw(monomials(2).filter(lambda k: k != _partner(k)))
    coeff = GaussianRational(re, im) if kind != _OTHER_DENOMINATOR else GaussianRational(re or 1, im)
    terms[key] = coeff
    if kind == _SAME_SIGN:
        terms[_partner(key)] = coeff
    elif kind == _MISSING:
        terms.pop(_partner(key), None)
    else:  # the partner's real or imaginary numerator over one more
        part = draw(st.sampled_from(["re", "im"]))
        other = coeff.re if part == "re" else -coeff.im
        other = Fraction(other.numerator, other.denominator + 1)
        terms[_partner(key)] = GaussianRational(other, -coeff.im) if part == "re" else GaussianRational(coeff.re, other)
    return Poly4(terms)


@given(routed(bar_fixed_polys()), routed(near_bar_fixed_polys()), term_polys())
def test_is_bar_fixed_matches_reference(fixed, near_miss, p):
    assert fixed.is_bar_fixed() and ref_is_bar_fixed(fixed)
    assert not near_miss.is_bar_fixed() and not ref_is_bar_fixed(near_miss)
    assert p.is_bar_fixed() == ref_is_bar_fixed(p)


@given(routed(one_term_polys()), term_polys())
def test_one_term_product_matches_reference_shift(single, p):
    assert same(single * p, ref_unit_shift(p, single))
    assert same(p * single, ref_unit_shift(p, single))


def hyperbolic_inputs():
    """Components with keys that are their own partners ((1, 1, 0, 0) and
    the like, from exponents of at most 1), with and without a partner, and
    ones whose sum with the conjugate cancels to zero key by key:
    p - bar(p) and i*(p + bar(p))."""
    polys = st.one_of(cancelling_polys(), mixed_polys())
    return routed(st.one_of(
        polys,
        polys.map(lambda p: p - p.bar()),
        polys.map(lambda p: (p + p.bar()).scale(GaussianRational(0, 1))),
    ))


@given(hyperbolic_inputs(), hyperbolic_inputs())
def test_hyperbolic_part_matches_reference(plus, minus):
    f = BicomplexFunction(plus, minus)
    rehyp, expected = f.hyperbolic_part(), ref_hyperbolic_part(f)
    assert same(rehyp.plus, expected.plus) and same(rehyp.minus, expected.minus)
    assert rehyp.is_hyperbolic_valued()


def test_hyperbolic_part_keeps_the_order_of_the_sum():
    # (1, 1, 0, 0) is its own partner and keeps its real part; (1, 0, 0, 0)
    # and (0, 1, 0, 0) cancel; (2, 0, 0, 0) has no partner, so (0, 2, 0, 0)
    # comes after the others; (0, 0, 1, 1) keeps nothing
    p = Poly4({(2, 0, 0, 0): 3, (1, 1, 0, 0): GaussianRational(5, 7), (1, 0, 0, 0): GaussianRational(1, 2),
               (0, 1, 0, 0): GaussianRational(-1, 2), (0, 0, 1, 1): GaussianRational(0, 1), (0, 0, 0, 1): 4})
    rehyp = BicomplexFunction(p, Poly4.zero()).hyperbolic_part()
    assert list(rehyp.plus.terms.items()) == [
        ((2, 0, 0, 0), GaussianRational(Fraction(3, 2))), ((1, 1, 0, 0), GaussianRational(5)),
        ((0, 0, 0, 1), GaussianRational(2)), ((0, 2, 0, 0), GaussianRational(Fraction(3, 2))),
        ((0, 0, 1, 0), GaussianRational(2)),
    ]
    assert same(rehyp.plus, ref_hyperbolic_part(BicomplexFunction(p, Poly4.zero())).plus)


@given(hyperbolic_inputs(), hyperbolic_inputs())
def test_real_part_matches_reference(plus, minus):
    # values only: the real part takes one hyperbolic pass over the sum of
    # the components, so its terms need not come in the order of the
    # reference's four-way sum, and that order is not pinned
    f = BicomplexFunction(plus, minus)
    real = f.real_part()
    assert real == ref_real_part(f)
    assert real.is_real_valued()


_POWER_SUM_BASES = [
    (BicomplexFunction.variable_star(), BicomplexFunction.variable_tilde(), BicomplexFunction.variable_dagger()),
    decompose._DAGGER_TILDE,
    (BicomplexFunction.variable() * BicomplexFunction.variable_star(),),
]


@st.composite
def scattered_power_sums(draw):
    """Bases of a reconstruction, and coefficient functions, each built by
    one of the routes, at exponent indices of up to 3."""
    bases = draw(st.sampled_from(_POWER_SUM_BASES))
    polys = routed(st.one_of(st.just(Poly4.zero()), one_term_polys(), cancelling_polys(), mixed_polys()))
    index = st.tuples(*[st.integers(0, 3)] * len(bases))
    coeffs = draw(st.dictionaries(index, st.builds(BicomplexFunction, polys, polys), max_size=4))
    return coeffs, bases


def _shift(base_side: list, index: tuple) -> tuple:
    """The key shift of ``index`` over one component's base keys."""
    keys = [next(iter(p.terms)) for p in base_side]
    return tuple(sum(e * key[var] for key, e in zip(keys, index)) for var in range(4))


@st.composite
def colliding_power_sums(draw):
    """Coefficient functions whose terms all land, once shifted, on a few
    shared target keys, with coefficients that cancel: the sum meets the
    same key again and again, deletes it and appends it anew."""
    bases = draw(st.sampled_from(_POWER_SUM_BASES))
    route = draw(st.sampled_from(_ROUTES))
    # exponents of at most 2 shift no slot by more than 2 over these bases
    targets = draw(st.lists(st.tuples(*[st.integers(2, 3)] * 4), min_size=1, max_size=2, unique=True))
    indices = draw(st.lists(st.tuples(*[st.integers(0, 2)] * len(bases)), min_size=3, max_size=8, unique=True))
    coeffs = {}
    for index in indices:
        sides = []
        for base_side in ([b.plus for b in bases], [b.minus for b in bases]):
            shift = _shift(base_side, index)
            landed = draw(st.dictionaries(st.sampled_from(targets), _CANCELLING, max_size=len(targets)))
            sides.append(route(Poly4({tuple(t - s for t, s in zip(key, shift)): c for key, c in landed.items()})))
        coeffs[index] = BicomplexFunction(*sides)
    return coeffs, bases


def power_sums():
    return scattered_power_sums() | colliding_power_sums()


# the plus side's (0, 0, 3, 3) gets 1, then -1 (deleted), then 1/2, which
# is appended after (0, 0, 2, 2): the order of the sum
_REAPPEARING = (
    {(0, 0): BicomplexFunction(Poly4({(0, 0, 3, 3): 1}), Poly4.zero()),
     (1, 1): BicomplexFunction(Poly4({(0, 0, 2, 2): -1, (0, 0, 1, 1): 1}), Poly4.zero()),
     (2, 1): BicomplexFunction(Poly4({(0, 0, 1, 2): Fraction(1, 2)}), Poly4.zero())},
    decompose._DAGGER_TILDE,
)


@given(power_sums())
@example(_REAPPEARING)
def test_power_sum_matches_reference(case):
    coeffs, bases = case
    total, expected = decompose._power_sum(coeffs, bases), ref_power_sum(coeffs, bases)
    assert same(total.plus, expected.plus) and same(total.minus, expected.minus)
    # the single-pair weight of almansi_complex, on polynomials
    layers = {(t,): f.plus for (t, *_), f in coeffs.items()}
    weight = (Poly4.variable(0) * Poly4.variable(1),)
    assert same(decompose._power_sum(layers, weight), ref_power_sum(layers, weight))
