"""The Gaussian-rational product, the kernels and term loops of ``Poly4``
and ``BicomplexFunction.evaluate`` against the reference routines of
``reference_poly``, and the expression reader on a large round trip."""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcpoly import Bicomplex, GaussianRational, format_function, format_poly, function_from_json, function_to_json, parse
from bcpoly import polyfun
from bcpoly.operators import WIRTINGER_KINDS, laplacian, wirtinger
from bcpoly.polyfun import MAX_EVAL_BITS, BicomplexFunction, EvalLimitError, Poly4

from reference_poly import ref_add, ref_apply, ref_bar, ref_diff, ref_gr_mul, ref_group_by, ref_is_bar_fixed, ref_mul
from reference_poly import ref_pow, ref_scale, ref_substitute
from strategies import fractions_small, gaussians, monomials


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


def one_term_polys():
    """One term, its coefficient's parts small or with denominators of 256
    to 4096 bits, so the integer product also meets long parts."""
    parts = st.one_of(st.just(Fraction(0)), fractions_small(), big_fractions())
    coeff = st.builds(GaussianRational, parts, parts).filter(lambda g: not g.is_zero())
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
