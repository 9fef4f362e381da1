import json
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import starmap
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from bcpoly import (
    Bicomplex,
    BicomplexError,
    ExprLimitError,
    ExprSyntaxError,
    GaussianRational,
    JsonFormatError,
    OutputLimitError,
    format_function,
    format_poly,
    function_from_json,
    function_to_json,
    parse,
    parse_point,
)
from bcpoly.expr import MAX_NESTING, MAX_TERM_PAIRS, function_from_json_obj, function_to_json_obj, operator_from_json_obj, operator_to_json_obj
from bcpoly import expr
from bcpoly.expr import _CANONICAL_TERM, _Budget, _Reader, _read_canonical
from bcpoly.operators import Operator, laplacian
from bcpoly.polyfun import BicomplexFunction, Poly4, _cached_form, _mul_nums, _multinomial_form, _multinomial_pairs
from bcpoly.polyfun import _poly_of_form, _pow_form
from bcpoly.sampling import Sampler

from strategies import functions, gaussians, monomials

from test_polyfun import ALPHA, ALPHA_BAR, BETA, BETA_BAR, cross_term, realizer


def test_parse_hyperbolic_part_formula():
    f = parse("(Z + star(Z)) / 2")
    assert f == BicomplexFunction.variable().hyperbolic_part()
    assert f.plus == (ALPHA + ALPHA_BAR).scale(Fraction(1, 2))


def test_parse_real_part_formula():
    f = parse("(Z + dag(Z) + til(Z) + star(Z)) / 4")
    assert f == BicomplexFunction.variable().real_part()


def test_parse_realizer_formula():
    assert parse("2*star(Z)*(dag(Z) + til(Z))") == realizer()


def test_parse_raw_cross_term():
    assert parse("(a+ac)*(b+bc)", raw=True) == cross_term()


def test_raw_tokens_rejected_by_default():
    with pytest.raises(ExprSyntaxError):
        parse("a + ac")


def test_format_zero():
    assert format_function(BicomplexFunction.zero()) == "0 | 0"


def test_format_parse_identity_on_examples():
    for f in (cross_term(), realizer(), BicomplexFunction.variable() ** 3):
        assert parse(format_function(f), raw=True) == f


def test_precedence_rules():
    assert parse("-2^2").constant_value() == Bicomplex.coerce(-4)
    assert parse("1+2*3^2").constant_value() == Bicomplex.coerce(19)
    assert parse("-2*3").constant_value() == Bicomplex.coerce(-6)
    assert parse("3/2*2").constant_value() == Bicomplex.coerce(3)


def test_whitespace_insensitive():
    assert parse(" ( Z + star( Z ) )   /  2 ") == parse("(Z+star(Z))/2")


def test_number_unit_sugar():
    assert parse_point("1+2i+3j+4k") == Bicomplex.from_units(1, 2, 3, 4)
    assert parse_point("1 + 2*i + 3*j + 4*k") == Bicomplex.from_units(1, 2, 3, 4)


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse("Z + ?")
    assert err.value.pos == 4
    with pytest.raises(ExprSyntaxError):
        parse("Z^-1")
    with pytest.raises(ExprSyntaxError):
        parse("Z / 0")
    with pytest.raises(ExprSyntaxError):
        parse("Z / Z")
    with pytest.raises(ExprSyntaxError):
        parse("dag Z")
    with pytest.raises(ExprSyntaxError):
        parse("Z Z")
    with pytest.raises(ExprSyntaxError):
        parse("Z²")


# malformed inputs, with the exact message and position each one raises
_DEEP_PARENS = "(" * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1)
_DEEP_CALLS = "rec(" * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1)
_SYNTAX_ERRORS = [
    ("Z + ?", False, "unexpected character '?'", 4),
    ("Z_1", False, "unexpected character '_'", 1),
    ("Z ) ?", False, "unexpected character '?'", 4),  # lexical errors come first
    ("foo(Z)", False, "unknown name 'foo'", 0),
    ("x + 1", False, "unknown name 'x'", 0),
    ("ex", False, "unknown name 'ex'", 0),
    ("a + foo", False, "unknown name 'foo'", 4),
    ("Z²", False, "unknown name 'Z²'", 0),
    ("2ij", False, "unknown name 'ij'", 1),
    ("Z Z", False, "unexpected trailing 'name'", 2),
    ("2 i", False, "unexpected trailing 'name'", 2),
    ("1 2", False, "unexpected trailing 'int'", 2),
    ("2i2", False, "unexpected trailing 'int'", 2),
    ("Z )", False, "unexpected trailing ')'", 2),
    ("Z^2^3", False, "unexpected trailing '^'", 3),
    ("a | b | bc", True, "unexpected trailing '|'", 6),
    ("(a | b)", True, "expected ')', found '|'", 3),
    ("| Z", False, "expected an atom, found '|'", 0),
    ("Z |", False, "expected an atom, found 'eof'", 3),
    ("", False, "expected an atom, found 'eof'", 0),
    ("   ", False, "expected an atom, found 'eof'", 3),
    ("-", False, "expected an atom, found 'eof'", 1),
    ("*Z", False, "expected an atom, found '*'", 0),
    ("()", False, "expected an atom, found ')'", 1),
    ("Z*/2", False, "expected an atom, found '/'", 2),
    ("Z / 0", False, "division by zero", 4),
    ("Z/00", False, "division by zero", 2),
    ("Z / Z", False, "expected 'int', found 'name'", 4),
    ("Z^-1", False, "expected 'int', found '-'", 2),
    ("Z^", False, "expected 'int', found 'eof'", 2),
    ("(Z", False, "expected ')', found 'eof'", 2),
    ("dag Z", False, "expected '(', found 'name'", 4),
    ("dag(Z", False, "expected ')', found 'eof'", 5),
    ("a", False, "idempotent variable 'a' requires raw idempotent mode", 0),
    ("Z + bc", False, "idempotent variable 'bc' requires raw idempotent mode", 4),
    (_DEEP_PARENS, False, f"parentheses and calls nest deeper than the limit of {MAX_NESTING}", MAX_NESTING),
    (_DEEP_CALLS, False, f"parentheses and calls nest deeper than the limit of {MAX_NESTING}", 4 * MAX_NESTING + 3),
]


@pytest.mark.parametrize("text, raw, message, pos", _SYNTAX_ERRORS)
def test_syntax_error_table(text, raw, message, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text, raw=raw)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_integer_literal_past_the_digit_limit():
    # int() refuses a decimal string past this many digits; the reader
    # names the limit and the literal's position instead
    limit = sys.get_int_max_str_digits()
    for text, raw, pos in (("1" * 5000, False, 0), ("a^" + "9" * 5000, True, 2), ("Z/" + "3" * 5000, False, 2)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, raw=raw)
        assert str(err.value) == f"integer literal longer than the limit of {limit} digits (at position {pos})"
        assert err.value.pos == pos


def test_numbers_past_the_digit_limit_are_refused_on_output():
    # expansion and evaluation can build numbers that str() refuses; every
    # printer names the limit instead
    big = parse("2^20000")  # 6021 digits
    huge_exponent = parse(f"(Z^{'9' * 3000})^{'9' * 3000}")
    value = big.evaluate(1)
    printers = [
        lambda: format_function(big), lambda: function_to_json(big), lambda: function_to_json_obj(big),
        lambda: str(value), lambda: value.to_json(), lambda: str(value.alpha), lambda: value.alpha.to_json(),
        lambda: format_function(huge_exponent), lambda: function_to_json(huge_exponent),
    ]
    for limit in (sys.get_int_max_str_digits(), 5000):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            for printer in printers:
                with pytest.raises(OutputLimitError) as err:
                    printer()
                assert str(err.value) == f"cannot print a number longer than the limit of {limit} digits"
        finally:
            sys.set_int_max_str_digits(old)
    assert isinstance(err.value, BicomplexError)


def test_unary_minus_chain_of_any_length():
    assert parse("-" * 1200 + "Z") == BicomplexFunction.variable()
    assert parse("-" * 1201 + "Z") == -BicomplexFunction.variable()


def test_nesting_limit():
    assert parse("(" * MAX_NESTING + "Z" + ")" * MAX_NESTING) == BicomplexFunction.variable()
    # the error names the limit and the opening parenthesis one past it
    deep_call = "dag(" * (MAX_NESTING + 1) + "Z" + ")" * (MAX_NESTING + 1)
    for text, pos in (("(" * 300 + "Z" + ")" * 300, MAX_NESTING), (deep_call, 4 * MAX_NESTING + 3)):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert f"limit of {MAX_NESTING}" in str(err.value)
        assert err.value.pos == pos


def test_expansion_work_limit():
    # each ran for minutes or would exhaust memory without the limit; the
    # limit comes before the syntax error at the end of the third; the
    # products and the divisor chain of long literals grew quadratically
    nested_calls = "rec(1+Z*(" * 50 + "Z" + ")" * 100
    literal = "9" * 4000
    long_product = "*".join([literal] * 400)
    long_divisors = "Z/" + "/".join([literal] * 400)
    nested_products = "(" * 99 + literal + f"*{literal})" * 99
    for text in (nested_calls, "(Z+star(Z)+dag(Z)+1)^200", "(Z+star(Z)+dag(Z)+1)^200 +", "7^777777777777",
                 "(Z+1)^1000", "(Z+1)^5000", "(Z+1)^100000", long_product, long_divisors, nested_products):
        start = time.perf_counter()
        with pytest.raises(ExprLimitError) as err:
            parse(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.2f}s against a bound of 5s"
        assert f"limit of {MAX_TERM_PAIRS} term pairs" in str(err.value)
    # 1891 terms per component, inside the limit
    f = parse("(Z+star(Z)+1)^60")
    assert len(f.plus.terms) == len(f.minus.terms) == 1891


@st.composite
def _disjoint_monomials(draw):
    """One to five monomials with pairwise disjoint supports: each variable
    goes to one of four terms or to none, and a constant may join them."""
    keys: dict = {}
    for var, owner in enumerate(draw(st.lists(st.sampled_from([None, 0, 1, 2, 3]), min_size=4, max_size=4))):
        if owner is not None:
            keys.setdefault(owner, [0, 0, 0, 0])[var] = draw(st.integers(1, 3))
    monos = [tuple(key) for key in keys.values()]
    if not monos or draw(st.booleans()):
        monos.append((0, 0, 0, 0))
    return monos


def _power_bases():
    """Bases of one to five terms, with disjoint supports, as a linear form
    in Z and its conjugates has in each component, or with monomials drawn
    freely, which may share variables."""
    keys = _disjoint_monomials() | st.lists(monomials(max_degree=2), min_size=1, max_size=5, unique=True)
    coeff = gaussians().filter(lambda g: not g.is_zero())
    return keys.flatmap(lambda ks: st.lists(coeff, min_size=len(ks), max_size=len(ks)).map(lambda cs: Poly4(dict(zip(ks, cs)))))


@settings(deadline=None)
@given(_power_bases(), st.integers(0, 12))
def test_power_gives_and_charges_what_square_and_multiply_does(base, n):
    nums, den = _cached_form(base)
    counted = []

    def counting_mul(a, b):
        counted.append(len(a) * len(b))
        return _mul_nums(a, b)

    expected = _poly_of_form(*_pow_form(nums, den, n, counting_mul))
    pairs = _multinomial_pairs(nums, n)
    assert pairs is None or pairs == sum(counted)
    # the reader, and the reader with square-and-multiply for every power
    text = f"({format_poly(base)})^{n} | 0"
    reader = _Reader(text, True)
    plus, _ = reader.read()
    with mock.patch.object(expr, "_multinomial_pairs", lambda nums, exponent: None):
        square_and_multiply = _Reader(text, True)
        plus_by_squaring, _ = square_and_multiply.read()
    assert _poly_of_form(*plus) == _poly_of_form(*plus_by_squaring) == expected
    assert reader.work == square_and_multiply.work


def test_bases_with_shared_variables_stay_on_square_and_multiply():
    bases = []

    def spy(nums, den, exponent):
        bases.append(sorted(nums))
        return _multinomial_form(nums, den, exponent)

    with mock.patch.object(expr, "_multinomial_form", spy):
        nested = parse("((1+a)^9)^10 | 0", raw=True)
        shared = parse("(a+a*b+b)^6 | 0", raw=True)
        linear = parse("(1+a+b)^5 | 0", raw=True)
    # only 1+a and 1+a+b: (1+a)^9 has ten terms in a, a+a*b+b shares a and b
    assert bases == [[(0, 0, 0, 0), (1, 0, 0, 0)], [(0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)]]
    one, a, b = Poly4.constant(1), Poly4.variable(0), Poly4.variable(2)
    assert nested.plus == (one + a) ** 90
    assert shared.plus == (a + a * b + b) ** 6
    assert linear.plus == (one + a + b) ** 5


def _primes(count: int) -> list[int]:
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_sum_over_growing_denominators_is_charged():
    # each new denominator rescales the whole sum so far; 4000 terms took
    # 35 s before the rescaling counted against the limit, and 1200 terms
    # over 31-digit denominators 22 s before it counted their bits
    primes = _primes(4000)
    for text in (" + ".join(f"Z^{n}/{p}" for n, p in enumerate(primes)),
                 " + ".join(f"Z^{i}/{10 ** 30 + 2 * i + 1}" for i in range(1200))):
        start = time.perf_counter()
        with pytest.raises(ExprLimitError, match=f"limit of {MAX_TERM_PAIRS} term pairs"):
            parse(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 5, f"took {elapsed:.2f}s against a bound of 5s"
    f = parse(" + ".join(f"Z^{n}/{p}" for n, p in enumerate(primes[:1000])))
    assert list(f.plus.terms.items()) == [((n, 0, 0, 0), GaussianRational(Fraction(1, p))) for n, p in enumerate(primes[:1000])]
    assert list(f.minus.terms.items()) == [((0, 0, n, 0), GaussianRational(Fraction(1, p))) for n, p in enumerate(primes[:1000])]


# any string over the grammar's alphabet ends in a function or a domain
# error; an example may expand up to the work limit, about half a second,
# so the default deadline of hypothesis does not apply
_LEXEMES = ["Z", "i", "j", "k", "e+", "e-", "a", "ac", "b", "bc", "dag", "til", "star", "rehyp", "rec",
            "(", ")", "+", "-", "*", "/", "^", "|", " ", "0", "1", "2", "7", "x", "?"]


@settings(deadline=None)
@given(st.lists(st.sampled_from(_LEXEMES), max_size=16).map("".join), st.booleans())
def test_any_short_string_parses_or_raises_a_domain_error(text, raw):
    try:
        assert isinstance(parse(text, raw=raw), BicomplexFunction)
    except BicomplexError:
        pass


def test_component_join_syntax():
    f = parse("a^2 | b + bc", raw=True)
    assert f.plus == ALPHA ** 2
    assert f.minus == BETA + BETA_BAR


def test_point_parser_rejects_non_constants():
    with pytest.raises(BicomplexError):
        parse_point("Z + 1")


def test_mixed_coefficient_formatting_round_trips():
    p = Poly4(
        {
            (2, 0, 0, 0): GaussianRational(Fraction(1, 2), Fraction(-3, 4)),
            (0, 1, 0, 1): GaussianRational(0, 1),
            (0, 0, 0, 0): GaussianRational(-2),
            (0, 0, 3, 0): GaussianRational(-1),
        }
    )
    f = BicomplexFunction(p, Poly4.zero())
    text = format_function(f)
    assert parse(text, raw=True) == f


def test_json_round_trip_fixed():
    f = realizer()
    text = function_to_json(f)
    assert function_from_json(text) == f
    obj = function_to_json_obj(f)
    assert set(obj) == {"plus", "minus"}
    entry = obj["plus"][0]
    assert len(entry) == 5 and all(isinstance(e, int) for e in entry[:4])
    assert all(isinstance(part, str) for part in entry[4])


def test_json_terms_sorted_lexicographically():
    obj = function_to_json_obj(cross_term())
    keys = [tuple(entry[:4]) for entry in obj["plus"]]
    assert keys == sorted(keys)


def test_json_errors_name_paths():
    with pytest.raises(JsonFormatError) as err:
        function_from_json('{"plus": [[0,0,0,0,["1","0","0","1"]]], "minus": []}')
    assert "plus[0]" in str(err.value)
    with pytest.raises(JsonFormatError):
        function_from_json('{"plus": []}')
    with pytest.raises(JsonFormatError):
        function_from_json("not json")
    with pytest.raises(JsonFormatError) as err:
        function_from_json_obj({"plus": [[0, 0, 0, 0, ["1", "1", "0", "1"]], [0, 0, 0, 0, ["2", "1", "0", "1"]]], "minus": []})
    assert "duplicate" in str(err.value)
    with pytest.raises(JsonFormatError) as err:
        function_from_json_obj({"plus": [[0, -1, 0, 0, ["1", "1", "0", "1"]]], "minus": []})
    assert "exponents" in str(err.value)


_ONE = ["1", "1", "0", "1"]

# malformed term lists, each with the message the checks in order give
_MALFORMED_TERMS = [
    ([[True, 0, 0, 0, _ONE]], "[0]: exponents must be nonnegative integers"),
    ([[0, 0, -1, 0, _ONE]], "[0]: exponents must be nonnegative integers"),
    ([[0, 1.0, 0, 0, _ONE]], "[0]: exponents must be nonnegative integers"),
    ([[0, 0, 0, 0, "1/2"]], "[0][4]: expected an array of 4 integer strings"),
    ([[0, 0, 0, 0, ["1", "1", "0"]]], "[0][4]: expected an array of 4 integer strings"),
    ([[0, 0, 0, 0, [None, "1", "0", "1"]]], "[0][4][0:2]: numerator/denominator must be decimal integer strings"),
    ([[0, 0, 0, 0, ["1", "1", "0", []]]], "[0][4][2:4]: numerator/denominator must be decimal integer strings"),
    ([[0, 0, 0, 0, ["1", "1", "x", "1"]]], "[0][4][2:4]: numerator/denominator must be decimal integer strings"),
    ([[0, 0, 0, 0, ["1", "0", "0", "1"]]], "[0][4][0:2]: denominator must be positive"),
    ([[0, 0, 0, 0, ["1", "1", "1", "-2"]]], "[0][4][2:4]: denominator must be positive"),
    ([[0, 0, 0, 0, ["0", "5", "1", "1"]]], "[0][4][0:2]: fraction 0/5 is not in lowest terms"),
    ([[0, 0, 0, 0, ["1", "1", "2", "4"]]], "[0][4][2:4]: fraction 2/4 is not in lowest terms"),
    ([[1, 0, 0, 0, _ONE], [0, 0, 0, 0, _ONE], [1, 0, 0, 0, ["2", "1", "0", "1"]]], "[2]: duplicate monomial (1, 0, 0, 0)"),
    ([[0, 0, 0, 0, _ONE], [0, 1, 0, 0, ["0", "1", "0", "1"]]], "[1]: explicit zero coefficient"),
    ([[0, 0, 0, 0, _ONE], "x"], "[1]: expected [a, b, c, d, coeff]"),
    ([[0, 0, 0, _ONE]], "[0]: expected [a, b, c, d, coeff]"),
    ({"a": 1}, ": expected a list of terms"),
]


@pytest.mark.parametrize("terms, message", _MALFORMED_TERMS)
@pytest.mark.parametrize("side", ["plus", "minus"])
def test_malformed_json_terms_give_the_message_of_their_first_broken_rule(terms, message, side):
    obj = {"plus": [], "minus": [], side: terms}
    with pytest.raises(JsonFormatError) as err:
        function_from_json_obj(obj)
    assert str(err.value) == f"function.{side}{message}"


# coefficient parts the JSON readers refuse: a part is a str of ASCII
# digits after an optional minus sign, and nothing else
_BAD_PARTS = [" 1", "1 ", "1_0", "+5", "", "-", "1.0", "\u0663", "\uff11", 3.9, 1, True, None]


@pytest.mark.parametrize("part", _BAD_PARTS)
def test_json_parts_must_be_decimal_strings(part):
    message = "numerator/denominator must be decimal integer strings"
    for parts, where in (([part, "1", "0", "1"], "[0:2]"), (["1", "1", "0", part], "[2:4]")):
        with pytest.raises(JsonFormatError) as err:
            function_from_json_obj({"plus": [[0, 0, 0, 0, parts]], "minus": []})
        assert str(err.value) == f"function.plus[0][4]{where}: {message}"
        with pytest.raises(JsonFormatError) as err:
            operator_from_json_obj({"op_plus": [], "op_minus": [[0, 0, 0, 0, parts]]})
        assert str(err.value) == f"operator.op_minus[0][4]{where}: {message}"
        with pytest.raises(BicomplexError) as err:
            Bicomplex.from_json(["1", "1", "0", "1", *parts])
        assert str(err.value) == f"bicomplex[4:8]{where}: {message}"


def test_lenient_json_text_is_refused():
    for parts in ('[" 1_0",3.9,"0",true]', "[1,2,0,1]", '[[1],["2"],"0","1"]'):
        with pytest.raises(JsonFormatError, match=r"function\.plus\[0\]\[4\]\[0:2\]"):
            function_from_json('{"plus":[[0,0,0,0,%s]],"minus":[]}' % parts)


def test_operator_json_round_trip():
    op = laplacian(3) + laplacian(1).scale(GaussianRational(0, 2))
    obj = operator_to_json_obj(op)
    assert set(obj) == {"op_plus", "op_minus"}
    assert operator_from_json_obj(obj) == op


@given(functions())
def test_format_parse_round_trip_random(f):
    assert parse(format_function(f), raw=True) == f


@given(functions())
def test_json_round_trip_random(f):
    assert function_from_json(function_to_json(f)) == f


def test_seeded_round_trip_bulk():
    sampler = Sampler(101)
    for _ in range(200):
        f = sampler.function()
        assert parse(format_function(f), raw=True) == f
        assert function_from_json(function_to_json(f)) == f


# ---- canonical text: the term kernel against the reader


def _assert_kernel_reads_as_reader(text):
    budget, reader = _Budget(), _Reader(text, True)
    kernel = _read_canonical(text, budget)
    assert kernel is not None
    forms = starmap(_poly_of_form, reader.read())
    assert [list(p.terms.items()) for p in kernel] == [list(p.terms.items()) for p in forms]
    assert budget.work == reader.work


def _big_parts():
    bits = st.integers(min_value=256, max_value=4096)
    number = bits.flatmap(lambda b: st.integers(min_value=2 ** (b - 1), max_value=2 ** b - 1))
    return st.builds(lambda n, d, sign: Fraction(sign * n, d), number, number | st.just(1), st.sampled_from((1, -1)))


def _big_functions():
    coeff = st.builds(GaussianRational, _big_parts() | st.just(0), _big_parts() | st.just(0))
    poly = st.dictionaries(monomials(), coeff, max_size=4).map(Poly4)
    return st.builds(BicomplexFunction, poly, poly)


@settings(deadline=None)
@given(functions() | _big_functions())
def test_canonical_kernel_gives_the_readers_forms_and_work(f):
    _assert_kernel_reads_as_reader(format_function(f))


def _outcome(read, text):
    try:
        plus, minus = read(text)
    except (BicomplexError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)
    return list(plus.terms.items()), list(minus.terms.items())


def _assert_parses_as_reader(text):
    def via_kernel(text):
        fn = parse(text, raw=True)
        return fn.plus, fn.minus

    def via_reader(text):
        return starmap(_poly_of_form, _Reader(text, True).read())

    assert _outcome(via_kernel, text) == _outcome(via_reader, text)


_NEAR_MISSES = ["0*a | 0", "2/4*a | 0", "a/0 | 0", "007*a | 0", "a*a | 0", "(0+i) | 0", "a + | 0", "a + b + | 0",
                "3/1*a | 0", "1*a | 0", "(1+1*i)*b | 0", "a^1 | 0", "b*a | 0", "3i | 0", "a  + b | 0", "a-b | 0",
                "-(1+i) | 0", "a | 0 | 0", "a | b + ", "0 | ", " | 0", "a\n | 0", "0 | a\n", "a + 2/4*b^2 + ? | 0",
                "7" * 5000 + "*a | 0",  # past int's digit limit
                # out of order or repeated monomials, which format_poly never prints
                "a + b | 0", "a + a | 0", "a - a | 0", "a + 2*a | 0"]


@pytest.mark.parametrize("text", _NEAR_MISSES)
def test_non_canonical_text_parses_as_the_reader_reads_it(text):
    assert _read_canonical(text, _Budget()) is None
    _assert_parses_as_reader(text)


# the characters of printed text, and the edits of one character made to it
_PRINTED = "0123456789/+-*^() |iabc"


def _printed_side(terms: list) -> str:
    """One side of a function's text from terms matched by
    ``_CANONICAL_TERM``: the first keeps at most a minus sign, the others
    are joined by ' + ' or ' - ', each as its own separator says."""
    side = []
    for term in terms:
        sep = _CANONICAL_TERM.match(term)[1]
        minus = sep in (" - ", "-")
        side.append(("-" if minus else "") if not side else (" - " if minus else " + "))
        side.append(term[len(sep):])
    return "".join(side)


def _near_canonical_texts():
    """Texts of terms drawn from ``_CANONICAL_TERM`` itself, so not only
    what ``format_poly`` prints: unreduced, out-of-order and repeated
    terms, a 1 before '*', exponents of any size, and the separators."""
    # a match inside a drawn string: a full match would be drawn mostly to
    # be filtered out, on the lookarounds
    term = st.from_regex(_CANONICAL_TERM, alphabet=_PRINTED).map(lambda s: _CANONICAL_TERM.search(s)[0])
    side = st.lists(term, min_size=1, max_size=4).map(_printed_side) | st.just("0")
    return st.builds(lambda plus, minus: plus + " | " + minus, side, side)


@settings(deadline=None)
@given(functions().map(format_function) | _near_canonical_texts(), st.data())
def test_near_canonical_text_parses_as_the_reader_reads_it(text, data):
    pos = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    edit = data.draw(st.sampled_from(["", text[pos] * 2, *_PRINTED]))
    text = text[:pos] + edit + text[pos + 1:]
    _assert_parses_as_reader(text)
    budget = _Budget()
    try:
        kernel = _read_canonical(text, budget)
    except BicomplexError:  # what parse raised, compared with the reader's above
        return
    if kernel is not None:
        reader = _Reader(text, True)
        reader.read()
        assert budget.work == reader.work


def _canonical_sum(coeffs) -> str:
    """The canonical text of the sum of coeffs[n]*a^n, on the plus side."""
    terms = {(n, 0, 0, 0): GaussianRational(*c) for n, c in enumerate(coeffs)}
    return format_function(BicomplexFunction(Poly4(terms), Poly4.zero()))


def test_canonical_sum_over_growing_denominators_is_charged():
    # the canonical form of the sum in test_sum_over_growing_denominators_is_charged
    primes = _primes(4000)
    text = _canonical_sum([Fraction(1, p)] for p in primes)
    start = time.perf_counter()
    with pytest.raises(ExprLimitError, match=f"limit of {MAX_TERM_PAIRS} term pairs"):
        parse(text, raw=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 5, f"took {elapsed:.2f}s against a bound of 5s"
    # a bad token anywhere is reported before the limit, as the reader does
    with pytest.raises(ExprSyntaxError, match="unexpected character '[?]'"):
        parse(text + " ?", raw=True)
    text = _canonical_sum([Fraction(1, p)] for p in primes[:1000])
    _assert_kernel_reads_as_reader(text)
    f = parse(text, raw=True)
    assert list(f.plus.terms.items()) == [((n, 0, 0, 0), GaussianRational(Fraction(1, p))) for n, p in enumerate(primes[:1000])]
    assert f.minus.is_zero()


def test_canonical_sum_over_growing_denominators_is_read_once():
    # the reader rescales its sum at each new denominator; the kernel only
    # tracks the common denominator to charge the same work
    primes = _primes(1500)
    text = _canonical_sum([Fraction(1, p)] for p in primes)
    start = time.perf_counter()
    f = parse(text, raw=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f}s against a bound of 0.5s"
    assert list(f.plus.terms.items()) == [((n, 0, 0, 0), GaussianRational(Fraction(1, p))) for n, p in enumerate(primes)]
    assert f.minus.is_zero()


def _peak_bytes(read, text) -> int:
    tracemalloc.start()
    try:
        read(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonical_kernel_peaks_below_the_reader():
    # 2000 terms with coefficients like the benchmark's, denominators
    # dividing 6^11; a whole-text regex match peaks far above the reader
    rng = random.Random(0)

    def part():
        return Fraction(rng.choice((1, -1)) * rng.randrange(1, 10 ** 8), 2 ** rng.randrange(12) * 3 ** rng.randrange(12))

    text = _canonical_sum((part(), part()) for _ in range(2000))
    _assert_kernel_reads_as_reader(text)
    assert _peak_bytes(lambda t: _read_canonical(t, _Budget()), text) < _peak_bytes(lambda t: _Reader(t, True).read(), text)


# ---- expression-built polynomials: coefficient parts


def _timed(call, *args):
    start = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - start


def test_mixed_denominators_read_and_print_in_linear_time():
    # 4000 terms over distinct 31-digit denominators; over one shared
    # denominator every numerator would be about 364 thousand bits long
    terms = [[i, 0, 0, 0, ["1", str(10 ** 30 + 2 * i + 1), "0", "1"]] for i in range(4000)]
    text = json.dumps({"plus": terms, "minus": []}, separators=(",", ":"))
    fn, seconds = _timed(function_from_json, text)
    assert seconds < 0.5
    printed, seconds = _timed(format_function, fn)
    assert seconds < 0.5
    assert printed.startswith("1/1000000000000000000000000000001 + 1/1000000000000000000000000000003*a + ")
    again, seconds = _timed(function_to_json, fn)
    assert seconds < 0.5
    assert again == text


def test_call_free_round_trip_builds_no_gaussian_rational(gaussian_rationals_built):
    # readers store coefficient parts, and printers and equality read them
    fn = parse("(Z + 2/3*i)^3 + k*Z^2/5")
    reparsed = parse(format_function(fn), raw=True)
    from_json = function_from_json(function_to_json(reparsed))
    assert from_json == fn and from_json == reparsed
    assert [len(p) for g in (fn, reparsed, from_json) for p in (g.plus, g.minus)] == [4, 4] * 3
    assert gaussian_rationals_built == []


def test_operations_on_a_parse_result_build_no_gaussian_rational(gaussian_rationals_built):
    # products and powers run on the integer form and give parts; equality,
    # hash and the hyperbolic-valued test read parts
    fn = parse("(Z + 2/3*i)^3 + k*Z^2/5")
    square, cube = fn * fn, fn ** 3
    assert square == fn ** 2 and hash(square) == hash(fn ** 2) and cube != square
    assert hash(fn) == hash(parse("(Z + 2/3*i)^3 + k*Z^2/5"))
    assert not fn.is_hyperbolic_valued() and not square.is_hyperbolic_valued()
    real = parse("a*ac + (1+2i)*a + (1-2i)*ac | 3/2*b*bc - b - bc", raw=True)
    assert real.is_hyperbolic_valued() and (real * real).is_hyperbolic_valued() and (real ** 3).is_hyperbolic_valued()
    assert parse(format_function(cube), raw=True) == cube
    assert function_from_json(function_to_json(square)) == square
    assert gaussian_rationals_built == []


def _z_text(poly: Poly4) -> str:
    """Text without idempotent variables for the plus component ``poly``:
    on that component Z, star(Z), dag(Z) and til(Z) are a, ac, b and bc."""
    terms = [
        f"({c.re.numerator}/{c.re.denominator} + {c.im.numerator}/{c.im.denominator}*i)"
        f"*Z^{e0}*star(Z)^{e1}*dag(Z)^{e2}*til(Z)^{e3}"
        for (e0, e1, e2, e3), c in poly.terms.items()
    ]
    return f"e+*({' + '.join(terms) or '0'})"


# each route builds a polynomial equal to the plain one it is given
_ROUTES = {
    "Poly4(dict)": lambda p: Poly4(dict(p.terms)),
    "parse": lambda p: parse(_z_text(p)).plus,
    "parse raw, kernel": lambda p: parse(format_poly(p) + " | 0", raw=True).plus,
    "parse raw, reader": lambda p: parse(format_poly(p) + " + 0 | 0", raw=True).plus,
    "function_from_json": lambda p: function_from_json(function_to_json(BicomplexFunction(p, Poly4.zero()))).plus,
    "operator_from_json_obj": lambda p: operator_from_json_obj(operator_to_json_obj(Operator(p, Poly4.zero()))).plus,
}


def _small_polys():
    # few monomials and coefficients, so that independent draws are often
    # equal or share monomials with other coefficients
    coeff = st.sampled_from([GaussianRational(1), GaussianRational(Fraction(1, 2)), GaussianRational(0, -1),
                             GaussianRational(Fraction(-2, 3), 1)])
    return st.dictionaries(monomials(max_degree=1), coeff, max_size=2).map(Poly4)


@settings(deadline=None)
@given(_small_polys(), st.data())
def test_equality_and_hash_agree_across_routes(a, data):
    b = data.draw(st.just(a) | _small_polys())
    equal = a.terms == b.terms
    xs = [route(a) for route in _ROUTES.values()]
    ys = [route(b) for route in _ROUTES.values()]
    hashes = [hash(x) for x in xs]

    def check():
        for x in xs:
            for y in ys:
                assert (x == y) == equal and (y == x) == equal and (x != y) != equal
                if equal:
                    assert hash(x) == hash(y)

    check()
    for x in xs:  # reading terms builds and caches them on the parts routes
        assert x.terms == a.terms
    check()
    assert [hash(x) for x in xs] == hashes
